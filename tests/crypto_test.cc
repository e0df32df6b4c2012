#include <gtest/gtest.h>

#include <vector>

#include "crypto/bigint.h"
#include "crypto/fixed_base.h"
#include "crypto/fixed_point.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"

namespace hprl::crypto {
namespace {

// Small keys keep the suite fast; real-size keys are covered by one test and
// the micro benches.
constexpr int kTestKeyBits = 256;

TEST(BigIntTest, BasicArithmetic) {
  BigInt a(100), b(7);
  EXPECT_EQ((a + b).ToString(), "107");
  EXPECT_EQ((a - b).ToString(), "93");
  EXPECT_EQ((a * b).ToString(), "700");
  EXPECT_EQ((a / b).ToString(), "14");
  EXPECT_EQ((a % b).ToString(), "2");
  EXPECT_EQ((-a).ToString(), "-100");
}

TEST(BigIntTest, EuclideanModOfNegative) {
  BigInt a(-5), m(7);
  EXPECT_EQ((a % m).ToString(), "2");  // mpz_mod is non-negative
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_LE(BigInt(2), BigInt(2));
  EXPECT_GT(BigInt(3), BigInt(-3));
  EXPECT_EQ(BigInt(0), BigInt());
}

TEST(BigIntTest, StringRoundTrip) {
  const std::string big = "123456789012345678901234567890123456789";
  auto x = BigInt::FromString(big);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->ToString(), big);
  EXPECT_FALSE(BigInt::FromString("12z").ok());
  EXPECT_FALSE(BigInt::FromString("").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  auto x = BigInt::FromString("987654321098765432109876543210");
  ASSERT_TRUE(x.ok());
  auto bytes = x->ToBytes();
  EXPECT_EQ(BigInt::FromBytes(bytes), *x);
  EXPECT_TRUE(BigInt(0).ToBytes().empty());
  EXPECT_EQ(BigInt::FromBytes({}), BigInt(0));
}

TEST(BigIntTest, ToInt64Bounds) {
  EXPECT_EQ(*BigInt(-42).ToInt64(), -42);
  auto huge = BigInt::FromString("99999999999999999999999999");
  ASSERT_TRUE(huge.ok());
  EXPECT_FALSE(huge->ToInt64().ok());
}

TEST(BigIntTest, PowModAndInverse) {
  BigInt base(4), exp(13), mod(497);
  EXPECT_EQ(BigInt::PowMod(base, exp, mod), BigInt(445));
  auto inv = BigInt::ModInverse(BigInt(3), BigInt(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(*inv, BigInt(4));
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());  // gcd 3
}

TEST(BigIntTest, GcdLcmPrime) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_TRUE(BigInt(104729).IsProbablePrime());
  EXPECT_FALSE(BigInt(104730).IsProbablePrime());
  EXPECT_EQ(BigInt(100).NextPrime(), BigInt(101));
}

TEST(SecureRandomTest, DeterministicSeedReproduces) {
  SecureRandom a(5), b(5);
  EXPECT_EQ(a.NextBits(128), b.NextBits(128));
  EXPECT_EQ(a.NextBelow(BigInt(1000000)), b.NextBelow(BigInt(1000000)));
}

TEST(SecureRandomTest, BitsBound) {
  SecureRandom rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(rng.NextBits(64).BitLength(), 64u);
  }
}

TEST(SecureRandomTest, BelowBound) {
  SecureRandom rng(7);
  BigInt bound(1000);
  for (int i = 0; i < 200; ++i) {
    BigInt x = rng.NextBelow(bound);
    EXPECT_GE(x.Sign(), 0);
    EXPECT_LT(x, bound);
  }
}

TEST(SecureRandomTest, PrimesHaveExactBitLength) {
  SecureRandom rng(8);
  for (int i = 0; i < 5; ++i) {
    BigInt p = rng.NextPrime(96);
    EXPECT_EQ(p.BitLength(), 96u);
    EXPECT_TRUE(p.IsProbablePrime());
  }
}

TEST(SecureRandomTest, OsEntropyWorks) {
  SecureRandom rng;  // real /dev/urandom
  BigInt a = rng.NextBits(128);
  BigInt b = rng.NextBits(128);
  EXPECT_NE(a, b);  // 2^-128 false-failure probability
}

class PaillierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SecureRandom rng(1234);
    auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
    ASSERT_TRUE(kp.ok()) << kp.status().ToString();
    pub_ = kp->pub;
    priv_ = kp->priv;
  }
  SecureRandom rng_{99};
  PaillierPublicKey pub_;
  PaillierPrivateKey priv_;
};

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (int64_t m : {0LL, 1LL, 42LL, 1234567890LL}) {
    auto c = pub_.Encrypt(BigInt(m), rng_);
    ASSERT_TRUE(c.ok());
    auto d = priv_.Decrypt(*c);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, BigInt(m)) << m;
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  auto c1 = pub_.Encrypt(BigInt(5), rng_);
  auto c2 = pub_.Encrypt(BigInt(5), rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(*c1, *c2);
  EXPECT_EQ(*priv_.Decrypt(*c1), *priv_.Decrypt(*c2));
}

TEST_F(PaillierTest, RejectsOutOfRangePlaintext) {
  EXPECT_FALSE(pub_.Encrypt(BigInt(-1), rng_).ok());
  EXPECT_FALSE(pub_.Encrypt(pub_.n(), rng_).ok());
}

TEST_F(PaillierTest, RejectsBadCiphertext) {
  EXPECT_FALSE(priv_.Decrypt(BigInt(0)).ok());
  EXPECT_FALSE(priv_.Decrypt(pub_.n_squared()).ok());
}

TEST_F(PaillierTest, HomomorphicAdd) {
  auto c1 = pub_.Encrypt(BigInt(1111), rng_);
  auto c2 = pub_.Encrypt(BigInt(2222), rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto sum = priv_.Decrypt(pub_.Add(*c1, *c2));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, BigInt(3333));
}

TEST_F(PaillierTest, HomomorphicScalarMul) {
  auto c = pub_.Encrypt(BigInt(77), rng_);
  ASSERT_TRUE(c.ok());
  auto prod = priv_.Decrypt(pub_.ScalarMul(*c, BigInt(9)));
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(*prod, BigInt(693));
}

TEST_F(PaillierTest, SignedEncodingSurvivesArithmetic) {
  // Enc(x) +h Enc(-2x) should decode (signed) to -x.
  auto c1 = pub_.EncryptSigned(BigInt(500), rng_);
  auto c2 = pub_.EncryptSigned(BigInt(-1000), rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto d = priv_.DecryptSigned(pub_.Add(*c1, *c2));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, BigInt(-500));
}

TEST_F(PaillierTest, NegativeScalarMul) {
  auto c = pub_.EncryptSigned(BigInt(30), rng_);
  ASSERT_TRUE(c.ok());
  auto d = priv_.DecryptSigned(pub_.ScalarMul(*c, BigInt(-4)));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, BigInt(-120));
}

TEST_F(PaillierTest, NegativeScalarsDecryptToProductShortAndNearHalfN) {
  // A negative k exponentiates c⁻¹ by |k|; the plaintext must still be k·m
  // mod n, for short scalars (the protocol's y and -rho) and for scalars
  // near -n/2, where |k| is as wide as the modulus.
  SecureRandom vals(41);
  const BigInt half = pub_.n() / BigInt(2);
  for (int round = 0; round < 16; ++round) {
    BigInt m = vals.NextBelow(pub_.n());
    BigInt k = round % 2 == 0 ? -(vals.NextBits(64) + BigInt(1))
                              : -(half - vals.NextBits(32));
    auto c = pub_.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto d = priv_.Decrypt(pub_.ScalarMul(*c, k));
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, (k * m) % pub_.n()) << "round " << round;
  }
}

TEST(PaillierScalarMulTest, NonInvertibleCiphertextTakesFullWidthExponent) {
  // c = p lies in (0, n²) and passes ValidateCiphertext, but shares the
  // factor p with n, so c⁻¹ mod n² does not exist. ScalarMul must neither
  // crash (GMP divides by zero on a negative mpz_powm exponent without an
  // inverse) nor change meaning: it keeps the c^(n - |k|) embedding.
  SecureRandom rng(1234);
  const BigInt p = rng.NextPrime(kTestKeyBits / 2);
  const BigInt q = rng.NextPrime(kTestKeyBits / 2);
  auto priv = PaillierPrivateKey::FromPrimes(p, q);
  ASSERT_TRUE(priv.ok());
  PaillierPublicKey pub(priv->n());
  ASSERT_TRUE(pub.ValidateCiphertext(p).ok());
  BigInt scratch, out;
  for (const BigInt& k : {BigInt(-1), BigInt(-987654321),
                          BigInt(0) - pub.n() / BigInt(2)}) {
    const BigInt want = BigInt::PowMod(p, k % pub.n(), pub.n_squared());
    EXPECT_EQ(pub.ScalarMul(p, k), want) << k.ToString();
    pub.ScalarMulInto(p, k, &scratch, &out);
    EXPECT_EQ(out, want) << k.ToString();
  }
}

TEST_F(PaillierTest, PaperSquaredDistanceIdentity) {
  // The §V-A computation: Enc(x²) +h (Enc(-2x) ×h y) +h Enc(y²) = Enc((x-y)²).
  int64_t x = 357, y = 123;
  auto cx2 = pub_.EncryptSigned(BigInt(x * x), rng_);
  auto cm2x = pub_.EncryptSigned(BigInt(-2 * x), rng_);
  auto cy2 = pub_.EncryptSigned(BigInt(y * y), rng_);
  ASSERT_TRUE(cx2.ok() && cm2x.ok() && cy2.ok());
  BigInt c = pub_.Add(pub_.Add(*cx2, pub_.ScalarMul(*cm2x, BigInt(y))), *cy2);
  auto d = priv_.DecryptSigned(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, BigInt((x - y) * (x - y)));
}

TEST_F(PaillierTest, RerandomizePreservesPlaintext) {
  auto c = pub_.Encrypt(BigInt(31337), rng_);
  ASSERT_TRUE(c.ok());
  auto c2 = pub_.Rerandomize(*c, rng_);
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c, *c2);
  EXPECT_EQ(*priv_.Decrypt(*c2), BigInt(31337));
}

TEST_F(PaillierTest, CrtDecryptMatchesReferenceOnEdgePlaintexts) {
  ASSERT_TRUE(priv_.has_crt());
  const BigInt n = pub_.n();
  const BigInt half = n / BigInt(2);
  const std::vector<BigInt> plaintexts = {
      BigInt(0),          BigInt(1),         BigInt(2),
      BigInt(424242),     half - BigInt(1),  half,
      half + BigInt(1),   n - BigInt(2),     n - BigInt(1)};
  for (const BigInt& m : plaintexts) {
    auto c = pub_.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto fast = priv_.Decrypt(*c);
    auto ref = priv_.DecryptReference(*c);
    ASSERT_TRUE(fast.ok() && ref.ok());
    EXPECT_EQ(*fast, *ref) << m.ToString();
    EXPECT_EQ(*fast, m) << m.ToString();
  }
}

TEST_F(PaillierTest, CrtSignedDecryptMatchesReference) {
  for (int64_t x : {0LL, 1LL, -1LL, 1000LL, -1000LL, 123456789LL,
                    -123456789LL}) {
    auto c = pub_.EncryptSigned(BigInt(x), rng_);
    ASSERT_TRUE(c.ok());
    auto fast = priv_.DecryptSigned(*c);
    auto ref = priv_.DecryptSignedReference(*c);
    ASSERT_TRUE(fast.ok() && ref.ok());
    EXPECT_EQ(*fast, *ref) << x;
    EXPECT_EQ(*fast, BigInt(x)) << x;
  }
}

TEST_F(PaillierTest, CrtSurvivesHomomorphicArithmetic) {
  // Homomorphic results are the ciphertexts the SMC protocol actually
  // decrypts — check the fast path on those, not just fresh encryptions.
  int64_t x = 357, y = 123;
  auto cx2 = pub_.EncryptSigned(BigInt(x * x), rng_);
  auto cm2x = pub_.EncryptSigned(BigInt(-2 * x), rng_);
  auto cy2 = pub_.EncryptSigned(BigInt(y * y), rng_);
  ASSERT_TRUE(cx2.ok() && cm2x.ok() && cy2.ok());
  BigInt c = pub_.Add(pub_.Add(*cx2, pub_.ScalarMul(*cm2x, BigInt(y))), *cy2);
  auto fast = priv_.DecryptSigned(c);
  auto ref = priv_.DecryptSignedReference(c);
  ASSERT_TRUE(fast.ok() && ref.ok());
  EXPECT_EQ(*fast, *ref);
  EXPECT_EQ(*fast, BigInt((x - y) * (x - y)));
}

TEST(PaillierCrtTest, ReferenceOnlyKeyStillDecrypts) {
  // A key built through the legacy (n, lambda, mu) ctor has no CRT data and
  // must transparently fall back to the reference path.
  SecureRandom rng(4321);
  BigInt p = rng.NextPrime(128);
  BigInt q = rng.NextPrime(128);
  while (q == p) q = rng.NextPrime(128);
  BigInt n = p * q;
  BigInt lambda = BigInt::Lcm(p - BigInt(1), q - BigInt(1));
  auto mu = BigInt::ModInverse(lambda, n);  // g = n+1 ⇒ L(g^λ) = λ mod n
  ASSERT_TRUE(mu.ok());
  PaillierPublicKey pub(n);
  PaillierPrivateKey priv(n, lambda, *mu);
  EXPECT_FALSE(priv.has_crt());

  auto crt = PaillierPrivateKey::FromPrimes(p, q);
  ASSERT_TRUE(crt.ok());
  EXPECT_TRUE(crt->has_crt());

  SecureRandom enc_rng(55);
  for (int64_t m : {0LL, 7LL, 31337LL}) {
    auto c = pub.Encrypt(BigInt(m), enc_rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*priv.Decrypt(*c), BigInt(m));
    EXPECT_EQ(*crt->Decrypt(*c), BigInt(m));
  }
}

TEST(PaillierCrtTest, FromPrimesRejectsBadModulus) {
  // p == q gives gcd(n, λ) != 1 — FromPrimes must refuse it.
  BigInt p(104729);
  EXPECT_FALSE(PaillierPrivateKey::FromPrimes(p, p).ok());
}

class RandomizerPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SecureRandom rng(2024);
    auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
    ASSERT_TRUE(kp.ok()) << kp.status().ToString();
    pub_ = kp->pub;
    priv_ = kp->priv;
  }
  SecureRandom rng_{7};
  PaillierPublicKey pub_;
  PaillierPrivateKey priv_;
};

TEST_F(RandomizerPoolTest, PooledEncryptionRoundTrips) {
  RandomizerPool pool(pub_, /*target_depth=*/8, /*test_seed=*/99);
  pool.Prefill(8);
  EXPECT_EQ(pool.depth(), 8);
  pub_.AttachRandomizerPool(&pool);
  for (int64_t m : {0LL, 1LL, 123456LL}) {
    auto c = pub_.Encrypt(BigInt(m), rng_);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*priv_.Decrypt(*c), BigInt(m)) << m;
  }
  auto cs = pub_.EncryptSigned(BigInt(-777), rng_);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(*priv_.DecryptSigned(*cs), BigInt(-777));
  EXPECT_GT(pool.hits(), 0);
  EXPECT_EQ(pool.misses(), 0);
}

TEST_F(RandomizerPoolTest, PooledRerandomizePreservesPlaintext) {
  RandomizerPool pool(pub_, 4, 5);
  pool.Prefill(4);
  pub_.AttachRandomizerPool(&pool);
  auto c = pub_.Encrypt(BigInt(31337), rng_);
  ASSERT_TRUE(c.ok());
  auto c2 = pub_.Rerandomize(*c, rng_);
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c, *c2);
  EXPECT_EQ(*priv_.Decrypt(*c2), BigInt(31337));
}

TEST_F(RandomizerPoolTest, DrainedPoolFallsBackInline) {
  RandomizerPool pool(pub_, 2, 11);
  pool.Prefill(2);
  pub_.AttachRandomizerPool(&pool);
  for (int i = 0; i < 5; ++i) {
    auto c = pub_.Encrypt(BigInt(i), rng_);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*priv_.Decrypt(*c), BigInt(i));
  }
  EXPECT_EQ(pool.hits(), 2);
  EXPECT_EQ(pool.misses(), 3);
}

TEST_F(RandomizerPoolTest, BackgroundFillerServesTakes) {
  // Exercises the filler thread / Take() handoff (TSan covers the races).
  RandomizerPool pool(pub_, 6, 13);
  pool.Start();
  for (int i = 0; i < 20; ++i) {
    BigInt rn = pool.Take();
    // Every value must be a valid unit r^n mod n²: decrypting it as a
    // ciphertext of 0 must give 0.
    EXPECT_EQ(*priv_.Decrypt(rn), BigInt(0));
  }
  pool.Stop();
  EXPECT_EQ(pool.hits() + pool.misses(), 20);
}

TEST_F(RandomizerPoolTest, MetricsStreamHitsMissesDepth) {
  obs::MetricsRegistry registry;
  RandomizerPool pool(pub_, 3, 17);
  pool.AttachMetrics(&registry);
  pool.Prefill(3);
  pub_.AttachRandomizerPool(&pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pub_.Encrypt(BigInt(i), rng_).ok());
  }
  auto counters = registry.CounterValues();
  EXPECT_EQ(counters.at("paillier.randomizer_pool_hits"), 3);
  EXPECT_EQ(counters.at("paillier.randomizer_pool_misses"), 1);
  EXPECT_EQ(registry.GaugeValues().at("paillier.randomizer_pool_depth"), 0);
}

TEST(PaillierKeyGenTest, RejectsTinyModulus) {
  SecureRandom rng(1);
  EXPECT_FALSE(GeneratePaillierKeyPair(32, rng).ok());
}

TEST(PaillierKeyGenTest, PaperSize1024Works) {
  SecureRandom rng(77);
  auto kp = GeneratePaillierKeyPair(1024, rng);
  ASSERT_TRUE(kp.ok());
  EXPECT_GE(kp->pub.modulus_bits(), 1023);
  SecureRandom enc_rng(78);
  auto c = kp->pub.Encrypt(BigInt(424242), enc_rng);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*kp->priv.Decrypt(*c), BigInt(424242));
}

TEST(FixedPointTest, RoundTripAndSquares) {
  FixedPointCodec codec(1000);
  EXPECT_EQ(codec.Encode(1.5), BigInt(1500));
  EXPECT_EQ(codec.Encode(-2.5), BigInt(-2500));
  EXPECT_DOUBLE_EQ(codec.Decode(BigInt(1500)), 1.5);
  EXPECT_DOUBLE_EQ(codec.DecodeSquared(BigInt(2250000)), 2.25);  // 1.5^2
}

TEST(FixedBaseTest, MatchesPowModOnRandomExponents) {
  SecureRandom rng(314);
  BigInt modulus = rng.NextPrime(192) * rng.NextPrime(192);
  BigInt base = rng.NextBelow(modulus - BigInt(2)) + BigInt(2);
  FixedBaseTable table(base, modulus, /*max_exp_bits=*/200);
  ASSERT_TRUE(table.ready());
  for (int i = 0; i < 20; ++i) {
    BigInt exp = rng.NextBits(200);
    auto got = table.Pow(exp);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, BigInt::PowMod(base, exp, modulus)) << exp.ToString();
  }
}

TEST(FixedBaseTest, EdgeExponents) {
  BigInt base(7), modulus(1000003);
  FixedBaseTable table(base, modulus, /*max_exp_bits=*/64, /*window_bits=*/4);
  ASSERT_TRUE(table.ready());
  EXPECT_EQ(*table.Pow(BigInt(0)), BigInt(1));
  EXPECT_EQ(*table.Pow(BigInt(1)), base);
  // Exactly max_exp_bits wide (2^64 - 1) must still be accepted.
  BigInt max_exp = *BigInt::FromString("18446744073709551615");
  EXPECT_EQ(*table.Pow(max_exp), BigInt::PowMod(base, max_exp, modulus));
}

TEST(FixedBaseTest, RejectsBadExponentsAndUnreadyTable) {
  BigInt base(5), modulus(104729);
  FixedBaseTable table(base, modulus, /*max_exp_bits=*/32);
  ASSERT_TRUE(table.ready());
  EXPECT_FALSE(table.Pow(BigInt(-1)).ok());
  EXPECT_FALSE(table.Pow(BigInt(1LL << 32)).ok());  // 33 bits wide
  FixedBaseTable empty;
  EXPECT_FALSE(empty.ready());
  EXPECT_FALSE(empty.Pow(BigInt(3)).ok());
}

TEST(PackingTest, PlanComputesSlotCount) {
  auto layout = PackingLayout::Plan(/*modulus_bits=*/256, /*slot_bits=*/64);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->slot_bits, 64);
  EXPECT_EQ(layout->num_slots, 3);  // (256 - 2) / 64
  EXPECT_EQ(layout->offsets, (std::vector<int>{0, 64, 128, 192}));
  EXPECT_FALSE(PackingLayout::Plan(256, 7).ok());    // below the minimum width
  EXPECT_FALSE(PackingLayout::Plan(32, 64).ok());    // no full slot fits
}

TEST(PackingTest, PlanRepeatedLaysOutMixedWidths) {
  // The hprl_gen QIDs: age [16, 112) at fp_scale 1000 (34 bits) and four
  // categoricals; 62 bits per pair, 16 pairs fit 1022 bits, 8 requested.
  const std::vector<int> pattern = {34, 6, 8, 6, 8};
  auto layout = PackingLayout::PlanRepeated(1024, pattern, 8);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->num_slots, 40);
  EXPECT_EQ(layout->slot_bits, 34);
  ASSERT_EQ(layout->offsets.size(), 41u);
  EXPECT_EQ(layout->offsets.back(), 8 * 62);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(layout->SlotWidth(i), pattern[i % 5]) << i;
    EXPECT_EQ(layout->SlotOffset(i),
              static_cast<int>(i / 5) * 62 + layout->SlotOffset(i % 5));
  }
  // Capacity, not the request, limits a small modulus: 254 / 62 = 4.
  auto small = PackingLayout::PlanRepeated(256, pattern, 8);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_slots, 20);
  EXPECT_TRUE(PackingLayout::PlanRepeated(64, pattern, 8).ok());  // 62 bits
  EXPECT_FALSE(PackingLayout::PlanRepeated(63, pattern, 8).ok());
  EXPECT_FALSE(PackingLayout::PlanRepeated(1024, {}, 8).ok());
  EXPECT_FALSE(PackingLayout::PlanRepeated(1024, {8, 0}, 8).ok());
  EXPECT_FALSE(PackingLayout::PlanRepeated(1024, pattern, 0).ok());
}

TEST(PackingTest, PackUnpackRoundTrip) {
  auto layout = PackingLayout::Plan(256, 64);
  ASSERT_TRUE(layout.ok());
  std::vector<BigInt> values = {BigInt(0), BigInt(123456789),
                                layout->SlotWeight(1) - BigInt(1)};
  auto packed = PackSlots(values, *layout);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  auto back = UnpackSlots(*packed, values.size(), *layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, values);
  // Unpacking fewer slots than were packed leaves a nonzero residue.
  EXPECT_FALSE(UnpackSlots(*packed, 2, *layout).ok());
}

TEST(PackingTest, RejectsOverflowNegativeAndTooMany) {
  auto layout = PackingLayout::Plan(256, 64);
  ASSERT_TRUE(layout.ok());
  const BigInt slot_cap = layout->SlotWeight(1);  // 2^64
  EXPECT_TRUE(layout->SlotHolds(0, slot_cap - BigInt(1)));
  EXPECT_FALSE(layout->SlotHolds(0, slot_cap));
  EXPECT_FALSE(layout->SlotHolds(0, BigInt(-1)));
  EXPECT_FALSE(layout->SlotHolds(3, BigInt(0)));  // past the last slot
  EXPECT_FALSE(PackSlots({slot_cap}, *layout).ok());
  EXPECT_FALSE(PackSlots({BigInt(-1)}, *layout).ok());
  EXPECT_FALSE(PackSlots({BigInt(1), BigInt(2), BigInt(3), BigInt(4)},
                         *layout).ok());
  EXPECT_FALSE(UnpackSlots(BigInt(-5), 1, *layout).ok());
  EXPECT_FALSE(UnpackSlots(BigInt(7), 4, *layout).ok());
}

TEST_F(PaillierTest, PackedFoldMatchesScalarSquaredDistances) {
  // Satellite property test: pack the x² vector, fold in the pre-shifted
  // Enc(-2x_i·W_i) scaled by y_i alone and the packed y² vector
  // homomorphically, decrypt ONCE, unpack — every slot must equal the scalar
  // (x_i - y_i)², including at the fixed-point extremes where |x| + |y|
  // squared fills the 64-bit slot exactly.
  auto layout = PackingLayout::Plan(pub_.modulus_bits(), 64);
  ASSERT_TRUE(layout.ok());
  const size_t k = static_cast<size_t>(layout->num_slots);
  ASSERT_GE(k, 3u);
  SecureRandom vals(31);
  const BigInt kMax((1LL << 31) - 1);  // |x|+|y| <= 2^32-1 keeps (x-y)² in-slot
  for (int round = 0; round < 7; ++round) {
    std::vector<BigInt> xs(k), ys(k);
    if (round == 0) {
      // Extremes: the carry-safety boundary, zero, and negative encodings
      // (FixedPointCodec turns -2.5 into -2500 — signed values flow through
      // Enc(-2x·W) and y as-is).
      xs = {kMax, BigInt(0), FixedPointCodec(1000).Encode(-2.5)};
      ys = {-kMax - BigInt(1), BigInt(0), FixedPointCodec(1000).Encode(1.5)};
      for (size_t i = 3; i < k; ++i) xs[i] = ys[i] = BigInt(0);
    } else if (round == 1) {
      // The widest plaintext Alice encrypts: |x| + |y| at the carry-check
      // limit in the top slot, so |-2x·W_{k-1}| = 2^32·W_{k-1}, which must
      // still sit below n/2 for the signed encoding to round-trip.
      for (size_t i = 0; i < k; ++i) xs[i] = ys[i] = BigInt(0);
      xs[k - 1] = -kMax - BigInt(1);
      ys[k - 1] = kMax;
      xs[k - 2] = kMax;
      ys[k - 2] = -kMax - BigInt(1);
      BigInt mag = BigInt(2) * (kMax + BigInt(1)) * layout->SlotWeight(k - 1);
      ASSERT_LT(mag, pub_.n() / BigInt(2));
    } else {
      for (size_t i = 0; i < k; ++i) {
        xs[i] = vals.NextBelow(kMax) - vals.NextBelow(kMax);
        ys[i] = vals.NextBelow(kMax) - vals.NextBelow(kMax);
      }
    }
    std::vector<BigInt> x2(k), y2(k);
    for (size_t i = 0; i < k; ++i) {
      x2[i] = xs[i] * xs[i];
      y2[i] = ys[i] * ys[i];
    }
    auto px2 = PackSlots(x2, *layout);
    auto py2 = PackSlots(y2, *layout);
    ASSERT_TRUE(px2.ok() && py2.ok());
    auto cx2 = pub_.Encrypt(*px2, rng_);
    auto cy2 = pub_.Encrypt(*py2, rng_);
    ASSERT_TRUE(cx2.ok() && cy2.ok());
    BigInt acc = pub_.Add(*cx2, *cy2);
    for (size_t i = 0; i < k; ++i) {
      auto cm2x =
          pub_.EncryptSigned(BigInt(-2) * xs[i] * layout->SlotWeight(i), rng_);
      ASSERT_TRUE(cm2x.ok());
      acc = pub_.Add(acc, pub_.ScalarMul(*cm2x, ys[i]));
    }
    auto packed = priv_.Decrypt(acc);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    auto slots = UnpackSlots(*packed, k, *layout);
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    for (size_t i = 0; i < k; ++i) {
      BigInt d = xs[i] - ys[i];
      EXPECT_EQ((*slots)[i], d * d) << "round " << round << " slot " << i;
    }
  }
}

// Property (in the style of a proptest suite): random in-domain values, with
// 0 and each domain's maximum forced into every slot in turn, packed into a
// mixed-width layout and folded homomorphically — Enc(Σx²·W) +h Enc(Σy²·W)
// +h Σ Enc(-2x_i·W_i) ×h y_i — decrypt ONCE to exactly (x_i - y_i)² in every
// slot i. The domains are the hprl_gen QIDs' (age [16, 112) at fp_scale
// 1000, shifted to [0, 96000], and four categoricals), each slot
// bitlen(max²) wide, so the extremes fill their slots exactly.
class PackedFoldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedFoldPropertyTest, EverySlotDecryptsToItsSquaredDistance) {
  const int key_bits = GetParam();
  SecureRandom key_rng(static_cast<uint64_t>(key_bits));
  auto kp = GeneratePaillierKeyPair(key_bits, key_rng);
  ASSERT_TRUE(kp.ok()) << kp.status().ToString();
  const std::vector<int64_t> maxima = {96000, 7, 15, 6, 13};
  std::vector<int> pattern;
  for (int64_t m : maxima) {
    pattern.push_back(static_cast<int>((BigInt(m) * BigInt(m)).BitLength()));
  }
  auto layout = PackingLayout::PlanRepeated(key_bits, pattern, 8);
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  const size_t k = static_cast<size_t>(layout->num_slots);
  ASSERT_EQ(k % maxima.size(), 0u);

  SecureRandom vals(static_cast<uint64_t>(key_bits) + 7);
  SecureRandom enc_rng(5);
  const int rounds = key_bits > 256 ? 4 : 12;
  for (int round = 0; round < rounds; ++round) {
    std::vector<BigInt> xs(k), ys(k), x2(k), y2(k);
    for (size_t i = 0; i < k; ++i) {
      const BigInt max(maxima[i % maxima.size()]);
      // Later rounds draw uniformly, but hit 0 and the maximum at an
      // eighth of the slots each.
      auto draw = [&]() {
        const int64_t pick = vals.NextBelow(BigInt(8)).ToInt64().value_or(2);
        return pick == 0   ? BigInt(0)
               : pick == 1 ? max
                           : vals.NextBelow(max + BigInt(1));
      };
      switch (round) {  // rounds 0-2 pin the extremes at every slot
        case 0: xs[i] = BigInt(0), ys[i] = max; break;
        case 1: xs[i] = max, ys[i] = BigInt(0); break;
        case 2: xs[i] = max, ys[i] = max; break;
        default: xs[i] = draw(), ys[i] = draw();
      }
      x2[i] = xs[i] * xs[i];
      y2[i] = ys[i] * ys[i];
    }
    auto px2 = PackSlots(x2, *layout);
    auto py2 = PackSlots(y2, *layout);
    ASSERT_TRUE(px2.ok() && py2.ok()) << "round " << round;
    auto cx2 = kp->pub.Encrypt(*px2, enc_rng);
    auto cy2 = kp->pub.Encrypt(*py2, enc_rng);
    ASSERT_TRUE(cx2.ok() && cy2.ok());
    BigInt acc = kp->pub.Add(*cx2, *cy2);
    for (size_t i = 0; i < k; ++i) {
      auto cm2x = kp->pub.EncryptSigned(
          BigInt(-2) * xs[i] * layout->SlotWeight(i), enc_rng);
      ASSERT_TRUE(cm2x.ok());
      acc = kp->pub.Add(acc, kp->pub.ScalarMul(*cm2x, ys[i]));
    }
    auto packed = kp->priv.Decrypt(acc);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    auto slots = UnpackSlots(*packed, k, *layout);
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    for (size_t i = 0; i < k; ++i) {
      const BigInt d = xs[i] - ys[i];
      EXPECT_EQ((*slots)[i], d * d) << "round " << round << " slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PackedFoldPropertyTest,
                         ::testing::Values(256, 1024));

TEST_F(RandomizerPoolTest, FixedBaseRandomizersAreValidUnits) {
  RandomizerPool fast(pub_, 4, 21);
  RandomizerPool slow(pub_, 4, 21, /*use_fixed_base=*/false);
  EXPECT_TRUE(fast.uses_fixed_base());
  EXPECT_FALSE(slow.uses_fixed_base());
  fast.Prefill(4);
  slow.Prefill(4);
  for (int i = 0; i < 4; ++i) {
    // A valid randomizer is a unit r^n mod n²: it decrypts (as a ciphertext)
    // to 0, whichever path produced it.
    EXPECT_EQ(*priv_.Decrypt(fast.Take()), BigInt(0));
    EXPECT_EQ(*priv_.Decrypt(slow.Take()), BigInt(0));
  }
}

TEST_F(RandomizerPoolTest, HitRateGaugeTracksServedFraction) {
  obs::MetricsRegistry registry;
  RandomizerPool pool(pub_, 3, 23);
  pool.AttachMetrics(&registry);
  pool.Prefill(3);
  pub_.AttachRandomizerPool(&pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pub_.Encrypt(BigInt(i), rng_).ok());
  }
  // 3 hits, 1 miss -> 75% served from the pool.
  EXPECT_DOUBLE_EQ(registry.GaugeValues().at("crypto.pool_hit_rate"), 0.75);
}

}  // namespace
}  // namespace hprl::crypto

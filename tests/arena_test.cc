// Tests for the BigInt scratch arena (src/crypto/arena.h) and the in-place
// Paillier operations it feeds (src/crypto/paillier.h *Into variants): slot
// reuse and reference stability across growth, gauge publication, exact
// parity of the in-place ops against their value-returning references, and
// bit-identical packed-SMC labels with the arena on vs off.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/arena.h"
#include "crypto/bigint.h"
#include "crypto/paillier.h"
#include "obs/metrics.h"
#include "smc/batch_engine.h"
#include "smc/protocol.h"

namespace hprl {
namespace {

using crypto::BigInt;
using crypto::BigIntArena;

// ------------------------------------------------------------ BigIntArena

TEST(BigIntArenaTest, HandsOutDistinctSlotsAndReusesAfterReset) {
  BigIntArena arena(/*value_bits=*/256, /*block_slots=*/4);
  EXPECT_EQ(arena.capacity(), 0u);  // lazy: nothing until first Next()

  BigInt* a = &arena.Next();
  BigInt* b = &arena.Next();
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.in_use(), 2u);
  EXPECT_EQ(arena.capacity(), 4u);

  arena.Reset();
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.capacity(), 4u);  // storage retained

  // The cursor rewound: the same slots come back in the same order.
  EXPECT_EQ(&arena.Next(), a);
  EXPECT_EQ(&arena.Next(), b);
  EXPECT_EQ(arena.resets(), 1);
}

// Growth appends blocks without moving existing slots (deque-backed), so a
// reference taken before growth stays valid — the property the packed
// exchange relies on when a group overflows the first block.
TEST(BigIntArenaTest, GrowthPreservesEarlierReferences) {
  BigIntArena arena(/*value_bits=*/128, /*block_slots=*/2);
  BigInt& first = arena.Next();
  first = BigInt(123456789);
  for (int i = 0; i < 10; ++i) arena.Next();  // forces several growths
  EXPECT_GE(arena.capacity(), 11u);
  EXPECT_GT(arena.blocks(), 1);
  EXPECT_EQ(first, BigInt(123456789));  // still alive, still intact
}

TEST(BigIntArenaTest, SlotsAreWideEnoughForInPlaceOps) {
  // Slots are reserved at value_bits; a value of exactly that width must fit
  // without realloc (reserved_bytes does not move when one is stored).
  BigIntArena arena(/*value_bits=*/512, /*block_slots=*/2);
  BigInt& slot = arena.Next();
  const int64_t reserved = arena.reserved_bytes();
  slot = BigInt(1);
  for (int i = 0; i < 511; ++i) slot = slot + slot;  // 2^511: full width
  EXPECT_EQ(slot.BitLength(), 512u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(BigIntArenaTest, PublishesGauges) {
  obs::MetricsRegistry registry;
  BigIntArena arena(/*value_bits=*/64, /*block_slots=*/4);
  arena.AttachMetrics(&registry);
  for (int i = 0; i < 5; ++i) arena.Next();  // two blocks
  arena.Reset();
  EXPECT_EQ(registry.gauge("crypto.arena.blocks")->value(), 2);
  EXPECT_GT(registry.gauge("crypto.arena.bytes")->value(), 0);
  EXPECT_EQ(registry.gauge("crypto.arena.resets")->value(), 1);
}

// -------------------------------------------------- in-place Paillier ops

class InPlaceOpsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::SecureRandom rng(1234);
    auto kp = crypto::GeneratePaillierKeyPair(256, rng);
    ASSERT_TRUE(kp.ok());
    kp_ = new crypto::PaillierKeyPair(std::move(kp).value());
  }
  static crypto::PaillierKeyPair* kp_;
};

crypto::PaillierKeyPair* InPlaceOpsTest::kp_ = nullptr;

// EncryptInto must consume the same randomness and produce the same
// ciphertext as Encrypt: two rngs with the same seed, one per path.
TEST_F(InPlaceOpsTest, EncryptIntoMatchesEncrypt) {
  const auto& pub = kp_->pub;
  crypto::SecureRandom value_rng(42), into_rng(42);
  BigInt scratch, out;
  for (int64_t m : {0, 1, 17, 99999}) {
    auto value = pub.Encrypt(BigInt(m), value_rng);
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(pub.EncryptInto(BigInt(m), into_rng, &scratch, &out).ok());
    EXPECT_EQ(out, *value) << "m=" << m;
  }
}

TEST_F(InPlaceOpsTest, EncryptSignedIntoMatchesEncryptSigned) {
  const auto& pub = kp_->pub;
  crypto::SecureRandom value_rng(7), into_rng(7);
  BigInt scratch, out;
  for (int64_t m : {-12345, -1, 0, 1, 54321}) {
    auto value = pub.EncryptSigned(BigInt(m), value_rng);
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(
        pub.EncryptSignedInto(BigInt(m), into_rng, &scratch, &out).ok());
    EXPECT_EQ(out, *value) << "m=" << m;
    // Decrypting closes the loop: in-place ciphertexts are real ciphertexts.
    auto back = kp_->priv.DecryptSigned(out);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, BigInt(m)) << "m=" << m;
  }
}

TEST_F(InPlaceOpsTest, AddIntoAndScalarMulIntoMatchValueOps) {
  const auto& pub = kp_->pub;
  crypto::SecureRandom rng(55);
  auto c1 = pub.Encrypt(BigInt(1111), rng);
  auto c2 = pub.Encrypt(BigInt(2222), rng);
  ASSERT_TRUE(c1.ok() && c2.ok());

  BigInt acc = *c1;
  pub.AddInto(&acc, *c2);
  EXPECT_EQ(acc, pub.Add(*c1, *c2));

  // Negative scalars take the c⁻¹ path; -n/2 gives it a modulus-width |k|.
  BigInt scratch, out;
  for (const BigInt& k : {BigInt(-3), BigInt(0) - pub.n() / BigInt(2),
                          BigInt(0), BigInt(1), BigInt(7)}) {
    const BigInt want = pub.ScalarMul(*c1, k);
    // ScalarMul is the in-place op on fresh temporaries; pin the plaintext
    // too so the pair cannot agree on a wrong answer.
    EXPECT_EQ(*kp_->priv.Decrypt(want), (k * BigInt(1111)) % pub.n());
    pub.ScalarMulInto(*c1, k, &scratch, &out);
    EXPECT_EQ(out, want) << "k=" << k.ToString();

    // Aliasing contract: inputs may alias *out, the ciphertext or the scalar.
    BigInt c_alias = *c1;
    pub.ScalarMulInto(c_alias, k, &scratch, &c_alias);
    EXPECT_EQ(c_alias, want) << "k=" << k.ToString();
    BigInt k_alias = k;
    pub.ScalarMulInto(*c1, k_alias, &scratch, &k_alias);
    EXPECT_EQ(k_alias, want) << "k=" << k.ToString();
  }
}

// --------------------------------------------- packed exchange label parity

MatchRule TwoNumericRule() {
  MatchRule rule;
  for (int i = 0; i < 2; ++i) {
    AttrRule a;
    a.attr_index = i;
    a.type = AttrType::kNumeric;
    a.theta = 0.05;
    a.norm = 96;
    a.lo = 16;
    a.hi = 112;
    rule.attrs.push_back(a);
  }
  return rule;
}

// The arena is a pure allocation optimization: with it on or off, the packed
// exchange must produce bit-identical labels on the identical pinned-seed
// run — while the packed path actually executes (cost counters prove it).
TEST(ArenaPackedSmcTest, ArenaOnAndOffLabelsBitIdentical) {
  MatchRule rule = TwoNumericRule();
  std::vector<Record> as, bs;
  std::vector<RowPairRequest> batch;
  for (int i = 0; i < 24; ++i) {
    as.push_back({Value::Numeric(40 + i), Value::Numeric(60 + i)});
    bs.push_back({Value::Numeric(40 + i + (i % 3)), Value::Numeric(60 + i)});
  }
  for (int i = 0; i < 24; ++i) batch.push_back({i, i, &as[i], &bs[i]});

  std::vector<std::vector<uint8_t>> labels_by_mode;
  for (bool use_arena : {false, true}) {
    smc::SmcConfig cfg;
    cfg.key_bits = 512;
    cfg.test_seed = 4242;
    cfg.pack_pairs = 3;  // 512-bit key, 34-bit slots: capped at 3 pairs
    cfg.use_arena = use_arena;
    smc::BatchSmcEngine engine(cfg, rule, 2);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_GT(engine.costs().packed_exchanges, 0)
        << "use_arena=" << use_arena;
    labels_by_mode.push_back(std::move(labels).value());
  }
  EXPECT_EQ(labels_by_mode[0], labels_by_mode[1]);
  EXPECT_GT(labels_by_mode[0].size(), 0u);
}

}  // namespace
}  // namespace hprl

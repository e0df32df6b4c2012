// Robustness of the persistent offline-material cache (crypto/material.h):
// a valid file round-trips bit-exactly; a file damaged in ANY way —
// truncated at any prefix, a single flipped bit anywhere, filed under the
// wrong keypair — is rejected (never trusted, never fatal) and the caller
// regenerates, producing labels identical to a cold run.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "crypto/material.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "smc/batch_engine.h"
#include "smc/protocol.h"

namespace hprl::crypto {
namespace {

constexpr int kTestKeyBits = 256;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "hprl_material_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return std::string(buf.data());
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A small keypair plus a pool with a few prewarmed randomizers — the
/// material every test serializes, damages, and reloads.
struct Fixture {
  PaillierKeyPair kp;
  CryptoMaterial material;
};

Fixture MakeFixture(uint64_t seed, int randomizers) {
  Fixture f;
  SecureRandom rng(seed);
  auto kp = GeneratePaillierKeyPair(kTestKeyBits, rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  f.kp = *kp;
  RandomizerPool pool(f.kp.pub, /*target_depth=*/randomizers, seed);
  EXPECT_GE(pool.Prewarm(randomizers), randomizers);
  f.material = pool.ExportMaterial(/*slot_bits=*/0);
  EXPECT_EQ(f.material.randomizers.size(),
            static_cast<size_t>(randomizers));
  EXPECT_FALSE(f.material.table_blob.empty());
  return f;
}

TEST(KeyFingerprintTest, StableAndKeyDependent) {
  SecureRandom rng1(7), rng2(8);
  auto kp1 = GeneratePaillierKeyPair(kTestKeyBits, rng1);
  auto kp2 = GeneratePaillierKeyPair(kTestKeyBits, rng2);
  ASSERT_TRUE(kp1.ok() && kp2.ok());
  EXPECT_EQ(KeyFingerprint(kp1->pub.n()), KeyFingerprint(kp1->pub.n()));
  EXPECT_NE(KeyFingerprint(kp1->pub.n()), KeyFingerprint(kp2->pub.n()));
}

TEST(MaterialStoreTest, SaveLoadRoundTripIsExact) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(41, 6);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());

  MaterialStore reader(dir);  // fresh stats
  auto loaded = reader.Load(f.material.fingerprint, f.material.modulus_bits,
                            f.material.slot_bits);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, f.material.fingerprint);
  EXPECT_EQ(loaded->modulus_bits, f.material.modulus_bits);
  EXPECT_EQ(loaded->slot_bits, f.material.slot_bits);
  EXPECT_EQ(loaded->short_exp_bits, f.material.short_exp_bits);
  EXPECT_EQ(loaded->table_blob, f.material.table_blob);
  ASSERT_EQ(loaded->randomizers.size(), f.material.randomizers.size());
  for (size_t i = 0; i < loaded->randomizers.size(); ++i) {
    EXPECT_EQ(loaded->randomizers[i], f.material.randomizers[i]) << i;
  }
  EXPECT_EQ(reader.stats().hits, 1);
  EXPECT_EQ(reader.stats().misses, 0);
  EXPECT_EQ(reader.stats().rejected, 0);
  EXPECT_GT(reader.stats().bytes, 0);
}

TEST(MaterialStoreTest, AbsentFileIsAMissNotARejection) {
  MaterialStore store(MakeTempDir());
  auto loaded = store.Load(0xDEAD, kTestKeyBits, 0);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().misses, 1);
  EXPECT_EQ(store.stats().rejected, 0);
}

TEST(MaterialStoreTest, EveryTruncationIsRejectedNeverFatal) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(42, 4);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());
  const std::string path = store.PathFor(
      f.material.fingerprint, f.material.modulus_bits, f.material.slot_bits);
  const std::vector<uint8_t> good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 64u);

  // Every prefix of the header region, then strided prefixes of the body.
  int64_t rejections = 0;
  for (size_t len = 0; len < good.size();
       len += (len < 96 ? 1 : 61)) {
    WriteFileBytes(path, std::vector<uint8_t>(good.begin(),
                                              good.begin() + len));
    auto loaded = store.Load(f.material.fingerprint, f.material.modulus_bits,
                             f.material.slot_bits);
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
        << "truncated to " << len << " bytes";
    ++rejections;
    EXPECT_EQ(store.stats().rejected, rejections);
  }

  // The intact file still loads after all that (store state is per-call).
  WriteFileBytes(path, good);
  EXPECT_TRUE(store
                  .Load(f.material.fingerprint, f.material.modulus_bits,
                        f.material.slot_bits)
                  .ok());
}

TEST(MaterialStoreTest, AnySingleBitFlipIsRejected) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(43, 4);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());
  const std::string path = store.PathFor(
      f.material.fingerprint, f.material.modulus_bits, f.material.slot_bits);
  const std::vector<uint8_t> good = ReadFileBytes(path);

  // Flip one bit in a stride of positions covering magic, version, header
  // fields, table blob, randomizer bank and the trailing checksum.
  for (size_t pos = 0; pos < good.size();
       pos += (pos < 40 || pos + 9 > good.size() ? 1 : 43)) {
    std::vector<uint8_t> bad = good;
    bad[pos] ^= 0x10;
    WriteFileBytes(path, bad);
    auto loaded = store.Load(f.material.fingerprint, f.material.modulus_bits,
                             f.material.slot_bits);
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
        << "bit flip at byte " << pos << " was trusted";
  }
  EXPECT_GT(store.stats().rejected, 0);
  EXPECT_EQ(store.stats().hits, 0);
}

TEST(MaterialStoreTest, StaleFingerprintIsRejected) {
  const std::string dir = MakeTempDir();
  Fixture f = MakeFixture(44, 4);
  MaterialStore store(dir);
  ASSERT_TRUE(store.Save(f.material).ok());

  // Refile key A's material under key B's cache path — as if an operator
  // copied a store between deployments. The header fingerprint disagrees
  // with the requested key, so the load MUST reject it: randomizers from
  // another keypair would silently corrupt every ciphertext.
  const uint64_t other_fp = f.material.fingerprint + 1;
  const std::vector<uint8_t> bytes = ReadFileBytes(store.PathFor(
      f.material.fingerprint, f.material.modulus_bits, f.material.slot_bits));
  WriteFileBytes(
      store.PathFor(other_fp, f.material.modulus_bits, f.material.slot_bits),
      bytes);
  auto loaded =
      store.Load(other_fp, f.material.modulus_bits, f.material.slot_bits);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().rejected, 1);

  // Same story for a slot-layout mismatch.
  WriteFileBytes(
      store.PathFor(f.material.fingerprint, f.material.modulus_bits, 64),
      bytes);
  EXPECT_FALSE(
      store.Load(f.material.fingerprint, f.material.modulus_bits, 64).ok());
  EXPECT_EQ(store.stats().rejected, 2);
}

TEST(RandomizerPoolTest, AdoptionIsConsumeOnlyAndPreStartOnly) {
  Fixture f = MakeFixture(45, 5);

  RandomizerPool pool(f.kp.pub, /*target_depth=*/2, /*test_seed=*/45);
  ASSERT_TRUE(pool.AdoptMaterial(f.material).ok());
  EXPECT_EQ(pool.adopted(), 5);
  EXPECT_EQ(pool.depth(), 5);  // above target: consume-only until spent

  // Adopted values are handed out before anything new is generated, and
  // each exactly once.
  for (int i = 0; i < 5; ++i) {
    BigInt r = pool.Take();
    EXPECT_EQ(r, f.material.randomizers[static_cast<size_t>(i)]) << i;
  }
  EXPECT_EQ(pool.hits(), 5);

  // After Start the filler owns the queue; adoption must be refused.
  pool.Start();
  Status late = pool.AdoptMaterial(f.material);
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  pool.Stop();

  // Out-of-range randomizers are refused atomically (pool untouched).
  RandomizerPool fresh(f.kp.pub, 2, 45);
  CryptoMaterial bad = f.material;
  bad.randomizers.push_back(BigInt(0));
  EXPECT_EQ(fresh.AdoptMaterial(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.adopted(), 0);
  EXPECT_EQ(fresh.depth(), 0);
}

// ---------------------------------------------------------------------------
// Engine-level acceptance: cold run, warm run, and a run whose cache was
// corrupted in place must all produce bit-identical labels; only the
// material accounting distinguishes them.

struct Workload {
  ExperimentData data;
  MatchRule rule;
};

const Workload& SmallWorkload() {
  static const Workload* w = [] {
    auto data = PrepareAdultData(40, 91);
    EXPECT_TRUE(data.ok());
    std::vector<VghPtr> vghs;
    for (const auto& n : adult::AdultQidNames()) {
      vghs.push_back(data->hierarchies.ByName(n));
    }
    auto rule =
        MakeUniformRule(data->schema, adult::AdultQidNames(), vghs, 3, 0.05);
    EXPECT_TRUE(rule.ok());
    return new Workload{std::move(data).value(), std::move(rule).value()};
  }();
  return *w;
}

std::vector<RowPairRequest> MakeBatch(const Workload& w, size_t limit) {
  std::vector<RowPairRequest> batch;
  const Table& r = w.data.split.d1;
  const Table& s = w.data.split.d2;
  for (int64_t i = 0; i < r.num_rows() && batch.size() < limit; ++i) {
    for (int64_t j = 0; j < s.num_rows() && batch.size() < limit; ++j) {
      batch.push_back({i, j, &r.row(i), &s.row(j)});
    }
  }
  return batch;
}

smc::SmcConfig MaterialSmcConfig(const std::string& dir) {
  smc::SmcConfig cfg;
  cfg.key_bits = kTestKeyBits;
  cfg.test_seed = 11;  // material only ever hits at a pinned seed
  cfg.material_dir = dir;
  cfg.offline_pairs = 8;
  return cfg;
}

TEST(MaterialEngineTest, WarmAndRepairedRunsMatchColdBitForBit) {
  const Workload& w = SmallWorkload();
  const std::string dir = MakeTempDir();
  const auto batch = MakeBatch(w, 24);

  // Cold: empty store — miss, prewarm, save for the next run.
  smc::BatchSmcEngine cold(MaterialSmcConfig(dir), w.rule, 2);
  ASSERT_TRUE(cold.Init().ok());
  EXPECT_FALSE(cold.material_warm());
  EXPECT_EQ(cold.material_stats().hits, 0);
  EXPECT_GE(cold.material_stats().misses, 1);
  auto cold_labels = cold.CompareBatch(batch);
  ASSERT_TRUE(cold_labels.ok());

  // Warm: the persisted material is adopted; labels must not change.
  smc::BatchSmcEngine warm(MaterialSmcConfig(dir), w.rule, 2);
  ASSERT_TRUE(warm.Init().ok());
  EXPECT_TRUE(warm.material_warm());
  EXPECT_EQ(warm.material_stats().hits, 1);
  EXPECT_EQ(warm.material_stats().rejected, 0);
  auto warm_labels = warm.CompareBatch(batch);
  ASSERT_TRUE(warm_labels.ok());
  EXPECT_EQ(*warm_labels, *cold_labels);

  // Corrupt the cache file in place: the next engine must reject it,
  // regenerate as if cold, overwrite the bad file, and still produce the
  // same labels. Silent acceptance of the flipped bit would surface here
  // as either an Init failure or a label diff.
  crypto::MaterialStore probe(dir);
  const auto exported =
      warm.randomizer_pool()->ExportMaterial(/*slot_bits=*/0);
  const std::string path = probe.PathFor(exported.fingerprint,
                                         exported.modulus_bits, 0);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x04;
  WriteFileBytes(path, bytes);

  smc::BatchSmcEngine repaired(MaterialSmcConfig(dir), w.rule, 2);
  ASSERT_TRUE(repaired.Init().ok());
  EXPECT_FALSE(repaired.material_warm());
  EXPECT_EQ(repaired.material_stats().rejected, 1);
  auto repaired_labels = repaired.CompareBatch(batch);
  ASSERT_TRUE(repaired_labels.ok());
  EXPECT_EQ(*repaired_labels, *cold_labels);

  // ... and the rewrite healed the store: a fourth engine is warm again.
  smc::BatchSmcEngine healed(MaterialSmcConfig(dir), w.rule, 2);
  ASSERT_TRUE(healed.Init().ok());
  EXPECT_TRUE(healed.material_warm());
}

// The offline phase prewarms what the configured exchange will consume:
// 3 randomizers per attribute per pair on the scalar path, but only one
// cross term per attribute plus the group's two packed squares on the
// packed path. The cold engine saves exactly that many.
TEST(MaterialEngineTest, PrewarmSizedFromConfiguredPath) {
  const Workload& w = SmallWorkload();
  ASSERT_EQ(w.rule.attrs.size(), 3u);

  smc::SmcConfig scalar = MaterialSmcConfig("");
  EXPECT_EQ(smc::OfflineRandomizers(scalar, w.rule), 8 * 3 * 3);
  scalar.offline_pairs = 0;
  EXPECT_EQ(smc::OfflineRandomizers(scalar, w.rule),
            scalar.randomizer_pool_depth);

  // Two pairs of 3 attributes per group, so 8 pairs take 4 groups of
  // 3·2 + 2 encryptions each.
  const std::string dir = MakeTempDir();
  smc::SmcConfig packed = MaterialSmcConfig(dir);
  packed.pack_pairs = 2;
  ASSERT_EQ(smc::PackedGroupPairs(packed, w.rule), 2);
  EXPECT_EQ(smc::OfflineRandomizers(packed, w.rule), 4 * (3 * 2 + 2));
  packed.offline_pairs = 7;  // a partial group still gets its squares
  EXPECT_EQ(smc::OfflineRandomizers(packed, w.rule), 7 * 3 + 4 * 2);
  packed.offline_pairs = 8;

  smc::BatchSmcEngine cold(packed, w.rule, 2);
  ASSERT_TRUE(cold.Init().ok());
  ASSERT_FALSE(cold.material_warm());
  MaterialStore store(dir);
  const BigInt& n = cold.public_key().n();
  // Randomizers and tables do not depend on the packing layout: packed
  // material is filed under slot_bits 0, like scalar material.
  auto saved = store.Load(KeyFingerprint(n),
                          static_cast<uint32_t>(n.BitLength()),
                          /*slot_bits=*/0);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->randomizers.size(),
            static_cast<size_t>(smc::OfflineRandomizers(packed, w.rule)));
}

}  // namespace
}  // namespace hprl::crypto

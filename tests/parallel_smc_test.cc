// Determinism of the batch-parallel SMC engine: every thread count must
// produce bit-identical labels, identical budget accounting and identical
// deterministic metrics. (smc.bytes_sent is deliberately NOT compared — the
// serialized length of a ciphertext depends on its random value, so byte
// traffic is equal only in distribution across thread counts.)

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/session.h"
#include "smc/batch_engine.h"
#include "smc/protocol.h"
#include "smc/smc_oracle.h"

namespace hprl {
namespace {

struct Workload {
  ExperimentData data;
  AnonymizedTable anon_r;
  AnonymizedTable anon_s;
  MatchRule rule;
};

const Workload& SmallWorkload() {
  static const Workload* w = [] {
    auto data = PrepareAdultData(80, 77);
    EXPECT_TRUE(data.ok());
    auto cfg = MakeAdultAnonConfig(*data, 3, 4);
    EXPECT_TRUE(cfg.ok());
    auto anonymizer = MakeMaxEntropyAnonymizer(*cfg);
    auto anon_r = anonymizer->Anonymize(data->split.d1);
    auto anon_s = anonymizer->Anonymize(data->split.d2);
    EXPECT_TRUE(anon_r.ok() && anon_s.ok());
    std::vector<VghPtr> vghs;
    for (const auto& n : adult::AdultQidNames()) {
      vghs.push_back(data->hierarchies.ByName(n));
    }
    auto rule =
        MakeUniformRule(data->schema, adult::AdultQidNames(), vghs, 3, 0.05);
    EXPECT_TRUE(rule.ok());
    return new Workload{std::move(data).value(), std::move(anon_r).value(),
                        std::move(anon_s).value(), std::move(rule).value()};
  }();
  return *w;
}

smc::SmcConfig TestSmcConfig() {
  smc::SmcConfig cfg;
  cfg.key_bits = 256;  // small key keeps the suite fast; semantics equal
  cfg.test_seed = 11;
  return cfg;
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

TEST(BatchSmcEngineTest, BatchLabelsIdenticalAcrossThreadCounts) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 40);

  std::vector<std::vector<uint8_t>> labels_by_threads;
  std::vector<smc::SmcCosts> costs_by_threads;
  for (int threads : {1, 4}) {
    smc::BatchSmcEngine engine(TestSmcConfig(), w.rule, threads);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    labels_by_threads.push_back(std::move(labels).value());
    costs_by_threads.push_back(engine.costs());
  }
  EXPECT_EQ(labels_by_threads[0], labels_by_threads[1]);
  EXPECT_EQ(costs_by_threads[0].invocations, costs_by_threads[1].invocations);
  EXPECT_EQ(costs_by_threads[0].encryptions, costs_by_threads[1].encryptions);
  EXPECT_EQ(costs_by_threads[0].decryptions, costs_by_threads[1].decryptions);

  // And the labels are the exact plaintext outcomes (SMC is exact).
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(labels_by_threads[0][i] != 0,
              RecordsMatch(*batch[i].a, *batch[i].b, w.rule))
        << i;
  }
}

TEST(BatchSmcEngineTest, BatchAgreesWithSerialCompareRows) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 20);

  smc::BatchSmcEngine engine(TestSmcConfig(), w.rule, 3);
  ASSERT_TRUE(engine.Init().ok());
  auto labels = engine.CompareBatch(batch);
  ASSERT_TRUE(labels.ok());

  smc::BatchSmcEngine serial(TestSmcConfig(), w.rule, 1);
  ASSERT_TRUE(serial.Init().ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto m = serial.CompareRows(batch[i].a_id, batch[i].b_id, *batch[i].a,
                                *batch[i].b);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ((*labels)[i] != 0, *m) << i;
  }
}

// The full pipeline: serial and parallel SMC oracles must produce identical
// HybridResults — same links, same budget accounting — and identical
// deterministic metrics.
TEST(ParallelSmcPipelineTest, SerialAndParallelRunsAreIdentical) {
  const Workload& w = SmallWorkload();

  HybridConfig hc;
  hc.rule = w.rule;
  hc.smc_allowance_fraction = 1.0;
  hc.collect_matches = true;

  struct RunOutcome {
    HybridResult result;
    std::map<std::string, int64_t> counters;
    std::map<std::string, obs::Histogram::Summary> histograms;
  };
  auto run_with = [&](int smc_threads) -> RunOutcome {
    smc::SmcMatchOracle oracle(TestSmcConfig(), w.rule, smc_threads);
    EXPECT_TRUE(oracle.Init().ok());
    obs::MetricsRegistry registry;
    auto out = LinkageSession()
                   .WithTables(w.data.split.d1, w.data.split.d2)
                   .WithReleases(w.anon_r, w.anon_s)
                   .WithConfig(hc)
                   .WithOracle(oracle)
                   .WithMetrics(&registry)
                   .Run();
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return {std::move(out).value(), registry.CounterValues(),
            registry.HistogramSummaries()};
  };

  RunOutcome serial = run_with(1);
  RunOutcome parallel = run_with(4);

  // Identical links (order included: results are position-addressed).
  EXPECT_EQ(serial.result.matched_row_pairs, parallel.result.matched_row_pairs);
  EXPECT_GT(serial.result.matched_row_pairs.size(), 0u);

  // Identical budget accounting.
  EXPECT_EQ(serial.result.smc_processed, parallel.result.smc_processed);
  EXPECT_EQ(serial.result.smc_matched, parallel.result.smc_matched);
  EXPECT_EQ(serial.result.reported_matches, parallel.result.reported_matches);
  EXPECT_EQ(serial.result.allowance_pairs, parallel.result.allowance_pairs);
  EXPECT_EQ(serial.result.unknown_pairs, parallel.result.unknown_pairs);
  EXPECT_GT(serial.result.smc_processed, 0);

  // Identical deterministic counters. Byte/traffic counters are excluded on
  // purpose (see file comment); pool hit/miss split depends on filler timing
  // but the total number of takes does not.
  for (const char* name :
       {"smc.invocations", "smc.matched", "smc.allowance_pairs", "smc.rounds",
        "smc.attr_comparisons", "smc.batches", "linkage.reported_matches",
        "paillier.decryptions", "paillier.encryptions",
        "paillier.homomorphic_adds", "paillier.scalar_muls",
        "blocking.pairs_total", "blocking.pairs_m", "blocking.pairs_u",
        "blocking.slack_cache_hits", "blocking.slack_cache_misses"}) {
    ASSERT_TRUE(serial.counters.count(name)) << name;
    ASSERT_TRUE(parallel.counters.count(name)) << name;
    EXPECT_EQ(serial.counters.at(name), parallel.counters.at(name)) << name;
  }
  const int64_t serial_takes =
      serial.counters.at("paillier.randomizer_pool_hits") +
      serial.counters.at("paillier.randomizer_pool_misses");
  const int64_t parallel_takes =
      parallel.counters.at("paillier.randomizer_pool_hits") +
      parallel.counters.at("paillier.randomizer_pool_misses");
  EXPECT_EQ(serial_takes, parallel_takes);

  // Same number of per-compare and per-batch latency samples.
  EXPECT_EQ(serial.histograms.at("smc.compare_seconds").count,
            parallel.histograms.at("smc.compare_seconds").count);
  EXPECT_EQ(serial.histograms.at("smc.batch_seconds").count,
            parallel.histograms.at("smc.batch_seconds").count);
}

smc::SmcConfig PackedSmcConfig(int pack_pairs, int slot_bits = 64) {
  smc::SmcConfig cfg = TestSmcConfig();
  // A 512-bit modulus gives the packed layout 7 slots, so groups hold more
  // than one pair and the amortization assertions below have teeth.
  cfg.key_bits = 512;
  cfg.pack_pairs = pack_pairs;
  cfg.pack_slot_bits = slot_bits;
  return cfg;
}

// The packed fast path must be a pure optimization: bit-identical labels to
// the scalar exchange, at every thread count, while actually exercising the
// packed exchange (the cost counters prove it ran).
TEST(PackedSmcTest, PackedLabelsBitIdenticalToScalar) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 40);

  smc::BatchSmcEngine scalar(TestSmcConfig(), w.rule, 2);
  ASSERT_TRUE(scalar.Init().ok());
  auto scalar_labels = scalar.CompareBatch(batch);
  ASSERT_TRUE(scalar_labels.ok());
  EXPECT_EQ(scalar.costs().packed_exchanges, 0);

  for (int threads : {1, 4}) {
    smc::BatchSmcEngine packed(PackedSmcConfig(4), w.rule, threads);
    ASSERT_TRUE(packed.Init().ok());
    auto labels = packed.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    EXPECT_EQ(*labels, *scalar_labels) << "threads=" << threads;
    EXPECT_GT(packed.costs().packed_exchanges, 0) << "threads=" << threads;
    EXPECT_GT(packed.costs().packed_pairs,
              packed.costs().packed_exchanges)  // > 1 pair per exchange
        << "threads=" << threads;
  }
}

// Pairs in the selection heuristic's order: `per_row` Bob rows for each of
// `rows` Alice rows, so consecutive packed groups repeat Alice rows.
std::vector<RowPairRequest> MakeRowOrderedBatch(const Workload& w,
                                                int64_t rows,
                                                int64_t per_row) {
  std::vector<RowPairRequest> batch;
  const Table& r = w.data.split.d1;
  const Table& s = w.data.split.d2;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < per_row; ++j) {
      batch.push_back({i, j, &r.row(i), &s.row(j)});
    }
  }
  return batch;
}

int ActiveAttrs(const MatchRule& rule) {
  int active = 0;
  for (const AttrRule& attr : rule.attrs) {
    if (attr.type == AttrType::kCategorical && attr.theta >= 1.0) continue;
    ++active;
  }
  return active;
}

// Alice encrypts each cross term once per batch: the packed engine's
// encryption count is the same at every thread count and arena setting, and
// equals the closed form — one cross term per active attribute for each
// distinct (Alice row, position in the group), plus the two packed squares
// of every group (no pair falls back to the scalar exchange here). Labels
// stay those of the scalar exchange and of the plaintext rule.
TEST(PackedSmcTest, CrossTermsEncryptedOncePerBatchAtEveryThreadCount) {
  const Workload& w = SmallWorkload();
  // 9 pairs per Alice row: row boundaries fall inside groups, so each row
  // covers every position.
  const auto batch = MakeRowOrderedBatch(w, 5, 9);

  const smc::SmcConfig cfg = PackedSmcConfig(4);
  const size_t group = static_cast<size_t>(smc::PackedGroupPairs(cfg, w.rule));
  ASSERT_GE(group, 2u);
  std::set<std::pair<int64_t, size_t>> keys;
  for (size_t i = 0; i < batch.size(); ++i) {
    keys.insert({batch[i].a_id, i % group});
  }
  const int64_t groups =
      static_cast<int64_t>((batch.size() + group - 1) / group);
  const int64_t expected =
      ActiveAttrs(w.rule) * static_cast<int64_t>(keys.size()) + 2 * groups;
  // Far fewer than fresh cross terms for every pair would cost.
  ASSERT_LT(expected, ActiveAttrs(w.rule) * static_cast<int64_t>(batch.size()));

  smc::BatchSmcEngine scalar(TestSmcConfig(), w.rule, 2);
  ASSERT_TRUE(scalar.Init().ok());
  auto scalar_labels = scalar.CompareBatch(batch);
  ASSERT_TRUE(scalar_labels.ok());

  for (bool arena : {true, false}) {
    for (int threads : {1, 2, 3, 4}) {
      smc::SmcConfig run_cfg = cfg;
      run_cfg.use_arena = arena;
      smc::BatchSmcEngine engine(run_cfg, w.rule, threads);
      ASSERT_TRUE(engine.Init().ok());
      auto labels = engine.CompareBatch(batch);
      ASSERT_TRUE(labels.ok()) << labels.status().ToString();
      const smc::SmcCosts& c = engine.costs();
      EXPECT_EQ(c.packed_pairs, static_cast<int64_t>(batch.size()))
          << "arena=" << arena << " threads=" << threads;
      EXPECT_EQ(c.packed_exchanges, groups)
          << "arena=" << arena << " threads=" << threads;
      EXPECT_EQ(c.encryptions, expected)
          << "arena=" << arena << " threads=" << threads;
      EXPECT_EQ(*labels, *scalar_labels)
          << "arena=" << arena << " threads=" << threads;
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*scalar_labels)[i] != 0,
              RecordsMatch(*batch[i].a, *batch[i].b, w.rule))
        << i;
  }
}

// Two requests that share an a_id but carry different records: the table
// entry for (a_id, position) holds the first record's values, so the second
// record's pair must not reuse it. Copying it would fold the wrong x into
// the distance; the guard encrypts that pair's cross terms fresh instead.
TEST(PackedSmcTest, StaleCrossTermIsNeverReused) {
  const Workload& w = SmallWorkload();
  const Table& r = w.data.split.d1;
  const Table& s = w.data.split.d2;
  const Record& first = r.row(0);
  const Record& second = r.row(1);
  ASSERT_FALSE(RecordsMatch(first, second, w.rule));

  const smc::SmcConfig cfg = PackedSmcConfig(4);
  ASSERT_EQ(smc::PackedGroupPairs(cfg, w.rule), 2);
  // Group 0 plans (7, 0) and (7, 1) from `first`; group 1 holds `second` at
  // position 0 (stale entry) and `first` at position 1 (valid entry).
  const std::vector<RowPairRequest> batch = {
      {7, 0, &first, &s.row(0)},
      {7, 1, &first, &s.row(1)},
      {7, 2, &second, &second},
      {7, 3, &first, &first},
  };
  const int64_t active = ActiveAttrs(w.rule);
  // Two planned entries, one fresh pair, two packed squares per group.
  const int64_t expected = active * 2 + active + 2 * 2;

  for (int threads : {1, 2}) {
    smc::BatchSmcEngine engine(cfg, w.rule, threads);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ((*labels)[i] != 0,
                RecordsMatch(*batch[i].a, *batch[i].b, w.rule))
          << "pair " << i << " threads=" << threads;
    }
    EXPECT_EQ((*labels)[2], kPairMatch) << "threads=" << threads;
    EXPECT_EQ((*labels)[3], kPairMatch) << "threads=" << threads;
    EXPECT_EQ(engine.costs().encryptions, expected) << "threads=" << threads;
  }
}

// Same fault schedule + same seed => the packed engine is deterministic
// across thread counts (quarantine labels included), every pair it does
// label gets the fault-free label, and a retried exchange copies its cross
// terms from the batch table again: a retry encrypts at most the two packed
// squares anew, never the pairs' cross terms.
TEST(PackedSmcTest, PackedDeterministicUnderFaults) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 40);

  smc::BatchSmcEngine clean(PackedSmcConfig(4), w.rule, 2);
  ASSERT_TRUE(clean.Init().ok());
  auto clean_labels = clean.CompareBatch(batch);
  ASSERT_TRUE(clean_labels.ok()) << clean_labels.status().ToString();

  smc::SmcConfig cfg = PackedSmcConfig(4);
  cfg.fault_plan.seed = 47;
  cfg.fault_plan.drop_rate = 0.15;
  cfg.fault_plan.corrupt_rate = 0.10;

  std::vector<std::vector<uint8_t>> by_threads;
  for (int threads : {1, 4}) {
    smc::BatchSmcEngine engine(cfg, w.rule, threads);
    ASSERT_TRUE(engine.Init().ok());
    auto labels = engine.CompareBatch(batch);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    int labeled = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if ((*labels)[i] == kPairQuarantined) continue;
      ++labeled;
      EXPECT_EQ((*labels)[i], (*clean_labels)[i])
          << "pair " << i << " threads=" << threads;
    }
    EXPECT_GT(labeled, 0) << "threads=" << threads;
    const smc::SmcCosts& c = engine.costs();
    EXPECT_GT(c.retries, 0) << "threads=" << threads;
    EXPECT_LE(c.encryptions - clean.costs().encryptions, 2 * c.retries)
        << "threads=" << threads;
    by_threads.push_back(std::move(labels).value());
  }
  EXPECT_EQ(by_threads[0], by_threads[1]);
}

// Slots too narrow for the scaled attribute values: every pair fails the
// (|x|+|y|)² carry-safety check, falls back to the scalar exchange inside
// its group, and still gets the exact label.
TEST(PackedSmcTest, NarrowSlotsFallBackToScalarPerPair) {
  const Workload& w = SmallWorkload();
  const auto batch = MakeBatch(w, 20);

  smc::BatchSmcEngine scalar(TestSmcConfig(), w.rule, 2);
  ASSERT_TRUE(scalar.Init().ok());
  auto scalar_labels = scalar.CompareBatch(batch);
  ASSERT_TRUE(scalar_labels.ok());

  // fp_scale = 1000 makes every numeric encoding ≥ 10⁴ in magnitude, so an
  // 8-bit slot can never hold its squared sum.
  smc::BatchSmcEngine narrow(PackedSmcConfig(4, /*slot_bits=*/8), w.rule, 2);
  ASSERT_TRUE(narrow.Init().ok());
  auto labels = narrow.CompareBatch(batch);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(*labels, *scalar_labels);
  EXPECT_EQ(narrow.costs().packed_pairs, 0);
}

// Packing requires revealed distances (the packed plaintext IS the distance
// vector): a blinded config must ignore pack_pairs entirely.
TEST(PackedSmcTest, BlindedConfigDisablesPacking) {
  const Workload& w = SmallWorkload();
  smc::SmcConfig cfg = PackedSmcConfig(4);
  cfg.reveal_distances = false;
  smc::SecureRecordComparator comparator(cfg, w.rule);
  EXPECT_EQ(comparator.PackedGroupPairs(), 0);

  const auto batch = MakeBatch(w, 12);
  smc::BatchSmcEngine engine(cfg, w.rule, 2);
  ASSERT_TRUE(engine.Init().ok());
  auto labels = engine.CompareBatch(batch);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(engine.costs().packed_exchanges, 0);

  smc::SmcConfig blinded_scalar = TestSmcConfig();
  blinded_scalar.reveal_distances = false;
  smc::BatchSmcEngine reference(blinded_scalar, w.rule, 2);
  ASSERT_TRUE(reference.Init().ok());
  auto ref_labels = reference.CompareBatch(batch);
  ASSERT_TRUE(ref_labels.ok());
  EXPECT_EQ(*labels, *ref_labels);
}

}  // namespace
}  // namespace hprl

#include "smc/batch_engine.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <utility>

#include "common/timer.h"

namespace hprl::smc {

namespace {
/// Pairs handed to a worker per steal. Small enough to keep skewed batches
/// balanced (a single Paillier comparison is milliseconds), large enough
/// that the atomic cursor never contends.
constexpr size_t kStealChunk = 8;

uint64_t WorkerSeed(uint64_t base, int worker) {
  // 0 stays 0 (OS entropy); otherwise decorrelate the workers' blinding and
  // encryption randomness without touching the shared key.
  return base == 0 ? 0 : base ^ (0x51Dull * static_cast<uint64_t>(worker + 1));
}

/// Fault-class failures: the protocol layer exhausted its retries on a
/// transient transport fault, or a party crashed mid-exchange. These
/// quarantine the pair and restart the worker; anything else is a genuine
/// semantic error and fails the batch.
bool IsFaultClass(const Status& s) {
  switch (s.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kIOError:
    case StatusCode::kNotFound:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}
/// Pins the CALLING thread to a core chosen round-robin by worker index
/// (SmcConfig::pin_cores). Only ever invoked from threads this engine
/// spawned — worker 0 runs on the caller's thread, whose affinity is not
/// ours to change. Best-effort: a restricted cpuset (containers, taskset)
/// just leaves the thread unpinned; work-stealing still balances the batch.
void MaybePinWorker(bool pin, size_t w) {
  if (!pin) return;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(w % cores), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Runs task(w, i) for every i in [0, n) on up to `threads` workers, which
/// pull indices off one atomic cursor. Worker 0 is the calling thread; the
/// others are spawned for the call. The first failure stops every worker
/// from taking more, and the failure at the smallest index is returned, so
/// a batch reports the same error however its work was spread.
template <typename Task>
Status StealEach(size_t threads, size_t n, bool pin, const Task& task) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) HPRL_RETURN_IF_ERROR(task(size_t{0}, i));
    return Status::OK();
  }
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::vector<Status> status(threads, Status::OK());
  std::vector<size_t> failed_at(threads, n);
  auto drain = [&](size_t w) {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Status st = task(w, i);
      if (!st.ok()) {
        status[w] = std::move(st);
        failed_at[w] = i;
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (size_t w = 1; w < threads; ++w) {
    pool.emplace_back([&, w] {
      MaybePinWorker(pin, w);
      drain(w);
    });
  }
  drain(0);
  for (auto& th : pool) th.join();
  size_t best = 0;
  for (size_t w = 1; w < threads; ++w) {
    if (failed_at[w] < failed_at[best]) best = w;
  }
  return status[best];
}

}  // namespace

int OfflineRandomizers(const SmcConfig& config, const MatchRule& rule) {
  if (config.offline_pairs <= 0) return config.randomizer_pool_depth;
  const int64_t pairs = config.offline_pairs;
  const int64_t attrs =
      std::max<int64_t>(1, static_cast<int64_t>(rule.attrs.size()));
  const int64_t group = PackedGroupPairs(config, rule);
  // Scalar: Alice's Enc(x²) and Enc(-2x) plus Bob's Enc(y²) per attribute.
  // Packed: one cross term per attribute plus the group's two packed
  // squares, even when no cross term is shared.
  const int64_t want = group > 0
                           ? pairs * attrs + 2 * ((pairs + group - 1) / group)
                           : pairs * 3 * attrs;
  return static_cast<int>(
      std::min<int64_t>(want, std::numeric_limits<int>::max()));
}

BatchSmcEngine::BatchSmcEngine(SmcConfig config, MatchRule rule, int threads)
    : config_(config), rule_(std::move(rule)), threads_(std::max(1, threads)) {}

BatchSmcEngine::~BatchSmcEngine() = default;

Status BatchSmcEngine::Init() {
  WallTimer offline_timer;
  auto rng = config_.test_seed != 0
                 ? std::make_unique<crypto::SecureRandom>(config_.test_seed ^
                                                          0x9999)
                 : std::make_unique<crypto::SecureRandom>();
  auto kp = crypto::GeneratePaillierKeyPair(config_.key_bits, *rng);
  if (!kp.ok()) return kp.status();
  keypair_ = std::move(kp).value();

  if (config_.randomizer_pool_depth > 0) {
    pool_ = std::make_unique<crypto::RandomizerPool>(
        keypair_.pub, config_.randomizer_pool_depth,
        WorkerSeed(config_.test_seed, 0xF11));
    // Offline phase against the persistent material store: adopt persisted
    // tables + randomizers when a verified file exists for this keypair,
    // otherwise prewarm offline_pairs' worth and save it for the next run.
    // All of this happens before Start so the background filler never races
    // the adoption, and before any worker exists so no online op can
    // interleave.
    if (!config_.material_dir.empty()) {
      material_store_ =
          std::make_unique<crypto::MaterialStore>(config_.material_dir);
      // Keyed by the ACTUAL modulus bit length, matching ExportMaterial —
      // n = p·q can come up one bit short of config key_bits. Randomizers
      // and tables do not depend on the packing layout, so every run files
      // its material under slot_bits 0.
      auto loaded = material_store_->Load(
          crypto::KeyFingerprint(keypair_.pub.n()),
          static_cast<uint32_t>(keypair_.pub.n().BitLength()),
          /*slot_bits=*/0);
      if (loaded.ok() && pool_->AdoptMaterial(*loaded).ok()) {
        material_warm_ = true;
      } else {
        pool_->Prewarm(OfflineRandomizers(config_, rule_));
        // Best-effort: a read-only store degrades to always-cold, never to
        // a failed run.
        (void)material_store_->Save(pool_->ExportMaterial(/*slot_bits=*/0));
      }
    }
    pool_->Start();
  }

  workers_.clear();
  workers_.reserve(static_cast<size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    SmcConfig worker_cfg = config_;
    worker_cfg.test_seed = WorkerSeed(config_.test_seed, t);
    auto worker =
        std::make_unique<SecureRecordComparator>(worker_cfg, rule_);
    HPRL_RETURN_IF_ERROR(worker->InitWithKeyPair(keypair_));
    if (pool_ != nullptr) worker->AttachRandomizerPool(pool_.get());
    workers_.push_back(std::move(worker));
  }
  initialized_ = true;
  offline_seconds_ = offline_timer.ElapsedSeconds();
  if (metrics_ != nullptr) AttachMetrics(metrics_);  // re-attach fresh keys
  PublishMaterialMetrics();
  return Status::OK();
}

// The store's counters are fixed after Init (all loads/saves happen there),
// but the registry often arrives later — LinkageSession attaches it at Run.
// Publish on whichever side happens second, exactly once.
void BatchSmcEngine::PublishMaterialMetrics() {
  if (metrics_ == nullptr || material_store_ == nullptr ||
      material_metrics_published_) {
    return;
  }
  const crypto::MaterialStats& ms = material_store_->stats();
  obs::Add(metrics_, "crypto.material.hits", ms.hits);
  obs::Add(metrics_, "crypto.material.misses", ms.misses);
  obs::Add(metrics_, "crypto.material.rejected", ms.rejected);
  obs::Add(metrics_, "crypto.material.bytes", ms.bytes);
  material_metrics_published_ = true;
}

Status BatchSmcEngine::RestartWorker(size_t w) {
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_ += workers_[w]->costs();
  }
  SmcConfig worker_cfg = config_;
  worker_cfg.test_seed = WorkerSeed(config_.test_seed, static_cast<int>(w));
  auto fresh = std::make_unique<SecureRecordComparator>(worker_cfg, rule_);
  HPRL_RETURN_IF_ERROR(fresh->InitWithKeyPair(keypair_));
  if (pool_ != nullptr) fresh->AttachRandomizerPool(pool_.get());
  if (metrics_ != nullptr) fresh->AttachMetrics(metrics_);
  workers_[w] = std::move(fresh);
  worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) obs::Add(metrics_, "smc.worker_restarts");
  return Status::OK();
}

Result<bool> BatchSmcEngine::CompareRows(int64_t a_id, int64_t b_id,
                                         const Record& a, const Record& b) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  return workers_.front()->CompareRows(a_id, b_id, a, b);
}

Result<std::vector<uint8_t>> BatchSmcEngine::CompareBatch(
    const std::vector<RowPairRequest>& batch) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  WallTimer batch_timer;
  std::vector<uint8_t> labels(batch.size(), 0);
  const size_t threads = static_cast<size_t>(threads_);

  auto quarantine = [&](size_t i) {
    labels[i] = kPairQuarantined;
    pairs_quarantined_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) obs::Add(metrics_, "smc.pairs_quarantined");
  };

  // Packed fast path: workers drain GROUPS of pairs, each group one packed
  // exchange, dealt by stride: with G groups, group g holds batch pairs
  // g, g+G, g+2G, ... Grouping depends only on the batch and the config, so
  // every thread count produces the same groups — and both paths compute
  // exact distances, so the labels match the scalar path bit for bit.
  const size_t group_pairs =
      static_cast<size_t>(workers_.front()->PackedGroupPairs());
  if (group_pairs >= 1) {
    const size_t num_groups = (batch.size() + group_pairs - 1) / group_pairs;
    std::vector<std::vector<RowPairRequest>> groups(num_groups);
    for (size_t i = 0; i < batch.size(); ++i) {
      groups[i % num_groups].push_back(batch[i]);
    }

    // Alice's cross terms, once per (Alice row, position in the group).
    // Position p of every group covers the batch range [p·G, (p+1)·G), and
    // the selection heuristic emits pairs grouped by Alice row, so a row
    // mostly keeps one position. Planning is a plaintext pass, and the
    // table it yields depends on the batch alone, so encryption counts are
    // the same at every thread count.
    CrossTermTable cross_terms;
    for (const auto& group : groups) {
      HPRL_RETURN_IF_ERROR(
          workers_.front()->PlanCrossTerms(group, &cross_terms));
    }
    std::vector<PackedCrossTerms*> unfilled;
    unfilled.reserve(cross_terms.size());
    for (auto& entry : cross_terms) unfilled.push_back(&entry.second);
    HPRL_RETURN_IF_ERROR(StealEach(
        threads, unfilled.size(), config_.pin_cores,
        [&](size_t w, size_t k) {
          return workers_[w]->EncryptCrossTerms(unfilled[k]);
        }));

    HPRL_RETURN_IF_ERROR(StealEach(
        threads, num_groups, config_.pin_cores,
        [&](size_t w, size_t g) -> Status {
          auto matches =
              workers_[w]->ComparePackedGroup(groups[g], &cross_terms);
          if (matches.ok()) {
            for (size_t p = 0; p < groups[g].size(); ++p) {
              labels[g + p * num_groups] =
                  (*matches)[p] ? kPairMatch : kPairNonMatch;
            }
            return Status::OK();
          }
          if (!IsFaultClass(matches.status())) return matches.status();
          // Quarantine granularity is the group here: one packed exchange
          // is indivisible, so a crash mid-group takes its whole group out.
          for (size_t p = 0; p < groups[g].size(); ++p) {
            quarantine(g + p * num_groups);
          }
          return RestartWorker(w);
        }));
  } else {
    const size_t num_chunks = (batch.size() + kStealChunk - 1) / kStealChunk;
    HPRL_RETURN_IF_ERROR(StealEach(
        threads, num_chunks, config_.pin_cores,
        [&](size_t w, size_t c) -> Status {
          const size_t end = std::min((c + 1) * kStealChunk, batch.size());
          for (size_t i = c * kStealChunk; i < end; ++i) {
            const RowPairRequest& req = batch[i];
            // No cached comparator pointer: a restart swaps the worker slot.
            auto m = workers_[w]->CompareRows(req.a_id, req.b_id, *req.a,
                                              *req.b);
            if (m.ok()) {
              labels[i] = *m ? kPairMatch : kPairNonMatch;
              continue;
            }
            if (!IsFaultClass(m.status())) return m.status();
            quarantine(i);
            // Healed: the next pair runs on the fresh stack.
            HPRL_RETURN_IF_ERROR(RestartWorker(w));
          }
          return Status::OK();
        }));
  }

  if (metrics_ != nullptr) {
    obs::Add(metrics_, "smc.batches");
    obs::Observe(metrics_, "smc.batch_seconds", batch_timer.ElapsedSeconds());
  }
  return labels;
}

const SmcCosts& BatchSmcEngine::costs() const {
  // Summed on demand; sums are order-independent, so the totals are
  // identical for every thread count. Only call between batches (the
  // session's usage) — workers mutate their costs while a batch runs.
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    aggregated_ = retired_;  // work done by since-restarted stacks
  }
  for (const auto& worker : workers_) aggregated_ += worker->costs();
  if (pool_ != nullptr) {
    // Offline attribution: every pool hit consumed a randomizer whose
    // exponentiation was paid for ahead of the online path; the first
    // adopted() of those came off disk rather than being generated this run.
    aggregated_.offline_randomizers = pool_->hits();
    aggregated_.material_randomizers =
        std::min(pool_->hits(), pool_->adopted());
  }
  return aggregated_;
}

const MessageBus& BatchSmcEngine::bus() const {
  return workers_.front()->bus();
}

void BatchSmcEngine::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (auto& worker : workers_) worker->AttachMetrics(registry);
  if (pool_ != nullptr) pool_->AttachMetrics(registry);
  if (registry != nullptr && initialized_) {
    obs::SetGauge(registry, "smc.workers", static_cast<double>(threads_));
  }
  PublishMaterialMetrics();
}

}  // namespace hprl::smc

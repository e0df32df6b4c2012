#ifndef HPRL_SMC_BATCH_ENGINE_H_
#define HPRL_SMC_BATCH_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "crypto/material.h"
#include "linkage/oracle.h"
#include "smc/protocol.h"

namespace hprl::smc {

/// Randomizers the offline phase prewarms for config.offline_pairs pairs
/// (config.randomizer_pool_depth when that is 0). The scalar exchange
/// encrypts up to 3 per attribute per pair; the packed exchange at most one
/// cross term per attribute plus its group's two packed squares, i.e.
/// attrs + 2/group_pairs per pair even when no cross term is shared.
int OfflineRandomizers(const SmcConfig& config, const MatchRule& rule);

/// Batch-parallel driver for the §V-A protocol: N worker comparator stacks
/// (each a full qp/alice/bob trio with its own in-process bus) that share
/// ONE published Paillier key pair — generated once at Init, not once per
/// worker — and one pool of precomputed encryption randomizers.
///
/// CompareBatch distributes a batch of row pairs over the workers with
/// chunked work-stealing (an atomic cursor over fixed-size chunks), and each
/// worker writes the label of pair i into slot i of the shared result
/// vector. Because results are position-addressed, the merged output is
/// bit-identical for every thread count — determinism by construction, with
/// no ordering pass. Budget accounting matches too: the aggregated costs()
/// are sums over workers, independent of which worker ran which pair (with
/// ciphertext caching off; caching makes encryption counts schedule-
/// dependent, which is why the session never enables it across workers).
///
/// Security note: sharing the key pair changes nothing in the trust model —
/// the workers are in-process replicas of the same three parties, exactly
/// as if one querying party answered N interleaved conversations.
class BatchSmcEngine {
 public:
  /// `threads` <= 1 runs every batch inline on the calling thread.
  BatchSmcEngine(SmcConfig config, MatchRule rule, int threads = 1);
  ~BatchSmcEngine();

  BatchSmcEngine(const BatchSmcEngine&) = delete;
  BatchSmcEngine& operator=(const BatchSmcEngine&) = delete;

  /// Generates the shared key pair, spins up the randomizer pool (when
  /// SmcConfig::randomizer_pool_depth > 0) and initializes the workers.
  ///
  /// With SmcConfig::material_dir set this also runs the offline phase:
  /// persisted material for the keypair's fingerprint is loaded into the
  /// pool (warm run — the pool starts consume-only), or, on a miss,
  /// offline_pairs' worth of randomizers are prewarmed and saved back so
  /// the NEXT run is warm. Everything Init does is input-independent;
  /// offline_seconds() reports its cost separately from the online stage.
  Status Init();

  int threads() const { return threads_; }

  /// Single-pair comparison on worker 0 (the serial API surface).
  Result<bool> CompareRows(int64_t a_id, int64_t b_id, const Record& a,
                           const Record& b);

  /// Labels batch[i] into slot i of the result (kPairMatch / kPairNonMatch /
  /// kPairQuarantined); see class comment for the determinism argument.
  ///
  /// Packed path: the batch is dealt into G = ceil(n / group_pairs) groups
  /// by stride (group g holds pairs g, g+G, ...). First the workers encrypt
  /// Alice's cross terms once for each distinct (Alice row id, position in
  /// the group) of the batch (at most rows + group_pairs - 1 when ordered by
  /// row), stealing keys off one cursor, into a table that the groups then
  /// only read (SecureRecordComparator::ComparePackedGroup). Only the two
  /// packed squares are encrypted per group. The keys depend on the batch
  /// alone, so costs().encryptions is the same at every thread count.
  ///
  /// Worker supervision: when a pair fails with a fault-class status — an
  /// injected crash (Unavailable), or a transient transport fault that
  /// survived the protocol's retries (NotFound / IOError / Internal) — the
  /// pair is quarantined (labeled kPairQuarantined, counted in
  /// pairs_quarantined()), the worker's comparator stack is rebuilt around
  /// the shared key pair (worker_restarts()), and the batch continues.
  /// Genuine semantic errors (InvalidArgument, Unimplemented, ...) still
  /// fail the whole batch with the error of the smallest-index failing pair.
  Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch);

  /// Aggregated protocol costs across all workers (order-independent sums),
  /// including the costs retired by workers that were since restarted.
  const SmcCosts& costs() const;

  /// Pairs labeled kPairQuarantined across all batches so far.
  int64_t pairs_quarantined() const {
    return pairs_quarantined_.load(std::memory_order_relaxed);
  }

  /// Worker comparator stacks rebuilt after a fault-class failure.
  int64_t worker_restarts() const {
    return worker_restarts_.load(std::memory_order_relaxed);
  }

  /// Worker 0's message bus (per-worker traffic; tests and demos).
  const MessageBus& bus() const;

  const crypto::PaillierPublicKey& public_key() const { return keypair_.pub; }

  /// The shared randomizer pool; nullptr when disabled. Benches use this to
  /// Prefill before timing.
  crypto::RandomizerPool* randomizer_pool() { return pool_.get(); }

  /// Wall seconds Init spent on input-independent work: key generation,
  /// fixed-base table construction, material load/prewarm/save.
  double offline_seconds() const { return offline_seconds_; }

  /// Material-store accounting for this engine's Init (all zeros when no
  /// material_dir was configured).
  crypto::MaterialStats material_stats() const {
    return material_store_ != nullptr ? material_store_->stats()
                                      : crypto::MaterialStats{};
  }

  /// True when Init adopted persisted material (warm start).
  bool material_warm() const { return material_warm_; }

  /// Streams every worker's protocol stack plus the pool gauges and the
  /// engine's smc.batches / smc.batch_seconds into `registry`.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  /// Rebuilds worker `w`'s comparator stack (same shared key, same derived
  /// seed), retiring its accumulated costs first so costs() keeps counting
  /// the work the dead stack already did. Called from the worker's own
  /// thread — each worker slot is owned exclusively by one thread per batch.
  Status RestartWorker(size_t w);

  /// Streams the material store's counters into `metrics_` exactly once —
  /// at Init when the registry is already attached, else at the first
  /// attach after Init (LinkageSession attaches at Run).
  void PublishMaterialMetrics();

  SmcConfig config_;
  MatchRule rule_;
  int threads_;
  bool initialized_ = false;
  crypto::PaillierKeyPair keypair_;
  std::unique_ptr<crypto::RandomizerPool> pool_;
  std::unique_ptr<crypto::MaterialStore> material_store_;
  double offline_seconds_ = 0;
  bool material_warm_ = false;
  bool material_metrics_published_ = false;
  std::vector<std::unique_ptr<SecureRecordComparator>> workers_;
  mutable SmcCosts aggregated_;  // scratch for costs(); see .cc
  mutable std::mutex retired_mu_;
  SmcCosts retired_;  // costs of restarted workers' previous stacks
  std::atomic<int64_t> pairs_quarantined_{0};
  std::atomic<int64_t> worker_restarts_{0};
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_BATCH_ENGINE_H_

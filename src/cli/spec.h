#ifndef HPRL_CLI_SPEC_H_
#define HPRL_CLI_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/heuristics.h"
#include "hierarchy/vgh.h"

namespace hprl::cli {

/// One attribute declaration from a linkage spec file.
struct AttrSpec {
  std::string name;
  AttrType type = AttrType::kCategorical;
  double theta = 0.05;
  /// Categorical (required) or numeric (optional, instead of equiwidth):
  /// path to an indentation-format VGH file (relative paths are resolved
  /// against the spec file's directory).
  std::string vgh_file;
  /// Numeric: equi-width hierarchy parameters (when vgh_file is empty).
  double lo = 0;
  double leaf_width = 0;
  std::vector<int> fanouts;
};

/// Parsed linkage specification: everything the `hprl_link` tool needs to
/// run the hybrid protocol over two CSV files. Line-oriented format:
///
///   # hybrid linkage spec
///   attr age numeric equiwidth 16 8 3,2,2 theta 0.05
///   attr education categorical vghfile education.vgh theta 0.05
///   attr surname text theta 1
///   class income
///   sensitive income ldiv 2
///   k 32
///   allowance 0.015
///   heuristic MinAvgFirst
///   anonymizer MaxEntropy
///   keybits 0            # 0 = exact plaintext oracle; >0 = Paillier bits
///   smc_retries 3        # transient-fault retries per protocol exchange
///   smc_pack 8           # pairs per packed SMC exchange (slot widths come
///                        # from the QIDs' hierarchies; an old second
///                        # token, the uniform slot width, is ignored)
///   smc_seed 4242        # pinned keypair seed (0 = OS entropy, the default)
///   material_dir cache/  # persistent offline crypto material store
///   offline_pairs 500    # offline phase sizing, in expected record pairs
///   rpc_batch 32         # TCP: pairs per ctl batch frame (1 = per-pair)
///   rpc_window 4         # TCP: batches kept in flight per shard
///   shards 4             # TCP: comparator shard meshes per fleet
///   hb_interval 250      # TCP: membership heartbeat cadence, milliseconds
///   suspect_misses 2     # TCP: missed probes before alive -> suspect
///   dead_misses 4        # TCP: missed probes before dead (> suspect_misses)
///   serve_allowance 5000 # streaming: per-tenant SMC allowance in pairs
///   serve_queue 1024     # streaming: queued deltas per tenant (0 = reject)
///   serve_gen_level 1    # streaming: VGH levels lifted above the leaves
///   fault seed 11        # deterministic fault-injection schedule (smc/fault.h)
///   fault drop 0.25      # rates are per protocol step, in [0,1]
///   fault corrupt 0.25
///   fault delay 0.1 50   # rate, then injected latency in microseconds
///   fault crash 0.15
///
/// Attribute order in the spec is the CSV column-matching order (columns are
/// located by header name, so the CSV may contain extra columns).
struct LinkageSpec {
  std::vector<AttrSpec> attrs;
  std::string class_attr;      // empty = none
  std::string sensitive_attr;  // empty = none
  int64_t l_diversity = 1;
  int64_t k = 32;
  double allowance = 0.015;
  SelectionHeuristic heuristic = SelectionHeuristic::kMinAvgFirst;
  std::string anonymizer = "MaxEntropy";
  int key_bits = 0;
  /// Blocking-step worker threads; 0 (or the literal `auto`) defers to the
  /// runner, which uses std::thread::hardware_concurrency().
  int threads = 0;
  /// SMC worker comparators for the batched oracle; 0 / `auto` as above.
  int smc_threads = 0;

  /// Transient-fault retries per protocol exchange (smc::SmcConfig).
  int smc_retries = 3;

  /// Plaintext packing: pairs per packed SMC exchange
  /// (smc::SmcConfig::pack_pairs); 0 keeps the scalar exchange. Each slot
  /// is sized from its QID's hierarchy (smc::PackedGroupPairs).
  int smc_pack = 0;
  /// Not set by the parser, which ignores smc_pack's old second token: the
  /// uniform slot width of earlier releases, kept so that code which reads
  /// it compiles.
  int smc_pack_slot_bits = 64;

  /// Pinned keypair/protocol seed (smc::SmcConfig::test_seed). 0 — the
  /// default — draws keys from OS entropy; non-zero makes runs repeatable
  /// and is what lets a persistent material store hit across runs.
  uint64_t smc_seed = 0;
  /// Persistent offline crypto material store directory
  /// (smc::SmcConfig::material_dir); relative paths resolve against the
  /// spec file's directory. Empty disables the store.
  std::string material_dir;
  /// Offline phase sizing in expected record pairs
  /// (smc::SmcConfig::offline_pairs); 0 sizes by the pool depth.
  int offline_pairs = 0;

  /// TCP transport: pairs per kPairBatch frame
  /// (net::RemoteOracleOptions::rpc_batch_pairs); <= 1 disables batching.
  int rpc_batch = 32;
  /// TCP transport: batches in flight per shard
  /// (net::RemoteOracleOptions::rpc_window).
  int rpc_window = 4;
  /// TCP transport: comparator shard meshes per fleet (net::SmcBackend,
  /// docs/CLUSTER.md). 1 = the single-daemon deployment.
  int shards = 1;

  /// TCP transport failure detector: heartbeat probe cadence
  /// (net::RemoteOracleOptions::hb_interval_ms) and the consecutive-miss
  /// thresholds for the alive -> suspect and suspect -> dead transitions
  /// (net::MembershipOptions). dead_misses must exceed suspect_misses.
  int hb_interval_ms = 250;
  int suspect_misses = 2;
  int dead_misses = 4;

  /// Streaming service knobs (hprl_link --serve; docs/SERVICE.md): each
  /// tenant's SMC allowance in pairs (admission control), the per-tenant
  /// queue capacity for inadmissible deltas (0 = reject instead of queue),
  /// and the VGH levels every delta attribute is generalized above its leaf
  /// (the streaming stand-in for the batch anonymizer's release schema).
  int64_t serve_allowance = 1'000'000;
  int64_t serve_queue = 1024;
  int serve_gen_level = 1;

  /// Fault-injection schedule for the SMC transport (smc::FaultPlan); all
  /// rates zero (the default) leaves the transport undecorated.
  uint64_t fault_seed = 1;
  double fault_drop = 0;
  double fault_corrupt = 0;
  double fault_delay = 0;
  int fault_delay_micros = 100;
  double fault_crash = 0;
};

/// Parses the spec text. `base_dir` resolves relative vgh paths.
Result<LinkageSpec> ParseLinkageSpec(const std::string& text,
                                     const std::string& base_dir);

/// Loads and parses a spec file (base_dir = the file's directory).
Result<LinkageSpec> LoadLinkageSpec(const std::string& path);

}  // namespace hprl::cli

#endif  // HPRL_CLI_SPEC_H_

#ifndef HPRL_SMC_PROTOCOL_H_
#define HPRL_SMC_PROTOCOL_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/result.h"
#include "crypto/arena.h"
#include "crypto/fixed_point.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "linkage/match_rule.h"
#include "linkage/oracle.h"
#include "smc/channel.h"
#include "smc/costs.h"
#include "smc/fault.h"
#include "smc/parties.h"

namespace hprl::smc {

/// Parameters of the cryptographic step.
struct SmcConfig {
  /// Paillier modulus size; the paper's experiments use 1024.
  int key_bits = 1024;

  /// Fixed-point scale for numeric attributes (values are multiplied by this
  /// and rounded before entering the plaintext space).
  int64_t fp_scale = 1000;

  /// Bits of the multiplicative blinding factor used when
  /// reveal_distances == false.
  int blind_bits = 40;

  /// true: the querying party decrypts each squared distance and compares it
  /// with the threshold itself (paper §V-A's base protocol).
  /// false: the data holder blinds (T - d) multiplicatively so the querying
  /// party learns only the comparison outcome (the secure-comparison
  /// combination the paper mentions).
  bool reveal_distances = true;

  /// Non-zero: deterministic randomness for reproducible tests/benches.
  uint64_t test_seed = 0;

  /// Reuse each record's ciphertexts across the pairs it participates in
  /// (via CompareRows): Alice's Enc(x²)/Enc(-2x) and Bob's Enc(y²) are
  /// computed once per (record, attribute). Sound in the semi-honest model
  /// — ciphertexts are rerandomized only on first creation, and reuse
  /// reveals nothing beyond the group structure the querying party already
  /// sees. Cuts per-pair encryptions from 3 per attribute to ~0 amortized.
  bool cache_ciphertexts = false;

  /// Decrypt through the CRT fast path (two half-width exponentiations).
  /// false forces the reference lambda/mu path — the honest baseline for
  /// before/after benchmarks.
  bool crt_decrypt = true;

  /// Target depth of the precomputed-randomizer pool used by the batch
  /// engine (BatchSmcEngine); 0 disables the pool. Standalone comparators
  /// never pool (their encryptions stay inline), so this knob only matters
  /// when comparing through SmcMatchOracle / BatchSmcEngine.
  int randomizer_pool_depth = 64;

  /// Deterministic fault-injection schedule for the transport (smc/fault.h).
  /// When enabled, each worker's bus is decorated as a FaultyBus; disabled
  /// (the default), the comparator runs on the plain MessageBus and the
  /// zero-fault path is byte-identical to a build without the fault layer.
  FaultPlan fault_plan;

  /// How many times one per-attribute exchange (or the result announcement)
  /// is retried after a transient transport fault — a dropped message,
  /// a corrupted payload, or a desync — before the pair is given up
  /// (and, under BatchSmcEngine, quarantined). 0 disables retries.
  int max_retries = 3;

  /// Base of the exponential retry backoff: attempt k sleeps
  /// retry_backoff_micros << (k-1). 0 (the default) retries immediately —
  /// right for the in-process bus, where a retry cannot race the fault away.
  int retry_backoff_micros = 0;

  /// Plaintext packing (the packed SMC fast path): > 0 lets the batch
  /// engine group up to this many pairs into ONE packed exchange — all the
  /// pairs' per-attribute distances land in disjoint bit-slots of a single
  /// Paillier plaintext, so one decryption serves the whole group and each
  /// side encrypts one packed square (Alice Σx²·W, Bob Σy²·W) per group.
  /// Slot widths follow from the rule's public bounds (PackedGroupPairs).
  /// Alice's per-slot cross terms are encrypted once per batch for each
  /// (Alice row, position in the group) and shared by the groups that
  /// repeat it (BatchSmcEngine::CompareBatch). Requires reveal_distances
  /// (the packed plaintext IS the distances) and public bounds on every
  /// compared attribute, and is ignored with ciphertext caching on (a
  /// packed exchange is unique to its group). 0 (the default) keeps the
  /// scalar §V-A exchange everywhere.
  /// Labels are bit-identical either way — both paths compute the exact
  /// (x-y)² per attribute.
  int pack_pairs = 0;

  /// Ignored: every slot's width now follows from its attribute's public
  /// bound. Kept so that code which still sets it compiles.
  int pack_slot_bits = 64;

  /// Non-empty: persistent offline-material store directory
  /// (crypto/material.h). The batch engine (and, over TCP, every daemon)
  /// loads fixed-base tables + pre-encrypted randomizers keyed by keypair
  /// fingerprint from here at Init and saves freshly generated material
  /// back, so warm runs skip the offline phase entirely. Corrupt or
  /// mismatched files are silently regenerated. Material only ever hits at
  /// a pinned test_seed (production keys never repeat).
  std::string material_dir;

  /// Record pairs the dedicated offline phase provisions randomizers for
  /// (smc::OfflineRandomizers: 3 per attribute per pair on the scalar
  /// exchange, about one per attribute on the packed one). 0 keeps the
  /// background filler as the only producer.
  int offline_pairs = 0;

  /// Routes the packed exchange's BigInt scratch through a per-comparator
  /// bump arena (crypto/arena.h): slots are bulk-preallocated at the width
  /// of the largest mod-n² intermediate and reused across groups, cutting
  /// GMP heap allocations per packed pair by an order of magnitude. Pure
  /// storage reorganization — links are bit-identical with it on or off.
  bool use_arena = true;

  /// Pins each SPAWNED batch-engine worker thread to a core (round-robin
  /// over the machine). Worker 0 runs on the caller's thread and is never
  /// pinned — its affinity is not ours to change. With lazily grown arenas
  /// the pin also gives each worker's scratch first-touch NUMA locality.
  /// Best-effort: restricted cpusets leave threads unpinned. Off by default.
  bool pin_cores = false;
};

/// Alice's cross terms for one batch of packed groups, keyed by (Alice row
/// id, position of the pair in its group). The position fixes the slots, so
/// one entry serves every group that holds the same row at the same
/// position. BatchSmcEngine fills it before the batch's groups run and only
/// reads it while they do.
using CrossTermTable = std::map<std::pair<int64_t, size_t>, PackedCrossTerms>;

/// One compared attribute's public slot domain in the packed exchange. Both
/// holders subtract `offset` from their encodings, so an in-bound value and
/// any distance between two lie in [0, max]: a bitlen(max²)-bit slot holds
/// every square, so no carry can cross it.
struct PackedAttr {
  size_t rule_index = 0;  ///< into MatchRule::attrs
  int64_t offset = 0;     ///< numeric: floor(lo·fp_scale); categorical: 0
  int64_t max = 0;        ///< ceil(hi·fp_scale) - offset, or categories - 1
};

/// Pairs one packed exchange can carry under `config` and `rule`:
/// min(pack_pairs, (key_bits - 2) / Σ slot widths); 0 when the packed path
/// is unavailable (packing off, blinded comparisons, ciphertext caching, a
/// compared attribute without a public bound, or too small a modulus).
int PackedGroupPairs(const SmcConfig& config, const MatchRule& rule);

/// Drives the paper's §V-A secure record comparison among the three party
/// objects (smc/parties.h: data holders "alice" and "bob", querying party
/// "qp") over an accounted MessageBus. This class is the in-process
/// scheduler; the secrets live in the parties.
///
/// Per attribute i the protocol computes d = (x - y)^2 homomorphically:
///   alice -> bob : Enc(x^2), Enc(-2x)
///   bob   -> qp  : Enc(x^2) +h (Enc(-2x) ×h y) +h Enc(y^2)   [= Enc(d)]
/// and the querying party decrypts (or, blinded, sign-tests) d against the
/// scaled threshold. A pair matches when every attribute is within its
/// threshold; evaluation stops at the first failing attribute.
///
/// Leakage note (documented, matching the paper's relaxed model): the
/// querying party learns per-attribute outcomes, and with reveal_distances
/// also the squared distances of compared attributes; the final result is
/// sent back to both data holders.
class SecureRecordComparator {
 public:
  SecureRecordComparator(SmcConfig config, MatchRule rule);

  /// Generates the querying party's key pair and publishes the public key.
  Status Init();

  /// Init with an externally generated key pair: the querying party installs
  /// `kp` instead of generating its own. Lets N worker comparators share one
  /// published key (batch engine) and lets benches exclude key generation.
  Status InitWithKeyPair(const crypto::PaillierKeyPair& kp);

  /// Routes the data holders' encryptions through a pool of precomputed
  /// r^n mod n² randomizers (nullptr detaches). Call after Init — key setup
  /// replaces the holders' key objects and with them the attachment; the
  /// comparator re-applies the pool if Init runs again. The pool must
  /// outlive the comparator's use of it.
  void AttachRandomizerPool(crypto::RandomizerPool* pool);

  /// Runs the full protocol on one record pair. Text attributes are not
  /// supported by the cryptographic step (paper future work).
  Result<bool> Compare(const Record& a, const Record& b);

  /// Row-identified variant enabling ciphertext caching (see
  /// SmcConfig::cache_ciphertexts). Without caching it is identical to
  /// Compare.
  Result<bool> CompareRows(int64_t a_id, int64_t b_id, const Record& a,
                           const Record& b);

  /// smc::PackedGroupPairs for this comparator's config and rule. Depends
  /// only on those, so every worker of a batch engine plans identical
  /// groups regardless of thread count.
  int PackedGroupPairs() const { return packed_pairs_; }

  /// Runs the packed variant of the §V-A exchange on up to
  /// PackedGroupPairs() pairs at once: one "alice_pk" message (packed
  /// Enc(Σx²·W) plus per-slot Enc(-2x·W)), one folded "bob_pk" ciphertext,
  /// ONE decryption, then a single group result announcement. Returns
  /// per-pair match flags in input order. A value outside its attribute's
  /// public bound fails the group with InvalidArgument before anything is
  /// encrypted. Transient transport faults heal through the same retry
  /// layer as the scalar exchange.
  ///
  /// With `cross_terms`, Alice copies each pair's cross terms from its
  /// (a_id, position) entry instead of encrypting them, whenever the entry
  /// holds this pair's values; a retry copies them again rather than
  /// re-encrypting. Labels are the same with or without the table.
  Result<std::vector<bool>> ComparePackedGroup(
      const std::vector<RowPairRequest>& pairs,
      const CrossTermTable* cross_terms = nullptr);

  /// Adds to `table` an entry, with its values but no ciphertexts yet, for
  /// every pair of the packed group `pairs` that has an a_id >= 0 and whose
  /// (a_id, position) key is not in `table` yet. Planning the batch's
  /// groups in order makes the first occurrence of a key own it.
  Status PlanCrossTerms(const std::vector<RowPairRequest>& pairs,
                        CrossTermTable* table) const;

  /// Alice encrypts one planned entry's cross terms (DataHolder::
  /// EncryptCrossTerms), counted in this comparator's costs() and timed in
  /// the smc.cross_term_seconds histogram.
  Status EncryptCrossTerms(PackedCrossTerms* terms);

  /// Secure squared distance on raw scalars (test/benchmark entry point):
  /// returns the exact (x - y)^2 as seen by the querying party. Requires
  /// reveal_distances.
  Result<double> SecureSquaredDistance(double x, double y);

  const SmcCosts& costs() const { return costs_; }
  const MessageBus& bus() const { return *bus_; }
  const crypto::PaillierPublicKey& public_key() const {
    return qp_.public_key();
  }

  /// Streams protocol observability into `registry` (nullptr detaches):
  /// smc.bytes_sent / smc.messages from the bus, paillier.* op counters
  /// from every party's keys, smc.rounds and the smc.compare_seconds
  /// latency histogram from the comparator itself. Call after Init() (key
  /// setup replaces the key objects). The SmcCosts accountant is always on
  /// and unaffected.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  /// Scaled integer encoding of attribute `rule` for value `v`.
  Result<crypto::BigInt> EncodeAttr(const Value& v, const AttrRule& rule) const;
  /// Scaled integer threshold for attribute `rule` (compare vs (x-y)^2).
  crypto::BigInt AttrThreshold(const AttrRule& rule) const;

  /// A packed group's slot values, pair-major and attribute-minor: pair p
  /// holds slots [p·k, (p+1)·k) for k = packed_attrs_.size().
  struct PackedPlan {
    std::vector<crypto::BigInt> xs, ys, thresholds;
  };

  /// Encodes every pair of `pairs` shifted by its attributes' offsets;
  /// InvalidArgument when a value falls outside its public bound.
  Status PlanPackedGroup(const std::vector<RowPairRequest>& pairs,
                         PackedPlan* plan) const;

  /// Retries `exchange` after transient transport faults (see
  /// SmcConfig::max_retries), purging the bus and re-announcing the pair
  /// context between attempts. Crashes (Unavailable) are not retried here —
  /// a dead party is the batch engine's supervision problem, not a
  /// transit glitch.
  template <typename Exchange>
  auto RetryExchange(int64_t a_id, int64_t b_id, int exchange_idx,
                     Exchange&& exchange) -> decltype(exchange());

  SmcConfig config_;
  MatchRule rule_;
  crypto::FixedPointCodec codec_;
  std::unique_ptr<MessageBus> bus_;  // FaultyBus when fault_plan is enabled
  SmcCosts costs_;
  bool initialized_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
  crypto::RandomizerPool* pool_ = nullptr;   // not owned; may be null

  // The packed exchange's public plan (PlanPacked), fixed by config + rule.
  std::vector<PackedAttr> packed_attrs_;
  crypto::PackingLayout packed_layout_;
  int packed_pairs_ = 0;

  // Shared scratch arena for the packed exchange (SmcConfig::use_arena);
  // reset at the start of every packed attempt. Owned here, lent to the
  // parties below, so declaration order keeps it alive past their use.
  std::unique_ptr<crypto::BigIntArena> arena_;

  // The three §V-A roles; each owns only its own secrets (see smc/parties.h).
  QueryingParty qp_;
  DataHolder alice_;
  DataHolder bob_;
};

}  // namespace hprl::smc

#endif  // HPRL_SMC_PROTOCOL_H_

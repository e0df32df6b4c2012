#include "smc/protocol.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/timer.h"

namespace hprl::smc {

using crypto::BigInt;

namespace {

ProtocolParams ToParams(const SmcConfig& cfg) {
  ProtocolParams p;
  p.key_bits = cfg.key_bits;
  p.fp_scale = cfg.fp_scale;
  p.blind_bits = cfg.blind_bits;
  p.reveal_distances = cfg.reveal_distances;
  p.cache_ciphertexts = cfg.cache_ciphertexts;
  p.crt_decrypt = cfg.crt_decrypt;
  return p;
}

/// Derives per-party deterministic seeds in test mode (0 stays 0 == OS
/// entropy for every party).
uint64_t Seed(uint64_t base, uint64_t salt) { return base == 0 ? 0 : base ^ salt; }

std::unique_ptr<MessageBus> MakeBus(const FaultPlan& plan) {
  if (plan.enabled()) return std::make_unique<FaultyBus>(plan);
  return std::make_unique<MessageBus>();
}

/// Faults the protocol heals in place: a dropped message (NotFound at the
/// receiver), a damaged payload (IOError from checksum / ciphertext-range
/// validation), or a desynchronized link (Internal from tag / sequence
/// checks). Everything else — semantic errors, and Unavailable crashes —
/// propagates to the caller.
bool IsTransient(const Status& s) {
  switch (s.code()) {
    case StatusCode::kNotFound:
    case StatusCode::kIOError:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

/// Plans the packed exchange for `rule` under `config` into *attrs (the
/// compared attributes' slot domains) and *layout (one full group), and
/// returns the pairs per group; 0 when the packed path is unavailable.
int PlanPacked(const SmcConfig& config, const MatchRule& rule,
               std::vector<PackedAttr>* attrs, crypto::PackingLayout* layout) {
  if (config.pack_pairs <= 0 || !config.reveal_distances ||
      config.cache_ciphertexts) {
    return 0;
  }
  const double scale = static_cast<double>(config.fp_scale);
  std::vector<PackedAttr> planned;
  std::vector<int> widths;
  for (size_t i = 0; i < rule.attrs.size(); ++i) {
    const AttrRule& a = rule.attrs[i];
    if (a.type == AttrType::kCategorical && a.theta >= 1.0) continue;
    if (!a.HasBound()) return 0;  // text never has one
    PackedAttr p{i, 0, a.categories - 1};
    if (a.type == AttrType::kNumeric) {
      // The codec rounds v·scale, so v in [lo, hi) encodes into
      // [floor(lo·scale), ceil(hi·scale)]; keep that inside int64.
      const double lo = std::floor(a.lo * scale);
      const double hi = std::ceil(a.hi * scale);
      if (!(lo > -4e18 && hi < 4e18)) return 0;
      p.offset = static_cast<int64_t>(lo);
      p.max = static_cast<int64_t>(hi) - p.offset;
    }
    widths.push_back(
        static_cast<int>((BigInt(p.max) * BigInt(p.max)).BitLength()));
    planned.push_back(p);
  }
  auto group = crypto::PackingLayout::PlanRepeated(config.key_bits, widths,
                                                   config.pack_pairs);
  if (!group.ok()) return 0;  // also: no compared attribute at all
  *attrs = std::move(planned);
  *layout = std::move(group).value();
  return layout->num_slots / static_cast<int>(attrs->size());
}

}  // namespace

SecureRecordComparator::SecureRecordComparator(SmcConfig config,
                                               MatchRule rule)
    : config_(config),
      rule_(std::move(rule)),
      codec_(config.fp_scale),
      bus_(MakeBus(config.fault_plan)),
      qp_(ToParams(config), Seed(config.test_seed, 0x9999)),
      alice_(std::string("alice"), ToParams(config),
             Seed(config.test_seed, 0xA11CE)),
      bob_(std::string("bob"), ToParams(config),
           Seed(config.test_seed, 0xB0B)) {
  if (config_.use_arena) {
    // Widest intermediate an arena slot holds: the product of two mod-n²
    // values inside an in-place multiply, i.e. ~4x the modulus bits.
    arena_ = std::make_unique<crypto::BigIntArena>(
        static_cast<size_t>(config_.key_bits) * 4 + 128);
    qp_.AttachArena(arena_.get());
    alice_.AttachArena(arena_.get());
    bob_.AttachArena(arena_.get());
  }
  packed_pairs_ = PlanPacked(config_, rule_, &packed_attrs_, &packed_layout_);
}

Status SecureRecordComparator::Init() {
  HPRL_RETURN_IF_ERROR(qp_.PublishKey(bus_.get(), &costs_));
  HPRL_RETURN_IF_ERROR(alice_.ReceiveKey(bus_.get()));
  HPRL_RETURN_IF_ERROR(bob_.ReceiveKey(bus_.get()));
  initialized_ = true;
  if (metrics_ != nullptr) AttachMetrics(metrics_);  // re-attach fresh keys
  if (pool_ != nullptr) AttachRandomizerPool(pool_);
  return Status::OK();
}

Status SecureRecordComparator::InitWithKeyPair(
    const crypto::PaillierKeyPair& kp) {
  HPRL_RETURN_IF_ERROR(qp_.PublishKeyPair(kp, bus_.get(), &costs_));
  HPRL_RETURN_IF_ERROR(alice_.ReceiveKey(bus_.get()));
  HPRL_RETURN_IF_ERROR(bob_.ReceiveKey(bus_.get()));
  initialized_ = true;
  if (metrics_ != nullptr) AttachMetrics(metrics_);  // re-attach fresh keys
  if (pool_ != nullptr) AttachRandomizerPool(pool_);
  return Status::OK();
}

void SecureRecordComparator::AttachRandomizerPool(
    crypto::RandomizerPool* pool) {
  pool_ = pool;
  alice_.AttachRandomizerPool(pool);
  bob_.AttachRandomizerPool(pool);
}

void SecureRecordComparator::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  bus_->AttachMetrics(registry);
  qp_.AttachMetrics(registry);
  alice_.AttachMetrics(registry);
  bob_.AttachMetrics(registry);
  if (arena_ != nullptr) arena_->AttachMetrics(registry);
}

Result<BigInt> SecureRecordComparator::EncodeAttr(const Value& v,
                                                  const AttrRule& rule) const {
  switch (rule.type) {
    case AttrType::kCategorical:
      return BigInt(v.category());
    case AttrType::kNumeric:
      return codec_.Encode(v.num());
    case AttrType::kText:
      return Status::Unimplemented(
          "text attributes in the SMC step are future work (paper §VIII)");
  }
  return Status::Internal("unreachable");
}

BigInt SecureRecordComparator::AttrThreshold(const AttrRule& rule) const {
  if (rule.type == AttrType::kCategorical) {
    // Hamming: within threshold iff equal (θ < 1), i.e. (x-y)^2 <= 0.
    return BigInt(0);
  }
  // Numeric: |x - y| <= θ * norm, so on scaled integers
  // (X - Y)^2 <= (θ * norm * scale)^2.
  double t = rule.theta * rule.norm * static_cast<double>(codec_.scale());
  return BigInt(static_cast<int64_t>(std::floor(t * t + 1e-9)));
}

template <typename Exchange>
auto SecureRecordComparator::RetryExchange(int64_t a_id, int64_t b_id,
                                           int exchange_idx,
                                           Exchange&& exchange)
    -> decltype(exchange()) {
  for (int attempt = 0;; ++attempt) {
    // The fault schedule distinguishes exchanges of the same pair through
    // the context's attempt field: high bits carry the exchange index,
    // low bits the retry attempt.
    bus_->SetPairContext(a_id, b_id, (exchange_idx << 8) | attempt);
    auto r = exchange();
    if (r.ok() || !IsTransient(r.status()) || attempt >= config_.max_retries) {
      return r;
    }
    // Heal: discard whatever half-delivered state the fault left behind,
    // optionally back off, and replay the exchange from its first message.
    bus_->PurgeAll();
    costs_.retries += 1;
    if (metrics_ != nullptr) obs::Add(metrics_, "smc.retries");
    if (config_.retry_backoff_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(config_.retry_backoff_micros) << attempt));
    }
  }
}

Result<bool> SecureRecordComparator::Compare(const Record& a,
                                             const Record& b) {
  return CompareRows(-1, -1, a, b);
}

Result<bool> SecureRecordComparator::CompareRows(int64_t a_id, int64_t b_id,
                                                 const Record& a,
                                                 const Record& b) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before Compare()");
  }
  const bool cache = config_.cache_ciphertexts && a_id >= 0 && b_id >= 0;
  costs_.invocations += 1;
  WallTimer compare_timer;
  int64_t rounds = 0;
  int exchange_idx = 0;
  bool match = true;
  for (size_t attr_pos = 0; attr_pos < rule_.attrs.size(); ++attr_pos) {
    const AttrRule& rule = rule_.attrs[attr_pos];
    if (rule.type == AttrType::kCategorical && rule.theta >= 1.0) {
      continue;  // Hamming distance never exceeds 1: vacuous threshold
    }
    auto x = EncodeAttr(a[rule.attr_index], rule);
    if (!x.ok()) return x.status();
    auto y = EncodeAttr(b[rule.attr_index], rule);
    if (!y.ok()) return y.status();
    BigInt threshold = AttrThreshold(rule);

    int64_t a_key = cache ? (a_id << 8) | static_cast<int64_t>(attr_pos) : -1;
    int64_t b_key = cache ? (b_id << 8) | static_cast<int64_t>(attr_pos) : -1;
    costs_.attr_comparisons += 1;
    rounds += 1;  // one alice -> bob -> qp round trip per attribute
    auto within =
        RetryExchange(a_id, b_id, exchange_idx++, [&]() -> Result<bool> {
          HPRL_RETURN_IF_ERROR(
              alice_.SendAttr(bus_.get(), bob_.name(), *x, a_key, &costs_));
          HPRL_RETURN_IF_ERROR(
              bob_.FoldAndForward(bus_.get(), *y, threshold, b_key, &costs_));
          return qp_.DecideAttr(bus_.get(), threshold, &costs_);
        });
    if (!within.ok()) return within.status();
    if (!*within) {
      match = false;
      break;  // conjunction: first failing attribute decides
    }
  }
  // The querying party reports the pair's label to both holders.
  auto announced =
      RetryExchange(a_id, b_id, exchange_idx++, [&]() -> Result<bool> {
        HPRL_RETURN_IF_ERROR(qp_.AnnounceResult(bus_.get(), match));
        HPRL_RETURN_IF_ERROR(alice_.ReceiveResult(bus_.get()).status());
        HPRL_RETURN_IF_ERROR(bob_.ReceiveResult(bus_.get()).status());
        return true;
      });
  if (!announced.ok()) return announced.status();
  rounds += 1;  // result announcement
  if (metrics_ != nullptr) {
    obs::Add(metrics_, "smc.rounds", rounds);
    obs::Add(metrics_, "smc.attr_comparisons", rounds - 1);
    obs::Observe(metrics_, "smc.compare_seconds",
                 compare_timer.ElapsedSeconds());
  }
  return match;
}

int PackedGroupPairs(const SmcConfig& config, const MatchRule& rule) {
  std::vector<PackedAttr> attrs;
  crypto::PackingLayout layout;
  return PlanPacked(config, rule, &attrs, &layout);
}

Status SecureRecordComparator::PlanPackedGroup(
    const std::vector<RowPairRequest>& pairs, PackedPlan* plan) const {
  for (const RowPairRequest& pair : pairs) {
    for (const PackedAttr& attr : packed_attrs_) {
      const AttrRule& rule = rule_.attrs[attr.rule_index];
      const Value& x = (*pair.a)[rule.attr_index];
      const Value& y = (*pair.b)[rule.attr_index];
      // The public bound is the slots' whole safety argument: outside it a
      // value could spill into a neighbouring slot.
      if (!rule.InBound(x) || !rule.InBound(y)) {
        return Status::InvalidArgument(
            "value outside the public bound of attribute '" + rule.name +
            "'; the packed exchange cannot hold it");
      }
      // Bounded attributes are numeric or categorical, and inside the bound
      // a shifted encoding is an int64 in [0, max].
      auto shifted = [&](const Value& v) {
        return BigInt((rule.type == AttrType::kNumeric
                           ? codec_.EncodeInt64(v.num())
                           : v.category()) -
                      attr.offset);
      };
      plan->xs.push_back(shifted(x));
      plan->ys.push_back(shifted(y));
      plan->thresholds.push_back(AttrThreshold(rule));
    }
  }
  return Status::OK();
}

Status SecureRecordComparator::PlanCrossTerms(
    const std::vector<RowPairRequest>& pairs, CrossTermTable* table) const {
  PackedPlan plan;
  HPRL_RETURN_IF_ERROR(PlanPackedGroup(pairs, &plan));
  const size_t k = packed_attrs_.size();
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (pairs[p].a_id < 0) continue;  // no row identity: nothing to share
    auto [it, inserted] = table->try_emplace({pairs[p].a_id, p});
    if (!inserted) continue;
    PackedCrossTerms& terms = it->second;
    terms.first_slot = p * k;
    terms.xs.assign(
        plan.xs.begin() + static_cast<std::ptrdiff_t>(p * k),
        plan.xs.begin() + static_cast<std::ptrdiff_t>((p + 1) * k));
  }
  return Status::OK();
}

Status SecureRecordComparator::EncryptCrossTerms(PackedCrossTerms* terms) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  WallTimer timer;
  HPRL_RETURN_IF_ERROR(
      alice_.EncryptCrossTerms(packed_layout_, terms, &costs_));
  if (metrics_ != nullptr) {
    obs::Observe(metrics_, "smc.cross_term_seconds", timer.ElapsedSeconds());
  }
  return Status::OK();
}

Result<std::vector<bool>> SecureRecordComparator::ComparePackedGroup(
    const std::vector<RowPairRequest>& pairs,
    const CrossTermTable* cross_terms) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before comparing");
  }
  if (packed_pairs_ < 1) {
    return Status::FailedPrecondition(
        "packed path unavailable for this config/rule");
  }
  if (pairs.size() > static_cast<size_t>(packed_pairs_)) {
    return Status::InvalidArgument("packed group larger than capacity");
  }
  std::vector<bool> results(pairs.size(), false);
  if (pairs.empty()) return results;

  WallTimer compare_timer;
  PackedPlan plan;
  HPRL_RETURN_IF_ERROR(PlanPackedGroup(pairs, &plan));
  // The batch's pre-encrypted cross terms for these pairs; SendAttrsPacked
  // checks each against the values it is about to send.
  std::vector<const PackedCrossTerms*> reuse;
  if (cross_terms != nullptr) {
    for (size_t p = 0; p < pairs.size(); ++p) {
      auto it = cross_terms->find({pairs[p].a_id, p});
      if (it != cross_terms->end()) reuse.push_back(&it->second);
    }
  }
  const int64_t ctx_a = pairs.front().a_id;
  const int64_t ctx_b = pairs.front().b_id;
  costs_.invocations += static_cast<int64_t>(pairs.size());
  costs_.attr_comparisons += static_cast<int64_t>(plan.xs.size());
  costs_.packed_exchanges += 1;
  costs_.packed_pairs += static_cast<int64_t>(pairs.size());
  auto within =
      RetryExchange(ctx_a, ctx_b, 0, [&]() -> Result<std::vector<bool>> {
        // Rewind the scratch arena per attempt: nothing allocated during a
        // previous (possibly faulted) attempt outlives the exchange.
        if (arena_ != nullptr) arena_->Reset();
        HPRL_RETURN_IF_ERROR(alice_.SendAttrsPacked(
            bus_.get(), bob_.name(), plan.xs, packed_layout_, &costs_, reuse));
        HPRL_RETURN_IF_ERROR(bob_.FoldAndForwardPacked(
            bus_.get(), plan.ys, packed_layout_, &costs_));
        return qp_.DecideAttrsPacked(bus_.get(), plan.thresholds,
                                     packed_layout_, &costs_);
      });
  if (!within.ok()) return within.status();
  // Conjunction per pair over its slot verdicts (exact distances, so the
  // label matches the scalar path's early-exit conjunction bit for bit).
  std::vector<uint8_t> labels(pairs.size());
  const size_t k = packed_attrs_.size();
  for (size_t p = 0; p < pairs.size(); ++p) {
    bool match = true;
    for (size_t i = 0; i < k; ++i) match = match && (*within)[p * k + i];
    results[p] = match;
    labels[p] = match ? 1 : 0;
  }
  auto announced = RetryExchange(ctx_a, ctx_b, 1, [&]() -> Result<bool> {
    HPRL_RETURN_IF_ERROR(qp_.AnnounceResults(bus_.get(), labels));
    HPRL_RETURN_IF_ERROR(
        alice_.ReceiveResults(bus_.get(), labels.size()).status());
    HPRL_RETURN_IF_ERROR(
        bob_.ReceiveResults(bus_.get(), labels.size()).status());
    return true;
  });
  if (!announced.ok()) return announced.status();
  if (metrics_ != nullptr) {
    obs::Add(metrics_, "smc.rounds", 2);
    obs::Add(metrics_, "smc.attr_comparisons",
             static_cast<int64_t>(plan.xs.size()));
    obs::Add(metrics_, "smc.packed_groups");
    obs::Observe(metrics_, "smc.compare_seconds",
                 compare_timer.ElapsedSeconds());
  }
  return results;
}

Result<double> SecureRecordComparator::SecureSquaredDistance(double x,
                                                             double y) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before use");
  }
  if (!config_.reveal_distances) {
    return Status::FailedPrecondition(
        "SecureSquaredDistance requires reveal_distances");
  }
  BigInt xi = codec_.Encode(x);
  BigInt yi = codec_.Encode(y);
  HPRL_RETURN_IF_ERROR(
      alice_.SendAttr(bus_.get(), bob_.name(), xi, -1, &costs_));
  HPRL_RETURN_IF_ERROR(
      bob_.FoldAndForward(bus_.get(), yi, BigInt(0), -1, &costs_));
  auto plain = qp_.ReceivePlain(bus_.get(), &costs_);
  if (!plain.ok()) return plain.status();
  return codec_.DecodeSquared(*plain);
}

}  // namespace hprl::smc

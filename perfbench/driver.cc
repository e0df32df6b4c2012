// perfbench_driver — one timed run of a benchmark workload, composed from the
// repository's public calls (the ones cli::RunLinkageFromFiles and
// cli::RunServeFromFiles compose). perfbench/run.py launches it.
//
//   perfbench_driver --mode link --spec S --r R.csv --s S.csv --links L.csv
//                    --out run.json [--parties a:p,b:p,q:p] [--trace]
//                    [--report_out report.json]
//                    [--setup_only]
//   perfbench_driver --mode serve --spec S --deltas D.csv --rate R
//                    [--warmup N] --links L.csv --out run.json [--trace]
//                    [--report_out ..] [--setup_only]
//
// Every timestamp in run.json is CLOCK_MONOTONIC seconds (steady_clock), so
// the launcher can subtract its own launch time. Without --trace no registry
// is attached and no span is recorded; a forwarding MatchOracle still stamps
// each CompareBatch (two clock reads per batch), which the end-to-end
// latency and throughput metrics need. With --trace the run attaches an
// obs::MetricsRegistry (written to --report_out in the hprl-run-report/1
// schema), records spans around each public call, and after the timed run
// replays the first kReplayPairs SMC pairs through the party objects to
// split the protocol time by party.
//
// --setup_only stops at the first pair that reaches the oracle (link) or
// when the service is ready for its first delta (serve): the launcher repeats
// the set-up alone to take its median.
//
// Serve mode applies the first --warmup deltas back to back, so that the
// tenants' tables hold live rows, then runs the rest as an open loop: delta i
// is due at start + i / rate, whatever happened to delta i-1, so a stall
// shows as lateness of later deltas; the driver spins until each is due.
// Only the open-loop deltas are timed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/plan.h"
#include "cli/spec.h"
#include "common/flags.h"
#include "core/experiment.h"
#include "core/session.h"
#include "crypto/arena.h"
#include "crypto/packing.h"
#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "data/csv.h"
#include "net/backend.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/service.h"
#include "smc/channel.h"
#include "smc/costs.h"
#include "smc/parties.h"

using namespace hprl;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
};

/// In-memory spans around the driver's calls into each layer; written out
/// with the run's results. Inert when tracing is off.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int Begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Now();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

constexpr char kSetupDone[] = "setup-only run stops at the first pair";

/// Forwards every MatchOracle call to the backend's oracle and stamps each
/// CompareBatch. Optionally keeps copies of the first pairs it labels, in
/// the session's SMC order, for the party replay, or refuses the first batch
/// so that a set-up-only run ends where the online stage would begin.
class TimedOracle : public MatchOracle {
 public:
  TimedOracle(MatchOracle& inner, size_t capture_pairs, bool setup_only)
      : inner_(inner), capture_(capture_pairs), setup_only_(setup_only) {}

  Result<bool> Compare(const Record& a, const Record& b) override {
    return inner_.Compare(a, b);
  }
  Result<bool> CompareRows(int64_t a_id, int64_t b_id, const Record& a,
                           const Record& b) override {
    return inner_.CompareRows(a_id, b_id, a, b);
  }
  Result<std::vector<uint8_t>> CompareBatch(
      const std::vector<RowPairRequest>& batch) override {
    for (size_t i = 0; i < batch.size() && captured_.size() < capture_; ++i) {
      captured_.emplace_back(*batch[i].a, *batch[i].b);
    }
    const double start = Now();
    if (first_start_ == 0) first_start_ = start;
    if (setup_only_) return Status::FailedPrecondition(kSetupDone);
    auto labels = inner_.CompareBatch(batch);
    const double end = Now();
    last_end_ = end;
    busy_ += end - start;
    seconds_.push_back(end - start);
    pairs_.push_back(static_cast<int64_t>(batch.size()));
    if (labels.ok()) {
      for (uint8_t l : *labels) quarantined_ += l == kPairQuarantined;
    }
    return labels;
  }
  int64_t invocations() const override { return inner_.invocations(); }
  std::vector<ShardDisposition> ShardDispositions() const override {
    return inner_.ShardDispositions();
  }
  void AttachMetrics(obs::MetricsRegistry* registry) override {
    inner_.AttachMetrics(registry);
  }
  Status PushResidentRow(int side, int64_t row_id,
                         const Record& record) override {
    return inner_.PushResidentRow(side, row_id, record);
  }
  Status EraseResidentRow(int side, int64_t row_id) override {
    return inner_.EraseResidentRow(side, row_id);
  }
  Status DrainResidentRows() override { return inner_.DrainResidentRows(); }

  double first_start() const { return first_start_; }
  double last_end() const { return last_end_; }
  double busy() const { return busy_; }
  int64_t quarantined() const { return quarantined_; }
  const std::vector<double>& seconds() const { return seconds_; }
  const std::vector<int64_t>& pairs() const { return pairs_; }
  const std::vector<std::pair<Record, Record>>& captured() const {
    return captured_;
  }

 private:
  MatchOracle& inner_;
  size_t capture_;
  bool setup_only_;
  double first_start_ = 0;
  double last_end_ = 0;
  double busy_ = 0;
  int64_t quarantined_ = 0;
  std::vector<double> seconds_;
  std::vector<int64_t> pairs_;
  std::vector<std::pair<Record, Record>> captured_;
};

/// The backend settings cli::RunLinkageFromFiles derives from a spec with no
/// CLI overrides (spec `threads`/`smc_threads` 0 = the machine's cores).
net::BackendOptions BackendFromSpec(const cli::LinkageSpec& spec,
                                    const MatchRule& rule,
                                    const std::string& parties,
                                    int hw_threads) {
  net::BackendOptions b;
  b.config.key_bits = spec.key_bits;
  b.config.max_retries = spec.smc_retries;
  b.config.pack_pairs = spec.smc_pack;
  b.config.pack_slot_bits = spec.smc_pack_slot_bits;
  b.config.test_seed = spec.smc_seed;
  b.config.material_dir = spec.material_dir;
  b.config.offline_pairs = spec.offline_pairs;
  b.rule = rule;
  b.smc_threads = spec.smc_threads > 0 ? spec.smc_threads : hw_threads;
  if (!parties.empty()) {
    b.transport = "tcp";
    b.tcp_endpoints = parties;
  }
  b.shards = spec.shards;
  b.rpc_batch_pairs = spec.rpc_batch;
  b.rpc_window = spec.rpc_window;
  b.hb_interval_ms = spec.hb_interval_ms;
  b.membership.suspect_after_misses = spec.suspect_misses;
  b.membership.dead_after_misses = spec.dead_misses;
  return b;
}

// ---------------------------------------------------------------------------
// Party replay: the first pairs of the run's SMC order through
// smc::DataHolder / smc::QueryingParty over an in-process MessageBus, timing
// each party's call. Encoding and thresholds follow the §V-A comparator:
// categorical values by index with threshold 0, numeric values in fixed
// point (scale 1000) against (θ·norm·scale)².

struct ReplayResult {
  int64_t pairs = 0;
  bool packed = false;
  double alice_s = 0;
  double bob_s = 0;
  double qp_s = 0;
  double encrypt_ms = 0;
  double decrypt_ms = 0;
  double scalar_mul_ms = 0;
};

constexpr int64_t kFpScale = 1000;
// SMC pairs a traced run keeps for the replay.
constexpr size_t kReplayPairs = 48;

struct ActiveAttr {
  int index = 0;
  bool numeric = false;
  int64_t threshold = 0;
};

std::vector<ActiveAttr> ActiveAttrs(const MatchRule& rule) {
  std::vector<ActiveAttr> out;
  for (const AttrRule& r : rule.attrs) {
    if (r.type == AttrType::kCategorical && r.theta >= 1.0) continue;
    ActiveAttr a;
    a.index = r.attr_index;
    a.numeric = r.type == AttrType::kNumeric;
    if (a.numeric) {
      const double t = r.theta * r.norm * static_cast<double>(kFpScale);
      a.threshold = static_cast<int64_t>(std::floor(t * t + 1e-9));
    }
    out.push_back(a);
  }
  return out;
}

int64_t EncodeValue(const Value& v, const ActiveAttr& a) {
  return a.numeric ? static_cast<int64_t>(std::llround(v.num() * kFpScale))
                   : static_cast<int64_t>(v.category());
}

double MedianMs(std::vector<double> seconds) {
  if (seconds.empty()) return 0;
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2] * 1e3;
}

Result<ReplayResult> ReplayParties(
    const cli::LinkageSpec& spec, const MatchRule& rule,
    const std::vector<std::pair<Record, Record>>& pairs, uint64_t seed) {
  ReplayResult out;
  const std::vector<ActiveAttr> attrs = ActiveAttrs(rule);
  if (pairs.empty() || attrs.empty()) return out;
  for (const AttrRule& r : rule.attrs) {
    if (r.type == AttrType::kText) {
      return Status::Unimplemented("text attributes have no SMC replay");
    }
  }
  crypto::SecureRandom key_rng(seed);
  auto kp = crypto::GeneratePaillierKeyPair(spec.key_bits, key_rng);
  if (!kp.ok()) return kp.status();

  smc::ProtocolParams params;
  params.key_bits = spec.key_bits;
  params.fp_scale = kFpScale;
  smc::MessageBus bus;
  smc::SmcCosts costs;
  smc::QueryingParty qp(params, seed ^ 0x9999);
  smc::DataHolder alice("alice", params, seed ^ 0xA11CE);
  smc::DataHolder bob("bob", params, seed ^ 0xB0B);
  HPRL_RETURN_IF_ERROR(qp.PublishKeyPair(*kp, &bus, &costs));
  HPRL_RETURN_IF_ERROR(alice.ReceiveKey(&bus));
  HPRL_RETURN_IF_ERROR(bob.ReceiveKey(&bus));
  // A prewarmed pool: the replay times the online path, as the run's own
  // prewarm and background filler intend it.
  crypto::RandomizerPool pool(kp->pub, 64, seed ^ 0x5EED);
  pool.Prewarm(static_cast<int>(pairs.size() * attrs.size() * 3));
  alice.AttachRandomizerPool(&pool);
  bob.AttachRandomizerPool(&pool);

  const int active = static_cast<int>(attrs.size());
  auto layout =
      crypto::PackingLayout::Plan(spec.key_bits, spec.smc_pack_slot_bits);
  int group = 0;
  if (spec.smc_pack > 0 && layout.ok()) {
    group = std::min(spec.smc_pack, layout->num_slots / active);
  }
  out.packed = group > 0;

  // Operands shaped like the run's: Bob's fold exponent is y (scalar) or
  // y·W_slot (packed); Alice encrypts -2x per attribute.
  std::vector<crypto::BigInt> enc_operands, mul_exponents;

  if (!out.packed) {
    for (const auto& [a, b] : pairs) {
      bool match = true;
      for (const ActiveAttr& attr : attrs) {
        const int64_t xv = EncodeValue(a[attr.index], attr);
        const int64_t yv = EncodeValue(b[attr.index], attr);
        crypto::BigInt x(xv), y(yv), thr(attr.threshold);
        if (enc_operands.size() < 32) {
          enc_operands.emplace_back(-2 * xv);
          mul_exponents.emplace_back(yv);
        }
        const double t0 = Now();
        HPRL_RETURN_IF_ERROR(alice.SendAttr(&bus, "bob", x, -1, &costs));
        const double t1 = Now();
        HPRL_RETURN_IF_ERROR(bob.FoldAndForward(&bus, y, thr, -1, &costs));
        const double t2 = Now();
        auto within = qp.DecideAttr(&bus, thr, &costs);
        const double t3 = Now();
        if (!within.ok()) return within.status();
        out.alice_s += t1 - t0;
        out.bob_s += t2 - t1;
        out.qp_s += t3 - t2;
        if (!*within) {
          match = false;
          break;
        }
      }
      HPRL_RETURN_IF_ERROR(qp.AnnounceResult(&bus, match));
      HPRL_RETURN_IF_ERROR(alice.ReceiveResult(&bus).status());
      HPRL_RETURN_IF_ERROR(bob.ReceiveResult(&bus).status());
      ++out.pairs;
    }
  } else {
    crypto::BigIntArena arena(static_cast<size_t>(spec.key_bits) * 4 + 128);
    qp.AttachArena(&arena);
    alice.AttachArena(&arena);
    bob.AttachArena(&arena);
    for (size_t first = 0; first < pairs.size();
         first += static_cast<size_t>(group)) {
      const size_t last =
          std::min(pairs.size(), first + static_cast<size_t>(group));
      std::vector<crypto::BigInt> xs, ys, thresholds;
      int64_t in_group = 0;
      for (size_t p = first; p < last; ++p) {
        std::vector<int64_t> pxs, pys;
        bool packable = true;
        for (const ActiveAttr& attr : attrs) {
          const int64_t xv = EncodeValue(pairs[p].first[attr.index], attr);
          const int64_t yv = EncodeValue(pairs[p].second[attr.index], attr);
          // Carry safety as in the comparator: (|x| + |y|)² fits a slot.
          const unsigned __int128 mag =
              static_cast<unsigned __int128>(std::llabs(xv)) +
              static_cast<unsigned __int128>(std::llabs(yv));
          const unsigned __int128 sq = mag * mag;
          if (layout->slot_bits < 128 &&
              (sq >> layout->slot_bits) != 0) {
            packable = false;
            break;
          }
          pxs.push_back(xv);
          pys.push_back(yv);
        }
        if (!packable) continue;
        for (size_t i = 0; i < pxs.size(); ++i) {
          const size_t slot = xs.size();
          xs.emplace_back(pxs[i]);
          ys.emplace_back(pys[i]);
          thresholds.emplace_back(attrs[i].threshold);
          if (enc_operands.size() < 32) {
            enc_operands.emplace_back(-2 * pxs[i]);
            mul_exponents.push_back(crypto::BigInt(pys[i]) *
                                    layout->SlotWeight(slot));
          }
        }
        ++in_group;
      }
      if (in_group == 0) continue;
      arena.Reset();
      const double t0 = Now();
      HPRL_RETURN_IF_ERROR(
          alice.SendAttrsPacked(&bus, "bob", xs, *layout, &costs));
      const double t1 = Now();
      HPRL_RETURN_IF_ERROR(
          bob.FoldAndForwardPacked(&bus, ys, *layout, &costs));
      const double t2 = Now();
      auto within = qp.DecideAttrsPacked(&bus, thresholds, *layout, &costs);
      const double t3 = Now();
      if (!within.ok()) return within.status();
      out.alice_s += t1 - t0;
      out.bob_s += t2 - t1;
      out.qp_s += t3 - t2;
      std::vector<uint8_t> labels;
      size_t slot = 0;
      for (int64_t g = 0; g < in_group; ++g) {
        bool match = true;
        for (int i = 0; i < active; ++i, ++slot) {
          match = match && (*within)[slot];
        }
        labels.push_back(match ? 1 : 0);
      }
      HPRL_RETURN_IF_ERROR(qp.AnnounceResults(&bus, labels));
      HPRL_RETURN_IF_ERROR(
          alice.ReceiveResults(&bus, labels.size()).status());
      HPRL_RETURN_IF_ERROR(bob.ReceiveResults(&bus, labels.size()).status());
      out.pairs += in_group;
    }
  }

  // Single-operation costs on the same key, without the pool: the full
  // price of each primitive.
  crypto::SecureRandom op_rng(seed ^ 0xC0DE);
  std::vector<double> enc_s, mul_s, dec_s;
  crypto::BigInt c;
  for (size_t i = 0; i < enc_operands.size(); ++i) {
    double t0 = Now();
    auto ct = kp->pub.EncryptSigned(enc_operands[i], op_rng);
    enc_s.push_back(Now() - t0);
    if (!ct.ok()) return ct.status();
    t0 = Now();
    c = kp->pub.ScalarMul(*ct, mul_exponents[i]);
    mul_s.push_back(Now() - t0);
    t0 = Now();
    auto m = kp->priv.Decrypt(c);
    dec_s.push_back(Now() - t0);
    if (!m.ok()) return m.status();
  }
  out.encrypt_ms = MedianMs(enc_s);
  out.scalar_mul_ms = MedianMs(mul_s);
  out.decrypt_ms = MedianMs(dec_s);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Output {
  std::string mode;
  double t_ready = 0;  // serve: service constructed, first delta may go
  double t_done = 0;
  double t_online_end = 0;
  int64_t smc_pairs = 0;
  int64_t quarantined = 0;
  int64_t smc_workers = 1;
  bool tcp = false;
  int64_t wire_bytes_sent = 0;
  int64_t sequences = 0;
  int64_t unknown_pairs = 0;
  // serve
  int64_t deltas = 0;
  int64_t rejected = 0;
  std::vector<double> due, sent, done, delta_oracle_s;
  std::vector<int64_t> delta_smc_pairs;
  bool have_replay = false;
  ReplayResult replay;
};

void WriteOutput(const Output& o, const TimedOracle& oracle,
                 const Tracer& tracer, const std::string& path) {
  std::ofstream f(path);
  obs::JsonWriter w(&f);
  auto num = [&](const char* key, double v) {
    w.Key(key);
    w.Double(v);
  };
  auto integer = [&](const char* key, int64_t v) {
    w.Key(key);
    w.Int(v);
  };
  auto doubles = [&](const char* key, const std::vector<double>& v) {
    w.Key(key);
    w.BeginArray();
    for (double x : v) w.Double(x);
    w.EndArray();
  };
  w.BeginObject();
  w.Key("mode");
  w.String(o.mode);
  num("t_ready", o.t_ready);
  num("t_first_pair", oracle.first_start());
  num("t_online_end", o.t_online_end);
  num("t_done", o.t_done);
  integer("smc_pairs", o.smc_pairs);
  integer("quarantined", o.quarantined);
  integer("smc_workers", o.smc_workers);
  w.Key("tcp");
  w.Bool(o.tcp);
  integer("wire_bytes_sent", o.wire_bytes_sent);
  integer("sequences", o.sequences);
  integer("unknown_pairs", o.unknown_pairs);
  num("oracle_busy_s", oracle.busy());
  doubles("batch_s", oracle.seconds());
  w.Key("batch_pairs");
  w.BeginArray();
  for (int64_t p : oracle.pairs()) w.Int(p);
  w.EndArray();
  if (o.mode == "serve") {
    integer("deltas", o.deltas);
    integer("rejected", o.rejected);
    doubles("due", o.due);
    doubles("sent", o.sent);
    doubles("done", o.done);
    doubles("delta_oracle_s", o.delta_oracle_s);
    w.Key("delta_smc_pairs");
    w.BeginArray();
    for (int64_t p : o.delta_smc_pairs) w.Int(p);
    w.EndArray();
  }
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : tracer.spans()) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    num("start", s.start);
    num("end", s.end);
    w.EndObject();
  }
  w.EndArray();
  if (o.have_replay) {
    w.Key("replay");
    w.BeginObject();
    integer("pairs", o.replay.pairs);
    w.Key("packed");
    w.Bool(o.replay.packed);
    num("alice_s", o.replay.alice_s);
    num("bob_s", o.replay.bob_s);
    num("qp_s", o.replay.qp_s);
    num("encrypt_ms", o.replay.encrypt_ms);
    num("decrypt_ms", o.replay.decrypt_ms);
    num("scalar_mul_ms", o.replay.scalar_mul_ms);
    w.EndObject();
  }
  w.EndObject();
  f << '\n';
}

Status WriteReport(const obs::MetricsRegistry& registry,
                   const std::string& path) {
  if (path.empty()) return Status::OK();
  obs::RunReport run;
  run.tool = "perfbench_driver";
  run.registry = &registry;
  return obs::WriteRunReport(run, path);
}

struct Options {
  std::string mode, spec, r, s, deltas, links, out, report_out, parties;
  double rate = 100;
  int64_t warmup = 0;
  bool trace = false;
  bool setup_only = false;
};

int hw_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Batch linkage.

Status RunLink(const Options& opt, Output* out) {
  Tracer tracer(opt.trace);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = opt.trace ? &registry : nullptr;

  int span = tracer.Begin("data.load");
  auto spec = cli::LoadLinkageSpec(opt.spec);
  if (!spec.ok()) return spec.status();
  auto raw_r = ReadCsvRaw(opt.r);
  if (!raw_r.ok()) return raw_r.status();
  auto raw_s = ReadCsvRaw(opt.s);
  if (!raw_s.ok()) return raw_s.status();
  auto plan = cli::BuildPlan(*spec, &*raw_r, &*raw_s);
  if (!plan.ok()) return plan.status();
  auto table_r = cli::Typed(*raw_r, *plan, "R");
  if (!table_r.ok()) return table_r.status();
  auto table_s = cli::Typed(*raw_s, *plan, "S");
  if (!table_s.ok()) return table_s.status();
  tracer.End(span);

  span = tracer.Begin("anon.anonymize");
  plan->anon_cfg.metrics = metrics;
  auto anonymizer = MakeAnonymizerByName(spec->anonymizer, plan->anon_cfg);
  if (!anonymizer.ok()) return anonymizer.status();
  auto anon_r = (*anonymizer)->Anonymize(*table_r);
  if (!anon_r.ok()) return anon_r.status();
  auto anon_s = (*anonymizer)->Anonymize(*table_s);
  if (!anon_s.ok()) return anon_s.status();
  tracer.End(span);

  HybridConfig hc;
  hc.rule = plan->rule;
  hc.smc_allowance_fraction = spec->allowance;
  hc.heuristic = spec->heuristic;
  hc.collect_matches = true;
  hc.blocking_threads = spec->threads > 0 ? spec->threads : hw_threads();

  const bool tcp = !opt.parties.empty();
  span = tracer.Begin(tcp ? "net.create" : "crypto.create");
  auto backend = net::SmcBackend::Create(
      BackendFromSpec(*spec, plan->rule, opt.parties, hw_threads()));
  if (!backend.ok()) return backend.status();
  tracer.End(span);
  net::SmcBackend& be = **backend;
  be.AttachMetrics(metrics);
  span = tracer.Begin(tcp ? "net.init" : "crypto.init");
  HPRL_RETURN_IF_ERROR(be.Init());
  tracer.End(span);

  TimedOracle oracle(be.oracle(),
                     opt.trace && spec->key_bits > 0 ? kReplayPairs : 0,
                     opt.setup_only);
  LinkageSession session;
  session.WithTables(*table_r, *table_s)
      .WithReleases(*anon_r, *anon_s)
      .WithConfig(hc)
      .WithMetrics(metrics)
      .WithOracle(oracle);
  span = tracer.Begin("linkage.session");
  Result<HybridResult> result = session.Run();
  tracer.End(span);
  out->t_online_end = oracle.last_end();

  span = tracer.Begin("backend.shutdown");
  if (tcp) {
    be.AttachMetrics(metrics);
    Status shut = be.Shutdown(/*stop_daemons=*/true);
    if (result.ok() && !shut.ok()) return shut;
    out->wire_bytes_sent = be.mesh_stats().wire_bytes_sent;
  }
  tracer.End(span);
  if (opt.setup_only && oracle.first_start() > 0) {
    WriteOutput(*out, oracle, tracer, opt.out);
    return Status::OK();
  }
  if (!result.ok()) return result.status();

  span = tracer.Begin("data.write_links");
  {
    std::ofstream f(opt.links);
    if (!f.is_open()) return Status::IOError("cannot write " + opt.links);
    f << "row_r,row_s\n";
    for (const auto& [rr, sr] : result->matched_row_pairs) {
      f << rr << ',' << sr << '\n';
    }
    if (!f.good()) return Status::IOError("write failed: " + opt.links);
  }
  tracer.End(span);
  out->t_done = Now();

  out->tcp = tcp;
  out->smc_pairs = result->smc_processed;
  out->quarantined = result->quarantined_pairs;
  out->sequences = result->sequences_r + result->sequences_s;
  out->unknown_pairs = result->unknown_pairs;
  out->smc_workers =
      tcp ? 1 : (spec->smc_threads > 0 ? spec->smc_threads : hw_threads());

  if (opt.trace && spec->key_bits > 0) {
    auto replay = ReplayParties(*spec, plan->rule, oracle.captured(),
                                spec->smc_seed + 1);
    if (!replay.ok()) return replay.status();
    out->have_replay = true;
    out->replay = *replay;
  }
  if (opt.trace) HPRL_RETURN_IF_ERROR(WriteReport(registry, opt.report_out));
  WriteOutput(*out, oracle, tracer, opt.out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Streaming service, open loop.

/// The delta CSV format of cli::RunServeFromFiles, whose parser is private
/// to serve_runner.cc: op,tenant,side,row_id,<QID columns>.
Result<std::vector<serve::RecordDelta>> ParseDeltas(const RawCsv& raw,
                                                    const cli::Plan& plan) {
  const Schema& schema = *plan.schema;
  const int col_op = raw.FindColumn("op");
  const int col_tenant = raw.FindColumn("tenant");
  const int col_side = raw.FindColumn("side");
  const int col_row = raw.FindColumn("row_id");
  if (col_op < 0 || col_tenant < 0 || col_side < 0 || col_row < 0) {
    return Status::NotFound("delta file needs op, tenant, side, row_id");
  }
  std::vector<int> attr_col(static_cast<size_t>(schema.num_attributes()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    attr_col[static_cast<size_t>(i)] =
        raw.FindColumn(schema.attribute(i).name);
    if (attr_col[static_cast<size_t>(i)] < 0) {
      return Status::NotFound("delta column missing: " +
                              schema.attribute(i).name);
    }
  }
  std::vector<serve::RecordDelta> deltas;
  deltas.reserve(raw.rows.size());
  for (size_t r = 0; r < raw.rows.size(); ++r) {
    const auto& row = raw.rows[r];
    const std::string where = "delta row " + std::to_string(r + 1);
    serve::RecordDelta d;
    const std::string& op = row[static_cast<size_t>(col_op)];
    if (op == "insert" || op == "update") {
      d.op = serve::DeltaOp::kUpsert;
    } else if (op == "delete") {
      d.op = serve::DeltaOp::kErase;
    } else {
      return Status::InvalidArgument(where + ": bad op '" + op + "'");
    }
    const std::string& side = row[static_cast<size_t>(col_side)];
    if (side != "r" && side != "s") {
      return Status::InvalidArgument(where + ": bad side '" + side + "'");
    }
    d.side = side == "r" ? serve::Side::kR : serve::Side::kS;
    d.tenant = row[static_cast<size_t>(col_tenant)];
    d.row_id = std::atoll(row[static_cast<size_t>(col_row)].c_str());
    if (d.op == serve::DeltaOp::kUpsert) {
      Record rec(static_cast<size_t>(schema.num_attributes()));
      for (int i = 0; i < schema.num_attributes(); ++i) {
        auto v = cli::TypedField(
            row[static_cast<size_t>(attr_col[static_cast<size_t>(i)])], plan,
            i, where);
        if (!v.ok()) return v.status();
        rec[static_cast<size_t>(i)] = std::move(v).value();
      }
      d.record = std::move(rec);
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

Status RunServe(const Options& opt, Output* out) {
  Tracer tracer(opt.trace);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = opt.trace ? &registry : nullptr;

  int span = tracer.Begin("data.load");
  auto spec = cli::LoadLinkageSpec(opt.spec);
  if (!spec.ok()) return spec.status();
  auto raw = ReadCsvRaw(opt.deltas);
  if (!raw.ok()) return raw.status();
  auto plan = cli::BuildPlan(*spec);
  if (!plan.ok()) return plan.status();
  auto deltas = ParseDeltas(*raw, *plan);
  if (!deltas.ok()) return deltas.status();
  tracer.End(span);

  const bool tcp = !opt.parties.empty();
  span = tracer.Begin(tcp ? "net.create" : "crypto.create");
  auto backend = net::SmcBackend::Create(
      BackendFromSpec(*spec, plan->rule, opt.parties, hw_threads()));
  if (!backend.ok()) return backend.status();
  tracer.End(span);
  net::SmcBackend& be = **backend;
  be.AttachMetrics(metrics);
  span = tracer.Begin(tcp ? "net.init" : "crypto.init");
  HPRL_RETURN_IF_ERROR(be.Init());
  tracer.End(span);

  TimedOracle oracle(be.oracle(),
                     opt.trace && spec->key_bits > 0 ? kReplayPairs : 0,
                     opt.setup_only);
  serve::ServiceOptions sopts;
  sopts.rule = plan->rule;
  sopts.hierarchies = plan->hierarchies;
  sopts.gen_level = spec->serve_gen_level;
  sopts.tenant_allowance = spec->serve_allowance;
  sopts.max_queued = spec->serve_queue;
  sopts.smc_batch_pairs = spec->rpc_batch;
  serve::LinkageService svc(sopts, &oracle, metrics);

  auto count = [out](const serve::ApplyResult& r) {
    out->quarantined += r.quarantined;
    switch (r.status) {
      case serve::DeltaStatus::kApplied:
      case serve::DeltaStatus::kQueued:
        break;
      case serve::DeltaStatus::kRejectedAllowance:
      case serve::DeltaStatus::kRejectedQueue:
        ++out->rejected;
        break;
    }
  };
  out->t_ready = Now();
  const size_t n = opt.setup_only ? 0 : deltas->size();
  const size_t first =
      std::min(n, static_cast<size_t>(std::max<int64_t>(0, opt.warmup)));
  span = tracer.Begin("serve.warmup");
  for (size_t i = 0; i < first; ++i) {
    auto r = svc.Apply((*deltas)[i]);
    if (!r.ok()) return r.status();
    out->smc_pairs += r->smc_pairs;
    count(*r);
  }
  tracer.End(span);

  out->deltas = static_cast<int64_t>(n);
  out->due.reserve(n - first);
  out->sent.reserve(n - first);
  out->done.reserve(n - first);
  span = tracer.Begin("serve.stream");
  const double start = Now();
  for (size_t i = first; i < n; ++i) {
    const double due = start + static_cast<double>(i - first) / opt.rate;
    // Spin rather than sleep until the delta is due, so the driver's core
    // never idles between deltas. Over four seeds run alternately on a
    // shared 4-vCPU VM, sleeping spread pairs/s 0.23 and p50 0.24, spinning
    // 0.05 and 0.08.
    while (Now() < due) std::this_thread::yield();
    const double busy_before = oracle.busy();
    const double sent = Now();
    auto r = svc.Apply((*deltas)[i]);
    const double done = Now();
    if (!r.ok()) return r.status();
    out->due.push_back(due);
    out->sent.push_back(sent);
    out->done.push_back(done);
    out->delta_oracle_s.push_back(oracle.busy() - busy_before);
    out->delta_smc_pairs.push_back(r->smc_pairs);
    out->smc_pairs += r->smc_pairs;
    count(*r);
  }
  tracer.End(span);
  out->t_online_end = Now();

  span = tracer.Begin("backend.shutdown");
  HPRL_RETURN_IF_ERROR(oracle.DrainResidentRows());
  if (tcp) {
    be.AttachMetrics(metrics);
    HPRL_RETURN_IF_ERROR(be.Shutdown(/*stop_daemons=*/true));
    out->wire_bytes_sent = be.mesh_stats().wire_bytes_sent;
  }
  tracer.End(span);

  if (opt.setup_only) {
    WriteOutput(*out, oracle, tracer, opt.out);
    return Status::OK();
  }
  span = tracer.Begin("data.write_links");
  {
    std::ofstream f(opt.links);
    if (!f.is_open()) return Status::IOError("cannot write " + opt.links);
    f << "tenant,row_r,row_s\n";
    for (const serve::TenantSnapshot& t : svc.Snapshot()) {
      for (const auto& [rr, sr] : t.links) {
        f << t.name << ',' << rr << ',' << sr << '\n';
      }
    }
    if (!f.good()) return Status::IOError("write failed: " + opt.links);
  }
  tracer.End(span);
  out->t_done = Now();
  out->tcp = tcp;
  out->smc_workers =
      tcp ? 1 : (spec->smc_threads > 0 ? spec->smc_threads : hw_threads());

  if (opt.trace && spec->key_bits > 0) {
    auto replay = ReplayParties(*spec, plan->rule, oracle.captured(),
                                spec->smc_seed + 1);
    if (!replay.ok()) return replay.status();
    out->have_replay = true;
    out->replay = *replay;
  }
  if (opt.trace) HPRL_RETURN_IF_ERROR(WriteReport(registry, opt.report_out));
  WriteOutput(*out, oracle, tracer, opt.out);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Output out;
  FlagSet flags;
  Options opt;
  std::string* mode = flags.AddString("mode", "link", "link or serve");
  std::string* spec = flags.AddString("spec", "", "linkage spec");
  std::string* r = flags.AddString("r", "", "R side CSV (link)");
  std::string* s = flags.AddString("s", "", "S side CSV (link)");
  std::string* deltas = flags.AddString("deltas", "", "delta CSV (serve)");
  double* rate = flags.AddDouble("rate", 100, "serve: offered deltas/s");
  int64_t* warmup = flags.AddInt(
      "warmup", 0, "serve: deltas applied back to back before the open loop");
  std::string* links = flags.AddString("links", "", "links CSV to write");
  std::string* out_path = flags.AddString("out", "", "run JSON to write");
  std::string* report_out = flags.AddString(
      "report_out", "", "trace: registry report (hprl-run-report/1)");
  std::string* parties = flags.AddString(
      "parties", "", "TCP: running hprl_party endpoints alice,bob,qp");
  bool* trace = flags.AddBool("trace", false, "record spans and counters");
  bool* setup_only = flags.AddBool(
      "setup_only", false, "stop where the first pair would be labeled");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kNotFound) return 0;  // --help
  if (!st.ok() || spec->empty() || links->empty() || out_path->empty() ||
      !(*rate > 0)) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  opt.mode = *mode;
  opt.spec = *spec;
  opt.r = *r;
  opt.s = *s;
  opt.deltas = *deltas;
  opt.rate = *rate;
  opt.warmup = *warmup;
  opt.links = *links;
  opt.out = *out_path;
  opt.report_out = *report_out;
  opt.parties = *parties;
  opt.trace = *trace;
  opt.setup_only = *setup_only;
  out.mode = opt.mode;

  Status run = opt.mode == "serve" ? RunServe(opt, &out)
               : opt.mode == "link"
                   ? RunLink(opt, &out)
                   : Status::InvalidArgument("--mode must be link or serve");
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n", run.ToString().c_str());
    return 1;
  }
  return 0;
}

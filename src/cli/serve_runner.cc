#include "cli/serve_runner.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cli/plan.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/journal.h"
#include "data/csv.h"
#include "net/backend.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/service.h"

namespace hprl::cli {

namespace {

/// SplitMix64 finalizer (same fold as the session journal's fingerprint).
uint64_t MixFp(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d), "double is not 64-bit");
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Binds a serve journal to one (config, delta stream) pair: the stream's
/// raw bytes plus every knob that influences admission or labeling. A
/// journal never replays against a different stream or rule.
uint64_t ServeFingerprint(const LinkageSpec& spec, const Plan& plan,
                          const std::string& delta_bytes, int gen_level,
                          int64_t allowance, int64_t max_queued) {
  uint64_t h = Fnv1a(delta_bytes);
  for (const AttrRule& rule : plan.rule.attrs) {
    h = MixFp(h, static_cast<uint64_t>(rule.attr_index));
    h = MixFp(h, static_cast<uint64_t>(rule.type));
    h = MixFp(h, DoubleBits(rule.theta));
    h = MixFp(h, DoubleBits(rule.norm));
  }
  h = MixFp(h, static_cast<uint64_t>(gen_level));
  h = MixFp(h, static_cast<uint64_t>(allowance));
  h = MixFp(h, static_cast<uint64_t>(max_queued));
  h = MixFp(h, static_cast<uint64_t>(spec.key_bits));
  h = MixFp(h, spec.smc_seed);
  return h;
}

Result<std::vector<serve::RecordDelta>> ParseDeltas(const RawCsv& raw,
                                                    const Plan& plan) {
  const Schema& schema = *plan.schema;
  const int col_op = raw.FindColumn("op");
  const int col_tenant = raw.FindColumn("tenant");
  const int col_side = raw.FindColumn("side");
  const int col_row = raw.FindColumn("row_id");
  if (col_op < 0 || col_tenant < 0 || col_side < 0 || col_row < 0) {
    return Status::NotFound(
        "delta file needs op, tenant, side and row_id columns");
  }
  std::vector<int> attr_col(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    attr_col[i] = raw.FindColumn(schema.attribute(i).name);
    if (attr_col[i] < 0) {
      return Status::NotFound("delta file: column missing: " +
                              schema.attribute(i).name);
    }
  }

  std::vector<serve::RecordDelta> deltas;
  deltas.reserve(raw.rows.size());
  for (size_t r = 0; r < raw.rows.size(); ++r) {
    auto err = [&](const std::string& msg) {
      return Status::InvalidArgument(
          StrFormat("delta row %zu: %s", r + 1, msg.c_str()));
    };
    const auto& row = raw.rows[r];
    serve::RecordDelta d;
    const std::string& op = row[col_op];
    if (op == "insert" || op == "update") {
      d.op = serve::DeltaOp::kUpsert;
    } else if (op == "delete") {
      d.op = serve::DeltaOp::kErase;
    } else {
      return err("op must be insert, update or delete (got '" + op + "')");
    }
    const std::string& side = row[col_side];
    if (side == "r" || side == "R" || side == "0") {
      d.side = serve::Side::kR;
    } else if (side == "s" || side == "S" || side == "1") {
      d.side = serve::Side::kS;
    } else {
      return err("side must be r or s (got '" + side + "')");
    }
    d.tenant = row[col_tenant];
    if (d.tenant.empty()) return err("empty tenant id");
    auto row_id = ParseInt(row[col_row]);
    if (!row_id.ok() || *row_id < 0) {
      return err("bad row_id '" + row[col_row] + "'");
    }
    d.row_id = *row_id;
    if (d.op == serve::DeltaOp::kUpsert) {
      Record rec(schema.num_attributes());
      for (int i = 0; i < schema.num_attributes(); ++i) {
        auto v = TypedField(row[attr_col[i]], plan, i,
                            StrFormat("delta row %zu", r + 1));
        if (!v.ok()) return v.status();
        rec[i] = std::move(v).value();
      }
      d.record = std::move(rec);
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

ServeJournal MakeJournal(uint64_t fingerprint, uint64_t epoch,
                         const serve::LinkageService& svc,
                         int64_t quarantined_total) {
  ServeJournal j;
  j.fingerprint = fingerprint;
  j.epoch = epoch;
  j.settled_deltas = svc.settled_deltas();
  j.quarantined = quarantined_total;
  for (const serve::TenantSnapshot& t : svc.Snapshot()) {
    ServeTenantState ts;
    ts.name = t.name;
    ts.allowance_remaining = t.allowance_remaining;
    ts.smc_pairs_spent = t.smc_pairs_spent;
    ts.links = t.links;
    j.tenants.push_back(std::move(ts));
  }
  return j;
}

/// The journal is the ground truth a resumed run must reproduce; any drift
/// between it and the replayed state means the replay is NOT the run that
/// crashed, and continuing would settle different verdicts.
Status CrossCheckReplay(const serve::LinkageService& svc,
                        const ServeJournal& prior) {
  std::vector<serve::TenantSnapshot> snaps = svc.Snapshot();
  if (snaps.size() != prior.tenants.size()) {
    return Status::FailedPrecondition(
        "serve replay diverged: tenant set does not match the journal");
  }
  for (size_t i = 0; i < snaps.size(); ++i) {
    const serve::TenantSnapshot& s = snaps[i];
    const ServeTenantState& j = prior.tenants[i];  // both name-sorted
    if (s.name != j.name || s.allowance_remaining != j.allowance_remaining ||
        s.smc_pairs_spent != j.smc_pairs_spent || s.links != j.links) {
      return Status::FailedPrecondition(
          "serve replay diverged from the journal on tenant '" + s.name +
          "'");
    }
  }
  return Status::OK();
}

Status WriteServeLinksCsv(const std::string& path,
                          const serve::LinkageService& svc) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot open for write: " + path);
  out << "tenant,row_r,row_s\n";
  for (const serve::TenantSnapshot& t : svc.Snapshot()) {
    for (const auto& [rr, sr] : t.links) {
      out << t.name << ',' << rr << ',' << sr << '\n';
    }
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

/// Exact order statistic, matching obs::Histogram::Summarize's convention.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return samples[rank - 1];
}

}  // namespace

std::string ServeReport::ToString() const {
  std::string out = StrFormat(
      "HPRL_SERVE summary: deltas=%lld replayed=%lld applied=%lld "
      "queued=%lld rejected=%lld links=%lld smc_pairs=%lld "
      "replayed_smc=%lld quarantined=%lld epoch=%llu "
      "pairs_per_sec=%.3f p99_delta_seconds=%.9f\n",
      static_cast<long long>(deltas), static_cast<long long>(replayed_deltas),
      static_cast<long long>(applied), static_cast<long long>(queued),
      static_cast<long long>(rejected), static_cast<long long>(links),
      static_cast<long long>(smc_pairs),
      static_cast<long long>(replayed_smc),
      static_cast<long long>(quarantined),
      static_cast<unsigned long long>(epoch), pairs_per_sec,
      p99_delta_seconds);
  out += StrFormat("oracle: %s\n", oracle.c_str());
  if (seconds > 0) {
    out += StrFormat(
        "streaming: %.3fs over the live deltas, %.0f blocked pairs/s "
        "sustained, p99 delta-to-verdict %.6fs\n",
        seconds, pairs_per_sec, p99_delta_seconds);
  }
  return out;
}

Result<ServeReport> RunServeFromFiles(const LinkageSpec& spec,
                                      const std::string& deltas_path,
                                      const ServeRunnerOptions& options) {
  // The stream's raw bytes feed the journal fingerprint; the parsed rows
  // feed the service. Reading the bytes first keeps the two views of the
  // file consistent even if it changes between opens (the parse re-reads,
  // but a mismatch then fails typing or the fingerprint check, never both
  // silently passing).
  std::ifstream in(deltas_path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open deltas: " + deltas_path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string delta_bytes = buf.str();

  auto raw = ReadCsvRaw(deltas_path);
  if (!raw.ok()) return raw.status();
  auto plan = BuildPlan(spec);
  if (!plan.ok()) return plan.status();
  auto deltas = ParseDeltas(*raw, *plan);
  if (!deltas.ok()) return deltas.status();

  const int64_t allowance = options.tenant_allowance_override >= 0
                                ? options.tenant_allowance_override
                                : spec.serve_allowance;
  const int64_t max_queued = options.max_queued_override >= 0
                                 ? options.max_queued_override
                                 : spec.serve_queue;
  const int gen_level = options.gen_level_override >= 0
                            ? options.gen_level_override
                            : spec.serve_gen_level;
  const uint64_t fingerprint = ServeFingerprint(
      spec, *plan, delta_bytes, gen_level, allowance, max_queued);

  // Journal: the resume position and the replay oracle. Same strictness
  // rules as the batch runner's session journal.
  ServeJournal prior;
  bool have_prior = false;
  uint64_t epoch = 1;
  if (options.resume && options.journal.empty()) {
    return Status::InvalidArgument("--resume requires --journal=<path>");
  }
  if (!options.journal.empty()) {
    auto loaded = LoadServeJournal(options.journal);
    if (loaded.ok()) {
      if (loaded->fingerprint != fingerprint) {
        return Status::FailedPrecondition(
            "serve journal was written by a different config or delta "
            "stream: " + options.journal);
      }
      if (loaded->settled_deltas >
          static_cast<int64_t>(deltas->size())) {
        return Status::FailedPrecondition(
            "serve journal is ahead of the delta stream: " +
            options.journal);
      }
      prior = std::move(loaded).value();
      have_prior = true;
      epoch = prior.epoch + 1;
    } else if (loaded.status().code() == StatusCode::kNotFound) {
      if (options.resume) {
        return Status::InvalidArgument(
            "--resume requested but there is no serve journal at " +
            options.journal);
      }
    } else {
      return loaded.status();
    }
  }

  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : &local_registry;

  const int hw_threads = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  net::BackendOptions bopts;
  bopts.config = SmcConfigFromSpec(spec);
  bopts.rule = plan->rule;
  bopts.smc_threads = options.smc_threads_override > 0
                          ? options.smc_threads_override
                          : (spec.smc_threads > 0 ? spec.smc_threads
                                                  : hw_threads);
  bopts.transport = options.transport;
  bopts.tcp_endpoints = options.tcp_endpoints;
  bopts.party_binary = options.party_binary;
  bopts.shards = options.shards_override > 0 ? options.shards_override
                                             : spec.shards;
  bopts.rpc_batch_pairs = spec.rpc_batch;
  bopts.rpc_window = spec.rpc_window;
  bopts.hb_interval_ms = spec.hb_interval_ms;
  bopts.membership.suspect_after_misses = spec.suspect_misses;
  bopts.membership.dead_after_misses = spec.dead_misses;
  bopts.session_epoch = epoch;
  bopts.connect_timeout_ms = options.net_connect_timeout_ms;
  bopts.receive_timeout_ms = options.net_receive_timeout_ms;

  auto backend = net::SmcBackend::Create(std::move(bopts));
  if (!backend.ok()) return backend.status();
  net::SmcBackend& be = **backend;
  be.AttachMetrics(metrics);
  HPRL_RETURN_IF_ERROR(be.Init());
  const bool use_tcp = be.is_tcp();

  ServeReport report;
  report.deltas = static_cast<int64_t>(deltas->size());
  report.epoch = epoch;
  report.oracle = be.description();

  serve::ServiceOptions sopts;
  sopts.rule = plan->rule;
  sopts.hierarchies = plan->hierarchies;
  sopts.gen_level = gen_level;
  sopts.tenant_allowance = allowance;
  sopts.max_queued = max_queued;
  sopts.smc_batch_pairs = spec.rpc_batch;
  serve::LinkageService svc(sopts, &be.oracle(), metrics);

  int64_t quarantined_total = have_prior ? prior.quarantined : 0;

  // Crash replay: re-derive the settled prefix's state from the journaled
  // link sets (deterministic, no SMC spend), then verify it IS the state
  // the journal recorded before settling anything new.
  if (have_prior && prior.settled_deltas > 0) {
    std::map<std::string, std::set<serve::Link>> links;
    for (const ServeTenantState& t : prior.tenants) {
      links[t.name] = std::set<serve::Link>(t.links.begin(), t.links.end());
    }
    svc.BeginReplay(std::move(links));
    for (int64_t i = 0; i < prior.settled_deltas; ++i) {
      auto r = svc.Apply((*deltas)[static_cast<size_t>(i)]);
      if (!r.ok()) return r.status();
    }
    svc.EndReplay();
    HPRL_RETURN_IF_ERROR(CrossCheckReplay(svc, prior));
    report.replayed_deltas = prior.settled_deltas;
    report.replayed_smc = svc.replayed_smc_pairs();
  }

  // Live drain of the remaining deltas, journaling after every settle so a
  // crash at ANY point loses nothing: the delta either settled (journaled,
  // replayed on resume) or it did not (resumed run applies it live).
  const int64_t blocked_before =
      metrics->counter("serve.pairs_blocked")->value();
  std::vector<double> live_latencies;
  WallTimer live_timer;
  int64_t live_settled = 0;
  for (int64_t i = svc.settled_deltas();
       i < static_cast<int64_t>(deltas->size()); ++i) {
    auto r = svc.Apply((*deltas)[static_cast<size_t>(i)]);
    if (!r.ok()) return r.status();
    switch (r->status) {
      case serve::DeltaStatus::kApplied:
        ++report.applied;
        break;
      case serve::DeltaStatus::kQueued:
        ++report.queued;
        break;
      case serve::DeltaStatus::kRejectedAllowance:
      case serve::DeltaStatus::kRejectedQueue:
        ++report.rejected;
        break;
    }
    report.smc_pairs += r->smc_pairs;
    quarantined_total += r->quarantined;
    live_latencies.push_back(r->seconds);
    if (!options.journal.empty()) {
      HPRL_RETURN_IF_ERROR(SaveServeJournal(
          options.journal,
          MakeJournal(fingerprint, epoch, svc, quarantined_total)));
    }
    ++live_settled;
    if (options.crash_after > 0 && live_settled >= options.crash_after) {
      // Simulated coordinator death for the crash-replay smoke: the journal
      // for this delta is already durable, nothing after it is.
      std::fflush(nullptr);
      raise(SIGKILL);
    }
  }
  report.seconds = live_timer.ElapsedSeconds();
  report.quarantined = quarantined_total;
  const int64_t blocked_pairs =
      metrics->counter("serve.pairs_blocked")->value() - blocked_before;
  if (report.seconds > 0) {
    report.pairs_per_sec =
        static_cast<double>(blocked_pairs) / report.seconds;
  }
  report.p99_delta_seconds = Percentile(live_latencies, 0.99);
  for (const serve::TenantSnapshot& t : svc.Snapshot()) {
    report.links += static_cast<int64_t>(t.links.size());
  }

  // Drop the daemons' resident tables before the shutdown stats sweep; in
  //-process oracles treat this as a no-op.
  HPRL_RETURN_IF_ERROR(be.oracle().DrainResidentRows());
  if (use_tcp) {
    be.AttachMetrics(metrics);
    HPRL_RETURN_IF_ERROR(be.Shutdown(/*stop_daemons=*/true));
  }

  if (!options.links_out.empty()) {
    HPRL_RETURN_IF_ERROR(WriteServeLinksCsv(options.links_out, svc));
  }
  if (!options.metrics_out.empty()) {
    obs::RunReport run;
    run.tool = "hprl_link";
    run.AddConfig("mode", "serve");
    run.AddConfig("deltas", deltas_path);
    run.AddConfig("serve_allowance",
                  StrFormat("%lld", static_cast<long long>(allowance)));
    run.AddConfig("serve_queue",
                  StrFormat("%lld", static_cast<long long>(max_queued)));
    run.AddConfig("serve_gen_level", StrFormat("%d", gen_level));
    run.AddConfig("key_bits", StrFormat("%d", spec.key_bits));
    run.AddConfig("oracle", report.oracle);
    run.AddConfig("transport", use_tcp ? "tcp" : "inproc");
    if (!options.journal.empty()) {
      run.AddConfig("journal", options.journal);
      run.AddConfig(
          "session_epoch",
          StrFormat("%llu", static_cast<unsigned long long>(epoch)));
    }
    run.metrics.reported_matches = report.links;
    run.metrics.smc_processed = report.smc_pairs;
    run.metrics.quarantined_pairs = report.quarantined;
    run.metrics.smc_seconds = report.seconds;
    run.registry = metrics;
    HPRL_RETURN_IF_ERROR(obs::WriteRunReport(run, options.metrics_out));
  }
  return report;
}

}  // namespace hprl::cli

#include "cli/runner.h"

#include <algorithm>
#include <fstream>
#include <thread>

#include "anon/release_io.h"
#include "cli/plan.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "core/session.h"
#include "data/csv.h"
#include "hierarchy/vgh_parser.h"
#include "linkage/ground_truth.h"
#include "net/backend.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "smc/network.h"

namespace hprl::cli {

namespace {

Status WriteLinksCsv(const std::string& path, const Table& r, const Table& s,
                     const HybridResult& result) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot open for write: " + path);
  out << "row_r,row_s\n";
  for (const auto& [rr, sr] : result.matched_row_pairs) {
    out << rr << ',' << sr << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace

std::string RunnerReport::ToString() const {
  std::string out;
  out += StrFormat("inputs: R=%lld rows, S=%lld rows (%lld pairs)\n",
                   static_cast<long long>(result.rows_r),
                   static_cast<long long>(result.rows_s),
                   static_cast<long long>(result.total_pairs));
  out += StrFormat("releases: %lld / %lld sequences (%.3fs to anonymize)\n",
                   static_cast<long long>(result.sequences_r),
                   static_cast<long long>(result.sequences_s),
                   result.anon_seconds);
  out += StrFormat(
      "blocking: %.2f%% decided (M=%lld pairs, N=%lld pairs, U=%lld pairs)\n",
      100.0 * result.blocking_efficiency,
      static_cast<long long>(result.blocked_match_pairs),
      static_cast<long long>(result.blocked_mismatch_pairs),
      static_cast<long long>(result.unknown_pairs));
  out += StrFormat("SMC step (%s oracle): %lld invocations of %lld budgeted\n",
                   oracle.c_str(),
                   static_cast<long long>(result.smc_processed),
                   static_cast<long long>(result.allowance_pairs));
  if (result.offline_seconds > 0 || result.online_seconds > 0) {
    out += StrFormat("SMC phases: offline %.3fs (setup/material), "
                     "online %.3fs (per-pair protocol)\n",
                     result.offline_seconds, result.online_seconds);
  }
  out += StrFormat("links reported: %lld (precision 100%% by construction)\n",
                   static_cast<long long>(result.reported_matches));
  if (result.quarantined_pairs > 0) {
    out += StrFormat(
        "degradation: %lld pairs quarantined by transport faults "
        "(treated as non-matches)\n",
        static_cast<long long>(result.quarantined_pairs));
  }
  if (result.resumed_pairs > 0) {
    out += StrFormat("resume: %lld pairs restored from checkpoint\n",
                     static_cast<long long>(result.resumed_pairs));
  }
  if (result.true_matches >= 0) {
    out += StrFormat("evaluation: recall %.2f%% of %lld true matches\n",
                     100.0 * result.recall,
                     static_cast<long long>(result.true_matches));
  }
  if (estimated_smc_seconds >= 0) {
    out += StrFormat(
        "transport: tcp — SMC wall %.3fs measured vs %.3fs modeled (LAN); "
        "%lld wire bytes sent vs %lld bus-accounted\n",
        result.smc_seconds, estimated_smc_seconds,
        static_cast<long long>(wire_bytes_sent),
        static_cast<long long>(bus_accounted_bytes));
  }
  return out;
}

Result<RunnerReport> RunLinkageFromFiles(const LinkageSpec& spec,
                                         const std::string& csv_r,
                                         const std::string& csv_s,
                                         const RunnerOptions& options) {
  auto raw_r = ReadCsvRaw(csv_r);
  if (!raw_r.ok()) return raw_r.status();
  auto raw_s = ReadCsvRaw(csv_s);
  if (!raw_s.ok()) return raw_s.status();
  auto plan = BuildPlan(spec, &*raw_r, &*raw_s);
  if (!plan.ok()) return plan.status();

  auto table_r = Typed(*raw_r, *plan, "R");
  if (!table_r.ok()) return table_r.status();
  auto table_s = Typed(*raw_s, *plan, "S");
  if (!table_s.ok()) return table_s.status();

  // An external registry wins; otherwise a private one backs --metrics_out.
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* metrics = options.metrics;
  if (metrics == nullptr && !options.metrics_out.empty()) {
    metrics = &local_registry;
  }
  plan->anon_cfg.metrics = metrics;

  auto anonymizer = MakeAnonymizerByName(spec.anonymizer, plan->anon_cfg);
  if (!anonymizer.ok()) return anonymizer.status();

  RunnerReport report;

  obs::ScopedSpan anon_span(metrics, "linkage/anonymize");
  WallTimer anon_timer;
  auto anon_r = (*anonymizer)->Anonymize(*table_r);
  if (!anon_r.ok()) return anon_r.status();
  auto anon_s = (*anonymizer)->Anonymize(*table_s);
  if (!anon_s.ok()) return anon_s.status();
  anon_span.Stop();
  double anon_seconds = anon_timer.ElapsedSeconds();

  // Thread resolution: CLI override > spec directive > the machine
  // (hardware_concurrency; 0 on exotic platforms, hence the clamp).
  const int hw_threads = std::max(1, static_cast<int>(
                                         std::thread::hardware_concurrency()));
  auto resolve = [hw_threads](int override_v, int spec_v) {
    if (override_v > 0) return override_v;
    return spec_v > 0 ? spec_v : hw_threads;
  };

  HybridConfig hc;
  hc.rule = plan->rule;
  hc.smc_allowance_fraction = spec.allowance;
  hc.heuristic = spec.heuristic;
  hc.collect_matches = !options.links_out.empty();
  hc.blocking_threads = resolve(options.threads_override, spec.threads);
  const int smc_threads =
      resolve(options.smc_threads_override, spec.smc_threads);

  // Datapath knobs: CLI overrides beat the spec's directives.
  const int smc_pack = options.smc_pack_override >= 0
                           ? options.smc_pack_override
                           : spec.smc_pack;
  const int rpc_batch = options.rpc_batch_override >= 1
                            ? options.rpc_batch_override
                            : spec.rpc_batch;
  const int rpc_window = options.rpc_window_override >= 1
                             ? options.rpc_window_override
                             : spec.rpc_window;

  // Offline/online phase split knobs. The material store only ever hits at
  // a pinned smc_seed (unseeded runs draw fresh keypairs from OS entropy,
  // so their fingerprints never repeat).
  const uint64_t smc_seed =
      options.smc_seed_override >= 0
          ? static_cast<uint64_t>(options.smc_seed_override)
          : spec.smc_seed;
  const std::string material_dir = !options.material_dir_override.empty()
                                       ? options.material_dir_override
                                       : spec.material_dir;
  const int offline_pairs = options.offline_pairs_override >= 0
                                ? options.offline_pairs_override
                                : spec.offline_pairs;
  if (options.offline_only && material_dir.empty()) {
    return Status::InvalidArgument(
        "--offline requires a material_dir (spec directive or flag)");
  }

  // Fault plan: CLI overrides (>= 0 rates, > 0 seed/latency) beat the
  // spec's `fault` directives.
  smc::FaultPlan fault_plan;
  fault_plan.seed = options.fault_seed_override > 0
                        ? static_cast<uint64_t>(options.fault_seed_override)
                        : spec.fault_seed;
  auto pick_rate = [](double override_v, double spec_v) {
    return override_v >= 0 ? override_v : spec_v;
  };
  fault_plan.drop_rate = pick_rate(options.fault_drop_override,
                                   spec.fault_drop);
  fault_plan.corrupt_rate = pick_rate(options.fault_corrupt_override,
                                      spec.fault_corrupt);
  fault_plan.delay_rate = pick_rate(options.fault_delay_override,
                                    spec.fault_delay);
  fault_plan.crash_rate = pick_rate(options.fault_crash_override,
                                    spec.fault_crash);
  fault_plan.delay_micros =
      options.fault_delay_micros_override >= 0
          ? static_cast<int>(options.fault_delay_micros_override)
          : spec.fault_delay_micros;

  // Failure-detector knobs: CLI overrides beat the spec's directives. The
  // cross-threshold constraint is re-checked because overrides can break an
  // ordering that each source satisfied on its own.
  const int hb_interval_ms = options.hb_interval_override > 0
                                 ? options.hb_interval_override
                                 : spec.hb_interval_ms;
  const int suspect_misses = options.suspect_misses_override > 0
                                 ? options.suspect_misses_override
                                 : spec.suspect_misses;
  const int dead_misses = options.dead_misses_override > 0
                              ? options.dead_misses_override
                              : spec.dead_misses;
  if (dead_misses <= suspect_misses) {
    return Status::InvalidArgument(StrFormat(
        "dead_misses (%d) must exceed suspect_misses (%d)", dead_misses,
        suspect_misses));
  }

  // Session journal / resume. A coordinator that finds a loadable journal
  // runs at the journaled epoch + 1, fencing whatever ctl frames the
  // crashed incarnation left in flight; the session itself restores the
  // recorded dispositions (or rejects a corrupt/mismatched file).
  uint64_t session_epoch = 1;
  if (options.resume && options.journal.empty()) {
    return Status::InvalidArgument("--resume requires --journal=<path>");
  }
  if (!options.journal.empty()) {
    auto journal = LoadSessionJournal(options.journal);
    if (journal.ok()) {
      session_epoch = journal->epoch + 1;
    } else if (options.resume) {
      if (journal.status().code() == StatusCode::kNotFound) {
        return Status::InvalidArgument(
            "--resume requested but there is no session journal at " +
            options.journal);
      }
      return journal.status();
    }
  }

  LinkageSession session;
  session.WithTables(*table_r, *table_s)
      .WithReleases(*anon_r, *anon_s)
      .WithConfig(hc)
      .WithMetrics(metrics)
      .WithEvaluation(options.evaluate);
  if (!options.checkpoint.empty()) session.WithCheckpoint(options.checkpoint);
  if (!options.journal.empty()) {
    session.WithJournal(options.journal)
        .WithResume(options.resume)
        .WithSessionEpoch(session_epoch);
  }

  // Oracle acquisition goes through the one backend factory: it validates
  // the deployment (transport/keybits/fault/shard compatibility), spawns or
  // joins daemon fleets, and hands back the MatchOracle to run against.
  const int shards = options.shards_override > 0 ? options.shards_override
                                                 : spec.shards;
  net::BackendOptions bopts;
  bopts.config = SmcConfigFromSpec(spec);
  bopts.config.fault_plan = fault_plan;
  bopts.config.pack_pairs = smc_pack;
  bopts.config.test_seed = smc_seed;
  bopts.config.material_dir = material_dir;
  bopts.config.offline_pairs = offline_pairs;
  bopts.config.pin_cores = options.pin_cores;
  bopts.config.use_arena = options.use_arena;
  bopts.rule = plan->rule;
  bopts.smc_threads = smc_threads;
  bopts.transport = options.transport;
  bopts.tcp_endpoints = options.tcp_endpoints;
  bopts.party_binary = options.party_binary;
  bopts.shards = shards;
  bopts.rpc_batch_pairs = rpc_batch;
  bopts.rpc_window = rpc_window;
  bopts.hb_interval_ms = hb_interval_ms;
  bopts.membership.suspect_after_misses = suspect_misses;
  bopts.membership.dead_after_misses = dead_misses;
  bopts.session_epoch = session_epoch;
  bopts.connect_timeout_ms = options.net_connect_timeout_ms;
  bopts.receive_timeout_ms = options.net_receive_timeout_ms;
  bopts.emulated_latency_micros = options.net_emu_latency_micros;

  auto backend = net::SmcBackend::Create(std::move(bopts));
  if (!backend.ok()) return backend.status();
  net::SmcBackend& be = **backend;
  be.AttachMetrics(metrics);
  // Everything inside Init is record-independent offline work: key setup,
  // material-store load/adopt, randomizer prewarm. On a warm store this
  // collapses to a file read plus validation.
  WallTimer offline_timer;
  HPRL_RETURN_IF_ERROR(be.Init());
  const double offline_seconds = offline_timer.ElapsedSeconds();
  report.oracle = be.description();
  const bool use_tcp = be.is_tcp();
  const std::string parties_desc = be.parties_description();

  if (options.offline_only) {
    // Generate-and-exit: the material is on disk, nothing record-dependent
    // ran. The TCP daemons persist their material on the shutdown drain.
    report.offline_only = true;
    report.result.offline_seconds = offline_seconds;
    if (use_tcp) HPRL_RETURN_IF_ERROR(be.Shutdown(/*stop_daemons=*/true));
    if (!options.metrics_out.empty()) {
      obs::RunReport run;
      run.tool = "hprl_link";
      run.AddConfig("mode", "offline");
      run.AddConfig("key_bits", StrFormat("%d", spec.key_bits));
      run.AddConfig("material_dir", material_dir);
      run.AddConfig("offline_pairs", StrFormat("%d", offline_pairs));
      run.AddConfig("smc_seed", StrFormat("%llu",
                                          static_cast<unsigned long long>(
                                              smc_seed)));
      run.metrics = report.result;
      run.registry = metrics;
      HPRL_RETURN_IF_ERROR(obs::WriteRunReport(run, options.metrics_out));
    }
    return report;
  }

  Result<HybridResult> result = session.WithOracle(be.oracle()).Run();

  net::MeshStats mesh_stats;
  if (use_tcp) {
    // The session detaches oracle metrics when Run() returns; re-attach so
    // the final stats sweep lands the mesh-wide net.* totals in the report.
    be.AttachMetrics(metrics);
    Status shut = be.Shutdown(/*stop_daemons=*/true);
    if (result.ok()) {
      // Stats are best-effort once the linkage itself succeeded: a daemon
      // that died right at shutdown loses its counters, not the run.
      mesh_stats = be.mesh_stats();
      report.wire_bytes_sent = mesh_stats.wire_bytes_sent;
      report.bus_accounted_bytes = mesh_stats.bus_bytes;
      if (shut.ok()) {
        auto timings = smc::CryptoTimings::Measure(spec.key_bits);
        if (timings.ok()) {
          report.estimated_smc_seconds = smc::EstimateSeconds(
              mesh_stats.costs, mesh_stats.bus_bytes, mesh_stats.bus_messages,
              smc::NetworkModel::Lan(), *timings);
        }
      }
    }
  }
  if (!result.ok()) return result.status();
  report.result = std::move(result).value();
  report.result.anon_seconds = anon_seconds;
  report.result.offline_seconds = offline_seconds;
  report.result.online_seconds = report.result.smc_seconds;

  if (use_tcp) {
    obs::SetGauge(metrics, "net.measured_smc_seconds",
                  report.result.smc_seconds);
    if (report.estimated_smc_seconds >= 0) {
      obs::SetGauge(metrics, "net.estimated_smc_seconds",
                    report.estimated_smc_seconds);
    }
    obs::SetGauge(metrics, "net.wire_bytes_sent",
                  static_cast<double>(report.wire_bytes_sent));
    obs::SetGauge(metrics, "net.bus_accounted_bytes",
                  static_cast<double>(report.bus_accounted_bytes));
    // The daemons' summed crypto work: a TCP run's counterpart of the
    // paillier.* counters the in-process parties stream themselves.
    const smc::SmcCosts& party = mesh_stats.costs;
    obs::SetGauge(metrics, "net.party.encryptions",
                  static_cast<double>(party.encryptions));
    obs::SetGauge(metrics, "net.party.decryptions",
                  static_cast<double>(party.decryptions));
    obs::SetGauge(metrics, "net.party.scalar_muls",
                  static_cast<double>(party.scalar_muls));
    obs::SetGauge(metrics, "net.party.homomorphic_adds",
                  static_cast<double>(party.homomorphic_adds));
    obs::SetGauge(metrics, "net.party.attr_comparisons",
                  static_cast<double>(party.attr_comparisons));
  }

  if (!options.metrics_out.empty()) {
    obs::RunReport run;
    run.tool = "hprl_link";
    run.AddConfig("spec_k", StrFormat("%lld", static_cast<long long>(spec.k)));
    run.AddConfig("allowance", StrFormat("%g", spec.allowance));
    run.AddConfig("heuristic", HeuristicName(spec.heuristic));
    run.AddConfig("anonymizer", spec.anonymizer);
    run.AddConfig("key_bits", StrFormat("%d", spec.key_bits));
    run.AddConfig("threads", StrFormat("%d", hc.blocking_threads));
    run.AddConfig("smc_threads", StrFormat("%d", smc_threads));
    run.AddConfig("smc_pack", StrFormat("%d", smc_pack));
    if (smc_seed != 0) {
      run.AddConfig("smc_seed",
                    StrFormat("%llu",
                              static_cast<unsigned long long>(smc_seed)));
    }
    if (!material_dir.empty()) {
      run.AddConfig("material_dir", material_dir);
      run.AddConfig("offline_pairs", StrFormat("%d", offline_pairs));
    }
    run.AddConfig("oracle", report.oracle);
    run.AddConfig("transport", use_tcp ? "tcp" : "inproc");
    if (use_tcp) {
      run.AddConfig("parties", parties_desc);
      run.AddConfig("rpc_batch", StrFormat("%d", rpc_batch));
      run.AddConfig("rpc_window", StrFormat("%d", rpc_window));
      run.AddConfig("shards", StrFormat("%d", shards));
      run.AddConfig("hb_interval_ms", StrFormat("%d", hb_interval_ms));
      run.AddConfig("membership_misses",
                    StrFormat("%d/%d", suspect_misses, dead_misses));
    }
    if (!options.journal.empty()) {
      run.AddConfig("journal", options.journal);
      run.AddConfig("session_epoch",
                    StrFormat("%llu",
                              static_cast<unsigned long long>(session_epoch)));
    }
    if (fault_plan.enabled()) {
      run.AddConfig("fault_seed",
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          fault_plan.seed)));
      run.AddConfig("fault_rates",
                    StrFormat("drop=%g corrupt=%g delay=%g crash=%g",
                              fault_plan.drop_rate, fault_plan.corrupt_rate,
                              fault_plan.delay_rate, fault_plan.crash_rate));
    }
    std::string attrs;
    for (const AttrSpec& a : spec.attrs) {
      if (!attrs.empty()) attrs += ",";
      attrs += a.name;
    }
    run.AddConfig("attrs", attrs);
    run.metrics = report.result;
    run.registry = metrics;
    HPRL_RETURN_IF_ERROR(obs::WriteRunReport(run, options.metrics_out));
  }
  if (!options.links_out.empty()) {
    HPRL_RETURN_IF_ERROR(
        WriteLinksCsv(options.links_out, *table_r, *table_s, report.result));
  }
  if (!options.release_r_out.empty()) {
    HPRL_RETURN_IF_ERROR(WriteRelease(*anon_r, !options.publish_releases,
                                      options.release_r_out));
  }
  if (!options.release_s_out.empty()) {
    HPRL_RETURN_IF_ERROR(WriteRelease(*anon_s, !options.publish_releases,
                                      options.release_s_out));
  }
  return report;
}

}  // namespace hprl::cli

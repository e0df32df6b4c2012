#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "adult/adult.h"
#include "cli/plan.h"
#include "cli/runner.h"
#include "cli/spec.h"
#include "common/exit_codes.h"
#include "data/csv.h"
#include "common/string_util.h"
#include "data/partition.h"
#include "hierarchy/vgh_parser.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace hprl::cli {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- spec

TEST(SpecParserTest, ParsesFullSpec) {
  const char* text = R"(
# demo spec
attr age numeric equiwidth 16 8 3,2,2 theta 0.05
attr education categorical vghfile edu.vgh theta 0.05
attr surname text theta 1
class income
sensitive income ldiv 2
k 16
allowance 0.02
heuristic MaxLast
anonymizer DataFly
keybits 512
)";
  auto spec = ParseLinkageSpec(text, "/base");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->attrs.size(), 3u);
  EXPECT_EQ(spec->attrs[0].type, AttrType::kNumeric);
  EXPECT_DOUBLE_EQ(spec->attrs[0].lo, 16);
  EXPECT_EQ(spec->attrs[0].fanouts, (std::vector<int>{3, 2, 2}));
  EXPECT_EQ(spec->attrs[1].vgh_file, "/base/edu.vgh");
  EXPECT_EQ(spec->attrs[2].type, AttrType::kText);
  EXPECT_DOUBLE_EQ(spec->attrs[2].theta, 1.0);
  EXPECT_EQ(spec->class_attr, "income");
  EXPECT_EQ(spec->l_diversity, 2);
  EXPECT_EQ(spec->k, 16);
  EXPECT_DOUBLE_EQ(spec->allowance, 0.02);
  EXPECT_EQ(spec->heuristic, SelectionHeuristic::kMaxLast);
  EXPECT_EQ(spec->anonymizer, "DataFly");
  EXPECT_EQ(spec->key_bits, 512);
}

TEST(SpecParserTest, NumericVghFileVariant) {
  auto spec =
      ParseLinkageSpec("attr hours numeric vghfile hrs.vgh theta 0.2\n", "/d");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->attrs[0].type, AttrType::kNumeric);
  EXPECT_EQ(spec->attrs[0].vgh_file, "/d/hrs.vgh");
  EXPECT_TRUE(spec->attrs[0].fanouts.empty());
}

TEST(SpecParserTest, ThreadsDirective) {
  auto spec = ParseLinkageSpec("attr x text\nthreads 4\n", ".");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->threads, 4);
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nthreads 0\n", ".").ok());

  auto auto_spec = ParseLinkageSpec("attr x text\nthreads auto\n", ".");
  ASSERT_TRUE(auto_spec.ok());
  EXPECT_EQ(auto_spec->threads, 0);
}

TEST(SpecParserTest, SmcThreadsDirective) {
  auto spec = ParseLinkageSpec("attr x text\nsmc_threads 3\n", ".");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->smc_threads, 3);
  EXPECT_EQ(spec->threads, 0);  // independent knobs
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsmc_threads 0\n", ".").ok());

  auto auto_spec = ParseLinkageSpec("attr x text\nsmc_threads auto\n", ".");
  ASSERT_TRUE(auto_spec.ok());
  EXPECT_EQ(auto_spec->smc_threads, 0);
}

TEST(SpecParserTest, DefaultsApply) {
  auto spec = ParseLinkageSpec("attr age numeric equiwidth 0 10 4\n", ".");
  ASSERT_TRUE(spec.ok());
  // 0 = auto: the runner resolves both to hardware_concurrency.
  EXPECT_EQ(spec->threads, 0);
  EXPECT_EQ(spec->smc_threads, 0);
  EXPECT_EQ(spec->k, 32);
  EXPECT_DOUBLE_EQ(spec->allowance, 0.015);
  EXPECT_EQ(spec->heuristic, SelectionHeuristic::kMinAvgFirst);
  EXPECT_EQ(spec->anonymizer, "MaxEntropy");
  EXPECT_EQ(spec->key_bits, 0);
  EXPECT_DOUBLE_EQ(spec->attrs[0].theta, 0.05);
}

TEST(SpecParserTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseLinkageSpec("", ".").ok());           // no attrs
  EXPECT_FALSE(ParseLinkageSpec("bogus 1\n", ".").ok());  // unknown directive
  EXPECT_FALSE(ParseLinkageSpec("attr x numeric theta 0.1\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x categorical theta 0.1\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x wrongtype\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x numeric equiwidth 0 8 2 theta -1\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nallowance 2\n", ".").ok());  // > 1
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nk 0\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nheuristic Bogus\n", ".").ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nsensitive y ldiv x\n", ".").ok());
}

// Slot widths come from the hierarchies now: smc_pack's old second token
// (the uniform slot width, which older specs and tools still write) is
// accepted and changes nothing.
TEST(SpecParserTest, SmcPackSlotBitsTokenIsIgnored) {
  auto with_bits = ParseLinkageSpec("attr x text\nsmc_pack 8 64\n", ".");
  auto without = ParseLinkageSpec("attr x text\nsmc_pack 8\n", ".");
  auto other_bits = ParseLinkageSpec("attr x text\nsmc_pack 8 40\n", ".");
  ASSERT_TRUE(with_bits.ok() && without.ok() && other_bits.ok());
  for (const LinkageSpec* spec : {&*with_bits, &*other_bits}) {
    const smc::SmcConfig a = SmcConfigFromSpec(*spec);
    const smc::SmcConfig b = SmcConfigFromSpec(*without);
    EXPECT_EQ(a.pack_pairs, 8);
    EXPECT_EQ(a.pack_pairs, b.pack_pairs);
    EXPECT_EQ(a.key_bits, b.key_bits);
    EXPECT_EQ(a.max_retries, b.max_retries);
    EXPECT_EQ(a.test_seed, b.test_seed);
    EXPECT_EQ(a.material_dir, b.material_dir);
    EXPECT_EQ(a.offline_pairs, b.offline_pairs);
  }
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsmc_pack\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsmc_pack 8 64 1\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsmc_pack -1\n", ".").ok());
}

TEST(SpecParserTest, MembershipDirectives) {
  auto spec = ParseLinkageSpec(
      "attr x text\nhb_interval 120\nsuspect_misses 3\ndead_misses 9\n", ".");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->hb_interval_ms, 120);
  EXPECT_EQ(spec->suspect_misses, 3);
  EXPECT_EQ(spec->dead_misses, 9);

  auto defaults = ParseLinkageSpec("attr x text\n", ".");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->hb_interval_ms, 250);
  EXPECT_EQ(defaults->suspect_misses, 2);
  EXPECT_EQ(defaults->dead_misses, 4);
}

TEST(SpecParserTest, RejectsBadMembershipDirectives) {
  // The probe cadence must be a finite positive millisecond count — and
  // ParseDouble accepts "nan"/"inf", so the parser must too reject those.
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval 0\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval -5\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval nan\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval inf\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nhb_interval soon\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\nsuspect_misses 0\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\ndead_misses 0\n", ".").ok());
  EXPECT_FALSE(ParseLinkageSpec("attr x text\ndead_misses -1\n", ".").ok());
  // Dead must come strictly after suspect or a replica could skip the
  // recoverable state entirely.
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nsuspect_misses 4\ndead_misses 4\n", ".")
          .ok());
  EXPECT_FALSE(
      ParseLinkageSpec("attr x text\nsuspect_misses 5\ndead_misses 3\n", ".")
          .ok());
}

// ---------------------------------------------------------------- exit codes

TEST(ExitCodeTest, TaxonomyMapsStatusFamilies) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), kExitOk);
  // Config/usage family: the operator wrote something wrong.
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), kExitConfig);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), kExitConfig);
  // Transport family: peers or the wire, retryable from outside.
  EXPECT_EQ(ExitCodeForStatus(Status::Unavailable("x")), kExitTransport);
  EXPECT_EQ(ExitCodeForStatus(Status::IOError("x")), kExitTransport);
  // Integrity family: crypto material / journal / fencing refusals.
  EXPECT_EQ(ExitCodeForStatus(Status::FailedPrecondition("x")),
            kExitIntegrity);
  // Everything else stays the generic failure.
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), kExitFailure);
  EXPECT_EQ(ExitCodeForStatus(Status::Unimplemented("x")), kExitFailure);
  EXPECT_EQ(ExitCodeForStatus(Status::OutOfRange("x")), kExitFailure);
}

// ---------------------------------------------------------------- runner

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "hprl_cli_test";
    fs::create_directories(dir_);

    // Materialize a small Adult-like scenario on disk.
    auto h = adult::BuildAdultHierarchies();
    Table source = adult::GenerateAdult(450, 1234, h);
    Rng rng(5);
    auto split = SplitForLinkage(source, rng);
    ASSERT_TRUE(split.ok());
    ASSERT_TRUE(WriteCsv(split->d1, (dir_ / "r.csv").string()).ok());
    ASSERT_TRUE(WriteCsv(split->d2, (dir_ / "s.csv").string()).ok());

    // VGH files for the categorical QIDs.
    for (const char* name : {"workclass", "education", "marital-status"}) {
      std::ofstream out(dir_ / (std::string(name) + ".vgh"));
      out << FormatCategoricalVgh(*h.ByName(name));
    }
    std::ofstream spec(dir_ / "linkage.spec");
    spec << "attr age numeric equiwidth 16 8 3,2,2 theta 0.05\n"
         << "attr workclass categorical vghfile workclass.vgh theta 0.05\n"
         << "attr education categorical vghfile education.vgh theta 0.05\n"
         << "attr marital-status categorical vghfile marital-status.vgh "
            "theta 0.05\n"
         << "class income\n"
         << "k 8\n"
         << "allowance 1.0\n";
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(RunnerTest, EndToEndFromFiles) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  RunnerOptions options;
  options.evaluate = true;
  options.links_out = (dir_ / "links.csv").string();
  options.release_r_out = (dir_ / "release_r.txt").string();
  options.publish_releases = true;

  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->result.rows_r, 300);
  EXPECT_EQ(report->result.rows_s, 300);
  EXPECT_EQ(report->oracle, "plaintext");
  // allowance 1.0 => everything labeled => perfect recall.
  EXPECT_DOUBLE_EQ(report->result.recall, 1.0);
  EXPECT_GE(report->result.true_matches, 150);  // the shared d3 block

  // Side outputs exist and have the expected shape.
  auto raw = ReadCsvRaw(options.links_out);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->header, (std::vector<std::string>{"row_r", "row_s"}));
  EXPECT_EQ(static_cast<int64_t>(raw->rows.size()),
            report->result.reported_matches);

  std::ifstream release(options.release_r_out);
  std::string first_line;
  ASSERT_TRUE(std::getline(release, first_line));
  EXPECT_EQ(first_line, "hprl-release 1");

  // The textual summary mentions the key numbers.
  std::string text = report->ToString();
  EXPECT_NE(text.find("R=300 rows"), std::string::npos);
  EXPECT_NE(text.find("recall 100.00%"), std::string::npos);
}

TEST_F(RunnerTest, RealPaillierOracleThroughTheCli) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  spec->key_bits = 256;       // real crypto, small key for speed
  spec->allowance = 0.002;    // keep the invocation count tiny
  RunnerOptions options;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->oracle, "paillier-256");
  EXPECT_LE(report->result.smc_processed, report->result.allowance_pairs);
}

TEST_F(RunnerTest, ThreadsOverrideMatchesSequentialRun) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());

  RunnerOptions sequential;
  auto base = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                  (dir_ / "s.csv").string(), sequential);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  RunnerOptions threaded;
  threaded.threads_override = 4;
  auto out = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                 (dir_ / "s.csv").string(), threaded);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // The blocking decision rule is deterministic: worker count must not
  // change a single M/N/U tally nor anything downstream of them.
  EXPECT_EQ(out->result.blocked_match_pairs, base->result.blocked_match_pairs);
  EXPECT_EQ(out->result.blocked_mismatch_pairs,
            base->result.blocked_mismatch_pairs);
  EXPECT_EQ(out->result.unknown_pairs, base->result.unknown_pairs);
  EXPECT_EQ(out->result.reported_matches, base->result.reported_matches);
  EXPECT_EQ(out->result.smc_processed, base->result.smc_processed);
}

TEST_F(RunnerTest, MetricsOutWritesParsableRunReport) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());

  RunnerOptions options;
  options.evaluate = true;
  options.metrics_out = (dir_ / "run.json").string();
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::ifstream in(options.metrics_out);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto json = obs::ParseJson(text);
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  EXPECT_EQ(json->Find("schema")->AsString(), "hprl-run-report/1");
  EXPECT_EQ(json->Find("tool")->AsString(), "hprl_link");

  const obs::JsonValue* metrics = json->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("rows_r")->AsInt(), report->result.rows_r);
  EXPECT_EQ(metrics->Find("unknown_pairs")->AsInt(),
            report->result.unknown_pairs);
  EXPECT_EQ(metrics->Find("reported_matches")->AsInt(),
            report->result.reported_matches);

  // The registry dump carries the pipeline counters and the stage spans.
  const obs::JsonValue* counters = json->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("blocking.pairs_total")->AsInt(),
            report->result.total_pairs);
  EXPECT_EQ(counters->Find("smc.invocations")->AsInt(),
            report->result.smc_processed);
  EXPECT_GT(counters->Find("anon.groups")->AsInt(), 0);

  const obs::JsonValue* spans = json->Find("spans");
  ASSERT_NE(spans, nullptr);
  for (const char* path : {"linkage/anonymize", "linkage", "linkage/block",
                           "linkage/select", "linkage/smc",
                           "linkage/evaluate"}) {
    ASSERT_NE(spans->Find(path), nullptr) << path;
    EXPECT_GE(spans->Find(path)->Find("seconds")->AsDouble(), 0.0) << path;
  }
}

TEST_F(RunnerTest, ExternalRegistrySeesPipelineCounters) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  obs::MetricsRegistry registry;
  RunnerOptions options;
  options.metrics = &registry;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto counters = registry.CounterValues();
  EXPECT_EQ(counters["blocking.pairs_total"], report->result.total_pairs);
  EXPECT_EQ(counters["linkage.reported_matches"],
            report->result.reported_matches);
}

TEST_F(RunnerTest, ResumeFlagRequiresAJournalPath) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.resume = true;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RunnerTest, ResumeWithoutAJournalFileIsRefused) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.resume = true;
  options.journal = (dir_ / "never_written.jnl").string();
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("no session journal"),
            std::string::npos);
}

TEST_F(RunnerTest, CorruptJournalAbortsAStrictResume) {
  const std::string journal = (dir_ / "damaged.jnl").string();
  {
    std::ofstream out(journal, std::ios::binary);
    out << "HPRLJNL1 but then garbage";
  }
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.resume = true;
  options.journal = journal;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RunnerTest, CorruptJournalWithoutResumeStartsCleanAndCompletes) {
  const std::string journal = (dir_ / "stale.jnl").string();
  {
    std::ofstream out(journal, std::ios::binary);
    out << "not a journal at all";
  }
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.journal = journal;  // journaling on, but no strict resume
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The damaged file was never resumed from, and the completed run cleaned
  // up after itself.
  EXPECT_EQ(report->result.resumed_pairs, 0);
  EXPECT_FALSE(fs::exists(journal));
}

TEST_F(RunnerTest, CompletedRunRemovesItsJournal) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.journal = (dir_ / "run.jnl").string();
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(fs::exists(options.journal));
}

TEST_F(RunnerTest, MembershipOverridesMustKeepDeadAfterSuspect) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  RunnerOptions options;
  options.suspect_misses_override = 5;
  options.dead_misses_override = 5;
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("dead_misses"), std::string::npos);
}

TEST_F(RunnerTest, MissingColumnIsReported) {
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  spec->attrs[0].name = "not-a-column";
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), {});
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

// The QIDs of hprl_gen's spec (age [16, 112) and four categoricals) take
// 34 + 6 + 8 + 6 + 8 = 62 bits per pair, so a 1024-bit plaintext holds 16
// pairs and the paper's `smc_pack 8` gets all 8.
TEST_F(RunnerTest, HprlGenSpecPacksEightPairsPerPlaintext) {
  auto h = adult::BuildAdultHierarchies();
  {
    std::ofstream out(dir_ / "occupation.vgh");
    out << FormatCategoricalVgh(*h.ByName("occupation"));
  }
  {
    std::ofstream spec(dir_ / "gen.spec");
    spec << "attr age numeric equiwidth 16 8 3,2,2 theta 0.05\n"
         << "attr workclass categorical vghfile workclass.vgh theta 0.05\n"
         << "attr education categorical vghfile education.vgh theta 0.05\n"
         << "attr marital-status categorical vghfile marital-status.vgh "
            "theta 0.05\n"
         << "attr occupation categorical vghfile occupation.vgh theta 0.05\n"
         << "keybits 1024\n"
         << "smc_pack 8 64\n";
  }
  auto spec = LoadLinkageSpec((dir_ / "gen.spec").string());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto plan = BuildPlan(*spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  smc::SmcConfig config = SmcConfigFromSpec(*spec);
  EXPECT_EQ(smc::PackedGroupPairs(config, plan->rule), 8);
  config.pack_pairs = 64;
  EXPECT_EQ(smc::PackedGroupPairs(config, plan->rule), 1022 / 62);
}

// The hierarchies' roots and leaves are the public bounds the packed
// exchange sizes its slots from: an age outside the root or an unknown
// category stops the run while typing the input, before any SMC work.
TEST_F(RunnerTest, OutOfDomainValueFailsBeforeAnySmc) {
  const auto original = ReadCsvRaw((dir_ / "r.csv").string());
  ASSERT_TRUE(original.ok());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"age", "112"}, {"age", "15.5"}, {"education", "Postdoc"}};
  for (const auto& [column, value] : cases) {
    RawCsv raw = *original;
    const int col = raw.FindColumn(column);
    ASSERT_GE(col, 0);
    raw.rows[5][col] = value;
    {
      std::ofstream out(dir_ / "r.csv");
      out << Join(raw.header, ",") << "\n";
      for (const auto& row : raw.rows) out << Join(row, ",") << "\n";
    }
    auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
    ASSERT_TRUE(spec.ok());
    spec->key_bits = 256;
    spec->smc_pack = 8;
    obs::MetricsRegistry registry;
    RunnerOptions options;
    options.metrics = &registry;
    auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                      (dir_ / "s.csv").string(), options);
    ASSERT_FALSE(report.ok()) << column << "=" << value;
    EXPECT_NE(report.status().message().find("row 6"), std::string::npos)
        << report.status().ToString();
    for (const auto& [name, count] : registry.CounterValues()) {
      EXPECT_TRUE(name.rfind("smc.", 0) != 0 &&
                  name.rfind("paillier.", 0) != 0)
          << column << "=" << value << ": " << name << " = " << count;
    }
  }
}

TEST_F(RunnerTest, UnknownCategoryIsReportedWithRowContext) {
  // Corrupt one field of r.csv so it no longer matches the VGH leaves.
  auto raw = ReadCsvRaw((dir_ / "r.csv").string());
  ASSERT_TRUE(raw.ok());
  int col = raw->FindColumn("education");
  ASSERT_GE(col, 0);
  raw->rows[5][col] = "PhD-in-something-else";
  {
    std::ofstream out(dir_ / "r.csv");
    out << Join(raw->header, ",") << "\n";
    for (const auto& row : raw->rows) out << Join(row, ",") << "\n";
  }
  auto spec = LoadLinkageSpec((dir_ / "linkage.spec").string());
  ASSERT_TRUE(spec.ok());
  auto report = RunLinkageFromFiles(*spec, (dir_ / "r.csv").string(),
                                    (dir_ / "s.csv").string(), {});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("row 6"), std::string::npos);
}

}  // namespace
}  // namespace hprl::cli

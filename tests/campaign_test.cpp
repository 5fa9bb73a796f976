// Campaign subsystem tests: spec parsing and structural validation,
// deterministic expansion and fingerprinting, config resolution
// (including the workload.class.* sweep form), the JSONL record shape,
// and the acceptance gate for resume: run N scenarios, stop after K,
// restart, assert exactly N−K execute and the final results file equals
// the uninterrupted run's, order-normalized.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hpp"
#include "campaign/sweep_spec.hpp"
#include "util/json.hpp"

namespace ecgrid {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignOutcome;
using campaign::CampaignSpec;
using campaign::parseCampaignSpec;
using campaign::RunSpec;

const char* kSmallSpec = R"({
  "name": "unit",
  "base": {
    "duration": 8,
    "hostCount": 12,
    "flowCount": 1,
    "sampleInterval": 4
  },
  "axes": [
    { "key": "protocol", "values": ["GRID", "ECGRID"] },
    { "key": "maxSpeed", "values": [0.5, 2.0] }
  ],
  "seeds": [1, 2]
})";

std::vector<std::string> sortedLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "ecgrid_campaign_" + name;
}

// --------------------------------------------------------------------------
// Spec parsing

TEST(CampaignSpecParse, ParsesShapeAndCounts) {
  const CampaignSpec spec = parseCampaignSpec(kSmallSpec);
  EXPECT_EQ(spec.name, "unit");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].key, "protocol");
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(spec.runCount(), 8u);  // 2 × 2 axes × 2 seeds
}

TEST(CampaignSpecParse, RejectsUnknownTopLevelField) {
  EXPECT_THROW(parseCampaignSpec(R"({"name":"x","seeds":[1],"oops":1})"),
               std::invalid_argument);
}

TEST(CampaignSpecParse, RejectsMissingSeedsAndEmptyAxisValues) {
  EXPECT_THROW(parseCampaignSpec(R"({"name":"x"})"), std::invalid_argument);
  EXPECT_THROW(
      parseCampaignSpec(
          R"({"name":"x","seeds":[1],"axes":[{"key":"duration","values":[]}]})"),
      std::invalid_argument);
}

TEST(CampaignSpecParse, RejectsRepeatedAxisKey) {
  EXPECT_THROW(parseCampaignSpec(R"({"name":"x","seeds":[1],"axes":[
      {"key":"duration","values":[1]},
      {"key":"duration","values":[2]}]})"),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// Expansion & fingerprints

TEST(CampaignExpand, OdometerOrderIsDeterministic) {
  const CampaignSpec spec = parseCampaignSpec(kSmallSpec);
  const std::vector<RunSpec> a = campaign::expandCampaign(spec);
  const std::vector<RunSpec> b = campaign::expandCampaign(spec);
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
  }
  // Last axis fastest, seeds fastest of all: runs 0,1 share everything
  // but the seed.
  EXPECT_EQ(util::JsonValue(a[0].overrides).dump(),
            util::JsonValue(a[1].overrides).dump());
  EXPECT_NE(a[0].seed, a[1].seed);
}

TEST(CampaignExpand, FingerprintsAreUniqueAcrossTheGrid) {
  const std::vector<RunSpec> runs =
      campaign::expandCampaign(parseCampaignSpec(kSmallSpec));
  std::set<std::string> fingerprints;
  for (const RunSpec& run : runs) fingerprints.insert(run.fingerprint);
  EXPECT_EQ(fingerprints.size(), runs.size());
}

TEST(CampaignExpand, FingerprintIgnoresSourceFormatting) {
  // Same merged overrides from a differently-ordered, differently-spaced
  // spec document → same fingerprints (canonical dump is the contract).
  const char* reordered = R"({
    "seeds": [2, 1],
    "axes": [
      { "values": ["GRID", "ECGRID"], "key": "protocol" },
      { "key": "maxSpeed", "values": [0.5, 2.0] }
    ],
    "base": { "sampleInterval": 4, "flowCount": 1,
              "hostCount": 12, "duration": 8 },
    "name": "unit"
  })";
  std::set<std::string> a;
  std::set<std::string> b;
  for (const RunSpec& run :
       campaign::expandCampaign(parseCampaignSpec(kSmallSpec))) {
    a.insert(run.fingerprint);
  }
  for (const RunSpec& run :
       campaign::expandCampaign(parseCampaignSpec(reordered))) {
    b.insert(run.fingerprint);
  }
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------------------
// Config resolution

TEST(CampaignResolve, AppliesScenarioAndWorkloadKeys) {
  util::JsonObject overrides;
  overrides["protocol"] = "GAF";
  overrides["hostCount"] = 33;
  overrides["duration"] = 55.0;
  overrides["workload.classes"] = util::JsonArray{
      util::JsonObject{{"name", util::JsonValue("bulk")},
                       {"requestResponse", util::JsonValue(false)}}};
  overrides["workload.class.sessionsPerSecond"] = 3.5;
  overrides["workload.sinkCount"] = 2;

  const harness::ScenarioConfig config = campaign::resolveConfig(overrides, 9);
  EXPECT_EQ(config.protocol, harness::ProtocolKind::kGaf);
  EXPECT_EQ(config.hostCount, 33);
  EXPECT_DOUBLE_EQ(config.duration, 55.0);
  EXPECT_EQ(config.seed, 9u);
  ASSERT_EQ(config.workload.classes.size(), 1u);
  // workload.class.* must land on the class list even though it sorts
  // before "workload.classes" in the override map.
  EXPECT_DOUBLE_EQ(config.workload.classes[0].sessionsPerSecond, 3.5);
  EXPECT_EQ(config.workload.classes[0].name, "bulk");
  EXPECT_FALSE(config.workload.classes[0].requestResponse);
  EXPECT_EQ(config.workload.sinkCount, 2);
}

TEST(CampaignResolve, SweepingAClassKnobArmsTheDefaultClass) {
  util::JsonObject overrides;
  overrides["workload.class.sessionsPerSecond"] = 2.0;
  const harness::ScenarioConfig config = campaign::resolveConfig(overrides, 1);
  ASSERT_EQ(config.workload.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(config.workload.classes[0].sessionsPerSecond, 2.0);
}

TEST(CampaignResolve, RejectsUnknownKeysLoudly) {
  util::JsonObject overrides;
  overrides["hostCont"] = 10;  // typo must not silently run defaults
  EXPECT_THROW(campaign::resolveConfig(overrides, 1), std::invalid_argument);
  overrides.clear();
  overrides["workload.class.sesionsPerSecond"] = 1.0;
  EXPECT_THROW(campaign::resolveConfig(overrides, 1), std::invalid_argument);
}

// A key ScenarioConfig does not have is an error, not a silently ignored
// knob.
TEST(CampaignResolve, RejectsAShardsKey) {
  const CampaignSpec spec =
      parseCampaignSpec(R"({"name":"x","base":{"shards":4},"seeds":[1]})");
  const std::vector<RunSpec> runs = campaign::expandCampaign(spec);
  ASSERT_EQ(runs.size(), 1u);
  try {
    (void)campaign::resolveConfig(runs[0].overrides, runs[0].seed);
    FAIL() << "the spec resolved";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown campaign config key 'shards'");
  }
}

// --------------------------------------------------------------------------
// Records & resume bookkeeping

TEST(CampaignRecords, FailureRecordCarriesTheErrorText) {
  RunSpec run;
  run.fingerprint = "f00";
  run.seed = 3;
  run.overrides["duration"] = -1.0;
  const std::string line =
      campaign::recordToJson("unit", run, nullptr, "duration must be positive");
  const util::JsonValue record = util::parseJson(line);
  EXPECT_FALSE(record.find("ok")->asBool());
  EXPECT_EQ(record.find("error")->asString(), "duration must be positive");
  EXPECT_EQ(record.find("fingerprint")->asString(), "f00");
  EXPECT_EQ(record.find("result"), nullptr);
}

TEST(CampaignRecords, ResumeScanSkipsTornLines) {
  const std::string path = tempPath("torn.jsonl");
  {
    std::ofstream out(path);
    out << R"({"fingerprint":"aaaa","ok":true})" << '\n';
    out << R"({"fingerprint":"bbbb","ok":true})" << '\n';
    out << R"({"fingerprint":"cccc","o)";  // killed mid-write
  }
  const std::set<std::string> done = campaign::completedFingerprints(path);
  EXPECT_EQ(done, (std::set<std::string>{"aaaa", "bbbb"}));
  std::remove(path.c_str());
}

TEST(CampaignRecords, MissingResultsFileMeansNothingCompleted) {
  EXPECT_TRUE(
      campaign::completedFingerprints(tempPath("never-written.jsonl"))
          .empty());
}

// --------------------------------------------------------------------------
// The resume acceptance gate

TEST(CampaignRunner, InterruptedPlusResumedEqualsUninterrupted) {
  const CampaignSpec spec = parseCampaignSpec(kSmallSpec);
  const std::size_t n = spec.runCount();
  const std::size_t k = 3;  // complete K, then "die"

  const std::string uninterrupted = tempPath("full.jsonl");
  const std::string interrupted = tempPath("resumed.jsonl");
  std::remove(uninterrupted.c_str());
  std::remove(interrupted.c_str());

  CampaignOptions options;
  options.jobs = 2;

  options.resultsPath = uninterrupted;
  const CampaignOutcome full = campaign::runCampaign(spec, options);
  EXPECT_EQ(full.executed, n);
  EXPECT_EQ(full.failed, 0u);
  EXPECT_EQ(full.skipped, 0u);

  // First attempt: killed after K completions.
  options.resultsPath = interrupted;
  options.maxRuns = static_cast<long>(k);
  const CampaignOutcome first = campaign::runCampaign(spec, options);
  EXPECT_EQ(first.executed, k);

  // Restart: exactly N−K scenarios execute, K are skipped.
  options.maxRuns = -1;
  const CampaignOutcome second = campaign::runCampaign(spec, options);
  EXPECT_EQ(second.skipped, k);
  EXPECT_EQ(second.executed, n - k);

  // And the final file is the uninterrupted file, order-normalized.
  EXPECT_EQ(sortedLines(interrupted), sortedLines(uninterrupted));

  // A third invocation is a no-op.
  const CampaignOutcome third = campaign::runCampaign(spec, options);
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(third.skipped, n);

  std::remove(uninterrupted.c_str());
  std::remove(interrupted.c_str());
}

TEST(CampaignRunner, ValueErrorsBecomeFailureRecordsNotCrashes) {
  // hostCount −5 passes spec parsing (it is just a number) but
  // runScenario rejects it; the campaign must record the failure and
  // keep going.
  const CampaignSpec spec = parseCampaignSpec(R"({
    "name": "poison",
    "base": { "duration": 5, "flowCount": 1, "sampleInterval": 5 },
    "axes": [ { "key": "hostCount", "values": [-5, 10] } ],
    "seeds": [1]
  })");
  const std::string path = tempPath("poison.jsonl");
  std::remove(path.c_str());

  CampaignOptions options;
  options.resultsPath = path;
  const CampaignOutcome outcome = campaign::runCampaign(spec, options);
  EXPECT_EQ(outcome.executed, 2u);
  EXPECT_EQ(outcome.failed, 1u);

  std::size_t okCount = 0;
  std::size_t errCount = 0;
  for (const std::string& line : sortedLines(path)) {
    const util::JsonValue record = util::parseJson(line);
    if (record.find("ok")->asBool()) {
      ++okCount;
    } else {
      ++errCount;
      EXPECT_FALSE(record.find("error")->asString().empty());
    }
  }
  EXPECT_EQ(okCount, 1u);
  EXPECT_EQ(errCount, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ecgrid

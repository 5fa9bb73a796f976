// Fleet-telemetry tests: the RunTelemetry JSONL stream (header, sampling
// cadence, summary record), the acceptance gate that arming telemetry
// leaves replay digests byte-identical, and the campaign live-status file
// (progress counts, wall percentiles, straggler flagging, resume
// arithmetic).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hpp"
#include "campaign/sweep_spec.hpp"
#include "harness/scenario.hpp"
#include "util/json.hpp"

namespace ecgrid {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignOutcome;
using campaign::parseCampaignSpec;

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "ecgrid_telemetry_" + name;
}

harness::ScenarioConfig smallConfig() {
  harness::ScenarioConfig config;
  config.hostCount = 12;
  config.duration = 8.0;
  config.flowCount = 1;
  config.sampleInterval = 4.0;
  config.seed = 7;
  return config;
}

std::vector<util::JsonValue> readJsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<util::JsonValue> records;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(util::parseJson(line));
  }
  return records;
}

double num(const util::JsonValue& record, const std::string& key) {
  const util::JsonValue* value = record.find(key);
  EXPECT_NE(value, nullptr) << "missing key " << key;
  return value->asNumber();
}

// --------------------------------------------------------------------------
// Telemetry stream shape

TEST(Telemetry, HeaderCadenceAndSummary) {
  const std::string path = tempPath("cadence.jsonl");
  harness::ScenarioConfig config = smallConfig();
  config.telemetryPath = path;
  config.telemetryEveryEvents = 256;

  const harness::ScenarioResult result = harness::runScenario(config);
  ASSERT_GT(result.telemetrySamples, 0u);

  const auto records = readJsonl(path);
  // Header + one record per sample + the final summary.
  ASSERT_EQ(records.size(), result.telemetrySamples + 2);

  const util::JsonValue& header = records.front();
  EXPECT_EQ(header.find("schema")->asString(), "ecgrid-telemetry");
  EXPECT_EQ(num(header, "version"), 1.0);
  EXPECT_EQ(num(header, "sample_every_events"), 256.0);

  double lastWall = -1.0, lastSim = -1.0;
  for (std::size_t i = 1; i + 1 < records.size(); ++i) {
    const util::JsonValue& sample = records[i];
    EXPECT_EQ(sample.find("kind")->asString(), "sample");
    // Samples land exactly on the committed-event cadence, in order.
    EXPECT_EQ(num(sample, "seq"), static_cast<double>(i));
    EXPECT_EQ(num(sample, "events"), static_cast<double>(i) * 256.0);
    EXPECT_GE(num(sample, "wall_s"), lastWall);
    EXPECT_GE(num(sample, "sim_t"), lastSim);
    lastWall = num(sample, "wall_s");
    lastSim = num(sample, "sim_t");
    EXPECT_GT(num(sample, "queue_depth"), 0.0);
    EXPECT_GE(num(sample, "peak_queue_depth"), num(sample, "queue_depth"));
    EXPECT_GT(num(sample, "slab_slots"), 0.0);
  }

  const util::JsonValue& summary = records.back();
  EXPECT_EQ(summary.find("kind")->asString(), "summary");
  EXPECT_EQ(num(summary, "samples"),
            static_cast<double>(result.telemetrySamples));
  EXPECT_EQ(num(summary, "events"),
            static_cast<double>(result.eventsExecuted));

  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Acceptance gate: arming telemetry cannot perturb the simulation

TEST(Telemetry, ReplayDigestsIdenticalWithTelemetryArmed) {
  harness::ScenarioConfig bare = smallConfig();
  bare.digestEveryEvents = 4096;
  const harness::ScenarioResult before = harness::runScenario(bare);
  ASSERT_FALSE(before.digestTrace.empty());

  harness::ScenarioConfig armed = bare;
  armed.telemetryPath = tempPath("digest.jsonl");
  armed.telemetryEveryEvents = 1024;  // denser than the digest cadence
  const harness::ScenarioResult after = harness::runScenario(armed);

  EXPECT_GT(after.telemetrySamples, 0u);
  EXPECT_EQ(before.digestTrace, after.digestTrace)
      << "telemetry perturbed the replay digest";
  EXPECT_EQ(before.eventsExecuted, after.eventsExecuted);
  EXPECT_GT(after.peakQueueDepth, 0u);
  EXPECT_GT(after.slabSlotsTotal, 0u);
  std::remove(armed.telemetryPath.c_str());
}

// --------------------------------------------------------------------------
// Campaign live status

const char* kStragglerSpec = R"({
  "name": "status",
  "base": {
    "hostCount": 12,
    "flowCount": 1,
    "sampleInterval": 4
  },
  "axes": [
    { "key": "duration", "values": [4, 6, 8, 400] }
  ],
  "seeds": [1]
})";

util::JsonValue readStatus(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return util::parseJson(text);
}

TEST(CampaignStatus, FlagsTheSlowConfigAsStraggler) {
  const std::string results = tempPath("straggler_results.jsonl");
  const std::string status = tempPath("straggler_status.json");
  std::remove(results.c_str());

  CampaignOptions options;
  options.resultsPath = results;
  options.statusPath = status;
  options.stragglerFactor = 3.0;
  options.jobs = 1;  // sequential: wall times are per-run, comparable

  const CampaignOutcome outcome =
      campaign::runCampaign(parseCampaignSpec(kStragglerSpec), options);
  EXPECT_EQ(outcome.executed, 4u);
  EXPECT_EQ(outcome.failed, 0u);

  const util::JsonValue state = readStatus(status);
  EXPECT_EQ(state.find("campaign")->asString(), "status");
  EXPECT_EQ(num(state, "total_runs"), 4.0);
  EXPECT_EQ(num(state, "executed"), 4.0);
  EXPECT_EQ(num(state, "remaining"), 0.0);
  EXPECT_EQ(num(state, "eta_seconds"), 0.0);
  EXPECT_TRUE(state.find("done")->asBool());
  EXPECT_EQ(num(*state.find("wall_seconds"), "completed"), 4.0);

  // duration=400 runs ~50x the 4..8 s configs: it must be flagged.
  const util::JsonArray& stragglers = state.find("stragglers")->asArray();
  ASSERT_GE(stragglers.size(), 1u);
  double worst = 0.0;
  for (const util::JsonValue& s : stragglers) {
    worst = std::max(worst, num(s, "ratio"));
    EXPECT_FALSE(s.find("fingerprint")->asString().empty());
    EXPECT_GT(num(s, "wall_seconds"), 0.0);
  }
  EXPECT_GE(worst, 3.0);

  std::remove(results.c_str());
  std::remove(status.c_str());
}

TEST(CampaignStatus, ResumeArithmeticAcrossInterruptedRun) {
  const std::string results = tempPath("resume_results.jsonl");
  const std::string status = tempPath("resume_status.json");
  std::remove(results.c_str());

  const campaign::CampaignSpec spec = parseCampaignSpec(R"({
    "name": "resume",
    "base": { "duration": 6, "hostCount": 12, "flowCount": 1,
              "sampleInterval": 4 },
    "axes": [ { "key": "protocol", "values": ["GRID", "ECGRID"] } ],
    "seeds": [1, 2]
  })");

  CampaignOptions options;
  options.resultsPath = results;
  options.statusPath = status;
  options.maxRuns = 2;  // simulate a mid-campaign kill after two runs

  const CampaignOutcome first = campaign::runCampaign(spec, options);
  EXPECT_EQ(first.executed, 2u);
  util::JsonValue state = readStatus(status);
  EXPECT_EQ(num(state, "executed"), 2.0);
  EXPECT_EQ(num(state, "remaining"), 2.0);
  EXPECT_FALSE(state.find("done")->asBool());

  options.maxRuns = -1;
  const CampaignOutcome second = campaign::runCampaign(spec, options);
  EXPECT_EQ(second.skipped, 2u);
  EXPECT_EQ(second.executed, 2u);
  state = readStatus(status);
  EXPECT_EQ(num(state, "skipped"), 2.0);
  EXPECT_EQ(num(state, "executed"), 2.0);
  EXPECT_EQ(num(state, "remaining"), 0.0);
  EXPECT_TRUE(state.find("done")->asBool());

  std::remove(results.c_str());
  std::remove(status.c_str());
}

}  // namespace
}  // namespace ecgrid

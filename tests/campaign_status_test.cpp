// Campaign live-status file: progress counts, wall percentiles, straggler
// flagging, and resume arithmetic across an interrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "campaign/campaign_runner.hpp"
#include "campaign/sweep_spec.hpp"
#include "util/json.hpp"

namespace ecgrid {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignOutcome;
using campaign::parseCampaignSpec;

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "ecgrid_campaign_status_" + name;
}

double num(const util::JsonValue& record, const std::string& key) {
  const util::JsonValue* value = record.find(key);
  EXPECT_NE(value, nullptr) << "missing key " << key;
  return value->asNumber();
}

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

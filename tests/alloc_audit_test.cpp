// Allocation-audit gate (src/check/alloc_audit, DESIGN.md §15).
//
// The phase/counter API is exercised in every build; the tests that need
// real allocation interception GTEST_SKIP() unless the binary was built
// with ECGRID_ALLOC_AUDIT (the `alloc-audit` preset), whose CI job runs
// this file with the counting operator new installed. The headline
// claims gated here:
//
//   * paper-baseline GRID / ECGRID / GAF scenarios execute their steady
//     phase with ZERO allocations inside hot scopes (event queue slabs,
//     schedule packing, channel fan-out are allocation-free once warm);
//   * the gate is live, not vacuous — an injected steady-state hot
//     allocation (the canary) trips it.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/alloc_audit.hpp"
#include "harness/scenario.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::harness {
namespace {

// One guaranteed trip through the global allocation functions. A plain
// `delete new int` is elidable under C++14 allocation-elision rules (and
// GCC does elide it at -O2), which would make the counter tests vacuous;
// direct calls to the allocation functions are not elidable.
void countedAllocation() { ::operator delete(::operator new(16)); }

ScenarioConfig auditBase() {
  ScenarioConfig config;  // paper §4 defaults: 100 hosts, 10 CBR flows
  config.duration = 240.0;
  config.allocAuditWarmup = 60.0;
  config.allocAuditGate = true;
  config.seed = 11;
  return config;
}

TEST(AllocAudit, PhaseRoundTripsInEveryBuild) {
  check::allocAuditReset();
  EXPECT_EQ(check::allocAuditPhase(), check::AllocPhase::kSetup);
  check::allocAuditSetPhase(check::AllocPhase::kWarmup);
  EXPECT_EQ(check::allocAuditPhase(), check::AllocPhase::kWarmup);
  check::allocAuditSetPhase(check::AllocPhase::kSteady);
  EXPECT_EQ(check::allocAuditPhase(), check::AllocPhase::kSteady);
  check::allocAuditReset();
  EXPECT_EQ(check::allocAuditPhase(), check::AllocPhase::kSetup);
  // Without the audit build the counters stay flat no matter what runs.
  if (!check::allocAuditCompiled()) {
    countedAllocation();  // would be counted if interception were live
    const check::AllocAuditCounts counts =
        check::allocAuditCounts(check::AllocPhase::kSetup);
    EXPECT_EQ(counts.allocations, 0u);
    EXPECT_EQ(counts.hotAllocations, 0u);
  }
}

TEST(AllocAudit, CountsAttributeToCurrentPhase) {
  if (!check::allocAuditCompiled()) GTEST_SKIP() << "needs alloc-audit build";
  check::allocAuditReset();

  check::allocAuditSetPhase(check::AllocPhase::kWarmup);
  const check::AllocAuditCounts warmup0 =
      check::allocAuditCounts(check::AllocPhase::kWarmup);
  countedAllocation();
  const check::AllocAuditCounts warmup1 =
      check::allocAuditCounts(check::AllocPhase::kWarmup);

  check::allocAuditSetPhase(check::AllocPhase::kSteady);
  const check::AllocAuditCounts steady0 =
      check::allocAuditCounts(check::AllocPhase::kSteady);
  countedAllocation();
  const check::AllocAuditCounts steady1 =
      check::allocAuditCounts(check::AllocPhase::kSteady);

  EXPECT_EQ(warmup1.allocations, warmup0.allocations + 1);
  EXPECT_EQ(warmup1.deallocations, warmup0.deallocations + 1);
  EXPECT_GE(warmup1.bytes, warmup0.bytes + 16);
  EXPECT_EQ(steady1.allocations, steady0.allocations + 1);
  // Phases are independent cells: the steady delete did not move warmup.
  const check::AllocAuditCounts warmup2 =
      check::allocAuditCounts(check::AllocPhase::kWarmup);
  EXPECT_EQ(warmup2.allocations, warmup1.allocations);
  check::allocAuditReset();
}

TEST(AllocAudit, HotScopeAttributionAndExemption) {
  if (!check::allocAuditCompiled()) GTEST_SKIP() << "needs alloc-audit build";
  check::allocAuditReset();
  check::allocAuditSetPhase(check::AllocPhase::kSteady);

  const check::AllocAuditCounts before =
      check::allocAuditCounts(check::AllocPhase::kSteady);
  countedAllocation();  // cold: counted, but not hot
  {
    util::HotPathScope hot;
    countedAllocation();  // hot
    {
      check::AllocExemptScope exempt;
      countedAllocation();  // hot scope open, but explicitly exempted
    }
    countedAllocation();  // hot again once the exemption closes
  }
  const check::AllocAuditCounts after =
      check::allocAuditCounts(check::AllocPhase::kSteady);

  EXPECT_EQ(after.allocations, before.allocations + 4);
  EXPECT_EQ(after.hotAllocations, before.hotAllocations + 2);
  check::allocAuditReset();
}

// The paper-baseline steady-state contract: once the warmup phase has
// grown the slabs and tables to their high-water marks, event dispatch
// for every protocol runs allocation-free inside hot scopes — with the
// gate armed, so a violation aborts the run instead of passing silently.
class AllocAuditSteadyState : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllocAuditSteadyState, ZeroHotAllocationsAfterWarmup) {
  if (!check::allocAuditCompiled()) GTEST_SKIP() << "needs alloc-audit build";
  ScenarioConfig config = auditBase();
  config.protocol = GetParam();
  ScenarioResult result = runScenario(config);  // gate armed: throws on hit
  EXPECT_TRUE(result.allocAudit.enabled);
  EXPECT_GT(result.allocAudit.setupAllocations, 0u);
  EXPECT_GT(result.allocAudit.warmupAllocations, 0u);
  EXPECT_EQ(result.allocAudit.steadyHotAllocations, 0u);
  // Cold allocations (protocol wire objects, table entries) are expected
  // and legitimate in steady state — the contract is about hot scopes.
  EXPECT_GT(result.allocAudit.steadyAllocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, AllocAuditSteadyState,
                         ::testing::Values(ProtocolKind::kGrid,
                                           ProtocolKind::kEcgrid,
                                           ProtocolKind::kGaf));

TEST(AllocAudit, CanaryTripsTheGate) {
  if (!check::allocAuditCompiled()) GTEST_SKIP() << "needs alloc-audit build";
  ScenarioConfig config = auditBase();
  config.hostCount = 40;
  config.duration = 90.0;
  config.allocAuditWarmup = 30.0;
  config.allocAuditInjectCanary = true;
  EXPECT_THROW(runScenario(config), std::logic_error);
}

TEST(AllocAudit, CanaryWithoutGateOnlyReports) {
  if (!check::allocAuditCompiled()) GTEST_SKIP() << "needs alloc-audit build";
  ScenarioConfig config = auditBase();
  config.hostCount = 40;
  config.duration = 90.0;
  config.allocAuditWarmup = 30.0;
  config.allocAuditInjectCanary = true;
  config.allocAuditGate = false;
  ScenarioResult result = runScenario(config);
  EXPECT_GE(result.allocAudit.steadyHotAllocations, 1u);
}

TEST(AllocAudit, NestedScenarioRunsResetThePhase) {
  if (!check::allocAuditCompiled()) GTEST_SKIP() << "needs alloc-audit build";
  ScenarioConfig config = auditBase();
  config.hostCount = 40;
  config.duration = 90.0;
  config.allocAuditWarmup = 30.0;
  ScenarioResult first = runScenario(config);
  // The first run ends with the thread in kSteady; a second run must
  // re-attribute its construction work to kSetup, not inherit the phase.
  ScenarioResult second = runScenario(config);
  EXPECT_GT(second.allocAudit.setupAllocations, 0u);
  EXPECT_EQ(second.allocAudit.setupAllocations,
            first.allocAudit.setupAllocations);
  EXPECT_EQ(second.allocAudit.steadyHotAllocations, 0u);
}

}  // namespace
}  // namespace ecgrid::harness

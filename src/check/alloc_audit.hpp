// alloc_audit — runtime verification gate for hot-path memory discipline.
//
// The lint rules (tools/ecgrid_lint: hot-path-allocation,
// hot-path-container-growth, layout-budget) prove by inspection that
// annotated regions do not allocate; this gate proves it by execution.
// Built with -DECGRID_ALLOC_AUDIT=ON (the `alloc-audit` preset), this TU
// replaces the global operator new/delete with counting versions that
// attribute every allocation to the current scenario phase
// (setup → warmup → steady, advanced by the harness) and flag it as
// *hot* when it fires inside an open ECGRID_HOT_SCOPE()
// (util/hot_path.hpp) — i.e. inside the event engines' push/pop/schedule
// machinery, the channel fan-out, or the radio reception path.
//
// The checked property is: after warmup, paper-baseline GRID/ECGRID/GAF
// scenarios execute with **zero hot allocations** — every event slot,
// heap entry, reception record, and scratch buffer is recycled, so
// city-scale runs cannot death-spiral on malloc. Whole-process zero is
// deliberately NOT the contract: protocol logic legitimately allocates
// (packet headers are shared_ptr-shared across broadcast fan-out, route
// tables grow on discovery); the discipline boundary is the annotated
// hot region, the same boundary the lint enforces.
//
// Without ECGRID_ALLOC_AUDIT everything here compiles to cheap no-ops
// (the counters exist but nothing increments them), so the harness can
// mark phases unconditionally.
//
// Counters are thread-local: parallel scenario workers audit their own
// runs without synchronisation. Read the report from the thread that ran
// the scenario (runScenario already does).
#pragma once

#include <cstdint>

namespace ecgrid::check {

/// Scenario phases for allocation attribution. The harness advances the
/// calling thread's phase; operator new reads it.
enum class AllocPhase : std::uint8_t { kSetup = 0, kWarmup = 1, kSteady = 2 };

struct AllocAuditCounts {
  std::uint64_t allocations = 0;    ///< operator new calls in the phase
  std::uint64_t deallocations = 0;  ///< operator delete calls in the phase
  std::uint64_t bytes = 0;          ///< sum of requested allocation sizes
  /// Allocations that fired while a hot scope was open — the gated
  /// quantity (must be zero in kSteady).
  std::uint64_t hotAllocations = 0;
};

/// True when the binary was built with ECGRID_ALLOC_AUDIT (i.e. the
/// counting operator new is live). Tests skip the gate otherwise.
bool allocAuditCompiled() noexcept;

/// Zero all phase counters and return the phase to kSetup. Call at
/// scenario entry so back-to-back runs on one thread (tests, benches,
/// campaign workers) never leak counts across scenarios.
void allocAuditReset() noexcept;

void allocAuditSetPhase(AllocPhase phase) noexcept;
AllocPhase allocAuditPhase() noexcept;

/// Counters accumulated for `phase` on the calling thread since the last
/// reset. All-zero when the audit is not compiled in.
AllocAuditCounts allocAuditCounts(AllocPhase phase) noexcept;

/// RAII: allocations inside the scope are still counted per phase but
/// not attributed as hot, even under an open hot scope. For the rare
/// justified allocation on an annotated path — slab high-water growth
/// beyond the constructor reserve, never steady-state churn. Pair every
/// use with a comment saying why, exactly like a lint allow().
class AllocExemptScope {
 public:
  AllocExemptScope() noexcept;
  ~AllocExemptScope();
  AllocExemptScope(const AllocExemptScope&) = delete;
  AllocExemptScope& operator=(const AllocExemptScope&) = delete;
};

}  // namespace ecgrid::check

// Parallel execution of independent scenarios.
//
// runScenario() is a pure function of its config: every run builds its
// own Simulator, Network, and RNG streams (ECGRID_DOMAIN_PER_SCENARIO —
// see util/ownership.hpp), and touches no global mutable state. Runs
// are therefore embarrassingly parallel, and executing them on a thread
// pool yields results bit-identical to the serial loop — results come
// back in input order, so callers' output (tables, CSVs) cannot tell the
// difference. The benches (through
// bench::runLabelled) and the campaign runner are its only callers.
//
// Shared state inside the pool is written at disjoint indices only:
// workers claim input slots through one atomic counter and each writes
// results[i]/failures[i] for the slots it claimed, so no lock (and no
// capability annotation) is needed — the joins publish everything.
#pragma once

#include <exception>
#include <vector>

#include "harness/scenario.hpp"

namespace ecgrid::harness {

/// Run every config through runScenario on up to `jobs` worker threads
/// and return the results in input order. `jobs <= 1` (or a single
/// config) degenerates to the plain serial loop on the calling thread.
/// Never rethrows scenario errors: every config is attempted, `failures`
/// is resized to the input size and failures[i] holds the exception
/// thrown by config i (or nullptr), with results[i] left
/// default-constructed on failure. Surviving results are byte-identical
/// to what a fully-successful sweep produces for the same configs — one
/// poisoned config cannot perturb its neighbours.
std::vector<ScenarioResult> runScenariosParallel(
    const std::vector<ScenarioConfig>& configs, unsigned jobs,
    std::vector<std::exception_ptr>& failures);

}  // namespace ecgrid::harness

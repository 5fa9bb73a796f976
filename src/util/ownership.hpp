// Ownership-domain tags — which part of the system owns an object.
//
// These macros say which *execution domain* owns a whole class. The
// domains are what keep a run reproducible and scenarios safe to run side
// by side on the parallel runner: a host learns about other hosts only
// through the medium, and nothing per-scenario is reachable from another
// scenario's thread. Two domains cover the repo (DESIGN.md §13); there is
// no process-wide mutable state to share between them, so no locks:
//
//   ECGRID_DOMAIN_PER_HOST      Owned by exactly one mobile host: the
//                               protocol stack, MAC, radio, battery,
//                               mobility model, per-host tables. May
//                               touch other hosts ONLY through the
//                               shared-medium interfaces (phy::Channel,
//                               phy::PagingChannel) or the HostEnv pager
//                               — never via a Node/HostEnv pointer to a
//                               remote host. tools/ecgrid_lint rule
//                               `cross-host-access` enforces this.
//
//   ECGRID_DOMAIN_PER_SCENARIO  Owned by one scenario run: Simulator,
//                               EventQueue, Network, Channel (with
//                               its fan-out grid), Observability sinks, stats
//                               recorders, fault injector. One instance
//                               per runScenario call; never shared
//                               between concurrent runs, so needs no
//                               locking — parallel workers each build
//                               their own.
//
// New mutable globals are rejected by the `shared-mutable-global` lint
// rule. The only static mutable state in src/ is thread_local (the
// allocation audit's counters): per thread by construction, not shared.
//
// The macros expand to nothing — they are declarative markers placed in
// the class head (`class ECGRID_DOMAIN_PER_HOST CsmaMac final ...`) so
// the domain census stays greppable:
//   grep -rn 'ECGRID_DOMAIN_' src/
#pragma once

#define ECGRID_DOMAIN_PER_HOST
#define ECGRID_DOMAIN_PER_SCENARIO

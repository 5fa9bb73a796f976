// Hot-path memory-discipline vocabulary (allocation lint + alloc audit).
//
// A small macro vocabulary that declares, at the source level, which
// code is on the per-event hot path and which structs sit one-per-host
// (or one-per-event) in city-scale runs. The static tier is consumed by
// tools/ecgrid_lint, which forbids heap traffic inside annotated
// regions; the runtime tier is compiled only under the `alloc-audit`
// preset (-DECGRID_ALLOC_AUDIT=ON), where
// src/check/alloc_audit.{hpp,cpp} counts every global operator new that
// fires while a hot scope is open and the harness gate asserts the
// steady-state count is zero.
//
// Static tier (always no-ops; greppable markers for the lint):
//
//   ECGRID_HOT_PATH            function-level marker: the body is a hot
//                              region. Place it on the definition, before
//                              the return type or trailing after the
//                              signature; the region is the brace block
//                              that follows.
//   ECGRID_HOT_PATH_BEGIN      explicit sub-function region markers, for
//   ECGRID_HOT_PATH_END        when only part of a long function is hot.
//   ECGRID_LAYOUT_BUDGET(Type, Bytes)
//                              static_assert(sizeof(Type) <= Bytes):
//                              per-host / per-event structs carry one so
//                              a field added casually cannot silently
//                              fatten 100k slots. The lint's
//                              `layout-budget` rule enforces presence on
//                              every type in LAYOUT_BUDGET_CENSUS
//                              (tools/ecgrid_lint), the one list of
//                              census'd types.
//
// Inside a hot region the lint's `hot-path-allocation` rule bans
// new / make_shared / make_unique / std::function construction /
// std::string temporaries, and `hot-path-container-growth` bans
// un-reserve()d push_back / emplace_back / map insertion. Exceptions are
// suppressed per line with `// ecgrid-lint: allow(<rule>)` plus a
// justification, same as every other rule.
//
// Runtime tier:
//
//   ECGRID_HOT_SCOPE()         RAII statement marking the current thread
//                              as executing hot-path code until end of
//                              scope. Expands to nothing unless
//                              ECGRID_ALLOC_AUDIT is defined, so the
//                              default build pays zero cost.
//   ECGRID_ALLOC_EXEMPT()      RAII statement: allocations until end of
//                              scope are counted but not attributed as
//                              hot, even inside an open hot scope. For
//                              the one legitimate allocation class on
//                              the hot path — amortised high-water slab
//                              growth past the constructor reserve —
//                              never steady-state churn. Pair every use
//                              with a justifying comment, exactly like
//                              a lint allow(). No-op outside audit
//                              builds.
#pragma once

#define ECGRID_HOT_PATH
#define ECGRID_HOT_PATH_BEGIN
#define ECGRID_HOT_PATH_END

#define ECGRID_LAYOUT_BUDGET(Type, Bytes)                                \
  static_assert(sizeof(Type) <= (Bytes),                                 \
                "layout budget exceeded: sizeof(" #Type ") > " #Bytes    \
                " bytes — trim the struct or renegotiate the budget in " \
                "DESIGN.md §15")

namespace ecgrid::util {

/// Nesting depth of open hot scopes on the calling thread. Thread-local
/// so parallel scenario workers audit independently. Defined in every
/// build (it is one int); only audit builds ever increment it.
inline int& hotPathDepth() noexcept {
  thread_local int depth = 0;  // ecgrid-lint: allow(shared-mutable-global)
  return depth;
}

/// RAII body behind ECGRID_HOT_SCOPE(). Instantiate via the macro, not
/// directly, so non-audit builds compile the scope away entirely.
class HotPathScope {
 public:
  HotPathScope() noexcept { ++hotPathDepth(); }
  ~HotPathScope() { --hotPathDepth(); }
  HotPathScope(const HotPathScope&) = delete;
  HotPathScope& operator=(const HotPathScope&) = delete;
};

/// Nesting depth of open allocation exemptions (ECGRID_ALLOC_EXEMPT and
/// check::AllocExemptScope both sit on this counter). Lives here rather
/// than in src/check because the exempted call sites are in src/sim,
/// which check depends on — not the other way round.
inline int& hotPathExemptDepth() noexcept {
  thread_local int depth = 0;  // ecgrid-lint: allow(shared-mutable-global)
  return depth;
}

/// RAII body behind ECGRID_ALLOC_EXEMPT(). Instantiate via the macro.
class HotPathExemptScope {
 public:
  HotPathExemptScope() noexcept { ++hotPathExemptDepth(); }
  ~HotPathExemptScope() { --hotPathExemptDepth(); }
  HotPathExemptScope(const HotPathExemptScope&) = delete;
  HotPathExemptScope& operator=(const HotPathExemptScope&) = delete;
};

}  // namespace ecgrid::util

#if defined(ECGRID_ALLOC_AUDIT)
#define ECGRID_HOT_SCOPE_CONCAT_INNER(a, b) a##b
#define ECGRID_HOT_SCOPE_CONCAT(a, b) ECGRID_HOT_SCOPE_CONCAT_INNER(a, b)
#define ECGRID_HOT_SCOPE()            \
  const ::ecgrid::util::HotPathScope \
      ECGRID_HOT_SCOPE_CONCAT(ecgridHotScope_, __LINE__)
#define ECGRID_ALLOC_EXEMPT()               \
  const ::ecgrid::util::HotPathExemptScope \
      ECGRID_HOT_SCOPE_CONCAT(ecgridAllocExempt_, __LINE__)
#else
#define ECGRID_HOT_SCOPE() static_cast<void>(0)
#define ECGRID_ALLOC_EXEMPT() static_cast<void>(0)
#endif

// ecgrid-lint-fixture-path: src/util/registry_example.cpp
// ecgrid-lint-fixture: expect-clean
// The sanctioned shapes: a thread-safe process-wide registry behind a
// justified allow(), const and constexpr statics, thread_local
// per-worker slots, and static member functions — none of which the
// rule should flag.
#include <atomic>

namespace ecgrid::util {

struct Registry {
  std::atomic<int> level{0};
};

Registry& registryStorage() {
  // Process-wide by design; all state inside is atomic.
  static Registry storage;  // ecgrid-lint: allow(shared-mutable-global)
  return storage;
}

static constexpr int kMaxTags = 32;
static const double kEpsilon = 1e-9;

const double*& clockSlot() {
  thread_local const double* clock = nullptr;
  return clock;
}

class Helper {
  static int parse(const char* text);
};

}  // namespace ecgrid::util

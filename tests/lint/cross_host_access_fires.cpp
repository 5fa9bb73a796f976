// ecgrid-lint-fixture-path: src/protocols/common/neighbor_peek.cpp
// ecgrid-lint-fixture: expect-violation(cross-host-access)
// Per-host protocol code holding a remote-host handle and dereferencing
// the network directly: both learn about another host without going
// through the medium. (Fixture is lint input only, never compiled.)
namespace ecgrid::protocols {

struct NeighborPeek {
  // A stored pointer to a host environment is a stashed *remote* host —
  // the own environment is held by reference.
  void* stash;

  void peek() {
    auto* remote = network_.findNode(7);
    remote->battery().drain(1.0);
  }
};

}  // namespace ecgrid::protocols

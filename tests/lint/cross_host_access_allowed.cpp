// ecgrid-lint-fixture-path: src/protocols/common/neighbor_peek_ok.cpp
// ecgrid-lint-fixture: expect-clean
// The same remote-host reaches as cross_host_access_fires.cpp, each with
// a justified suppression — the shape a reviewed exception takes (e.g. a
// debug-only audit helper that inspects remote state read-only and never
// feeds what it sees back into the protocol).
namespace ecgrid::protocols {

struct NeighborPeekAudit {
  void peek() {
    // Read-only diagnostic; the protocol never acts on it.
    // ecgrid-lint: allow(cross-host-access)
    auto* remote = network_.findNode(7);
    (void)remote;
    auto* env = remoteEnv();  // ecgrid-lint: allow(cross-host-access)
    (void)env;
  }

  // ecgrid-lint: allow(cross-host-access)
  net::HostEnv* remoteEnv();
};

}  // namespace ecgrid::protocols

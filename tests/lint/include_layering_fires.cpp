// ecgrid-lint-fixture-path: src/mac/promiscuous_mac.cpp
// ecgrid-lint-fixture: expect-violation(include-layering)
// A MAC reaching up the layer DAG: net/ aggregates (Node/Network) and
// the harness sit above mac, so these edges would weld the MAC to
// whole-network state that per-host code must not see.
#include "harness/scenario.hpp"
#include "net/network.hpp"

// Legal edges for contrast — the net *interface* headers and layers at
// or below mac do not fire:
#include "net/link_layer.hpp"
#include "net/packet.hpp"
#include "phy/radio.hpp"
#include "util/error.hpp"

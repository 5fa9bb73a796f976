// Radio power model (paper §4).
//
// The paper adopts the Span/Feeney–Nillsson measurements of a Cabletron
// Roamabout 802.11 DS card at 2 Mbps: transmit 1400 mW, receive 1000 mW,
// idle 830 mW, sleep 130 mW. Every host additionally pays 33 mW for its
// GPS receiver (all three protocols). The RAS pager's consumption is
// explicitly ignored by the paper and is therefore zero here.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "util/error.hpp"

namespace ecgrid::energy {

/// Power-relevant radio state. `Off` models a dead host (battery empty)
/// and draws nothing.
enum class PowerState : std::uint8_t {
  kTx,
  kRx,
  kIdle,
  kSleep,
  kOff,
};

inline const char* toString(PowerState s) {
  switch (s) {
    case PowerState::kTx:
      return "tx";
    case PowerState::kRx:
      return "rx";
    case PowerState::kIdle:
      return "idle";
    case PowerState::kSleep:
      return "sleep";
    case PowerState::kOff:
      return "off";
  }
  return "?";
}

struct PowerProfile {
  double txW = 1.400;
  double rxW = 1.000;
  double idleW = 0.830;
  double sleepW = 0.130;
  double gpsW = 0.033;

  /// Radio draw for a state, excluding GPS.
  double radioPowerW(PowerState state) const {
    switch (state) {
      case PowerState::kTx:
        return txW;
      case PowerState::kRx:
        return rxW;
      case PowerState::kIdle:
        return idleW;
      case PowerState::kSleep:
        return sleepW;
      case PowerState::kOff:
        return 0.0;
    }
    ECGRID_CHECK(false, "unreachable power state");
  }

  /// Total host draw: radio + GPS. A dead host draws nothing.
  double totalPowerW(PowerState state) const {
    return state == PowerState::kOff ? 0.0 : radioPowerW(state) + gpsW;
  }

  /// The largest total draw of any live state.
  double maxPowerW() const {
    double radio = txW;
    for (double w : {rxW, idleW, sleepW}) radio = w > radio ? w : radio;
    return radio + gpsW;
  }

  /// The exact numbers used throughout the paper's evaluation.
  static PowerProfile paperDefaults() { return PowerProfile{}; }
};

}  // namespace ecgrid::energy

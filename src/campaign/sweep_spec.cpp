#include "campaign/sweep_spec.hpp"

#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace ecgrid::campaign {

namespace {

/// Numbers in specs are counts, rates, and seeds; reject NaN/inf early so
/// fingerprints and configs stay well-defined.
double finiteNumber(const util::JsonValue& v, const std::string& key) {
  const double n = v.asNumber();
  ECGRID_REQUIRE(std::isfinite(n), "spec key '" + key + "' is not finite");
  return n;
}

int intNumber(const util::JsonValue& v, const std::string& key) {
  const double n = finiteNumber(v, key);
  ECGRID_REQUIRE(n == std::floor(n),
                 "spec key '" + key + "' must be an integer");
  return static_cast<int>(n);
}

std::uint64_t u64Number(const util::JsonValue& v, const std::string& key) {
  const double n = finiteNumber(v, key);
  ECGRID_REQUIRE(n >= 0.0 && n == std::floor(n),
                 "spec key '" + key + "' must be a non-negative integer");
  return static_cast<std::uint64_t>(n);
}

traffic::ArrivalKind arrivalsFromString(const std::string& s) {
  if (s == "poisson") return traffic::ArrivalKind::kPoisson;
  if (s == "pareto_on_off") return traffic::ArrivalKind::kParetoOnOff;
  throw std::invalid_argument(
      "unknown arrivals kind '" + s + "' (expected poisson | pareto_on_off)");
}

/// Shared between whole-class objects ("workload.classes") and the
/// per-field sweep form ("workload.class.<field>"). Returns false for a
/// field this setter does not know.
bool applyClassField(traffic::WorkloadClass& cls, const std::string& field,
                     const util::JsonValue& value, const std::string& key) {
  if (field == "name") {
    cls.name = value.asString();
  } else if (field == "arrivals") {
    cls.arrivals = arrivalsFromString(value.asString());
  } else if (field == "sessionsPerSecond") {
    cls.sessionsPerSecond = finiteNumber(value, key);
  } else if (field == "onMeanSeconds") {
    cls.onMeanSeconds = finiteNumber(value, key);
  } else if (field == "offMeanSeconds") {
    cls.offMeanSeconds = finiteNumber(value, key);
  } else if (field == "onOffShape") {
    cls.onOffShape = finiteNumber(value, key);
  } else if (field == "minFlowBytes") {
    cls.minFlowBytes = finiteNumber(value, key);
  } else if (field == "flowSizeShape") {
    cls.flowSizeShape = finiteNumber(value, key);
  } else if (field == "maxFlowBytes") {
    cls.maxFlowBytes = finiteNumber(value, key);
  } else if (field == "packetBytes") {
    cls.packetBytes = intNumber(value, key);
  } else if (field == "packetsPerSecond") {
    cls.packetsPerSecond = finiteNumber(value, key);
  } else if (field == "requestResponse") {
    cls.requestResponse = value.asBool();
  } else if (field == "responseBytes") {
    cls.responseBytes = finiteNumber(value, key);
  } else if (field == "sloSeconds") {
    cls.sloSeconds = finiteNumber(value, key);
  } else if (field == "abortAfterSeconds") {
    cls.abortAfterSeconds = finiteNumber(value, key);
  } else {
    return false;
  }
  return true;
}

traffic::WorkloadClass classFromJson(const util::JsonValue& value) {
  traffic::WorkloadClass cls;
  for (const auto& [field, fieldValue] : value.asObject()) {
    ECGRID_REQUIRE(applyClassField(cls, field, fieldValue,
                                   "workload.classes." + field),
                   "unknown workload class field '" + field + "'");
  }
  return cls;
}

/// Apply one non-class-array override. "workload.classes" is handled by
/// the caller first so "workload.class.<field>" (which sorts *before* it
/// in the std::map) always sees the final class list.
void applyKey(harness::ScenarioConfig& config, const std::string& key,
              const util::JsonValue& value) {
  // --- scenario scalars --------------------------------------------------
  if (key == "protocol") {
    const auto kind = harness::protocolFromString(value.asString());
    ECGRID_REQUIRE(kind.has_value(),
                   "unknown protocol '" + value.asString() + "'");
    config.protocol = *kind;
  } else if (key == "hostCount") {
    config.hostCount = intNumber(value, key);
  } else if (key == "fieldSize") {
    config.fieldSize = finiteNumber(value, key);
  } else if (key == "gridCellSide") {
    config.gridCellSide = finiteNumber(value, key);
  } else if (key == "radioRange") {
    config.radioRange = finiteNumber(value, key);
  } else if (key == "bitrateBps") {
    config.bitrateBps = finiteNumber(value, key);
  } else if (key == "batteryCapacityJ") {
    config.batteryCapacityJ = finiteNumber(value, key);
  } else if (key == "maxSpeed") {
    config.maxSpeed = finiteNumber(value, key);
  } else if (key == "pauseTime") {
    config.pauseTime = finiteNumber(value, key);
  } else if (key == "flowCount") {
    config.flowCount = intNumber(value, key);
  } else if (key == "packetsPerSecondPerFlow") {
    config.packetsPerSecondPerFlow = finiteNumber(value, key);
  } else if (key == "payloadBytes") {
    config.payloadBytes = intNumber(value, key);
  } else if (key == "trafficStart") {
    config.trafficStart = finiteNumber(value, key);
  } else if (key == "duration") {
    config.duration = finiteNumber(value, key);
  } else if (key == "sampleInterval") {
    config.sampleInterval = finiteNumber(value, key);
  } else if (key == "auditInvariants") {
    config.auditInvariants = value.asBool();
  } else if (key == "gafModelOne") {
    config.gafModelOne = value.asBool();
  } else if (key == "gafEndpointCount") {
    config.gafEndpointCount = intNumber(value, key);
  } else if (key == "interferenceRangeFactor") {
    config.interferenceRangeFactor = finiteNumber(value, key);
  } else if (key == "channelSpatialIndex") {
    config.channelSpatialIndex = value.asBool();
  } else if (key == "useLocationOracle") {
    config.useLocationOracle = value.asBool();
  } else if (key == "digestEveryEvents") {
    config.digestEveryEvents = u64Number(value, key);
    // --- workload plan ---------------------------------------------------
  } else if (key == "workload.clientPopulation") {
    config.workload.clientPopulation = intNumber(value, key);
  } else if (key == "workload.sinkCount") {
    config.workload.sinkCount = intNumber(value, key);
  } else if (key == "workload.startTime") {
    config.workload.startTime = finiteNumber(value, key);
  } else if (key == "workload.stopTime") {
    config.workload.stopTime = finiteNumber(value, key);
  } else if (key.rfind("workload.class.", 0) == 0) {
    const std::string field = key.substr(std::string("workload.class.").size());
    if (config.workload.classes.empty()) {
      config.workload.classes.emplace_back();  // sweeping arms the default
    }
    for (traffic::WorkloadClass& cls : config.workload.classes) {
      ECGRID_REQUIRE(applyClassField(cls, field, value, key),
                     "unknown workload class field '" + field + "'");
    }
  } else {
    throw std::invalid_argument("unknown campaign config key '" + key + "'");
  }
}

}  // namespace

std::size_t CampaignSpec::runCount() const {
  std::size_t count = seeds.size();
  for (const SweepAxis& axis : axes) count *= axis.values.size();
  return count;
}

CampaignSpec parseCampaignSpec(const std::string& jsonText) {
  const util::JsonValue doc = util::parseJson(jsonText);
  const util::JsonObject& root = doc.asObject();
  CampaignSpec spec;
  for (const auto& [key, value] : root) {
    if (key == "name") {
      spec.name = value.asString();
    } else if (key == "base") {
      spec.base = value.asObject();
    } else if (key == "axes") {
      for (const util::JsonValue& axisValue : value.asArray()) {
        SweepAxis axis;
        const util::JsonValue* axisKey = axisValue.find("key");
        const util::JsonValue* axisValues = axisValue.find("values");
        ECGRID_REQUIRE(axisKey != nullptr && axisValues != nullptr,
                       "each axis needs 'key' and 'values'");
        axis.key = axisKey->asString();
        axis.values = axisValues->asArray();
        ECGRID_REQUIRE(!axis.values.empty(),
                       "axis '" + axis.key + "' has no values");
        for (const auto& [field, ignored] : axisValue.asObject()) {
          (void)ignored;
          ECGRID_REQUIRE(field == "key" || field == "values",
                         "unknown axis field '" + field + "'");
        }
        spec.axes.push_back(std::move(axis));
      }
    } else if (key == "seeds") {
      for (const util::JsonValue& seed : value.asArray()) {
        spec.seeds.push_back(u64Number(seed, "seeds"));
      }
    } else {
      throw std::invalid_argument("unknown campaign spec field '" + key +
                                  "'");
    }
  }
  ECGRID_REQUIRE(!spec.name.empty(), "campaign spec needs a 'name'");
  ECGRID_REQUIRE(!spec.seeds.empty(), "campaign spec needs at least one seed");
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      ECGRID_REQUIRE(spec.axes[j].key != spec.axes[i].key,
                     "axis key '" + spec.axes[i].key + "' repeats");
    }
  }
  return spec;
}

std::string runFingerprint(const util::JsonObject& overrides,
                           std::uint64_t seed) {
  const std::string canonical =
      util::JsonValue(overrides).dump() + "\n" + std::to_string(seed);
  // FNV-1a 64 — same construction as check::stateDigest.
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : canonical) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::vector<RunSpec> expandCampaign(const CampaignSpec& spec) {
  std::vector<RunSpec> runs;
  runs.reserve(spec.runCount());
  std::vector<std::size_t> odometer(spec.axes.size(), 0);
  while (true) {
    util::JsonObject overrides = spec.base;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      overrides[spec.axes[a].key] = spec.axes[a].values[odometer[a]];
    }
    for (std::uint64_t seed : spec.seeds) {
      RunSpec run;
      run.overrides = overrides;
      run.seed = seed;
      run.fingerprint = runFingerprint(overrides, seed);
      runs.push_back(std::move(run));
    }
    // Odometer tick, last axis fastest.
    std::size_t a = spec.axes.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < spec.axes[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return runs;
    }
    if (spec.axes.empty()) return runs;
  }
}

harness::ScenarioConfig resolveConfig(const util::JsonObject& overrides,
                                      std::uint64_t seed) {
  harness::ScenarioConfig config;
  // Class list first: "workload.class.<field>" sorts before
  // "workload.classes" in the map, but must apply after it.
  if (auto it = overrides.find("workload.classes"); it != overrides.end()) {
    for (const util::JsonValue& cls : it->second.asArray()) {
      config.workload.classes.push_back(classFromJson(cls));
    }
  }
  for (const auto& [key, value] : overrides) {
    if (key == "workload.classes") continue;
    applyKey(config, key, value);
  }
  config.seed = seed;
  return config;
}

}  // namespace ecgrid::campaign

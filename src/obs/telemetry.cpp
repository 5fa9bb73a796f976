#include "obs/telemetry.hpp"

#include <chrono>  // ecgrid-lint: allow(banned-random)

#include "util/error.hpp"

namespace ecgrid::obs {

namespace {

/// Seconds on the monotonic clock. Reporting-only: wall time appears in
/// the stream but never feeds the simulation, so telemetry-armed runs
/// replay byte-identically — the same justification SimProfiler and the
/// bench timers carry for their lint allows.
double wallNowSeconds() {
  // ecgrid-lint: allow(banned-random)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

/// Minimal JSON string escaping for header meta (matches trace.cpp).
void writeEscaped(std::FILE* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", static_cast<unsigned char>(c));
    } else {
      std::fputc(c, out);
    }
  }
}

}  // namespace

RunTelemetry::RunTelemetry(sim::Simulator& sim, const std::string& path,
                           std::uint64_t sampleEveryEvents,
                           const std::map<std::string, std::string>& meta)
    : sim_(sim), sampleEvery_(sampleEveryEvents) {
  out_ = std::fopen(path.c_str(), "w");
  ECGRID_REQUIRE(out_ != nullptr, "cannot open telemetry output: " + path);
  std::fprintf(out_,
               "{\"schema\":\"ecgrid-telemetry\",\"version\":1,"
               "\"sample_every_events\":%llu",
               static_cast<unsigned long long>(sampleEvery_));
  for (const auto& [key, value] : meta) {
    std::fprintf(out_, ",\"");
    writeEscaped(out_, key.c_str());
    std::fprintf(out_, "\":\"");
    writeEscaped(out_, value.c_str());
    std::fprintf(out_, "\"");
  }
  std::fprintf(out_, "}\n");
  wallStart_ = wallNowSeconds();
  lastWall_ = wallStart_;
}

RunTelemetry::~RunTelemetry() {
  finish();
  if (out_ != nullptr) std::fclose(out_);
}

void RunTelemetry::writeHealthFields(double wallNow) {
  const std::uint64_t events = sim_.eventsExecuted();
  const double simTime = sim_.now();
  std::fprintf(out_,
               "\"events\":%llu,\"sim_t\":%.9f,\"wall_s\":%.6f,"
               "\"queue_depth\":%zu,\"peak_queue_depth\":%zu,"
               "\"slab_slots\":%zu",
               static_cast<unsigned long long>(events), simTime,
               wallNow - wallStart_, sim_.queueDepth(), sim_.peakQueueDepth(),
               sim_.slabSlotsTotal());
  const AllocSample alloc = allocSampler_ ? allocSampler_() : AllocSample{};
  std::fprintf(out_,
               ",\"alloc_phase\":\"%s\",\"alloc_count\":%llu,"
               "\"alloc_hot\":%llu",
               alloc.phase,
               static_cast<unsigned long long>(alloc.allocations),
               static_cast<unsigned long long>(alloc.hotAllocations));
}

void RunTelemetry::sample() {
  if (out_ == nullptr || finished_) return;
  const double wallNow = wallNowSeconds();
  const std::uint64_t events = sim_.eventsExecuted();
  const double simTime = sim_.now();
  // Interval rates since the previous sample (or construction). Wall
  // deltas can be ~0 on coarse clocks; rates degrade to 0 rather than
  // inf/NaN so downstream JSON parsing never sees a non-finite token.
  const double wallDelta = wallNow - lastWall_;
  const double eventsRate =
      wallDelta > 0.0
          ? static_cast<double>(events - lastEvents_) / wallDelta
          : 0.0;
  const double simRate =
      wallDelta > 0.0 ? (simTime - lastSimTime_) / wallDelta : 0.0;
  ++samples_;
  std::fprintf(out_, "{\"kind\":\"sample\",\"seq\":%llu,",
               static_cast<unsigned long long>(samples_));
  writeHealthFields(wallNow);
  std::fprintf(out_, ",\"events_per_wall_s\":%.3f,\"sim_per_wall\":%.6f}\n",
               eventsRate, simRate);
  lastWall_ = wallNow;
  lastEvents_ = events;
  lastSimTime_ = simTime;
}

void RunTelemetry::finish() {
  if (out_ == nullptr || finished_) return;
  const double wallNow = wallNowSeconds();
  const double wallTotal = wallNow - wallStart_;
  const std::uint64_t events = sim_.eventsExecuted();
  // Summary rates are run means (whole run over whole wall), unlike the
  // per-sample interval rates.
  const double eventsRate =
      wallTotal > 0.0 ? static_cast<double>(events) / wallTotal : 0.0;
  const double simRate = wallTotal > 0.0 ? sim_.now() / wallTotal : 0.0;
  std::fprintf(out_, "{\"kind\":\"summary\",\"samples\":%llu,",
               static_cast<unsigned long long>(samples_));
  writeHealthFields(wallNow);
  std::fprintf(out_, ",\"events_per_wall_s\":%.3f,\"sim_per_wall\":%.6f}\n",
               eventsRate, simRate);
  std::fflush(out_);
  finished_ = true;
}

}  // namespace ecgrid::obs

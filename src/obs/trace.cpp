#include "obs/trace.hpp"

#include "util/error.hpp"

namespace ecgrid::obs {

namespace {

/// Minimal JSON string escaping. Trace keys and values are controlled
/// short identifiers, but a stray quote or backslash must not corrupt
/// the stream.
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

EventTracer::EventTracer(sim::Simulator& sim, const std::string& path,
                         const std::map<std::string, std::string>& meta)
    : sim_(sim) {
  out_ = std::fopen(path.c_str(), "w");
  ECGRID_REQUIRE(out_ != nullptr, "cannot open event trace output: " + path);
  std::fprintf(out_, "{\"schema\":\"ecgrid-events\",\"version\":1");
  for (const auto& [key, value] : meta) {
    std::fprintf(out_, ",\"");
    writeEscaped(out_, key.c_str());
    std::fprintf(out_, "\":\"");
    writeEscaped(out_, value.c_str());
    std::fprintf(out_, "\"");
  }
  std::fprintf(out_, "}\n");
}

EventTracer::~EventTracer() {
  if (out_ != nullptr) std::fclose(out_);
}

void EventTracer::flush() {
  if (out_ != nullptr) std::fflush(out_);
}

void EventTracer::writeLine(const char* cat, const char* ev, const char* ph,
                            const std::uint64_t* id, int node,
                            std::initializer_list<TraceField> args) {
  std::fprintf(out_, "{\"t\":%.9f,\"cat\":\"", sim_.now());
  writeEscaped(out_, cat);
  std::fprintf(out_, "\",\"ev\":\"");
  writeEscaped(out_, ev);
  std::fprintf(out_, "\",\"ph\":\"%s\"", ph);
  if (id != nullptr) {
    std::fprintf(out_, ",\"id\":%llu", static_cast<unsigned long long>(*id));
  }
  std::fprintf(out_, ",\"node\":%d", node);
  if (args.size() > 0) {
    std::fprintf(out_, ",\"args\":{");
    bool first = true;
    for (const TraceField& field : args) {
      std::fprintf(out_, "%s\"", first ? "" : ",");
      writeEscaped(out_, field.key);
      std::fprintf(out_, "\":");
      switch (field.kind) {
        case TraceField::Kind::kInt:
          std::fprintf(out_, "%lld", field.intValue);
          break;
        case TraceField::Kind::kDouble:
          // Round-trip precision: an argument such as a reception's start
          // parses back to the very double it was, so it can be matched
          // against another record's time to the last bit.
          std::fprintf(out_, "%.17g", field.doubleValue);
          break;
        case TraceField::Kind::kBool:
          std::fputs(field.intValue != 0 ? "true" : "false", out_);
          break;
        case TraceField::Kind::kString:
          std::fprintf(out_, "\"");
          writeEscaped(out_, field.stringValue);
          std::fprintf(out_, "\"");
          break;
      }
      first = false;
    }
    std::fprintf(out_, "}");
  }
  std::fprintf(out_, "}\n");
  ++events_;
}

void EventTracer::begin(const char* cat, const char* ev, std::uint64_t id,
                        int node, std::initializer_list<TraceField> args) {
  writeLine(cat, ev, "b", &id, node, args);
}

void EventTracer::end(const char* cat, const char* ev, std::uint64_t id,
                      int node, std::initializer_list<TraceField> args) {
  writeLine(cat, ev, "e", &id, node, args);
}

void EventTracer::instant(const char* cat, const char* ev, int node,
                          std::initializer_list<TraceField> args) {
  writeLine(cat, ev, "i", nullptr, node, args);
}

void EventTracer::counter(const char* cat, const char* ev,
                          std::initializer_list<TraceField> args) {
  writeLine(cat, ev, "C", nullptr, -1, args);
}

}  // namespace ecgrid::obs

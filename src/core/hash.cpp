#include "core/hash.hpp"

#include <cstdio>

namespace mkbas::core {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t trace_hash(const sim::TraceLog& log) {
  std::uint64_t h = 14695981039346656037ULL;
  char buf[128];
  for (const auto& ev : log.events()) {
    std::snprintf(buf, sizeof buf, "%lld|%d|%s|",
                  static_cast<long long>(ev.time), ev.pid,
                  sim::to_string(ev.kind));
    h = fnv1a(buf, h);
    h = fnv1a(ev.what(), h);
    h = fnv1a("|", h);
    h = fnv1a(ev.detail, h);
    std::snprintf(buf, sizeof buf, "|%.17g\n", ev.value);
    h = fnv1a(buf, h);
  }
  return h;
}

BundleDigests digest(const obs::Bundle& b) {
  BundleDigests d;
  d.metrics = fnv1a(b.metrics->to_json());
  d.spans = fnv1a(b.spans->to_json());
  d.audit = fnv1a(b.audit->to_json());
  d.series = fnv1a(b.series->to_json());
  d.health = fnv1a(b.health->to_json());
  d.flight = fnv1a(b.flight->to_json());
  return d;
}

}  // namespace mkbas::core

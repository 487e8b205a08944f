#pragma once

#include <cstdint>
#include <string>

#include "obs/bundle.hpp"
#include "sim/trace.hpp"

namespace mkbas::core {

/// FNV-1a helpers shared by the campaign engine, the fabric driver,
/// benches and tests.
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 14695981039346656037ULL);

std::string hex64(std::uint64_t v);

/// FNV-1a over every trace event rendered as text. Renders tag *names*,
/// not interned ids: interning order depends on process-wide first-sight
/// order, which parallel execution must not observe.
std::uint64_t trace_hash(const sim::TraceLog& log);

/// FNV-1a of each store's JSON export: the `*_hash` fields of the
/// campaign and fabric summaries.
struct BundleDigests {
  std::uint64_t metrics = 0;
  std::uint64_t spans = 0;
  std::uint64_t audit = 0;
  std::uint64_t series = 0;
  std::uint64_t health = 0;
  std::uint64_t flight = 0;
};

BundleDigests digest(const obs::Bundle& b);

}  // namespace mkbas::core

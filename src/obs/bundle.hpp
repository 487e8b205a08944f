#pragma once

#include <memory>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/span.hpp"

namespace mkbas::obs {

/// The six per-machine observability stores as one value: metrics,
/// causal spans, the security audit journal, windowed series, the health
/// monitor and the flight recorder. Built and wired together — health
/// writes series and journals into audit with chains resolved against
/// spans; anomalies and denials trip the flight recorder — so a bundle
/// behaves the same whether a sim::Machine owns it or a reduction folds
/// into it.
///
/// The stores live behind owning pointers, so moving a bundle (a fabric
/// fold into its campaign cell, a cell result across pool threads)
/// keeps that wiring valid. A moved-from bundle holds nulls.
struct Bundle {
  Bundle();

  /// Fabric node index: part of the span-id derivation and the
  /// `<name>@m<id>` series keys. Set before anything registers.
  void set_machine(int id);

  /// Fold `other` into this bundle, store by store. Merges never fire
  /// the flight-recorder triggers; the bundle's own events do.
  void merge_from(const Bundle& other);

  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<SpanStore> spans;
  std::unique_ptr<AuditJournal> audit;
  std::unique_ptr<SeriesStore> series;
  std::unique_ptr<HealthMonitor> health;
  std::unique_ptr<FlightRecorder> flight;
};

}  // namespace mkbas::obs

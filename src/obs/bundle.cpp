#include "obs/bundle.hpp"

#include <string>

#include "sim/trace.hpp"

namespace mkbas::obs {

Bundle::Bundle()
    : metrics(std::make_unique<MetricsRegistry>()),
      spans(std::make_unique<SpanStore>()),
      audit(std::make_unique<AuditJournal>()),
      series(std::make_unique<SeriesStore>()),
      health(std::make_unique<HealthMonitor>()),
      flight(std::make_unique<FlightRecorder>()) {
  // Continuous-telemetry wiring: health signals write windowed series
  // and journal anomalies; the flight recorder snapshots recent
  // telemetry on anomalies, security denials and fault injections (the
  // fault injector triggers it directly).
  health->wire(series.get(), audit.get(), spans.get());
  flight->wire(series.get(), spans.get(), health.get());
  FlightRecorder* fr = flight.get();
  health->set_on_event([fr](const HealthEvent& e) {
    fr->trigger(e.time,
                "health." + sim::TagRegistry::instance().name(e.signal),
                to_string(e.kind));
  });
  audit->set_on_record([fr](const AuditEntry& e) {
    const std::string& kind = sim::TagRegistry::instance().name(e.kind);
    if (kind.find("deny") == std::string::npos) return;
    fr->trigger(e.time, "audit." + kind, e.detail);
  });
}

void Bundle::set_machine(int id) {
  spans->set_machine(id);
  series->set_machine(id);
  health->set_machine(id);
}

void Bundle::merge_from(const Bundle& other) {
  metrics->merge_from(*other.metrics);
  spans->merge_from(*other.spans);
  audit->merge_from(*other.audit);
  series->merge_from(*other.series);
  health->merge_from(*other.health);
  flight->merge_from(*other.flight);
}

}  // namespace mkbas::obs

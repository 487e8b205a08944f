#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mkbas::obs {

class MetricsRegistry;

/// Prometheus text exposition (version 0.0.4) over the standard metrics
/// registry. One producer: the serve daemon's /metrics scrape and the
/// `metrics_prom` artifact (a run's machine registry, or the fabric or
/// campaign bundle's merged one) both call `prometheus_render(reg)`, so
/// the same metric state is the same bytes on both paths.
///
/// Mapping: counters append the conventional `_total` suffix; gauges
/// pass through; histograms flatten to cumulative `_bucket{le="..."}`
/// samples plus `_sum`/`_count`, with `le="+Inf"` equal to the total
/// count (overflow included, so the configured bucket range is honest).
/// Bucket lines whose cumulative count equals the previous rendered one
/// are elided — the same empty-bucket elision the JSON export applies —
/// which keeps the scrape compact.

/// One histogram flattened to render-ready form. `bounds`/`cumulative`
/// are parallel and hold only the bounds worth a `_bucket` line (the
/// renderer still appends `+Inf`).
struct PromHistogram {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count = 0;  // total observations == the +Inf bucket
  double sum = 0.0;
};

/// Registry state flattened for rendering. Entries must be name-sorted
/// (std::map iteration and the sorted-key JSON artifact both are).
struct PromSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<PromHistogram> histograms;
};

/// Sanitize a registry name ("serve.http.latency_us") into a valid
/// Prometheus metric name ("serve_http_latency_us"): [a-zA-Z0-9_:] only,
/// leading digit prefixed with '_'.
std::string prometheus_name(const std::string& raw);

std::string prometheus_render(const PromSnapshot& snap);
std::string prometheus_render(const MetricsRegistry& reg);

}  // namespace mkbas::obs

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Version of the report layout (the full report line and the result
/// line). Bump when a metric changes meaning.
inline constexpr int kReportSchemaVersion = 1;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shortest decimal that round-trips the double (all its digits).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// Field `key` of a flat JSON object such as a fabric summary: a string
/// field's contents or a number's text ("" when absent).
std::string json_field(const std::string& json, const std::string& key);
/// json_field as an unsigned integer (0 when absent).
std::uint64_t json_uint(const std::string& json, const std::string& key);
/// Count of histogram `name` in a metrics-registry JSON export (0 when
/// absent).
std::uint64_t histogram_count(const std::string& metrics_json,
                              const std::string& name);

/// Peak resident set size of this process so far, MiB (VmHWM).
double peak_rss_mb();

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and the
/// part a hypervisor stole from this VM. Stolen time stretches every wall
/// time, so the full report states the share for the run.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
/// Stolen share of the host's CPU time between two readings.
double steal_frac(const CpuTicks& from, const CpuTicks& to);

/// What is being measured, and on what: cores, compiler, build type,
/// source revision. `default_build` is false for anything but the
/// repository's RelWithDebInfo without sanitizers.
struct Fingerprint {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool sanitized = false;
  std::string commit;
  bool default_build() const;
  std::string to_json() const;
};
Fingerprint host_fingerprint(const std::string& commit);

/// Collects one run's metrics and verdicts and renders the two output
/// lines: the full report (spreads, sample counts, fingerprint, notes)
/// and the final result line (correct, attempted, failed, metrics).
class Report {
 public:
  /// A metric with the within-run spread of the samples it was taken
  /// from (value = their median).
  void metric(const std::string& name, const std::string& unit,
              const Spread& s);
  /// A single measured value (counts, ratios, one-shot timings).
  void metric(const std::string& name, const std::string& unit, double v);
  /// Free-form context for the full report (raw JSON value).
  void note(const std::string& key, const std::string& json_value);

  void attempted(std::uint64_t n) { attempted_ += n; }
  /// `n` failed operations; the first 20 reasons go to stderr and the
  /// full report.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Attempt + check in one: counts one attempt, a failure unless `ok`.
  void check(bool ok, const std::string& why);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t failed_count() const { return failed_; }
  std::uint64_t attempted_count() const { return attempted_; }

  std::string report_line(const std::string& workload, std::uint64_t seed,
                          bool trace, const Fingerprint& fp) const;
  std::string result_line() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
    bool has_spread = false;
    Spread spread;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

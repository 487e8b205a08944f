#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::uint64_t histogram_count(const std::string& metrics_json,
                              const std::string& name) {
  // {"histograms":{"<name>":{"buckets":[...],"count":N,...}}}
  const std::size_t at = metrics_json.find("\"" + name + "\":{\"buckets\":[");
  if (at == std::string::npos) return 0;
  const std::size_t count = metrics_json.find("],\"count\":", at);
  if (count == std::string::npos) return 0;
  return std::strtoull(metrics_json.c_str() + count + 10, nullptr, 10);
}

std::string json_field(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return "";
  std::size_t b = at + tag.size();
  if (b < json.size() && json[b] == '"') {
    const std::size_t e = json.find('"', b + 1);
    return e == std::string::npos ? "" : json.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < json.size() && json[e] != ',' && json[e] != '}') ++e;
  return json.substr(b, e - b);
}

std::uint64_t json_uint(const std::string& json, const std::string& key) {
  return std::strtoull(json_field(json, key).c_str(), nullptr, 10);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already inside user and nice.
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

bool Fingerprint::default_build() const {
  return build_type == "RelWithDebInfo" && !sanitized;
}

std::string Fingerprint::to_json() const {
  return "{\"build_type\":" + json_string(build_type) +
         ",\"commit\":" + json_string(commit) +
         ",\"compiler\":" + json_string(compiler) +
         ",\"default_build\":" + (default_build() ? "true" : "false") +
         ",\"nproc\":" + std::to_string(nproc) +
         ",\"sanitized\":" + (sanitized ? "true" : "false") + "}";
}

Fingerprint host_fingerprint(const std::string& commit) {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = "gcc " __VERSION__;
#else
  fp.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  fp.build_type = PERFBENCH_BUILD_TYPE;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  fp.sanitized = true;
#endif
  fp.commit = commit.empty() ? "unknown" : commit;
  return fp;
}

void Report::metric(const std::string& name, const std::string& unit,
                    const Spread& s) {
  metrics_.push_back({name, unit, s.median, true, s});
}

void Report::metric(const std::string& name, const std::string& unit,
                    double v) {
  metrics_.push_back({name, unit, v, false, {}});
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (failures_.size() < 20) {
    failures_.push_back(why);
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
}

void Report::check(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) fail(why);
}

std::string Report::report_line(const std::string& workload,
                                std::uint64_t seed, bool trace,
                                const Fingerprint& fp) const {
  std::string s = "{\"perfbench_report\":{\"attempted\":" +
                  std::to_string(attempted_) +
                  ",\"failed\":" + std::to_string(failed_) +
                  ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) s += ",";
    s += json_string(failures_[i]);
  }
  s += "],\"host\":" + fp.to_json() + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i != 0) s += ",";
    s += json_string(e.name) + ":{\"unit\":" + json_string(e.unit) +
         ",\"value\":" + json_number(e.value);
    if (e.has_spread) {
      s += ",\"n\":" + std::to_string(e.spread.n) +
           ",\"q1\":" + json_number(e.spread.q1) +
           ",\"q3\":" + json_number(e.spread.q3);
    }
    s += "}";
  }
  s += "},\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i != 0) s += ",";
    s += json_string(notes_[i].first) + ":" + notes_[i].second;
  }
  s += "},\"schema_version\":" + std::to_string(kReportSchemaVersion) +
       ",\"seed\":" + std::to_string(seed) +
       ",\"trace\":" + (trace ? "true" : "false") +
       ",\"workload\":" + json_string(workload) + "}}";
  return s;
}

std::string Report::result_line() const {
  std::string s = std::string("{\"correct\":") +
                  (correct() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(attempted_) +
                  ",\"failed\":" + std::to_string(failed_) +
                  ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) s += ",";
    s += json_string(metrics_[i].name) +
         ":{\"value\":" + json_number(metrics_[i].value) +
         ",\"unit\":" + json_string(metrics_[i].unit) + "}";
  }
  return s + "}}";
}

}  // namespace perfbench

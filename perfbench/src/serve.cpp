// serve: an in-process experiment daemon (--jobs 2, tracing on) driven by
// one keep-alive HttpClient connection. It submits a new cell (a miss) on
// a fixed schedule, polls GET /result/<key> every 2 ms until it is ready,
// and fills every other moment with a closed loop of repeats of the
// primed keys (hits). Hits never reach the simulator; misses build the
// full deterministic bundle; both share the HTTP loop and the store.
//
// One connection, not two: with two client threads, the HTTP loop and the
// executor's workers oversubscribe the 4-core host, and the per-second
// throughput spread in a run rose from 6% to 15-22%.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/run_request.hpp"
#include "core/request.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/result_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace serve = mkbas::serve;

namespace {

constexpr int kDaemonJobs = 2;
constexpr auto kPollInterval = std::chrono::milliseconds(2);
/// One new cell per period (5 misses/s, ~20% of the daemon's two
/// workers), whatever the hits are doing. Every miss stays in the store
/// (~5 MB each), so the rate also sets peak RSS.
constexpr auto kMissPeriod = std::chrono::milliseconds(200);
/// Cells whose served bundles are byte-compared with a direct run.
constexpr std::size_t kSampledMisses = 2;

struct LoopStats {
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  std::vector<double> slice_rps;  // completed requests per 1-s slice
  std::uint64_t requests = 0;
  std::uint64_t polls = 0;
  std::vector<std::pair<ServeCell, std::string>> served;  // miss, summary
  /// Traced loops only: (start, end) of every request, host seconds —
  /// what recording a span per request costs is trace_overhead_frac.
  std::vector<std::pair<double, double>> spans;
};

/// A started daemon with its connection and a primed store.
struct Rig {
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<serve::HttpClient> client;
  std::vector<ServeCell> primed;
};

bool wait_ready(serve::HttpClient& c, const std::string& key_hex,
                std::string* body, std::string* err) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    serve::HttpResponse resp;
    if (!c.get("/result/" + key_hex, &resp, err)) return false;
    if (resp.status == 200) {
      *body = resp.body;
      return true;
    }
    if (resp.status != 202) {
      *err = "GET /result " + key_hex + " -> " + std::to_string(resp.status);
      return false;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  *err = "cell " + key_hex + " not ready within 60 s";
  return false;
}

bool is_hit(const serve::HttpResponse& resp, const ServeCell& cell) {
  return resp.status == 200 && json_field(resp.body, "key") == cell.key_hex &&
         json_field(resp.body, "status") == "ready";
}

/// Start a daemon, connect, execute the primed cells and warm the hit
/// path. Failures are counted in `rep`.
Rig make_rig(std::uint64_t seed, Report& rep) {
  Rig rig;
  rig.primed = primed_cells(seed);
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = kDaemonJobs;
  rig.daemon = std::make_unique<serve::Daemon>(opts);
  std::string err;
  rep.check(rig.daemon->start(&err), "serve: daemon start: " + err);
  rig.client = std::make_unique<serve::HttpClient>(rig.daemon->port());
  serve::HttpClient& c = *rig.client;
  serve::HttpResponse resp;
  rep.check(c.get("/status", &resp, &err) && resp.status == 200,
            "serve: connect: " + err);
  for (const ServeCell& cell : rig.primed) {
    rep.check(c.post("/run", cell.body, &resp, &err) && resp.status == 202,
              "serve: prime POST " + cell.key_hex + ": " + err);
  }
  for (const ServeCell& cell : rig.primed) {
    std::string body;
    rep.check(wait_ready(c, cell.key_hex, &body, &err), "serve: prime: " + err);
  }
  for (const ServeCell& cell : rig.primed) {
    rep.check(c.post("/run", cell.body, &resp, &err) && is_hit(resp, cell),
              "serve: warm-up hit " + cell.key_hex + ": " + err);
  }
  return rig;
}

/// The timed loop. `stream_id` picks the request stream, so a second loop
/// on the same daemon submits new cells.
LoopStats run_loop(Rig& rig, std::uint64_t seed, int stream_id,
                   double seconds, bool traced, Report& rep) {
  LoopStats st;
  serve::HttpClient& client = *rig.client;
  ServeStream stream(seed, stream_id, rig.primed.size());
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::vector<std::uint64_t> per_second(static_cast<std::size_t>(seconds) + 1,
                                        0);
  struct InFlight {
    ServeCell cell;
    Clock::time_point due;
    Clock::time_point next_poll;
  };
  std::vector<InFlight> inflight;
  Clock::time_point next_due = t0 + kMissPeriod / 2;
  std::string err;
  for (;;) {
    const auto start = Clock::now();
    if (start >= end) break;
    serve::HttpResponse resp;
    auto poll = std::find_if(inflight.begin(), inflight.end(),
                             [&](const InFlight& f) {
                               return f.next_poll <= start;
                             });
    if (start >= next_due) {
      // A new cell, due on the schedule: its latency counts from the due
      // time, so a late send is charged to the system.
      ServeCell cell = stream.next_miss();
      const Clock::time_point due = next_due;
      next_due += kMissPeriod;
      if (!client.post("/run", cell.body, &resp, &err) || resp.status != 202 ||
          json_field(resp.body, "key") != cell.key_hex ||
          json_field(resp.body, "status") != "queued") {
        rep.fail("serve: miss POST " + cell.key_hex + " -> " +
                 std::to_string(resp.status) + " " + err);
      } else {
        inflight.push_back({std::move(cell), due, start + kPollInterval});
      }
    } else if (poll != inflight.end()) {
      ++st.polls;
      const bool ok = client.get("/result/" + poll->cell.key_hex, &resp, &err);
      if (ok && resp.status == 200) {
        st.miss_ms.push_back(
            std::chrono::duration<double>(Clock::now() - poll->due).count() *
            1e3);
        st.served.emplace_back(std::move(poll->cell), std::move(resp.body));
        inflight.erase(poll);
      } else if (ok && resp.status == 202) {
        poll->next_poll = Clock::now() + kPollInterval;
      } else {
        rep.fail("serve: poll " + poll->cell.key_hex + " -> " +
                 std::to_string(resp.status) + " " + err);
        inflight.erase(poll);
      }
    } else {
      const ServeCell& cell = rig.primed[stream.next_hit()];
      const bool ok = client.post("/run", cell.body, &resp, &err);
      const double us = seconds_since(start) * 1e6;
      if (ok && is_hit(resp, cell)) {
        st.hit_us.push_back(us);
      } else {
        rep.fail("serve: hit POST " + cell.key_hex + " -> " +
                 std::to_string(resp.status) + " " + err);
      }
    }
    ++st.requests;
    const double at = std::chrono::duration<double>(Clock::now() - t0).count();
    if (traced) {
      st.spans.emplace_back(
          std::chrono::duration<double>(start - t0).count(), at);
    }
    const auto slice = static_cast<std::size_t>(at);
    if (slice < per_second.size()) ++per_second[slice];
  }
  rep.attempted(st.requests);
  // Cells still in flight finish untimed, so nothing is pending when the
  // daemon shuts down.
  for (const InFlight& f : inflight) {
    std::string body;
    rep.check(wait_ready(client, f.cell.key_hex, &body, &err),
              "serve: " + err);
  }
  // Whole one-second slices only; a run shorter than a second is one
  // partial slice.
  const auto whole = static_cast<std::size_t>(seconds);
  for (std::size_t i = 0; i < std::max<std::size_t>(whole, 1); ++i) {
    const double len = whole == 0 ? seconds : 1.0;
    st.slice_rps.push_back(static_cast<double>(per_second[i]) / len);
  }
  return st;
}

/// Byte-compare served bundles of a seeded sample of cells with a direct
/// run_request of the same canonical request; returns the bundle sizes.
std::vector<double> check_bundles(Rig& rig, const LoopStats& loop,
                                  std::uint64_t seed, Report& rep) {
  std::vector<std::pair<ServeCell, std::string>> sample;
  std::uint64_t rng = seed ^ 0x53616d70ULL;  // "Samp"
  for (std::size_t i = 0; i < kSampledMisses && !loop.served.empty(); ++i) {
    sample.push_back(loop.served[splitmix64(&rng) % loop.served.size()]);
  }
  sample.emplace_back(rig.primed[splitmix64(&rng) % rig.primed.size()], "");
  rep.check(!loop.served.empty(), "serve: no miss completed in the window");

  std::vector<double> sizes;
  serve::HttpClient& c = *rig.client;
  for (const auto& [cell, served_summary] : sample) {
    const core::ExperimentResponse direct =
        core::run_request(cell.request, core::all_deterministic_artifacts());
    double bytes = 0;
    for (const auto& [kind, text] : direct.artifacts) {
      serve::HttpResponse resp;
      std::string err;
      const bool ok =
          c.get("/result/" + cell.key_hex + "?artifact=" + kind, &resp, &err);
      rep.check(ok && resp.status == 200 && resp.body == text,
                "serve: served " + kind + " of " + cell.key_hex +
                    " differs from a direct run_request");
      bytes += static_cast<double>(text.size());
    }
    if (!served_summary.empty()) {
      rep.check(served_summary == direct.artifacts.at("summary"),
                "serve: polled summary of " + cell.key_hex +
                    " differs from a direct run_request");
    }
    sizes.push_back(bytes);
  }
  return sizes;
}

/// Mean of a Prometheus histogram from a /metrics scrape (sum / count).
double prom_mean(const std::string& text, const std::string& name) {
  auto value = [&](const std::string& series) {
    const std::size_t at = text.find("\n" + series + " ");
    return at == std::string::npos
               ? 0.0
               : std::strtod(text.c_str() + at + series.size() + 2, nullptr);
  };
  const double count = value(name + "_count");
  return count > 0 ? value(name + "_sum") / count : 0.0;
}

/// Request-path probes: JSON parse + cell key, a store submit on a primed
/// key, and a bare HTTP round trip on an unrouted path.
struct HitParts {
  double parse_us = 0.0;
  double store_ns = 0.0;
  double http_us = 0.0;
};

HitParts hit_parts(Rig& rig, Report& rep) {
  HitParts p;
  constexpr int kReps = 20000;
  std::vector<core::ExperimentRequest> reqs(rig.primed.size());
  const auto t0 = Clock::now();
  std::uint64_t keys = 0;
  int bad = 0;
  for (int i = 0; i < kReps; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % rig.primed.size();
    std::string err;
    if (!core::parse_request_json(rig.primed[k].body, &reqs[k], &err)) ++bad;
    keys += reqs[k].cell_key();
  }
  p.parse_us = seconds_since(t0) * 1e6 / kReps;
  rep.check(bad == 0 && keys != 0, "serve: primed request bodies do not parse");

  serve::ResultStore store;
  for (const auto& r : reqs) {
    store.submit(r);
    store.complete(r.cell_key(), serve::ResultBundle{});
  }
  const auto s0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    store.submit(reqs[static_cast<std::size_t>(i) % reqs.size()]);
  }
  p.store_ns = seconds_since(s0) * 1e9 / kReps;
  rep.check(store.hits() == static_cast<std::uint64_t>(kReps),
            "serve: primed store lookups were not all hits");

  std::vector<double> rtt;
  serve::HttpClient& c = *rig.client;
  for (int i = 0; i < 2000; ++i) {
    serve::HttpResponse resp;
    std::string err;
    const auto h0 = Clock::now();
    const bool ok = c.get("/perfbench-unrouted", &resp, &err);
    rtt.push_back(seconds_since(h0) * 1e6);
    if (!ok || resp.status != 404) {
      rep.fail("serve: unrouted GET did not answer 404");
      break;
    }
  }
  p.http_us = median(rtt);
  return p;
}

/// Every serve.* layer metric, from a finished loop on `rig`.
void serve_layers(Rig& rig, const LoopStats& loop,
                  const std::vector<double>& bundle_sizes, Report& rep,
                  double* hit_gap_frac) {
  const HitParts parts = hit_parts(rig, rep);
  rep.metric("core.request_parse_us", "us", parts.parse_us);
  rep.metric("serve.store_lookup_ns", "ns", parts.store_ns);
  rep.metric("serve.http_404_rtt_us", "us", parts.http_us);

  serve::HttpClient& c = *rig.client;
  serve::HttpResponse metrics, status;
  std::string err;
  rep.check(c.get("/metrics", &metrics, &err) && metrics.status == 200,
            "serve: GET /metrics failed");
  rep.check(c.get("/status", &status, &err) && status.status == 200,
            "serve: GET /status failed");
  rep.metric("serve.queue_wait_ms", "ms",
             prom_mean(metrics.body, "serve_queue_wait_us") / 1e3);
  rep.metric("serve.polls_per_miss", "count",
             loop.miss_ms.empty() ? 0.0
                                  : static_cast<double>(loop.polls) /
                                        static_cast<double>(loop.miss_ms.size()));
  rep.metric("serve.bundle_bytes", "bytes", spread(bundle_sizes));
  const double hits = static_cast<double>(json_uint(status.body, "hits"));
  const double misses = static_cast<double>(json_uint(status.body, "misses"));
  rep.metric("serve.hit_ratio", "ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  rep.metric("serve.coalesced", "count",
             static_cast<double>(json_uint(status.body, "coalesced")));
  rep.metric("serve.hit_p50_us", "us", percentile(loop.hit_us, 50));
  rep.metric("serve.hit_p99_us", "us", percentile(loop.hit_us, 99));
  rep.metric("serve.miss_p50_ms", "ms", percentile(loop.miss_ms, 50));
  rep.metric("serve.miss_p90_ms", "ms", percentile(loop.miss_ms, 90));
  rep.note("serve_samples",
           "{\"hits\":" + std::to_string(loop.hit_us.size()) +
               ",\"miss_tail_percentile\":" +
               json_number(tail_percentile(loop.miss_ms.size(),
                                           {50, 90, 99, 99.9})) +
               ",\"misses\":" + std::to_string(loop.miss_ms.size()) +
               ",\"hit_tail_percentile\":" +
               json_number(tail_percentile(loop.hit_us.size(),
                                           {50, 90, 99, 99.9})) + "}");
  if (hit_gap_frac != nullptr) {
    *hit_gap_frac = layer_sum_gap_frac(
        {parts.parse_us, parts.store_ns / 1e3, parts.http_us},
        percentile(loop.hit_us, 50));
  }
}

void shutdown_rig(Rig& rig) {
  rig.client.reset();
  rig.daemon->shutdown();
  rig.daemon.reset();
}

}  // namespace

void serve_workload(const Options& o, Report& rep) {
  // Set-up: daemon start, client connect, priming and hit warm-up,
  // timed kSetups times on fresh daemons; the last one serves the run.
  std::vector<double> setups;
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    if (rig.daemon) shutdown_rig(rig);
    const auto t0 = Clock::now();
    rig = make_rig(o.seed, rep);
    setups.push_back(seconds_since(t0));
  }

  const LoopStats loop = run_loop(rig, o.seed, 0, o.seconds, false, rep);
  const double rss = peak_rss_mb();
  const std::vector<double> sizes = check_bundles(rig, loop, o.seed, rep);
  rep.note("serve", "{\"jobs\":" + std::to_string(kDaemonJobs) +
                        ",\"misses\":" + std::to_string(loop.miss_ms.size()) +
                        ",\"primed\":" + std::to_string(rig.primed.size()) +
                        ",\"requests\":" + std::to_string(loop.requests) + "}");
  if (!o.trace) {
    rep.metric("setup_s", "s", spread(setups));
    rep.metric("throughput_per_s", "1/s", spread(loop.slice_rps));
    rep.metric("latency_p50_ms", "ms", spread(loop.miss_ms));
    rep.metric("peak_rss_mb", "MB", rss);
  } else {
    double gap = 0.0;
    serve_layers(rig, loop, sizes, rep, &gap);
    rep.metric("layer_sum_gap_frac", "ratio", gap);
    // The same loop with a span recorded around every request, on fresh
    // streams (so its misses are new cells), against the untraced loop.
    const double traced_s = std::max(1.0, o.seconds / 4);
    const LoopStats traced =
        run_loop(rig, o.seed, 1, traced_s, true, rep);
    const double untraced_hit = percentile(loop.hit_us, 50);
    rep.metric("trace_overhead_frac", "ratio",
               untraced_hit > 0
                   ? percentile(traced.hit_us, 50) / untraced_hit - 1.0
                   : 0.0);
  }
  shutdown_rig(rig);
}

void serve_probe(std::uint64_t seed, Report& rep) {
  Rig rig = make_rig(seed, rep);
  const LoopStats loop = run_loop(rig, seed, 0, 1.0, false, rep);
  const std::vector<double> sizes = check_bundles(rig, loop, seed, rep);
  serve_layers(rig, loop, sizes, rep, nullptr);
  shutdown_rig(rig);
}

}  // namespace perfbench

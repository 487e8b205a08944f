// Layer probes every traced run reports: one representative MINIX cell
// taken apart (scenario set-up, run, obs snapshot and exports, trace
// hash), fiber-switch and sendrec pingpongs, and direct executions of
// each serve miss kind.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bas/scenario.hpp"
#include "campaign/run_request.hpp"
#include "core/hash.hpp"
#include "minix/kernel.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/span.hpp"
#include "sim/fiber.hpp"
#include "sim/machine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace obs = mkbas::obs;
namespace sim = mkbas::sim;
namespace bas = mkbas::bas;
namespace minix = mkbas::minix;

namespace {

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// ---- representative cell -----------------------------------------------

/// Metric name -> value for one cell.
using CellSample = std::map<std::string, double>;

CellSample probe_cell(std::uint64_t seed, Report& rep) {
  CellSample s;
  sim::Machine m(seed);
  auto t0 = Clock::now();
  auto sc = bas::make_scenario(m, bas::Platform::kMinix, "temp");
  s["bas.setup_ms"] = ms_since(t0);
  t0 = Clock::now();
  m.run_until(sim::minutes(60));
  s["sim.run_ms"] = ms_since(t0);
  m.health().flush(m.now());

  // The per-cell snapshot the campaign takes: merge_from copies.
  t0 = Clock::now();
  {
    obs::MetricsRegistry metrics;
    obs::SpanStore spans;
    obs::AuditJournal audit;
    obs::SeriesStore series;
    obs::HealthMonitor health;
    obs::FlightRecorder flight;
    metrics.merge_from(m.metrics());
    spans.merge_from(m.spans());
    audit.merge_from(m.audit());
    series.merge_from(m.series());
    health.merge_from(m.health());
    flight.merge_from(m.flight());
  }
  s["obs.snapshot_ms"] = ms_since(t0);

  std::string metrics_json;
  auto export_one = [&](const char* name, auto&& to_json) {
    const auto e0 = Clock::now();
    std::string j = to_json();
    s[std::string("obs.export_ms.") + name] = ms_since(e0);
    s[std::string("obs.export_bytes.") + name] =
        static_cast<double>(j.size());
    return j;
  };
  metrics_json = export_one("metrics", [&] { return m.metrics().to_json(); });
  export_one("spans", [&] { return m.spans().to_json(); });
  export_one("audit", [&] { return m.audit().to_json(); });
  export_one("series", [&] { return m.series().to_json(); });
  export_one("health", [&] { return m.health().to_json(); });
  export_one("flight", [&] { return m.flight().to_json(); });

  t0 = Clock::now();
  const std::uint64_t th = core::trace_hash(m.trace());
  s["core.trace_hash_ms"] = ms_since(t0);
  s["sim.trace_events"] = static_cast<double>(m.trace().total_emitted());

  const double msgs =
      static_cast<double>(histogram_count(metrics_json, "minix.ipc.latency"));
  s["minix.ipc_msgs"] = msgs;
  s["sim.context_switches"] = static_cast<double>(m.context_switches());
  s["sim.kernel_entries"] = static_cast<double>(m.kernel_entries());
  s["sim.ns_per_msg"] = msgs > 0 ? s["sim.run_ms"] * 1e6 / msgs : 0.0;
  rep.check(msgs > 0 && th != 0, "probe: representative cell delivered no IPC");
  return s;
}

// ---- fiber pingpong ------------------------------------------------------

struct FiberPingPong {
  sim::FiberContext native;
  sim::FiberContext fiber;
  bool stop = false;
};

void pingpong_entry(unsigned hi, unsigned lo) {
  auto* p = reinterpret_cast<FiberPingPong*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  sim::fiber_on_entry(p->fiber);
  while (!p->stop) sim::fiber_switch(p->fiber, p->native);
  sim::fiber_switch_final(p->fiber, p->native);
}

/// Host nanoseconds per fiber_switch, over `rounds` there-and-back trips.
double fiber_switch_ns(int rounds) {
  sim::FiberStackPool stacks;
  auto p = std::make_unique<FiberPingPong>();
  sim::fiber_bind_native(p->native);
  void* stack = stacks.acquire();
  sim::fiber_create(p->fiber, stack, stacks.usable(), pingpong_entry, p.get());
  sim::fiber_switch(p->native, p->fiber);  // first entry
  const auto t0 = Clock::now();
  for (int i = 0; i < rounds; ++i) sim::fiber_switch(p->native, p->fiber);
  const double ns = seconds_since(t0) * 1e9 / (2.0 * rounds);
  p->stop = true;
  sim::fiber_switch(p->native, p->fiber);
  sim::fiber_destroy(p->fiber);
  stacks.release(stack);
  return ns;
}

// ---- MINIX sendrec pingpong ------------------------------------------------

/// Host nanoseconds per sendrec round trip between two processes with an
/// allow-all ACM row, over `window` of virtual time.
double sendrec_ns(std::uint64_t seed, sim::Duration window) {
  sim::Machine m(seed);
  m.trace().set_capacity(4096);
  m.spans().set_capacity(4096);
  minix::AcmPolicy acm;
  acm.allow_mask(10, 11, ~0ULL);
  acm.allow_mask(11, 10, ~0ULL);
  minix::MinixKernel k(m, acm);
  // Shared with the fibers, which the kernel's teardown may still run.
  auto trips = std::make_shared<std::uint64_t>(0);
  const minix::Endpoint server = k.srv_fork2("server", 10, [&k] {
    for (;;) {
      minix::Message msg;
      if (k.ipc_receive(minix::Endpoint::any(), msg) != minix::IpcResult::kOk) {
        continue;
      }
      minix::Message reply;
      k.ipc_senda(msg.source(), reply);
    }
  });
  k.srv_fork2("client", 11, [&k, server, trips] {
    for (;;) {
      minix::Message msg;
      msg.m_type = 1;
      if (k.ipc_sendrec(server, msg) == minix::IpcResult::kOk) ++*trips;
    }
  });
  const auto t0 = Clock::now();
  m.run_for(window);
  const double s = seconds_since(t0);
  return *trips > 0 ? s * 1e9 / static_cast<double>(*trips) : 0.0;
}

}  // namespace

void cell_probes(std::uint64_t seed, const std::vector<ServeCell>& cells,
                 Report& rep) {
  // Representative cell: median of three seeds.
  std::map<std::string, std::vector<double>> samples;
  for (std::uint64_t i = 0; i < 3; ++i) {
    for (const auto& [k, v] : probe_cell(seed + i, rep)) {
      samples[k].push_back(v);
    }
  }
  std::map<std::string, double> cell;
  for (const auto& [k, v] : samples) cell[k] = median(v);

  std::vector<double> fiber, ipc;
  for (int i = 0; i < 5; ++i) {
    fiber.push_back(fiber_switch_ns(100000));
    ipc.push_back(sendrec_ns(seed + static_cast<std::uint64_t>(i),
                             sim::msec(200)));
  }
  const double switch_ns = median(fiber);
  rep.check(switch_ns > 0 && median(ipc) > 0, "probe: pingpong made no trips");

  rep.metric("bas.setup_ms", "ms", cell["bas.setup_ms"]);
  rep.metric("sim.run_ms", "ms", cell["sim.run_ms"]);
  rep.metric("sim.ns_per_msg", "ns", cell["sim.ns_per_msg"]);
  for (const char* name : {"sim.context_switches", "sim.kernel_entries",
                           "minix.ipc_msgs", "sim.trace_events"}) {
    rep.metric(name, "count", cell[name]);
  }
  rep.metric("sim.fiber_switch_ns", "ns", spread(fiber));
  // Predicted share of the cell's run time spent switching fibers.
  rep.metric("sim.fiber_switch_share", "ratio",
             cell["sim.run_ms"] > 0
                 ? cell["sim.context_switches"] * switch_ns /
                       (cell["sim.run_ms"] * 1e6)
                 : 0.0);
  rep.metric("minix.sendrec_ns", "ns", spread(ipc));
  rep.metric("obs.snapshot_ms", "ms", cell["obs.snapshot_ms"]);
  for (const char* store :
       {"metrics", "spans", "audit", "series", "health", "flight"}) {
    rep.metric(std::string("obs.export_ms.") + store, "ms",
               cell[std::string("obs.export_ms.") + store]);
    rep.metric(std::string("obs.export_bytes.") + store, "bytes",
               cell[std::string("obs.export_bytes.") + store]);
  }
  rep.metric("core.trace_hash_ms", "ms", cell["core.trace_hash_ms"]);

  // Direct execution of each serve miss kind, every deterministic
  // artifact materialized — what the daemon's executor runs per miss.
  std::map<std::string, std::vector<double>> exec_ms;
  for (const ServeCell& c : cells) {
    const auto t0 = Clock::now();
    const auto resp =
        core::run_request(c.request, core::all_deterministic_artifacts());
    exec_ms[c.kind].push_back(ms_since(t0));
    rep.check(resp.artifacts.count("summary") == 1,
              "probe: direct " + c.kind + " run produced no summary");
  }
  for (const char* kind : {"benign", "attack", "fault"}) {
    rep.metric(std::string("serve.exec_ms.") + kind, "ms",
               spread(exec_ms[kind]));
  }
}

}  // namespace perfbench

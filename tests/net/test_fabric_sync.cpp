// The tentpole contract of the lookahead engine: per-link conservative
// sync must be OBSERVATIONALLY INVISIBLE. Whatever the sync mode
// (event-driven lookahead vs the legacy epoch barrier) and whatever the
// sharding (--jobs), a fabric replays byte-identical metrics, spans and
// traces from (topology, seed) — and no datagram ever lands in a node's
// past. This battery sweeps seeds x topologies through both engines and
// fuzzes randomized graphs against the causality and conservation
// invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fabric_run.hpp"
#include "core/hash.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace net = mkbas::net;
namespace sim = mkbas::sim;
namespace obs = mkbas::obs;
namespace core = mkbas::core;

using Service = net::BacnetMsg::Service;
using Kind = net::TopologySpec::Kind;

namespace {

/// Everything observable about one fabric run, reduced in node order.
struct Observation {
  std::string metrics_json;
  std::string spans_json;
  std::uint64_t trace_hash = 0;
  std::uint64_t posted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drop_loss = 0;
  std::uint64_t drop_partition = 0;
  std::uint64_t drop_overflow = 0;
  std::uint64_t drop_unroutable = 0;
  std::uint64_t pending = 0;
  std::uint64_t violations = 0;
  std::vector<sim::Time> sent_at;  // canonical capture order

  bool operator==(const Observation& o) const {
    return metrics_json == o.metrics_json && spans_json == o.spans_json &&
           trace_hash == o.trace_hash && posted == o.posted &&
           delivered == o.delivered && drop_loss == o.drop_loss &&
           drop_partition == o.drop_partition &&
           drop_overflow == o.drop_overflow &&
           drop_unroutable == o.drop_unroutable && pending == o.pending &&
           sent_at == o.sent_at;
  }
};

Observation observe(net::Fabric& fabric) {
  Observation ob;
  obs::MetricsRegistry merged;
  obs::SpanStore merged_spans;
  std::uint64_t chain = 14695981039346656037ULL;
  for (std::size_t n = 0; n < fabric.node_count(); ++n) {
    sim::Machine& m = fabric.machine(static_cast<int>(n));
    merged.merge_from(m.metrics());
    merged_spans.merge_from(m.spans());
    chain = core::fnv1a(core::hex64(core::trace_hash(m.trace())), chain);
  }
  ob.metrics_json = merged.to_json();
  ob.spans_json = merged_spans.to_json();
  ob.trace_hash = chain;
  ob.posted = fabric.posted();
  ob.delivered = fabric.delivered();
  ob.drop_loss = fabric.dropped_loss();
  ob.drop_partition = fabric.dropped_partition();
  ob.drop_overflow = fabric.dropped_overflow();
  ob.drop_unroutable = fabric.dropped_unroutable();
  ob.pending = fabric.pending();
  ob.violations = fabric.causality_violations();
  for (const net::BacnetMsg& m : fabric.sent_log()) {
    ob.sent_at.push_back(m.sent_at);
  }
  return ob;
}

void expect_conservation(const Observation& ob, const std::string& label) {
  EXPECT_EQ(ob.posted, ob.delivered + ob.drop_loss + ob.drop_partition +
                           ob.drop_overflow + ob.drop_unroutable +
                           ob.pending)
      << label;
  EXPECT_EQ(ob.violations, 0u) << label;
}

/// A synthetic workload over an arbitrary topology: one device per node,
/// COV subscriptions along every declared link, periodic property
/// updates with per-node phases, and writes hopping each declared link.
/// No kernels — this isolates the fabric engine itself.
Observation run_synthetic(Kind kind, std::uint64_t seed,
                          net::SyncMode sync, double loss = 0.05,
                          bool partition = false, int jobs = 1) {
  net::TopologySpec spec;
  spec.kind = kind;
  spec.zones = 6;
  spec.floors = 2;
  spec.buildings = kind == Kind::kCampus ? 2 : 1;
  const net::Topology topo = net::Topology::build(spec);
  const int n = kind == Kind::kFlat ? 6 : topo.node_count();

  net::Fabric fabric(seed);
  fabric.set_sync(sync);
  net::LinkProfile link;
  link.base = sim::msec(3);
  link.jitter = sim::msec(2);
  link.loss = loss;
  fabric.set_default_link(link);
  std::vector<std::unique_ptr<net::BacnetDevice>> devices;
  for (int i = 0; i < n; ++i) {
    fabric.add_node(seed * 977 + static_cast<std::uint64_t>(i));
    devices.push_back(std::make_unique<net::BacnetDevice>(
        1000 + static_cast<std::uint32_t>(i),
        "dev" + std::to_string(i)));
    devices.back()->set_property("v", 0.0);
    fabric.attach(i, *devices.back());
  }
  if (kind != Kind::kFlat) fabric.set_topology(topo);
  fabric.set_jobs(jobs);
  if (partition && n >= 3) {
    net::PartitionWindow w;
    w.node_a = n - 1;
    w.node_b = topo.links.empty() ? 0 : topo.links.back().first;
    w.from = sim::msec(400);
    w.to = sim::msec(900);
    fabric.add_partition(w);
  }

  // Wire subscriptions along the declared links (flat: a ring).
  std::vector<std::pair<int, int>> edges;
  if (kind == Kind::kFlat) {
    for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  } else {
    edges = topo.links;
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const int src = edges[e].first;
    const int dst = edges[e].second;
    fabric.machine(src).at(
        sim::msec(5) + static_cast<sim::Time>(e) * sim::msec(2),
        [&fabric, src, dst] {
          net::BacnetMsg sub;
          sub.service = Service::kSubscribeCov;
          sub.src_device = 1000 + static_cast<std::uint32_t>(src);
          sub.dst_device = 1000 + static_cast<std::uint32_t>(dst);
          sub.property = "v";
          fabric.post(src, sub);
        });
  }
  // Periodic updates (COV fan-out) plus a write along a rotating edge.
  for (int i = 0; i < n; ++i) {
    net::BacnetDevice* dev = devices[static_cast<std::size_t>(i)].get();
    sim::Machine& m = fabric.machine(i);
    auto tick = std::make_shared<int>(0);
    m.every(sim::msec(40) + i * sim::msec(7), sim::msec(50),
            [&fabric, dev, i, tick, edges] {
              dev->set_property(
                  "v", static_cast<double>(i) + 0.5 * (*tick)++);
              const auto& edge =
                  edges[static_cast<std::size_t>(*tick) % edges.size()];
              if (edge.first == i) {
                net::BacnetMsg w;
                w.service = Service::kWriteProperty;
                w.src_device = 1000 + static_cast<std::uint32_t>(i);
                w.dst_device =
                    1000 + static_cast<std::uint32_t>(edge.second);
                w.property = "v";
                w.value = 99.0;
                fabric.post(i, w);
              }
            });
  }
  fabric.run_until(sim::sec(2));
  return observe(fabric);
}

}  // namespace

// --- the A/B property: lookahead == epoch, byte for byte -----------------

TEST(FabricSync, SixteenSeedSweepByteIdenticalAcrossModes) {
  const Kind kinds[] = {Kind::kLine, Kind::kStar, Kind::kTree,
                        Kind::kCampus};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (Kind kind : kinds) {
      // The campus arm doubles as the partitioned topology: two island
      // components plus an in-building partition window.
      const bool part = kind == Kind::kCampus;
      const Observation look =
          run_synthetic(kind, seed, net::SyncMode::kLookahead, 0.05, part);
      const Observation epoch =
          run_synthetic(kind, seed, net::SyncMode::kEpoch, 0.05, part);
      const std::string label = std::string(to_string(kind)) + " seed " +
                                std::to_string(seed);
      EXPECT_GT(look.delivered, 0u) << label;
      EXPECT_TRUE(look == epoch) << label;
      expect_conservation(look, label + " (lookahead)");
      expect_conservation(epoch, label + " (epoch)");
    }
  }
}

TEST(FabricSync, RunFabricTreeByteIdenticalAcrossModes) {
  // Full stack: kernels, proxies, hierarchy, attack — both engines must
  // reproduce every artifact byte for byte.
  core::FabricOptions opts;
  opts.zones = 6;
  opts.topology = Kind::kTree;
  opts.floors = 2;
  opts.seed = 23;
  opts.duration = sim::minutes(6);
  opts.attack = core::FabricAttack::kFlood;
  opts.attack_at = sim::minutes(4);
  opts.link.loss = 0.02;

  opts.sync = net::SyncMode::kLookahead;
  const auto look = core::run_fabric(opts);
  opts.sync = net::SyncMode::kEpoch;
  const auto epoch = core::run_fabric(opts);

  EXPECT_GT(look.delivered, 0u);
  EXPECT_EQ(look.trace_hash, epoch.trace_hash);
  EXPECT_EQ(look.merged.metrics->to_json(), epoch.merged.metrics->to_json());
  EXPECT_EQ(look.merged.spans->to_json(), epoch.merged.spans->to_json());
  EXPECT_EQ(look.merged.audit->to_json(), epoch.merged.audit->to_json());
  EXPECT_EQ(look.merged.health->to_json(), epoch.merged.health->to_json());
  EXPECT_EQ(look.delivered, epoch.delivered);
  EXPECT_EQ(look.causality_violations, 0u);
  EXPECT_EQ(epoch.causality_violations, 0u);
}

// --- causality / conservation fuzzer -------------------------------------

TEST(FabricSync, FuzzedTopologiesHoldCausalityAndConservation) {
  // Randomized graphs, profiles and traffic: no delivery may land in a
  // node's past, and every posted datagram must be accounted for.
  for (std::uint64_t round = 0; round < 24; ++round) {
    sim::Rng rng(0xFADED00 + round);
    const int n = 3 + static_cast<int>(rng.next_below(8));

    net::Topology topo;
    for (int i = 0; i < n; ++i) {
      topo.add_node(net::NodeRole::kZone, i == 0 ? -1 : 0, 0);
    }
    // A random tree keeps most nodes reachable; extra random edges add
    // cycles; leaving node n-1 out sometimes creates an island.
    for (int i = 1; i < n; ++i) {
      if (i == n - 1 && rng.next_below(3) == 0) continue;  // island
      topo.add_duplex(static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(i))),
                      i);
    }
    const std::uint64_t extra = rng.next_below(4);
    for (std::uint64_t e = 0; e < extra; ++e) {
      topo.add_link(
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))),
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
    }

    net::Fabric fabric(round * 31 + 7);
    net::LinkProfile def;
    def.base = sim::msec(1 + static_cast<sim::Duration>(rng.next_below(6)));
    def.jitter = static_cast<sim::Duration>(rng.next_below(3000));
    def.loss = 0.1 * static_cast<double>(rng.next_below(3));
    fabric.set_default_link(def);
    std::vector<std::unique_ptr<net::BacnetDevice>> devices;
    for (int i = 0; i < n; ++i) {
      fabric.add_node(round * 131 + static_cast<std::uint64_t>(i));
      devices.push_back(std::make_unique<net::BacnetDevice>(
          1000 + static_cast<std::uint32_t>(i),
          "dev" + std::to_string(i)));
      fabric.attach(i, *devices.back());
    }
    fabric.set_topology(topo);
    // Per-link overrides, including sub-millisecond bases to stress the
    // 1-microsecond lookahead floor.
    for (const auto& [a, b] : topo.links) {
      if (rng.next_below(2) == 0) continue;
      net::LinkProfile p;
      p.base = static_cast<sim::Duration>(rng.next_below(9000));
      p.jitter = static_cast<sim::Duration>(rng.next_below(2000));
      p.loss = 0.05 * static_cast<double>(rng.next_below(4));
      fabric.set_link(a, b, p);
    }
    if (rng.next_below(2) == 0) {
      net::PartitionWindow w;
      w.node_a = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      w.node_b = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      w.from = static_cast<sim::Time>(rng.next_below(500000));
      w.to = w.from + static_cast<sim::Time>(rng.next_below(500000));
      fabric.add_partition(w);
    }

    // Random traffic: each node periodically writes to a random device
    // id — sometimes unattached, sometimes unroutable, sometimes itself.
    for (int i = 0; i < n; ++i) {
      sim::Machine& m = fabric.machine(i);
      const std::uint32_t dst = 1000 + static_cast<std::uint32_t>(
                                           rng.next_below(
                                               static_cast<std::uint64_t>(
                                                   n + 2)));
      const sim::Duration period =
          sim::msec(10) +
          static_cast<sim::Duration>(rng.next_below(40000));
      m.every(period, period, [&fabric, i, dst] {
        net::BacnetMsg w;
        w.service = Service::kWriteProperty;
        w.src_device = 1000 + static_cast<std::uint32_t>(i);
        w.dst_device = dst;
        w.property = "v";
        w.value = 1.0;
        fabric.post(i, w);
      });
    }
    fabric.run_until(sim::sec(1));
    const Observation ob = observe(fabric);
    expect_conservation(ob, "fuzz round " + std::to_string(round));
    EXPECT_GT(ob.posted, 0u) << "fuzz round " << round;
  }
}

// --- link-state map: flat hashed keys, no iteration-order leakage --------

TEST(FabricSync, LinkInsertionOrderCannotPerturbTheRun) {
  // Two fabrics with identical link profiles declared in opposite
  // orders: the per-link RNG streams are seeded from (seed, src, dst)
  // and the only whole-map walk (the epoch quantum) is a min — so every
  // observable must match, in both sync modes.
  for (const net::SyncMode sync :
       {net::SyncMode::kLookahead, net::SyncMode::kEpoch}) {
    Observation obs_ab, obs_ba;
    for (int order = 0; order < 2; ++order) {
      net::Fabric fabric(99);
      fabric.set_sync(sync);
      const int a = fabric.add_node(1);
      const int b = fabric.add_node(2);
      const int c = fabric.add_node(3);
      net::BacnetDevice da(1000, "a");
      net::BacnetDevice db(1001, "b");
      net::BacnetDevice dc(1002, "c");
      fabric.attach(a, da);
      fabric.attach(b, db);
      fabric.attach(c, dc);
      net::LinkProfile fast;
      fast.base = sim::msec(2);
      fast.jitter = sim::msec(1);
      fast.loss = 0.2;
      net::LinkProfile slow;
      slow.base = sim::msec(9);
      slow.jitter = sim::msec(4);
      slow.loss = 0.1;
      if (order == 0) {
        fabric.set_link(a, b, fast);
        fabric.set_link(a, c, slow);
        fabric.set_link(b, c, fast);
      } else {
        fabric.set_link(b, c, fast);
        fabric.set_link(a, c, slow);
        fabric.set_link(a, b, fast);
      }
      for (int src : {a, b}) {
        sim::Machine& m = fabric.machine(src);
        m.every(sim::msec(10), sim::msec(10), [&fabric, src] {
          net::BacnetMsg w;
          w.service = Service::kWriteProperty;
          w.src_device = 1000 + static_cast<std::uint32_t>(src);
          w.dst_device = static_cast<std::uint32_t>(1001 + src);
          w.property = "v";
          w.value = 5.0;
          fabric.post(src, w);
        });
      }
      fabric.run_until(sim::sec(1));
      (order == 0 ? obs_ab : obs_ba) = observe(fabric);
    }
    EXPECT_GT(obs_ab.delivered, 0u);
    EXPECT_GT(obs_ab.drop_loss, 0u);  // the lossy profiles actually fired
    EXPECT_TRUE(obs_ab == obs_ba);
  }
}

// --- hierarchy: per-tier COV batching and segmentation -------------------

TEST(FabricSync, TreeBatchesCovPerTierWithTierHistograms) {
  core::FabricOptions opts;
  opts.zones = 8;
  opts.topology = Kind::kTree;
  opts.floors = 2;
  opts.seed = 9;
  opts.duration = sim::minutes(8);
  const auto r = core::run_fabric(opts);

  // Zones fan into the floor head-ends...
  EXPECT_GT(r.floor_covs, 0u);
  // ...which push ONE averaged value per flush period upstream: far
  // fewer tier-2 notifications than absorbed zone samples.
  EXPECT_GT(r.cov_count, r.floor_covs);  // total = zone->floor + floor->bldg
  const std::uint64_t floor_to_building = r.cov_count - r.floor_covs;
  EXPECT_GT(floor_to_building, 0u);
  EXPECT_LT(floor_to_building, r.floor_covs);
  // Both per-tier latency histograms populated in the merged export.
  EXPECT_NE(r.merged.metrics->to_json().find("fabric.cov.zone_to_floor_us"),
            std::string::npos);
  EXPECT_NE(r.merged.metrics->to_json().find("fabric.cov.floor_to_building_us"),
            std::string::npos);
  EXPECT_EQ(r.causality_violations, 0u);
  EXPECT_EQ(r.topology, "tree");
}

TEST(FabricSync, TreeSegmentationContainsTheSpoof) {
  core::FabricOptions opts;
  opts.zones = 6;
  opts.topology = Kind::kTree;
  opts.floors = 2;
  opts.seed = 4;
  opts.duration = sim::minutes(14);
  opts.attack = core::FabricAttack::kSpoofWrite;
  opts.attack_at = sim::minutes(10);
  const auto r = core::run_fabric(opts);

  // Flat fabric: the bare Linux zones fall to the spoof. Tree fabric:
  // there is no zone-to-zone wire, so even the Linux zones never see
  // the forged write — containment by segmentation, not by crypto.
  for (const auto& row : r.rows) {
    EXPECT_FALSE(row.attack_delivered) << "zone " << row.zone;
  }
  EXPECT_GT(r.drop_unroutable, 0u);
}

TEST(FabricSync, CampusShardsAcrossJobsByteIdentically) {
  core::FabricOptions opts;
  opts.zones = 12;
  opts.topology = Kind::kCampus;
  opts.floors = 2;
  opts.buildings = 3;
  opts.seed = 31;
  opts.duration = sim::minutes(5);
  opts.lite_zones = true;  // engine focus; kernels not needed here

  opts.jobs = 1;
  const auto seq = core::run_fabric(opts);
  opts.jobs = 4;
  const auto par = core::run_fabric(opts);

  EXPECT_GT(seq.delivered, 0u);
  EXPECT_EQ(seq.nodes, 3 + 6 + 12);  // heads + floors + zones
  EXPECT_EQ(seq.trace_hash, par.trace_hash);
  EXPECT_EQ(seq.merged.metrics->to_json(), par.merged.metrics->to_json());
  EXPECT_EQ(seq.merged.spans->to_json(), par.merged.spans->to_json());
  EXPECT_EQ(seq.merged.health->to_json(), par.merged.health->to_json());
  EXPECT_EQ(seq.causality_violations, 0u);
}

TEST(FabricSync, EpochModeStillDeliversTheBasics) {
  net::Fabric fabric(3);
  fabric.set_sync(net::SyncMode::kEpoch);
  const int a = fabric.add_node(1);
  const int b = fabric.add_node(2);
  net::BacnetDevice console(1, "console");
  net::BacnetDevice zone(100, "zone0");
  zone.set_property("zone.setpoint", 21.0);
  fabric.attach(a, console);
  fabric.attach(b, zone);

  fabric.machine(a).at(sim::msec(10), [&] {
    net::BacnetMsg w;
    w.service = Service::kWriteProperty;
    w.src_device = 1;
    w.dst_device = 100;
    w.property = "zone.setpoint";
    w.value = 24.5;
    fabric.post(a, w);
  });
  fabric.run_until(sim::msec(40));
  EXPECT_DOUBLE_EQ(zone.property("zone.setpoint"), 24.5);
  EXPECT_EQ(fabric.delivered(), 2u);  // write + ack
  EXPECT_EQ(fabric.causality_violations(), 0u);
}

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bas/scenario.hpp"
#include "net/fabric.hpp"
#include "obs/bundle.hpp"

namespace mkbas::core {

/// Network-level attacks mounted from a compromised zone controller —
/// the cross-controller ports of the paper's §IV.D vocabulary onto the
/// building fabric.
enum class FabricAttack {
  kNone,
  kSpoofWrite,  // forged WriteProperty to every other zone's setpoint
  kReplay,      // re-post captured operator datagrams verbatim
  kFlood,       // saturate the head-end's inbox (DoS)
};

const char* to_string(FabricAttack a);

/// One N-zone building: a supervisory head-end (fabric node 0) plus
/// `zones` zone controllers, each a full scenario on its own machine.
struct FabricOptions {
  int zones = 4;
  std::uint64_t seed = 1;
  sim::Duration duration = sim::minutes(30);
  /// Zone platforms cycle through this list (zone i -> mix[i % size]).
  /// The default mix puts the Linux baseline next to both microkernels so
  /// every run shows the contrast.
  std::vector<bas::Platform> mix = {bas::Platform::kLinux,
                                    bas::Platform::kMinix,
                                    bas::Platform::kSel4};
  FabricAttack attack = FabricAttack::kNone;
  sim::Time attack_at = sim::minutes(10);
  net::LinkProfile link{};
  std::vector<net::PartitionWindow> partitions;
  bas::ScenarioConfig scenario{};
  /// Fabric layout. kFlat keeps the legacy single segment (head-end on
  /// node 0, every zone one hop away). kTree/kCampus build the
  /// hierarchical supervisory plane — zones -> floor head-ends ->
  /// building head-end — with COV traffic batched and averaged at each
  /// tier and a one-way management downlink for setpoint writes.
  net::TopologySpec::Kind topology = net::TopologySpec::Kind::kFlat;
  int floors = 1;     // floor head-ends per building (tree/campus)
  int buildings = 1;  // independent buildings (campus)
  /// Conservative lookahead sync (default) or the legacy lockstep
  /// barrier — byte-identical exports either way.
  net::SyncMode sync = net::SyncMode::kLookahead;
  /// Shard independent buildings across this many pool workers.
  /// Exports are --jobs invariant.
  int jobs = 1;
  /// Gateway-only zones: deterministic synthetic temperatures instead
  /// of a full kernel scenario per zone — the only way 10k zones fit.
  bool lite_zones = false;
  /// Attacker-visible packet capture (Fabric::sent_log); the replay
  /// attack needs it, city-scale benchmarks turn it off.
  bool capture = true;
  /// Fabric-level trace events (fabric.deliver / fabric.drop).
  bool net_trace = true;
  /// Fold every node's obs::Bundle into the result. Off: scalar fields
  /// still populate, the merged bundle stays empty — city runs skip the
  /// 10k-store fold.
  bool collect = true;
  /// Causal span tracing + audit journal (off = the A/B baseline arm).
  bool trace_spans = true;
  /// Fires before teardown, with every machine still alive.
  std::function<void(net::Fabric&)> observe;
};

/// Per-zone outcome row of the cross-controller attack matrix.
struct FabricZoneRow {
  int zone = 0;
  bas::Platform platform = bas::Platform::kLinux;
  std::string label;      // platform name, "+proxy" when BACnet-guarded
  bool proxied = false;   // microkernel zones sit behind the secure proxy
  /// The attacker's forged value reached the zone controller.
  bool attack_delivered = false;
  double final_setpoint_c = 0.0;
  double final_temp_c = 0.0;
  std::uint64_t proxy_rejected_tag = 0;
  std::uint64_t proxy_rejected_replay = 0;
};

struct FabricRunResult {
  int zones = 0;
  FabricAttack attack = FabricAttack::kNone;
  std::string topology;  // layout name ("flat", "tree", "campus", ...)
  int nodes = 0;         // fabric nodes (head-ends + zones)
  std::vector<FabricZoneRow> rows;  // zone order
  std::uint64_t posted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drop_loss = 0;
  std::uint64_t drop_partition = 0;
  std::uint64_t drop_overflow = 0;
  std::uint64_t drop_unroutable = 0;
  /// Datagrams still in flight at teardown (conservation check:
  /// posted == delivered + drops + pending).
  std::uint64_t pending = 0;
  /// Deliveries that landed in a node's past — 0 or the sync is broken.
  std::uint64_t causality_violations = 0;
  /// Zone COV samples absorbed (batched) by floor head-ends.
  std::uint64_t floor_covs = 0;
  std::uint64_t cov_count = 0;
  /// p99 end-to-end COV latency, microseconds of virtual time (bucket
  /// upper bound; 0 when no COV arrived).
  double cov_p99_us = 0.0;
  /// FNV-1a chain over per-node trace hashes, in node order.
  std::uint64_t trace_hash = 0;
  /// Trace events emitted across all nodes.
  std::uint64_t trace_events = 0;
  /// Every node's bundle folded in node order (empty stores when
  /// opts.collect is off). Health detectors are flushed at opts.duration
  /// before the per-zone verdicts are journaled, so an attack that trips
  /// a detector is visible in the audit journal ahead of its verdict row.
  obs::Bundle merged;
};

/// Build the building, run it, and judge every zone. Deterministic: the
/// result (including the merged bundle and trace_hash) is a pure
/// function of opts. Zone machine seeds derive from opts.seed, so one
/// `--seed` value names the whole building's randomness.
FabricRunResult run_fabric(const FabricOptions& opts = {});

/// Aligned text table over the zone rows (the cross-controller attack
/// matrix of EXPERIMENTS.md §H).
std::string format_fabric_table(const FabricRunResult& r);

}  // namespace mkbas::core

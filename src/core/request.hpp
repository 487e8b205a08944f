#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "bas/scenario.hpp"
#include "core/fabric_run.hpp"
#include "net/topology.hpp"

namespace mkbas::core {

struct CliArgs;  // core/cli.hpp — the CLI front-end over this API

/// Every JSON artifact an experiment can materialize. The CLI maps each
/// kind to an output path; the daemon stores the whole bundle under the
/// request's cell key and serves kinds by name. kProfile/kProfileTrace
/// are host-wall-time diagnostics: they are produced on demand but never
/// cached (a cache must only hold deterministic bytes).
enum class ArtifactKind {
  kSummary = 0,  // --out: the mode's machine-readable summary JSON
  kMetrics,      // --metrics-out
  kTrace,        // --trace-out (Chrome trace events)
  kSpans,        // --trace-spans
  kAudit,        // --audit-out
  kCritical,     // --critical-out
  kSeries,       // --series-out
  kHealth,       // --health-out
  kFlight,       // --flight-out
  kMetricsProm,  // --metrics-prom-out (Prometheus text exposition)
  kProfile,      // --profile-out (campaign pool; never cached)
  kProfileTrace, // --profile-trace (campaign pool; never cached)
};
inline constexpr int kArtifactKinds = 12;

const char* to_string(ArtifactKind k);
bool parse_artifact_kind(const std::string& s, ArtifactKind* out);
bool artifact_is_deterministic(ArtifactKind k);

/// Which artifacts a front-end wants, and (CLI only) where each goes.
/// Replaces the dozen separate `*_out` strings CliArgs used to carry:
/// drivers iterate kinds instead of plumbing one field per file.
struct ArtifactRequest {
  std::array<std::string, kArtifactKinds> path{};  // "" = not requested

  std::string& operator[](ArtifactKind k) {
    return path[static_cast<std::size_t>(k)];
  }
  const std::string& operator[](ArtifactKind k) const {
    return path[static_cast<std::size_t>(k)];
  }
  bool wanted(ArtifactKind k) const { return !(*this)[k].empty(); }
  bool any() const;
  /// Bitmask over ArtifactKind for run_request's materialization set.
  unsigned mask() const;
};

/// Bit helpers for the materialization mask.
inline constexpr unsigned artifact_bit(ArtifactKind k) {
  return 1u << static_cast<unsigned>(k);
}
/// Every deterministic kind (what the daemon materializes and caches).
unsigned all_deterministic_artifacts();

/// The experiment modes the runner exposes. Campaign submodes are
/// first-class: "campaign.matrix" is a different computation than
/// "matrix" (it fans the same cells through the pool and additionally
/// merges artifacts), so it gets its own canonical name.
enum class RequestMode {
  kBenign,
  kAttack,
  kMatrix,
  kFault,
  kFabric,
  kCampaignMatrix,
  kCampaignSweep,
  kCampaignFault,
  kCampaignFabric,
};
inline constexpr int kRequestModes = 9;

const char* to_string(RequestMode m);
bool parse_request_mode(const std::string& s, RequestMode* out);

/// The wire spelling of a platform ("minix"/"sel4"/"linux") — what
/// parse_platform accepts and what canonical JSON must therefore emit.
/// bas::to_string() gives the display label ("MINIX3+ACM") instead.
const char* platform_name(bas::Platform p);

/// The canonical experiment request: one plain value type naming every
/// deterministic input of every runner mode. CLI flags and HTTP bodies
/// are both thin adapters onto this struct, so one request has exactly
/// one canonical JSON rendering and one 64-bit cell key — the unit the
/// content-addressable result cache is keyed by.
///
/// Canonical form: `to_canonical_json()` emits ALL canonical fields,
/// sorted by key, defaults included, numbers in their shortest decimal
/// form. Two requests are the same cell iff their canonical JSON (and
/// therefore their FNV-1a cell key) matches.
///
/// Two members are deliberately NOT canonical:
///  * `jobs` — an execution hint. Every artifact in this repo is
///    --jobs byte-invariant (the campaign determinism gates enforce it),
///    so parallelism must not split the cache.
///  * `artifacts` — where a front-end wants files written is a view
///    concern; the computation is the same.
struct ExperimentRequest {
  RequestMode mode = RequestMode::kBenign;
  bas::Platform platform = bas::Platform::kMinix;
  std::string scenario = "temp";   // bas::scenario_variants(platform)
  std::uint64_t seed = 1;
  int zones = 4;                   // fabric / campaign.fabric
  int seeds = 8;                   // campaign.sweep: sweep width
  net::TopologySpec::Kind topology = net::TopologySpec::Kind::kFlat;
  int floors = 1;
  int buildings = 1;
  net::SyncMode sync = net::SyncMode::kLookahead;
  bool lite = false;               // fabric: gateway-only zones
  std::string attack = "none";     // attack kind, mode-dependent grammar
  bool root = false;               // attack: root privilege
  bool quota = false;              // MINIX syscall quotas
  bool acl = false;                // Linux separate accounts + ACLs
  bool probe = true;               // fault: post-restart spoof probe
  std::string format = "table";    // matrix table rendering: table|csv|md

  // ---- execution hints / front-end concerns (not canonical) ----
  int jobs = 1;
  ArtifactRequest artifacts;

  /// All canonical fields, keys sorted, defaults included.
  std::string to_canonical_json() const;
  /// FNV-1a over to_canonical_json(): the cache cell key.
  std::uint64_t cell_key() const;
  std::string cell_key_hex() const;  // 16 hex digits, the URL form

  /// "" when the request names a runnable experiment; otherwise a
  /// field-level message ("'attack': 'kill' is not a fabric attack...").
  std::string validate() const;
};

/// Strict deserialization of a request body. Unknown fields are errors
/// (with a did-you-mean hint), type mismatches name the field, enum
/// fields name the offending value and the accepted set. Absent fields
/// take the documented defaults; validate() runs last. `jobs` is
/// accepted as an execution hint. Returns false and fills *err on any
/// failure; *out is default-initialized in that case.
bool parse_request_json(const std::string& json, ExperimentRequest* out,
                        std::string* err);

/// The CLI adapter: interpret one parsed flag set as a canonical
/// request. Returns false + *err when the combination does not name a
/// runnable experiment (the caller prints usage).
bool request_from_cli(const CliArgs& a, ExperimentRequest* out,
                      std::string* err);

/// "--attack kill" given "kil": nearest candidate within edit distance 3,
/// rendered as " (did you mean '--attack'?)"; empty when nothing close.
std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates);

}  // namespace mkbas::core

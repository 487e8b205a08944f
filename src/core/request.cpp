#include "core/request.hpp"

#include <algorithm>
#include <climits>
#include <vector>

#include "core/cli.hpp"
#include "core/hash.hpp"
#include "core/jsonv.hpp"
#include "obs/json.hpp"

namespace mkbas::core {

namespace {

const char* const kArtifactNames[kArtifactKinds] = {
    "summary", "metrics", "trace",        "spans",   "audit",
    "critical", "series", "health",       "flight",  "metrics_prom",
    "profile",  "profile_trace"};

const char* const kModeNames[kRequestModes] = {
    "benign",          "attack",         "matrix",
    "fault",           "fabric",         "campaign.matrix",
    "campaign.sweep",  "campaign.fault", "campaign.fabric"};

const char* sync_name(net::SyncMode m) {
  return m == net::SyncMode::kEpoch ? "epoch" : "lookahead";
}

bool parse_sync(const std::string& s, net::SyncMode* out) {
  if (s == "lookahead") {
    *out = net::SyncMode::kLookahead;
  } else if (s == "epoch") {
    *out = net::SyncMode::kEpoch;
  } else {
    return false;
  }
  return true;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string did_you_mean(const std::string& word,
                         const std::vector<std::string>& candidates) {
  std::size_t best = 4;  // suggestions beyond edit distance 3 mislead
  const std::string* pick = nullptr;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(word, c);
    if (d < best && d < std::max<std::size_t>(c.size(), 1)) {
      best = d;
      pick = &c;
    }
  }
  if (pick == nullptr) return "";
  return " (did you mean '" + *pick + "'?)";
}

const char* to_string(ArtifactKind k) {
  return kArtifactNames[static_cast<int>(k)];
}

bool parse_artifact_kind(const std::string& s, ArtifactKind* out) {
  for (int i = 0; i < kArtifactKinds; ++i) {
    if (s == kArtifactNames[i]) {
      *out = static_cast<ArtifactKind>(i);
      return true;
    }
  }
  return false;
}

bool artifact_is_deterministic(ArtifactKind k) {
  return k != ArtifactKind::kProfile && k != ArtifactKind::kProfileTrace;
}

bool ArtifactRequest::any() const {
  for (const auto& p : path) {
    if (!p.empty()) return true;
  }
  return false;
}

unsigned ArtifactRequest::mask() const {
  unsigned m = 0;
  for (int i = 0; i < kArtifactKinds; ++i) {
    if (!path[static_cast<std::size_t>(i)].empty()) m |= 1u << i;
  }
  return m;
}

unsigned all_deterministic_artifacts() {
  unsigned m = 0;
  for (int i = 0; i < kArtifactKinds; ++i) {
    if (artifact_is_deterministic(static_cast<ArtifactKind>(i))) m |= 1u << i;
  }
  return m;
}

const char* to_string(RequestMode m) {
  return kModeNames[static_cast<int>(m)];
}

const char* platform_name(bas::Platform p) {
  switch (p) {
    case bas::Platform::kMinix: return "minix";
    case bas::Platform::kSel4: return "sel4";
    case bas::Platform::kLinux: return "linux";
  }
  return "minix";
}

bool parse_request_mode(const std::string& s, RequestMode* out) {
  for (int i = 0; i < kRequestModes; ++i) {
    if (s == kModeNames[i]) {
      *out = static_cast<RequestMode>(i);
      return true;
    }
  }
  return false;
}

std::string ExperimentRequest::to_canonical_json() const {
  // Keys in sorted order, every canonical field present. The bytes of
  // this rendering ARE the cache identity — change it only with a
  // schema_version bump and a migration story for stored keys.
  std::string s = "{";
  s += "\"acl\":" + std::string(acl ? "true" : "false");
  s += ",\"attack\":\"" + obs::json_escape(attack) + "\"";
  s += ",\"buildings\":" + std::to_string(buildings);
  s += ",\"floors\":" + std::to_string(floors);
  s += ",\"format\":\"" + obs::json_escape(format) + "\"";
  s += ",\"lite\":" + std::string(lite ? "true" : "false");
  s += ",\"mode\":\"" + std::string(to_string(mode)) + "\"";
  s += ",\"platform\":\"" + std::string(platform_name(platform)) + "\"";
  s += ",\"probe\":" + std::string(probe ? "true" : "false");
  s += ",\"quota\":" + std::string(quota ? "true" : "false");
  s += ",\"root\":" + std::string(root ? "true" : "false");
  s += ",\"scenario\":\"" + obs::json_escape(scenario) + "\"";
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"seeds\":" + std::to_string(seeds);
  s += ",\"sync\":\"" + std::string(sync_name(sync)) + "\"";
  s += ",\"topology\":\"" + std::string(net::to_string(topology)) + "\"";
  s += ",\"zones\":" + std::to_string(zones);
  s += "}";
  return s;
}

std::uint64_t ExperimentRequest::cell_key() const {
  return fnv1a(to_canonical_json());
}

std::string ExperimentRequest::cell_key_hex() const {
  return hex64(cell_key());
}

std::string ExperimentRequest::validate() const {
  if (scenario.empty()) return "'scenario': must not be empty";
  // Fail closed on a variant some platform this mode builds lacks: the
  // single-platform modes build `platform`, the comparison modes (matrix,
  // fabric and the matrix/fault/fabric campaigns) build all three.
  const bool single = mode == RequestMode::kBenign ||
                      mode == RequestMode::kAttack ||
                      mode == RequestMode::kFault ||
                      mode == RequestMode::kCampaignSweep;
  for (const bas::Platform p :
       {bas::Platform::kMinix, bas::Platform::kSel4, bas::Platform::kLinux}) {
    if (single && p != platform) continue;
    const std::vector<std::string> known = bas::scenario_variants(p);
    if (std::find(known.begin(), known.end(), scenario) != known.end()) {
      continue;
    }
    std::string expected;
    for (const std::string& v : known) {
      expected += (expected.empty() ? "" : "|") + v;
    }
    return "'scenario': unknown value '" + scenario + "' for platform " +
           platform_name(p) + " (expected " + expected + ")" +
           did_you_mean(scenario, known);
  }
  if (zones < 1) return "'zones': must be >= 1";
  if (seeds < 1) return "'seeds': must be >= 1";
  if (floors < 1) return "'floors': must be >= 1";
  if (buildings < 1) return "'buildings': must be >= 1";
  if (jobs < 1) return "'jobs': must be >= 1";
  if (format != "table" && format != "csv" && format != "md") {
    return "'format': unknown value '" + format + "' (expected table|csv|md)";
  }
  switch (mode) {
    case RequestMode::kAttack: {
      attack::AttackKind k;
      if (!parse_attack_kind(attack, &k)) {
        return "'attack': unknown value '" + attack +
               "' (expected spoof-sensor|spoof-actuator|kill|fork-bomb|"
               "brute-force|flood)" +
               did_you_mean(attack,
                            {"spoof-sensor", "spoof-actuator", "kill",
                             "fork-bomb", "brute-force", "flood"});
      }
      break;
    }
    case RequestMode::kFabric:
    case RequestMode::kCampaignFabric: {
      FabricAttack f;
      if (!parse_fabric_attack(attack, &f)) {
        return "'attack': unknown value '" + attack +
               "' (expected none|spoof-write|replay|flood)" +
               did_you_mean(attack, {"none", "spoof-write", "replay",
                                     "flood"});
      }
      break;
    }
    default:
      if (attack != "none") {
        return std::string("'attack': mode '") + to_string(mode) +
               "' does not take an attack";
      }
      break;
  }
  return "";
}

namespace {

std::vector<std::string> request_field_names() {
  return {"acl",      "attack", "buildings", "floors", "format", "jobs",
          "lite",     "mode",   "platform",  "probe",  "quota",  "root",
          "scenario", "seed",   "seeds",     "sync",   "topology", "zones"};
}

bool want_bool(const std::string& key, const Json& v, bool* out,
               std::string* err) {
  if (!v.is_bool()) {
    *err = "'" + key + "': expected boolean, got " + to_string(v.kind);
    return false;
  }
  *out = v.boolean;
  return true;
}

bool want_string(const std::string& key, const Json& v, std::string* out,
                 std::string* err) {
  if (!v.is_string()) {
    *err = "'" + key + "': expected string, got " + to_string(v.kind);
    return false;
  }
  *out = v.text;
  return true;
}

bool want_int(const std::string& key, const Json& v, int* out,
              std::string* err) {
  if (!v.is_number() || !v.is_u64() || v.as_u64() > INT_MAX) {
    *err = "'" + key + "': expected a non-negative integer";
    return false;
  }
  *out = static_cast<int>(v.as_u64());
  return true;
}

}  // namespace

bool parse_request_json(const std::string& json, ExperimentRequest* out,
                        std::string* err) {
  *out = ExperimentRequest{};
  Json root;
  if (!json_parse(json, &root, err)) return false;
  if (!root.is_object()) {
    *err = std::string("request must be a JSON object, got ") +
           to_string(root.kind);
    return false;
  }
  ExperimentRequest r;
  for (const auto& [key, v] : root.members) {
    if (key == "mode") {
      std::string s;
      if (!want_string(key, v, &s, err)) return false;
      if (!parse_request_mode(s, &r.mode)) {
        *err = "'mode': unknown value '" + s + "'" +
               did_you_mean(s, std::vector<std::string>(
                                   kModeNames, kModeNames + kRequestModes));
        return false;
      }
    } else if (key == "platform") {
      std::string s;
      if (!want_string(key, v, &s, err)) return false;
      if (!parse_platform(s, &r.platform)) {
        *err = "'platform': unknown value '" + s +
               "' (expected minix|sel4|linux)" +
               did_you_mean(s, {"minix", "sel4", "linux"});
        return false;
      }
    } else if (key == "scenario") {
      if (!want_string(key, v, &r.scenario, err)) return false;
    } else if (key == "seed") {
      if (!v.is_number() || !v.is_u64()) {
        *err = "'seed': expected a non-negative integer";
        return false;
      }
      r.seed = v.as_u64();
    } else if (key == "zones") {
      if (!want_int(key, v, &r.zones, err)) return false;
    } else if (key == "seeds") {
      if (!want_int(key, v, &r.seeds, err)) return false;
    } else if (key == "floors") {
      if (!want_int(key, v, &r.floors, err)) return false;
    } else if (key == "buildings") {
      if (!want_int(key, v, &r.buildings, err)) return false;
    } else if (key == "jobs") {
      if (!want_int(key, v, &r.jobs, err)) return false;
    } else if (key == "topology") {
      std::string s;
      if (!want_string(key, v, &s, err)) return false;
      if (!net::parse_topology_kind(s, &r.topology)) {
        *err = "'topology': unknown value '" + s +
               "' (expected flat|line|star|tree|campus)" +
               did_you_mean(s, {"flat", "line", "star", "tree", "campus"});
        return false;
      }
    } else if (key == "sync") {
      std::string s;
      if (!want_string(key, v, &s, err)) return false;
      if (!parse_sync(s, &r.sync)) {
        *err = "'sync': unknown value '" + s +
               "' (expected lookahead|epoch)" +
               did_you_mean(s, {"lookahead", "epoch"});
        return false;
      }
    } else if (key == "lite") {
      if (!want_bool(key, v, &r.lite, err)) return false;
    } else if (key == "attack") {
      if (!want_string(key, v, &r.attack, err)) return false;
    } else if (key == "root") {
      if (!want_bool(key, v, &r.root, err)) return false;
    } else if (key == "quota") {
      if (!want_bool(key, v, &r.quota, err)) return false;
    } else if (key == "acl") {
      if (!want_bool(key, v, &r.acl, err)) return false;
    } else if (key == "probe") {
      if (!want_bool(key, v, &r.probe, err)) return false;
    } else if (key == "format") {
      if (!want_string(key, v, &r.format, err)) return false;
    } else {
      *err = "unknown field '" + key + "'" +
             did_you_mean(key, request_field_names());
      return false;
    }
  }
  const std::string bad = r.validate();
  if (!bad.empty()) {
    *err = bad;
    return false;
  }
  *out = r;
  return true;
}

bool request_from_cli(const CliArgs& a, ExperimentRequest* out,
                      std::string* err) {
  *out = ExperimentRequest{};
  ExperimentRequest r;
  err->clear();

  const std::string& mode = a.mode;
  if (mode == "benign") {
    r.mode = RequestMode::kBenign;
  } else if (mode == "attack") {
    r.mode = RequestMode::kAttack;
  } else if (mode == "matrix") {
    r.mode = RequestMode::kMatrix;
  } else if (mode == "fault") {
    r.mode = RequestMode::kFault;
  } else if (mode == "fabric") {
    r.mode = RequestMode::kFabric;
  } else if (mode == "campaign") {
    if (a.pos.empty()) {
      *err = "campaign needs a submode: campaign <matrix|sweep|fault|fabric>";
      return false;
    }
    const std::string& what = a.pos[0];
    if (what == "matrix") {
      r.mode = RequestMode::kCampaignMatrix;
    } else if (what == "sweep") {
      r.mode = RequestMode::kCampaignSweep;
    } else if (what == "fault") {
      r.mode = RequestMode::kCampaignFault;
    } else if (what == "fabric") {
      r.mode = RequestMode::kCampaignFabric;
    } else {
      *err = "unknown campaign submode '" + what + "'" +
             did_you_mean(what, {"matrix", "sweep", "fault", "fabric"});
      return false;
    }
  } else {
    *err = "unknown mode '" + mode + "'" +
           did_you_mean(mode, {"benign", "attack", "matrix", "fault",
                               "fabric", "campaign", "serve"});
    return false;
  }

  const bool needs_platform = r.mode == RequestMode::kBenign ||
                              r.mode == RequestMode::kAttack ||
                              r.mode == RequestMode::kFault ||
                              r.mode == RequestMode::kCampaignSweep;
  if (needs_platform && !a.has_platform) {
    *err = std::string("mode '") + to_string(r.mode) +
           "' needs --platform <minix|sel4|linux>";
    return false;
  }
  r.platform = a.platform;
  r.scenario = a.scenario;
  r.seed = a.seed;
  // The reference fault campaign historically pins seed 42; an explicit
  // --seed now overrides it instead of being silently dropped.
  if (r.mode == RequestMode::kCampaignFault && !a.has_seed) r.seed = 42;
  r.zones = a.zones;
  r.seeds = a.seeds;
  r.topology = a.topology;
  r.floors = a.floors;
  r.buildings = a.buildings;
  r.sync = a.sync;
  r.lite = a.lite;
  r.root = a.root;
  r.quota = a.quota;
  r.acl = a.acl;
  r.probe = !a.no_probe;
  r.format = a.format.empty() ? "table" : a.format;
  r.jobs = a.jobs;
  r.artifacts = a.artifacts;

  if (r.mode == RequestMode::kAttack) {
    if (!a.has_attack) {
      *err = "mode 'attack' needs --attack "
             "<spoof-sensor|spoof-actuator|kill|fork-bomb|brute-force|"
             "flood>";
      return false;
    }
    r.attack = a.attack;
  } else if (r.mode == RequestMode::kFabric ||
             r.mode == RequestMode::kCampaignFabric) {
    if (a.has_attack) r.attack = a.attack;
  } else if (a.has_attack) {
    *err = std::string("mode '") + to_string(r.mode) +
           "' does not take --attack";
    return false;
  }

  const std::string bad = r.validate();
  if (!bad.empty()) {
    *err = bad;
    return false;
  }
  *out = r;
  return true;
}

}  // namespace mkbas::core

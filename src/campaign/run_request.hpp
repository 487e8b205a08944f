#pragma once

#include <map>
#include <string>

#include "core/request.hpp"

namespace mkbas::core {

/// What a front-end gets back from one executed ExperimentRequest.
///
/// `artifacts` is the deterministic bundle — a pure function of the
/// request's canonical form, byte-identical however the request was
/// submitted (CLI flags, HTTP body) and however it was parallelized.
/// The daemon caches exactly this map under the request's cell key.
///
/// `table` is the human-readable text the CLI prints; it may carry host
/// wall-clock (campaign headers) and is therefore not part of the
/// bundle. Likewise `volatile_artifacts` (pool profiles): produced on
/// request, never cached.
struct ExperimentResponse {
  int exit_code = 0;
  std::string table;
  std::map<std::string, std::string> artifacts;           // kind name -> JSON
  std::map<std::string, std::string> volatile_artifacts;  // profile exports
};

/// Execute one canonical request — the single dispatcher behind every
/// experiment_runner subcommand and every daemon cache miss. `mask`
/// selects which ArtifactKinds to materialize (artifact_bit()); kinds a
/// mode cannot produce are silently absent from the result map.
/// Throws only what the underlying drivers throw (unknown scenario
/// variants, histogram bound mismatches); the daemon maps that to a 500.
ExperimentResponse run_request(const ExperimentRequest& req, unsigned mask);

/// Materialize what the request's own ArtifactRequest asks for (plus the
/// summary, which the CLI needs for --out and stdout).
ExperimentResponse run_request(const ExperimentRequest& req);

}  // namespace mkbas::core

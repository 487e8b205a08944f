#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace mkbas::core {

/// Machine-readable exports of experiment results, for pasting into
/// papers/dashboards (the text table in experiment.hpp stays the default
/// for terminals).

/// Attack matrix as CSV: header + one row per experiment.
std::string attack_rows_to_csv(const std::vector<AttackRow>& rows);

/// Attack matrix as a GitHub-flavoured markdown table.
std::string attack_rows_to_markdown(const std::vector<AttackRow>& rows);

/// Benign-run plant history as CSV (time_s, temp_c, heater, alarm).
std::string benign_history_to_csv(const BenignRun& run);

}  // namespace mkbas::core

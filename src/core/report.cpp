#include "core/report.hpp"

#include <sstream>

namespace mkbas::core {

namespace {

/// CSV-escape: quote when the field contains a comma or quote.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string attack_rows_to_csv(const std::vector<AttackRow>& rows) {
  std::ostringstream os;
  os << "attack,privilege,platform,primitive_succeeded,attempts,successes,"
        "physically_compromised,control_alive,temp_excursion,"
        "alarm_violation,spurious_alarm,min_temp_c,max_temp_c,detail\n";
  for (const auto& r : rows) {
    os << attack::to_string(r.kind) << ',' << attack::to_string(r.privilege)
       << ',' << csv_field(r.platform_label) << ','
       << (r.outcome.primitive_succeeded ? 1 : 0) << ','
       << r.outcome.attempts << ',' << r.outcome.successes << ','
       << (r.safety.physically_compromised() ? 1 : 0) << ','
       << (r.safety.control_alive ? 1 : 0) << ','
       << (r.safety.temp_excursion ? 1 : 0) << ','
       << (r.safety.alarm_violation ? 1 : 0) << ','
       << (r.safety.spurious_alarm ? 1 : 0) << ',' << r.safety.min_temp_c
       << ',' << r.safety.max_temp_c << ',' << csv_field(r.outcome.detail)
       << '\n';
  }
  return os.str();
}

std::string attack_rows_to_markdown(const std::vector<AttackRow>& rows) {
  std::ostringstream os;
  os << "| attack | privilege | platform | primitive | physical world |\n"
     << "|---|---|---|---|---|\n";
  for (const auto& r : rows) {
    os << "| " << attack::to_string(r.kind) << " | "
       << attack::to_string(r.privilege) << " | " << r.platform_label
       << " | " << (r.outcome.primitive_succeeded ? "**SUCCEEDED**" : "blocked")
       << " | " << r.safety.summary() << " |\n";
  }
  return os.str();
}

std::string benign_history_to_csv(const BenignRun& run) {
  std::ostringstream os;
  os << "time_s,true_temp_c,outdoor_c,heater_on,alarm_on\n";
  for (const auto& s : run.history) {
    os << sim::to_seconds(s.time) << ',' << s.true_temp_c << ','
       << s.outdoor_c << ',' << (s.heater_on ? 1 : 0) << ','
       << (s.alarm_on ? 1 : 0) << '\n';
  }
  return os.str();
}

}  // namespace mkbas::core

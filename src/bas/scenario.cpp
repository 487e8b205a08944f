#include "bas/scenario.hpp"

#include <stdexcept>

#include "aadl/parser.hpp"
#include "bas/bsl3_scenario.hpp"
#include "bas/bsl3_sel4_scenario.hpp"
#include "bas/linux_scenario.hpp"
#include "bas/linux_uds_scenario.hpp"
#include "bas/minix_scenario.hpp"
#include "bas/sel4_scenario.hpp"

namespace mkbas::bas {

const char* to_string(Platform p) {
  switch (p) {
    case Platform::kMinix:
      return "MINIX3+ACM";
    case Platform::kSel4:
      return "seL4/CAmkES";
    case Platform::kLinux:
      return "Linux";
  }
  return "?";
}

void ScenarioBase::poll_attack(bool* fired, const char* event,
                               const char* detail, camkes::Runtime* rt) {
  if (!attack_hook_ || *fired || attack_time_ < 0 ||
      machine_.now() < attack_time_) {
    return;
  }
  *fired = true;
  machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kAttack, event,
                        detail);
  attack_runtime_ = rt;
  attack_hook_(*this);
  attack_runtime_ = nullptr;
}

aadl::CompiledSystem compile_model(const char* aadl_source,
                                   const char* root) {
  aadl::Parser parser(aadl_source);
  const aadl::Model model = parser.parse();
  std::vector<aadl::Diagnostic> diags;
  auto sys = aadl::compile(model, root, diags);
  if (!sys.has_value()) {
    throw std::runtime_error(std::string("built-in model ") + root +
                             " failed to compile: " +
                             (diags.empty() ? "?" : diags[0].message));
  }
  return *sys;
}

namespace {

/// Every scenario make_scenario can build, sorted by variant within a
/// platform (scenario_variants relies on it).
struct Entry {
  Platform platform;
  const char* variant;
  std::unique_ptr<Scenario> (*make)(sim::Machine&, const ScenarioConfig&);
};

constexpr Entry kScenarios[] = {
    {Platform::kMinix, "bsl3",
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<Bsl3Scenario>(m, cfg.bsl3, cfg.bsl3_policy);
     }},
    {Platform::kMinix, "temp",
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<MinixScenario>(m, cfg);
     }},
    {Platform::kSel4, "bsl3",
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<Bsl3Sel4Scenario>(m, cfg.bsl3);
     }},
    {Platform::kSel4, "temp",
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<Sel4Scenario>(m, cfg);
     }},
    {Platform::kLinux, "temp",
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<LinuxScenario>(
           m, cfg,
           cfg.linux_separate_accounts ? LinuxScenario::Accounts::kSeparate
                                       : LinuxScenario::Accounts::kShared);
     }},
    {Platform::kLinux, "uds",
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<LinuxUdsScenario>(
           m, cfg,
           cfg.linux_separate_accounts ? LinuxScenario::Accounts::kSeparate
                                       : LinuxScenario::Accounts::kShared,
           cfg.uds_abstract_namespace
               ? LinuxUdsScenario::Namespace::kAbstract
               : LinuxUdsScenario::Namespace::kFilesystem);
     }},
};

}  // namespace

std::unique_ptr<Scenario> make_scenario(sim::Machine& machine,
                                        Platform platform,
                                        const std::string& variant,
                                        const ScenarioConfig& cfg) {
  const std::string v = variant.empty() ? "temp" : variant;
  for (const Entry& e : kScenarios) {
    if (e.platform == platform && v == e.variant) return e.make(machine, cfg);
  }
  throw std::invalid_argument(std::string("no scenario '") + v +
                              "' for platform " + to_string(platform));
}

std::vector<std::string> scenario_variants(Platform platform) {
  std::vector<std::string> out;
  for (const Entry& e : kScenarios) {
    if (e.platform == platform) out.push_back(e.variant);
  }
  return out;
}

}  // namespace mkbas::bas

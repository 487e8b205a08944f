#pragma once

#include <memory>

#include "aadl/compile.hpp"
#include "bas/scenario.hpp"

namespace mkbas::camkes {
class Runtime;
}

namespace mkbas::bas {

/// The state every platform scenario shares: the machine, the HTTP
/// console, the temperature plant (null for BSL-3) and the armed
/// compromise of the untrusted process.
///
/// The destructor shuts the machine down. Adapters declare their kernel
/// as their last member, so the kernel's own destructor (which shuts the
/// machine down first, unwinding every process) runs while the adapter's
/// other members (FS server, device models) still exist.
class ScenarioBase : public Scenario {
 public:
  ~ScenarioBase() override { machine_.shutdown(); }

  ScenarioBase(const ScenarioBase&) = delete;
  ScenarioBase& operator=(const ScenarioBase&) = delete;

  sim::Machine& machine() override { return machine_; }
  net::HttpConsole& http() override { return http_; }
  Plant* plant() override { return plant_.get(); }
  void arm_attack(sim::Time when, AttackHook hook) override {
    attack_time_ = when;
    attack_hook_ = std::move(hook);
  }

 protected:
  explicit ScenarioBase(sim::Machine& machine) : machine_(machine) {}

  /// The once-only compromise check the untrusted process makes on every
  /// poll: at the first poll at or after the armed time, trace `event`
  /// and run the hook inside the calling process (arbitrary code
  /// execution, §IV.D). `rt` is that process's CAmkES runtime on seL4,
  /// visible to the hook as attack_runtime() while it runs.
  void poll_attack(bool* fired, const char* event, const char* detail,
                   camkes::Runtime* rt = nullptr);

  sim::Machine& machine_;
  std::unique_ptr<Plant> plant_;
  net::HttpConsole http_;
  sim::Time attack_time_ = -1;
  AttackHook attack_hook_;
  camkes::Runtime* attack_runtime_ = nullptr;
};

/// Parse and compile a built-in AADL model (`root` names the system
/// implementation). Throws std::runtime_error if it does not compile.
aadl::CompiledSystem compile_model(const char* aadl_source, const char* root);

}  // namespace mkbas::bas

#pragma once

#include <memory>
#include <string>

#include "aadl/compile.hpp"
#include "bas/temp_program.hpp"
#include "minix/fs.hpp"
#include "minix/kernel.hpp"

namespace mkbas::bas {

/// The temperature-control program on security-enhanced MINIX 3 (§IV.A).
///
/// Construction mirrors the paper: the built-in AADL model is parsed and
/// compiled into an ACM; the kernel boots with that matrix; a *scenario
/// process* acts as loader, fork2()-ing the five processes with their
/// ac_ids, then sealing ac_id assignment (end of the boot period) and
/// exiting. The five processes run the shared program over MINIX IPC.
class MinixScenario : public TempScenario {
 public:
  static constexpr int kLoaderAcId = 99;

  explicit MinixScenario(sim::Machine& machine, ScenarioConfig cfg = {});

  Platform platform() const override { return Platform::kMinix; }
  const char* variant() const override { return "temp"; }
  int restarts() const override { return kernel_->restarts(); }

  minix::MinixKernel& kernel() { return *kernel_; }
  /// Non-null when config().enable_fs_log is set.
  minix::FsServer* fs() { return fs_.get(); }

  /// Endpoint of a scenario process by its AADL instance name.
  minix::Endpoint endpoint_of(const std::string& instance) const {
    return kernel_->lookup(instance);
  }

 private:
  void loader_proc();
  void run_process(Role role);

  aadl::CompiledSystem system_;
  std::unique_ptr<minix::FsServer> fs_;
  std::unique_ptr<minix::MinixKernel> kernel_;  // last: see ScenarioBase
};

}  // namespace mkbas::bas

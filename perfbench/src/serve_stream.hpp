#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"

namespace perfbench {

/// splitmix64: the seed expander behind every generated input.
std::uint64_t splitmix64(std::uint64_t* state);

/// One canonical request of the serve workload.
struct ServeCell {
  mkbas::core::ExperimentRequest request;
  std::string body;     // canonical JSON, what POST /run carries
  std::string key_hex;  // the daemon's cell key for `body`
  std::string kind;     // "benign" | "attack" | "fault"
};

/// Build a cell from a mode/platform/seed triple (attack cells also take
/// an attack kind and privilege).
ServeCell make_cell(mkbas::core::RequestMode mode, mkbas::bas::Platform p,
                    std::uint64_t seed, const std::string& attack = "none",
                    bool root = false);

/// The cells executed during set-up: every (kind, platform) pair once,
/// with seeds drawn from the workload seed. Hits repeat these.
std::vector<ServeCell> primed_cells(std::uint64_t seed);

/// One connection's request stream. Both sequences are pure functions of
/// (seed, connection): `next_hit` walks the primed set in a seeded order,
/// `next_miss` yields new cells, each block of nine covering every
/// (benign|attack|fault) x (minix|sel4|linux) pair once in a seeded
/// order, attack kinds rotating per platform from a seeded start. Seeds
/// are partitioned per connection, so no two streams of one workload
/// seed (nor the primed set) ever share a cell key.
class ServeStream {
 public:
  ServeStream(std::uint64_t seed, int connection, std::size_t primed);

  std::size_t next_hit();
  ServeCell next_miss();

 private:
  std::uint64_t seed_;
  int connection_;
  std::size_t primed_;
  std::uint64_t hit_state_;
  std::uint64_t miss_state_;
  std::uint64_t misses_ = 0;
  std::uint64_t attack_turns_[3] = {};  // per platform
  std::vector<int> block_;  // remaining (mode, platform) slots of a block
};

}  // namespace perfbench

#include "serve_stream.hpp"

#include <stdexcept>
#include <utility>

namespace perfbench {

namespace core = mkbas::core;
namespace bas = mkbas::bas;

namespace {

constexpr core::RequestMode kModes[] = {core::RequestMode::kBenign,
                                        core::RequestMode::kAttack,
                                        core::RequestMode::kFault};
constexpr const char* kModeNames[] = {"benign", "attack", "fault"};
constexpr bas::Platform kPlatforms[] = {
    bas::Platform::kMinix, bas::Platform::kSel4, bas::Platform::kLinux};
/// Every attack but flood: a MINIX or seL4 flood cell runs ~2 s and
/// bundles ~100 MB, 20x any other cell, so a few would swamp the miss
/// latency distribution and the store's memory.
constexpr const char* kAttacks[] = {"spoof-sensor", "spoof-actuator", "kill",
                                    "fork-bomb", "brute-force"};
constexpr std::uint64_t kAttackCount = sizeof kAttacks / sizeof kAttacks[0];
constexpr int kSlots = 9;  // 3 modes x 3 platforms

/// Seeds of one connection live in their own 10M-wide range; the primed
/// set uses range 0. A run issues far fewer than 9M misses.
constexpr std::uint64_t kSeedRange = 10'000'000;

std::uint64_t seed_offset(std::uint64_t seed) {
  std::uint64_t s = seed;
  return splitmix64(&s) % 1'000'000;
}

/// `turns` holds one attack rotation per platform: each platform walks
/// every attack, then again with root privilege, so a run's attack mix
/// barely depends on the seed (cells differ in cost by up to 5x).
ServeCell slot_cell(int slot, std::uint64_t cell_seed, std::uint64_t* turns) {
  const core::RequestMode mode = kModes[slot / 3];
  const bas::Platform platform = kPlatforms[slot % 3];
  if (mode != core::RequestMode::kAttack) {
    return make_cell(mode, platform, cell_seed);
  }
  const std::uint64_t turn = turns[slot % 3]++;
  return make_cell(mode, platform, cell_seed, kAttacks[turn % kAttackCount],
                   (turn / kAttackCount) % 2 != 0);
}

void seed_turns(std::uint64_t* rng, std::uint64_t* turns) {
  for (int p = 0; p < 3; ++p) turns[p] = splitmix64(rng) % (2 * kAttackCount);
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ServeCell make_cell(core::RequestMode mode, bas::Platform p,
                    std::uint64_t seed, const std::string& attack, bool root) {
  ServeCell c;
  c.request.mode = mode;
  c.request.platform = p;
  c.request.seed = seed;
  c.request.attack = attack;
  c.request.root = root;
  const std::string err = c.request.validate();
  if (!err.empty()) throw std::invalid_argument("serve stream: " + err);
  c.body = c.request.to_canonical_json();
  c.key_hex = c.request.cell_key_hex();
  c.kind = mode == core::RequestMode::kBenign   ? kModeNames[0]
           : mode == core::RequestMode::kAttack ? kModeNames[1]
                                                : kModeNames[2];
  return c;
}

std::vector<ServeCell> primed_cells(std::uint64_t seed) {
  std::uint64_t rng = seed ^ 0x5072696d6564ULL;  // "Primed"
  std::uint64_t turns[3];
  seed_turns(&rng, turns);
  const std::uint64_t base = seed_offset(seed);
  std::vector<ServeCell> cells;
  for (int slot = 0; slot < kSlots; ++slot) {
    cells.push_back(slot_cell(slot, base + static_cast<std::uint64_t>(slot),
                              turns));
  }
  return cells;
}

ServeStream::ServeStream(std::uint64_t seed, int connection,
                         std::size_t primed)
    : seed_(seed),
      connection_(connection),
      primed_(primed),
      hit_state_(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(connection)),
      miss_state_(~seed + 0x9e37ULL * static_cast<std::uint64_t>(connection)) {
  seed_turns(&miss_state_, attack_turns_);
}

std::size_t ServeStream::next_hit() {
  return primed_ == 0 ? 0 : splitmix64(&hit_state_) % primed_;
}

ServeCell ServeStream::next_miss() {
  if (block_.empty()) {
    for (int s = kSlots - 1; s >= 0; --s) block_.push_back(s);
    // Fisher-Yates over the block: every pair once, seeded order.
    for (std::size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[splitmix64(&miss_state_) % (i + 1)]);
    }
  }
  const int slot = block_.back();
  block_.pop_back();
  const std::uint64_t cell_seed =
      kSeedRange * static_cast<std::uint64_t>(connection_ + 1) +
      seed_offset(seed_) + misses_++;
  return slot_cell(slot, cell_seed, attack_turns_);
}

}  // namespace perfbench

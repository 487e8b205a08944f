// Byte-level golden digests of every deterministic artifact run_request
// returns.
//
// Each case is one canonical ExperimentRequest executed with
// all_deterministic_artifacts(); the test pins the FNV-1a of every
// artifact in the bundle (summary and metrics_prom included) plus the
// exit code. The bundle is what the CLI writes and the daemon caches, so
// a refactor of the drivers, the campaign engine or the observability
// plumbing must leave every digest unchanged. Campaign cases run at
// --jobs 1 and --jobs 4 against the same expected line.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "campaign/run_request.hpp"
#include "core/hash.hpp"

namespace core = mkbas::core;
namespace net = mkbas::net;
using mkbas::bas::Platform;
using core::RequestMode;

namespace {

struct GoldenCase {
  const char* name;
  core::ExperimentRequest req;
  const char* expected;
};

/// gtest prints a parameter into each test's listed name; the default
/// byte dump would include pointers, which differ from run to run.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

core::ExperimentRequest request(RequestMode mode, Platform platform,
                                const char* attack) {
  core::ExperimentRequest r;
  r.mode = mode;
  r.platform = platform;
  r.attack = attack;
  return r;
}

core::ExperimentRequest fabric(int zones, net::TopologySpec::Kind topology,
                               const char* attack) {
  core::ExperimentRequest r = request(RequestMode::kFabric, Platform::kMinix,
                                      attack);
  r.zones = zones;
  r.topology = topology;
  if (topology != net::TopologySpec::Kind::kFlat) r.floors = 2;
  return r;
}

core::ExperimentRequest campaign(RequestMode mode, int jobs) {
  core::ExperimentRequest r = request(mode, Platform::kMinix, "none");
  r.jobs = jobs;
  r.seeds = 2;
  return r;
}

/// "exit=N kind=<fnv1a> ..." over the artifact map (sorted by kind).
std::string digest_line(const core::ExperimentResponse& resp) {
  std::string line = "exit=" + std::to_string(resp.exit_code);
  for (const auto& [kind, text] : resp.artifacts) {
    line += " " + kind + "=" + core::hex64(core::fnv1a(text));
  }
  return line;
}

constexpr const char* kSweep =
    "exit=0 audit=7a36e2dc508d2490 "
    "flight=302c3a57e32bed36 health=88c65db9593a5232 "
    "metrics=e7bd16730d10f68e "
    "metrics_prom=6b3b00b4b47ddb78 "
    "series=b5e3f6087ae1c1cc spans=c5653307bf63e481 "
    "summary=282eabdc47131fb8";
constexpr const char* kCampaignFabric =
    "exit=0 audit=c356a770e416c651 "
    "flight=807fbf71a79e71ae health=3cb9fbd8310c946c "
    "metrics=29bbefffc322c772 "
    "metrics_prom=62da1ce73ca57767 "
    "series=40f6cc32e5f597e3 spans=1b202f0848e25075 "
    "summary=c3d2f9619573828d";
constexpr const char* kCampaignFault =
    "exit=0 audit=c820d74143ebaec3 "
    "flight=1d746863e13dff78 health=a8bc8ce05ff3fd27 "
    "metrics=f7bb010ca46da450 "
    "metrics_prom=32b9cdda2663c75b "
    "series=3d5339f2c620efe0 spans=1d2fd6128b95b900 "
    "summary=db0e6b3d3f8aff5b";

const GoldenCase kCases[] = {
    {"benign_minix", request(RequestMode::kBenign, Platform::kMinix, "none"),
     "exit=0 audit=7a36e2dc508d2490 "
     "critical=9da23964f4d93ae1 flight=302c3a57e32bed36 "
     "health=88c65db9593a5232 metrics=e5f05e4f9082a36a "
     "metrics_prom=d51e329b8ff12205 "
     "series=14978c815faceaca spans=6da608b936057a64 "
     "summary=32e706ea3864e933 trace=39b4ad2a75d671ea"},
    {"attack_minix_kill",
     request(RequestMode::kAttack, Platform::kMinix, "kill"),
     "exit=0 audit=25d2289c22f3d04b "
     "critical=18b98376ea104c05 flight=8e3b8846628cdbb7 "
     "health=88c65db9593a5232 metrics=5897d2dd2cd546c1 "
     "metrics_prom=fa2a336560eabec4 "
     "series=da5c6a835254b5fc spans=814727b8a813bdb2 "
     "summary=6128e381a08c9ba4 trace=e80e792c8430cc4a"},
    {"fault_sel4", request(RequestMode::kFault, Platform::kSel4, "none"),
     "exit=0 audit=c431953d95feb895 "
     "critical=35c3c5c2c25dd694 flight=2565c3be5e906ceb "
     "health=11d9540bb9875aaa metrics=dbe1a964e77fd8bf "
     "metrics_prom=a343d33a72cd0f67 "
     "series=aa8037f639dc1a73 spans=ec97ac8b6fe51bed "
     "summary=8869b9f16a49a239 trace=209d89e3e813abcf"},
    {"fabric_flat_spoof_write_z4",
     fabric(4, net::TopologySpec::Kind::kFlat, "spoof-write"),
     "exit=0 audit=c1846efacf457cef "
     "critical=1d8b28108aa3b3bc flight=302c3a57e32bed36 "
     "health=1a8c1df5efec3642 metrics=d3ebc45d33a0d25d "
     "metrics_prom=7b985a236446c8e5 "
     "series=711883eed7d977f9 spans=09a456ea41a6e4f5 "
     "summary=c71eb33eecd66890"},
    {"fabric_tree_flood_z6",
     fabric(6, net::TopologySpec::Kind::kTree, "flood"),
     "exit=0 audit=97bcfce9a83148c5 "
     "critical=be862091b2f4dac3 flight=194686309800d7ec "
     "health=032ce795905bdb0d metrics=bd84cb0b38591f68 "
     "metrics_prom=aafc2327dd8c9656 "
     "series=5c6c4d08d913a352 spans=45bc2671ef6c39fc "
     "summary=d106ff8190178bce"},
    {"campaign_sweep_j1", campaign(RequestMode::kCampaignSweep, 1), kSweep},
    {"campaign_sweep_j4", campaign(RequestMode::kCampaignSweep, 4), kSweep},
    {"campaign_fabric_z4_j1", campaign(RequestMode::kCampaignFabric, 1),
     kCampaignFabric},
    {"campaign_fabric_z4_j4", campaign(RequestMode::kCampaignFabric, 4),
     kCampaignFabric},
    {"campaign_fault_j1", campaign(RequestMode::kCampaignFault, 1),
     kCampaignFault},
    {"campaign_fault_j4", campaign(RequestMode::kCampaignFault, 4),
     kCampaignFault},
};

class ArtifactGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ArtifactGolden, DigestsArePinned) {
  const GoldenCase& c = GetParam();
  ASSERT_EQ(c.req.validate(), "") << c.name;
  const core::ExperimentResponse resp =
      core::run_request(c.req, core::all_deterministic_artifacts());
  ASSERT_TRUE(resp.artifacts.count("summary")) << c.name;
  ASSERT_TRUE(resp.artifacts.count("metrics_prom")) << c.name;
  EXPECT_EQ(digest_line(resp), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    EveryMode, ArtifactGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace

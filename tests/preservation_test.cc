// Decades-scale preservation (DESIGN.md §5j): media aging determinism,
// the scrub/refresh migration pipeline, generation migration, and the
// sampled Merkle audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/drive/disc.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/fault.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::Seconds;

constexpr std::int64_t kYearNs = 365LL * 24 * 3600 * 1000000000LL;

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// Aging that will visibly rot a 16 MiB disc within a few sim-years.
drive::MediaAgingParams AggressiveAging() {
  drive::MediaAgingParams aging;
  aging.enabled = true;
  aging.lse_per_sector_year = 0.002;
  aging.growth_per_year = 0.5;
  aging.seed = 99;
  return aging;
}

// ------------------------------------------------------------------
// Disc-level model: determinism and observation independence.
// ------------------------------------------------------------------

TEST(MediaAging, SameSeedSameDiscSameDamage) {
  const drive::MediaAgingParams aging = AggressiveAging();
  auto run = [&aging]() {
    drive::Disc disc("d0", drive::DiscType::kBdr25, 16 * kMiB);
    ROS_CHECK(disc.AppendSession("img", 8 * kMiB,
                                 std::vector<std::uint8_t>(8 * kMiB, 0xAB),
                                 /*closed=*/true)
                  .ok());
    disc.StampBirth(0);
    disc.AdvanceAging(5 * kYearNs, aging);
    return disc.ScrubForErrors();
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// Damage at time T is a pure function of T — it does not depend on how
// many times the disc was observed along the way.
TEST(MediaAging, DamageIsObservationIndependent) {
  const drive::MediaAgingParams aging = AggressiveAging();
  auto make = []() {
    drive::Disc disc("d1", drive::DiscType::kBdr25, 16 * kMiB);
    ROS_CHECK(disc.AppendSession("img", 8 * kMiB,
                                 std::vector<std::uint8_t>(8 * kMiB, 0xCD),
                                 /*closed=*/true)
                  .ok());
    disc.StampBirth(0);
    return disc;
  };
  drive::Disc once = make();
  once.AdvanceAging(10 * kYearNs, aging);
  drive::Disc many = make();
  for (int step = 1; step <= 40; ++step) {
    many.AdvanceAging(step * kYearNs / 4, aging);
  }
  EXPECT_EQ(once.ScrubForErrors(), many.ScrubForErrors());
  EXPECT_EQ(once.aged_errors(), many.aged_errors());
}

TEST(MediaAging, DisabledModelNeverTouchesTheDisc) {
  drive::MediaAgingParams off;  // enabled = false
  drive::Disc disc("d2", drive::DiscType::kBdr25, 16 * kMiB);
  ROS_CHECK(disc.AppendSession("img", 4 * kMiB,
                               std::vector<std::uint8_t>(4 * kMiB, 1),
                               /*closed=*/true)
                .ok());
  disc.StampBirth(0);
  EXPECT_EQ(disc.AdvanceAging(50 * kYearNs, off), 0);
  EXPECT_TRUE(disc.ScrubForErrors().empty());
  EXPECT_EQ(disc.aged_errors(), 0u);
  // A blank disc never rots either, even with the model on.
  drive::Disc blank("d3", drive::DiscType::kBdr25, 16 * kMiB);
  blank.StampBirth(0);
  EXPECT_EQ(blank.AdvanceAging(50 * kYearNs, AggressiveAging()), 0);
}

// Later generations rot slower: same seed and burn, smaller factor.
TEST(MediaAging, DenserGenerationAgesSlower) {
  drive::MediaAgingParams aging = AggressiveAging();
  aging.lse_per_sector_year = 0.02;
  auto damage = [&aging](drive::DiscType type) {
    drive::Disc disc("gen", type, 16 * kMiB);
    ROS_CHECK(disc.AppendSession("img", 8 * kMiB,
                                 std::vector<std::uint8_t>(8 * kMiB, 7),
                                 /*closed=*/true)
                  .ok());
    disc.StampBirth(0);
    disc.AdvanceAging(10 * kYearNs, aging);
    return disc.aged_errors();
  };
  EXPECT_GT(damage(drive::DiscType::kBdr25),
            damage(drive::DiscType::kBdr100));
}

// ------------------------------------------------------------------
// Full-stack: scrub, refresh migration, audit.
// ------------------------------------------------------------------

class PreservationTest : public ::testing::Test {
 protected:
  ~PreservationTest() override {
    if (sim_ != nullptr) {
      sim_->Shutdown();
    }
  }

  static OlfsParams BaseParams() {
    OlfsParams params;
    params.disc_type = drive::DiscType::kBdr25;
    params.disc_capacity_override = 16 * kMiB;
    params.read_cache_bytes = 0;  // force optical reads
    return params;
  }

  void Reset(OlfsParams params) {
    if (sim_ != nullptr) {
      sim_->Shutdown();
    }
    olfs_.reset();
    system_.reset();
    sim_ = std::make_unique<sim::Simulator>();
    system_ = std::make_unique<RosSystem>(*sim_, TestSystemConfig());
    olfs_ = std::make_unique<Olfs>(*sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  Status Create(const std::string& path,
                const std::vector<std::uint8_t>& data) {
    return sim_->RunUntilComplete(olfs_->Create(path, data, data.size()));
  }

  void ExpectReadsBack(const std::string& path,
                       const std::vector<std::uint8_t>& expect) {
    auto data =
        sim_->RunUntilComplete(olfs_->Read(path, 0, expect.size()));
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, expect) << path;
  }

  // The image id behind `path` and the disc address it is burned on.
  std::string BurnedImageOf(const std::string& path) {
    auto index = sim_->RunUntilComplete(olfs_->mv().Get(path));
    ROS_CHECK(index.ok());
    return (*index->Latest())->parts[0].image_id;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

// Years of rot, then one scrub pass: damage is found, repaired from
// parity, and the rotting arrays are refreshed onto fresh media — after
// which every acked byte still reads back clean.
TEST_F(PreservationTest, ScrubRepairsRotAndRefreshesArrays) {
  OlfsParams params = BaseParams();
  params.media_aging = AggressiveAging();
  // The archival layout (P+Q) with a rot rate that damages discs without
  // shredding all of D, P and Q at once: one erasure per stream is what
  // the scrub is designed to catch and repair between passes.
  params.media_aging.lse_per_sector_year = 0.00025;
  params.parity_images = 2;
  params.scrub_refresh_enabled = true;
  Reset(params);

  std::map<std::string, std::vector<std::uint8_t>> acked;
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/keep/f" + std::to_string(i);
    auto payload = RandomBytes(24 * kKiB + i * 3000, 70 + i);
    ASSERT_TRUE(Create(path, payload).ok()) << path;
    acked[path] = std::move(payload);
  }
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // A decade in cold storage.
  sim_->RunFor(sim::Duration(10 * kYearNs));

  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_GT(pass->arrays, 0);
  EXPECT_GT(pass->bytes, 0u);
  // The aggressive model rots this much media in 10 years with near
  // certainty; repairs + a refresh must have happened.
  EXPECT_GT(pass->repairs + pass->arrays_refreshed, 0)
      << "expected decade-old media to show damage";
  EXPECT_EQ(olfs_->scrub().passes(), 1u);

  for (const auto& [path, expect] : acked) {
    ExpectReadsBack(path, expect);
  }
}

// With refresh disabled the scrub still repairs damaged members in place
// but never retires arrays.
TEST_F(PreservationTest, RepairOnlyModeNeverRetiresArrays) {
  OlfsParams params = BaseParams();
  params.media_aging = AggressiveAging();
  params.scrub_refresh_enabled = false;
  Reset(params);

  auto payload = RandomBytes(32 * kKiB, 5);
  ASSERT_TRUE(Create("/keep/solo", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  sim_->RunFor(sim::Duration(10 * kYearNs));
  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->arrays_refreshed, 0);
  EXPECT_EQ(olfs_->scrub().refresh_burns(), 0u);
  ExpectReadsBack("/keep/solo", payload);
}

// A damaged data member that is not first in its array's id order is
// repaired from parity in either policy mode. With refresh on, the pass
// must rebuild it before re-staging its siblings: a re-staged sibling no
// longer counts toward the parity solve, so the member would be lost and
// its tray retired with it.
class ScrubRepairOrderTest : public PreservationTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(ScrubRepairOrderTest, RepairsDamagedMemberBeforeRefresh) {
  OlfsParams params = BaseParams();
  params.scrub_refresh_enabled = GetParam();
  Reset(params);

  // Three closed buckets burn as one RAID-5 array: 3 data members + P.
  std::map<std::string, std::vector<std::uint8_t>> acked;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/order/f" + std::to_string(i);
    auto payload = RandomBytes(20 * kKiB + i * 1000, 40 + i);
    ASSERT_TRUE(Create(path, payload).ok()) << path;
    ASSERT_TRUE(
        sim_->RunUntilComplete(olfs_->buckets().CloseCurrentBucket()).ok());
    acked[path] = std::move(payload);
  }
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  const std::string victim = BurnedImageOf("/order/f1");
  auto record = olfs_->images().Lookup(victim);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  std::vector<std::string> data_members;
  for (const std::string& id : (*record)->array_members) {
    auto member = olfs_->images().Lookup(id);
    ASSERT_TRUE(member.ok()) << id;
    if (!(*member)->parity) {
      data_members.push_back(id);
    }
  }
  ASSERT_EQ(data_members.size(), 3u);
  ASSERT_LT(*std::min_element(data_members.begin(), data_members.end()),
            victim);
  olfs_->mech().DiscAt(*(*record)->disc)->CorruptSector(1);

  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->repairs, 1);
  auto repaired = olfs_->images().Lookup(victim);
  ASSERT_TRUE(repaired.ok());
  if ((*repaired)->disc.has_value()) {
    EXPECT_NE(olfs_->da_index().state((*repaired)->disc->tray),
              ArrayState::kFailed)
        << victim << " was left on a retired tray";
  }
  for (const auto& [path, expect] : acked) {
    ExpectReadsBack(path, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RefreshOnAndOff, ScrubRepairOrderTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& param_info) {
      return param_info.param ? "RefreshOn" : "RefreshOff";
    });

// Age-triggered refresh with generation migration: once the media
// crosses the age threshold the whole array moves to the next
// generation, and new discs come up denser.
TEST_F(PreservationTest, AgeTriggeredRefreshMigratesGenerations) {
  OlfsParams params = BaseParams();
  params.media_aging = AggressiveAging();
  // No damage needed: age alone triggers the refresh.
  params.media_aging.lse_per_sector_year = 0.0;
  params.refresh_age_years = 3.0;
  params.generation_migration_enabled = true;
  params.migration_disc_type = drive::DiscType::kBdr100;
  Reset(params);

  auto payload = RandomBytes(40 * kKiB, 8);
  ASSERT_TRUE(Create("/keep/migrate", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  EXPECT_EQ(olfs_->mech().media_type(), drive::DiscType::kBdr25);

  sim_->RunFor(sim::Duration(4 * kYearNs));
  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_GT(pass->arrays_refreshed, 0);
  EXPECT_GT(pass->refresh_burns, 0);
  EXPECT_EQ(olfs_->mech().media_type(), drive::DiscType::kBdr100);

  // The refreshed copy lives on a new array; the old one is retired.
  EXPECT_GT(olfs_->da_index().CountState(ArrayState::kFailed), 0);
  ExpectReadsBack("/keep/migrate", payload);

  // Before the threshold nothing would have happened: a fresh pass on the
  // just-refreshed (young) media is a no-op.
  auto again = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->arrays_refreshed, 0);
}

// The sampled Merkle audit: every burned array gets a manifest at burn
// time, a clean rack verifies with zero mismatches, and deliberate
// silent tampering (bit flips that read back without error) is provably
// detected — while the auditor reads only a fraction of the bytes.
TEST_F(PreservationTest, AuditDetectsSilentTampering) {
  OlfsParams params = BaseParams();
  params.audit_leaf_bytes = 4 * kKiB;
  Reset(params);

  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/audit/f" + std::to_string(i);
    ASSERT_TRUE(Create(path, RandomBytes(64 * kKiB, 90 + i)).ok());
    paths.push_back(path);
  }
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  EXPECT_GT(olfs_->audit().roots_built(), 0u);
  EXPECT_GT(olfs_->audit().manifests_live(), 0u);

  // Clean media: full-coverage audit finds nothing.
  auto clean = sim_->RunUntilComplete(olfs_->scrub().RunAudit(1.0, 17));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->manifests, 0);
  EXPECT_GT(clean->leaves_sampled, 0u);
  EXPECT_EQ(clean->mismatches, 0u);
  EXPECT_TRUE(clean->damaged.empty());

  // Tamper with one stored stream *silently*: the read path returns the
  // flipped bytes without any error, so only the hash chain can tell.
  const std::string victim = BurnedImageOf(paths[1]);
  auto record = olfs_->images().Lookup(victim);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  drive::Disc* disc = olfs_->mech().DiscAt(*(*record)->disc);
  ASSERT_TRUE(disc->TamperSessionData(victim, 100, 0x40).ok());

  auto caught = sim_->RunUntilComplete(olfs_->scrub().RunAudit(1.0, 17));
  ASSERT_TRUE(caught.ok()) << caught.status().ToString();
  EXPECT_GT(caught->mismatches, 0u);
  ASSERT_FALSE(caught->damaged.empty());
  EXPECT_EQ(caught->damaged[0], victim);

  // Sampling determinism: the same seed chooses the same leaves.
  auto replay = sim_->RunUntilComplete(olfs_->scrub().RunAudit(0.25, 21));
  auto replay2 = sim_->RunUntilComplete(olfs_->scrub().RunAudit(0.25, 21));
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay2.ok());
  EXPECT_EQ(replay->leaves_sampled, replay2->leaves_sampled);
  EXPECT_EQ(replay->bytes_read, replay2->bytes_read);
  // A fractional sample reads fewer bytes than the stored total.
  EXPECT_GT(replay->bytes_read, 0u);
  EXPECT_LT(replay->bytes_read, replay->stored_bytes);
}

// Refresh burns rebuild the audit manifests: after a migration pass the
// retired tray's manifest is gone and the new array's manifest verifies.
TEST_F(PreservationTest, RefreshRebuildsAuditManifests) {
  OlfsParams params = BaseParams();
  params.media_aging = AggressiveAging();
  params.media_aging.lse_per_sector_year = 0.0;
  params.refresh_age_years = 2.0;
  params.audit_leaf_bytes = 4 * kKiB;
  Reset(params);

  ASSERT_TRUE(Create("/audit/refresh", RandomBytes(48 * kKiB, 3)).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  const std::uint64_t live_before = olfs_->audit().manifests_live();
  ASSERT_GT(live_before, 0u);

  sim_->RunFor(sim::Duration(3 * kYearNs));
  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  ASSERT_GT(pass->arrays_refreshed, 0);

  // Still exactly one live manifest (new array in, old tray out), and it
  // verifies clean against the new media.
  EXPECT_EQ(olfs_->audit().manifests_live(), live_before);
  EXPECT_GT(olfs_->audit().roots_built(), live_before);
  auto audit = sim_->RunUntilComplete(olfs_->scrub().RunAudit(1.0, 33));
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_GT(audit->manifests, 0);
  EXPECT_EQ(audit->mismatches, 0u);
}

// The maintenance report surfaces every preservation counter and
// round-trips through the console wire format.
TEST_F(PreservationTest, MaintenanceReportRoundTripsPreservationCounters) {
  OlfsParams params = BaseParams();
  params.media_aging = AggressiveAging();
  params.audit_leaf_bytes = 4 * kKiB;
  Reset(params);

  ASSERT_TRUE(Create("/mi/p", RandomBytes(32 * kKiB, 12)).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  sim_->RunFor(sim::Duration(8 * kYearNs));
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->scrub().RunPass()).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->scrub().RunAudit(1.0, 2)).ok());

  Maintenance mi(olfs_.get());
  json::Value report = mi.StatusReport();
  ASSERT_TRUE(report.contains("preservation"));
  auto reparsed = json::Parse(report.Dump());
  ASSERT_TRUE(reparsed.ok());
  const json::Value& p = (*reparsed)["preservation"];
  EXPECT_EQ(p["scrub_passes"].as_int(), 1);
  EXPECT_GT(p["scrubbed_bytes"].as_int(), 0);
  EXPECT_GE(p["scrub_repairs"].as_int(), 0);
  EXPECT_GE(p["refresh_burns"].as_int(), 0);
  EXPECT_GE(p["arrays_refreshed"].as_int(), 0);
  EXPECT_GT(p["audit_roots_built"].as_int(), 0);
  EXPECT_GT(p["audit_manifests"].as_int(), 0);
  EXPECT_GT(p["audit_leaves_sampled"].as_int(), 0);
  EXPECT_GT(p["audit_bytes_read"].as_int(), 0);
  EXPECT_EQ(p["audit_mismatches"].as_int(), 0);
  // The counters the report reads are the live ones.
  EXPECT_EQ(static_cast<std::uint64_t>(p["scrubbed_bytes"].as_int()),
            olfs_->scrub().scrubbed_bytes());
  EXPECT_EQ(static_cast<std::uint64_t>(p["audit_roots_built"].as_int()),
            olfs_->audit().roots_built());
}

}  // namespace
}  // namespace ros::olfs

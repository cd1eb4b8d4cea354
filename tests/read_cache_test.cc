#include "src/olfs/read_cache.h"

#include <gtest/gtest.h>

namespace ros::olfs {
namespace {

TEST(ReadCache, AdmitAndContains) {
  ReadCache cache(1000);
  cache.Admit("a", 400);
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_EQ(cache.used_bytes(), 400u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReadCache, ReAdmitReplacesSize) {
  ReadCache cache(1000);
  cache.Admit("a", 400);
  cache.Admit("a", 250);
  EXPECT_EQ(cache.used_bytes(), 250u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReadCache, EvictionCandidatesAreLruOrdered) {
  ReadCache cache(1000);
  cache.Admit("a", 400);
  cache.Admit("b", 400);
  cache.Admit("c", 400);  // 1200 > 1000
  auto victims = cache.EvictionCandidates();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], "a");
}

TEST(ReadCache, TouchRefreshesRecency) {
  ReadCache cache(1000);
  cache.Admit("a", 400);
  cache.Admit("b", 400);
  cache.Touch("a");        // now b is the least recent
  cache.Admit("c", 400);
  auto victims = cache.EvictionCandidates();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], "b");
}

TEST(ReadCache, MultipleEvictionsUntilFit) {
  ReadCache cache(500);
  cache.Admit("a", 300);
  cache.Admit("b", 300);
  cache.Admit("c", 300);
  auto victims = cache.EvictionCandidates();
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], "a");
  EXPECT_EQ(victims[1], "b");
}

TEST(ReadCache, RemoveReleasesBytes) {
  ReadCache cache(1000);
  cache.Admit("a", 700);
  cache.Remove("a");
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.Contains("a"));
  cache.Remove("a");  // idempotent
}

TEST(ReadCache, HitMissCounters) {
  ReadCache cache(1000);
  cache.Admit("a", 100);
  EXPECT_TRUE(cache.Touch("a"));
  EXPECT_TRUE(cache.Touch("a"));
  // Unknown id: Touch itself records the miss — both counters live in the
  // cache, so they cannot drift apart.
  EXPECT_FALSE(cache.Touch("unknown"));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ReadCache, TouchPromotesToProtectedSegment) {
  ReadCache cache(1000);
  cache.Admit("a", 200);
  EXPECT_FALSE(cache.InProtected("a"));  // admitted probationary
  cache.Touch("a");
  EXPECT_TRUE(cache.InProtected("a"));   // re-reference promotes
  EXPECT_EQ(cache.protected_bytes(), 200u);
  EXPECT_EQ(cache.probationary_bytes(), 0u);
}

// A cold sequential sweep (every image touched exactly once) must churn
// through the probationary segment and leave the promoted hot set intact.
TEST(ReadCache, SequentialSweepLeavesProtectedSegmentIntact) {
  ReadCache cache(1000);
  // Hot working set: admitted, then re-referenced -> protected.
  cache.Admit("hot1", 300);
  cache.Admit("hot2", 300);
  cache.Touch("hot1");
  cache.Touch("hot2");
  // Sweep: many one-touch admissions, far exceeding capacity.
  for (int i = 0; i < 20; ++i) {
    const std::string id = "sweep" + std::to_string(i);
    cache.Admit(id, 200);
    auto victims = cache.EvictionCandidates();
    for (const std::string& victim : victims) {
      EXPECT_NE(victim.rfind("hot", 0), 0u)
          << "sweep evicted hot-set member " << victim;
      cache.Remove(victim);
    }
  }
  EXPECT_TRUE(cache.Contains("hot1"));
  EXPECT_TRUE(cache.Contains("hot2"));
  EXPECT_TRUE(cache.InProtected("hot1"));
  EXPECT_TRUE(cache.InProtected("hot2"));
}

// An id evicted and re-admitted shortly after proved it has reuse the
// probationary segment could not see: the ghost list sends it straight to
// the protected segment.
TEST(ReadCache, GhostHitReAdmissionPromotes) {
  ReadCache cache(1000);
  cache.Admit("a", 400);
  cache.Remove("a");  // eviction: remembered in the ghost list
  EXPECT_FALSE(cache.Contains("a"));
  cache.Admit("a", 400);
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.InProtected("a"));
  EXPECT_EQ(cache.ghost_hits(), 1u);
  // A second eviction + re-admit is another ghost hit.
  cache.Remove("a");
  cache.Admit("a", 400);
  EXPECT_EQ(cache.ghost_hits(), 2u);
}

// Ghost-list occupancy tracks evictions, and a re-admission consumes its
// ghost entry (the occupancy and re-admission counts surfaced in the
// maintenance report).
TEST(ReadCache, GhostOccupancyGrowsOnEvictionShrinksOnReAdmission) {
  ReadCache cache(1000);
  EXPECT_EQ(cache.ghost_entries(), 0u);
  cache.Admit("a", 100);
  cache.Admit("b", 100);
  cache.Remove("a");
  cache.Remove("b");
  EXPECT_EQ(cache.ghost_entries(), 2u);
  EXPECT_EQ(cache.ghost_hits(), 0u);
  // Re-admitting "a" consumes its ghost entry; "b" stays remembered.
  cache.Admit("a", 100);
  EXPECT_EQ(cache.ghost_entries(), 1u);
  EXPECT_EQ(cache.ghost_hits(), 1u);
  // An id the ghost list never saw changes nothing.
  cache.Admit("c", 100);
  EXPECT_EQ(cache.ghost_entries(), 1u);
  EXPECT_EQ(cache.ghost_hits(), 1u);
}

// The ghost list is bounded: old evictions fall off the tail and no
// longer earn protected re-admission.
TEST(ReadCache, GhostListBoundedEviction) {
  ReadCache cache(1 << 20);
  cache.Admit("first", 1);
  cache.Remove("first");
  // Push 1024 younger evictions through: "first" must age out.
  for (int i = 0; i < 1024; ++i) {
    const std::string id = "g" + std::to_string(i);
    cache.Admit(id, 1);
    cache.Remove(id);
  }
  EXPECT_EQ(cache.ghost_entries(), 1024u);
  cache.Admit("first", 1);
  EXPECT_EQ(cache.ghost_hits(), 0u);
  EXPECT_FALSE(cache.InProtected("first"));
}

// Protected overflow demotes LRU protected entries back to probationary
// rather than evicting them outright.
TEST(ReadCache, ProtectedOverflowDemotesToProbationary) {
  ReadCache cache(900);  // protected share = 720
  cache.Admit("a", 500);
  cache.Admit("b", 500);
  cache.Touch("a");
  cache.Touch("b");  // 1000 > 720 protected: "a" (LRU) demotes
  EXPECT_TRUE(cache.InProtected("b"));
  EXPECT_FALSE(cache.InProtected("a"));
  EXPECT_TRUE(cache.Contains("a"));
  // The demoted entry is now the eviction candidate.
  auto victims = cache.EvictionCandidates();
  ASSERT_FALSE(victims.empty());
  EXPECT_EQ(victims[0], "a");
}

}  // namespace
}  // namespace ros::olfs

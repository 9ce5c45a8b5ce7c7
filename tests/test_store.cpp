// Unit tests for the multi-version store and the partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/obj_set.h"
#include "store/mv_store.h"
#include "store/partitioner.h"

namespace gdur::store {
namespace {

Version v(std::uint64_t seq) {
  return Version{.writer = TxnId{0, seq}, .pidx = seq, .commit_time = 0,
                 .stamp = {}};
}

TEST(ObjectChain, InstallsNewestLast) {
  ObjectChain c;
  c.install(v(1));
  c.install(v(2));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.latest().pidx, 2u);
  EXPECT_EQ(c.at(0).pidx, 1u);
}

TEST(ObjectChain, PrunesOldVersions) {
  ObjectChain c;
  for (std::uint64_t i = 1; i <= ObjectChain::kMaxDepth + 10; ++i)
    c.install(v(i));
  EXPECT_LE(c.size(), ObjectChain::kMaxDepth);
  EXPECT_EQ(c.latest().pidx, ObjectChain::kMaxDepth + 10);
  // The oldest retained versions are the most recent kKeepDepth ones.
  EXPECT_GT(c.at(0).pidx, 1u);
}

TEST(ObjectChain, NoPruningMeansEmptySummary) {
  ObjectChain c;
  for (std::uint64_t i = 1; i <= ObjectChain::kMaxDepth; ++i) c.install(v(i));
  EXPECT_EQ(c.pruned().count, 0u);
}

TEST(ObjectChain, PrunedSummaryTracksNewestDroppedVersion) {
  ObjectChain c;
  for (std::uint64_t i = 1; i <= ObjectChain::kMaxDepth + 1; ++i) {
    Version x = v(i);
    x.stamp.origin = 2;
    x.stamp.seq = i;
    x.commit_time = static_cast<SimTime>(i);
    c.install(x);
  }
  // First prune: 33 versions drop to kKeepDepth=24, losing versions 1..9.
  const std::size_t first_drop = ObjectChain::kMaxDepth + 1 -
                                 ObjectChain::kKeepDepth;
  EXPECT_EQ(c.size(), ObjectChain::kKeepDepth);
  EXPECT_EQ(c.pruned().count, first_drop);
  EXPECT_EQ(c.pruned().newest_pidx, first_drop);
  EXPECT_EQ(c.pruned().newest_stamp.origin, 2);
  EXPECT_EQ(c.pruned().newest_stamp.seq, first_drop);
  EXPECT_EQ(c.pruned().newest_commit_time, static_cast<SimTime>(first_drop));
  EXPECT_EQ(c.at(0).pidx, first_drop + 1);  // retained suffix is contiguous

  // A second prune accumulates the count and advances the newest summary.
  for (std::uint64_t i = ObjectChain::kMaxDepth + 2;
       i <= 2 * ObjectChain::kMaxDepth; ++i)
    c.install(v(i));
  EXPECT_EQ(c.pruned().count + c.size(), 2 * ObjectChain::kMaxDepth);
  EXPECT_EQ(c.pruned().newest_pidx + 1, c.at(0).pidx);
}

TEST(MVStore, ChainIsNullBeforeFirstInstall) {
  MVStore db;
  EXPECT_EQ(db.chain(42), nullptr);
  db.install(42, v(1));
  ASSERT_NE(db.chain(42), nullptr);
  EXPECT_EQ(db.chain(42)->latest().pidx, 1u);
  EXPECT_EQ(db.populated(), 1u);
}

TEST(Partitioner, AssignsObjectsRoundRobin) {
  Partitioner p(4, 1, 1000);
  EXPECT_EQ(p.partitions(), 4u);
  EXPECT_EQ(p.partition_of(0), 0u);
  EXPECT_EQ(p.partition_of(5), 1u);
  EXPECT_EQ(p.partition_of(7), 3u);
}

TEST(Partitioner, DisasterProneHasOneReplica) {
  Partitioner p(4, 1, 1000);
  for (ObjectId o = 0; o < 16; ++o) {
    const auto sites = p.replicas_of_object(o);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_TRUE(p.is_local(sites[0], o));
  }
}

TEST(Partitioner, DisasterTolerantHasTwoConsecutiveReplicas) {
  Partitioner p(4, 2, 1000);
  const auto sites = p.sites_of(1);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], 1u);
  EXPECT_EQ(sites[1], 2u);
  const auto wrap = p.sites_of(3);
  EXPECT_EQ(wrap[1], 0u);  // wraps around
}

TEST(Partitioner, ReplicasOfSetUnionsSites) {
  Partitioner p(4, 1, 1000);
  ObjSet objs{0, 1, 5};  // partitions 0, 1, 1
  const auto sites = p.replicas_of(objs);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], 0u);
  EXPECT_EQ(sites[1], 1u);
}

TEST(Partitioner, SingleSiteDetection) {
  Partitioner p(4, 1, 1000);
  EXPECT_TRUE(p.single_site(ObjSet{0, 4, 8}));   // all partition 0
  EXPECT_FALSE(p.single_site(ObjSet{0, 1}));     // partitions 0 and 1
  EXPECT_TRUE(p.single_site(ObjSet{}));          // vacuous
}

TEST(Partitioner, SingleSiteWithReplicationOverlap) {
  Partitioner p(4, 2, 1000);
  // Partition 0 lives at {0,1}, partition 1 at {1,2}: site 1 hosts both.
  EXPECT_TRUE(p.single_site(ObjSet{0, 1}));
  // Partitions 0 and 2 share no site.
  EXPECT_FALSE(p.single_site(ObjSet{0, 2}));
}

TEST(Partitioner, IsLocalAndReplicasOfAgreeWithSitesOf) {
  for (int sites = 1; sites <= 6; ++sites)
    for (int rf = 1; rf <= sites; ++rf)
      for (int pps = 1; pps <= 3; ++pps) {
        Partitioner p(sites, rf, 1000, pps);
        const auto n = static_cast<ObjectId>(p.partitions()) * 2;
        std::vector<bool> in_union(static_cast<std::size_t>(sites), false);
        ObjSet objs;
        for (ObjectId o = 0; o < n; ++o) {
          const auto holders = p.sites_of(p.partition_of(o));
          // One site past the ring: never local.
          for (SiteId s = 0; s <= static_cast<SiteId>(sites); ++s) {
            const bool expect =
                std::find(holders.begin(), holders.end(), s) != holders.end();
            ASSERT_EQ(p.is_local(s, o), expect)
                << "sites=" << sites << " rf=" << rf << " pps=" << pps
                << " site=" << s << " obj=" << o;
          }
          auto sorted = holders;
          std::sort(sorted.begin(), sorted.end());
          ASSERT_EQ(p.replicas_of(ObjSet{o}), sorted);
          // Every third object joins a multi-object set.
          if (o % 3 == 0) {
            objs.insert(o);
            for (SiteId s : holders) in_union[s] = true;
          }
        }
        std::vector<SiteId> expect_union;
        for (SiteId s = 0; s < static_cast<SiteId>(sites); ++s)
          if (in_union[s]) expect_union.push_back(s);
        ASSERT_EQ(p.replicas_of(objs), expect_union)
            << "sites=" << sites << " rf=" << rf << " pps=" << pps;
      }
}

TEST(Partitioner, ObjectInPartitionRoundTrips) {
  Partitioner p(4, 1, 1000);
  for (PartitionId q = 0; q < 4; ++q)
    for (std::uint64_t i = 0; i < 10; ++i)
      EXPECT_EQ(p.partition_of(p.object_in_partition(q, i)), q);
}

TEST(ObjSet, InsertContainsAndDedup) {
  ObjSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.insert(1));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.size(), 2u);
  // Iteration is sorted.
  auto it = s.begin();
  EXPECT_EQ(*it++, 1u);
  EXPECT_EQ(*it, 5u);
}

TEST(ObjSet, DisjointAndIntersects) {
  ObjSet a{1, 3, 5};
  ObjSet b{2, 4, 6};
  ObjSet c{5, 6};
  EXPECT_TRUE(a.disjoint(b));
  EXPECT_FALSE(a.disjoint(c));
  EXPECT_TRUE(b.intersects(c));
  EXPECT_TRUE(a.disjoint(ObjSet{}));
}

TEST(ObjSet, Union) {
  ObjSet a{1, 3};
  ObjSet b{2, 3};
  const auto u = a.unioned(b);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_TRUE(u.contains(1));
  EXPECT_TRUE(u.contains(2));
  EXPECT_TRUE(u.contains(3));
}

}  // namespace
}  // namespace gdur::store

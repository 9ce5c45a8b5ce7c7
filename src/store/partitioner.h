// Placement of objects onto partitions and partitions onto sites.
//
// Objects are assigned to partitions by id modulo the partition count, so a
// workload generator can target a site's partitions directly (needed for the
// locality experiment of Figure 5). Each partition is replicated at
// `replication` consecutive sites: replication = 1 is the paper's
// Disaster-Prone configuration, 2 is Disaster-Tolerant.
#pragma once

#include <cassert>
#include <vector>

#include "common/obj_set.h"
#include "common/types.h"

namespace gdur::store {

class Partitioner {
 public:
  Partitioner(int sites, int replication, std::uint64_t objects,
              int partitions_per_site = 1)
      : sites_(sites),
        rf_(replication),
        objects_(objects),
        partitions_(static_cast<PartitionId>(sites * partitions_per_site)) {
    assert(replication >= 1 && replication <= sites);
  }

  [[nodiscard]] int sites() const { return sites_; }
  [[nodiscard]] int replication() const { return rf_; }
  [[nodiscard]] std::uint64_t objects() const { return objects_; }
  [[nodiscard]] PartitionId partitions() const { return partitions_; }

  [[nodiscard]] PartitionId partition_of(ObjectId o) const {
    return static_cast<PartitionId>(o % partitions_);
  }

  [[nodiscard]] SiteId primary_of(PartitionId p) const {
    return static_cast<SiteId>(p % static_cast<PartitionId>(sites_));
  }

  /// Sites replicating partition `p`: the primary plus the next rf-1 sites.
  [[nodiscard]] std::vector<SiteId> sites_of(PartitionId p) const {
    std::vector<SiteId> out;
    out.reserve(static_cast<std::size_t>(rf_));
    for (int k = 0; k < rf_; ++k)
      out.push_back(static_cast<SiteId>((primary_of(p) + static_cast<SiteId>(k)) %
                                        static_cast<SiteId>(sites_)));
    return out;
  }

  [[nodiscard]] std::vector<SiteId> replicas_of_object(ObjectId o) const {
    return sites_of(partition_of(o));
  }

  /// Does site `s` replicate `o`? s holds o iff it lies within rf-1 sites
  /// after o's primary, modulo the ring (allocation-free sites_of test).
  [[nodiscard]] bool is_local(SiteId s, ObjectId o) const {
    if (s >= static_cast<SiteId>(sites_)) return false;  // not in the ring
    const int d = (static_cast<int>(s) -
                   static_cast<int>(primary_of(partition_of(o))) + sites_) %
                  sites_;
    return d < rf_;
  }

  /// Union of replicas over a whole object set (the paper's replicas(obj)).
  [[nodiscard]] std::vector<SiteId> replicas_of(const ObjSet& objs) const {
    std::vector<bool> in(static_cast<std::size_t>(sites_), false);
    for (ObjectId o : objs) {
      const int p = static_cast<int>(primary_of(partition_of(o)));
      for (int k = 0; k < rf_; ++k)
        in[static_cast<std::size_t>((p + k) % sites_)] = true;
    }
    std::vector<SiteId> out;
    for (SiteId s = 0; s < static_cast<SiteId>(sites_); ++s)
      if (in[s]) out.push_back(s);
    return out;
  }

  /// True iff every object in `objs` is replicated at a single common site.
  [[nodiscard]] bool single_site(const ObjSet& objs) const {
    if (objs.empty()) return true;
    for (int k = 0; k < sites_; ++k) {
      const auto s = static_cast<SiteId>(k);
      bool all = true;
      for (ObjectId o : objs)
        if (!is_local(s, o)) {
          all = false;
          break;
        }
      if (all) return true;
    }
    return false;
  }

  /// `i`-th object belonging to partition `p` (for locality-aware workloads).
  [[nodiscard]] ObjectId object_in_partition(PartitionId p,
                                             std::uint64_t i) const {
    return p + (i % (objects_ / partitions_)) * partitions_;
  }

 private:
  int sites_;
  int rf_;
  std::uint64_t objects_;
  PartitionId partitions_;
};

}  // namespace gdur::store

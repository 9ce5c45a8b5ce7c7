// Independent cross-checks of a run's outputs, made by the benchmark
// itself on top of the program's own criterion checker:
//
//   1. the transactions the client saw commit are exactly those the sites
//      recorded as committed, with the same read and write sets;
//   2. every transaction the sites recorded was sent by the client;
//   3. every write of every committed update is installed exactly once at
//      each replica of its partition;
//   4. no install comes from a transaction that did not commit.
#pragma once

#include <string>
#include <vector>

#include "checker/history.h"
#include "core/cluster.h"
#include "pb.h"
#include "store/partitioner.h"

namespace pb {

struct CrossCheckOptions {
  /// Checks 1 and 2 compare the client's view with the sites' records; off
  /// where both come from the same observer (the simulator).
  bool compare_client = true;
  /// Where the run was cut while clients were still running (the
  /// simulator): a writer with no recorded outcome yet is in flight, not a
  /// violation, and installs are required only for commits answered at or
  /// before `horizon`. Live runs drain first, so every writer is decided.
  /// Either way, a run in which no committed update was judged fails the
  /// install-once check: it would show nothing.
  bool cut = false;
  gdur::SimTime horizon = 0;
};

/// Returns the violations found (empty = clean), at most a few per check.
std::vector<std::string> cross_check(
    const std::vector<ClientTxn>& client,
    const std::vector<gdur::checker::TxnOutcome>& recorded,
    const std::vector<gdur::core::Cluster::InstallEvent>& installs,
    const gdur::store::Partitioner& part, const CrossCheckOptions& opt = {});

/// Damages a run's records the way a faulty program would, for the
/// self-tests: "drop-install" loses one install of a committed write,
/// "flip-verdict" turns one recorded commit into an abort, "phantom-txn"
/// adds a committed transaction the client never sent. False when the
/// records hold nothing to damage.
bool doctor(const std::string& kind,
            std::vector<gdur::checker::TxnOutcome>& recorded,
            std::vector<gdur::core::Cluster::InstallEvent>& installs);

}  // namespace pb

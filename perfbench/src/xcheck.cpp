// pbtool xcheck: the cross-checks of xcheck.h over a live run's client log
// and the sites' history dumps.
//
//   pbtool xcheck --client-log client.log --dumps site0.hist,site1.hist,...
//
// Exit 0 clean, 1 on any violation, 2 on unreadable input.
#include "xcheck.h"

#include <map>
#include <optional>

#include "front/history_log.h"

namespace pb {

namespace {

constexpr std::size_t kMaxPerCheck = 3;

std::vector<gdur::ObjectId> ids_of(const gdur::ObjSet& s) {
  return {s.begin(), s.end()};
}

struct InstallKey {
  gdur::TxnId writer;
  gdur::ObjectId obj;
  gdur::SiteId site;
  auto operator<=>(const InstallKey&) const = default;
};

}  // namespace

std::vector<std::string> cross_check(
    const std::vector<ClientTxn>& client_txns,
    const std::vector<gdur::checker::TxnOutcome>& recorded_txns,
    const std::vector<gdur::core::Cluster::InstallEvent>& install_events,
    const gdur::store::Partitioner& part, const CrossCheckOptions& opt) {
  std::vector<std::string> errs;
  std::map<std::string, std::size_t> per_check;
  auto report = [&](const std::string& check, const std::string& what) {
    if (per_check[check]++ < kMaxPerCheck) errs.push_back(check + ": " + what);
  };

  std::map<gdur::TxnId, const gdur::checker::TxnOutcome*> recorded;
  for (const auto& o : recorded_txns)
    if (!recorded.emplace(o.txn.id, &o).second)
      report("recorded-once", o.txn.id.str() + " recorded twice");

  if (opt.compare_client) {
    std::map<gdur::TxnId, const ClientTxn*> client;
    for (const auto& c : client_txns)
      if (!client.emplace(c.id, &c).second)
        report("client-once", c.id.str() + " answered twice");
    for (const auto& [id, c] : client) {
      const auto it = recorded.find(id);
      const bool site_committed = it != recorded.end() && it->second->committed;
      if (c->committed != site_committed) {
        report("commit-set", id.str() + (c->committed
                                             ? " committed for the client, "
                                               "not at any site"
                                             : " aborted for the client, "
                                               "committed at a site"));
        continue;
      }
      if (c->committed &&
          (ids_of(it->second->txn.rs) != c->reads ||
           ids_of(it->second->txn.ws) != c->writes))
        report("footprint", id.str() +
                                " read/write set differs between client "
                                "and site");
    }
    for (const auto& [id, o] : recorded)
      if (client.find(id) == client.end())
        report("client-sent", id.str() + " recorded by a site, never sent "
                                         "by the client");
  }

  std::map<InstallKey, int> installs;
  for (const auto& e : install_events) {
    ++installs[{e.writer, e.obj, e.site}];
    const auto it = recorded.find(e.writer);
    if (it == recorded.end() && opt.cut) continue;  // still in flight
    if (it == recorded.end() || !it->second->committed)
      report("install-from-commit",
             e.writer.str() + " installed object " + std::to_string(e.obj) +
                 " at site " + std::to_string(e.site) +
                 " but did not commit");
  }
  std::size_t judged = 0;
  for (const auto& [id, o] : recorded) {
    if (!o->committed || o->txn.ws.empty()) continue;
    if (opt.cut && o->response_time > opt.horizon) continue;
    ++judged;
    for (gdur::ObjectId obj : o->txn.ws)
      for (gdur::SiteId r : part.replicas_of_object(obj)) {
        const auto it = installs.find({id, obj, r});
        const int n = it == installs.end() ? 0 : it->second;
        if (n != 1)
          report("install-once", id.str() + " object " + std::to_string(obj) +
                                     " installed " + std::to_string(n) +
                                     "x at replica " + std::to_string(r));
      }
  }
  if (judged == 0)
    report("install-once", "no committed update to judge" +
                               std::string(opt.cut ? " at or before the horizon"
                                                   : ""));
  return errs;
}

bool doctor(const std::string& kind,
            std::vector<gdur::checker::TxnOutcome>& recorded,
            std::vector<gdur::core::Cluster::InstallEvent>& installs) {
  auto committed_writer = [&]() -> gdur::checker::TxnOutcome* {
    for (auto& o : recorded)
      if (o.committed && !o.txn.ws.empty()) return &o;
    return nullptr;
  };
  if (kind == "drop-install") {
    if (installs.empty()) return false;
    installs.erase(installs.begin() + static_cast<std::ptrdiff_t>(installs.size() / 2));
    return true;
  }
  if (kind == "flip-verdict") {
    auto* o = committed_writer();
    if (o == nullptr) return false;
    o->committed = false;
    return true;
  }
  if (kind == "phantom-txn") {
    const auto* o = committed_writer();
    if (o == nullptr) return false;
    gdur::checker::TxnOutcome p = *o;
    p.txn.id.seq += 1'000'000'000;  // an id the client was never given
    recorded.push_back(p);
    return true;
  }
  return false;
}

int cmd_xcheck(const Args& a) {
  std::vector<ClientTxn> client;
  std::vector<gdur::checker::TxnOutcome> recorded;
  std::vector<gdur::core::Cluster::InstallEvent> installs;
  if (!read_client_log(a.str("client-log"), client)) {
    std::fprintf(stderr, "pbtool xcheck: cannot read client log\n");
    return 2;
  }
  std::optional<gdur::front::HistoryDumpHeader> hdr;
  for (const auto& path : split(a.str("dumps"), ',')) {
    auto d = gdur::front::read_history_dump(path);
    if (!d) {
      std::fprintf(stderr, "pbtool xcheck: cannot parse %s\n", path.c_str());
      return 2;
    }
    if (!hdr) hdr = d->header;
    for (auto& o : d->txns) recorded.push_back(std::move(o));
    for (auto& e : d->installs) installs.push_back(e);
  }
  if (!hdr) return 2;
  const gdur::store::Partitioner part(
      static_cast<int>(hdr->sites), static_cast<int>(hdr->replication),
      hdr->objects, static_cast<int>(hdr->partitions_per_site));
  const auto errs = cross_check(client, recorded, installs, part);
  for (const auto& e : errs) std::fprintf(stderr, "xcheck: %s\n", e.c_str());
  std::size_t committed = 0;
  for (const auto& c : client) committed += c.committed ? 1 : 0;
  std::printf("{\"clean\": %s, \"client_txns\": %zu, \"client_committed\": %zu, "
              "\"recorded_txns\": %zu, \"installs\": %zu}\n",
              errs.empty() ? "true" : "false", client.size(), committed,
              recorded.size(), installs.size());
  return errs.empty() ? 0 : 1;
}

}  // namespace pb

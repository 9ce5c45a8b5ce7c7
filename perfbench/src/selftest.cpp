// pbtool selftest: checks of the benchmark's own checks.
//
//   * percentile, median, sub-window medians and the quieter-half selection
//     give known answers;
//   * each cross-check rejects a doctored history: one install dropped, one
//     verdict flipped, one transaction the client never sent, one footprint
//     changed, one install duplicated, one install from an aborted
//     transaction. The history goes through HistoryLogWriter and
//     read_history_dump, the same files gdur_site writes;
//   * on a history cut while clients still run (the simulator's), a dropped
//     install of a commit answered before the horizon is still rejected,
//     one after it is not judged, and a horizon before every commit fails.
//
// Exit 0 when every check holds; prints each failure otherwise.
#include <cstdlib>
#include <filesystem>

#include "common/rng.h"
#include "front/history_log.h"
#include "pb.h"
#include "xcheck.h"

namespace pb {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_statistics() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(near(percentile(v, 0.50), 50), "p50 of 1..100 is 50");
  expect(near(percentile(v, 0.99), 99), "p99 of 1..100 is 99");
  expect(near(percentile(v, 1.0), 100), "p100 of 1..100 is 100");
  expect(near(percentile(v, 0.001), 1), "p0.1 of 1..100 is 1");
  std::vector<double> one{7.5};
  expect(near(percentile(one, 0.99), 7.5), "percentile of one sample");
  std::vector<double> none;
  expect(near(percentile(none, 0.5), 0), "percentile of no samples is 0");
  std::vector<double> ten{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect(near(percentile(ten, 0.99), 10), "p99 of 10 samples is the max");
  expect(near(percentile(ten, 0.9), 9), "p90 of 1..10 is 9");
  expect(near(median({3, 1, 2}), 2), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");

  // Three 1 s sub-windows; the middle one is a stalled second whose p99 is
  // 50 ms. The median of the per-second p99s ignores it.
  Windowed w(1'000, 1'000'000'000, 3);
  for (int i = 1; i <= 100; ++i) {
    w.add(1'000 + i, i * 0.01);                    // 0.01 .. 1.00
    w.add(1'000'001'000 + i, i == 100 ? 50 : i * 0.01);
    w.add(2'000'001'000 + i, i * 0.02);            // 0.02 .. 2.00
  }
  expect(!w.add(999, 1), "sample before the window is refused");
  expect(!w.add(3'000'001'000, 1), "sample after the window is refused");
  expect(w.count() == 300, "window holds 300 samples");
  expect(near(w.median_percentile(0.99), 0.99), "median of p99s skips a stall");
  expect(near(w.median_percentile(0.50), 0.50), "median of p50s");
  expect(near(w.median_rate(), 100), "median rate is 100/s");

  const auto keep = quieter_half({0.30, 0.01, 0.02, 0.50, 0.01});
  expect(keep == std::vector<bool>{false, true, true, false, true},
         "quieter half keeps the three lowest of five");
  const Windowed q = w.only({true, false, true});
  expect(q.buckets.size() == 2 && near(q.median_percentile(0.99), (0.99 + 1.98) / 2),
         "restricted window drops the stalled sub-window");
}

/// A small clean history: 3 sites, partitions spread over them, committed
/// and aborted transactions, installs at every replica of each write.
struct History {
  std::vector<ClientTxn> client;
  std::vector<gdur::checker::TxnOutcome> recorded;
  std::vector<gdur::core::Cluster::InstallEvent> installs;
};

History make_history(const gdur::store::Partitioner& part) {
  History h;
  gdur::Rng rng(5);
  for (std::uint64_t i = 1; i <= 60; ++i) {
    ClientTxn c;
    c.id = {static_cast<gdur::SiteId>(i % 3), i};
    c.committed = i % 4 != 0;
    gdur::core::TxnRecord t;
    t.id = c.id;
    for (int k = 0; k < 2; ++k) t.rs.insert(rng.next_below(part.objects()));
    if (i % 5 != 0)
      for (int k = 0; k < 2; ++k) t.ws.insert(rng.next_below(part.objects()));
    c.reads.assign(t.rs.begin(), t.rs.end());
    c.writes.assign(t.ws.begin(), t.ws.end());
    h.client.push_back(c);
    h.recorded.push_back({t, c.committed, static_cast<gdur::SimTime>(i)});
    if (c.committed)
      for (gdur::ObjectId o : t.ws)
        for (gdur::SiteId r : part.replicas_of_object(o))
          h.installs.push_back({o, t.id, part.partition_of(o), r,
                                static_cast<gdur::SimTime>(i)});
  }
  return h;
}

/// Writes the history as per-site dumps and reads them back.
void round_trip(History& h, const gdur::store::Partitioner& part,
                const std::string& dir) {
  std::vector<std::unique_ptr<gdur::front::HistoryLogWriter>> w;
  for (gdur::SiteId s = 0; s < 3; ++s) {
    gdur::front::HistoryDumpHeader hdr;
    hdr.protocol = "P-Store";
    hdr.criterion = "SER";
    hdr.sites = 3;
    hdr.replication = static_cast<std::uint32_t>(part.replication());
    hdr.objects = part.objects();
    hdr.partitions_per_site = 2;
    hdr.self = s;
    w.push_back(std::make_unique<gdur::front::HistoryLogWriter>(hdr));
  }
  for (const auto& o : h.recorded)
    w[o.txn.id.coord]->add_txn(o.txn, o.committed, o.response_time);
  for (const auto& e : h.installs) w[e.site]->add_install(e);
  h.recorded.clear();
  h.installs.clear();
  for (gdur::SiteId s = 0; s < 3; ++s) {
    const std::string path = dir + "/site" + std::to_string(s) + ".hist";
    expect(w[s]->write_file(path), "dump written");
    auto d = gdur::front::read_history_dump(path);
    expect(d.has_value(), "dump read back");
    if (!d) continue;
    for (auto& o : d->txns) h.recorded.push_back(std::move(o));
    for (auto& e : d->installs) h.installs.push_back(e);
  }
}

bool rejects(const History& h, const gdur::store::Partitioner& part,
             const std::string& check) {
  const auto errs = cross_check(h.client, h.recorded, h.installs, part);
  for (const auto& e : errs)
    if (e.rfind(check + ":", 0) == 0) return true;
  return false;
}

void test_cross_checks(const std::string& dir) {
  // Replication 2, so "each replica of its partition" means two sites.
  const gdur::store::Partitioner part(3, 2, 3 * 64, 2);
  History clean = make_history(part);
  round_trip(clean, part, dir);
  expect(clean.recorded.size() == 60, "60 transactions survive the dumps");
  const auto errs = cross_check(clean.client, clean.recorded, clean.installs, part);
  expect(errs.empty(), "clean history passes" +
                           (errs.empty() ? std::string() : ": " + errs.front()));

  History h = clean;
  expect(doctor("drop-install", h.recorded, h.installs), "drop-install applies");
  expect(rejects(h, part, "install-once"), "a dropped install is rejected");

  h = clean;
  expect(doctor("flip-verdict", h.recorded, h.installs), "flip-verdict applies");
  expect(rejects(h, part, "commit-set"), "a flipped verdict is rejected");
  expect(rejects(h, part, "install-from-commit"),
         "installs of the flipped transaction are rejected");

  h = clean;
  expect(doctor("phantom-txn", h.recorded, h.installs), "phantom-txn applies");
  expect(rejects(h, part, "client-sent"), "a transaction never sent is rejected");

  h = clean;
  for (auto& c : h.client)
    if (c.committed && !c.writes.empty()) {
      c.writes.back() += 1;
      break;
    }
  expect(rejects(h, part, "footprint"), "a changed write set is rejected");

  h = clean;
  h.installs.push_back(h.installs.front());
  expect(rejects(h, part, "install-once"), "a doubled install is rejected");

  h = clean;
  for (const auto& o : h.recorded)
    if (!o.committed) {
      h.installs.push_back({0, o.txn.id, part.partition_of(0),
                            part.replicas_of_object(0).front(), 1});
      break;
    }
  expect(rejects(h, part, "install-from-commit"),
         "an install from an aborted transaction is rejected");

  h = clean;
  h.client.pop_back();
  expect(rejects(h, part, "client-sent"),
         "a recorded transaction missing from the client log is rejected");

  // A cut history: transaction i answered at simulated time i.
  CrossCheckOptions cut;
  cut.compare_client = false;
  cut.cut = true;
  cut.horizon = 30;
  auto cut_rejects = [&](const History& c, const CrossCheckOptions& o) {
    for (const auto& e : cross_check({}, c.recorded, c.installs, part, o))
      if (e.rfind("install-once:", 0) == 0) return true;
    return false;
  };
  expect(!cut_rejects(clean, cut), "a clean cut history passes");
  auto drop_install_of = [&](History& c, bool before_horizon) {
    for (auto it = c.installs.begin(); it != c.installs.end(); ++it)
      for (const auto& o : c.recorded)
        if (o.txn.id == it->writer &&
            (o.response_time <= cut.horizon) == before_horizon) {
          c.installs.erase(it);
          return true;
        }
    return false;
  };
  h = clean;
  expect(drop_install_of(h, true), "an install before the horizon exists");
  expect(cut_rejects(h, cut),
         "a cut history with a dropped install before the horizon is rejected");
  h = clean;
  expect(drop_install_of(h, false), "an install after the horizon exists");
  expect(!cut_rejects(h, cut),
         "a missing install after the horizon is in flight, not judged");
  CrossCheckOptions early = cut;
  early.horizon = 0;
  expect(cut_rejects(clean, early),
         "a horizon before every commit judges nothing and is rejected");
}

}  // namespace

int cmd_selftest(const Args& a) {
  const std::string dir = a.str("dir", ".bench_build/selftest");
  std::filesystem::create_directories(dir);
  test_statistics();
  test_cross_checks(dir);
  std::printf("{\"selftest\": \"%s\", \"failures\": %d}\n",
              g_failures == 0 ? "pass" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace pb

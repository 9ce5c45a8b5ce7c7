// pbtool sim: the simulator workload (sim-deep-queue).
//
// Paper protocols (--protocols, default P-Store, Serrano, RC) on
// bench_selfperf's deep-queue point: 4 sites, 512 objects per site, 1024
// closed-loop clients (workload::ClientActor), Workload B with 10%
// read-only transactions.
//
//   --trace 0   end-to-end. kLanes threads, each with one cluster of
//               every protocol. The set-up builds every cluster and warms
//               it up; then each thread advances its clusters in whole
//               rounds of kSliceS simulated seconds until --seconds of wall
//               time have passed. Reports simulated commits per wall
//               second, CPU per commit and simulated latency (over the
//               first kLatencyWindowS after the warm-up).
//   --trace 1   per layer: a fixed-length run of every protocol without and
//               with a TraceRecorder, one after the other, whose committed,
//               aborted and message counts must match; phases, messages per
//               commit, wall time.
//
// Every history is checked with checker::History::check_criterion and the
// cross-checks of xcheck.h.
#include <ctime>
#include <deque>
#include <memory>
#include <thread>

#include "checker/history.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "harness/metrics.h"
#include "live/live_runner.h"
#include "obs/trace.h"
#include "pb.h"
#include "protocols/protocols.h"
#include "workload/client.h"
#include "xcheck.h"

namespace pb {

namespace {

// S-DUR, Jessy2pc, Walter and GMU fail their criterion at this point (see
// README.md), so they are not in the default set; --protocols runs them to
// reproduce those failures.
const char* const kDefaultProtocols = "P-Store,Serrano,RC";
constexpr int kClients = 1024;        // closed-loop clients per cluster
constexpr int kLanes = 3;             // threads, each with a cluster per protocol
constexpr double kWarmupS = 0.3;      // simulated warm-up
constexpr double kSliceS = 0.05;      // simulated time per round
// Latency is taken from the commits answered in this simulated window
// after the warm-up, which every run covers however fast the host is: the
// deep queues keep growing (P-Store's p50 climbs with simulated time), so
// a window that ended wherever the wall clock stopped would tie the
// simulated latency to the host's speed.
constexpr double kLatencyWindowS = 2.0;
constexpr double kTracedWindowS = 2.0;  // simulated window of a traced run

double wall_s() { return static_cast<double>(now_ns()) / 1e9; }

/// The install-once check of a run cut at `end` judges the commits
/// answered at or before the returned time: up to 1 simulated s, and at
/// most half of the window after the warm-up, is left for the last
/// commits' installs to reach remote replicas (P-Store's remote installs
/// trail the client's answer by up to about 0.35 simulated s here).
gdur::SimTime install_horizon(gdur::SimTime warmup_end, gdur::SimTime end) {
  return end - std::min<gdur::SimTime>(gdur::seconds(1), (end - warmup_end) / 2);
}

/// One protocol's simulated cluster with its clients and recorders.
struct SimRun {
  std::string protocol;
  gdur::harness::Metrics metrics;  // ClientActor bookkeeping (unused here)
  std::unique_ptr<gdur::core::Cluster> cl;
  std::vector<std::unique_ptr<gdur::workload::ClientActor>> actors;
  // Recorded during the run into deques (no relocation stalls inside the
  // measured rounds) and handed to the checker afterwards.
  std::deque<gdur::checker::TxnOutcome> outcomes;
  std::deque<gdur::core::Cluster::InstallEvent> installs;

  // Counted while `measuring`.
  bool measuring = false;
  std::uint64_t committed = 0, aborted = 0;
  /// (response time, latency) of committed transactions.
  std::deque<std::pair<gdur::SimTime, double>> latency_ms;
  double wall = 0;

  SimRun(const std::string& name, std::uint64_t seed,
         gdur::obs::TraceRecorder* trace)
      : protocol(name) {
    gdur::core::ClusterConfig cc;
    cc.sites = 4;
    cc.replication = 1;
    cc.objects_per_site = 512;
    cc.seed = seed;
    cc.trace = trace;
    cl = std::make_unique<gdur::core::Cluster>(cc, gdur::protocols::by_name(name));
    cl->set_install_observer([this](const gdur::core::Cluster::InstallEvent& e) {
      installs.push_back(e);
    });
    const auto spec = gdur::workload::WorkloadSpec::B(0.1);
    for (int i = 0; i < kClients; ++i) {
      const auto site = static_cast<gdur::SiteId>(i % cl->sites());
      actors.push_back(std::make_unique<gdur::workload::ClientActor>(
          *cl, site, spec, metrics,
          gdur::mix64(seed * 1'000'003 + static_cast<std::uint64_t>(i))));
      actors.back()->set_observer(
          [this](const gdur::core::TxnRecord& t, bool ok) {
            const gdur::SimTime now = cl->now();
            outcomes.push_back({t, ok, now});
            if (!measuring) return;
            if (ok) {
              ++committed;
              latency_ms.emplace_back(now, gdur::to_ms(now - t.begin_time));
            } else {
              ++aborted;
            }
          });
      actors.back()->start(static_cast<gdur::SimTime>(i) *
                           gdur::microseconds(97) % gdur::milliseconds(25));
    }
  }

  void advance_to(gdur::SimTime t) {
    const double w0 = wall_s();
    cl->simulator().run_until(t);
    wall += wall_s() - w0;
  }

  /// Criterion + cross-checks; returns the first problem, or "". Installs
  /// are required only for commits answered at or before `horizon`.
  [[nodiscard]] std::string check(gdur::SimTime horizon) const {
    gdur::checker::History history;
    history.attach_partitioner(cl->partitioner());
    for (const auto& o : outcomes)
      history.record_txn(o.txn, o.committed, o.response_time);
    const std::vector<gdur::core::Cluster::InstallEvent> inst(installs.begin(),
                                                             installs.end());
    for (const auto& e : inst) history.record_install(e);
    const auto r = history.check_criterion(gdur::live::criterion_of(protocol));
    if (!r.ok) return protocol + " criterion: " + r.detail;
    CrossCheckOptions opt;
    opt.compare_client = false;
    opt.cut = true;
    opt.horizon = horizon;
    const auto errs =
        cross_check({}, history.txns(), inst, cl->partitioner(), opt);
    if (!errs.empty()) return protocol + " " + errs.front();
    return "";
  }
};

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// One cluster of every protocol, advanced on a thread of its own.
struct Lane {
  std::vector<std::unique_ptr<SimRun>> runs;  // one per protocol
  /// Per protocol, per round: simulated commits per wall second.
  std::vector<std::vector<double>> tps;
  double cpu_ms = 0;  // thread CPU time of the measured rounds
  std::uint64_t rounds = 0;

  /// Whole rounds of `slice` simulated time each, until `end_wall` and at
  /// least until `until`. A round advances every protocol's cluster in
  /// turn, so each protocol is sampled evenly over the run.
  void measure(gdur::SimTime from, gdur::SimDuration slice, double end_wall,
               gdur::SimTime until) {
    for (auto& r : runs) r->measuring = true;
    tps.assign(runs.size(), {});
    const double c0 = thread_cpu_ms();
    gdur::SimTime t = from;
    while (wall_s() < end_wall || t < until) {
      t += slice;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        SimRun& r = *runs[i];
        const std::uint64_t n0 = r.committed;
        const double w0 = r.wall;
        r.advance_to(t);
        tps[i].push_back(static_cast<double>(r.committed - n0) / (r.wall - w0));
      }
      ++rounds;
    }
    cpu_ms = thread_cpu_ms() - c0;
    for (auto& r : runs) r->measuring = false;
  }
};

int run_measured(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const double seconds = a.num("seconds", 10);
  const gdur::SimTime warmup = gdur::seconds(kWarmupS);
  const gdur::SimDuration slice = gdur::seconds(kSliceS);
  const gdur::SimTime latency_end = warmup + gdur::seconds(kLatencyWindowS);
  const std::vector<std::string> protocols =
      split(a.str("protocols", kDefaultProtocols), ',');

  // kLanes threads, each with one cluster of every protocol on its own
  // seed derived from --seed. The clusters share nothing. Every protocol
  // runs on every lane, so its rate is averaged over as many cores (how
  // fast a core of a shared host runs this code can vary by a quarter from
  // one stretch of seconds to the next, and not in step across cores) and
  // over as many seeds (how a deep queue settles). Clusters are built and
  // destroyed on this thread only.
  std::vector<Lane> lanes(kLanes);
  for (int j = 0; j < kLanes; ++j)
    for (const auto& p : protocols)
      lanes[j].runs.push_back(std::make_unique<SimRun>(
          p, seed * 64 + static_cast<std::uint64_t>(j), nullptr));
  // Set-up ends once every cluster is built and warmed up: a few
  // milliseconds of construction alone would be all process-start noise.
  {
    std::vector<std::thread> th;
    for (auto& l : lanes)
      th.emplace_back([&l, warmup] {
        for (auto& r : l.runs) r->advance_to(warmup);
      });
    for (auto& t : th) t.join();
  }
  std::printf("SETUP_DONE\n");
  std::fflush(stdout);
  {
    const double end_wall = wall_s() + seconds;
    std::vector<std::thread> th;
    for (auto& l : lanes)
      th.emplace_back([&l, warmup, slice, end_wall, latency_end] {
        l.measure(warmup, slice, end_wall, latency_end);
      });
    for (auto& t : th) t.join();
  }

  // A protocol's rate is the median of its per-round rates pooled over
  // the lanes, so a stretch of the run on a slowed-down core does not move
  // the figure; committed_tps sums the protocols.
  double tps = 0, cpu = 0;
  std::uint64_t committed = 0, aborted = 0, rounds = 0;
  std::size_t samples = 0;
  std::vector<double> p50s, p90s, p99s;
  std::string problem;
  for (const auto& l : lanes) {
    cpu += l.cpu_ms;
    rounds += l.rounds;
    for (const auto& r : l.runs) {
      committed += r->committed;
      aborted += r->aborted;
      if (problem.empty())
        problem = r->check(install_horizon(warmup, r->cl->now()));
    }
  }
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    std::vector<double> rates, lat;
    for (const auto& l : lanes) {
      rates.insert(rates.end(), l.tps[i].begin(), l.tps[i].end());
      for (const auto& [at, ms] : l.runs[i]->latency_ms)
        if (at <= latency_end) lat.push_back(ms);
    }
    const double rate = median(rates);
    tps += rate;
    samples += lat.size();
    p50s.push_back(percentile(lat, 0.50));
    p90s.push_back(percentile(lat, 0.90));
    p99s.push_back(percentile(lat, 0.99));
    std::fprintf(stderr, "sim: %s p50 %.3f p90 %.3f ms, %.0f txn/s\n",
                 protocols[i].c_str(), p50s.back(), p90s.back(), rate);
  }
  if (!problem.empty()) std::fprintf(stderr, "sim: %s\n", problem.c_str());

  Metrics m;
  m.set("committed_tps", tps, "txn/s");
  // Latency: the mean over protocols of each protocol's percentile (a
  // pooled percentile would mostly track the protocol committing most).
  m.set("latency_p50_ms", mean(p50s), "ms");
  m.set("latency_p90_ms", mean(p90s), "ms");
  m.set("latency_p99_ms", mean(p99s), "ms");
  m.set("cpu_ms_per_txn", cpu / static_cast<double>(std::max<std::uint64_t>(committed, 1)), "ms");
  std::printf("{\"attempted\": %llu, \"failed\": 0, \"samples\": %zu, "
              "\"rounds\": %llu, \"correct\": %s, \"metrics\": %s}\n",
              static_cast<unsigned long long>(committed + aborted), samples,
              static_cast<unsigned long long>(rounds),
              problem.empty() && committed > 0 ? "true" : "false",
              m.json().c_str());
  std::fflush(stdout);
  return 0;
}

/// Fixed-length untraced and traced runs of every protocol.
int run_traced(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const gdur::SimTime warmup = gdur::seconds(kWarmupS);
  const gdur::SimTime end = warmup + gdur::seconds(kTracedWindowS);

  Metrics m;
  std::string problem;
  std::uint64_t attempted = 0, all_committed = 0, all_msgs = 0, events = 0;
  double untraced_wall = 0, traced_wall = 0;
  std::array<double, gdur::obs::kPhaseCount> phase_sum{};
  std::array<std::uint64_t, gdur::obs::kPhaseCount> phase_n{};
  std::vector<double> p99s;  // per protocol, traced runs
  for (const auto& p : split(a.str("protocols", kDefaultProtocols), ',')) {
    struct Counts {
      std::uint64_t committed = 0, aborted = 0, messages = 0;
      bool operator==(const Counts&) const = default;
    };
    auto run_once = [&](gdur::obs::TraceRecorder* tr, Counts& c,
                        std::uint64_t& ev) {
      auto r = std::make_unique<SimRun>(p, seed, tr);
      r->advance_to(warmup);
      r->cl->transport().reset_accounting();
      const std::uint64_t ev0 = r->cl->simulator().events_processed();
      r->wall = 0;
      r->measuring = true;
      r->advance_to(end);
      c = {r->committed, r->aborted, r->cl->transport().messages_sent()};
      if (tr != nullptr) {
        std::vector<double> lat;
        for (const auto& sample : r->latency_ms) lat.push_back(sample.second);
        p99s.push_back(percentile(lat, 0.99));
      }
      ev = r->cl->simulator().events_processed() - ev0;
      return r;
    };
    Counts plain, traced;
    std::uint64_t ev_plain = 0, ev_traced = 0;
    double w_plain = 0;
    {
      auto r = run_once(nullptr, plain, ev_plain);
      w_plain = r->wall;
    }
    gdur::obs::TraceConfig tc;
    tc.spans = false;
    gdur::obs::TraceRecorder rec(tc);
    rec.set_phase_sink([&](const gdur::obs::TxnPhaseReport& rep) {
      if (!rep.committed || rep.read_only) return;
      for (std::size_t i = 0; i < gdur::obs::kPhaseCount; ++i) {
        phase_sum[i] += gdur::to_ms(rep.phase[i]);
        ++phase_n[i];
      }
    });
    auto r = run_once(&rec, traced, ev_traced);
    if (problem.empty() && !(plain == traced))
      problem = p + ": traced and untraced runs differ";
    if (problem.empty()) problem = r->check(install_horizon(warmup, end));

    untraced_wall += w_plain;
    traced_wall += r->wall;
    events += ev_plain;
    attempted += traced.committed + traced.aborted;
    all_committed += plain.committed;
    all_msgs += plain.messages;
    const std::string pre = "sim." + p;
    m.set(pre + ".wall_s", w_plain, "s");
    m.set(pre + ".msgs_per_commit",
          static_cast<double>(plain.messages) /
              static_cast<double>(std::max<std::uint64_t>(plain.committed, 1)),
          "count");
    m.set(pre + ".commit_ratio",
          static_cast<double>(plain.committed) /
              static_cast<double>(
                  std::max<std::uint64_t>(plain.committed + plain.aborted, 1)),
          "ratio");
  }
  if (!problem.empty()) std::fprintf(stderr, "sim: %s\n", problem.c_str());
  m.set("sim.events_per_wall_s", static_cast<double>(events) / untraced_wall,
        "1/s");
  m.set("sim.trace_overhead_pct", (traced_wall / untraced_wall - 1.0) * 100.0,
        "%");
  m.set("latency_p99_ms", mean(p99s), "ms");
  m.set("site.msgs_per_txn",
        static_cast<double>(all_msgs) /
            static_cast<double>(std::max<std::uint64_t>(all_committed, 1)),
        "count");
  for (std::size_t i = 0; i < gdur::obs::kPhaseCount; ++i)
    if (i != static_cast<std::size_t>(gdur::obs::Phase::kWriteBuffer))
      m.set(std::string("sim.phase.") + kPhaseMetric[i] + "_ms",
            phase_n[i] ? phase_sum[i] / static_cast<double>(phase_n[i]) : 0,
            "ms");
  std::printf("{\"attempted\": %llu, \"failed\": 0, \"correct\": %s, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              problem.empty() ? "true" : "false", m.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int cmd_sim(const Args& a) {
  return a.num("trace", 0) != 0 ? run_traced(a) : run_measured(a);
}

}  // namespace pb

// pbtool inproc: the in-process reference for a live workload.
//
// live::run_live with a TraceRecorder attached: the same protocol,
// keyspace (read from a site's config file), mix and concurrency as the
// gdur_site workload, closed loop, every site in this process, no front
// door, for kSecs seconds. The gap between its figures and the workload's
// own is what the front door and the process boundary cost; its phase
// breakdown splits the in-process latency by realization point.
//
//   pbtool inproc --site-config site0.conf --seed N
#include "live/live_runner.h"
#include "obs/trace.h"
#include "pb.h"

namespace pb {

namespace {
constexpr double kSecs = 2.0;
}  // namespace

int cmd_inproc(const Args& a) {
  const SiteConfig sc = read_site_config(a.str("site-config"));
  gdur::live::LiveRunConfig cfg;
  cfg.protocol = sc.protocol;
  cfg.sites = sc.sites;
  cfg.clients = kLiveClients;
  cfg.secs = kSecs;
  cfg.workload = gdur::workload::WorkloadSpec::B(kLiveReadOnly);
  cfg.objects_per_site = sc.objects_per_site;
  cfg.partitions_per_site = sc.partitions_per_site;
  cfg.replication = sc.replication;
  cfg.seed = static_cast<std::uint64_t>(a.num("seed", 1));

  gdur::obs::TraceConfig tc;
  tc.spans = false;
  gdur::obs::TraceRecorder rec(tc);
  std::array<double, gdur::obs::kPhaseCount> phase_sum{};
  std::uint64_t updates = 0;
  std::vector<double> latency_ms;
  rec.set_phase_sink([&](const gdur::obs::TxnPhaseReport& rep) {
    if (!rep.committed) return;
    latency_ms.push_back(gdur::to_ms(rep.end - rep.begin));
    if (rep.read_only) return;
    ++updates;
    for (std::size_t i = 0; i < gdur::obs::kPhaseCount; ++i)
      phase_sum[i] += gdur::to_ms(rep.phase[i]);
  });
  cfg.trace = &rec;
  const auto r = gdur::live::run_live(cfg);

  Metrics m;
  m.set("inproc.committed_tps", r.throughput_tps, "txn/s");
  m.set("inproc.latency_p50_ms", percentile(latency_ms, 0.5), "ms");
  for (std::size_t i = 0; i < gdur::obs::kPhaseCount; ++i)
    if (i != static_cast<std::size_t>(gdur::obs::Phase::kWriteBuffer))
      m.set(std::string("inproc.phase.") + kPhaseMetric[i] + "_ms",
            updates ? phase_sum[i] / static_cast<double>(updates) : 0, "ms");
  const bool ok = r.checker_ok && r.hung_clients == 0 && r.metrics.committed() > 0;
  if (!ok)
    std::fprintf(stderr, "inproc: checker %s (%s), %d hung client(s)\n",
                 r.checker_ok ? "clean" : "FAILED", r.checker_detail.c_str(),
                 r.hung_clients);
  std::printf("{\"correct\": %s, \"committed\": %llu, \"metrics\": %s}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(r.metrics.committed()),
              m.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace pb

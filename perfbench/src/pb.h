// Shared pieces of the benchmark's helper program (pbtool): raw-sample
// statistics, the live workload's settings, /proc readers, the client log
// exchanged with the cross-checker, and the metric printer.
//
// Everything here is measurement code outside the program under test; the
// self-test (pbtool selftest) pins the statistics to known answers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- statistics on raw samples ----------------------------------------------

/// Nearest-rank percentile of `v` (q in (0, 1]): the smallest sample such
/// that at least q of all samples are <= it. 0 for an empty set. Sorts `v`.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Median as the mean of the two middle samples (statistics.median).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Samples bucketed into equal sub-windows of the measured window; the
/// end-to-end figures are medians over the sub-windows, so one stalled
/// second cannot move a run's result.
struct Windowed {
  std::int64_t start_ns = 0;
  std::int64_t width_ns = 1'000'000'000;
  std::vector<std::vector<double>> buckets;

  Windowed(std::int64_t start, std::int64_t width, std::size_t n)
      : start_ns(start), width_ns(width), buckets(n) {}

  /// Adds `value` observed at `at_ns`; false when outside the window.
  bool add(std::int64_t at_ns, double value) {
    if (at_ns < start_ns) return false;
    const auto b = static_cast<std::size_t>((at_ns - start_ns) / width_ns);
    if (b >= buckets.size()) return false;
    buckets[b].push_back(value);
    return true;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (const auto& b : buckets) n += b.size();
    return n;
  }

  /// The same window restricted to the sub-windows where keep[b] is true.
  [[nodiscard]] Windowed only(const std::vector<bool>& keep) const {
    Windowed w(start_ns, width_ns, 0);
    for (std::size_t b = 0; b < buckets.size(); ++b)
      if (b < keep.size() && keep[b]) w.buckets.push_back(buckets[b]);
    return w;
  }

  /// Median over sub-windows of each sub-window's q-percentile.
  [[nodiscard]] double median_percentile(double q) const {
    std::vector<double> per;
    for (auto b : buckets)
      if (!b.empty()) per.push_back(percentile(b, q));
    return median(per);
  }

  /// Median over sub-windows of the sample rate (per second).
  [[nodiscard]] double median_rate() const {
    std::vector<double> per;
    for (const auto& b : buckets)
      per.push_back(static_cast<double>(b.size()) * 1e9 /
                    static_cast<double>(width_ns));
    return median(per);
  }
};

/// Marks the quieter half (rounded up) of the sub-windows: those with the
/// smallest `noise` (here the share of CPU time the hypervisor gave to other
/// guests). Ties keep the earlier sub-window.
inline std::vector<bool> quieter_half(const std::vector<double>& noise) {
  std::vector<std::size_t> idx(noise.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&noise](std::size_t a, std::size_t b) {
    return noise[a] < noise[b];
  });
  std::vector<bool> keep(noise.size(), false);
  for (std::size_t i = 0; i < (idx.size() + 1) / 2; ++i) keep[idx[i]] = true;
  return keep;
}

// --- the live workload ---------------------------------------------------------

/// pstore-interactive-b's mix and concurrency, shared by the load generator
/// and the in-process reference run: YCSB B with 20% read-only
/// transactions, 24 closed-loop interactive clients.
inline constexpr double kLiveReadOnly = 0.2;
inline constexpr int kLiveClients = 24;

/// What the sites were configured with (their config file, written by
/// run.py): the protocol and the keyspace the generator must draw from.
struct SiteConfig {
  std::string protocol;
  int sites = 0;
  std::uint64_t objects_per_site = 0;
  int partitions_per_site = 0;
  int replication = 1;
};

/// Reads a gdur_site config file; throws when a needed key is missing.
SiteConfig read_site_config(const std::string& path);

// --- /proc ----------------------------------------------------------------------

struct ProcSample {
  double user_ms = 0;
  double sys_ms = 0;
  double rss_mb = 0;
  bool ok = false;
};

/// utime/stime of `pid` from /proc/<pid>/stat and VmRSS from
/// /proc/<pid>/status.
ProcSample read_proc(int pid);

/// Host-wide jiffies from the first line of /proc/stat.
struct HostTicks {
  double steal = 0;
  double total = 0;
};
HostTicks read_host_ticks();

// --- client log -------------------------------------------------------------------

/// What the client saw of one transaction: its server-issued id, the verdict
/// and the footprint it asked for. The cross-checker compares these to the
/// sites' history dumps.
struct ClientTxn {
  gdur::TxnId id;
  bool committed = false;
  std::vector<gdur::ObjectId> reads;   // sorted, distinct
  std::vector<gdur::ObjectId> writes;  // sorted, distinct
};

bool write_client_log(const std::string& path, const std::vector<ClientTxn>& v);
bool read_client_log(const std::string& path, std::vector<ClientTxn>& out);

// --- output ------------------------------------------------------------------------

/// Metric name -> (value, unit), printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    m_[name] = {value, unit};
  }
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// Simple --key value argument map.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& k,
                                const std::string& dflt = "") const;
  [[nodiscard]] double num(const std::string& k, double dflt) const;
  [[nodiscard]] bool has(const std::string& k) const {
    return kv_.count(k) != 0;
  }

 private:
  std::map<std::string, std::string> kv_;
};

std::vector<std::string> split(const std::string& s, char sep);

/// Metric-name form of obs::Phase values (index = Phase).
inline constexpr const char* kPhaseMetric[] = {
    "execute", "read",         "write_buffer", "xcast",          "cert_wait",
    "certify", "vote_collect", "apply",        "client_response"};

// --- subcommands ---------------------------------------------------------------------

int cmd_load(const Args& a);
int cmd_sim(const Args& a);
int cmd_inproc(const Args& a);
int cmd_xcheck(const Args& a);
int cmd_selftest(const Args& a);

}  // namespace pb

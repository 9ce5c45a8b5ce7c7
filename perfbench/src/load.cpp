// pbtool load: the benchmark's load generator for gdur_site processes.
//
// One process, one session per site (front::GdurClient), one scheduling
// thread: the thread count is 1 + the sites' reader threads. kLiveClients
// logical interactive clients are multiplexed over the sessions; each runs
// begin/read.../write.../commit with one request in flight, then starts its
// next transaction. Latency runs from the begin request to the commit
// verdict.
//
//   pbtool load --site-config F --ports P,P,P --pids N,N,N --seed N
//               --seconds S --trace 0|1 --client-log F
//
// The keyspace comes from a site's config file. The run is kWarmupS
// seconds unmeasured, --seconds measured (in sub-windows of kSubwindowS),
// then a drain: no new transactions, every outstanding request waits for
// its verdict up to kDeadlineS after it was sent. A transaction without a
// verdict (refused at submit, connection lost, deadline passed) is failed.
// Site CPU comes from /proc/<pid>/stat of --pids, sampled at every
// sub-window boundary.
//
// Prints "CONNECTED" once every session is up, then one JSON object with
// the figures; --client-log receives every verdict for the cross-checker.
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "front/client.h"
#include "pb.h"
#include "store/partitioner.h"
#include "workload/workload.h"

namespace pb {

namespace {

using gdur::front::GdurClient;
using Op = gdur::net::codec::ClientOp;

constexpr double kWarmupS = 1.0;
constexpr double kSubwindowS = 0.25;
constexpr std::int64_t kDeadlineNs = 10'000'000'000;

struct Event {
  std::uint64_t req = 0;
  bool ok = false;
  bool lost = false;  // connection gone: no verdict
  std::uint64_t txn = 0;
  std::int64_t at_ns = 0;
};

/// Completions handed from the sessions' reader threads to the scheduler.
class Inbox {
 public:
  void push(const Event& e) {
    {
      std::lock_guard<std::mutex> g(mu_);
      q_.push_back(e);
    }
    cv_.notify_one();
  }
  /// Waits until an event is queued or `until_ns`; returns what is queued.
  void take(std::int64_t until_ns, std::vector<Event>& out) {
    std::unique_lock<std::mutex> g(mu_);
    if (q_.empty()) {
      const auto until = Clock::time_point(std::chrono::nanoseconds(until_ns));
      cv_.wait_until(g, until, [this] { return !q_.empty(); });
    }
    out.swap(q_);
    q_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Event> q_;
};

struct Req {
  int owner = -1;  // logical client
  Op op = Op::kBegin;
  std::size_t txn = 0;  // index into Loader::txns_
  std::int64_t sent_ns = 0;
  bool settled = false;
};

struct TxnState {
  ClientTxn rec;
  std::int64_t start_ns = 0;  // begin request sent
  bool settled = false;
  bool failed = false;
};

/// One logical interactive client.
struct Logical {
  std::size_t session = 0;
  std::unique_ptr<gdur::workload::Generator> gen;
  gdur::workload::TxnProfile prof;
  std::size_t txn = 0;
  std::uint64_t handle = 0;
  std::size_t next_read = 0, next_write = 0;
};

std::vector<gdur::ObjectId> sorted_ids(std::vector<gdur::ObjectId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

class Loader {
 public:
  explicit Loader(const Args& a)
      : trace_(a.num("trace", 0) != 0),
        seconds_(static_cast<int>(a.num("seconds", 10))),
        seed_(static_cast<std::uint64_t>(a.num("seed", 1))),
        spec_(gdur::workload::WorkloadSpec::B(kLiveReadOnly)) {
    for (const auto& p : split(a.str("ports"), ','))
      ports_.push_back(static_cast<std::uint16_t>(std::stoul(p)));
    if (a.has("pids"))
      for (const auto& p : split(a.str("pids"), ',')) pids_.push_back(std::stoi(p));
    const SiteConfig sc = read_site_config(a.str("site-config"));
    const int sites = static_cast<int>(ports_.size());
    part_ = std::make_unique<gdur::store::Partitioner>(
        sites, sc.replication,
        sc.objects_per_site * static_cast<std::uint64_t>(sites),
        sc.partitions_per_site);
    client_log_ = a.str("client-log");
  }

  int run();

 private:
  bool connect();
  void start(Logical& l, std::int64_t now);
  void step(Logical& l, std::int64_t now);
  bool send(std::size_t session, Op op, std::size_t txn, int owner,
            std::uint64_t handle, gdur::ObjectId obj, std::int64_t now);
  void on_event(const Event& e);
  void settle(std::size_t txn, bool committed, std::int64_t at_ns);
  void fail(std::size_t txn);
  void expire(std::int64_t now);
  void sample_proc();
  void report();

  const bool trace_;
  const int seconds_;
  const std::uint64_t seed_;
  const gdur::workload::WorkloadSpec spec_;
  std::vector<std::uint16_t> ports_;
  std::vector<int> pids_;
  std::unique_ptr<gdur::store::Partitioner> part_;
  std::string client_log_;

  std::vector<std::unique_ptr<GdurClient>> sessions_;
  std::vector<Logical> logical_;
  Inbox inbox_;
  // Deques, not vectors: growing them never relocates what is already
  // there, so the scheduler never stalls on a large copy mid-run.
  std::deque<Req> reqs_;
  std::deque<std::uint64_t> pending_;  // request ids in send order
  std::deque<TxnState> txns_;
  bool accepting_ = true;
  bool lost_ = false;

  // Measurement.
  std::unique_ptr<Windowed> lat_;  // committed latency (ms) by completion
  std::int64_t win_start_ = 0, win_end_ = 0;
  std::deque<double> lag_ms_;
  std::deque<double> rtt_us_[6];  // by Op value
  std::uint64_t ops_sent_ = 0, txns_done_ = 0;
  std::vector<std::vector<ProcSample>> proc_;  // per boundary, per pid
  std::vector<HostTicks> host_;                // per boundary
  std::uint64_t committed_all_ = 0, aborted_all_ = 0, failed_ = 0;
};

bool Loader::connect() {
  for (std::uint16_t port : ports_) {
    gdur::front::ClientConfig cc;
    cc.port = port;
    sessions_.push_back(std::make_unique<GdurClient>(cc));
    if (!sessions_.back()->connect()) {
      std::fprintf(stderr, "pbtool load: cannot connect to port %u\n", port);
      return false;
    }
  }
  logical_.resize(static_cast<std::size_t>(kLiveClients));
  for (std::size_t i = 0; i < logical_.size(); ++i) {
    auto& l = logical_[i];
    l.session = i % sessions_.size();
    l.gen = std::make_unique<gdur::workload::Generator>(
        spec_, *part_, sessions_[l.session]->site(),
        gdur::mix64(seed_ * 1'000'003 + i));
  }
  return true;
}

bool Loader::send(std::size_t session, Op op, std::size_t txn, int owner,
                  std::uint64_t handle, gdur::ObjectId obj, std::int64_t now) {
  const std::uint64_t id = reqs_.size();
  reqs_.push_back({owner, op, txn, now, false});
  GdurClient* c = sessions_[session].get();
  Inbox* inbox = &inbox_;
  const bool sent = c->try_submit(
      op, handle, obj, {}, {},
      [inbox, c, id](const GdurClient::Resp& r) {
        Event e;
        e.req = id;
        e.ok = r.ok;
        e.txn = r.txn;
        e.lost = !c->connected();
        e.at_ns = now_ns();
        inbox->push(e);
      });
  if (!sent) {
    reqs_.back().settled = true;
    if (!c->connected()) lost_ = true;
    return false;
  }
  ++ops_sent_;
  pending_.push_back(id);
  return true;
}

void Loader::start(Logical& l, std::int64_t now) {
  l.prof = l.gen->next();
  l.next_read = l.next_write = 0;
  l.handle = 0;
  TxnState t;
  t.start_ns = now;
  t.rec.id.coord = sessions_[l.session]->site();
  txns_.push_back(std::move(t));
  l.txn = txns_.size() - 1;
  const int owner = static_cast<int>(&l - logical_.data());
  if (!send(l.session, Op::kBegin, l.txn, owner, 0, 0, now))
    fail(l.txn);
}

/// Issues the logical client's next operation after a successful step.
void Loader::step(Logical& l, std::int64_t now) {
  const int owner = static_cast<int>(&l - logical_.data());
  auto& rec = txns_[l.txn].rec;
  bool sent = false;
  if (l.next_read < l.prof.reads.size()) {
    const auto x = l.prof.reads[l.next_read++];
    rec.reads.push_back(x);
    sent = send(l.session, Op::kRead, l.txn, owner, l.handle, x, now);
  } else if (l.next_write < l.prof.writes.size()) {
    const auto x = l.prof.writes[l.next_write++];
    rec.writes.push_back(x);
    sent = send(l.session, Op::kWrite, l.txn, owner, l.handle, x, now);
  } else {
    sent = send(l.session, Op::kCommit, l.txn, owner, l.handle, 0, now);
  }
  if (!sent) fail(l.txn);
}

void Loader::settle(std::size_t txn, bool committed, std::int64_t at_ns) {
  auto& t = txns_[txn];
  if (t.settled) return;
  t.settled = true;
  t.rec.committed = committed;
  t.rec.reads = sorted_ids(std::move(t.rec.reads));
  t.rec.writes = sorted_ids(std::move(t.rec.writes));
  ++txns_done_;
  if (committed) {
    ++committed_all_;
    lat_->add(at_ns, static_cast<double>(at_ns - t.start_ns) / 1e6);
  } else {
    ++aborted_all_;
  }
}

void Loader::fail(std::size_t txn) {
  auto& t = txns_[txn];
  if (t.settled) return;
  t.settled = true;
  t.failed = true;
  ++failed_;
}

void Loader::on_event(const Event& e) {
  Req& r = reqs_[e.req];
  if (r.settled) return;  // already expired by its deadline
  r.settled = true;
  if (e.lost) {
    lost_ = true;
    fail(r.txn);
    return;
  }
  if (trace_)
    rtt_us_[static_cast<int>(r.op)].push_back(
        static_cast<double>(e.at_ns - r.sent_ns) / 1e3);
  Logical& l = logical_[static_cast<std::size_t>(r.owner)];
  const std::int64_t now = now_ns();
  lag_ms_.push_back(static_cast<double>(now - e.at_ns) / 1e6);
  switch (r.op) {
    case Op::kBegin:
      if (!e.ok) {  // refused: no transaction was opened
        fail(l.txn);
        return;
      }
      l.handle = e.txn;
      txns_[l.txn].rec.id.seq = e.txn;
      step(l, now);
      return;
    case Op::kRead:
    case Op::kWrite:
      if (!e.ok) {
        // An execution-phase abort (no readable version), as in the
        // in-process harness: the transaction is abandoned, not committed.
        // The client protocol has no abort request; the site presumes the
        // abort when the session closes.
        settle(l.txn, false, e.at_ns);
        if (accepting_) start(l, now);
        return;
      }
      step(l, now);
      return;
    case Op::kCommit:
      settle(l.txn, e.ok, e.at_ns);
      if (accepting_) start(l, now);
      return;
    default:
      return;
  }
}

/// Fails every request older than the deadline.
void Loader::expire(std::int64_t now) {
  while (!pending_.empty()) {
    Req& r = reqs_[pending_.front()];
    if (r.settled) {
      pending_.pop_front();
      continue;
    }
    if (now - r.sent_ns < kDeadlineNs) break;
    r.settled = true;
    fail(r.txn);
    pending_.pop_front();
  }
}

void Loader::sample_proc() {
  std::vector<ProcSample> v;
  for (int pid : pids_) v.push_back(read_proc(pid));
  proc_.push_back(std::move(v));
  host_.push_back(read_host_ticks());
}

int Loader::run() {
  if (ports_.empty()) {
    std::fprintf(stderr, "pbtool load: need --ports\n");
    return 2;
  }
  if (!connect()) return 1;
  std::printf("CONNECTED\n");
  std::fflush(stdout);

  const std::int64_t t0 = now_ns();
  win_start_ = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  win_end_ = win_start_ + static_cast<std::int64_t>(seconds_) * 1'000'000'000;
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds_ / kSubwindowS)));
  const std::int64_t width = (win_end_ - win_start_) /
                             static_cast<std::int64_t>(windows);
  lat_ = std::make_unique<Windowed>(win_start_, width, windows);
  std::int64_t next_boundary = win_start_;

  for (auto& l : logical_) start(l, now_ns());

  std::vector<Event> events;
  std::int64_t drain_until = 0;
  for (;;) {
    std::int64_t now = now_ns();
    if (accepting_ && now >= win_end_) {
      accepting_ = false;
      drain_until = now + kDeadlineNs + 1'000'000'000;
    }
    if (next_boundary <= win_end_ && now >= next_boundary) {
      sample_proc();
      next_boundary += width;
    }
    expire(now);
    if (!accepting_) {
      bool busy = false;
      for (const auto& r : pending_)
        if (!reqs_[r].settled) {
          busy = true;
          break;
        }
      if (!busy || lost_ || now >= drain_until) break;
    }
    std::int64_t wake = next_boundary <= win_end_ ? next_boundary : win_end_;
    if (!accepting_) wake = now + 1'000'000;
    inbox_.take(wake, events);
    for (const auto& e : events) on_event(e);
    events.clear();
  }
  // Every response is in (or failed by deadline): only now close sessions.
  for (auto& s : sessions_) s->close();
  for (std::size_t i = 0; i < txns_.size(); ++i)
    if (!txns_[i].settled) fail(i);
  report();
  return 0;
}

void Loader::report() {
  std::vector<ClientTxn> log;
  for (const auto& t : txns_)
    if (!t.failed) log.push_back(t.rec);
  if (!client_log_.empty() && !write_client_log(client_log_, log)) {
    std::fprintf(stderr, "pbtool load: cannot write %s\n", client_log_.c_str());
    std::exit(1);
  }

  // The figures come from the quieter half of the sub-windows: the share
  // of CPU time the hypervisor gave to other guests comes and goes in
  // bursts, and a sub-window that lost much of its CPU measures the host,
  // not the program.
  std::vector<double> steal;
  for (std::size_t b = 0; b + 1 < host_.size(); ++b) {
    const double total = host_[b + 1].total - host_[b].total;
    steal.push_back(total > 0 ? (host_[b + 1].steal - host_[b].steal) / total
                              : 0);
  }
  const std::vector<bool> keep = quieter_half(steal);
  const Windowed lat = lat_->only(keep);

  // CPU of the sites (user+sys summed over processes) against the commits
  // completed in the same sub-window.
  std::vector<double> cpu_per_txn, user_per_txn, sys_per_txn;
  double rss = 0;
  for (std::size_t b = 0; b + 1 < proc_.size(); ++b) {
    const double committed =
        b < lat_->buckets.size() ? static_cast<double>(lat_->buckets[b].size())
                                 : 0;
    if (committed <= 0 || !keep[b]) continue;
    double u = 0, s = 0;
    for (std::size_t p = 0; p < pids_.size(); ++p) {
      u += proc_[b + 1][p].user_ms - proc_[b][p].user_ms;
      s += proc_[b + 1][p].sys_ms - proc_[b][p].sys_ms;
    }
    cpu_per_txn.push_back((u + s) / committed);
    user_per_txn.push_back(u / committed);
    sys_per_txn.push_back(s / committed);
  }
  if (!proc_.empty()) {
    for (const auto& p : proc_.back()) rss += p.rss_mb;
    if (!pids_.empty()) rss /= static_cast<double>(pids_.size());
  }

  Metrics m;
  m.set("committed_tps", lat.median_rate(), "txn/s");
  m.set("latency_p50_ms", lat.median_percentile(0.50), "ms");
  m.set("latency_p90_ms", lat.median_percentile(0.90), "ms");
  m.set("latency_p99_ms", lat.median_percentile(0.99), "ms");
  m.set("cpu_ms_per_txn", median(cpu_per_txn), "ms");
  m.set("site.cpu_user_ms_per_txn", median(user_per_txn), "ms");
  m.set("site.cpu_sys_ms_per_txn", median(sys_per_txn), "ms");
  m.set("site.rss_mb", rss, "MB");
  std::vector<double> lag(lag_ms_.begin(), lag_ms_.end());
  m.set("gen.lag_ms.p99", percentile(lag, 0.99), "ms");
  m.set("gen.lag_ms.max", percentile(lag, 1.0), "ms");
  auto rtt = [&](Op op, double q) {
    const auto& d = rtt_us_[static_cast<int>(op)];
    std::vector<double> v(d.begin(), d.end());
    return percentile(v, q);
  };
  m.set("front.begin_rtt_us.p50", rtt(Op::kBegin, 0.50), "us");
  m.set("front.read_rtt_us.p50", rtt(Op::kRead, 0.50), "us");
  m.set("front.write_rtt_us.p50", rtt(Op::kWrite, 0.50), "us");
  m.set("front.commit_rtt_us.p50", rtt(Op::kCommit, 0.50), "us");
  m.set("front.commit_rtt_us.p99", rtt(Op::kCommit, 0.99), "us");
  m.set("front.client_ops_per_txn",
        txns_done_ ? static_cast<double>(ops_sent_) / static_cast<double>(txns_done_) : 0,
        "count");

  std::printf("{\"attempted\": %zu, \"failed\": %llu, \"committed\": %llu, "
              "\"aborted\": %llu, \"samples\": %zu, \"lost\": %s, "
              "\"metrics\": %s}\n",
              txns_.size(), static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(committed_all_),
              static_cast<unsigned long long>(aborted_all_), lat_->count(),
              lost_ ? "true" : "false", m.json().c_str());
  std::fflush(stdout);
}

}  // namespace

int cmd_load(const Args& a) { return Loader(a).run(); }

}  // namespace pb

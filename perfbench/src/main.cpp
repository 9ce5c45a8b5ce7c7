// pbtool: the benchmark's helper program. run.py builds it and calls one
// subcommand per step:
//
//   pbtool load     --site-config F --ports P,P,P ...  load generator (GdurClient)
//   pbtool xcheck   --client-log F --dumps F,F,F       client/dump cross-checks
//   pbtool sim      --seed N --seconds S               simulator workload
//   pbtool inproc   --site-config F --seed N           in-process reference run
//   pbtool selftest                                    checks of the checks
//
// Each prints its result as one JSON line on stdout.
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "pb.h"

namespace pb {

ProcSample read_proc(int pid) {
  ProcSample s;
  std::ifstream st("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(st, line)) return s;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const auto rp = line.rfind(')');
  if (rp == std::string::npos) return s;
  std::istringstream in(line.substr(rp + 2));
  std::vector<std::string> f;
  std::string tok;
  while (in >> tok) f.push_back(tok);
  if (f.size() < 13) return s;
  const double tick_ms = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  s.user_ms = std::stod(f[11]) * tick_ms;
  s.sys_ms = std::stod(f[12]) * tick_ms;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      s.rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
      break;
    }
  }
  s.ok = true;
  return s;
}

SiteConfig read_site_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read site config " + path);
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto need = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end())
      throw std::runtime_error(std::string("site config lacks ") + key);
    return it->second;
  };
  SiteConfig c;
  c.protocol = need("protocol");
  c.sites = std::stoi(need("sites"));
  c.objects_per_site = std::stoull(need("objects_per_site"));
  c.partitions_per_site = std::stoi(need("partitions_per_site"));
  if (kv.count("replication") != 0) c.replication = std::stoi(kv["replication"]);
  return c;
}

HostTicks read_host_ticks() {
  HostTicks h;
  std::ifstream st("/proc/stat");
  std::string cpu;
  st >> cpu;
  double v = 0;
  for (int i = 0; st >> v && i < 10; ++i) {
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

namespace {

void write_ids(std::ostream& out, const std::vector<gdur::ObjectId>& v) {
  if (v.empty()) {
    out << '-';
    return;
  }
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
}

bool read_ids(const std::string& s, std::vector<gdur::ObjectId>& v) {
  v.clear();
  if (s == "-") return true;
  for (const auto& p : split(s, ',')) {
    if (p.empty()) return false;
    v.push_back(std::stoull(p));
  }
  return true;
}

}  // namespace

// One line per transaction: "<site> <seq> <C|A> <reads> <writes>", id lists
// comma-separated, "-" for empty.
bool write_client_log(const std::string& path,
                      const std::vector<ClientTxn>& v) {
  std::ofstream out(path);
  for (const auto& t : v) {
    out << t.id.coord << ' ' << t.id.seq << ' ' << (t.committed ? 'C' : 'A')
        << ' ';
    write_ids(out, t.reads);
    out << ' ';
    write_ids(out, t.writes);
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool read_client_log(const std::string& path, std::vector<ClientTxn>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string site, seq, verdict, rs, ws;
    if (!(ls >> site >> seq >> verdict >> rs >> ws)) return false;
    ClientTxn t;
    t.id.coord = static_cast<gdur::SiteId>(std::stoul(site));
    t.id.seq = std::stoull(seq);
    t.committed = verdict == "C";
    if (!read_ids(rs, t.reads) || !read_ids(ws, t.writes)) return false;
    out.push_back(std::move(t));
  }
  return true;
}

std::string Metrics::json() const {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, vu] : m_) {
    char buf[96];
    // %.17g keeps every digit of the measurement.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
    s += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  return s + "}";
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) continue;
    k = k.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
      kv_[k] = argv[++i];
    else
      kv_[k] = "1";
  }
}

std::string Args::str(const std::string& k, const std::string& dflt) const {
  const auto it = kv_.find(k);
  return it == kv_.end() ? dflt : it->second;
}

double Args::num(const std::string& k, double dflt) const {
  const auto it = kv_.find(k);
  return it == kv_.end() ? dflt : std::stod(it->second);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace pb

int main(int argc, char** argv) {
  // GdurClient writes with plain write(2); a site that goes away must show
  // up as a lost connection, not kill the generator.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool load|xcheck|sim|inproc|selftest ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const pb::Args a(argc, argv, 2);
  try {
    if (cmd == "load") return pb::cmd_load(a);
    if (cmd == "xcheck") return pb::cmd_xcheck(a);
    if (cmd == "sim") return pb::cmd_sim(a);
    if (cmd == "inproc") return pb::cmd_inproc(a);
    if (cmd == "selftest") return pb::cmd_selftest(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbtool %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "pbtool: unknown subcommand %s\n", cmd.c_str());
  return 2;
}

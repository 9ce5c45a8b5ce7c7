#!/usr/bin/env python3
"""G-DUR benchmark: client-visible latency, throughput and CPU per
transaction on the deployed gdur_site path and in the simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Workloads:
  pstore-interactive-b  3 gdur_site processes, P-Store, 24 closed-loop
                        interactive clients (YCSB B, 20% read-only).
  sim-deep-queue        the discrete-event simulator on bench_selfperf's
                        deep-queue point: P-Store, Serrano and RC; three
                        threads, each with one cluster of every protocol.

The first run builds what it needs (perfbench/CMakeLists.txt) into
.bench_build/perfbench. Every run checks its outputs (criterion checker,
client/dump cross-checks, clean drains, clean snapshots) and prints, as the
last line of stdout, one JSON object: correct, attempted, failed, metrics.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import random
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SITES = 3
# Live workload -> protocol of its sites. The mix and the concurrency are
# pbtool's (pb.h); pbtool reads the keyspace from the sites' config file.
LIVE = {"pstore-interactive-b": "P-Store"}
SIM = ("sim-deep-queue",)
OBJECTS_PER_SITE = 4096
PARTITIONS = 2
# pbtool load runs a 1 s warm-up, the window, and a drain of at most 11 s.
LOAD_SLACK_S = 60
# Before SIGTERM, the sites must have been quiet this long (see wait_quiet),
# each using at most IDLE_CPU_S of CPU time in it.
QUIET_S = 0.25
IDLE_CPU_S = 0.02

END_TO_END = [
    ("committed_tps", "txn/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("cpu_ms_per_txn", "ms"), ("setup_s", "s"),
]
# pbtool sim's protocol set (kDefaultProtocols in src/sim.cpp).
SIM_PROTOCOLS = ["P-Store", "Serrano", "RC"]
PHASES = ["execute", "read", "xcast", "cert_wait", "certify", "vote_collect",
          "apply", "client_response"]
PER_LAYER = (
    [("latency_p99_ms", "ms"), ("front.begin_rtt_us.p50", "us"), ("front.read_rtt_us.p50", "us"),
     ("front.write_rtt_us.p50", "us"), ("front.commit_rtt_us.p50", "us"),
     ("front.commit_rtt_us.p99", "us"), ("front.client_ops_per_txn", "count"),
     ("site.msgs_per_txn", "count"), ("site.bytes_per_txn", "B"),
     ("site.mailbox_tasks_per_txn", "count"),
     ("site.loop_wakeups_per_txn", "count"),
     ("site.cpu_user_ms_per_txn", "ms"), ("site.cpu_sys_ms_per_txn", "ms"),
     ("site.rss_mb", "MB"), ("site.votes_per_txn", "count"),
     ("site.queue_depth.p99", "count"), ("site.commit_ratio", "ratio"),
     ("inproc.committed_tps", "txn/s"), ("inproc.latency_p50_ms", "ms")]
    + [(f"inproc.phase.{p}_ms", "ms") for p in PHASES]
    + [(f"sim.{p}.wall_s", "s") for p in SIM_PROTOCOLS]
    + [("sim.events_per_wall_s", "1/s")]
    + [(f"sim.{p}.msgs_per_commit", "count") for p in SIM_PROTOCOLS]
    + [(f"sim.{p}.commit_ratio", "ratio") for p in SIM_PROTOCOLS]
    + [(f"sim.phase.{p}_ms", "ms") for p in PHASES]
    + [("sim.trace_overhead_pct", "%"),
       ("gen.lag_ms.p99", "ms"), ("gen.lag_ms.max", "ms"),
       ("traced.committed_tps", "txn/s"), ("traced.latency_p50_ms", "ms")]
)

CHILDREN = []


class BenchError(Exception):
    """The run could not produce a result."""


def cpu_ticks():
    """(steal, total) jiffies of the whole host from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def log(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.stderr.flush()


# --- processes ----------------------------------------------------------------

def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    CHILDREN.append(p)
    return p


def reap_all():
    """Kills and waits for every child still running (any exit path)."""
    for p in CHILDREN:
        if p.poll() is None:
            try:
                p.kill()
            except OSError:
                pass
    for p in CHILDREN:
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            log(f"pid {p.pid} did not exit after SIGKILL")
    CHILDREN.clear()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def read_line(proc, prefix, deadline_s):
    """Reads proc's stdout until a line starting with prefix; None on EOF or
    timeout."""
    end = time.monotonic() + deadline_s
    while True:
        left = end - time.monotonic()
        if left <= 0:
            return None
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if not ready:
            return None
        line = proc.stdout.readline()
        if not line:
            return None
        if line.startswith(prefix):
            return line.strip()


def last_json(text):
    """The last JSON line of a pbtool output, metric values flattened."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            res = json.loads(line)
            if "metrics" in res:
                res["metrics"] = {k: v["value"]
                                  for k, v in res["metrics"].items()}
            return res
    raise BenchError("no JSON result in output")


# --- build --------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    for need in ("src/CMakeLists.txt", "examples/gdur_site.cpp",
                 "examples/gdur_checkhist.cpp",
                 "tools/obs/validate_snapshot.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} missing: run from a full checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    out = open(os.path.join(bdir, "build.log"), "a")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=out, stderr=subprocess.STDOUT).returncode
        if rc != 0:
            raise BenchError(f"cmake configure failed (see {bdir}/build.log)")
    jobs = str(os.cpu_count() or 2)
    rc = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                        stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        raise BenchError(f"build failed (see {bdir}/build.log)")
    return bdir


# --- live workloads -----------------------------------------------------------

def pick_ports(n):
    """n distinct free ports below the kernel's ephemeral range, so ports the
    kernel hands out on its own (clients, port-0 listeners) cannot take them
    between this check and the site's bind. A bind that still fails makes
    the site exit before READY and the launch is retried."""
    lo = 32768
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as f:
            lo = int(f.read().split()[0])
    except (OSError, ValueError):
        pass
    rng = random.SystemRandom()
    ports = []
    while len(ports) < n:
        p = rng.randrange(max(1024, lo - 12000), lo)
        if p in ports:
            continue
        s = socket.socket()
        try:
            s.bind(("127.0.0.1", p))
            ports.append(p)
        except OSError:
            pass
        finally:
            s.close()
    return ports


def write_site_config(path, work, s, mesh, protocol, seed):
    with open(path, "w") as f:
        f.write(f"sites={SITES}\nself={s}\n")
        for p in range(SITES):
            f.write(f"peer.{p}=127.0.0.1:{mesh[p]}\n")
        f.write(f"protocol={protocol}\nclient_port=0\n"
                f"objects_per_site={OBJECTS_PER_SITE}\n"
                f"partitions_per_site={PARTITIONS}\nseed={seed}\n"
                f"history={work}/site{s}.hist\nsnapshot={work}/site{s}\n")


def launch_sites(bdir, work, protocol, seed):
    """Starts the sites and waits for READY; returns (procs, front ports,
    mesh ports)."""
    exe = os.path.join(bdir, "gdur_site")
    for attempt in range(4):
        mesh = pick_ports(SITES)
        procs = []
        for s in range(SITES):
            conf = os.path.join(work, f"site{s}.conf")
            write_site_config(conf, work, s, mesh, protocol, seed)
            procs.append(spawn(
                [exe, "--config", conf], stdout=subprocess.PIPE,
                stderr=open(os.path.join(work, f"site{s}.err"), "w"),
                text=True))
        fronts = []
        for p in procs:
            line = read_line(p, "READY port=", 30.0)
            if line is None:
                break
            fronts.append(int(line.split("=", 1)[1]))
        if len(fronts) == SITES:
            return procs, fronts, mesh
        log(f"sites did not come up (attempt {attempt + 1}); new ports")
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    raise BenchError("gdur_site processes never became ready")


def activity(pids, mesh):
    """What shows the sites at work: each site's (read, write) syscall counts
    and CPU ticks, and the bytes queued in the kernel on the inter-site
    connections (unsent or unread)."""
    io, ticks = [], []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/io") as f:
                c = dict(line.split(": ") for line in f.read().splitlines())
            with open(f"/proc/{pid}/stat") as f:
                st = f.read().rsplit(")", 1)[1].split()
            io.append((c["syscr"], c["syscw"]))
            ticks.append(int(st[11]) + int(st[12]))
        except (OSError, KeyError, IndexError, ValueError):
            io.append(None)
            ticks.append(0)
    queued = 0
    try:
        with open("/proc/net/tcp") as f:
            for line in f.readlines()[1:]:
                col = line.split()
                lport = int(col[1].split(":")[1], 16)
                rport = int(col[2].split(":")[1], 16)
                if lport in mesh or rport in mesh:
                    tx, rx = col[4].split(":")
                    queued += int(tx, 16) + int(rx, 16)
    except (OSError, IndexError, ValueError):
        pass
    return io, ticks, queued


def wait_quiet(procs, mesh, limit_s=10.0):
    """Waits until, for QUIET_S, no site made a read or write syscall or used
    more than IDLE_CPU_S of CPU, and no byte was queued between sites: the
    last installs of the last commits have then reached every replica. A
    site working off a backlog of messages it has already read uses a whole
    core; an idle one still spends a little on pending timers for a few
    seconds after a run. True when quiet within limit_s."""
    pids = [p.pid for p in procs]
    idle_ticks = IDLE_CPU_S * os.sysconf("SC_CLK_TCK")
    end = time.monotonic() + limit_s
    start = None  # (time, io, ticks) where the current quiet stretch began
    while time.monotonic() < end:
        io, ticks, queued = activity(pids, mesh)
        now = time.monotonic()
        if queued or start is None or io != start[1]:
            start = (now, io, ticks)
        elif now - start[0] >= QUIET_S:
            if all(t - t0 <= idle_ticks for t, t0 in zip(ticks, start[2])):
                return True
            start = (now, io, ticks)
        time.sleep(0.02)
    return False


def stop_sites(procs):
    """SIGTERM every site at once; returns each exit status."""
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    codes = []
    for p in procs:
        try:
            codes.append(p.wait(timeout=30))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            codes.append("hung")
    return codes


def snapshot_metrics(work, committed):
    counters, depth = {}, [0] * 32
    for s in range(SITES):
        with open(os.path.join(work, f"site{s}.json")) as f:
            snap = json.load(f)
        for k, v in snap["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for i, v in enumerate(snap["histograms"]["queue_depth"]):
            depth[i] += v
    per = max(committed, 1)
    total, acc, p99 = sum(depth), 0, 0
    for i, v in enumerate(depth):
        acc += v
        if total and acc >= 0.99 * total:
            p99 = 2 ** (i + 1) - 1  # upper bound of log2 bucket i
            break
    decided = counters["txn_committed"] + counters["txn_aborted"]
    return {
        "site.msgs_per_txn": counters["msgs_sent"] / per,
        "site.bytes_per_txn": counters["bytes_sent"] / per,
        "site.mailbox_tasks_per_txn": counters["mailbox_tasks"] / per,
        "site.loop_wakeups_per_txn": counters["loop_wakeups"] / per,
        "site.votes_per_txn": counters["votes_sent"] / per,
        "site.queue_depth.p99": p99,
        "site.commit_ratio": counters["txn_committed"] / max(decided, 1),
    }


def run_live(name, args, bdir, work):
    t0 = time.monotonic()
    sites, fronts, mesh = launch_sites(bdir, work, LIVE[name], args.seed)
    site_conf = os.path.join(work, "site0.conf")
    cmd = [os.path.join(bdir, "pbtool"), "load", "--site-config", site_conf,
           "--ports", ",".join(map(str, fronts)),
           "--pids", ",".join(str(p.pid) for p in sites),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--client-log", os.path.join(work, "client.log")]
    gen = spawn(cmd, stdout=subprocess.PIPE,
                stderr=open(os.path.join(work, "load.err"), "w"), text=True)
    if read_line(gen, "CONNECTED", 30.0) is None:
        raise BenchError("load generator could not connect its sessions")
    setup_s = time.monotonic() - t0
    try:
        out, _ = gen.communicate(timeout=args.seconds + LOAD_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError("load generator hung")
    if gen.returncode != 0:
        raise BenchError(f"load generator exited {gen.returncode}")
    res = last_json(out)

    # Sessions are closed (the generator has exited). A site's drain waits
    # only for client requests in flight, not for installs at remote
    # partitions, so wait until the sites are quiet before SIGTERM.
    problems = []
    q0 = time.monotonic()
    if not wait_quiet(sites, set(mesh)):
        problems.append("the sites did not go quiet after the load")
    log(f"sites quiet {time.monotonic() - q0:.2f} s after the load ended")
    codes = stop_sites(sites)
    if res["lost"]:
        problems.append("a session lost its connection")
    for s, c in enumerate(codes):
        if c != 0:
            problems.append(f"site{s} exited {c} on SIGTERM")
    dumps = [os.path.join(work, f"site{s}.hist") for s in range(SITES)]
    if not problems:
        problems += check_outputs(bdir, work, dumps)

    m = res["metrics"]
    metrics = {k: m[k] for k, _ in END_TO_END if k in m}
    metrics["setup_s"] = setup_s
    if args.trace:
        metrics = dict(m)
        metrics["traced.committed_tps"] = m["committed_tps"]
        metrics["traced.latency_p50_ms"] = m["latency_p50_ms"]
        if not problems:
            metrics.update(snapshot_metrics(work, res["committed"]))
            ref = inproc(bdir, site_conf, args)
            if not ref["correct"]:
                problems.append("in-process reference run failed its checks")
            metrics.update(ref["metrics"])
    log(f"{name}: {res['samples']} latency samples, {res['committed']} "
        f"committed, {res['aborted']} aborted, {res['failed']} failed; "
        f"site exits {codes}")
    return not problems, res["attempted"], res["failed"], metrics, problems


def check_outputs(bdir, work, dumps):
    problems = []
    r = subprocess.run([os.path.join(bdir, "gdur_checkhist")] + dumps,
                       capture_output=True, text=True, timeout=120)
    log(r.stdout.strip())
    if r.returncode != 0:
        problems.append("gdur_checkhist: " + (r.stdout + r.stderr).strip())
    xcheck = [os.path.join(bdir, "pbtool"), "xcheck", "--client-log",
              os.path.join(work, "client.log"), "--dumps", ",".join(dumps)]
    r = subprocess.run(xcheck, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        problems.append("cross-check: " + r.stderr.strip())
    validate = os.path.join(ROOT, "tools", "obs", "validate_snapshot.py")
    for s in range(SITES):
        r = subprocess.run(
            [sys.executable, validate, os.path.join(work, f"site{s}.json"),
             "--require-clean"], capture_output=True, text=True, timeout=60)
        if r.returncode != 0:
            problems.append(f"site{s} snapshot: " + r.stdout.strip()[-300:])
    return problems


def inproc(bdir, site_conf, args):
    cmd = [os.path.join(bdir, "pbtool"), "inproc", "--site-config", site_conf,
           "--seed", str(args.seed)]
    p = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = p.communicate(timeout=60)
    if p.returncode != 0:
        raise BenchError(f"inproc exited {p.returncode}: {err.strip()}")
    return last_json(out)


# --- simulator workload -------------------------------------------------------

def run_sim(args, bdir):
    cmd = [os.path.join(bdir, "pbtool"), "sim", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    p = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    setup_s = None
    if not args.trace:
        if read_line(p, "SETUP_DONE", 60.0) is None:
            raise BenchError("simulator set-up failed")
        setup_s = time.monotonic() - t0
    try:
        out, err = p.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        raise BenchError("simulator run hung")
    if p.returncode != 0:
        raise BenchError(f"pbtool sim exited {p.returncode}: {err.strip()}")
    res = last_json(out)
    problems = [] if res["correct"] else [err.strip() or "simulator checks"]
    metrics = dict(res["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s
        log(f"sim-deep-queue: {res['samples']} latency samples, "
            f"{res['rounds']} rounds")
    return not problems, res["attempted"], res["failed"], metrics, problems


def keep_failed_runs(work, ok, keep=3):
    """Deletes a passing run's artifacts (dumps run to tens of MB); keeps the
    newest few failing ones for diagnosis."""
    if ok:
        shutil.rmtree(work, ignore_errors=True)
        return
    runs = os.path.dirname(work)
    dirs = sorted((os.path.join(runs, d) for d in os.listdir(runs)),
                  key=os.path.getmtime)
    for d in dirs[:-keep]:
        shutil.rmtree(d, ignore_errors=True)
    log(f"artifacts of this run kept in {work}")


# --- main ----------------------------------------------------------------------

def selftest(bdir):
    r = subprocess.run([os.path.join(bdir, "pbtool"), "selftest", "--dir",
                        os.path.join(bdir, "selftest")])
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(list(LIVE) + list(SIM)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own checks of its checks")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        bdir = build()
        steal0 = cpu_ticks()
        if args.selftest:
            return selftest(bdir)
        if args.workload in SIM:
            ok, attempted, failed, metrics, problems = run_sim(args, bdir)
        else:
            work = os.path.join(bdir, "runs",
                                f"{args.workload}-{args.seed}-{os.getpid()}")
            os.makedirs(work, exist_ok=True)
            ok, attempted, failed, metrics, problems = run_live(
                args.workload, args, bdir, work)
            keep_failed_runs(work, ok)
    except (BenchError, subprocess.TimeoutExpired) as e:
        log(f"FAILED: {e}")
        return 1
    finally:
        reap_all()
    steal1 = cpu_ticks()
    if steal1[1] > steal0[1]:
        # Time the hypervisor gave to other guests: figures from a run with
        # much of it are not comparable with quiet runs.
        log(f"host steal during the run: "
            f"{100.0 * (steal1[0] - steal0[0]) / (steal1[1] - steal0[1]):.1f}%"
            " of CPU time")
    for p in problems:
        log(f"CHECK FAILED: {p}")
    wanted = PER_LAYER if args.trace else END_TO_END
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in wanted}
    print(json.dumps({"correct": ok, "attempted": int(attempted),
                      "failed": int(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

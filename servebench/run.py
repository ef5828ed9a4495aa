#!/usr/bin/env python3
"""Serving benchmark: POST /v1/submit against `slade_cli serve`.

Run from the repository root:

    python3 servebench/run.py --workload small-steady --seed 1 \
        --seconds 10 --trace 0

Builds `slade_cli` and `servebench_host` from source into
`.bench_build/servebench`, starts `slade_cli serve` with the workload's
pinned flags, drives it from `servebench_host drive` (one process, at most
four connections) and checks every answer against a standalone solve.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (timed with tracing off).
`--trace 1` makes the same untraced run, then a traced run of the same
workload and seed on `servebench_host host` (the same layers wired in
process), and reports the per-layer metrics. A per-layer metric whose
layer is not on a workload's path reads 0.

Workloads (see WORKLOADS below for the pinned flags): small-steady,
bulk-cold, durable-tenants. The metric names and units are those of
BENCHMARK.json at the repository root.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
HOST = os.path.join(BUILD, "servebench_host")
CLI = os.path.join(BUILD, "slade_cli")

SETUPS = 5  # set-up is repeated and its median reported
# The generator fell behind when requests left later than this (p99).
MAX_GEN_LAG_MS = 25.0
# The traced run's replayed SolveBatch may differ from the live one, per
# flush, by at most this share of the traced end-to-end mean: the queue
# wait derived from the replay is off by no more than that.
MAX_SOLVE_ERROR = 0.10

WORKLOADS = {
    "small-steady": {
        "profiles": {"": ("jelly", 10)},
        "flags": ["--max-delay-ms", "5"],
    },
    "bulk-cold": {
        "profiles": {"": ("jelly", 30)},
        "closed_loop": True,
        # Fairness with a one-submission atomic cap makes every flush hold
        # exactly one submission, so flush counts repeat for a seed.
        # One solver thread leaves the other cores to the handler pool and
        # the generator, so the run times the solver, not oversubscription.
        "flags": ["--max-delay-ms", "1000", "--max-pending-atomic", "1024",
                  "--fairness", "--fair-quantum", "100000",
                  "--cache-max-entries", "16", "--threads", "1"],
    },
    "durable-tenants": {
        "profiles": {"jelly": ("jelly", 10), "smic": ("smic", 20)},
        "flags": ["--max-delay-ms", "5", "--routing", "cheapest",
                  "--tenant-weights", "gold=4,silver=2,bronze=1,free=1"],
        "wal": True,
    },
}



def metric_units():
    """(name, unit) lists of the end-to-end and per-layer metrics, from
    BENCHMARK.json. submit_p99_ms is timed with tracing off, like the
    end-to-end metrics, but is a per-layer metric, without a bound: its
    spread across runs on a shared 4-vCPU VM (25-45%) exceeds any usable
    bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in spec[kind]]
                 for kind in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = metric_units()


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "slade_cli.cc"))):
        raise SystemExit("servebench: no SLADE sources next to servebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def source_digest():
    """Hash of the program sources: deterministic counters are remembered
    per (sources, workload, seed, seconds) and must repeat exactly."""
    h = hashlib.sha256()
    for top in ("src", "tools", "servebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def percentile(values, q):
    """Nearest-rank percentile; failures are +inf and so miss any limit."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def cpu_seconds(pid):
    """CPU time of every thread of `pid`, from the nanosecond run times in
    /proc/<pid>/task/*/schedstat (utime+stime in /proc/<pid>/stat count
    10 ms ticks, too coarse for a small-request run)."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:  # the thread just exited
            pass
    return total / 1e9


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """One server process: `slade_cli serve` or the traced host."""

    def __init__(self, argv, log_path):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("listening on"):
                self.port = int(line.split(":")[1].split()[0])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("server exited before listening: %s" % argv)

    def wait_healthy(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                if http_get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.001)
        raise RuntimeError("no 200 on /healthz")

    def stats(self):
        return json.loads(http_get(self.port, "/v1/stats")[1])

    def stop(self, timeout=120):
        """SIGTERM, then wait; returns the rest of stdout."""
        out = ""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.log.close()
        return out or ""


class Run:
    def __init__(self, workload, seed, seconds, rundir):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = rundir
        self.open_loop = not self.spec.get("closed_loop")
        self.common = ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds)]
        self.profile_flags = self.make_profiles()

    def make_profiles(self):
        files = {}
        for name, (dataset, m) in self.spec["profiles"].items():
            path = os.path.join(self.dir, "%s-%d.csv" % (dataset, m))
            if not os.path.exists(path):
                subprocess.run([CLI, "profile", "--dataset", dataset,
                                "--max-cardinality", str(m), "--out", path],
                               check=True, stdout=subprocess.DEVNULL)
            files[name] = path
        if "" in files:
            return ["--profile", files[""]]
        return ["--profiles",
                ",".join("%s=%s" % kv for kv in sorted(files.items()))]

    def serve_flags(self, tag):
        flags = self.profile_flags + self.spec["flags"]
        if self.spec.get("wal"):
            flags += ["--wal-dir", os.path.join(self.dir, "wal-" + tag)]
        return flags

    def drive(self, port, phase, out=None):
        argv = [HOST, "drive", "--port", str(port), "--phase", phase]
        argv += self.common + (["--out", out] if out else [])
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)

    def start(self, argv, tag):
        """Spawn, wait for /healthz, warm up; returns (server, seconds)."""
        t0 = time.perf_counter()
        server = Server(argv, os.path.join(self.dir, "server-%s.log" % tag))
        try:
            server.wait_healthy()
            self.drive(server.port, "warmup")
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - t0

    def untraced(self):
        setups = []
        server = None
        for k in range(SETUPS):
            if server is not None:
                server.stop()
            server, took = self.start(
                [CLI, "serve", "--port", "0"] + self.serve_flags(str(k)),
                str(k))
            setups.append(took)
        results = os.path.join(self.dir, "results.tsv")
        try:
            stats0, cpu0 = server.stats(), cpu_seconds(server.proc.pid)
            self.drive(server.port, "measure", results)
            cpu1, stats1 = cpu_seconds(server.proc.pid), server.stats()
        finally:
            server.stop()
        check = self.check(results)
        return {"setups": setups, "records": read_results(results),
                "check": check, "cpu_s": cpu1 - cpu0,
                "stats": (stats0, stats1)}

    def check_generator(self):
        """The same seed must give byte-identical requests: generate twice,
        in two processes, and compare the digests."""
        argv = [HOST, "gen"] + self.common
        procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate()[0] for p in procs]
        if any(p.returncode for p in procs) or outs[0] != outs[1]:
            return ["the generator is not deterministic: %s" % outs]
        return []

    def check(self, results):
        out = subprocess.run(
            [HOST, "check", "--results", results] + self.common +
            self.profile_flags, check=True, stdout=subprocess.PIPE,
            text=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def traced(self):
        results = os.path.join(self.dir, "traced.tsv")
        spans_dir = os.path.join(ROOT, ".bench_build", "servebench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        argv = [HOST, "host"] + self.serve_flags("traced") + self.common + [
            "--results", results, "--spans", os.path.join(
                spans_dir, "%s-%d.jsonl" % (self.name, self.seed))]
        server, _ = self.start(argv, "traced")
        try:
            server.proc.send_signal(signal.SIGUSR1)
            if server.proc.stdout.readline().strip() != "marked":
                raise RuntimeError("traced host did not mark the phase")
            self.drive(server.port, "measure", results)
        finally:
            out = server.stop(timeout=170)
        if server.proc.returncode != 0:
            raise RuntimeError("traced host failed (see %s)" % self.dir)
        return {"records": read_results(results),
                "layers": json.loads(out.strip().splitlines()[-1])}


def read_results(path):
    records = []
    with open(path) as f:
        for line in f:
            idx, status, due, send, recv, body = line.rstrip("\n").split(
                "\t", 5)
            answer = None
            if status.startswith("2"):
                answer = json.loads(body)
            records.append({"idx": int(idx), "status": int(status),
                            "due": int(due) / 1e6, "send": int(send) / 1e6,
                            "recv": int(recv) / 1e6, "answer": answer})
    return records


def latencies(records, keep=lambda r: True):
    """Per-request latency in ms, from the due time; failures are +inf."""
    out = []
    for r in records:
        if not keep(r):
            continue
        ok = r["answer"] is not None and r["status"] // 100 == 2
        out.append(r["recv"] - r["due"] if ok else float("inf"))
    return out


def finite(x, cap=1e9):
    return x if x < cap else cap


def end_to_end(run, res):
    records, check = res["records"], res["check"]
    lat = latencies(records)
    answered = sum(1 for r in records if r["answer"] is not None)
    failed = check["errors"] + check["mismatches"] + check["rebills"]
    span_s = max(r["recv"] for r in records) / 1e3
    setups = sorted(res["setups"])
    metrics = {
        "submit_p50_ms": finite(percentile(lat, 0.50)),
        "atomic_tasks_per_s": check["atomic_tasks"] / span_s,
        "server_cpu_ms_per_req": res["cpu_s"] * 1e3 / max(answered, 1),
        "plan_cost_per_atomic":
            check["total_cost"] / max(check["atomic_tasks"], 1),
        "answered_ratio": (len(records) - failed) / len(records),
        "setup_s": setups[len(setups) // 2],
    }
    return metrics, failed


def generator_report(run, records):
    """Offered vs achieved rate and how late the generator sent."""
    lag = [r["send"] - r["due"] for r in records if r["send"] > 0]
    span_s = max(r["recv"] for r in records) / 1e3
    # A closed loop offers exactly what it achieves.
    offered = len(records) / (run.seconds if run.open_loop else span_s)
    report = {"offered_per_s": offered,
              "achieved_per_s": len(records) / span_s,
              "gen_lag_p99_ms": percentile(lag, 0.99) if lag else 0.0,
              "unsent": len(records) - len(lag)}
    report["valid"] = (report["unsent"] == 0
                       and report["gen_lag_p99_ms"] <= MAX_GEN_LAG_MS)
    return report


def delta(stats, *path):
    a, b = stats
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return (b or 0) - (a or 0)


def counters(run, res):
    """Deterministic counters: exact for a fixed seed, whatever the timing."""
    check, stats = res["check"], res["stats"]
    c = {"atomic_tasks": check["atomic_tasks"],
         "total_cost": repr(check["total_cost"]),
         "bins_posted": check["bins_posted"],
         "fresh": check["fresh"],
         "duplicate_hits": delta(stats, "engine", "duplicate_hits")}
    if run.spec.get("wal"):
        c["wal_records"] = delta(stats, "durability", "records_appended")
    if run.name == "bulk-cold":
        c["flushes_by_size"] = delta(stats, "engine", "flushes_by_size")
    problems = []
    if delta(stats, "engine", "atomic_tasks") != check["atomic_tasks"]:
        problems.append("engine atomic_tasks differ from the answers")
    if c["duplicate_hits"] != check["duplicates"]:
        problems.append("duplicate_hits differ from the re-sent ids")
    if run.name == "bulk-cold" and (
            c["flushes_by_size"] != check["fresh"]
            or delta(stats, "engine", "flushes_by_deadline") != 0):
        problems.append("bulk-cold flushes were not one per submission")
    return c, problems


def remember(run, kind, values):
    """Stores the counters of (sources, workload, seed, seconds); a later
    run with the same key must reproduce them exactly."""
    memo_dir = os.path.join(ROOT, ".bench_build", "servebench-counters")
    os.makedirs(memo_dir, exist_ok=True)
    key = "%s-%s-%d-%s-%s.json" % (source_digest(), run.name, run.seed,
                                   run.seconds, kind)
    path = os.path.join(memo_dir, key)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != values:
            return ["counters differ from an earlier run of this seed: "
                    "%s vs %s" % (before, values)]
        return []
    with open(path, "w") as f:
        json.dump(values, f, sort_keys=True)
    return []


def per_layer(run, untraced, traced):
    layers, records = traced["layers"], traced["records"]
    spec_tenants = run.spec.get("wal")
    m = {name: float(layers.get(name, 0.0)) for name, _ in PER_LAYER}
    untraced_lat = latencies(untraced["records"])
    m["submit_p99_ms"] = finite(percentile(untraced_lat, 0.99))
    dups = latencies(records, lambda r: r["answer"] is not None
                     and r["answer"].get("duplicate"))
    m["journal.dup_p50_ms"] = finite(percentile(dups, 0.5)) if dups else 0.0
    for tenant in ("gold", "free"):
        lat = latencies(records, lambda r, t=tenant: r["answer"] is not None
                        and r["answer"]["requester"] == t)
        m["tenant.%s.p50_ms" % tenant] = (
            finite(percentile(lat, 0.5)) if spec_tenants and lat else 0.0)
    gen = generator_report(run, records)
    m["bench.gen_lag_p99_ms"] = gen["gen_lag_p99_ms"]
    untraced_p50 = percentile(untraced_lat, 0.5)
    traced_p50 = percentile(latencies(records), 0.5)
    m["trace.overhead_pct"] = (
        100.0 * (traced_p50 - untraced_p50) / untraced_p50)
    return m, gen


def reconcile(layers):
    """The replayed stages must fit the traced run: no request's residual
    (end to end minus the engine's latency window, the flush's journal
    calls and the replayed stages around them) is below 0 by more than
    the host's replay slack, and the replayed SolveBatch per flush is within MAX_SOLVE_ERROR of the
    live one. A small live solve runs on cold caches after the flush
    deadline's idle wait and takes 2-5 times its replay, hence the bound
    relative to end to end rather than to the solve."""
    problems = []
    if layers["trace.overdrawn_requests"]:
        problems.append("%d requests have a negative wire residual "
                        "(min %.4f ms): a stage is counted twice"
                        % (layers["trace.overdrawn_requests"],
                           layers["trace.min_residual_ms"]))
    live = layers["engine.solve_ms_per_flush"]
    replayed = layers["trace.replay_solve_ms_per_flush"]
    if abs(replayed - live) > MAX_SOLVE_ERROR * layers["trace.e2e_mean_ms"]:
        problems.append("replayed SolveBatch %.4f ms per flush, live %.4f ms"
                        % (replayed, live))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    rundir = os.path.join(ROOT, ".bench_build", "servebench-runs",
                          "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(rundir)
    try:
        run = Run(args.workload, args.seed, args.seconds, rundir)
        res = run.untraced()
        e2e, failed = end_to_end(run, res)
        gen = generator_report(run, res["records"])
        values, problems = counters(run, res)
        problems += remember(run, "untraced", values)
        problems += run.check_generator()
        if res["check"]["mismatches"] or res["check"]["rebills"]:
            problems.append("answers differ from standalone solves")
        if not gen["valid"]:
            problems.append("invalid run: the generator fell behind schedule")
        lat = latencies(res["records"])
        log("%s seed %d: %d requests (%d beyond p99), %s loop, offered "
            "%.1f/s, achieved %.1f/s, generator lag p99 %.3f ms"
            % (run.name, run.seed, len(lat), len(lat) - int(0.99 * len(lat)),
               "open" if run.open_loop else "closed", gen["offered_per_s"],
               gen["achieved_per_s"], gen["gen_lag_p99_ms"]))
        log("counters: %s" % json.dumps(values, sort_keys=True))
        log("error_rate %.6f (%d of %d)" % (failed / len(lat), failed,
                                            len(lat)))
        for name, unit in END_TO_END:
            print("%-24s %14.6f %s" % (name, e2e[name], unit))
        # Reported, not gated (see PER_LAYER and the error rate above).
        print("%-24s %14.6f %s" % ("submit_p99_ms",
                                   finite(percentile(lat, 0.99)), "ms"))
        print("%-24s %14.6f %s" % ("error_rate", failed / len(lat), "ratio"))
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

        if args.trace:
            traced = run.traced()
            layer, tgen = per_layer(run, res, traced)
            lay = traced["layers"]
            traced_counts = {k: v for k, v in lay.items()
                             if k.startswith("count.")}
            problems += remember(run, "traced", traced_counts)
            if lay.get("trace.replay_mismatches", 0):
                problems.append("traced answers differ from their replay")
            if any(r["answer"] is None for r in traced["records"]):
                problems.append("the traced run had failed requests")
            if not tgen["valid"]:
                problems.append("invalid traced run: generator fell behind")
            problems += reconcile(lay)
            log("traced counters: %s" % json.dumps(traced_counts,
                                                   sort_keys=True))
            log("traced e2e mean %.4f ms, flush solve %.4f ms, replayed "
                "SolveBatch %.4f ms per flush (live %.4f), residual min "
                "%.4f ms, %d overdrawn"
                % (lay["trace.e2e_mean_ms"], lay["trace.flush_solve_ms"],
                   lay["trace.replay_solve_ms_per_flush"],
                   lay["engine.solve_ms_per_flush"],
                   lay["trace.min_residual_ms"],
                   lay["trace.overdrawn_requests"]))
            for name, unit in PER_LAYER:
                print("%-32s %14.6f %s" % (name, layer[name], unit))
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER}

        for p in problems:
            log("FAIL: " + p)
        print(json.dumps({"correct": not problems and failed == 0,
                          "attempted": len(lat), "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    main()

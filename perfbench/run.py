#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `occ soak` and `occ concurrent`.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload soak-mix --seed 1 --seconds 10 --trace 0

(--workload all runs soak-mix, soak-trace and concurrent-mix in turn.)

It builds the `occ` binary, the `perfbench` helper and the reference
kernel (release, offline, into $CARGO_TARGET_DIR or .bench_build),
generates the workload's inputs from the seed, and then:

--trace 0  spawns the real `occ` command again and again for --seconds
           (at least three times), checks every run's output, and reports
           the median of each end-to-end metric over the runs;
--trace 1  spawns `occ` a few times for its untraced outputs and wall time,
           then runs the helper's traced replica of the same pipeline,
           checks its outputs against the CLI's, and reports every
           per-layer metric.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A failed check prints it with correct=false and exits 1; a
missing program or a failed build exits non-zero without it. Workload
sizes, the host-speed correction and the metric descriptions live in
perfbench/spec.json.
"""

import argparse
import ctypes
import json
import os
import select
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO = "sqlvm-like"
# The CLI's --seed default, which soak writes into the series header
# when it streams a trace and receives no --seed.
CLI_DEFAULT_SEED = 7
MIN_SPAWNS = 3
TRACED_CLI_SPAWNS = 3
SPAWN_TIMEOUT_S = 150
# The reference kernel (perfbench/src/reference.rs): its iteration count,
# and the seconds it takes on a quiet host of the kind this benchmark was
# defined on. Time metrics are reported at that host speed.
REFERENCE_ITERATIONS = 5_000_000
REFERENCE_NOMINAL_S = 0.09
# End-to-end metrics that are times (scaled by the host's slowness) and
# rates (scaled by its inverse); the rest are not speeds.
TIMES = ("wall_s", "setup_s", "commit_p50_ns", "commit_p99_ns")
RATES = ("replay_rps",)
LIBC = ctypes.CDLL(None, use_errno=True)


class CheckFailed(Exception):
    """A run's output failed a correctness check."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Build `occ`, the helper and the reference kernel; return their paths."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "occ-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return (os.path.join(release, "occ"), os.path.join(release, "perfbench"),
            os.path.join(release, "perfbench-reference"))


def helper(exe, *args):
    out = subprocess.run([exe, *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise CheckFailed(f"helper {args[0]} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs, command line and output checks of one workload."""

    def __init__(self, name, spec, seed, work, programs):
        self.name, self.spec, self.seed, self.work = name, spec, seed, work
        self.occ, self.pb, self.reference = programs
        self.series = os.path.join(work, "series.jsonl")
        self.checkpoint = os.path.join(work, "checkpoint.json")
        self.trace = os.path.join(work, "trace.occbin02")
        self.expected = None
        # Requests attempted and failed, over every run of this process.
        self.attempted = self.failed = 0

    @property
    def soak(self):
        return self.spec["command"] == "soak"

    @property
    def requests(self):
        s = self.spec
        return s["len"] * s.get("threads", 1)

    def prepare(self):
        """Generate the inputs and the expected vectors (untimed)."""
        s = self.spec
        if self.name == "soak-trace":
            self.expected = helper(self.pb, "prepare-trace", "--seed", self.seed,
                                   "--len", s["len"], "--k", s["k"], "--out", self.trace)["vectors"]
        elif self.soak:
            self.expected = helper(self.pb, "expect-mix", "--seed", self.seed, "--len", s["len"],
                                   "--k", s["k"], "--policy", s["policy"])["vectors"]

    def argv(self):
        s = self.spec
        if self.soak:
            argv = [self.occ, "soak", "--scenario", SCENARIO, "--policy", s["policy"],
                    "--k", s["k"], "--window", s["window"], "--series", self.series]
            if self.name == "soak-trace":
                argv += ["--trace", self.trace, "--checkpoint", self.checkpoint,
                         "--checkpoint-every", s["checkpoint_every"]]
            else:
                argv += ["--len", s["len"], "--seed", self.seed]
            return [str(a) for a in argv]
        return [str(a) for a in [
            self.occ, "concurrent", "--scenario", SCENARIO, "--policy", s["policy"],
            "--threads", s["threads"], "--table-shards", s["table_shards"], "--k", s["k"],
            "--len", s["len"], "--seed", self.seed, "--format", "json"]]

    def helper_flags(self):
        s = self.spec
        if self.soak:
            flags = ["--policy", s["policy"], "--k", s["k"], "--window", s["window"],
                     "--checkpoint-every", s["checkpoint_every"], "--len", s["len"],
                     "--seed", self.seed, "--series", os.path.join(self.work, "replica.jsonl"),
                     "--checkpoint", os.path.join(self.work, "replica-checkpoint.json")]
            if self.name == "soak-trace":
                flags += ["--trace", self.trace, "--header-seed", CLI_DEFAULT_SEED]
            else:
                flags += ["--header-seed", self.seed]
            return flags
        return ["--threads", s["threads"], "--table-shards", s["table_shards"], "--k", s["k"],
                "--len", s["len"], "--seed", self.seed]

    def check(self, code, out, err):
        """Check one CLI run.

        Returns (replay_rps, latency histogram or None, outputs that must
        repeat exactly for the same input, or None).
        """
        if code != 0:
            raise CheckFailed(f"occ exited {code}: {err.strip()[-300:]}")
        if self.soak:
            return self.check_soak(out, err)
        return self.check_concurrent(out)

    def check_soak(self, out, err):
        if "window sums verified against engine totals" not in err:
            raise CheckFailed("soak did not verify its window sums")
        rows = {}
        tenants = []
        for line in out.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2:
                rows[cells[0]] = cells[1]
            elif len(cells) == 5 and cells[0].isdigit():
                tenants.append([int(cells[1]), int(cells[2]), int(cells[4])])
        if int(rows.get("requests", -1)) != self.requests:
            raise CheckFailed(f"soak served {rows.get('requests')} requests, not {self.requests}")
        if tenants != self.expected:
            raise CheckFailed(f"soak vectors {tenants} != in-process engine {self.expected}")
        with open(self.series, "rb") as f:
            series = f.read()
        windows = [ln for ln in series.splitlines()[1:] if not ln.startswith(b"#")]
        if len(windows) != -(-self.requests // self.spec["window"]):
            raise CheckFailed(f"series has {len(windows)} windows")
        if not series.splitlines()[-1].startswith(b"#crc32:"):
            raise CheckFailed("series file is not sealed")
        return float(rows["req/s"]), None, (tenants, series)

    def check_concurrent(self, out):
        report = json.loads(out.strip().splitlines()[-1])
        replay = report.get("replay", {})
        if not (replay.get("verified") and replay.get("identical")):
            raise CheckFailed("concurrent run was not replay-identical")
        users = report["users"]
        served = sum(u["hits"] + u["misses"] for u in users)
        if not report["commits"] == replay["commits"] == served == self.requests:
            raise CheckFailed(f"{report['commits']} commits for {self.requests} requests")
        if any(report["faults"].values()):
            raise CheckFailed(f"faults on a clean stream: {report['faults']}")
        return report["requests_per_sec"], report["merged"]["latency_ns"], None


# ------------------------------------------------------------------ spawning


class StartMarker:
    """Sees when a spawned `occ` begins serving, without spinning a core.

    Soak creates its series temp file right before it serves the first
    request: an inotify watch on the work directory wakes the benchmark
    at that moment. Concurrent starts its worker threads right before
    serving: /proc/PID/task is polled every 50 us until they exist.
    """

    IN_CREATE = 0x100

    def __init__(self, w):
        self.soak = w.soak
        self.name = os.path.basename(w.series + ".tmp").encode()
        self.fd = None
        if self.soak:
            self.fd = LIBC.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
            if self.fd < 0 or LIBC.inotify_add_watch(
                    self.fd, w.work.encode(), self.IN_CREATE) < 0:
                raise SystemExit("perfbench: inotify is unavailable")

    def created(self):
        buf = os.read(self.fd, 65536)
        while buf:
            _, _, _, size = struct.unpack_from("iIII", buf)
            if buf[16:16 + size].rstrip(b"\0") == self.name:
                return True
            buf = buf[16 + size:]
        return False

    def wait(self, proc, t0):
        """Block until serving starts or the child exits.

        Returns (setup seconds or None, wait status, rusage); the last two
        are None while the child still runs.
        """
        try:
            while time.perf_counter() - t0 < SPAWN_TIMEOUT_S:
                if self.soak:
                    ready, _, _ = select.select([self.fd], [], [], 0.05)
                    if ready and self.created():
                        return time.perf_counter() - t0, None, None
                else:
                    try:
                        if len(os.listdir(f"/proc/{proc.pid}/task")) > 1:
                            return time.perf_counter() - t0, None, None
                    except OSError:
                        pass
                    time.sleep(5e-5)
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    return None, status, rusage
            proc.kill()
            return None, None, None
        finally:
            if self.fd is not None:
                os.close(self.fd)


def spawn(w):
    """Run the workload's `occ` command once; return its measurements."""
    for path in (w.series, w.series + ".tmp"):
        if os.path.exists(path):
            os.remove(path)
    out_path, err_path = os.path.join(w.work, "stdout"), os.path.join(w.work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        marker = StartMarker(w)
        t0 = time.perf_counter()
        proc = subprocess.Popen(w.argv(), cwd=ROOT, stdout=out, stderr=err)
        setup, status, rusage = marker.wait(proc, t0)
        if status is None:
            watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, rusage = os.wait4(proc.pid, 0)
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as f:
        stdout = f.read()
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    w.attempted += w.requests
    try:
        rps, hist, outputs = w.check(proc.returncode, stdout, stderr)
        if setup is None:
            raise CheckFailed("occ exited before serving started")
    except CheckFailed:
        w.failed += w.requests
        raise
    p50, p99 = (hist_quantile(hist, 0.50), hist_quantile(hist, 0.99)) if hist else (1e9 / rps,) * 2
    return {
        "replay_rps": rps,
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "commit_p50_ns": p50,
        "commit_p99_ns": p99,
    }, outputs


def bucket_bounds(index):
    """Inclusive value range of a LogHistogram bucket (5 sub-bucket bits)."""
    if index < 32:
        return index, index
    shift = (index >> 5) - 1
    lower = ((index & 31) + 32) << shift
    return lower, lower + (1 << shift) - 1


def hist_quantile(hist, q):
    """Quantile of a serialized LogHistogram, interpolated within its bucket."""
    rank = q * hist["count"]
    seen = 0
    for index, count in hist["buckets"]:
        if seen + count >= rank:
            lo, hi = bucket_bounds(index)
            return min(lo + (hi - lo) * (rank - seen) / count, int(hist["max"]))
        seen += count
    return float(hist["max"])


# --------------------------------------------------------------------- modes


def slowness(w):
    """How much slower than nominal the host runs right now."""
    out = subprocess.run([w.reference, str(REFERENCE_ITERATIONS)], stdout=subprocess.PIPE,
                         text=True)
    if out.returncode != 0:
        raise CheckFailed(f"reference kernel exited {out.returncode}")
    return float(out.stdout) / REFERENCE_NOMINAL_S


def measure(w, seconds):
    """--trace 0: spawn the CLI for `seconds`; median of each metric.

    The reference kernel runs before the first spawn and after every
    spawn; each spawn's speeds are corrected by the mean slowness of the
    two readings around it. The uncorrected medians go to stderr.
    """
    raw, runs, outputs = [], [], None
    start = time.perf_counter()
    before = slowness(w)
    while len(runs) < MIN_SPAWNS or time.perf_counter() - start < seconds:
        m, out = spawn(w)
        after = slowness(w)
        if outputs is not None and out != outputs:
            raise CheckFailed("two runs on the same input produced different outputs")
        outputs = out
        s = (before + after) / 2
        before = after
        raw.append(m)
        runs.append({k: v / s if k in TIMES else v * s if k in RATES else v
                     for k, v in m.items()})
    log(f"{w.name}: {len(runs)} runs of {w.requests} requests; uncorrected medians: "
        + ", ".join(f"{k} {statistics.median(r[k] for r in raw):.6g}" for k in raw[0]))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def traced(w, seconds, bench, spec):
    """--trace 1: CLI runs for the untraced reference, then the replica.

    Per-layer metrics are the replica's own (uncorrected) medians, except
    cli.trace_overhead_share, which compares the CLI's and the replica's
    wall times corrected to nominal host speed.
    """
    start = time.perf_counter()
    runs, outputs = [], None
    before = slowness(w)
    for _ in range(TRACED_CLI_SPAWNS):
        m, outputs = spawn(w)
        runs.append(m)
    middle = slowness(w)
    cli_wall = statistics.median(r["wall_s"] for r in runs) / ((before + middle) / 2)
    spans = os.path.join(ROOT, ".bench_work", f"spans-{w.name}-seed{w.seed}.jsonl")
    remaining = max(0.0, seconds - (time.perf_counter() - start))
    try:
        res = helper(w.pb, "traced", w.name, "--seconds", f"{remaining:.3f}", "--spans", spans,
                     *w.helper_flags())
    except CheckFailed:
        w.attempted += w.requests
        w.failed += w.requests
        raise
    w.attempted += w.requests * res["repetitions"]
    if w.soak:
        tenants, series = outputs
        if res["vectors"] != tenants:
            w.failed += w.requests
            raise CheckFailed(f"replica vectors {res['vectors']} != CLI {tenants}")
        with open(os.path.join(w.work, "replica.jsonl"), "rb") as f:
            if f.read() != series:
                w.failed += w.requests
                raise CheckFailed("replica series file differs from the CLI's")
    metrics = dict(res["metrics"])
    # Both walls at nominal host speed: the two phases run seconds apart.
    traced_wall = res["wall_s"] / ((middle + slowness(w)) / 2)
    metrics["cli.trace_overhead_share"] = traced_wall / cli_wall - 1.0
    for m in bench["per_layer"]:
        name = m["name"]
        if name in metrics:
            continue
        if w.name in spec["per_layer"][name]["applies"]:
            raise CheckFailed(f"traced run did not report {name}")
        metrics[name] = 0.0
    log(f"{w.name}: {len(runs)} CLI runs, {res['repetitions']} traced repetitions, "
        f"spans in {os.path.relpath(spans, ROOT)}")
    return metrics


def run_workload(name, args, bench, spec, programs):
    """Run one workload; print its metric lines; return its result."""
    work = os.path.join(ROOT, ".bench_work", f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    w = Workload(name, spec["workloads"][name], args.seed, work, programs)
    try:
        w.prepare()
        values = traced(w, args.seconds, bench, spec) if args.trace else measure(w, args.seconds)
        correct = True
    except CheckFailed as e:
        log(f"{name}: CHECK FAILED: {e}")
        values, correct = {}, False
        if w.failed == 0:
            # The inputs could not be prepared: nothing was served.
            w.attempted, w.failed = w.attempted + w.requests, w.failed + w.requests
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{name} seed={args.seed}: failed_frac {w.failed / w.attempted:.6f} "
          f"({w.failed} of {w.attempted} requests)")
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    for n, m in metrics.items():
        print(f"{name} {n} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": w.attempted, "failed": w.failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_json(os.path.join(HERE, "spec.json"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if not set(names) <= set(spec["workloads"]):
        ap.error(f"unknown workload {args.workload}")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise SystemExit("perfbench: run from the root of the repository (no Cargo.toml here)")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    programs = build()
    results = {name: run_workload(name, args, bench, spec, programs) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        # All workloads: metrics are keyed workload:metric.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time to verdict on four secflow user paths, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload policy_check --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads
    python3 perfbench/run.py compare old.jsonl new.jsonl

Each run builds the release `secflow` binary and the `perfbench` helper
(into $CARGO_TARGET_DIR, default `.bench_build`), has the helper generate
the workload's policy text, serve script and known answers from the seed,
and then:

* `--trace 0` times the real binary for `--seconds` — one `secflow`
  process per pass for check, stream and audit, one closed-loop client per
  serve session — and checks every verdict and exit code. Printed metrics
  are the `end_to_end` list of BENCHMARK.json:
  - `setup_s`: process start until the policy is loaded (the serve
    `ready` line), median of several loads;
  - `verdict_p50_ms`: median time from asking to holding the verdict — a
    whole pass for check, stream and audit (all three print at exit), one
    request for serve;
  - `verdicts_per_s`: requirements over the median pass time (serve:
    responses over the summed request latencies);
  - `peak_rss_mb`: largest resident set of any `secflow` process.
  The three times are scaled to a reference host speed. A small host's
  CPU speed drifts by up to 2x over seconds to minutes, far past any
  useful bound, so every timed sample (a load, a pass, a block of serve
  requests) is bracketed by runs of a fixed calibration loop, and its
  wall time is multiplied by CAL_NOMINAL over their mean. At the speed
  where the loop takes CAL_NOMINAL a scaled time equals the wall time;
  the raw walls are printed beside them, with the host speed.
* `--trace 1` runs the binary (one-shot passes or serve sessions) before
  and after `perfbench trace`, which drives the same path through the
  layers' public functions with spans around each call, and prints the
  `per_layer` list. `cli.unattributed.ms` is the binary's (median) wall
  time minus the top-level layer spans: process start-up, file reading and
  the CLI's private output and request code. On check and audit it is a
  few percent of the wall, inside the host's run-to-run noise, so it can
  read negative. A layer the workload's path never calls reports 0.

Every run prints human-readable lines — a stamp (commit, source digest,
nproc, --jobs, rustc, profile, seed) and the per-path metrics by name —
then, last, one JSON object {correct, attempted, failed, metrics}. With
`--record FILE` it also appends that stamp and those metrics to FILE as
one JSON line; `compare` reads two such files.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
WORKLOADS = [w["name"] for w in SPEC["workloads"]] if SPEC else []
JOBS = 2
SETUP_LOADS = 5
SETUP_SECONDS = 2.0
CAL_ITERS = 200_000
CAL_NOMINAL = 0.02  # s: the calibration loop's time at the reference speed
CAL_EVERY = 50  # serve requests per calibrated block
# Binary runs (one-shot passes or serve sessions) before and after the
# traced passes; the traced run attributes their median wall.
TRACE_CLI_RUNS = 2
PROFILE = "release"
ONE_SHOT = {
    "policy_check": ["check", "{policy}", "--jobs", str(JOBS)],
    "population_stream": ["check", "{policy}", "--stream", "--format=ndjson", "--jobs", str(JOBS)],
    "policy_audit": ["audit", "{policy}", "--format=json", "--jobs", str(JOBS)],
}


class BenchError(Exception):
    """The benchmark could not run (build, generation or I/O failure)."""


# ---- build and inputs ------------------------------------------------------

def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for args in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "secflow-cli", "--bin", "secflow"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(args)}")
    release = target_dir() / "release"
    return release / "secflow", release / "perfbench"


def generate(helper, workload, seed):
    work = ROOT / ".bench_run" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    done = subprocess.run([str(helper), "gen", workload, str(seed), str(work)], stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"perfbench gen {workload} {seed} failed")
    expected = json.loads((work / "expected.json").read_text())
    script = (work / "script.ndjson").read_text().splitlines()
    return work, expected, script


def stamp(seed):
    def out(args):
        try:
            done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Identifies the measured code where there is no git history.
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.suffix in (".rs", ".toml", ".lock", ".py") and f.is_file() and "target" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    status = out(["git", "status", "--porcelain"])
    return {
        "commit": out(["git", "rev-parse", "HEAD"]),
        "dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "rustc": out(["rustc", "-V"]),
        "profile": PROFILE,
        "seed": seed,
    }


# ---- running secflow -------------------------------------------------------

def reap(proc):
    """Wait for `proc`; return (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_once(secflow, argv):
    """One one-shot `secflow` process: (wall s, exit code, stdout, rss MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(secflow)] + argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    code, rss = reap(proc)
    return time.perf_counter() - start, code, out, rss


class Serve:
    """A `secflow serve` process driven by one closed-loop client."""

    def __init__(self, secflow, policy):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([str(secflow), "serve", str(policy)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        ready = self.proc.stdout.readline()
        self.output_bytes = 0
        self.ready_s = time.perf_counter() - self.start
        if not ready.startswith(b'{"ready"'):
            self.close()
            raise BenchError(f"serve did not start: {ready[:200]!r}")

    def request(self, line):
        """Send one request line: (seconds until its response line was
        read, the parsed response)."""
        start = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        resp = self.proc.stdout.readline()
        latency = time.perf_counter() - start
        self.output_bytes += len(resp)
        return latency, json.loads(resp) if resp else {"error": "serve closed its output"}

    def close(self):
        """Close stdin (EOF ends the session) and reap: (exit code, rss MB)."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.stdout.read()
        self.proc.stdout.close()
        return reap(self.proc)


def load_time(secflow, policy):
    session = Serve(secflow, policy)
    code, _ = session.close()
    if code != 0:
        raise BenchError(f"serve exited {code} after loading {policy}")
    return session.ready_s


class HostSpeed:
    """Scale factors to the reference host speed. `factor()` runs the
    calibration loop once more and returns CAL_NOMINAL over the mean of
    this run and the previous one, so a sample taken between the two calls
    is bracketed. The loop runs in this process while `secflow` waits."""

    def __init__(self):
        self.factors = []
        self.last = self.calibrate()

    @staticmethod
    def calibrate():
        start = time.perf_counter()
        x = 0
        for i in range(CAL_ITERS):
            x += i * i
        return time.perf_counter() - start

    def factor(self):
        now = self.calibrate()
        f = CAL_NOMINAL / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f


# ---- verdict checks --------------------------------------------------------

def one_shot_failures(workload, code, out, expected):
    """Number of wrong verdicts (an unexpected exit code fails them all)."""
    reqs = expected["requirements"]
    want_code = 1 if any(r["status"] == "violated" for r in reqs) else 0
    if code != want_code:
        return len(reqs)
    text = out.decode(errors="replace")
    got = {}
    try:
        if workload == "policy_check":
            for line in text.splitlines()[:-1]:
                tag, _, rest = line.partition("  ")
                req = rest.strip().split("  (")[0]
                got[req] = {"FLAW": "violated", "ok": "satisfied"}.get(tag.strip(), "error")
            got = [got.get(r["require"]) for r in reqs]
        elif workload == "population_stream":
            by_index = {}
            for line in text.splitlines():
                rec = json.loads(line)
                for v in rec.get("verdicts", []):
                    by_index[v["requirement"]] = v["status"]
            got = [by_index.get(i) for i in range(len(reqs))]
        else:
            report = json.loads(text)
            if not report.get("certified"):
                return len(reqs)
            flawed = {v["requirement"] for v in report["violations"]}
            got = ["violated" if r["require"] in flawed else "satisfied" for r in reqs]
    except (ValueError, KeyError, TypeError):
        return len(reqs)
    return sum(g != r["status"] for g, r in zip(got, reqs))


def response_ok(resp, want):
    if "error" in resp or resp.get("op") != want["op"]:
        return False
    if want["op"] != "check" and resp.get("changed") is not True:
        return False
    key = "verdicts" if want["op"] == "check" else "deltas"
    got = [[v.get("requirement"), v.get("status")] for v in resp.get(key, [])]
    return got == want["verdicts"]


def serve_session(secflow, work, script, expected, speed=None, with_stats=False):
    """One session over the whole script: ((op kind, latency, scaled
    latency) per request, wall s from spawn to the last response, failures,
    rss MB, response bytes, stats response). Without `speed` nothing is
    scaled and the session runs no calibration."""

    def scaled(block):
        f = speed.factor() if speed and block else 1.0
        return [(kind, raw, raw * f) for kind, raw in block]

    session = Serve(secflow, work / "policy.sfl")
    lat = []
    block = []
    failed = 0
    try:
        for line, want in zip(script, expected["script"]):
            latency, resp = session.request(line)
            block.append(("check" if want["op"] == "check" else "edit", latency))
            failed += not response_ok(resp, want)
            if len(block) == CAL_EVERY:
                lat += scaled(block)
                block = []
        wall = time.perf_counter() - session.start
        lat += scaled(block)
        output_bytes = session.output_bytes
        stats = session.request('{"op":"stats"}')[1] if with_stats else None
        shutdown = session.request('{"op":"shutdown"}')[1]
    finally:
        code, rss = session.close()
    if code != 0 or "shutdown" not in shutdown:
        failed = len(script)
    return lat, wall, failed, rss, output_bytes, stats


# ---- statistics ------------------------------------------------------------

def percentile(values, q):
    """The q-th percentile (0-100) by linear interpolation."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---- the untraced run ------------------------------------------------------

def measure(secflow, workload, work, script, expected, seconds):
    """Timed passes for `seconds`: (end-to-end metrics, per-path report,
    attempted, failed)."""
    policy = work / "policy.sfl"
    speed = HostSpeed()
    setup = []
    while len(setup) < SETUP_LOADS or (sum(setup) < SETUP_SECONDS and len(setup) < 4 * SETUP_LOADS):
        setup.append(load_time(secflow, policy) * speed.factor())
    n_reqs = len(expected["requirements"])
    attempted = failed = 0
    rss = 0.0
    report = {}
    start = time.perf_counter()
    if workload in ONE_SHOT:
        argv = [a.format(policy=policy) for a in ONE_SHOT[workload]]
        walls = []
        scaled = []
        while not walls or time.perf_counter() - start < seconds:
            wall, code, out, peak = run_once(secflow, argv)
            walls.append(wall)
            scaled.append(wall * speed.factor())
            rss = max(rss, peak)
            attempted += n_reqs
            failed += one_shot_failures(workload, code, out, expected)
        p50 = statistics.median(scaled)
        per_s = n_reqs / p50
        name = {"policy_check": "check_wall_s", "population_stream": "stream_wall_s",
                "policy_audit": "audit_wall_s"}[workload]
        report[name] = metric(statistics.median(walls), "s")
        if workload == "population_stream":
            report["stream_verdicts_per_s"] = metric(n_reqs / statistics.median(walls), "1/s")
        report["passes"] = metric(len(walls), "count")
    else:
        lat = []
        sessions = 0
        while not sessions or time.perf_counter() - start < seconds:
            got, _, bad, peak, _, _ = serve_session(secflow, work, script, expected, speed)
            lat += got
            sessions += 1
            rss = max(rss, peak)
            attempted += len(script)
            failed += bad
        p50 = statistics.median(x for _, _, x in lat)
        per_s = len(lat) / sum(x for _, _, x in lat)
        raw = {kind: [r for k, r, _ in lat if k == kind] for kind in ("check", "edit")}
        report.update({
            "serve_requests_per_s": metric(len(lat) / sum(r for _, r, _ in lat), "1/s"),
            "serve_check_p50_ms": metric(percentile(raw["check"], 50) * 1e3, "ms"),
            "serve_check_p99_ms": metric(percentile(raw["check"], 99) * 1e3, "ms"),
            "serve_edit_p50_ms": metric(percentile(raw["edit"], 50) * 1e3, "ms"),
            "serve_edit_p95_ms": metric(percentile(raw["edit"], 95) * 1e3, "ms"),
            "serve_checks": metric(len(raw["check"]), "count"),
            "serve_edits": metric(len(raw["edit"]), "count"),
            "sessions": metric(sessions, "count"),
        })
    report["peak_rss_mb"] = metric(rss, "MB")
    report["failed_share"] = metric(failed / attempted, "ratio")
    report["host_speed"] = metric(statistics.median(speed.factors), "ratio")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "verdict_p50_ms": metric(p50 * 1e3, "ms"),
        "verdicts_per_s": metric(per_s, "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return metrics, report, attempted, failed


# ---- the traced run --------------------------------------------------------

def layer_metrics(trace, cli_wall_ms, output_bytes):
    """Per-layer metrics from a `perfbench trace` object and the binary's
    wall time: the helper's metrics plus the three the driver owns.
    `cli.unattributed.ms` is the wall minus the top-level spans, so the two
    add up to the wall exactly."""
    out = dict(trace["metrics"])
    untraced = out.pop("trace.untraced_wall.ms")
    out["cli.output_bytes"] = float(output_bytes)
    out["cli.unattributed.ms"] = cli_wall_ms - sum(trace["spans_ms"].values())
    out["trace.overhead.ms"] = trace["wall_ms"] - untraced
    return out


def traced(secflow, helper, workload, work, script, expected):
    """Binary runs before and after the helper's traced passes, so host
    drift does not land in `cli.unattributed.ms`: (per-layer metrics,
    attempted, failed)."""
    n_reqs = len(expected["requirements"])
    argv = [a.format(policy=work / "policy.sfl") for a in ONE_SHOT.get(workload, [])]

    def run_binary():
        """(wall s, verdicts attempted, failed, output bytes, cache counters)"""
        if workload in ONE_SHOT:
            wall, code, out, _ = run_once(secflow, argv)
            return wall, n_reqs, one_shot_failures(workload, code, out, expected), len(out), None
        _, wall, bad, _, size, stats = serve_session(secflow, work, script, expected, with_stats=True)
        cache = stats.get("stats", {}).get("cache", {})
        return wall, len(script), bad, size, [cache.get(k) for k in ("hits", "misses", "evictions")]

    runs = [run_binary() for _ in range(TRACE_CLI_RUNS)]
    done = subprocess.run([str(helper), "trace", workload, str(work)], capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"perfbench trace failed: {done.stderr.strip()}")
    runs += [run_binary() for _ in range(TRACE_CLI_RUNS)]
    walls, counts, fails, sizes, caches = zip(*runs)
    attempted, failed = sum(counts), sum(fails)
    trace = json.loads(done.stdout)
    # The traced pass must reach the binary's verdicts and cache counters.
    if workload in ONE_SHOT:
        want = [r["status"] for r in expected["requirements"]]
    else:
        want = [w["verdicts"] for w in expected["script"]]
    attempted += len(want)
    failed += sum(g != w for g, w in zip(trace["statuses"], want)) + abs(len(trace["statuses"]) - len(want))
    for cli_cache in caches:
        if cli_cache is not None and cli_cache != trace["cache"]:
            print(f"cache counters differ: secflow {cli_cache}, traced {trace['cache']}", file=sys.stderr)
            failed += 1
    return layer_metrics(trace, statistics.median(walls) * 1e3, sizes[-1]), attempted, failed


# ---- entry points ----------------------------------------------------------

def run_workload(secflow, helper, workload, seed, seconds, trace):
    work, expected, script = generate(helper, workload, seed)
    try:
        if trace:
            values, attempted, failed = traced(secflow, helper, workload, work, script, expected)
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            if set(values) != set(units):
                raise BenchError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
            metrics = {k: metric(values[k], units[k]) for k in units}
            report = {}
        else:
            metrics, report, attempted, failed = measure(secflow, workload, work, script, expected, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, report


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload:18} {name:28} {m['value']:14.6g} {m['unit']}")


def main(argv):
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the stamped result to this JSON-lines file")
    args = ap.parse_args(argv)
    if SPEC is None:
        raise BenchError("BENCHMARK.json not found at the repository root")
    secflow, helper = build()
    info = stamp(args.seed)
    print("stamp " + json.dumps(info, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        result, report = run_workload(secflow, helper, w, args.seed, args.seconds, args.trace)
        results[w] = result
        print_metrics(w, report)
        print_metrics(w, result["metrics"])
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps({"stamp": info, "workload": w, "trace": args.trace,
                                    "report": report, **result}, sort_keys=True) + "\n")
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# ---- compare ---------------------------------------------------------------

def spread(values):
    """Inter-quartile distance, as `statistics.quantiles(values, n=4)`."""
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(old, new, bound, better):
    """Classify one metric on one workload (choosing-metrics §6.5 and §8).

    Runs are paired in record order. `improved` needs at least ten pairs,
    new winning nine tenths of them (ties count for neither) and medians
    further apart than the old runs' quartile spread. Otherwise, when
    either side's spread exceeds the bound, the result is `unresolved`
    unless every new run beats every old run. Otherwise `worse` when the
    new median is worse by more than the bound, else `unchanged`."""
    sign = 1.0 if better == "higher" else -1.0
    gain = lambda a, b: sign * (b - a)  # > 0 when b is better than a
    m_old, m_new = statistics.median(old), statistics.median(new)
    pairs = list(zip(old, new))
    wins = sum(gain(a, b) > 0 for a, b in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(m_new - m_old) > spread(old) and gain(m_old, m_new) > 0:
        return "improved"
    wide = max(spread(old) / abs(m_old), spread(new) / abs(m_new)) > bound
    if wide and not min(gain(a, b) for a in old for b in new) > 0:
        return "unresolved"
    if -gain(m_old, m_new) > bound * abs(m_old):
        return "worse"
    return "unchanged"


def read_records(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace") == 0 and rec.get("correct"):
                    by_workload.setdefault(rec["workload"], []).append(rec["metrics"])
    return by_workload


def compare(old_records, new_records, spec):
    """{(workload, metric): verdict} over every end-to-end metric of every
    workload present on both sides."""
    out = {}
    for workload in sorted(set(old_records) & set(new_records)):
        for m in spec["end_to_end"]:
            old = [r[m["name"]]["value"] for r in old_records[workload]]
            new = [r[m["name"]]["value"] for r in new_records[workload]]
            out[(workload, m["name"])] = verdict(old, new, m["bound"], m["better"])
    return out


def compare_main(argv):
    if len(argv) != 2:
        print("usage: run.py compare <old.jsonl> <new.jsonl>", file=sys.stderr)
        return 2
    result = compare(read_records(argv[0]), read_records(argv[1]), SPEC)
    if not result:
        print("no workload appears in both files", file=sys.stderr)
        return 2
    for (workload, name), v in result.items():
        print(f"{workload:18} {name:18} {v}")
    return 1 if "worse" in result.values() else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

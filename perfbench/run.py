#!/usr/bin/env python3
"""One benchmark for the area-query engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper|geofence --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --workload W --spread N [--seed N] [--seconds S]

The first form runs one workload in a fresh process and prints, as its
last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`); the line before it is the run's
provenance. `--workload all` runs every workload, end to end and traced,
and prints every metric. `--spread N` runs a workload (or `all`) in N
fresh processes with seeds N..N+n-1 and prints each end-to-end metric's
median, quartiles and spread, next to the bound in BENCHMARK.json.

Before running, the script builds the benchmark (`perfbench/Cargo.toml`)
and the `vaq` CLI in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`). Snapshot files go to a scratch directory under it and
are removed after each run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper", "geofence"]
# One run must end within 180 s; the budget starts once the build is done.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds the benchmark and the CLI; returns their paths."""
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "src/bin/vaq.rs"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run this from a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.relpath(os.path.join(HERE, "Cargo.toml"), ROOT)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "vaq"],
    ):
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"{' '.join(cmd)}: {e}")
        if r.returncode != 0:
            fail(f"{' '.join(cmd)} failed with {r.returncode}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "vaq")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_once(bins, workload, seed, seconds, trace, deadline):
    """Runs one workload in a fresh process; returns (provenance, result)."""
    perfbench, vaq = bins
    work = os.path.join(target_dir(), "perfbench-work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [perfbench, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--vaq", vaq, "--work", work, "--rev", git_rev()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} (seed {seed}) did not finish in time", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload} (seed {seed}) exited with {proc.returncode}", 1)
    lines = stdout.strip().splitlines()
    try:
        provenance, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"{workload}: unreadable output ({e})", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail(f"{workload}: malformed result {result}", 1)
    return provenance, result


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def spread(bins, workloads, seed, seconds, n):
    """Runs each workload n times in fresh processes; prints each metric's
    median, quartiles and spread (IQR / median)."""
    limit = bounds()
    report = {}
    for w in workloads:
        values, shares = {}, set()
        for i in range(n):
            _, r = run_once(bins, w, seed + i, seconds, 0, time.monotonic() + RUN_TIMEOUT_S)
            log(f"{w} seed {seed + i}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
            shares.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[w] = {}
        print(f"\n{w}: {n} runs, failed share {sorted(shares)}")
        print(f"{'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            s = (q3 - q1) / med if med else float("inf")
            b = limit.get(name)
            flag = "" if b is None or name == "setup_s" or s < b / 3 else "  > bound/3"
            print(f"{name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>9.3f}{(b if b is not None else float('nan')):>8.2f}{flag}")
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s, "values": vs}
    print(json.dumps(report))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="N",
                    help="run N fresh processes per workload and print each metric's quartiles")
    a = ap.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")
    bins = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    if a.spread:
        spread(bins, workloads, a.seed, a.seconds, a.spread)
        return
    if a.workload != "all":
        provenance, result = run_once(bins, a.workload, a.seed, a.seconds, a.trace, deadline)
        print(json.dumps(provenance))
        print(json.dumps(result))
        return
    everything = {}
    for w in workloads:
        for trace in (0, 1):
            _, r = run_once(bins, w, a.seed, a.seconds, trace, time.monotonic() + RUN_TIMEOUT_S)
            everything.setdefault(w, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
            e = everything[w]
            e["correct"] &= r["correct"]
            e["attempted"] += r["attempted"]
            e["failed"] += r["failed"]
            e["metrics"].update(r["metrics"])
    names = list(everything[workloads[0]]["metrics"])
    print(f"{'metric':<36}{'unit':>7}" + "".join(f"{w:>14}" for w in workloads))
    for name in names:
        unit = everything[workloads[0]]["metrics"][name]["unit"]
        print(f"{name:<36}{unit:>7}" + "".join(f"{everything[w]['metrics'][name]['value']:>14.6g}" for w in workloads))
    for w in workloads:
        e = everything[w]
        print(f"{w}: correct={e['correct']} attempted={e['attempted']} failed={e['failed']}")
    print(json.dumps(everything))


if __name__ == "__main__":
    main()

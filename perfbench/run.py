"""Benchmark of polymerion: one workload, one seed, fresh interpreters.

    python3 perfbench/run.py --workload verify|lattice|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each measurement is a fresh `worker.py`
process (one client, closed loop, BLAS pinned to one thread) that sets up
the seeded inputs, runs every request cold, runs them again warm, and checks
every output. Workers are started until `--seconds` is used up, and at
least `MIN_ROUNDS` of them; a few set-up-only workers add samples of the
set-up time. Medians over workers are reported. Times are wall times scaled
to a reference machine speed by a probe run next to them (see `worker.py`
and NOTES.md); the raw wall medians are in the run record.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` traced workers alternate with plain ones and the last line holds
the per-layer metrics and `trace.overhead_s`. Spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify", "lattice", "cli")
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 3
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "warm_run_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker to completion and return its result object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_PIN, PYTHONHASHSEED="0")
    spawned_at = monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", OUT, "--spawned-at", repr(spawned_at), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with >= 10 requests beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "polymerion", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Workers until the time is used; returns (setup samples, plain, traced)."""
    start = monotonic()
    setups = [spawn(workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    while True:
        round_start = monotonic()
        plain.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, "--trace", "--spans", spans))
        now = monotonic()
        if len(plain) >= MIN_ROUNDS and now + (now - round_start) - start > seconds:
            break
    return setups, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "POLYMERION_THREADS" in os.environ:
        print("POLYMERION_THREADS must be unset: the benchmark measures the default",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "polymerion", "__init__.py")):
        print(f"no polymerion sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    med = statistics.median
    runs = plain + traced
    setups += runs
    tails = [tail(r["latencies"]) for r in plain]
    e2e = {
        "setup_s": med(r["setup_s"] for r in setups),
        "run_s": med(r["run_s"] for r in plain),
        "warm_run_s": med(r["warm_run_s"] for r in plain),
        "req_p50_s": med(med(r["latencies"]) for r in plain),
        "req_tail_s": med(t for t, _ in tails),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "polymerion_threads": "unset",
        "src_lines": src_lines(),
        "workers": len(plain),
        "traced_workers": len(traced),
        "setup_samples": len(setups),
        "requests": len(plain[0]["latencies"]),
        "tail_percentile": tails[0][1],
        "ursell_cache_entries_after_cold": med(r["cache_entries"] for r in plain),
        "wall_s": {"setup_s": med(r["wall_setup_s"] for r in setups),
                   "run_s": med(r["wall_run_s"] for r in plain),
                   "warm_run_s": med(r["wall_warm_run_s"] for r in plain)},
        "fail_frac": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]][:20],
        "end_to_end": e2e,
    }

    if args.trace:
        layers = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = med(r["run_s"] for r in traced) - e2e["run_s"]
        record["per_layer"] = layers
        units = dict(tracing.METRICS, **{"trace.overhead_s": "s"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for name, value in e2e.items():
        print(f"{args.workload:8s} {name:14s} {value:12.6g} {END_TO_END[name]}")
    print(f"{args.workload:8s} {'fail_frac':14s} {record['fail_frac']:12.6g} ratio"
          f"   ({failed} of {attempted} requests)")
    print(f"{args.workload:8s} req_tail_s is p{record['tail_percentile']:.1f}"
          f" of {record['requests']} requests")
    for f in record["failures"]:
        print(f"FAILED {f}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measurement in a fresh interpreter: set-up, a cold pass, a warm pass, checks.

Started by `run.py`; prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload W --seed N --spawned-at T --workdir DIR
        [--setup-only] [--trace --spans FILE]

`--spawned-at` is the parent's CLOCK_MONOTONIC reading just before the
start, so `setup_s` covers interpreter start, imports, input generation,
volume assembly and config files. The cold pass runs every request once
with every process-wide cache empty; the warm pass re-issues the same list
in the same process. A traced worker wraps the layer boundaries before the
cold pass and skips the warm pass. Outputs are checked after the passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Time of `probe()` on the 2-core machine the benchmark was written on, when
# nothing else ran on its host. Reported times are wall times scaled by
# REFERENCE_PROBE_S / (probe time measured next to them), i.e. seconds at that
# reference speed; the raw wall times are kept in the run record.
REFERENCE_PROBE_S = 2.3e-3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> float:
    """Seconds for a fixed mix of the operations polymerion's hot loops use:
    bit tricks, tuple keys, dict updates, small frozensets."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFF
        key = (m, (m & -m).bit_length(), i & 7)
        counts[key] = counts.get(key, 0) + 1
        frozenset((i & 3, i & 5))
    return time.perf_counter() - t0


def run_pass(requests, tag, tracer=None):
    """(outcomes, wall latencies, scaled latencies) of one pass over the list.

    A probe runs before the first request and after each one; a request's
    scaled latency divides by the mean of the two probes around it, so a
    host that slows the machine for a while slows the probes too.
    """
    clock = time.perf_counter
    outcomes, latencies, probes = [], [], [probe()]
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        t0 = clock()
        try:
            outcome = (True, request.call(tag))
        except Exception as exc:  # a raising request is a failed request, not a crash
            outcome = (False, f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        outcomes.append(outcome)
        probes.append(probe())
    scaled = [lat * 2.0 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1])
              for i, lat in enumerate(latencies)]
    return outcomes, latencies, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy
    import polymerion

    if not os.path.abspath(polymerion.__file__).startswith(src + os.sep):
        raise SystemExit(f"polymerion imported from {polymerion.__file__}, not from {src}")
    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        requests = workloads.BUILDERS[args.workload](args.seed, workdir)
        wall_setup_s = monotonic() - args.spawned_at
        speed = sum(probe() for _ in range(3)) / 3
        result = {"setup_s": wall_setup_s * REFERENCE_PROBE_S / speed,
                  "wall_setup_s": wall_setup_s, "numpy": numpy.__version__}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        cache = sys.modules["polymerion.ursell"]._CACHE
        entries_before = len(cache)
        cold, wall, latencies = run_pass(requests, "cold", tracer)
        run_s = sum(latencies)
        result.update(run_s=run_s, wall_run_s=sum(wall), latencies=latencies,
                      cache_entries=len(cache))
        if tracer is not None:
            # Snapshot before the checks, which call the oracle too.
            rows = nbytes = 0
            if args.workload == "cli":
                for ok, out in cold:
                    if ok and out[0] == 0:
                        r, b = workloads.emitted(out[1])
                        rows += r
                        nbytes += b
            result["layers"] = tracing.layer_metrics(
                tracer, len(cache), len(cache) - entries_before, rows, nbytes, sum(wall))
            tracer.write_spans(args.spans)
        passes = [cold]
        if not args.trace:
            warm, wall, latencies = run_pass(requests, "warm")
            result.update(warm_run_s=sum(latencies), wall_warm_run_s=sum(wall))
            passes.append(warm)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        for outcomes in passes:
            for request, outcome in zip(requests, outcomes):
                reason = workloads.failure(request, outcome)
                if reason is not None:
                    failures.append(f"{request.name}: {reason}")
        result.update(attempted=sum(len(p) for p in passes), failed=len(failures),
                      failures=failures[:20])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs one cheap request of each workload, then hands its check the real
output and corrupted copies of it. Exits 0 only if every real output passes
and every corrupted one counts as a failed request: a perturbed value, a
certified-flag list that is not a prefix, and a non-zero exit code.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import polymerion as pm  # noqa: E402

import workloads  # noqa: E402

SEED = 7


def verify_cases(workdir):
    request = next(r for r in workloads.build_verify(SEED, workdir) if "free-quantum" in r.name)
    out = request.call("cold")
    some_g = next(iter(out["g"]))
    return request, [
        ("verify: output as computed", (True, out), False),
        ("verify: log Z perturbed by 1e-9", (True, dict(out, log_z=out["log_z"] + 1e-9)), True),
        ("verify: expectation perturbed by 1e-9",
         (True, dict(out, expectation=out["expectation"] + 1e-9)), True),
        ("verify: one g perturbed by 1e-7",
         (True, dict(out, g={**out["g"], some_g: out["g"][some_g] + 1e-7})), True),
        ("verify: request raised", (False, "RuntimeError: boom"), True),
    ]


def lattice_cases(workdir):
    request = next(r for r in workloads.build_lattice(SEED, workdir) if "ising-3x3" in r.name)
    scan = request.call("cold")
    alternating = tuple((b, i % 2 == 0) for i, (b, _) in enumerate(scan.points))
    bumped = math.nextafter(scan.beta_radius, 1.0)
    return request, [
        ("lattice: scan as computed", (True, scan), False),
        ("lattice: certified flags that are not a prefix",
         (True, dataclasses.replace(scan, points=alternating)), True),
        ("lattice: radius one rounding step off",
         (True, dataclasses.replace(scan, beta_radius=bumped)), True),
    ]


def cli_cases(workdir):
    request = next(r for r in workloads.build_cli(SEED, workdir) if "ks-ising-2x4" in r.name)
    code, path = request.call("cold")
    with open(path) as fh:
        text = fh.read()
    perturbed = path + ".perturbed" + os.path.splitext(path)[1]
    if path.endswith(".json"):
        doc = json.loads(text)
        g = doc["rows"][0]["g"]
        doc["rows"][0]["g"] = [g[0] + 1e-6, g[1]] if isinstance(g, list) else g + 1e-6
        text = json.dumps(doc)
    else:
        lines = text.splitlines()
        row = next(i for i, ln in enumerate(lines) if not ln.startswith("#") and "g_re" not in ln)
        cells = lines[row].split(",")
        cells[-2] = repr(float(cells[-2]) + 1e-6)
        lines[row] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    with open(perturbed, "w") as fh:
        fh.write(text)
    broken = os.path.join(workdir, "broken.json")
    with open(broken, "w") as fh:
        json.dump({"model": {"preset": "no-such-model"}, "region": {"extent": [2]}, "beta": 0.1}, fh)
    bad_code = pm.cli.main(["ks", "--config", broken, "--output", path + ".unused"])
    return request, [
        ("cli: session as run", (True, (code, path)), False),
        ("cli: one g in the output perturbed by 1e-6", (True, (code, perturbed)), True),
        (f"cli: session that exited with code {bad_code}", (True, (bad_code, path)), True),
    ]


def main() -> int:
    wrong = 0
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        for build in (verify_cases, lattice_cases, cli_cases):
            request, cases = build(workdir)
            for label, outcome, should_fail in cases:
                reason = workloads.failure(request, outcome)
                ok = (reason is not None) == should_fail
                wrong += not ok
                verdict = f"counted as failed ({reason})" if reason else "counted as correct"
                print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}")
    print("self-test passed" if not wrong else f"self-test failed: {wrong} case(s) misjudged")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

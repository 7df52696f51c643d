"""Regenerate `references.json`, the stored answers the lattice and cli checks use.

    python3 perfbench/make_references.py

Run it from the root of a checkout of the commit whose answers are to be
stored. It evaluates every scan window, closed form and d = 2 density that
the lattice workload can draw from any seed, and the `table1` and `park`
outputs of the CLI. Radii are grid points, so a faster scan must reproduce
them bit for bit.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import polymerion.cli  # noqa: E402

import workloads  # noqa: E402


def _cli_rows(argv, workdir):
    path = os.path.join(workdir, "out.json")
    if polymerion.cli.main(argv + ["--output", path]) != 0:
        raise SystemExit(f"polymerion {' '.join(argv)} failed")
    return workloads.read_rows(path)[1]


def main() -> int:
    sources = workloads.build_sources()
    refs = {"scans": {}, "closed": {}, "densities": {}, "cli": {}}
    closed_ids = {cid for cid, _ in workloads.CLOSED}
    for rid, run in workloads.lattice_catalog(sources):
        value = run()
        if rid in closed_ids:
            refs["closed"][rid] = value
        elif rid.startswith("density "):
            refs["densities"][rid] = value.real
        else:
            flags = [ok for _, ok in value.points]
            refs["scans"][rid] = {"radius": value.beta_radius, "certified": sum(flags),
                                  "points": len(flags)}
        print(rid, file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(workloads.REFERENCES)) as tmp:
        refs["cli"]["table1"] = _cli_rows(["table1"], tmp)
        for d in (2, 3):
            cfg = os.path.join(tmp, "park.json")
            with open(cfg, "w") as fh:
                json.dump({"park": {"dimension": d}}, fh)
            refs["cli"][f"park-d{d}"] = _cli_rows(["park", "--config", cfg], tmp)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

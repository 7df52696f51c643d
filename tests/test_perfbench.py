"""The benchmark harness still finds every name it hooks into the package.

`perfbench/tracing.py` wraps functions by module and name, and the worker
reads `polymerion.ursell._CACHE`; a rename under `src/` would otherwise
surface only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_TABLE1 = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
cache = sys.modules["polymerion.ursell"]._CACHE
assert isinstance(cache, dict)
import polymerion.cli
assert polymerion.cli.main(["table1", "--output", {out!r}]) == 0
assert tracer.calls["cli.main"] == 1
assert tracer.calls["convergence.nn_radius"] == 3
tracing.layer_metrics(tracer, len(cache), 0, 3, 0, 1.0)
"""


def test_tracing_hooks_and_selftest_still_run(tmp_path):
    script = TRACED_TABLE1.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), out=str(tmp_path / "t.csv")
    )
    traced = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert traced.returncode == 0, traced.stderr
    assert (tmp_path / "t.csv").read_text().startswith("# objective")
    selftest = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    assert "self-test passed" in selftest.stdout

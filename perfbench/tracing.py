"""Spans and counters around polymerion's layer boundaries, from outside.

Nothing under `src/` is edited. Python resolves a module-level name when a
call runs, so replacing `polymerion.convergence.gk_criterion` (and every
other module binding of the same function object) makes `beta_radius` call
the wrapper. Methods are wrapped on the class (`Oracle.z`), and the oracle's
`np` binding is swapped for a copy whose `linalg.eigh`/`eigvalsh` count
dense diagonalizations.

Every wrapped call pushes a frame; its self time is its duration minus the
time of the wrapped calls it made. Calls of names in `HOT` are aggregated
only; every other call is also kept as a span (name, start, end, parent,
request) and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

# Wrapped names: (layer.metric name, module, attribute). The wrapper replaces
# the function in every polymerion module that binds the same object.
FUNCTIONS = [
    ("model.assemble_hamiltonian", "polymerion.model", "assemble_hamiltonian"),
    ("polymers.enumerate_polymers", "polymerion.polymers", "enumerate_polymers"),
    ("polymers.incompatibility_graph", "polymerion.polymers", "incompatibility_graph"),
    ("series.free_energy_series", "polymerion.series", "free_energy_series"),
    ("series.adaptive_free_energy_series", "polymerion.series", "adaptive_free_energy_series"),
    ("series.site_pinned_series", "polymerion.series", "site_pinned_series"),
    ("series.correlation_series", "polymerion.series", "correlation_series"),
    ("series.expectation_series", "polymerion.series", "expectation_series"),
    ("series.free_energy_density", "polymerion.series", "free_energy_density"),
    ("ursell.ursell", "polymerion.ursell", "ursell"),
    ("ursell.expand_multiset", "polymerion.ursell", "expand_multiset"),
    ("convergence.beta_radius", "polymerion.convergence", "beta_radius"),
    ("convergence.gk_criterion", "polymerion.convergence", "gk_criterion"),
    ("convergence.tree_bound", "polymerion.convergence", "tree_bound"),
    ("convergence.anchored_polymer_sum", "polymerion.convergence", "anchored_polymer_sum"),
    ("convergence.fp_iterate", "polymerion.convergence", "fp_iterate"),
    ("convergence.nn_radius", "polymerion.convergence", "nn_radius"),
    ("convergence.universal_radius", "polymerion.convergence", "universal_radius"),
    ("convergence.park_compare", "polymerion.convergence", "park_compare"),
    ("ks.build_ks_kernel", "polymerion.ks", "build_ks_kernel"),
    ("ks.ks_solve", "polymerion.ks", "ks_solve"),
    ("cli.main", "polymerion.cli", "main"),
]

ORACLE_METHODS = [
    "z", "rho", "expectation", "reduced_correlation",
    "weighted_trace", "boltzmann", "hamiltonian_on",
]

# Called 10^4..10^6 times per run: aggregated without span records.
HOT = {
    "ursell.ursell", "ursell.expand_multiset",
    "oracle.z", "oracle.rho", "oracle.boltzmann", "oracle.hamiltonian_on",
    "oracle.weighted_trace", "oracle.eigh", "oracle.eigvalsh",
}

LAYERS = ("model", "polymers", "oracle", "ursell", "series", "convergence", "ks", "cli")

# Per-layer metrics reported by the traced run, with their units.
METRICS = {
    "model.assemble_calls": "count",
    "model.assemble_s": "s",
    "model.sites_assembled": "count",
    "polymers.enumerate_calls": "count",
    "polymers.enumerated": "count",
    "polymers.enumerate_s": "s",
    "polymers.incompat_s": "s",
    "oracle.z_calls": "count",
    "oracle.z_evals": "count",
    "oracle.z_hit_ratio": "ratio",
    "oracle.eigh_calls": "count",
    "oracle.dense_dim_sum": "count",
    "oracle.rho_calls": "count",
    "oracle.s": "s",
    "ursell.calls": "count",
    "ursell.cache_hit_ratio": "ratio",
    "ursell.cache_entries": "count",
    "ursell.expand_calls": "count",
    "ursell.s": "s",
    "series.calls": "count",
    "series.clusters": "count",
    "series.adaptive_rounds": "count",
    "series.families": "count",
    "series.s": "s",
    "convergence.scan_calls": "count",
    "convergence.criterion_evals": "count",
    "convergence.anchored_s": "s",
    "convergence.fp_iterations": "count",
    "convergence.s": "s",
    "ks.kernel_calls": "count",
    "ks.kernel_polymers": "count",
    "ks.kernel_s": "s",
    "ks.solve_s": "s",
    "ks.iterations": "count",
    "ks.subsets": "count",
    "cli.invocations": "count",
    "cli.s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "count",
    "trace.unattributed_s": "s",
}


class Tracer:
    """Frame stack, per-name self time and call counts, and kept spans."""

    def __init__(self):
        self.request = None
        self.stack = []  # [span id, name, start, child time]
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._next_id = 0

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def wrap(self, name, fn, after=None):
        hot = name in HOT
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self.self_s[name] += dur - frame[3]
                self.calls[name] += 1
                if stack:
                    stack[-1][3] += dur
                if not hot:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((frame[0], name, frame[2], end, parent, self.request))
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")


def _rebind(pm_modules, original, replacement):
    for mod in pm_modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _after_assemble(tr, args, kwargs, out):
    tr.counts["model.sites_assembled"] += len(out.sites)


def _after_enumerate(tr, args, kwargs, out):
    tr.counts["polymers.enumerated"] += len(out)


def _after_series(tr, args, kwargs, out):
    tr.counts["series.clusters"] += out.n_clusters


def _after_free_energy_series(tr, args, kwargs, out):
    _after_series(tr, args, kwargs, out)
    if tr.parent_name() == "series.adaptive_free_energy_series":
        tr.counts["series.adaptive_rounds"] += 1


def _after_correlation(tr, args, kwargs, out):
    tr.counts["series.clusters"] += out.pinned_sum.n_clusters


def _after_expectation(tr, args, kwargs, out):
    tr.counts["series.families"] += out.n_families


def _after_fp(tr, args, kwargs, out):
    tr.counts["convergence.fp_iterations"] += out.iterations


def _after_kernel(tr, args, kwargs, out):
    tr.counts["ks.kernel_polymers"] += out.n_polymers


def _after_solve(tr, args, kwargs, out):
    tr.counts["ks.iterations"] += out.iterations
    tr.counts["ks.subsets"] += len(out.g)


def _after_hamiltonian_on(tr, args, kwargs, out):
    # A dense operator built directly under Oracle.z is a memo miss.
    if tr.parent_name() == "oracle.z":
        oracle = args[0]
        tr.counts["oracle.z_evals"] += 1
        tr.counts["oracle.dense_dim_sum"] += oracle.ham.q ** len(out[0])


AFTER = {
    "model.assemble_hamiltonian": _after_assemble,
    "polymers.enumerate_polymers": _after_enumerate,
    "series.free_energy_series": _after_free_energy_series,
    "series.site_pinned_series": _after_series,
    "series.correlation_series": _after_correlation,
    "series.expectation_series": _after_expectation,
    "convergence.fp_iterate": _after_fp,
    "ks.build_ks_kernel": _after_kernel,
    "ks.ks_solve": _after_solve,
    "oracle.hamiltonian_on": _after_hamiltonian_on,
}


def install(tracer: Tracer):
    """Wrap every boundary in `FUNCTIONS`, the Oracle methods and its eigensolvers."""
    import numpy as np

    import polymerion.cli  # noqa: F401  (loads the module so it can be wrapped)

    mods = [m for key, m in sorted(sys.modules.items())
            if key == "polymerion" or key.startswith("polymerion.")]
    for name, modname, attr in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        _rebind(mods, original, tracer.wrap(name, original, after=AFTER.get(name)))

    oracle_cls = sys.modules["polymerion.oracle"].Oracle
    for meth in ORACLE_METHODS:
        name = f"oracle.{meth}"
        setattr(oracle_cls, meth, tracer.wrap(name, getattr(oracle_cls, meth), after=AFTER.get(name)))

    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.eigh = tracer.wrap("oracle.eigh", np.linalg.eigh)
    linalg.eigvalsh = tracer.wrap("oracle.eigvalsh", np.linalg.eigvalsh)
    np_view = types.ModuleType("numpy")
    np_view.__dict__.update(np.__dict__)
    np_view.linalg = linalg
    sys.modules["polymerion.oracle"].np = np_view


def layer_metrics(tracer: Tracer, cache_entries: int, cache_growth: int,
                  cli_rows: int, cli_bytes: int, wall_s: float) -> dict:
    """The per-layer metric values of one traced cold pass of `wall_s` seconds."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts
    z_calls = c["oracle.z"]
    u_calls = c["ursell.ursell"]
    attributed = sum(tracer.layer_self_s(layer) for layer in LAYERS)
    out = {
        "model.assemble_calls": c["model.assemble_hamiltonian"],
        "model.assemble_s": s["model.assemble_hamiltonian"],
        "model.sites_assembled": n["model.sites_assembled"],
        "polymers.enumerate_calls": c["polymers.enumerate_polymers"],
        "polymers.enumerated": n["polymers.enumerated"],
        "polymers.enumerate_s": s["polymers.enumerate_polymers"],
        "polymers.incompat_s": s["polymers.incompatibility_graph"],
        "oracle.z_calls": z_calls,
        "oracle.z_evals": n["oracle.z_evals"],
        "oracle.z_hit_ratio": 1.0 - n["oracle.z_evals"] / z_calls if z_calls else 0.0,
        "oracle.eigh_calls": c["oracle.eigh"] + c["oracle.eigvalsh"],
        "oracle.dense_dim_sum": n["oracle.dense_dim_sum"],
        "oracle.rho_calls": c["oracle.rho"],
        "oracle.s": tracer.layer_self_s("oracle"),
        "ursell.calls": u_calls,
        "ursell.cache_hit_ratio": 1.0 - cache_growth / u_calls if u_calls else 0.0,
        "ursell.cache_entries": cache_entries,
        "ursell.expand_calls": c["ursell.expand_multiset"],
        "ursell.s": tracer.layer_self_s("ursell"),
        "series.calls": sum(v for k, v in c.items() if k.startswith("series.")),
        "series.clusters": n["series.clusters"],
        "series.adaptive_rounds": n["series.adaptive_rounds"],
        "series.families": n["series.families"],
        "series.s": tracer.layer_self_s("series"),
        "convergence.scan_calls": c["convergence.beta_radius"],
        "convergence.criterion_evals": c["convergence.gk_criterion"],
        "convergence.anchored_s": s["convergence.anchored_polymer_sum"],
        "convergence.fp_iterations": n["convergence.fp_iterations"],
        "convergence.s": tracer.layer_self_s("convergence"),
        "ks.kernel_calls": c["ks.build_ks_kernel"],
        "ks.kernel_polymers": n["ks.kernel_polymers"],
        "ks.kernel_s": s["ks.build_ks_kernel"],
        "ks.solve_s": s["ks.ks_solve"],
        "ks.iterations": n["ks.iterations"],
        "ks.subsets": n["ks.subsets"],
        "cli.invocations": c["cli.main"],
        "cli.s": s["cli.main"],
        "cli.rows_out": cli_rows,
        "cli.bytes_out": cli_bytes,
        "trace.unattributed_s": wall_s - attributed,
    }
    assert set(out) == set(METRICS)
    return out

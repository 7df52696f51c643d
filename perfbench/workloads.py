"""Seeded inputs, requests and output checks of the three workloads.

A workload is a list of `Request`s built from the seed. `call(tag)` is the
timed work; it uses only polymerion's public functions, looked up on the
package when the call runs, so traced wrappers are seen. `check(output)` is
run after the timed passes and returns None when the output is correct, or
the reason it is not. Checks use the dense `Oracle`, closed forms and stored
references, never series code, whose process-wide Ursell cache would
otherwise be warmed by the check.
"""

from __future__ import annotations

import cmath
import csv
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import polymerion as pm

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


@dataclass
class Request:
    name: str
    call: Callable[[str], object]
    check: Callable[[object], str | None]


def failure(request: Request, outcome) -> str | None:
    """Why one request failed, or None. `outcome` is (ok, output or error text)."""
    ok, value = outcome
    if not ok:
        return f"raised {value}"
    try:
        return request.check(value)
    except Exception as exc:  # a check that cannot read the output is a failed request
        return f"check raised {type(exc).__name__}: {exc}"


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _rel(got, want) -> float:
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# verify: random finite volumes against the oracle


# Every term is scaled so that |beta| * ||Phi_X|| == ACTIVITY[kind], and a
# volume is kept only if the adaptive series stops at order ADAPTIVE_ORDER
# with a factor ORDER_MARGIN to spare on both sides. Criterion 3 of the
# acceptance suite keeps every draw, so its truncation lands on order 6, 8 or
# 10 by chance; order 10 on the 6-bond product volume costs 11-50 s, and a
# run's cost would follow the draw instead of the code. Random Hermitian
# terms have smaller activities than tables of the same norm, hence the
# larger quantum scale; with these, about half of all draws are kept.
ACTIVITY = {"classical": 0.02, "quantum": 0.025}
TOL = 1e-12
ADAPTIVE_ORDER = 8
ORDER_MARGIN = 10.0
MAX_DRAWS = 200


def _interleave(a: list, b: list) -> list:
    """a[0], b[0], a[1], b[1], ..., then the rest of the longer list."""
    n = min(len(a), len(b))
    return [x for pair in zip(a, b) for x in pair] + a[n:] + b[n:]


# Request lists are built in three latency classes: cheap requests below the
# median, a main class of like requests that holds both the median (index
# n/2) and the tail (index n - 11), and heavier requests above it. Reordering
# by timing noise then moves p50 and the tail within one class, not across a
# class boundary.

# (style, kind, q, sites, with fields); fixed so cost does not depend on the
# seed, which draws couplings, beta, observables and probed subsets, and the
# kind of the one product volume (None below). At order 8 the product volume
# walks 46 045 clusters, 20-50x a chain or ring, so one is kept.
VERIFY_BELOW = [  # chains of 3-4 sites, 7-70 ms
    ("free", "classical", 2, 3, False), ("free", "quantum", 2, 3, False),
    ("free", "classical", 3, 3, False), ("free", "quantum", 2, 4, False),
    ("free", "classical", 2, 4, False), ("free", "classical", 3, 4, False),
    ("free", "quantum", 2, 4, False), ("free", "classical", 2, 3, True),
    ("free", "quantum", 2, 3, True), ("free", "classical", 3, 3, True),
]
VERIFY_MAIN = [  # rings of 4 sites, 90-140 ms
    ("periodic", "classical", 2, 4, False), ("periodic", "quantum", 2, 4, False),
    ("periodic", "classical", 3, 4, False),
] * 5
VERIFY_ABOVE = [  # 0.2-3 s
    ("product", None, 2, 5, False),
    ("periodic", "classical", 2, 5, False), ("periodic", "quantum", 2, 5, False),
    ("free", "classical", 2, 4, True), ("free", "quantum", 2, 4, True),
]
# The product volume goes first: it fills most of the Ursell cache, so the
# cold-cache penalty lands on a request that is in the top class anyway.
VERIFY_SLOTS = VERIFY_ABOVE[:1] + _interleave(VERIFY_MAIN, VERIFY_BELOW + VERIFY_ABOVE[1:])


def _term(rng, q, kind, nsites, scale):
    if kind == "classical":
        t = 2.0 * rng.random((q,) * nsites) - 1.0
        return scale * t / np.max(np.abs(t))
    d = q**nsites
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (m + m.conj().T) / 2.0
    return m * (scale / float(np.linalg.norm(m, 2)))


def _beta(rng) -> complex:
    mag = float(rng.uniform(0.05, 0.5))
    if rng.random() < 0.5:
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        return mag * complex(np.cos(phase), np.sin(phase))
    return complex(mag) if rng.random() < 0.5 else complex(-mag)


def _volume(rng, style, kind, q, n, fields):
    beta = _beta(rng)
    scale = ACTIVITY[kind] / abs(beta)
    if style == "free":
        terms = [(((i,), (i + 1,)), _term(rng, q, kind, 2, scale)) for i in range(n - 1)]
        if fields:
            terms += [(((i,),), _term(rng, q, kind, 1, scale)) for i in range(0, n, 2)]
        inter = pm.Interaction.from_terms(q=q, kind=kind, terms=terms)
        ham = pm.assemble_hamiltonian(inter, pm.Region.from_sites((i,) for i in range(n)))
    elif style == "product":
        # Pairs, a triple and a field on a 5-site cluster; the region drops
        # (2, 0), so the bond reaching it is contracted against the product state.
        a, b, c, d, e = (0, 0), (1, 0), (0, 1), (1, 1), (2, 0)
        shape = [((a, b), 2), ((a, c), 2), ((b, d), 2), ((b, e), 2), ((a, b, d), 3), ((c,), 1)]
        inter = pm.Interaction.from_terms(
            q=q, kind=kind, terms=[(s, _term(rng, q, kind, k, scale)) for s, k in shape])
        ham = pm.assemble_hamiltonian(inter, pm.Region.from_sites([a, b, c, d]), boundary="product")
    else:
        model = pm.LatticeModel.from_templates(
            dimension=1, q=q, kind=kind, templates=[(((0,), (1,)), _term(rng, q, kind, 2, scale))])
        ham = pm.assemble_hamiltonian(model, pm.Region.box([n]), boundary="periodic")
    return ham, beta


def _observable(rng, ham, nsites):
    sites = sorted(ham.sites)
    if nsites == 2:
        pick = [sites[0], sites[1]]
    else:
        pick = [sites[int(rng.integers(0, len(sites)))]]
    if ham.kind == "classical":
        data = 2.0 * rng.random((ham.q,) * len(pick)) - 1.0
    else:
        data = _term(rng, ham.q, "quantum", len(pick), 1.0)
    return pm.Observable.make(pick, data)


def log_xi_orders(ham, beta, order: int) -> list[complex]:
    """[t^k] log Xi(t) for k <= order, from oracle activities only.

    Xi(t) = sum over bond subsets S of t^|S| times the product of rho_C over
    the connected components C of S. Its logarithm's coefficients are the
    cluster series by total bond order, so this predicts where the adaptive
    series stops without running series code.
    """
    orc = pm.Oracle(ham, beta)
    supports = [frozenset(b) for b in ham.bonds]
    m = len(supports)
    rho = {}
    xi = [0j] * (order + 1)
    xi[0] = 1.0
    for size in range(1, min(order, m) + 1):
        for ids in itertools.combinations(range(m), size):
            left, term = set(ids), 1.0
            while left:
                todo = [left.pop()]
                comp = set(todo)
                while todo:
                    i = todo.pop()
                    linked = {j for j in left if supports[i] & supports[j]}
                    left -= linked
                    comp |= linked
                    todo.extend(linked)
                key = tuple(sorted(comp))
                if key not in rho:
                    rho[key] = orc.rho(key)
                term *= rho[key]
            xi[size] += term
    log = [0j] * (order + 1)
    for k in range(1, order + 1):
        log[k] = xi[k] - sum(j * log[j] * xi[k - j] for j in range(1, k)) / k
    return log


def _stops_cleanly(ham, beta) -> bool:
    """Does adaptive_free_energy_series(tol=TOL) stop at ADAPTIVE_ORDER, with margin?

    The adaptive series tries orders 4, 6, 8, ... and stops when the last
    two order sums fall below TOL times max(1, |log Z|).
    """
    log = log_xi_orders(ham, beta, ADAPTIVE_ORDER)
    for k in range(4, ADAPTIVE_ORDER + 1, 2):
        scale = max(1.0, abs(sum(log[: k + 1])))
        tail = max(abs(log[k - 1]), abs(log[k])) / scale
        if k < ADAPTIVE_ORDER and not tail > ORDER_MARGIN * TOL:
            return False
    return tail < TOL / ORDER_MARGIN


def _verify_request(index, slot, ham, beta, obs, subsets) -> Request:
    def call(tag):
        z = pm.Oracle(ham, beta).z()
        s = pm.adaptive_free_energy_series(ham, beta, tol=TOL)
        e = pm.expectation_series(ham, beta, obs).value
        sol = pm.ks_solve(ham, beta, tol=1e-12)
        return {"z": z, "log_z": s.value, "expectation": e,
                "g": {sub: sol.value(sub) for sub in subsets}}

    def check(out):
        orc = pm.Oracle(ham, beta)
        z = orc.z()
        if out["z"] != z:
            return f"oracle Z {out['z']!r} differs from a fresh oracle's {z!r}"
        err = abs(cmath.exp(out["log_z"]) - z) / abs(z)
        if not err < 1e-10:
            return f"relative Z error {err:.1e}"
        err = _rel(out["expectation"], orc.expectation(obs))
        if not err < 1e-10:
            return f"expectation error {err:.1e}"
        for sub, got in out["g"].items():
            err = abs(got - orc.reduced_correlation(sub))
            if not err < 1e-8:
                return f"g{sorted(sub)} error {err:.1e}"
        return None

    style, kind, q, n, _ = slot
    return Request(f"verify/{index:02d}-{style}-{kind}-q{q}-{len(ham.sites)}", call, check)


def build_verify(seed: int, workdir: str) -> list[Request]:
    rng = np.random.default_rng(seed)
    out = []
    for index, slot in enumerate(VERIFY_SLOTS):
        if slot[1] is None:
            slot = (slot[0], ("classical", "quantum")[int(rng.integers(2))]) + slot[2:]
        for _ in range(MAX_DRAWS):
            ham, beta = _volume(rng, *slot)
            if _stops_cleanly(ham, beta):
                break
        else:
            raise RuntimeError(f"no draw of {slot} stops cleanly at order {ADAPTIVE_ORDER}")
        obs = _observable(rng, ham, 1 + index % 2)
        subsets = [frozenset([s]) for s in ham.sites]
        pairs = list(itertools.combinations(ham.sites, 2))
        for j in rng.choice(len(pairs), size=3, replace=False):
            subsets.append(frozenset(pairs[int(j)]))
        out.append(_verify_request(index, slot, ham, beta, obs, subsets))
    return out


# ---------------------------------------------------------------------------
# lattice: radius scans, closed forms and free-energy densities


def _window(lo: float, points: int, per_decade: int) -> tuple[float, float, int]:
    """(lo, hi, per_decade) whose geometric grid has exactly `points` points."""
    return lo, lo * 10 ** ((points - 1.5) / per_decade), per_decade


def _windows(threshold: float, points: int, per_decades):
    """Every window of `points` grid points whose first point is 1..points-2
    grid steps below `threshold`, for each grid density: each one holds
    certified and uncertified points."""
    return [_window(threshold * 10 ** (-k / pd), points, pd)
            for pd in per_decades for k in range(1, points - 1)]


TREE_GRIDS = (64, 80, 96)
FP_GRIDS = (32, 40, 48)

# source id -> how to build it (done during set-up)
SOURCES = {
    "ising-d2": lambda: pm.ising_model(2),
    "heisenberg-d2": lambda: pm.heisenberg_model(2),
    "xy-d2": lambda: pm.xy_model(2),
    "ising-3x3-free": lambda: pm.assemble_hamiltonian(pm.ising_model(2), pm.Region.box([3, 3])),
    "heisenberg-2x3-free": lambda: pm.assemble_hamiltonian(
        pm.heisenberg_model(2), pm.Region.box([2, 3])),
    "ising-chain-5": lambda: pm.assemble_hamiltonian(pm.ising_model(1), pm.Region.box([5])),
    "ising-chain-6": lambda: pm.assemble_hamiltonian(pm.ising_model(1), pm.Region.box([6])),
    "ising-chain-8": lambda: pm.assemble_hamiltonian(pm.ising_model(1), pm.Region.box([8])),
}

# Certified thresholds (to 1e-4), measured by bisection on the criterion.
THRESHOLDS = {
    "ising-d2": 0.0286, "heisenberg-d2": 0.00954, "xy-d2": 0.0143,
    "ising-3x3-free": 0.0312, "heisenberg-2x3-free": 0.01348,
    "ising-chain-5": 0.1796, "ising-chain-6": 0.1642, "ising-chain-8": 0.1501,
}
FP = {"max_bonds": 4}


def _scan(source, criterion, points, kw=None):
    grids = TREE_GRIDS if criterion == "tree" else FP_GRIDS
    return (source, criterion, _windows(THRESHOLDS[source], points, grids), kw or {})


# One slot per request; the seed picks one window of each slot, all of equal
# length. Latency classes as for verify: with the closed forms and densities,
# 8 requests below the main class of 12 four-point tree scans on lattice
# models (0.1-0.25 s), and 6 above it.
SCANS_BELOW = [_scan("ising-3x3-free", "tree", 8), _scan("heisenberg-2x3-free", "tree", 8)]
SCANS_MAIN = [_scan(s, "tree", 4) for s in ("ising-d2", "heisenberg-d2", "xy-d2")] * 4
SCANS_ABOVE = [
    _scan("ising-d2", "tree", 8), _scan("heisenberg-d2", "tree", 8), _scan("xy-d2", "tree", 8),
    _scan("ising-chain-5", "fp", 12, FP), _scan("ising-chain-6", "fp", 8, FP),
    _scan("ising-chain-8", "fp", 4, FP),
]
SCAN_SLOTS = SCANS_BELOW + SCANS_MAIN + SCANS_ABOVE

# Closed forms: (id, function of the built sources).
CLOSED = [
    ("nn-d2", lambda src: pm.nn_radius(2).beta_star),
    ("park-d2", lambda src: pm.park_compare(2).sup_y),
    ("universal-ising-d2", lambda src: pm.universal_radius(src["ising-d2"]).beta_star),
]

# d = 2 densities come from stored references, so beta is drawn from this list.
DENSITY_D2_BETAS = (0.03, 0.04, 0.05, 0.06, 0.07)
DENSITY_D2_ORDER = 3
DENSITY_D2_COUNT = 2
# d = 1 densities: beta is drawn freely, the reference is log cosh beta.
DENSITY_D1_ORDER = 6


def scan_id(source, criterion, window, kw) -> str:
    lo, hi, per_decade = window
    extra = "".join(f" {k}={v}" for k, v in sorted(kw.items()))
    return f"{criterion} {source} lo={lo!r} hi={hi!r} per_decade={per_decade}{extra}"


def density_d2_id(beta: float) -> str:
    return f"density ising-d2 beta={beta!r} order={DENSITY_D2_ORDER}"


def _scan_request(name, source, criterion, window, kw, ref) -> Request:
    lo, hi, per_decade = window

    def call(tag):
        return pm.beta_radius(source, criterion, lo=lo, hi=hi, per_decade=per_decade, **kw)

    def check(scan):
        flags = [ok for _, ok in scan.points]
        if any(flags[i + 1] and not flags[i] for i in range(len(flags) - 1)):
            return "certified points do not form a prefix"
        if len(flags) != ref["points"] or sum(flags) != ref["certified"]:
            return f"{sum(flags)} of {len(flags)} certified, expected {ref['certified']} of {ref['points']}"
        if scan.beta_radius != ref["radius"]:
            return f"radius {scan.beta_radius!r} != stored {ref['radius']!r}"
        return None

    return Request(name, call, check)


def _closed_request(name, fn, sources, ref) -> Request:
    def check(value):
        if not math.isclose(value, ref, rel_tol=1e-12):
            return f"{value!r} != stored {ref!r}"
        return None

    return Request(name, lambda tag: fn(sources), check)


def _density_request(name, model, beta, order, want, tol) -> Request:
    def call(tag):
        return pm.free_energy_density(model, beta, order).value

    def check(value):
        if not abs(value - want) <= tol:
            return f"density {value!r} off reference {want!r} by {abs(value - want):.1e}"
        return None

    return Request(name, call, check)


def lattice_catalog(sources):
    """Every scan variant and closed form the workload can draw, as (id, thunk)."""
    seen = set()
    for source, criterion, windows, kw in SCAN_SLOTS:
        for window in windows:
            sid = scan_id(source, criterion, window, kw)
            if sid in seen:
                continue
            seen.add(sid)
            lo, hi, pd = window
            yield sid, (
                lambda s=source, c=criterion, lo=lo, hi=hi, pd=pd, kw=kw:
                pm.beta_radius(sources[s], c, lo=lo, hi=hi, per_decade=pd, **kw))
    for cid, fn in CLOSED:
        yield cid, (lambda fn=fn: fn(sources))
    for beta in DENSITY_D2_BETAS:
        yield density_d2_id(beta), (
            lambda b=beta: pm.free_energy_density(sources["ising-d2"], b, DENSITY_D2_ORDER).value)


def build_sources():
    return {key: make() for key, make in SOURCES.items()}


def build_lattice(seed: int, workdir: str) -> list[Request]:
    rng = np.random.default_rng(seed)
    refs = load_references()
    sources = build_sources()
    scans = []
    for i, (source, criterion, windows, kw) in enumerate(SCAN_SLOTS):
        window = windows[int(rng.integers(len(windows)))]
        sid = scan_id(source, criterion, window, kw)
        scans.append(_scan_request(f"lattice/{i:02d}-{criterion}-{source}", sources[source],
                                   criterion, window, kw, refs["scans"][sid]))
    below = [_closed_request(f"lattice/{cid}", fn, sources, refs["closed"][cid])
             for cid, fn in CLOSED]
    beta = float(rng.uniform(0.05, 0.2))
    below.append(_density_request(f"lattice/density-d1-K{DENSITY_D1_ORDER}", pm.ising_model(1),
                                  beta, DENSITY_D1_ORDER, math.log(math.cosh(beta)), 1e-8))
    for beta in rng.choice(DENSITY_D2_BETAS, size=DENSITY_D2_COUNT, replace=False):
        beta = float(beta)
        below.append(_density_request(
            f"lattice/density-d2-K{DENSITY_D2_ORDER}", sources["ising-d2"], beta,
            DENSITY_D2_ORDER, refs["densities"][density_d2_id(beta)], 1e-13))
    n_below, n_main = len(SCANS_BELOW), len(SCANS_MAIN)
    below += scans[:n_below]
    main = scans[n_below:n_below + n_main]
    above = scans[n_below + n_main:]
    return _interleave(main, below + above)


# ---------------------------------------------------------------------------
# cli: polymerion sessions through cli.main in this process


def _scalar(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _cfg_beta(b: complex):
    return [b.real, b.imag] if b.imag else b.real


def _matrix(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def read_rows(path: str) -> tuple[dict, list[dict]]:
    """(meta, rows) of a JSON or CSV result file written by the CLI."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        return doc.get("meta", {}), doc["rows"]
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            body.append(line)
    rows = []
    for r in csv.DictReader(body):
        row = {}
        for k, v in r.items():
            if k.endswith("_re"):
                row[k[:-3]] = complex(float(v), float(r[k[:-3] + "_im"]))
            elif not k.endswith("_im"):
                row[k] = v
        rows.append(row)
    return meta, rows


def emitted(path: str) -> tuple[int, int]:
    """(rows, bytes) of a CLI result file."""
    return len(read_rows(path)[1]), os.path.getsize(path)


def _box_ham(cfg):
    sec = cfg["model"]
    builders = {
        "ising": lambda: pm.ising_model(sec["dimension"]),
        "heisenberg": lambda: pm.heisenberg_model(sec["dimension"]),
        "xy": lambda: pm.xy_model(sec["dimension"]),
        "potts": lambda: pm.potts_model(sec.get("q", 3), sec["dimension"]),
    }
    region = cfg["region"]
    return pm.assemble_hamiltonian(builders[sec["preset"]](), pm.Region.box(region["extent"]),
                                   boundary=region.get("boundary", "free"))


def _site_key(label: str) -> frozenset:
    return frozenset(tuple(int(c) for c in s.split(",")) for s in label.split(";"))


def _check_ks(cfg, rows, meta, reference):
    if meta.get("converged") not in (True, "True"):
        return "hierarchy did not converge"
    want, tol = reference()
    if len(rows) != len(want):
        return f"{len(rows)} rows, expected {len(want)}"
    for row in rows:
        err = abs(_scalar(row["g"]) - want[_site_key(row["sites"])])
        if not err <= tol:
            return f"g[{row['sites']}] off by {err:.1e}"
    return None


def _ks_reference(cfg):
    """(g by subset, tolerance): the oracle for exact kernels, the library
    solve at the same cut for truncated ones."""
    ham = _box_ham(cfg)
    beta = _scalar(cfg["beta"])
    subsets = [frozenset(c) for r in (1, 2) for c in itertools.combinations(ham.sites, r)]
    mpb = cfg.get("ks", {}).get("max_polymer_bonds")
    if mpb is None:
        orc = pm.Oracle(ham, beta)
        return {x: orc.reduced_correlation(x) for x in subsets}, 1e-8
    sol = pm.ks_solve(ham, beta, max_polymer_bonds=mpb)
    return {x: sol.g[x] for x in subsets}, 1e-12


def _check_exact(cfg, rows, meta, reference):
    want = reference()
    if len(rows) != len(want):
        return f"{len(rows)} rows, expected {len(want)}"
    for row, ref in zip(rows, want):
        for key, value in ref.items():
            err = _rel(_scalar(row[key]), value)
            if not err <= 1e-12:
                return f"{key} at beta {row['beta']} off by {err:.1e}"
    return None


def _exact_reference(cfg, obs):
    ham = _box_ham(cfg)
    b = cfg["beta"]
    corr = [tuple(s) for s in cfg["correlation"]["sites"]]
    out = []
    for beta in np.linspace(b["start"], b["stop"], b["points"]):
        orc = pm.Oracle(ham, complex(beta))
        z = orc.z()
        out.append({"z": z, "log_z": cmath.log(z), "expectation": orc.expectation(obs),
                    "correlation": orc.reduced_correlation(corr)})
    return out


def _check_series(cfg, rows, meta, reference):
    # Order 6 on the 2x3 patch: the omitted orders are below 1e-9 for
    # |beta| <= 0.05, so 1e-8 separates truncation from a wrong sum.
    want = reference()
    if len(rows) != len(cfg["series"]["sweep"]):
        return f"{len(rows)} rows, expected {len(cfg['series']['sweep'])}"
    for row in rows:
        err = abs(_scalar(row["log_z"]) - want)
        if not err <= 1e-8:
            return f"log Z at order {row['truncation']} off by {err:.1e}"
    return None


def _series_reference(cfg):
    return cmath.log(pm.Oracle(_box_ham(cfg), _scalar(cfg["beta"])).z())


def _check_stored(cfg, rows, meta, reference):
    want = reference()
    if len(rows) != len(want):
        return f"{len(rows)} rows, expected {len(want)}"
    for row, ref in zip(rows, want):
        for key, value in ref.items():
            got = row[key]
            missing = got in (None, "")  # JSON null, empty CSV cell
            if (value is None) != missing or (
                    value is not None and not math.isclose(float(got), value, rel_tol=1e-12)):
                return f"{key} is {got!r}, stored {value!r}"
    return None


def _session(name, command, cfg, fmt, workdir, check_rows, reference) -> Request:
    cfg_path = os.path.join(workdir, f"{name}.config.json")
    if cfg is not None:
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
    ref = functools.cache(reference)  # computed once for the cold and warm checks

    def call(tag):
        path = os.path.join(workdir, f"{name}.{tag}.{fmt}")
        argv = [command] + (["--config", cfg_path] if cfg is not None else [])
        code = pm.cli.main(argv + ["--output", path])
        return code, path

    def check(out):
        code, path = out
        if code != 0:
            return f"exit code {code}"
        meta, rows = read_rows(path)
        return check_rows(cfg, rows, meta, ref)

    return Request(f"cli/{name}", call, check)


def _model(preset, d):
    m = {"preset": preset, "dimension": d}
    if preset == "potts":
        m["q"] = 3
    return m


def _ks_session(rng, name, preset, d, extent, boundary, beta_range, cplx, fmt, workdir,
                cut=None):
    lo, hi = beta_range
    beta = complex(rng.uniform(lo, hi), rng.uniform(-lo, lo) if cplx else 0.0)
    cfg = {"model": _model(preset, d), "region": {"extent": extent, "boundary": boundary},
           "beta": _cfg_beta(beta)}
    if cut is not None:
        cfg["ks"] = {"max_polymer_bonds": cut}
    return _session(name, "ks", cfg, fmt, workdir, _check_ks, lambda: _ks_reference(cfg))


def _exact_session(rng, name, preset, d, extent, boundary, sites, data, corr, points, workdir):
    start = float(rng.uniform(0.05, 0.2))
    cfg = {"model": _model(preset, d), "region": {"extent": extent, "boundary": boundary},
           "beta": {"start": start, "stop": 2 * start, "points": points},
           "observable": {"sites": sites, "data": _matrix(data) if data.ndim == 2
                          else [[float(v), 0.0] for v in data]},
           "correlation": {"sites": corr}}
    obs = pm.Observable.make([tuple(s) for s in sites], data)
    return _session(name, "exact", cfg, "csv" if points > 2 else "json", workdir,
                    _check_exact, lambda: _exact_reference(cfg, obs))


def build_cli(seed: int, workdir: str) -> list[Request]:
    import polymerion.cli  # noqa: F401  (bound as pm.cli for the sessions)

    rng = np.random.default_rng(seed)
    refs = load_references()["cli"]
    pauli_z = np.diag([1.0, -1.0])
    zz = np.kron(pauli_z, pauli_z) + np.diag([0.0, 0.5, -0.5, 0.0])

    # Latency classes as for verify. Beta ranges are narrow where the number
    # of hierarchy iterations, and so the cost, grows with beta.
    # Below: sessions under 60 ms.
    below = [_session(f"table1-{fmt}", "table1", None, fmt, workdir, _check_stored,
                      lambda: refs["table1"]) for fmt in ("csv", "json")]
    for d in (2, 3):
        cfg = {"park": {"dimension": d}}
        below.append(_session(f"park-d{d}", "park", cfg, "json", workdir, _check_stored,
                              lambda d=d: refs[f"park-d{d}"]))
    for i, fmt in enumerate(("json", "csv")):
        below.append(_ks_session(rng, f"ks-potts3-2x3-{i}", "potts", 2, [2, 3], "free",
                                 (0.03, 0.08), False, fmt, workdir))
        below.append(_ks_session(rng, f"ks-ising-ring6-{i}", "ising", 1, [6], "periodic",
                                 (0.05, 0.15), True, fmt, workdir))
    below.append(_ks_session(rng, "ks-xy-ring6", "xy", 1, [6], "periodic", (0.02, 0.06), True,
                             "json", workdir))
    below.append(_exact_session(rng, "exact-ising-3x4", "ising", 2, [3, 4], "free", [[1, 1]],
                                np.array([1.0, -1.0]), [[0, 0], [2, 3]], 4, workdir))
    # Main: exact-kernel hierarchy solves on the 2x3 Heisenberg patch, 70-100 ms.
    main = [_ks_session(rng, f"ks-heisenberg-2x3-{i}", "heisenberg", 2, [2, 3], "free",
                        (0.015, 0.025), i % 2 == 1, ("json", "csv")[i % 2], workdir)
            for i in range(12)]
    # Above: 0.13-1 s.
    above = [
        _ks_session(rng, "ks-ising-2x4", "ising", 2, [2, 4], "free", (0.04, 0.06), False,
                    "json", workdir),
        _ks_session(rng, "ks-ising-3x4-cut4", "ising", 2, [3, 4], "free", (0.035, 0.045), False,
                    "json", workdir, cut=4),
        _ks_session(rng, "ks-ising-3x4-cut5", "ising", 2, [3, 4], "free", (0.035, 0.045), False,
                    "csv", workdir, cut=5),
        _exact_session(rng, "exact-heisenberg-3x3", "heisenberg", 2, [3, 3], "free",
                       [[0, 0], [0, 1]], zz, [[1, 1]], 1, workdir),
        _exact_session(rng, "exact-heisenberg-ring8", "heisenberg", 1, [8], "periodic",
                       [[0], [1]], zz, [[3]], 2, workdir),
        _exact_session(rng, "exact-xy-ring8", "xy", 1, [8], "periodic", [[2]], pauli_z,
                       [[0], [4]], 2, workdir),
    ]
    cfg = {"model": _model("ising", 2), "region": {"extent": [2, 3]},
           "beta": float(rng.uniform(0.02, 0.05)), "series": {"sweep": [6]}}
    above.append(_session("series-ising-2x3", "series", cfg, "json", workdir, _check_series,
                          lambda: _series_reference(cfg)))
    return _interleave(main, below + above)


BUILDERS = {"verify": build_verify, "lattice": build_lattice, "cli": build_cli}

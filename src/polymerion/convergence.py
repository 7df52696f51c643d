"""Convergence criteria with explicit numeric radii.

Four roads to a certificate, all sharing one currency: a per-bond weight
W(X) = e^{|beta| ||Phi(X)||} - 1 dominating every polymer activity
factor, and bookkeeping functions zeta(X) > 0.

- The tree criterion, in four nested forms, certifies that the anchored
  weighted polymer sum T_a = sup_x sum_{polymers B, x in supp B}
  prod_{X in B} W(X) e^{a|X|} stays below e^a - 1, with
  e^a = 1 + sup_x sum_{X ni x} zeta(X).
- The fixed-point criterion iterates mu -> lambda * phi(mu) on pinned
  compatible families; convergence from below identifies the maximal
  fixed point, and any mu with lambda * phi(mu) <= mu is a certificate.
- The nearest-neighbor closed form specializes the tree criterion to
  two-site bonds on Z^d and maximizes over a scalar zeta.
- The universal radius uses zeta(X) proportional to e^{-kappa |X|} and
  certifies any interaction with finite alpha-norm.

A comparison scan against an older quantum-criterion root equation
(`park_compare`) and geometric-grid radius scans round the module out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Hamiltonian, Interaction, LatticeModel, operator_norm
from .numeric import _cast, _unbounded, bisect_root, geometric_grid, golden_max
from .polymers import (
    _overlap_masks,
    _site_masks,
    bond_weights,
    enumerate_polymers,
    incompatibility_graph,
)
from .ursell import _bits

__all__ = [
    "alpha_norm",
    "TreeReport",
    "CriterionReport",
    "tree_bound",
    "gk_criterion",
    "anchored_polymer_sum",
    "FPResult",
    "FPReport",
    "fp_phi",
    "fp_iterate",
    "fp_criterion",
    "NNRadius",
    "nn_radius",
    "UniversalRadius",
    "universal_radius",
    "ParkRow",
    "ParkScan",
    "park_compare",
    "park_table_value",
    "RadiusScan",
    "beta_radius",
]

TREE_FORMS = ("direct", "bracketed", "per_site_product", "exponential")
_NO_BONDS = "the volume has no bonds: there is no expansion to certify"


# ---------------------------------------------------------------------------
# bond structure shared by the tree forms


class _Structure:
    """Per-bond-class sizes, norms, and overlap counts.

    For a finite Hamiltonian every bond is its own class. For a
    translation-invariant model the classes are the templates, with
    exact per-site and neighborhood counts.
    """

    def __init__(self, sizes, norms, neighbor_counts, site_counts):
        self.sizes = list(sizes)
        self.norms = list(norms)
        # neighbor_counts[i] = list of (class j, multiplicity) over bonds
        # overlapping a representative of class i, excluding itself
        self.neighbor_counts = neighbor_counts
        # site_counts = list of dicts {class: multiplicity} per sampled site
        self.site_counts = site_counts

    def site_sum(self, zetas) -> float:
        return max(
            (sum(zetas[i] * c for i, c in counts.items()) for counts in self.site_counts),
            default=0.0,
        )

    def alpha_norm(self, alpha: float) -> float:
        """The site sum of ||Phi(X)|| e^{alpha |X|}; past the float range it
        raises NumericalError."""
        weights = [w * _unbounded(math.exp, alpha * k) for k, w in zip(self.sizes, self.norms)]
        m = self.site_sum(weights)
        if not all(map(math.isfinite, weights + [m])):
            raise NumericalError(f"the alpha-norm at alpha = {alpha} is past the float range")
        return float(m)

    def site_product(self, zetas) -> float:
        best = 1.0
        for counts in self.site_counts:
            p = 1.0
            for i, c in counts.items():
                p *= (1.0 + zetas[i]) ** c
            best = max(best, p)
        return best

    def neighbor_product(self, idx: int, zetas) -> float:
        p = 1.0
        for j, c in self.neighbor_counts[idx]:
            p *= (1.0 + zetas[j]) ** c
        return p


def _finite_structure(bonds, norms) -> _Structure:
    # Every bond is its own class, so every multiplicity is 1.
    neighbor_counts = [[(j, 1) for j in _bits(mask)] for mask in _overlap_masks(bonds)]
    at = _site_masks(bonds)
    site_counts = [{i: 1 for i in _bits(at[s])} for s in sorted(at)]
    return _Structure([len(b) for b in bonds], norms, neighbor_counts, site_counts)


def _lattice_structure(model: LatticeModel) -> _Structure:
    sizes = [len(off) for off, _ in model.templates]
    norms = [operator_norm(data) for off, data in model.templates]
    origin = (0,) * model.dimension
    neighbor_counts = []
    for t, (off, _) in enumerate(model.templates):
        row = []
        for t2, (off2, _) in enumerate(model.templates):
            # The translate of template t2 anchored at a meets template t
            # at the origin when a = x - y for some x in t and y in t2.
            anchors = {tuple(c - o for c, o in zip(x, y)) for x in off for y in off2}
            if t2 == t:
                anchors.discard(origin)
            if anchors:
                row.append((t2, len(anchors)))
        neighbor_counts.append(row)
    # every site is equivalent: template t covers a site in len(off) ways
    site_counts = [{t: len(off) for t, (off, _) in enumerate(model.templates)}]
    return _Structure(sizes, norms, neighbor_counts, site_counts)


def _structure_of(source) -> _Structure:
    if isinstance(source, LatticeModel):
        return _lattice_structure(source)
    if isinstance(source, Hamiltonian):
        return _finite_structure(source.bonds, source.norms)
    if isinstance(source, Interaction):
        bonds = source.bonds()
        return _finite_structure(bonds, [source.norm(b) for b in bonds])
    raise ConfigError(f"no bond structure for {type(source).__name__}")


def alpha_norm(source, alpha: float = 0.0) -> float:
    """sup over sites x of sum over bonds X containing x of ||Phi(X)|| e^{alpha |X|}.

    For a LatticeModel the supremum is exact by translation invariance:
    each template of m sites is counted m times per site. A norm past the
    float range raises NumericalError.
    """
    return _structure_of(source).alpha_norm(_cast(alpha, "alpha", float))


def _resolve_zeta(zeta, structure: _Structure) -> list[float]:
    if zeta is None:
        raise ConfigError("zeta must be resolved before this point")
    if np.isscalar(zeta):
        return [_cast(zeta, "zeta", float)] * len(structure.sizes)
    if callable(zeta):
        return [_cast(zeta(s, w), "zeta", float) for s, w in zip(structure.sizes, structure.norms)]
    out = [_cast(z, "zeta", float) for z in zeta]
    if len(out) != len(structure.sizes):
        raise ConfigError("zeta sequence length does not match bond classes")
    return out


# ---------------------------------------------------------------------------
# tree criterion


@dataclass(frozen=True)
class TreeReport:
    """Result of one tree-form check at fixed weights and zeta."""

    holds: bool
    form: str
    a: float
    e_a: float
    site_sum: float
    margins: tuple[float, ...]
    zeta: tuple[float, ...]


def _margins(w, structure: _Structure, zetas, form: str) -> tuple[list[float], float]:
    """zeta - lhs(form) per bond class at weights `w`, and the site sum;
    each form computes only the products it reads."""
    s = structure.site_sum(zetas)
    sizes, n = structure.sizes, range(len(w))
    if form == "direct":
        lhs = [w[i] * structure.neighbor_product(i, zetas) for i in n]
    elif form == "bracketed":
        lhs = [w[i] * (1.0 + s) ** sizes[i] * structure.neighbor_product(i, zetas) for i in n]
    elif form == "per_site_product":
        q = structure.site_product(zetas)
        lhs = [w[i] * q ** (2 * sizes[i]) for i in n]
    elif form == "exponential":
        lhs = [w[i] * math.exp(2 * sizes[i] * s) for i in n]
    else:
        raise ConfigError(f"unknown tree form {form!r}; choose one of {TREE_FORMS}")
    return [zetas[i] - lhs[i] for i in n], s


def tree_bound(weights, structure_source, zeta, form: str = "bracketed") -> TreeReport:
    """Check one tree form: per bond class, lhs(form) <= zeta.

    `weights` is a per-class sequence of polymer weight factors, each a
    finite number or inf; an infinite weight fails its margin. The
    certificate, when it holds for the bracketed or a stronger form,
    bounds the anchored weighted polymer sum by site_sum = e^a - 1.
    """
    structure = (
        structure_source
        if isinstance(structure_source, _Structure)
        else _structure_of(structure_source)
    )
    zetas = _resolve_zeta(zeta, structure)
    # An infinite weight (W(X) past the float range) certifies nothing.
    w = [math.inf if x == math.inf else _cast(x, "weights", float) for x in weights]
    if len(w) != len(structure.sizes):
        raise ConfigError("weights length does not match bond classes")
    margins, s = _margins(w, structure, zetas, form)
    holds = all(m >= 0.0 for m in margins) and bool(w)
    return TreeReport(
        holds=holds,
        form=form,
        a=math.log1p(s),
        e_a=1.0 + s,
        site_sum=s,
        margins=tuple(margins),
        zeta=tuple(zetas),
    )


def _default_scalar_zeta(weights, structure: _Structure, form: str) -> float:
    """Scalar zeta maximizing the worst margin, by one golden-section search.

    At a scalar zeta each margin is zeta - w_i f_i(zeta), with f_i a
    product of powers (1 + zeta)^n and (1 + S zeta)^n (n >= 0, S the
    largest per-site count) or exp(c zeta) with c >= 0: convex and
    increasing. So every margin is concave, and so is their minimum.
    """

    def worst(z: float) -> float:
        return min(_margins(weights, structure, [z] * len(structure.sizes), form)[0])

    return float(golden_max(worst, 1e-6, 2.0, tol=1e-13)[0])


@dataclass(frozen=True)
class CriterionReport:
    """Convergence certificate for an interaction at one inverse temperature."""

    holds: bool
    beta: complex
    form: str
    a: float
    e_a: float
    site_sum: float
    tree: TreeReport
    anchored_lower: float
    anchored_truncation: int
    guarantees: dict

    def ratio_bound(self, n_sites: int) -> float:
        """Certified bound on |Z without a bond family| / |Z| by support size."""
        return self.e_a**n_sites


def _zeta_for_a(structure: _Structure, a: float) -> float:
    """Scalar zeta whose per-site sum meets e^a - 1 exactly."""
    return math.expm1(a) / structure.site_sum([1] * len(structure.sizes))


def _tree_structure(source, form: str) -> _Structure:
    """The bond structure of `source`, refusing what `gk_criterion` and tree
    scans both refuse: an unknown form, a source with no anchored sum, and a
    volume with no bonds."""
    if form not in TREE_FORMS:
        raise ConfigError(f"unknown tree form {form!r}; choose one of {TREE_FORMS}")
    if isinstance(source, Interaction):
        raise ConfigError("anchored sums need a Hamiltonian or a LatticeModel")
    structure = _structure_of(source)
    if not structure.sizes:
        raise ConfigError(_NO_BONDS)
    return structure


def _tree_certificate(
    structure: _Structure, beta: complex, a=None, zeta=None, form: str = "bracketed"
) -> TreeReport:
    """The tree form at weights W(X) = e^{|beta| ||Phi(X)||} - 1, zeta resolved
    as `gk_criterion` documents."""
    weights = bond_weights(structure.norms, beta)
    if zeta is None:
        if a is not None:
            zeta = _zeta_for_a(structure, _cast(a, "a", float))
        else:
            zeta = _default_scalar_zeta(weights, structure, form)
    return tree_bound(weights, structure, zeta, form=form)


def gk_criterion(
    source,
    beta: complex,
    a: float | None = None,
    zeta=None,
    form: str = "bracketed",
    anchored_truncation: int = 4,
) -> CriterionReport:
    """Tree-majorant certificate at inverse temperature beta.

    Weights are W(X) = e^{|beta| ||Phi(X)||} - 1 per bond class. The
    anchored weighted polymer sum T_a is evaluated two ways: enumerated
    up to `anchored_truncation` bonds (a lower bound, diagnostic only)
    and through the chosen tree form (an upper bound); only the upper
    bound certifies, by capping T_a at e^a - 1.

    With `a` given, the scalar zeta is fixed so the per-site zeta sum
    meets e^a - 1; with `zeta` given, a follows from it; with neither,
    a scalar zeta maximizing the worst margin is searched. A weight past
    the float range is inf: its margin is -inf, the report does not hold,
    and the anchored lower bound is inf.
    """
    tree = _tree_certificate(_tree_structure(source, form), beta, a, zeta, form)
    anchored = anchored_polymer_sum(source, beta, tree.a, anchored_truncation)
    guarantees = {}
    if tree.holds and form != "direct":
        guarantees = {
            "anchored_polymer_sum": tree.site_sum,
            "pinned_cluster_majorant": tree.site_sum,
            "log_ratio_per_site": tree.a,
        }
    return CriterionReport(
        holds=tree.holds,
        beta=complex(beta),
        form=form,
        a=tree.a,
        e_a=tree.e_a,
        site_sum=tree.site_sum,
        tree=tree,
        anchored_lower=anchored,
        anchored_truncation=anchored_truncation,
        guarantees=guarantees,
    )


def anchored_polymer_sum(source, beta: complex, a: float, truncation: int) -> float:
    """sup_x sum over polymers through x of prod W(X) e^{a|X|}, enumerated.

    A lower bound on the anchored sum the tree criterion caps (it is cut
    at `truncation` bonds per polymer), monotone in the truncation. A
    negative truncation is refused.
    """
    a = _cast(a, "a", float)
    truncation = _cast(truncation, "anchored_truncation", int, least=0)
    if isinstance(source, LatticeModel):
        ham = source.window(truncation)
        anchor = (0,) * source.dimension
        polymers = enumerate_polymers(ham, truncation, anchor=anchor)
        per_site = {anchor: 0.0}
    elif isinstance(source, Hamiltonian):
        ham = source
        polymers = enumerate_polymers(ham, truncation)
        per_site = {s: 0.0 for s in ham.sites}
    else:
        raise ConfigError("anchored sums need a Hamiltonian or a LatticeModel")
    weights = bond_weights(ham.norms, beta)
    for p in polymers:
        w = 1.0
        for i in p.bonds:
            w *= weights[i] * math.exp(a * len(ham.bonds[i]))
        for s in p.support:
            if s in per_site:
                per_site[s] += w
    return max(per_site.values(), default=0.0)


# ---------------------------------------------------------------------------
# fixed-point criterion on pinned compatible families


@dataclass(frozen=True)
class FPResult:
    """Outcome of the fixed-point iteration mu -> lam * phi(mu).

    `chain` records the sup norm of every iterate; started from zero it
    is nondecreasing (monotone approach from below), started from a
    certificate it is nonincreasing.
    """

    converged: bool
    diverged: bool
    mu: tuple[float, ...]
    iterations: int
    chain: tuple[float, ...]


@dataclass(frozen=True)
class FPReport:
    holds: bool
    margins: tuple[float, ...]
    phi: tuple[float, ...]


def _split(avail: int) -> tuple[int, int]:
    """The lowest id of a candidate mask, and the mask without it."""
    low = avail & -avail
    return low.bit_length() - 1, avail ^ low


class _FPDag:
    """The recursion behind every phi_B0, recorded once as flat arrays.

    phi_B0 sums prod mu over the compatible subsets of B0's candidates (B0
    and the polymers overlapping it). Over a candidate mask `avail` of
    global polymer ids it splits on the lowest id c:
    g(avail) = g(rest) + mu_c g(rest minus the polymers overlapping c).
    The masks and their edges depend only on the incompatibility graph, so
    they are compiled once, and polymers share the masks they reach. Node 0
    is the empty mask (value 1). Nodes are grouped by popcount and `phi`
    evaluates a level with one numpy multiply and one add,
    fl(g_a + fl(mu_c g_b)), in the recursion's rounding; the callers let
    it overflow to inf (and 0 * inf give NaN) quietly, as Python floats
    do in the recursion. `ids` picks the
    polymers whose phi is compiled and returned, in that order (all of
    them by default).
    """

    def __init__(self, adjacency, ids=None):
        self.m = len(adjacency)
        self.ids = range(self.m) if ids is None else ids
        roots = [adjacency[i] | (1 << i) for i in self.ids]
        states = {0}
        for root in roots:
            if root.bit_count() > 24:
                raise NumericalError("fixed-point sum over more than 2^24 families refused")
            stack = [root]
            while stack:
                avail = stack.pop()
                if avail not in states:
                    states.add(avail)
                    c, rest = _split(avail)
                    stack += (rest, rest & ~adjacency[c])
        order = sorted(states, key=lambda avail: (avail.bit_count(), avail))
        node = {avail: n for n, avail in enumerate(order)}
        self.size = len(order)
        self.roots = np.array([node[root] for root in roots], dtype=np.intp)
        self.levels = []
        start = 1
        for _, level in itertools.groupby(order[1:], int.bit_count):
            edges = []
            for avail in level:
                c, rest = _split(avail)
                edges.append((node[rest], node[rest & ~adjacency[c]], c))
            a, b, c = (np.array(col, dtype=np.intp) for col in zip(*edges))
            self.levels.append((start, start + len(edges), a, b, c))
            start += len(edges)

    def phi(self, mu: np.ndarray) -> np.ndarray:
        """phi_B0(mu) for each compiled polymer B0; past the float range it
        is inf, as in the recursion, and `fp_iterate` reports that as
        divergence."""
        val = np.empty(self.size)
        val[0] = 1.0
        for start, stop, a, b, c in self.levels:
            val[start:stop] = val[a] + mu[c] * val[b]
        return val[self.roots]


def _fp_dag(polymers, adjacency, ids=None) -> _FPDag:
    """`adjacency` as the fp entry points take it (None, the incompatibility
    masks of `polymers`, or their `_FPDag`), compiled; masks are compiled
    for `ids` only."""
    if adjacency is None:
        adjacency = incompatibility_graph(polymers)
    dag = adjacency if isinstance(adjacency, _FPDag) else _FPDag(adjacency, ids)
    if dag.m != len(polymers):
        raise ConfigError(f"adjacency has {dag.m} polymers, the list {len(polymers)}")
    return dag


def _fp_vector(values, m: int, name: str, nonnegative: bool = False) -> np.ndarray:
    """One finite float per polymer, as an array; anything else is refused."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a sequence of numbers") from exc
    if out.shape != (m,):
        raise ConfigError(f"{name} needs one value per polymer ({m}), got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ConfigError(f"{name} must be finite")
    if nonnegative and (out < 0).any():
        raise ConfigError(f"{name} bounds an activity and cannot be negative")
    return out


def fp_phi(polymers, index: int, mu, adjacency=None) -> float:
    """phi_B0(mu): sum over compatible families, every member overlapping B0.

    The family may contain B0 itself; the empty family contributes 1.
    `adjacency` is the incompatibility masks of `polymers` (built when
    omitted), of which only B0's recursion is compiled, or the compiled
    recursion of all of them; it is evaluated as `fp_iterate` does. An
    index outside the list, or a `mu` that is not one finite number per
    polymer, raises `ConfigError`; a neighbourhood of B0 with more than 24
    candidates raises `NumericalError`.
    """
    m = len(polymers)
    if not 0 <= (index := _cast(index, "index", int)) < m:
        raise ConfigError(f"polymer index {index} is not in range({m})")
    dag = _fp_dag(polymers, adjacency, ids=[index])
    mu = _fp_vector(mu, dag.m, "mu")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(dag.phi(mu)[dag.ids.index(index)])


def fp_iterate(
    polymers,
    lam,
    mu0=None,
    tol: float = 1e-14,
    max_iter: int = 10000,
    divergence: float = 1e9,
    adjacency=None,
) -> FPResult:
    """Iterate mu -> lam * phi(mu).

    Started from zero the iterates increase toward the minimal fixed
    point when one exists; crossing the divergence cap flags that none
    does. Starting from a certificate mu the iterates decrease.

    The recursion behind phi depends only on the incompatibility graph:
    it is compiled once into numpy index arrays (or passed compiled as
    `adjacency`) and each iterate evaluates every phi_B0 level by level,
    bit for bit as the memoized recursion does. `lam` (nonnegative) and
    `mu0` need one finite number per polymer, else `ConfigError`. An empty
    polymer list is a converged fixed point after no iterations. An
    iterate holding a NaN (an infinite phi times a zero lam) diverged;
    `chain` records the largest of its entries that are numbers.
    """
    tol, divergence = _cast(tol, "tol", float, least=0), _cast(divergence, "divergence", float)
    max_iter = _cast(max_iter, "max_iter", int, least=0)
    dag = _fp_dag(polymers, adjacency)
    lam = _fp_vector(lam, dag.m, "lam", nonnegative=True)
    mu = np.zeros(dag.m) if mu0 is None else _fp_vector(mu0, dag.m, "mu0")
    chain = [max(mu.tolist(), default=0.0)]

    def result(converged: bool, diverged: bool, iterations: int) -> FPResult:
        return FPResult(
            converged=converged, diverged=diverged, mu=tuple(mu.tolist()),
            iterations=iterations, chain=tuple(chain),
        )

    if dag.m == 0:
        return result(True, False, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            nxt = lam * dag.phi(mu)
            delta = float(np.abs(nxt - mu).max())
            mu = nxt
            top = float(np.fmax.reduce(mu))
            chain.append(top)
            if top > divergence or np.isnan(mu).any():
                return result(False, True, it)
            if delta <= tol * (1.0 + top):
                return result(True, False, it)
    return result(False, False, max_iter)


def fp_criterion(polymers, lam, mu, adjacency=None) -> FPReport:
    """Does lam * phi(mu) <= mu hold componentwise? Arguments as for
    `fp_iterate`."""
    dag = _fp_dag(polymers, adjacency)
    lam = _fp_vector(lam, dag.m, "lam", nonnegative=True)
    mu = _fp_vector(mu, dag.m, "mu")
    with np.errstate(over="ignore", invalid="ignore"):
        phis = dag.phi(mu)
        margins = mu - lam * phis
    return FPReport(
        holds=bool((margins >= 0).all()),
        margins=tuple(margins.tolist()),
        phi=tuple(phis.tolist()),
    )


# ---------------------------------------------------------------------------
# nearest-neighbor closed form


@dataclass(frozen=True)
class NNRadius:
    """Best scalar-zeta certificate for two-site bonds on Z^d.

    `bound` caps W = e^{|beta| ||Phi|| } - 1 per bond; for unit-norm
    bonds the certified inverse-temperature radius is log(1 + bound).
    """

    dimension: int
    zeta: float
    bound: float
    beta_star: float
    quadratic_zeta: float


def _nn_log_objective(d: int):
    # The raw power (1+z)^{4d-2} over- or underflows a double for large d
    # well inside the search interval; the log form stays well scaled and
    # keeps the search strictly unimodal.
    def lg(z: float) -> float:
        return math.log(z) - 2.0 * math.log1p(2 * d * z) - (4 * d - 2) * math.log1p(z)

    return lg


def nn_radius(dimension: int) -> NNRadius:
    """Maximize zeta / ((1+2 d zeta)^2 (1+zeta)^{4d-2}) over zeta > 0.

    The stationarity condition is the quadratic
    (8 d^2 - 2 d) z^2 + (6 d - 3) z - 1 = 0, solved independently as a
    cross-check on the golden-section maximizer.
    """
    d = _cast(dimension, "dimension", int, least=1)
    lg = _nn_log_objective(d)
    z, _ = golden_max(lg, 1e-9, 1.0, tol=1e-14)
    # Golden section localizes the argument only to ~sqrt(eps) at a flat
    # maximum; polish with Newton on the stationarity condition
    # 1/z - 4d/(1+2dz) - (4d-2)/(1+z) = 0.
    z = float(z)
    for _ in range(8):
        h = 1.0 / z - 4 * d / (1.0 + 2 * d * z) - (4 * d - 2) / (1.0 + z)
        hp = (
            -1.0 / (z * z)
            + 8 * d * d / (1.0 + 2 * d * z) ** 2
            + (4 * d - 2) / (1.0 + z) ** 2
        )
        step = h / hp
        z -= step
        if abs(step) <= 1e-15 * z:
            break
    best = math.exp(lg(z))
    aa = 8 * d * d - 2 * d
    bb = 6 * d - 3
    zq = (-bb + math.sqrt(bb * bb + 4 * aa)) / (2 * aa)
    return NNRadius(
        dimension=d,
        zeta=float(z),
        bound=float(best),
        beta_star=math.log1p(best),
        quadratic_zeta=float(zq),
    )


# ---------------------------------------------------------------------------
# universal exponential-weight radius


@dataclass(frozen=True)
class UniversalRadius:
    """Radius from zeta(X) = amplitude * e^{-kappa |X|} bookkeeping weights."""

    alpha: float
    gamma: float
    kappa: float
    c_kappa: float
    m_alpha: float
    amplitude: float
    t_star: float
    beta_star: float
    a: float


def universal_radius(source, alpha: float = 1.0, gamma: float = 0.5) -> UniversalRadius:
    """Certified radius for any interaction with finite alpha-norm.

    Solves t e^t = amplitude for t = beta * m_alpha by bisection, where
    amplitude = (1-gamma) alpha / (2 C_kappa) and m_alpha is the
    alpha-weighted interaction norm.
    """
    alpha, gamma = _cast(alpha, "alpha", float), _cast(gamma, "gamma", float)
    if not 0 < gamma < 1:
        raise ConfigError("gamma must lie strictly between 0 and 1")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    kappa = (1.0 - gamma) * alpha
    structure = _structure_of(source)
    c = structure.site_sum([math.exp(-kappa * size) for size in structure.sizes])
    m = structure.alpha_norm(alpha)
    if m <= 0 or c <= 0:
        raise NumericalError("degenerate interaction: empty norms")
    amplitude = kappa / (2.0 * c)
    t_star = bisect_root(lambda t: t * math.exp(t) - amplitude, 0.0, amplitude, tol=1e-14)
    return UniversalRadius(
        alpha=alpha,
        gamma=gamma,
        kappa=kappa,
        c_kappa=c,
        m_alpha=m,
        amplitude=amplitude,
        t_star=t_star,
        beta_star=t_star / m,
        a=math.log1p(kappa / 2.0),
    )


# ---------------------------------------------------------------------------
# comparison against the older quantum root equation


@dataclass(frozen=True)
class ParkRow:
    alpha: float
    y_star: float | None
    beta_star: float | None


@dataclass(frozen=True)
class ParkScan:
    dimension: int
    rows: tuple[ParkRow, ...]
    sup_y: float
    sup_alpha: float


def park_table_value(dimension: int) -> float:
    """Closed-form radius 0.03/d (1 + 0.03/d) used in the comparison table."""
    x = 0.03 / _cast(dimension, "dimension", int, least=1)
    return x * (1.0 + x)


def park_compare(dimension: int, alphas=None) -> ParkScan:
    """Root scan of the comparison criterion over the free parameter alpha.

    The root equation, in y = 2 d beta, reads
        e^alpha y e^y = (e^{alpha/4 - y} - 1)(e^{alpha/4} - e^y)
    on 0 < y < alpha/8. Rows without a bracketed root keep None.
    """
    d = _cast(dimension, "dimension", int, least=1)
    if alphas is None:
        alphas = geometric_grid(0.1, 20.0, per_decade=28)
    rows = []
    sup_y = 0.0
    sup_alpha = math.nan
    for alpha in alphas:
        alpha = _cast(alpha, "alpha", float)
        hi = alpha / 8.0

        def f(y: float, _a=alpha) -> float:
            return math.exp(_a) * y * math.exp(y) - (
                math.expm1(_a / 4.0 - y) * (math.exp(_a / 4.0) - math.exp(y))
            )

        ys = np.linspace(hi * 1e-9, hi * (1 - 1e-9), 257)
        root = None
        prev_y, prev_f = ys[0], f(ys[0])
        for y in ys[1:]:
            fy = f(y)
            if (prev_f < 0) != (fy < 0):
                root = bisect_root(f, prev_y, y, tol=1e-12)
                break
            prev_y, prev_f = y, fy
        if root is None:
            rows.append(ParkRow(alpha=alpha, y_star=None, beta_star=None))
        else:
            rows.append(
                ParkRow(alpha=alpha, y_star=float(root), beta_star=float(root) / (2 * d))
            )
            if root > sup_y:
                sup_y = float(root)
                sup_alpha = alpha
    return ParkScan(dimension=d, rows=tuple(rows), sup_y=sup_y, sup_alpha=sup_alpha)


# ---------------------------------------------------------------------------
# radius scans


@dataclass(frozen=True)
class RadiusScan:
    criterion: str
    points: tuple[tuple[float, bool], ...]
    beta_radius: float | None


def _tree_scan(source, a=None, zeta=None, form="bracketed", anchored_truncation=4):
    """`gk_criterion(source, beta, ...).holds` as a function of beta; refuses
    the keywords and sources `gk_criterion` refuses."""
    structure = _tree_structure(source, form)
    return lambda beta: _tree_certificate(structure, beta, a, zeta, form).holds


def _fp_scan(source, max_bonds=4):
    """Does the fixed-point iteration on the complex-temperature polymer
    bounds converge at beta? The polymers and their graph are built once."""
    if not isinstance(source, Hamiltonian):
        raise ConfigError("the fixed-point scan needs a finite Hamiltonian")
    max_bonds = _cast(max_bonds, "max_bonds", int, least=1)
    if not source.bonds:
        raise ConfigError(_NO_BONDS)
    polymers = enumerate_polymers(source, max_bonds)
    dag = _FPDag(incompatibility_graph(polymers))

    def certifies(beta):
        weights = bond_weights(source.norms, beta)
        lam = [math.prod(weights[i] for i in p.bonds) for p in polymers]
        if not all(map(math.isfinite, lam)):
            return False  # an infinite activity bound certifies nothing
        return fp_iterate(polymers, lam, adjacency=dag, max_iter=2000).converged

    return certifies


def beta_radius(
    source,
    criterion: str = "tree",
    lo: float = 1e-4,
    hi: float = 2.0,
    per_decade: int = 64,
    **kw,
) -> RadiusScan:
    """Largest inverse temperature on a geometric grid that still certifies.

    criterion: "tree" (gk_criterion), "fp" (fixed-point
    iteration on the complex-temperature polymer bounds; finite systems
    only), or "universal" (closed form; the grid is then only sampled
    for reporting).

    A tree scan takes `gk_criterion`'s keywords and flags each point with
    its `.holds`, but evaluates only the tree certificate: the bond
    structure is built once per scan, and the anchored lower bound, a
    diagnostic that never decides `.holds`, is left to `gk_criterion`.
    An fp scan takes `max_bonds` (default 4, an integer of at least 1),
    the largest polymer it iterates on, and refuses any other keyword; it
    compiles the recursion behind phi once per scan, and a point whose
    activity bounds overflow a float is not certified. Both scans refuse a
    volume with no bonds.
    """
    grid = geometric_grid(lo, hi, per_decade)
    if criterion == "tree":
        certifies = _tree_scan(source, **kw)
    elif criterion == "fp":
        certifies = _fp_scan(source, **kw)
    elif criterion == "universal":
        rad = universal_radius(source, **kw).beta_star
        certifies = lambda b: bool(b <= rad)
    else:
        raise ConfigError(f"unknown radius criterion {criterion!r}")
    points = [(float(b), certifies(b)) for b in grid]
    radius = None
    for b, ok in points:
        if ok:
            radius = b
        else:
            break
    return RadiusScan(criterion=criterion, points=tuple(points), beta_radius=radius)

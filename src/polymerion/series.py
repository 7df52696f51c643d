"""Cluster series: free energies, reduced correlations, local expectations.

A cluster is a multiset of polymers whose incompatibility graph (supports
overlap; a polymer always overlaps itself) is connected. Its weight is

    omega(G) * prod_B rho_B^{m_B} / prod_B m_B!

with omega the Ursell function of the multiset graph. Series are
truncated by total bond count: a cluster with multiplicities m_B of
polymers of |B| bonds has order sum m_B |B|, and `max_total_bonds` keeps
every cluster of order up to the cut.

A compatible polymer family is the set of connected components of a
bond subset, so the polymer partition function is a polynomial in a
bond-count variable,

    Xi(t) = sum over bond subsets S of t^|S| prod_{components C of S} rho_C,

and the clusters of order k sum to [t^k] log Xi(t) (Scott and Sokal,
J. Stat. Phys. 118, 2005). Most series are truncated power series of
Xi over the families of at most `max_total_bonds` bonds, with Xi_A
over the polymers that miss the site set A: `free_energy_series` is
log Xi; `correlation_series` is log Xi - log Xi_X0 (clusters meeting
X0); `free_energy_by_site` gives site x the share log Xi_{s < x} -
log Xi_{s <= x} (clusters whose smallest site is x); `pinned_series`
is Xi_pin / Xi = d log Xi / d rho_pin (clusters rooted at the pin).

`expectation_series` sums the local-expectation identity
<A> = sum_B K(A, B) g(X0 union supp B) over the bond families B whose
every component meets X0 = supp A by site set V = X0 union supp B,
grown from X0 one bond at a time (`_expectation_site_sets`), on both
kinds of volume. Splitting the A-weighted trace T_V over the bonds
inside V at the components that meet X0 gives
T_V = sum_{X0 <= W <= V} Kt(A, W) Z_{V minus W}, with Kt(A, W) the sum of
K(A, B) over the families of site set W and Z_U the Z of the bonds
inside U. Solved rooted at X0 by `oracle._rooted_sums`, as the exact
hierarchy kernel is, that is one trace per site set.

`site_pinned_series` walks the clusters through one site instead:
connected subsets of the distinct-polymer graph (a multiset is
connected exactly when its set of distinct polymers is), then
multiplicities within the order budget, each weighted by the Ursell
function of its multiset graph. It is the independent reference for
the routes above, and the route of `free_energy_density`: pinned at the
origin of a window without the bonds below it, it walks the clusters
whose smallest site is the origin, one per translation class.

The log Xi routes weigh no cluster, and they count none until
`n_clusters` is read: a result holds its kept polymers, their
incompatibility masks and the cut, and walks the connected sets with
`_count_clusters` on the first read only.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from operator import itemgetter

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Hamiltonian, LatticeModel, Site, _check_hamiltonian
from .numeric import _array, _cast
from .oracle import Observable, Oracle, _check_observable, _finite, _rooted_sums
from .polymers import (
    Polymer,
    _connected_families,
    _induced,
    _pin_mask,
    _pinned_families,
    _size_histogram,
    enumerate_polymers,
    incompatibility_graph,
)
from .ursell import _bits, expand_multiset, ursell

__all__ = [
    "TruncatedSeries",
    "CorrelationSeries",
    "ExpectationResult",
    "free_energy_series",
    "adaptive_free_energy_series",
    "free_energy_by_site",
    "pinned_series",
    "site_pinned_series",
    "correlation_series",
    "expectation_series",
    "free_energy_density",
]

MAX_EXPECTATION_SITE_SETS = 1_000_000


@dataclass(frozen=True)
class TruncatedSeries:
    """A cluster series cut at a total bond order.

    by_order[k] is the sum of all cluster weights of order k, so value ==
    sum(by_order). `converged` is set by the adaptive driver when the
    last increments fell below its tolerance, and is None otherwise.

    `n_clusters` is the number of clusters the sum stands for, counted
    on first read, once per result. `_count` is the zero-argument
    callable that counts them; it holds the kept polymers, their masks
    and the cut, never the oracle or the activities, and takes no part
    in ==.
    """

    value: complex
    by_order: tuple[complex, ...]
    truncation: int
    _count: Callable[[], int] = field(compare=False, repr=False)
    converged: bool | None = None

    @cached_property
    def n_clusters(self) -> int:
        return self._count()


def _activities(polymers, rho) -> Callable[[int], complex]:
    """value(i) = rho(bonds of polymer i), with `rho` a cached `Oracle.rho`."""
    return lambda i: rho(polymers[i].bonds)


def _extra_multiplicities(sizes: list[int], slack: int):
    """All vectors of extra copies (>= 0) with sum extra_i * size_i <= slack."""
    k = len(sizes)
    extra = [0] * k

    def rec(i: int, left: int):
        if i == k:
            yield tuple(extra)
            return
        e = 0
        while e * sizes[i] <= left:
            extra[i] = e
            yield from rec(i + 1, left - e * sizes[i])
            e += 1
        extra[i] = 0

    yield from rec(0, slack)


def _prepare(ham: Hamiltonian, beta: complex, max_total: int, weights):
    """(the checked truncation, the polymers, value(i): their activities)."""
    _check_hamiltonian(ham)
    max_total = _cast(max_total, "max_total_bonds", int, least=0)
    if weights is not None:
        rho = _array([w.rho for w in weights], "weights").tolist()
        return max_total, [w.polymer for w in weights], rho.__getitem__
    polymers = list(enumerate_polymers(ham, max_total))
    return max_total, polymers, _activities(polymers, cache(Oracle(ham, beta).rho))


def _series(by_order, truncation: int, count: Callable[[], int], converged=None) -> TruncatedSeries:
    return TruncatedSeries(
        value=_finite("the series value", sum, by_order),
        by_order=tuple(by_order),
        truncation=truncation,
        _count=count,
        converged=converged,
    )


def _family_sums(sizes, values, adjacency, max_total: int) -> list[complex]:
    """xi[k]: activity products summed over compatible families of k bonds.

    Families are independent sets of the incompatibility graph, walked in
    increasing polymer index. Polymers must come sorted by size, so that a
    branch stops at the first one that overflows the order budget.
    """
    xi = [0j] * (max_total + 1)

    def rec(cand: int, total: int, prod: complex):
        xi[total] += prod
        room = max_total - total
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            if sizes[j] > room:
                return
            cand ^= low
            rec(cand & ~adjacency[j], total + sizes[j], prod * values[j])

    rec((1 << len(sizes)) - 1, 0, 1 + 0j)
    return xi


def _families(polymers, value, max_total: int, avoid=frozenset()):
    """Xi(t) up to t^max_total over the polymers whose support misses `avoid`.

    Returns (xi, kept polymers, their incompatibility masks); the kept
    polymers are those that fit the budget, sorted by size.
    """
    keep = [
        i
        for i, p in enumerate(polymers)
        if len(p.bonds) <= max_total and avoid.isdisjoint(p.support)
    ]
    keep.sort(key=lambda i: len(polymers[i].bonds))
    kept = [polymers[i] for i in keep]
    adjacency = incompatibility_graph(kept)
    sizes = [len(p.bonds) for p in kept]
    xi = _family_sums(sizes, [value(i) for i in keep], adjacency, max_total)
    return xi, kept, adjacency


def _log_series(xi: list[complex]) -> list[complex]:
    """Coefficients of log(xi(t)) for a power series with xi[0] == 1."""
    out = [0j] * len(xi)
    for k in range(1, len(xi)):
        acc = sum(j * out[j] * xi[k - j] for j in range(1, k))
        out[k] = xi[k] - acc / k
    return out


def _divide_series(num: list[complex], den: list[complex]) -> list[complex]:
    """Coefficients of num(t) / den(t) for power series with den[0] == 1."""
    out = [0j] * len(num)
    for k in range(len(num)):
        out[k] = num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1))
    return out


def _count_clusters(polymers, adjacency, max_total: int, pin: int | None = None) -> int:
    """Number of clusters of order <= max_total, without weighing them.

    A connected multiset graph has a nonzero Ursell function, so every
    multiplicity vector of a connected polymer set that fits the budget
    is one cluster of the series. With a `pin` mask the sets are rooted
    at an external vertex meeting those polymers (the empty set counts
    once), and the pin itself takes no multiplicity.

    The sets are tallied by the packed size key the walk carries. The
    number of multiplicity vectors depends only on that histogram of
    sizes, so it is computed once per distinct key.
    """
    sizes = [len(p.bonds) for p in polymers]
    if pin is None:
        walk = _connected_families(adjacency, sizes, max_total, rooted=False)
    else:
        walk = _pinned_families(adjacency, pin, sizes, max_total)
    count = 0
    for key, sets in Counter(map(itemgetter(2), walk)).items():
        # held[s] polymers of s bonds; the pin, of size 0, takes no multiplicity.
        held = _size_histogram(key, max_total)
        slack = max_total - sum(s * n for s, n in enumerate(held))
        # ways[u]: the vectors of extra copies weighing exactly u bonds
        ways = [1] + [0] * slack
        for size in range(1, slack + 1):
            for _ in range(held[size]):
                for u in range(size, slack + 1):
                    ways[u] += ways[u - size]
        count += sets * sum(ways)
    return count


def _count_meeting(kept, adjacency, kept_away, adjacency_away, max_total: int) -> int:
    """Clusters meeting a site set: all of them less those of the polymers
    that avoid it."""
    return _count_clusters(kept, adjacency, max_total) - _count_clusters(
        kept_away, adjacency_away, max_total
    )


def free_energy_series(
    ham: Hamiltonian,
    beta: complex,
    max_total_bonds: int,
    weights=None,
) -> TruncatedSeries:
    """log Z as a cluster series, truncated by total bond count.

    by_order[k] is [t^k] log Xi(t), the sum of the cluster weights of
    order k, computed from the compatible families of at most
    `max_total_bonds` bonds by the power-series logarithm. With
    `weights` the activities come from that list, and a polymer missing
    from it has activity 0. n_clusters counts the clusters the sum
    stands for, on first read.

    The series is infinite even on a finite bond set (polymers repeat),
    so exponentiating the value approximates Z with an error set by the
    first omitted order; at small activities a modest truncation already
    reaches rounding level.
    """
    max_total_bonds, polymers, value = _prepare(ham, beta, max_total_bonds, weights)
    xi, kept, adjacency = _families(polymers, value, max_total_bonds)
    return _series(
        _log_series(xi),
        max_total_bonds,
        partial(_count_clusters, kept, adjacency, max_total_bonds),
    )


def adaptive_free_energy_series(
    ham: Hamiltonian,
    beta: complex,
    tol: float = 1e-13,
    start: int = 4,
    step: int = 2,
    cap: int = 14,
) -> TruncatedSeries:
    """Raise the truncation until the last two order increments are tiny.

    Every round enumerates its own polymers, and all rounds share one
    cached `Oracle.rho`, so no activity is computed twice.
    Clusters are counted only for the truncation that is returned, and
    only when its `n_clusters` is read.
    """
    tol = _cast(tol, "tol", float, least=0)
    cap = _cast(cap, "cap", int, least=0)
    k = min(_cast(start, "start", int, least=0), cap)
    step = _cast(step, "step", int, least=1)
    rho = cache(Oracle(ham, beta).rho)
    while True:
        polymers = list(enumerate_polymers(ham, k))
        xi, kept, adjacency = _families(polymers, _activities(polymers, rho), k)
        by_order = _log_series(xi)
        scale = max(1.0, abs(sum(by_order)))
        converged = all(abs(t) <= tol * scale for t in by_order[-2:])
        if converged or k >= cap:
            count = partial(_count_clusters, kept, adjacency, k)
            return _series(by_order, k, count, converged=converged)
        k = min(k + step, cap)


def free_energy_by_site(
    ham: Hamiltonian,
    beta: complex,
    max_total_bonds: int,
    weights=None,
) -> dict[Site, complex]:
    """Split the free-energy series by the smallest site of each cluster.

    The shares sum to the full series value, giving a volume-order
    decomposition log Z = sum over sites of h(x). The clusters whose
    smallest site is x are those that avoid every site below x but not
    x itself, so h(x) = log Xi_{V minus {s < x}} - log Xi_{V minus {s <= x}}.
    """
    max_total_bonds, polymers, value = _prepare(ham, beta, max_total_bonds, weights)
    ordered = sorted(ham.sites)
    logs = [
        _log_series(_families(polymers, value, max_total_bonds, frozenset(ordered[:n]))[0])
        for n in range(len(ordered) + 1)
    ]
    share = {
        x: sum(a - b for a, b in zip(logs[n], logs[n + 1])) for n, x in enumerate(ordered)
    }
    return {x: share[x] for x in ham.sites}


def pinned_series(
    ham: Hamiltonian,
    beta: complex,
    pin: Polymer,
    max_total_bonds: int,
    absolute: bool = False,
    weights=None,
) -> TruncatedSeries:
    """Clusters rooted at an external polymer vertex.

    Sums omega(G(pin, B_1 .. B_n)) prod rho^m / m! over multisets of
    polymers (the pin itself may repeat among them); the order-0 term is
    1. The sum is d log Xi / d rho_pin = Xi_pin(t) / Xi(t), with Xi_pin
    over the families compatible with the pin, divided as power series.
    With `absolute` the Ursell signs and activities are replaced by
    absolute values, giving the majorant used in convergence
    certificates. An Ursell function on n vertices has sign (-1)^(n-1),
    so that is the same ratio at activities -|rho|. The pin's support
    must be a nonempty set of sites of the volume.
    """
    support = _check_hamiltonian(ham).volume_sites(getattr(pin, "support", ()))
    if not support:
        raise ConfigError(f"the pin must be a polymer with a nonempty support, got {pin!r}")
    max_total_bonds, polymers, value = _prepare(ham, beta, max_total_bonds, weights)
    if absolute:
        value = [-abs(value(i)) for i in range(len(polymers))].__getitem__
    xi, kept, adjacency = _families(polymers, value, max_total_bonds)
    xi_pin = _families(polymers, value, max_total_bonds, support)[0]
    pin_adj = _pin_mask([p.support for p in kept], support)
    return _series(
        _divide_series(xi_pin, xi),
        max_total_bonds,
        partial(_count_clusters, kept, adjacency, max_total_bonds, pin=pin_adj),
    )


def site_pinned_series(
    ham: Hamiltonian,
    beta: complex,
    site,
    max_total_bonds: int,
    absolute: bool = False,
    weights=None,
) -> TruncatedSeries:
    """Clusters whose support contains one given site, by the cluster walk.

    The site acts as a selector only; Ursell weights are those of the
    clusters themselves. This is the one series that visits every
    cluster and calls the Ursell function on it: the reference the log
    Xi routes are tested against, and the route of `free_energy_density`.
    """
    sites = _check_hamiltonian(ham).volume_sites(site)
    if len(sites) != 1:
        raise ConfigError(f"site_pinned_series pins exactly one site, got {len(sites)}")
    max_total_bonds, polymers, value = _prepare(ham, beta, max_total_bonds, weights)
    sizes = [len(p.bonds) for p in polymers]
    supports = [p.support for p in polymers]
    adjacency = incompatibility_graph(polymers)
    # The walk is rooted at a pin vertex meeting the polymers that hold the site.
    pin = _pin_mask(supports, sites)
    by_order = [0j] * (max_total_bonds + 1)
    count = 0
    for mask, base, _ in _pinned_families(adjacency, pin, sizes, max_total_bonds):
        if not mask:
            continue
        ids = list(_bits(mask))
        local = _induced(adjacency, ids)
        id_sizes = [sizes[i] for i in ids]
        for extra in _extra_multiplicities(id_sizes, max_total_bonds - base):
            mult = [1 + e for e in extra]
            order = base + sum(e * s for e, s in zip(extra, id_sizes))
            # Never 0: the polymers meeting the site overlap pairwise, so a
            # pinned connected set is connected on its own.
            w = ursell(expand_multiset(local, mult))
            term = abs(w) if absolute else w
            try:
                for i, mm in zip(ids, mult):
                    v = value(i)
                    if absolute:
                        v = abs(v)
                    term *= v**mm / math.factorial(mm)
            except OverflowError:  # a Python power past the float range
                raise NumericalError("a cluster weight is not finite") from None
            by_order[order] += term
            count += 1
    return _series(by_order, max_total_bonds, partial(int, count))


@dataclass(frozen=True)
class CorrelationSeries:
    """Reduced correlation estimate g(X0) = exp(-pinned cluster sum)."""

    pinned_sum: TruncatedSeries
    value: complex


def correlation_series(
    ham: Hamiltonian,
    beta: complex,
    x0,
    max_total_bonds: int,
    weights=None,
) -> CorrelationSeries:
    """Series for g(X0), the ratio of the X0-depleted partition function to Z.

    Sums the clusters whose support meets X0 and exponentiates the
    negative: removing X0 removes exactly those clusters from log Z, so
    the sum is log Xi - log Xi_{no polymer meeting X0}, order by order.
    """
    x0 = _check_hamiltonian(ham).volume_sites(x0)
    max_total_bonds, polymers, value = _prepare(ham, beta, max_total_bonds, weights)
    full = _families(polymers, value, max_total_bonds)
    s = _meeting_series(polymers, value, max_total_bonds, x0, full)
    return CorrelationSeries(pinned_sum=s, value=_finite("the correlation", np.exp, -s.value))


def _meeting_series(polymers, value, max_total: int, x0, full) -> TruncatedSeries:
    """The clusters meeting the site set `x0`, log Xi - log Xi_X0 order by
    order, with `full` the whole-volume `_families` of the same polymers,
    which several site sets may share."""
    xi, kept, adjacency = full
    xi_away, kept_away, adjacency_away = _families(polymers, value, max_total, x0)
    by_order = [a - b for a, b in zip(_log_series(xi), _log_series(xi_away))]
    count = partial(_count_meeting, kept, adjacency, kept_away, adjacency_away, max_total)
    return _series(by_order, max_total, count)


def _expectation_site_sets(ham: Hamiltonian, x0: frozenset[Site]) -> list[frozenset[Site]]:
    """The site sets X0 union supp B, X0 first, found without the families
    B: X0 grown by the whole support of one bond at a time, a bond that
    meets the set (one site of a multi-body bond is no such set). Past
    `MAX_EXPECTATION_SITE_SETS` sets, NumericalError before any trace."""
    bonds = [frozenset(b) for b in ham.bonds if len(b) > 1]
    grown, seen = [x0], {x0}
    for sites in grown:
        for new in (sites | b for b in bonds if not sites.isdisjoint(b)):
            if new not in seen:  # a bond inside `sites` gives `sites`
                if len(grown) == MAX_EXPECTATION_SITE_SETS:
                    raise NumericalError(f"more than {MAX_EXPECTATION_SITE_SETS} site sets")
                seen.add(new)
                grown.append(new)
    return grown


@dataclass(frozen=True)
class ExpectationResult:
    """A local expectation from `expectation_series`.

    `n_families` counts the nonzero terms summed: the site sets
    X0 union supp B, on both kinds of volume.
    """

    value: complex
    n_families: int
    g_mode: str


def expectation_series(
    ham: Hamiltonian,
    beta: complex,
    obs: Observable,
    g_mode: str = "oracle",
    correlation_truncation: int | None = None,
) -> ExpectationResult:
    """Local expectation through the inclusion-exclusion identity.

    <A> = sum over bond families B (components meeting X0 = supp A) of
    K(A, B) g(X0 union supp B), with K the Möbius transform of the
    A-weighted Boltzmann traces, taken over every such family. It sums by
    site set, one trace per site set V = X0 union supp B, on classical and
    quantum volumes alike, and lists no family (see the module docstring).

    With g_mode == "oracle" the sum is a finite identity, exact up to
    rounding; g_mode == "series" replaces each ratio g by its cluster
    series at `correlation_truncation` (by default the number of bonds),
    which is checked up front whenever it is given. The ratios share one
    oracle, one polymer list with a cached `Oracle.rho` for its activities,
    and the whole-volume families, built at the first ratio.
    """
    obs = _check_observable(ham, obs)
    if g_mode not in ("oracle", "series"):
        raise ConfigError(f"unknown g_mode {g_mode!r}")
    if correlation_truncation is None:
        correlation_truncation = len(ham.bonds)
    else:
        correlation_truncation = _cast(
            correlation_truncation, "correlation_truncation", int, least=0
        )
    oracle = Oracle(ham, beta)
    x0 = frozenset(obs.support)

    def trace(sites: frozenset[Site]) -> complex:
        mask, support = oracle._inside(sites), tuple(sorted(sites))
        return oracle._finite("Gibbs trace", oracle._trace, obs, mask, support)

    @cache
    def shared():
        polymers = list(enumerate_polymers(ham, correlation_truncation))
        value = _activities(polymers, cache(oracle.rho))
        return polymers, value, _families(polymers, value, correlation_truncation)

    @cache
    def g_of(sites: frozenset[Site]) -> complex:
        if g_mode == "oracle":
            return oracle.reduced_correlation(sites)
        polymers, value, full = shared()
        pinned = _meeting_series(polymers, value, correlation_truncation, sites, full)
        return _finite("the correlation", np.exp, -pinned.value)

    volumes = _expectation_site_sets(ham, x0)
    total = 0j
    count = 0
    for sites, k_val in _rooted_sums(oracle._z_inside, volumes, lambda v: x0, trace).items():
        if k_val == 0:
            continue
        total += k_val * g_of(sites)
        count += 1
    return ExpectationResult(value=total, n_families=count, g_mode=g_mode)


def free_energy_density(
    model: LatticeModel,
    beta: complex,
    max_total_bonds: int,
) -> TruncatedSeries:
    """Free-energy density of a translation-invariant model.

    Sums the Ursell weights of one cluster per translation class: the
    clusters whose smallest site is the origin, walked from the origin
    on the window without the bonds that meet a site below it. This is
    the infinite-volume limit of log Z over the volume, and n_clusters
    counts translation classes. The window is large enough to hold
    every cluster through the origin within the order budget. A `model`
    that is not a `LatticeModel` is refused.
    """
    if not isinstance(model, LatticeModel):
        raise ConfigError(f"the model must be a LatticeModel, got {type(model).__name__}")
    k = _cast(max_total_bonds, "max_total_bonds", int, least=0)
    origin = (0,) * model.dimension
    window = model.window(k)
    below = [x for x in window.sites if x < origin]
    return site_pinned_series(window.restricted_away(below), beta, origin, k)

"""Fixed-point solver for the reduced-correlation hierarchy.

The ratios g(X) = Z_without_X / Z over site subsets X of a finite
volume satisfy a closed linear system: with x0 the smallest site of X
and K(x0, S) the sum of polymer activities over polymers of support
exactly S containing x0,

    g(empty) = 1
    g(X) = g(X minus x0) - sum_{S ni x0, S disjoint from X minus x0}
               K(x0, S) g(X union S).

The map on the right is a contraction in the weighted sup norm
||g|| = sup_X |g(X)| e^{-a|X|} whenever the per-site kernel mass
sum_S |K(x0,S)| e^{a|S|} stays below e^a - 1, which the interaction
criterion certifies. The solver iterates the map from the constant
vector and reports both the a-priori norm bound and the contraction
factor actually observed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ConfigError, NumericalError
from .oracle import Oracle
from .polymers import _connected_families, _overlap_masks, enumerate_polymers

__all__ = ["KSKernel", "KSSolution", "build_ks_kernel", "ks_solve"]

MAX_SITES = 16
MAX_KERNEL_POLYMERS = 500_000


@dataclass(frozen=True)
class KSKernel:
    """Polymer-activity kernel K(x0, S) of one finite volume.

    entries maps (site, support) to the summed activity of polymers
    with that exact support; the same polymer feeds every pivot site in
    its support. mass(x0, a) and norm_bound(a) give the weighted column
    masses and the induced operator-norm bound e^{-a} (1 + sup mass).
    """

    sites: tuple
    entries: dict
    n_polymers: int
    truncation: int

    def mass(self, x0, a: float) -> float:
        return sum(
            abs(v) * math.exp(a * len(s))
            for (p, s), v in self.entries.items()
            if p == x0
        )

    def norm_bound(self, a: float) -> float:
        worst = max((self.mass(x, a) for x in self.sites), default=0.0)
        return math.exp(-a) * (1.0 + worst)


def build_ks_kernel(ham, beta: complex, max_polymer_bonds: int | None = None) -> KSKernel:
    """Assemble K(x0, S) from the polymer activities of `ham` at `beta`.

    With the default truncation every connected bond family enters and
    the kernel is exact; a lower cut keeps the cost bounded on larger
    volumes at the price of an approximate hierarchy.
    """
    if max_polymer_bonds is None:
        max_polymer_bonds = len(ham.bonds)
    # Walk the connected bond families before building any polymer, and
    # stop as soon as the walk passes the cap.
    walk = _connected_families(
        _overlap_masks(ham.bonds), [1] * len(ham.bonds), max_polymer_bonds, rooted=False
    )
    if next(itertools.islice(walk, MAX_KERNEL_POLYMERS, None), None) is not None:
        raise NumericalError(
            f"more than {MAX_KERNEL_POLYMERS} polymers, over the kernel cap; "
            "lower max_polymer_bonds"
        )
    polymers = enumerate_polymers(ham, max_polymer_bonds)
    oracle = Oracle(ham, beta)
    entries: dict = {}
    for p in polymers:
        rho = oracle.rho(p.bonds)
        s = p.support
        for x in s:
            key = (x, s)
            entries[key] = entries.get(key, 0.0) + rho
    return KSKernel(
        sites=tuple(ham.sites),
        entries=entries,
        n_polymers=len(polymers),
        truncation=max_polymer_bonds,
    )


@dataclass(frozen=True)
class KSSolution:
    """Converged (or stalled) iteration of the correlation hierarchy."""

    g: dict
    a: float
    iterations: int
    residual: float
    norm_bound: float
    contraction: float
    converged: bool
    kernel: KSKernel

    def value(self, sites) -> complex:
        key = frozenset(sites)
        if key not in self.g:
            raise ConfigError(f"no ratio was solved for the site set {sorted(key)}")
        return self.g[key]


def ks_solve(
    ham,
    beta: complex,
    a: float = math.log(2.0),
    tol: float = 1e-12,
    max_iter: int = 500,
    max_polymer_bonds: int | None = None,
    kernel: KSKernel | None = None,
) -> KSSolution:
    """Iterate the reduced-correlation map to its fixed point.

    Returns every ratio g(X) over nonempty site subsets X, keyed by
    frozenset of sites. The weight parameter `a` only changes the norm
    in which convergence is measured and certified, not the fixed point.
    """
    sites = list(ham.sites)
    n = len(sites)
    if n > MAX_SITES:
        raise NumericalError(f"{n} sites exceed the 2^{MAX_SITES} subset cap")
    if kernel is None:
        kernel = build_ks_kernel(ham, beta, max_polymer_bonds)
    index = {s: i for i, s in enumerate(sites)}

    # per-pivot kernel rows as (support mask, value), pivot = smallest index
    rows: list[list[tuple[int, complex]]] = [[] for _ in range(n)]
    for (x, supp), val in kernel.entries.items():
        mask = 0
        for s in supp:
            mask |= 1 << index[s]
        rows[index[x]].append((mask, val))

    size = [bin(m).count("1") for m in range(1 << n)]
    scale = [math.exp(-a * k) for k in range(n + 1)]
    g = [1.0 + 0.0j] * (1 << n)
    residual = math.inf
    prev_residual = None
    contraction = math.nan
    it = 0
    for it in range(1, max_iter + 1):
        nxt = [1.0 + 0.0j] * (1 << n)
        for x_mask in range(1, 1 << n):
            low = x_mask & -x_mask
            x0 = low.bit_length() - 1
            rest = x_mask ^ low
            acc = g[rest]
            for s_mask, val in rows[x0]:
                if s_mask & rest:
                    continue
                acc -= val * g[x_mask | s_mask]
            nxt[x_mask] = acc
        residual = max(
            abs(nxt[m] - g[m]) * scale[size[m]] for m in range(1 << n)
        )
        g = nxt
        if prev_residual is not None and prev_residual > 0:
            contraction = residual / prev_residual
        prev_residual = residual
        if residual <= tol:
            break
    out = {
        frozenset(sites[i] for i in range(n) if (m >> i) & 1): g[m]
        for m in range(1, 1 << n)
    }
    return KSSolution(
        g=out,
        a=a,
        iterations=it,
        residual=residual,
        norm_bound=kernel.norm_bound(a),
        contraction=contraction,
        converged=residual <= tol,
        kernel=kernel,
    )

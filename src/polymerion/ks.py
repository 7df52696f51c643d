"""Fixed-point solver for the reduced-correlation hierarchy.

The ratios g(X) = Z_without_X / Z over site subsets X of a finite
volume satisfy a closed linear system: with x0 the smallest site of X
and K(x0, S) the sum of polymer activities over polymers of support
exactly S containing x0,

    g(empty) = 1
    g(X) = g(X minus x0) - sum_{S ni x0, S disjoint from X minus x0}
               K(x0, S) g(X union S).

K(S) is built one of two ways. An exact quantum kernel (every connected
bond family kept) is built by support: Z_U, the partition function of
the bonds inside a site set U, is the sum over families of site-disjoint
polymers inside U of their activity products (Park's decoupling), so
rooting that sum at m = min S gives

    K(S) = Z_S - Z_{S minus m} - sum_{T support, m in T, T < S} K(T) Z_{S minus T},

one spectrum per support and no subfamily sum. `oracle._rooted_sums`
solves it in order of size, over the distinct supports of the polymers
already enumerated, with Z_U from `Oracle._z_inside`; local expectations
share that recursion. Classical kernels sum
each polymer's Mayer product, and truncated quantum kernels each
polymer's inclusion-exclusion over the Z memo. The Mayer product has no
cancellation, while a difference of Z's loses the digits of K(S) below
those of Z, so classical kernels stay on it.

The map on the right is a contraction in the weighted sup norm
||g|| = sup_X |g(X)| e^{-a|X|} whenever the per-site kernel mass
sum_S |K(x0,S)| e^{a|S|} stays below e^a - 1, which the interaction
criterion certifies. The solver iterates the map from the constant
vector and reports both the a-priori norm bound and the contraction
factor actually observed.

The map is built once per solve as flat arrays over subset bitmasks:
one `rest` index per subset and one (destination, target, value) entry
per pair of a subset X and a kernel row S that fits it. An iteration is
then a handful of vector operations. The sum order is fixed: the rest
term first, then the kernel rows in `entries` order, each product taken
in split real arithmetic the way Python multiplies complex numbers, and
the residual through `hypot` as Python's `abs` computes it. So g, the
residual and the contraction match a plain per-subset loop to the last
bit (tests/helpers.py keeps that loop as the reference).

MAX_SITES = 16 bounds memory, not time: the 4x4 Ising patch with the
kernel cut at 4 bonds has 820 923 map entries, 26.8 MB of arrays, and
solves in about 0.7 s on a 2-core machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import CLASSICAL, _check_hamiltonian, as_site, site_set
from .numeric import _cast, _unbounded
from .oracle import Oracle, _rooted_sums
from .polymers import enumerate_polymers

__all__ = ["KSKernel", "KSSolution", "build_ks_kernel", "ks_solve"]

MAX_SITES = 16


def _weight(a: float, k: int) -> float:
    """e^{-a k}, the weight of a k-site subset; NumericalError past the float range."""
    if (w := _unbounded(math.exp, -a * k)) == math.inf:
        raise NumericalError(f"the weight e^(-a k) at a = {a}, k = {k} is past the float range")
    return w


@dataclass(frozen=True)
class KSKernel:
    """Polymer-activity kernel K(x0, S) of one finite volume.

    entries maps (site, support) to the summed activity of polymers
    with that exact support, in the order the supports first occur among
    the polymers; the same sum feeds every pivot site in its support. An
    exact quantum kernel takes the sums from partition functions of site
    sets, any other one from the polymers' activities (see the module
    docstring). mass(x0, a) and norm_bound(a) give the weighted column
    masses, summed in `entries` order, and the induced operator-norm bound
    e^{-a} (1 + sup mass).
    """

    sites: tuple
    entries: dict
    n_polymers: int
    truncation: int

    def _masses(self, a: float) -> dict:
        """Weighted column mass of every site, in one pass over the entries;
        a mass past the float range raises NumericalError."""
        a = _cast(a, "a", float)
        terms: dict = {x: [] for x in self.sites}
        for (p, s), v in self.entries.items():
            terms[p].append(abs(v) * _unbounded(math.exp, a * len(s)))
        masses = {x: sum(t) for x, t in terms.items()}
        if not all(map(math.isfinite, masses.values())):
            raise NumericalError(f"a kernel mass at a = {a} is past the float range")
        return masses

    def mass(self, x0, a: float) -> float:
        masses = self._masses(a)
        x0 = as_site(x0)
        if x0 not in masses:
            raise ConfigError(f"site {x0} is not in the volume")
        return masses[x0]

    def norm_bound(self, a: float) -> float:
        worst = max(self._masses(a).values(), default=0.0)
        return _weight(a, 1) * (1.0 + worst)


def build_ks_kernel(ham, beta: complex, max_polymer_bonds: int | None = None) -> KSKernel:
    """Assemble K(x0, S) from the polymer activities of `ham` at `beta`.

    With the default truncation every connected bond family enters and
    the kernel is exact; a lower cut keeps the cost bounded on larger
    volumes at the price of an approximate hierarchy. A cut below one
    bond is refused, and so are more polymers than `enumerate_polymers`
    takes. An exact quantum kernel sums by support, one Z per site set;
    a classical or truncated one sums the activity of every polymer.
    """
    if max_polymer_bonds is None:
        max_polymer_bonds = len(_check_hamiltonian(ham).bonds)
    else:
        max_polymer_bonds = _cast(max_polymer_bonds, "max_polymer_bonds", int, least=1)
    polymers = enumerate_polymers(ham, max_polymer_bonds)
    oracle = Oracle(ham, beta)
    supports = dict.fromkeys(p.support for p in polymers)
    if ham.kind != CLASSICAL and max_polymer_bonds >= len(ham.bonds):
        z = oracle._z_inside
        sums = _rooted_sums(z, supports, min, lambda s: z(s) - z(s - {min(s)}))
    else:
        sums = dict.fromkeys(supports, 0.0)
        for p in polymers:
            sums[p.support] += oracle.rho(p.bonds)
    return KSKernel(
        sites=tuple(ham.sites),
        entries={(x, s): sums[s] for s in supports for x in s},
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
        key = site_set(sites)
        if key not in self.g:
            raise ConfigError(f"no ratio was solved for the site set {sorted(key)}")
        return self.g[key]


def _hierarchy_map(sites, kernel: KSKernel):
    """The map g -> g[X minus x0] - sum_S K(x0,S) g[X union S] as flat arrays.

    Subsets are bitmasks over `sites`. Returns (rest, dest, target, vr, vi):
    the first term of X is g[rest[X]], and entry j subtracts
    (vr[j] + i vi[j]) g[target[j]] from X = dest[j]. The entries of one X
    are contiguous and follow the kernel's `entries` order.
    """
    n = len(sites)
    index = {s: i for i, s in enumerate(sites)}
    rows: list[list] = [[] for _ in range(n)]
    for (x, supp), val in kernel.entries.items():
        mask = 0
        for s in supp:
            mask |= 1 << index[s]
        rows[index[x]].append((mask, val))

    masks = np.arange(1 << n, dtype=np.intp)
    rest = masks & (masks - 1)  # X without its smallest site
    parts = [(np.zeros(0, np.intp),) * 2 + (np.zeros(0),) * 2]
    for i, row in enumerate(rows):
        # the subsets X with smallest site i against the rows of pivot i:
        # S fits X when it meets X only in the pivot
        xs = (masks[: 1 << (n - i - 1)] << (i + 1)) | (1 << i)
        s_masks = np.array([m for m, _ in row], dtype=np.intp)
        vals = np.array([v for _, v in row], dtype=complex)
        x_at, row_at = np.nonzero((xs[:, None] & s_masks) == (1 << i))
        parts.append(
            (xs[x_at], xs[x_at] | s_masks[row_at], vals.real[row_at], vals.imag[row_at])
        )
    return (rest, *map(np.concatenate, zip(*parts)))


def ks_solve(
    ham,
    beta: complex,
    a: float = math.log(2.0),
    tol: float = 1e-12,
    max_iter: int = 500,
    max_polymer_bonds: int | None = None,
) -> KSSolution:
    """Iterate the reduced-correlation map to its fixed point.

    The kernel is built by `build_ks_kernel` from `ham`, `beta` and
    `max_polymer_bonds`, and returned with the solution. Returns every
    ratio g(X) over nonempty site subsets X, keyed by frozenset of sites.
    The weight parameter `a` only changes the norm in which convergence
    is measured and certified, not the fixed point. A run that stops at
    `max_iter` is returned with converged False; an iterate that leaves
    the float range raises NumericalError.
    """
    max_iter = _cast(max_iter, "max_iter", int, least=1)
    a, tol = _cast(a, "a", float), _cast(tol, "tol", float, least=0)
    sites = list(_check_hamiltonian(ham).sites)
    n = len(sites)
    if n > MAX_SITES:
        raise NumericalError(f"{n} sites exceed the 2^{MAX_SITES} subset cap")
    kernel = build_ks_kernel(ham, beta, max_polymer_bonds)
    rest, dest, target, vr, vi = _hierarchy_map(sites, kernel)

    masks = np.arange(1 << n)
    size = np.zeros(1 << n, dtype=np.intp)
    for i in range(n):
        size += (masks >> i) & 1
    weight = np.array([_weight(a, k) for k in range(n + 1)])[size]
    gr = np.ones(1 << n)
    gi = np.zeros(1 << n)
    prev_residual = None
    contraction = math.nan
    # Split real arithmetic in the order of a Python complex sum: the rest
    # term, then each product (vr gr - vi gi) + i (vr gi + vi gr) in entry
    # order. np.subtract.at applies repeated indices one after another.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            tr, ti = gr[target], gi[target]
            nr, ni = gr[rest], gi[rest]
            np.subtract.at(nr, dest, vr * tr - vi * ti)
            np.subtract.at(ni, dest, vr * ti + vi * tr)
            residual = float(np.max(np.hypot(nr - gr, ni - gi) * weight))
            if not math.isfinite(residual):
                raise NumericalError(
                    f"the hierarchy iterate left the float range at iteration {it}; "
                    f"the kernel does not contract (norm bound {kernel.norm_bound(a):.3g})"
                )
            gr, gi = nr, ni
            if prev_residual is not None and prev_residual > 0:
                contraction = residual / prev_residual
            prev_residual = residual
            if residual <= tol:
                break
    keys = [frozenset()]
    for s in sites:
        keys += [k | {s} for k in keys]
    out = dict(zip(keys[1:], map(complex, gr[1:].tolist(), gi[1:].tolist())))
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

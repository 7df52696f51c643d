"""Polymers: connected families of bonds.

Two bonds are linked when their supports share a site; a polymer is a
family of bonds whose link graph is connected. Two polymers are
compatible when their supports are disjoint. The activity of a polymer
is the normalized trace of its fugacity, taken from the oracle: for
quantum bonds an inclusion-exclusion over the shared partition-function
memo, for classical ones the mean of the Mayer product
prod_X (e^{-beta Phi(X)} - 1). It comes with the product bound
prod_X (e^{|beta| ||Phi(X)||} - 1) that controls it for complex beta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Hamiltonian, Site, _check_hamiltonian, _iterable
from .numeric import _array, _cast, _unbounded
from .oracle import Oracle
from .ursell import _bits, _overlap_masks, _site_masks, is_connected

__all__ = [
    "Polymer",
    "PolymerWeight",
    "bond_weights",
    "enumerate_polymers",
    "polymer_weights",
    "rho_fugacity",
    "compatible",
    "incompatibility_graph",
    "mobius_transform",
    "zeta_transform",
]

MAX_POLYMERS = 500_000


@dataclass(frozen=True)
class Polymer:
    """A connected bond family, stored as sorted indices into a Hamiltonian."""

    bonds: tuple[int, ...]
    support: frozenset[Site]

    def __len__(self) -> int:
        return len(self.bonds)


def _connected_families(adj, sizes, max_total: int, rooted: bool):
    """Connected subsets as (bitmask of ids, total size, size key), each
    exactly once.

    The size key packs the subset's histogram of sizes: it is the sum of
    1 << (width * size) over its vertices, with width =
    max_total.bit_length(), so no field overflows within the budget;
    `_size_histogram` unpacks it.

    With `rooted` only subsets containing vertex 0 are produced (vertex 0
    is then the pin and contributes size 0). A vertex too large for the
    budget left is dropped from the candidates before it is tried, since
    the budget only shrinks further down the walk.
    """
    fits = [0] * (max_total + 1)
    for v, size in enumerate(sizes):
        if size <= max_total:
            fits[size] |= 1 << v
    for r in range(1, max_total + 1):
        fits[r] |= fits[r - 1]
    width = max_total.bit_length()
    unit = [1 << (width * size) for size in sizes]

    def rec(sett: int, total: int, key: int, cand: int, banned: int):
        yield sett, total, key
        cand &= fits[max_total - total]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            newcand = (cand | (adj[v] & ~banned)) & ~sett & ~low
            yield from rec(sett | low, total + sizes[v], key + unit[v], newcand, banned)
            banned |= low

    if rooted:
        yield from rec(1, sizes[0], unit[0], adj[0] & ~1, 1)
        return
    for root in range(len(sizes)):
        if sizes[root] > max_total:
            continue
        below = (1 << (root + 1)) - 1
        yield from rec(1 << root, sizes[root], unit[root], adj[root] & ~below, below)


def _size_histogram(key: int, max_total: int) -> list[int]:
    """Unpack a size key of the walk at budget `max_total`: entry s is the
    number of vertices of size s in the subset."""
    width = max_total.bit_length()
    field = (1 << width) - 1
    return [(key >> (width * s)) & field for s in range(max_total + 1)]


def _induced(adj, ids) -> list[int]:
    """The subgraph of `adj` induced on the vertices `ids`, renumbered by
    their position in `ids`."""
    return [sum(1 << b for b, u in enumerate(ids) if adj[v] >> u & 1) for v in ids]


def _pin_mask(supports, sites) -> int:
    """Bitmask of the supports that meet any of `sites`."""
    at = _site_masks(supports)
    mask = 0
    for s in sites:
        mask |= at.get(s, 0)
    return mask


def _pinned_families(adj, pin: int, sizes, max_total: int):
    """Sets that are connected once a pin vertex meeting `pin` is added.

    Yields (bitmask of ids, total size, size key) as `_connected_families`
    does, with the pin's own bit removed; the empty set comes first, as
    mask 0. The pin adds 1 to the key's size-0 field.
    The pin is vertex 0 of the shifted graph. It is the root, already in
    every set the walk grows, so the other rows may leave out its bit.
    """
    shifted = [pin << 1] + [a << 1 for a in adj]
    for sett, total, key in _connected_families(shifted, [0] + sizes, max_total, rooted=True):
        yield sett >> 1, total, key


def _capped(walk, cap: int, what: str) -> list[int]:
    """The masks of one of the walks above, in walk order; more than `cap`
    of them raise NumericalError before the caller builds anything."""
    masks = [mask for mask, _, _ in itertools.islice(walk, cap + 1)]
    if len(masks) > cap:
        raise NumericalError(f"more than {cap} {what}; lower the truncation")
    return masks


def enumerate_polymers(ham: Hamiltonian, max_bonds: int, anchor=None) -> tuple[Polymer, ...]:
    """All polymers of at most `max_bonds` bonds, in canonical order.

    With `anchor` (a site or iterable of sites) only polymers whose
    support meets the anchor set are kept: the walk is pinned at the bonds
    meeting it, and a pinned set joined only through the pin (possible
    for several anchor sites) is not a polymer. An anchor site outside the
    volume is refused. More than `MAX_POLYMERS`
    polymers are refused before any is built.
    """
    _check_hamiltonian(ham)
    max_bonds = _cast(max_bonds, "max_bonds", int, least=0)
    adj, unit = _overlap_masks(ham.bonds), [1] * len(ham.bonds)
    if anchor is None:
        walk = _connected_families(adj, unit, max_bonds, rooted=False)
    else:
        pin = _pin_mask(ham.bonds, ham.volume_sites(anchor))
        pinned = _pinned_families(adj, pin, unit, max_bonds)
        walk = (f for f in pinned if is_connected(adj, f[0]))
    out = []
    for mask in _capped(walk, MAX_POLYMERS, "polymers"):
        ids = tuple(_bits(mask))
        out.append(Polymer(bonds=ids, support=frozenset(s for i in ids for s in ham.bonds[i])))
    out.sort(key=lambda p: (len(p.bonds), p.bonds))
    return tuple(out)


def bond_weights(norms, beta: complex) -> list[float]:
    """W(X) = e^{|beta| ||Phi(X)||} - 1 for each bond norm ||Phi(X)||; a
    weight past the float range is inf, and certifies nothing."""
    ab = abs(_cast(beta, "beta", complex))
    return [_unbounded(math.expm1, ab * w) for w in norms]


@dataclass(frozen=True)
class PolymerWeight:
    """A polymer with its activity and the complex-temperature bound on it."""

    polymer: Polymer
    rho: complex
    bound: float


def polymer_weights(ham: Hamiltonian, beta: complex, max_bonds: int) -> tuple[PolymerWeight, ...]:
    """Activities and bounds for every polymer up to the given size."""
    polymers = enumerate_polymers(ham, max_bonds)
    oracle = Oracle(ham, beta)
    w = bond_weights(ham.norms, beta)
    return tuple(
        PolymerWeight(polymer=p, rho=oracle.rho(p.bonds), bound=math.prod(w[i] for i in p.bonds))
        for p in polymers
    )


def rho_fugacity(ham: Hamiltonian, beta: complex, bond_ids) -> complex:
    """Activity of one bond family (normalized trace of its fugacity)."""
    return Oracle(ham, beta).rho(bond_ids)


def _support(p) -> frozenset[Site]:
    """The support of `p`, refused unless `p` is a `Polymer`."""
    if not isinstance(p, Polymer):
        raise ConfigError(f"needs a Polymer, got {type(p).__name__}")
    return p.support


def compatible(p: Polymer, q: Polymer) -> bool:
    """Polymers are compatible when their supports are disjoint."""
    return _support(p).isdisjoint(_support(q))


def incompatibility_graph(polymers) -> list[int]:
    """Bitmask adjacency: bit j of mask[i] set when polymers i, j overlap (i != j)."""
    return _overlap_masks([_support(p) for p in _iterable(polymers, "polymers")])


def _subset_transform(values, op) -> np.ndarray:
    """Combine each subset entry with the entry lacking one element, axis by axis."""
    a = _array(values, "values").astype(complex)
    n = max(a.size.bit_length() - 1, 0)
    if a.size != 1 << n:
        raise ConfigError(f"values has {a.size} entries; a subset transform needs a power of two")
    a = a.reshape((2,) * n) if n else a
    for axis in range(n):
        head = (slice(None),) * axis
        with_i, without_i = a[head + (1, ...)], a[head + (0, ...)]
        op(with_i, without_i, out=with_i)
    return a.reshape(-1)


def mobius_transform(values) -> np.ndarray:
    """Subset Möbius transform of an array indexed by bitmask.

    Input F over subsets (length 2^m, bit i of the index means element i
    is present); output G with G(B) = sum over A subset of B of
    (-1)^{|B minus A|} F(A). Inverse of `zeta_transform`.
    """
    return _subset_transform(values, np.subtract)


def zeta_transform(values) -> np.ndarray:
    """Subset sums: G(B) = sum over A subset of B of F(A)."""
    return _subset_transform(values, np.add)

"""Exact reference values on small volumes.

Everything here is brute force on the full product space: partition
functions through eigenvalues or vectorized exponentials, Gibbs
expectations through dense matrices, operator fugacities through subset
inclusion-exclusion. The point is to be unarguably correct on volumes
small enough to afford it; the series machinery is tested against this
module, never the other way around.

Traces are normalized: tr = Tr / dim for quantum models, the uniform
product average for classical ones. With this normalization the
partition function of a bond subset only depends on the sites its bonds
touch, which is what makes the subset memo in `Oracle` shareable across
polymers. It also factorizes: bonds that share no site act on separate
tensor factors, so Z of a bond set is the product of Z over its
connected components (bonds joined by shared sites), and only connected
sets are diagonalized.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import (
    CLASSICAL,
    Bond,
    Hamiltonian,
    Site,
    _site_axes,
    as_bond,
    embed_matrix,
    embed_table,
)
from .ursell import _bits, _components, _overlap_masks

MAX_DENSE_DIM = 2**20
# Quantum operators are dense matrices: 2^12 rows are 256 MiB of complex
# entries, half that when every term is real.
MAX_QUANTUM_DIM = 2**12

__all__ = [
    "Oracle",
    "Observable",
    "partition_function",
    "xi_fugacity_exact",
    "gibbs_expectation",
    "reduced_correlation_exact",
]


@dataclass(frozen=True)
class Observable:
    """A local observable: a table (classical) or matrix (quantum) on a bond."""

    support: Bond
    data: np.ndarray

    @classmethod
    def make(cls, sites, data) -> "Observable":
        b = as_bond(sites)
        return cls(support=b, data=np.asarray(data))


def _check_dim(q: int, nsites: int, kind: str):
    cap = MAX_DENSE_DIM if kind == CLASSICAL else MAX_QUANTUM_DIM
    if q**nsites > cap:
        raise NumericalError(f"exact oracle refused: q^{nsites} states exceeds {cap}")


def _alternating_sum(ids, term, start=0j):
    """Sum of (-1)^{|ids| - |sub|} term(sub) over the subfamilies sub of ids.

    Subfamilies are tuples of the sorted ids, taken by size and then in
    `itertools.combinations` order, and added to `start` one at a time.
    More than 20 ids is refused.
    """
    ids = tuple(sorted(ids))
    n = len(ids)
    if n > 20:
        raise NumericalError("inclusion-exclusion over more than 2^20 subfamilies")
    acc = start
    for r in range(n + 1):
        sign = (-1) ** (n - r)
        for sub in itertools.combinations(ids, r):
            acc = acc + sign * term(sub)
    return acc


def _check_observable(ham: Hamiltonian, obs: Observable):
    """Refuse an observable off the region or of the wrong shape for `ham`."""
    if not set(obs.support) <= set(ham.sites):
        raise ConfigError("observable support must lie inside the region")
    states = ham.q ** len(obs.support)
    if ham.kind == CLASSICAL:
        if obs.data.size != states:
            raise ConfigError(
                f"classical observables need one entry per state, {states} here, got "
                f"{obs.data.size}; a two-number list is read as one [re, im] value"
            )
    elif obs.data.shape != (states, states):
        raise ConfigError(f"quantum observables must be {states}x{states} matrices")


class Oracle:
    """Exact quantities for one assembled Hamiltonian at one temperature.

    Partition functions of bond subsets are memoized by the subset of
    bond indices. A connected subset is computed on the union of its
    supports; any other subset is the product of its components' values.
    Bond ids are integers in range(len(ham.bonds)); anything else is a
    ConfigError.
    """

    def __init__(self, ham: Hamiltonian, beta: complex):
        self.ham = ham
        self.beta = complex(beta)
        self._z: dict[frozenset[int], complex] = {}
        self._all = frozenset(range(len(ham.bonds)))
        self._adj = _overlap_masks(ham.bonds)
        self._bit = {i: 1 << i for i in range(len(ham.bonds))}
        # Dense operators take the ops' own dtype: float64 when every
        # term is exactly real, so eigh runs the real symmetric solver.
        self._dtype = np.result_type(float, *{op.dtype for op in ham.ops})

    # -- building blocks ----------------------------------------------------

    def _mask(self, ids) -> int:
        """Bitmask of a set of bond ids, refusing any id that is not an
        integer in range(len(ham.bonds)) (booleans included)."""
        mask = 0
        for i in ids:
            # True == 1 and 1.0 == 1 as dict keys, so the type is checked first.
            bit = self._bit.get(i) if type(i) is int or isinstance(i, np.integer) else None
            if bit is None:
                raise ConfigError(
                    f"bond ids must be integers in range({len(self._bit)}), got {i!r}"
                )
            mask |= bit
        return mask

    def hamiltonian_on(self, bond_ids, support=None) -> tuple[tuple[Site, ...], np.ndarray]:
        """Total operator of the given bonds embedded on `support`."""
        ids = frozenset(bond_ids)
        self._mask(ids)
        if support is None:
            support = self.ham.support(ids)
        q, ham = self.ham.q, self.ham
        _check_dim(q, len(support), self.ham.kind)
        if ham.kind == CLASSICAL:
            total = np.zeros((q,) * len(support))
            for i in ids:
                total = total + _site_axes(ham.ops[i], ham.bonds[i], support, q)
            return support, total.ravel()
        dim = q ** len(support)
        total = np.zeros((dim, dim), dtype=self._dtype)
        for i in ids:
            total = total + embed_matrix(ham.ops[i], ham.bonds[i], support, q)
        return support, total

    def boltzmann(self, bond_ids, support=None) -> tuple[tuple[Site, ...], np.ndarray]:
        """exp(-beta H_B) on `support` (table for classical, matrix for quantum)."""
        support, total = self.hamiltonian_on(bond_ids, support)
        if self.ham.kind == CLASSICAL:
            return support, np.exp(-self.beta * total)
        w, v = np.linalg.eigh(total)
        return support, (v * np.exp(-self.beta * w)) @ v.conj().T

    # -- partition functions ------------------------------------------------

    def z(self, bond_ids=None) -> complex:
        """Normalized-trace partition function of a bond subset.

        A subset of several components is the product of their memoized
        values, taken in the order of their lowest bond id. The ids are
        checked on a memo miss only, so no bad key is ever stored.
        """
        ids = self._all if bond_ids is None else frozenset(bond_ids)
        hit = self._z.get(ids)
        if hit is not None:
            return hit
        parts = _components(self._adj, self._mask(ids))
        if len(parts) == 1:
            support, total = self.hamiltonian_on(ids)
            energies = total if self.ham.kind == CLASSICAL else np.linalg.eigvalsh(total)
            # An overflow is reported by the NumericalError below, not by numpy.
            with np.errstate(over="ignore", invalid="ignore"):
                val = complex(np.mean(np.exp(-self.beta * energies)))
        else:
            val = self.z(_bits(parts[0])) if parts else 1.0 + 0.0j
            for part in parts[1:]:
                val = val * self.z(_bits(part))
        if not cmath.isfinite(val):
            raise NumericalError(f"partition function is not finite at beta = {self.beta}")
        self._z[ids] = val
        return val

    def z_avoiding(self, x0) -> complex:
        """Partition function with every bond meeting the site set x0 removed."""
        x0 = self.ham.volume_sites(x0)
        ids = frozenset(
            i for i, b in enumerate(self.ham.bonds) if x0.isdisjoint(b)
        )
        return self.z(ids)

    def reduced_correlation(self, x0) -> complex:
        """g(X0) = Z with bonds meeting X0 removed, over the full Z."""
        denom = self.z()
        if denom == 0:
            raise NumericalError("partition function vanished; correlation undefined")
        return self.z_avoiding(x0) / denom

    # -- fugacities and expectations ----------------------------------------

    def xi(self, bond_ids) -> tuple[tuple[Site, ...], np.ndarray]:
        """Inclusion-exclusion fugacity operator of a bond family.

        sum over subfamilies B' of B of (-1)^{|B| - |B'|} exp(-beta H_{B'}),
        on the union support of B. For a family that is not connected it is
        the tensor product of its components' fugacity operators, so its
        normalized trace `rho` is the product of theirs.
        """
        ids = frozenset(bond_ids)
        self._mask(ids)
        support = self.ham.support(ids)
        q = self.ham.q
        _check_dim(q, len(support), self.ham.kind)
        dim = q ** len(support)
        shape = (dim,) if self.ham.kind == CLASSICAL else (dim, dim)
        acc = _alternating_sum(
            ids, lambda sub: self.boltzmann(sub, support)[1], np.zeros(shape, dtype=complex)
        )
        return support, acc

    def rho(self, bond_ids) -> complex:
        """Normalized trace of the fugacity operator, via the Z memo."""
        ids = frozenset(bond_ids)
        self._mask(ids)
        return _alternating_sum(ids, self.z)

    def expectation(self, obs: Observable) -> complex:
        """Gibbs expectation tr(A exp(-beta H)) / Z on the full region."""
        _check_observable(self.ham, obs)
        z = self.z()
        if z == 0:
            raise NumericalError("partition function vanished; expectation undefined")
        return self.weighted_trace(obs, self._all, self.ham.sites) / z

    def weighted_trace(self, obs: Observable, bond_ids, support) -> complex:
        """tr(A exp(-beta H_B)) on a fixed support (not divided by Z)."""
        support = tuple(sorted(set(support) | set(obs.support)))
        _, bf = self.boltzmann(bond_ids, support)
        q = self.ham.q
        if self.ham.kind == CLASSICAL:
            a = embed_table(obs.data.astype(complex), obs.support, support, q)
            return complex(np.mean(a * bf))
        a = embed_matrix(obs.data.astype(complex), obs.support, support, q)
        return complex(np.trace(a @ bf) / bf.shape[0])


# -- one-shot wrappers (tests and small scripts; heavy callers hold an Oracle)


def partition_function(ham: Hamiltonian, beta: complex, bond_ids=None) -> complex:
    return Oracle(ham, beta).z(bond_ids)


def xi_fugacity_exact(ham: Hamiltonian, beta: complex, bond_ids):
    return Oracle(ham, beta).xi(bond_ids)


def gibbs_expectation(ham: Hamiltonian, beta: complex, obs: Observable) -> complex:
    return Oracle(ham, beta).expectation(obs)


def reduced_correlation_exact(ham: Hamiltonian, beta: complex, x0) -> complex:
    return Oracle(ham, beta).reduced_correlation(x0)

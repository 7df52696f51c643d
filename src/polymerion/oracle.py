"""Exact reference values on small volumes.

Everything here is brute force on the full product space: partition
functions through eigenvalues or vectorized exponentials, Gibbs
expectations through dense matrices. Quantum fugacities are subset
inclusion-exclusions over the partition-function memo. Classical terms
commute, so there the inclusion-exclusion collapses to the Mayer product
prod_X (e^{-beta Phi_X} - 1) over the family, built from one `expm1`
table per bond; it needs no subfamily, and so none of the cancellation
of their signed sum. The point is to be unarguably correct on volumes
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

The spectrum of a bond set does not depend on beta. Z and Gibbs traces
are sums over it: over the energy table of a classical set, or over the
eigenvalues and eigenvectors of a quantum matrix. A quantum matrix of
`_SPLIT_DIM` rows or more is split into the connected components of its
own nonzero pattern (the sectors of any conserved quantity it has), and
its spectrum is memoized per (bond set, support), so Z, expectations
and the oracles that `Oracle.at` makes for other betas share it. A
smaller matrix is one block and is built again when asked, as before:
splitting or keeping it costs more than it saves.
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
from .numeric import _cast
from .ursell import _bits, _components, _overlap_masks

MAX_DENSE_DIM = 2**20
# Quantum operators are dense matrices: 2^12 rows are 256 MiB of complex
# entries, half that when every term is real.
MAX_QUANTUM_DIM = 2**12
# Quantum matrices of this many rows or more are diagonalized block by
# block, and their spectra kept. On Heisenberg patches with one BLAS
# thread, the split and the blocks' eigvalsh took 0.21 ms against 0.17 ms
# for the whole matrix at 64 rows, 0.51 against 0.67 ms at 128 rows and
# 4.1 against 16 ms at 512 rows.
_SPLIT_DIM = 128

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


def _pattern_blocks(total: np.ndarray) -> list[np.ndarray]:
    """Rows of the connected components of a square matrix's nonzero
    pattern, each ascending, in the order of their lowest row.

    Every row starts as its own label; each round takes the least label
    among a row's neighbours, then jumps each label to its own label.
    Labels only fall and always name a row of the same component, so at
    the fixed point they are the component minima.
    """
    dim = total.shape[0]
    pattern = total != 0
    np.fill_diagonal(pattern, True)
    rows, cols = np.nonzero(pattern)
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    label = np.arange(dim)
    while True:
        low = np.minimum.reduceat(label[cols], starts)
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


class _Spectrum:
    """A quantum H_B on one support, by blocks.

    `groups` holds (rows, stack) pairs: the row indices of the blocks of
    one size, shape (blocks, size), and their matrices stacked, so one
    eigensolver call takes every block of that size. A matrix that is not
    split is one group, (None, the matrix). Eigenvalues for Z come from
    `eigvalsh`; `eigh` pairs, with their own eigenvalues, are taken when
    a trace first asks for them.
    """

    __slots__ = ("dim", "groups", "_energies", "_pairs")

    def __init__(self, total: np.ndarray):
        self.dim = total.shape[0]
        self._energies = self._pairs = None
        blocks = _pattern_blocks(total) if self.dim >= _SPLIT_DIM else []
        if len(blocks) <= 1:
            self.groups = [(None, total)]
            return
        by_size: dict[int, list] = {}
        for rows in blocks:
            by_size.setdefault(len(rows), []).append(rows)
        self.groups = []
        for same in by_size.values():
            rows = np.array(same)
            self.groups.append((rows, total[rows[:, :, None], rows[:, None, :]]))

    def energies(self) -> np.ndarray:
        if self._energies is None:
            parts = [np.linalg.eigvalsh(stack).ravel() for _, stack in self.groups]
            self._energies = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return self._energies

    def eigh(self) -> list:
        if self._pairs is None:
            self._pairs = [np.linalg.eigh(stack) for _, stack in self.groups]
        return self._pairs


class Oracle:
    """Exact quantities for one assembled Hamiltonian at one temperature.

    Partition functions of bond subsets are memoized by the subset of
    bond indices. A connected subset is computed on the union of its
    supports; any other subset is the product of its components' values.
    Classical activities use a table e^{-beta Phi_X} - 1 per bond, built
    on first use and kept. Bond ids are integers in range(len(ham.bonds));
    anything else is a ConfigError.
    """

    def __init__(self, ham: Hamiltonian, beta: complex):
        self.ham = ham
        self.beta = _cast(beta, "beta", complex)
        self._z: dict[frozenset[int], complex] = {}
        self._spectra: dict = {}
        self._mayer_tables: dict[int, np.ndarray] = {}
        self._all = frozenset(range(len(ham.bonds)))
        self._adj = None
        self._bit = {i: 1 << i for i in range(len(ham.bonds))}
        # Dense operators take the ops' own dtype: float64 when every
        # term is exactly real, so eigh runs the real symmetric solver.
        self._dtype = np.result_type(float, *{op.dtype for op in ham.ops})

    def at(self, beta: complex) -> "Oracle":
        """An oracle for the same Hamiltonian at another beta that shares
        this one's memoized spectra (and its bond overlaps, once built), so
        a beta grid diagonalizes each large bond set once. Its values equal
        those of a fresh oracle."""
        other = Oracle(self.ham, beta)
        other._spectra, other._adj = self._spectra, self._adj
        return other

    # -- building blocks ----------------------------------------------------

    def _ids(self, bond_ids) -> frozenset:
        """The checked frozenset of `bond_ids`, refused as in `_mask`.
        Plain ints in range pass a type check and a subset check; anything
        else gets the full one."""
        try:
            ids = frozenset(bond_ids)
        except TypeError:
            raise ConfigError(
                f"bond ids must be an iterable of integers in range({len(self._bit)}), "
                f"got {bond_ids!r}"
            ) from None
        for i in ids:
            if type(i) is not int:
                self._mask(ids)
                break
        else:
            if not ids <= self._all:
                self._mask(ids)
        return ids

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
        ids = self._ids(bond_ids)
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

    def _spectrum(self, ids: frozenset, support) -> "_Spectrum":
        """The `_Spectrum` of a quantum H_B on `support`, memoized from
        `_SPLIT_DIM` rows on; a smaller one costs less to build again than
        to keep. `ids` are checked."""
        if self.ham.q ** len(support) < _SPLIT_DIM:
            return _Spectrum(self.hamiltonian_on(ids, support)[1])
        key = (ids, support)
        spectrum = self._spectra.get(key)
        if spectrum is None:
            spectrum = self._spectra[key] = _Spectrum(self.hamiltonian_on(ids, support)[1])
        return spectrum

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

        A connected subset sums exp(-beta E) over its spectrum; one of
        several components is the product of their memoized values, taken
        in the order of their lowest bond id. The ids are checked before
        the memo is read.
        """
        ids = self._all if bond_ids is None else self._ids(bond_ids)
        hit = self._z.get(ids)
        if hit is not None:
            return hit
        mask = self._mask(ids)
        # One bond is connected; the overlaps are built for the first set
        # of several, since many oracles never meet one.
        if mask & (mask - 1):
            if self._adj is None:
                self._adj = _overlap_masks(self.ham.bonds)
            parts = _components(self._adj, mask)
        else:
            parts = [mask] if mask else []
        if len(parts) == 1:
            support = self.ham.support(ids)
            if self.ham.kind == CLASSICAL:
                energies = self.hamiltonian_on(ids, support)[1]
            else:
                energies = self._spectrum(ids, support).energies()
            # An overflow is reported by the NumericalError below, not by numpy.
            with np.errstate(over="ignore", invalid="ignore"):
                val = complex(np.mean(np.exp(-self.beta * energies)))
        else:
            val = self._z_of(_bits(parts[0])) if parts else 1.0 + 0.0j
            for part in parts[1:]:
                val = val * self._z_of(_bits(part))
        if not cmath.isfinite(val):
            raise NumericalError(f"partition function is not finite at beta = {self.beta}")
        self._z[ids] = val
        return val

    def _z_of(self, bond_ids) -> complex:
        """`z` of ids already checked: the memo is read here, and only a
        miss goes through `z` (the id check runs on every call of `z`)."""
        ids = frozenset(bond_ids)
        hit = self._z.get(ids)
        return self.z(ids) if hit is None else hit

    def z_avoiding(self, x0) -> complex:
        """Partition function with every bond meeting the site set x0 removed."""
        return self.z(self.ham._ids_avoiding(x0))

    def reduced_correlation(self, x0) -> complex:
        """g(X0) = Z with bonds meeting X0 removed, over the full Z."""
        denom = self.z()
        if denom == 0:
            raise NumericalError("partition function vanished; correlation undefined")
        return self.z_avoiding(x0) / denom

    # -- fugacities and expectations ----------------------------------------

    def _mayer(self, ids, support) -> np.ndarray:
        """prod over the bonds of `ids`, ascending, of e^{-beta Phi_X} - 1,
        as a classical table with the axes of `support` (see `_site_axes`).

        The caller has checked `ids`, runs this under `np.errstate` and
        checks that the result is finite. Refused past the dense cap on
        `support`.
        """
        ham, q, tables = self.ham, self.ham.q, self._mayer_tables
        _check_dim(q, len(support), CLASSICAL)
        acc = None
        for i in sorted(ids):
            table = tables.get(i)
            if table is None:
                table = tables[i] = np.expm1(-self.beta * ham.ops[i])
            factor = _site_axes(table, ham.bonds[i], support, q)
            acc = factor if acc is None else acc * factor
        return np.ones((), dtype=complex) if acc is None else acc

    def xi(self, bond_ids) -> tuple[tuple[Site, ...], np.ndarray]:
        """Fugacity operator of a bond family, on the union support of B.

        Quantum: sum over subfamilies B' of B of (-1)^{|B| - |B'|}
        exp(-beta H_{B'}). Classical: the same sum factorizes into the Mayer
        product prod_{X in B} (e^{-beta Phi_X} - 1), which is what is built.
        For a family that is not connected it is the tensor product of its
        components' fugacity operators, so its normalized trace `rho` is
        the product of theirs.
        """
        ids = self._ids(bond_ids)
        support = self.ham.support(ids)
        if self.ham.kind == CLASSICAL:
            # An overflow is reported by the NumericalError below, not by numpy.
            with np.errstate(over="ignore", invalid="ignore"):
                table = self._mayer(ids, support)
            if not np.isfinite(table).all():
                raise NumericalError(f"fugacity is not finite at beta = {self.beta}")
            return support, table.flatten()
        q = self.ham.q
        _check_dim(q, len(support), self.ham.kind)
        dim = q ** len(support)
        acc = _alternating_sum(
            ids, lambda sub: self.boltzmann(sub, support)[1], np.zeros((dim, dim), dtype=complex)
        )
        return support, acc

    def rho(self, bond_ids) -> complex:
        """Normalized trace of the fugacity operator.

        Quantum: the inclusion-exclusion over the Z memo, refused past 20
        bonds. Classical: the mean of the Mayer product over the support of
        the family, refused only past the dense cap on that support.
        """
        ids = self._ids(bond_ids)
        if self.ham.kind != CLASSICAL:
            return _alternating_sum(ids, self._z_of)
        with np.errstate(over="ignore", invalid="ignore"):
            table = self._mayer(ids, self.ham.support(ids))
            val = complex(table.sum()) / table.size
        if not cmath.isfinite(val):
            raise NumericalError(f"activity is not finite at beta = {self.beta}")
        return val

    def expectation(self, obs: Observable) -> complex:
        """Gibbs expectation tr(A exp(-beta H)) / Z on the full region."""
        _check_observable(self.ham, obs)
        z = self.z()
        if z == 0:
            raise NumericalError("partition function vanished; expectation undefined")
        return self.weighted_trace(obs, self._all, self.ham.sites) / z

    def weighted_trace(self, obs: Observable, bond_ids, support) -> complex:
        """tr(A exp(-beta H_B)) on a fixed support (not divided by Z).

        Quantum: the sum over blocks of e^{-beta E_k} (V^H A V)_kk, so only
        the diagonal blocks of A enter, and no exp(-beta H) is formed.
        """
        ids = self._ids(bond_ids)
        support = tuple(sorted(set(support) | set(obs.support)))
        q = self.ham.q
        if self.ham.kind == CLASSICAL:
            a = embed_table(obs.data.astype(complex), obs.support, support, q)
            return complex(np.mean(a * np.exp(-self.beta * self.hamiltonian_on(ids, support)[1])))
        spectrum = self._spectrum(ids, support)
        a = embed_matrix(obs.data.astype(np.result_type(float, obs.data)), obs.support, support, q)
        acc = 0j
        for (rows, _), (w, v) in zip(spectrum.groups, spectrum.eigh()):
            block = a if rows is None else a[rows[:, :, None], rows[:, None, :]]
            diag = np.sum(v.conj() * (block @ v), axis=-2)
            acc += np.sum(np.exp(-self.beta * w) * diag)
        return complex(acc / spectrum.dim)


# -- one-shot wrappers (tests and small scripts; heavy callers hold an Oracle)


def partition_function(ham: Hamiltonian, beta: complex, bond_ids=None) -> complex:
    return Oracle(ham, beta).z(bond_ids)


def xi_fugacity_exact(ham: Hamiltonian, beta: complex, bond_ids):
    return Oracle(ham, beta).xi(bond_ids)


def gibbs_expectation(ham: Hamiltonian, beta: complex, obs: Observable) -> complex:
    return Oracle(ham, beta).expectation(obs)


def reduced_correlation_exact(ham: Hamiltonian, beta: complex, x0) -> complex:
    return Oracle(ham, beta).reduced_correlation(x0)

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
polymers. A bond set is a bitmask throughout `Oracle` (bit i for bond
i): the memo, the spectra and the subfamily sums are keyed by it, and
its bonds are visited in ascending order. Z also factorizes: bonds that
share no site act on separate tensor factors, so Z of a bond set is the
product of Z over its connected components (bonds joined by shared
sites), and only connected sets are diagonalized.

The spectrum of a bond set does not depend on beta. Z and Gibbs traces
are sums over it: over the energy table of a classical set, or over the
eigenvalues and eigenvectors of a quantum matrix. A quantum H_B is built
by adding each bond's operator in place to one zero matrix through
`model._embed_matrix`, the strided view of the entries op (x) I reaches
(`model._placement`, shared by position, not per oracle), with the bits of
a sum of `embed_matrix` terms.
A quantum matrix of `_SPLIT_DIM` rows or more is split into the
connected components of its own nonzero pattern (the sectors of any
conserved quantity it has), and its spectrum is memoized per (bond
mask, support), so Z, expectations and the oracles that `Oracle.at`
makes for other betas share it. A smaller matrix is one block and is
built again when asked: splitting or keeping it costs more than it saves.

A value past the float range is a `NumericalError`, raised by the one
exit `_finite` (series values too), never inf or nan with a numpy warning.
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
    _check_hamiltonian,
    _embed_matrix,
    _local_operator,
    _site_axes,
    _site_ordered,
    as_bond,
    as_site,
    site_set,
)
from .numeric import _array, _cast
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
    """A local observable: a table (classical) or matrix (quantum) on a
    bond, given by its sorted sites. `order` holds the same sites in the
    order the data's axes follow when that is not sorted (`make` records
    it), and is empty otherwise; `_check_observable` permutes such data
    into sorted-site order once the volume's q is known."""

    support: Bond
    data: np.ndarray
    order: Bond = ()

    def __post_init__(self):
        if as_bond(self.support) != tuple(self.support):
            raise ConfigError(f"the observable's sites {self.support} are not a sorted bond")
        if self.order and as_bond(self.order) != self.support:
            raise ConfigError(f"the sites {self.order} are not an order of {self.support}")
        object.__setattr__(self, "data", _array(self.data, "the observable"))

    @classmethod
    def make(cls, sites, data) -> "Observable":
        """An observable whose data follows `sites` in the order given.

        The sites are sorted, and an unsorted order is kept in `order`: the
        data can be read as a table or a matrix only once q is known, so it
        is permuted by `_check_observable`, as terms are when q is given.
        """
        given = tuple(as_site(s) for s in sites)
        support = as_bond(given)
        return cls(support=support, data=data, order=() if given == support else given)


def _check_dim(q: int, nsites: int, kind: str):
    cap = MAX_DENSE_DIM if kind == CLASSICAL else MAX_QUANTUM_DIM
    if q**nsites > cap:
        raise NumericalError(f"exact oracle refused: q^{nsites} states exceeds {cap}")


def _finite(what: str, compute, *args, beta=None):
    """`compute(*args)` with numpy's overflow and invalid-value warnings
    off, refused by a NumericalError naming `what` (and `beta`, if given)
    unless every value is finite. The one exit of an oracle or series value
    that may leave the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = compute(*args)
    if not (cmath.isfinite(val) if isinstance(val, complex) else np.isfinite(val).all()):
        at = "" if beta is None else f" at beta = {beta}"
        raise NumericalError(f"{what} is not finite{at}")
    return val


def _alternating_sum(mask: int, term):
    """Sum of (-1)^{|B| - |sub|} term(sub) over the submasks sub of the bond
    mask B.

    Submasks are taken by size and then in `itertools.combinations` order
    of the ascending bond ids, and added to 0j one at a time. More than 20
    bonds is refused.
    """
    bits = [1 << i for i in _bits(mask)]
    n = len(bits)
    if n > 20:
        raise NumericalError("inclusion-exclusion over more than 2^20 subfamilies")
    acc = 0j
    for r in range(n + 1):
        sign = (-1) ** (n - r)
        for sub in itertools.combinations(bits, r):
            acc = acc + sign * term(sum(sub))
    return acc


def _rooted_sums(z, sets, root, top) -> dict:
    """K(S) = top(S) - sum_T K(T) z(S minus T) for each site set S of
    `sets`, solved in order of size, where T runs over the sets before S
    with the same `root(T)` that lie strictly inside S, in that order.

    This is Park's decoupling solved for its rooted terms: z(U) is the
    partition function of the bonds inside the site set U, the sum over
    families of site-disjoint polymers inside U of their activity
    products. `ks` roots each polymer support at its smallest site m,
    with top(S) = Z_S - Z_{S minus m}, the families that meet m;
    `series.expectation_series` roots every site set at the observable's
    support X0, with top(S) the A-weighted trace over the bonds inside S.
    """
    sums: dict = {}
    rooted: dict = {}  # the sets done so far, by their root
    for s in sorted(sets, key=len):
        r = root(s)
        acc = top(s)
        for t in rooted.setdefault(r, []):
            if t < s:
                acc -= sums[t] * z(s - t)
        sums[s] = acc
        rooted[r].append(s)
    return sums


def _check_observable(ham: Hamiltonian, obs: Observable) -> Observable:
    """`obs` with its data in sorted-site order, refused if it is not an
    `Observable`, or is off the volume or of the wrong shape for `ham`.
    Data on sites written out of order is permuted here by
    `model._site_ordered`, with the volume's q."""
    if not isinstance(obs, Observable):
        raise ConfigError(f"the observable must be an Observable, got {type(obs).__name__}")
    _check_hamiltonian(ham).volume_sites(obs.support)
    nsites = len(obs.support)
    _local_operator(obs.data, nsites, ham.q, ham.kind, "the observable", hermitian=False)
    if not obs.order:
        return obs
    data = obs.data.reshape(-1) if ham.kind == CLASSICAL else obs.data
    return Observable(obs.support, _site_ordered(data, obs.order, ham.q))


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

    A bond set is a bitmask inside the oracle: bit i is bond i, and bonds
    are visited in ascending order. `_mask` is the one check of a caller's
    bond ids, which must be integers in range(len(ham.bonds)); anything
    else is a ConfigError. Partition functions are memoized by mask. A
    connected set is computed on the union of its supports; any other set
    is the product of its components' values. Classical activities use a
    table e^{-beta Phi_X} - 1 per bond, built on first use and kept. Every
    value returned passes `_finite`: one that leaves the float range is a
    NumericalError, with no numpy warning.
    """

    def __init__(self, ham: Hamiltonian, beta: complex):
        self.ham = _check_hamiltonian(ham)
        self.beta = _cast(beta, "beta", complex)
        self._z: dict[int, complex] = {}
        self._spectra: dict = {}
        self._mayer_tables: dict[int, np.ndarray] = {}
        self._inside_masks: dict[frozenset, int] = {}
        self._adj = _overlap_masks(ham.bonds)
        # Dense operators take the ops' own dtype: float64 when every
        # term is exactly real, so eigh runs the real symmetric solver.
        self._dtype = np.result_type(float, *{op.dtype for op in ham.ops})

    def at(self, beta: complex) -> "Oracle":
        """An oracle for the same Hamiltonian at another beta that shares
        this one's memoized spectra, so a beta grid diagonalizes each large
        bond set once. Bond placements are shared by position, not per
        oracle. Its values are a fresh one's."""
        other = Oracle(self.ham, beta)
        other._spectra = self._spectra
        return other

    # -- building blocks ----------------------------------------------------

    def _mask(self, bond_ids) -> int:
        """Bitmask of the bond ids `bond_ids`, refusing anything that is not
        an iterable of integers in range(len(ham.bonds)) (booleans
        included). The one check of a caller's bond ids."""
        n = len(self.ham.bonds)
        try:
            ids = iter(bond_ids)
        except TypeError:
            raise ConfigError(
                f"bond ids must be an iterable of integers in range({n}), got {bond_ids!r}"
            ) from None
        mask = 0
        for i in ids:
            # True == 1 and 1.0 == 1, so the type is checked first.
            if not (type(i) is int or isinstance(i, np.integer)) or not 0 <= i < n:
                raise ConfigError(f"bond ids must be integers in range({n}), got {i!r}")
            mask |= 1 << int(i)
        return mask

    def _finite(self, what: str, compute, *args):
        """`_finite`, naming this oracle's beta in the refusal."""
        return _finite(what, compute, *args, beta=self.beta)

    def _support(self, mask: int, support) -> tuple[Site, ...]:
        """`support` as a sorted tuple of volume sites that holds every site
        of the bonds of `mask` (checked), or the bonds' sites if None;
        anything else is a ConfigError. The one check of a caller's support."""
        if support is None:
            return self.ham.support(_bits(mask))
        sites = self.ham.volume_sites(support)
        missing = {s for i in _bits(mask) for s in self.ham.bonds[i]}.difference(sites)
        if missing:
            raise ConfigError(f"support {sorted(sites)} misses the bond sites {sorted(missing)}")
        return tuple(sorted(sites))

    def hamiltonian_on(self, bond_ids, support=None) -> tuple[tuple[Site, ...], np.ndarray]:
        """(support, total operator of the given bonds on it), summed in
        ascending bond order: broadcast tables (classical) or in-place
        placements (quantum, see the module docstring). `support` defaults
        to the bonds' sites, is taken sorted, and must be sites of the
        volume that hold every site of the bonds; anything else is a
        ConfigError."""
        mask = self._mask(bond_ids)
        support = self._support(mask, support)
        return support, self._on(mask, support)

    def _on(self, mask: int, support) -> np.ndarray:
        """`hamiltonian_on` of a mask and a support already checked."""
        q, ham = self.ham.q, self.ham
        _check_dim(q, len(support), ham.kind)
        if ham.kind == CLASSICAL:
            total = np.zeros((q,) * len(support))
            for i in _bits(mask):
                total = total + _site_axes(ham.ops[i], ham.bonds[i], support, q)
            return total.ravel()
        dim = q ** len(support)
        total = np.zeros((dim, dim), dtype=self._dtype)
        for i in _bits(mask):
            _embed_matrix(ham.ops[i], ham.bonds[i], support, q, total)
        return total

    def _spectrum(self, mask: int, support) -> "_Spectrum":
        """The `_Spectrum` of a quantum H_B on `support`, memoized by
        (mask, support) from `_SPLIT_DIM` rows on; a smaller one costs less
        to build again than to keep. `mask` and `support` are checked."""
        if self.ham.q ** len(support) < _SPLIT_DIM:
            return _Spectrum(self._on(mask, support))
        key = (mask, support)
        spectrum = self._spectra.get(key)
        if spectrum is None:
            spectrum = self._spectra[key] = _Spectrum(self._on(mask, support))
        return spectrum

    def boltzmann(self, bond_ids, support=None) -> tuple[tuple[Site, ...], np.ndarray]:
        """exp(-beta H_B) on `support` (table for classical, matrix for
        quantum), refused as in `hamiltonian_on`, and by a NumericalError
        where an entry leaves the float range."""
        mask = self._mask(bond_ids)
        support = self._support(mask, support)
        return support, self._finite("Boltzmann weight", self._boltzmann, mask, support)

    def _boltzmann(self, mask: int, support) -> np.ndarray:
        """`boltzmann` of a mask and a support already checked."""
        total = self._on(mask, support)
        if self.ham.kind == CLASSICAL:
            return np.exp(-self.beta * total)
        w, v = np.linalg.eigh(total)
        return (v * np.exp(-self.beta * w)) @ v.conj().T

    # -- partition functions ------------------------------------------------

    def z(self, bond_ids=None) -> complex:
        """Normalized-trace partition function of a bond subset (every bond
        if None). The ids are checked before the memo is read."""
        full = (1 << len(self.ham.bonds)) - 1
        return self._z_mask(full if bond_ids is None else self._mask(bond_ids))

    def _z_mask(self, mask: int) -> complex:
        """`z` of a checked mask, read from the memo or computed and kept.

        A connected set sums exp(-beta E) over its spectrum; one of several
        components is the product of their values, taken in the order of
        their lowest bond id.
        """
        val = self._z.get(mask)
        if val is None:
            val = self._z[mask] = self._finite("partition function", self._z_new, mask)
        return val

    def _z_new(self, mask: int) -> complex:
        """Z of a checked mask that is not in the memo."""
        parts = _components(self._adj, mask)
        if len(parts) == 1:
            support = self.ham.support(_bits(mask))
            if self.ham.kind == CLASSICAL:
                energies = self._on(mask, support)
            else:
                energies = self._spectrum(mask, support).energies()
            return complex(np.mean(np.exp(-self.beta * energies)))
        val = self._z_mask(parts[0]) if parts else 1.0 + 0.0j
        for part in parts[1:]:
            val = val * self._z_mask(part)
        return val

    def z_avoiding(self, x0) -> complex:
        """Partition function with every bond meeting the site set x0 removed:
        Z of the bonds inside the other sites of the volume."""
        return self._z_inside(frozenset(self.ham.sites) - self.ham.volume_sites(x0))

    def _inside(self, sites: frozenset) -> int:
        """Mask of the bonds inside the site set `sites` of the volume, the
        bonds that avoid every other site, memoized by site set."""
        mask = self._inside_masks.get(sites)
        if mask is None:
            mask = 0
            for i, b in enumerate(self.ham.bonds):
                if sites.issuperset(b):
                    mask |= 1 << i
            self._inside_masks[sites] = mask
        return mask

    def _z_inside(self, sites: frozenset) -> complex:
        """Z of the bonds inside the site set `sites` of the volume."""
        return self._z_mask(self._inside(sites))

    def reduced_correlation(self, x0) -> complex:
        """g(X0) = Z with bonds meeting X0 removed, over the full Z."""
        denom = self.z()
        if denom == 0:
            raise NumericalError("partition function vanished; correlation undefined")
        return self.z_avoiding(x0) / denom

    # -- fugacities and expectations ----------------------------------------

    def _mayer(self, mask: int, support) -> np.ndarray:
        """prod over the bonds of `mask`, ascending, of e^{-beta Phi_X} - 1,
        as a classical table with the axes of `support` (see `_site_axes`).

        The caller has checked `mask` and runs this through `_finite`.
        Refused past the dense cap on `support`.
        """
        ham, q, tables = self.ham, self.ham.q, self._mayer_tables
        _check_dim(q, len(support), CLASSICAL)
        acc = None
        for i in _bits(mask):
            table = tables.get(i)
            if table is None:
                table = tables[i] = np.expm1(-self.beta * ham.ops[i])
            factor = _site_axes(table, ham.bonds[i], support, q)
            acc = factor if acc is None else acc * factor
        return np.ones((), dtype=complex) if acc is None else acc

    def _mayer_mean(self, mask: int, support) -> complex:
        """The classical activity: the mean of `_mayer` over `support`."""
        table = self._mayer(mask, support)
        return complex(table.sum()) / table.size

    def xi(self, bond_ids) -> tuple[tuple[Site, ...], np.ndarray]:
        """Fugacity operator of a bond family, on the union support of B.

        Quantum: sum over subfamilies B' of B of (-1)^{|B| - |B'|}
        exp(-beta H_{B'}), refused past 20 bonds. Classical: the same sum
        factorizes into the Mayer product prod_{X in B} (e^{-beta Phi_X} - 1),
        which is what is built. For a family that is not connected it is the
        tensor product of its components' fugacity operators, so its
        normalized trace `rho` is the product of theirs.
        """
        mask = self._mask(bond_ids)
        support = self.ham.support(_bits(mask))
        if self.ham.kind == CLASSICAL:
            return support, self._finite("fugacity", self._mayer, mask, support).flatten()
        _check_dim(self.ham.q, len(support), self.ham.kind)
        return support, self._finite(
            "fugacity", _alternating_sum, mask, lambda sub: self._boltzmann(sub, support)
        )

    def rho(self, bond_ids) -> complex:
        """Normalized trace of the fugacity operator.

        Quantum: the inclusion-exclusion over the Z memo, refused past 20
        bonds. Classical: the mean of the Mayer product over the support of
        the family, refused only past the dense cap on that support.
        """
        mask = self._mask(bond_ids)
        if self.ham.kind != CLASSICAL:
            return self._finite("activity", _alternating_sum, mask, self._z_mask)
        return self._finite("activity", self._mayer_mean, mask, self.ham.support(_bits(mask)))

    def expectation(self, obs: Observable) -> complex:
        """Gibbs expectation tr(A exp(-beta H)) / Z on the full region."""
        obs = _check_observable(self.ham, obs)
        z = self.z()
        if z == 0:
            raise NumericalError("partition function vanished; expectation undefined")
        full = (1 << len(self.ham.bonds)) - 1
        return self._finite("Gibbs trace", self._trace, obs, full, self.ham.sites) / z

    def weighted_trace(self, obs: Observable, bond_ids, support) -> complex:
        """tr(A exp(-beta H_B)) on a fixed support (not divided by Z).

        Quantum: the sum over blocks of e^{-beta E_k} (V^H A V)_kk, so only
        the diagonal blocks of A enter, and no exp(-beta H) is formed. The
        observable is refused as in `expectation`, and `support` and the
        observable's sites as in `hamiltonian_on`.
        """
        obs = _check_observable(self.ham, obs)
        mask = self._mask(bond_ids)
        support = self._support(mask, site_set(support).union(obs.support))
        return self._finite("Gibbs trace", self._trace, obs, mask, support)

    def _trace(self, obs: Observable, mask: int, support) -> complex:
        """`weighted_trace` of an observable, a mask and a support already
        checked."""
        q = self.ham.q
        if self.ham.kind == CLASSICAL:
            a = np.broadcast_to(_site_axes(obs.data, obs.support, support, q), (q,) * len(support))
            return complex(np.mean(a.ravel() * np.exp(-self.beta * self._on(mask, support))))
        spectrum = self._spectrum(mask, support)
        a = _embed_matrix(obs.data, obs.support, support, q)
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

"""Lattice spin models with finite-range multi-body interactions.

Sites are integer coordinate tuples. A bond is a sorted tuple of distinct
sites together with a local operator acting on them: a real table of
length q^k for classical models (the diagonal of the interaction in the
product basis), or a Hermitian q^k x q^k matrix for quantum models.

Tensor index convention: local state spaces are ordered by sorting the
sites lexicographically, and flattened row-major, so the largest site is
the fastest-varying index. Four functions spell the convention out:
`_site_axes` lifts a local table onto a larger site set and `_placement`
gives the strided view a local matrix takes there, cached by position;
`_relabel` renames the sites of one (periodic wrapping), and
`_contract_outside` traces sites out of one (the product boundary).
Everything else goes through them (`embed_table` and classical
`Oracle.hamiltonian_on` through `_site_axes`, `embed_matrix` and quantum
`Oracle.hamiltonian_on` through `_embed_matrix`, the one reader of
`_placement`).

A `Hamiltonian` is the result of assembling an interaction on a finite
region under one of three boundary conditions:

- free: keep bonds contained in the region;
- periodic: wrap bonds around a box, merging operators whose wrapped
  supports collide;
- product: contract bonds sticking out of the region against a product
  state, one single-site factor per outside site.

The assembled object is independent of the inverse temperature.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import ConfigError, WrapError
from .numeric import _array, _cast

Site = tuple[int, ...]
Bond = tuple[Site, ...]

CLASSICAL = "classical"
QUANTUM = "quantum"

__all__ = [
    "Site",
    "Bond",
    "CLASSICAL",
    "QUANTUM",
    "as_site",
    "as_bond",
    "site_set",
    "operator_norm",
    "embed_table",
    "embed_matrix",
    "Interaction",
    "LatticeModel",
    "Region",
    "Hamiltonian",
    "assemble_hamiltonian",
    "ising_model",
    "potts_model",
    "heisenberg_model",
    "xy_model",
]


def _iterable(x, what: str):
    try:
        return iter(x)
    except TypeError:
        raise ConfigError(f"{what} must be a list, got {x!r}") from None


def as_site(coords) -> Site:
    """Coerce an integer or an iterable of integers to a site tuple."""
    if isinstance(coords, (int, np.integer)):
        coords = (coords,)
    return tuple(_cast(c, "a site coordinate", int) for c in _iterable(coords, "a site"))


def site_set(x0) -> frozenset[Site]:
    """Coerce a site or an iterable of sites to a frozenset of sites."""
    if isinstance(x0, tuple) and x0 and all(isinstance(c, (int, np.integer)) for c in x0):
        return frozenset([as_site(x0)])
    return frozenset(as_site(s) for s in _iterable(x0, "a site set"))


def as_bond(sites) -> Bond:
    """Coerce an iterable of sites to a canonical (sorted) bond."""
    out = tuple(sorted(as_site(s) for s in sites))
    if len(set(out)) != len(out):
        raise ConfigError(f"bond has repeated sites: {out}")
    if not out:
        raise ConfigError("bond must contain at least one site")
    dims = {len(s) for s in out}
    if len(dims) != 1:
        raise ConfigError(f"bond mixes site dimensions: {out}")
    return out


def operator_norm(data) -> float:
    """Operator norm of a local term.

    Largest singular value for a matrix, max absolute entry for a
    diagonal table. `data` is read by `_array`; an array of any other
    number of dimensions is refused.
    """
    arr = _array(data, "the operator")
    if arr.ndim not in (1, 2):
        raise ConfigError(f"the operator must be a table or a matrix, got {arr.ndim} dimensions")
    return _norm(arr)


def _norm(arr: np.ndarray) -> float:
    """`operator_norm` of an array already checked (an assembled op)."""
    if arr.ndim == 1:
        return float(np.max(np.abs(arr))) if arr.size else 0.0
    return float(np.linalg.norm(arr, 2))


def _real_if_exact(arr: np.ndarray) -> np.ndarray:
    """A float64 copy of a complex array whose imaginary part is exactly zero.

    Any other array is returned as it is. Real operators let the oracle
    run the real symmetric eigensolvers, at a fraction of the cost of
    the complex Hermitian ones.
    """
    if np.iscomplexobj(arr) and np.abs(arr.imag).max(initial=0.0) == 0.0:
        return arr.real.copy()
    return arr


def _site_axes(table: np.ndarray, support: Bond, sites: Bond, q: int) -> np.ndarray:
    """A diagonal table on `support` with one axis per site of `sites`.

    The axes of `support` have length q and the others length 1, so the
    result broadcasts against a (q,) * len(sites) array. `support` and
    `sites` are both sorted, so no axis permutation is needed.
    """
    inside = set(support)
    return np.asarray(table).reshape(tuple(q if s in inside else 1 for s in sites))


def embed_table(table, support: Bond, sites: Bond, q: int) -> np.ndarray:
    """Embed a diagonal table living on `support` into `sites`.

    Returns a vector of length q^len(sites). `support` must be a
    subsequence of `sites` (both sorted). `table` is read by `_array`.
    """
    table = _local_operator(table, len(support), q, CLASSICAL, "the embedded table",
                            hermitian=False)
    return np.broadcast_to(_site_axes(table, support, sites, q), (q,) * len(sites)).ravel()


@cache
def _placement(at: tuple[int, ...], n: int, q: int, itemsize: int):
    """(shape, strides, op shape) of the view of a C-ordered (q^n, q^n)
    matrix on n sites that holds the entries op (x) I reaches, for op on
    the sites at the ascending positions `at` of the n: op reshaped to the
    op shape broadcasts onto the view. Strides are in bytes of `itemsize`.
    With step the stride of a site's index and dim = q^n, a site off the
    bond gets one axis of stride step (dim + 1), a bond site a row axis of
    stride step dim and a column axis of stride step; adjacent axes that
    walk memory as one are merged. Cached: the key holds no site and no op.
    """
    inside = set(at)
    dim = q ** n
    step, rows, cols = dim * itemsize, [], []
    for j in range(n):
        step //= q
        if j in inside:
            rows.append((q, step * dim, q))
            cols.append((q, step, q))
        else:
            rows.append((q, step * (dim + 1), 1))
    axes = []
    for length, stride, part in rows + cols:
        if axes and axes[-1][1] == length * stride:
            axes[-1] = (axes[-1][0] * length, stride, axes[-1][2] * part)
        else:
            axes.append((length, stride, part))
    return tuple(zip(*axes))


def embed_matrix(mat, support: Bond, sites: Bond, q: int) -> np.ndarray:
    """Embed a matrix living on `support` into `sites` (tensor with identities).

    `support` must be a subsequence of `sites` (both sorted). `mat` is
    read by `_array`; the result takes its dtype.
    """
    mat = _array(mat, "the embedded matrix")
    dim = q ** len(support)
    if mat.shape != (dim, dim):
        raise ConfigError(f"the embedded matrix has shape {mat.shape}, not {dim}x{dim}")
    inside = set(support)
    if tuple(s for s in sites if s in inside) != tuple(support):
        raise ConfigError(f"support {support} is not a subsequence of the sites {sites}")
    return _embed_matrix(mat, support, sites, q)


def _embed_matrix(mat: np.ndarray, support: Bond, sites: Bond, q: int, out=None) -> np.ndarray:
    """`embed_matrix` of a matrix and sites already checked, added in place
    into `out` (C-ordered, on `sites`) when one is given."""
    if out is None:
        out = np.zeros((q ** len(sites),) * 2, mat.dtype)
    shape, strides, op_shape = _placement(tuple(map(sites.index, support)), len(sites), q,
                                          out.itemsize)
    view = np.ndarray(shape, out.dtype, out, 0, strides)
    view += mat.reshape(op_shape)
    return out


def _relabel(data: np.ndarray, old: Bond, site_map: Mapping[Site, Site], q: int):
    """Relabel the sites of a table (ndim 1) or a matrix; returns (new_bond, data)."""
    arr = np.asarray(data)
    k = len(old)
    new = tuple(sorted(site_map[s] for s in old))
    perm = [old.index(next(s for s in old if site_map[s] == t)) for t in new]
    if arr.ndim == 1:
        return new, arr.reshape((q,) * k).transpose(perm).ravel()
    dim = q**k
    full = perm + [k + p for p in perm]
    return new, arr.reshape((q,) * (2 * k)).transpose(full).reshape(dim, dim)


def _site_ordered(arr: np.ndarray, given: tuple[Site, ...], q: int) -> np.ndarray:
    """`arr`, a flat table or a matrix written on the sites `given` in that
    order, with its axes permuted into sorted-site order by `_relabel` with
    the identity site map, read-only. The one reading of data on sites in
    any order, behind terms, templates and observables alike."""
    if list(given) == sorted(given):
        return arr
    arr = _relabel(arr, given, {s: s for s in given}, q)[1]
    arr.setflags(write=False)
    return arr


def _local_operator(data, nsites: int, q: int, kind: str, where: str, hermitian: bool = True):
    """`data` by `_array` as a read-only operator on `nsites` sites of q
    states: a flat table of q^nsites entries, real if `hermitian` (classical),
    or a matrix of q^nsites rows, Hermitian if `hermitian` and float64 where
    exactly real (quantum). Anything else is a ConfigError naming `where`."""
    arr = _array(data, where)
    dim = q**nsites
    if kind == CLASSICAL:
        if arr.size != dim:
            raise ConfigError(f"{where} has {arr.size} entries, not one per state ({dim}); "
                              "a two-number list is read as one [re, im] value")
        if hermitian and np.iscomplexobj(arr):
            if np.max(np.abs(arr.imag)) > 1e-12:
                raise ConfigError(f"{where} is a classical table and must be real")
            arr = arr.real.copy()
        arr = arr.reshape(-1)
    elif kind == QUANTUM:
        if arr.shape != (dim, dim):
            raise ConfigError(f"{where} has shape {arr.shape}, not that of {dim}x{dim} matrices")
        if hermitian:
            scale = max(1.0, float(np.max(np.abs(arr))))
            if np.max(np.abs(arr - arr.conj().T)) > 1e-12 * scale:
                raise ConfigError(f"{where} is not Hermitian")
        arr = _real_if_exact(arr)
    else:
        raise ConfigError(f"unknown kind {kind!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Interaction:
    """A finite collection of bonds with local operators.

    `terms` maps canonical bonds to validated arrays. Bonds may involve
    any sites; assembly against a region decides what is interior and
    what sticks out.
    """

    q: int
    kind: str
    terms: Mapping[Bond, np.ndarray]

    @classmethod
    def from_terms(cls, q: int, kind: str, terms) -> "Interaction":
        q = _cast(q, "q", int, least=2)
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        out: dict[Bond, np.ndarray] = {}
        for sites, data in items:
            given = tuple(as_site(s) for s in _iterable(sites, "a bond"))
            b = as_bond(given)
            if b in out:
                raise ConfigError(f"duplicate term on bond {b}")
            arr = _local_operator(data, len(b), q, kind, f"the term on {b}")
            out[b] = _site_ordered(arr, given, q)
        return cls(q=q, kind=kind, terms=out)

    def bonds(self) -> tuple[Bond, ...]:
        return tuple(sorted(self.terms, key=lambda b: (len(b), b)))

    def norm(self, bond: Bond) -> float:
        return _norm(self.terms[bond])


@dataclass(frozen=True)
class LatticeModel:
    """A translation-invariant interaction on Z^d.

    Each template is a pair (offsets, data) where offsets is a canonical
    bond whose minimum is the origin. Translating a template by every
    lattice vector generates the interaction.
    """

    dimension: int
    q: int
    kind: str
    templates: tuple[tuple[Bond, np.ndarray], ...]

    @classmethod
    def from_templates(cls, dimension: int, q: int, kind: str, templates):
        dimension = _cast(dimension, "dimension", int, least=1)
        q = _cast(q, "q", int, least=2)
        canon = []
        for offsets, data in templates:
            given = tuple(as_site(s) for s in _iterable(offsets, "a bond"))
            b = as_bond(given)
            base = b[0]
            b = tuple(tuple(c - base[i] for i, c in enumerate(s)) for s in b)
            if any(len(s) != dimension for s in b):
                raise ConfigError(
                    f"template {b} does not match dimension {dimension}"
                )
            arr = _local_operator(data, len(b), q, kind, f"the term on {b}")
            canon.append((b, _site_ordered(arr, given, q)))
        return cls(dimension=dimension, q=q, kind=kind, templates=tuple(canon))

    def range(self) -> int:
        """Max coordinate spread of any template."""
        r = 0
        for offsets, _ in self.templates:
            for axis in range(self.dimension):
                r = max(r, max(s[axis] for s in offsets) - min(s[axis] for s in offsets))
        return r

    def window(self, max_bonds: int) -> "Hamiltonian":
        """The free box of radius max_bonds * max(1, range) around the origin.

        It holds every polymer of at most `max_bonds` bonds through the
        origin, and so every cluster through it within that order budget.
        """
        radius = max_bonds * max(1, self.range())
        sites = itertools.product(*(range(-radius, radius + 1) for _ in range(self.dimension)))
        return assemble_hamiltonian(self, Region.from_sites(sites), boundary="free")

    def bonds_at(self, anchor: Site):
        """Translates of each template anchored (minimum site) at `anchor`."""
        for offsets, data in self.templates:
            bond = tuple(tuple(a + o for a, o in zip(anchor, off)) for off in offsets)
            yield bond, data


@dataclass(frozen=True)
class Region:
    """A finite set of sites, optionally a box with a declared extent."""

    sites: tuple[Site, ...]
    extent: tuple[int, ...] | None = None

    @classmethod
    def box(cls, extent) -> "Region":
        extent = tuple(_cast(x, f"extent[{i}]", int, least=1) for i, x in enumerate(extent))
        sites = tuple(itertools.product(*(range(x) for x in extent)))
        return cls(sites=sites, extent=extent)

    @classmethod
    def from_sites(cls, sites) -> "Region":
        out = tuple(sorted({as_site(s) for s in sites}))
        if not out:
            raise ConfigError("region must contain at least one site")
        if len(dims := {len(s) for s in out}) != 1:
            raise ConfigError(f"region mixes sites of dimensions {sorted(dims)}")
        return cls(sites=out)

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(sorted(self.sites)))

    def __contains__(self, s: Site) -> bool:
        return s in set(self.sites)

    def __len__(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class Hamiltonian:
    """An assembled, temperature-independent interaction on a finite region.

    Bonds are in canonical order (by size, then lexicographic), with the
    effective operator and its norm aligned by index. `meta` records how
    many bonds were interior, wrapped, contracted against the boundary
    state, merged on colliding supports, or dropped as numerically zero.

    `ops` are read-only arrays. Classical tables are float64. A quantum
    matrix is float64 when its imaginary part is exactly zero after
    assembly (Heisenberg, XY, any real custom term) and complex128
    otherwise, so one Hamiltonian may hold both.
    """

    q: int
    kind: str
    sites: tuple[Site, ...]
    bonds: tuple[Bond, ...]
    ops: tuple[np.ndarray, ...]
    norms: tuple[float, ...]
    boundary: str = "free"
    meta: Mapping[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.bonds)

    def bond_index(self, bond) -> int:
        return self.bonds.index(as_bond(bond))

    def support(self, bond_ids: Iterable[int]) -> tuple[Site, ...]:
        out: set[Site] = set()
        for i in bond_ids:
            out.update(self.bonds[i])
        return tuple(sorted(out))

    def volume_sites(self, x0) -> frozenset[Site]:
        """`site_set(x0)`, refusing any site that is not in the volume."""
        sites = site_set(x0)
        outside = sites.difference(self.sites)
        if outside:
            raise ConfigError(f"sites {sorted(outside)} are not in the volume")
        return sites

    def restricted_away(self, x0) -> "Hamiltonian":
        """Drop every bond whose support meets the site set `x0`.

        The sites stay; under the normalized trace, free sites do not
        change any partition function.
        """
        x0 = self.volume_sites(x0)
        keep = [i for i, b in enumerate(self.bonds) if x0.isdisjoint(b)]
        return replace(
            self,
            bonds=tuple(self.bonds[i] for i in keep),
            ops=tuple(self.ops[i] for i in keep),
            norms=tuple(self.norms[i] for i in keep),
        )


def _check_hamiltonian(ham) -> Hamiltonian:
    """`ham`, refused unless it is an assembled `Hamiltonian` (a lattice
    model must first be assembled on a region)."""
    if not isinstance(ham, Hamiltonian):
        raise ConfigError(f"needs an assembled Hamiltonian, got {type(ham).__name__}")
    return ham


def _validate_theta(theta, q: int, kind: str) -> np.ndarray:
    if theta is None:
        return np.full(q, 1.0 / q) if kind == CLASSICAL else np.eye(q, dtype=complex) / q
    arr = _local_operator(theta, 1, q, kind, "the boundary state")
    if kind == CLASSICAL:
        if np.any(arr < -1e-12):
            raise ConfigError("boundary state has negative probabilities")
        if abs(arr.sum() - 1.0) > 1e-10:
            raise ConfigError("boundary state probabilities must sum to 1")
        return arr
    arr = arr.astype(complex)
    if abs(np.trace(arr) - 1.0) > 1e-10:
        raise ConfigError("boundary state must have trace 1")
    if np.min(np.linalg.eigvalsh(arr)) < -1e-10:
        raise ConfigError("boundary state must be positive semidefinite")
    return arr


def _contract_outside(data, bond: Bond, inside: set, theta: np.ndarray, q: int, kind: str):
    """Contract the sites of `bond` outside `inside` against the product state.

    Returns (inner_bond, array on the inner sites).
    """
    keep = tuple(s for s in bond if s in inside)
    out_positions = [i for i, s in enumerate(bond) if s not in inside]
    if kind == CLASSICAL:
        t = np.asarray(data).reshape((q,) * len(bond))
        for pos in sorted(out_positions, reverse=True):
            t = np.tensordot(t, theta, axes=([pos], [0]))
        return keep, t.ravel()
    k = len(bond)
    t = np.asarray(data).reshape((q,) * (2 * k))
    support = list(bond)
    for s in [bond[i] for i in out_positions]:
        pos = support.index(s)
        kk = len(support)
        # rows first, then columns: contract row axis with theta's second
        # index and column axis with the first (trace of (1 (x) theta) op)
        t = np.tensordot(t, theta, axes=([pos, kk + pos], [1, 0]))
        support.pop(pos)
    dim = q ** len(keep)
    return keep, t.reshape(dim, dim)


def _iter_source_bonds(source, region: Region, margin: int):
    """Yield (bond, data) candidates whose support can meet the region."""
    if isinstance(source, Interaction):
        yield from source.terms.items()
        return
    if not isinstance(source, LatticeModel):
        raise ConfigError(f"cannot assemble from {type(source).__name__}")
    if not region.sites:
        return
    dim = len(region.sites[0])
    if dim != source.dimension:
        raise ConfigError(f"region sites have dimension {dim}, model has {source.dimension}")
    lo = [min(s[i] for s in region.sites) - margin for i in range(dim)]
    hi = [max(s[i] for s in region.sites) + 1 for i in range(dim)]
    for anchor in itertools.product(*(range(a, b) for a, b in zip(lo, hi))):
        yield from source.bonds_at(anchor)


def assemble_hamiltonian(source, region: Region, boundary: str = "free", theta=None) -> Hamiltonian:
    """Build the effective Hamiltonian of `source` on `region`.

    source : Interaction or LatticeModel
    boundary : "free", "periodic", or "product"
    theta : product-state factor for the "product" boundary; defaults to
        the uniform distribution (classical) or the maximally mixed state
        (quantum). Ignored otherwise.

    Periodic assembly needs a LatticeModel and a box region; bonds are
    wrapped modulo the extent, one representative per translation class.
    A wrap that folds a bond onto itself raises WrapError. Effective
    operators landing on the same support are summed, and bonds whose
    operator is numerically zero are dropped.
    """
    if boundary not in ("free", "periodic", "product"):
        raise ConfigError(f"unknown boundary condition {boundary!r}")
    extent = region.extent
    if boundary == "periodic":
        if not isinstance(source, LatticeModel):
            raise ConfigError("periodic boundary requires a translation-invariant model")
        if extent is None or len(region.sites) != math.prod(extent):
            raise ConfigError("periodic boundary requires a full box region")
    q, kind = source.q, source.kind
    inside = set(region.sites)
    th = _validate_theta(theta, q, kind) if boundary == "product" else None
    # Only the product boundary reaches bonds anchored outside the region;
    # a periodic box anchors at range(extent), one bond per translation class.
    margin = source.range() if th is not None and isinstance(source, LatticeModel) else 0
    acc: dict[Bond, np.ndarray] = {}
    meta = {"interior": 0, "wrapped": 0, "contracted": 0, "merged": 0, "dropped": 0}
    for bond, data in _iter_source_bonds(source, region, margin):
        if all(s in inside for s in bond):
            how, arr = "interior", np.asarray(data)
        elif boundary == "periodic":
            wrap = {s: tuple(c % x for c, x in zip(s, extent)) for s in bond}
            if len(set(wrap.values())) != len(bond):
                raise WrapError(f"bond {bond} wraps onto itself on extent {extent}")
            how, (bond, arr) = "wrapped", _relabel(data, bond, wrap, q)
        elif th is not None and any(s in inside for s in bond):
            how, (bond, arr) = "contracted", _contract_outside(data, bond, inside, th, q, kind)
        else:
            continue
        meta[how] += 1
        meta["merged"] += bond in acc
        acc[bond] = acc[bond] + arr if bond in acc else np.array(arr)

    acc = {bond: _real_if_exact(arr) for bond, arr in acc.items()}
    bonds, ops, norms = [], [], []
    peak = max((_norm(a) for a in acc.values()), default=0.0)
    for bond in sorted(acc, key=lambda b: (len(b), b)):
        arr = acc[bond]
        w = _norm(arr)
        if w <= 1e-14 * max(1.0, peak):
            meta["dropped"] += 1
            continue
        arr.setflags(write=False)
        bonds.append(bond)
        ops.append(arr)
        norms.append(w)
    return Hamiltonian(
        q=q,
        kind=kind,
        sites=region.sites,
        bonds=tuple(bonds),
        ops=tuple(ops),
        norms=tuple(norms),
        boundary=boundary,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# standard models

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _nn_templates(dimension: int, coupling: float, op) -> list:
    """One template per axis of Z^d, each carrying coupling * op."""
    d = _cast(dimension, "dimension", int, least=1)
    data = _cast(coupling, "coupling", float) * op
    origin = (0,) * d
    out = []
    for axis in range(d):
        step = tuple(1 if i == axis else 0 for i in range(d))
        out.append(((origin, step), data))
    return out


def ising_model(dimension: int, coupling: float = 1.0, field_h: float = 0.0) -> LatticeModel:
    """Classical nearest-neighbor Ising model, Phi({x,y}) = -J s_x s_y.

    Spins take values +1, -1 (state 0 maps to +1). With field_h nonzero a
    single-site term -h s_x is added.
    """
    s = np.array([1.0, -1.0])
    templates = _nn_templates(dimension, coupling, -np.outer(s, s).ravel())
    field_h = _cast(field_h, "field_h", float)
    if field_h:
        origin = templates[0][0][0]
        templates.append(((origin,), -field_h * s))
    return LatticeModel.from_templates(dimension, 2, CLASSICAL, templates)


def potts_model(q: int, dimension: int, coupling: float = 1.0) -> LatticeModel:
    """Classical q-state Potts model, Phi({x,y}) = -J delta(s_x, s_y)."""
    q = _cast(q, "q", int, least=2)
    templates = _nn_templates(dimension, coupling, -np.eye(q).ravel())
    return LatticeModel.from_templates(dimension, q, CLASSICAL, templates)


def heisenberg_model(dimension: int, coupling: float = 1.0) -> LatticeModel:
    """Quantum spin-1/2 Heisenberg model, Phi({x,y}) = J sigma_x . sigma_y.

    Antiferromagnetic for J > 0. The pair operator has eigenvalues J on
    the triplet and -3J on the singlet, so its norm is 3|J|.
    """
    op = np.kron(_PAULI_X, _PAULI_X) + np.kron(_PAULI_Y, _PAULI_Y) + np.kron(_PAULI_Z, _PAULI_Z)
    templates = _nn_templates(dimension, coupling, op)
    return LatticeModel.from_templates(dimension, 2, QUANTUM, templates)


def xy_model(dimension: int, coupling: float = 1.0) -> LatticeModel:
    """Quantum spin-1/2 XY model, Phi({x,y}) = J (sx sx + sy sy)."""
    op = np.kron(_PAULI_X, _PAULI_X) + np.kron(_PAULI_Y, _PAULI_Y)
    templates = _nn_templates(dimension, coupling, op)
    return LatticeModel.from_templates(dimension, 2, QUANTUM, templates)

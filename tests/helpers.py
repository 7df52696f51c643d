"""Builders for randomized small instances shared across test modules.

Instances stay at <= 6 sites and <= 6 bonds so the dense oracle is
instant, and couplings are scaled inversely with |beta| so polymer
activities stay around a few percent: truncated cluster series then
reach rounding level at modest orders and the whole randomized suite
runs in seconds.

`ks_reference` keeps the per-subset hierarchy sweep that `ks_solve`
replaced, as the bit-for-bit reference of the vectorized solver.
`ks_rows_reference` keeps the `ks` command's filter of every solved subset,
sorted by size and sorted sites, as the reference of its rows. And
`embed_matrix_reference` keeps the identity-by-identity embedding that
`model.embed_matrix` replaced. `fp_phi_reference` and
`fp_iterate_reference` keep the memoized per-polymer recursion that the
compiled fixed-point evaluation replaced. `count_clusters_reference`
keeps the cluster count that built a size tuple for every connected set,
as the reference of the count by packed size keys.
`default_scalar_zeta_reference` keeps the grid-plus-golden search for the
default tree-form zeta that one golden-section search replaced.
`z_direct_reference` keeps the partition function of a bond set computed
on its whole support, as the reference of the product over components.
`weighted_trace_reference` keeps the Gibbs trace through one `eigh` of
the whole matrix and the matrix exp(-beta H), as the reference of the
trace over the blocked spectrum. `rho_reference` keeps the classical
activity as the inclusion-exclusion over the Z memo, as the reference of
the Mayer product. `ks_kernel_reference` keeps the exact hierarchy
kernel as the per-polymer sum of activities, as the reference of the
quantum kernel built from one Z per support. `expectation_reference`
keeps the local expectation as the per-family sum: for quantum volumes
of subfamily inclusion-exclusions over weighted traces, as the reference
of the sum over site sets; for classical ones of `Oracle.xi` re-axed
onto the observable's sites, as the reference of the Mayer product
built on them.
"""

from __future__ import annotations

import math

import numpy as np

from polymerion import (
    Interaction,
    KSKernel,
    LatticeModel,
    Observable,
    Oracle,
    Region,
    assemble_hamiltonian,
    enumerate_polymers,
)
from polymerion.convergence import _margins
from polymerion.model import CLASSICAL, _site_axes, embed_matrix
from polymerion.oracle import _alternating_sum, _check_observable
from polymerion.numeric import golden_max
from polymerion.polymers import _connected_families, _induced, _pinned_families, bond_weights
from polymerion.series import expectation_families
from polymerion.ursell import _bits

# A qubit boundary state with imaginary coherences: contracting sigma . sigma
# against it leaves the single-site term -0.5 sigma_y, which is not real.
COHERENT = np.array([[0.5, 0.25j], [-0.25j, 0.5]])


def random_table(rng, q: int, nsites: int, scale: float) -> np.ndarray:
    """Real interaction table with entries uniform in [-scale, scale]."""
    return scale * (2.0 * rng.random((q,) * nsites) - 1.0)


def random_hermitian(rng, q: int, nsites: int, scale: float) -> np.ndarray:
    """Hermitian matrix rescaled to operator norm `scale`."""
    d = q**nsites
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (m + m.conj().T) / 2.0
    top = float(np.linalg.norm(m, 2))
    return m * (scale / top)


def random_term(rng, q: int, kind: str, nsites: int, scale: float) -> np.ndarray:
    if kind == "classical":
        return random_table(rng, q, nsites, scale)
    return random_hermitian(rng, q, nsites, scale)


def random_beta(rng, allow_complex: bool = True) -> complex:
    mag = float(rng.uniform(0.05, 0.5))
    if allow_complex and rng.random() < 0.5:
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        return mag * complex(np.cos(phase), np.sin(phase))
    return complex(mag) if rng.random() < 0.5 else complex(-mag)


def chain_interaction(rng, q: int, kind: str, n_sites: int, scale: float,
                      with_fields: bool = False) -> Interaction:
    """Open chain of pair bonds on sites (0,) .. (n_sites-1,)."""
    terms = []
    for i in range(n_sites - 1):
        terms.append((((i,), (i + 1,)), random_term(rng, q, kind, 2, scale)))
    if with_fields:
        for i in range(0, n_sites, 2):
            terms.append((((i,),), random_term(rng, q, kind, 1, scale)))
    return Interaction.from_terms(q=q, kind=kind, terms=terms)


def scattered_interaction(rng, q: int, kind: str, scale: float) -> Interaction:
    """Pairs, one triple, and a field on a 2D cluster of 5 sites, 6 bonds."""
    a, b, c, d, e = (0, 0), (1, 0), (0, 1), (1, 1), (2, 0)
    terms = [
        ((a, b), random_term(rng, q, kind, 2, scale)),
        ((a, c), random_term(rng, q, kind, 2, scale)),
        ((b, d), random_term(rng, q, kind, 2, scale)),
        ((b, e), random_term(rng, q, kind, 2, scale)),
        ((a, b, d), random_term(rng, q, kind, 3, scale)),
        ((c,), random_term(rng, q, kind, 1, scale)),
    ]
    return Interaction.from_terms(q=q, kind=kind, terms=terms)


def ring_model(rng, q: int, kind: str, scale: float) -> LatticeModel:
    """1D translation-invariant pair interaction (wraps to a ring)."""
    data = random_term(rng, q, kind, 2, scale)
    return LatticeModel.from_templates(
        dimension=1, q=q, kind=kind, templates=[(((0,), (1,)), data)]
    )


def random_instance(rng, index: int):
    """One randomized Hamiltonian cycling through kinds and boundaries.

    Returns (label, ham, beta). Coupling scale shrinks as |beta| grows
    so that expm1(|beta| * norm) stays near 0.02.
    """
    kind = "classical" if index % 2 == 0 else "quantum"
    q = 2 if kind == "quantum" or rng.random() < 0.7 else 3
    beta = random_beta(rng)
    scale = 0.04 / max(0.1, abs(beta))
    style = index % 3
    if style == 0:
        n = int(rng.integers(4, 7))
        inter = chain_interaction(rng, q, kind, n, scale,
                                  with_fields=bool(rng.random() < 0.5 and n <= 4))
        region = Region.from_sites((i,) for i in range(n))
        ham = assemble_hamiltonian(inter, region, boundary="free")
        label = f"free-{kind}-{n}"
    elif style == 1:
        inter = scattered_interaction(rng, q, kind, scale)
        # Clip the region so the bonds touching (2, 0) stick out and are
        # contracted against the product state.
        region = Region.from_sites([(0, 0), (1, 0), (0, 1), (1, 1)])
        ham = assemble_hamiltonian(inter, region, boundary="product")
        label = f"product-{kind}"
    else:
        n = int(rng.integers(4, 7))
        model = ring_model(rng, q, kind, scale)
        ham = assemble_hamiltonian(model, Region.box([n]), boundary="periodic")
        label = f"periodic-{kind}-{n}"
    return label, ham, beta


def random_observable(rng, ham) -> Observable:
    """Observable on one or two sites of the instance."""
    sites = sorted(ham.sites)
    if len(sites) >= 2 and rng.random() < 0.5:
        pick = [sites[0], sites[1]]
    else:
        pick = [sites[int(rng.integers(0, len(sites)))]]
    q = ham.q
    if ham.kind == "classical":
        data = random_table(rng, q, len(pick), 1.0)
    else:
        data = random_hermitian(rng, q, len(pick), 1.0)
    return Observable.make(pick, data)


def random_connected_adjacency(rng, n: int) -> list[int]:
    """Adjacency bitmasks of a random connected graph on n vertices.

    A random spanning tree (each vertex hooks to an earlier one) plus
    each extra edge independently with probability 1/2.
    """
    adj = [0] * n
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for i in range(n):
        for j in range(i + 1, n):
            if not ((adj[i] >> j) & 1) and rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def ks_reference(sites, kernel, a: float, tol: float, max_iter: int) -> dict:
    """The per-subset sweep that `ks_solve` replaced, kept as its reference.

    Sweeps all 2^n site subsets on every iteration and, for each subset,
    the pivot's kernel rows in `entries` order, in Python complex
    arithmetic. Returns g over the nonempty subsets (keyed by frozenset)
    with the iteration count, residual, contraction and convergence flag,
    computed exactly as the solver reports them.
    """
    sites = list(sites)
    n = len(sites)
    index = {s: i for i, s in enumerate(sites)}
    rows = [[] for _ in range(n)]
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
    return {
        "g": out,
        "iterations": it,
        "residual": residual,
        "contraction": contraction,
        "converged": residual <= tol,
    }


def ks_rows_reference(g: dict, cap: int) -> list[tuple[str, int, complex]]:
    """(label, size, g) of the `ks` rows, by the sort and filter of every
    subset that the command's combinations of sorted sites replaced."""
    rows = []
    for X in sorted(g, key=lambda s: (len(s), sorted(s))):
        if len(X) <= cap:
            label = ";".join(",".join(str(c) for c in site) for site in sorted(X))
            rows.append((label, len(X), g[X]))
    return rows


def embed_matrix_reference(mat, support, sites, q: int) -> np.ndarray:
    """The `tensordot` loop that `embed_matrix` replaced, kept as its reference.

    Appends one identity per site of `sites` outside `support`, then
    permutes the row and column axes into site order.
    """
    k, n = len(support), len(sites)
    if k == n:
        return np.asarray(mat)
    t = np.asarray(mat).reshape((q,) * (2 * k))
    extra = [s for s in sites if s not in set(support)]
    eye = np.eye(q)
    for _ in extra:
        t = np.tensordot(t, eye, axes=0)
    # current axis layout: support rows, support cols, then (row, col) pairs
    # for each extra site in order
    row_axis, col_axis = {}, {}
    for i, s in enumerate(support):
        row_axis[s] = i
        col_axis[s] = k + i
    for j, s in enumerate(extra):
        row_axis[s] = 2 * k + 2 * j
        col_axis[s] = 2 * k + 2 * j + 1
    perm = [row_axis[s] for s in sites] + [col_axis[s] for s in sites]
    return t.transpose(perm).reshape(q**n, q**n)


def fp_phi_reference(adjacency, index: int, mu) -> float:
    """phi_B0(mu) by the memoized recursion `fp_phi` replaced, kept as its
    reference: candidates renumbered to local positions, one memo per call."""
    cand_ids = list(_bits(adjacency[index] | (1 << index)))
    local = _induced(adjacency, cand_ids)
    mu_vals = [float(mu[c]) for c in cand_ids]
    memo: dict[int, float] = {}

    def g(avail: int) -> float:
        if avail == 0:
            return 1.0
        hit = memo.get(avail)
        if hit is not None:
            return hit
        low = avail & -avail
        i = low.bit_length() - 1
        rest = avail ^ low
        val = g(rest) + mu_vals[i] * g(rest & ~local[i])
        memo[avail] = val
        return val

    return g((1 << len(cand_ids)) - 1)


def fp_bounds(ham, polymers, beta) -> list[float]:
    """The activity bounds an fp scan iterates at beta: the product of the
    bond weights W over each polymer's bonds."""
    w = bond_weights(ham.norms, beta)
    return [math.prod(w[i] for i in p.bonds) for p in polymers]


def fp_iterate_reference(adjacency, lam, mu0=None, tol=1e-14, max_iter=10000,
                         divergence=1e9) -> dict:
    """The Python-list loop `fp_iterate` replaced, over `fp_phi_reference`.

    Returns the fields of `FPResult` as a dict.
    """
    m = len(adjacency)
    lam = [float(x) for x in lam]
    mu = [0.0] * m if mu0 is None else [float(x) for x in mu0]
    chain = [max(mu, default=0.0)]
    converged = diverged = False
    it = max_iter
    for k in range(1, max_iter + 1):
        nxt = [lam[i] * fp_phi_reference(adjacency, i, mu) for i in range(m)]
        delta = max(abs(a - b) for a, b in zip(nxt, mu))
        mu = nxt
        chain.append(max(mu))
        if max(mu) > divergence:
            diverged, it = True, k
            break
        if delta <= tol * (1.0 + max(mu)):
            converged, it = True, k
            break
    return {"converged": converged, "diverged": diverged, "mu": tuple(mu),
            "iterations": it, "chain": tuple(chain)}


def count_clusters_reference(polymers, adjacency, max_total: int, pin=None) -> int:
    """The cluster count `series._count_clusters` replaced, kept as its
    reference: one size tuple per connected set, memoized with the slack."""
    sizes = [len(p.bonds) for p in polymers]
    if pin is None:
        walk = _connected_families(adjacency, sizes, max_total, rooted=False)
    else:
        walk = _pinned_families(adjacency, pin, sizes, max_total)
    memo: dict[tuple[tuple[int, ...], int], int] = {}
    count = 0
    for sett, base, _ in walk:
        set_sizes = tuple(sizes[i] for i in _bits(sett))
        slack = max_total - base
        hit = memo.get((set_sizes, slack))
        if hit is None:
            # ways[u]: the vectors of extra copies weighing exactly u bonds
            ways = [1] + [0] * slack
            for size in set_sizes:
                for u in range(size, slack + 1):
                    ways[u] += ways[u - size]
            memo[set_sizes, slack] = hit = sum(ways)
        count += hit
    return count


def default_scalar_zeta_reference(weights, structure, form: str) -> float:
    """The default scalar zeta as `convergence._default_scalar_zeta` found it
    before: the best of 160 geometric grid points, refined by golden
    section between its two neighbours."""

    def worst(z: float) -> float:
        return min(_margins(weights, structure, [z] * len(structure.sizes), form)[0])

    zs = np.geomspace(1e-6, 2.0, 160)
    vals = [worst(z) for z in zs]
    k = int(np.argmax(vals))
    lo = zs[max(0, k - 1)]
    hi = zs[min(len(zs) - 1, k + 1)]
    z, _ = golden_max(worst, lo, hi, tol=1e-13)
    return float(z)


def z_direct_reference(ham, beta, ids) -> complex:
    """Z of a bond set as `Oracle.z` computed it before it factored over
    components: one dense operator on the whole support, then `eigvalsh`
    (quantum) or the table mean (classical), with no finiteness check."""
    ids = frozenset(ids)
    if not ids:
        return 1.0 + 0.0j
    _, total = Oracle(ham, beta).hamiltonian_on(ids)
    energies = total if ham.kind == CLASSICAL else np.linalg.eigvalsh(total)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.mean(np.exp(-complex(beta) * energies)))


def weighted_trace_reference(ham, beta, obs, ids, support) -> complex:
    """tr(A exp(-beta H_B)) / dim as `Oracle.weighted_trace` computed it
    before the blocked spectrum: `boltzmann` (one `eigh` of the whole
    matrix, then (v * e^{-beta w}) v^H), and the trace of A times it.
    Quantum Hamiltonians only; the classical route did not change."""
    support = tuple(sorted(set(support) | set(obs.support)))
    _, bf = Oracle(ham, beta).boltzmann(ids, support)
    a = embed_matrix(obs.data.astype(complex), obs.support, support, ham.q)
    return complex(np.trace(a @ bf) / bf.shape[0])


def rho_reference(orc, ids) -> complex:
    """The activity as `Oracle.rho` computed it for classical families
    before the Mayer product: the signed sum of Z over the 2^|B|
    subfamilies, read from the oracle's memo."""
    return _alternating_sum(orc._mask(ids), orc._z_mask)


def ks_kernel_reference(ham, beta) -> KSKernel:
    """The exact kernel as `build_ks_kernel` built it for every Hamiltonian
    before quantum kernels were summed by support: each polymer's
    `Oracle.rho`, in polymer order, added to the entry of every site of its
    support."""
    polymers = enumerate_polymers(ham, len(ham.bonds))
    oracle = Oracle(ham, beta)
    entries: dict = {}
    for p in polymers:
        rho = oracle.rho(p.bonds)
        for x in p.support:
            entries[x, p.support] = entries.get((x, p.support), 0.0) + rho
    return KSKernel(
        sites=tuple(ham.sites), entries=entries, n_polymers=len(polymers),
        truncation=len(ham.bonds),
    )


def expectation_reference(ham, beta, obs) -> complex:
    """<A> as `expectation_series` summed it at the full cut before the sum
    over site sets: for each family B, in family order, K(A, B) times the
    oracle's g of supp A and the sites of B; zero weights are skipped.
    Quantum K(A, B) is the inclusion-exclusion over its subfamilies B' of
    `Oracle.weighted_trace` on supp A and the sites of B' (memoized by
    subfamily). Classical K(A, B) is the mean of A times `Oracle.xi`, the
    Mayer product on the sites of B, both re-axed onto supp A and the
    sites of B."""
    obs = _check_observable(ham, obs)
    oracle = Oracle(ham, beta)
    x0 = frozenset(obs.support)
    traces: dict = {}

    def weighted(mask: int) -> complex:
        if mask not in traces:
            ids = tuple(_bits(mask))
            traces[mask] = oracle.weighted_trace(obs, ids, ham.support(ids))
        return traces[mask]

    def family_weight(ids) -> complex:
        if ham.kind != CLASSICAL:
            return _alternating_sum(oracle._mask(ids), weighted)
        xi_support, xi = oracle.xi(ids)
        support = tuple(sorted(x0.union(xi_support)))
        return complex(np.mean(
            _site_axes(obs.data, obs.support, support, ham.q)
            * _site_axes(xi, xi_support, support, ham.q)
        ))

    total = 0j
    for ids in expectation_families(ham, x0, len(ham.bonds)):
        k = family_weight(ids)
        if k != 0:
            total += k * oracle.reduced_correlation(x0.union(ham.support(ids)))
    return total

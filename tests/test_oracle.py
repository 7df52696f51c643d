import cmath
import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from polymerion import (
    ConfigError,
    Interaction,
    NumericalError,
    Observable,
    Oracle,
    Region,
    assemble_hamiltonian,
    enumerate_polymers,
    gibbs_expectation,
    heisenberg_model,
    ising_model,
    partition_function,
    reduced_correlation_exact,
    rho_fugacity,
    xi_fugacity_exact,
    xy_model,
)

from polymerion.model import CLASSICAL, QUANTUM, embed_matrix, embed_table
from polymerion.oracle import (
    _SPLIT_DIM, _Spectrum, _alternating_sum, _check_dim, _check_observable, _pattern_blocks,
)
from polymerion.ursell import _bits, _components, _overlap_masks

from helpers import (
    COHERENT,
    chain_interaction,
    random_beta,
    random_hermitian,
    random_instance,
    rho_reference,
    weighted_trace_reference,
    z_direct_reference,
)


def ising_chain(n, coupling=1.0, field_h=0.0):
    m = ising_model(1, coupling=coupling, field_h=field_h)
    return assemble_hamiltonian(m, Region.box([n]), boundary="free")


def test_single_bond_partition_is_cosh():
    ham = ising_chain(2, coupling=0.8)
    for b in (0.1, 0.45, -0.2):
        assert abs(partition_function(ham, b) - math.cosh(0.8 * b)) < 1e-14


def test_heisenberg_pair_partition_closed_form():
    ham = assemble_hamiltonian(
        heisenberg_model(1, coupling=1.0), Region.box([2]), boundary="free"
    )
    b = 0.37
    expected = (3 * math.exp(-b) + math.exp(3 * b)) / 4
    assert abs(partition_function(ham, b) - expected) < 1e-13


def test_ising_ring_partition_closed_form():
    m = ising_model(1)
    for n in (3, 4, 5, 6):
        ham = assemble_hamiltonian(m, Region.box([n]), boundary="periodic")
        b = 0.31
        expected = math.cosh(b) ** n + math.sinh(b) ** n
        assert abs(partition_function(ham, b) - expected) < 1e-13


def test_beta_derivative_at_zero_is_minus_mean_energy(rng):
    # dZ/dbeta at beta = 0 equals -normalized-trace of H.
    inter = chain_interaction(rng, 2, "quantum", 3, 0.5)
    ham = assemble_hamiltonian(
        inter, Region.from_sites((i,) for i in range(3)), boundary="free"
    )
    orc = Oracle(ham, 0.0)
    support, h = orc.hamiltonian_on(range(len(ham.bonds)))
    mean_h = np.trace(h) / h.shape[0]
    eps = 1e-6
    dz = (partition_function(ham, eps) - partition_function(ham, -eps)) / (2 * eps)
    assert abs(dz + mean_h) < 1e-8


def test_empty_bond_set_z_is_one():
    ham = ising_chain(3)
    assert Oracle(ham, 0.7).z(()) == 1.0 + 0.0j


def test_xi_factorizes_over_disjoint_parts():
    # The inclusion-exclusion kernel of a disjoint union is the product
    # of the parts' kernels, so rho is multiplicative there.
    ham = ising_chain(4)
    orc = Oracle(ham, 0.4)
    i1 = ham.bond_index((((0,), (1,))))
    i2 = ham.bond_index((((2,), (3,))))
    assert abs(orc.rho((i1, i2)) - orc.rho((i1,)) * orc.rho((i2,))) < 1e-14


def test_rho_is_normalized_trace_of_xi():
    ham = ising_chain(4)
    orc = Oracle(ham, 0.35)
    ids = (0, 1)
    support, x = orc.xi(ids)
    dim = x.shape[0] if x.ndim == 2 else x.size
    tr = np.trace(x) / dim if x.ndim == 2 else x.mean()
    assert abs(orc.rho(ids) - tr) < 1e-14


def test_rho_single_ising_bond_closed_form():
    ham = ising_chain(2, coupling=1.0)
    b = 0.3
    assert abs(Oracle(ham, b).rho((0,)) - (math.cosh(b) - 1.0)) < 1e-14


def test_reduced_correlation_middle_site_of_chain():
    ham = ising_chain(3, coupling=1.0)
    b = 0.42
    g = reduced_correlation_exact(ham, b, (1,))
    assert abs(g - 1.0 / math.cosh(b) ** 2) < 1e-13


def test_reduced_correlation_of_whole_support_is_inverse_z():
    ham = ising_chain(4)
    b = 0.3
    g = reduced_correlation_exact(ham, b, [(0,), (1,), (2,), (3,)])
    assert abs(g - 1.0 / partition_function(ham, b)) < 1e-13


def test_field_magnetization_is_tanh():
    ham = assemble_hamiltonian(
        ising_model(1, coupling=0.0, field_h=0.9), Region.box([1]), boundary="free"
    )
    b = 0.52
    spin = Observable.make([(0,)], np.array([1.0, -1.0]))
    m = gibbs_expectation(ham, b, spin)
    assert abs(m - math.tanh(0.9 * b)) < 1e-13


def test_expectation_of_identity_is_one(rng):
    label, ham, beta = random_instance(rng, 1)
    if ham.kind == "classical":
        one = Observable.make([sorted(ham.sites)[0]], np.ones(ham.q))
    else:
        one = Observable.make([sorted(ham.sites)[0]], np.eye(ham.q))
    assert abs(Oracle(ham, beta).expectation(one) - 1.0) < 1e-12


def test_observable_make_reads_the_data_in_the_order_of_its_sites(rng):
    # s_1 [s_0 up] on the free Ising 3-chain in a field, rows the first site
    # written: on ((1,), (0,)) with the table transposed it read 0.3100.
    ham = assemble_hamiltonian(ising_model(1, 1.0, field_h=0.7), Region.box([3]), boundary="free")
    table = np.array([[1.0, -1.0], [0.0, 0.0]])
    want = gibbs_expectation(ham, 0.3, Observable.make([(0,), (1,)], table.ravel()))
    assert abs(want - 0.32985093391668824) < 1e-12
    for data in (table.T.ravel(), table.T):  # flat and nested tables alike
        assert gibbs_expectation(ham, 0.3, Observable.make([(1,), (0,)], data)) == want

    # Three sites in every order, tables and matrices: once checked against
    # a volume, which gives q, the data is in sorted-site order, entry for
    # entry.
    sites = [(0,), (1,), (2,)]
    quantum = assemble_hamiltonian(heisenberg_model(1), Region.box([3]), boundary="free")
    table = rng.standard_normal((2,) * 3)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    tensor = mat.reshape((2,) * 6)
    for p in itertools.permutations(range(3)):
        given = [sites[i] for i in p]
        obs = Observable.make(given, table.transpose(p).ravel())
        assert obs.support == tuple(sites)
        assert np.array_equal(_check_observable(ham, obs).data, table.ravel())
        obs = Observable.make(given, tensor.transpose(list(p) + [3 + i for i in p]).reshape(8, 8))
        assert np.array_equal(_check_observable(quantum, obs).data, mat)
        assert gibbs_expectation(quantum, 0.4, obs) == gibbs_expectation(
            quantum, 0.4, Observable.make(sites, mat))


def test_conjugate_beta_conjugates_z(rng):
    for i in range(6):
        label, ham, beta = random_instance(rng, i)
        z = partition_function(ham, beta)
        zc = partition_function(ham, np.conjugate(beta))
        assert abs(zc - np.conjugate(z)) < 1e-12 * max(1.0, abs(z))


def test_activity_bound_on_random_quantum_polymers(rng):
    # |rho_B| <= prod over bonds of (e^{|beta| ||Phi||} - 1), sampled.
    checked = 0
    for i in range(40):
        label, ham, beta = random_instance(rng, i)
        orc = Oracle(ham, beta)
        nb = len(ham.bonds)
        for _ in range(5):
            k = int(rng.integers(1, min(3, nb) + 1))
            ids = tuple(sorted(rng.choice(nb, size=k, replace=False)))
            bound = math.prod(
                math.expm1(abs(beta) * ham.norms[i]) for i in ids
            )
            assert abs(orc.rho(ids)) <= bound + 1e-12
            checked += 1
    assert checked >= 200


def test_oracle_refuses_oversized_state_space():
    n = 21
    inter = Interaction.from_terms(
        q=2,
        kind="classical",
        terms=[(((i,), (i + 1,)), np.ones(4)) for i in range(n - 1)],
    )
    ham = assemble_hamiltonian(
        inter, Region.from_sites((i,) for i in range(n)), boundary="free"
    )
    with pytest.raises(NumericalError):
        partition_function(ham, 0.1)


def test_quantum_cap_bounds_the_matrix_side():
    # Classical tables may hold 2^20 states; quantum matrices stop at 2^12
    # rows, since one of 2^20 rows would need 16 TiB.
    _check_dim(2, 20, CLASSICAL)
    _check_dim(2, 12, QUANTUM)
    with pytest.raises(NumericalError, match="exceeds 1048576"):
        _check_dim(2, 21, CLASSICAL)
    with pytest.raises(NumericalError, match="exceeds 4096"):
        _check_dim(2, 13, QUANTUM)
    with pytest.raises(NumericalError, match="exceeds 4096"):
        _check_dim(3, 8, QUANTUM)
    ham = assemble_hamiltonian(heisenberg_model(1), Region.box([13]), boundary="free")
    orc = Oracle(ham, 0.1)
    with pytest.raises(NumericalError):
        orc.z()
    with pytest.raises(NumericalError):
        orc.xi(range(len(ham.bonds)))
    # Smaller families on the same volume still evaluate.
    assert orc.z([0, 1]) == partition_function(ham, 0.1, [0, 1])


def test_overflowing_z_raises_without_numpy_warnings():
    quantum = assemble_hamiltonian(heisenberg_model(1), Region.box([4]), boundary="free")
    chain = ising_chain(8)
    every = range(len(chain.bonds))
    # Boltzmann weights, Gibbs traces and the quantum fugacity returned inf
    # or nan with only a numpy RuntimeWarning.
    short = ising_chain(4)
    triple = assemble_hamiltonian(heisenberg_model(1), Region.box([3]), boundary="free")
    spin = Observable.make([(0,)], [1.0, -1.0])
    sz = Observable.make([(0,)], np.diag([1.0, -1.0]))
    # The classical Mayer product of all 7 bonds holds e^{2800} in one entry.
    # The quantum activity of two one-site fields, Z_{01} - Z_0 - Z_1 + 1, came
    # out as -inf+1.2e296j with no warning: each Z is finite, their sum is not.
    fields = Interaction.from_terms(2, "quantum", {((0,),): 2000 * sz.data, ((1,),): sz.data})
    pair = assemble_hamiltonian(fields, Region.from_sites([(0,), (1,)]))
    calls = [
        (pair, 0.35488 + math.pi * 1j, lambda orc: orc.rho([0, 1])),
        (chain, 400.0, lambda orc: orc.z()),
        (quantum, 2000.0, lambda orc: orc.z()),
        (chain, 400.0, lambda orc: orc.rho(every)),
        (chain, 400.0, lambda orc: orc.xi(every)),
        (short, -800.0, lambda orc: orc.boltzmann(range(3))),
        (quantum, -800.0, lambda orc: orc.boltzmann(range(3))),
        (short, -800.0, lambda orc: orc.weighted_trace(spin, range(3), short.sites)),
        (quantum, -800.0, lambda orc: orc.weighted_trace(sz, range(3), quantum.sites)),
        (triple, -400.0, lambda orc: orc.xi(range(2))),
    ]
    for ham, beta, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not finite"):
                call(Oracle(ham, beta))


def test_hamiltonian_on_sums_in_ascending_bond_order(rng):
    # {1, 3, 8} iterates 8, 1, 3 as a frozenset, the order it was summed in.
    ids = [8, 1, 3]
    assert list(frozenset(ids)) != sorted(ids)
    for kind, embed in (("classical", embed_table), ("quantum", embed_matrix)):
        ham = assemble_hamiltonian(
            chain_interaction(rng, 2, kind, 8, 0.5, with_fields=True),
            Region.from_sites((i,) for i in range(8)), "free",
        )
        assert len(ham.bonds) == 11
        support, got = Oracle(ham, 0.3).hamiltonian_on(ids)
        want = np.zeros_like(got)
        for i in sorted(ids):
            want = want + embed(ham.ops[i], ham.bonds[i], support, ham.q)
        assert got.tobytes() == want.tobytes()


def test_bond_ids_in_any_order_or_integer_type_hit_one_memo_entry():
    # Bonds 0, 1 and 3 of a 6-chain: two components, so three entries.
    ham = ising_chain(6)
    orc = Oracle(ham, 0.3)
    first = orc.z([3, 0, 1])
    assert sorted(orc._z) == [0b11, 0b1000, 0b1011]
    memo = dict(orc._z)
    for ids in ([0, 1, 3], (1, 3, 0), np.array([3, 1, 0]), [np.int32(0), np.uint8(3), np.int64(1)]):
        assert orc.z(ids) == first
        assert orc._z == memo
    # The quantum activity reads its subfamilies from the same memo, and a
    # blocked spectrum is kept once per (mask, support).
    quantum = assemble_hamiltonian(heisenberg_model(1), Region.box([7]), boundary="free")
    orc = Oracle(quantum, 0.3)
    rho = orc.rho([2, 0, 1])
    memo = dict(orc._z)
    assert orc.rho(np.array([1, 2, 0])) == rho and orc._z == memo
    full = list(range(6))
    z = orc.z(full)
    assert list(orc._spectra) == [(0b111111, quantum.sites)]
    assert orc.z(full[::-1]) == z and orc.z(np.array(full)) == z
    assert len(orc._spectra) == 1


def test_classical_rho_matches_the_even_subgraph_closed_form():
    # An Ising bond has e^{beta s s'} - 1 = a + b s s', with
    # a = cosh(beta) - 1 = 2 sinh(beta/2)^2 and b = sinh(beta), so rho_B sums
    # a^{|B|-|E|} b^{|E|} over the even subgraphs E of B (every site of even
    # degree). The terms are positive, so the reference is accurate to
    # rounding, while a signed sum of Z over the 2^|B| subfamilies loses
    # about 2^|B| eps absolute on values of size beta^|B|.
    ham = assemble_hamiltonian(ising_model(2), Region.box([3, 4]), boundary="free")
    beta = 0.04
    a, b = 2.0 * math.sinh(beta / 2) ** 2, math.sinh(beta)
    eps = np.finfo(float).eps
    orc = Oracle(ham, beta)
    worst = 0.0
    for p in enumerate_polymers(ham, 6):
        n = len(p.bonds)
        terms = []
        for r in range(n + 1):
            for sub in itertools.combinations(p.bonds, r):
                degree = Counter(s for i in sub for s in ham.bonds[i])
                if all(d % 2 == 0 for d in degree.values()):
                    terms.append(a ** (n - r) * b**r)
        err = abs(orc.rho(p.bonds) - math.fsum(terms))
        worst = max(worst, err / (8 * n * eps * (a + b) ** n))
    assert worst <= 1.0


def test_classical_rho_and_xi_agree_with_the_subfamily_sums(rng):
    # The classical instances of criterion 3: free, periodic and product
    # boundaries, Potts, fields and complex beta. A signed sum over the
    # 2^|B| subfamilies rounds by about 2^|B| eps times its largest term.
    eps = np.finfo(float).eps
    seen = set()
    for index in range(0, 50, 2):
        label, ham, beta = random_instance(rng, index)
        assert ham.kind == CLASSICAL
        seen.add(label.split("-")[0])
        seen.add(f"q={ham.q}")
        seen.add("complex" if beta.imag else "real")
        if any(len(bond) == 1 for bond in ham.bonds):
            seen.add("field")
        orc = Oracle(ham, beta)
        for p in enumerate_polymers(ham, len(ham.bonds)):
            n = len(p.bonds)
            subs = [sub for r in range(n + 1) for sub in itertools.combinations(p.bonds, r)]
            z_max = max(abs(orc.z(sub)) for sub in subs)
            assert abs(orc.rho(p.bonds) - rho_reference(orc, p.bonds)) <= 2**n * eps * z_max
            support, xi = orc.xi(p.bonds)
            tables = {orc._mask(sub): orc.boltzmann(sub, support)[1] for sub in subs}
            want = _alternating_sum(orc._mask(p.bonds), tables.__getitem__)
            top = max(float(np.max(np.abs(t))) for t in tables.values())
            assert np.max(np.abs(xi - want)) <= 2**n * eps * top
    assert seen == {"free", "product", "periodic", "q=2", "q=3", "real", "complex", "field"}


def test_classical_rho_runs_past_20_bonds_up_to_the_dense_cap():
    # 12 sites with a field carry 23 bonds: past the 20-id cap of the
    # subfamily sum, but only 4096 states for the Mayer product.
    ham = ising_chain(12, coupling=0.7, field_h=0.3)
    beta = 0.2
    tables = [ham.ops[i].reshape((2,) * len(bond)) for i, bond in enumerate(ham.bonds)]
    terms = []
    for state in itertools.product(range(2), repeat=12):
        prod = 1.0
        for table, bond in zip(tables, ham.bonds):
            prod *= math.expm1(-beta * table[tuple(state[s[0]] for s in bond)])
        terms.append(prod)
    want = math.fsum(terms) / len(terms)
    scale = math.fsum(abs(t) for t in terms) / len(terms)
    assert len(ham.bonds) == 23
    assert abs(Oracle(ham, beta).rho(range(23)) - want) <= 1e-13 * scale
    # 22 sites are past the 2^20 states of the dense cap, refused before
    # any table exists; quantum families keep the 20-id cap.
    long = ising_chain(22)
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="exceeds 1048576"):
            Oracle(long, beta).rho(range(len(long.bonds)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    quantum = assemble_hamiltonian(heisenberg_model(1), Region.box([22]), boundary="free")
    with pytest.raises(NumericalError, match="2\\^20"):
        Oracle(quantum, beta).rho(range(len(quantum.bonds)))


def test_xi_fugacity_exact_wrapper_matches_oracle():
    ham = ising_chain(3)
    support, x1 = xi_fugacity_exact(ham, 0.25, (0, 1))
    support2, x2 = Oracle(ham, 0.25).xi((0, 1))
    assert support == support2
    assert np.allclose(x1, x2)


def test_sites_outside_the_volume_are_refused():
    orc = Oracle(ising_chain(4), 0.2)
    with pytest.raises(ConfigError):
        orc.z_avoiding([(9,)])
    with pytest.raises(ConfigError):
        orc.reduced_correlation((0, 3))
    assert orc.z_avoiding([(0,), (3,)]) == orc.z([1])


def test_alternating_sum_keeps_its_order_and_refuses_past_2_20():
    seen = []

    def term(sub):
        seen.append(tuple(_bits(sub)))
        return len(seen[-1]) + 1

    # Bonds 1, 3 and 4: the submasks come by size, then in the
    # `itertools.combinations` order of the ascending ids.
    # (-1)^{3-r} (r + 1) summed with multiplicity C(3, r): -1 + 6 - 9 + 4 = 0
    assert _alternating_sum(0b11010, term) == 0
    assert seen == [(), (1,), (3,), (4,), (1, 3), (1, 4), (3, 4), (1, 3, 4)]
    assert _alternating_sum(0, term) == 1
    with pytest.raises(NumericalError, match="2\\^20"):
        _alternating_sum((1 << 21) - 1, term)


# -- exactly-real operators take the real symmetric solvers ----------------

ZZ = np.diag([1.0, -1.0, -1.0, 1.0])
# Hermitian with an imaginary coherence: 0.5 + 0.5 sz - 0.5 sy.
SITE_OBS = np.array([[1.0, 0.5j], [-0.5j, 0.0]])
REAL_CASES = {
    "heisenberg-free-2x3": (heisenberg_model(2), [2, 3], "free", None),
    "xy-ring-5": (xy_model(1, 0.8), [5], "periodic", None),
    "heisenberg-torus-2x2": (heisenberg_model(2, -0.6), [2, 2], "periodic", None),
    "heisenberg-product-4": (heisenberg_model(1, 0.9), [4], "product", np.diag([0.7, 0.3])),
}


def _complex_copy(ham):
    """The same Hamiltonian with every operator stored as complex128."""
    return replace(ham, ops=tuple(op.astype(complex) for op in ham.ops))


def _subfamilies(ids):
    return [s for r in range(len(ids) + 1) for s in itertools.combinations(ids, r)]


@pytest.mark.parametrize("case", sorted(REAL_CASES))
@pytest.mark.parametrize("beta", [0.3, 0.2 - 0.15j])
def test_real_operators_agree_with_their_complex_copies(case, beta):
    model, extent, boundary, theta = REAL_CASES[case]
    ham = assemble_hamiltonian(model, Region.box(extent), boundary, theta)
    real, cplx = Oracle(ham, beta), Oracle(_complex_copy(ham), beta)
    every = range(len(ham.bonds))
    assert real.hamiltonian_on(every)[1].dtype == np.float64
    assert cplx.hamiltonian_on(every)[1].dtype == np.complex128

    def close(got, want, scale):
        assert abs(got - want) <= 1e-13 * scale

    for ids in _subfamilies(every):
        close(real.z(ids), cplx.z(ids), abs(cplx.z(ids)))
    # An activity is an alternating sum of partition functions near 1, so
    # its rounding is relative to the sum of their sizes, not to itself.
    for p in enumerate_polymers(ham, 3):
        subs = _subfamilies(p.bonds)
        close(real.rho(p.bonds), cplx.rho(p.bonds), sum(abs(cplx.z(s)) for s in subs))
        support, want = cplx.xi(p.bonds)
        scale = sum(np.abs(cplx.boltzmann(s, support)[1]).max() for s in subs)
        assert np.abs(real.xi(p.bonds)[1] - want).max() <= 1e-13 * scale
    sites = ham.sites
    for obs in (Observable.make(sites[:2], ZZ), Observable.make(sites[:1], SITE_OBS)):
        want = cplx.expectation(obs)
        close(real.expectation(obs), want, abs(want))
    for x0 in [sites[:1], sites[1:3], sites[-1:]]:
        want = cplx.reduced_correlation(x0)
        close(real.reduced_correlation(x0), want, abs(want))


def test_one_complex_term_keeps_the_oracle_complex_and_its_values():
    # A real operator of a Hamiltonian that also holds a complex one is
    # embedded as complex, so such a Hamiltonian gives the values it gave
    # when every operator was stored complex, bit for bit.
    ham = assemble_hamiltonian(heisenberg_model(1), Region.box([3]), "product", COHERENT)
    pair = ham.bond_index([(0,), (1,)])
    assert ham.ops[pair].dtype == np.float64
    for beta in (0.3, 0.2 - 0.15j):
        mixed, cplx = Oracle(ham, beta), Oracle(_complex_copy(ham), beta)
        assert mixed.hamiltonian_on([pair])[1].dtype == np.complex128
        for ids in _subfamilies(range(len(ham.bonds))):
            assert mixed.z(ids) == cplx.z(ids)
            assert mixed.rho(ids) == cplx.rho(ids)
        obs = Observable.make(ham.sites[:2], ZZ)
        assert mixed.expectation(obs) == cplx.expectation(obs)
        assert mixed.reduced_correlation(ham.sites[1:2]) == cplx.reduced_correlation(ham.sites[1:2])


def test_real_heisenberg_z_matches_an_mpmath_reference():
    mp = pytest.importorskip("mpmath")
    ham = assemble_hamiltonian(heisenberg_model(2), Region.box([2, 3]))
    _, h = Oracle(ham, 0.0).hamiltonian_on(range(len(ham.bonds)))
    assert h.dtype == np.float64
    # sigma . sigma keeps the number of up spins, so H splits into blocks by it.
    blocks = {}
    for i in range(h.shape[0]):
        blocks.setdefault(bin(i).count("1"), []).append(i)
    with mp.workdps(30):
        energies = []
        for idx in blocks.values():
            block = mp.matrix([[h[i, j] for j in idx] for i in idx])
            energies.extend(mp.eigsy(block, eigvals_only=True))
        for beta in (0.3, 0.2 - 0.15j):
            want = complex(mp.fsum(mp.exp(-mp.mpc(beta) * e) for e in energies) / h.shape[0])
            for orc in (Oracle(ham, beta), Oracle(_complex_copy(ham), beta)):
                assert abs(orc.z() - want) <= 4e-15 * abs(want)


# -- a bond set that splits is the product of its components -----------------


def _factor_volumes(rng):
    """random_instance volumes, each at its beta and at a real beta of the
    same size, then the real-operator presets and an Ising patch with field."""
    for index in range(24):
        label, ham, beta = random_instance(rng, index)
        yield label, ham, beta
        yield label, ham, complex(abs(beta))
    cases = dict(REAL_CASES)
    cases["ising-field-2x3"] = (ising_model(2, field_h=0.3), [2, 3], "free", None)
    for case, (model, extent, boundary, theta) in sorted(cases.items()):
        ham = assemble_hamiltonian(model, Region.box(extent), boundary, theta)
        for beta in (0.3, 0.2 - 0.15j):
            yield case, ham, beta


def test_z_is_the_product_over_components_and_matches_the_direct_value(rng):
    # Connected sets keep the dense path bit for bit; a set that splits is
    # the product of its components' values, lowest bond first, within
    # rounding of the value computed on its whole support.
    split = {CLASSICAL: 0, QUANTUM: 0}
    for label, ham, beta in _factor_volumes(rng):
        adj = _overlap_masks(ham.bonds)
        subsets = _subfamilies(range(len(ham.bonds)))
        warm, cold = Oracle(ham, beta), Oracle(ham, beta)
        for ids in subsets:
            got, want = warm.z(ids), z_direct_reference(ham, beta, ids)
            parts = _components(adj, sum(1 << i for i in ids))
            if len(parts) <= 1:
                assert got == want, (label, ids)
                continue
            split[ham.kind] += 1
            assert abs(got - want) <= 1e-13 * abs(want), (label, ids)
            prod = warm.z(_bits(parts[0]))
            for part in parts[1:]:
                prod = prod * warm.z(_bits(part))
            assert got == prod, (label, ids)
        # The value does not depend on which sets the memo already holds.
        for ids in reversed(subsets):
            assert cold.z(ids) == warm.z(ids), (label, ids)
    assert split[CLASSICAL] >= 500 and split[QUANTUM] >= 500


def test_overflowing_product_of_finite_components_raises():
    # Two 4-bond Ising chains at beta = 115: each Z is cosh(115)^4, about
    # 3e198, and their product leaves the float range.
    ham = ising_chain(10)
    left = [ham.bond_index([(i,), (i + 1,)]) for i in range(4)]
    right = [ham.bond_index([(i,), (i + 1,)]) for i in range(5, 9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = Oracle(ham, 115.0)
        for part in (left, right):
            z = warm.z(part)
            assert cmath.isfinite(z) and abs(z) > 1e198
        for orc in (warm, Oracle(ham, 115.0)):
            with pytest.raises(NumericalError, match="not finite"):
                orc.z(left + right)


def test_the_dense_cap_applies_to_each_connected_component():
    # 13 spins are past the 2^12-row cap, but with the bond between sites
    # 5 and 6 left out the set is a 6-chain and a 7-chain: two matrices of
    # 64 and 128 rows.
    model = heisenberg_model(1)
    ham = assemble_hamiltonian(model, Region.box([13]), boundary="free")
    cut = ham.bond_index([(5,), (6,)])
    ids = [i for i in range(len(ham.bonds)) if i != cut]
    got = Oracle(ham, 0.1).z(ids)
    pieces = [
        partition_function(assemble_hamiltonian(model, Region.box([n]), boundary="free"), 0.1)
        for n in (6, 7)
    ]
    assert abs(got - pieces[0] * pieces[1]) <= 1e-13 * abs(got)
    # The connected full volume is still refused before any matrix exists:
    # its 2^13 rows would take 512 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="exceeds 4096"):
            Oracle(ham, 0.1).z()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


BAD_IDS = [-1, 3, 1.5, 1.0, np.float64(1.0), True, False, np.bool_(True), "0", None, [0]]


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_bond_ids_outside_the_hamiltonian_are_refused(bad):
    # A 4-chain has bonds 0, 1, 2. Before, -1 read the last bond and 3
    # raised a bare IndexError, and [0] a bare TypeError. The good id
    # beside a bad one is 2, since a set cannot hold both 0 and False (or
    # 1 and True).
    ham = ising_chain(4)
    spin = Observable.make([(0,)], np.array([1.0, -1.0]))
    calls = [
        lambda orc: orc.z([bad]),
        lambda orc: orc.z([2, bad]),
        lambda orc: orc.rho([bad, 2]),
        lambda orc: orc.xi([bad]),
        lambda orc: orc.hamiltonian_on([bad]),
        lambda orc: orc.weighted_trace(spin, [bad], ham.sites),
    ]
    for call in calls:
        orc = Oracle(ham, 0.3)
        with pytest.raises(ConfigError, match="bond ids"):
            call(orc)
        assert orc._z == {}
    # True == 1 and 1.0 == 1 as memo keys: a warm memo refuses them too.
    warm = Oracle(ham, 0.3)
    warm.rho([0, 1, 2])
    for call in calls:
        with pytest.raises(ConfigError, match="bond ids"):
            call(warm)
    for wrapper in (partition_function, xi_fugacity_exact, rho_fugacity):
        with pytest.raises(ConfigError, match="bond ids"):
            wrapper(ham, 0.3, [bad])
    # A bare id in place of a collection of them (z(None) means every bond).
    if bad is not None and not isinstance(bad, (str, list)):
        for method in ("z", "rho", "xi", "hamiltonian_on"):
            with pytest.raises(ConfigError, match="bond ids"):
                getattr(Oracle(ham, 0.3), method)(bad)


def test_numpy_integer_bond_ids_are_accepted():
    ham = ising_chain(4)
    for ids in (np.array([0, 2]), [np.int32(0), np.uint8(2)]):
        assert Oracle(ham, 0.3).z(ids) == Oracle(ham, 0.3).z([0, 2])
        assert Oracle(ham, 0.3).rho(ids) == Oracle(ham, 0.3).rho([0, 2])
        assert np.array_equal(Oracle(ham, 0.3).xi(ids)[1], Oracle(ham, 0.3).xi([0, 2])[1])


# -- one blocked spectrum per bond set ---------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# The pattern of a two-site operator that keeps the number of up spins.
SZ_PATTERN = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])


def _split_volumes(rng):
    """Quantum volumes of at least `_SPLIT_DIM` rows, each with its beta."""
    yield "heisenberg-free-3x3", assemble_hamiltonian(heisenberg_model(2), Region.box([3, 3])), 0.3
    yield "xy-ring-8", assemble_hamiltonian(xy_model(1), Region.box([8]), "periodic"), 0.2 - 0.15j
    yield "heisenberg-product-8", assemble_hamiltonian(
        heisenberg_model(1, 0.9), Region.box([8]), "product", np.diag([0.7, 0.3])
    ), -0.25 + 0.1j
    # Complex Hermitian with no conserved quantity: one dense block.
    inter = chain_interaction(rng, 2, "quantum", 7, 0.1, with_fields=True)
    region = Region.from_sites((i,) for i in range(7))
    yield "random-chain-7", assemble_hamiltonian(inter, region, "free"), random_beta(rng)
    # Complex Hermitian that keeps the number of up spins: complex blocks.
    term = random_hermitian(rng, 2, 2, 0.1) * SZ_PATTERN
    inter = Interaction.from_terms(
        q=2, kind="quantum", terms=[(((i,), (i + 1,)), term) for i in range(7)]
    )
    region = Region.from_sites((i,) for i in range(8))
    yield "random-sz-chain-8", assemble_hamiltonian(inter, region, "free"), random_beta(rng)


def test_blocked_spectrum_matches_the_whole_matrix(rng):
    # Z, expectations, Gibbs traces on part of the bonds and correlations
    # against one eigvalsh or eigh of the whole matrix. sigma_x and the
    # complex SITE_OBS are not block-diagonal in the up-spin sectors, so
    # the off-block entries of A that the blocked trace drops are tested.
    # An expectation that vanishes by symmetry is compared on the scale
    # of A, whose norm is about 1.
    for label, ham, beta in _split_volumes(rng):
        assert ham.q ** len(ham.sites) >= _SPLIT_DIM
        orc, every, sites = Oracle(ham, beta), range(len(ham.bonds)), ham.sites
        z = z_direct_reference(ham, beta, every)
        assert abs(orc.z() - z) <= 1e-13 * abs(z), label
        away = [i for i, b in enumerate(ham.bonds) if sites[3] not in b]
        for obs in (
            Observable.make(sites[:2], ZZ),
            Observable.make(sites[-1:], SIGMA_X),
            Observable.make(sites[2:3], SITE_OBS),
        ):
            want = weighted_trace_reference(ham, beta, obs, every, sites) / z
            assert abs(orc.expectation(obs) - want) <= 1e-13 * max(abs(want), 1.0), label
            want = weighted_trace_reference(ham, beta, obs, away, sites)
            got = orc.weighted_trace(obs, away, sites)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), label
        for x0 in (sites[:1], sites[1:3]):
            x0 = set(x0)
            ids = [i for i, b in enumerate(ham.bonds) if x0.isdisjoint(b)]
            want = z_direct_reference(ham, beta, ids) / z
            assert abs(orc.reduced_correlation(x0) - want) <= 1e-13 * abs(want), label


def test_oracles_sharing_spectra_across_beta_match_fresh_ones(monkeypatch):
    # One volume above the split size, one below, one classical. The fresh
    # oracle asks in another order, so no value depends on what the
    # shared spectra already hold. The later betas build no quantum matrix
    # of the split size or more; every H_B is built by `_on`, whose second
    # argument is the support.
    builds = []
    build = Oracle._on
    monkeypatch.setattr(
        Oracle, "_on", lambda self, *args: builds.append(args) or build(self, *args)
    )
    cases = [
        (xy_model(1), [8], "periodic"),
        (heisenberg_model(2), [2, 3], "free"),
        (ising_model(2, field_h=0.3), [3, 3], "free"),
    ]
    for model, extent, boundary in cases:
        ham = assemble_hamiltonian(model, Region.box(extent), boundary)
        sites = ham.sites
        obs = (Observable.make(sites[:1], np.array([1.0, -1.0])) if ham.kind == CLASSICAL
               else Observable.make(sites[:2], ZZ))
        orc = None
        for beta in (0.3, 0.2 - 0.15j, -0.25):
            first = orc is None
            orc = Oracle(ham, beta) if first else orc.at(beta)
            before = len(builds)
            got = [orc.z(), orc.expectation(obs), orc.reduced_correlation(sites[1:3])]
            large = [args for args in builds[before:]
                     if ham.kind == QUANTUM and ham.q ** len(args[1]) >= _SPLIT_DIM]
            assert first or large == []
            fresh = Oracle(ham, beta)
            corr = fresh.reduced_correlation(sites[1:3])
            assert [fresh.z(), fresh.expectation(obs), corr] == got
            pair = [1, 2]
            assert fresh.weighted_trace(obs, pair, sites) == orc.weighted_trace(obs, pair, sites)
            assert fresh.rho([0, 1]) == orc.rho([0, 1])


def test_heisenberg_3x3_splits_into_its_sz_sectors():
    ham = assemble_hamiltonian(heisenberg_model(2), Region.box([3, 3]))
    _, h = Oracle(ham, 0.0).hamiltonian_on(range(len(ham.bonds)))
    blocks = [r for rows, _ in _Spectrum(h).groups for r in rows]
    assert sorted(map(len, blocks)) == [1, 1, 9, 9, 36, 36, 84, 84, 126, 126]
    for rows in blocks:
        assert len({bin(int(i)).count("1") for i in rows}) == 1
    # Below the split size a matrix stays whole, on the path it always took.
    ham = assemble_hamiltonian(heisenberg_model(2), Region.box([2, 3]))
    _, h = Oracle(ham, 0.0).hamiltonian_on(range(len(ham.bonds)))
    assert [rows for rows, _ in _Spectrum(h).groups] == [None]
    assert np.array_equal(_Spectrum(h).energies(), np.linalg.eigvalsh(h))


def test_pattern_blocks_are_the_connected_components(rng):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    for n, p in [(1, 0.0), (9, 0.0), (40, 0.03), (64, 0.08), (90, 0.3)]:
        pattern = rng.random((n, n)) < p
        pattern |= pattern.T
        got = _pattern_blocks(np.where(pattern, 1.0 + rng.random((n, n)), 0.0))
        _, labels = csgraph.connected_components(pattern, directed=False)
        want = {}
        for i, lab in enumerate(labels):
            want.setdefault(lab, []).append(i)
        assert [list(rows) for rows in got] == sorted(want.values())

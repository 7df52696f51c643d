import itertools
import math

import numpy as np
import pytest

from polymerion import (
    ConfigError,
    Interaction,
    LatticeModel,
    Observable,
    Oracle,
    Region,
    WrapError,
    alpha_norm,
    assemble_hamiltonian,
    heisenberg_model,
    ising_model,
    operator_norm,
    partition_function,
    potts_model,
    xy_model,
)
from polymerion.config import build_model
from polymerion.model import QUANTUM, _relabel, embed_matrix, embed_table

from helpers import COHERENT, embed_matrix_reference, random_hermitian, random_table


def test_box_region_counts():
    r = Region.box([2, 3])
    assert len(r) == 6
    assert (0, 0) in r and (1, 2) in r and (2, 0) not in r


def test_free_assembly_counts_2x3():
    ham = assemble_hamiltonian(ising_model(2), Region.box([2, 3]), boundary="free")
    # 3 vertical pairs + 4 horizontal pairs inside a 2x3 box
    assert len(ham.bonds) == 7
    assert ham.meta["interior"] == 7
    assert len(ham.sites) == 6


def test_periodic_wrap_counts():
    ham = assemble_hamiltonian(ising_model(1), Region.box([5]), boundary="periodic")
    assert len(ham.bonds) == 5
    assert ham.meta["wrapped"] == 1


def test_periodic_double_cover_merges_to_one_bond():
    ham = assemble_hamiltonian(ising_model(1), Region.box([2]), boundary="periodic")
    assert len(ham.bonds) == 1
    assert ham.meta["merged"] == 1
    z = partition_function(ham, 0.3)
    assert abs(z - math.cosh(0.6)) < 1e-12


def test_periodic_self_wrap_is_an_error():
    with pytest.raises(WrapError) as err:
        assemble_hamiltonian(ising_model(1), Region.box([1]), boundary="periodic")
    assert "(0,)" in str(err.value)


def test_periodic_box_of_the_wrong_dimension_is_refused():
    # A 2D model on a 1D box: the wrap zipped the coordinates short, and
    # either raised a WrapError about a bond the box cannot hold or, for
    # diagonal templates, assembled a volume.
    diag = LatticeModel.from_templates(2, 2, "classical", [([(0, 0), (1, 1)], [1.0, 0, 0, 1])])
    for model in (ising_model(2), diag):
        with pytest.raises(ConfigError, match="dimension 1, model has 2"):
            assemble_hamiltonian(model, Region.box([3]), boundary="periodic")


def test_periodic_needs_lattice_model():
    inter = Interaction.from_terms(
        q=2, kind="classical", terms=[((((0,), (1,)))[:], np.zeros(4) + 1.0)]
    )
    with pytest.raises(ConfigError):
        assemble_hamiltonian(inter, Region.box([4]), boundary="periodic")


def test_product_contraction_matches_tensordot(rng):
    # One pair bond sticking out of a single-site region; contracting the
    # outside leg against theta must equal the explicit tensordot.
    q = 2
    table = rng.standard_normal((q, q))
    inter = Interaction.from_terms(
        q=q, kind="classical", terms=[(((0,), (1,)), table)]
    )
    region = Region.from_sites([(0,)])
    theta = np.array([0.3, 0.7])
    ham = assemble_hamiltonian(inter, region, boundary="product", theta=theta)
    assert ham.bonds == (((0,),),)
    expected = table @ theta
    got = ham.ops[0].reshape(-1)
    assert np.allclose(got, expected, atol=1e-14)
    assert ham.meta["contracted"] == 1


def test_product_contraction_quantum_partial_trace(rng):
    q = 2
    mat = random_hermitian(rng, q, 2, 0.9)
    inter = Interaction.from_terms(q=q, kind="quantum", terms=[(((0,), (1,)), mat)])
    ham = assemble_hamiltonian(
        inter, Region.from_sites([(0,)]), boundary="product"
    )
    # Default theta is the maximally mixed state: partial trace / q.
    t = mat.reshape(q, q, q, q)
    expected = np.trace(t, axis1=1, axis2=3) / q
    assert np.allclose(ham.ops[0], expected, atol=1e-14)


def test_free_boundary_drops_outside_bonds():
    ham = assemble_hamiltonian(ising_model(1), Region.box([3]), boundary="free")
    assert len(ham.bonds) == 2
    sites = set(ham.sites)
    assert all(set(b) <= sites for b in ham.bonds)


def test_embed_table_total_consistency(rng):
    # Summing an embedded table against the product measure equals the
    # mean of the original table.
    q = 3
    table = rng.standard_normal((q, q))
    big = embed_table(table, ((0,), (2,)), ((0,), (1,), (2,)), q).reshape(q, q, q)
    assert abs(big.mean() - table.mean()) < 1e-14
    # And embedding does not touch the acting axes.
    assert np.allclose(big[:, 0, :], table)


def test_embed_matrix_is_kron_with_identity(rng):
    q = 2
    m = random_hermitian(rng, q, 1, 1.0)
    big = embed_matrix(m, ((1,),), ((0,), (1,)), q)
    assert np.allclose(big, np.kron(np.eye(q), m), atol=1e-14)
    big0 = embed_matrix(m, ((0,),), ((0,), (1,)), q)
    assert np.allclose(big0, np.kron(m, np.eye(q)), atol=1e-14)


FOUR_SITES = ((0,), (1,), (2,), (3,))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "support",
    [((0,),), ((2,),), ((3,),), ((0,), (2,)), ((1,), (3,)), ((0,), (1,), (3,)), FOUR_SITES],
)
def test_embed_matrix_matches_the_tensordot_reference(rng, q, support):
    k = len(support)
    hermitian = random_hermitian(rng, q, k, 1.0)
    general = rng.standard_normal((q**k, q**k)) + 1j * rng.standard_normal((q**k, q**k))
    real = rng.standard_normal((q**k, q**k))
    for mat in (hermitian, general, real):
        got = embed_matrix(mat, support, FOUR_SITES, q)
        want = embed_matrix_reference(mat, support, FOUR_SITES, q)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _scattered_hamiltonian(rng, q, kind):
    """Fields, pairs and a triple on four sites, none of them a prefix only.
    "mixed" is quantum with every other term real (float64)."""
    bonds = [((0,),), ((2,),), ((0,), (1,)), ((1,), (3,)), ((0,), (2,)), ((0,), (2,), (3,))]
    if kind == "classical":
        terms = [(b, random_table(rng, q, len(b), 1.0)) for b in bonds]
    else:
        terms = [(b, random_hermitian(rng, q, len(b), 1.0)) for b in bonds]
    if kind == "mixed":
        terms = [(b, m.real if j % 2 else m) for j, (b, m) in enumerate(terms)]
        kind = QUANTUM
    inter = Interaction.from_terms(q=q, kind=kind, terms=terms)
    return assemble_hamiltonian(inter, Region.from_sites(FOUR_SITES), boundary="free")


def _summed_embeddings(ham, ids, sites, dtype):
    """H_B as the sum of the reference embeddings, in the order of `ids`."""
    q, dim = ham.q, ham.q ** len(sites)
    if ham.kind == "classical":
        want = np.zeros(dim)
        for i in ids:
            want = want + embed_table(ham.ops[i], ham.bonds[i], sites, q)
        return want
    want = np.zeros((dim, dim), dtype=dtype)
    for i in ids:
        want = want + embed_matrix_reference(ham.ops[i], ham.bonds[i], sites, q)
    return want


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["classical", "quantum", "mixed"])
def test_hamiltonian_on_sums_the_old_embeddings_bit_for_bit(rng, q, kind):
    ham = _scattered_hamiltonian(rng, q, kind)
    if kind == "mixed":
        assert {op.dtype for op in ham.ops} == {np.dtype(float), np.dtype(complex)}
    dtype = float if kind == "classical" else complex
    orc = Oracle(ham, 0.3)
    n_bonds = len(ham.bonds)
    for mask in range(1, 1 << n_bonds):
        ids = frozenset(i for i in range(n_bonds) if (mask >> i) & 1)
        # The bonds' own sites, the volume, and (where there is one) a
        # support between the two.
        supports = [None, ham.sites]
        outside = [s for s in ham.sites if s not in ham.support(ids)]
        if len(outside) > 1:
            supports.append(tuple(sorted(ham.support(ids) + (outside[0],))))
        for support in supports:
            sites, got = orc.hamiltonian_on(ids, support)
            assert sites == (ham.support(ids) if support is None else support)
            want = _summed_embeddings(ham, ids, sites, dtype)
            assert got.dtype == np.dtype(dtype)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_the_512_row_heisenberg_matrix_is_the_old_sum_bit_for_bit():
    ham = assemble_hamiltonian(heisenberg_model(2), Region.box([3, 3]))
    every = frozenset(range(len(ham.bonds)))
    sites, got = Oracle(ham, 0.3).hamiltonian_on(every)
    assert got.shape == (512, 512) and got.dtype == np.float64
    assert got.tobytes() == _summed_embeddings(ham, every, sites, float).tobytes()


def test_hamiltonian_on_takes_its_support_sorted():
    ham = assemble_hamiltonian(heisenberg_model(1), Region.box([4]))
    orc = Oracle(ham, 0.3)
    sites, got = orc.hamiltonian_on([0], [(1,), (0,)])
    assert sites == ((0,), (1,))
    assert np.array_equal(got, orc.hamiltonian_on([0])[1])


def test_relabel_moves_table_and_matrix_axes_alike(rng):
    # Sites 0, 1, 2 become 5, 3, 4: the new axes, in sorted order, are the
    # old axes 1, 2, 0.
    q, old = 3, ((0,), (1,), (2,))
    site_map = {(0,): (5,), (1,): (3,), (2,): (4,)}
    table = rng.normal(size=q**3)
    mat = rng.normal(size=(q**3, q**3)) + 1j * rng.normal(size=(q**3, q**3))
    new, t = _relabel(table, old, site_map, q)
    assert new == ((3,), (4,), (5,))
    new_m, m = _relabel(mat, old, site_map, q)
    assert new_m == new and m.shape == mat.shape
    t3, told = t.reshape((q,) * 3), table.reshape((q,) * 3)
    m6, mold = m.reshape((q,) * 6), mat.reshape((q,) * 6)
    for a, b, c in itertools.product(range(q), repeat=3):
        assert t3[a, b, c] == told[c, a, b]
        for d, e, f in itertools.product(range(q), repeat=3):
            assert m6[a, b, c, d, e, f] == mold[c, a, b, f, d, e]
    assert np.array_equal(_relabel(np.diag(table), old, site_map, q)[1], np.diag(t))


def test_operator_norm_classical_and_quantum(rng):
    table = np.array([1.0, -3.0, 2.0, 0.5])
    assert operator_norm(table) == 3.0
    m = random_hermitian(rng, 2, 2, 1.0)
    w = np.linalg.eigvalsh(m)
    assert abs(operator_norm(m) - np.max(np.abs(w))) < 1e-12


def test_alpha_norm_lattice_closed_form():
    # Ising pair bonds: each site meets 2d bonds of 2 sites and norm J.
    d, j, alpha = 2, 0.7, 0.3
    got = alpha_norm(ising_model(d, coupling=j), alpha)
    assert abs(got - 2 * d * j * math.exp(2 * alpha)) < 1e-12


def test_alpha_norm_finite_matches_lattice_in_bulk():
    model = ising_model(2)
    ham = assemble_hamiltonian(model, Region.box([5, 5]), boundary="periodic")
    assert abs(alpha_norm(ham, 0.2) - alpha_norm(model, 0.2)) < 1e-12


def test_heisenberg_and_potts_presets():
    hm = heisenberg_model(1, coupling=0.5)
    assert hm.q == 2 and hm.kind == "quantum"
    (offsets, data), = hm.templates
    assert data.shape == (4, 4)
    assert np.allclose(data, data.conj().T)
    pm = potts_model(3, 1)
    ham = assemble_hamiltonian(pm, Region.box([2]), boundary="free")
    table = ham.ops[0].reshape(3, 3)
    # Potts couples equal states only.
    assert table[0, 0] != 0.0
    assert table[0, 1] == 0.0


def test_term_validation_errors():
    with pytest.raises(ConfigError):
        Interaction.from_terms(q=2, kind="classical", terms=[(((0,),), np.zeros(3))])
    # A term that fails only through its imaginary part: the cast must not hide it.
    for data in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0, 1j], [1j, 0]])):
        with pytest.raises(ConfigError, match="not Hermitian"):
            Interaction.from_terms(q=2, kind="quantum", terms=[(((0,),), data)])
    with pytest.raises(ConfigError):
        Interaction.from_terms(
            q=2,
            kind="classical",
            terms=[(((0,), (1,)), np.ones(4)), (((1,), (0,)), np.ones(4))],
        )


def test_restricted_away_removes_meeting_bonds():
    ham = assemble_hamiltonian(ising_model(1), Region.box([4]), boundary="free")
    sub = ham.restricted_away((0,))
    assert len(sub.bonds) == len(ham.bonds) - 1
    assert all((0,) not in b for b in sub.bonds)


def test_restricted_away_refuses_sites_it_cannot_place():
    ham = assemble_hamiltonian(ising_model(2), Region.box([2, 3]), boundary="free")
    # One 2-d site, as everywhere else a site set is read.
    sub = ham.restricted_away((0, 1))
    assert len(sub.bonds) == len(ham.bonds) - 3
    assert all((0, 1) not in b for b in sub.bonds)
    with pytest.raises(ConfigError, match="not in the volume"):
        ham.restricted_away([(9, 9)])
    with pytest.raises(ConfigError, match="not in the volume"):
        ham.restricted_away([(0, 0), (9, 9)])
    chain = assemble_hamiltonian(ising_model(1), Region.box([4]), boundary="free")
    with pytest.raises(ConfigError, match="not in the volume"):
        chain.restricted_away((0, 1))


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAIR = (((0,), (1,)), ((1,), (2,)))
# A Hermitian pair term with no real part: sx sy - sy sx.
DM = np.kron(PAULI_X, PAULI_Y) - np.kron(PAULI_Y, PAULI_X)


def test_exactly_real_quantum_terms_are_stored_as_float64():
    for model in (heisenberg_model(2, 0.7), xy_model(1, -1.3)):
        assert [data.dtype for _, data in model.templates] == [np.float64] * model.dimension
    zz = np.kron(PAULI_Z, PAULI_Z)
    inter = Interaction.from_terms(2, QUANTUM, [(PAIR[0], zz), (PAIR[1], DM)])
    assert [inter.terms[b].dtype for b in PAIR] == [np.float64, np.complex128]
    assert np.array_equal(inter.terms[PAIR[0]], zz.real)
    assert not inter.terms[PAIR[0]].flags.writeable
    # Config terms written as [re, im] pairs go the same way.
    model = build_model({"model": {"kind": "quantum", "q": 2, "dimension": 1, "terms": [
        {"sites": [[0], [1]], "data": [[[v, 0.0] for v in row] for row in zz.real.tolist()]},
        {"sites": [[0]], "data": [[0, [0, -1]], [[0, 1], 0]]},
    ]}})
    assert sorted(str(data.dtype) for _, data in model.templates) == ["complex128", "float64"]


@pytest.mark.parametrize(
    "extent, boundary, theta",
    [([4], "free", None), ([2], "periodic", None), ([5], "periodic", None),
     ([3], "product", np.diag([0.7, 0.3]))],
)
def test_assembled_real_operators_are_float64(extent, boundary, theta):
    # Merged (periodic, extent 2) and contracted (product) operators are
    # cast where assembly finalizes them.
    ham = assemble_hamiltonian(heisenberg_model(1), Region.box(extent), boundary, theta)
    assert ham.ops and all(op.dtype == np.float64 for op in ham.ops)
    if boundary == "periodic" and extent == [2]:
        assert ham.meta["merged"] == 1
    if boundary == "product":
        assert ham.meta["contracted"] == 2 and len(ham.bonds) == 4


def test_imaginary_parts_keep_an_operator_complex():
    ham = assemble_hamiltonian(heisenberg_model(1), Region.box([3]), "product", COHERENT)
    kinds = {len(b): op.dtype for b, op in zip(ham.bonds, ham.ops)}
    assert kinds == {1: np.complex128, 2: np.float64}
    site_term = ham.ops[ham.bond_index([(0,)])]
    assert np.allclose(site_term, -0.5 * PAULI_Y)
    inter = Interaction.from_terms(2, QUANTUM, [(PAIR[0], DM)])
    ham = assemble_hamiltonian(inter, Region.box([3]))
    assert [op.dtype for op in ham.ops] == [np.complex128]


@pytest.mark.parametrize("coupling", [1.0, 0.7, -1.3, 2.0, 1 / 3])
def test_preset_norms_are_bit_equal_to_their_complex_values(coupling):
    # Radius scans compare grid points exactly, so the cast must not move a norm.
    for model in (heisenberg_model(1, coupling), xy_model(2, coupling)):
        for _, data in model.templates:
            assert operator_norm(data) == operator_norm(data.astype(complex))
        extents = ([2] * model.dimension, [3] * model.dimension)
        for extent, boundary in itertools.product(extents, ("free", "periodic", "product")):
            theta = np.diag([0.7, 0.3]) if boundary == "product" else None
            ham = assemble_hamiltonian(model, Region.box(extent), boundary, theta)
            assert list(ham.norms) == [operator_norm(op.astype(complex)) for op in ham.ops]


def test_a_region_of_mixed_site_dimensions_is_refused():
    # (0, 1) was kept as a site that no bond of a d = 1 model could touch.
    with pytest.raises(ConfigError, match="dimensions"):
        Region.from_sites([(0,), (1,), (0, 1)])


def test_terms_read_their_data_in_the_order_of_their_sites(rng):
    # Rows of the table are the first site written. <s_0> at beta = 0.7
    # read -0.0282 through both constructors where the term was written on
    # ((1,), (0,)) with its table transposed, and -0.1967 written sorted.
    table = np.array([[0.0, 1.0], [0.3, -0.5]])
    spin = Observable.make([(0,)], [1.0, -1.0])
    values = []
    for sites, data in (([(0,), (1,)], table), ([(1,), (0,)], table.T)):
        for source in (Interaction.from_terms(2, "classical", [(sites, data)]),
                       LatticeModel.from_templates(1, 2, "classical", [(sites, data)])):
            ham = assemble_hamiltonian(source, Region.box([2]), boundary="free")
            values.append(Oracle(ham, 0.7).expectation(spin))
    assert values == [values[0]] * 4
    assert abs(values[0] - (-0.19671)) < 1e-4

    # Three sites in every order, tables and matrices: the data is permuted
    # into sorted-site order, entry for entry, and stays read-only.
    sites = [(0,), (1,), (2,)]
    table = random_table(rng, 2, 3, 1.0)
    mat = random_hermitian(rng, 2, 3, 1.0)
    for kind, data in (("classical", table), (QUANTUM, mat)):
        tensor = data.reshape((2,) * (3 if kind == "classical" else 6))
        for p in itertools.permutations(range(3)):
            axes = list(p) if kind == "classical" else list(p) + [3 + i for i in p]
            given = tensor.transpose(axes).reshape(data.shape)
            written = [sites[i] for i in p]
            inter = Interaction.from_terms(2, kind, [(written, given)])
            model = LatticeModel.from_templates(1, 2, kind, [(written, given)])
            for stored in (inter.terms[tuple(sites)], model.templates[0][1]):
                assert np.array_equal(stored, data.reshape(stored.shape))
                assert not stored.flags.writeable

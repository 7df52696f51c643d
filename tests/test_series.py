import cmath
import dataclasses
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest

from polymerion import (
    ConfigError,
    Interaction,
    NumericalError,
    Observable,
    Oracle,
    Region,
    adaptive_free_energy_series,
    assemble_hamiltonian,
    correlation_series,
    enumerate_polymers,
    expectation_series,
    free_energy_by_site,
    free_energy_density,
    free_energy_series,
    gibbs_expectation,
    heisenberg_model,
    ising_model,
    partition_function,
    pinned_series,
    polymer_weights,
    reduced_correlation_exact,
    site_pinned_series,
)
from polymerion import series
from polymerion.model import CLASSICAL, QUANTUM
from polymerion.polymers import Polymer, _pin_mask, incompatibility_graph
from polymerion.series import _count_clusters, expectation_families

from helpers import (
    chain_interaction,
    count_clusters_reference,
    expectation_reference,
    random_hermitian,
    random_instance,
    random_observable,
    random_table,
)


def small_chain(beta_scale=1.0):
    m = ising_model(1, coupling=0.3)
    return assemble_hamiltonian(m, Region.box([4]), boundary="free")


def test_order_one_is_polymer_activity_sum():
    ham = small_chain()
    beta = 0.4
    s = free_energy_series(ham, beta, 1)
    orc = Oracle(ham, beta)
    expected = sum(orc.rho((i,)) for i in range(len(ham.bonds)))
    assert abs(s.by_order[1] - expected) < 1e-14
    assert s.by_order[0] == 0


def test_series_exponentiates_to_z_on_chain():
    ham = small_chain()
    beta = 0.35
    s = free_energy_series(ham, beta, 10)
    z = partition_function(ham, beta)
    assert abs(cmath.exp(s.value) - z) < 1e-11 * abs(z)


def test_orders_decay_geometrically():
    ham = small_chain()
    s = free_energy_series(ham, 0.3, 8)
    mags = [abs(t) for t in s.by_order[1:] if abs(t) > 0]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_adaptive_series_reports_convergence():
    ham = small_chain()
    s = adaptive_free_energy_series(ham, 0.3, tol=1e-12, start=4, step=2, cap=12)
    assert s.converged
    z = partition_function(ham, 0.3)
    assert abs(cmath.exp(s.value) - z) < 1e-11 * abs(z)
    hot = adaptive_free_energy_series(ham, 3.5, tol=1e-13, start=4, step=2, cap=6)
    assert not hot.converged
    # The returned round is the fixed-order series, clusters counted there.
    for got, beta in ((s, 0.3), (hot, 3.5)):
        assert got.truncation > 4
        fixed = free_energy_series(ham, beta, got.truncation)
        assert got == dataclasses.replace(fixed, converged=got.converged)
        assert got.n_clusters == fixed.n_clusters


def test_adaptive_series_is_the_fixed_truncation_series(rng):
    # The rounds share one activity memo; the result must not depend on it.
    for i in range(12):
        label, ham, beta = random_instance(rng, i)
        got = adaptive_free_energy_series(ham, beta, tol=1e-12)
        fixed = free_energy_series(ham, beta, got.truncation)
        assert got == dataclasses.replace(fixed, converged=got.converged), label
        assert got.n_clusters == fixed.n_clusters, label


def test_by_site_shares_sum_to_total():
    ham = small_chain()
    beta = 0.4
    shares = free_energy_by_site(ham, beta, 7)
    s = free_energy_series(ham, beta, 7)
    assert abs(sum(shares.values()) - s.value) < 1e-13
    assert set(shares) == set(ham.sites)


def test_single_polymer_pinned_series_closed_forms():
    # One isolated bond: log Z = log(1 + rho). The series pinned at that
    # polymer is d log Z / d rho = 1/(1 + rho); with absolute values it
    # majorizes to 1/(1 - rho).
    m = ising_model(1, coupling=1.0)
    ham = assemble_hamiltonian(m, Region.box([2]), boundary="free")
    beta = 0.4
    rho = float(Oracle(ham, beta).rho((0,)).real)
    (poly,) = enumerate_polymers(ham, 1)
    k = 18
    s = pinned_series(ham, beta, poly, k)
    assert abs(s.value - 1.0 / (1.0 + rho)) < 1e-12
    s_abs = pinned_series(ham, beta, poly, k, absolute=True)
    assert abs(s_abs.value - 1.0 / (1.0 - rho)) < 1e-10
    # Two bonds on three sites: every polymer overlaps every other, so
    # the families are single polymers and the pinned sum is 1/Xi.
    ham = assemble_hamiltonian(m, Region.box([3]), boundary="free")
    orc = Oracle(ham, beta)
    polys = enumerate_polymers(ham, 2)
    rhos = [orc.rho(p.bonds) for p in polys]
    for pin in polys:
        s = pinned_series(ham, beta, pin, k)
        assert abs(s.value - 1.0 / (1.0 + sum(rhos))) < 1e-12
        s_abs = pinned_series(ham, beta, pin, k, absolute=True)
        assert abs(s_abs.value - 1.0 / (1.0 - sum(abs(r) for r in rhos))) < 1e-10


def test_site_pin_equals_full_minus_restricted():
    # Clusters through a site are exactly the clusters lost when the
    # bonds meeting that site are removed, order by order.
    ham = small_chain()
    beta = 0.33
    x = (1,)
    k = 7
    pinned = site_pinned_series(ham, beta, x, k)
    full = free_energy_series(ham, beta, k)
    rest = free_energy_series(ham.restricted_away(x), beta, k)
    for a, b, c in zip(pinned.by_order, full.by_order, rest.by_order):
        assert abs(a - (b - c)) < 1e-13


def test_correlation_series_matches_exact_ratio():
    ham = assemble_hamiltonian(
        ising_model(1, coupling=0.3, field_h=0.2), Region.box([4]), boundary="free"
    )
    beta = 0.3
    for x0 in [(0,), (1,), [(0,), (2,)]]:
        got = correlation_series(ham, beta, x0, 8).value
        want = reduced_correlation_exact(ham, beta, x0)
        assert abs(got - want) < 1e-8 * abs(want)


def test_sites_outside_the_volume_are_refused():
    # On a chain, (0, 3) is one two-dimensional site, not the pair
    # [(0,), (3,)]; it used to be read as a site meeting no bond.
    ham = small_chain()
    beta = 0.2
    want = reduced_correlation_exact(ham, beta, [(0,), (3,)])
    assert abs(correlation_series(ham, beta, [(0,), (3,)], 6).value - want) < 1e-8
    with pytest.raises(ConfigError):
        correlation_series(ham, beta, (0, 3), 6)
    with pytest.raises(ConfigError):
        site_pinned_series(ham, beta, (9,), 6)
    with pytest.raises(ConfigError):
        site_pinned_series(ham, beta, (0, 3), 6)


def test_site_pinned_series_pins_exactly_one_site():
    ham = small_chain()
    with pytest.raises(ConfigError, match="one site"):
        site_pinned_series(ham, 0.2, [(0,), (1,)], 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda ham: free_energy_series(ham, 0.3, -1),
        lambda ham: correlation_series(ham, 0.3, [(0,)], -1),
        lambda ham: pinned_series(ham, 0.3, enumerate_polymers(ham, 1)[0], -1),
        lambda ham: free_energy_by_site(ham, 0.3, -1),
        lambda ham: site_pinned_series(ham, 0.3, (0,), -1),
        lambda ham: adaptive_free_energy_series(ham, 0.3, start=-2),
    ],
    ids=["free_energy", "correlation", "pinned", "by_site", "site_pinned", "adaptive"],
)
def test_negative_truncations_are_refused(call):
    # Each used to fail with a bare IndexError.
    with pytest.raises(ConfigError, match="at least 0"):
        call(small_chain())


def test_adaptive_series_refuses_a_step_below_one():
    # At step 0 the truncation never rises: with tol 0 the loop never ended.
    with pytest.raises(ConfigError, match="step must be at least 1"):
        adaptive_free_energy_series(small_chain(), 0.3, tol=0.0, step=0)


def test_correlation_series_is_exp_of_series_difference():
    ham = small_chain()
    beta = 0.28
    x0 = (2,)
    k = 8
    c = correlation_series(ham, beta, x0, k)
    full = free_energy_series(ham, beta, k)
    rest = free_energy_series(ham.restricted_away(x0), beta, k)
    assert abs(c.value - cmath.exp(rest.value - full.value)) < 1e-13


def test_expectation_identity_exact_classical(rng):
    inter = chain_interaction(rng, 2, "classical", 4, 0.4, with_fields=True)
    ham = assemble_hamiltonian(
        inter, Region.from_sites((i,) for i in range(4)), boundary="free"
    )
    beta = 0.37
    obs = Observable.make([(1,)], np.array([0.8, -1.3]))
    got = expectation_series(ham, beta, obs).value
    want = gibbs_expectation(ham, beta, obs)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_expectation_identity_exact_quantum(rng):
    inter = chain_interaction(rng, 2, "quantum", 3, 0.4)
    ham = assemble_hamiltonian(
        inter, Region.from_sites((i,) for i in range(3)), boundary="free"
    )
    beta = 0.21 + 0.1j
    obs = random_observable(rng, ham)
    got = expectation_series(ham, beta, obs).value
    want = gibbs_expectation(ham, beta, obs)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_quantum_expectations_by_site_set_match_the_per_family_sum(rng):
    # The generator alternates classical and quantum instances: free chains,
    # the product-boundary cluster with its 3-site bond, periodic rings.
    # Each takes a one-site and a two-site observable, at its own beta and
    # at a complex beta of the same modulus. Quantum sums by site set agree
    # with the per-family sum to rounding; classical ones are that sum, and
    # equal it bit for bit.
    seen = set()
    for i in range(30):
        label, ham, beta = random_instance(rng, i)
        sites = sorted(ham.sites)
        random_data = random_table if ham.kind == CLASSICAL else random_hermitian
        for pick in ([sites[int(rng.integers(len(sites)))]], sites[:2]):
            obs = Observable.make(pick, random_data(rng, ham.q, len(pick), 1.0))
            for b in (beta, abs(beta) * cmath.exp(1j * rng.uniform(0.3, 2.8))):
                got = expectation_series(ham, b, obs).value
                reference = expectation_reference(ham, b, obs)
                if ham.kind == CLASSICAL:
                    assert got == reference, label
                for want in (reference, Oracle(ham, b).expectation(obs)):
                    assert abs(got - want) <= 1e-10 * abs(want), label
        seen.add((label.split("-")[0], ham.kind))
    assert seen == set(itertools.product(("free", "product", "periodic"), (CLASSICAL, QUANTUM)))


def test_expectation_on_the_heisenberg_3x3_patch():
    # 1 703 bond families of up to 12 bonds, each an inclusion-exclusion
    # over its 2^|B| subfamilies: 9.2 s by the family route. The 161 site
    # sets of those families take one trace each.
    ham = assemble_hamiltonian(heisenberg_model(2), Region.box([3, 3]), boundary="free")
    oracle = Oracle(ham, 0.1)
    sz = np.diag([1.0, -1.0])
    for sites, data in (([(1, 1)], sz), ([(1, 1), (1, 2)], np.kron(sz, sz))):
        obs = Observable.make(sites, data)
        assert abs(expectation_series(ham, 0.1, obs).value - oracle.expectation(obs)) < 1e-12


def test_expectation_series_g_mode():
    ham = assemble_hamiltonian(
        ising_model(1, coupling=0.2, field_h=0.1), Region.box([3]), boundary="free"
    )
    beta = 0.3
    obs = Observable.make([(0,)], np.array([1.0, -1.0]))
    exact = gibbs_expectation(ham, beta, obs)
    viaseries = expectation_series(
        ham, beta, obs, g_mode="series", correlation_truncation=9
    )
    assert viaseries.g_mode == "series"
    assert abs(viaseries.value - exact) < 1e-8 * max(1.0, abs(exact))


def test_series_ratios_share_one_oracle_and_one_polymer_list(monkeypatch):
    # Each distinct ratio called correlation_series, with its own oracle
    # and enumeration: 3 876 activities on this patch, against 204 for
    # one free-energy series at the same cut.
    ham = assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([2, 3]), boundary="free")
    obs = Observable.make([(0, 0)], [1.0, -1.0])
    calls = []
    rho = Oracle.rho
    monkeypatch.setattr(Oracle, "rho", lambda self, ids: calls.append(tuple(ids)) or rho(self, ids))
    got = expectation_series(ham, 0.05, obs, g_mode="series", correlation_truncation=4)
    assert len(calls) == len(set(calls)) == len(enumerate_polymers(ham, 4)) == 204
    exact = gibbs_expectation(ham, 0.05, obs)
    assert abs(got.value - exact) < 1e-6


def test_expectation_series_checks_the_correlation_truncation_up_front():
    # Checked when the first ratio was computed, under the name of the
    # series' own cut; with no ratio to compute, -1 answered 0.
    ham = small_chain()
    nonzero = Observable.make([(0,)], np.array([1.0, -1.0]))
    never = Observable.make([(1,)], [1, -1])
    assert expectation_series(ham, 0.3, never, g_mode="series").value == 0
    for obs in (nonzero, never):
        for bad, match in ((-1, "correlation_truncation must be at least 0"),
                           (2.5, "correlation_truncation must be an integer")):
            with pytest.raises(ConfigError, match=match):
                expectation_series(ham, 0.3, obs, g_mode="series", correlation_truncation=bad)


def test_expectation_series_refuses_a_misshaped_observable():
    ham = small_chain()
    orc = Oracle(ham, 0.3)
    # A one-entry table on a q=2 site, as a two-number config list gives.
    flat = Observable.make([(1,)], np.array([1.0 - 1.0j]))
    with pytest.raises(ConfigError, match=r"\[re, im\]"):
        expectation_series(ham, 0.3, flat)
    with pytest.raises(ConfigError, match=r"\[re, im\]"):
        orc.expectation(flat)
    quantum = assemble_hamiltonian(heisenberg_model(1), Region.box([3]), boundary="free")
    for sites, data in (([(1,)], [1.0, -1.0]), ([(0,), (1,)], np.eye(2))):
        with pytest.raises(ConfigError, match="matrices"):
            expectation_series(quantum, 0.3, Observable.make(sites, data))


def _brute_families(ham, x0, k):
    # Every bond subset of at most k bonds, in combinations order, kept
    # when each component (bonds merged while their sites overlap) meets X0.
    x0 = set(x0)
    out = []
    for r in range(min(k, len(ham.bonds)) + 1):
        for ids in itertools.combinations(range(len(ham.bonds)), r):
            components = []
            for i in ids:
                sites = set(ham.bonds[i])
                for c in [c for c in components if c & sites]:
                    components.remove(c)
                    sites |= c
                components.append(sites)
            if all(c & x0 for c in components):
                out.append(ids)
    return out


def test_expectation_families_match_brute_force():
    cases = [
        (ising_model(2, field_h=0.3), [2, 3], "free", [(0, 1)]),
        (ising_model(1), [6], "periodic", [(0,), (3,)]),
        (heisenberg_model(2), [2, 3], "free", [(0, 0), (0, 1)]),
    ]
    for model, extent, boundary, x0 in cases:
        ham = assemble_hamiltonian(model, Region.box(extent), boundary=boundary)
        m = len(ham.bonds)
        for k in (m - 1, m):
            got = list(expectation_families(ham, x0, k))
            assert got == _brute_families(ham, x0, k), (extent, boundary, k)


def test_expectation_families_past_the_old_subset_cap():
    # 40 bonds at K=6 are 4.6 million subsets but 12184 families.
    ham = assemble_hamiltonian(
        ising_model(2, field_h=0.3), Region.box([4, 4]), boundary="free"
    )
    families = list(expectation_families(ham, [(1, 1)], 6))
    assert len(families) == 12184
    assert families == sorted(families, key=lambda ids: (len(ids), ids))


def test_expectation_family_cap(monkeypatch):
    ham = assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([2, 3]), boundary="free")
    n = len(list(expectation_families(ham, [(0, 0)], 7)))
    monkeypatch.setattr(series, "MAX_EXPECTATION_FAMILIES", n)
    assert len(list(expectation_families(ham, [(0, 0)], 7))) == n
    monkeypatch.setattr(series, "MAX_EXPECTATION_FAMILIES", n - 1)
    with pytest.raises(NumericalError, match="bond families"):
        list(expectation_families(ham, [(0, 0)], 7))


def test_expectation_families_refuse_sites_outside_the_volume():
    ham = assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([2, 3]), boundary="free")
    with pytest.raises(ConfigError, match="not in the volume"):
        list(expectation_families(ham, [(9, 9)], 3))
    with pytest.raises(ConfigError, match="not in the volume"):
        list(expectation_families(ham, [(0, 0), (9, 9)], 3))


def _relabelled_terms(ham, site_map):
    # The bonds of `ham` under new site names, with each operator's axes
    # reordered so that they follow the sorted new names.
    q = ham.q
    terms = []
    for bond, op in zip(ham.bonds, ham.ops):
        k = len(bond)
        new = sorted(site_map[s] for s in bond)
        axis_of = {site_map[s]: a for a, s in enumerate(bond)}
        perm = [axis_of[t] for t in new]
        if ham.kind == "classical":
            data = op.reshape((q,) * k).transpose(perm).ravel()
        else:
            full = perm + [k + a for a in perm]
            data = op.reshape((q,) * (2 * k)).transpose(full).reshape(q**k, q**k)
        terms.append((new, data))
    return terms


def _free_volume(kind, q, terms, sites):
    inter = Interaction.from_terms(q=q, kind=kind, terms=terms)
    return assemble_hamiltonian(inter, Region.from_sites(sites), boundary="free")


def test_relabelling_sites_leaves_z_and_series_unchanged(rng):
    k = 6
    renamed_bonds = 0
    for i in range(12):
        label, ham, beta = random_instance(rng, i)
        sites = sorted(ham.sites)
        shuffled = [sites[j] for j in rng.permutation(len(sites))]
        moved = _free_volume(
            ham.kind, ham.q, _relabelled_terms(ham, dict(zip(sites, shuffled))), sites
        )
        renamed_bonds += set(moved.bonds) != set(ham.bonds)
        z = Oracle(ham, beta).z()
        assert abs(Oracle(moved, beta).z() - z) < 1e-12 * abs(z), label
        # The activities are inclusion-exclusion sums over a reordered
        # basis, equal up to cancellation noise near 1e-15 each.
        want = free_energy_series(ham, beta, k)
        got = free_energy_series(moved, beta, k)
        assert max(abs(x - y) for x, y in zip(got.by_order, want.by_order)) < 1e-13, label
        assert got.n_clusters == want.n_clusters, label
    assert renamed_bonds >= 8


def test_decoupled_volumes_multiply_z_and_add_log_xi(rng):
    # Two volumes of one kind and q, renamed onto disjoint chain sites and
    # joined into one Hamiltonian with no bond between them.
    k = 6
    drawn = [random_instance(rng, i) for i in range(12)]
    joined_kinds = set()
    for (label_a, a, beta), (label_b, b, _) in zip(drawn, drawn[2:]):
        if (a.kind, a.q) != (b.kind, b.q):
            continue
        names_a = [(j,) for j in range(len(a.sites))]
        names_b = [(len(a.sites) + j,) for j in range(len(b.sites))]
        terms = _relabelled_terms(a, dict(zip(sorted(a.sites), names_a)))
        terms += _relabelled_terms(b, dict(zip(sorted(b.sites), names_b)))
        both = _free_volume(a.kind, a.q, terms, names_a + names_b)
        label = f"{label_a} + {label_b}"
        z_a, z_b = Oracle(a, beta).z(), Oracle(b, beta).z()
        assert abs(Oracle(both, beta).z() - z_a * z_b) < 1e-12 * abs(z_a * z_b), label
        s_a, s_b = free_energy_series(a, beta, k), free_energy_series(b, beta, k)
        s = free_energy_series(both, beta, k)
        sums = [x + y for x, y in zip(s_a.by_order, s_b.by_order)]
        assert max(abs(x - y) for x, y in zip(s.by_order, sums)) < 1e-13, label
        assert s.n_clusters == s_a.n_clusters + s_b.n_clusters, label
        joined_kinds.add(a.kind)
    assert joined_kinds == {"classical", "quantum"}


def test_density_matches_log_cosh():
    model = ising_model(1, coupling=1.0)
    beta = 0.1
    s = free_energy_density(model, beta, 8)
    # ~3e4 clusters of rounding noise put the floor just above 1e-14
    assert abs(s.value - math.log(math.cosh(beta))) < 1e-13


def test_density_complex_beta_is_analytic_continuation():
    model = ising_model(1, coupling=1.0)
    beta = 0.08 + 0.05j
    s = free_energy_density(model, beta, 8)
    assert abs(s.value - cmath.log(cmath.cosh(beta))) < 1e-12


def test_series_handles_complex_beta(rng):
    label, ham, beta = random_instance(rng, 4)
    beta = 0.2 + 0.22j
    s = free_energy_series(ham, beta, 8)
    z = partition_function(ham, beta)
    assert abs(cmath.exp(s.value) - z) < 1e-9 * abs(z)


def slope_of(ham, k, betas, logz=None):
    errs = []
    for b in betas:
        s = free_energy_series(ham, b, k)
        want = logz(b) if logz is not None else cmath.log(partition_function(ham, b))
        errs.append(abs(s.value - want))
    lo = np.log(np.asarray(betas))
    hi = np.log(np.asarray(errs))
    return float(np.polyfit(lo, hi, 1)[0])


def test_truncation_error_slope_doubles_for_traceless_bonds():
    # Ising bond activities are cosh(beta J) - 1 = O(beta^2); on a chain
    # every cluster of total size j contributes O(beta^{2j}), so the
    # order-k truncation error scales as beta^{2k+2}.
    ham = assemble_hamiltonian(
        ising_model(1, coupling=1.0), Region.box([5]), boundary="free"
    )
    betas = np.geomspace(0.02, 0.1, 5)
    for k in (2, 3):
        slope = slope_of(ham, k, betas)
        assert abs(slope - (2 * k + 2)) < 0.3


def test_winding_cluster_sets_ring_truncation_slope():
    # On a ring of k+1 bonds the first omitted order is the winding
    # polymer, whose activity sinh^{k+1} is Theta(beta^{k+1}): the parity
    # doubling of the chain does not apply and the slope is k+1.
    for k in (2, 3):
        n = k + 1
        ham = assemble_hamiltonian(
            ising_model(1, coupling=1.0), Region.box([n]), boundary="periodic"
        )
        logz = lambda b, n=n: n * math.log(math.cosh(b)) + math.log1p(
            math.tanh(b) ** n
        )
        slope = slope_of(ham, k, np.geomspace(1e-3, 0.1, 6), logz=logz)
        assert abs(slope - (k + 1)) < 0.3


def test_truncation_error_slope_generic_interaction(rng):
    # With a nonzero-trace bond table the activity is O(beta) and order-k
    # clusters genuinely carry beta^k: the error drops as beta^{k+1}.
    q = 2
    tables = [
        np.array([[0.9, 0.4], [0.3, 1.1]]),
        np.array([[0.7, 1.0], [0.2, 0.6]]),
        np.array([[1.2, 0.5], [0.8, 0.3]]),
    ]
    inter = Interaction.from_terms(
        q=q,
        kind="classical",
        terms=[(((i,), (i + 1,)), t) for i, t in enumerate(tables)],
    )
    ham = assemble_hamiltonian(
        inter, Region.from_sites((i,) for i in range(4)), boundary="free"
    )
    betas = np.geomspace(0.004, 0.02, 5)
    for k in (2, 3):
        slope = slope_of(ham, k, betas)
        assert abs(slope - (k + 1)) < 0.3


def test_cluster_counts_are_pinned():
    # The free-energy route counts clusters without weighing them; these
    # are the counts of the multiset cluster walk on the same volumes.
    ham = small_chain()
    counts = [free_energy_series(ham, 0.3, k).n_clusters for k in (6, 8, 10)]
    assert counts == [201, 574, 1388]
    patch = assemble_hamiltonian(ising_model(2), Region.box([2, 3]), boundary="free")
    assert free_energy_series(patch, 0.05, 6).n_clusters == 9513
    # The correlation counts are differences of two family counts and the
    # pinned counts come from a count rooted at the pin; these are the
    # counts of the multiset cluster walk.
    (bond_0, bond_1) = enumerate_polymers(ham, 1)[:2]
    pair = enumerate_polymers(ham, 2)[3]
    assert pair.bonds == (0, 1)
    assert [
        correlation_series(ham, 0.3, x0, 8).pinned_sum.n_clusters
        for x0 in [(0,), (1,), [(0,), (1,)]]
    ] == [480, 566, 566]
    assert site_pinned_series(ham, 0.3, (0,), 8).n_clusters == 480
    for absolute in (False, True):
        assert [
            pinned_series(ham, 0.3, p, 8, absolute=absolute).n_clusters
            for p in (bond_0, bond_1, pair)
        ] == [567, 603, 603]
    assert [
        correlation_series(patch, 0.05, x0, 6).pinned_sum.n_clusters
        for x0 in [(0, 0), (1, 1), [(0, 0), (0, 1)]]
    ] == [7178, 9006, 9312]
    assert site_pinned_series(patch, 0.05, (0, 0), 6).n_clusters == 7178
    pins = [enumerate_polymers(patch, 1)[i] for i in (0, 1, 3)]
    assert [pinned_series(patch, 0.05, p, 6).n_clusters for p in pins] == [10012, 8941, 10382]


def test_cluster_count_packs_33_polymers_of_one_size():
    # On a path of 33 one-bond polymers at order 33 the whole path is one
    # set of 33 polymers of one size, past what a 5-bit field holds. A set
    # of L polymers leaves slack 33 - L, filled in C(33, L) ways.
    n = 33
    polymers = [Polymer(bonds=(v,), support=frozenset({v, v + 1})) for v in range(n)]
    adj = incompatibility_graph(polymers)
    want = sum((n + 1 - size) * math.comb(n, size) for size in range(1, n + 1))
    assert count_clusters_reference(polymers, adj, n) == want
    assert _count_clusters(polymers, adj, n) == want


def test_site_walk_weighs_every_cluster_it_counts():
    # Every multiset the walk visits is connected through the pinned site,
    # so its Ursell function is nonzero: the walk's count is the rooted
    # cluster count without the empty set.
    field = assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([2, 3]), boundary="free")
    ring = assemble_hamiltonian(heisenberg_model(1), Region.box([5]), boundary="periodic")
    cases = [(field, (0, 0), 6, 52639), (ring, (2,), 6, 1526),
             (ising_model(2).window(3), (0, 0), 3, 488)]
    for ham, site, k, want in cases:
        polymers = enumerate_polymers(ham, k)
        adjacency = incompatibility_graph(polymers)
        pin = _pin_mask([p.support for p in polymers], [site])
        walked = site_pinned_series(ham, 0.1, site, k).n_clusters
        assert walked == _count_clusters(polymers, adjacency, k, pin) - 1 == want


def _walk_by_order(ham, beta, k, weights=None):
    # Every cluster meets |support| sites, so weighing each by 1/|support|
    # and summing the site-pinned walks counts it exactly once.
    total = [0j] * (k + 1)
    for x in ham.sites:
        s = site_pinned_series(
            ham, beta, x, k, weights=weights, per_cluster=lambda sup: 1.0 / len(sup)
        )
        total = [a + b for a, b in zip(total, s.by_order)]
    return total


def test_log_xi_route_matches_cluster_walk_order_by_order(rng):
    k = 6
    boundaries, kinds, beta_shapes = set(), set(), set()
    for i in range(12):
        label, ham, beta = random_instance(rng, i)
        boundaries.add(label.split("-")[0])
        kinds.add(ham.kind)
        beta_shapes.add("complex" if abs(complex(beta).imag) > 0 else "real")
        got = free_energy_series(ham, beta, k).by_order
        want = _walk_by_order(ham, beta, k)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15, label
    assert boundaries == {"free", "product", "periodic"}
    assert kinds == {"classical", "quantum"} and beta_shapes == {"real", "complex"}


def test_explicit_weights_give_the_same_series(rng):
    for i in range(3):
        _, ham, beta = random_instance(rng, i)
        k = 5
        plain = free_energy_series(ham, beta, k)
        given = free_energy_series(ham, beta, k, weights=polymer_weights(ham, beta, k))
        assert given.by_order == plain.by_order
        assert given.n_clusters == plain.n_clusters
        # A polymer left out of the list has activity 0, as in the walk.
        short = polymer_weights(ham, beta, 2)
        got = free_energy_series(ham, beta, k, weights=short).by_order
        want = _walk_by_order(ham, beta, k, weights=short)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15
    # The list need not be sorted by polymer size. On a 3x3 patch large
    # and small polymers fit side by side within the budget.
    patch = assemble_hamiltonian(ising_model(2), Region.box([3, 3]), boundary="free")
    plain = free_energy_series(patch, 0.1, 4)
    full = polymer_weights(patch, 0.1, 4)
    backwards = free_energy_series(patch, 0.1, 4, weights=full[::-1])
    assert max(abs(a - b) for a, b in zip(backwards.by_order, plain.by_order)) < 1e-15
    assert backwards.n_clusters == plain.n_clusters


def test_pinned_series_refuses_a_pin_it_cannot_place():
    # A pin outside the volume read as one no polymer meets (value 1, one
    # cluster), and a pin that is no polymer raised a bare AttributeError.
    ham = small_chain()
    outside = Polymer(bonds=(0,), support=frozenset({(7,), (8,)}))
    with pytest.raises(ConfigError, match="not in the volume"):
        pinned_series(ham, 0.2, outside, 4)
    with pytest.raises(ConfigError, match="not in the volume"):
        Oracle(ham, 0.2).reduced_correlation(outside.support)
    for pin in ("x", Polymer(bonds=(0,), support=frozenset())):
        with pytest.raises(ConfigError, match="nonempty support"):
            pinned_series(ham, 0.2, pin, 4)


def test_pinned_series_is_the_reduced_correlation_of_the_pin(rng):
    # Xi over the families that miss the pin, divided by Xi, is the ratio
    # of the partition function without the pin's sites to Z.
    for i in range(12):
        label, ham, beta = random_instance(rng, i)
        orc = Oracle(ham, beta)
        pins = enumerate_polymers(ham, 2)
        for pin in (pins[0], pins[-1]):
            got = pinned_series(ham, beta, pin, 10).value
            want = orc.reduced_correlation(pin.support)
            assert abs(got - want) < 1e-14, label


def test_log_xi_routes_match_the_site_walk(rng):
    # The clusters meeting one site, and those whose smallest site is x,
    # are site-pinned walks on the full and on a restricted volume.
    k = 6
    for i in range(12):
        label, ham, beta = random_instance(rng, i)
        ordered = sorted(ham.sites)
        shares = free_energy_by_site(ham, beta, k)
        assert list(shares) == list(ham.sites)
        for n, x in enumerate(ordered):
            walk = site_pinned_series(ham, beta, x, k)
            corr = correlation_series(ham, beta, x, k).pinned_sum
            assert corr.n_clusters == walk.n_clusters, label
            assert max(abs(a - b) for a, b in zip(corr.by_order, walk.by_order)) < 1e-15
            rest = site_pinned_series(ham.restricted_away(ordered[:n]), beta, x, k)
            assert abs(shares[x] - rest.value) < 1e-15, label


def test_series_values_do_not_count_clusters(monkeypatch):
    # The count feeds `n_clusters` only, so a caller that reads the value
    # never walks the connected sets.
    def refuse(*args, **kwargs):
        raise AssertionError("clusters counted")

    monkeypatch.setattr(series, "_count_clusters", refuse)
    ham = small_chain()
    obs = Observable.make([(0,)], np.array([1.0, -1.0]))
    adaptive = adaptive_free_energy_series(ham, 0.3, tol=1e-12, cap=8)
    corr = correlation_series(ham, 0.3, (1,), 6)
    expectation = expectation_series(ham, 0.3, obs, g_mode="series", correlation_truncation=6)
    assert abs(cmath.exp(adaptive.value) - partition_function(ham, 0.3)) < 1e-9
    assert abs(corr.value - reduced_correlation_exact(ham, 0.3, (1,))) < 1e-8
    want = gibbs_expectation(ham, 0.3, obs)
    assert abs(expectation.value - want) < 1e-8 * max(1.0, abs(want))
    # The count runs on the first read of `n_clusters`, and only then.
    for result in (adaptive, corr.pinned_sum):
        with pytest.raises(AssertionError, match="clusters counted"):
            result.n_clusters


def test_series_results_count_once_and_pickle():
    ham = small_chain()
    calls = []
    s = free_energy_series(ham, 0.3, 8)
    count = s._count
    object.__setattr__(s, "_count", lambda: calls.append(1) or count())
    assert [s.n_clusters, s.n_clusters] == [574, 574] and calls == [1]
    pin = enumerate_polymers(ham, 1)[0]
    for fresh, want in (
        (free_energy_series(ham, 0.3, 8), 574),
        (correlation_series(ham, 0.3, (0,), 8).pinned_sum, 480),
        (pinned_series(ham, 0.3, pin, 8), 567),
        (site_pinned_series(ham, 0.3, (0,), 8), 480),
    ):
        back = pickle.loads(pickle.dumps(fresh))
        assert back == fresh and back.n_clusters == want
        assert "n_clusters" not in repr(back)


def test_series_values_past_the_float_range_are_numerical_failures():
    # The correlations returned inf or nan with only a numpy RuntimeWarning,
    # the cluster walk raised a bare OverflowError from a Python power, and
    # the quantum log Xi came out as nan with no warning at all.
    chain = assemble_hamiltonian(ising_model(1), Region.box([8]), boundary="free")
    up = Observable.make([(0,)], [1.0, 0.0])
    sz = np.diag([1.0, -1.0])
    fields = Interaction.from_terms(2, "quantum", {((0,),): 2000 * sz, ((1,),): sz})
    pair = assemble_hamiltonian(fields, Region.from_sites([(0,), (1,)]))
    calls = [
        ("correlation", lambda: correlation_series(chain, 50.0, [(0,)], 6)),
        ("correlation", lambda: expectation_series(
            chain, 50.0, up, g_mode="series", correlation_truncation=6)),
        ("cluster weight", lambda: site_pinned_series(chain, 300.0, (0,), 6)),
        ("cluster weight", lambda: site_pinned_series(chain, 300.0, (0,), 6, absolute=True)),
        ("cluster weight", lambda: free_energy_density(ising_model(1), 300.0, 6)),
        ("series value", lambda: free_energy_series(pair, 0.35488 + math.pi * 1j, 2)),
    ]
    for what, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{what} is not finite"):
                call()
    # The same ratio through the oracle stays finite: only the series is refused.
    assert cmath.isfinite(expectation_series(chain, 50.0, up).value)

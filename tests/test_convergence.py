import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special

from polymerion import (
    ConfigError,
    Interaction,
    LatticeModel,
    NumericalError,
    Oracle,
    Polymer,
    PolymerWeight,
    Region,
    alpha_norm,
    anchored_polymer_sum,
    assemble_hamiltonian,
    beta_radius,
    enumerate_polymers,
    fp_criterion,
    fp_iterate,
    fp_phi,
    gk_criterion,
    heisenberg_model,
    incompatibility_graph,
    ising_model,
    nn_radius,
    park_compare,
    park_table_value,
    pinned_series,
    polymer_weights,
    potts_model,
    tree_bound,
    universal_radius,
    xy_model,
)
from polymerion.convergence import (
    TREE_FORMS,
    _default_scalar_zeta,
    _FPDag,
    _finite_structure,
    _fp_columns,
    _structure_of,
)
from polymerion.numeric import geometric_grid
from polymerion.polymers import bond_weights

from helpers import (
    default_scalar_zeta_reference,
    fp_bounds,
    fp_iterate_reference,
    fp_phi_reference,
)

TABLE = {
    2: (0.0873651, 0.0290245),
    3: (0.0538890, 0.0182059),
    4: (0.0389499, 0.0132611),
}


def test_nn_radius_reproduces_table_values():
    for d, (zeta, bound) in TABLE.items():
        r = nn_radius(d)
        assert abs(r.zeta - zeta) < 1e-6
        assert abs(r.bound - bound) < 1e-6
        assert abs(r.beta_star - math.log1p(r.bound)) < 1e-15


def test_nn_radius_routes_agree():
    for d in range(1, 11):
        r = nn_radius(d)
        assert abs(r.zeta - r.quadratic_zeta) <= 1e-10


def test_nn_radius_maximizer_is_stationary():
    for d in (1, 2, 5):
        r = nn_radius(d)
        h = (
            1.0 / r.zeta
            - 4 * d / (1.0 + 2 * d * r.zeta)
            - (4 * d - 2) / (1.0 + r.zeta)
        )
        assert abs(h) < 1e-9


def test_nn_radius_large_dimension_trend():
    # d * zeta approaches (sqrt(68) - 6) / 16 = 0.14039...
    limit = (math.sqrt(68.0) - 6.0) / 16.0
    assert abs(64 * nn_radius(64).zeta - 0.14127) < 1e-4
    assert abs(4096 * nn_radius(4096).zeta - limit) < 1e-3
    vals = [d * nn_radius(d).zeta for d in (2, 8, 32, 128)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_nn_radius_rejects_bad_dimension():
    with pytest.raises(ConfigError):
        nn_radius(0)


@pytest.mark.parametrize("d", [0, -1])
def test_park_forms_reject_bad_dimension(d):
    # Both divided by 2d (or d) and answered, or raised ZeroDivisionError.
    with pytest.raises(ConfigError):
        park_compare(d)
    with pytest.raises(ConfigError):
        park_table_value(d)


def test_tree_forms_get_monotonically_stronger():
    # At equal weights and zeta the four left-hand sides are ordered, so
    # each form implies every weaker one; margins shrink along the chain.
    model = ising_model(2)
    w = [math.expm1(0.02)] * len(model.templates)
    reports = [tree_bound(w, model, 0.08, form=f) for f in TREE_FORMS]
    worst = [min(r.margins) for r in reports]
    assert all(b <= a + 1e-15 for a, b in zip(worst, worst[1:]))
    for stronger, weaker in zip(reports[::-1], reports[::-1][1:]):
        if stronger.holds:
            assert weaker.holds


def test_tree_form_implications_across_betas():
    model = ising_model(2)
    for beta in np.linspace(0.001, 0.05, 12):
        rep = {
            f: gk_criterion(model, float(beta), zeta=0.0874, form=f)
            for f in TREE_FORMS
        }
        if rep["exponential"].holds:
            assert rep["per_site_product"].holds
        if rep["per_site_product"].holds:
            assert rep["bracketed"].holds
        if rep["bracketed"].holds:
            assert rep["direct"].holds


def test_gk_criterion_matches_table_radius_at_default_zeta():
    # The bracketed form at the optimal zeta certifies right up to the
    # Table 1 radius beta* = log(1 + bound) and fails just beyond it.
    for d in (2, 3):
        star = nn_radius(d).beta_star
        assert gk_criterion(ising_model(d), 0.999 * star).holds
        assert not gk_criterion(ising_model(d), 1.001 * star).holds


def test_default_zeta_search_matches_the_grid_reference():
    # One golden-section search replaced a 160-point grid and a bracketed
    # refinement. The worst margin is concave in a scalar zeta, so both
    # find the same maximum, up to its flatness: same flags, and a worst
    # margin no lower than the reference's, on both sides of each
    # threshold. A search over too short a range loses the margin.
    sources = [
        ising_model(2, field_h=0.3),
        heisenberg_model(2),
        xy_model(1),
        potts_model(3, 2),
        assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([3, 3])),
        assemble_hamiltonian(heisenberg_model(2), Region.box([2, 3])),
        assemble_hamiltonian(xy_model(1), Region.box([6]), boundary="periodic"),
        assemble_hamiltonian(potts_model(3, 2), Region.box([2, 3])),
    ]
    for source in sources:
        structure = _structure_of(source)
        for form in TREE_FORMS:

            def report(beta, search):
                w = bond_weights(structure.norms, beta)
                return tree_bound(w, structure, search(w, structure, form), form)

            lo, hi = 1e-4, 1.0
            for _ in range(30):
                mid = math.sqrt(lo * hi)
                lo, hi = (mid, hi) if report(mid, _default_scalar_zeta).holds else (lo, mid)
            for beta in (lo / 2, lo * 0.999, hi * 1.001, hi * 2):
                new = report(beta, _default_scalar_zeta)
                ref = report(beta, default_scalar_zeta_reference)
                assert new.holds == ref.holds == (beta < lo), (source, form, beta)
                worst = min(ref.margins)
                assert min(new.margins) >= worst - 1e-12 * max(1.0, abs(worst)), (form, beta)


def test_gk_anchored_lower_bound_stays_below_certificate():
    model = ising_model(2)
    rep = gk_criterion(model, 0.02)
    assert rep.holds
    assert rep.anchored_lower <= rep.site_sum + 1e-12
    assert rep.guarantees["log_ratio_per_site"] == rep.a
    assert abs(rep.ratio_bound(3) - rep.e_a**3) < 1e-15


def test_gk_criterion_with_given_weight_exponent():
    # Fixing a near log(1 + 4 zeta^) reproduces the optimal-zeta regime.
    model = ising_model(2)
    a_star = math.log1p(4 * 0.0873651)
    rep = gk_criterion(model, 0.028, a=a_star)
    assert rep.holds
    assert abs(rep.e_a - math.exp(a_star)) < 1e-9
    assert not gk_criterion(model, 0.030, a=a_star).holds


def test_gk_criterion_on_finite_hamiltonian():
    ham = assemble_hamiltonian(ising_model(1), Region.box([5]), boundary="free")
    rep = gk_criterion(ham, 0.05)
    assert rep.holds
    direct = anchored_polymer_sum(ham, 0.05, rep.a, 4)
    assert direct <= rep.site_sum + 1e-12


@pytest.mark.parametrize(
    "source",
    [assemble_hamiltonian(ising_model(1), Region.box([4]), boundary="free"), ising_model(1)],
)
def test_anchored_sums_refuse_a_negative_truncation(source):
    for bad in (-1, 2.5, True):
        with pytest.raises(ConfigError, match="anchored_truncation"):
            gk_criterion(source, 0.02, a=0.1, anchored_truncation=bad)
        with pytest.raises(ConfigError, match="anchored_truncation"):
            anchored_polymer_sum(source, 0.02, 0.1, bad)
    assert gk_criterion(source, 0.02, a=0.1, anchored_truncation=0).anchored_lower == 0.0


def chain_polymers(n_overlapping):
    """Single-bond polymers that pairwise share one site."""
    shared = (0,)
    polys = []
    for i in range(n_overlapping):
        sup = frozenset([shared, (i + 1,)])
        polys.append(Polymer(bonds=(i,), support=sup))
    return polys


def test_fp_scalar_fixed_point_and_divergence():
    (p,) = chain_polymers(1)
    res = fp_iterate([p], [0.2])
    assert res.converged and not res.diverged
    assert abs(res.mu[0] - 0.25) < 1e-12  # lambda / (1 - lambda)
    bad = fp_iterate([p], [2.0], max_iter=500)
    assert bad.diverged and not bad.converged


def test_fp_two_overlapping_polymers_closed_form():
    polys = chain_polymers(2)
    lam = 0.2
    res = fp_iterate(polys, [lam, lam])
    assert res.converged
    assert abs(res.mu[0] - lam / (1 - 2 * lam)) < 1e-12
    # phi at the fixed point: independent sets within the neighborhood.
    assert abs(fp_phi(polys, 0, res.mu) - (1 + res.mu[0] + res.mu[1])) < 1e-12


def test_fp_chain_is_monotone_both_ways():
    polys = chain_polymers(2)
    lam = [0.15, 0.15]
    up = fp_iterate(polys, lam)
    assert all(b >= a - 1e-15 for a, b in zip(up.chain, up.chain[1:]))
    start = [1.0, 1.0]
    rep = fp_criterion(polys, lam, start)
    assert rep.holds
    down = fp_iterate(polys, lam, mu0=start)
    assert all(b <= a + 1e-15 for a, b in zip(down.chain, down.chain[1:]))
    assert abs(down.mu[0] - up.mu[0]) < 1e-10


def test_fp_sandwich_on_scalar_and_two_polymer_instances():
    # lambda |Sigma|(lambda) <= lambda* <= T^inf <= T^{n+1} <= T^n <= mu,
    # with the pinned absolute series supplying the left end.
    ham = assemble_hamiltonian(ising_model(1), Region.box([3]), boundary="free")
    beta = 0.4
    polys = list(enumerate_polymers(ham, 1))
    lam_val = float(abs(Oracle(ham, beta).rho((0,))))
    lam = [lam_val] * len(polys)

    for keep in (1, 2):
        sub = polys[:keep]
        lams = lam[:keep]
        up = fp_iterate(sub, lams)
        assert up.converged
        lam_star = max(up.mu)
        # Left end: the pinned absolute series at the bound activities.
        ws = tuple(
            PolymerWeight(polymer=p, rho=lam_val, bound=lam_val) for p in sub
        )
        sigma = pinned_series(ham, beta, sub[0], 16, absolute=True, weights=ws)
        left = lam_val * float(abs(sigma.value))
        assert left <= lam_star + 1e-9
        # Right end: a certified start descends through the sandwich.
        mu0 = [2.0 * lam_star + 0.1] * keep
        rep = fp_criterion(sub, lams, mu0)
        assert rep.holds
        down = fp_iterate(sub, lams, mu0=mu0)
        chain = down.chain
        assert all(b <= a + 1e-15 for a, b in zip(chain, chain[1:]))
        assert lam_star <= chain[-1] + 1e-9
        assert chain[0] <= max(mu0) + 1e-15


def test_fp_criterion_reports_margins():
    polys = chain_polymers(1)
    good = fp_criterion(polys, [0.2], [0.5])
    assert good.holds and good.margins[0] >= 0
    bad = fp_criterion(polys, [0.2], [0.1])
    assert not bad.holds


def test_universal_radius_frozen_values():
    u = universal_radius(ising_model(2), alpha=1.0, gamma=0.5)
    assert abs(u.kappa - 0.5) < 1e-15
    assert abs(u.c_kappa - 1.4715178) < 1e-6
    # Each site meets 2d = 4 unit-norm pair bonds, each weighted e^{2 alpha}.
    assert abs(u.m_alpha - 4 * math.exp(2.0)) < 1e-9
    assert abs(u.amplitude - 0.1698926) < 1e-6
    assert abs(u.t_star - 0.1467098) < 1e-6
    assert abs(u.beta_star - 0.0049638) < 1e-6


def test_universal_radius_root_against_lambertw():
    for gamma in (0.3, 0.5, 0.7):
        u = universal_radius(ising_model(2), alpha=1.0, gamma=gamma)
        w = float(scipy.special.lambertw(u.amplitude).real)
        assert abs(u.t_star - w) < 1e-9


def test_universal_radius_monotonicity():
    # Larger gamma shrinks kappa, grows the polymer entropy constant, and
    # shrinks the certified radius; higher dimension also shrinks it.
    betas = [
        universal_radius(ising_model(2), alpha=1.0, gamma=g).beta_star
        for g in (0.2, 0.4, 0.6, 0.8)
    ]
    assert all(b < a for a, b in zip(betas, betas[1:]))
    dims = [universal_radius(ising_model(d), alpha=1.0).beta_star for d in (1, 2, 3)]
    assert all(b < a for a, b in zip(dims, dims[1:]))


def test_park_scan_window_and_tail():
    scan = park_compare(2)
    assert 0.03 < scan.sup_y < 0.06
    rooted = [r for r in scan.rows if r.y_star is not None]
    assert len(rooted) == len(scan.rows)
    tail = [r.y_star for r in scan.rows[-6:]]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_park_roots_satisfy_the_root_equation():
    d = 2
    scan = park_compare(d, alphas=[0.5, 1.0, 3.0, 8.0])

    def f(y, alpha):
        lhs = math.exp(alpha) * y * math.exp(y)
        rhs = (math.exp(alpha / 4 - y) - 1.0) * (math.exp(alpha / 4) - math.exp(y))
        return lhs - rhs

    for row in scan.rows:
        y, alpha = row.y_star, row.alpha
        # Residual scales with the slope of F near the root; the bisection
        # is 1e-12 in y, so certify by sign change in a tight bracket.
        assert abs(f(y, alpha)) < 1e-8 * max(1.0, math.exp(alpha) * y)
        assert f(y - 1e-9, alpha) < 0.0 < f(y + 1e-9, alpha)
        assert abs(row.beta_star - y / (2 * d)) < 1e-15


def test_park_closed_form_column():
    for d, ref in ((2, 0.015), (3, 0.010), (4, 0.008)):
        assert math.isclose(park_table_value(d), ref, rel_tol=0.10)


def test_beta_radius_prefix_and_reevaluation():
    model = ising_model(2)
    scan = beta_radius(model, criterion="tree", lo=1e-3, hi=0.2, per_decade=24)
    assert scan.beta_radius is not None
    # Monotone certification: every grid point below the radius certifies
    # on re-evaluation (spec'd as the defining property of the radius).
    for b, ok in scan.points:
        if b <= scan.beta_radius:
            assert ok
            assert gk_criterion(model, b).holds
    certified = [ok for _, ok in scan.points]
    first_bad = certified.index(False) if False in certified else len(certified)
    assert all(certified[:first_bad])


def test_beta_radius_fp_on_finite_instance():
    ham = assemble_hamiltonian(ising_model(1), Region.box([5]), boundary="free")
    scan = beta_radius(ham, criterion="fp", lo=1e-3, hi=0.5, per_decade=12)
    assert scan.beta_radius is not None
    assert scan.beta_radius > 0.05
    with pytest.raises(ConfigError):
        beta_radius(ising_model(1), criterion="fp")


def test_fp_scan_refuses_unknown_keywords():
    # A misspelt max_bonds used to be dropped silently.
    chain = assemble_hamiltonian(ising_model(1), Region.box([4]), boundary="free")
    with pytest.raises(TypeError):
        beta_radius(chain, "fp", lo=0.01, hi=0.1, per_decade=2, max_bond=2)
    with pytest.raises(TypeError):
        beta_radius(chain, "fp", lo=0.01, hi=0.1, per_decade=2, form="bracketed")
    scan = beta_radius(chain, "fp", lo=0.01, hi=0.1, per_decade=2, max_bonds=2)
    assert scan.beta_radius == 0.1


@pytest.mark.parametrize(
    "lo, hi, per_decade",
    [(1e-3, 0.1, 0), (1e-3, 0.1, -2), (0.0, 0.1, 4), (-1.0, 0.1, 4), (0.1, 0.1, 4),
     (0.1, 0.01, 4), (math.nan, 0.1, 4), (1e-3, math.inf, 4)],
)
def test_geometric_grid_refuses_what_it_cannot_sample(lo, hi, per_decade):
    # per_decade 0 used to give the two ends only, and the scan then
    # reported lo as a certified radius.
    with pytest.raises(ConfigError):
        geometric_grid(lo, hi, per_decade)
    with pytest.raises(ConfigError):
        beta_radius(ising_model(2), "tree", lo=lo, hi=hi, per_decade=per_decade)


def test_beta_radius_unknown_criterion():
    with pytest.raises(ConfigError):
        beta_radius(ising_model(2), criterion="bogus")


def test_tree_scan_flags_every_point_as_gk_criterion_does():
    # The scan skips the anchored diagnostic and builds the bond structure
    # once; its flags must still be gk_criterion's, keyword for keyword.
    box = assemble_hamiltonian(ising_model(2), Region.box([3, 3]), boundary="free")
    # a and zeta away from the default optimum, so dropping either shows.
    variants = [{"form": f} for f in TREE_FORMS] + [
        {"a": math.log(1.1)},
        {"zeta": 0.03},
        {"anchored_truncation": 2},
    ]
    lo, hi, per_decade = 0.005, 0.2, 4
    grid = geometric_grid(lo, hi, per_decade)
    for source in (ising_model(2), box):
        for kw in variants:
            scan = beta_radius(source, "tree", lo=lo, hi=hi, per_decade=per_decade, **kw)
            want = tuple((float(b), gk_criterion(source, b, **kw).holds) for b in grid)
            assert scan.points == want, kw
            flags = [ok for _, ok in want]
            assert any(flags) and not all(flags), kw


def test_tree_scan_refuses_what_gk_criterion_refuses():
    model = ising_model(2)
    with pytest.raises(TypeError):
        beta_radius(model, "tree", bogus=1)
    with pytest.raises(ConfigError):
        beta_radius(model, "tree", form="bogus")
    inter = Interaction.from_terms(
        q=2, kind="classical", terms=[(((0,), (1,)), np.array([-1.0, 1.0, 1.0, -1.0]))]
    )
    with pytest.raises(ConfigError, match="anchored sums"):
        gk_criterion(inter, 0.01)
    with pytest.raises(ConfigError, match="anchored sums"):
        beta_radius(inter, "tree")


def _fp_iterate_by_fp_phi(polymers, lam, max_iter=2000, tol=1e-14, divergence=1e9):
    """fp_iterate's loop, written with the public fp_phi."""
    mu = [0.0] * len(polymers)
    chain = [0.0]
    for it in range(1, max_iter + 1):
        nxt = [lam[i] * fp_phi(polymers, i, mu) for i in range(len(polymers))]
        delta = max(abs(a - b) for a, b in zip(nxt, mu))
        mu = nxt
        chain.append(max(mu))
        if max(mu) > divergence or delta <= tol * (1.0 + max(mu)):
            break
    return tuple(mu), tuple(chain), it


def test_fp_iterate_matches_a_loop_over_fp_phi():
    """The iteration agrees with its own loop over the public fp_phi. Both
    evaluate the same compiled recursion, so this checks the loop, not the
    recursion; `test_fp_dag_matches_the_recursion_bit_for_bit` checks that
    against the independent reference."""
    ham = assemble_hamiltonian(ising_model(1), Region.box([5]), boundary="free")
    polys = enumerate_polymers(ham, 4)
    outcomes = []
    for beta in (0.05, 0.4):
        lam = [math.prod(math.expm1(beta * ham.norms[i]) for i in p.bonds) for p in polys]
        res = fp_iterate(polys, lam, max_iter=2000)
        assert (res.mu, res.chain, res.iterations) == _fp_iterate_by_fp_phi(polys, lam)
        outcomes.append((res.converged, res.diverged))
    assert outcomes == [(True, False), (False, True)]


# Certified fp thresholds of the benchmark's chains (THRESHOLDS in
# perfbench/workloads.py), scanned there at max_bonds 4.
FP_THRESHOLDS = {5: 0.1796, 6: 0.1642, 8: 0.1501}


def _fp_fields(res):
    return {k: getattr(res, k) for k in ("converged", "diverged", "mu", "iterations", "chain")}


def test_fp_dag_matches_the_recursion_bit_for_bit():
    # The compiled evaluation against the memoized recursion it replaced:
    # every field with ==, on grids that cross each benchmark threshold and
    # on the demo's scan, from zero and down from a certificate.
    windows = [(n, FP_THRESHOLDS[n] / 1.2, FP_THRESHOLDS[n] * 1.1, 32) for n in (5, 6, 8)]
    windows.append((5, 1e-3, 0.2, 32))  # demos/certified_radii.py
    for n, lo, hi, per_decade in windows:
        ham = assemble_hamiltonian(ising_model(1, 1.0), Region.box([n]), boundary="free")
        polys = enumerate_polymers(ham, 4)
        adj = incompatibility_graph(polys)
        scan = beta_radius(ham, "fp", lo=lo, hi=hi, per_decade=per_decade, max_bonds=4)
        flags = []
        for beta, ok in scan.points:
            w = [math.expm1(beta * x) for x in ham.norms]
            lam = [math.prod(w[i] for i in p.bonds) for p in polys]
            ref = fp_iterate_reference(adj, lam, max_iter=2000)
            assert _fp_fields(fp_iterate(polys, lam, max_iter=2000)) == ref, (n, beta)
            assert ok == ref["converged"], (n, beta)
            flags.append(ok)
            if ok:
                start = [2.0 * x + 0.01 for x in ref["mu"]]
                rep = fp_criterion(polys, lam, start, adjacency=adj)
                phis = tuple(fp_phi_reference(adj, i, start) for i in range(len(polys)))
                assert rep.phi == phis
                assert rep.margins == tuple(m - x * p for m, x, p in zip(start, lam, phis))
                down = fp_iterate(polys, lam, mu0=start)
                assert _fp_fields(down) == fp_iterate_reference(adj, lam, mu0=start)
        assert any(flags) and not all(flags), (n, lo, hi)


def test_fp_iterate_flags_an_overflowing_phi_as_divergence():
    # B0 overlaps two compatible polymers, so phi_B0 holds mu_1 mu_2 = 1e400:
    # inf without a warning, as in the recursion, and flagged as divergence.
    polys = [
        Polymer(bonds=(0,), support=frozenset([(0,), (1,), (2,)])),
        Polymer(bonds=(1,), support=frozenset([(1,), (5,)])),
        Polymer(bonds=(2,), support=frozenset([(2,), (6,)])),
    ]
    lam, mu0 = [0.5, 0.0, 0.5], [1e200] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fp_iterate(polys, lam, mu0=mu0)
    assert res.diverged and res.mu[0] == math.inf
    assert _fp_fields(res) == fp_iterate_reference(incompatibility_graph(polys), lam, mu0=mu0)


def test_fp_iterate_flags_a_nan_iterate_as_divergence():
    # The same overflow on a hub with lam 0 that is not first in the list:
    # mu_hub = 0 * inf is NaN. numpy's max is then NaN, which neither
    # crossed the cap nor converged; the loop ran all its iterations.
    leaf1 = Polymer(bonds=(1,), support=frozenset([(1,), (5,)]))
    hub = Polymer(bonds=(0,), support=frozenset([(0,), (1,), (2,)]))
    leaf2 = Polymer(bonds=(2,), support=frozenset([(2,), (6,)]))
    polys = [leaf1, hub, leaf2]
    lam, mu0 = [0.5, 0.0, 0.5], [1e200] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fp_iterate(polys, lam, mu0=mu0)
        rep = fp_criterion(polys, lam, mu0)
    assert res.diverged and res.iterations == 1 and math.isnan(res.mu[1])
    assert not rep.holds and rep.phi[1] == math.inf and math.isnan(rep.margins[1])
    ref = fp_iterate_reference(incompatibility_graph(polys), lam, mu0=mu0)
    got = _fp_fields(res)
    assert [float(x).hex() for x in got.pop("mu")] == [float(x).hex() for x in ref.pop("mu")]
    assert got == ref
    # With every lam 0 the iterate is [0, NaN, 0]: no entry crossed the
    # cap, and the NaN still makes it diverge.
    res = fp_iterate(polys, [0.0] * 3, mu0=mu0)
    assert res.diverged and res.iterations == 1 and res.chain[-1] == 0.0


def test_one_block_of_columns_holds_every_kind_of_stop():
    # One column iteration on the free 5-chain: from zero a column that
    # converges, one that crosses the cap and one cut at max_iter; from
    # 1e200 one whose phi overflows to inf, and one holding a NaN where a
    # zero lam meets phi_1 = inf (bonds 0 and 2 both overlap bond 1). Each
    # stops at its own iteration with the per-point loop's fields.
    ham = _chain(5)
    polys = enumerate_polymers(ham, 4)
    adj = incompatibility_graph(polys)
    lams = [fp_bounds(ham, polys, beta) for beta in (0.05, 0.5, 0.179, 0.05, 0.05)]
    lams[4][1] = 0.0
    starts = [[0.0] * len(polys)] * 3 + [[1e200] * len(polys)] * 2
    got = _fp_columns(_FPDag(adj), np.array(lams).T, np.array(starts).T, 1e-14, 50, 1e9)
    kinds = [(r.converged, r.diverged, r.iterations) for r in got]
    assert kinds == [(True, False, 17), (False, True, 7), (False, False, 50),
                     (False, True, 1), (False, True, 1)]
    assert math.isinf(got[3].mu[1]) and math.isnan(got[4].mu[1])
    for res, lam, start in zip(got, lams, starts):
        ref = fp_iterate_reference(adj, lam, mu0=start, max_iter=50)
        assert [x.hex() for x in res.mu] == [x.hex() for x in ref.pop("mu")]
        assert {k: getattr(res, k) for k in ref} == ref


def test_fp_scan_past_the_float_range_of_the_activity_bounds():
    # J = 100 makes expm1(beta J) ** 4 overflow at beta near 1.8, inside the
    # default window: those points are not certified, as the loop that
    # iterated the infinite bound to divergence said, and the scan answers.
    ham = assemble_hamiltonian(ising_model(1, 100.0), Region.box([5]), boundary="free")
    polys = enumerate_polymers(ham, 4)
    adj = incompatibility_graph(polys)
    scan = beta_radius(ham, "fp", per_decade=8)
    overflowed = 0
    for beta, ok in scan.points:
        w = [math.expm1(beta * x) for x in ham.norms]
        lam = [math.prod(w[i] for i in p.bonds) for p in polys]
        overflowed += not all(map(math.isfinite, lam))
        assert ok == fp_iterate_reference(adj, lam, max_iter=2000)["converged"], beta
    assert overflowed and scan.beta_radius is not None


def test_fp_phi_compiles_only_its_own_neighbourhood():
    # A hub overlapping 25 leaves is past the 2^24 refusal; a polymer apart
    # from it still has its phi, and the hub's own is refused.
    leaves = [Polymer(bonds=(i,), support=frozenset([(i,), (100 + i,)])) for i in range(25)]
    hub = Polymer(bonds=(25,), support=frozenset((i,) for i in range(25)))
    apart = Polymer(bonds=(26,), support=frozenset([(500,)]))
    polys = [*leaves, hub, apart]
    mu = [0.01] * len(polys)
    assert fp_phi(polys, 26, mu) == fp_phi_reference(incompatibility_graph(polys), 26, mu) == 1.01
    with pytest.raises(NumericalError):
        fp_phi(polys, 25, mu)


def _chain(n):
    return assemble_hamiltonian(ising_model(1), Region.box([n]), boundary="free")


@pytest.mark.parametrize("max_bonds", [0, -1, 2.5, "4"])
def test_fp_scan_refuses_max_bonds_it_cannot_take(max_bonds):
    # 0 and -1 ended in "max() arg is an empty sequence", 2.5 in a TypeError.
    with pytest.raises(ConfigError, match="max_bonds"):
        beta_radius(_chain(4), "fp", lo=0.01, hi=0.1, per_decade=2, max_bonds=max_bonds)


def test_scans_refuse_a_volume_without_bonds():
    # Both scans used to crash on an empty sequence.
    lone = assemble_hamiltonian(ising_model(1), Region.box([1]))
    assert not lone.bonds
    for criterion in ("tree", "fp"):
        with pytest.raises(ConfigError, match="no bonds"):
            beta_radius(lone, criterion, lo=0.01, hi=0.1, per_decade=2)
    with pytest.raises(ConfigError, match="no bonds"):
        gk_criterion(lone, 0.01)


def test_fp_entry_points_on_no_polymers():
    res = fp_iterate([], [])
    assert res.converged and not res.diverged
    assert (res.mu, res.iterations, res.chain) == ((), 0, (0.0,))
    assert fp_criterion([], [], []).holds


_TWO = chain_polymers(2)
_OK = [0.1, 0.1]
# Each raised IndexError, ValueError or TypeError, broadcast, or answered.
MALFORMED_FP_CALLS = {
    "lam-short": lambda: fp_iterate(_TWO, [0.1]),
    "lam-long": lambda: fp_criterion(_TWO, [0.1] * 3, _OK),
    "lam-scalar": lambda: fp_iterate(_TWO, 0.1),
    "lam-nan": lambda: fp_iterate(_TWO, [0.1, math.nan]),
    "lam-inf": lambda: fp_criterion(_TWO, [0.1, math.inf], _OK),
    "lam-negative": lambda: fp_iterate(_TWO, [0.1, -0.1]),
    "mu0-short": lambda: fp_iterate(_TWO, _OK, mu0=[0.1]),
    "mu0-nan": lambda: fp_iterate(_TWO, _OK, mu0=[math.nan, 0.1]),
    "mu-short": lambda: fp_criterion(_TWO, _OK, [0.1]),
    "mu-text": lambda: fp_phi(_TWO, 0, ["x", 0.1]),
    "index-high": lambda: fp_phi(_TWO, 2, _OK),
    "index-negative": lambda: fp_phi(_TWO, -1, _OK),
    "index-fractional": lambda: fp_phi(_TWO, 0.5, _OK),
    "adjacency-size": lambda: fp_phi(_TWO, 0, _OK, adjacency=[0, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FP_CALLS))
def test_fp_entry_points_refuse_malformed_arguments(case):
    with pytest.raises(ConfigError, match=case.split("-")[0]):
        MALFORMED_FP_CALLS[case]()


def test_gk_criterion_past_the_float_range_certifies_nothing():
    # W(X) = expm1(1000) is past the float range: it is inf, not an
    # OverflowError, and fails every margin.
    rep = gk_criterion(ising_model(2), 1000.0)
    assert not rep.holds and rep.guarantees == {}
    assert all(m == -math.inf for m in rep.tree.margins)


def test_tree_scan_past_the_float_range_returns_its_points():
    scan = beta_radius(ising_model(2), hi=1000.0, per_decade=2)
    assert len(scan.points) == 15 and not any(ok for b, ok in scan.points if b > 1.0)
    assert scan.beta_radius == 0.01


def test_alpha_norm_past_the_float_range_is_a_numerical_failure():
    with pytest.raises(NumericalError, match="float range"):
        alpha_norm(ising_model(2), 1000.0)


def test_universal_radius_past_the_float_range_is_a_numerical_failure():
    with pytest.raises(NumericalError, match="float range"):
        universal_radius(ising_model(2), alpha=800.0)


def test_tree_bound_takes_an_infinite_weight_as_a_failed_margin():
    ham = assemble_hamiltonian(ising_model(1), Region.box([4]))
    rep = tree_bound([0.01, math.inf, 0.01], ham, 0.1)
    assert not rep.holds and rep.margins[1] == -math.inf
    assert rep.margins[0] == tree_bound([0.01, 0.01, 0.01], ham, 0.1).margins[0]


def test_lattice_structure_counts_translates_of_every_template():
    # Neighbour counts from `bonds_at` against a brute count over a box.
    diag = LatticeModel.from_templates(
        2, 2, "classical",
        [([(0, 0), (1, 1)], np.ones(4)), ([(0, 1), (1, 0)], np.ones(4)), ([(0, 0)], np.ones(2))],
    )
    for model in (ising_model(3), diag):
        structure = _structure_of(model)
        for t, (off, _) in enumerate(model.templates):
            brute = {}
            for anchor in itertools.product(range(-3, 4), repeat=model.dimension):
                for t2, (bond, _) in enumerate(model.bonds_at(anchor)):
                    if set(off) & set(bond) and (t2, bond) != (t, off):
                        brute[t2] = brute.get(t2, 0) + 1
            assert structure.neighbor_counts[t] == sorted(brute.items())


def test_finite_structure_matches_pairwise_overlaps():
    fields = assemble_hamiltonian(
        ising_model(2, field_h=0.3), Region.box([2, 3]), boundary="free"
    )
    ring = assemble_hamiltonian(ising_model(1), Region.box([6]), boundary="periodic")
    for ham in (fields, ring):
        bonds = ham.bonds
        m = len(bonds)
        st = _finite_structure(bonds, ham.norms)
        assert st.sizes == [len(b) for b in bonds]
        assert st.neighbor_counts == [
            [(j, 1) for j in range(m) if j != i and set(bonds[i]) & set(bonds[j])]
            for i in range(m)
        ]
        sites = sorted({s for b in bonds for s in b})
        assert st.site_counts == [{i: 1 for i in range(m) if s in bonds[i]} for s in sites]
    assert any(len(b) == 1 for b in fields.bonds)


CHAIN4 = assemble_hamiltonian(ising_model(1), Region.box([4]))


def test_gk_criterion_with_an_exponent_past_the_float_range_certifies_nothing():
    # expm1(1000) in `_zeta_for_a` raised a bare OverflowError.
    rep = gk_criterion(ising_model(2), 0.01, a=1000.0)
    assert not rep.holds and rep.guarantees == {} and rep.anchored_lower == math.inf
    assert all(m == -math.inf for m in rep.tree.margins)
    # The direct form of a lone bond has no neighbour product to overflow:
    # its margin is inf - W(X), but an infinite site sum still certifies nothing.
    pair = assemble_hamiltonian(ising_model(1), Region.box([2]))
    assert not gk_criterion(pair, 0.01, a=1000.0, form="direct").holds


def test_tree_scan_with_an_exponent_past_the_float_range_returns_its_points():
    scan = beta_radius(ising_model(2), a=800.0, per_decade=2)
    assert len(scan.points) == 10 and not any(ok for _, ok in scan.points)
    assert scan.beta_radius is None


def test_tree_bound_with_a_zeta_past_the_float_range_certifies_nothing():
    # (1 + S)^|X| in `_margins` raised a bare OverflowError.
    rep = tree_bound([0.1], ising_model(1), 1e300)
    assert not rep.holds and rep.margins == (-math.inf,)


def test_gk_criterion_with_a_zeta_past_the_float_range_certifies_nothing():
    rep = gk_criterion(CHAIN4, 0.01, zeta=1e200)
    assert not rep.holds and all(m == -math.inf for m in rep.tree.margins)
    assert rep.anchored_lower == math.inf


def test_anchored_sum_past_the_float_range_is_inf():
    # exp(a |X|) raised a bare OverflowError; a zero weight stays zero.
    assert anchored_polymer_sum(CHAIN4, 0.01, 1000.0, 2) == math.inf
    assert anchored_polymer_sum(CHAIN4, 0.0, 1000.0, 2) == 0.0


def test_an_infinite_bond_weight_times_an_underflow_is_refused():
    # W(X) = inf times e^{a|X|} = 0 gave nan.
    with pytest.raises(NumericalError, match="float range"):
        anchored_polymer_sum(CHAIN4, 1000.0, -1000.0, 2)
    # One factor past the float range and one under it: inf * 0 in a product.
    zz = np.array([1.0, -1.0, -1.0, 1.0])
    inter = Interaction.from_terms(2, "classical", [([(0,), (1,)], 10.0 * zz),
                                                    ([(1,), (2,)], 1e-3 * zz)])
    ham = assemble_hamiltonian(inter, Region.box([3]))
    with pytest.raises(NumericalError, match="float range"):
        anchored_polymer_sum(ham, 1000.0, -1000.0, 2)
    # A finite factor that underflows is only 0.
    assert anchored_polymer_sum(CHAIN4, 1.0, -1000.0, 2) == 0.0


def test_a_per_class_zeta_sequence_equal_to_a_scalar_gives_the_same_report():
    weights = bond_weights(CHAIN4.norms, 0.05)
    scalar = tree_bound(weights, CHAIN4, 0.07)
    assert tree_bound(weights, CHAIN4, [0.07] * len(CHAIN4.bonds)) == scalar
    assert tree_bound(weights, CHAIN4, np.full(len(CHAIN4.bonds), 0.07)) == scalar


def test_a_callable_zeta_is_called_with_each_class_size_and_norm():
    seen = []

    def zeta(size, norm):
        seen.append((size, norm))
        return 0.05 * size * norm

    weights = bond_weights(CHAIN4.norms, 0.05)
    rep = tree_bound(weights, CHAIN4, zeta)
    assert seen == [(len(b), n) for b, n in zip(CHAIN4.bonds, CHAIN4.norms)]
    assert rep == tree_bound(weights, CHAIN4, [0.05 * s * n for s, n in seen])


def test_a_zeta_sequence_of_the_wrong_length_is_refused():
    weights = bond_weights(CHAIN4.norms, 0.05)
    with pytest.raises(ConfigError, match="zeta sequence length"):
        tree_bound(weights, CHAIN4, [0.07] * (len(CHAIN4.bonds) + 1))


def test_an_interaction_has_the_structure_of_its_free_hamiltonian():
    inter = Interaction.from_terms(
        2, "classical",
        [(((0,), (1,)), [0.3, -0.3, -0.3, 0.3]), (((1,), (2,)), [1.0, 0.0, 0.0, -0.5]),
         (((0,),), [0.2, -0.2]), (((0,), (1,), (2,)), np.linspace(-1.0, 1.0, 8))],
    )
    ham = assemble_hamiltonian(inter, Region.from_sites([(0,), (1,), (2,)]))
    assert alpha_norm(inter, 0.4) == alpha_norm(ham, 0.4)
    weights = bond_weights(ham.norms, 0.05)
    assert tree_bound(weights, inter, 0.1) == tree_bound(weights, ham, 0.1)
    assert universal_radius(inter) == universal_radius(ham)

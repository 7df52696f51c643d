"""Reduced-correlation fixed point: kernel assembly, iteration, bounds."""

import cmath
import itertools
import math

import pytest

from polymerion import (
    ConfigError,
    NumericalError,
    Oracle,
    PolymerWeight,
    Region,
    assemble_hamiltonian,
    build_ks_kernel,
    enumerate_polymers,
    gk_criterion,
    ising_model,
    ks_solve,
    site_pinned_series,
)
from polymerion.config import build_model

from helpers import (
    chain_interaction,
    ks_kernel_reference,
    ks_reference,
    random_instance,
    random_observable,
    ring_model,
    scattered_interaction,
)


def ising_chain(n: int):
    return assemble_hamiltonian(ising_model(1), Region.box([n]), boundary="free")


def test_single_bond_kernel_has_one_entry_per_pivot():
    ham = ising_chain(2)
    beta = 0.37
    kern = build_ks_kernel(ham, beta)
    assert kern.n_polymers == 1
    assert kern.truncation == 1
    whole = frozenset(ham.sites)
    want = math.cosh(beta) - 1.0
    # The unique polymer feeds both of its sites as pivots.
    assert set(kern.entries) == {((0,), whole), ((1,), whole)}
    for val in kern.entries.values():
        assert abs(val - want) < 1e-14


def test_zero_beta_gives_zero_kernel_and_unit_solution():
    ham = ising_chain(3)
    kern = build_ks_kernel(ham, 0.0)
    assert max(abs(v) for v in kern.entries.values()) == 0.0
    sol = ks_solve(ham, 0.0)
    assert sol.converged
    assert all(abs(v - 1.0) < 1e-15 for v in sol.g.values())


def test_middle_site_of_three_site_chain():
    """The pivot ratio removes both bonds, leaving 1/cosh^2."""
    ham = ising_chain(3)
    beta = 0.3
    sol = ks_solve(ham, beta)
    got = sol.value([(1,)])
    oracle = Oracle(ham, beta).reduced_correlation([(1,)])
    assert abs(got - oracle) < 1e-8
    assert abs(got - 1.0 / math.cosh(beta) ** 2) < 1e-10
    assert abs(got - 0.91517) < 1e-4


def test_solution_matches_oracle_on_every_subset(rng):
    inter = chain_interaction(rng, 2, "quantum", 4, 0.3)
    region = Region.from_sites((i,) for i in range(4))
    ham = assemble_hamiltonian(inter, region, boundary="free")
    beta = 0.23
    sol = ks_solve(ham, beta, tol=1e-13)
    assert sol.converged
    orc = Oracle(ham, beta)
    for r in range(1, len(ham.sites) + 1):
        for sub in itertools.combinations(ham.sites, r):
            want = orc.reduced_correlation(sub)
            assert abs(sol.value(sub) - want) < 1e-8
    one = ham.sites[0]
    assert sol.value([one]) == sol.g[frozenset([one])]


def test_complex_beta_solution_matches_oracle(rng):
    inter = chain_interaction(rng, 3, "classical", 3, 0.4, with_fields=True)
    region = Region.from_sites((i,) for i in range(3))
    ham = assemble_hamiltonian(inter, region, boundary="free")
    beta = 0.2 + 0.15j
    sol = ks_solve(ham, beta, tol=1e-13)
    assert sol.converged
    orc = Oracle(ham, beta)
    for r in range(1, 4):
        for sub in itertools.combinations(ham.sites, r):
            assert abs(sol.value(sub) - orc.reduced_correlation(sub)) < 1e-10


def quantum_volume(rng, style: str, scale: float):
    if style == "chain":
        n = int(rng.integers(4, 7))
        inter = chain_interaction(rng, 2, "quantum", n, scale, with_fields=True)
        return assemble_hamiltonian(inter, Region.from_sites((i,) for i in range(n)))
    if style == "product":
        # The bonds at (2, 0) are contracted against the product state,
        # and the 3-site bond stays.
        inter = scattered_interaction(rng, 2, "quantum", scale)
        region = Region.from_sites([(0, 0), (1, 0), (0, 1), (1, 1)])
        return assemble_hamiltonian(inter, region, boundary="product")
    n = int(rng.integers(4, 7))
    model = ring_model(rng, 2, "quantum", scale)
    return assemble_hamiltonian(model, Region.box([n]), boundary="periodic")


@pytest.mark.parametrize("style", ["chain", "product", "ring"])
def test_exact_quantum_kernel_is_the_per_polymer_sum(rng, style):
    # An exact quantum kernel is built from one Z per support; it sums the
    # same activities as the per-polymer inclusion-exclusion, in another
    # order.
    for beta in (0.3, -0.2, 0.25 + 0.2j, -0.1 - 0.3j):
        ham = quantum_volume(rng, style, 0.1 / abs(beta))
        kern = build_ks_kernel(ham, beta)
        ref = ks_kernel_reference(ham, beta)
        assert list(kern.entries) == list(ref.entries)
        assert (kern.n_polymers, kern.truncation) == (ref.n_polymers, ref.truncation)
        for key, val in kern.entries.items():
            assert abs(val - ref.entries[key]) < 1e-14


def test_norm_bound_recomputes_from_entries():
    ham = assemble_hamiltonian(ising_model(2), Region.box([2, 3]), boundary="free")
    kern = build_ks_kernel(ham, 0.1)
    a = math.log(2.0)
    masses = {}
    for (piv, supp), val in kern.entries.items():
        masses[piv] = masses.get(piv, 0.0) + abs(val) * math.exp(a * len(supp))
    want = math.exp(-a) * (1.0 + max(masses.values()))
    assert abs(kern.norm_bound(a) - want) < 1e-14
    for piv, m in masses.items():
        assert abs(kern.mass(piv, a) - m) < 1e-14


def test_kernel_mass_stays_below_pinned_majorant(rng):
    # Per pivot: sum_S |K(x0,S)| e^{a|S|} against the absolute pinned
    # cluster sum evaluated at the per-bond bound activities.
    inter = chain_interaction(rng, 2, "quantum", 4, 0.3, with_fields=True)
    region = Region.from_sites((i,) for i in range(4))
    ham = assemble_hamiltonian(inter, region, boundary="free")
    beta = 0.3
    a = math.log(2.0)
    kern = build_ks_kernel(ham, beta)
    polymers = enumerate_polymers(ham, len(ham.bonds))
    ws = []
    for p in polymers:
        v = 1.0
        for i in p.bonds:
            v *= math.expm1(abs(beta) * ham.norms[i]) * math.exp(
                a * len(ham.bonds[i])
            )
        ws.append(PolymerWeight(polymer=p, rho=v, bound=v))
    for site in ham.sites:
        major = site_pinned_series(
            ham, beta, site, len(ham.bonds), absolute=True, weights=tuple(ws)
        )
        assert kern.mass(site, a) <= float(abs(major.value)) + 1e-12


def test_certified_temperature_contracts_the_kernel():
    """Below the square-lattice radius the same weight gives a norm < 1."""
    ham = assemble_hamiltonian(ising_model(2), Region.box([2, 3]), boundary="free")
    beta = 0.028
    a_star = math.log1p(4 * 0.0873650712)
    report = gk_criterion(ham, beta, a=a_star)
    assert report.holds
    sol = ks_solve(ham, beta, a=a_star)
    assert sol.norm_bound < 1.0
    assert sol.converged
    orc = Oracle(ham, beta)
    for site in ham.sites:
        assert abs(sol.value([site]) - orc.reduced_correlation([site])) < 1e-8


def test_contraction_rate_within_norm_bound():
    ham = assemble_hamiltonian(ising_model(2), Region.box([2, 3]), boundary="free")
    sol = ks_solve(ham, 0.1)
    assert sol.norm_bound < 1.0
    assert sol.contraction <= sol.norm_bound + 1e-6


def test_converged_fixed_point_satisfies_the_recursion(rng):
    inter = chain_interaction(rng, 2, "quantum", 4, 0.35)
    region = Region.from_sites((i,) for i in range(4))
    ham = assemble_hamiltonian(inter, region, boundary="free")
    beta = 0.3
    tol = 1e-12
    sol = ks_solve(ham, beta, tol=tol)
    assert sol.converged and sol.contraction < 1.0
    index = {s: i for i, s in enumerate(ham.sites)}
    worst = 0.0
    for r in range(1, len(ham.sites) + 1):
        for sub in itertools.combinations(ham.sites, r):
            x = frozenset(sub)
            x0 = min(x, key=index.__getitem__)
            rest = x - {x0}
            acc = sol.g[rest] if rest else 1.0
            for (piv, supp), val in sol.kernel.entries.items():
                if piv == x0 and supp.isdisjoint(rest):
                    acc -= val * sol.g[x | supp]
            worst = max(worst, abs(acc - sol.g[x]) * math.exp(-sol.a * len(x)))
    assert worst < tol


def test_truncated_kernel_is_close_at_small_coupling():
    ham = ising_chain(5)
    beta = 0.05
    full = ks_solve(ham, beta)
    cut = ks_solve(ham, beta, max_polymer_bonds=2)
    assert cut.kernel.truncation == 2
    assert cut.kernel.n_polymers < full.kernel.n_polymers
    for x, v in full.g.items():
        assert abs(cut.g[x] - v) < 1e-6


def test_iteration_budget_reports_nonconvergence():
    ham = ising_chain(3)
    sol = ks_solve(ham, 0.3, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert math.isfinite(sol.residual) and sol.residual > 1e-12
    assert len(sol.g) == 2 ** len(ham.sites) - 1


def test_site_cap_is_enforced():
    ham = ising_chain(17)
    with pytest.raises(NumericalError):
        ks_solve(ham, 0.1)


def test_kernel_cap_fires_before_the_polymers_are_built():
    # The 24 bonds of a 4x4 patch form well over polymers.MAX_POLYMERS
    # connected families; the walk stops at the cap instead of building
    # every polymer first.
    ham = assemble_hamiltonian(ising_model(2), Region.box([4, 4]), boundary="free")
    with pytest.raises(NumericalError, match="more than 500000 polymers"):
        build_ks_kernel(ham, 0.1)


def test_a_cut_below_one_bond_is_refused():
    ham = ising_chain(3)
    for cut in (0, -1):
        with pytest.raises(ConfigError, match="max_polymer_bonds"):
            build_ks_kernel(ham, 0.3, max_polymer_bonds=cut)
        with pytest.raises(ConfigError, match="max_polymer_bonds"):
            ks_solve(ham, 0.3, max_polymer_bonds=cut)
    assert build_ks_kernel(ham, 0.3, max_polymer_bonds=1).n_polymers == 2


def test_unknown_site_set_is_refused():
    sol = ks_solve(ising_chain(3), 0.3)
    assert sol.value([(0,), (2,)]) == sol.g[frozenset([(0,), (2,)])]
    with pytest.raises(ConfigError):
        sol.value([(9,)])


def preset_volume(preset, extent, boundary="free", **extra):
    model = build_model({"model": {"preset": preset, "dimension": len(extent), **extra}})
    return assemble_hamiltonian(model, Region.box(extent), boundary=boundary)


def assert_same_bits(sol, ref):
    """Equal to the last bit: repr round-trips floats and keeps signed zeros."""
    assert list(sol.g) == list(ref["g"])
    assert [repr(v) for v in sol.g.values()] == [repr(v) for v in ref["g"].values()]
    assert sol.iterations == ref["iterations"]
    assert sol.converged == ref["converged"]
    assert repr(sol.residual) == repr(ref["residual"])
    assert repr(sol.contraction) == repr(ref["contraction"])


def test_solve_is_bit_identical_to_the_per_subset_sweep():
    cases = [
        (preset_volume("ising", [3, 4]), 0.04, 5),
        (preset_volume("ising", [3, 4]), 0.04, 4),
        (preset_volume("ising", [2, 4]), 0.05, None),
        (preset_volume("heisenberg", [2, 3]), 0.02 + 0.01j, None),
        (preset_volume("potts", [2, 3], q=3), 0.05, None),
        (preset_volume("xy", [6], "periodic"), 0.04 + 0.02j, None),
    ]
    for ham, beta, cut in cases:
        sol = ks_solve(ham, beta, max_polymer_bonds=cut)
        assert sol.converged
        assert_same_bits(sol, ks_reference(ham.sites, sol.kernel, sol.a, 1e-12, 500))


def test_solve_is_bit_identical_on_the_criterion_3_instances(rng):
    # Draw the instances of acceptance criterion 3: the same generator
    # calls in the same order, so the same 50 volumes and betas.
    for i in range(50):
        _, ham, beta = random_instance(rng, i)
        random_observable(rng, ham)
        pairs = math.comb(len(ham.sites), 2)
        rng.choice(pairs, size=min(3, pairs), replace=False)
        sol = ks_solve(ham, beta, tol=1e-12)
        assert_same_bits(sol, ks_reference(ham.sites, sol.kernel, sol.a, 1e-12, 500))


def test_diverging_hierarchy_raises_instead_of_reporting_nan():
    ring = assemble_hamiltonian(ising_model(1), Region.box([6]), boundary="periodic")
    with pytest.raises(NumericalError, match="float range"):
        ks_solve(ring, 2.0)
    # A run that stays finite but does not converge is still returned.
    sol = ks_solve(ring, 1.0)
    assert not sol.converged and sol.iterations == 500
    assert math.isfinite(sol.residual) and sol.residual > 1e90
    assert all(map(cmath.isfinite, sol.g.values()))


@pytest.mark.parametrize(
    "options",
    [
        {"max_iter": 0},
        {"max_iter": -3},
        {"a": math.nan},
        {"a": math.inf},
        {"tol": -1e-12},
        {"tol": math.nan},
        {"tol": math.inf},
    ],
)
def test_bad_solver_options_are_refused(options):
    with pytest.raises(ConfigError):
        ks_solve(ising_chain(3), 0.3, **options)


def test_mass_of_a_site_outside_the_volume_is_refused():
    kern = build_ks_kernel(ising_chain(3), 0.3)
    assert kern.mass((2,), 0.5) > 0
    with pytest.raises(ConfigError):
        kern.mass((7,), 0.5)


def test_sites_are_read_as_sites_everywhere():
    # An integer is the one-coordinate site, as in every other entry point;
    # the kernel and the solution refused 0 and [0] where (0,) worked.
    sol = ks_solve(ising_chain(3), 0.3)
    assert sol.value([0]) == sol.value((0,)) == sol.value([(0,)]) == sol.g[frozenset([(0,)])]
    assert sol.kernel.mass(0, 0.5) == sol.kernel.mass((0,), 0.5)


def test_a_kernel_mass_past_the_float_range_is_a_numerical_failure():
    # exp(a |S|) overflowed with a bare OverflowError, in ks_solve too.
    kern = build_ks_kernel(ising_chain(3), 0.3)
    with pytest.raises(NumericalError, match="float range"):
        kern.norm_bound(1000.0)
    with pytest.raises(NumericalError, match="float range"):
        ks_solve(ising_chain(3), 0.3, a=1000.0)


def test_a_hierarchy_weight_past_the_float_range_is_a_numerical_failure():
    # e^{-a |S|} at a = -1000 raised a bare OverflowError.
    kern = build_ks_kernel(ising_chain(4), 0.3)
    with pytest.raises(NumericalError, match="a = -1000"):
        kern.norm_bound(-1000.0)


def test_a_hierarchy_solve_past_the_float_range_is_a_numerical_failure():
    with pytest.raises(NumericalError, match="a = -1000"):
        ks_solve(ising_chain(4), 0.3, a=-1000.0)

"""Library arguments are refused like config values: one ConfigError that
names the argument, never a silent truncation or a bare TypeError."""

import math

import numpy as np
import pytest

from polymerion import (
    ConfigError,
    Interaction,
    NumericalError,
    Observable,
    Oracle,
    LatticeModel,
    Polymer,
    PolymerWeight,
    Region,
    adaptive_free_energy_series,
    anchored_polymer_sum,
    assemble_hamiltonian,
    beta_radius,
    build_ks_kernel,
    correlation_series,
    enumerate_polymers,
    expectation_series,
    fp_iterate,
    fp_phi,
    free_energy_by_site,
    free_energy_density,
    free_energy_series,
    gibbs_expectation,
    gk_criterion,
    heisenberg_model,
    ising_model,
    ks_solve,
    mobius_transform,
    nn_radius,
    operator_norm,
    park_compare,
    pinned_series,
    potts_model,
    site_pinned_series,
    tree_bound,
    universal_radius,
)
from polymerion import polymers
from polymerion.config import parse_array, parse_scalar, parse_sites
from polymerion.model import as_site, embed_matrix, embed_table

NAN, INF = float("nan"), float("inf")
CHAIN = assemble_hamiltonian(ising_model(1), Region.box([4]), boundary="free")
HCHAIN = assemble_hamiltonian(heisenberg_model(1), Region.box([4]), boundary="free")
SPIN = Observable.make([(0,)], np.diag([1.0, -1.0]))
TWO = ((0,), (1,))
# Two single-bond polymers sharing a site.
PAIR = [Polymer(bonds=(i,), support=frozenset([(0,), (i + 1,)])) for i in range(2)]


# id: (what the message must name, the call)
PROBES = {
    "nn_radius-2.7": ("dimension", lambda: nn_radius(2.7)),
    "nn_radius-True": ("dimension", lambda: nn_radius(True)),
    "park_compare-True": ("dimension", lambda: park_compare(True)),
    "ks_solve-max_iter": ("max_iter", lambda: ks_solve(CHAIN, 0.3, max_iter=2.5)),
    "ks_solve-a": ("^a must", lambda: ks_solve(CHAIN, 0.3, a="x")),
    "build_ks_kernel-True": ("max_polymer_bonds", lambda: build_ks_kernel(CHAIN, 0.3, True)),
    "beta_radius-per_decade": ("per_decade", lambda: beta_radius(CHAIN, per_decade=2.5)),
    "beta_radius-fp-max_bonds": ("max_bonds", lambda: beta_radius(CHAIN, "fp", max_bonds=True)),
    "universal_radius-alpha": ("alpha", lambda: universal_radius(ising_model(2), alpha=NAN)),
    "fp_iterate-tol": ("tol", lambda: fp_iterate(PAIR, [0.1, 0.1], tol=NAN)),
    "fp_iterate-max_iter": ("max_iter", lambda: fp_iterate(PAIR, [0.1, 0.1], max_iter=2.5)),
    "fp_phi-True": ("index", lambda: fp_phi(PAIR, True, [0.1, 0.1])),
    "enumerate_polymers-2.5": ("max_bonds", lambda: enumerate_polymers(CHAIN, 2.5)),
    "free_energy_density-2.5": (
        "max_total_bonds", lambda: free_energy_density(ising_model(1), 0.1, 2.5)
    ),
    "free_energy_density--1": (
        "max_total_bonds", lambda: free_energy_density(ising_model(1), 0.1, -1)
    ),
    "gk_criterion-a": ("^a must", lambda: gk_criterion(ising_model(2), 0.01, a="x")),
    "adaptive-tol": ("tol", lambda: adaptive_free_energy_series(CHAIN, 0.3, tol=NAN)),
    "ising_model-2.5": ("dimension", lambda: ising_model(2.5)),
    "ising_model-0": ("dimension", lambda: ising_model(0)),
    "potts_model-q=1": ("q", lambda: potts_model(1, 2)),
    "ising_model-nan": ("coupling", lambda: ising_model(1, NAN)),
    "from_templates-inf": (
        "non-finite",
        lambda: LatticeModel.from_templates(1, 2, "classical", [([(0,), (1,)], [1, INF, 1, 1])]),
    ),
    "Region.box-2.5": ("extent", lambda: Region.box([2.5])),
    "Region.box-True": ("extent", lambda: Region.box([True, 3])),
    "reduced_correlation-0.7": (
        "site coordinate", lambda: Oracle(CHAIN, 0.3).reduced_correlation([(0.7,)])
    ),
    "reduced_correlation-True": (
        "site coordinate", lambda: Oracle(CHAIN, 0.3).reduced_correlation((True,))
    ),
    "Oracle-beta-str": ("beta", lambda: Oracle(CHAIN, "0.3")),
    "gk_criterion-beta-True": ("beta", lambda: gk_criterion(ising_model(2), True)),
    "parse_scalar-True": ("beta", lambda: parse_scalar(True, "beta")),
    "parse_array-pair-True": ("data", lambda: parse_array([[1.0, 0.0], [1.0, True]], "data")),
    "Observable.make-1.5": (
        "site coordinate", lambda: Observable.make([(1.5,)], np.array([1.0, -1.0]))
    ),
    "tree_bound-weights-str": ("weights", lambda: tree_bound([0.1, "x", 0.1], CHAIN, 0.1)),
    "tree_bound-weights-nan": ("weights", lambda: tree_bound([0.1, NAN, 0.1], CHAIN, 0.1)),
    "KSKernel.norm_bound-str": ("^a must", lambda: build_ks_kernel(CHAIN, 0.3).norm_bound("x")),
    "KSKernel.norm_bound-nan": ("^a must", lambda: build_ks_kernel(CHAIN, 0.3).norm_bound(NAN)),
    "KSKernel.mass-True": ("^a must", lambda: build_ks_kernel(CHAIN, 0.3).mass(0, True)),
    "KSKernel.mass-site-1.5": (
        "site coordinate", lambda: build_ks_kernel(CHAIN, 0.3).mass((1.5,), 0.1)
    ),
    "enumerate_polymers-anchor-outside": (
        "not in the volume", lambda: enumerate_polymers(CHAIN, 2, anchor=(99,))
    ),
    "reduced_correlation-1.5": (
        "site set", lambda: Oracle(CHAIN, 0.3).reduced_correlation(1.5)
    ),
    "parse_sites-1.5": ("observable.sites", lambda: parse_sites([[0, 1.5]], "observable.sites")),
    "parse_sites-True": ("observable.sites", lambda: parse_sites([True], "observable.sites")),
    # Arrays: each of these raised a bare ValueError, LinAlgError or
    # ComplexWarning, or ran on with a nan or a truncated value.
    "parse_array-ragged": (
        r"terms\[0\]\.data", lambda: parse_array([[1, 2], [3]], "terms[0].data")
    ),
    "Observable.make-nan": ("observable", lambda: Observable.make([(1,)], [NAN, 1.0])),
    "Observable-nan": ("observable", lambda: Observable(((1,),), np.array([NAN, 1.0]))),
    # An unsorted support would be placed as if sorted.
    "Observable-unsorted": ("sorted bond", lambda: Observable(((1,), (0,)), np.eye(4))),
    "Observable.make-str": ("observable", lambda: Observable.make([(1,)], ["a", "b"])),
    "Observable.make-ragged": (
        "observable", lambda: Observable.make([(0,), (1,)], [[1.0, 0.0], [0.0]])
    ),
    # Unsorted sites with data of no q^k size are kept as given and refused
    # by the volume's shape check.
    "Observable.make-unsorted-size": (
        "3 entries",
        lambda: Oracle(CHAIN, 0.3).expectation(Observable.make([(1,), (0,)], np.ones(3))),
    ),
    "from_terms-str": (
        "term on", lambda: Interaction.from_terms(2, "classical", [([(0,)], ["a", "b"])])
    ),
    "from_terms-ragged": (
        "term on", lambda: Interaction.from_terms(2, "quantum", [([(0,)], [[1.0, 0.0], [0.0]])])
    ),
    "theta-str": ("boundary state", lambda: _product(ising_model(1), ["a", "b"])),
    "theta-ragged": ("boundary state", lambda: _product(heisenberg_model(1), [[0.5, 0], [0.5]])),
    "theta-complex": ("boundary state", lambda: _product(ising_model(1), [0.3 + 0.1j, 0.7])),
    "theta-nan": ("boundary state", lambda: _product(ising_model(1), [NAN, 1.0])),
    "theta-quantum-nan": (
        "boundary state", lambda: _product(heisenberg_model(1), [[NAN, 0], [0, 0.5]])
    ),
    "fp_iterate-lam-complex": ("lam", lambda: fp_iterate(PAIR, np.array([0.1 + 0.1j, 0.1]))),
    "fp_iterate-lam-bool": ("lam", lambda: fp_iterate(PAIR, [True, False])),
    "fp_iterate-lam-mixed-bool": ("lam", lambda: fp_iterate(PAIR, [0.1, True])),
    "mobius_transform-str": ("values", lambda: mobius_transform(["a", "b"])),
    "mobius_transform-3": ("values", lambda: mobius_transform([1, 2, 3])),
    # Caller arrays of the model's helpers: a nan norm or embedding came out.
    "operator_norm-nan": ("operator", lambda: operator_norm([1.0, NAN])),
    "embed_table-nan": ("embedded table", lambda: embed_table([NAN, 1.0], ((0,),), TWO, 2)),
    "embed_table-size": ("embedded table", lambda: embed_table([1.0] * 3, ((0,),), TWO, 2)),
    "embed_matrix-nan": (
        "embedded matrix", lambda: embed_matrix(np.full((2, 2), NAN), ((0,),), TWO, 2)
    ),
    "embed_matrix-shape": ("embedded matrix", lambda: embed_matrix(np.eye(3), ((0,),), TWO, 2)),
    "embed_matrix-order": (
        "subsequence", lambda: embed_matrix(np.eye(4), ((1,), (0,)), TWO, 2)
    ),
    "embed_matrix-missing": ("subsequence", lambda: embed_matrix(np.eye(2), ((2,),), TWO, 2)),
    # Supports: bond ((1,), (2,)) was placed on sites (0, 1), and a site off
    # the volume was taken.
    "hamiltonian_on-support-short": (
        "misses the bond sites", lambda: Oracle(HCHAIN, 0.3).hamiltonian_on([0, 1], TWO)
    ),
    "hamiltonian_on-support-outside": (
        "not in the volume",
        lambda: Oracle(HCHAIN, 0.3).hamiltonian_on([0, 1], ((0,), (1,), (9,))),
    ),
    "boltzmann-support-short": (
        "misses the bond sites", lambda: Oracle(HCHAIN, 0.3).boltzmann([1], TWO)
    ),
    "weighted_trace-support-short": (
        "misses the bond sites", lambda: Oracle(HCHAIN, 0.3).weighted_trace(SPIN, [2], TWO)
    ),
    "weighted_trace-support-outside": (
        "not in the volume", lambda: Oracle(HCHAIN, 0.3).weighted_trace(SPIN, [0], [(7,)])
    ),
    # An observable of the wrong shape raised a bare ValueError from reshape.
    "weighted_trace-shape": (
        "3 entries",
        lambda: Oracle(CHAIN, 0.3).weighted_trace(Observable(((0,),), np.ones(3)), [0], TWO),
    ),
    "weighted_trace-shape-quantum": (
        "shape \\(3,\\)",
        lambda: Oracle(HCHAIN, 0.3).weighted_trace(Observable(((0,),), np.ones(3)), [0], TWO),
    ),
    # Arguments of the wrong type raised a bare AttributeError.
    "expectation-dict": ("Observable", lambda: Oracle(CHAIN, 0.3).expectation({})),
    "weighted_trace-None": (
        "Observable", lambda: Oracle(CHAIN, 0.3).weighted_trace(None, [0], [(0,)])
    ),
    "gibbs_expectation-list": ("Observable", lambda: gibbs_expectation(CHAIN, 0.1, [1, -1])),
    "expectation_series-None": ("Observable", lambda: expectation_series(CHAIN, 0.1, None)),
    "free_energy_density-Hamiltonian": (
        "LatticeModel", lambda: free_energy_density(CHAIN, 0.1, 2)
    ),
    # A lattice model where an assembled Hamiltonian is needed.
    "Oracle-LatticeModel": ("Hamiltonian", lambda: Oracle(ising_model(1), 0.1).z()),
    "enumerate_polymers-LatticeModel": (
        "Hamiltonian", lambda: enumerate_polymers(ising_model(1), 2)
    ),
    "free_energy_series-LatticeModel": (
        "Hamiltonian", lambda: free_energy_series(ising_model(1), 0.1, 2)
    ),
    "free_energy_by_site-LatticeModel": (
        "Hamiltonian", lambda: free_energy_by_site(ising_model(1), 0.1, 2)
    ),
    "ks_solve-LatticeModel": ("Hamiltonian", lambda: ks_solve(ising_model(1), 0.1)),
    "correlation_series-LatticeModel": (
        "Hamiltonian", lambda: correlation_series(ising_model(1), 0.1, [(0,)], 2)
    ),
    "build_ks_kernel-LatticeModel": ("Hamiltonian", lambda: build_ks_kernel(ising_model(1), 0.1)),
    "expectation_series-LatticeModel": (
        "Hamiltonian", lambda: expectation_series(ising_model(1), 0.1, SPIN)
    ),
    "pinned_series-LatticeModel": (
        "Hamiltonian", lambda: pinned_series(ising_model(1), 0.1, PAIR[0], 2)
    ),
    "site_pinned_series-LatticeModel": (
        "Hamiltonian", lambda: site_pinned_series(ising_model(1), 0.1, (0,), 2)
    ),
    "free_energy_series-weights-nan": (
        "weights",
        lambda: free_energy_series(
            CHAIN, 0.3, 2, weights=[PolymerWeight(polymer=PAIR[0], rho=NAN, bound=1.0)]
        ),
    ),
}


def _product(model, theta):
    return assemble_hamiltonian(model, Region.box([3]), boundary="product", theta=theta)


@pytest.mark.parametrize("match, call", PROBES.values(), ids=PROBES.keys())
def test_bad_numeric_arguments_are_refused(match, call):
    # Each of these computed something else (nn_radius(2.7) at d = 2,
    # Region.box([2.5]) with 2 sites), raised a bare TypeError, ran on with
    # a nan, or was refused with a message about something else.
    with pytest.raises(ConfigError, match=match):
        call()


def test_a_numpy_integer_is_a_site():
    assert as_site(np.int64(3)) == (3,)
    assert as_site([np.int64(1), 2]) == (1, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: free_energy_series(CHAIN, 0.3, k),
        lambda k: anchored_polymer_sum(CHAIN, 0.3, math.log(2.0), k),
    ],
    ids=["free_energy_series", "anchored_polymer_sum"],
)
def test_every_enumeration_counts_against_the_polymer_cap(monkeypatch, call):
    n = len(enumerate_polymers(CHAIN, 3))
    monkeypatch.setattr(polymers, "MAX_POLYMERS", n)
    call(3)
    monkeypatch.setattr(polymers, "MAX_POLYMERS", n - 1)
    with pytest.raises(NumericalError, match=f"more than {n - 1} polymers"):
        call(3)

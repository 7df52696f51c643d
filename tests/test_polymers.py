import itertools
import math
import types

import numpy as np
import pytest

import polymerion
from polymerion import (
    ConfigError,
    Interaction,
    Oracle,
    Region,
    assemble_hamiltonian,
    compatible,
    enumerate_polymers,
    incompatibility_graph,
    ising_model,
    mobius_transform,
    polymer_weights,
    rho_fugacity,
)
from polymerion.model import site_set
from polymerion.polymers import _overlap_masks, zeta_transform

from helpers import random_table


def free_ising(extent):
    d = len(extent)
    return assemble_hamiltonian(ising_model(d), Region.box(extent), boundary="free")


def test_chain_of_three_bonds_has_six_families():
    ham = free_ising([4])
    polys = enumerate_polymers(ham, 3)
    assert [p.bonds for p in polys] == [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
    # (0, 2) skips the middle bond and is disconnected, hence absent.


def test_cumulative_counts_on_2x3_grid():
    ham = free_ising([2, 3])
    counts = [len(enumerate_polymers(ham, k)) for k in (1, 2, 3, 4)]
    assert counts == [7, 17, 33, 53]


def test_periodic_2x2_counts_and_merges():
    ham = assemble_hamiltonian(
        ising_model(2), Region.box([2, 2]), boundary="periodic"
    )
    assert len(ham.bonds) == 4 and ham.meta["merged"] == 4
    counts = [len(enumerate_polymers(ham, k)) for k in (1, 2, 3, 4)]
    assert counts == [4, 8, 12, 13]


def test_canonical_order_and_support():
    ham = free_ising([2, 3])
    polys = enumerate_polymers(ham, 3)
    keys = [(len(p.bonds), p.bonds) for p in polys]
    assert keys == sorted(keys)
    for p in polys:
        assert p.support == frozenset(s for i in p.bonds for s in ham.bonds[i])


def test_anchor_filter_keeps_meeting_polymers_only():
    # The anchored walk is pinned at the bonds meeting the anchor set; its
    # output must be the full enumeration filtered by the anchor, tuple for
    # tuple. Two far-apart anchor sites pin sets joined only through the
    # pin, such as the two end bonds of the chain, which are no polymer.
    patch = assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([3, 3]))
    chain = free_ising([6])
    cases = [
        (patch, (1, 1), [(0, 0), (0, 1)], [(0, 0), (2, 2)], (9, 9)),
        (chain, (2,), [(2,), (3,)], [(0,), (5,)], (9,)),
    ]
    for ham, one, adjacent, apart, outside in cases:
        for anchor in (one, adjacent, apart):
            sites = site_set(anchor)
            for k in (0, 1, 2, 3, 4):
                want = tuple(
                    p for p in enumerate_polymers(ham, k) if not sites.isdisjoint(p.support)
                )
                assert enumerate_polymers(ham, k, anchor=anchor) == want, (anchor, k)
        # A site outside the volume is refused, not read as an empty pin.
        for anchor in (outside, [one, outside]):
            with pytest.raises(ConfigError, match="not in the volume"):
                enumerate_polymers(ham, 2, anchor=anchor)


def test_mobius_and_zeta_transforms_invert(rng):
    v = rng.standard_normal(2**8)
    assert np.allclose(zeta_transform(mobius_transform(v)), v, atol=1e-12)
    assert np.allclose(mobius_transform(zeta_transform(v)), v, atol=1e-12)


def test_mobius_transform_literal_inclusion_exclusion(rng):
    for n in (4, 0, 1):
        v = rng.standard_normal(2**n)
        m = mobius_transform(v)
        z = zeta_transform(v)
        for sett in range(2**n):
            expected = subset_sum = 0.0
            sub = sett
            while True:
                k = bin(sett ^ sub).count("1")
                expected += (-1.0) ** k * v[sub]
                subset_sum += v[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & sett
            assert abs(m[sett] - expected) < 1e-12
            assert abs(z[sett] - subset_sum) < 1e-12


def test_classical_product_formula(rng):
    # For commuting interactions the fugacity kernel factorizes, so
    # rho_B = mean over states of prod_{X in B} (e^{-beta phi_X(s)} - 1).
    q = 2
    terms = [
        (((0,), (1,)), random_table(rng, q, 2, 0.6)),
        (((1,), (2,)), random_table(rng, q, 2, 0.6)),
        (((2,),), random_table(rng, q, 1, 0.6)),
    ]
    inter = Interaction.from_terms(q=q, kind="classical", terms=terms)
    ham = assemble_hamiltonian(
        inter, Region.from_sites([(0,), (1,), (2,)]), boundary="free"
    )
    beta = 0.41
    site_of = {s: k for k, s in enumerate(ham.sites)}
    tables = [ham.ops[i].reshape((q,) * len(b)) for i, b in enumerate(ham.bonds)]
    for ids in [(0,), (1,), (0, 1), (0, 1, 2)]:
        acc = 0.0
        for state in itertools.product(range(q), repeat=len(ham.sites)):
            prod = 1.0
            for i in ids:
                idx = tuple(state[site_of[s]] for s in ham.bonds[i])
                prod *= math.exp(-beta * tables[i][idx]) - 1.0
            acc += prod
        acc /= q ** len(ham.sites)
        assert abs(rho_fugacity(ham, beta, ids) - acc) < 1e-13


def test_polymer_weight_bound_dominates_activity(rng):
    ham = free_ising([4])
    for beta in (0.3, 0.3 + 0.2j, -0.25):
        for w in polymer_weights(ham, beta, 3):
            assert abs(w.rho) <= w.bound + 1e-12


def test_compatibility_and_graph_consistency():
    ring = assemble_hamiltonian(ising_model(1), Region.box([6]), boundary="periodic")
    fields = assemble_hamiltonian(
        ising_model(2, field_h=0.3), Region.box([2, 3]), boundary="free"
    )
    cases = [(free_ising([2, 3]), 2), (ring, 6), (free_ising([3, 3]), 4), (fields, 3)]
    for ham, k in cases:
        polys = enumerate_polymers(ham, k)
        adj = incompatibility_graph(polys)
        assert len(adj) == len(polys)
        for i, p in enumerate(polys):
            assert not (adj[i] >> i) & 1  # self bit stays clear in the graph
            for j in range(len(polys)):
                if i == j:
                    continue
                bit = bool((adj[i] >> j) & 1)
                assert bit == (not compatible(p, polys[j]))
                assert bit == bool((adj[j] >> i) & 1)
        bond_adj = _overlap_masks(ham.bonds)
        for i, a in enumerate(ham.bonds):
            want = sum(
                1 << j
                for j, b in enumerate(ham.bonds)
                if j != i and not set(a).isdisjoint(b)
            )
            assert bond_adj[i] == want


def test_package_lists_every_public_name():
    # zeta_transform was imported by the package but missing from __all__.
    public = {
        name for name, value in vars(polymerion).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(polymerion.__all__) == sorted(public)

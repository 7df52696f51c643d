"""Property tests of the compiled fixed-point evaluation against the
memoized recursion it replaced, on random incompatibility graphs, and of
the column iteration behind fp radius scans against the per-point loop it
replaced, on random chains and boxes."""

import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import numpy as np  # noqa: E402

from polymerion import (  # noqa: E402
    Region,
    assemble_hamiltonian,
    beta_radius,
    enumerate_polymers,
    fp_criterion,
    fp_phi,
    incompatibility_graph,
    ising_model,
)
from polymerion import convergence  # noqa: E402
from polymerion.convergence import _FPDag, _fp_columns  # noqa: E402

from helpers import (  # noqa: E402
    fp_bounds,
    fp_iterate_reference,
    fp_phi_reference,
    random_connected_adjacency,
)


@st.composite
def graphs(draw):
    """Adjacency masks on up to 12 vertices: a random connected graph, or
    an arbitrary (often disconnected) one edge by edge."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        return random_connected_adjacency(np.random.default_rng(seed), n)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_phi_and_criterion_equal_the_recursion(data):
    adj = data.draw(graphs())
    n = len(adj)
    unit = st.floats(0.0, 1.0, exclude_max=True)
    mu = data.draw(st.lists(unit, min_size=n, max_size=n))
    lam = data.draw(st.lists(unit, min_size=n, max_size=n))
    index = data.draw(st.integers(0, n - 1))
    polymers = [None] * n  # only their number is read when the graph is given

    assert fp_phi(polymers, index, mu, adjacency=adj) == fp_phi_reference(adj, index, mu)
    phis = tuple(fp_phi_reference(adj, i, mu) for i in range(n))
    rep = fp_criterion(polymers, lam, mu, adjacency=adj)
    assert rep.phi == phis
    margins = tuple(m - x * p for m, x, p in zip(mu, lam, phis))
    assert rep.margins == margins
    assert rep.holds == all(x >= 0 for x in margins)


@st.composite
def volumes(draw, couplings=st.floats(0.2, 3.0)):
    """A free Ising chain of 2-6 sites or 2 x 2-3 box, with a random
    coupling and, on chains, maybe a field."""
    j = draw(couplings)
    if draw(st.booleans()):
        h = draw(st.sampled_from([0.0, 0.5]))
        return assemble_hamiltonian(ising_model(1, j, h), Region.box([draw(st.integers(2, 6))]))
    return assemble_hamiltonian(ising_model(2, j), Region.box([2, draw(st.integers(2, 3))]))


def _max_bonds(data, ham):
    """Polymers of up to 3 bonds on at most 5 bonds, else of up to 2: past
    that the candidates of a 2 x 3 box pass the 2^24 refusal."""
    return data.draw(st.integers(1, 3 if len(ham.bonds) <= 5 else 2))


def _hexed(fields):
    """FPResult fields with every float in hex, so that NaN entries compare."""
    return {k: tuple(float(x).hex() for x in v) if k in ("mu", "chain") else v
            for k, v in fields.items()}


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(ham=volumes(), data=st.data())
def test_each_column_stops_as_the_per_point_loop(ham, data):
    # Columns from zero converge, cross the cap or stop at max_iter. Columns
    # started at 1e200 overflow phi to inf at once; a zero lam under an
    # infinite phi leaves a NaN in the column. It is never at index 0: the
    # reference takes Python's max, which returns a leading NaN.
    polys = enumerate_polymers(ham, _max_bonds(data, ham))
    adj = incompatibility_graph(polys)
    m, max_iter = len(polys), data.draw(st.integers(0, 60))
    lams, starts = [], []
    for _ in range(data.draw(st.integers(1, 6))):
        lam = fp_bounds(ham, polys, data.draw(st.floats(0.01, 1.0)))
        start = [0.0] * m
        if data.draw(st.booleans()):
            start = [1e200] * m
            if m > 1:
                lam[data.draw(st.integers(1, m - 1))] = 0.0
        lams.append(lam)
        starts.append(start)
    got = _fp_columns(_FPDag(adj), np.array(lams).T, np.array(starts).T, 1e-14, max_iter, 1e9)
    assert len(got) == len(lams)
    for res, lam, start in zip(got, lams, starts):
        ref = fp_iterate_reference(adj, lam, mu0=start, max_iter=max_iter)
        fields = {k: getattr(res, k) for k in ref}
        assert _hexed(fields) == _hexed(ref)


@hypothesis.settings(max_examples=20, deadline=None, database=None)
@hypothesis.given(ham=volumes(st.sampled_from([0.5, 1.0, 2.0, 100.0])), data=st.data())
def test_scan_flags_each_point_as_the_per_point_loop(ham, data):
    # A coupling of 100 overflows the activity bounds inside the window:
    # such a point is not certified and never iterated. A block budget below
    # the DAG size iterates one column at a time, and the scan is the same.
    max_bonds = _max_bonds(data, ham)
    lo = data.draw(st.floats(1e-3, 0.2))
    hi = lo * data.draw(st.floats(1.5, 1e4))
    per_decade = data.draw(st.integers(1, 8))
    scan = beta_radius(ham, "fp", lo=lo, hi=hi, per_decade=per_decade, max_bonds=max_bonds)
    polys = enumerate_polymers(ham, max_bonds)
    adj = incompatibility_graph(polys)
    for beta, ok in scan.points:
        lam = fp_bounds(ham, polys, beta)
        finite = all(map(math.isfinite, lam))
        assert ok == (finite and fp_iterate_reference(adj, lam, max_iter=2000)["converged"])
    budget = data.draw(st.integers(1, 3 * _FPDag(adj).size))
    with mock.patch.object(convergence, "_FP_BLOCK_ELEMENTS", budget):
        blocked = beta_radius(ham, "fp", lo=lo, hi=hi, per_decade=per_decade, max_bonds=max_bonds)
    assert blocked == scan

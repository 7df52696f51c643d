"""Property tests of the compiled fixed-point evaluation against the
memoized recursion it replaced, on random incompatibility graphs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import numpy as np  # noqa: E402

from polymerion import fp_criterion, fp_phi  # noqa: E402

from helpers import fp_phi_reference, random_connected_adjacency  # noqa: E402


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

"""Property test of the cluster count by packed size keys against the
count by size tuples it replaced, on random connected polymer graphs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import numpy as np  # noqa: E402

from polymerion.polymers import Polymer  # noqa: E402
from polymerion.series import _count_clusters  # noqa: E402

from helpers import count_clusters_reference, random_connected_adjacency  # noqa: E402


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_cluster_count_equals_the_reference(data):
    n = data.draw(st.integers(1, 12))
    adj = random_connected_adjacency(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
    sizes = sorted(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    polymers = [Polymer(bonds=tuple(range(s)), support=frozenset()) for s in sizes]
    max_total = data.draw(st.integers(0, 10))
    pin = data.draw(st.none() | st.integers(0, 2**n - 1))
    want = count_clusters_reference(polymers, adj, max_total, pin)
    assert _count_clusters(polymers, adj, max_total, pin) == want

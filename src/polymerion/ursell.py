"""Ursell functions of incompatibility graphs.

For a graph G on n vertices, omega(G) is the signed sum over connected
spanning edge subsets, sum_{E' subset of E, (V, E') connected} (-1)^{|E'|},
with omega = 1 on a single vertex and omega = 0 when G is disconnected.
These are the combinatorial coefficients in front of polymer activity
products in every cluster series.

Three routes are implemented and cross-checked against each other:

- `ursell_direct`: literal sum over the 2^|E| edge subsets;
- `ursell_subset_dp`: a subset recursion derived from the partition
  identity 1[S independent] = sum over partitions of S into blocks of
  prod omega(block), giving O(3^n) work;
- `ursell_penrose`: (-1)^{n-1} times the number of spanning trees whose
  tolerated edge set is empty (same-layer edges, and next-layer edges
  {u, v} with u larger than v's tree parent, are tolerated).

`ursell` dispatches: closed forms for complete graphs and trees, the
subset recursion otherwise, with a cache keyed by the adjacency masks.

The bitmask graph primitives the other modules share live here too:
bit iteration, the overlap masks of a list of supports, and the split
of a vertex set into connected components, which `is_connected` uses.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .errors import NumericalError

__all__ = [
    "is_connected",
    "ursell",
    "ursell_direct",
    "ursell_subset_dp",
    "ursell_penrose",
    "expand_multiset",
]

DIRECT_EDGE_CAP = 22
DP_VERTEX_CAP = 16
PENROSE_VERTEX_CAP = 8


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _site_masks(supports) -> dict:
    """Per site, the bitmask of the supports that contain it."""
    at: dict = {}
    for i, support in enumerate(supports):
        for s in support:
            at[s] = at.get(s, 0) | (1 << i)
    return at


def _overlap_masks(supports) -> list[int]:
    """Bitmask adjacency of overlapping supports: bit j of mask[i] set when
    supports i and j share a site (i != j).

    One pass collects the supports at each site, a second ORs those masks
    over each support, so the work is O(sum of support sizes).
    """
    at = _site_masks(supports)
    masks = []
    for i, support in enumerate(supports):
        mask = 0
        for s in support:
            mask |= at[s]
        masks.append(mask & ~(1 << i))
    return masks


def _component(adj, mask: int) -> int:
    """The vertices of `mask` reachable from its lowest vertex within it."""
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v] & mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def _components(adj, mask: int) -> list[int]:
    """The connected components of the sub graph induced by `mask`, as
    bitmasks, in the order of their lowest vertex."""
    out = []
    while mask:
        part = _component(adj, mask)
        out.append(part)
        mask ^= part
    return out


def is_connected(adj, mask: int | None = None) -> bool:
    """Is the sub graph induced by `mask` (default: all vertices) connected?"""
    if mask is None:
        mask = (1 << len(adj)) - 1
    return mask != 0 and _component(adj, mask) == mask


def _edges(adj) -> list[tuple[int, int]]:
    out = []
    for i in range(len(adj)):
        for j in _bits(adj[i] >> (i + 1) << (i + 1)):
            out.append((i, j))
    return out


def ursell_direct(adj) -> int:
    """Sum over connected spanning edge subsets, by brute enumeration."""
    n = len(adj)
    if n == 1:
        return 1
    if not is_connected(adj):
        return 0
    edges = _edges(adj)
    if len(edges) > DIRECT_EDGE_CAP:
        raise NumericalError(f"direct Ursell sum over 2^{len(edges)} edge subsets refused")
    full = (1 << n) - 1
    total = 0
    for k in range(n - 1, len(edges) + 1):
        sign = -1 if k % 2 else 1
        for sub in itertools.combinations(edges, k):
            sadj = [0] * n
            for i, j in sub:
                sadj[i] |= 1 << j
                sadj[j] |= 1 << i
            if is_connected(sadj, full):
                total += sign
    return total


def ursell_subset_dp(adj) -> int:
    """Subset recursion: omega(S) = 1[S independent] - sum over proper
    subsets S' of S containing min(S) with S minus S' independent of
    omega(S')."""
    n = len(adj)
    if n > DP_VERTEX_CAP:
        raise NumericalError(f"Ursell subset recursion refused for n = {n}")
    full = (1 << n) - 1
    if not is_connected(adj, full):
        return 0

    def independent(mask: int) -> bool:
        for v in _bits(mask):
            if adj[v] & mask:
                return False
        return True

    memo: dict[int, int] = {}

    def omega(s: int) -> int:
        hit = memo.get(s)
        if hit is not None:
            return hit
        low = s & -s
        if s == low:
            memo[s] = 1
            return 1
        val = 1 if independent(s) else 0
        rest = s ^ low
        sub = rest
        while True:
            sub = (sub - 1) & rest
            sprime = low | sub
            if independent(s ^ sprime):
                val -= omega(sprime)
            if sub == 0:
                break
        memo[s] = val
        return val

    return omega(full)


def _prufer_trees(n: int):
    """All labeled trees on n vertices as edge lists, via Prüfer sequences."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        edges = []
        leaves = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            u = heapq.heappop(leaves)
            edges.append((min(u, v), max(u, v)))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((min(u, w), max(u, w)))
        yield edges


def ursell_penrose(adj) -> int:
    """(-1)^{n-1} times the number of spanning trees with no tolerated edge."""
    n = len(adj)
    if n > PENROSE_VERTEX_CAP:
        raise NumericalError(f"Penrose tree count refused for n = {n}")
    if n == 1:
        return 1
    full = (1 << n) - 1
    if not is_connected(adj, full):
        return 0
    graph_edges = _edges(adj)
    count = 0
    for edges in _prufer_trees(n):
        if any(not ((adj[i] >> j) & 1) for i, j in edges):
            continue
        nbr = [[] for _ in range(n)]
        for i, j in edges:
            nbr[i].append(j)
            nbr[j].append(i)
        depth = [-1] * n
        parent = [-1] * n
        depth[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in nbr[v]:
                    if depth[w] < 0:
                        depth[w] = depth[v] + 1
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        tree = {(min(i, j), max(i, j)) for i, j in edges}
        for i, j in graph_edges:
            if (i, j) in tree:
                continue
            du, dv = depth[i], depth[j]
            lo, hi = (i, j) if du < dv else (j, i)
            if du == dv or (abs(du - dv) == 1 and lo > parent[hi]):
                break
        else:
            count += 1
    return count if (n - 1) % 2 == 0 else -count


_CACHE: dict[tuple[int, ...], int] = {}


def ursell(adj) -> int:
    """Ursell function with closed-form shortcuts and a cache.

    `adj` is a sequence of bitmasks (bit j of adj[i] set when vertices i
    and j are incompatible).
    """
    key = tuple(adj)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    n = len(adj)
    full = (1 << n) - 1
    if n == 1:
        val = 1
    elif not is_connected(adj, full):
        val = 0
    else:
        nedges = sum(bin(m).count("1") for m in adj) // 2
        sign = 1 if (n - 1) % 2 == 0 else -1
        if all(adj[i] == full ^ (1 << i) for i in range(n)):
            val = sign * math.factorial(n - 1)
        elif nedges == n - 1:
            val = sign
        else:
            val = ursell_subset_dp(adj)
    _CACHE[key] = val
    return val


def expand_multiset(distinct_adj, multiplicity) -> tuple[int, ...]:
    """Blow up a distinct-vertex adjacency into a multiset adjacency.

    Vertex i is replaced by multiplicity[i] copies; copies of the same
    vertex are pairwise incompatible (a polymer always overlaps itself),
    and copies of different vertices inherit the distinct adjacency.
    """
    offsets = []
    pos = 0
    for m in multiplicity:
        offsets.append(pos)
        pos += m
    total = pos
    out = [0] * total
    for i, mi in enumerate(multiplicity):
        for a in range(mi):
            va = offsets[i] + a
            for b in range(mi):
                if a != b:
                    out[va] |= 1 << (offsets[i] + b)
            for j in range(len(multiplicity)):
                if j != i and ((distinct_adj[i] >> j) & 1):
                    for b in range(multiplicity[j]):
                        out[va] |= 1 << (offsets[j] + b)
    return tuple(out)

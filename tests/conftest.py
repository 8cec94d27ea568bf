"""Shared oracles and instance builders for the test suite.

The oracles here are deliberately independent of the library's algorithms:
Mad and k-orientation witnesses by subset enumeration, properness by
trying all 2^|E| orientations, matchings by trying each edge in and out.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from orientkit.generators import complete_bipartite, pdw, q3
from orientkit.graphs import Graph


def subset_density(g, vertices):
    """2|E(H)|/|V(H)| for H = G[vertices], by counting the edges inside."""
    vs = set(vertices)
    inside = sum(1 for u, v in g.edges if u in vs and v in vs)
    return Fraction(2 * inside, len(vs))


def brute_force_mad(g):
    """Max of 2|E(H)|/|V(H)| over all nonempty vertex subsets."""
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            best = max(best, subset_density(g, subset))
    return best


def brute_force_densest(g):
    """The largest vertex subset H with 2|E(H)|/|V(H)| = brute_force_mad(g),
    as a sorted tuple; it is the union of all densest subsets."""
    best, largest = Fraction(0), ()
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            density = subset_density(g, subset)
            if density >= best:  # sizes ascend, so ties keep the largest
                best, largest = density, subset
    return largest


def brute_force_spread_witness(g, units, cap):
    """The smallest vertex subset H maximising units*|E(G[H])| - cap*|H|, as
    a sorted tuple; () when no subset beats the empty one, i.e. every edge's
    units can be split between its ends with at most cap on a vertex
    (Hakimi).  At units = 1 and cap = k this is a k-orientation's witness."""
    best, smallest = 0, ()
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            vs = set(subset)
            inside = sum(1 for u, v in g.edges if u in vs and v in vs)
            if units * inside - cap * size > best:  # sizes ascend, so ties keep the smallest
                best, smallest = units * inside - cap * size, subset
    return smallest


def brute_force_exists_proper_k(g, k):
    """Scan all 2^|E| orientations for a proper one with max indegree <= k."""
    m = g.m
    for mask in range(1 << m):
        indeg = [0] * g.n
        for i, (u, v) in enumerate(g.edges):
            indeg[v if mask >> i & 1 else u] += 1
        if max(indeg, default=0) <= k and all(
            indeg[u] != indeg[v] for u, v in g.edges
        ):
            return True
    return False


def brute_force_max_matching(edges):
    """Size of a largest set of pairwise disjoint edges: each edge in turn
    is left out or, when both its ends are free, taken."""
    def best(i, used):
        if i == len(edges):
            return 0
        u, v = edges[i]
        without = best(i + 1, used)
        if u in used or v in used:
            return without
        return max(without, 1 + best(i + 1, used | {u, v}))

    return best(0, frozenset())


def unicyclic(n):
    """The path n-1, ..., 1, 0 plus the chord (n-1, n-4): one 4-cycle at the
    far end of a long tail, so augmenting paths are about n nodes long."""
    edges = tuple((i + 1, i) for i in range(n - 1)) + ((n - 1, n - 4),)
    return Graph(n=n, edges=edges)


def relabel(rng, g):
    """g with shuffled vertex ids, edge order and endpoint order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(n=g.n, edges=tuple(edges), planar_asserted=g.planar_asserted)


def grid(rows, cols):
    """The rows x cols grid, vertex r*cols + c, row edges before column edges."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(n=rows * cols, edges=tuple(edges))


def random_connected_graph(rng, n):
    """Random connected simple graph: spanning tree plus random extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randrange(0, n)
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return Graph(n=n, edges=tuple(sorted(edges)))


def random_bipartite_graph(rng, nx, ny, degree_x):
    """Bipartite graph where each X vertex picks degree_x distinct neighbors.

    X vertices are 0..nx-1, Y vertices nx..nx+ny-1.
    """
    edges = []
    for x in range(nx):
        for y in rng.sample(range(nx, nx + ny), degree_x):
            edges.append((x, y))
    return Graph(n=nx + ny, edges=tuple(edges))


def component_count(g):
    """The number of connected components, by union-find over g.edges."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[root(u)] = root(v)
    return sum(parent[v] == v for v in range(g.n))


def spy(monkeypatch, *bindings):
    """The list of the argument tuples of every call to the functions bound
    at the (module, name) pairs in bindings, each of which still does its
    work."""
    calls = []
    for module, name in bindings:
        real = getattr(module, name)

        def counted(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _two_colouring(g):
    """side[v] in {0, 1}, 0 on the smallest vertex of each component."""
    side = [None] * g.n
    for root in range(g.n):
        if side[root] is None:
            side[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for v, _ in g.adjacency[u]:
                    if side[v] is None:
                        side[v] = 1 - side[u]
                        stack.append(v)
    return side


def flagged_graph_with_no_2_orientation():
    """K_{7,7}, four cubes and three K_{3,3}, flagged planar and made
    connected by 2-switches: connected, bipartite, min degree 3 and
    |E| = 2n-4 = 124 on 64 vertices, like a quadrangulation.  But K_{7,7}
    keeps 48 > 2 * 14 of its edges, so no 2-orientation exists and the flag
    is false.

    Each switch takes the last edge (x, y) of one part and the first edge
    (x2, y2) of the next, x and x2 on side 0, and puts in (x, y2) and
    (x2, y): every degree and both colour classes stay.  Each part is
    3-edge-connected and loses at most two edges, so it stays connected.
    """
    parts = [complete_bipartite(7, 7)] + [q3()] * 4 + [complete_bipartite(3, 3)] * 3
    own, offset = [], 0
    for g in parts:
        side = _two_colouring(g)
        own.append([(u + offset, v + offset) if side[u] == 0 else (v + offset, u + offset)
                    for u, v in g.edges])
        offset += g.n
    cross = []
    for a, b in zip(own, own[1:]):
        (x, y), (x2, y2) = a.pop(), b.pop(0)
        cross += [(x, y2), (x2, y)]
    edges = tuple(e for part in own for e in part) + tuple(cross)
    return Graph(n=offset, edges=edges, planar_asserted=True)


def switching_graphs():
    """Bipartite graphs with min degree >= 3, with and without a
    2-orientation: relabelled pdw(4..40), q3, K(3,3), K(4,4), the flagged
    graph with no 2-orientation and 24 relabelled random bipartite graphs."""
    rng = random.Random(30)
    graphs = [relabel(rng, pdw(n)) for n in range(4, 41)]
    graphs += [q3(), complete_bipartite(3, 3), complete_bipartite(4, 4),
               flagged_graph_with_no_2_orientation()]
    drawn = 0
    while drawn < 24:
        nx = rng.randint(4, 9)
        g = random_bipartite_graph(rng, nx, nx, rng.randint(4, min(nx, 6)))
        if min(g.degrees()) >= 3:
            graphs.append(relabel(rng, g))
            drawn += 1
    return graphs

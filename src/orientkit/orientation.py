"""Orientations: k-orientations by path reversal, the switching construction
for bipartite graphs, and the independent verifier.

``k_orientation`` is unit-capacity Dinic on G's own orientation, with no
auxiliary network.  It starts from the listed orientation (edge (u, v) into
v) and works in phases.  Each phase runs a BFS backwards along arcs, from
every vertex with indegree above k to the tails of the arcs into it, and
records levels.  From each such source a DFS with current-arc pointers then
follows level-increasing arcs to the first vertex with indegree below k
and reverses that path: only the two end indegrees change.

Termination: a phase whose BFS reaches a vertex below k reverses at least
one path, so the total excess over k strictly drops.

Witness: when the BFS reaches no vertex below k, the reached set H holds
the tail of every arc into H, no member is below k and the sources are
above k, so |E(G[H])| = sum over H of indegree > k|H|.  Any set S has
|E(S)| - k|S| <= sum over S of (indegree - k) <= the total excess over k,
which H attains; equality needs S to hold every source and the tail of
every arc into S, so S contains H.  H is thus the smallest maximiser of
|E(H)| - k|H|, whatever order the paths were reversed in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParamsError,
    EdgeBoundViolatedError,
    MinDegreeTooSmallError,
    PlanarityNotAssertedError,
    PreconditionDegreeError,
    PreconditionMadError,
    SizeMismatchError,
)
from .graphs import Graph, X, bipartition, min_degree


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction over a graph.

    direction[i] is True when edge i = (u, v) is oriented as the arc
    u -> v (into the second-listed endpoint).
    """

    graph: Graph
    direction: tuple

    def indegrees(self):
        indeg = [0] * self.graph.n
        for i, (u, v) in enumerate(self.graph.edges):
            indeg[v if self.direction[i] else u] += 1
        return indeg

    def arcs(self):
        """Arcs (tail, head) in edge-index order."""
        return [
            (u, v) if self.direction[i] else (v, u)
            for i, (u, v) in enumerate(self.graph.edges)
        ]


@dataclass(frozen=True)
class Infeasible:
    """No k-orientation: witness H satisfies |E(G[H])| > k|H|."""

    k: int
    witness: tuple


@dataclass(frozen=True)
class OrientationReport:
    indegrees: tuple
    max_indegree: int
    proper: bool
    violations: tuple  # edge indices whose endpoints tie on indegree


def k_orientation(g, k):
    """An orientation with all indegrees <= k, or Infeasible with witness."""
    if k < 0:
        raise BadParamsError(f"k must be >= 0, got {k}")
    n, adjacency = g.n, g.adjacency
    head = [v for _, v in g.edges]  # edge i = (u, v) starts as the arc u -> v
    flip = [u ^ v for u, v in g.edges]  # head[i] ^ flip[i] is edge i's tail
    indeg = [0] * n
    for v in head:
        indeg[v] += 1
    while True:
        sources = [v for v in range(n) if indeg[v] > k]
        if not sources:
            return Orientation(
                graph=g, direction=tuple(h == v for h, (_, v) in zip(head, g.edges))
            )
        # BFS backwards along arcs: from a head to the tails of the arcs into it
        level = [-1] * n
        for s in sources:
            level[s] = 0
        reached, slack = list(sources), False
        for x in reached:
            up = level[x] + 1
            for w, i in adjacency[x]:
                if head[i] == x and level[w] < 0:
                    level[w] = up
                    reached.append(w)
                    slack = slack or indeg[w] < k
        if not slack:
            return Infeasible(k=k, witness=tuple(sorted(reached)))
        # From each source, reverse level-increasing paths that end at the
        # first slack vertex they meet; a dead end leaves the level graph.
        nxt = [0] * n  # current-arc pointer per vertex
        for s in sources:
            path, x = [], s  # path: the edge ids walked from s to x
            while indeg[s] > k:
                arcs, j, up = adjacency[x], nxt[x], level[x] + 1
                while j < len(arcs) and (head[arcs[j][1]] != x or level[arcs[j][0]] != up):
                    j += 1
                nxt[x] = j
                if j == len(arcs):
                    if not path:
                        break
                    level[x] = -1
                    x = head[path.pop()]
                    continue
                x, i = arcs[j]
                path.append(i)
                if indeg[x] < k:
                    for i in path:
                        head[i] ^= flip[i]
                    indeg[s] -= 1
                    indeg[x] += 1
                    path, x = [], s


def proper_bipartite_orientation(g, part, x_class, k):
    """Switching construction: proper (k+1)-orientation of a bipartite graph.

    Requires deg(x) >= k+1 on the chosen class and a feasible k-orientation
    (Mad <= 2k).  Starting from a k-orientation, each x in X flips its
    lowest-index outgoing arcs until its indegree is exactly k+1; Y
    indegrees only drop, so the result is proper with max indegree k+1.
    """
    if k < 1:
        raise BadParamsError(f"k must be >= 1, got {k}")
    x_vertices = part.vertices_in(x_class)
    for x in x_vertices:
        if g.degree(x) <= k:
            raise PreconditionDegreeError(x, g.degree(x), k)
    sigma = k_orientation(g, k)
    if isinstance(sigma, Infeasible):
        raise PreconditionMadError(k, sigma.witness)

    direction = list(sigma.direction)
    indeg = sigma.indegrees()
    for x in x_vertices:
        need = (k + 1) - indeg[x]
        if need <= 0:
            continue
        # adjacency lists edges by index, so the lowest-index arcs flip first
        for w, i in g.adjacency[x]:
            u, v = g.edges[i]
            if (v if direction[i] else u) == w:  # the arc x -> w
                direction[i] = not direction[i]
                indeg[x] += 1
                indeg[w] -= 1
                need -= 1
                if need == 0:
                    break
        assert need == 0  # guaranteed by deg(x) >= k+1
    return Orientation(graph=g, direction=tuple(direction))


def proper_three_orientation(g):
    """Proper 3-orientation of a bipartite planar graph with min degree >= 3.

    Uses the class of vertex 0 as X; either class works since every degree
    is >= 3 = k+1 for k = 2.
    """
    part = bipartition(g)
    if min_degree(g) < 3:
        raise MinDegreeTooSmallError(f"need min degree >= 3, got {min_degree(g)}")
    if not g.planar_asserted:
        raise PlanarityNotAssertedError("planarity not asserted for this graph")
    if g.n >= 4 and g.m > 2 * g.n - 4:
        raise EdgeBoundViolatedError(
            f"|E| = {g.m} > 2n-4 = {2 * g.n - 4}; planarity assertion is false"
        )
    return proper_bipartite_orientation(g, part, X, 2)


def verify_orientation(g, sigma):
    """Independent recount of indegrees and properness; the trusted checker."""
    if sigma.graph.n != g.n or sigma.graph.edges != g.edges:
        raise SizeMismatchError("orientation does not belong to this graph")
    if len(sigma.direction) != g.m:
        raise SizeMismatchError(
            f"orientation has {len(sigma.direction)} directions for {g.m} edges"
        )
    indeg = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        indeg[v if sigma.direction[i] else u] += 1
    violations = tuple(
        i for i, (u, v) in enumerate(g.edges) if indeg[u] == indeg[v]
    )
    return OrientationReport(
        indegrees=tuple(indeg),
        max_indegree=max(indeg) if indeg else 0,
        proper=not violations,
        violations=violations,
    )

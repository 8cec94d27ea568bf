"""Orientations: flow-based k-orientations, the switching construction for
bipartite graphs, and the independent verifier.

One network answers every orientation question here and in ``density``:
source -> one node per edge (capacity ``units``) -> both endpoints
(capacity ``units``) -> sink (capacity ``cap`` per vertex).  Every unit fits
iff no vertex set H has units*|E(G[H])| > cap*|H|, and when one does not
fit, the source side of the min cut is such an H.  A k-orientation is the
case units = 1, cap = k.
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
from .flow import Dinic
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


def _spread(g, units, cap):
    """Send units from each edge to its endpoints, at most cap into a vertex.

    Returns (loads, None) when every unit fits, loads[i] being what edge i
    puts on its second endpoint; otherwise (None, H) with H the vertices on
    the source side of the min cut, so that units*|E(G[H])| > cap*|H|.
    """
    m, n = g.m, g.n
    source, sink = 0, 1 + m + n
    net = Dinic(2 + m + n)
    to_head = []  # arc id of edge-node -> second endpoint, per edge
    for i, (u, v) in enumerate(g.edges):
        net.add_edge(source, 1 + i, units)
        net.add_edge(1 + i, 1 + m + u, units)
        to_head.append(net.add_edge(1 + i, 1 + m + v, units))
    for v in range(n):
        net.add_edge(1 + m + v, sink, cap)
    if net.max_flow(source, sink) < units * m:
        cut = net.min_cut_source_side(source)
        return None, tuple(v for v in range(n) if (1 + m + v) in cut)
    return [net.flow_on(arc) for arc in to_head], None


def k_orientation(g, k):
    """An orientation with all indegrees <= k, or Infeasible with witness."""
    if k < 0:
        raise BadParamsError(f"k must be >= 0, got {k}")
    loads, witness = _spread(g, 1, k)
    if loads is None:
        return Infeasible(k=k, witness=witness)
    return Orientation(graph=g, direction=tuple(load > 0 for load in loads))


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

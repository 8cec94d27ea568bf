"""Orientations: k-orientations by path reversal, the switching construction
for bipartite graphs, and the independent verifier.

``_spread(g, units, cap)`` is the one engine for Hakimi's question "has
any subgraph H more than cap/units edges per vertex?", asked of G itself
with no auxiliary network (Goldberg's density test).  Each edge i = (u, v)
splits ``units`` between its endpoints; a vertex may hold at most ``cap``.
It starts with ceil(units/2) on v and floor(units/2) on u, so with
units = 1 the start is the listed orientation (edge (u, v) into v), and
``k_orientation`` is ``_spread(g, 1, k)``; the Mad test at p/q is
``_spread(g, 2q, p)``.

The engine is Dinic's algorithm in phases.  Each phase runs a BFS from
every vertex holding more than cap, stepping from x to the other end w of
each edge that has units on x, and records levels.  From each such source
a DFS with current-arc pointers then follows level-increasing steps to the
first vertex below cap and moves delta units along that path: the least of
the source's excess, the end's slack and each path edge's units on its
near end.  Only the two end totals change.

Termination: delta >= 1 is an integer and a phase whose BFS reaches a
vertex below cap moves units along at least one path, so the total excess
over cap strictly drops.

Witness: when the BFS reaches no vertex below cap, every edge with units
on a member of the reached set H has both ends in H, no member is below
cap and the sources are above it, so units*|E(H)| = sum over H of the
units held > cap*|H|.  Any set S has units*|E(S)| - cap*|S| <= sum over S
of (held - cap) <= the total excess over cap, which H attains; equality
needs S to hold every source and the other end of every edge with units on
S, so S contains H.  H is thus the smallest maximiser of
units*|E(H)| - cap*|H|, whatever order the paths were taken in.

``_least_orientation`` finds the pseudoarboricity, the least k with a
k-orientation, by steps over the integers.  A k-orientation exists iff no
subgraph has |E(H)| > k|H| (Hakimi), so the least such k is ceil(Mad/2),
where Mad is the largest 2|E(H)|/|H| over subgraphs H.  Start at
k = ceil(m/n) (0 on an edgeless graph); while ``k_orientation`` returns a
witness H, set k = ceil(|E(H)|/|H|).  Since |E(H)| > k|H| every step
strictly raises k, and since m/n and every |E(H)|/|H| are at most Mad/2, k
never passes ceil(Mad/2), where the loop must stop.  It also returns the
k-orientation that stopped it, so a caller that needs both (the exact
scan's switching bound) runs the loop once.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParamsError,
    MinDegreeTooSmallError,
    PreconditionDegreeError,
    PreconditionMadError,
    SizeMismatchError,
)
from .graphs import Graph, X, Y, _Record, _setfield, bipartition, min_degree


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
        for (u, v), forward in zip(self.graph.edges, self.direction):
            indeg[v if forward else u] += 1
        return indeg

    def arcs(self):
        """Arcs (tail, head) in edge-index order; a forward arc is the edge's
        own tuple."""
        return [
            e if forward else (e[1], e[0])
            for e, forward in zip(self.graph.edges, self.direction)
        ]


class Infeasible(_Record):
    """No k-orientation: witness H satisfies |E(G[H])| > k|H|."""

    __slots__ = __match_args__ = ("k", "witness")

    def __init__(self, k, witness):
        _setfield(self, "k", k)
        _setfield(self, "witness", witness)


class OrientationReport(_Record):
    __slots__ = __match_args__ = ("indegrees", "max_indegree", "proper", "violations")

    def __init__(self, indegrees, max_indegree, proper, violations):
        _setfield(self, "indegrees", indegrees)
        _setfield(self, "max_indegree", max_indegree)
        _setfield(self, "proper", proper)
        _setfield(self, "violations", violations)  # edge indices whose ends tie on indegree


def _spread(g, units, cap):
    """Split each edge's units between its endpoints, at most cap per vertex.

    load[i], the number of units edge i = (u, v) puts on v = second[i], is
    the only per-edge state: the BFS and the DFS step from x along edge i iff
    it has units on x, ``load[i] if second[i] == x else load[i] < units``.
    Returns (load, None), or (None, H) with H the sorted BFS-reached set, for
    which units*|E(G[H])| > cap*|H|.
    """
    n, adjacency = g.n, g.adjacency
    second = [v for _, v in g.edges]
    flip = [u ^ v for u, v in g.edges]  # x ^ flip[i] is edge i's other end
    lo, hi = units // 2, units - units // 2
    load = [hi] * g.m
    held = [0] * n
    for u, v in g.edges:
        held[u] += lo
        held[v] += hi
    while True:
        sources = [x for x in range(n) if held[x] > cap]
        if not sources:
            return load, None
        # BFS from x to the other end w of each edge with units on x
        level = [-1] * n
        for s in sources:
            level[s] = 0
        reached, slack = list(sources), False
        for x in reached:
            up = level[x] + 1
            for w, i in adjacency[x]:
                if level[w] < 0 and (load[i] if second[i] == x else load[i] < units):
                    level[w] = up
                    reached.append(w)
                    slack = slack or held[w] < cap
        if not slack:
            return None, tuple(sorted(reached))
        # From each source, move units along level-increasing paths that end
        # at the first slack vertex they meet; a dead end leaves the level graph.
        nxt = [0] * n  # current-arc pointer per vertex
        for s in sources:
            path, x = [], s  # path: the edge ids walked from s to x
            while held[s] > cap:
                arcs, j, up = adjacency[x], nxt[x], level[x] + 1
                while j < len(arcs):
                    w, i = arcs[j]
                    if level[w] == up and (load[i] if second[i] == x else load[i] < units):
                        break
                    j += 1
                nxt[x] = j
                if j == len(arcs):
                    if not path:
                        break
                    level[x] = -1
                    x ^= flip[path.pop()]
                    continue
                x, i = arcs[j]
                path.append(i)
                if held[x] < cap:
                    delta, y = held[s] - cap, s
                    if delta > cap - held[x]:
                        delta = cap - held[x]
                    if delta > 1:  # every path edge has >= 1 unit on its near end
                        for i in path:
                            near = load[i] if y == second[i] else units - load[i]
                            if delta > near:
                                delta = near
                            y ^= flip[i]
                        y = s
                    for i in path:
                        load[i] -= delta if y == second[i] else -delta
                        y ^= flip[i]
                    held[s] -= delta
                    held[x] += delta
                    path, x = [], s


def k_orientation(g, k):
    """An orientation with all indegrees <= k, or Infeasible with witness."""
    if k < 0:
        raise BadParamsError(f"k must be >= 0, got {k}")
    load, witness = _spread(g, 1, k)
    if witness is not None:
        return Infeasible(k=k, witness=witness)
    return Orientation(graph=g, direction=tuple(map(bool, load)))


def _least_orientation(g):
    """(k, sigma): the pseudoarboricity k and the k-orientation sigma that
    ``k_orientation(g, k)`` returned when the loop stopped."""
    k = -(-g.m // g.n) if g.m else 0
    while isinstance(sigma := k_orientation(g, k), Infeasible):
        h = set(sigma.witness)
        k = -(-sum(u in h and v in h for u, v in g.edges) // len(h))
    return k, sigma


def proper_bipartite_orientation(g, part, x_class, k):
    """Switching construction: proper (k+1)-orientation of a bipartite graph.

    Requires deg(x) >= k+1 on the chosen class and a feasible k-orientation
    (Mad <= 2k).  Starting from a k-orientation, each x in X flips its
    lowest-index outgoing arcs until its indegree is exactly k+1; Y
    indegrees only drop, so the result is proper with max indegree k+1.

    x_class must be X or Y, and part must give each vertex of g a side
    that is X or Y, and different sides to the two ends of each edge, or
    BadParamsError names the first vertex or edge that fails.  Then the
    degree gate raises PreconditionDegreeError for the first x of degree
    <= k, before the engine runs, and ``_switch`` builds the result from
    ``k_orientation(g, k)``.
    """
    if k < 1:
        raise BadParamsError(f"k must be >= 1, got {k}")
    if x_class not in (X, Y):
        raise BadParamsError(f"x_class must be {X!r} or {Y!r}, got {x_class!r}")
    if len(part.side) != g.n:
        raise BadParamsError(f"bipartition has {len(part.side)} sides for {g.n} vertices")
    side = part.side
    for v, s in enumerate(side):
        if s not in (X, Y):
            raise BadParamsError(f"vertex {v} has class {s!r}, not {X!r} or {Y!r}")
    for i, (u, v) in enumerate(g.edges):
        if side[u] == side[v]:
            raise BadParamsError(f"edge {i} = ({u}, {v}) has both ends in class {side[u]}")
    x_vertices = part.vertices_in(x_class)
    for x in x_vertices:
        if g.degree(x) <= k:
            raise PreconditionDegreeError(x, g.degree(x), k)
    return _switch(g, x_vertices, k, k_orientation(g, k))


def _switch(g, x_vertices, k, sigma):
    """The switching construction with X = x_vertices, started from sigma,
    which must be what ``k_orientation(g, k)`` returns: a k-orientation or
    ``Infeasible``.  The caller passes the one it already holds.

    The caller vouches that no edge joins two vertices of x_vertices and
    that each has degree >= k+1; neither is checked here.  Raises
    PreconditionMadError when sigma is Infeasible.
    """
    if isinstance(sigma, Infeasible):
        raise PreconditionMadError(k, sigma.witness)

    edges, adjacency = g.edges, g.adjacency
    direction = list(sigma.direction)
    indeg = sigma.indegrees()
    for x in x_vertices:
        # need >= 1: the k-orientation gives indeg[x] <= k, and no flip for
        # another vertex of X touched x, since X is independent
        need = (k + 1) - indeg[x]
        # adjacency lists edges by index, so the lowest-index arcs flip first
        for w, i in adjacency[x]:
            u, v = edges[i]
            if (v if direction[i] else u) == w:  # the arc x -> w
                direction[i] = not direction[i]
                need -= 1
                if need == 0:
                    break
        assert need == 0  # guaranteed by deg(x) >= k+1
    return Orientation(graph=g, direction=tuple(direction))


def proper_three_orientation(g):
    """Proper 3-orientation of a bipartite graph with min degree >= 3 and a
    2-orientation (Mad <= 4).

    These are the only facts the switching proof uses.  Planarity is one way
    to get the 2-orientation (in a bipartite planar graph every subgraph H
    has |E(H)| <= 2|H|), but it is never trusted: the planar flag is not
    read, and the engine either finds the 2-orientation or
    ``PreconditionMadError`` carries a subset H with |E(H)| > 2|H|.  Uses
    ``bipartition``'s class X, which holds the smallest vertex of every
    connected component; either class works since every degree is
    >= 3 = k+1 for k = 2.  The classes come from ``bipartition``'s one BFS,
    so they go to ``_switch`` without a second check, and so do the
    degrees, which the min-degree gate has checked.
    """
    part = bipartition(g)
    if (low := min_degree(g)) < 3:
        raise MinDegreeTooSmallError(low)
    return _switch(g, part.vertices_in(X), 2, k_orientation(g, 2))


def verify_orientation(g, sigma):
    """Independent recount of indegrees and properness; the trusted checker."""
    if sigma.graph.n != g.n or sigma.graph.edges != g.edges:
        raise SizeMismatchError("orientation does not belong to this graph")
    if len(sigma.direction) != g.m:
        raise SizeMismatchError(
            f"orientation has {len(sigma.direction)} directions for {g.m} edges"
        )
    indeg = [0] * g.n
    for (u, v), forward in zip(g.edges, sigma.direction):
        indeg[v if forward else u] += 1
    violations = tuple(
        i for i, (u, v) in enumerate(g.edges) if indeg[u] == indeg[v]
    )
    return OrientationReport(
        indegrees=tuple(indeg),
        max_indegree=max(indeg) if indeg else 0,
        proper=not violations,
        violations=violations,
    )

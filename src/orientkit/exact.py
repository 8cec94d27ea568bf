"""Exact proper-orientation-number search at desk scale, and the
quadrangulation dichotomy decision (value 3, except 2 for the 3-cube).

The search is complete backtracking over edge directions in a fixed order
(descending endpoint-degree sum, ties by edge index).  Pruning: a vertex's
indegree may never exceed k, and two adjacent fully decided vertices may
not tie.  A vertex is fully decided once the search has placed its last
edge in the order.  The first witness in this order is deterministic.

Before it searches, a counting argument may refute k outright.  In any
orientation the indegrees sum to m, and in a proper k-orientation
indeg(w) <= cap(w) = min(k, deg w).  On an edge uv with cap(u) = cap(v) = c
the two indegrees differ, so indeg(u) + indeg(v) <= 2c - 1.  Hence for any
matching M of such equal-cap edges, m <= sum(cap) - |M|; when that fails no
proper k-orientation exists.  M is grown from empty by augmenting paths
until it refutes k or no path is found (the search does not run when even
n/2 edges could not refute).  It has no blossom step: M is a maximum
matching on bipartite inputs and a valid one on any input, so every
refutation is sound.  On pdw(m) at k = 2, sum(cap) = 4m + 4 is |E| + 4, so
any |M| >= 5 refutes it; for m >= 8 every maximal matching is that large,
in any labelling.  The check only discards inputs with no solution, so
witnesses are unchanged.
"""

from __future__ import annotations

from .errors import BadParamsError, ExceedsCapError, PreconditionFailedError
from .graphs import _bfs_forest, _Record, _setfield, min_degree
from .orientation import Orientation, _least_orientation, _switch, proper_three_orientation


class ExactResult(_Record):
    __slots__ = __match_args__ = ("value", "witness")

    def __init__(self, value, witness):
        _setfield(self, "value", value)  # the proper orientation number
        _setfield(self, "witness", witness)  # an Orientation


def _equal_cap_matching(g, cap, enough):
    """Disjoint edges uv with cap[u] == cap[v], as pairs (u, v) with u < v.

    The matching starts empty.  From each free vertex in id order, a
    depth-first search on an explicit stack looks for an augmenting path and
    flips it (Kuhn).  It stops as soon as the matching holds ``enough``
    pairs.

    The search has no blossom step, so an odd cycle can hide a path from
    it; but every path it flips has distinct vertices, so the result is
    always a matching.  On a bipartite graph a search that runs out leaves
    it maximum (Kuhn; Berge's theorem).  There a failed search's tree is
    Hungarian: the matched edges at its vertices stay inside it and every
    equal-cap neighbour of an outer vertex is an inner one, so no
    augmenting path meets it, now or after later flips.  Its vertices
    therefore stay marked until the next flip, and the searches between two
    flips read each edge at most twice.
    """
    adjacency = g.adjacency
    mate = [-1] * g.n
    seen = [-1] * g.n  # seen[w] == size: w was reached since the last flip
    size = 0
    for root in range(g.n):
        if size >= enough:
            break
        if mate[root] >= 0:
            continue
        c = cap[root]
        seen[root] = size
        # the outer vertices of the path from root, each with its unread
        # neighbours; every one but root is the mate of the vertex that led
        # to it
        stack = [(root, iter(adjacency[root]))]
        while stack:
            for y, _ in stack[-1][1]:
                if cap[y] != c or seen[y] == size:
                    continue
                seen[y] = size
                z = mate[y]
                if z < 0:  # flip the path root .. y
                    for x, _ in reversed(stack):
                        mate[x], mate[y], y = y, x, mate[x]
                    stack = []
                    size += 1
                else:
                    seen[z] = size
                    stack.append((z, iter(adjacency[z])))
                break
            else:
                stack.pop()
    return [(u, v) for u, v in enumerate(mate) if u < v]


def exists_proper_k(g, k):
    """First proper k-orientation in the deterministic search order, or None."""
    if k < 0:
        return None
    m = g.m
    deg = g.degrees()

    # the counting refutation of the module docstring; no matching has more
    # than n/2 edges, so with spare >= n/2 there is nothing to look for
    cap = [min(k, d) for d in deg]
    spare = sum(cap) - m
    if spare < g.n // 2 and len(_equal_cap_matching(g, cap, spare + 1)) > spare:
        return None

    # sorted() is stable, so ties keep edge-index order
    weight = [-(deg[u] + deg[v]) for u, v in g.edges]
    order = sorted(range(m), key=weight.__getitem__)
    ends = [g.edges[i] for i in order]

    # last[w]: the position of w's last edge, the one that fully decides w
    last = [0] * g.n
    for pos, (u, v) in enumerate(ends):
        last[u] = last[v] = pos
    indeg = [0] * g.n

    def conflicts(w, pos):
        # w was just fully decided by the edge at pos; ties with decided
        # neighbors are final.  Only the new arc's head gained indegree, and
        # it is checked against k before this runs.
        for z, _ in g.adjacency[w]:
            if last[z] <= pos and indeg[z] == indeg[w]:
                return True
        return False

    # a loop over positions in the order, not recursion, so a long graph
    # cannot exhaust the stack; bits[pos] is 0 while the edge there points
    # at its second endpoint, 1 while it points at its first
    bits = [0] * m
    pos, bit = 0, 0
    while pos < m:
        u, v = ends[pos]
        head = u if bit else v
        indeg[head] += 1
        if (indeg[head] <= k
                and not (last[u] == pos and conflicts(u, pos))
                and not (last[v] == pos and conflicts(v, pos))):
            bits[pos] = bit
            pos, bit = pos + 1, 0
            continue
        indeg[head] -= 1
        while bit:  # both bits failed: back up to a position still on its first bit
            pos -= 1
            if pos < 0:
                return None
            u, v = ends[pos]
            bit = bits[pos]
            indeg[u if bit else v] -= 1
        bit = 1
    direction = [False] * m
    for p, i in enumerate(order):
        direction[i] = not bits[p]
    return Orientation(graph=g, direction=tuple(direction))


def proper_orientation_number(g, k_max):
    """Least k <= k_max with a proper k-orientation, with its witness.

    Scans upward from the pseudoarboricity, a valid lower bound since any
    orientation of G has max indegree at least that (0 for an edgeless G).
    k_max < 0 is a BadParamsError.

    The switching bound settles k = 3 without search: when the scan reaches
    3 from a pseudoarboricity <= 2 (so G has a 2-orientation and every
    smaller k is refuted) and G is bipartite with min degree >= 3, the
    paper's theorem gives a proper 3-orientation.  The witness is the one
    ``proper_three_orientation(g)`` builds, not the first one in search
    order, and it is built from what the scan already holds: the bound's
    one BFS gives the classes, and since min degree >= 3 gives m >= 3n/2,
    the pseudoarboricity loop started at ceil(m/n) = 2 and stopped there,
    so its orientation is ``k_orientation(g, 2)``.
    """
    if k_max < 0:
        raise BadParamsError(f"k_max must be >= 0, got {k_max}")
    lower, sigma = _least_orientation(g)
    for k in range(lower, k_max + 1):
        # bipartite by bipartition's rule: no edge joins two equal BFS depths,
        # and class X is the even depths
        if k == 3 and lower <= 2 and min_degree(g) >= 3 and (bfs := _bfs_forest(g))[3] is None:
            x_class = [v for v, d in enumerate(bfs[2]) if not d & 1]
            return ExactResult(value=3, witness=_switch(g, x_class, 2, sigma))
        witness = exists_proper_k(g, k)
        if witness is not None:
            return ExactResult(value=k, witness=witness)
    raise ExceedsCapError(f"no proper k-orientation for k <= {k_max}")


def is_q3(g):
    """Isomorphism to the 3-cube.

    A 3-regular bipartite graph on 8 vertices has 12 edges, so each class
    has 12/3 = 4 vertices: it is K_{4,4} minus a perfect matching, and that
    is the cube.  Bipartite is ``bipartition``'s rule: no edge joins two
    equal BFS depths.
    """
    return g.n == 8 and g.m == 12 and g.degrees() == [3] * 8 and _bfs_forest(g)[3] is None


def quadrangulation_number(g):
    """Proper orientation number of a bipartite graph with min degree >= 3,
    |E| = 2n-4 and a 2-orientation: 2 when G has a proper 2-orientation, 3
    otherwise.  Every quadrangulation with min degree >= 3 is such a graph,
    but the planar flag is never read, and G need not be connected: no step
    below uses connectivity.

    Upper side: past the edge count, ``proper_three_orientation`` is the one
    gate.  It checks bipartite, min degree >= 3 and the 2-orientation, and
    the proper 3-orientation it builds witnesses value <= 3.

    Lower side: G has a proper 2-orientation exactly when it is the cube,
    and counting decides it, with no search and no planarity.  Let I_j be
    the vertices of indegree j in a proper 2-orientation.  Each I_j is
    independent, and no arc ends in I_0.  A vertex of I_1 has out-degree
    >= 2 and its out-arcs can only end in I_2, which receives 2|I_2| arcs;
    a vertex of I_2 has an out-arc, which can only end in I_1, which
    receives |I_1|.  So |I_1| <= |I_2| <= |I_1|, and both counts are tight:
    every vertex of I_1 and I_2 has degree 3, and every arc into one of them
    comes from the other.  An edge at I_0 would point into I_1 or I_2, so
    with min degree >= 3, I_0 is empty.  G is then cubic, 3n/2 = m = 2n - 4
    gives n = 8, and a cubic bipartite graph on 8 vertices is K_{4,4} minus
    a perfect matching, which is the connected cube: the test ``is_q3``
    makes.  The cube has one (point a perfect matching at one class and
    every other edge at the other), and k = 1 is out on every G, since its
    indegrees would sum to at most n < 3n/2 <= m.
    """
    if g.m != 2 * g.n - 4:
        raise PreconditionFailedError("|E| = 2n-4 (quadrangulation)")
    proper_three_orientation(g)
    return 2 if is_q3(g) else 3

"""Answer checks that do not use the library.

Everything here works on plain vertex counts and edge lists, so a defect in
orientkit's own verifier, density code or search cannot hide a wrong answer.
Each check returns ``None`` when the answer is right and a one-line reason
when it is wrong.
"""

from __future__ import annotations

from fractions import Fraction

ORACLE_MAX_EDGES = 20


def parse_arcs(text):
    """Arcs ``(tail, head)`` from "u v" lines; malformed lines raise ValueError."""
    arcs = []
    for line in text.splitlines():
        if line.strip():
            tail, head = line.split()
            arcs.append((int(tail), int(head)))
    return arcs


def arcs_from_directions(edges, direction):
    """Arcs of an orientation given as one bool per edge (True: u -> v)."""
    return [(u, v) if d else (v, u) for (u, v), d in zip(edges, direction)]


def check_orientation(n, edges, arcs, max_indegree=None, at_most=None):
    """Recount indegrees and properness of ``arcs`` over ``edges``.

    ``max_indegree`` demands that exact maximum; ``at_most`` an upper bound.
    """
    if len(arcs) != len(edges):
        return f"{len(arcs)} arcs for {len(edges)} edges"
    indeg = [0] * n
    for i, ((u, v), (tail, head)) in enumerate(zip(edges, arcs)):
        if {tail, head} != {u, v} or tail == head:
            return f"arc {i} {tail}->{head} does not orient edge {u}-{v}"
        indeg[head] += 1
    for u, v in edges:
        if indeg[u] == indeg[v]:
            return f"edge {u}-{v} joins two vertices of indegree {indeg[u]}"
    top = max(indeg, default=0)
    if max_indegree is not None and top != max_indegree:
        return f"max indegree {top}, expected {max_indegree}"
    if at_most is not None and top > at_most:
        return f"max indegree {top} exceeds {at_most}"
    return None


def induced_edges(edges, vertices):
    inside = set(vertices)
    return sum(1 for u, v in edges if u in inside and v in inside)


def density(edges, vertices):
    """2|E(G[H])| / |H| as an exact fraction."""
    vs = set(vertices)
    return Fraction(2 * induced_edges(edges, vs), len(vs))


def least_proper_k(n, edges, k_max):
    """Least k <= k_max admitting a proper orientation with indegrees <= k.

    Plain enumeration of every orientation whose indegrees stay within k,
    with properness tested only on complete orientations; ``None`` when no
    k <= k_max works.  Exponential in |E|, so it refuses graphs above
    ``ORACLE_MAX_EDGES`` edges.
    """
    m = len(edges)
    if m > ORACLE_MAX_EDGES:
        raise ValueError(f"oracle limited to {ORACLE_MAX_EDGES} edges, got {m}")
    indeg = [0] * n

    def search(i, k):
        if i == m:
            return all(indeg[u] != indeg[v] for u, v in edges)
        u, v = edges[i]
        for head in (v, u):
            if indeg[head] < k:
                indeg[head] += 1
                if search(i + 1, k):
                    indeg[head] -= 1
                    return True
                indeg[head] -= 1
        return False

    for k in range(k_max + 1):
        if search(0, k):
            return k
    return None


def exists_proper(n, edges, k):
    """Whether a proper orientation with all indegrees <= k exists."""
    return least_proper_k(n, edges, k) is not None

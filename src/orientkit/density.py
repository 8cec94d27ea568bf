"""Exact maximum average degree and pseudoarboricity.

Mad(G) = max over subgraphs H of 2|E(H)|/|V(H)|.  At a density lam = p/q,
``orientation._spread`` splits 2q units per edge between its endpoints
with at most p on a vertex.  It places every unit iff no subgraph is denser
than lam (Hakimi); otherwise its BFS-reached set H is the smallest
maximiser of 2q|E(H)| - p|H|, and so denser than lam.  This is Goldberg's
test.  Its start hands each vertex's excess over p straight to neighbours
below p, which on pdw places every unit before the first phase.

``mad_exact`` keeps a vertex set S, at first all of G, that contains U, the
union of all densest subgraphs, with lam = 2|E(S)|/|S|.  Each round peels S
to its ceil(lam/2)-core, which raises lam whenever it removes a vertex
(one of degree d < lam/2 leaves 2(|E| - d)/(|S| - 1) > lam), then runs
the test once on G[S] at lam.  If nothing is denser it returns (lam, S);
otherwise S becomes the denser H found.  Every round strictly raises lam,
which takes only the finitely many subgraph densities, so the loop ends.
This is the core pruning of CoreExact (Fang et al., PVLDB 12(11), 2019).

1. No peel removes a vertex of U.  Every vertex v of a densest subgraph D
   has deg_D(v) >= Mad/2, or D - v would be denser; so deg_U(v) >=
   ceil(Mad/2) >= ceil(lam/2) for v in U, and U stays in each core.
2. H contains U.  For X inside S let f(X) = 2q|E(X)| - p|X|; f is
   supermodular because |E| is, f(U) = |U|(q Mad - p) > 0 as lam < Mad,
   and f(X) <= |X|(q Mad - p) < f(U) for X a proper subset of U.  With H
   the smallest maximiser, f(H | U) + f(H & U) >= f(H) + f(U) and
   f(H | U) <= f(H) give f(H & U) >= f(U), so H & U = U.
3. The final S is U.  The test finds nothing denser than lam in G[S], and
   U lies in S, so Mad = Mad(G[S]) = lam = 2|E(S)|/|S|: S is densest and
   so inside U, the union of all densest subgraphs.

A certificate that Mad <= lam for all of G (not produced yet) has three
parts: the peel order, in which each peeled vertex has fewer than lam/2
later neighbours; the outside part of each nested test's load; and the
final load on G[U].

``pseudoarboricity`` runs the same loop over the integers: the least k
with a k-orientation is ceil(Mad/2), and ``orientation._least_orientation``
finds it by stepping on ``k_orientation``'s witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyEdgeSetError
from .graphs import Graph
from .orientation import _least_orientation, _spread


@dataclass(frozen=True)
class DensityReport:
    mad: Fraction
    witness: tuple  # vertex subset achieving 2|E(H)|/|V(H)| = mad


def mad_exact(g):
    """Exact Mad with the maximal densest induced-subgraph witness."""
    if g.m == 0:
        raise EmptyEdgeSetError("Mad needs at least one edge")
    sub, ids = g, range(g.n)  # sub = G[S], vertex i of sub is ids[i] in g
    while True:
        # ceil(lam/2) = ceil(m/n) for lam = 2m/n, the density of sub
        core = _core(sub, -(-sub.m // sub.n))
        if core is not None:
            sub, ids = _induced(sub, ids, core)
        lam = Fraction(2 * sub.m, sub.n)
        _, denser = _spread(sub, 2 * lam.denominator, lam.numerator)
        if denser is None:
            return DensityReport(mad=lam, witness=tuple(ids))
        sub, ids = _induced(sub, ids, denser)


def _core(g, c):
    """The sorted vertices of g's c-core, its largest induced subgraph of
    minimum degree >= c; None when that is g itself."""
    adjacency = g.adjacency
    # the 1-core drops only isolated vertices, which hold no units and which
    # no engine search reaches, so it is not worth a subgraph
    if c < 2 or min(map(len, adjacency)) >= c:
        return None
    degree = list(map(len, adjacency))
    gone = [d < c for d in degree]
    stack = [v for v, out in enumerate(gone) if out]
    while stack:
        for w, _ in adjacency[stack.pop()]:
            if not gone[w]:
                degree[w] -= 1
                if degree[w] < c:
                    gone[w] = True
                    stack.append(w)
    return [v for v, out in enumerate(gone) if not out]


def _induced(g, ids, vertices):
    """G[vertices], for sorted vertices of g, relabelled to 0..len-1 in that
    order with its edges in g's order; and the ids its vertices stand for,
    where vertex v of g stands for ids[v]."""
    new = [-1] * g.n
    for i, v in enumerate(vertices):
        new[v] = i
    edges = [(new[u], new[v]) for u, v in g.edges if new[u] >= 0 and new[v] >= 0]
    return Graph(n=len(vertices), edges=tuple(edges)), [ids[v] for v in vertices]


def pseudoarboricity(g):
    """Least k admitting a k-orientation; equals ceil(Mad/2)."""
    return _least_orientation(g)[0]


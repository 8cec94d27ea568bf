"""Exact maximum average degree and pseudoarboricity.

Mad(G) = max over subgraphs H of 2|E(H)|/|V(H)|.  At a density lam = p/q
the flow network of ``_spread`` with 2q units per edge and capacity p per
vertex fits every unit iff no subgraph is denser than lam; otherwise its
min cut gives a subgraph H that maximizes 2|E(H)| - lam*|H|, the smallest
such one, and so denser than lam.

Dinkelbach's iteration starts at the whole graph's density and moves lam
to the density of each H found, until nothing is denser: lam is then Mad.
Every step strictly raises lam, and lam only takes the finitely many
subgraph densities, so the loop ends, in practice after one or two tests.

The witness is the last H, found at some lam < Mad with density Mad.
Among the densest subgraphs, the one with the most vertices maximizes
|H|(Mad - lam), so H is the union of all densest subgraphs: the unique
maximal densest subgraph.  When the first test finds nothing, the whole
vertex set is that union.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyEdgeSetError
from .flow import Dinic
from .orientation import Infeasible, k_orientation


@dataclass(frozen=True)
class DensityReport:
    mad: Fraction
    witness: tuple  # vertex subset achieving 2|E(H)|/|V(H)| = mad


def subgraph_density(g, vertices):
    """2|E(G[vertices])| / |vertices| as an exact Fraction."""
    vs = set(vertices)
    inside = sum(1 for u, v in g.edges if u in vs and v in vs)
    return Fraction(2 * inside, len(vs))


def _spread(g, units, cap):
    """Send units from each edge to its endpoints, at most cap into a vertex.

    Network: source -> one node per edge (capacity units) -> both endpoints
    (capacity units) -> sink (capacity cap per vertex).  Returns None when
    every unit fits, otherwise the vertices H on the source side of the min
    cut, so that units*|E(G[H])| > cap*|H|.
    """
    m, n = g.m, g.n
    source, sink = 0, 1 + m + n
    net = Dinic(2 + m + n)
    for i, (u, v) in enumerate(g.edges):
        net.add_edge(source, 1 + i, units)
        net.add_edge(1 + i, 1 + m + u, units)
        net.add_edge(1 + i, 1 + m + v, units)
    for v in range(n):
        net.add_edge(1 + m + v, sink, cap)
    if net.max_flow(source, sink) == units * m:
        return None
    cut = net.min_cut_source_side(source)
    return tuple(v for v in range(n) if (1 + m + v) in cut)


def mad_exact(g):
    """Exact Mad with the maximal densest induced-subgraph witness."""
    if g.m == 0:
        raise EmptyEdgeSetError("Mad needs at least one edge")
    lam, witness = Fraction(2 * g.m, g.n), tuple(range(g.n))
    while True:
        denser = _spread(g, 2 * lam.denominator, lam.numerator)
        if denser is None:
            return DensityReport(mad=lam, witness=witness)
        density = subgraph_density(g, denser)
        assert density > lam, "each step finds a strictly denser subgraph"
        lam, witness = density, denser


def pseudoarboricity(g):
    """Least k admitting a k-orientation; equals ceil(Mad/2)."""
    if g.m == 0:
        return 0
    lo, hi = 0, max(g.degrees())  # any orientation has indegrees <= max degree
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(k_orientation(g, mid), Infeasible):
            lo = mid + 1
        else:
            hi = mid
    return lo

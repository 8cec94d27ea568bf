"""Exact maximum average degree and pseudoarboricity.

Mad(G) = max over subgraphs H of 2|E(H)|/|V(H)|.  At a density lam = p/q,
``orientation._spread`` splits 2q units per edge between its endpoints
with at most p on a vertex.  It places every unit iff no subgraph is denser
than lam (Hakimi); otherwise its BFS-reached set H is the smallest
maximiser of 2q|E(H)| - p|H|, and so denser than lam.  This is Goldberg's
test, run on G itself.

Dinkelbach's iteration starts at the whole graph's density and moves lam
to the density of each H found, until nothing is denser: lam is then Mad.
Every step strictly raises lam, and lam only takes the finitely many
subgraph densities, so the loop ends, in practice after one or two tests.

The witness is the last H, found at some lam < Mad with density Mad.
Among the densest subgraphs, the one with the most vertices maximizes
|H|(Mad - lam), so H is the union of all densest subgraphs: the unique
maximal densest subgraph.  When the first test finds nothing, the whole
vertex set is that union.

Pseudoarboricity runs the same loop over the integers.  A k-orientation
exists iff no subgraph has |E(H)| > k|H| (Hakimi), so the least such k is
ceil(Mad/2).  Start at k = ceil(m/n); while ``k_orientation`` returns a
witness H, set k = ceil(|E(H)|/|H|).  Since |E(H)| > k|H| every step
strictly raises k, and since m/n and every |E(H)|/|H| are at most Mad/2, k
never passes ceil(Mad/2), where the loop must stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyEdgeSetError
from .orientation import Infeasible, _spread, k_orientation


@dataclass(frozen=True)
class DensityReport:
    mad: Fraction
    witness: tuple  # vertex subset achieving 2|E(H)|/|V(H)| = mad


def subgraph_density(g, vertices):
    """2|E(G[vertices])| / |vertices| as an exact Fraction."""
    vs = set(vertices)
    inside = sum(1 for u, v in g.edges if u in vs and v in vs)
    return Fraction(2 * inside, len(vs))


def mad_exact(g):
    """Exact Mad with the maximal densest induced-subgraph witness."""
    if g.m == 0:
        raise EmptyEdgeSetError("Mad needs at least one edge")
    lam, witness = Fraction(2 * g.m, g.n), tuple(range(g.n))
    while True:
        _, denser = _spread(g, 2 * lam.denominator, lam.numerator)
        if denser is None:
            return DensityReport(mad=lam, witness=witness)
        density = subgraph_density(g, denser)
        assert density > lam, "each step finds a strictly denser subgraph"
        lam, witness = density, denser


def pseudoarboricity(g):
    """Least k admitting a k-orientation; equals ceil(Mad/2)."""
    if g.m == 0:
        return 0
    k = -(-g.m // g.n)
    while isinstance(result := k_orientation(g, k), Infeasible):
        k = math.ceil(subgraph_density(g, result.witness) / 2)
    return k

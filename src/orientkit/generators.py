"""Deterministic constructors for the named instance families.

Vertex-id layouts are fixed and documented per family so orientations and
certificates are reproducible byte for byte.

Every edge list is built over one int object per vertex id: the ids come from
one ``range`` or list, and edges pair those objects, never fresh sums such as
``i + 1``.  CPython caches only the ints up to 256, so a larger id made anew
for each endpoint would cost 28 bytes per endpoint, which an edge list and the
adjacency lists built from it keep for the graph's lifetime.
"""

from __future__ import annotations

from .errors import BadParamsError
from .graphs import Graph


def q3():
    """The 3-cube: vertices 0..7 are binary triples, edges flip one bit."""
    edges = tuple(
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if bin(a ^ b).count("1") == 1
    )
    return Graph(n=8, edges=edges, planar_asserted=True)


def pdw(m):
    """Pseudo-double wheel: cycle v0..v(2m-1), apex 2m on even vertices,
    apex 2m+1 on odd ones.  A quadrangulation with min degree 3 for m >= 3."""
    if m < 3:
        raise BadParamsError("pdw needs m >= 3")
    n = 2 * m + 2
    *ring, even_apex, odd_apex = range(n)
    edges = list(zip(ring, ring[1:] + ring[:1]))
    edges += [(even_apex, x) for x in ring[0::2]]
    edges += [(odd_apex, x) for x in ring[1::2]]
    return Graph(n=n, edges=tuple(edges), planar_asserted=True)


def theorem4_id_table(extra=0):
    """Role -> (first id, last id) for the tight delta=2 instance.

    Layout: a(i,j,k) for i, j in 0..3 and k in 0..6 is id 28i + 7j + k; then
    the b, c, d, p, q hubs, the two top vertices s and t, and the optional
    extra degree-2 vertices hanging off b(0,0) and c(0,0).
    """
    return _t4_layout(extra)[2]


def _t4_layout(extra=0, blocks=4, pairs=4, spokes=7):
    """The theorem-4 layout at a given scale: the Graph, the direction the
    witness 4-orientation gives each edge (True: u -> v) and the id table.

    Block i has `pairs` hub pairs b(i,j), c(i,j), each sharing `spokes`
    degree-2 vertices a(i,j,k); `spokes` degree-2 vertices d(i,k); and the
    hubs p(i), q(i), which join every b, c and d of the block and both top
    vertices s, t.  Roles take consecutive ids in the order a, b, c, d, p,
    q, s, t, extra, each numbered row-major.  theorem4 is (4, 4, 7); the
    witness is t4proof.witness_four_orientation.
    """
    if extra < 0:
        raise BadParamsError("extra must be >= 0")
    hubs = blocks * pairs
    sizes = (("a", hubs * spokes), ("b", hubs), ("c", hubs), ("d", blocks * spokes),
             ("p", blocks), ("q", blocks), ("s", 1), ("t", 1), ("extra", extra))
    table, n = {}, 0
    for role, size in sizes:
        if size:
            table[role] = (n, n + size - 1)
        n += size
    b, c, d, p, q, s, t = (table[role][0] for role in "bcdpqst")
    arcs = []  # (u, v, whether the witness orients u -> v)
    for h in range(hubs):
        for a in range(h * spokes, (h + 1) * spokes):
            lead = a == h * spokes
            arcs += [(a, b + h, lead), (a, c + h, lead)]
    for h in range(hubs):
        i = h // pairs
        arcs += [(b + h, p + i, False), (b + h, q + i, False),
                 (c + h, p + i, False), (c + h, q + i, False)]
    for k in range(blocks * spokes):
        i = k // spokes
        arcs += [(d + k, p + i, False), (d + k, q + i, False)]
    for i in range(blocks):
        arcs += [(p + i, s, False), (p + i, t, True), (q + i, s, True), (q + i, t, False)]
    for x in range(t + 1, n):
        arcs += [(x, b, False), (x, c, False)]
    tails, heads, forward = zip(*arcs)
    return Graph(n=n, edges=tuple(zip(tails, heads)), planar_asserted=True), forward, table


def theorem4(extra=0):
    """The tight quadrangulation with min degree 2 and orientation number 4.

    Four edge groups: a-hub spokes, hub-to-p/q, d-to-p/q, and p/q-to-s/t;
    extra >= 1 appends degree-2 vertices adjacent to b[0][0] and c[0][0]
    (the infinite-family variant).  n = 182+extra, |E| = 360+2*extra = 2n-4.
    """
    return _t4_layout(extra)[0]


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise BadParamsError("complete_bipartite needs a, b >= 1")
    v = list(range(a + b))
    left, right = v[:a], v[a:]
    edges = tuple((i, j) for i in left for j in right)
    return Graph(n=a + b, edges=edges, planar_asserted=min(a, b) <= 2)


def path(n):
    if n < 1:
        raise BadParamsError("path needs n >= 1")
    v = list(range(n))
    return Graph(n=n, edges=tuple(zip(v, v[1:])), planar_asserted=True)


def cycle(n):
    if n < 3:
        raise BadParamsError("cycle needs n >= 3")
    v = list(range(n))
    return Graph(n=n, edges=tuple(zip(v, v[1:] + v[:1])), planar_asserted=True)


def star(leaves):
    """K_{1,leaves} with the center at vertex 0."""
    if leaves < 1:
        raise BadParamsError("star needs at least one leaf")
    return Graph(
        n=leaves + 1,
        edges=tuple((0, i) for i in range(1, leaves + 1)),
        planar_asserted=True,
    )


# What `orientkit gen` accepts: family name -> (constructor, number of
# integer parameters), in the order of gen's --help.
FAMILIES = {
    "q3": (q3, 0),
    "pdw": (pdw, 1),
    "t4": (theorem4, 1),
    "kbip": (complete_bipartite, 2),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
}


def generate(family, params=()):
    """The graph a FAMILIES name builds from its integer parameters."""
    if family not in FAMILIES:
        raise BadParamsError(f"unknown family {family!r}")
    build, arity = FAMILIES[family]
    if len(params) != arity:
        raise BadParamsError(f"{build.__name__} takes {arity} parameter(s), got {len(params)}")
    return build(*params)

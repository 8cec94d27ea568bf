"""Undirected simple graphs: parsing, serialization, bipartition, degree queries.

Vertices are dense integers 0..n-1.  Edge indices are stable: edge i is
``edges[i]`` for the lifetime of the graph.  Planarity is never computed:
the header's ``planar`` token sets ``planar_asserted``, an annotation that
parsing and serialization carry through and nothing reads.

Lines are cut by ``str.splitlines()`` alone, the header's included.  An
edge-list body has two readers, chosen by its shape (``read_pairs``).  The
canonical body, "u v\n" lines of ASCII digits as ``serialize_graph`` writes
them (the last "\n" may be missing), is read in one pass, after a regex
search for its first other line that keeps no state per line; any other
layout is read line by line.  Both give the same pairs and the same line
numbers, and only the line reader can meet a bad token.
``Graph`` checks the edge list in the one pass that fills the adjacency lists
and stops at the first bad edge; a repeat is found by an int key per
unordered pair.  (A bulk check, with ids by min and max and loops and repeats
by one set of directed arcs, ran no faster and held more memory.)

Eight of the package's ten records (``Graph``, ``Bipartition`` and six
more) are plain classes on ``_Record``, not dataclasses: ``dataclasses``
imports ``inspect``, which was the largest part of every command's start,
and each decorated class took about 1 ms to build.  ``Graph.__init__`` runs the edge check as
``self.__post_init__()``, the name a dataclass would call, since
``bench/tracing.py`` times ``Graph`` construction by wrapping that method.
"""

from __future__ import annotations

import re

from .errors import (
    BadParamsError,
    DuplicateEdgeError,
    HeaderFormatError,
    NotBipartiteError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    VertexRangeError,
)

X = "X"
Y = "Y"

_setfield = object.__setattr__  # how a record's __init__ fills a slot


class _Record:
    """An immutable record over the fields its ``__match_args__`` names.

    A subclass lists its slots and, in ``__match_args__``, its constructor's
    parameters in order; ``__init__`` fills each slot with ``_setfield``.
    ``repr``, ``==`` (within one class only), ``hash``, ``copy`` and
    ``pickle`` read the ``__match_args__`` fields, so a slot outside them,
    such as ``Graph.adjacency``, is derived, not compared.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Simple undirected graph with stable edge indices."""

    __slots__ = ("n", "edges", "planar_asserted", "adjacency")
    __match_args__ = ("n", "edges", "planar_asserted")

    def __init__(self, n, edges, planar_asserted=False):
        _setfield(self, "n", n)
        _setfield(self, "edges", edges)  # tuple of (u, v) pairs
        _setfield(self, "planar_asserted", planar_asserted)
        self.__post_init__()

    def __post_init__(self):
        # The one edge-list rule: ids in range, then no loop, then no repeat.
        n = self.n
        if n < 0:
            raise BadParamsError(f"n must be >= 0, got {n}")
        first = {}
        adj = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(
                    f"edge {i} = ({u}, {v}): vertex ids must lie in 0..n-1 with n = {n}",
                    edge=i,
                )
            if u == v:
                raise SelfLoopError(f"edge {i} is a self-loop at vertex {u}", edge=i)
            # ids are in range here, so the key names the unordered pair; an
            # int, unlike a tuple, adds nothing for the cyclic GC to track
            key = u * n + v if u < v else v * n + u
            if key in first:
                raise DuplicateEdgeError(f"edge {i} duplicates edge {first[key]}", edge=i)
            first[key] = i
            adj[u].append((v, i))
            adj[v].append((u, i))
        # every edge unpacked as a pair above; tuple() passes a tuple through
        _setfield(self, "edges", tuple(map(tuple, self.edges)))
        _setfield(self, "adjacency", tuple(map(tuple, adj)))

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adjacency[v])

    def degrees(self):
        return [len(a) for a in self.adjacency]


class Bipartition(_Record):
    """Two-coloring into classes X and Y; side[v] is "X" or "Y"."""

    __slots__ = __match_args__ = ("side",)

    def __init__(self, side):
        _setfield(self, "side", side)

    def vertices_in(self, label):
        return [v for v, s in enumerate(self.side) if s == label]


MAX_DIGITS = 4300  # Python's default int() limit, applied on every version


def read_ints(tokens, line=None):
    """The tokens as ints; a token other than ASCII -?[0-9]+ (int() would
    also take "+1", "1_0" and non-ASCII digits) or one of more than
    MAX_DIGITS digits is a ParseError at line."""
    values = []
    for tok in tokens:
        if not (tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit())):
            raise ParseError(f"expected an integer, got {tok!r}", line)
        if len(tok) > MAX_DIGITS:  # the cheap test first: most tokens are short
            digits = len(tok.lstrip("-"))
            if digits > MAX_DIGITS:
                raise ParseError(f"integer of {digits} digits, more than {MAX_DIGITS}", line)
        values.append(int(tok))
    return values


# the canonical body: what serialize_graph writes, and no token read_ints
# refuses; the last line may lack its "\n", as hand-edited files often do.
# Run on "\n" + body, a match is the start of the first line that is not one
# pair; the search holds no state from one line to the next.
_PAIR = f"[0-9]{{1,{MAX_DIGITS}}} [0-9]{{1,{MAX_DIGITS}}}"
_NOT_A_PAIR = re.compile(f"\n(?!{_PAIR}(?:\n|\\Z)|\\Z)")


def read_pairs(text, first_line=1):
    """The nonblank "u v" lines of text as int pairs, with their 1-based line
    numbers (the first line of text is first_line).

    A canonical body is read in one pass; any other is read line by line,
    with the same result, and a bad line is named by its number.
    """
    if not _NOT_A_PAIR.search("\n" + text):
        ids = map(int, text.split())
        pairs = list(zip(ids, ids))
        return pairs, range(first_line, first_line + len(pairs))
    pairs, line_numbers = [], []
    for lineno, raw in enumerate(text.splitlines(), first_line):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise HeaderFormatError('expected "u v"', lineno)
        pairs.append(tuple(read_ints(tokens, lineno)))
        line_numbers.append(lineno)
    return pairs, line_numbers


def graph_from_pairs(n, pairs, line_numbers, planar=False):
    """Graph(n, pairs); an edge that Graph rejects is reported at its line."""
    try:
        return Graph(n=n, edges=tuple(pairs), planar_asserted=planar)
    except ParseError as exc:
        exc.line = line_numbers[exc.edge]
        raise


def parse_graph(text):
    """Parse the edge-list interchange format into a Graph.

    Format: first line "n m [planar]", then m lines "u v".  Graph rejects
    bad edges; the error names the offending line.
    """
    if not text:
        raise HeaderFormatError("empty document", 1)
    # the first line, with its end, as str.splitlines() cuts it; "\n" ends a
    # line, so it lies within the text up to the first "\n"
    first = text[: text.find("\n") + 1 or len(text)].splitlines(keepends=True)[0]
    header, body = first.split(), text[len(first):]
    planar = False
    if len(header) == 3 and header[2] == "planar":
        planar = True
        header = header[:2]
    if len(header) != 2:
        raise HeaderFormatError('expected "n m [planar]"', 1)
    try:
        n, m = read_ints(header, 1)
    except ParseError:
        raise HeaderFormatError("n and m must be integers", 1) from None
    if n < 0 or m < 0:
        raise HeaderFormatError("n and m must be nonnegative", 1)

    pairs, line_numbers = read_pairs(body, 2)
    g = graph_from_pairs(n, pairs, line_numbers, planar)
    if g.m != m:  # named at the line after the last one
        end_line = len(body.splitlines()) + 2
        raise HeaderFormatError(f"header promises {m} edges, found {g.m}", end_line)
    return g


def serialize_graph(g):
    """Inverse of parse_graph on (n, edge multiset, edge order)."""
    header = f"{g.n} {g.m} planar" if g.planar_asserted else f"{g.n} {g.m}"
    body = "".join(f"{u} {v}\n" for u, v in g.edges)
    return header + "\n" + body


def _bfs_forest(g):
    """Breadth-first search from each unvisited vertex, in id order.

    Returns (components in discovery order, parent, depth, odd), where odd
    is the first edge (u, v) in scan order whose ends have equal depth, or
    None.  A root has parent -1 and depth 0.
    """
    adjacency = g.adjacency
    parent = [-1] * g.n
    depth = [-1] * g.n
    comps = []
    odd = None
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        comp = [root]
        for u in comp:  # comp is the queue: it grows while it is scanned
            du = depth[u]
            for v, _ in adjacency[u]:
                if depth[v] < 0:
                    depth[v] = du + 1
                    parent[v] = u
                    comp.append(v)
                elif depth[v] == du and odd is None:
                    odd = (u, v)
        comps.append(comp)
    return comps, parent, depth, odd


def bipartition(g):
    """Two-color by BFS layering, per connected component.

    Each component's smallest vertex gets class X.  Raises
    NotBipartiteError with an explicit odd cycle otherwise.
    """
    # a BFS edge joins depths that differ by at most one, so depth parity is
    # a proper colouring unless some edge joins equal depths
    _, parent, depth, odd = _bfs_forest(g)
    if odd is not None:
        raise NotBipartiteError(_odd_cycle(parent, *odd))
    return Bipartition(side=tuple(Y if d & 1 else X for d in depth))


def _odd_cycle(parent, u, v):
    # u and v sit at equal depth, so their tree paths meet after equal steps
    path_u, path_v = [u], [v]
    while u != v:
        u, v = parent[u], parent[v]
        path_u.append(u)
        path_v.append(v)
    # path_u ends at the meeting vertex; close the cycle back to v.
    return path_u + path_v[-2::-1]


def min_degree(g):
    """delta(G); requires at least one vertex."""
    if g.n < 1:
        raise TooSmallError("graph has no vertices")
    return min(g.degrees())


def connected_components(g):
    """List of vertex lists, one per component, in discovery order."""
    return _bfs_forest(g)[0]

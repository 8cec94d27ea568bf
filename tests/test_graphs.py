import random
import re

import pytest

from conftest import _two_colouring, relabel, spy
from orientkit import graphs
from orientkit.errors import (
    BadParamsError,
    DuplicateEdgeError,
    HeaderFormatError,
    NotBipartiteError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    VertexRangeError,
)
from orientkit.generators import cycle, pdw, q3, theorem4
from orientkit.graphs import (
    Graph,
    bipartition,
    connected_components,
    min_degree,
    parse_graph,
    read_ints,
    read_pairs,
    serialize_graph,
)


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1\n")
    assert g.n == 2
    assert g.edges == ((0, 1),)
    assert not g.planar_asserted


def test_parse_four_cycle():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 0))


def test_parse_planar_flag():
    g = parse_graph("2 1 planar\n0 1\n")
    assert g.planar_asserted


def test_parse_duplicate_edge_line_number():
    with pytest.raises(DuplicateEdgeError) as exc:
        parse_graph("3 2\n0 1\n0 1\n")
    assert exc.value.line == 3


def test_parse_duplicate_reversed():
    with pytest.raises(DuplicateEdgeError):
        parse_graph("3 2\n0 1\n1 0\n")


def test_parse_self_loop():
    with pytest.raises(SelfLoopError) as exc:
        parse_graph("2 1\n1 1\n")
    assert exc.value.line == 2


def test_parse_out_of_range():
    with pytest.raises(VertexRangeError) as exc:
        parse_graph("2 1\n0 2\n")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text", ["", "banana\n", "2\n", "2 x\n", "2 2\n0 1\n", "2 1\n0\n"]
)
def test_parse_malformed(text):
    with pytest.raises(HeaderFormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "g", [q3(), pdw(5), theorem4(2), cycle(6), parse_graph("5 2\n3 1\n0 4\n")]
)
def test_serialize_round_trip(g):
    back = parse_graph(serialize_graph(g))
    assert back.n == g.n
    assert back.edges == g.edges
    assert back.planar_asserted == g.planar_asserted


def test_serialize_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        # a simple graph: distinct unordered pairs, each in a drawn endpoint order
        n = draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
        flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        edges = tuple((v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips))
        return Graph(n=n, edges=edges, planar_asserted=draw(st.booleans()))

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(g=graphs())
    def check(g):
        text = serialize_graph(g)
        # the canonical text, with or without its final newline, takes the
        # one-pass reader; the other layouts but leading zeros take the line
        # reader
        for layout in (text, *_relayouts(text)):
            back = parse_graph(layout)
            assert back.n == g.n
            assert back.edges == g.edges
            assert back.planar_asserted == g.planar_asserted

    check()


def _relayouts(text):
    """text laid out again: CRLF ends, tabs between ids, blank lines, leading
    zeros, no final newline, and a header ended by a lone carriage return."""
    return (
        text.replace("\n", "\r\n"),
        text.replace(" ", "\t"),
        text.replace("\n", "\n\n"),
        re.sub("[0-9]+", lambda digits: "00" + digits[0], text),
        text[:-1],
        text.replace("\n", "\r", 1),
    )


def test_a_lone_carriage_return_ends_the_header():
    # splitting the header off at the first "\n" would read this as no edges
    assert parse_graph("4 1\r0 1\n").edges == ((0, 1),)


def test_parse_reads_every_token_before_checking_edges():
    # line 2 is a self-loop, but the bad token on line 3 is read first
    with pytest.raises(ParseError) as exc:
        parse_graph("4 2\n0 0\n1 x\n")
    assert type(exc.value) is ParseError
    assert str(exc.value) == "line 3: expected an integer, got 'x'"


@pytest.mark.parametrize("text", ["2 2\n0 1\n", "2 2\n0 1", "2 2\r\n0 1\r\n", "2 2\r0 1\r"])
def test_a_short_body_is_named_at_the_line_after_it(text):
    with pytest.raises(HeaderFormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == "line 3: header promises 2 edges, found 1"


def test_canonical_body_digit_limit():
    # every other line is canonical; the long id takes the line reader, with
    # or without the last line's newline
    for end in ("\n", ""):
        with pytest.raises(ParseError) as exc:
            parse_graph("3 2\n0 1\n" + "1" * 4301 + " 2" + end)
        assert str(exc.value) == "line 3: integer of 4301 digits, more than 4300"
        assert parse_graph("3 1\n" + "0" * 4299 + "2 1" + end).edges == ((2, 1),)


def test_a_last_line_without_its_newline_reads_as_the_line_reader_reads_it():
    # tabs between the ids send the same lines through the line reader
    rng = random.Random(21)
    for m in (1, 2, 7, 300):
        body = "".join(f"{rng.randrange(10**6)} {rng.randrange(10**6)}\n" for _ in range(m))
        for text in (body[:-1], body[:-1] + "\n\n", "\n" + body[:-1]):
            pairs, lines = read_pairs(text, 2)
            assert (pairs, list(lines)) == read_pairs(text.replace(" ", "\t"), 2)
        assert isinstance(read_pairs(body[:-1])[1], range)  # read in one pass


# every str.splitlines() line end, tab, "-", "x", "planar" and a run one digit
# past the limit, beside the digits, spaces and lines of a canonical text
READER_ALPHABET = [
    "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\t", "-", "x", "planar", "1" * 4301, " ", "0", "7", "12", "3 4\n", "56 0\n",
]


def _canonical(text):
    """The one-pass reader's shape, defined apart from it: split on "\n", the
    last line may lack its "\n", and every line is two runs of 1..4300 digits
    around one space."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return all(re.fullmatch("[0-9]{1,4300} [0-9]{1,4300}", line) for line in lines)


def test_the_one_pass_reader_takes_exactly_the_canonical_texts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(parts=st.lists(st.sampled_from(READER_ALPHABET), max_size=20))
    def check(parts):
        text = "".join(parts)
        try:
            lines = read_pairs(text)[1]
        except ParseError:  # only the line reader meets a bad line
            lines = None
        assert isinstance(lines, range) == _canonical(text)

    check()


def test_the_header_is_the_first_line_that_splitlines_cuts(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    class Stop(Exception):
        pass

    seen = {}

    def spy_pairs(body, first_line=1):
        seen["body"] = body
        raise Stop  # before any Graph: a drawn header may ask for 10**20 vertices

    # parse_graph calls read_ints only on the header once read_pairs is stubbed
    headers = spy(monkeypatch, (graphs, "read_ints"))
    monkeypatch.setattr(graphs, "read_pairs", spy_pairs)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(parts=st.lists(st.sampled_from(READER_ALPHABET), min_size=1, max_size=20))
    def check(parts):
        text = "".join(parts)
        seen.clear()
        headers.clear()
        try:
            parse_graph(text)
        except (Stop, ParseError):
            pass
        tokens = text.splitlines()[0].split()
        if tokens[2:] == ["planar"]:
            tokens = tokens[:2]
        assert [list(args[0]) for args in headers] == ([tokens] if len(tokens) == 2 else [])
        if "body" in seen:
            assert seen["body"] == "".join(text.splitlines(keepends=True)[1:])

    check()


def test_a_negative_header_is_named_at_line_1():
    for text in ("-1 0\n", "3 -1\n"):
        with pytest.raises(HeaderFormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == "line 1: n and m must be nonnegative"


def test_graph_rejects_a_negative_vertex_count():
    # serialize_graph would write a header that parse_graph refuses; the
    # count is checked before any edge, and it is no ParseError, which
    # would need a line or an edge to name
    for n, edges in ((-2, ()), (-1, ((0, 1),))):
        with pytest.raises(BadParamsError) as exc:
            Graph(n=n, edges=edges)
        assert str(exc.value) == f"n must be >= 0, got {n}"
        assert not isinstance(exc.value, ParseError)
    assert serialize_graph(Graph(n=0, edges=())) == "0 0\n"


def test_read_ints_digit_limit():
    assert read_ints(["9" * 4300, "-" + "9" * 4300]) == [10**4300 - 1, 1 - 10**4300]
    for tok in ("1" * 4301, "-" + "1" * 4301):
        with pytest.raises(ParseError) as exc:
            read_ints(["0", tok], 7)
        assert str(exc.value) == "line 7: integer of 4301 digits, more than 4300"


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 0),))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(n=2, edges=((0, 5),))


def test_adjacency_consistent():
    g = pdw(4)
    appearances = [0] * g.m
    for v in range(g.n):
        for u, i in g.adjacency[v]:
            assert v in g.edges[i] and u in g.edges[i]
            appearances[i] += 1
    assert all(count == 2 for count in appearances)


def test_bipartition_c4():
    part = bipartition(cycle(4))
    assert part.vertices_in("X") == [0, 2]
    assert part.vertices_in("Y") == [1, 3]


def test_bipartition_triangle():
    with pytest.raises(NotBipartiteError) as exc:
        bipartition(cycle(3))
    odd = exc.value.odd_cycle
    assert len(odd) % 2 == 1
    assert set(odd) == {0, 1, 2}


def test_bipartition_q3_classes():
    part = bipartition(q3())
    assert len(part.vertices_in("X")) == 4
    assert len(part.vertices_in("Y")) == 4
    for u, v in q3().edges:
        assert part.side[u] != part.side[v]


def test_bipartition_components_each_start_x():
    # two disjoint edges: 0-1 and 2-3
    g = Graph(n=4, edges=((0, 1), (2, 3)))
    part = bipartition(g)
    assert part.side[0] == "X"
    assert part.side[2] == "X"


def test_bipartition_odd_cycle_in_larger_graph():
    g = Graph(n=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)))
    with pytest.raises(NotBipartiteError) as exc:
        bipartition(g)
    odd = exc.value.odd_cycle
    assert len(odd) % 2 == 1
    edge_set = {frozenset(e) for e in g.edges}
    for a, b in zip(odd, odd[1:] + odd[:1]):
        assert frozenset((a, b)) in edge_set


def _random_graph(rng):
    """A random graph of up to 40 vertices: bipartite or not, often
    disconnected, often with isolated vertices, with shuffled ids."""
    n = rng.randint(1, 40)
    p = rng.choice([0.03, 0.08, 0.2])
    if rng.random() < 0.5:  # bipartite: edges only across a random split
        left = {v for v in range(n) if rng.random() < 0.5}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u in left) != (v in left) and rng.random() < p]
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return relabel(rng, Graph(n=n, edges=tuple(pairs)))


def test_bipartition_is_a_colouring_or_an_odd_cycle_on_random_graphs():
    rng = random.Random(1717)
    outcomes = set()
    for _ in range(600):
        g = _random_graph(rng)
        try:
            side = bipartition(g).side
        except NotBipartiteError as exc:
            outcomes.add("odd")
            odd = exc.odd_cycle
            assert len(odd) % 2 == 1 and len(set(odd)) == len(odd)
            edge_set = {frozenset(e) for e in g.edges}
            for a, b in zip(odd, odd[1:] + odd[:1]):
                assert frozenset((a, b)) in edge_set
        else:
            outcomes.add("bipartite")
            assert all(side[u] != side[v] for u, v in g.edges)
            # a proper 2-colouring is unique per component once its smallest
            # vertex is fixed, so it must equal conftest's independent one
            assert side == tuple("XY"[c] for c in _two_colouring(g))
    assert outcomes == {"odd", "bipartite"}


def test_min_degree():
    assert min_degree(q3()) == 3
    assert min_degree(parse_graph("2 1\n0 1\n")) == 1
    assert min_degree(theorem4(0)) == 2
    with pytest.raises(TooSmallError):
        min_degree(Graph(n=0, edges=()))


def test_connected_components():
    g = Graph(n=5, edges=((0, 1), (2, 3)))
    comps = connected_components(g)
    assert [sorted(c) for c in comps] == [[0, 1], [2, 3], [4]]


@pytest.mark.parametrize(
    "edges, error, edge",
    [
        (((0, 1), (0, 5)), VertexRangeError, 1),
        (((5, 5),), VertexRangeError, 0),  # range is checked before loops
        (((0, 1), (1, 1)), SelfLoopError, 1),
        (((0, 1), (1, 0)), DuplicateEdgeError, 1),
        # edges are checked in order: an earlier repeat before a later range error
        (((0, 1), (1, 0), (0, 7)), DuplicateEdgeError, 1),
        (((0, 2), (1, 2), (2, 0)), DuplicateEdgeError, 2),
    ],
)
def test_graph_names_the_rejected_edge(edges, error, edge):
    with pytest.raises(error) as exc:
        Graph(n=3, edges=edges)
    assert exc.value.edge == edge
    assert exc.value.line is None
    assert str(exc.value).startswith(f"edge {edge}")


def test_a_repeated_edge_names_the_edge_it_repeats():
    with pytest.raises(DuplicateEdgeError) as exc:
        Graph(n=3, edges=((0, 2), (1, 2), (2, 0)))
    assert str(exc.value) == "edge 2 duplicates edge 0"


def _first_bad_edge(n, edges):
    """The edge rule one edge at a time: (error type, edge index) or None."""
    seen = set()
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return VertexRangeError, i
        if u == v:
            return SelfLoopError, i
        if frozenset((u, v)) in seen:
            return DuplicateEdgeError, i
        seen.add(frozenset((u, v)))
    return None


def test_graph_matches_a_reference_edge_scan():
    # ids in -1..n, so range errors, loops and repeats in either order all occur
    rng = random.Random(2121)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(0, 6)
        edges = tuple((rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 7)))
        expected = _first_bad_edge(n, edges)
        outcomes.add(expected and expected[0])
        if expected is None:
            g = Graph(n=n, edges=edges)
            # each vertex lists its edges in index order
            assert g.adjacency == tuple(
                tuple((u + v - w, i) for i, (u, v) in enumerate(edges) if w in (u, v))
                for w in range(n)
            )
            continue
        with pytest.raises(expected[0]) as exc:
            Graph(n=n, edges=edges)
        assert exc.value.edge == expected[1]
    assert outcomes == {None, VertexRangeError, SelfLoopError, DuplicateEdgeError}


def test_parse_error_line_skips_blank_lines():
    with pytest.raises(DuplicateEdgeError) as exc:
        parse_graph("3 2\n0 1\n\n1 0\n")
    assert (exc.value.edge, exc.value.line) == (1, 4)
    assert str(exc.value).startswith("line 4: ")


def test_parse_non_integer_vertex():
    with pytest.raises(ParseError) as exc:
        parse_graph("2 1\n0 y\n")
    assert exc.value.line == 2

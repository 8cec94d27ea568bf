import hashlib
import random
import sys
import time
from itertools import combinations, permutations

import pytest

import orientkit.exact as exact_module
import orientkit.graphs as graphs_module
import orientkit.orientation as orientation_module
from conftest import (
    brute_force_exists_proper_k,
    brute_force_max_matching,
    component_count,
    flagged_graph_with_no_2_orientation,
    random_bipartite_graph,
    random_connected_graph,
    relabel,
    spy,
    switching_graphs,
)
from orientkit.density import pseudoarboricity
from orientkit.errors import (
    BadParamsError,
    ExceedsCapError,
    NotBipartiteError,
    PreconditionFailedError,
    PreconditionMadError,
)
from orientkit.exact import (
    _equal_cap_matching,
    exists_proper_k,
    is_q3,
    proper_orientation_number,
    quadrangulation_number,
)
from orientkit.generators import complete_bipartite, cycle, path, pdw, q3, star
from orientkit.graphs import Graph, _bfs_forest, bipartition, parse_graph
from orientkit.orientation import proper_three_orientation, verify_orientation
from orientkit.t4proof import shrunken_instance


def test_path3_k1():
    sigma = exists_proper_k(path(3), 1)
    assert sigma.arcs() == [(1, 0), (1, 2)]


def test_c4_k1_none():
    assert exists_proper_k(cycle(4), 1) is None


def test_q3_k2():
    sigma = exists_proper_k(q3(), 2)
    report = verify_orientation(q3(), sigma)
    assert report.proper
    assert report.max_indegree <= 2


def _pdw_calls():
    return [(pdw(m), k) for m in range(4, 21) for k in (2, 3)]


def _random_calls():
    rng = random.Random(47)
    calls = []
    for _ in range(40):
        g = relabel(rng, random_connected_graph(rng, rng.randrange(4, 12)))
        calls += [(g, k) for k in range(1, 5)]
    for _ in range(40):
        nx, ny = rng.randrange(2, 7), rng.randrange(2, 7)
        g = relabel(rng, random_bipartite_graph(rng, nx, ny, rng.randrange(1, min(ny, 3) + 1)))
        calls += [(g, k) for k in range(1, 5)]
    return calls


def _shrunken_calls():
    return [(shrunken_instance(), k) for k in (1, 3)]


def _relabelled_pdw_calls():
    return [(relabel(random.Random(seed), pdw(12)), 3) for seed in range(1, 5)]


@pytest.mark.parametrize("calls, digest", [
    (_pdw_calls, "be6f5f5380ba1e1c72fc696c6ca601769f262c1998e7bbea01b4d5d71fab502c"),
    (_random_calls, "fcb8d2438e9f1b171892df4c7eaa04f7c2aaa6feb6089268c90e3179e7fd733a"),
    (_shrunken_calls, "0f7bffadc0caede719478e288356bbada4382882080136b417cda06be3e55b02"),
    (_relabelled_pdw_calls, "77eb5ff6bb9467e3f9b04e6f62b10d195cb5fe684f5d61ff12555664cf080b72"),
], ids=["pdw", "random", "shrunken", "relabelled-pdw12"])
def test_witnesses_are_pinned(calls, digest):
    # the sha256 of every direction tuple the search returns, None included,
    # in call order: a change to the order, the pruning or the refutation
    # that moves any first witness changes it
    h = hashlib.sha256()
    for g, k in calls():
        sigma = exists_proper_k(g, k)
        h.update(repr(None if sigma is None else sigma.direction).encode())
    assert h.hexdigest() == digest


def _number_graphs():
    """Relabelled pdw(3..40), then relabelled random connected and bipartite
    graphs."""
    rng = random.Random(53)
    graphs = [relabel(rng, pdw(m)) for m in range(3, 41)]
    for _ in range(60):
        graphs.append(relabel(rng, random_connected_graph(rng, rng.randrange(4, 12))))
    for _ in range(60):
        nx, ny = rng.randrange(2, 7), rng.randrange(2, 7)
        g = random_bipartite_graph(rng, nx, ny, rng.randrange(1, min(ny, 4) + 1))
        graphs.append(relabel(rng, g))
    return graphs


def test_bipartite_rule_is_bipartitions():
    # the switching bound and is_q3 read "no edge joins two equal BFS
    # depths"; bipartition raises exactly when that fails
    verdicts = set()
    for g in _number_graphs():
        try:
            bipartition(g)
            bipartite = True
        except NotBipartiteError:
            bipartite = False
        assert (_bfs_forest(g)[3] is None) == bipartite, g.edges
        verdicts.add(bipartite)
    assert verdicts == {True, False}


def test_numbers_are_pinned():
    # the sha256 of every value and witness direction tuple, or the cap
    # error, in graph order; taken before the switching bound read the BFS
    # forest in place of bipartition
    h = hashlib.sha256()
    for g in _number_graphs():
        try:
            result = proper_orientation_number(g, 4)
            h.update(repr((result.value, result.witness.direction)).encode())
        except ExceedsCapError:
            h.update(b"exceeds")
    assert h.hexdigest() == "8aee7a0acd515626eb21143417a3b8350a083731197a92ee8182abf7ca92c4fb"


def test_monotone_in_k():
    rng = random.Random(3)
    for _ in range(10):
        g = random_bipartite_graph(rng, 3, 4, 2)
        for k in range(1, 4):
            if exists_proper_k(g, k) is not None:
                assert exists_proper_k(g, k + 1) is not None


# small graphs that criterion 7 does not check against brute force
SMALL_CORPUS = {"star5": star(5), "kbip2x4": complete_bipartite(2, 4)}


@pytest.mark.parametrize("g", SMALL_CORPUS.values(), ids=SMALL_CORPUS.keys())
def test_agrees_with_brute_force(g):
    assert g.m <= 14
    for k in range(4):
        found = exists_proper_k(g, k) is not None
        assert found == brute_force_exists_proper_k(g, k)


def test_number_single_edge():
    result = proper_orientation_number(parse_graph("2 1\n0 1\n"), 4)
    assert result.value == 1
    assert sorted(verify_orientation(result.witness.graph, result.witness).indegrees) == [0, 1]


def test_number_c4():
    result = proper_orientation_number(cycle(4), 4)
    assert result.value == 2
    assert verify_orientation(cycle(4), result.witness).proper


def test_number_exceeds_cap():
    with pytest.raises(ExceedsCapError):
        proper_orientation_number(cycle(4), 1)


def test_number_refuses_a_negative_cap():
    with pytest.raises(BadParamsError):
        proper_orientation_number(cycle(4), -1)
    # a cap of 0 is a question, answered on an edgeless graph
    assert proper_orientation_number(Graph(n=3, edges=()), 0).value == 0


def test_a_negative_k_has_no_orientation():
    # no indegree is below 0, so not even the edgeless graph has one
    assert exists_proper_k(cycle(4), -1) is None
    assert exists_proper_k(Graph(n=3, edges=()), -1) is None


def test_number_at_least_pseudoarboricity():
    rng = random.Random(17)
    for _ in range(8):
        g = random_bipartite_graph(rng, 3, 3, 2)
        result = proper_orientation_number(g, 6)
        assert result.value >= pseudoarboricity(g)
        report = verify_orientation(g, result.witness)
        assert report.proper
        assert report.max_indegree <= result.value


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_number_takes_the_switching_bound_at_three(seed):
    # the search at k = 3 took seconds on these, or gave no answer in 10 s;
    # counting refutes k = 2, and the paper's theorem answers k = 3
    g = relabel(random.Random(seed), pdw(30))
    start = time.perf_counter()
    result = proper_orientation_number(g, 6)
    assert time.perf_counter() - start < 1
    assert result.value == 3
    report = verify_orientation(g, result.witness)
    assert report.proper and report.max_indegree == 3


def test_switching_bound_needs_a_2_orientation():
    # K_{5,6} is bipartite with min degree 5, but its scan starts at its
    # pseudoarboricity 3, where counting refutes it: switching is not asked
    g = complete_bipartite(5, 6)
    assert pseudoarboricity(g) == 3
    with pytest.raises(ExceedsCapError):
        proper_orientation_number(g, 3)


def test_switching_bound_reuses_the_scans_orientation_and_bfs(monkeypatch):
    # the scan's pseudoarboricity loop stops at its 2-orientation and the
    # bound's BFS gives the classes, so switching needs no second engine call
    # or BFS; every binding of both is counted, wherever it is called from
    rng = random.Random(31)
    graphs = [relabel(rng, pdw(m)) for m in (5, 8, 30, 100, 300)]
    graphs += [g for g in switching_graphs()
               if pseudoarboricity(g) == 2 and proper_orientation_number(g, 4).value == 3]
    assert len(graphs) > 40
    for g in graphs:
        expected = proper_three_orientation(g).direction
        with monkeypatch.context() as patch:
            engine = spy(patch, (orientation_module, "k_orientation"))
            bfs = spy(patch, (exact_module, "_bfs_forest"), (graphs_module, "_bfs_forest"))
            result = proper_orientation_number(g, 4)
        assert result.value == 3
        assert len(engine) == 1 and engine[0][1] == 2
        assert len(bfs) == 1
        assert result.witness.direction == expected


@pytest.mark.parametrize("edges", [
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)),
    tuple((i, (i + 1) % 8) for i in range(8)) + tuple((i, i + 4) for i in range(4)),
], ids=["k4", "prism", "wagner"])
def test_switching_bound_needs_a_bipartite_graph(edges):
    # min degree 3 and pseudoarboricity 2, but an odd cycle: the scan reaches
    # k = 3 and must search, since switching would refuse these graphs
    g = relabel(random.Random(len(edges)), Graph(n=1 + max(map(max, edges)), edges=edges))
    assert pseudoarboricity(g) == 2 and min(g.degrees()) == 3
    result = proper_orientation_number(g, 4)
    assert result.value == 3 and not brute_force_exists_proper_k(g, 2)
    report = verify_orientation(g, result.witness)
    assert report.proper and report.max_indegree <= 3


def test_is_q3():
    assert is_q3(q3())
    assert is_q3(pdw(3))
    assert not is_q3(pdw(4))  # wrong size
    assert not is_q3(complete_bipartite(3, 3))
    # rewire one cube edge: 3-regularity breaks, so the cheap gate rejects
    rewired = tuple(e for e in q3().edges if e != (0, 1)) + ((0, 7),)
    assert not is_q3(Graph(n=8, edges=rewired))
    # the Wagner graph: 3-regular on 8 vertices but not bipartite
    wagner = tuple((i, (i + 1) % 8) for i in range(8)) + tuple(
        (i, i + 4) for i in range(4)
    )
    assert not is_q3(Graph(n=8, edges=wagner))


def labelled_cubic_graphs(n):
    """Every 3-regular simple graph on 0..n-1, each once: vertex v picks its
    missing neighbours among the higher vertices that still have room."""
    degree = [0] * n
    edges = []

    def extend(v):
        if v == n:
            yield tuple(edges)
            return
        room = [w for w in range(v + 1, n) if degree[w] < 3]
        for chosen in combinations(room, 3 - degree[v]):
            for w in chosen:
                degree[w] += 1
                edges.append((v, w))
            yield from extend(v + 1)
            for w in chosen:
                degree[w] -= 1
                edges.pop()

    yield from extend(0)


def test_is_q3_on_every_labelled_cubic_graph():
    # 19355 labelled cubic graphs on 8 vertices (OEIS A002829); the cube has
    # 48 automorphisms, so 8!/48 = 840 of them are cubes
    cubes = {
        frozenset(frozenset((perm[u], perm[v])) for u, v in q3().edges)
        for perm in permutations(range(8))
    }
    assert len(cubes) == 840
    accepted = set()
    count = 0
    for edges in labelled_cubic_graphs(8):
        count += 1
        if is_q3(Graph(n=8, edges=edges)):
            accepted.add(frozenset(frozenset(e) for e in edges))
    assert count == 19355
    assert accepted == cubes


def test_quadrangulation_number_q3():
    # the cube in any labelling: is_q3 accepts it, so quad answers 2, and
    # the search confirms that a proper 2-orientation exists
    rng = random.Random(49)
    for g in [q3()] + [relabel(rng, q3()) for _ in range(8)]:
        report = verify_orientation(g, exists_proper_k(g, 2))
        assert report.proper and report.max_indegree == 2
        assert quadrangulation_number(g) == 2


def test_quadrangulation_gates():
    with pytest.raises(PreconditionFailedError) as exc:
        quadrangulation_number(cycle(4))
    assert "degree" in exc.value.gate
    # the planar flag is no gate: the unflagged cube is still the cube
    assert quadrangulation_number(Graph(n=8, edges=q3().edges, planar_asserted=False)) == 2


def test_quadrangulation_number_needs_a_2_orientation_not_the_flag():
    # every gate the flag stood in for passes, and the value is at least the
    # pseudoarboricity 4, so "3" would be wrong
    g = flagged_graph_with_no_2_orientation()
    assert g.planar_asserted and g.m == 2 * g.n - 4 == 124 and min(g.degrees()) == 3
    assert pseudoarboricity(g) == 4
    with pytest.raises(PreconditionMadError) as exc:
        quadrangulation_number(g)
    h = set(exc.value.witness)
    assert sum(u in h and v in h for u, v in g.edges) > 2 * len(h)


def random_unflagged_graph_on_the_edge_bound(rng, nx, ny):
    """A random connected bipartite graph, not flagged planar, with min
    degree 3 and |E| = 2n-4: each X vertex takes 3 neighbours, random X-Y
    edges fill up the count, and a draw with a Y vertex of degree < 3 or
    two components is tried again."""
    target = 2 * (nx + ny) - 4
    while True:
        edges = set(random_bipartite_graph(rng, nx, ny, 3).edges)
        spare = [(x, y) for x in range(nx) for y in range(nx, nx + ny) if (x, y) not in edges]
        edges.update(rng.sample(spare, target - len(edges)))
        g = relabel(rng, Graph(n=nx + ny, edges=tuple(sorted(edges))))
        if min(g.degrees()) >= 3 and component_count(g) == 1:
            return g


@pytest.mark.parametrize("nx, ny, count", [(5, 5, 4), (5, 6, 2)])
def test_quadrangulation_number_on_unflagged_graphs_matches_brute_force(nx, ny, count):
    # with min degree 3 and |E| = 2n-4 <= 18 the classes are 4+4, 5+5 or 5+6;
    # every 4+4 draw is the cube, which the cube tests check
    rng = random.Random(nx * 10 + ny)
    for _ in range(count):
        g = random_unflagged_graph_on_the_edge_bound(rng, nx, ny)
        assert not g.planar_asserted
        expected = 2 if brute_force_exists_proper_k(g, 2) else 3
        assert quadrangulation_number(g) == expected, g.edges


def disjoint_union(*graphs):
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return Graph(n=n, edges=tuple(edges))


UNIONS = [
    (complete_bipartite(3, 4), complete_bipartite(3, 4)),
    (q3(), complete_bipartite(4, 4)),
]


@pytest.mark.parametrize("parts", UNIONS, ids=["2xK34", "cube+K44"])
def test_quadrangulation_number_of_a_disconnected_graph(parts):
    # no step of the proof uses connectivity, so a disconnected graph that
    # passes the other gates gets its value: the largest component value,
    # found here by brute force
    g = disjoint_union(*parts)
    assert g.m == 2 * g.n - 4 and component_count(g) == 2
    expected = max(next(k for k in range(5) if brute_force_exists_proper_k(h, k))
                   for h in parts)
    assert quadrangulation_number(g) == expected == 3


def test_exists_proper_k_refutes_gated_non_cubes_by_counting():
    # each input passes quad's gates (|E| = 2n-4, min degree 3) but is not
    # the cube, so n >= 10: the spare sum(cap) - m = 4 at k = 2 is below
    # n // 2, and five equal-cap pairs refute k = 2 before exists_proper_k
    # sorts its order.  quad does not call it, but proper_orientation_number's
    # scan starts at k = 2 on these inputs and takes this path.
    rng = random.Random(48)
    graphs = [relabel(rng, pdw(m)) for m in range(4, 41)]
    for nx, ny in [(5, 5), (5, 6), (6, 6), (6, 7)]:
        graphs += [random_unflagged_graph_on_the_edge_bound(rng, nx, ny) for _ in range(6)]
    graphs += [disjoint_union(*parts) for parts in UNIONS]
    for g in graphs:
        assert g.m == 2 * g.n - 4 and min(g.degrees()) >= 3 and g.n // 2 > 4
        assert len(_equal_cap_matching(g, [2] * g.n, 5)) == 5, g.edges
        assert exists_proper_k(g, 2) is None


def test_quadrangulation_number_decides_without_search(monkeypatch):
    # quad reads is_q3 for k = 2: neither the search nor the counting
    # refutation runs, on the cube or off it
    def refuse(*args):
        raise AssertionError("quadrangulation_number searched")

    monkeypatch.setattr(exact_module, "exists_proper_k", refuse)
    monkeypatch.setattr(exact_module, "_equal_cap_matching", refuse)
    rng = random.Random(41)
    # a draw on 4 + 4 vertices is cubic and bipartite on 8: a cube
    cubes = [q3()] + [relabel(rng, q3()) for _ in range(8)]
    cubes += [random_unflagged_graph_on_the_edge_bound(rng, 4, 4) for _ in range(4)]
    for g in cubes:
        assert quadrangulation_number(g) == 2, g.edges
    others = [relabel(rng, pdw(m)) for m in range(4, 41)]
    for nx, ny in [(5, 5), (5, 6), (6, 6), (6, 7)]:
        others += [random_unflagged_graph_on_the_edge_bound(rng, nx, ny) for _ in range(6)]
    others += [disjoint_union(*parts) for parts in UNIONS]
    for g in others:
        assert quadrangulation_number(g) == 3, g.edges


MIN_DEGREE_3 = {
    "K4": (tuple(combinations(range(4), 2)), False),
    "K33": (complete_bipartite(3, 3).edges, True),
    "K34": (complete_bipartite(3, 4).edges, True),
    "cube": (q3().edges, True),
    "wagner": (tuple((i, (i + 1) % 8) for i in range(8)) + tuple((i, i + 4) for i in range(4)),
               False),
    "petersen": (tuple((i, (i + 1) % 5) for i in range(5))
                 + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
                 + tuple((i, i + 5) for i in range(5)), False),
}


@pytest.mark.parametrize("name", MIN_DEGREE_3)
def test_min_degree_3_has_a_proper_2_orientation_iff_cubic_and_bipartite(name):
    # the rule quad rests on, checked by brute force: with min degree >= 3
    # there is no proper 1-orientation, and a proper 2-orientation exists
    # exactly when every degree is 3 and the graph is bipartite
    edges, bipartite = MIN_DEGREE_3[name]
    g = Graph(n=1 + max(map(max, edges)), edges=edges)
    assert min(g.degrees()) >= 3 and g.m <= 15
    assert not brute_force_exists_proper_k(g, 1)
    cubic_bipartite = g.degrees() == [3] * g.n and bipartite
    assert brute_force_exists_proper_k(g, 2) == cubic_bipartite == (name in ("K33", "cube"))


def test_number_edgeless_is_zero():
    result = proper_orientation_number(parse_graph("3 0\n"), 4)
    assert result.value == 0
    assert verify_orientation(result.witness.graph, result.witness).proper


def test_long_path_needs_no_recursion():
    # 1500 vertices: a proper 1-orientation alternates indegrees 0 and 1, which
    # sum to 750, not 1499 edges; at k = 2 one exists
    g = path(1500)
    report = verify_orientation(g, exists_proper_k(g, 2))
    assert report.proper and report.max_indegree == 2
    assert exists_proper_k(g, 1) is None


@pytest.mark.parametrize("m", range(4, 61))
def test_pdw_has_no_proper_2_orientation(m):
    # a closed form: the 2m + 2 vertices take indegree <= 2, and each edge of
    # a perfect matching (the hub edges to 0 and 1, and the cycle edges
    # (2i, 2i+1) for i = 1..m-1) has
    # differing ends, so the indegrees sum to at most 3m + 3 < 4m = |E|
    assert exists_proper_k(pdw(m), 2) is None


@pytest.mark.parametrize("m", [16, 40])
def test_relabelled_pdw_has_no_proper_2_orientation(m):
    rng = random.Random(m)
    for _ in range(5):
        assert exists_proper_k(relabel(rng, pdw(m)), 2) is None


@pytest.mark.parametrize("m", [4, 5, 16, 60])
def test_pdw_proper_3_orientation(m):
    g = pdw(m)
    report = verify_orientation(g, exists_proper_k(g, 3))
    assert report.proper and report.max_indegree == 3


def test_agrees_with_brute_force_on_relabelled_random_graphs():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        g = random_connected_graph(rng, rng.randrange(4, 9))
        if g.m > 14:
            continue
        g = relabel(rng, g)
        for k in range(5):
            found = exists_proper_k(g, k) is not None
            assert found == brute_force_exists_proper_k(g, k), (g.edges, k)
        checked += 1


def _search_order(g):
    """g's edges in the order exists_proper_k decides them."""
    deg = g.degrees()
    return [g.edges[i] for i in sorted(
        range(g.m), key=lambda i: (-(deg[g.edges[i][0]] + deg[g.edges[i][1]]), i))]


def _equal_caps(g, k):
    """The caps min(k, deg) and the edges whose two ends share one."""
    cap = [min(k, d) for d in g.degrees()]
    return cap, [(u, v) for u, v in g.edges if cap[u] == cap[v]]


def _assert_equal_cap_matching(g, cap, pairs):
    edges = {frozenset(e) for e in g.edges}
    ends = [w for pair in pairs for w in pair]
    assert len(set(ends)) == len(ends)
    for u, v in pairs:
        assert u < v and frozenset((u, v)) in edges and cap[u] == cap[v]


def test_equal_cap_matching_is_maximum_on_bipartite_graphs():
    rng = random.Random(43)
    for _ in range(60):
        nx, ny = rng.randrange(2, 7), rng.randrange(2, 7)
        g = relabel(rng, random_bipartite_graph(rng, nx, ny, rng.randrange(1, min(ny, 3) + 1)))
        for k in range(1, 5):
            cap, equal = _equal_caps(g, k)
            pairs = _equal_cap_matching(g, cap, g.n)
            _assert_equal_cap_matching(g, cap, pairs)
            assert len(pairs) == brute_force_max_matching(equal), (g.edges, k)


def test_equal_cap_matching_is_a_matching_on_any_graph():
    # an odd cycle can hide a path from a search with no blossom step, so the
    # matching may fall short of a maximum one; it is never invalid
    rng = random.Random(44)
    for _ in range(60):
        g = relabel(rng, random_connected_graph(rng, rng.randrange(3, 10)))
        for k in range(1, 5):
            cap, equal = _equal_caps(g, k)
            pairs = _equal_cap_matching(g, cap, g.n)
            _assert_equal_cap_matching(g, cap, pairs)
            assert len(pairs) <= brute_force_max_matching(equal), (g.edges, k)


def test_equal_cap_matching_needs_no_recursion():
    # the path a - 0 - 1 - ... - 3997 - b with a = 3998 and b = 3999, its
    # inner edges listed last first so that each inner vertex reads its
    # higher neighbour first: from roots in id order the search matches
    # (0, 1), (2, 3), ..., (3996, 3997) one edge at a time, and root a then
    # meets one augmenting path through all 4000 vertices, far past the
    # recursion limit
    n = 4000
    a, b = n - 2, n - 1
    inner = tuple((i, i + 1) for i in reversed(range(n - 3)))
    g = Graph(n=n, edges=inner + ((a, 0), (n - 3, b)))
    inner_pairs = [(i, i + 1) for i in range(0, n - 2, 2)]
    assert _equal_cap_matching(g, [1] * n, len(inner_pairs)) == inner_pairs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        pairs = _equal_cap_matching(g, [1] * n, n // 2)
    finally:
        sys.setrecursionlimit(limit)
    assert pairs == [(0, a)] + [(i, i + 1) for i in range(1, n - 3, 2)] + [(n - 3, b)]


def test_equal_cap_matching_stops_at_enough():
    g = path(6)
    for enough in (-1, 0):
        assert _equal_cap_matching(g, [1] * g.n, enough) == []
    assert len(_equal_cap_matching(g, [1] * g.n, 2)) == 2
    assert len(_equal_cap_matching(g, [1] * g.n, 3)) == 3


# Relabelled random bipartite, 8 vertices and 13 edges, no degree below 2:
# at k = 2 every cap is 2, so a proper 2-orientation needs 13 <= 16 - |M|
# for every matching M.  A greedy matching in search order stops at 3 edges,
# which refutes nothing; a maximum matching has 4, which does.  So a greedy
# matching alone is not enough.
GREEDY_MISS = Graph(n=8, edges=(
    (2, 5), (3, 5), (5, 7), (0, 1), (6, 2), (2, 1), (4, 2), (3, 4), (1, 7), (4, 7),
    (7, 6), (0, 5), (6, 3)))


def test_maximum_matching_refutes_where_greedy_missed():
    g = GREEDY_MISS
    cap, equal = _equal_caps(g, 2)
    assert sum(cap) - g.m == 3 and len(equal) == g.m
    used = set()
    for u, v in _search_order(g):  # a greedy matching in search order
        if not {u, v} & used:
            used |= {u, v}
    assert len(used) == 2 * 3
    assert brute_force_max_matching(equal) == 4
    assert exists_proper_k(g, 2) is None
    assert not brute_force_exists_proper_k(g, 2)
    assert proper_orientation_number(g, 4).value == 3
    assert brute_force_exists_proper_k(g, 3)


def test_agrees_with_brute_force_on_relabelled_bipartite_graphs():
    # bipartite equal-cap edges are where the augmenting search refutes most
    rng = random.Random(45)
    for _ in range(60):
        nx, ny = rng.randrange(3, 6), rng.randrange(3, 6)
        pairs = [(x, nx + y) for x in range(nx) for y in range(ny)]
        edges = rng.sample(pairs, rng.randrange(6, min(14, len(pairs)) + 1))
        g = relabel(rng, Graph(n=nx + ny, edges=tuple(edges)))
        for k in range(1, 4):
            found = exists_proper_k(g, k) is not None
            assert found == brute_force_exists_proper_k(g, k), (g.edges, k)

import copy
import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

import orientkit.graphs as graphs_module
import orientkit.orientation as orientation_module
from conftest import (
    brute_force_mad,
    brute_force_spread_witness,
    flagged_graph_with_no_2_orientation,
    grid,
    random_bipartite_graph,
    random_connected_graph,
    relabel,
    spy,
    switching_graphs,
    unicyclic,
)
from orientkit.density import mad_exact
from orientkit.errors import (
    BadParamsError,
    MinDegreeTooSmallError,
    NotBipartiteError,
    OrientKitError,
    PreconditionDegreeError,
    PreconditionFailedError,
    PreconditionMadError,
    SizeMismatchError,
)
from orientkit.generators import complete_bipartite, cycle, path, pdw, q3, star, theorem4
from orientkit.graphs import Bipartition, Graph, X, Y, bipartition, parse_graph
from orientkit.orientation import (
    Infeasible,
    Orientation,
    k_orientation,
    proper_bipartite_orientation,
    proper_three_orientation,
    verify_orientation,
)


def indegrees(sigma):
    return verify_orientation(sigma.graph, sigma).indegrees


def test_c4_one_orientation_is_directed_cycle():
    g = cycle(4)
    sigma = k_orientation(g, 1)
    assert isinstance(sigma, Orientation)
    assert indegrees(sigma) == (1, 1, 1, 1)


def test_one_orientation_with_long_augmenting_paths():
    g = unicyclic(601)
    assert verify_orientation(g, k_orientation(g, 1)).max_indegree == 1


def test_k_orientation_builds_no_flow_network():
    # no module but flow.py imports flow (test_exports.py), so no max flow runs
    g = relabel(random.Random(300), pdw(300))
    result = k_orientation(g, 1)
    assert isinstance(result, Infeasible)
    vs = set(result.witness)
    assert sum(1 for u, v in g.edges if u in vs and v in vs) > len(vs)
    assert verify_orientation(g, k_orientation(g, 2)).max_indegree <= 2
    report = verify_orientation(g, proper_three_orientation(g))
    assert report.proper and report.max_indegree == 3


def test_witness_is_smallest_maximiser_relabelled():
    rng = random.Random(11)
    infeasible = [0] * 4
    for _ in range(200):
        n, p = rng.randint(2, 10), rng.choice([0.3, 0.6, 0.9])
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = relabel(rng, Graph(n=n, edges=tuple(edges)))
        for k in range(4):
            result = k_orientation(g, k)
            expected = brute_force_spread_witness(g, 1, k)
            if isinstance(result, Infeasible):
                assert result.witness == expected
                infeasible[k] += 1
            else:
                assert expected == ()
                assert verify_orientation(g, result).max_indegree <= k
    assert min(infeasible) > 0 and sum(infeasible) > 300


def test_hakimi_equivalence_relabelled():
    rng = random.Random(12)
    for _ in range(30):
        g = relabel(rng, random_connected_graph(rng, rng.randint(2, 8)))
        mad = brute_force_mad(g)
        for k in range(5):
            feasible = not isinstance(k_orientation(g, k), Infeasible)
            assert feasible == (mad <= 2 * k)


def test_a_warm_engine_call_equals_a_cold_one():
    # the engine keeps its per-edge arrays on the graph after the first call;
    # a later call at another (units, cap) must answer as one on a copy,
    # which starts with none
    rng = random.Random(13)
    infeasible = feasible = 0
    for _ in range(40):
        g = relabel(rng, random_connected_graph(rng, rng.randint(3, 9)))
        mad = brute_force_mad(g)
        p, q = mad.numerator, mad.denominator
        params = [(1, k) for k in range(4)] + [(2 * q, p - 1), (2 * q, p), (2 * q, p + 1)]
        rng.shuffle(params)
        for units, cap in params:
            cold = copy.copy(g)
            assert cold._arrays is None
            load, witness = orientation_module._spread(g, units, cap)
            assert g._arrays is not None
            assert (load, witness) == orientation_module._spread(cold, units, cap)
            infeasible += witness is not None
            feasible += witness is None
    assert min(infeasible, feasible) > 100


def test_mad_test_matches_brute_force_relabelled():
    # the Mad test at p/q is _spread(g, 2q, p); at caps just below, at and
    # above the brute-force Mad its witness is the smallest maximiser of
    # 2q|E(H)| - cap|H|, and a feasible load places each edge's 2q units
    # with no vertex above the cap, the O(m) certificate that Mad <= cap/2q
    rng = random.Random(4201)
    infeasible = feasible = 0
    for _ in range(40):
        g = relabel(rng, random_connected_graph(rng, rng.randint(2, 9)))
        mad = brute_force_mad(g)
        units, p = 2 * mad.denominator, mad.numerator
        for cap in (p - 1, p, p + 1):
            load, witness = orientation_module._spread(g, units, cap)
            if witness is not None:
                assert witness == brute_force_spread_witness(g, units, cap)
                infeasible += 1
                continue
            assert brute_force_spread_witness(g, units, cap) == ()
            assert len(load) == g.m
            held = [0] * g.n
            for (u, v), on_v in zip(g.edges, load):
                assert 0 <= on_v <= units
                held[u] += units - on_v
                held[v] += on_v
            assert max(held) <= cap
            feasible += 1
    assert (infeasible, feasible) == (40, 80)


def test_q3_one_orientation_infeasible():
    result = k_orientation(q3(), 1)
    assert isinstance(result, Infeasible)
    assert sorted(result.witness) == list(range(8))  # 12 edges > 1 * 8


def test_q3_two_orientation():
    sigma = k_orientation(q3(), 2)
    assert isinstance(sigma, Orientation)
    assert max(indegrees(sigma)) <= 2


def test_infeasible_witness_validity():
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 9))
        for k in range(3):
            result = k_orientation(g, k)
            if isinstance(result, Infeasible):
                vs = set(result.witness)
                inside = sum(1 for u, v in g.edges if u in vs and v in vs)
                assert inside > k * len(vs)
                checked += 1
    assert checked > 10


def test_indegree_sum_is_edge_count():
    rng = random.Random(6)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        sigma = k_orientation(g, g.n)
        assert sum(indegrees(sigma)) == g.m


def test_hakimi_equivalence_small():
    rng = random.Random(8)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8))
        if g.m == 0:
            continue
        mad = mad_exact(g).mad
        for k in range(5):
            feasible = not isinstance(k_orientation(g, k), Infeasible)
            assert feasible == (mad <= 2 * k)


def test_switching_c4():
    g = cycle(4)
    sigma = proper_bipartite_orientation(g, bipartition(g), X, 1)
    assert indegrees(sigma) == (2, 0, 2, 0)


def test_switching_q3():
    g = q3()
    part = bipartition(g)
    for x_class in (X, Y):
        sigma = proper_bipartite_orientation(g, part, x_class, 2)
        report = verify_orientation(g, sigma)
        assert report.proper
        for v in range(8):
            assert report.indegrees[v] == (3 if part.side[v] == x_class else 0)


def test_switching_star():
    # K_{1,3} centered at 0, X = {0}, k = 2: Mad = 6/4 <= 4, deg = 3 = k+1
    g = star(3)
    assert mad_exact(g).mad == Fraction(6, 4)
    sigma = proper_bipartite_orientation(g, bipartition(g), X, 2)
    assert indegrees(sigma) == (3, 0, 0, 0)
    assert verify_orientation(g, sigma).proper


def test_switching_degree_precondition():
    g = cycle(4)
    with pytest.raises(PreconditionDegreeError):
        proper_bipartite_orientation(g, bipartition(g), X, 2)  # deg 2 <= k


def test_switching_mad_precondition():
    # K_{3,3}: Mad = 3 > 2, no 1-orientation, but every X degree is 3 >= 2
    g = parse_graph("6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n")
    with pytest.raises(PreconditionMadError) as exc:
        proper_bipartite_orientation(g, bipartition(g), X, 1)
    vs = set(exc.value.witness)
    inside = sum(1 for u, v in g.edges if u in vs and v in vs)
    assert inside > len(vs)


def test_switching_refuses_an_unknown_class():
    # a class no vertex is in would switch nothing and leave 5 of q3's edges tied
    g = q3()
    with pytest.raises(BadParamsError, match="x_class"):
        proper_bipartite_orientation(g, bipartition(g), "Z", 2)


@pytest.mark.parametrize("other", [cycle(4), pdw(4)], ids=["smaller", "larger"])
def test_switching_refuses_a_bipartition_of_another_size(other):
    with pytest.raises(BadParamsError, match="sides for 8 vertices"):
        proper_bipartite_orientation(q3(), bipartition(other), X, 2)


def test_switching_refuses_a_bipartition_of_another_graph():
    # path(8)'s classes alternate along 0..7, so q3's edge 1 = (0, 2) joins
    # two X vertices; unchecked, the switching left edges 0, 3, 4, 7, 10 tied
    with pytest.raises(BadParamsError, match=r"^edge 1 = \(0, 2\) has both ends in class X$"):
        proper_bipartite_orientation(q3(), bipartition(path(8)), X, 2)


@pytest.mark.parametrize("seed", range(4))
def test_switching_refuses_a_side_flipped(seed):
    # flipping w's side breaks exactly w's edges; the first of them is named
    rng = random.Random(seed)
    g = relabel(rng, pdw(6))
    side = list(bipartition(g).side)
    w = rng.randrange(g.n)
    side[w] = Y if side[w] == X else X
    i = next(i for i, e in enumerate(g.edges) if w in e)
    u, v = g.edges[i]
    message = rf"^edge {i} = \({u}, {v}\) has both ends in class {side[w]}$"
    with pytest.raises(BadParamsError, match=message):
        proper_bipartite_orientation(g, Bipartition(side=tuple(side)), X, 2)


@pytest.mark.parametrize("relabel_side, message", [
    (lambda v, s: 0 if s == X else 1, "vertex 0 has class 0"),
    (lambda v, s: s.lower(), "vertex 0 has class 'x'"),
    (lambda v, s: s.lower() if v == 4 else s, "vertex 4 has class 'y'"),
], ids=["0/1", "lower-case", "one-vertex"])
def test_switching_refuses_a_class_other_than_x_or_y(relabel_side, message):
    # q3's classes are X Y Y X Y X X Y; unchecked, the 0/1 classes switched
    # no vertex (none is in class X) and left edges 3, 4, 7, 10, 11 tied
    g = q3()
    side = tuple(relabel_side(v, s) for v, s in enumerate(bipartition(g).side))
    with pytest.raises(BadParamsError, match=rf"^{message}, not 'X' or 'Y'$"):
        proper_bipartite_orientation(g, Bipartition(side=side), X, 2)


def _outcome(switch, g):
    """The direction tuple switch(g) returns, or the type and text of its error."""
    try:
        return switch(g).direction
    except OrientKitError as exc:
        return type(exc), str(exc)


def test_proper3_is_switching_on_class_x_at_k_2():
    outcomes = []
    for g in switching_graphs():
        outcome = _outcome(proper_three_orientation, g)
        assert outcome == _outcome(
            lambda h: proper_bipartite_orientation(h, bipartition(h), X, 2), g)
        outcomes.append(outcome[0] is PreconditionMadError)
    assert 0 < sum(outcomes) < len(outcomes)  # both outcomes are compared


@pytest.mark.parametrize("make, switch, error, engine_calls", [
    (lambda: cycle(3), proper_three_orientation, NotBipartiteError, 0),
    (lambda: cycle(4), proper_three_orientation, MinDegreeTooSmallError, 0),
    (lambda: star(3), lambda g: proper_bipartite_orientation(g, bipartition(g), Y, 2),
     PreconditionDegreeError, 0),
    (lambda: pdw(20), proper_three_orientation, None, 1),
    (flagged_graph_with_no_2_orientation, proper_three_orientation, PreconditionMadError, 1),
], ids=["odd-cycle", "min-degree", "class-degree", "pdw20", "no-2-orientation"])
def test_gates_run_before_the_engine(make, switch, error, engine_calls, monkeypatch):
    g = make()
    engine = spy(monkeypatch, (orientation_module, "k_orientation"))
    bfs = spy(monkeypatch, (graphs_module, "_bfs_forest"))
    if error is None:
        assert verify_orientation(g, switch(g)).proper
    else:
        with pytest.raises(error):
            switch(g)
    assert len(engine) == engine_calls
    assert len(bfs) == 1  # bipartition's, the only bipartite test on the way


def test_switching_only_flips_arcs_leaving_x():
    g = pdw(5)
    part = bipartition(g)
    base = k_orientation(g, 2)
    sigma = proper_bipartite_orientation(g, part, X, 2)
    for i, (u, v) in enumerate(g.edges):
        if base.direction[i] != sigma.direction[i]:
            original_tail = u if base.direction[i] else v
            assert part.side[original_tail] == X


def test_proper3_q3():
    sigma = proper_three_orientation(q3())
    report = verify_orientation(q3(), sigma)
    assert report.proper
    assert report.max_indegree == 3
    assert sorted(report.indegrees) == [0, 0, 0, 0, 3, 3, 3, 3]


def test_proper3_min_degree_gate():
    with pytest.raises(MinDegreeTooSmallError) as exc:
        proper_three_orientation(cycle(4))
    # one error family with the quadrangulation gates
    assert isinstance(exc.value, PreconditionFailedError)
    assert exc.value.gate == "min degree >= 3" and exc.value.degree == 2
    assert str(exc.value) == "precondition failed: min degree >= 3, got 2"


def test_proper3_beyond_the_planar_edge_bound():
    # K_{4,4} has 16 > 2n-4 = 12 edges but Mad = 4, so switching still works,
    # with or without the flag
    for planar in (False, True):
        g = Graph(n=8, edges=complete_bipartite(4, 4).edges, planar_asserted=planar)
        report = verify_orientation(g, proper_three_orientation(g))
        assert report.proper and report.max_indegree == 3


def test_proper3_refutes_a_false_planar_flag():
    g = flagged_graph_with_no_2_orientation()
    with pytest.raises(PreconditionMadError) as exc:
        proper_three_orientation(g)
    h = set(exc.value.witness)
    assert sum(u in h and v in h for u, v in g.edges) > 2 * len(h)


def _engine_instance(name):
    return {
        "pdw(300)": lambda: relabel(random.Random(300), pdw(300)),
        "grid(30x30)": lambda: relabel(random.Random(30), grid(30, 30)),
        "theorem4(1)": lambda: theorem4(1),
        "bipartite(400,300,3)": _bipartite_400_300,
    }[name]()


def _bipartite_400_300():
    """Relabelled: 400 X vertices of degree 3 into 300 Y vertices.  Its
    2-orientation takes two phases, and at k = 1 the vertices below cap
    fill before the phase's last source."""
    rng = random.Random(400)
    return relabel(rng, random_bipartite_graph(rng, 400, 300, 3))


def _sha256(result):
    """The arc text of an orientation, or the witness line of an Infeasible."""
    if isinstance(result, Infeasible):
        text = "witness: " + " ".join(map(str, result.witness)) + "\n"
    else:
        text = "".join(f"{tail} {head}\n" for tail, head in result.arcs())
    return hashlib.sha256(text.encode()).hexdigest()


# the engine's answers, orientation or witness, are deterministic: any
# rewrite of _spread or of the switching loop must leave them byte-identical
K_ORIENTATION_SHA256 = {
    "pdw(300)": (
        "30cde0f8622381c74aeb90a038d1da634eaf8fd0694fe5c0dbcfd33b40e290eb",
        "e82a0d67768c3b31712e44a89ab9f5fc11d2964654539b07f411e62d46ee4418",
        "6ecfd6c90d638e577368a18edbc8c0ece98ecadf3ddad5e0e35a9837606e2b29",
    ),
    "grid(30x30)": (
        "5764f0d9bb7d98295a5090854ccb65776a3d820becb76d004e26db8525166f81",
        "fa1f49eb4df709053c34763b39c22f03d7dd361c2d8f2ef1cd8fd098487731f8",
        "777cae671d49c97702b030c03eac201a349a3e5256359f52b6786254f7c701f8",
    ),
    "theorem4(1)": (
        "c2ded2141ea45504e8b525bee83adc47f6852525af8e98ce24f8ace28dea9ea6",
        "20efb773e4cafd62eb48c5b61b0805f5646c0bf81a2553023e561eb12616c5c9",
        "8055523bc7b093914525c97f79cb8821f3826dcb8b514499d4a18e1e8485c011",
    ),
    "bipartite(400,300,3)": (
        "642c9c308b0f1cd8b1e5fcb06ff01fb4770b9fb0335329aa4106ff40632cb96a",
        "b301a05384e36b7cf764899c3c200f23f856e060de0f3fe791cd658fbd97d5f9",
        "19dc1495dcaeb6ccd98a9418161b1924b6086c9a173ef628acd53e5e42311a00",
    ),
}
PROPER3_PDW300_SHA256 = "4c1d201cfc5f1c3618c484661f1e4b72ef5a79b64612791364efa5b413aa42b3"


@pytest.mark.parametrize("name", K_ORIENTATION_SHA256)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_orientation_is_pinned(name, k):
    result = k_orientation(_engine_instance(name), k)
    assert _sha256(result) == K_ORIENTATION_SHA256[name][k - 1]


def test_proper_three_orientation_is_pinned():
    sigma = proper_three_orientation(_engine_instance("pdw(300)"))
    assert _sha256(sigma) == PROPER3_PDW300_SHA256


def test_verify_directed_c4():
    g = cycle(4)
    sigma = Orientation(graph=g, direction=(True,) * 4)
    report = verify_orientation(g, sigma)
    assert report.indegrees == (1, 1, 1, 1)
    assert not report.proper
    assert len(report.violations) == 4


def test_verify_arcs_into_even():
    g = cycle(4)
    # arcs 1->0? direction picks heads 0 and 2 for each edge
    sigma = Orientation(graph=g, direction=(False, True, False, True))
    report = verify_orientation(g, sigma)
    assert report.indegrees == (2, 0, 2, 0)
    assert report.proper
    assert report.max_indegree == 2


def test_verify_size_mismatch():
    g = cycle(4)
    other = cycle(6)
    sigma = Orientation(graph=other, direction=(True,) * 6)
    with pytest.raises(SizeMismatchError):
        verify_orientation(g, sigma)
    short = Orientation(graph=g, direction=(True,) * 3)
    with pytest.raises(SizeMismatchError) as exc:
        verify_orientation(g, short)
    assert str(exc.value) == "orientation has 3 directions for 4 edges"

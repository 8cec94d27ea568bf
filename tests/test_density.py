import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    brute_force_densest,
    brute_force_mad,
    grid,
    random_connected_graph,
    relabel,
    spy,
    subset_density,
    unicyclic,
)
from orientkit import density, orientation
from orientkit.density import mad_exact, pseudoarboricity
from orientkit.errors import EmptyEdgeSetError
from orientkit.generators import complete_bipartite, cycle, path, pdw, q3, star, theorem4
from orientkit.graphs import Graph, parse_graph
from orientkit.orientation import _least_orientation, k_orientation, verify_orientation


def test_single_edge():
    # 2|E(H)|/|V(H)| peaks at the whole edge: 2*1/2 = 1
    report = mad_exact(parse_graph("2 1\n0 1\n"))
    assert report.mad == Fraction(1)
    assert sorted(report.witness) == [0, 1]
    assert brute_force_mad(parse_graph("2 1\n0 1\n")) == Fraction(1)


def test_q3():
    # brute-force over all 2^8 subsets gives 3 (frozen oracle value)
    report = mad_exact(q3())
    assert report.mad == Fraction(3)
    assert sorted(report.witness) == list(range(8))


def test_k23():
    # whole graph: 6 edges over 5 vertices; oracle confirms it is the maximizer
    report = mad_exact(complete_bipartite(2, 3))
    assert report.mad == Fraction(12, 5)
    assert sorted(report.witness) == [0, 1, 2, 3, 4]


def test_empty_edge_set():
    with pytest.raises(EmptyEdgeSetError):
        mad_exact(Graph(n=3, edges=()))


@pytest.mark.parametrize(
    "g",
    [path(4), cycle(5), cycle(6), star(4), complete_bipartite(3, 3), pdw(3), pdw(4)],
)
def test_matches_brute_force_families(g):
    report = mad_exact(g)
    assert report.mad == brute_force_mad(g)
    assert subset_density(g, report.witness) == report.mad


def test_matches_brute_force_random():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 9))
        if g.m == 0:
            continue
        report = mad_exact(g)
        assert report.mad == brute_force_mad(g)
        assert subset_density(g, report.witness) == report.mad
        assert report.mad.denominator <= g.n
        assert tuple(sorted(report.witness)) == brute_force_densest(g)


def test_witness_is_the_largest_densest_subset():
    # two disjoint K4s and a pendant vertex 8: each K4 has density 3, and so
    # does their union, which is the largest densest subset
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges = k4 + [(a + 4, b + 4) for a, b in k4] + [(8, 0)]
    g = Graph(n=9, edges=tuple(edges))
    report = mad_exact(g)
    assert report.mad == brute_force_mad(g) == Fraction(3)
    assert tuple(sorted(report.witness)) == brute_force_densest(g) == tuple(range(8))


def test_climbs_through_a_larger_sparser_subgraph():
    # K5 (density 4) bridged to pdw(20) (42 vertices, density 80/21), then a
    # 40-vertex tail: the first cut is K5 plus pdw(20), the next is K5 alone
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    wheel = [(u + 5, v + 5) for u, v in pdw(20).edges]
    tail = [(46 + i, 47 + i) for i in range(40)]
    report = mad_exact(Graph(n=87, edges=tuple(k5 + wheel + [(4, 5)] + tail)))
    assert report.mad == Fraction(4)
    assert sorted(report.witness) == [0, 1, 2, 3, 4]


def test_long_augmenting_paths():
    # every subgraph of a unicyclic graph has |E(H)| <= |V(H)|, so Mad = 2,
    # and the whole graph reaches it
    g = unicyclic(601)
    report = mad_exact(g)
    assert report.mad == Fraction(2)
    assert tuple(sorted(report.witness)) == tuple(range(601))


def test_mad_needs_at_most_two_engine_calls(monkeypatch):
    calls = spy(monkeypatch, (density, "_spread"))
    assert mad_exact(pdw(100)).mad == Fraction(2 * 400, 202)
    assert 1 <= len(calls) <= 2


def block_with_tail():
    """K(5,6) on 0..10 (density 60/11) with a 60-vertex path hanging off
    vertex 10, relabelled: each tail vertex adds one edge, so the block alone
    is densest.  Returns the graph and the block's new ids."""
    rng = random.Random(56)
    perm = list(range(71))
    rng.shuffle(perm)
    block = [(a, b) for a in range(5) for b in range(5, 11)]
    tail = [(10 + i, 11 + i) for i in range(60)]
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in block + tail]
    rng.shuffle(edges)
    return Graph(n=71, edges=tuple(edges)), perm[:11]


def test_mad_runs_no_max_flow():
    # no module but flow.py imports flow (test_exports.py), so no max flow runs
    assert mad_exact(pdw(100)).mad == Fraction(2 * 400, 202)
    g, block = block_with_tail()
    report = mad_exact(g)
    assert report.mad == Fraction(60, 11)
    assert report.witness == tuple(sorted(block))
    report = mad_exact(unicyclic(601))
    assert report.mad == Fraction(2)
    assert report.witness == tuple(range(601))


# (mad, witness) text, pinned so that a rewrite of the engine must leave it
# byte-identical
MAD_SHA256 = {
    "theorem4(4)": "2c56861f043b4769e3754c15b5f22ebcecd5ada15089a4a1dedc073949418c1e",
    "block-with-tail": "09963c4ec20f56ba7d63ab59d2b469cc8a97b5fd6b19de73e8ebdf06aec19acd",
    "pdw(300)": "3619069bf4d7e43b3e83ce29fd958867f5bda811832ea308733e366aafebe0df",
    "grid(30x30)": "434290e60c29655fecffe8c70d04e6d0bbc40ca227ada19eb9c48465fc258c8c",
}


@pytest.mark.parametrize("name", MAD_SHA256)
def test_mad_exact_is_pinned(name):
    # on the relabelled pdw the start's hand-offs place every unit; on the
    # relabelled grid they move 216 of 1568 excess units and 21 phases the rest
    g = {
        "theorem4(4)": lambda: theorem4(4),
        "block-with-tail": lambda: block_with_tail()[0],
        "pdw(300)": lambda: relabel(random.Random(300), pdw(300)),
        "grid(30x30)": lambda: relabel(random.Random(30), grid(30, 30)),
    }[name]()
    report = mad_exact(g)
    text = f"{report.mad}\n" + " ".join(map(str, report.witness)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == MAD_SHA256[name]


def test_engine_sees_only_the_core(monkeypatch):
    # calls[i][0] is the graph that mad_exact hands the engine
    calls = spy(monkeypatch, (density, "_spread"))
    g, block = block_with_tail()
    assert mad_exact(g).witness == tuple(sorted(block))
    # the 2-core drops the 60-vertex tail: the engine sees K(5,6) alone
    assert calls and max(args[0].n for args in calls) <= 11
    calls.clear()
    # pdw(100) has minimum degree 3 >= ceil(400/202): nothing is peeled
    assert mad_exact(pdw(100)).mad == Fraction(2 * 400, 202)
    assert [args[0].n for args in calls] == [202]


def test_peeled_graphs_match_brute_force(monkeypatch):
    # a dense core with pendant trees and tails, relabelled: the
    # ceil(m/n)-core drops every tree, so the engine sees fewer vertices
    calls = spy(monkeypatch, (density, "_spread"))
    rng = random.Random(2201)
    checked = 0
    while checked < 40:
        core = rng.randint(4, 6)
        edges = [e for e in combinations(range(core), 2) if rng.random() < 0.85]
        if len(edges) <= core:
            continue
        n = rng.randint(core + 1, 10)
        edges += [(rng.randrange(v), v) for v in range(core, n)]
        g = relabel(rng, Graph(n=n, edges=tuple(edges)))
        calls.clear()
        report = mad_exact(g)
        assert calls[0][0].n < g.n
        assert report.mad == brute_force_mad(g)
        assert report.witness == brute_force_densest(g)
        checked += 1


def test_equal_density_blocks_give_their_union():
    # K(3,6) and K(4,4) both have density 4; a tail hangs off each and a
    # pendant path off the first: the witness is the two blocks together
    k36 = [(a, b) for a in range(3) for b in range(3, 9)]
    k44 = [(a, b) for a in range(9, 13) for b in range(13, 17)]
    tails = [(8, 17), (17, 18), (18, 19), (16, 20), (20, 21), (0, 22)]
    g = relabel(random.Random(36), Graph(n=23, edges=tuple(k36 + k44 + tails)))
    report = mad_exact(g)
    assert report.mad == Fraction(4)
    assert len(report.witness) == 17
    assert subset_density(g, report.witness) == 4
    assert sum(1 for u, v in g.edges if {u, v} <= set(report.witness)) == 34


def test_a_nested_test_follows_a_peel(monkeypatch):
    # K5 (density 4) joined by an edge to K(3,3), with a 10-vertex tail off
    # K(3,3): the peel drops the tail, the test on the 11 core vertices finds
    # K5, and the nested test on K5 finds nothing denser
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    k33 = [(a, b) for a in range(5, 8) for b in range(8, 11)]
    tail = [(10 + i, 11 + i) for i in range(10)]
    rng = random.Random(5)
    perm = list(range(21))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in k5 + [(4, 5)] + k33 + tail]
    calls = spy(monkeypatch, (density, "_spread"))
    builds = spy(monkeypatch, (orientation, "_edge_arrays"))
    g = Graph(n=21, edges=tuple(edges))
    report = mad_exact(g)
    assert report.mad == Fraction(4)
    assert report.witness == tuple(sorted(perm[:5]))
    assert [args[0].n for args in calls] == [11, 5]
    # each induced subgraph builds its own engine arrays, and g builds none
    assert [id(args[0]) for args in builds] == [id(args[0]) for args in calls]
    assert g._arrays is None


def test_engine_arrays_are_built_once_per_graph(monkeypatch):
    builds = spy(monkeypatch, (orientation, "_edge_arrays"))
    engine = spy(monkeypatch, (density, "_spread"), (orientation, "_spread"))
    # pdw(30) is its own core and densest as a whole: every call is on g
    g = pdw(30)
    mad_exact(g)
    assert pseudoarboricity(g) == 2
    assert isinstance(k_orientation(g, 1), orientation.Infeasible)
    assert len(engine) == 3 and all(args[0] is g for args in engine)
    assert len(builds) == 1 and builds[0][0] is g
    # block_with_tail's loop steps from k = 2 to k = 3 on one graph
    builds.clear()
    engine.clear()
    g = block_with_tail()[0]
    assert pseudoarboricity(g) == 3
    assert [args[1:] for args in engine] == [(1, 2), (1, 3)]
    assert len(builds) == 1 and builds[0][0] is g


def test_relabelled_pdw_is_densest_as_a_whole():
    # pdw(2000): 8000 edges on 4002 vertices, densest as a whole
    g = relabel(random.Random(2000), pdw(2000))
    report = mad_exact(g)
    assert report.mad == Fraction(2 * 8000, 4002)
    assert report.witness == tuple(range(4002))


def test_witness_matches_brute_force_relabelled():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(2, 9)
        if rng.random() < 0.5:
            g = random_connected_graph(rng, n)
        else:
            p = rng.choice([0.3, 0.6, 0.9])
            g = Graph(n=n, edges=tuple(e for e in combinations(range(n), 2) if rng.random() < p))
        g = relabel(rng, g)
        if g.m == 0:
            continue
        report = mad_exact(g)
        assert report.mad == brute_force_mad(g)
        assert report.witness == brute_force_densest(g)


def test_monotone_under_edge_addition():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, 7)
        missing = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if (u, v) not in set(g.edges)
        ]
        if not missing:
            continue
        bigger = Graph(n=7, edges=g.edges + (rng.choice(missing),))
        assert mad_exact(bigger).mad >= mad_exact(g).mad


def test_pseudoarboricity_examples():
    assert pseudoarboricity(Graph(n=3, edges=())) == 0
    assert pseudoarboricity(q3()) == 2  # ceil(3/2)
    assert pseudoarboricity(theorem4(0)) == 2


def test_pseudoarboricity_is_ceil_half_mad():
    rng = random.Random(23)
    graphs = [path(5), cycle(6), star(5), complete_bipartite(3, 3), pdw(4)]
    graphs += [random_connected_graph(rng, rng.randint(2, 8)) for _ in range(15)]
    for _ in range(80):
        n = rng.randint(2, 9)
        if rng.random() < 0.5:
            g = random_connected_graph(rng, n)
        else:
            p = rng.choice([0.3, 0.6, 0.9])
            g = Graph(n=n, edges=tuple(e for e in combinations(range(n), 2) if rng.random() < p))
        graphs.append(relabel(rng, g))
    for g in graphs:
        if g.m == 0:
            continue
        mad = brute_force_mad(g)
        assert pseudoarboricity(g) == -(-mad.numerator // (2 * mad.denominator))


@pytest.mark.parametrize("make, value, calls", [
    # pdw(300) and theorem4(0) are bipartite planar, so every subgraph has
    # |E(H)| <= 2|H| - 4 and k = ceil(m/n) = 2 is already feasible
    (lambda: pdw(300), 2, 1),
    (lambda: theorem4(0), 2, 1),
    # ceil(90/71) = 2 fails on the block, ceil(30/11) = 3 succeeds
    (lambda: block_with_tail()[0], 3, 2),
], ids=["pdw(300)", "theorem4(0)", "block-with-tail"])
def test_pseudoarboricity_engine_calls(monkeypatch, make, value, calls):
    seen = spy(monkeypatch, (orientation, "k_orientation"))
    assert pseudoarboricity(make()) == value
    assert len(seen) == calls


@pytest.mark.parametrize("make", [
    lambda: Graph(n=0, edges=()),
    lambda: Graph(n=3, edges=()),
    lambda: pdw(300),
    lambda: theorem4(0),
    lambda: block_with_tail()[0],  # the loop steps from k = 2 to k = 3
], ids=["no-vertices", "edgeless", "pdw(300)", "theorem4(0)", "block-with-tail"])
def test_least_orientation_returns_the_orientation_it_stopped_at(make):
    g = make()
    k, sigma = _least_orientation(g)
    assert k == pseudoarboricity(g)
    assert verify_orientation(g, sigma).max_indegree <= k
    assert sigma == k_orientation(g, k)

import random
import sys

import pytest

from conftest import random_bipartite_graph
from orientkit.cnf import decode_model, dpll, export_cnf
from orientkit.errors import IncompleteModelError
from orientkit.exact import exists_proper_k
from orientkit.generators import complete_bipartite, cycle, path, q3, star, theorem4
from orientkit.graphs import parse_graph
from orientkit.orientation import verify_orientation


def test_single_edge_sat_and_decodes():
    g = parse_graph("2 1\n0 1\n")
    doc = export_cnf(g, 1)
    model = dpll(doc.clauses, doc.num_vars)
    assert model is not None
    sigma = decode_model(g, 1, model)
    report = verify_orientation(g, sigma)
    assert report.proper
    assert report.max_indegree <= 1


def test_c4_k1_unsat():
    doc = export_cnf(cycle(4), 1)
    assert dpll(doc.clauses, doc.num_vars) is None


def test_c4_k2_round_trip():
    g = cycle(4)
    doc = export_cnf(g, 2)
    model = dpll(doc.clauses, doc.num_vars)
    sigma = decode_model(g, 2, model)
    report = verify_orientation(g, sigma)
    assert report.proper
    assert report.max_indegree <= 2


def test_truncated_model_rejected():
    g = cycle(4)
    with pytest.raises(IncompleteModelError):
        decode_model(g, 2, [1, -2])


def test_theorem4_direction_variable_count():
    g = theorem4(0)
    doc = export_cnf(g, 3)
    assert g.m == 360
    header = doc.comments[0]
    assert "m=360" in header
    assert doc.comments[1] == "edge 0 : 0 112"
    assert doc.num_vars > 360


def test_dimacs_shape():
    doc = export_cnf(path(3), 1)
    text = doc.to_dimacs()
    lines = text.strip().splitlines()
    p_line = next(l for l in lines if l.startswith("p "))
    _, _, nvars, nclauses = p_line.split()
    assert int(nvars) == doc.num_vars
    assert int(nclauses) == len(doc.clauses)
    assert all(l.endswith(" 0") for l in lines if not l.startswith(("c", "p")))


CORPUS = [
    parse_graph("2 1\n0 1\n"),
    path(4),
    cycle(4),
    cycle(6),
    star(3),
    complete_bipartite(2, 3),
    q3(),
]


@pytest.mark.parametrize("g", CORPUS, ids=range(len(CORPUS)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sat_agrees_with_search(g, k):
    doc = export_cnf(g, k)
    model = dpll(doc.clauses, doc.num_vars)
    witness = exists_proper_k(g, k)
    assert (model is not None) == (witness is not None)
    if model is not None:
        report = verify_orientation(g, decode_model(g, k, model))
        assert report.proper
        assert report.max_indegree <= k


def test_sat_agrees_on_random_bipartite():
    rng = random.Random(31)
    for _ in range(5):
        g = random_bipartite_graph(rng, 3, 4, 2)
        for k in (1, 2):
            doc = export_cnf(g, k)
            sat = dpll(doc.clauses, doc.num_vars) is not None
            assert sat == (exists_proper_k(g, k) is not None)


def test_dpll_needs_no_recursion():
    # path(400) at k = 2 takes hundreds of decisions, far more than the limit
    g = path(400)
    doc = export_cnf(g, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        model = dpll(doc.clauses, doc.num_vars)
    finally:
        sys.setrecursionlimit(limit)
    report = verify_orientation(g, decode_model(g, 2, model))
    assert report.proper and report.max_indegree <= 2

import copy
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


def reference_dpll(clauses, num_vars):
    """The rescanning DPLL that cnf.dpll replaced, kept as the reference:
    propagation walks the whole clause list once per implied literal."""
    assign = {}

    def propagate(trail):
        while True:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                count = 0
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned = lit
                        count += 1
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    var = abs(unassigned)
                    assign[var] = unassigned > 0
                    trail.append(var)
                    changed = True
            if not changed:
                return True

    # one frame per open decision: its variable and the trail of the
    # propagation before it; the variable is tried True, then False
    frames = []
    trail = []
    while True:
        if propagate(trail):
            var = next((v for v in range(1, num_vars + 1) if v not in assign), None)
            if var is None:
                return [v if assign[v] else -v for v in range(1, num_vars + 1)]
            frames.append((var, trail))
            assign[var] = True
            trail = []
            continue
        for var in trail:
            del assign[var]
        while True:  # back up to the deepest decision still on True
            if not frames:
                return None
            var, trail = frames[-1]
            if assign[var]:
                assign[var] = False
                break
            frames.pop()
            del assign[var]
            for v in trail:
                del assign[v]
        trail = []


def random_cnf(rng):
    """Clauses over 1..num_vars and up to three variables above it, with
    empty, unit, repeated-literal and complementary-literal clauses."""
    num_vars = rng.randint(0, 8)
    top = num_vars + rng.randint(1, 3)
    clauses = []
    for _ in range(rng.randint(0, 16)):
        size = 0 if rng.random() < 0.02 else rng.choice((1, 2, 2, 3, 3, 3, 4))
        clause = [rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(size)]
        if clause and rng.random() < 0.15:
            clause.insert(rng.randint(0, len(clause)), rng.choice(clause))
        if clause and rng.random() < 0.1:
            clause.insert(rng.randint(0, len(clause)), -rng.choice(clause))
        clauses.append(clause)
    return clauses, num_vars


def test_dpll_matches_the_reference_on_random_cnfs():
    rng = random.Random(14)
    seen = dict.fromkeys(("empty", "unit", "repeat", "complement", "above", "no vars",
                          "sat", "unsat"), 0)
    for _ in range(3000):
        clauses, num_vars = random_cnf(rng)
        before = copy.deepcopy(clauses)
        model = dpll(clauses, num_vars)
        assert clauses == before, "dpll changed the caller's clauses"
        assert model == reference_dpll(clauses, num_vars), (clauses, num_vars)
        seen["empty"] += any(not c for c in clauses)
        seen["unit"] += any(len(c) == 1 for c in clauses)
        seen["repeat"] += any(len(set(c)) < len(c) for c in clauses)
        seen["complement"] += any(-lit in c for c in clauses for lit in c)
        seen["above"] += any(abs(lit) > num_vars for c in clauses for lit in c)
        seen["no vars"] += num_vars == 0
        seen["sat" if model is not None else "unsat"] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("clauses, num_vars, model", [
    ([[4]], 1, [1]),                       # a unit above num_vars is propagated
    ([[4], [-4]], 1, None),                # and can conflict
    ([[-1, 4, 4], [-1, -4, -4]], 1, [1]),  # a repeated literal is never a unit
    ([[]], 3, None),
    ([], 0, []),
    ([[1, -1], [-2]], 2, [1, -2]),
])
def test_dpll_corner_cases(clauses, num_vars, model):
    assert dpll(clauses, num_vars) == model == reference_dpll(clauses, num_vars)


@pytest.mark.parametrize("g", CORPUS, ids=range(len(CORPUS)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dpll_matches_the_reference_on_exported_cnfs(g, k):
    doc = export_cnf(g, k)
    assert dpll(doc.clauses, doc.num_vars) == reference_dpll(doc.clauses, doc.num_vars)

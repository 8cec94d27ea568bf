import copy
import hashlib
import random
import sys

import pytest

from conftest import random_bipartite_graph, random_connected_graph, relabel
from orientkit.cnf import CnfDocument, decode_model, dpll, export_cnf
from orientkit.errors import BadParamsError, IncompleteModelError
from orientkit.exact import exists_proper_k
from orientkit.generators import complete_bipartite, cycle, path, pdw, q3, star, theorem4
from orientkit.graphs import Graph, parse_graph
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


@pytest.mark.parametrize("model, var", [
    ([1, -1, 2, 3, 4], 1),
    ([-4, 1, 2, 3, 4], 4),
    ([1, 2, 3, 4, 9, -9], 9),  # an auxiliary variable is no exception
])
def test_contradictory_model_rejected(model, var):
    # letting the last literal win would decode [1, -1, 2, 3, 4] on C4 to an
    # improper orientation
    with pytest.raises(IncompleteModelError, match=f"^variable {var} set both"):
        decode_model(cycle(4), 2, model)


@pytest.mark.parametrize("k, model, error, match", [
    # a k = 2 model puts indegree 2 on vertex 2
    (1, None, IncompleteModelError, r"^vertex 2 has indegree 2 > k = 1$"),
    # the directed cycle 0 -> 1 -> 2 -> 3 -> 0 ties every edge
    (2, [1, 2, 3, 4], IncompleteModelError, r"^edge 0 = \(0, 1\) has indegree 1 at both ends$"),
    (0, None, BadParamsError, r"^k must be >= 1, got 0$"),
    (-5, None, BadParamsError, r"^k must be >= 1, got -5$"),
], ids=["vertex-above-k", "tied-edge", "k-zero", "negative-k"])
def test_decode_checks_its_k(k, model, error, match):
    g = cycle(4)
    if model is None:
        doc = export_cnf(g, 2)
        model = dpll(doc.clauses, doc.num_vars)
    with pytest.raises(error, match=match):
        decode_model(g, k, model)


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


def test_dimacs_text_of_a_built_document():
    # export_cnf never makes an empty clause, but a document built by hand
    # may: it prints " 0", and clauses of mixed lengths share no format
    doc = CnfDocument(num_vars=12, clauses=[[1, -2], [], (-12,), [3, 4, -5, 6], [7, 8]],
                      comments=["hand-built"])
    assert doc.to_dimacs() == (
        "c hand-built\np cnf 12 5\n1 -2 0\n 0\n-12 0\n3 4 -5 6 0\n7 8 0\n"
    )
    assert CnfDocument(num_vars=0, clauses=[]).to_dimacs() == "p cnf 0 0\n"


def test_huge_k_adds_no_work():
    # no bound binds at k >= the largest degree, and the properness clauses
    # stop at the shorter register, so k = 10**9 gives the k = 2 clauses at once
    g = cycle(4)
    assert export_cnf(g, 10**9).clauses == export_cnf(g, 2).clauses


def _random_nine():
    """A relabelled random connected graph on 9 vertices and 14 edges: a leaf,
    cycles and one vertex of degree 6."""
    rng = random.Random(36)
    return relabel(rng, random_connected_graph(rng, 9))


def _isolated_nine():
    """A 4-cycle 1-3-5-7 with the chord path 7-8-1, and 0, 2, 4, 6 isolated:
    the isolated vertices get no register bit."""
    return Graph(n=9, edges=((1, 3), (3, 5), (5, 7), (7, 1), (7, 8), (1, 8)))


PINNED_GRAPHS = {
    "q3()": q3, "pdw(8)": lambda: pdw(8), "cycle(6)": lambda: cycle(6),
    "theorem4(0)": lambda: theorem4(0), "star(5)": lambda: star(5), "path(4)": lambda: path(4),
    "theorem4(1)": lambda: theorem4(1), "random(9)": _random_nine,
    "isolated(9)": _isolated_nine,
}

# sha256 of export_cnf(g, k).to_dimacs() for k = 1..6: the whole text, so any
# change to a clause, its literal order or the variable numbering shows here.
# Between them the graphs have leaves, isolated vertices, a degree above k
# and a k past every degree.
DIMACS_SHA256 = {
    "q3()": (
        "1b60803cf84f3e3c1167dead782db942eb2decc3c53fa8c01df620a0941272ff",
        "11f0147392106ccd3297cdb72d00591166330d76a0eebe1beac1d84dd0878924",
        "c271cab0b3e38c60fed8ed1eed3e3efe21414a01a1686bf9071294be5a4720d2",
        "65e34f975304d461e36455968c99034c089d039143254594ccfe63df586a053a",
        "63ca21bf096089f26b359bf5ab7f805321b2549b5f9e8acd73522e70499c908a",
        "e24b28ea0616d1bea96129d36b30198a72cc7fe482c39cd4f9edbcb5b4ea3d4b",
    ),
    "pdw(8)": (
        "1ec61073935d2225a3499e247d89276b946d16b8de0ac25f1e278e4fd4965214",
        "fdfe0e52193e708d64d29c99a540330e0cb1cb94d264a07cc2afe7cf51badfdb",
        "3f271582665eba63a228f19f59f451df43f91dc65b096196ce3051d26b64280e",
        "c7a1df7dbe74aba75be6057f0c9b37d7ec9bdd32d823c180515b8f020a3ffe3c",
        "e900682de1e0bf0d43af0a0100a1ece74500c9a277527d00b3f036de9381f879",
        "95a9046125e71199d8cd12988b7be0316644521a610dfe197d9e1796e6c8acc4",
    ),
    "cycle(6)": (
        "d8e016fcb35c01442aba3859025f3699c9428358cecd3fc5a1783c49e859f00f",
        "b9fab7359133e0e27cbeb7288da1cc241dcdbaa15f22360148801d2916e32740",
        "0a6acc2dd8b47f58f2fb9372c98137171ccb551cba01249734e3366af1762113",
        "1b25e836b89536130b377110492069cdcb87b44a632079bbf4f016d264d5228b",
        "81afb83b7786cd69f939cc8d8668af4888d08da8fd239234c1271353a7746096",
        "adbf63e01ef13897f6f0e60e195c29264094b4dc5210019b3d823a23abf4d60a",
    ),
    "theorem4(0)": (
        "7b7dae40b13601e6866fbe2312345c0edab63c96edfc4a9038b415c8443abcdb",
        "8523d4433cf309e85154998e9ab08c77a117f243e1bc33a54ea7db1fb508c7d6",
        "3984c58d44a3ea8ade96f989d107f3871de4573c96af4070404e627a87f00933",
        "8845bc4567c5817446d03c168bd37a2f261d978b564b5042ea3b14e72216d413",
        "508cfc76c60a4c215cdbb0449799934b2becfc8f68a3f195b76378699e01b1d3",
        "c00161f4b8070d077c3559699692db24dcf9cf2b1eb4f51edd0f82bb77840a67",
    ),
    "star(5)": (
        "e1bb778108ef00b8bfc7764af5cdaa2269777c99d3549568f430c3e26524168b",
        "a6deab581f96910153351f5bcf498f18b533d14e22c4cd3a375e7550155bf7ce",
        "26622452e667bcd94ec090f1a3bb0f583eb3b8a9a330d8a6ef0facd155f09191",
        "d46fea144bd2432bddb04d1fa21484328df40d28c8a893035c07fa7de0e41649",
        "8324653f455ca0231c11b92d4e7f902c7f2a6cab93c72a36d5fa73093f6c1a6c",
        "c17d62140267ee16986d6533d025c2ba13c3cf9e0c8bc5674553d7d0f5780c6c",
    ),
    "path(4)": (
        "68b413be32ebeb1079b7b91206027d6112443966999653357050a6d8726fb4ab",
        "555cdf728a5c2711fd44220ca0fd8e317c790f9956440c2331140c0ed4fc3c71",
        "909445f369590ec1efed14a44b0da39cc2c26e5a11c894e525bfc540ae1a3f38",
        "7c5eaeaf7726ffc3522561e219bdb1d2c96d61b9eff4ec99a4cc4705a43efece",
        "ad2415259ae10266fd86fb9face6b29e9db2985e7e02961dc1006db37607c687",
        "3fcdddd9fc770eeaad3a8b395b5b165f5d6d979ba3f3880b37c2857adbafeb93",
    ),
    "theorem4(1)": (
        "6fbd0ec4566d426c1bb598bf2ae3d5e58d2ab84ac1e14285dfdcda0bcfd4337a",
        "3dc3ba07932e1fc624c1276aaaa796dbea75e1d80028db7afb1fbd54924e81cf",
        "69adda7a4fcb634bcdd6db86ba773d53a1aeb54e3f49681a831b23de07c3041d",
        "b732e46e440a1c91c2f46c53b9d03c5ee6e7c4606ccab9d9639d4c15f54c00f5",
        "0aab85a27a126beb9294dadc65ecf4a18d0d1ccbb65538c5e4d854ed6fceec28",
        "42a92ca59ddc8b68646595bc00b82fda8f00f96ae66e5583864a97b5e7c02cd5",
    ),
    "random(9)": (
        "0ef103c2ba79370d064a63151d976cbd5c62d17b4a486869b04d64de09751428",
        "3c083e9c16103dfa051c5a833eaa9bd17831eb3f816d3e1140f8515cda04ec1f",
        "d3016183093fafda1444082a09ee3f6b2bb3d02a0c125feab236b65fa2818751",
        "14bc4e4eb96e9abd04bb3386a6f094e00739149df4bd972560d606a7b234ca7d",
        "38b99a5b8166be72e5d49324da83d257a442efa588f198b343df8a60a65be736",
        "a762f767ca517be40f31ce66fcab99159aa093bfa1c6cb3857b5a493def62659",
    ),
    "isolated(9)": (
        "8e9b3dd07d737dfde21812f8658e5b02a77a2c03b11d6aef41f2dbaee49969f4",
        "863087cce5e8fd407898cac2810803ed8168a91951a1f3313fee7992a1c7002f",
        "fd2eee2fc294c15b3ff5d23711b8e8618ab8c673290fa9b1eca6b36d45802cba",
        "9b5ce2de8362cb40eed0f9d7257bddda633d0df9dbe6ade8ee75e8995eff4c8c",
        "7bb9dd1a5ba0f0a76670144712c3cfbaf2c6b559aca25e53ef628c01e5a0ad19",
        "9415345f980d1f296fd968f5da7497cf09e64494eda2693e811aeb7ce153b12e",
    ),
}


@pytest.mark.parametrize("spec", DIMACS_SHA256)
@pytest.mark.parametrize("k", range(1, 7))
def test_dimacs_text_is_pinned(spec, k):
    text = export_cnf(PINNED_GRAPHS[spec](), k).to_dimacs()
    assert hashlib.sha256(text.encode()).hexdigest() == DIMACS_SHA256[spec][k - 1]


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
            model = dpll(doc.clauses, doc.num_vars)
            sat = model is not None
            assert sat == (exists_proper_k(g, k) is not None)
            if sat:  # every SAT model passes decode's own check
                decode_model(g, k, model)


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
    """Clauses over 1..num_vars with empty, unit, repeated-literal and
    complementary-literal clauses; about one draw in six may also name 0 or
    up to three variables above num_vars."""
    num_vars = rng.randint(0, 8)
    low, top = 1, num_vars
    if rng.random() < 0.17:
        low, top = rng.choice((0, 1)), num_vars + rng.randint(1, 3)
    clauses = []
    for _ in range(rng.randint(0, 16)):
        size = 0 if top == 0 or rng.random() < 0.02 else rng.choice((1, 2, 2, 3, 3, 3, 4))
        clause = [rng.choice((-1, 1)) * rng.randint(low, top) for _ in range(size)]
        if clause and rng.random() < 0.15:
            clause.insert(rng.randint(0, len(clause)), rng.choice(clause))
        if clause and rng.random() < 0.1:
            clause.insert(rng.randint(0, len(clause)), -rng.choice(clause))
        clauses.append(clause)
    return clauses, num_vars


def test_dpll_matches_the_reference_on_random_cnfs():
    rng = random.Random(14)
    seen = dict.fromkeys(("empty", "unit", "repeat", "complement", "no vars", "sat",
                          "unsat", "outside", "zero"), 0)
    for _ in range(3000):
        clauses, num_vars = random_cnf(rng)
        before = copy.deepcopy(clauses)
        if any(not 0 < abs(lit) <= num_vars for c in clauses for lit in c):
            with pytest.raises(BadParamsError):
                dpll(clauses, num_vars)
            seen["outside"] += 1
            seen["zero"] += any(0 in c for c in clauses)
            continue
        model = dpll(clauses, num_vars)
        assert clauses == before, "dpll changed the caller's clauses"
        assert model == reference_dpll(clauses, num_vars), (clauses, num_vars)
        seen["empty"] += any(not c for c in clauses)
        seen["unit"] += any(len(c) == 1 for c in clauses)
        seen["repeat"] += any(len(set(c)) < len(c) for c in clauses)
        seen["complement"] += any(-lit in c for c in clauses for lit in c)
        seen["no vars"] += num_vars == 0
        seen["sat" if model is not None else "unsat"] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("clauses, num_vars, model", [
    ([[4]], 1, BadParamsError),                    # a variable above num_vars
    ([[4], [-4]], 1, BadParamsError),
    ([[-1, 4, 4], [-1, -4, -4]], 1, BadParamsError),
    ([[]], 3, None),
    ([], 0, []),
    ([[1, -1], [-2]], 2, [1, -2]),
    ([[2, 3], [-2, -3], [2, -3], [-2, 3]], 1, BadParamsError),  # unsatisfiable over 2, 3
    ([[1, 0]], 1, BadParamsError),                 # 0 ends a DIMACS clause, it is no literal
    ([[-1, 2, 2], [-1, -2, -2]], 2, [-1, 2]),      # a repeated literal is never a unit
])
def test_dpll_corner_cases(clauses, num_vars, model):
    if model is BadParamsError:
        with pytest.raises(BadParamsError):
            dpll(clauses, num_vars)
    else:
        assert dpll(clauses, num_vars) == model == reference_dpll(clauses, num_vars)


@pytest.mark.parametrize("g", CORPUS, ids=range(len(CORPUS)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dpll_matches_the_reference_on_exported_cnfs(g, k):
    doc = export_cnf(g, k)
    assert dpll(doc.clauses, doc.num_vars) == reference_dpll(doc.clauses, doc.num_vars)

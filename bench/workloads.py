"""The four workloads: seeded inputs, the jobs that run them, and their checks.

A job is one unit of user work.  ``run()`` calls the library, or for ``cli``
starts one ``python -m orientkit.cli`` child, and returns the answer.
``check(answer)`` returns ``None`` or the reason the answer is wrong, using
only ``oracle`` and closed forms; anything the checks need from the library
(the CNF text the CLI must reproduce) is computed while building the jobs.

Jobs reach the library through attribute lookups at call time (``ok.mad_exact``),
so tracing hooks and planted faults installed later are seen.

Sizes come from fixed ladders with a 1% seeded jitter, and the random graph
families are drawn from the seed at fixed sizes, so different seeds give
different inputs of nearly the same cost.  The pdw(m) decisions in ``exact``
use the canonical labelling: relabelling changes the search order and with
it the UNSAT search time by up to 180x.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

WORKLOADS = ("construct", "density", "exact", "cli")


@dataclass
class Job:
    label: str
    kind: str  # job type; for cli the subcommand
    run: Callable[[], object]
    check: Callable[[object], object]


def build(workload, seed, ok, workdir):
    """The job pool of ``workload`` for ``seed``; cli files go under ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    builders = {"construct": _construct, "density": _density, "exact": _exact, "cli": _cli}
    return builders[workload](ok, rng, workdir)


# ---------------------------------------------------------------- inputs


def _ladder(lo, hi, count):
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _jitter(rng, value, frac=0.01):
    return max(1, round(value * (1 + rng.uniform(-frac, frac))))


def _ceil(q):
    return -(-q.numerator // q.denominator)


def pdw_edges(m):
    """pdw(m) built here from its definition, to check generated files."""
    cycle = 2 * m
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(cycle, i) for i in range(0, cycle, 2)]
    edges += [(cycle + 1, i) for i in range(1, cycle, 2)]
    return edges


def grid_edges(rows, cols):
    at = lambda r, c: r * cols + c
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return rows * cols, edges


def relabel(rng, n, edges):
    """Shuffle vertex ids, endpoint order and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def k_orientable_bipartite(rng, nx, k):
    """Random bipartite graph, X = 0..nx-1 of degree k+1, with a k-orientation.

    Each x sends one arc to a Y vertex that takes at most k such arcs and
    receives its other k edges, so all indegrees are at most k.  Every Y
    vertex gets at least one edge, since fewer than k arc slots go unused.
    """
    ny = -(-nx // k)
    slots = [nx + j for j in range(ny) for _ in range(k)]
    rng.shuffle(slots)
    edges, heads = [], []
    for x in range(nx):
        out = slots[x]
        ins = [y for y in rng.sample(range(nx, nx + ny), k + 1) if y != out][:k]
        edges.append((x, out))
        heads.append(out)
        for y in ins:
            edges.append((y, x))
            heads.append(x)
    indeg, degree = [0] * (nx + ny), [0] * (nx + ny)
    for (u, v), head in zip(edges, heads):
        indeg[head] += 1
        degree[u] += 1
        degree[v] += 1
    if max(indeg) > k or min(degree) == 0:
        raise RuntimeError("k-orientable generator broke its own invariant")
    rng.shuffle(edges)
    return nx + ny, [e if rng.random() < 0.5 else e[::-1] for e in edges]


def planted_block(rng, a, b, background):
    """K_{a,b} block plus ``background`` vertices, each joined to 2 earlier
    vertices of the other side.

    With ab/(a+b) > 2 every subgraph H has |E(H)| <= ab/(a+b) |H|, with
    equality only for the block: block edges give at most ab/(a+b) per block
    vertex and each later vertex brings 2.  So Mad = 2ab/(a+b) and the block
    is the unique densest subgraph.  Vertex ids are shuffled.
    """
    side = [0] * a + [1] * b
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    for v in range(a + b, a + b + background):
        s = v % 2
        other = [u for u in range(v) if side[u] != s]
        for u in rng.sample(other, 2):
            edges.append((u, v))
        side.append(s)
    n = a + b + background
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return n, edges, {perm[v] for v in range(a + b)}


def _graph(ok, n, edges, planar=False):
    return ok.Graph(n=n, edges=tuple(edges), planar_asserted=planar)


def _edge_list(g):
    return g.n, g.edges


# ------------------------------------------------------------- construct


def _construct(ok, rng, workdir):
    """19 pdw(m), m log-spaced over 100..2500, and 6 random k-orientable
    bipartite graphs (k = 1, 2, 3 at two sizes), each given as edge-list text.
    The random graphs' cost varies with the seed, so they are sized to sit
    above the median job."""
    jobs = []
    for base in _ladder(100, 2500, 19):
        m = _jitter(rng, base)
        g = ok.generators.pdw(m)
        jobs.append(_construct_job(ok, f"proper3 pdw({m})", ok.serialize_graph(g),
                                   g.n, g.edges, None, 3))
    for nx in (1000, 1600):
        for k in (1, 2, 3):
            n, edges = k_orientable_bipartite(rng, nx, k)
            text = ok.serialize_graph(_graph(ok, n, edges))
            jobs.append(_construct_job(ok, f"proper{k + 1} bip(nx={nx},k={k})", text,
                                       n, edges, k, k + 1))
    return jobs


def _construct_job(ok, label, text, n, edges, k, expect_max):
    def run():
        g = ok.parse_graph(text)
        if k is None:
            sigma = ok.proper_three_orientation(g)
        else:
            part = ok.bipartition(g)
            sigma = ok.proper_bipartite_orientation(g, part, part.side[0], k)
        report = ok.verify_orientation(g, sigma)
        arcs = "".join(f"{t} {h}\n" for t, h in sigma.arcs())
        return report.proper, report.max_indegree, arcs

    def check(answer):
        proper, top, arcs = answer
        if not proper or top != expect_max:
            return f"library verifier says proper={proper} max_indegree={top}"
        return oracle.check_orientation(n, edges, oracle.parse_arcs(arcs),
                                        max_indegree=expect_max)

    return Job(label, "proper3" if k is None else "proper", run, check)


# --------------------------------------------------------------- density


def _density(ok, rng, workdir):
    """Mad, pseudoarboricity and the infeasible k_orientation below it on
    pdw(m) for m over 30..300, even cycles, theorem4(extra), and planted
    K_{a,b} blocks in sparse random bipartite graphs."""
    jobs = []
    for base in _ladder(30, 300, 7):
        m = _jitter(rng, base)
        g = ok.generators.pdw(m)
        jobs.append(_density_job(ok, f"pdw({m})", g, Fraction(8 * m, 2 * m + 2)))
    for half in (60, 150, 300):
        n = 2 * _jitter(rng, half)
        jobs.append(_density_job(ok, f"cycle({n})", ok.generators.cycle(n), Fraction(2)))
    for base in (0, 4, 8):
        extra = base + rng.randrange(2)
        g = ok.generators.theorem4(extra)
        jobs.append(_density_job(ok, f"theorem4({extra})", g,
                                 Fraction(720 + 4 * extra, 182 + extra)))
    for a, b in ((4, 5), (5, 5), (4, 6), (5, 6), (6, 6), (5, 7)):
        n, edges, block = planted_block(rng, a, b, 150)
        jobs.append(_density_job(ok, f"planted K({a},{b}) n={n}", _graph(ok, n, edges),
                                 Fraction(2 * a * b, a + b), block))
    return jobs


def _density_job(ok, label, g, mad, block=None):
    edges = g.edges

    def run():
        report = ok.mad_exact(g)
        pa = ok.pseudoarboricity(g)
        below = ok.k_orientation(g, pa - 1)
        return report.mad, tuple(report.witness), pa, below

    def check(answer):
        got, witness, pa, below = answer
        if got != mad:
            return f"Mad {got}, closed form {mad}"
        if not witness or oracle.density(edges, witness) != mad:
            return f"witness of {len(witness)} vertices is not a Mad witness"
        if block is not None and set(witness) != block:
            return "witness is not the planted block"
        if pa != _ceil(mad / 2):
            return f"pseudoarboricity {pa}, expected {_ceil(mad / 2)}"
        dense = getattr(below, "witness", None)
        if not dense or oracle.induced_edges(edges, dense) <= (pa - 1) * len(set(dense)):
            return f"k_orientation({pa - 1}) gave no dense-subgraph witness"
        return None

    return Job(label, "mad", run, check)


# ----------------------------------------------------------------- exact


def _exact(ok, rng, workdir):
    """Small decisions with known answers: pdw(m) at k = 2 (UNSAT) and 3
    (SAT), proper orientation numbers of graphs of at most 20 edges against
    the brute-force oracle, the quadrangulation dichotomy, CNF export + DPLL
    + decode, and the check-t4 steps.  A job is one whole question (both k
    for pdw, k = 1..3 for DPLL), so no job is timed in microseconds."""
    jobs = []
    for m in (4, 6, 8, 10, 12, 14, 16, 18, 20):
        jobs.append(_decide_job(ok, f"pdw({m}) k=2,3", ok.generators.pdw(m)))
    # The search cost of these small graphs swings with their answer, so
    # their shapes come from a fixed stream and the seed only relabels them.
    shapes = random.Random("exact-shapes")
    small = [("path(21)", *_edge_list(ok.generators.path(21))),
             ("cycle(16)", *_edge_list(ok.generators.cycle(16))),
             ("cycle(15)", *_edge_list(ok.generators.cycle(15)))]
    for rows, cols in ((2, 7), (3, 3), (3, 4)):
        small.append((f"grid({rows}x{cols})", *grid_edges(rows, cols)))
    for _ in range(6):
        nx, ny = shapes.randrange(4, 7), shapes.randrange(4, 7)
        pairs = [(x, nx + y) for x in range(nx) for y in range(ny)]
        edges = shapes.sample(pairs, shapes.randrange(12, min(19, len(pairs) + 1)))
        small.append((f"bip({nx}x{ny},m={len(edges)})", nx + ny, edges))
    for label, n, edges in small:
        jobs.append(_number_job(ok, label, _graph(ok, n, relabel(rng, n, edges))))
    q3 = ok.generators.q3()
    for label, g, value in (
        ("quad q3", q3, 2),
        ("quad pdw(3)", ok.generators.pdw(3), 2),
        *((f"quad pdw({m})", ok.generators.pdw(m), 3)
          for m in (rng.randrange(4, 12), rng.randrange(12, 40))),
    ):
        g = _graph(ok, g.n, relabel(rng, g.n, g.edges), planar=True)
        jobs.append(_quad_job(ok, label, g, value))
    tiny = [q3, ok.generators.cycle(8), ok.generators.complete_bipartite(3, 3),
            ok.generators.complete_bipartite(2, 4), _graph(ok, *grid_edges(3, 3)),
            _graph(ok, *grid_edges(3, 4))]
    for g in tiny:
        g = _graph(ok, g.n, relabel(rng, g.n, g.edges))
        jobs.append(_dpll_job(ok, f"dpll n={g.n} m={g.m} k=1..3", g))
    jobs.append(_cnf_export_job(ok, "cnf theorem4(0) k=3,4", ok.generators.theorem4(0)))
    jobs.extend(_t4_jobs(ok, rng.randrange(4)))
    return jobs


def _decide_job(ok, label, g):
    """pdw(m), m >= 4, has proper orientation number 3: UNSAT at 2, SAT at 3."""

    def run():
        two, three = ok.exists_proper_k(g, 2), ok.exists_proper_k(g, 3)
        return two is None, None if three is None else three.direction

    def check(answer):
        unsat, direction = answer
        if not unsat:
            return "proper 2-orientation found (known UNSAT)"
        if direction is None:
            return "no proper 3-orientation found (known SAT)"
        return oracle.check_orientation(
            g.n, g.edges, oracle.arcs_from_directions(g.edges, direction), at_most=3)

    return Job(label, "exists_proper_k", run, check)


def _number_job(ok, label, g):
    n, edges = g.n, g.edges
    expected = []  # filled by the oracle on first check

    def run():
        result = ok.proper_orientation_number(g, 5)
        return result.value, result.witness.direction

    def check(answer):
        value, direction = answer
        if not expected:
            expected.append(oracle.least_proper_k(n, edges, 5))
        if value != expected[0]:
            return f"value {value}, brute force says {expected[0]}"
        return oracle.check_orientation(
            n, edges, oracle.arcs_from_directions(edges, direction), max_indegree=value)

    return Job(label, "proper_orientation_number", run, check)


def _quad_job(ok, label, g, value):
    def run():
        return ok.quadrangulation_number(g)

    def check(got):
        return None if got == value else f"value {got}, known {value}"

    return Job(label, "quadrangulation_number", run, check)


def _dpll_job(ok, label, g):
    n, edges = g.n, g.edges
    ks = (1, 2, 3)
    expected = []

    def run():
        found = []
        for k in ks:
            doc = ok.export_cnf(g, k)
            model = ok.cnf.dpll(doc.clauses, doc.num_vars)
            found.append(None if model is None else ok.decode_model(g, k, model).direction)
        return found

    def check(found):
        if not expected:
            expected.extend(oracle.exists_proper(n, edges, k) for k in ks)
        for k, direction, sat in zip(ks, found, expected):
            if (direction is not None) != sat:
                return f"k={k}: SAT={direction is not None}, brute force says {sat}"
            if direction is not None:
                problem = oracle.check_orientation(
                    n, edges, oracle.arcs_from_directions(edges, direction), at_most=k)
                if problem:
                    return f"k={k}: {problem}"
        return None

    return Job(label, "dpll", run, check)


def _cnf_export_job(ok, label, g):
    m = g.m

    def run():
        return [(doc.num_vars, doc.clauses) for doc in (ok.export_cnf(g, k) for k in (3, 4))]

    def check(answer):
        for num_vars, clauses in answer:
            used = set()
            for clause in clauses:
                if not clause:
                    return "empty clause"
                for lit in clause:
                    if not 0 < abs(lit) <= num_vars:
                        return f"literal {lit} outside 1..{num_vars}"
                    used.add(abs(lit))
            if not set(range(1, m + 1)) <= used:
                return "some direction variable occurs in no clause"
        return None

    return Job(label, "export_cnf", run, check)


def _t4_jobs(ok, extra):
    t4_edges = ok.generators.theorem4(extra).edges
    counts = (1 << 14, 1 << 16, 1 << 14, 1 << 16)  # K_{7,2} and K_{8,2} gadgets

    def certificate():
        report = ok.verify_lower_bound_certificate()
        steps = (report.step1, report.step2a, report.step2b, report.step3)
        return report.conclusion, [(s.enumerated_count, len(s.counterexamples)) for s in steps]

    def check_certificate(answer):
        conclusion, steps = answer
        if not conclusion or steps != [(c, 0) for c in counts]:
            return f"certificate conclusion={conclusion} steps={steps}"
        return None

    def witness():
        sigma = ok.witness_four_orientation(extra)
        return sigma.graph.edges, sigma.direction

    def check_witness(answer):
        edges, direction = answer
        if tuple(edges) != tuple(t4_edges):
            return "witness is not an orientation of theorem4"
        return oracle.check_orientation(
            182 + extra, edges, oracle.arcs_from_directions(edges, direction),
            max_indegree=4)

    return [
        Job("t4 certificate", "t4proof", certificate, check_certificate),
        Job("t4 crosscheck", "t4proof", lambda: ok.t4proof.reduced_scale_crosscheck(),
            lambda passed: None if passed is True else "reduced-scale crosscheck failed"),
        Job(f"t4 witness extra={extra}", "t4proof", witness, check_witness),
    ]


# ------------------------------------------------------------------- cli

CHECK_T4_TAIL = [
    "step1: ok [16384 orientations]",
    "step2a: ok [65536 orientations]",
    "step2b: ok [16384 orientations]",
    "step3: ok [65536 orientations]",
    "reduced-scale crosscheck: ok",
    "witness (extra=0): proper=true max_indegree=4",
    "chi_orient = 4 certified: true",
]


def _cli(ok, rng, workdir):
    """One child process per job, on this checkout's src/: two
    gen -> proper3 -> verify pipelines joined by files, mad, exact, cnf,
    quad and check-t4, each compared to the known stdout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode as an installed package would

    def path(name):
        return os.path.join(workdir, name)

    def write(name, g):
        with open(path(name), "w") as fh:
            fh.write(ok.serialize_graph(g))
        return name

    def child(label, kind, args, check, stdout_file=None):
        cmd = [sys.executable, "-m", "orientkit.cli", *args]

        def run():
            if stdout_file is None:
                proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                                      text=True, timeout=120)
                return proc.returncode, proc.stdout
            with open(path(stdout_file), "w") as out:
                proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=out,
                                      stderr=subprocess.DEVNULL, timeout=120)
            return proc.returncode, ""

        def checked(answer):
            code, stdout = answer
            return f"exit code {code}" if code != 0 else check(stdout)

        return Job(label, kind, run, checked)

    def expect(*lines):
        text = "".join(line + "\n" for line in lines)
        return lambda out: None if out == text else f"stdout {out[:80]!r}"

    jobs = []
    for tag, base in (("a", 300), ("b", 1200)):
        m = _jitter(rng, base)
        graph_file, arcs_file = f"g{tag}.txt", f"o{tag}.txt"
        edges = pdw_edges(m)
        header = f"{2 * m + 2} {4 * m} planar\n"
        body = "".join(f"{u} {v}\n" for u, v in edges)

        def check_gen(out, graph_file=graph_file, text=header + body):
            with open(path(graph_file)) as fh:
                return None if fh.read() == text else "generated file differs from pdw"

        def check_arcs(out, arcs_file=arcs_file, n=2 * m + 2, edges=edges):
            with open(path(arcs_file)) as fh:
                arcs = oracle.parse_arcs(fh.read())
            return oracle.check_orientation(n, edges, arcs, max_indegree=3)

        jobs.append(child(f"gen pdw:{m}", "gen", ["gen", f"pdw:{m}", "-o", graph_file],
                          check_gen))
        jobs.append(child(f"proper3 pdw({m})", "proper3", ["proper3", graph_file],
                          check_arcs, stdout_file=arcs_file))
        jobs.append(child(f"verify pdw({m})", "verify",
                          ["verify", "--orientation", arcs_file, graph_file],
                          expect("proper=true max_indegree=3")))

    m = _jitter(rng, 40)
    extra = rng.randrange(4)
    for label, g, mad in (
        (f"mad pdw({m})", ok.generators.pdw(m), Fraction(8 * m, 2 * m + 2)),
        (f"mad theorem4({extra})", ok.generators.theorem4(extra),
         Fraction(720 + 4 * extra, 182 + extra)),
    ):
        def check_mad(out, g=g, mad=mad):
            lines = out.splitlines()
            if len(lines) != 2 or lines[0] != f"mad = {mad.numerator}/{mad.denominator}":
                return f"stdout {out[:80]!r}"
            witness = [int(v) for v in lines[1].removeprefix("witness:").split()]
            if not witness or oracle.density(g.edges, witness) != mad:
                return "witness density differs from Mad"
            return None

        name = write(f"mad{len(jobs)}.txt", g)
        jobs.append(child(label, "mad", ["mad", name], check_mad))

    n, edges = grid_edges(3, 3)
    nx, ny = rng.randrange(4, 6), rng.randrange(4, 6)
    bip = rng.sample([(x, nx + y) for x in range(nx) for y in range(ny)], rng.randrange(10, 15))
    for label, (n, edges) in (("grid(3x3)", (n, relabel(rng, n, edges))),
                              (f"bip({nx}x{ny},m={len(bip)})", (nx + ny, bip))):
        value = oracle.least_proper_k(n, edges, 4)
        name = write(f"exact{len(jobs)}.txt", _graph(ok, n, edges))
        jobs.append(child(f"exact {label}", "exact", ["exact", "--kmax", "4", name],
                          expect(f"chi_orient = {value}")))

    c6 = ok.generators.cycle(6)
    for label, g, k in (("cycle(6)", _graph(ok, 6, relabel(rng, 6, c6.edges)), 2),
                        (f"theorem4({extra})", ok.generators.theorem4(extra), 3)):
        name = write(f"cnf{len(jobs)}.txt", g)
        text = ok.export_cnf(g, k).to_dimacs()
        jobs.append(child(f"cnf -k {k} {label}", "cnf", ["cnf", "-k", str(k), name],
                          lambda out, text=text: None if out == text else "DIMACS differs"))

    quad_m = rng.randrange(4, 60)
    for label, g, value in ((f"pdw({quad_m})", ok.generators.pdw(quad_m), 3),
                            ("q3", ok.generators.q3(), 2)):
        g = _graph(ok, g.n, relabel(rng, g.n, g.edges), planar=True)
        name = write(f"quad{len(jobs)}.txt", g)
        jobs.append(child(f"quad {label}", "quad", ["quad", name],
                          expect(f"chi_orient = {value}")))

    def check_t4(out):
        tail = out.splitlines()[-len(CHECK_T4_TAIL):]
        return None if tail == CHECK_T4_TAIL else f"stdout tail {tail!r}"

    jobs.append(child("check-t4", "check-t4", ["check-t4"], check_t4))
    return jobs

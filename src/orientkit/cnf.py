"""DIMACS CNF export of "G has a proper k-orientation", plus a small DPLL
solver used as an in-process satisfiability cross-check.  The solver
decides CNFs over the variables 1..num_vars only, propagates over two
watched literals per clause and backtracks chronologically on an explicit
stack; it learns no clauses.

One boolean per edge gives the direction (true = arc from the first listed
endpoint into the second).  Each vertex v gets a two-sided sequential
counter over its incoming literals; register bit r(v,j) holds iff
indegree(v) >= j, for j up to min(deg v, k).  A register's bits are
consecutive variables, so it is kept as two ints, its first variable and
its width.  Each literal read rebuilds the register in three cases: the
first bit, with only the constant r(v,0) = true below it; the middle bits,
with a real bit below and beside; and, while the register still grows, the
new top bit, with the constant r(v,j) = false beside it.  Indegrees above k
are forbidden, and for every edge uv and every t up to the shorter of the
two registers a clause rules out indegree(u) = indegree(v) = t, with the
constant bits r(.,0) = true and r(.,j) = false past a register folded
away; a larger t is out of one end's reach and needs no clause.
"""

from __future__ import annotations

from itertools import chain

from .errors import BadParamsError, IncompleteModelError
from .graphs import _Record


class CnfDocument(_Record):
    """A DIMACS document; unlike the other records it is mutable and
    unhashable.  Comments default to a fresh empty list."""

    __slots__ = __match_args__ = ("num_vars", "clauses", "comments")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, num_vars, clauses, comments=None):
        self.num_vars = num_vars
        self.clauses = clauses
        self.comments = [] if comments is None else comments

    def to_dimacs(self):
        lines = [f"c {c}" for c in self.comments]
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        # one "%d ... %d 0\n" template per clause, all filled in one pass
        # from the chained literals; an empty clause prints " 0"
        formats = {n: " ".join(["%d"] * n) + " 0\n" for n in set(map(len, self.clauses))}
        template = "".join([formats[len(clause)] for clause in self.clauses])
        return "\n".join(lines) + "\n" + template % tuple(chain.from_iterable(self.clauses))


def export_cnf(g, k):
    """CNF satisfiable iff g admits a proper k-orientation.

    Direction variables are 1..m in edge-index order; a comment line
    "edge i : u v" documents each, so models decode back to orientations.
    """
    if k < 1:
        raise BadParamsError(f"k must be >= 1, got {k}")
    m = g.m
    comments = [f"proper {k}-orientation of graph with n={g.n} m={m}"]
    for i, (u, v) in enumerate(g.edges):
        comments.append(f"edge {i} : {u} {v}")

    clauses = []
    next_var = m + 1

    # incoming[v] = literals true exactly when the corresponding arc enters v
    incoming = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incoming[v].append(i + 1)
        incoming[u].append(-(i + 1))

    registers = []  # (first, width): r(v,j) is variable first + j - 1 for 1 <= j <= width
    for v in range(g.n):
        lits = incoming[v]
        top = min(len(lits), k)
        # r(v,1..width) over the literals read so far is first..first+width-1;
        # after lit it is new..new+width-1+grow
        first = width = 0
        for lit in lits:
            grow = width < top
            new = next_var
            next_var += width + grow
            # the first bit: only r(v,0) = true below it
            if width:
                clauses += ([-first, new], [-lit, new], [-new, first, lit])
            else:  # and r(v,1) = false beside it: the bit is lit
                clauses += ([-lit, new], [-new, lit])
            # the middle bits: a real bit below and beside; bit j of new is
            # was + shift, where was is bit j of the register
            shift = new - first
            for below in range(first, first + width - 1):
                was = below + 1
                bit = was + shift
                clauses += ([-was, bit], [-lit, -below, bit], [-bit, was, lit], [-bit, was, below])
            # the new top bit: r(v,j) = false beside it
            if width and grow:
                below, bit = first + width - 1, new + width
                clauses += ([-lit, -below, bit], [-bit, lit], [-bit, below])
            # forbid reaching k+1: not(lit & r(v,k))
            if width >= k:
                clauses.append([-lit, -(first + k - 1)])
            first, width = new, width + grow
        registers.append((first, width))

    # properness: for each edge uv and t, not both indegrees equal t; past
    # the shorter register one r(w,t) is constant false, so t stops there.
    # Both ends read the edge's literal, so both registers have r(.,1).
    for u, v in g.edges:
        fu, wu = registers[u]
        fv, wv = registers[v]
        top = min(wu, wv)
        clauses.append([fu, fv])
        for t in range(1, top):
            clauses.append([-(fu + t - 1), fu + t, -(fv + t - 1), fv + t])
        clause = [-(fu + top - 1)]
        if top < wu:
            clause.append(fu + top)
        clause.append(-(fv + top - 1))
        if top < wv:
            clause.append(fv + top)
        clauses.append(clause)

    return CnfDocument(num_vars=next_var - 1, clauses=clauses, comments=comments)


def decode_model(g, k, assignment):
    """Proper k-orientation read off the direction variables of a model.

    assignment is a DIMACS-style literal list; every direction variable
    1..m must appear, and no variable may appear with both signs.  The
    orientation is checked by verify_orientation: an edge whose ends get
    equal indegrees, or a vertex of indegree above k, is an
    IncompleteModelError naming it.  k < 1 is a BadParamsError.
    """
    from .orientation import Orientation, verify_orientation

    if k < 1:
        raise BadParamsError(f"k must be >= 1, got {k}")
    values = {}
    for lit in assignment:
        if lit and values.setdefault(abs(lit), lit > 0) != (lit > 0):
            raise IncompleteModelError(f"variable {abs(lit)} set both true and false")
    direction = []
    for i in range(g.m):
        if i + 1 not in values:
            raise IncompleteModelError(f"direction variable {i + 1} unassigned")
        direction.append(values[i + 1])
    sigma = Orientation(graph=g, direction=tuple(direction))
    report = verify_orientation(g, sigma)
    indeg = report.indegrees
    if report.violations:
        i = report.violations[0]
        u, v = g.edges[i]
        raise IncompleteModelError(f"edge {i} = ({u}, {v}) has indegree {indeg[u]} at both ends")
    if report.max_indegree > k:
        v = indeg.index(report.max_indegree)
        raise IncompleteModelError(f"vertex {v} has indegree {indeg[v]} > k = {k}")
    return sigma


def dpll(clauses, num_vars):
    """Complete DPLL with unit propagation; returns a model literal list or None.

    Every literal must name a variable of 1..num_vars; a literal 0 or a
    variable above num_vars raises BadParamsError.  The model is
    [v or -v for v in 1..num_vars].  Branching takes the lowest
    unassigned variable, True before False, with chronological
    backtracking.  Decisions live on an explicit stack, so long instances
    cannot exhaust Python's recursion limit.

    Propagation uses two watched literals (Chaff): each clause of two or more
    literals watches two of its positions, and assigning a literal visits
    only the clauses that watch its negation.  A clause is unit when all its
    positions but one are false and none is true, so a literal repeated in a
    clause counts once per occurrence.  Unit propagation reaches the same
    closure, or a conflict, in any order, so the search tree and the model
    are those of a solver that rescans every clause.  The clauses are watched
    as copies, because watching reorders them; the caller's lists are left
    as they are.

    Meant for the small cross-check instances, not as a production solver.
    """
    for lit in set().union(*clauses):
        if not 0 < abs(lit) <= num_vars:
            raise BadParamsError(f"literal {lit} is not a variable of 1..{num_vars}")
    # indexed by literal: value[-v] is at len - v, so one list holds both signs
    value = [0] * (2 * num_vars + 1)  # 1 true, -1 false, 0 unassigned
    watches = [[] for _ in range(2 * num_vars + 1)]
    trail = []  # the assigned literals in order
    for clause in clauses:
        if len(clause) >= 2:
            clause = list(clause)
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)
        elif not clause:
            return None
        else:
            lit = clause[0]
            if value[lit] < 0:
                return None
            if not value[lit]:
                value[lit], value[-lit] = 1, -1
                trail.append(lit)

    head = 0  # trail[head:] still has to be propagated

    def propagate():
        nonlocal head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            visit = watches[false_lit]
            kept = watches[false_lit] = []
            for i, clause in enumerate(visit):
                # put the false watch second
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if value[other] > 0:
                    kept.append(clause)
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if value[lit] >= 0:  # a new watch
                        clause[1], clause[j] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[other] < 0:
                        kept.extend(visit[i + 1:])
                        return False
                    value[other], value[-other] = 1, -1
                    trail.append(other)
        return True

    # one frame per open decision: its variable and the trail length before it;
    # the variable is tried True, then False
    frames = []
    while True:
        if propagate():
            # every variable below the deepest decision is assigned
            start = frames[-1][0] + 1 if frames else 1
            var = next((v for v in range(start, num_vars + 1) if not value[v]), None)
            if var is None:
                return [v if value[v] > 0 else -v for v in range(1, num_vars + 1)]
            frames.append((var, len(trail)))
            value[var], value[-var] = 1, -1
            trail.append(var)
            continue
        while True:  # back up to the deepest decision still on True
            if not frames:
                return None
            var, mark = frames[-1]
            retry = value[var] > 0
            for lit in trail[mark:]:
                value[lit] = value[-lit] = 0
            del trail[mark:]
            if retry:
                value[-var], value[var] = 1, -1
                trail.append(-var)
                head = mark
                break
            frames.pop()

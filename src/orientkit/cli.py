"""Command-line entry point.

Graphs stream through stdin/stdout in the edge-list format ("n m [planar]"
header, then "u v" lines) so subcommands compose with shell pipes.
Orientations are m lines "u v" meaning arc u -> v, in edge-index order.

Every text input (graph, arc list, orientation file, model file) is read
whole by ``_read_text`` and cut into lines as ``str.splitlines()`` cuts them
(``graphs.read_pairs`` reads a canonical arc list in one pass, with the same
result).  Every command returns its stdout text (``check-t4`` also its exit
code, ``gen --id-table`` also its stderr text), and only ``run()`` writes
them, to stdout or to ``-o FILE`` and then to stderr, once the command has
succeeded; so an error leaves stdout empty and prints one ``error:`` line.
Exit codes: 0 success, 1 domain error or out of memory, 2 usage, parse or
I/O error (closed stdin or stdout included).
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import chain

from . import __version__
from .errors import (
    BadParamsError,
    OrientKitError,
    ParseError,
    PreconditionMadError,
    SelfLoopError,
    VertexRangeError,
)
from .graphs import (
    bipartition,
    graph_from_pairs,
    parse_graph,
    read_ints,
    read_pairs,
    serialize_graph,
)


def _read_text(path):
    """The text of the file at path; None or "-" means stdin, and any other
    string, the empty one too, is a path."""
    if path is not None and path != "-":
        # undecodable bytes reach the tokenizer, which names their line
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.read()
    if sys.stdin is None:  # the process was started with stdin closed
        raise OSError("standard input is closed")
    return sys.stdin.read()


def _write_text(path, text):
    """Write text to the file at path; None or "-" means stdout, and any
    other string, the empty one too, is a path."""
    if path is not None and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    elif sys.stdout is None:  # the process was started with stdout closed
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _arcs_text(sigma):
    # one "%d %d\n" template for every arc, filled in one pass from the
    # chained arcs, with no string per line
    return "%d %d\n" * sigma.graph.m % tuple(chain.from_iterable(sigma.arcs()))


def _read_graph(args):
    return parse_graph(_read_text(args.input))


def _read_orientation(g, path):
    from .orientation import Orientation

    arcs, line_numbers = read_pairs(_read_text(path))
    if len(arcs) != g.m:
        raise ParseError(f"orientation file has {len(arcs)} arcs, graph has {g.m} edges")
    direction = []
    for (u, v), (tail, head), line in zip(g.edges, arcs, line_numbers):
        if (tail, head) not in ((u, v), (v, u)):
            raise ParseError(f"arc {tail}->{head} does not match edge ({u},{v})", line)
        direction.append(tail == u)  # u != v: Graph refuses self-loops
    return Orientation(graph=g, direction=tuple(direction))


def _cmd_mad(args):
    from .density import mad_exact

    report = mad_exact(_read_graph(args))
    witness = " ".join(str(v) for v in sorted(report.witness))
    return f"mad = {report.mad.numerator}/{report.mad.denominator}\nwitness: {witness}\n"


def _cmd_orient(args):
    from .orientation import Infeasible, k_orientation

    result = k_orientation(_read_graph(args), args.k)
    if isinstance(result, Infeasible):
        raise PreconditionMadError(args.k, result.witness)
    return _arcs_text(result)


def _cmd_proper(args):
    from .orientation import proper_bipartite_orientation

    g = _read_graph(args)
    # class X holds the smallest vertex of every connected component, vertex 0
    # among them, so "auto" and "0" coincide
    x_class = "Y" if args.x_class == "1" else "X"
    return _arcs_text(proper_bipartite_orientation(g, bipartition(g), x_class, args.k))


def _cmd_proper3(args):
    from .orientation import proper_three_orientation

    return _arcs_text(proper_three_orientation(_read_graph(args)))


def _cmd_exact(args):
    from .exact import proper_orientation_number

    return f"chi_orient = {proper_orientation_number(_read_graph(args), args.kmax).value}\n"


def _cmd_quad(args):
    from .exact import quadrangulation_number

    return f"chi_orient = {quadrangulation_number(_read_graph(args))}\n"


def _cmd_cnf(args):
    from .cnf import export_cnf

    return export_cnf(_read_graph(args), args.k).to_dimacs()


def _cmd_decode(args):
    from .cnf import decode_model

    g = _read_graph(args)
    literals = []
    for lineno, line in enumerate(_read_text(args.model).splitlines(), 1):
        parts = line.split()
        if parts and parts[0] in ("c", "s"):  # DIMACS comment and status lines
            continue
        if parts and parts[0] == "v":
            parts = parts[1:]
        literals += read_ints(parts, lineno)
    return _arcs_text(decode_model(g, args.k, literals))


def _cmd_gen(args):
    from .generators import generate, theorem4_id_table

    name, colon, raw = args.family.partition(":")
    params = read_ints(raw.split(",")) if colon else []
    if args.id_table and name != "t4":
        raise BadParamsError("--id-table needs the t4 family")
    text = serialize_graph(generate(name, params))
    if not args.id_table:
        return text
    table = theorem4_id_table(*params).items()
    return text, 0, "".join(f"# {role}: {first}..{last}\n" for role, (first, last) in table)


def _cmd_verify(args):
    from .orientation import Orientation, verify_orientation

    if args.orientation is not None:
        g = _read_graph(args)
        sigma = _read_orientation(g, args.orientation)
    else:
        # bare arc list: the arcs carry both the graph and sigma.  Properness
        # and indegrees ignore isolated vertices, so only the ids that occur
        # are numbered, in order of first appearance: a huge id allocates nothing.
        arcs, line_numbers = read_pairs(_read_text(args.input))
        dense = {}
        for i, ((u, v), line) in enumerate(zip(arcs, line_numbers)):
            if u < 0 or v < 0:
                raise VertexRangeError(f"edge {i} = ({u}, {v}): vertex ids must be >= 0", line)
            if u == v:
                raise SelfLoopError(f"edge {i} is a self-loop at vertex {u}", line)
            dense.setdefault(u, len(dense))
            dense.setdefault(v, len(dense))
        g = graph_from_pairs(len(dense), [(dense[u], dense[v]) for u, v in arcs], line_numbers)
        sigma = Orientation(graph=g, direction=tuple(True for _ in arcs))
    report = verify_orientation(g, sigma)
    return f"proper={str(report.proper).lower()} max_indegree={report.max_indegree}\n"


def _cmd_check_t4(args):
    from .orientation import verify_orientation
    from .t4proof import (
        reduced_scale_crosscheck,
        verify_lower_bound_certificate,
        witness_four_orientation,
    )

    if args.emit_witness == "-":
        raise BadParamsError("--emit-witness needs a file: stdout carries the report")
    sigma = witness_four_orientation(args.extra)  # checks --extra before any enumeration
    if args.emit_witness is not None:  # a bad path fails before any enumeration too
        _write_text(args.emit_witness, _arcs_text(sigma))
    report = verify_lower_bound_certificate()
    lines = list(report.narrative)
    for name, gadget in (
        ("step1", report.step1),
        ("step2a", report.step2a),
        ("step2b", report.step2b),
        ("step3", report.step3),
    ):
        status = "ok" if gadget.ok else f"FAILED ({len(gadget.counterexamples)} counterexamples)"
        lines.append(f"{name}: {status} [{gadget.enumerated_count} orientations]")
    crosscheck = reduced_scale_crosscheck()
    lines.append(f"reduced-scale crosscheck: {'ok' if crosscheck else 'FAILED'}")
    wreport = verify_orientation(sigma.graph, sigma)
    lines.append(
        f"witness (extra={args.extra}): proper={str(wreport.proper).lower()} "
        f"max_indegree={wreport.max_indegree}"
    )
    certified = report.conclusion and crosscheck and wreport.proper and wreport.max_indegree == 4
    lines.append(f"chi_orient = 4 certified: {str(certified).lower()}")
    return "".join(f"{line}\n" for line in lines), 0 if certified else 1


def _int_option(text):
    """Integer options follow the tokenizer rule of every text input."""
    try:
        return read_ints([text])[0]
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orientkit",
        description="Proper orientations of bipartite planar graphs: path "
        "reversal, switching, exact search, generators, and the tightness "
        "certificate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("mad", _cmd_mad, help="exact maximum average degree with witness")
    p.add_argument("input", nargs="?", help="edge-list file (default stdin)")

    p = add("orient", _cmd_orient, help="k-orientation by path reversal")
    p.add_argument("-k", type=_int_option, required=True)
    p.add_argument("input", nargs="?")

    p = add("proper", _cmd_proper, help="proper (k+1)-orientation by switching")
    p.add_argument("-k", type=_int_option, required=True)
    p.add_argument("--x-class", choices=["auto", "0", "1"], default="auto")
    p.add_argument("input", nargs="?")

    p = add("proper3", _cmd_proper3, help="proper 3-orientation (min degree >= 3)")
    p.add_argument("input", nargs="?")

    p = add("exact", _cmd_exact, help="exact proper orientation number")
    p.add_argument("--kmax", type=_int_option, default=6)
    p.add_argument("input", nargs="?")

    p = add("quad", _cmd_quad, help="quadrangulation dichotomy (3, or 2 for the cube)")
    p.add_argument("input", nargs="?")

    p = add("cnf", _cmd_cnf, help="DIMACS CNF for a proper k-orientation")
    p.add_argument("-k", type=_int_option, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("input", nargs="?")

    p = add("decode", _cmd_decode, help="decode a SAT model back to an orientation")
    p.add_argument("-k", type=_int_option, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("input", nargs="?")

    p = add("gen", _cmd_gen, help="instance generators")
    p.add_argument(
        "family",
        help="q3 | pdw:M | t4:EXTRA | kbip:A,B | path:N | cycle:N | star:N",
    )
    p.add_argument("-o", "--output")
    p.add_argument("--id-table", action="store_true", help="print the t4 id layout to stderr")

    p = add("verify", _cmd_verify, help="recount indegrees and properness")
    p.add_argument("--orientation", help="orientation file; graph then comes on stdin")
    p.add_argument("input", nargs="?")

    p = add("check-t4", _cmd_check_t4, help="tightness certificate for the delta=2 instance")
    p.add_argument("--extra", type=_int_option, default=0)
    p.add_argument("--emit-witness", help="write the witness arcs to this file (not -)")

    return parser


# Error type -> exit code; the first matching row wins.
EXIT_CODES = {ParseError: 2, BadParamsError: 2, OSError: 2, OrientKitError: 1}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)  # the stdout text, or (text, exit code[, stderr text])
        text, code, *note = result if isinstance(result, tuple) else (result, 0)
        _write_text(getattr(args, "output", None), text)
        if note:  # stderr text goes out only once the stdout text is written
            print(note[0], end="", file=sys.stderr)
        return code
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    except MemoryError:  # n is not yet bounded before the graph is allocated
        print("error: out of memory", file=sys.stderr)
        return 1


def main():
    if sys.stdin is not None:  # decode stdin like the input files, whatever the locale
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        sys.exit(run())
    finally:
        # The process ends next, and its finalization runs full collections
        # over every object still alive (argparse, the command's modules);
        # frozen objects are skipped, so each command ends 6-10 ms sooner,
        # and objects still in reference cycles are no longer finalized.
        # run() has no freeze: it is also called in process (the tests),
        # whose heap the collector must keep reaching.
        gc.freeze()


if __name__ == "__main__":
    main()

"""The CLI checks that need the interpreter: monkeypatched library calls,
mocks, property tests and comparisons with library results.  A check whose
stdout, stderr and exit code a shell can show is a block of tests/cli.txt
instead, with one exception: ERROR_TABLE holds the error inputs that no
block shows, run in process, because a block per row would start a process
per row.  test_error_exit_codes checks that exception: no row's
subcommand and stderr line are those of a block that exits non-zero
(SHOWN_ERRORS)."""

import contextlib
import gc
import hashlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import transcript
from conftest import flagged_graph_with_no_2_orientation, relabel, switching_graphs
from orientkit import __version__
from orientkit.cli import build_parser, main, run
from orientkit.graphs import parse_graph
from orientkit.generators import FAMILIES, complete_bipartite, q3, cycle, pdw
from orientkit.graphs import Y, bipartition, serialize_graph
from orientkit.t4proof import check_left_pigeonhole


def cli(argv, stdin=""):
    """run(argv) in process with stdin as its standard input: the exit code,
    the stdout text and the stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


C4 = serialize_graph(cycle(4))


def test_gen_q3():
    code, out, err = cli(["gen", "q3"])
    assert (code, err) == (0, "")
    g = parse_graph(out)
    assert (g.n, g.m, g.planar_asserted) == (8, 12, True)


def test_gen_aliases():
    code, out, _ = cli(["gen", "t4:2"])
    assert code == 0 and parse_graph(out).n == 184
    code, out, _ = cli(["gen", "kbip:2,3"])
    assert code == 0 and parse_graph(out).m == 6
    assert cli(["gen", "nosuch"])[0] == 2


def test_gen_help_lists_the_families_table():
    # cli does not import generators to build its parser, so the list is a
    # literal; it must name the table's families, in the table's order
    gen = build_parser()._subparsers._group_actions[0].choices["gen"]
    family = next(action for action in gen._actions if action.dest == "family")
    names = [token.partition(":")[0] for token in family.help.split(" | ")]
    assert names == list(FAMILIES)


def test_mad():
    assert cli(["mad"], serialize_graph(q3())) == (0, "mad = 3/1\nwitness: 0 1 2 3 4 5 6 7\n", "")


@pytest.mark.parametrize("family, digest", [
    ("pdw:50", "0bf09b6acbf6d005d47a8373a7652bea106332bf5a27b074d2bc7ca7464ff014"),
    ("t4:1", "3d8c8fdddfe372a1673c1c0819c676665a33e6315167ae9529f0de4d2d23bfd2"),
    ("cycle:8", "9c4590134d727822e0758998dc00629e27b25fb3302f4d506d6c1ecd05394047"),
], ids=["pdw:50", "t4:1", "cycle:8"])
def test_mad_bytes_are_pinned(family, digest):
    code, text, _ = cli(["gen", family])
    assert code == 0
    code, out, err = cli(["mad"], text)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orient_feasible():
    code, out, err = cli(["orient", "-k", "1"], serialize_graph(cycle(4)))
    assert (code, err) == (0, "")
    arcs = [tuple(map(int, l.split())) for l in out.splitlines()]
    assert len(arcs) == 4


def test_every_switching_command_names_the_same_dense_subset(tmp_path):
    # all four ask k_orientation(g, 2) of a graph that passes every other gate
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(flagged_graph_with_no_2_orientation()))
    results = {cli(argv + [str(path)])
               for argv in (["orient", "-k", "2"], ["proper", "-k", "2"], ["proper3"], ["quad"])}
    assert len(results) == 1
    code, out, err = results.pop()
    assert (code, out) == (1, "")
    assert err.startswith("error: no 2-orientation exists (dense subset of ")
    assert len(err.splitlines()) == 1


def test_proper3_prints_what_proper_k_2_prints():
    for g in switching_graphs():
        text = serialize_graph(g)
        assert cli(["proper3"], text) == cli(["proper", "-k", "2"], text)


def test_proper_x_class(tmp_path):
    # --x-class 1 switches on class Y: indegree 3 exactly there; class X
    # holds vertex 0, so "0" and the default "auto" are the same run
    g = q3()
    text = serialize_graph(g)
    outputs = {}
    for x_class in ("1", "0", None):
        argv = ["proper", "-k", "2"] + (["--x-class", x_class] if x_class else [])
        code, outputs[x_class], err = cli(argv, text)
        assert (code, err) == (0, "")
    assert outputs["0"] == outputs[None] != outputs["1"]
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(outputs["1"])
    verified = cli(["verify", "--orientation", str(sigma)], text)
    assert verified == (0, "proper=true max_indegree=3\n", "")
    side = bipartition(g).side
    heads = [head for _, head in (map(int, line.split()) for line in outputs["1"].splitlines())]
    assert [heads.count(v) for v in range(g.n)] == [3 if side[v] == Y else 0 for v in range(g.n)]
    # class Y of K_{1,3} is its three leaves, and the first one is named
    star = serialize_graph(complete_bipartite(1, 3))
    assert cli(["proper", "-k", "2", "--x-class", "1"], star) == (
        1, "", "error: vertex 1 has degree 1 <= k = 2\n"
    )


@pytest.mark.parametrize("command", ["proper3", "quad"])
def test_proper3_and_quad_ignore_the_planar_flag(command):
    flagged = serialize_graph(pdw(7))
    header, body = flagged.split("\n", 1)
    assert header.endswith(" planar")
    unflagged = header.removesuffix(" planar") + "\n" + body
    code, out, err = cli([command], flagged)
    assert (code, err) == (0, "")
    assert cli([command], unflagged) == (code, out, err)


def test_quad_refuses_a_false_planar_flag():
    # every gate but the 2-orientation passes, so trusting the flag would print 3
    code, out, err = cli(["quad"], serialize_graph(flagged_graph_with_no_2_orientation()))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no 2-orientation exists (dense subset of ")


@pytest.mark.parametrize("argv", [
    ["gen", "t4:0", "--id-table"], ["quad", "{g}"], ["proper3", "{g}"], ["check-t4"],
], ids=["gen-id-table", "quad", "proper3", "check-t4"])
def test_closed_stdout(argv, tmp_path, capsys, monkeypatch):
    # started with stdout closed ("orientkit gen q3 >&-"), Python sets sys.stdout to None
    (tmp_path / "g.txt").write_text(serialize_graph(q3()))
    monkeypatch.setattr("sys.stdout", None)
    assert run([arg.format(g=tmp_path / "g.txt") for arg in argv]) == 2
    assert capsys.readouterr().err == "error: standard output is closed\n"


def test_closed_stdout_with_an_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", None)
    target = tmp_path / "g.txt"
    assert run(["gen", "q3", "-o", str(target)]) == 0
    assert capsys.readouterr().err == ""
    assert target.read_text() == serialize_graph(q3())


def test_proper3_odd_cycle():
    assert cli(["proper3"], serialize_graph(cycle(3))) == (
        1, "", "error: not bipartite (odd cycle 1-0-2)\n"
    )


def test_parse_error_exit_code():
    assert cli(["mad"], "3 2\n0 1\n0 1\n") == (2, "", "error: line 3: edge 1 duplicates edge 0\n")


def test_cnf_and_decode(tmp_path):
    cnf_file = tmp_path / "c4.cnf"
    assert cli(["cnf", "-k", "2", "-o", str(cnf_file)], C4) == (0, "", "")
    text = cnf_file.read_text()
    assert text.startswith("c ")
    assert "c edge 0 : 0 1" in text
    assert "p cnf " in text

    from orientkit.cnf import dpll, export_cnf

    doc = export_cnf(cycle(4), 2)
    model = dpll(doc.clauses, doc.num_vars)
    model_file = tmp_path / "model.txt"
    model_file.write_text("v " + " ".join(str(l) for l in model) + " 0\n")
    code, arcs, err = cli(["decode", "-k", "2", "--model", str(model_file)], C4)
    assert (code, err) == (0, "")
    assert cli(["verify"], arcs) == (0, "proper=true max_indegree=2\n", "")


def test_verify_with_orientation_file(tmp_path):
    orient = tmp_path / "sigma.txt"
    orient.write_text("1 0\n1 2\n3 2\n3 0\n")
    assert cli(["verify", "--orientation", str(orient)], C4) == (
        0, "proper=true max_indegree=2\n", ""
    )


def test_orientation_file_and_stdin_follow_one_line_rule(tmp_path):
    # str.splitlines() also ends a line at a form feed
    text = "1 0\f1 2\n3 2\n3 0\n"
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(text)
    bare = cli(["verify"], text)
    assert cli(["verify", "--orientation", str(sigma)], C4) == bare
    assert bare == (0, "proper=true max_indegree=2\n", "")


def _verify_outputs(arcs, graph_text, tmp_path):
    """verify's (code, stdout, stderr) on the arc list as an --orientation
    file and as a bare arc list."""
    sigma = tmp_path / "sigma.txt"
    sigma.write_bytes(arcs.encode())
    return cli(["verify", "--orientation", str(sigma)], graph_text), cli(["verify"], arcs)


def test_verify_prints_the_same_bytes_for_a_relaid_arc_list(tmp_path):
    graph_text = serialize_graph(pdw(30))
    code, proper, _ = cli(["proper3"], graph_text)
    assert code == 0
    as_listed = graph_text.split("\n", 1)[1]  # every edge u -> v: not proper
    for arcs, answer in ((proper, "proper=true max_indegree=3\n"),
                         (as_listed, "proper=false max_indegree=2\n")):
        canonical = _verify_outputs(arcs, graph_text, tmp_path)
        assert canonical == ((0, answer, ""),) * 2
        for layout in (arcs.replace("\n", "\r\n"), arcs.replace(" ", "\t")):
            assert _verify_outputs(layout, graph_text, tmp_path) == canonical


def test_verify_digit_limit_on_a_canonical_arc_list(tmp_path):
    # every other line is canonical; the long id is refused at its line
    arcs = "1 0\n" + "1" * 4301 + " 2\n3 2\n3 0\n"
    err = "error: line 2: integer of 4301 digits, more than 4300\n"
    assert _verify_outputs(arcs, C4, tmp_path) == ((2, "", err),) * 2


def test_check_t4_failing_certificate(monkeypatch):
    # a hub cap of 4 breaks step 1: exit 1, the report on stdout, nothing on stderr
    failures = len(check_left_pigeonhole(7, 4).counterexamples)
    monkeypatch.setattr("orientkit.t4proof.check_left_pigeonhole",
                        lambda left, cap: check_left_pigeonhole(left, cap + 1))
    code, out, err = cli(["check-t4"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert f"step1: FAILED ({failures} counterexamples) [16384 orientations]" in lines
    assert lines[-1] == "chi_orient = 4 certified: false"


@pytest.mark.parametrize("extra, report_digest, witness_digest", [
    (0, "b16ee16d367769267d330a364038bcc4d5a1a1f374c0c78180dc21c78599f584",
     "5e35de69e6911e85827ec496b979b443fe8c2c17fec279373dd28628344e805a"),
    (1, "280fb69f680bdb39d4b64691fc0fbc8bf26e7943a90bab8f37642ceac109fe63",
     "9f2e617dc6addd6d6648804d45e5ed468114608129654a43ff66d9a8c400dd11"),
    (5, "bb720910bc546c964f8b33d8350a37d7b95acb4dd8fc844266bce2ec9b095d8b",
     "36733d6ed31d0f67a63de36cf38aa86e685f05e137b731b75371c5ca2802c7df"),
])
def test_check_t4_bytes_are_pinned(extra, report_digest, witness_digest, tmp_path):
    # the report and the witness file, byte for byte: a changed count, a
    # reordered line or a changed arc fails here
    target = tmp_path / "witness.txt"
    code, report, err = cli(["check-t4", "--extra", str(extra), "--emit-witness", str(target)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(report.encode()).hexdigest() == report_digest
    assert hashlib.sha256(target.read_bytes()).hexdigest() == witness_digest


def test_check_t4_error_leaves_stdout_empty(tmp_path, monkeypatch):
    # a witness path that cannot be written is an I/O error found before
    # any enumeration
    monkeypatch.setattr("orientkit.t4proof.verify_lower_bound_certificate",
                        mock.Mock(side_effect=AssertionError("enumerated")))
    not_a_dir = tmp_path / "f"
    not_a_dir.write_text("")
    code, out, err = cli(["check-t4", "--emit-witness", str(not_a_dir / "w.txt")])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_check_t4_refuses_emit_witness_to_stdout(tmp_path, monkeypatch):
    # stdout carries the report, so "-" is a usage error found before any
    # enumeration, and no file named "-" appears
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("orientkit.t4proof.verify_lower_bound_certificate",
                        mock.Mock(side_effect=AssertionError("enumerated")))
    assert cli(["check-t4", "--emit-witness", "-"]) == (
        2, "", "error: --emit-witness needs a file: stdout carries the report\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_check_t4_checks_extra_before_enumerating(monkeypatch):
    # a negative --extra is a usage error found before any enumeration
    monkeypatch.setattr("orientkit.t4proof.verify_lower_bound_certificate",
                        mock.Mock(side_effect=AssertionError("enumerated")))
    assert cli(["check-t4", "--extra", "-1"]) == (2, "", "error: extra must be >= 0\n")


def test_verify_bare_arcs_with_sparse_ids():
    # only the ids that occur are numbered; 9 -> 5 -> 100000000 ties at 5
    assert cli(["verify"], "9 5\n5 100000000\n") == (0, "proper=false max_indegree=1\n", "")


def test_verify_bare_arcs_name_the_original_ids():
    assert cli(["verify"], "5 9\n7 7\n") == (
        2, "", "error: line 2: edge 1 is a self-loop at vertex 7\n"
    )
    assert cli(["verify"], "5 9\n9 -3\n") == (
        2, "", "error: line 2: edge 1 = (9, -3): vertex ids must be >= 0\n"
    )


# What each subcommand loads past orientkit, cli, errors and graphs (every
# command reads or writes a graph): only the modules whose code it runs, as
# (argv, modules).  fractions comes with density, whose Mad values are exact
# rationals, so only mad loads it.  dataclasses, and the inspect it imports,
# come with orientation and density, which each build one record with it;
# gen and cnf load neither.
DATACLASSES = {"dataclasses", "inspect"}
STDLIB = {"fractions", *DATACLASSES}
IMPORTS = {
    "mad": (["mad", "pdw.txt"], {"density", "orientation", "fractions", *DATACLASSES}),
    "orient": (["orient", "-k", "2", "pdw.txt"], {"orientation", *DATACLASSES}),
    "proper": (["proper", "-k", "2", "pdw.txt"], {"orientation", *DATACLASSES}),
    "proper3": (["proper3", "pdw.txt"], {"orientation", *DATACLASSES}),
    "exact": (["exact", "pdw.txt"], {"exact", "orientation", *DATACLASSES}),
    "quad": (["quad", "pdw.txt"], {"exact", "orientation", *DATACLASSES}),
    "cnf": (["cnf", "-k", "3", "pdw.txt"], {"cnf"}),
    "decode": (
        ["decode", "-k", "1", "--model", "model.txt", "edge.txt"],
        {"cnf", "orientation", *DATACLASSES},
    ),
    "gen": (["gen", "pdw:20"], {"generators"}),
    "verify": (["verify", "arcs.txt"], {"orientation", *DATACLASSES}),
    "check-t4": (["check-t4"], {"t4proof", "generators", "orientation", "exact", *DATACLASSES}),
}


def test_every_subcommand_has_an_import_row():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert set(IMPORTS) == set(subcommands)
    assert all(argv[0] == name for name, (argv, _) in IMPORTS.items())


@pytest.mark.parametrize("argv, modules", IMPORTS.values(), ids=IMPORTS)
def test_each_command_imports_only_what_it_runs(argv, modules, tmp_path):
    (tmp_path / "pdw.txt").write_text(serialize_graph(pdw(20)))
    (tmp_path / "arcs.txt").write_text("0 1\n1 2\n")
    (tmp_path / "edge.txt").write_text("2 1\n0 1\n")
    (tmp_path / "model.txt").write_text("v 1 0\n")
    probe = (
        "import sys\n"
        "from orientkit.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(code, *sorted(name for name in sys.modules\n"
        f"                    if name.startswith('orientkit') or name in {STDLIB!r}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.stderr == ""
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    common = {"orientkit", "orientkit.cli", "orientkit.errors", "orientkit.graphs"}
    assert set(loaded) == common | {
        name if name in STDLIB else f"orientkit.{name}" for name in modules
    }


def test_gen_t4_id_table(tmp_path):
    table = (
        "# a: 0..111\n# b: 112..127\n# c: 128..143\n# d: 144..171\n# p: 172..175\n"
        "# q: 176..179\n# s: 180..180\n# t: 181..181\n# extra: 182..183\n"
    )
    code, plain, err = cli(["gen", "t4:2"])
    assert (code, err) == (0, "")
    assert cli(["gen", "t4:2", "--id-table"]) == (0, plain, table)
    target = tmp_path / "g.txt"
    assert cli(["gen", "t4:2", "--id-table", "-o", str(target)]) == (0, "", table)
    assert target.read_text() == plain


def test_quad_names_the_edge_count_gate():
    # C6 is bipartite with m = 6 != 2n - 4 = 8
    assert cli(["quad"], serialize_graph(cycle(6))) == (
        1, "", "error: precondition failed: |E| = 2n-4 (quadrangulation)\n"
    )


# dpll's model of export_cnf(cycle(4), 2): arcs 0->1, 1->2, 3->2, 0->3, so
# vertex 2 takes indegree 2
C4_K2_MODEL = "v 1 2 -3 -4 -5 -6 -7 8 9 -10 11 12 13 -14 15 -16 0\n"

# (subcommand, stderr) of each `orientkit <subcommand>` that a block of
# tests/cli.txt runs and that exits non-zero: no ERROR_TABLE row may repeat one
SHOWN_ERRORS = {
    (subcommand, block.stderr)
    for block in transcript.parse((Path(__file__).parent / "cli.txt").read_text(encoding="utf-8"))
    if block.code
    for subcommand in re.findall(r"\borientkit ([a-z0-9-]+)", block.command)
}

# (argv, stdin, files written to tmp_path, exit code, offending line or None);
# "{name}" in argv is replaced by the path of that file.
ERROR_TABLE = {
    "verify-duplicate-arc": (["verify"], "0 1\n1 0\n", {}, 2, 2),
    "verify-self-loop": (["verify"], "0 0\n", {}, 2, 1),
    "verify-negative-id": (["verify"], "0 1\n-1 2\n", {}, 2, 2),
    "verify-non-integer": (["verify"], "0 x\n", {}, 2, 1),
    "verify-orientation-non-integer": (
        ["verify", "--orientation", "{sigma}"], C4,
        {"sigma": "1 0\na b\n3 2\n3 0\n"}, 2, 2,
    ),
    "orient-negative-k": (["orient", "-k", "-1"], C4, {}, 2, None),
    "proper-k-zero": (["proper", "-k", "0"], C4, {}, 2, None),
    "cnf-k-zero": (["cnf", "-k", "0"], C4, {}, 2, None),
    "decode-non-integer": (
        ["decode", "-k", "2", "--model", "{model}"], C4,
        {"model": "c solver output\ns SATISFIABLE\nv 1 -2 zz 0\n"}, 2, 3,
    ),
    # only a lower-case "v" starts a value line; "V" is a token like any other
    "decode-upper-case-v": (
        ["decode", "-k", "2", "--model", "{model}"], C4, {"model": "V 1 2 0\n"}, 2, 1,
    ),
    "decode-negative-k": (
        ["decode", "-k", "-5", "--model", "{model}"], C4, {"model": C4_K2_MODEL}, 2, None,
    ),
    "proper3-no-vertices": (["proper3"], "0 0 planar\n", {}, 1, None),
    "gen-t4-negative-extra": (["gen", "t4:-1"], "", {}, 2, None),
    "gen-kbip-empty-side": (["gen", "kbip:0,3"], "", {}, 2, None),
    "gen-path-no-vertices": (["gen", "path:0"], "", {}, 2, None),
    "gen-cycle-of-two": (["gen", "cycle:2"], "", {}, 2, None),
    "gen-star-no-leaf": (["gen", "star:0"], "", {}, 2, None),
    # only the documented short names are families
    "gen-complete-bipartite-long-name": (["gen", "complete_bipartite:2,2"], "", {}, 2, None),
    "verify-underscore-digits": (["verify"], "0 1_0\n", {}, 2, 1),
    "verify-plus-sign": (["verify"], "0 +1\n", {}, 2, 1),
    "verify-non-ascii-digit": (["verify"], "0 \u0661\n", {}, 2, 1),
    "mad-plus-sign-header": (["mad"], "+2 1\n0 1\n", {}, 2, 1),
    "mad-negative-n-header": (["mad"], "-1 0\n", {}, 2, 1),
    "mad-negative-m-header": (["mad"], "3 -1\n", {}, 2, 1),
    "verify-orientation-arc-mismatch": (
        ["verify", "--orientation", "{sigma}"], C4,
        {"sigma": "1 0\n0 2\n3 2\n3 0\n"}, 2, 2,
    ),
    "verify-orientation-arc-count": (
        ["verify", "--orientation", "{sigma}"], C4, {"sigma": "1 0\n1 2\n"}, 2, None,
    ),
    # a file that is not UTF-8: the byte 0xff reaches the tokenizer
    "mad-file-not-utf8": (["mad", "{g}"], "", {"g": b"2 1\n0 \xff\n"}, 2, 2),
    "verify-orientation-not-utf8": (
        ["verify", "--orientation", "{sigma}"], C4,
        {"sigma": b"1 0\n1 2\n\xff 2\n3 0\n"}, 2, 3,
    ),
    "decode-model-not-utf8": (
        ["decode", "-k", "2", "--model", "{model}"], C4, {"model": b"v 1 \xff 0\n"}, 2, 1,
    ),
    # int() refuses more than 4300 digits on Python >= 3.11; the tokenizer
    # refuses them on every version
    "mad-5000-digit-id": (["mad"], "2 1\n0 " + "1" * 5000 + "\n", {}, 2, 2),
    "verify-5000-digit-id": (["verify"], "0 1\n0 " + "1" * 5000 + "\n", {}, 2, 2),
}


@pytest.mark.parametrize("case", ERROR_TABLE, ids=list(ERROR_TABLE))
def test_error_exit_codes(case, tmp_path):
    argv, stdin, files, code, line = ERROR_TABLE[case]
    paths = {}
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    ran, out, err = cli([arg.format(**paths) for arg in argv], stdin)
    assert (ran, out) == (code, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if line is not None:
        assert f"line {line}" in err
    assert (argv[0], err) not in SHOWN_ERRORS, "a block of tests/cli.txt shows this error"


def record_freezes(monkeypatch, capsys):
    """Replace gc.freeze, which main() calls on its way out, by a recorder of
    the (stdout, stderr) written by each call; a real freeze would keep the
    test session's own heap from the collector."""
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(tuple(capsys.readouterr())))
    return freezes


def test_stdin_that_is_not_utf8(capsys, monkeypatch):
    # stdin decodes strictly under a UTF-8 locale; the byte 0xff must still
    # reach the tokenizer
    stdin = io.TextIOWrapper(io.BytesIO(b"2 1\n0 \xff\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    monkeypatch.setattr("sys.argv", ["orientkit", "mad"])
    freezes = record_freezes(monkeypatch, capsys)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    # one freeze, once the error line is written
    assert freezes == [("", "error: line 2: expected an integer, got '\\udcff'\n")]


def test_main_freezes_once_when_argparse_exits(capsys, monkeypatch):
    # --version leaves run() by argparse's SystemExit, not by a return
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b""), encoding="utf-8"))
    monkeypatch.setattr("sys.argv", ["orientkit", "--version"])
    freezes = record_freezes(monkeypatch, capsys)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert freezes == [(f"{__version__}\n", "")]


def test_run_never_freezes(capsys, monkeypatch):
    freezes = record_freezes(monkeypatch, capsys)
    assert cli(["gen", "q3"])[0] == 0
    assert cli(["mad"], "2 1\n0 x\n")[0] == 2
    with pytest.raises(SystemExit):
        run(["--version"])
    assert freezes == []


@pytest.mark.parametrize("argv, option", [
    (["orient", "-k", "1_0"], "-k"),
    (["orient", "-k", "\u0661"], "-k"),
    (["exact", "--kmax", "+4"], "--kmax"),
    (["check-t4", "--extra", "0_1"], "--extra"),
])
def test_integer_options_follow_the_tokenizer_rule(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {option}: expected an integer" in err


def test_proper3_relabelled_pdw(tmp_path):
    text = serialize_graph(relabel(random.Random(10000), pdw(10000)))
    code, arcs, _ = cli(["proper3"], text)
    assert code == 0
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(arcs)
    assert cli(["verify", "--orientation", str(sigma)], text) == (
        0, "proper=true max_indegree=3\n", ""
    )


def test_exact_on_a_long_path():
    code, text, _ = cli(["gen", "path:1500"])
    assert code == 0
    assert cli(["exact", "--kmax", "2"], text) == (0, "chi_orient = 2\n", "")


def test_exact_on_a_large_pseudo_double_wheel():
    # k = 2 is refuted by counting indegrees, k = 3 by a quick search
    code, text, _ = cli(["gen", "pdw:200"])
    assert code == 0
    assert cli(["exact", "--kmax", "3"], text) == (0, "chi_orient = 3\n", "")


def test_decode_skips_dimacs_comment_and_status_lines(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("c solved\ns SATISFIABLE\nv 1 2\nv -3 -4 0\n")
    assert cli(["decode", "-k", "2", "--model", str(model)], C4) == (
        0, "0 1\n1 2\n3 2\n0 3\n", ""
    )


def test_decode_names_what_refutes_the_model(tmp_path):
    # the directed cycle: every vertex has indegree 1
    (tmp_path / "model.txt").write_text("v 1 2 3 4 0\n")
    assert cli(["decode", "-k", "2", "--model", str(tmp_path / "model.txt")], C4) == (
        1, "", "error: edge 0 = (0, 1) has indegree 1 at both ends\n"
    )


def test_gen_non_integer_parameter():
    assert cli(["gen", "pdw:x"]) == (2, "", "error: expected an integer, got 'x'\n")


def test_gen_parameter_of_5000_digits():
    assert cli(["gen", "pdw:" + "1" * 5000]) == (
        2, "", "error: integer of 5000 digits, more than 4300\n"
    )


def assert_exit_contract(text, argv):
    """run(argv) on text as stdin exits 0 with stderr empty, or 1 or 2 with
    stdout empty and one stderr line."""
    code, out, err = cli(argv, text)
    assert code in (0, 1, 2)
    assert (code == 0) == (err == "")
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1


def test_random_text_gives_an_exit_code():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # mad keeps small ids: a huge header still allocates before it is checked;
    # a bare arc list numbers only the ids that occur, so verify also draws huge ones
    small = ["0", "1", "2", "3", "-1", "x", "1.5", "planar", "v", ""]
    huge = ["100000000", "999999999999"]

    def text(tokens):
        line = st.lists(st.sampled_from(tokens), max_size=3).map(" ".join)
        return st.lists(line, max_size=6).map("\n".join)

    case = st.one_of(st.tuples(text(small), st.just("mad")),
                     st.tuples(text(small + huge), st.just("verify")))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(case=case)
    def check(case):
        text, command = case
        assert_exit_contract(text, [command])

    check()


GRAPH_COMMANDS = [
    ["orient", "-k", "1"],
    ["orient", "-k", "2"],
    ["proper", "-k", "1"],
    ["proper", "-k", "2"],
    ["proper", "-k", "1", "--x-class", "1"],
    ["proper", "-k", "2", "--x-class", "1"],
    ["proper3"],
    ["exact", "--kmax", "3"],
    ["quad"],
    ["cnf", "-k", "2"],
]


def test_random_graphs_give_an_exit_code():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # small ids only: a huge header still allocates before it is checked.
    # Ids run from -1 to n, repeats are drawn, m is off by at most one and
    # some texts are tab-separated; a clean case keeps only the valid edges
    # and the true m, so the commands past parsing run too.
    def graph(n):
        ids = st.integers(-1, n)
        return st.tuples(st.just(n), st.booleans(), st.lists(st.tuples(ids, ids), max_size=15),
                         st.sampled_from([-1, 0, 1]), st.booleans(), st.booleans())

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(case=st.integers(0, 8).flatmap(graph),
                      argv=st.sampled_from(GRAPH_COMMANDS))
    def check(case, argv):
        n, planar, edges, off, tabs, clean = case
        if clean:
            kept = {}
            for u, v in edges:
                if 0 <= u < n and 0 <= v < n and u != v:
                    kept.setdefault(frozenset((u, v)), (u, v))
            edges, off = list(kept.values()), 0
        header = f"{n} {len(edges) + off}" + (" planar" if planar else "")
        text = "".join(f"{line}\n" for line in [header] + [f"{u} {v}" for u, v in edges])
        assert_exit_contract(text.replace(" ", "\t") if tabs else text, argv)

    check()

"""The command-line transcript tests/cli.txt, its runner, and README's copies
of it."""

import os
import re
import sys
import time
from pathlib import Path

import pytest

import transcript
from orientkit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
CLI_TXT = ROOT / "tests" / "cli.txt"


def test_cli_transcript(tmp_path, monkeypatch):
    # `orientkit` and `python` stand for this interpreter and this checkout's
    # src/; CI runs the same file against the installed console script.
    # -X dev and -W are not inherited, so each shim turns on dev mode and
    # warnings as errors through the environment
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, args in [("orientkit", '-m orientkit.cli "$@"'), ("python", '"$@"')]:
        shim = bin_dir / name
        shim.write_text(
            "#!/bin/sh\nexport PYTHONDEVMODE=1 PYTHONWARNINGS=error\n"
            f'exec "{sys.executable}" {args}\n'
        )
        shim.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    pythonpath = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, pythonpath)))
    assert transcript.check(CLI_TXT) is None


PASSING = """\
a preamble, not run

$ echo hello
hello

$ printf 'one\\ntwo\\n' >&2; exit 3
[exit 3]
one
two

$ # a comment block
$ echo warning >&2
[exit 0]
warning
$ printf 'x\\n' > x.txt
> cat x.txt
x
"""


def test_runner_passes_a_correct_transcript(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text(PASSING)
    assert transcript.check(path) is None
    assert [block.line for block in transcript.parse(PASSING)] == [3, 6, 11, 12, 15]


@pytest.mark.parametrize("block", [
    "$ echo hello\nhellp\n",
    "$ echo oops >&2; exit 3\n[exit 2]\noops\n",
    "$ echo oops >&2; exit 1\n[exit 1]\noops\nmore\n",
    "$ echo oops >&2; echo more >&2; exit 1\n[exit 1]\noops\n",
    "$ echo warning >&2\n",
    "$ printf hello\nhello\n",
], ids=["stdout-byte", "exit-code", "missing-stderr-line", "extra-stderr-line",
        "stderr-without-exit", "no-final-newline"])
def test_runner_names_the_first_block_that_differs(tmp_path, block):
    path = tmp_path / "t.txt"
    # a passing block before it, and one that differs after it
    path.write_text(f"$ echo hello\nhello\n\n{block}\n$ exit 9\n")
    command = block.split("\n")[0]
    assert transcript.check(path).startswith(f"{path}:4: {command}\n")


def test_runner_names_a_block_that_runs_too_long(tmp_path, monkeypatch):
    # the whole process group is killed: a surviving cat would hold the pipe
    # open until sleep ends, 30 s later
    monkeypatch.setattr(transcript, "TIMEOUT_S", 1)
    path = tmp_path / "t.txt"
    path.write_text("$ echo hello\nhello\n\n$ sleep 30 | cat\n\n$ exit 9\n")
    start = time.monotonic()
    report = transcript.check(path)
    assert time.monotonic() - start < 10
    assert report == f"{path}:4: $ sleep 30 | cat\ntimed out after 1 s"


def test_every_subcommand_runs_in_a_block():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert "check-t4" in subcommands
    run = set()
    for block in transcript.parse(CLI_TXT.read_text(encoding="utf-8")):
        code = "\n".join(line for line in block.command.split("\n")
                         if not line.lstrip().startswith("#"))
        run.update(re.findall(r"\borientkit ([a-z0-9-]+)", code))
    assert set(subcommands) <= run


def test_readme_console_examples_are_copied_from_the_transcript():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    text = CLI_TXT.read_text(encoding="utf-8")
    blocks = {block[1:] for block in transcript.parse(text)}  # without line numbers
    excerpts = re.findall(r"^```console\n(.*?)^```$", readme, re.S | re.M)
    assert excerpts
    for excerpt in excerpts:
        assert "\n" + excerpt in "\n" + text
        # whole blocks: an excerpt does not cut a block's output short
        assert {block[1:] for block in transcript.parse(excerpt)} <= blocks

"""Run a command-line transcript and compare every byte it shows.

Usage: python tests/transcript.py FILE

FILE is a sequence of blocks.  A block is a line ``$ COMMAND``, then any
number of lines ``> MORE`` that continue the command, then the command's
exact stdout, then, when the exit status is not 0 or stderr is not empty, a
line ``[exit N]`` and the exact stderr.  Each stdout and stderr line ends in
a newline.  One blank line at the end of a block only separates it from the
next, and lines before the first block are a preamble that is not run.

The blocks run in order, each through ``bash -o pipefail -c`` with stdin
from /dev/null, in one fresh temporary directory that they share, so a file
one block writes is there for the next.  The first block whose stdout, exit
status or stderr differs is named by its line number, with a diff of what it
shows against what ran, and the exit status is 1.  Each block runs in its own
session: one that runs longer than TIMEOUT_S seconds is killed with every
process it started, and named as timed out.
"""

from __future__ import annotations

import difflib
import os
import re
import signal
import subprocess
import sys
import tempfile
from typing import NamedTuple

EXIT_LINE = re.compile(r"\[exit (-?\d+)\]")
TIMEOUT_S = 60


class Block(NamedTuple):
    line: int  # the number of its "$ " line in the transcript
    command: str
    stdout: str
    code: int
    stderr: str


def _text(lines):
    return "".join(f"{line}\n" for line in lines)


def _block(number, lines):
    if lines[-1] == "":  # the separator
        lines = lines[:-1]
    command = [lines[0][2:]]
    rest = lines[1:]
    while rest and rest[0].startswith("> "):
        command.append(rest.pop(0)[2:])
    stdout, code, stderr = rest, 0, []
    for i, line in enumerate(rest):
        if match := EXIT_LINE.fullmatch(line):
            stdout, code, stderr = rest[:i], int(match[1]), rest[i + 1:]
            break
    return Block(number, "\n".join(command), _text(stdout), code, _text(stderr))


def parse(text):
    """The blocks of a transcript, in order."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    starts = [i for i, line in enumerate(lines) if line.startswith("$ ")]
    return [_block(start + 1, lines[start:end])
            for start, end in zip(starts, starts[1:] + [len(lines)])]


def _shown(data):
    """The transcript lines of one stream, marking a missing final newline."""
    *lines, last = data.decode("utf-8", "backslashreplace").split("\n")
    return lines + [f"{last} (no newline at end)"] if last else lines


def _rendered(stdout, code, stderr):
    lines = _shown(stdout)
    if code or stderr:
        lines += [f"[exit {code}]", *_shown(stderr)]
    return lines


def _run(command, cwd):
    """(stdout, exit status, stderr) of command, or None when it runs past
    TIMEOUT_S; its process group, which holds every process it started, is
    then killed."""
    with subprocess.Popen(["bash", "-o", "pipefail", "-c", command], cwd=cwd,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as ran:
        try:
            stdout, stderr = ran.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(ran.pid, signal.SIGKILL)
            ran.communicate()
            return None
    return stdout, ran.returncode, stderr


def check(path):
    """None when every block of the transcript at path prints what it
    shows; otherwise a report that names the first block that does not."""
    with open(path, encoding="utf-8") as fh:
        blocks = parse(fh.read())
    with tempfile.TemporaryDirectory() as cwd:
        for block in blocks:
            shown = (block.stdout.encode(), block.code, block.stderr.encode())
            actual = _run(block.command, cwd)
            if actual != shown:
                command = block.command.replace("\n", "\n> ")
                if actual is None:
                    return f"{path}:{block.line}: $ {command}\ntimed out after {TIMEOUT_S} s"
                diff = difflib.unified_diff(_rendered(*shown), _rendered(*actual),
                                            "shown", "ran", lineterm="")
                return "\n".join([f"{path}:{block.line}: $ {command}", *diff])
    return None


def main(argv):
    if len(argv) != 1:
        print("usage: python tests/transcript.py FILE", file=sys.stderr)
        return 2
    report = check(argv[0])
    print(report or f"{argv[0]}: every block printed what it shows")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

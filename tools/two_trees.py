"""The driver shared by `cli_sweep.py` and `lp_sweep.py`: record with one
source tree, run with two, and hand both results to the tool.

A tool calls `main` with its own steps.  `record(workdir)` runs once, in a
child process on the OLD_SRC package, and writes what both trees are to run
into a temporary directory.  `run(workdir)` then runs in one child process
per tree and returns data that JSON can hold.  Each child imports polydc
through the tool's `use(src)`, so no state is shared between the trees.
Last, `compare(workdir, old, new)` prints the differences and returns the
exit code.  When a child fails, the exit code is 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def _child(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, script, *args], stdout=subprocess.PIPE, text=True
    )


def _sweep(script, old_src: str, new_src: str, workdir: Path, compare) -> int:
    recorder = _child(script, "--record", old_src, str(workdir))
    if recorder.wait() != 0:
        print("recording with OLD_SRC failed", file=sys.stderr)
        return 2
    runs = [_child(script, "--run", src, str(workdir)) for src in (old_src, new_src)]
    outputs = [run.communicate()[0] for run in runs]
    if any(run.returncode != 0 for run in runs):
        print("a run with one of the trees failed", file=sys.stderr)
        return 2
    old, new = (json.loads(text) for text in outputs)
    return compare(workdir, old, new)


def main(argv: list[str], script: str, doc: str, use, record, run, compare) -> int:
    """The command line of the tool at `script`, described by the first
    line of `doc`: `OLD_SRC NEW_SRC`, or one of the two child modes."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    for mode in ("--record", "--run"):
        parser.add_argument(
            mode, nargs=2, metavar=("SRC", "DIR"), help=argparse.SUPPRESS
        )
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    args = parser.parse_args(argv)
    if args.record:
        src, workdir = args.record
        use(src)
        record(Path(workdir))
        return 0
    if args.run:
        src, workdir = args.run
        use(src)
        json.dump(run(Path(workdir)), sys.stdout)
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give the two source trees, OLD_SRC and NEW_SRC")
    with tempfile.TemporaryDirectory() as workdir:
        return _sweep(script, args.old_src, args.new_src, Path(workdir), compare)

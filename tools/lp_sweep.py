"""Solve the LPs of a fixed corpus with two source trees and compare them.

    python tools/lp_sweep.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `polydc` package, such as
the `src/` of two checkouts.  The corpus is recorded once, in a child
process on the OLD_SRC package: every call of `exactlp.lp_solve` (under
every alias a polydc module holds), `exactlp._solve_margin` and
`exactlp.max_slack` is wrapped from outside, as `tools/pass_counts.py`
wraps its counted functions, while these run:

* one fresh pass over each perfbench workload at seed 1, set up by
  `workloads.set_up` as `tools/pass_counts.py` sets it up;
* the seeded generators of `tests/gens.py`: 200 LPs from
  `random_bounded_lp`, each solved with lexmin 0 and n, and for 30
  problems from `random_dc_instance` the solution structure, `classify`
  at every probe point and one min-index DCA run from each probe in C;
* the medium LPs, `gens.medium_lps(n)` for n = 6, 8 and 10.

Each call is kept with its integer rows, its objective and its lexmin
(for `max_slack`, its integer rows (A, B, s)); equal calls are kept once.
Then each tree replays the corpus in a child process of its own: every
call is made again on rows posed afresh, and the pivots it takes are
counted by wrapping `_Tableau.pivot`.  Every difference in status, value,
point, `unique` (for a margin: slack and witness) or pivot count is
printed with the call's rows; the exit code is 0 when there is none and 1
otherwise.  Standard library and `tests/gens.py` only.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _use(src: str) -> None:
    """Import polydc from `src`, the generators from tests/ and the
    workloads from perfbench/, which is only read."""
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    sys.path[:0] = [
        str(Path(src).resolve()),
        str(ROOT / "tests"),
        str(ROOT / "perfbench"),
        str(ROOT / "tools"),
    ]


def _rows(rows) -> list:
    return [[list(row[0]), *row[1:]] for row in rows]


# ---------------------------------------------------------------------------
# recording the corpus (child process, OLD_SRC)


def _recording(calls: dict, kind: str):
    """A wrapper maker for `pass_counts.rebind` that keeps each call of
    kind `kind` in `calls`, as JSON text, once."""

    def wrap(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if kind == "max_slack":
                equalities, weak, strict, dimension = args
                call = [kind, _rows(equalities), _rows(weak), _rows(strict), dimension]
            else:
                lp = args[0]
                lexmin = args[1] if len(args) > 1 else kwargs.get("lexmin", 0)
                call = [
                    kind,
                    [str(c) for c in lp.objective],
                    _rows(lp.equalities),
                    _rows(lp.inequalities),
                    lp.dimension,
                    lexmin,
                ]
            calls.setdefault(json.dumps(call), None)
            return fn(*args, **kwargs)

        return recorded

    return wrap


def record(workdir: Path) -> None:
    import polydc as P
    import gens
    import workloads
    from pass_counts import rebind

    calls: dict = {}  # a dict keeps the order of the first calls
    for kind, name in (
        ("lp_solve", "lp_solve"),
        ("margin", "_solve_margin"),
        ("max_slack", "max_slack"),
    ):
        rebind("exactlp", name, _recording(calls, kind))
    for workload in workloads.WORKLOADS.values():
        batch = workloads.set_up(P, workload, SEED)
        for op in batch.ops:
            workload.call(P, op)
    rng = random.Random(SEED)
    for _ in range(200):
        lp = gens.random_bounded_lp(rng, fractional=rng.random() < 0.3)
        for lexmin in (0, lp.dimension):
            P.lp_solve(lp, lexmin=lexmin)
    for _ in range(30):
        prob = gens.random_dc_instance(rng)
        _posing(P, P.solution_structure, prob)
        for x in gens.probes(prob):
            _posing(P, P.classify, prob, x)
            if prob.C.contains(x):
                _posing(P, P.run, prob, x, P.MinIndexActive())
    for n in (6, 8, 10):
        for lp in gens.medium_lps(n):
            P.lp_solve(lp)
    (workdir / "calls.json").write_text("[" + ",\n".join(calls) + "]")


def _posing(P, fn, *args) -> None:
    """Call fn(*args) for the LPs it poses; the LPs posed before a
    PolydcError are kept too."""
    try:
        fn(*args)
    except P.PolydcError:
        pass


# ---------------------------------------------------------------------------
# replaying the corpus (child process, one per tree)


def replay(workdir: Path) -> list:
    """[status, value, point, unique, pivots] of every recorded call; a
    margin reports [slack, witness, pivots]."""
    from polydc import exactlp

    pivots = [0]
    pivot = exactlp._Tableau.pivot

    def counting(*args):
        pivots[0] += 1
        return pivot(*args)

    exactlp._Tableau.pivot = counting

    def lp(objective, equalities, inequalities, dimension):
        return exactlp._integer_lp(
            tuple(Fraction(c) for c in objective),
            [(tuple(A), B) for A, B in equalities],
            [(tuple(A), B) for A, B in inequalities],
            dimension,
        )

    def integer_rows(rows):
        return [(tuple(A), B, s) for A, B, s in rows]

    def text(vector):
        return None if vector is None else [str(c) for c in vector]

    results = []
    for kind, *data in json.loads((workdir / "calls.json").read_text()):
        pivots[0] = 0
        if kind == "lp_solve":
            *rows, lexmin = data
            out = exactlp.lp_solve(lp(*rows), lexmin)
            result = [out.status.value, str(out.value), text(out.point), out.unique]
        elif kind == "margin":
            slack, witness, _ = exactlp._solve_margin(lp(*data[:-1]))
            result = [str(slack), text(witness)]
        else:
            equalities, weak, strict, dimension = data
            slack, witness = exactlp.max_slack(
                integer_rows(equalities),
                integer_rows(weak),
                integer_rows(strict),
                dimension,
            )
            result = [str(slack), text(witness)]
        results.append(result + [pivots[0]])
    return results


# ---------------------------------------------------------------------------
# the sweep


def _child(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, __file__, *args], stdout=subprocess.PIPE, text=True
    )


def sweep(old_src: str, new_src: str, workdir: Path) -> int:
    recorder = _child("--record", old_src, str(workdir))
    if recorder.wait() != 0:
        print("recording the corpus failed", file=sys.stderr)
        return 2
    runs = [_child("--replay", src, str(workdir)) for src in (old_src, new_src)]
    outputs = [run.communicate()[0] for run in runs]
    if any(run.returncode != 0 for run in runs):
        print("a replay of the corpus failed", file=sys.stderr)
        return 2
    old, new = (json.loads(text) for text in outputs)
    calls = json.loads((workdir / "calls.json").read_text())
    differences = 0
    for call, a, b in zip(calls, old, new):
        if a != b:
            differences += 1
            print(f"{call[0]}: {json.dumps(call[1:])}")
            print(f"  old: {json.dumps(a)}")
            print(f"  new: {json.dumps(b)}")
    kinds = ", ".join(
        f"{sum(call[0] == kind for call in calls)} {kind}"
        for kind in ("lp_solve", "margin", "max_slack")
    )
    print(
        f"{len(calls)} calls ({kinds}), "
        f"{sum(r[-1] for r in old)} and {sum(r[-1] for r in new)} pivots: "
        f"{differences} with a difference"
    )
    return 1 if differences else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # the two child modes: record the corpus with one tree, or replay it
    for mode in ("--record", "--replay"):
        parser.add_argument(
            mode, nargs=2, metavar=("SRC", "DIR"), help=argparse.SUPPRESS
        )
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    args = parser.parse_args(argv)
    if args.record:
        src, workdir = args.record
        _use(src)
        record(Path(workdir))
        return 0
    if args.replay:
        src, workdir = args.replay
        _use(src)
        json.dump(replay(Path(workdir)), sys.stdout)
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give the two source trees, OLD_SRC and NEW_SRC")
    with tempfile.TemporaryDirectory() as workdir:
        return sweep(args.old_src, args.new_src, Path(workdir))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

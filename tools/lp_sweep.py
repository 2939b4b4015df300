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
* the medium LPs, `gens.medium_lps(n)` for n = 6, 8 and 10;
* 300 LPs from `gens.random_open_lp`, solved with lexmin n, whose walk
  often pins a coordinate that has no minimum on the optimal face, and
  100 from `gens.random_fixed_point_lp`, whose equalities fix the point,
  each solved with lexmin 0 and n;
* every command of `tools/cli_sweep.py` on its documents (the bundled
  problems and its seeded ones), written by its `make_cases` and run
  in-process by its `run_cases`.

Each call is kept with its integer rows, its objective and its lexmin
(for `max_slack`, its integer rows (A, B, s)); equal calls are kept once.
Then each tree replays the corpus in a child process of its own
(`tools/two_trees.py` drives the child processes): every
call is made again on rows posed afresh, and the pivots it takes are
counted by wrapping `_Tableau.pivot`.  Every difference in status, value,
point, `unique` (for a margin: slack and witness) or pivot count is
printed with the call's rows; the exit code is 0 when there is none and 1
otherwise.  The summary also counts, per tree, the calls that reach
`_Tableau.add_equality` (a pinned coordinate), `_Tableau.face` (a face
cut) and `_Start.solve` on a start with no free coordinate (a fixed-point
start), each seen by wrapping the method from outside.  Standard library
and `tests/gens.py` only.
"""

from __future__ import annotations

import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import two_trees

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
    import cli_sweep
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
    for _ in range(300):
        lp = gens.random_open_lp(rng, fractional=rng.random() < 0.3)
        P.lp_solve(lp, lexmin=lp.dimension)
    for _ in range(100):
        lp = gens.random_fixed_point_lp(rng, fractional=rng.random() < 0.3)
        for lexmin in (0, lp.dimension):
            P.lp_solve(lp, lexmin=lexmin)
    cases = workdir / "cli"
    cases.mkdir()
    cli_sweep.make_cases(cases)
    cli_sweep.run_cases(cases)
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


# the branches a call can reach: (method, key, whether a call reaches it)
BRANCHES = (
    ("_Tableau.add_equality", "add_equality", None),
    ("_Tableau.face", "face cut", None),
    ("_Start.solve", "fixed-point start", lambda start, *args: not start.free),
)


def _reaching(reached: set, key: str, test):
    """A wrapper maker for `pass_counts.rebind` that adds `key` to
    `reached` on every call the test passes; any signature."""

    def wrap(method):
        def wrapped(*args):
            if test is None or test(*args):
                reached.add(key)
            return method(*args)

        return wrapped

    return wrap


def replay(workdir: Path) -> list:
    """[status, value, point, unique, pivots, reached] of every recorded
    call; a margin reports [slack, witness, pivots, reached], where
    reached lists the keys of the `BRANCHES` the call reached."""
    from polydc import exactlp
    from pass_counts import rebind

    pivots = [0]
    pivot = exactlp._Tableau.pivot

    def counting(*args):
        pivots[0] += 1
        return pivot(*args)

    exactlp._Tableau.pivot = counting
    reached: set = set()
    for method, key, test in BRANCHES:
        rebind("exactlp", method, _reaching(reached, key, test))

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
        reached.clear()
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
        results.append(result + [pivots[0], sorted(reached)])
    return results


# ---------------------------------------------------------------------------
# the sweep


def compare(workdir: Path, old: list, new: list) -> int:
    """Print each call whose outcome differs, then the summary."""
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
        f"{sum(r[-2] for r in old)} and {sum(r[-2] for r in new)} pivots: "
        f"{differences} with a difference"
    )
    print(
        "calls reaching "
        + ", ".join(
            f"{key}: {sum(key in r[-1] for r in old)} and "
            f"{sum(key in r[-1] for r in new)}"
            for _, key, _ in BRANCHES
        )
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(
        two_trees.main(sys.argv[1:], __file__, __doc__, _use, record, replay, compare)
    )

"""Run the same CLI commands against two source trees and compare the output.

    python tools/cli_sweep.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `polydc` package, such as
the `src/` of two checkouts.  The sweep writes problem documents, table
files and script files once, with the OLD_SRC package and the generators
of `tests/gens.py`, into a temporary directory: the three bundled
problems and 84 documents drawn from seed 20 (40 from
`random_dc_instance`, 20 from `random_grid_instance`, 12 from
`random_half_space_instance`, whose subproblems can be unbounded, and 12
with box domains for g and h, some breaking the structure hypotheses and
some putting DCA nodes outside dom h).  Per problem it runs `structure`, `dual`,
`dual --xi`, `verify --grid-step 1/4` (n <= 2 with C bounded) and, at
three points, `classify` with and without `--global` and `dca` under
min-index, max-index, a random complete table, a script replaying a
min-index run and a script of random vectors, each with the default
budget and with `--max-iter 1`; on the 12 documents with box domains also
`classify` with and without `--global` at up to three quarter-grid points
of C ∩ dom g on the boundary of dom h, drawn from their own seed; on the
bundled problems also `dca` with two malformed tables.  After all of
these come the malformed documents, each run through one command: three
copies of `interval.json` with an unknown key at the top level, in C and
in g (`structure`), and a problem, a table and a script file that are not
valid JSON (`structure`, and `dca` under `table:` and `script:`).

Each tree runs every command in one child process, in-process through
`polydc.cli.main`, so no state is shared between the trees
(`tools/two_trees.py` drives the child processes).  Every
difference in stdout, stderr or exit code is printed; the exit code is 0
when there is none and 1 otherwise.  Standard library and `tests/gens.py`
only.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import two_trees

ROOT = Path(__file__).resolve().parent.parent
RULES = ("min-index", "max-index", "table", "replay", "random")
SEED = 20


def _use(src: str) -> None:
    """Import polydc from `src` and the generators from tests/."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "tests")]


# ---------------------------------------------------------------------------
# writing the cases (child process, OLD_SRC)


def _box_domain_instance(P, gens, rng):
    """A random instance with box domains for g and h, each around C or
    around the lower half of C."""
    base = gens.random_dc_instance(rng, n_max=2)
    lo, hi = base.C.bounding_box()

    def box(half):
        upper = [(a + b) / 2 if half else b for a, b in zip(lo, hi)]
        return P.PolyhedralSet.box(
            [a - rng.randint(0, 1) for a in lo],
            [b + rng.randint(0, 1) for b in upper],
        )

    g = P.MaxAffine(base.g.pieces, box(rng.random() < 0.3))
    h = P.MaxAffine(base.h.pieces, box(rng.random() < 0.5))
    return P.DcProblem(g=g, h=h, C=base.C)


def _grid(P, prob):
    """The points of C ∩ dom g on the quarter grid of a box around C."""
    try:
        lo, hi = prob.C.bounding_box()
    except P.PolydcError:  # an unbounded C: a box at a point of it
        lo = prob.C.feasible_point()
        hi = tuple(c + 2 for c in lo)
    axes = [
        [a + Fraction(k, 4) for k in range(int(4 * (b - a)) + 1)]
        for a, b in zip(lo, hi)
    ]
    return [
        x
        for x in itertools.product(*axes)
        if prob.C.contains(x) and prob.g.domain.contains(x)
    ]


def _points(P, rng, prob, count):
    """`count` points of `_grid`."""
    grid = _grid(P, prob)
    return [rng.choice(grid) for _ in range(count)]


def _boundary_points(P, rng, prob):
    """Up to three distinct points of `_grid` on the boundary of dom h."""
    dom_h = prob.h.domain
    grid = [
        x
        for x in _grid(P, prob)
        if dom_h.contains(x) and not dom_h.is_interior_point(x)
    ]
    return rng.sample(grid, min(3, len(grid)))


def _csv(x) -> str:
    return ",".join(str(c) for c in x)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def make_cases(workdir: Path) -> None:
    """Write the documents and rule files under `workdir`, and the command
    lines to `workdir/cases.json`."""
    import gens
    import polydc as P

    rng = random.Random(SEED)
    bundled = sorted(gens.PROBLEMS.glob("*.json"))
    documents = [(p.stem, p.read_text(encoding="utf-8")) for p in bundled]
    seeded = [gens.random_dc_instance(rng) for _ in range(40)]
    seeded += [gens.random_grid_instance(rng) for _ in range(20)]
    seeded += [gens.random_half_space_instance(rng) for _ in range(12)]
    boxed = {f"seeded{k:02d}" for k in range(len(seeded), len(seeded) + 12)}
    seeded += [_box_domain_instance(P, gens, rng) for _ in range(12)]
    # points on the boundary of dom h come from their own draws, so the
    # draws of every other command and document are as they were
    boundary_rng = random.Random(SEED + 1)
    for k, prob in enumerate(seeded):
        documents.append((f"seeded{k:02d}", P.serialize_problem(prob)))
    cases = []
    for name, text in documents:
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        prob = P.parse_problem(text)
        n, q = prob.dimension, len(prob.h.pieces)
        problem = ["--problem", str(path)]
        cases += [["structure", *problem], ["dual", *problem]]
        xi = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
        cases.append(["dual", *problem, f"--xi={_csv(xi)}"])
        try:
            prob.C.bounding_box()
            bounded = True
        except P.PolydcError:
            bounded = False
        if n <= 2 and bounded:
            cases.append(["verify", *problem, "--grid-step", "1/4"])
        pieces = range(1, q + 1)
        subsets = [list(s) for r in pieces for s in itertools.combinations(pieces, r)]
        table = _write(
            workdir / f"{name}.table.json",
            {"entries": [{"active": s, "choose": rng.choice(s)} for s in subsets]},
        )
        for k, x0 in enumerate(_points(P, rng, prob, 3)):
            point = [f"--point={_csv(x0)}"]
            cases.append(["classify", *problem, *point])
            cases.append(["classify", *problem, *point, "--global"])
            try:
                trace = P.run(prob, x0, P.MinIndexActive())
                replayed = [it.xi for it in trace.iterates]
            except P.PolydcError:
                replayed = []
            vectors = [
                [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)]
                for _ in range(rng.randint(1, 3))
            ]
            rules = {
                "min-index": "min-index",
                "max-index": "max-index",
                "table": f"table:{table}",
            }
            for rule, vs in (("replay", replayed), ("random", vectors)):
                doc = {"subgradients": [[str(c) for c in v] for v in vs]}
                script = _write(workdir / f"{name}.{k}.{rule}.json", doc)
                rules[rule] = f"script:{script}"
            start = [*problem, f"--x0={_csv(x0)}", "--rule"]
            for rule in RULES:
                for budget in ([], ["--max-iter", "1"]):
                    cases.append(["dca", *start, rules[rule], *budget])
        if name in boxed:
            for x in _boundary_points(P, boundary_rng, prob):
                point = [f"--point={_csv(x)}"]
                cases.append(["classify", *problem, *point])
                cases.append(["classify", *problem, *point, "--global"])
        if not name.startswith("seeded"):
            # a choice outside its own active set, and a piece above q
            for kind, entries in (
                ("outside", [{"active": [1], "choose": 2}]),
                ("above", [{"active": [q + 1], "choose": q + 1}]),
            ):
                bad = _write(workdir / f"{name}.{kind}.json", {"entries": entries})
                x0 = _csv(_points(P, rng, prob, 1)[0])
                cases.append(["dca", *problem, f"--x0={x0}", "--rule", f"table:{bad}"])
    cases += _malformed_cases(workdir, workdir / "interval.json")
    (workdir / "cases.json").write_text(json.dumps(cases), encoding="utf-8")


def _malformed_cases(workdir: Path, source: Path) -> list:
    """One command per malformed document, written from the problem at
    `source`: an unknown key at the top level, in C and in g, and a
    problem, a table and a script file cut off inside their JSON."""
    cases = []
    for where in ("top", "C", "g"):
        doc = json.loads(source.read_text(encoding="utf-8"))
        (doc if where == "top" else doc[where])["extra"] = []
        path = _write(workdir / f"unknown_{where}.json", doc)
        cases.append(["structure", "--problem", path])
    cut = workdir / "cut.json"
    cut.write_text(source.read_text(encoding="utf-8")[:40], encoding="utf-8")
    problem = ["--problem", str(source), "--x0=0", "--rule"]
    cases.append(["structure", "--problem", str(cut)])
    cases.append(["dca", *problem, f"table:{cut}"])
    cases.append(["dca", *problem, f"script:{cut}"])
    return cases


# ---------------------------------------------------------------------------
# running the cases (child process, one per tree)


def run_cases(workdir: Path) -> list:
    """[stdout, stderr, exit code] of every case, run through cli.main."""
    from polydc import cli

    results = []
    for argv in json.loads((workdir / "cases.json").read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            except Exception as exc:  # a bug: compared like any output
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([out.getvalue(), err.getvalue(), code])
    return results


# ---------------------------------------------------------------------------
# the sweep


def _difference(argv, old, new) -> list[str]:
    """The lines that report how one command's outputs differ, if they do:
    a unified diff of stdout or stderr (its first 40 lines), and both exit
    codes."""
    lines = []
    for label, a, b in zip(("stdout", "stderr", "exit code"), old, new):
        if a == b:
            continue
        if label == "exit code":
            lines.append(f"  exit code: {a!r} -> {b!r}")
            continue
        diff = difflib.unified_diff(
            a.splitlines(), b.splitlines(), "old", "new", lineterm="", n=1
        )
        lines.append(f"  {label}:")
        lines += ["    " + line for line in itertools.islice(diff, 40)]
    if lines:
        lines.insert(0, "polydc " + " ".join(argv))
    return lines


def compare(workdir: Path, old: list, new: list) -> int:
    """Print each command whose outputs differ, then the summary."""
    cases = json.loads((workdir / "cases.json").read_text(encoding="utf-8"))
    differences = 0
    for argv, a, b in zip(cases, old, new):
        lines = _difference(argv, a, b)
        if lines:
            differences += 1
            print("\n".join(lines))
    problems = len(list(workdir.glob("*.table.json")))
    print(
        f"{len(cases)} commands on {problems} problems: "
        f"{differences} with a difference in stdout, stderr or exit code"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(
        two_trees.main(
            sys.argv[1:], __file__, __doc__, _use, make_cases, run_cases, compare
        )
    )

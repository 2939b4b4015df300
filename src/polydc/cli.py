"""Problem files and the command-line surface.

Problems are JSON documents with every rational written as a string "p" or
"p/q", so values round-trip exactly:

    {
      "dimension": 1,
      "C": {"eq": [], "ineq": [{"a": ["-1"], "b": "2"}, {"a": ["1"], "b": "3"}]},
      "g": {"pieces": [{"u": ["0"], "alpha": "0"}], "domain": null},
      "h": {"pieces": [{"u": ["-1"], "alpha": "-1"},
                        {"u": ["0"], "alpha": "0"},
                        {"u": ["1"], "alpha": "-1"}], "domain": null}
    }

A null domain (or null C) means the whole space.  Piece indices in reports
are 1-based, matching the order pieces appear in the document.  Reports are
JSON on stdout, deterministic down to the byte for identical inputs;
diagnostics go to stderr.  Exit codes: 0 success, 1 failed verification
checks, 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exactlp import Vector
from .model import (
    DcProblem,
    MaxAffine,
    PolydcError,
    PolyhedralSet,
)
from .optimality import classify
from .structure import SolutionStructure, solution_structure
from .duality import dual_objective, toland_singer_check
from .gridcheck import grid_cross_check
from . import dca


class ProblemFormatError(PolydcError):
    """A problem document failed to parse; message carries the location."""


# ---------------------------------------------------------------------------
# rationals and vectors


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ProblemFormatError(
            f"{where}: rationals must be strings like \"-3/2\" or integers, "
            f"got {value!r}"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"{where}: {exc}") from None
    raise ProblemFormatError(f"{where}: expected a rational, got {value!r}")


def _is_int(value) -> bool:
    """A JSON integer; `bool` subclasses `int` but true/false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_vector(values, dimension: int, where: str) -> Vector:
    if not isinstance(values, list):
        raise ProblemFormatError(f"{where}: expected a list of rationals")
    if len(values) != dimension:
        raise ProblemFormatError(
            f"{where}: expected {dimension} entries, got {len(values)}"
        )
    return tuple(
        parse_rational(v, f"{where}[{k}]") for k, v in enumerate(values)
    )


def parse_csv_vector(text: str, dimension: int) -> Vector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dimension:
        raise ProblemFormatError(
            f"point has {len(parts)} coordinates, problem has dimension "
            f"{dimension}"
        )
    return tuple(parse_rational(p, f"coordinate {k}") for k, p in enumerate(parts))


def fmt_vector(v: Sequence[Fraction]) -> list[str]:
    return [str(c) for c in v]


# ---------------------------------------------------------------------------
# problem documents


def _row_list(node: dict, key: str, where: str) -> list:
    """The rows under `key`: a list, or none when the key is absent or null."""
    rows = node.get(key)
    if rows is None:
        return []
    if not isinstance(rows, list):
        raise ProblemFormatError(
            f"{where}.{key}: expected a list of rows or null, got {rows!r}"
        )
    return rows


def _parse_set(node, dimension: int, where: str) -> PolyhedralSet:
    if node is None:
        return PolyhedralSet.whole_space(dimension)
    if not isinstance(node, dict):
        raise ProblemFormatError(f"{where}: expected an object or null")
    unknown = set(node) - {"eq", "ineq"}
    if unknown:
        raise ProblemFormatError(
            f"{where}: unknown keys {sorted(unknown)}; expected 'eq'/'ineq'"
        )
    equalities = []
    for k, row in enumerate(_row_list(node, "eq", where)):
        spot = f"{where}.eq[{k}]"
        if not isinstance(row, dict) or "a" not in row or "y" not in row:
            raise ProblemFormatError(f"{spot}: expected {{\"a\": [...], \"y\": r}}")
        equalities.append(
            (
                parse_vector(row["a"], dimension, f"{spot}.a"),
                parse_rational(row["y"], f"{spot}.y"),
            )
        )
    inequalities = []
    for k, row in enumerate(_row_list(node, "ineq", where)):
        spot = f"{where}.ineq[{k}]"
        if not isinstance(row, dict) or "a" not in row or "b" not in row:
            raise ProblemFormatError(f"{spot}: expected {{\"a\": [...], \"b\": r}}")
        inequalities.append(
            (
                parse_vector(row["a"], dimension, f"{spot}.a"),
                parse_rational(row["b"], f"{spot}.b"),
            )
        )
    return PolyhedralSet(
        dimension, equalities=tuple(equalities), inequalities=tuple(inequalities)
    )


def _parse_function(node, dimension: int, where: str) -> MaxAffine:
    if not isinstance(node, dict) or "pieces" not in node:
        raise ProblemFormatError(f"{where}: expected {{\"pieces\": [...], ...}}")
    unknown = set(node) - {"pieces", "domain"}
    if unknown:
        raise ProblemFormatError(
            f"{where}: unknown keys {sorted(unknown)}; expected 'pieces'/'domain'"
        )
    raw = node["pieces"]
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError(f"{where}.pieces: expected a nonempty list")
    pieces = []
    for k, piece in enumerate(raw):
        spot = f"{where}.pieces[{k}]"
        if not isinstance(piece, dict) or "u" not in piece or "alpha" not in piece:
            raise ProblemFormatError(
                f"{spot}: expected {{\"u\": [...], \"alpha\": r}}"
            )
        pieces.append(
            (
                parse_vector(piece["u"], dimension, f"{spot}.u"),
                parse_rational(piece["alpha"], f"{spot}.alpha"),
            )
        )
    domain = _parse_set(node.get("domain"), dimension, f"{where}.domain")
    try:
        return MaxAffine(pieces=tuple(pieces), domain=domain)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from None


def parse_problem(text: str) -> DcProblem:
    """Parse a problem document; diagnostics carry line/column or JSON path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level: expected an object")
    keys = ("dimension", "C", "g", "h")
    for key in keys:
        if key not in doc:
            raise ProblemFormatError(f"top level: missing key '{key}'")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ProblemFormatError(
            f"top level: unknown keys {sorted(unknown)}; expected "
            "'dimension'/'C'/'g'/'h'"
        )
    dimension = doc["dimension"]
    if not _is_int(dimension) or dimension < 1:
        raise ProblemFormatError("dimension: expected a positive integer")
    C = _parse_set(doc["C"], dimension, "C")
    g = _parse_function(doc["g"], dimension, "g")
    h = _parse_function(doc["h"], dimension, "h")
    return DcProblem(g=g, h=h, C=C)


def _set_document(s: PolyhedralSet) -> dict:
    return {
        "eq": [
            {"a": fmt_vector(a), "y": str(y)} for a, y in s.equalities
        ],
        "ineq": [
            {"a": fmt_vector(a), "b": str(b)} for a, b in s.inequalities
        ],
    }


def _function_document(f: MaxAffine) -> dict:
    return {
        "pieces": [
            {"u": fmt_vector(u), "alpha": str(alpha)}
            for u, alpha in f.pieces
        ],
        "domain": None if f.domain.is_whole_space else _set_document(f.domain),
    }


def serialize_problem(prob: DcProblem) -> str:
    doc = {
        "dimension": prob.dimension,
        "C": None if prob.C.is_whole_space else _set_document(prob.C),
        "g": _function_document(prob.g),
        "h": _function_document(prob.h),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# reports


def emit_report(report: dict) -> str:
    """Deterministic JSON text for any command result."""
    return json.dumps(report, indent=2) + "\n"


def _structure_report(result: SolutionStructure) -> dict:
    return {
        "command": "structure",
        "alpha_bar": str(result.alpha_bar),
        "J_star": sorted(result.J_star),
        "global_pieces": [
            {
                "j": r.piece,
                "alpha": str(r.value),
                "face": None if r.face is None else _set_document(r.face),
                "witness": None if r.witness is None else fmt_vector(r.witness),
            }
            for r in result.global_pieces
        ],
        "local_pieces": [
            {
                "J1": sorted(p.J1),
                "excluded": sorted(p.excluded),
                "closed_part": _set_document(p.closed_part),
                "witness": fmt_vector(p.witness),
            }
            for p in result.local_pieces
        ],
        "components": [
            {
                "pieces": list(c.pieces),
                "representative": fmt_vector(c.representative),
                "f": str(c.value),
            }
            for c in result.components
        ],
    }


def _load_problem(path: str) -> DcProblem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None
    return parse_problem(text)


def _parse_rule(text: str) -> dca.SelectionRule:
    if text == "min-index":
        return dca.MinIndexActive()
    if text == "max-index":
        return dca.MaxIndexActive()
    if text.startswith("table:"):
        doc = _load_json(text[len("table:"):])
        entries = doc.get("entries") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ProblemFormatError(
                "table file: expected {\"entries\": [{\"active\": [...], "
                "\"choose\": j}, ...]}"
            )
        table = {}
        for k, entry in enumerate(entries):
            if (
                not isinstance(entry, dict)
                or "active" not in entry
                or "choose" not in entry
            ):
                raise ProblemFormatError(
                    f"table entry #{k}: expected 'active' and 'choose'"
                )
            active, choose = entry["active"], entry["choose"]
            if not isinstance(active, list) or not all(
                _is_int(j) and j >= 0 for j in active
            ):
                raise ProblemFormatError(
                    f"table entry #{k}.active: expected a list of "
                    f"nonnegative integers, got {active!r}"
                )
            if not _is_int(choose):
                raise ProblemFormatError(
                    f"table entry #{k}.choose: expected an integer, got {choose!r}"
                )
            table[frozenset(active)] = choose
        return dca.ByActiveSetTable(table)
    if text.startswith("script:"):
        doc = _load_json(text[len("script:"):])
        subgradients = doc.get("subgradients") if isinstance(doc, dict) else None
        if not isinstance(subgradients, list):
            raise ProblemFormatError(
                "script file: expected {\"subgradients\": [[...], ...]}"
            )
        vectors = []
        for k, entry in enumerate(subgradients):
            if not isinstance(entry, list):
                raise ProblemFormatError(f"script entry #{k}: expected a list")
            vectors.append(
                tuple(
                    parse_rational(c, f"script entry #{k}[{i}]")
                    for i, c in enumerate(entry)
                )
            )
        return dca.Scripted(tuple(vectors))
    raise ProblemFormatError(
        f"unknown rule '{text}'; use min-index, max-index, table:FILE or "
        "script:FILE"
    )


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args) -> int:
    prob = _load_problem(args.problem)
    point = parse_csv_vector(args.point, prob.dimension)
    result = classify(prob, point, compute_global=args.compute_global)
    report = {
        "command": "classify",
        "point": fmt_vector(point),
        "feasible": result.feasible,
        "critical": result.critical,
        "stationary": result.stationary,
        "local": result.local.value,
        "global": result.global_.value,
        "hypothesis_flags": {
            "interior_dom_g": result.hypothesis_flags.interior_dom_g,
            "interior_dom_h": result.hypothesis_flags.interior_dom_h,
        },
    }
    sys.stdout.write(emit_report(report))
    return 0


def _cmd_dca(args) -> int:
    prob = _load_problem(args.problem)
    x0 = parse_csv_vector(args.x0, prob.dimension)
    rule = _parse_rule(args.rule)
    trace = dca.run(prob, x0, rule, max_iter=args.max_iter)
    report = {
        "command": "dca",
        "rule": args.rule,
        "x0": fmt_vector(x0),
        "max_iter": args.max_iter,
        "iterates": [
            {
                "x": fmt_vector(it.x),
                "xi": fmt_vector(it.xi),
                "f": str(it.value),
            }
            for it in trace.iterates
        ],
        "termination": {
            "kind": trace.termination.kind.value,
            "step": trace.termination.step,
            "period": trace.termination.period,
        },
    }
    sys.stdout.write(emit_report(report))
    return 0


def _cmd_structure(args) -> int:
    prob = _load_problem(args.problem)
    result = solution_structure(prob)
    sys.stdout.write(emit_report(_structure_report(result)))
    return 0


def _cmd_dual(args) -> int:
    prob = _load_problem(args.problem)
    if args.xi is not None:
        xi = parse_csv_vector(args.xi, prob.dimension)
        report = {
            "command": "dual",
            "xi": fmt_vector(xi),
            "dual_value": str(dual_objective(prob, xi)),
        }
    else:
        result = toland_singer_check(prob)
        report = {
            "command": "dual",
            "primal_value": str(result.primal_value),
            "candidates": [
                {"xi": fmt_vector(xi), "value": str(value)}
                for xi, value in result.candidates
            ],
            "attained_at": (
                None
                if result.attained_at is None
                else fmt_vector(result.attained_at)
            ),
        }
    sys.stdout.write(emit_report(report))
    return 0


def _cmd_verify(args) -> int:
    prob = _load_problem(args.problem)
    step = parse_rational(args.grid_step, "--grid-step")
    result = grid_cross_check(prob, step)
    report = {
        "command": "verify",
        "grid_step": str(result.step),
        "points_in_set": result.points_in_set,
        "pieces_checked": result.pieces_checked,
        "failures": [
            {"point": fmt_vector(f.point), "check": f.check, "detail": f.detail}
            for f in result.failures
        ],
        "ok": result.ok,
    }
    sys.stdout.write(emit_report(report))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydc",
        description=(
            "Exact classification, solution-set decomposition, DCA runs and "
            "duality checks for polyhedral DC programs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one point")
    p.add_argument("--problem", required=True, help="problem document (JSON)")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.add_argument(
        "--global",
        dest="compute_global",
        action="store_true",
        help="also decide global optimality via the solution structure",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dca", help="run the DCA iteration")
    p.add_argument("--problem", required=True)
    p.add_argument("--x0", required=True, help="comma-separated rationals")
    p.add_argument(
        "--rule",
        default="min-index",
        help="min-index | max-index | table:FILE | script:FILE",
    )
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(func=_cmd_dca)

    p = sub.add_parser("structure", help="decompose the solution sets")
    p.add_argument("--problem", required=True)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("dual", help="dual values and the equal-value check")
    p.add_argument("--problem", required=True)
    p.add_argument("--xi", help="evaluate the dual objective at one point")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="grid-oracle cross-checks (n <= 2)")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid-step", required=True, help="rational, e.g. 1/8")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolydcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

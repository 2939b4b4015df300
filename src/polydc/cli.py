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
import re
import reprlib
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


# the text of a rational: "p" or "p/q" in decimal digits, no point or exponent
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# an offending value as an error message shows it: its repr, shortened past
# 80 characters, as the message's location already says where it is
_SHOWN = reprlib.Repr()
_SHOWN.maxstring = _SHOWN.maxlong = 80


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, str) and _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value.strip())
        except (ZeroDivisionError, ValueError) as exc:
            # ValueError: more digits than Python converts (its guard
            # against slow parsing); the hint after ";" is for programmers
            raise ProblemFormatError(f"{where}: {str(exc).split(';')[0]}") from None
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, (bool, float, str)):
        raise ProblemFormatError(
            f"{where}: rationals must be strings like \"-3/2\" or integers, "
            f"got {_SHOWN.repr(value)}"
        )
    raise ProblemFormatError(f"{where}: expected a rational, got {_SHOWN.repr(value)}")


def _json_int(text: str):
    """A JSON integer, or its text when it has more digits than `int`
    converts: the reader of the value then rejects it with its location,
    as `parse_rational` does any text of such a number."""
    try:
        return int(text)
    except ValueError:
        return text


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


def fmt_rational(value) -> str:
    """The text of a rational (or extended rational) in a report, the one
    formatter of every number a report prints.  A value of more digits than
    Python converts (its guard against slow conversion, which stays) is a
    PolydcError, reported as one error line with exit 2."""
    try:
        return str(value)
    except ValueError as exc:
        raise PolydcError(f"report value: {str(exc).split(';')[0]}") from None


def fmt_vector(v: Sequence[Fraction]) -> list[str]:
    return [fmt_rational(c) for c in v]


# ---------------------------------------------------------------------------
# problem documents


# the (vector key, scalar key) of each kind of row in a document
_ROW_KEYS = {"eq": ("a", "y"), "ineq": ("a", "b"), "pieces": ("u", "alpha")}


def _row_list(node: dict, key: str, where: str) -> list:
    """The rows under `key`: a list, or none when the key is absent or null."""
    rows = node.get(key)
    if rows is None:
        return []
    if not isinstance(rows, list):
        raise ProblemFormatError(
            f"{where}.{key}: expected a list of rows or null, got {_SHOWN.repr(rows)}"
        )
    return rows


def _parse_rows(rows: list, key: str, dimension: int, where: str) -> tuple:
    """(vector, rational) pairs from the rows of kind `key` at `where`."""
    vector_key, scalar_key = _ROW_KEYS[key]
    parsed = []
    for k, row in enumerate(rows):
        spot = f"{where}.{key}[{k}]"
        if not isinstance(row, dict) or vector_key not in row or scalar_key not in row:
            raise ProblemFormatError(
                f"{spot}: expected {{\"{vector_key}\": [...], \"{scalar_key}\": r}}"
            )
        parsed.append(
            (
                parse_vector(row[vector_key], dimension, f"{spot}.{vector_key}"),
                parse_rational(row[scalar_key], f"{spot}.{scalar_key}"),
            )
        )
    return tuple(parsed)


def _rows_document(rows, key: str) -> list:
    """The rows of kind `key` as document rows; inverse of `_parse_rows`."""
    vector_key, scalar_key = _ROW_KEYS[key]
    return [{vector_key: fmt_vector(a), scalar_key: fmt_rational(b)} for a, b in rows]


def _known_keys(node: dict, keys: Sequence[str], where: str) -> None:
    """Reject a key of `node` outside `keys`, naming the allowed keys in
    order."""
    unknown = sorted(set(node) - set(keys))
    if unknown:
        allowed = "/".join(f"'{key}'" for key in keys)
        raise ProblemFormatError(f"{where}: unknown keys {unknown}; expected {allowed}")


def _json(text: str, where: str = ""):
    """The JSON document `text`, or an error located by line and column,
    after the prefix `where`."""
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        at = f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        raise ProblemFormatError(where + at) from None


def _parse_set(node, dimension: int, where: str) -> PolyhedralSet:
    if node is None:
        return PolyhedralSet.whole_space(dimension)
    if not isinstance(node, dict):
        raise ProblemFormatError(f"{where}: expected an object or null")
    _known_keys(node, ("eq", "ineq"), where)
    equalities, inequalities = (
        _parse_rows(_row_list(node, key, where), key, dimension, where)
        for key in ("eq", "ineq")
    )
    return PolyhedralSet(dimension, equalities=equalities, inequalities=inequalities)


def _parse_function(node, dimension: int, where: str) -> MaxAffine:
    if not isinstance(node, dict) or "pieces" not in node:
        raise ProblemFormatError(f"{where}: expected {{\"pieces\": [...], ...}}")
    _known_keys(node, ("pieces", "domain"), where)
    raw = node["pieces"]
    if not isinstance(raw, list) or not raw:
        raise ProblemFormatError(f"{where}.pieces: expected a nonempty list")
    pieces = _parse_rows(raw, "pieces", dimension, where)
    domain = _parse_set(node.get("domain"), dimension, f"{where}.domain")
    try:
        return MaxAffine(pieces=pieces, domain=domain)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from None


def parse_problem(text: str) -> DcProblem:
    """Parse a problem document; diagnostics carry line/column or JSON path."""
    doc = _json(text)
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level: expected an object")
    keys = ("dimension", "C", "g", "h")
    for key in keys:
        if key not in doc:
            raise ProblemFormatError(f"top level: missing key '{key}'")
    _known_keys(doc, keys, "top level")
    dimension = doc["dimension"]
    if not _is_int(dimension) or dimension < 1:
        raise ProblemFormatError("dimension: expected a positive integer")
    C = _parse_set(doc["C"], dimension, "C")
    g = _parse_function(doc["g"], dimension, "g")
    h = _parse_function(doc["h"], dimension, "h")
    return DcProblem(g=g, h=h, C=C)


def _set_document(s: PolyhedralSet) -> dict:
    return {
        "eq": _rows_document(s.equalities, "eq"),
        "ineq": _rows_document(s.inequalities, "ineq"),
    }


def _function_document(f: MaxAffine) -> dict:
    return {
        "pieces": _rows_document(f.pieces, "pieces"),
        "domain": None if f.domain.is_whole_space else _set_document(f.domain),
    }


def serialize_problem(prob: DcProblem) -> str:
    doc = {
        "dimension": prob.dimension,
        "C": None if prob.C.is_whole_space else _set_document(prob.C),
        "g": _function_document(prob.g),
        "h": _function_document(prob.h),
    }
    return emit_report(doc)


# ---------------------------------------------------------------------------
# reports


def emit_report(report: dict) -> str:
    """Deterministic JSON text for any command result."""
    return json.dumps(report, indent=2) + "\n"


def _structure_report(result: SolutionStructure) -> dict:
    return {
        "command": "structure",
        "alpha_bar": fmt_rational(result.alpha_bar),
        "J_star": sorted(result.J_star),
        "global_pieces": [
            {
                "j": r.piece,
                "alpha": fmt_rational(r.value),
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
                "f": fmt_rational(c.value),
            }
            for c in result.components
        ],
    }


def _read(path: str) -> str:
    """The text of the file at `path`, or a located error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from None


def _parse_rule(text: str, prob: DcProblem) -> dca.SelectionRule:
    """The rule `--rule` names; a table or script that cannot fit the
    problem's h (its piece count q and dimension n) is rejected with the
    location of the first entry at fault."""
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
        table, first = {}, {}
        q = len(prob.h.pieces)
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
                    f"nonnegative integers, got {_SHOWN.repr(active)}"
                )
            if not _is_int(choose):
                raise ProblemFormatError(
                    f"table entry #{k}.choose: expected an integer, got "
                    f"{_SHOWN.repr(choose)}"
                )
            for where, j in [("active", j) for j in active] + [("choose", choose)]:
                if not 1 <= j <= q:
                    raise ProblemFormatError(
                        f"table entry #{k}.{where}: piece {_SHOWN.repr(j)}, but h has "
                        f"{q} pieces"
                    )
            key = frozenset(active)
            if len(key) < len(active):
                raise ProblemFormatError(
                    f"table entry #{k}.active: {_SHOWN.repr(active)} repeats a piece"
                )
            if choose not in key:
                raise ProblemFormatError(
                    f"table entry #{k}.choose: piece {choose} is not in its "
                    f"active set {sorted(key)}"
                )
            if key in first:
                raise ProblemFormatError(
                    f"table entry #{k}.active: the active set {sorted(key)} "
                    f"is given by entry #{first[key]} already"
                )
            first[key] = k
            table[key] = choose
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
            if len(entry) != prob.dimension:
                raise ProblemFormatError(
                    f"script entry #{k}: length {len(entry)}, "
                    f"expected {prob.dimension}"
                )
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
    return _json(_read(path), f"{path}: ")


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(prob: DcProblem, args) -> tuple[dict, int]:
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
    return report, 0


def _cmd_dca(prob: DcProblem, args) -> tuple[dict, int]:
    if args.max_iter < 0:
        raise ProblemFormatError(
            f"--max-iter: expected a count >= 0, got {args.max_iter}"
        )
    x0 = parse_csv_vector(args.x0, prob.dimension)
    rule = _parse_rule(args.rule, prob)
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
                "f": fmt_rational(it.value),
            }
            for it in trace.iterates
        ],
        "termination": {
            "kind": trace.termination.kind.value,
            "step": trace.termination.step,
            "period": trace.termination.period,
        },
    }
    return report, 0


def _cmd_structure(prob: DcProblem, args) -> tuple[dict, int]:
    return _structure_report(solution_structure(prob)), 0


def _cmd_dual(prob: DcProblem, args) -> tuple[dict, int]:
    if args.xi is not None:
        xi = parse_csv_vector(args.xi, prob.dimension)
        report = {
            "command": "dual",
            "xi": fmt_vector(xi),
            "dual_value": fmt_rational(dual_objective(prob, xi)),
        }
    else:
        result = toland_singer_check(prob)
        report = {
            "command": "dual",
            "primal_value": fmt_rational(result.primal_value),
            "candidates": [
                {"xi": fmt_vector(xi), "value": fmt_rational(value)}
                for xi, value in result.candidates
            ],
            "attained_at": fmt_vector(result.attained_at),
        }
    return report, 0


def _cmd_verify(prob: DcProblem, args) -> tuple[dict, int]:
    step = parse_rational(args.grid_step, "--grid-step")
    result = grid_cross_check(prob, step)
    report = {
        "command": "verify",
        "grid_step": fmt_rational(result.step),
        "points_in_set": result.points_in_set,
        "pieces_checked": result.pieces_checked,
        "failures": [
            {"point": fmt_vector(f.point), "check": f.check, "detail": f.detail}
            for f in result.failures
        ],
        "ok": result.ok,
    }
    return report, 0 if result.ok else 1


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
        report, code = args.func(parse_problem(_read(args.problem)), args)
    except PolydcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: problem pools, ops and output checks.

Every workload draws its problems from a fixed pool.  Pool problem `i` is
generated from its own fixed seed, so each one has a reference, recorded
once by `record_reference.py`, that keeps only pivot-independent fields.
The run seed chooses the *presentation* of each problem -- the order of
g's pieces and of C's rows -- and the order in which ops run.  A new
presentation changes every LP tableau and hence every pivot sequence, but
none of the checked outputs, so the reference holds for every seed while
the cost of a pass over the pool stays nearly seed-independent.

The program sees only documents: each presented problem is written with
`serialize_problem` and read back with `parse_problem`.

Every op is checked twice: its pivot-independent summary must equal the
reference, and reference-free invariants must hold.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

GRID_STEP = Fraction(1, 8)


@dataclass(frozen=True)
class Spec:
    """One pool problem as plain data: C is the box [lo, hi]."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    g: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    h: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def digest(self) -> str:
        """Fingerprint of the data, independent of polydc's file format."""

        def pieces(ps):
            return [[[str(c) for c in u], str(a)] for u, a in ps]

        doc = [
            [str(c) for c in self.lo],
            [str(c) for c in self.hi],
            pieces(self.g),
            pieces(self.h),
        ]
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _box(rng: random.Random, n: int):
    lo, hi = [], []
    for _ in range(n):
        a = Fraction(rng.randint(-3, 0))
        b = a + rng.randint(1, 4)
        if rng.random() < 0.3:
            a -= Fraction(1, 2)
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


def _pieces(rng: random.Random, n: int, count: int):
    """`count` distinct affine pieces with general (not axis-restricted)
    gradients in {-2..2}^n and offsets in {-2..2, -1/2, 1/2}."""
    offsets = [Fraction(k) for k in range(-2, 3)] + [Fraction(1, 2), Fraction(-1, 2)]
    pieces = set()
    while len(pieces) < count:
        u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        pieces.add((u, rng.choice(offsets)))
    return tuple(sorted(pieces))


def _generate(pool_seed: int, classes) -> list[Spec]:
    """Pool problems for classes of (dimension, max g pieces, h pieces, count)."""
    specs = []
    for c, (n, g_max, q, count) in enumerate(classes):
        for k in range(count):
            rng = random.Random(pool_seed * 10000 + c * 100 + k)
            lo, hi = _box(rng, n)
            g = _pieces(rng, n, rng.randint(1, g_max))
            specs.append(Spec(lo, hi, g, _pieces(rng, n, q)))
    return specs


@dataclass(frozen=True)
class Op:
    """One unit of timed work: `part` numbers the ops of one problem."""

    problem: int
    part: int
    args: tuple


def present(P, spec: Spec, rng: Optional[random.Random]):
    """The problem as the program sees it, after a document round trip.

    With an rng the pieces of g and the rows of C are shuffled.  Returns
    (problem, errors); errors lists any round-trip mismatch.
    """
    n = spec.dimension
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        rows.append((tuple(e), spec.hi[i]))
        rows.append((tuple(-c for c in e), -spec.lo[i]))
    g = list(spec.g)
    if rng is not None:
        rng.shuffle(g)
        rng.shuffle(rows)
    built = P.DcProblem(
        g=P.MaxAffine.from_pieces(g, n),
        h=P.MaxAffine.from_pieces(spec.h, n),
        C=P.PolyhedralSet(n, inequalities=tuple(rows)),
    )
    prob = P.parse_problem(P.serialize_problem(built))
    errors = []
    if (prob.g.pieces, prob.h.pieces, prob.C.inequalities, prob.C.equalities) != (
        tuple(g),
        spec.h,
        tuple(rows),
        (),
    ):
        errors.append("serialize/parse round trip changed the problem")
    return prob, errors


def _vec(v) -> list[str]:
    return [str(c) for c in v]


class Workload:
    """Pool, ops, op call, summary and invariants of one workload."""

    name: str
    pool_seed: int
    classes: tuple

    def pool(self) -> list[Spec]:
        return _generate(self.pool_seed, self.classes)

    def ops_for(self, index: int, spec: Spec, prob) -> list[Op]:
        return [Op(index, 0, (prob,))]

    def call(self, P, op: Op):
        raise NotImplementedError

    def summary(self, op: Op, out) -> Any:
        """JSON-able, pivot-independent part of an op's output."""
        raise NotImplementedError

    def invariants(self, P, op: Op, out) -> list[str]:
        raise NotImplementedError


class Decompose(Workload):
    """One op is one `solution_structure(prob)` call (`polydc structure`)."""

    name = "decompose"
    pool_seed = 1
    # cheapest classes first, so a short pool prefix is a tiny input
    classes = (
        (1, 3, 1, 3),
        (2, 3, 1, 3),
        (1, 3, 2, 12),
        (2, 3, 2, 12),
        (1, 2, 3, 5),
        (2, 2, 3, 1),
        (1, 2, 4, 1),
    )

    def call(self, P, op):
        return P.solution_structure(op.args[0])

    def summary(self, op, out):
        return {
            "alpha_bar": str(out.alpha_bar),
            "J_star": sorted(out.J_star),
            "J1": [sorted(p.J1) for p in out.local_pieces],
            "components": [[str(c.value), list(c.pieces)] for c in out.components],
        }

    def invariants(self, P, op, out):
        prob = op.args[0]
        errors = []
        if not out.alpha_bar.is_finite:
            errors.append("alpha_bar is not finite on a bounded box")
            return errors
        alpha = out.alpha_bar.as_fraction()
        for r in out.global_pieces:
            if prob.objective_value(r.witness) != out.alpha_bar:
                errors.append(f"global witness of piece {r.piece} misses alpha_bar")
        for k, piece in enumerate(out.local_pieces):
            if not piece.contains(piece.witness):
                errors.append(f"local piece #{k} does not contain its witness")
        members = sorted(i for c in out.components for i in c.pieces)
        if members != list(range(len(out.local_pieces))):
            errors.append("components do not partition the local pieces")
        values = [c.value for c in out.components]
        if not values or min(values) != alpha:
            errors.append("least component value differs from alpha_bar")
        for c in out.components:
            for i in c.pieces:
                if prob.finite_objective(out.local_pieces[i].witness) != c.value:
                    errors.append(f"objective not constant on component {c.pieces}")
        return errors


class DcaDual(Workload):
    """One op is one problem: four DCA runs, `is_critical` at each fixed
    point, and `toland_singer_check` (`polydc dca` plus `polydc dual`)."""

    name = "dca_dual"
    pool_seed = 2
    classes = tuple(
        (n, 4, q, count)
        for n, count in ((1, 6), (2, 9), (3, 5))
        for q in (2, 3, 4)
    )

    def ops_for(self, index, spec, prob):
        centre = tuple((a + b) / 2 for a, b in zip(spec.lo, spec.hi))
        return [Op(index, 0, (prob, (spec.lo, centre)))]

    def call(self, P, op):
        prob, starts = op.args
        traces = [
            P.run(prob, x0, rule)
            for rule in (P.MinIndexActive(), P.MaxIndexActive())
            for x0 in starts
        ]
        fixed = P.TerminationKind.FIXED_POINT
        critical = [
            P.is_critical(prob, t.final_point)
            for t in traces
            if t.termination.kind is fixed
        ]
        return traces, critical, P.toland_singer_check(prob)

    def summary(self, op, out):
        traces, _, report = out
        values = dict(report.candidates)
        return {
            "runs": [
                {
                    "kind": t.termination.kind.value,
                    "step": t.termination.step,
                    "period": t.termination.period,
                    "iterates": [[_vec(it.x), _vec(it.xi), str(it.value)] for it in t.iterates],
                }
                for t in traces
            ],
            "alpha_bar": str(report.primal_value),
            "dual_at_h": [str(values[v]) for v, _ in op.args[0].h.pieces],
        }

    def invariants(self, P, op, out):
        prob = op.args[0]
        traces, critical, report = out
        errors = []
        for k, t in enumerate(traces):
            values = [it.value for it in t.iterates]
            if any(b > a for a, b in zip(values, values[1:])):
                errors.append(f"run {k}: objective increased")
            for it in t.iterates:
                active = prob.h.active_indices(it.x)
                if it.xi not in {prob.h.piece(j)[0] for j in active}:
                    errors.append(f"run {k}: xi is not an active gradient of h")
                    break
        if not all(critical):
            errors.append("a DCA fixed point is not critical")
        for xi, value in report.candidates:
            if value < report.primal_value:
                errors.append(f"dual candidate {_vec(xi)} below alpha_bar")
        if report.attained_at is not None:
            if dict(report.candidates)[report.attained_at] != report.primal_value:
                errors.append("attained_at does not attain alpha_bar")
        return errors


class ClassifyPoints(Workload):
    """One op is one `classify(prob, x)` call (`polydc classify` without
    `--global`) at a point of the 1/8 grid in C."""

    name = "classify_points"
    pool_seed = 3
    classes = (
        (1, 4, 2, 3),
        (1, 4, 4, 3),
        (2, 4, 2, 6),
        (2, 4, 3, 4),
        (2, 4, 4, 6),
    )

    def ops_for(self, index, spec, prob):
        axes = []
        for lo, hi in zip(spec.lo, spec.hi):
            start = -((-lo) // GRID_STEP)
            stop = hi // GRID_STEP
            axes.append([k * GRID_STEP for k in range(int(start), int(stop) + 1)])
        return [
            Op(index, part, (prob, x))
            for part, x in enumerate(itertools.product(*axes))
        ]

    def call(self, P, op):
        return P.classify(*op.args)

    def summary(self, op, out):
        return "".join(
            (
                "F" if out.feasible else "-",
                "C" if out.critical else "-",
                "S" if out.stationary else "-",
                out.local.value[0],
            )
        )

    def invariants(self, P, op, out):
        errors = []
        if not out.feasible:
            errors.append("grid point of C classified infeasible")
        if out.local is P.LocalStatus.YES and not out.stationary:
            errors.append("local but not stationary")
        if out.stationary and not out.critical:
            errors.append("stationary but not critical")
        return errors


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Decompose(), DcaDual(), ClassifyPoints())
}


@dataclass
class Batch:
    """A presented pool: the ops to run and any set-up errors."""

    ops: list[Op]
    errors: list[str]


def set_up(P, workload: Workload, seed: Optional[int], limit: Optional[int] = None) -> Batch:
    """Present the pool (or its first `limit` problems) under `seed`.

    seed None keeps the canonical presentation and order, as used when the
    reference is recorded.
    """
    rng = None if seed is None else random.Random(seed)
    specs = workload.pool()[:limit]
    ops: list[Op] = []
    errors: list[str] = []
    for index, spec in enumerate(specs):
        prob, bad = present(P, spec, rng)
        errors += [f"problem {index}: {e}" for e in bad]
        ops += workload.ops_for(index, spec, prob)
    if rng is not None:
        rng.shuffle(ops)
    return Batch(ops, errors)


def checker(P, workload: Workload, reference: dict) -> Callable[[Op, Any], list[str]]:
    """A function giving the failed checks of one op's output."""
    entries = reference[workload.name]
    digests = [spec.digest() for spec in workload.pool()]
    if len(entries) != len(digests) or any(
        e["digest"] != d for e, d in zip(entries, digests)
    ):
        raise ValueError(f"reference for {workload.name} does not match its pool")

    def check(op: Op, out) -> list[str]:
        errors = []
        expected = entries[op.problem]["expected"][op.part]
        if workload.summary(op, out) != expected:
            errors.append(f"problem {op.problem} part {op.part}: differs from reference")
        errors += [
            f"problem {op.problem} part {op.part}: {e}"
            for e in workload.invariants(P, op, out)
        ]
        return errors

    return check

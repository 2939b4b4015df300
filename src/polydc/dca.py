"""DCA iteration for polyhedral DC programs, with cycle detection.

One step from x: pick a subgradient xi of h at x, then minimize
g(x') - xi.x' over C.  The subproblem minimizer is canonicalized to the
lexicographically smallest point of the optimal face, so the whole
iteration is a deterministic map whenever the subgradient selection is.
Selection rules keyed on the active set of h take finitely many values,
which makes every run on a bounded problem eventually periodic: the first
revisited iterate closes a fixed point (period 1) or a cycle.  Objective
values never increase along a run; exact arithmetic lets the cycle test be
literal equality of rational vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Mapping, Optional, Sequence

from .exactlp import LpStatus, Vector, dot, lp_solve, vector
from .model import (
    DcProblem,
    InternalCheckFailed,
    MaxAffine,
    OutsideDomain,
    PolydcError,
    PolyhedralSet,
    Scaled,
    _check_dimension,
    _scaled,
)


class InvalidSelection(PolydcError):
    """A selection rule failed to produce a subgradient."""


class SubproblemUnboundedError(PolydcError):
    pass


class SelectionRule:
    """Base for subgradient selection rules; see the concrete rules.

    A rule that selects by the active set of h alone also has
    `pick(active) -> j`: from the 1-based indices of the active pieces, in
    ascending order, the index of the piece whose gradient it selects.
    `run` hands such a rule the active set it has already evaluated and
    falls back to `choose` for rules without `pick`.
    """

    deterministic = True

    def choose(self, h: MaxAffine, x: Vector, step: int) -> Vector:
        raise NotImplementedError


class _ActiveSetRule(SelectionRule):
    """A rule given by `pick`; `choose` evaluates the active set at x."""

    def pick(self, active: Sequence[int]) -> int:
        raise NotImplementedError

    def choose(self, h, x, step):
        return h.piece(self.pick(sorted(h.active_indices(x))))[0]


@dataclass(frozen=True)
class MinIndexActive(_ActiveSetRule):
    """Gradient of the lowest-indexed active piece of h."""

    def pick(self, active):
        return active[0]


@dataclass(frozen=True)
class MaxIndexActive(_ActiveSetRule):
    """Gradient of the highest-indexed active piece of h."""

    def pick(self, active):
        return active[-1]


@dataclass(frozen=True)
class ByActiveSetTable(_ActiveSetRule):
    """Explicit table from active sets to the chosen piece index."""

    table: Mapping[frozenset[int], int]

    def pick(self, active):
        chosen = self.table.get(frozenset(active))
        if chosen is None:
            raise InvalidSelection(
                f"no table entry for active set {list(active)}"
            )
        if chosen not in active:
            raise InvalidSelection(
                f"table picks piece {chosen}, not active at this point "
                f"(active set {list(active)})"
            )
        return chosen


@dataclass(frozen=True)
class Scripted(SelectionRule):
    """Fixed list of subgradients, one per step; each is validated."""

    subgradients: tuple[Vector, ...]
    deterministic = False

    def __post_init__(self):
        object.__setattr__(
            self, "subgradients", tuple(vector(v) for v in self.subgradients)
        )

    def choose(self, h, x, step):
        if step >= len(self.subgradients):
            raise IndexError("script exhausted")
        xi = self.subgradients[step]
        if not h.subdifferential(x).contains(xi):
            raise InvalidSelection(
                f"scripted vector at step {step} is not a subgradient of h "
                "at the current iterate"
            )
        return xi


def select_subgradient(
    h: MaxAffine, x: Sequence, rule: SelectionRule, step: int = 0
) -> Vector:
    """The rule's subgradient of h at x (x must lie in dom(h))."""
    x = _check_dimension(x, h.dimension)
    if not h.domain.contains(x):
        raise OutsideDomain("subgradient selection outside dom(h)")
    return rule.choose(h, x, step)


def solve_subproblem(
    g: MaxAffine, C: PolyhedralSet, xi: Sequence
) -> tuple[Vector, Fraction]:
    """Canonical minimizer and value of g(x) - xi.x over C ∩ dom(g).

    One epigraph LP: its tableau goes on to walk the optimal face to the
    lexicographically smallest point (`lp_solve` with `lexmin`).  On an
    unbounded face a coordinate without a minimum is pinned to 0 when
    feasible, else to its maximum, keeping the choice a function of the
    face alone.  When C is the whole space the LP shares g's prepared start
    (`MaxAffine.epigraph_lp`): `run` solves over g + indicator(C) that way.
    Raises SubproblemUnboundedError when the objective is unbounded below.
    """
    xi = _check_dimension(xi, g.dimension, "subgradient")
    outcome = lp_solve(g.epigraph_lp(xi, C), lexmin=g.dimension)
    if outcome.status is LpStatus.INFEASIBLE:
        raise InternalCheckFailed(
            "subproblem infeasible despite the standing assumption"
        )
    if outcome.status is LpStatus.UNBOUNDED:
        raise SubproblemUnboundedError(
            "the convex subproblem g - xi.x is unbounded below on C"
        )
    return outcome.point[: g.dimension], outcome.value


class TerminationKind(Enum):
    FIXED_POINT = "fixed-point"
    CYCLE = "cycle"
    MAX_ITERATIONS = "max-iterations"
    SUBPROBLEM_UNBOUNDED = "subproblem-unbounded"
    SUBDIFFERENTIAL_EMPTY = "subdifferential-empty"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    step: Optional[int] = None
    period: Optional[int] = None


@dataclass(frozen=True)
class Iterate:
    x: Vector
    xi: Vector
    value: Fraction


@dataclass(frozen=True)
class DcaTrace:
    iterates: tuple[Iterate, ...]
    termination: Termination

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(it.value for it in self.iterates)

    @property
    def points(self) -> tuple[Vector, ...]:
        return tuple(it.x for it in self.iterates)

    @property
    def final_point(self) -> Vector:
        return self.iterates[-1].x


def run(
    prob: DcProblem,
    x0: Sequence,
    rule: SelectionRule,
    max_iter: int = 1000,
) -> DcaTrace:
    """Iterate DCA from x0 until a fixed point, a cycle, or a stop signal.

    The trace records every iterate including the first repeated one, so a
    fixed point shows up as two equal trailing entries.  For deterministic
    rules the state is the iterate itself, so the first exact revisit
    closes the run: period 1 is a fixed point, larger periods are cycles.
    Scripted rules are step-dependent; they run until the script or the
    iteration budget is exhausted.  An error a rule raises while it
    selects propagates.

    x0 is checked and g is evaluated there.  Every later iterate is the
    point of a subproblem LP, which puts it in C ∩ dom(g) with g(x) equal to
    the LP value plus xi.x, so only h is evaluated there; a rule with
    `pick` selects from the active set of that one evaluation.  The
    canonical minimizer is a function of xi alone, so each distinct xi of
    the run poses one subproblem LP: a repeated xi, as at every fixed point,
    takes the iterate the run already holds.  A negative `max_iter` raises
    ValueError.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    x = _check_dimension(x0, prob.dimension)
    point = _scaled(x)  # x on integers, once per iterate
    at_g = prob.g._at(point)
    if at_g is None:
        raise OutsideDomain("x0 is outside dom(g)")
    if prob.C._tight_rows(point) is None:
        raise OutsideDomain("x0 is outside the constraint set C")

    g_plus = prob.g_plus_indicator
    everywhere = PolyhedralSet.whole_space(prob.dimension)
    pick = getattr(rule, "pick", None)
    iterates: list[Iterate] = []
    # both memos are keyed by scaled points, which are equal exactly when
    # the points are and hash as integers: x scaled -> its step, and
    # xi scaled -> (x, x scaled, g(x)) of its subproblem, for this run only
    seen: dict[Scaled, int] = {}
    solved: dict[Scaled, tuple[Vector, Scaled, Fraction]] = {}
    step = 0
    g_value = at_g[0]  # (g + indicator(C))(x)
    while True:
        at_h = prob.h._at(point)
        if at_h is None:
            # no subgradient of h here; the offending point is the output
            # of step `step` and is not recorded as an iterate
            termination = Termination(
                TerminationKind.SUBDIFFERENTIAL_EMPTY, step=step
            )
            break
        if isinstance(rule, Scripted) and step >= len(rule.subgradients):
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        if pick is None:
            xi = rule.choose(prob.h, x, step)
        else:
            xi = prob.h.piece(pick([j + 1 for j in at_h[1]]))[0]
        value = g_value - at_h[0]
        iterates.append(Iterate(x, xi, value))
        if len(iterates) >= 2 and iterates[-2].value < value:
            raise InternalCheckFailed(
                "objective increased along a DCA run"
            )
        if rule.deterministic:
            first = seen.get(point)
            if first is not None:
                period = step - first
                kind = (
                    TerminationKind.FIXED_POINT
                    if period == 1
                    else TerminationKind.CYCLE
                )
                termination = Termination(kind, step=first, period=period)
                break
            seen[point] = step
        if step >= max_iter:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        xi = _check_dimension(xi, prob.dimension, "subgradient")
        key = _scaled(xi)
        if key not in solved:
            try:
                x, sub_value = solve_subproblem(g_plus, everywhere, xi)
            except SubproblemUnboundedError:
                termination = Termination(
                    TerminationKind.SUBPROBLEM_UNBOUNDED, step=step
                )
                break
            # x lies in C ∩ dom(g), and at the LP's optimum t = g(x); xi.x
            # is taken on integers, like every evaluation at x
            point = _scaled(x)
            (X, d), (Xi, s) = point, key
            g_value = sub_value + Fraction(sum(map(mul, Xi, X)), s * d)
            solved[key] = x, point, g_value
        x, point, g_value = solved[key]
        step += 1
    return DcaTrace(iterates=tuple(iterates), termination=termination)


@dataclass(frozen=True)
class StepCheck:
    """Validation of one DCA step; None marks a check with no data."""

    subgradient_ok: Optional[bool]
    minimizer_ok: Optional[bool]
    descent_ok: Optional[bool]


@dataclass(frozen=True)
class TraceValidation:
    steps: tuple[StepCheck, ...]
    valid: bool


def validate_trace(
    prob: DcProblem, xs: Sequence[Sequence], xis: Sequence[Sequence]
) -> TraceValidation:
    """Check a claimed DCA trace step by step.

    Step k verifies that xi_k is a subgradient of h at x_k, that x_{k+1}
    minimizes g - xi_k.x over C (both as subdifferential membership of the
    conjugate pair and as LP optimality; the two must agree), and that the
    objective did not increase.
    """
    xs = [_check_dimension(x, prob.dimension) for x in xs]
    xis = [_check_dimension(xi, prob.dimension, "subgradient") for xi in xis]
    if len(xis) not in (len(xs), len(xs) - 1):
        raise ValueError(
            "expected one subgradient per point (optionally omitting the last)"
        )
    steps = []
    for k, x in enumerate(xs):
        subgradient_ok = None
        if k < len(xis):
            at = prob.h._at(_scaled(x))
            subgradient_ok = at is not None and (
                prob.h._subdifferential(at).contains(xis[k])
            )
        minimizer_ok = None
        if k + 1 < len(xs) and k < len(xis):
            minimizer_ok = _is_subproblem_minimizer(prob, xis[k], xs[k + 1])
        descent_ok = None
        if k + 1 < len(xs):
            descent_ok = prob.objective_value(x) >= prob.objective_value(xs[k + 1])
        steps.append(StepCheck(subgradient_ok, minimizer_ok, descent_ok))
    valid = all(
        check is not False
        for step in steps
        for check in (step.subgradient_ok, step.minimizer_ok, step.descent_ok)
    )
    return TraceValidation(steps=tuple(steps), valid=valid)


def _is_subproblem_minimizer(prob: DcProblem, xi: Vector, x_next: Vector) -> bool:
    point = _scaled(x_next)
    at = prob.g._at(point)
    tight_C = prob.C._tight_rows(point)
    if at is None or tight_C is None:
        return False
    # route 1: xi lies in the subdifferential of g + indicator(C) at x_next
    body = prob.g._subdifferential(at, tight_C, prob.C._lineality())
    by_subdifferential = body.contains(xi)
    # route 2: x_next attains the subproblem optimum (feasible, as x_next
    # lies in C and dom(g))
    outcome = lp_solve(prob.g_plus_indicator.epigraph_lp(xi))
    by_optimality = (
        outcome.is_optimal
        and at[0] - dot(xi, x_next) == outcome.value
    )
    if by_subdifferential != by_optimality:
        raise InternalCheckFailed(
            "subdifferential and LP-optimality tests disagree on a DCA step"
        )
    return by_optimality

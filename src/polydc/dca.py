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
from typing import Mapping, Optional, Sequence

from .exactlp import LpStatus, Vector, dot, lp_solve, vector
from .model import (
    DcProblem,
    InternalCheckFailed,
    MaxAffine,
    OutsideDomain,
    PolydcError,
    PolyhedralSet,
    _check_dimension,
)


class InvalidSelection(PolydcError):
    """A selection rule failed to produce a subgradient."""


class SubproblemUnboundedError(PolydcError):
    pass


class SelectionRule:
    """Base for subgradient selection rules; see the concrete rules."""

    deterministic = True

    def choose(self, h: MaxAffine, x: Vector, step: int) -> Vector:
        raise NotImplementedError


@dataclass(frozen=True)
class MinIndexActive(SelectionRule):
    """Gradient of the lowest-indexed active piece of h."""

    def choose(self, h, x, step):
        return h.piece(min(h.active_indices(x)))[0]


@dataclass(frozen=True)
class MaxIndexActive(SelectionRule):
    """Gradient of the highest-indexed active piece of h."""

    def choose(self, h, x, step):
        return h.piece(max(h.active_indices(x)))[0]


@dataclass(frozen=True)
class ByActiveSetTable(SelectionRule):
    """Explicit table from active sets to the chosen piece index."""

    table: Mapping[frozenset[int], int]

    def choose(self, h, x, step):
        active = h.active_indices(x)
        chosen = self.table.get(active)
        if chosen is None:
            raise InvalidSelection(
                f"no table entry for active set {sorted(active)}"
            )
        if chosen not in active:
            raise InvalidSelection(
                f"table picks piece {chosen}, not active at this point "
                f"(active set {sorted(active)})"
            )
        return h.piece(chosen)[0]


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
    iteration budget is exhausted.

    x0 is checked and evaluated in full.  Every later iterate is the point
    of a subproblem LP, which puts it in C ∩ dom(g) with g(x) equal to the
    LP value plus xi.x, so only h is evaluated there.
    """
    x = _check_dimension(x0, prob.dimension)
    if not prob.g.domain.contains(x):
        raise OutsideDomain("x0 is outside dom(g)")
    if not prob.C.contains(x):
        raise OutsideDomain("x0 is outside the constraint set C")

    g_plus = prob.g_plus_indicator
    everywhere = PolyhedralSet.whole_space(prob.dimension)
    iterates: list[Iterate] = []
    seen: dict[Vector, int] = {}
    step = 0
    g_value = None  # (g + indicator(C))(x) from the step that produced x
    while True:
        if not prob.h.domain.contains(x):
            # no subgradient of h here; the offending point is the output
            # of step `step` and is not recorded as an iterate
            termination = Termination(
                TerminationKind.SUBDIFFERENTIAL_EMPTY, step=step
            )
            break
        try:
            xi = rule.choose(prob.h, x, step)
        except IndexError:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        if g_value is None:
            value = prob.finite_objective(x)
        else:  # x is in dom(h): one pass over h's pieces is h(x)
            value = g_value - max(dot(u, x) + alpha for u, alpha in prob.h.pieces)
        iterates.append(Iterate(x, xi, value))
        if len(iterates) >= 2 and iterates[-2].value < value:
            raise InternalCheckFailed(
                "objective increased along a DCA run"
            )
        if rule.deterministic:
            first = seen.get(x)
            if first is not None:
                period = step - first
                kind = (
                    TerminationKind.FIXED_POINT
                    if period == 1
                    else TerminationKind.CYCLE
                )
                termination = Termination(kind, step=first, period=period)
                break
            seen[x] = step
        if step >= max_iter:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        try:
            x, sub_value = solve_subproblem(g_plus, everywhere, xi)
        except SubproblemUnboundedError:
            termination = Termination(
                TerminationKind.SUBPROBLEM_UNBOUNDED, step=step
            )
            break
        # x lies in C ∩ dom(g), and at the LP's optimum t = g(x)
        g_value = sub_value + dot(xi, x)
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
            subgradient_ok = prob.h.domain.contains(x) and prob.h.subdifferential(
                x
            ).contains(xis[k])
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
    if not (prob.g.domain.contains(x_next) and prob.C.contains(x_next)):
        return False
    # route 1: xi lies in the subdifferential of g + indicator(C) at x_next
    body = prob.g.subdifferential(x_next).minkowski_sum(
        prob.C.normal_cone(x_next)
    )
    by_subdifferential = body.contains(xi)
    # route 2: x_next attains the subproblem optimum (feasible, as x_next
    # lies in C and dom(g))
    outcome = lp_solve(prob.g_plus_indicator.epigraph_lp(xi))
    by_optimality = (
        outcome.is_optimal
        and prob.g.finite_value(x_next) - dot(xi, x_next) == outcome.value
    )
    if by_subdifferential != by_optimality:
        raise InternalCheckFailed(
            "subdifferential and LP-optimality tests disagree on a DCA step"
        )
    return by_optimality

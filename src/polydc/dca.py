"""DCA iteration for polyhedral DC programs, with cycle detection.

One step from x: pick a subgradient xi of h at x, then minimize
g(x') - xi.x' over C.  The subproblem minimizer is canonicalized to the
lexicographically smallest point of the optimal face, so the whole
iteration is a deterministic map whenever the subgradient selection is.
Selection rules keyed on the active set of h take finitely many values,
which makes every run on a bounded problem eventually periodic: the first
revisited iterate closes a fixed point (period 1) or a cycle.  Objective
values never increase along a run; exact arithmetic lets the cycle test be
literal equality of rational vectors.  Under such a rule step j always
leads to the same node y_j, so `transition_graph` describes every run of
the rule on a problem at once.

`run` uses that too: after its step 0 picks j, a run under such a rule
is the walk of j, the run from y_j on, whatever the start.  The problem
keeps each walk (`_walks`) once a run has built it with the step loop
(`_steps`), at most q per rule, each of at most q + 1 iterates.  A later
run evaluates its start, picks j, checks descent to y_j and reads the
walk, cut where the start recurs on it or the budget ends it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from types import MappingProxyType
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
    kept,
    _Point,
    _scaled,
)


class InvalidSelection(PolydcError):
    """A selection rule failed to produce a subgradient."""


class SubproblemUnboundedError(PolydcError):
    pass


class EmptyTrace(PolydcError):
    """A DCA trace with no iterates has no final point: the run stopped at
    step 0, where `subdifferential-empty` means x0 lies outside dom(h)."""


class SelectionRule:
    """Base for subgradient selection rules; see the concrete rules.

    A rule that selects by the active set of h alone also has
    `pick(active) -> j`: from the 1-based indices of the active pieces, an
    ascending tuple, the index of the piece whose gradient it selects.
    `run` hands such a rule the active set it already holds, and any other
    rule the point it holds (`_choose_at`); `transition_graph` needs
    `pick`.
    """

    deterministic = True
    # the largest piece index the rule names; `run` and `transition_graph`
    # reject a rule naming a piece above h's piece count before step 0
    _top_piece = 0

    def choose(self, h: MaxAffine, x: Vector, step: int) -> Vector:
        raise NotImplementedError

    def _choose_at(self, h: MaxAffine, point: _Point, step: int) -> Vector:
        """`choose` at a point of h (`model._Point`) whose evaluation a rule
        that reads h there shares."""
        return self.choose(h, point.x, step)


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
    """Explicit table from active sets to the chosen piece index.

    Every entry is checked when the table is built: its active set is
    nonempty, its pieces are numbered from 1, and it holds the chosen
    piece.  The rule keeps a read-only copy of the table, so a later
    change to the caller's mapping changes nothing, and hashes by its
    entries, so equal tables are one rule (`run` keeps walks per rule).
    It keeps the largest piece it names, so that `run` and
    `transition_graph` reject one above h's piece count before step 0.
    """

    table: Mapping[frozenset[int], int]

    def __post_init__(self):
        table = MappingProxyType(dict(self.table))
        for active, chosen in table.items():
            if not active or min(active) < 1 or chosen not in active:
                raise InvalidSelection(
                    f"table entry {sorted(active)} -> {chosen}: expected a "
                    "nonempty active set of pieces from 1 holding the chosen one"
                )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_top_piece", max(map(max, table), default=0))
        object.__setattr__(self, "_hash", hash(frozenset(table.items())))

    def __hash__(self):
        return self._hash

    def pick(self, active):
        chosen = self.table.get(frozenset(active))
        if chosen is None:
            raise InvalidSelection(f"no table entry for active set {list(active)}")
        return chosen


@dataclass(frozen=True)
class Scripted(SelectionRule):
    """Fixed list of subgradients, one per step; each is validated.

    Each is validated by `_is_subgradient` on h's evaluation at the point
    the rule is handed: `run` hands it the point it holds, and `choose`
    makes one of h alone.
    """

    subgradients: tuple[Vector, ...]
    deterministic = False

    def __post_init__(self):
        object.__setattr__(
            self, "subgradients", tuple(vector(v) for v in self.subgradients)
        )

    def choose(self, h, x, step):
        return self._choose_at(h, _Point(x, h), step)

    def _choose_at(self, h, point, step):
        if step >= len(self.subgradients):
            raise IndexError("script exhausted")
        xi = _check_dimension(
            self.subgradients[step], h.dimension, f"scripted subgradient #{step}"
        )
        if point.h is None:
            raise OutsideDomain("active set requested outside the domain")
        if not _is_subgradient(h, point.h, xi):
            raise InvalidSelection(
                f"scripted vector at step {step} is not a subgradient of h "
                "at the current iterate"
            )
        return xi


def _is_subgradient(h: MaxAffine, at, xi: Vector) -> bool:
    """Whether xi lies in dh(x), for h's evaluation `at` at x (`_at`; None
    outside dom h).  The gradient of a piece active at x does, as the
    normal-cone part of dh(x) contains 0, and poses no LP; any other
    vector is decided by a generator-weight LP."""
    return at is not None and (
        any(h.pieces[j][0] == xi for j in at[1]) or h._subdifferential(at).contains(xi)
    )


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
        """The last iterate; raises EmptyTrace when the run recorded none."""
        if not self.iterates:
            kind = self.termination.kind.value
            raise EmptyTrace(
                f"the run stopped at step 0 ({kind}): the trace has no iterates"
            )
        return self.iterates[-1].x


def _pick(rule: SelectionRule, h: MaxAffine):
    """The rule's `pick`, or None for a rule without one; a rule naming a
    piece above h's piece count is rejected here, before step 0."""
    top, q = rule._top_piece, len(h.pieces)
    if top > q:
        raise InvalidSelection(f"table names piece {top}, but h has {q} pieces")
    return getattr(rule, "pick", None)


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

    x0 is checked, and g, C and h are evaluated there, on its point
    (`DcProblem._point`): when x0 is a kept node that is the node's point,
    and only what no reader has read there yet is evaluated.
    Every later iterate is a node: the canonical minimizer y of the
    subproblem at the selected xi, a function of xi alone.  The problem
    keeps each node (`_subproblems`) with the point of y, h evaluated
    there, and f(y) and h's active set at y, computed once, when
    its LP is solved: every run and rule reads and fills that one memo, so
    each distinct xi poses one LP per problem, and each distinct node one
    evaluation of h.  The problem registers the node's point
    (`DcProblem._nodes`), so every later reader of y, such as
    `optimality.is_critical` at a fixed point, `classify` or
    `validate_trace`, shares its evaluations.  No
    later step evaluates a function or scales an iterate, under any rule:
    a rule with `pick` selects from the active set the node holds, and its
    piece's scaled gradient is the node's key; a rule without `pick`, a
    script among them, is handed the node's point (`_choose_at`), and its
    xi is scaled to find the key.  An unbounded subproblem is kept too and
    ends each run that reaches it, as
    a node outside dom(h) does.  The memo keeps one entry per distinct xi
    for as long as the problem lives: under `pick` rules the keys are piece
    gradients of h, at most q, but a script or a custom `choose` may
    return any point of the subdifferential, and each new one adds an
    entry.  A negative `max_iter` raises ValueError.

    Under a deterministic, hashable rule with `pick` a run is x0's iterate
    followed by the walk of the piece j0 = pick(active(x0)): the run from
    y_{j0} on, the same for every start (`_walks`).  The first run that
    picks j0 builds the walk with the step loop every run takes (`_steps`)
    and keeps it unless `max_iter` ended it; each later one evaluates x0,
    picks j0 and checks descent from x0 to y_{j0}, then reads the kept
    walk, cut where x0 recurs on it or `max_iter` ends it (`_along`).
    Traces, errors and LPs posed are those of the step loop from x0.  The
    problem keeps at most q walks per rule, each of at most q + 1
    iterates, for as long as it lives; a rule that hashes by identity is
    kept with them.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    point = prob._point(x0)
    if point.g is None:
        raise OutsideDomain("x0 is outside dom(g)")
    if point.C is None:
        raise OutsideDomain("x0 is outside the constraint set C")
    node = _node(point)
    pick = _pick(rule, prob.h)
    walks = _rule_walks(prob, rule, pick)
    active = node[2]
    if walks is None or active is None or max_iter == 0:
        iterates: list[Iterate] = []
        termination = _steps(prob, rule, pick, node, iterates, {}, max_iter)
        return DcaTrace(iterates=tuple(iterates), termination=termination)
    j = pick(active)
    first = Iterate(point.x, prob.h.piece(j)[0], node[1])
    walk = walks.get(j) or _walk(prob, rule, pick, walks, j, first, max_iter)
    return _along(first, point.scaled, walk, max_iter)


def _steps(prob: DcProblem, rule, pick, node, iterates, seen, max_iter) -> Termination:
    """The step loop of DCA: from `node`, the state at step
    len(iterates), append each iterate to `iterates` and return how the
    run ends.  `node` is (point, f(x), active), as `_node` gives it, or
    None when the subproblem of the step before was unbounded.  `seen`
    maps each point visited, scaled, to its step; its keys and the
    problem's `_subproblems` are both scaled points, which are equal
    exactly when the points are and hash as integers."""
    h, solved = prob.h, _subproblems(prob)
    step = len(iterates)
    while True:
        if node is None:
            return Termination(TerminationKind.SUBPROBLEM_UNBOUNDED, step=step - 1)
        point, value, active = node
        if active is None:
            # no subgradient of h here; the offending point is the output
            # of step `step` and is not recorded as an iterate
            return Termination(TerminationKind.SUBDIFFERENTIAL_EMPTY, step=step)
        if isinstance(rule, Scripted) and step >= len(rule.subgradients):
            return Termination(TerminationKind.MAX_ITERATIONS, step=step)
        if pick is None:
            xi = rule._choose_at(h, point, step)
        else:
            j = pick(active)
            xi = h.piece(j)[0]
        iterates.append(Iterate(point.x, xi, value))
        if len(iterates) >= 2 and iterates[-2].value < value:
            raise InternalCheckFailed("objective increased along a DCA run")
        if rule.deterministic:
            first = seen.get(point.scaled)
            if first is not None:
                period = step - first
                kind = (
                    TerminationKind.FIXED_POINT
                    if period == 1
                    else TerminationKind.CYCLE
                )
                return Termination(kind, step=first, period=period)
            seen[point.scaled] = step
        if step >= max_iter:
            return Termination(TerminationKind.MAX_ITERATIONS, step=step)
        if pick is None:
            xi = _check_dimension(xi, prob.dimension, "subgradient")
            key = _scaled(xi)
        else:
            key = h._scaled_gradients[j - 1]
        node = _node_of(prob, solved, xi, key)
        step += 1


def _node(point: _Point) -> tuple:
    """(point, f(x), h's active set at x, 1-based and ascending), read from
    the point; f and the active set are None outside dom(h)."""
    at = point.h
    if at is None:
        return point, None, None
    return point, point.value, tuple([j + 1 for j in at[1]])


@kept
def _subproblems(prob: DcProblem) -> dict[Scaled, Optional[tuple]]:
    """The DCA nodes of the problem, filled by `run` and
    `transition_graph`: a subgradient xi, scaled by `_scaled`, maps to None
    when the subproblem min g - xi.x over C is unbounded, and else to
    (point, f(x), active) at its canonical minimizer x, with `point` the
    `_Point` of x, h evaluated there, and `active` h's active set there as
    a tuple of 1-based indices in ascending order; both f(x) and `active`
    are None when x lies outside dom(h).  An entry is a function of xi
    alone and is written whole, once: each distinct xi poses one LP per
    problem, and two runs that fill one key at once write equal entries.
    Two subgradients with one minimizer share its point, registered in
    `DcProblem._nodes`, so each distinct node is one evaluation of h per
    problem.  A point binds h, g and C, not the problem, so no entry
    refers back to the problem that holds it."""
    return {}


def _node_of(prob: DcProblem, solved, xi: Vector, key: Scaled) -> Optional[tuple]:
    """The node at xi, kept in `solved`, the problem's `_subproblems`,
    under `key` (xi scaled), and made on first request: one subproblem LP
    over g + indicator(C), which shares g's prepared start, and one
    evaluation of h, on the point of its minimizer; None when the
    subproblem is unbounded.  Every node is made here, and here its point
    is registered in `prob._nodes`, with f there (`_Point.value`) read off
    the LP, so g is not evaluated: a minimizer that another xi reached
    already is that node's point, with h and f read from it."""
    if key in solved:
        return solved[key]
    try:
        x, sub_value = solve_subproblem(
            prob.g_plus_indicator, PolyhedralSet.whole_space(prob.dimension), xi
        )
    except SubproblemUnboundedError:
        node = None
    else:
        point = prob._point(x)
        if point.scaled not in prob._nodes:
            prob._nodes[point.scaled] = point
            if point.h is not None:
                # x lies in C ∩ dom(g), and at the LP's optimum t = g(x);
                # xi.x is taken on integers, like every evaluation at x
                (X, d), (Xi, s) = point.scaled, key
                g_value = sub_value + Fraction(sum(map(mul, Xi, X)), s * d)
                point._value = g_value - point.h[0]
        node = _node(point)
    solved[key] = node
    return node


@kept
def _walks(prob: DcProblem) -> dict:
    """The DCA walks of the problem, filled by `run`: a deterministic,
    hashable rule with `pick` maps to a dict from a piece j to its walk,
    the steps of every run whose step 0 picked j.  A walk is (iterates,
    seen, termination) of the run from the node y_j on, in the steps of
    such a run: its iterates at steps 1, 2, ..., `seen` each of their
    points, scaled, to the step of its first visit, and how the run ends
    when x0 does not recur.  The walk depends on j alone: every run that
    picks j at step 0 reaches y_j at step 1, and from there the rule
    decides every step.  So a rule keeps at most q walks, each of at most
    q + 1 iterates, one per distinct node and the repeated one."""
    return {}


def _rule_walks(prob: DcProblem, rule: SelectionRule, pick) -> Optional[dict]:
    """The walks the problem keeps for `rule` (`_walks`), or None when a
    run under it takes the step loop: a rule without `pick`, one that is
    not deterministic, or one that cannot be hashed."""
    if pick is None or not rule.deterministic:
        return None
    try:
        return _walks(prob).setdefault(rule, {})
    except TypeError:  # an unhashable rule
        return None


def _walk(
    prob: DcProblem, rule, pick, walks: dict, j: int, first: Iterate, max_iter: int
) -> tuple:
    """The walk of piece j (`_walks`), built by the step loop from the node
    y_j, after the iterate `first` of x0: only the descent check from x0
    to y_j reads `first`, and x0 is not among the points seen, so the walk
    does not depend on x0.  Kept in `walks` unless `max_iter` ended it."""
    iterates = [first]
    seen: dict[Scaled, int] = {}
    node = _node_of(prob, _subproblems(prob), first.xi, prob.h._scaled_gradients[j - 1])
    termination = _steps(prob, rule, pick, node, iterates, seen, max_iter)
    walk = tuple(iterates[1:]), seen, termination
    if termination.kind is not TerminationKind.MAX_ITERATIONS:
        walks[j] = walk
    return walk


def _along(first: Iterate, start: Scaled, walk: tuple, max_iter: int) -> DcaTrace:
    """The trace of the run from x0, scaled `start`, whose step 0 is the
    iterate `first`, followed by the walk it picked: the trace the step
    loop gives.  Descent from x0 to the walk's first node is checked.  When
    x0 recurs on the walk, at step s <= max_iter, the run closes there with
    period s; else when `max_iter` comes before the walk's end, the run
    stops at that step; else the run is x0 then the whole walk."""
    iterates, seen, termination = walk
    if iterates and first.value < iterates[0].value:
        raise InternalCheckFailed("objective increased along a DCA run")
    s = seen.get(start)
    if s is not None and s <= max_iter:
        kind = TerminationKind.FIXED_POINT if s == 1 else TerminationKind.CYCLE
        return DcaTrace((first,) + iterates[:s], Termination(kind, step=0, period=s))
    # the step loop checks for a revisit at a step before it checks the
    # budget, and for every other end after it; only a revisit has a period
    n = len(iterates)
    if max_iter < n or (max_iter == n and termination.period is None):
        termination = Termination(TerminationKind.MAX_ITERATIONS, step=max_iter)
        return DcaTrace((first,) + iterates[:max_iter], termination)
    return DcaTrace((first,) + iterates, termination)


@dataclass(frozen=True)
class DcaNode:
    """The node y_j of one piece j of h: the canonical minimizer of
    g - v_j.x over C (None when that subproblem is unbounded), with f and
    h's active set there (None when unbounded or outside dom(h))."""

    x: Optional[Vector]
    value: Optional[Fraction]
    active: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class TransitionGraph:
    """Every run of one `pick` rule on one problem at once.

    `nodes[j - 1]` is the node of piece j, and `sigma[j - 1]` is
    pick(active(y_j)), or None where y_j has no active set.  A run from
    x0 visits x0, y_{j0}, y_{sigma(j0)}, ... with j0 = pick(active(x0)),
    until a point repeats or it reaches a node without an active set.
    `terminals` holds each cycle of sigma, in sigma order from its least
    piece, ordered by that piece: a 1-tuple is a fixed point, and a run
    that repeats a point has reached one of them, with its period the
    cycle's length.
    """

    nodes: tuple[DcaNode, ...]
    sigma: tuple[Optional[int], ...]
    terminals: tuple[tuple[int, ...], ...]


def transition_graph(prob: DcProblem, rule: SelectionRule) -> TransitionGraph:
    """The transition graph of a rule with `pick` (see TransitionGraph).

    It reads and fills the nodes `run` keeps (`_subproblems`),
    so it poses at most q subproblem LPs per problem over every rule and
    run, and none once the nodes are kept.  An error the rule raises at
    some node's active set propagates, as in `run`.  The cycles of sigma
    are cycles of points too: sigma(j) depends on y_j alone, so two
    pieces of one cycle never share their node.
    """
    pick = _pick(rule, prob.h)
    if pick is None:
        raise TypeError("a transition graph needs a rule with pick(active)")
    h, solved = prob.h, _subproblems(prob)
    nodes, sigma = [], []
    for key, (xi, _) in zip(h._scaled_gradients, h.pieces):
        node = _node_of(prob, solved, xi, key)
        point, value, active = node or (None,) * 3
        nodes.append(DcaNode(point and point.x, value, active))
        picked = None
        if active is not None:
            picked = pick(active)
            h.piece(picked)  # an index outside 1..q raises, as in `run`
        sigma.append(picked)
    terminals = []
    walked: dict[int, int] = {}  # piece -> the start of the walk that met it
    for start in h.indices:
        path, j = [], start
        while j is not None and j not in walked:
            walked[j] = start
            path.append(j)
            j = sigma[j - 1]
        if j is not None and walked[j] == start:  # this walk closed a cycle
            cycle = path[path.index(j):]
            least = cycle.index(min(cycle))
            terminals.append(tuple(cycle[least:] + cycle[:least]))
    terminals.sort()
    return TransitionGraph(tuple(nodes), tuple(sigma), tuple(terminals))


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
    objective did not increase.  Each distinct x is one point, evaluated
    once for every check that reads it.
    """
    points: dict[Vector, _Point] = {}  # one point per distinct x
    xs = [points.setdefault(point.x, point) for point in map(prob._point, xs)]
    xis = [_check_dimension(xi, prob.dimension, "subgradient") for xi in xis]
    if len(xis) not in (len(xs), len(xs) - 1):
        raise ValueError(
            "expected one subgradient per point (optionally omitting the last)"
        )
    steps = []
    for k, point in enumerate(xs):
        subgradient_ok = None
        if k < len(xis):
            subgradient_ok = _is_subgradient(prob.h, point.h, xis[k])
        minimizer_ok = None
        if k + 1 < len(xs) and k < len(xis):
            minimizer_ok = _is_subproblem_minimizer(prob, xis[k], xs[k + 1])
        descent_ok = None
        if k + 1 < len(xs):
            descent_ok = point.objective >= xs[k + 1].objective
        steps.append(StepCheck(subgradient_ok, minimizer_ok, descent_ok))
    valid = all(
        check is not False
        for step in steps
        for check in (step.subgradient_ok, step.minimizer_ok, step.descent_ok)
    )
    return TraceValidation(steps=tuple(steps), valid=valid)


def _is_subproblem_minimizer(prob: DcProblem, xi: Vector, point: _Point) -> bool:
    """Whether the point x_next minimizes g - xi.x over C, read from its
    evaluations."""
    if point.g is None or point.C is None:
        return False
    # route 1: xi lies in the subdifferential of g + indicator(C) at x_next
    body = prob.g._subdifferential(point.g, point.C, prob.C._lineality())
    by_subdifferential = body.contains(xi)
    # route 2: x_next attains the subproblem optimum (feasible, as x_next
    # lies in C and dom(g))
    outcome = lp_solve(prob.g_plus_indicator.epigraph_lp(xi))
    value = point.g[0] - dot(xi, point.x)  # g - xi.x at x_next
    by_optimality = outcome.is_optimal and value == outcome.value
    if by_subdifferential != by_optimality:
        raise InternalCheckFailed(
            "subdifferential and LP-optimality tests disagree on a DCA step"
        )
    return by_optimality

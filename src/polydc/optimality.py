"""Point classifiers for polyhedral DC programs.

Three nested conditions are decided exactly at a feasible point x:

* critical:    the subdifferentials of h and of g + indicator(C) intersect;
* stationary:  the subdifferential of h is contained in that of
               g + indicator(C);
* local:       x is a local solution, which for polyhedral data is exactly
               stationarity (the theorem below), at every feasible point.

All three are decided from one evaluation of g, h and C at x and the
shifted values alpha_j of the linearized subproblems, which the problem
computes once (`structure._linearized`), by the lemma below.  The
evaluation is read from the point the problem makes at x
(`DcProblem._point`, `model._Point`).  At a DCA node that is the node's
point, kept with the node, so a check at a fixed point that DCA reached
evaluates nothing again once g and C were read there.  Write
phi = g + indicator(C) and D = dom phi = C ∩ dom g.  For a piece j of h
active at x, h(x) = h_j(x), so f(x) = phi(x) - v_j.x - beta_j >= alpha_j,
the least value of phi - v_j.x - beta_j; equality holds exactly when x
minimizes phi - v_j.x, that is when x lies in the optimal face Omega_j,
that is when v_j is in the subdifferential of phi at x.  And v_j is in
that of h for every active j.  So:

* x is critical when f(x) = alpha_j for some active j;
* the subdifferential of h at x is the hull of the active v_j plus the
  normal cone N_{dom h}(x), and the subdifferential of phi, a polyhedral
  function, has the recession cone N_D(x).  A convex set holds a hull
  exactly when it holds its points, so x is stationary exactly when
  f(x) = alpha_j for every active j and, off the interior of dom h, each
  generator of N_{dom h}(x) (its tight rows and both signs of a basis of
  its equality rows) lies in N_D(x): at most one recession LP per
  generator, and none inside dom h or where a face misses x.

Theorem (the polyhedral case of Pham Dinh Tao and Le Thi Hoai An, 1997):
x is a local solution exactly when it is stationary.  Local implies
stationary for any convex g and h.  Conversely, let x be stationary and I
its active pieces.  N_{dom h}(x) lies in N_D(x), so by polarity the
tangent cone T_D(x) lies in T_{dom h}(x); a polyhedral set agrees with x
plus its tangent cone near x, so near x, D lies in dom h and h is the
maximum of h_j over j in I.  Each v_j is in the subdifferential of phi at
x, so phi(y) - h_j(y) >= phi(x) - h_j(x) = f(x) for every y, and near x
f(y) = min over j in I of (phi - h_j)(y) >= f(x).  No interiority
hypothesis is used.

f(x) is compared with alpha_j on integers (`_on_faces`).  Criticality
where no active face holds x is decided on one pair of subdifferentials,
built by `_subdifferentials` from the same evaluation, by an LP over
generator weights; so are the recession tests of stationarity.
`classify`, `is_critical`, `is_stationary` and `is_local_solution` (which
returns `classify`'s verdict) share that one path, and a caller that
holds the point already hands it to `_classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .exactlp import vneg
from .model import ConvexBody, DcProblem, InternalCheckFailed, OutsideDomain, _Point
from .structure import _linearized, global_solutions


class LocalStatus(Enum):
    YES = "yes"
    NO = "no"


class GlobalStatus(Enum):
    YES = "yes"
    NO = "no"
    NOT_COMPUTED = "not-computed"


@dataclass(frozen=True)
class HypothesisFlags:
    """Whether the classified point is interior to dom g and to dom h:
    reported facts, on which no verdict depends."""

    interior_dom_g: bool
    interior_dom_h: bool


@dataclass(frozen=True)
class Classification:
    feasible: bool
    critical: bool
    stationary: bool
    local: LocalStatus
    global_: GlobalStatus
    hypothesis_flags: HypothesisFlags


def _subdifferentials(prob: DcProblem, point: _Point) -> tuple[ConvexBody, ConvexBody]:
    """The subdifferentials of h and of g + indicator(C) at a point of
    dom g ∩ dom h ∩ C, read from its evaluations.  The second one is
    that of g plus the normal cone of C, with its generators in the order
    `ConvexBody.minkowski_sum` gives them, so every LP posed on the pair is
    the one the sum would pose."""
    return prob.h._subdifferential(point.h), prob.g._subdifferential(
        point.g, point.C, prob.C._lineality()
    )


_OUTSIDE = ("dom(g)", "dom(h)", "the constraint set C")  # in `_feasible` order


def _feasible(point: _Point) -> _Point:
    """The point; raises OutsideDomain naming the first of dom g, dom h and
    C that it is outside, evaluating g, h and C in that order."""
    for at, name in zip((point.g, point.h, point.C), _OUTSIDE):
        if at is None:
            raise OutsideDomain(f"point is outside {name}")
    return point


def _on_faces(prob: DcProblem, point: _Point) -> list[bool]:
    """For each piece j of h active at a feasible point, in order, whether
    the point lies in the optimal face of j: f(x) = alpha_j (the lemma).

    With g(x) = a / b and h(x) = c / e as the point holds them,
    f(x) = p / q exactly when (a e - c b) q = p b e; the test reads the
    integers of the Fractions it has and builds none.  An unbounded
    subproblem (alpha_j = -inf) has no face.
    """
    (g, _, _), (h, active, _) = point.g, point.h
    b, e = g._denominator, h._denominator
    numerator, denominator = g._numerator * e - h._numerator * b, b * e
    linearized = _linearized(prob)
    verdicts = []
    for j in active:
        alpha = linearized[j].value
        verdicts.append(
            alpha.sign == 0
            and numerator * alpha.value._denominator
            == alpha.value._numerator * denominator
        )
    return verdicts


def _critical(prob: DcProblem, point: _Point, on_face: list[bool]) -> bool:
    """Critical by the lemma when a face holds the point, else by the
    weight LP of the two subdifferentials."""
    if any(on_face):
        return True
    dh, dgc = _subdifferentials(prob, point)
    return dh.intersection_witness(dgc) is not None


def _stationary(prob: DcProblem, point: _Point, on_face: list[bool]) -> bool:
    """Stationary when every active face holds the point (the lemma) and,
    off the interior of dom h, each generator of N_{dom h}(x) lies in the
    recession cone of the subdifferential of g + indicator(C)."""
    if not all(on_face) or prob.h.domain._is_interior(point.h[2]):
        return all(on_face)
    dh, dgc = _subdifferentials(prob, point)
    normals = dh.rays + tuple(r for l in dh.lineality for r in (l, vneg(l)))
    return all(dgc.recession_contains(r) for r in normals)


def is_critical(prob: DcProblem, x: Sequence) -> bool:
    point = _feasible(prob._point(x))
    return _critical(prob, point, _on_faces(prob, point))


def is_stationary(prob: DcProblem, x: Sequence) -> bool:
    point = _feasible(prob._point(x))
    return _stationary(prob, point, _on_faces(prob, point))


def is_local_solution(prob: DcProblem, x: Sequence) -> LocalStatus:
    """The `local` verdict of `classify`; raises at an infeasible point."""
    return _classify(prob, _feasible(prob._point(x))).local


def classify(
    prob: DcProblem,
    x: Sequence,
    compute_global: bool = False,
) -> Classification:
    """Aggregate classification of one point.

    x is coerced once, every row of C, dom g and dom h and every piece of
    g and h is evaluated once, and critical and stationary are decided
    from that evaluation: by the lemma (module docstring) where it
    applies, else on the one pair of subdifferentials it gives.

    local is YES exactly when x is stationary (module docstring); the
    hypothesis flags are reported facts, on which no verdict depends.
    With compute_global the global solution value is obtained from the
    solution-set decomposition and compared with f(x), read from the same
    evaluation; a global solution is local, so one that is not stationary
    raises InternalCheckFailed.
    """
    return _classify(prob, prob._point(x), compute_global)


def _classify(
    prob: DcProblem, point: _Point, compute_global: bool = False
) -> Classification:
    """`classify` at a point of the problem, reading its evaluations."""
    at_g, at_h = point.g, point.h
    flags = HypothesisFlags(  # `_is_interior` of the tight rows, or of None
        interior_dom_g=prob.g.domain._is_interior(at_g and at_g[2]),
        interior_dom_h=prob.h.domain._is_interior(at_h and at_h[2]),
    )
    feasible = not (at_g is None or at_h is None or point.C is None)
    critical = stationary = False
    if feasible:
        on_face = _on_faces(prob, point)
        critical = _critical(prob, point, on_face)
        stationary = _stationary(prob, point, on_face)
    local = LocalStatus.YES if stationary else LocalStatus.NO
    global_ = GlobalStatus.NO if compute_global else GlobalStatus.NOT_COMPUTED
    if compute_global and feasible:  # f(x) is finite here
        alpha_bar, _, _ = global_solutions(prob)
        global_ = GlobalStatus.YES if point.objective == alpha_bar else global_
    if global_ is GlobalStatus.YES and not stationary:  # global => stationary
        at = ", ".join(map(str, point.x))
        raise InternalCheckFailed(f"global solution ({at}) is not stationary")
    return Classification(feasible, critical, stationary, local, global_, flags)

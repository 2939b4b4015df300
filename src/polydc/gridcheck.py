"""Grid-based cross-checks of the classifiers against brute force.

On a rational grid over a bounding box of C (dimension at most 2), each
in-C grid point is classified and compared against neighborhood evidence:

* a point classified as a local solution must not be beaten along the
  segment to any grid neighbor inside C.  f is compared at the segment's
  first breakpoint, where a piece of g or h overtakes the one leading
  along the segment or a row of dom g or dom h is reached, or at the
  neighbor when there is none; f is affine up to there, so a local
  solution is never beaten there, while a neighbor past a kink may be;
* an interior point that is not stationary must have a strictly better
  point within one grid step: a grid neighbor inside C, or else the point
  one step along the segment from x to y_j, for an active piece j of h
  whose optimal face Omega_j (of g + indicator(C) - v_j.x) misses x, with
  y_j the minimizer of its linearization.  g - h_j is convex and below
  f(x) at y_j, and f <= g - h_j, so every point of that segment but x
  beats x, even when no grid direction descends;
* the classifier chain (local => stationary => critical) must hold;
* when the solution-structure hypotheses hold, stationarity must agree
  with membership in the union of the semi-closed local pieces.

Everything is exact; a failure report carries the offending point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlp import ONE, Vector, dot, frac, vsub
from .model import DcProblem, MaxAffine, PolydcError, _Point
from .optimality import LocalStatus, _classify
from . import structure


@dataclass(frozen=True)
class GridFailure:
    point: Vector
    check: str
    detail: str


@dataclass(frozen=True)
class GridReport:
    step: Fraction
    points_in_set: int
    pieces_checked: bool
    failures: tuple[GridFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _grid_points(prob: DcProblem, step: Fraction):
    lows, highs = prob.C.bounding_box()
    axes = []
    for lo, hi in zip(lows, highs):
        start = -((-lo) // step)  # ceil(lo / step)
        stop = hi // step  # floor(hi / step)
        axes.append([k * step for k in range(int(start), int(stop) + 1)])
    return itertools.product(*axes)


def _first_breakpoint(f: MaxAffine, x: Vector, d: Vector) -> Fraction:
    """The largest t <= 1 such that f is affine on the segment from x, a
    point of dom f, to x + t d: the first t at which a piece of f
    overtakes the one leading along d or a row of dom f is reached."""
    values = [dot(u, x) + alpha for u, alpha in f.pieces]
    slopes = [dot(u, d) for u, _ in f.pieces]
    top = max(values)
    lead = max(s for s, v in zip(slopes, values) if v == top)
    t = ONE
    for s, v in zip(slopes, values):
        if s > lead:
            t = min(t, (top - v) / (s - lead))
    for a, b in f.domain.inequalities:
        rate = dot(a, d)
        if rate > 0:
            t = min(t, (b - dot(a, x)) / rate)
    if any(dot(a, d) != 0 for a, _ in f.domain.equalities):
        t = Fraction(0)
    return t


def _toward_minimizers(linearized, point: _Point, step: Fraction):
    """For each active piece j of h at a point x of dom h whose optimal
    face misses x, the point one grid step (in the max norm) from x toward
    y_j, or y_j itself when it is nearer; h's active set and each face's
    rows are read at the point."""
    for j in point.h[1]:
        r = linearized[j]  # the result of piece j + 1
        if r.face is None or r.face._tight_rows(point.scaled) is not None:
            continue
        d = vsub(r.witness, point.x)
        t = min(ONE, step / max(abs(c) for c in d))
        yield tuple(c + t * e for c, e in zip(point.x, d))


def grid_cross_check(prob: DcProblem, step) -> GridReport:
    """Run every grid check on one problem; C must be bounded, n <= 2."""
    step = frac(step)
    if step <= 0:
        raise PolydcError("grid step must be positive")
    if prob.dimension > 2:
        raise PolydcError("grid cross-checks support dimension 1 and 2 only")

    linearized = structure._linearized(prob)
    try:
        pieces = structure.local_pieces(prob)
        pieces_checked = True
    except structure.HypothesisNotMet:
        pieces = ()
        pieces_checked = False

    offsets = [
        offs
        for offs in itertools.product((-step, Fraction(0), step), repeat=prob.dimension)
        if any(o != 0 for o in offs)
    ]
    # one point per distinct point of the call, its evaluations read by the
    # classifier, the objective, the descent probes and the piece tests: a
    # grid point is reached again as a neighbour of up to eight others, and
    # a piece witness comes with the point its piece keeps
    points = {p.witness: p._evaluation for p in pieces}

    def at(x: Vector) -> _Point:
        return points.get(x) or points.setdefault(x, prob._point(x))

    failures = []
    count = 0
    for point in _grid_points(prob, step):
        here = at(point)
        if here.C is None:
            continue
        count += 1
        result = _classify(prob, here)
        if not result.feasible:  # outside dom(g) or dom(h)
            continue
        if result.local is LocalStatus.YES and not result.stationary:
            failures.append(GridFailure(point, "chain", "local but not stationary"))
        if result.stationary and not result.critical:
            failures.append(GridFailure(point, "chain", "stationary but not critical"))

        # extended values keep neighbor comparisons total even when a
        # neighbor leaves dom(g) or dom(h)
        value = here.objective
        neighbor_values = []
        for offs in offsets:
            nb = at(tuple(c + o for c, o in zip(point, offs)))
            if nb.C is not None:
                neighbor_values.append((nb.x, offs, nb.objective))
        if result.local is LocalStatus.YES:
            for nb, offs, nb_value in neighbor_values:
                t = min(
                    _first_breakpoint(prob.g, point, offs),
                    _first_breakpoint(prob.h, point, offs),
                )
                if t < 1:  # f is affine up to the breakpoint, not beyond
                    nb = tuple(c + t * o for c, o in zip(point, offs))
                    nb_value = at(nb).objective
                if nb_value < value:
                    failures.append(
                        GridFailure(
                            point,
                            "local-minimum",
                            f"{nb}, toward a grid neighbor, has a smaller objective",
                        )
                    )
                    break
        if prob.C._is_interior(here.C) and not result.stationary:
            if not any(
                nb_value < value for *_, nb_value in neighbor_values
            ) and not any(
                at(z).objective < value
                for z in _toward_minimizers(linearized, here, step)
            ):
                failures.append(
                    GridFailure(
                        point,
                        "descent",
                        "not stationary but no strictly better grid neighbor",
                    )
                )
        if pieces_checked:
            in_union = any(p._holds(here) for p in pieces)
            if in_union != result.stationary:
                failures.append(
                    GridFailure(
                        point,
                        "piece-union",
                        f"stationary={result.stationary} but piece "
                        f"membership={in_union}",
                    )
                )
    return GridReport(
        step=step,
        points_in_set=count,
        pieces_checked=pieces_checked,
        failures=tuple(failures),
    )

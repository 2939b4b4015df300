"""Grid-based cross-checks of the classifiers against brute force.

On a rational grid over a bounding box of C (dimension at most 2), each
in-C grid point is classified and compared against neighborhood evidence:

* a point classified as a local solution must minimize f among its grid
  neighbors inside C;
* an interior point that is not stationary must have a strictly better
  grid neighbor inside C;
* the classifier chain (local => stationary => critical) must hold;
* when the solution-structure hypotheses hold, stationarity must agree
  with membership in the union of the semi-closed local pieces.

Everything is exact; a failure report carries the offending point.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlp import Vector, frac
from .model import DcProblem, PolydcError
from .optimality import LocalStatus, classify
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


def grid_cross_check(prob: DcProblem, step) -> GridReport:
    """Run every grid check on one problem; C must be bounded, n <= 2."""
    step = frac(step)
    if step <= 0:
        raise PolydcError("grid step must be positive")
    if prob.dimension > 2:
        raise PolydcError("grid cross-checks support dimension 1 and 2 only")

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
    # each grid point's rows of C and objective value, evaluated once per
    # call: a point is reached again as a neighbour of up to eight others
    tight_rows = functools.cache(prob.C.tight_rows)
    objective_value = functools.cache(prob.objective_value)
    failures = []
    count = 0
    for point in _grid_points(prob, step):
        tight = tight_rows(point)
        if tight is None:
            continue
        count += 1
        result = classify(prob, point)
        if not result.feasible:  # outside dom(g) or dom(h)
            continue
        if result.local is LocalStatus.YES and not result.stationary:
            failures.append(GridFailure(point, "chain", "local but not stationary"))
        if result.stationary and not result.critical:
            failures.append(GridFailure(point, "chain", "stationary but not critical"))

        # extended values keep neighbor comparisons total even when a
        # neighbor leaves dom(g) or dom(h)
        value = objective_value(point)
        neighbor_values = []
        for offs in offsets:
            nb = tuple(c + o for c, o in zip(point, offs))
            if tight_rows(nb) is not None:
                neighbor_values.append((nb, objective_value(nb)))
        if result.local is LocalStatus.YES:
            for nb, nb_value in neighbor_values:
                if nb_value < value:
                    failures.append(
                        GridFailure(
                            point,
                            "local-minimum",
                            f"neighbor {nb} has a smaller objective",
                        )
                    )
                    break
        if prob.C._is_interior(tight) and not result.stationary:
            if not any(nb_value < value for _, nb_value in neighbor_values):
                failures.append(
                    GridFailure(
                        point,
                        "descent",
                        "not stationary but no strictly better grid neighbor",
                    )
                )
        if pieces_checked:
            in_union = any(p.contains(point) for p in pieces)
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

"""Dual-side value oracles and the equal-optimal-values check.

The dual of minimizing g - h over C swaps the roles of the conjugates:
minimize h*(xi) - (g + indicator(C))*(xi) over dual vectors xi.  Both
programs share one optimal value (Toland-Singer duality).  Conjugate values
are computed exactly by epigraph LPs; the dual objective uses the
convention (+inf) - (+inf) = +inf.

Attainment is searched over a finite candidate pool: the piece gradients of
h plus every subgradient produced by a deterministic DCA run started at a
global solution witness.  For polyhedral h a dual minimizer transports from
a primal solution xbar into the gradients active at xbar, which is why the
pool is principled; the check still reports rather than asserts attainment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exactlp import ExtendedRational, Vector
from .model import DcProblem, InternalCheckFailed, _check_dimension
from . import dca, structure


@dataclass(frozen=True)
class DualReport:
    primal_value: ExtendedRational
    candidates: tuple[tuple[Vector, ExtendedRational], ...]
    attained_at: Optional[Vector]


def dual_objective(prob: DcProblem, xi: Sequence) -> ExtendedRational:
    """h*(xi) - (g + indicator(C))*(xi), exactly."""
    xi = _check_dimension(xi, prob.dimension, "dual vector")
    return prob.h.conjugate_value(xi) - prob.g_plus_indicator.conjugate_value(xi)


def toland_singer_check(prob: DcProblem, max_iter: int = 200) -> DualReport:
    """Compare the dual objective against the primal optimal value.

    Every candidate must score at least the primal value (weak duality,
    verified exactly); equality witnesses attainment.  Candidates whose
    dual value dips below the primal value would indicate a bug and raise.
    """
    alpha_bar, _, global_pieces = structure.global_solutions(prob)

    candidates: list[Vector] = []

    def add(xi: Vector) -> None:
        if xi not in candidates:
            candidates.append(xi)

    for v, _ in prob.h.pieces:
        add(v)
    witnesses = [r.witness for r in global_pieces if r.witness is not None]
    for witness in witnesses:
        trace = dca.run(prob, witness, dca.MinIndexActive(), max_iter=max_iter)
        for iterate in trace.iterates:
            add(iterate.xi)

    scored = []
    for xi in candidates:
        value = dual_objective(prob, xi)
        if value < alpha_bar:
            raise InternalCheckFailed(
                f"weak duality violated at {xi}: {value} < {alpha_bar}"
            )
        scored.append((xi, value))

    attained = None
    # prefer gradients active at a global solution witness; every piece
    # gradient of h is a candidate, so its value is already scored
    values = dict(scored)
    for witness in witnesses:
        for j in sorted(prob.h.active_indices(witness)):
            xi = prob.h.piece(j)[0]
            if values[xi] == alpha_bar:
                attained = xi
                break
        if attained is not None:
            break
    if attained is None:
        for xi, value in scored:
            if value == alpha_bar:
                attained = xi
                break
    return DualReport(
        primal_value=alpha_bar,
        candidates=tuple(scored),
        attained_at=attained,
    )

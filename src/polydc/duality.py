"""Dual-side value oracles and the equal-optimal-values check.

The dual of minimizing g - h over C swaps the roles of the conjugates:
minimize h*(xi) - (g + indicator(C))*(xi) over dual vectors xi.  Both
programs share one optimal value (Toland-Singer duality).  Conjugate values
are computed exactly by epigraph LPs; the dual objective uses the
convention (+inf) - (+inf) = +inf.

For polyhedral h the dual value is attained at a piece gradient v_j of h,
so the candidate pool of the check is exactly the distinct piece gradients.
The conjugate of g + indicator(C) at v_j is read off the linearized
subproblem of piece j (`structure._linearize`), which is the same epigraph
LP and which the problem poses once (`structure._linearized`).  h*(v_j) is
a fact of h alone: it is solved once per function, one LP per distinct
piece gradient (`MaxAffine._conjugate_at_gradients`), and the hypotheses
are decided once per problem.  The report itself is a fact of the problem
(`toland_singer_check` is kept, `model.kept`), built and checked once, so
a repeated check poses no LP and does no arithmetic.  The public
`dual_objective` poses its two conjugate LPs on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactlp import ExtendedRational, Vector
from .model import DcProblem, InternalCheckFailed, _check_dimension, kept
from . import structure


@dataclass(frozen=True)
class DualReport:
    primal_value: ExtendedRational
    candidates: tuple[tuple[Vector, ExtendedRational], ...]
    attained_at: Vector


def dual_objective(prob: DcProblem, xi: Sequence) -> ExtendedRational:
    """h*(xi) - (g + indicator(C))*(xi), exactly."""
    xi = _check_dimension(xi, prob.dimension, "dual vector")
    return prob.h.conjugate_value(xi) - prob.g_plus_indicator.conjugate_value(xi)


@kept
def toland_singer_check(prob: DcProblem) -> DualReport:
    """Compare the dual objective at every piece gradient of h against the
    primal optimal value alpha_bar.

    The report is a fact of the problem, built and checked once; a check
    that fails keeps nothing, so `HypothesisNotMet` and
    `InternalCheckFailed` raise again on every call.  Every bound of the
    proof below is checked exactly for every piece j, and a broken bound
    raises `InternalCheckFailed` naming each piece that breaks one.

    * h >= h_j = v_j.x + beta_j on dom(h), so h*(v_j) <= -beta_j, and
      (g + indicator(C))*(v_j) = -omega_j with omega_j = alpha_j + beta_j
      the unshifted value of piece j's linearized subproblem; the dual
      value at v_j is at most omega_j - beta_j = alpha_j, and -inf when
      omega_j is;
    * so the least dual value over the piece gradients is at most
      min_j alpha_j = alpha_bar, the primal value;
    * weak duality gives the reverse inequality, so every candidate scores
      at least alpha_bar and v_j attains alpha_bar for every j in J*.

    The report names v_j0 for j0 = min J*, a subgradient of h at every
    point w of j0's optimal face: by the lemma of `structure`, read at w,
    g(w) - h_i(w) = alpha_bar holds exactly for the pieces i active at w,
    and j0 is one of them; each such i has alpha_i <= alpha_bar, so it
    lies in J*.
    """
    alpha_bar, J_star, _ = structure.global_solutions(prob)

    conjugate = prob.h._conjugate_at_gradients
    scored: dict[Vector, ExtendedRational] = {}
    broken = []
    pieces = zip(prob.h.indices, prob.h.pieces, structure._linearized(prob))
    for j, (v, beta), shifted in pieces:
        # (g + indicator(C))*(v) is minus omega_j, the minimum of its
        # epigraph LP, and +inf when that LP is unbounded
        omega = shifted.value + ExtendedRational.finite(beta)
        value = scored.setdefault(v, conjugate[v] - (-omega))
        if conjugate[v] > ExtendedRational.finite(-beta):
            broken.append(f"piece {j}: h*(v_j) = {conjugate[v]} > -beta_j = {-beta}")
        if value < alpha_bar:
            broken.append(f"piece {j}: weak duality violated, {value} < {alpha_bar}")
        if value > shifted.value:
            broken.append(f"piece {j}: dual value {value} > alpha_j = {shifted.value}")
        if j in J_star and value != alpha_bar:
            broken.append(f"piece {j} of J*: {value} misses alpha_bar = {alpha_bar}")
    if broken:
        raise InternalCheckFailed("; ".join(broken))
    return DualReport(
        primal_value=alpha_bar,
        candidates=tuple(scored.items()),
        attained_at=prob.h.piece(min(J_star))[0],
    )

"""Decomposition of global and local solution sets.

Fixing one affine piece h_j of h and minimizing (g + indicator(C)) - h_j is
a convex program; its value alpha_j and optimal face S^j are computed by a
single epigraph LP per piece, which the problem poses once, on first use
(`_linearized`, kept on the problem), for both constructions below and for
every other reader of the faces.  The smallest alpha_j is the optimal value
of the DC program and the union of the minimizing faces is the global
solution set.  The local solution set is a finite union of semi-closed pieces, one
per subset J1 of piece indices: a closed polyhedron (the intersection of the
unshifted optimal faces for j in J1 with C) restricted by the relatively
open condition "no piece outside J1 is active".

Both constructions require dom(g) and int(dom(h)) to contain C; the checks
name the violated constraint.  Decisions about semi-closed sets (emptiness,
containment, adjacency of closures) are made exactly by maximizing the
margin of the strict rows with an LP; a semi-closed system has a point iff
the margin is positive.  Each LP is posed as small as the proof allows:

* Rows scaled once.  Each row is held as the integer row of the set or
  function that makes it (`integer_row`): the rows of C and dom g by the
  problem's C ∩ dom g, a face's cuts by the face, and the rows
  h_j <= h_k by h.  An intersection joins its operands' integer rows
  without scaling them again, so faces and closed parts cost no scaling
  of C.  Every margin LP is posed from these integers (`max_slack`), and
  rows are compared as integers.
* Repeated rows left to the LP core.  Every face repeats the rows of C
  and dom g, and the closed part adds C again; each LP is posed over them
  as they are, and `exactlp._prepare` decides which copies it needs.
* One system per piece (the lemma).  On the closed part of J1 every x
  lies in the optimal face of each j in J1, so g(x) - v_j.x is the
  unshifted value of j there and h_j(x) = g(x) - alpha_j, with alpha the
  shifted values.  Among J1 the largest pieces of h at x are thus those of
  least alpha, A*(J1), at every x of the closed part, and every member of
  the piece has the active set A*(J1).  A piece is stored as the one
  strict system of its anchor, the first index of A*(J1): h_anchor is at
  least every h_j of J1 and above every excluded piece.  Another index of
  A*(J1) gives the same member set, and an index outside it none.
* Containment read from the witness.  Every member of P has the active
  set of P's witness, so no member of P has a piece outside Q.J1 active
  once Q holds that witness.  Then P ⊆ Q asks whether a member of P
  violates a closed row of Q; a row that is already in P's system (a row
  of C, of dom g, or of a face shared by both J1 sets) holds at every
  member, so only the other rows of Q are tested.
* Containment by phase 2 alone.  Every member of a nonempty P satisfies
  a.x <= b iff the maximum of a.x over cl(P) is at most b, as P is convex
  and contains the relative interior of cl(P).  The eps >= 0 slice of P's
  own margin LP is cl(P), so each row test is one phase 2 on the prepared
  start that P's witness came from, which the piece keeps.  Only an LP
  that yields a witness (a piece, a closure test) is posed afresh.
* Sub-pieces skipped (the skip lemma).  Let K ⊂ J1 with a nonempty piece
  whose every member lies in the face of each j in J1 - K.  Then
  piece(J1) = piece(K).  A member of piece(K) lies in the closed part of
  J1 with active set inside K ⊆ J1, so it is a member of piece(J1), and
  A*(J1), the active set of every member of piece(J1), lies in K.  So a
  member of piece(J1), in the closed part of J1 and thus of K, is a member
  of piece(K).  Conversely piece(J1) = piece(K) puts every member of K in
  the closed part of J1, so J1 is skipped exactly when its piece would be
  merged into K's.  Two necessary conditions cost no LP and are checked
  first: A*(J1) ⊆ K, read from alpha, and K's witness in J1's closed part.
* Pieces nest (the nesting lemma).  Write A = A*(J1).  Every member of
  piece(J1) has the active set A and lies in the closed part of J1, which
  lies in that of A, so piece(J1) ⊆ piece(A).  Likewise
  piece(J1) ⊆ piece(J1 - {j}) for every j in J1 - A, since removing j
  keeps A.  So a J1 other than A has an empty piece unless piece(A) and
  every piece(J1 - {j}) are nonempty (the Apriori candidate rule).
* Point faces.  When the final tableau of j's linearization proves the
  optimal face of j the one point y (`exactlp._Start.solve`), the closed
  part of every J1 holding j lies in {y}, so its piece is {y} or empty:
  nonempty exactly when y is in the closed part and every piece of h
  active at y is in J1.  With A(y) the pieces active at y and F the
  pieces whose optimal face holds y, y is in the closed part of J1 iff
  J1 ⊆ F (every face lies in C), so the piece is {y} exactly when
  A(y) ⊆ J1 ⊆ F: set algebra, and the closed part is built only then.
  Its margin LP would have only y in its x-projection, so y is the
  witness that LP would return, and none is posed (`_point_piece`).  Two
  point pieces have the same member set iff their points are equal.  A
  point piece P lies in a set S iff y does.  cl(P) ∩ Q is {y} ∩ Q, and
  cl(Q) ∩ P is {y} when y is in Q's closed part with Q's anchor active
  there: the weak and the weakened strict rows of the anchor system say
  h_j <= h_anchor for every j, and they describe cl(Q).  No containment
  or closure test on a point piece poses an LP.
* Each point evaluated once.  A piece keeps the point of its witness
  (`SemiClosedPiece._evaluation`, a `model._Point` of the problem): the
  point scaled, with h's value and active set there.  Membership is one
  test on a point (`SemiClosedPiece._holds`); membership of the witness
  in another piece, the containment, merge, skip and closure tests, and
  f at the witness in `components` read the kept point.  `local_pieces`
  makes one point per distinct point of the call, the point of each
  one-point face and each witness, and `components` one per distinct
  probe point that no piece keeps.
* Levels do not touch.  On a piece f = alpha_anchor: every member x lies
  in the optimal face of the anchor and has it active, so
  f(x) = g(x) - v_anchor.x - beta_anchor, the anchor's shifted value.
  Under the hypotheses f is continuous on C, as g is on dom g ⊇ C and h on
  int(dom h) ⊇ C, and the closure of a piece lies in the closed set C; so
  f = alpha_anchor on the closure too.  A point of cl(P) ∩ Q or of
  P ∩ cl(Q) thus has f equal to both anchors' values, and two pieces whose
  anchors have different alpha are never adjacent: `_adjacency` poses no
  closure LP for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Optional, Sequence

from .exactlp import (
    ExtendedRational,
    IntegerRow,
    LinearProgram,
    LpStatus,
    MINUS_INF,
    Vector,
    lp_solve,
    max_slack,
    midpoint,
    vsub,
    _margin_exceeds,
    _margin_lp,
    _solve_margin,
)
from .model import (
    DcProblem,
    InternalCheckFailed,
    MaxAffine,
    OutsideDomain,
    PolydcError,
    PolyhedralSet,
    containment_violation,
    kept,
    _Point,
)

DEFAULT_ENUMERATION_CAP = 16


class HypothesisNotMet(PolydcError):
    """dom(g) ⊇ C or int(dom(h)) ⊇ C failed; message names the culprit."""


class EnumerationCapExceeded(PolydcError):
    pass


@dataclass(frozen=True)
class LinearizationResult:
    """Value and optimal face of the one-piece convex subproblem.

    `one_point` says that the LP's final tableau proves the face the one
    point `witness` (`LpOutcome.unique`); False when it does not, or when
    the subproblem is unbounded.
    """

    piece: int
    shifted: bool
    value: ExtendedRational
    face: Optional[PolyhedralSet]
    witness: Optional[Vector]
    one_point: bool = False


# a semi-closed system as integer rows: (equalities, weak, strict)
_System = tuple[tuple[IntegerRow, ...], ...]


def _positive(slack: ExtendedRational) -> bool:
    return not slack.is_finite or slack.as_fraction() > 0


def _strict_witness(
    equalities: Sequence[IntegerRow],
    weak: Sequence[IntegerRow],
    strict: Sequence[IntegerRow],
    dimension: int,
) -> Optional[Vector]:
    slack, witness = max_slack(equalities, weak, strict, dimension)
    return witness if _positive(slack) else None


@dataclass(frozen=True)
class SemiClosedPiece:
    """Member set: {x in closed_part : active pieces of h within J1}.

    The semi-closed piece is convex; by the lemma (module docstring) its
    members are exactly the points of its anchor's system, `_system`, which
    is derived from the fields; `build_piece` hands over the system it
    built and the margin LP it solved, `_margin`, which a piece built by
    hand poses on first use.  `_point` says that the closed part is the
    one point `witness` (`_point_piece`), so the piece is that point and
    its tests need no LP.  `_evaluation` is the point of the witness (each
    point evaluated once, module docstring).
    """

    J1: frozenset[int]
    closed_part: PolyhedralSet
    excluded: frozenset[int]
    h: MaxAffine
    witness: Vector
    anchor: int
    _point: bool = field(default=False, compare=False, repr=False)

    @cached_property
    def _system(self) -> _System:
        return _anchor_system(self.h, self.closed_part, self.J1, self.anchor)

    @cached_property
    def _margin(self) -> LinearProgram:
        """The margin LP of `_system` (`exactlp._margin_lp`), whose prepared
        start every containment test of the piece continues."""
        return _margin_lp(*self._system, self.dimension)

    @cached_property
    def _evaluation(self) -> _Point:
        """The point of the witness; `local_pieces` hands each piece it
        builds the problem's point there, and a piece built by hand makes
        one of h alone on first use."""
        return _Point(self.witness, self.h)

    def contains(self, x: Sequence) -> bool:
        return self._holds(_Point(x, self.h))

    def _holds(self, point: _Point) -> bool:
        """Membership of a point of h: in the closed part, then in dom h
        with its active set in J1, each read from the point."""
        inside = self.closed_part._tight_rows(point.scaled) is not None
        return inside and _within(point.h, self.J1)

    @property
    def dimension(self) -> int:
        return self.closed_part.dimension


def _within(at: Optional[tuple], J1: frozenset[int]) -> bool:
    """Whether h's `_at` result `at` is in dom h with its active set in J1."""
    return at is not None and all(j + 1 in J1 for j in at[1])


def _linearize(prob: DcProblem, j: int) -> LinearizationResult:
    """The shifted result for piece j, from one LP.

    Minimizes (g + indicator(C))(x) - v_j.x; the shifted value subtracts
    beta_j as well.  The LP, the optimal face and the witness do not depend
    on the shift, so the unshifted result shares them
    (`solve_linearization`).  The optimal face is written down without
    projection by substituting the epigraph variable: at any optimum t
    equals g(x), so the face is C ∩ dom(g), whose rows it joins as they
    are, cut by u_i.x + alpha_i <= v_j.x + value for every piece i of g,
    where value is the unshifted one.
    """
    v, beta = prob.h.piece(j)
    n = prob.dimension
    g_plus = prob.g_plus_indicator
    outcome = lp_solve(g_plus.epigraph_lp(v))
    if outcome.status is LpStatus.INFEASIBLE:
        raise InternalCheckFailed(
            "linearized subproblem infeasible despite the standing assumption"
        )
    if outcome.status is LpStatus.UNBOUNDED:
        return LinearizationResult(j, True, MINUS_INF, None, None)
    cuts = [(vsub(u, v), outcome.value - alpha) for u, alpha in prob.g.pieces]
    face = g_plus.domain.intersect(PolyhedralSet(n, inequalities=cuts))
    value = ExtendedRational.finite(outcome.value - beta)
    return LinearizationResult(j, True, value, face, outcome.point[:n], outcome.unique)


@kept
def _linearized(prob: DcProblem) -> tuple[LinearizationResult, ...]:
    """The shifted result of every piece of h, in order: the q epigraph LPs
    of the problem are posed once, and the values and optimal faces they
    give are only read after that (by this module, `duality`,
    `optimality` and `gridcheck`)."""
    # a tuple from a list, not a generator: see exactlp.vector
    return tuple([_linearize(prob, j) for j in prob.h.indices])


def solve_linearization(
    prob: DcProblem, j: int, shifted: bool = True
) -> LinearizationResult:
    """Minimize (g + indicator(C))(x) - v_j.x (- beta_j when shifted); the
    result the problem holds (`_linearized`), whose value the unshifted
    result raises by beta_j."""
    beta = prob.h.piece(j)[1]  # raises IndexError outside 1..q
    result = _linearized(prob)[j - 1]
    value = result.value + ExtendedRational.finite(beta)  # -inf stays -inf
    return result if shifted else replace(result, shifted=False, value=value)


def check_structure_hypotheses(prob: DcProblem) -> None:
    """Raise HypothesisNotMet unless dom(g) ⊇ C and int(dom(h)) ⊇ C.

    The verdict is a fact of the problem, decided once on first use
    (`_hypothesis_violation`); every later call raises the same message,
    or returns, without an LP.
    """
    reason = _hypothesis_violation(prob)
    if reason is not None:
        raise HypothesisNotMet(reason)


@kept
def _hypothesis_violation(prob: DcProblem) -> Optional[str]:
    """The message `check_structure_hypotheses` raises, or None.

    A domain without rows is the whole space, which contains C and is its
    own interior; C is nonempty, as `DcProblem` proved dom(g) ∩ C nonempty
    at load, so such a containment holds and poses no LP.
    """
    if not prob.g.domain.is_whole_space:
        reason = containment_violation(prob.g.domain, prob.C, strictly=False)
        if reason is not None:
            return f"dom(g) does not contain C: {reason}"
    if not prob.h.domain.is_whole_space:
        reason = containment_violation(prob.h.domain, prob.C, strictly=True)
        if reason is not None:
            return f"the interior of dom(h) does not contain C: {reason}"
    return None


@kept
def global_solutions(
    prob: DcProblem,
) -> tuple[ExtendedRational, frozenset[int], tuple[LinearizationResult, ...]]:
    """Optimal value, minimizing piece indices, and their optimal faces.

    When some linearized subproblem is unbounded the DC program is
    unbounded: the value is -inf and the solution set is empty.  The triple
    is a fact of the problem, decided once from the problem's own
    hypotheses and linearizations (`_hypothesis_violation`,
    `_linearized`); a later call poses no LP, and a problem that breaks
    the hypotheses raises the same `HypothesisNotMet` on every call.
    """
    check_structure_hypotheses(prob)
    results = _linearized(prob)
    alpha_bar = min(r.value for r in results)
    J_star = frozenset(r.piece for r in results if r.value == alpha_bar)
    pieces = tuple([r for r in results if r.piece in J_star])  # see exactlp.vector
    return alpha_bar, J_star, pieces


def _anchor_system(
    h: MaxAffine, closed_part: PolyhedralSet, J1: frozenset[int], anchor: int
) -> _System:
    """The strict system of `anchor` over `closed_part`, as integer rows:
    the equalities of `closed_part`; the weak rows, those of `closed_part`
    and then h_j <= h_anchor for the other j in J1; and the strict rows
    h_j < h_anchor for the excluded j."""
    equalities, inequalities = closed_part._integer_rows
    weak, strict = list(inequalities), []
    for j, row in h._below[anchor]:
        (weak if j in J1 else strict).append(row)
    return equalities, tuple(weak), tuple(strict)


def build_piece(
    h: MaxAffine, closed_part: PolyhedralSet, J1: frozenset[int], anchor: int
) -> Optional[SemiClosedPiece]:
    """Assemble the semi-closed piece for J1, or None when it has no members.

    Precondition: `closed_part` lies in the optimal face of every j in J1,
    and `anchor` has the least alpha over J1.  By the lemma (module
    docstring) the piece is then the one system of `anchor`, which has a
    member iff its strict rows admit positive margin: one LP, which the
    piece keeps together with the system.
    """
    system = _anchor_system(h, closed_part, J1, anchor)
    slack, witness, lp = _solve_margin(_margin_lp(*system, closed_part.dimension))
    if not _positive(slack):
        return None
    piece = SemiClosedPiece(
        J1=J1,
        closed_part=closed_part,
        excluded=frozenset(h.indices) - J1,
        h=h,
        witness=witness,
        anchor=anchor,
    )
    # the values `_system` would derive, and the LP the witness came from
    piece.__dict__.update(_system=system, _margin=lp)
    return piece


def _point_piece(
    prob: DcProblem, faces: list, J1: frozenset[int], anchor: int, face_point: tuple
) -> Optional[SemiClosedPiece]:
    """`build_piece` without an LP when some j in J1 has the one-point
    optimal face {y} (point faces, module docstring).  `face_point` is
    (the point of y, F), with F the pieces whose face holds y.
    The piece is {y} exactly when A(y) ⊆ J1 ⊆ F, else empty; only a
    nonempty piece builds its closed part, from `faces`, those of J1."""
    y, holding = face_point
    if not (J1 <= holding and _within(y.h, J1)):
        return None
    closed_part = reduce(PolyhedralSet.intersect, faces).intersect(prob.C)
    excluded = frozenset(prob.h.indices) - J1
    return SemiClosedPiece(J1, closed_part, excluded, prob.h, y.x, anchor, _point=True)


def _negated(row: IntegerRow) -> IntegerRow:
    """The integer row of -a.x <= -b, for that of a.x <= b."""
    A, B, s = row
    return tuple([-c for c in A]), -B, s


def _satisfies(P: SemiClosedPiece, S: PolyhedralSet) -> bool:
    """Whether every member of P lies in S.

    A member of P satisfies every row of P's system, so a row of S that is
    already one needs no LP.  Each other row a.x <= b of S holds at every
    member iff its maximum over cl(P) is at most b, since the members are
    dense in cl(P); an equality is tested as a.x <= y and -a.x <= -y.  That
    maximum is one phase 2 on the prepared start of P's margin LP, whose
    eps >= 0 slice is cl(P) (`exactlp._margin_exceeds`); each row of S is
    tested once.  A point piece is tested at its point.
    """
    if P._point:
        return S._tight_rows(P._evaluation.scaled) is not None
    equalities, weak, _ = P._system
    # rows every member satisfies, or tested
    settled_equalities, settled = set(equalities), set(weak)
    tests = []
    S_equalities, S_inequalities = S._integer_rows
    for row in S_equalities:
        if row not in settled_equalities:
            settled_equalities.add(row)
            tests += [row, _negated(row)]  # a.x > y or a.x < y
    for row in S_inequalities:
        if row not in settled:
            settled.add(row)
            tests.append(row)
    lp = P._margin
    return not any(_margin_exceeds(lp, row) for row in tests)


def _piece_subset(P: SemiClosedPiece, Q: SemiClosedPiece) -> bool:
    """Exact containment of member sets of two semi-closed pieces.

    P's witness is a member of P, so P ⊄ Q when Q does not hold it.  Every
    member of P has the witness's active set (the lemma), so once Q holds
    the witness, P ⊆ Q iff every member of P lies in Q's closed part.
    """
    return Q._holds(P._evaluation) and _satisfies(P, Q.closed_part)


def _same_member_set(P: SemiClosedPiece, Q: SemiClosedPiece) -> bool:
    if P._point and Q._point:  # the pieces are their points
        return P.witness == Q.witness
    # no containment LP runs before P holds Q's witness and Q holds P's,
    # the check that opens _piece_subset
    return P._holds(Q._evaluation) and _piece_subset(P, Q) and _piece_subset(Q, P)


def _equals_sub_piece(
    K: SemiClosedPiece,
    J1: frozenset[int],
    least: frozenset[int],
    closed_part: PolyhedralSet,
) -> bool:
    """Whether the piece of J1 has the member set of the nonempty piece K,
    decided without an LP for J1 (the skip lemma, module docstring): every
    member of K must lie in `closed_part`, J1's.  `least` is A*(J1), which
    must lie in K.J1, and K's witness, a member of K, in `closed_part`; both
    are necessary, and neither costs an LP.
    """
    return (
        K.J1 < J1
        and least <= K.J1
        and closed_part._tight_rows(K._evaluation.scaled) is not None
        and _satisfies(K, closed_part)
    )


def local_pieces(
    prob: DcProblem, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[SemiClosedPiece, ...]:
    """All nonempty semi-closed pieces of the local solution set.

    The nonempty subsets J1 of the indices of h's pieces whose
    linearization has an optimal face (no other J1 has a piece) are tried
    by size, then lexicographically, and pieces whose member sets are
    provably equal are merged, keeping the smallest J1.  A J1 that holds a piece whose
    optimal face is one point is decided at that point by set algebra,
    without an LP (point faces), and h is evaluated once per distinct
    point (each point evaluated once).  Otherwise a J1 whose piece equals
    that of an earlier kept K ⊂ J1 is skipped without an LP of its own
    (the skip lemma); any other costs one LP for the system of its anchor
    (see the module docstring).  A nonempty piece is kept unless it has
    the member set of a kept one.  Equality is containment both ways, and
    each containment test is one phase 2 per row of the other piece's
    closed part that the piece's own system does not already impose, so
    faces shared by the two J1 sets cost nothing; a point piece is tested
    at its point, and two point pieces are compared by their points.  Under
    the containment hypotheses the union of the returned pieces is exactly
    the local solution set.  The hypotheses and the linearizations are as
    in `global_solutions`.
    """
    check_structure_hypotheses(prob)
    q = len(prob.h.pieces)
    if q > cap:
        raise EnumerationCapExceeded(
            f"h has {q} pieces; subset enumeration is capped at {cap}"
        )
    linearized = _linearized(prob)
    alpha = {r.piece: r.value for r in linearized}
    face_of = {r.piece: r.face for r in linearized if r.face is not None}

    point_at = cache(prob._point)  # one point per distinct point of the call

    points = {}  # j of a one-point face {y}: (the point of y, F)
    for r in linearized:
        if r.one_point:
            y = point_at(r.witness)
            F = [k for k, S in face_of.items() if S._tight_rows(y.scaled) is not None]
            points[r.piece] = y, frozenset(F)
    # one piece per member set, with the smallest J1 that gives it
    representatives: list[SemiClosedPiece] = []
    for size in range(1, len(face_of) + 1):
        for combo in itertools.combinations(sorted(face_of), size):
            J1 = frozenset(combo)
            faces = [face_of[j] for j in combo]
            # the first index of least alpha; finite, as every face exists
            anchor = min(combo, key=alpha.__getitem__)
            j = next((j for j in combo if j in points), None)
            if j is not None:
                piece = _point_piece(prob, faces, J1, anchor, points[j])
            else:
                closed_part = reduce(PolyhedralSet.intersect, faces).intersect(prob.C)
                least = frozenset([j for j in combo if alpha[j] == alpha[anchor]])
                if any(
                    _equals_sub_piece(K, J1, least, closed_part)
                    for K in representatives
                ):
                    continue
                piece = build_piece(prob.h, closed_part, J1, anchor)
            if piece is None:
                continue
            piece.__dict__["_evaluation"] = point_at(piece.witness)  # its value
            if not any(_same_member_set(piece, rep) for rep in representatives):
                representatives.append(piece)
    return tuple(
        sorted(representatives, key=lambda p: tuple(sorted(p.J1)))
    )


def _closure_meets(
    closing: SemiClosedPiece, other: SemiClosedPiece
) -> Optional[Vector]:
    """A point of cl(closing) ∩ other, or None.

    The closure of a nonempty semi-closed system is the same system with
    the strict rows weakened.  A point piece is its own closure; a point y
    of a point piece lies in cl(closing) iff y is in closing's closed part
    and closing's anchor is active at y (point faces, module docstring).
    """
    if closing._point:
        return closing.witness if other._holds(closing._evaluation) else None
    if other._point:
        point = other._evaluation
        anchor_active = point.h is not None and closing.anchor - 1 in point.h[1]
        if anchor_active and closing.closed_part._tight_rows(point.scaled) is not None:
            return other.witness
        return None
    equalities, weak, strict = closing._system
    other_equalities, other_weak, other_strict = other._system
    return _strict_witness(
        equalities + other_equalities,
        weak + strict + other_weak,
        other_strict,
        closing.dimension,
    )


def pieces_adjacent(
    P: SemiClosedPiece, Q: SemiClosedPiece
) -> Optional[Vector]:
    """Two-sided closure test: a witness of cl(P) ∩ Q or P ∩ cl(Q).

    Closure-closure intersection would be wrong here: it merges pieces
    separated by a removed point.
    """
    witness = _closure_meets(P, Q)
    if witness is not None:
        return witness
    return _closure_meets(Q, P)


def _adjacency(
    prob: DcProblem, pieces: Sequence[SemiClosedPiece]
) -> dict[tuple[int, int], Vector]:
    """The edges of the pieces' adjacency graph with their witnesses; a
    pair whose anchors have different alpha is no edge (levels do not
    touch, module docstring) and is not tested."""
    linearized = _linearized(prob)
    alpha = [linearized[p.anchor - 1].value for p in pieces]
    edges = {}
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if alpha[i] != alpha[j]:
                continue
            witness = pieces_adjacent(pieces[i], pieces[j])
            if witness is not None:
                edges[(i, j)] = witness
    return edges


def _walk(
    edges: dict[tuple[int, int], Vector], sources: Sequence[int]
) -> dict[int, Optional[tuple[int, Vector]]]:
    """Breadth-first search of the adjacency graph `edges` from `sources`.

    Maps every piece reached, in the order reached, to the piece it was
    reached from and the witness of that edge (None for a source); each
    piece's neighbours are taken in the order of `edges`.
    """
    neighbors: dict[int, list[tuple[int, Vector]]] = {}
    for (i, j), witness in edges.items():
        neighbors.setdefault(i, []).append((j, witness))
        neighbors.setdefault(j, []).append((i, witness))
    parent: dict[int, Optional[tuple[int, Vector]]] = dict.fromkeys(sources)
    queue = list(sources)
    for i in queue:  # the loop reaches the pieces appended to the queue
        for j, witness in neighbors.get(i, []):
            if j not in parent:
                parent[j] = (i, witness)
                queue.append(j)
    return parent


@dataclass(frozen=True)
class Component:
    """A connected component of the local solution set."""

    pieces: tuple[int, ...]  # indices into the local_pieces tuple
    representative: Vector
    value: Fraction


def components(
    prob: DcProblem, pieces: Sequence[SemiClosedPiece]
) -> tuple[Component, ...]:
    """Group pieces into connected components and report the objective value.

    The objective is constant on every component; the value is verified at
    every piece witness and every adjacency witness inside the component,
    exactly, once per distinct point.  At a piece witness f is read from
    the point the piece keeps; a piece built by hand keeps a point of h
    alone, and the problem's point is made there instead.
    """
    if not pieces:
        return ()
    edges = _adjacency(prob, pieces)
    out = []
    placed: set[int] = set()
    for first in range(len(pieces)):
        if first in placed:
            continue
        members = sorted(_walk(edges, [first]))
        placed.update(members)
        probes = {}  # each probe point once, with its point
        for i in members:  # a piece built by hand keeps a point of h alone
            p = pieces[i]._evaluation
            probes[p.x] = prob._point(p.x) if p.functions[1] is None else p
        for (i, _), w in edges.items():  # an edge joins two members or none
            if i in members and w not in probes:
                probes[w] = prob._point(w)
        values = {point.finite_objective() for point in probes.values()}
        if len(values) != 1:
            raise InternalCheckFailed(
                f"objective is not constant on a component: values {sorted(values)}"
            )
        out.append(
            Component(
                pieces=tuple(members),
                representative=pieces[members[0]].witness,
                value=values.pop(),
            )
        )
    return tuple(out)


def segment_path(
    prob: DcProblem,
    pieces: Sequence[SemiClosedPiece],
    z: Sequence,
    w: Sequence,
) -> Optional[tuple[Vector, ...]]:
    """Polyline from z to w inside the union of the pieces, or None.

    Both endpoints must be members of some piece.  When they belong to the
    same component, consecutive path vertices always share a piece's
    relative closure, so every segment stays inside the union; across
    components no path exists and None is returned.
    """
    z_point, w_point = prob._point(z), prob._point(w)
    z, w = z_point.x, w_point.x
    z_home = [i for i, p in enumerate(pieces) if p._holds(z_point)]
    if not z_home:
        raise OutsideDomain("start point is not a member of any piece")
    w_home = [i for i, p in enumerate(pieces) if p._holds(w_point)]
    if not w_home:
        raise OutsideDomain("end point is not a member of any piece")
    if set(z_home) & set(w_home):
        return _validated_path(pieces, (z, w) if z != w else (z,))
    parent = _walk(_adjacency(prob, pieces), z_home)
    # the first end piece reached; no source is one, as z_home and w_home
    # are disjoint here
    reached = next((j for j in parent if j in w_home), None)
    if reached is None:
        return None
    crossings = []
    node = reached
    while parent[node] is not None:
        node, witness = parent[node]
        crossings.append(witness)
    crossings.reverse()
    vertices: list[Vector] = [z]
    for point in crossings + [w]:
        if point != vertices[-1]:
            vertices.append(point)
    return _validated_path(pieces, tuple(vertices))


def _validated_path(
    pieces: Sequence[SemiClosedPiece], vertices: tuple[Vector, ...]
) -> tuple[Vector, ...]:
    def in_union(point: Vector) -> bool:
        return any(p.contains(point) for p in pieces)

    for k, vertex in enumerate(vertices):
        if not in_union(vertex):
            raise InternalCheckFailed(f"path vertex #{k} left the piece union")
        if k + 1 < len(vertices) and not in_union(
            midpoint(vertex, vertices[k + 1])
        ):
            raise InternalCheckFailed(f"segment #{k} midpoint left the piece union")
    return vertices


@dataclass(frozen=True)
class SolutionStructure:
    """Everything the decomposition yields for one problem."""

    alpha_bar: ExtendedRational
    J_star: frozenset[int]
    global_pieces: tuple[LinearizationResult, ...]
    local_pieces: tuple[SemiClosedPiece, ...]
    components: tuple[Component, ...]


def solution_structure(
    prob: DcProblem, cap: int = DEFAULT_ENUMERATION_CAP
) -> SolutionStructure:
    alpha_bar, J_star, global_pieces = global_solutions(prob)
    pieces = local_pieces(prob, cap)
    comps = components(prob, pieces)
    return SolutionStructure(alpha_bar, J_star, global_pieces, pieces, comps)

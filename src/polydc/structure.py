"""Decomposition of global and local solution sets.

Fixing one affine piece h_j of h and minimizing (g + indicator(C)) - h_j is
a convex program; its value alpha_j and optimal face S^j are computed by a
single epigraph LP per piece, which `solution_structure` solves once for
both constructions below.  The smallest alpha_j is the optimal value of
the DC program and the union of the minimizing faces is the global solution
set.  The local solution set is a finite union of semi-closed pieces, one
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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
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
    _check_dimension,
    _scaled,
)

DEFAULT_ENUMERATION_CAP = 16


class HypothesisNotMet(PolydcError):
    """dom(g) ⊇ C or int(dom(h)) ⊇ C failed; message names the culprit."""


class EnumerationCapExceeded(PolydcError):
    pass


@dataclass(frozen=True)
class LinearizationResult:
    """Value and optimal face of the one-piece convex subproblem."""

    piece: int
    shifted: bool
    value: ExtendedRational
    face: Optional[PolyhedralSet]
    witness: Optional[Vector]


# the unshifted and the shifted result of one piece of h
_Pair = tuple[LinearizationResult, LinearizationResult]
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
    is derived from the fields.  `_lp` is the margin LP of that system that
    `build_piece` solved; a piece built without it poses it on first use.
    """

    J1: frozenset[int]
    closed_part: PolyhedralSet
    excluded: frozenset[int]
    h: MaxAffine
    witness: Vector
    anchor: int
    _lp: Optional[LinearProgram] = field(default=None, compare=False, repr=False)

    @cached_property
    def _system(self) -> _System:
        return _anchor_system(self.h, self.closed_part, self.J1, self.anchor)

    @cached_property
    def _margin(self) -> LinearProgram:
        """The margin LP of `_system` (`exactlp._margin_lp`), whose prepared
        start every containment test of the piece continues."""
        if self._lp is not None:
            return self._lp
        return _margin_lp(*self._system, self.dimension)

    def contains(self, x: Sequence) -> bool:
        point = _scaled(_check_dimension(x, self.dimension))
        if self.closed_part._tight_rows(point) is None:
            return False
        at = self.h._at(point)
        return at is not None and all(j + 1 in self.J1 for j in at[1])

    @property
    def dimension(self) -> int:
        return self.closed_part.dimension


def _linearize(prob: DcProblem, j: int) -> _Pair:
    """The unshifted and the shifted result for piece j, from one LP.

    Minimizes (g + indicator(C))(x) - v_j.x; the shifted value subtracts
    beta_j as well.  The LP, the optimal face and the witness do not depend
    on the shift, so both results share them.  The optimal face is written
    down without projection by substituting the epigraph variable: at any
    optimum t equals g(x), so the face is C ∩ dom(g), whose rows it joins
    as they are, cut by u_i.x + alpha_i <= v_j.x + value for every piece i
    of g, where value is the unshifted one.
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
        return (
            LinearizationResult(j, False, MINUS_INF, None, None),
            LinearizationResult(j, True, MINUS_INF, None, None),
        )
    cuts = [(vsub(u, v), outcome.value - alpha) for u, alpha in prob.g.pieces]
    face = g_plus.domain.intersect(PolyhedralSet(n, inequalities=cuts))
    witness = outcome.point[:n]
    return (
        LinearizationResult(
            j, False, ExtendedRational.finite(outcome.value), face, witness
        ),
        LinearizationResult(
            j, True, ExtendedRational.finite(outcome.value - beta), face, witness
        ),
    )


def solve_linearization(
    prob: DcProblem, j: int, shifted: bool = True
) -> LinearizationResult:
    """Minimize (g + indicator(C))(x) - v_j.x (- beta_j when shifted)."""
    return _linearize(prob, j)[shifted]


def check_structure_hypotheses(prob: DcProblem) -> None:
    """Raise HypothesisNotMet unless dom(g) ⊇ C and int(dom(h)) ⊇ C.

    A domain without rows is the whole space, which contains C and is its
    own interior; C is nonempty, as `DcProblem` proved dom(g) ∩ C nonempty
    at load, so such a containment holds and poses no LP.
    """
    if not prob.g.domain.is_whole_space:
        reason = containment_violation(prob.g.domain, prob.C, strictly=False)
        if reason is not None:
            raise HypothesisNotMet(f"dom(g) does not contain C: {reason}")
    if not prob.h.domain.is_whole_space:
        reason = containment_violation(prob.h.domain, prob.C, strictly=True)
        if reason is not None:
            raise HypothesisNotMet(
                f"the interior of dom(h) does not contain C: {reason}"
            )


def _linearize_all(prob: DcProblem) -> tuple[_Pair, ...]:
    # a tuple from a list, not a generator: see exactlp.vector
    return tuple([_linearize(prob, j) for j in prob.h.indices])


def global_solutions(
    prob: DcProblem,
    linearized: Optional[Sequence[_Pair]] = None,
) -> tuple[ExtendedRational, frozenset[int], tuple[LinearizationResult, ...]]:
    """Optimal value, minimizing piece indices, and their optimal faces.

    When some linearized subproblem is unbounded the DC program is
    unbounded: the value is -inf and the solution set is empty.
    `linearized`, the `_linearize` pairs of every piece of h, comes from a
    caller that has checked the hypotheses already; without it both the
    check and the LPs run here.
    """
    if linearized is None:
        check_structure_hypotheses(prob)
        linearized = _linearize_all(prob)
    results = [shifted for _, shifted in linearized]
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
    piece keeps.
    """
    system = _anchor_system(h, closed_part, J1, anchor)
    slack, witness, lp = _solve_margin(_margin_lp(*system, closed_part.dimension))
    if not _positive(slack):
        return None
    return SemiClosedPiece(
        J1=J1,
        closed_part=closed_part,
        excluded=frozenset(h.indices) - J1,
        h=h,
        witness=witness,
        anchor=anchor,
        _lp=lp,
    )


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
    tested once.
    """
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
    return Q.contains(P.witness) and _satisfies(P, Q.closed_part)


def _same_member_set(P: SemiClosedPiece, Q: SemiClosedPiece) -> bool:
    # no containment LP runs before P holds Q's witness and Q holds P's,
    # the check that opens _piece_subset
    return P.contains(Q.witness) and _piece_subset(P, Q) and _piece_subset(Q, P)


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
        and closed_part._tight_rows(_scaled(K.witness)) is not None
        and _satisfies(K, closed_part)
    )


def local_pieces(
    prob: DcProblem,
    cap: int = DEFAULT_ENUMERATION_CAP,
    linearized: Optional[Sequence[_Pair]] = None,
) -> tuple[SemiClosedPiece, ...]:
    """All nonempty semi-closed pieces of the local solution set.

    The nonempty subsets J1 of h's piece indices are tried by size, then
    lexicographically, and pieces whose member sets are provably equal are
    merged, keeping the smallest J1.  A J1 whose piece equals that of an
    earlier kept K ⊂ J1 is skipped without an LP of its own (the skip
    lemma); any other costs one LP for the system of its anchor (see the
    module docstring), and a nonempty piece is kept unless it has the
    member set of a kept one.  Equality is containment both ways, and each
    containment test is one phase 2 per row of the other piece's closed
    part that the piece's own system does not already impose, so faces
    shared by the two J1 sets cost nothing.  Under the containment
    hypotheses the union of the returned pieces is exactly the local
    solution set.  `linearized` is as in `global_solutions`.
    """
    if linearized is None:
        check_structure_hypotheses(prob)
    q = len(prob.h.pieces)
    if q > cap:
        raise EnumerationCapExceeded(
            f"h has {q} pieces; subset enumeration is capped at {cap}"
        )
    if linearized is None:
        linearized = _linearize_all(prob)
    omega = {unshifted.piece: unshifted for unshifted, _ in linearized}
    alpha = {shifted.piece: shifted.value for _, shifted in linearized}
    # one piece per member set, with the smallest J1 that gives it
    representatives: list[SemiClosedPiece] = []
    for size in range(1, q + 1):
        for combo in itertools.combinations(prob.h.indices, size):
            J1 = frozenset(combo)
            faces = [omega[j].face for j in sorted(J1)]
            if any(face is None for face in faces):
                continue
            closed_part = reduce(PolyhedralSet.intersect, faces).intersect(prob.C)
            # the first index of least alpha; finite, as every face exists
            anchor = min(combo, key=alpha.__getitem__)
            least = frozenset([j for j in combo if alpha[j] == alpha[anchor]])
            if any(
                _equals_sub_piece(K, J1, least, closed_part) for K in representatives
            ):
                continue
            piece = build_piece(prob.h, closed_part, J1, anchor)
            if piece is not None and not any(
                _same_member_set(piece, rep) for rep in representatives
            ):
                representatives.append(piece)
    return tuple(
        sorted(representatives, key=lambda p: tuple(sorted(p.J1)))
    )


def _closure_meets(
    closing: SemiClosedPiece, other: SemiClosedPiece
) -> Optional[Vector]:
    """A point of cl(closing) ∩ other, or None.

    The closure of a nonempty semi-closed system is the same system with
    the strict rows weakened.
    """
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
    pieces: Sequence[SemiClosedPiece],
) -> dict[tuple[int, int], Vector]:
    edges = {}
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
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
    exactly.
    """
    if not pieces:
        return ()
    edges = _adjacency(pieces)
    out = []
    placed: set[int] = set()
    for first in range(len(pieces)):
        if first in placed:
            continue
        members = sorted(_walk(edges, [first]))
        placed.update(members)
        probe_points = [pieces[i].witness for i in members]
        probe_points += [
            w for (i, j), w in sorted(edges.items()) if i in members and j in members
        ]
        values = {prob.finite_objective(p) for p in probe_points}
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
    z = _check_dimension(z, prob.dimension)
    w = _check_dimension(w, prob.dimension)
    z_home = [i for i, p in enumerate(pieces) if p.contains(z)]
    if not z_home:
        raise OutsideDomain("start point is not a member of any piece")
    w_home = [i for i, p in enumerate(pieces) if p.contains(w)]
    if not w_home:
        raise OutsideDomain("end point is not a member of any piece")
    if set(z_home) & set(w_home):
        return _validated_path(pieces, (z, w) if z != w else (z,))
    parent = _walk(_adjacency(pieces), z_home)
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
    check_structure_hypotheses(prob)
    linearized = _linearize_all(prob)
    alpha_bar, J_star, global_pieces = global_solutions(prob, linearized)
    pieces = local_pieces(prob, cap, linearized)
    comps = components(prob, pieces)
    return SolutionStructure(alpha_bar, J_star, global_pieces, pieces, comps)

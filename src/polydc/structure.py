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
the margin is positive.  Containment P ⊆ Q asks, per live branch of P,
whether a member of P violates a closed row of Q; a row that is already in
the branch's own system (a row of C, of dom g, or of a face shared by both
J1 sets) holds at every member, so only the other rows of Q cost an LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .exactlp import (
    ExtendedRational,
    LpStatus,
    MINUS_INF,
    Row,
    Vector,
    lp_solve,
    max_slack,
    midpoint,
    vneg,
    vsub,
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


@dataclass(frozen=True)
class _Branch:
    """One anchor's system for a semi-closed piece: the anchor piece is a
    maximizer of h and every excluded piece is strictly below it."""

    anchor: int
    equalities: tuple[Row, ...]
    weak: tuple[Row, ...]
    strict: tuple[Row, ...]

    def weakened(self) -> "_Branch":
        return _Branch(self.anchor, self.equalities, self.weak + self.strict, ())


def _positive(slack: ExtendedRational) -> bool:
    return not slack.is_finite or slack.as_fraction() > 0


def _strict_witness(
    equalities: Sequence[Row],
    weak: Sequence[Row],
    strict: Sequence[Row],
    dimension: int,
) -> Optional[Vector]:
    slack, witness = max_slack(equalities, weak, strict, dimension)
    return witness if _positive(slack) else None


@dataclass(frozen=True)
class SemiClosedPiece:
    """Member set: {x in closed_part : active pieces of h within J1}.

    The semi-closed piece is convex; its members are exactly the points of
    the closed part where every excluded piece of h is strictly inactive.
    """

    J1: frozenset[int]
    closed_part: PolyhedralSet
    excluded: frozenset[int]
    h: MaxAffine
    witness: Vector
    branches: tuple[_Branch, ...]
    branch_witnesses: tuple[tuple[int, Vector], ...]

    def contains(self, x: Sequence) -> bool:
        x = _check_dimension(x, self.closed_part.dimension)
        if not self.closed_part.contains(x):
            return False
        if not self.h.domain.contains(x):
            return False
        return self.h.active_indices(x) <= self.J1

    @property
    def dimension(self) -> int:
        return self.closed_part.dimension


def _linearize(prob: DcProblem, j: int) -> _Pair:
    """The unshifted and the shifted result for piece j, from one LP.

    Minimizes (g + indicator(C))(x) - v_j.x; the shifted value subtracts
    beta_j as well.  The LP, the optimal face and the witness do not depend
    on the shift, so both results share them.  The optimal face is written
    down without projection by substituting the epigraph variable: at any
    optimum t equals g(x), so the face is cut out by
    u_i.x + alpha_i <= v_j.x + value for every piece i of g, where value is
    the unshifted one.
    """
    v, beta = prob.h.piece(j)
    n = prob.dimension
    outcome = lp_solve(prob.g_plus_indicator.epigraph_lp(v))
    if outcome.status is LpStatus.INFEASIBLE:
        raise InternalCheckFailed(
            "linearized subproblem infeasible despite the standing assumption"
        )
    if outcome.status is LpStatus.UNBOUNDED:
        return (
            LinearizationResult(j, False, MINUS_INF, None, None),
            LinearizationResult(j, True, MINUS_INF, None, None),
        )
    face_rows = list(prob.C.inequalities) + list(prob.g.domain.inequalities)
    for u, alpha in prob.g.pieces:
        face_rows.append((vsub(u, v), outcome.value - alpha))
    face = PolyhedralSet(
        n,
        equalities=prob.C.equalities + prob.g.domain.equalities,
        inequalities=tuple(face_rows),
    )
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
    reason = containment_violation(prob.g.domain, prob.C, strictly=False)
    if reason is not None:
        raise HypothesisNotMet(f"dom(g) does not contain C: {reason}")
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


def _branch_for(
    h: MaxAffine, closed_part: PolyhedralSet, J1: frozenset[int], anchor: int
) -> _Branch:
    v0, beta0 = h.piece(anchor)
    weak = list(closed_part.inequalities)
    strict = []
    for j in h.indices:
        if j == anchor:
            continue
        vj, betaj = h.piece(j)
        row = (vsub(vj, v0), beta0 - betaj)  # h_j(x) <= h_anchor(x)
        if j in J1:
            weak.append(row)
        else:
            strict.append(row)
    return _Branch(anchor, closed_part.equalities, tuple(weak), tuple(strict))


def build_piece(
    h: MaxAffine, closed_part: PolyhedralSet, J1: frozenset[int]
) -> Optional[SemiClosedPiece]:
    """Assemble the semi-closed piece for J1, or None when it has no members.

    Nonemptiness is decided anchor by anchor: the piece has a member with
    anchor j0 active iff the j0 branch's strict rows admit positive margin.
    """
    # a tuple from a list, not a generator: see exactlp.vector
    branches = tuple([_branch_for(h, closed_part, J1, j0) for j0 in sorted(J1)])
    witnesses = []
    for branch in branches:
        w = _strict_witness(
            branch.equalities, branch.weak, branch.strict, closed_part.dimension
        )
        if w is not None:
            witnesses.append((branch.anchor, w))
    if not witnesses:
        return None
    return SemiClosedPiece(
        J1=J1,
        closed_part=closed_part,
        excluded=frozenset(h.indices) - J1,
        h=h,
        witness=witnesses[0][1],
        branches=branches,
        branch_witnesses=tuple(witnesses),
    )


def _piece_subset(P: SemiClosedPiece, Q: SemiClosedPiece) -> bool:
    """Exact containment of member sets of two semi-closed pieces.

    A member of P satisfies every row of its branch's system, so a closed
    row of Q that is already a row of that system cannot be violated and
    needs no LP; each remaining row of Q is tested once.
    """
    n = P.dimension
    live = {anchor for anchor, _ in P.branch_witnesses}
    for branch in P.branches:
        if branch.anchor not in live:
            continue
        # a member of P violating a closed constraint of Q
        own_equalities = set(branch.equalities)
        own_weak = set(branch.weak)
        violations = []
        for a, y in dict.fromkeys(Q.closed_part.equalities):
            if (a, y) not in own_equalities:
                violations += [(a, y), (vneg(a), -y)]  # a.x < y or a.x > y
        for a, b in dict.fromkeys(Q.closed_part.inequalities):
            if (a, b) not in own_weak:
                violations.append((vneg(a), -b))
        for violation in violations:
            if (
                _strict_witness(
                    branch.equalities,
                    branch.weak,
                    branch.strict + (violation,),
                    n,
                )
                is not None
            ):
                return False
        # a member of P where a piece outside Q.J1 is active
        for j_extra in sorted(P.J1 - Q.J1):
            v_extra, beta_extra = P.h.piece(j_extra)
            rows = []
            for j in P.h.indices:
                if j == j_extra:
                    continue
                vj, betaj = P.h.piece(j)
                rows.append((vsub(vj, v_extra), beta_extra - betaj))
            if (
                _strict_witness(
                    branch.equalities,
                    branch.weak + tuple(rows),
                    branch.strict,
                    n,
                )
                is not None
            ):
                return False
    return True


def _same_member_set(P: SemiClosedPiece, Q: SemiClosedPiece) -> bool:
    # cheap witness screen before the full containment LPs
    if not (Q.contains(P.witness) and P.contains(Q.witness)):
        return False
    return _piece_subset(P, Q) and _piece_subset(Q, P)


def local_pieces(
    prob: DcProblem,
    cap: int = DEFAULT_ENUMERATION_CAP,
    linearized: Optional[Sequence[_Pair]] = None,
) -> tuple[SemiClosedPiece, ...]:
    """All nonempty semi-closed pieces of the local solution set.

    Every nonempty subset J1 of h's piece indices is tried; pieces whose
    member sets are provably equal are merged, keeping the smallest J1.
    Equality is containment both ways, and each containment LP tests one
    row of the other piece's closed part that the branch does not already
    impose, so faces shared by the two J1 sets cost nothing.
    Under the containment hypotheses the union of the returned pieces is
    exactly the local solution set.  `linearized` is as in
    `global_solutions`.
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
    kept: list[SemiClosedPiece] = []
    for size in range(1, q + 1):
        for combo in itertools.combinations(prob.h.indices, size):
            J1 = frozenset(combo)
            faces = [omega[j].face for j in sorted(J1)]
            if any(face is None for face in faces):
                continue
            closed_part = reduce(PolyhedralSet.intersect, faces).intersect(prob.C)
            piece = build_piece(prob.h, closed_part, J1)
            if piece is not None:
                kept.append(piece)
    # merge duplicates, keeping the smallest J1 of each equivalence class
    representatives: list[SemiClosedPiece] = []
    for piece in kept:  # kept is ordered by (|J1|, lexicographic)
        if not any(_same_member_set(piece, rep) for rep in representatives):
            representatives.append(piece)
    return tuple(
        sorted(representatives, key=lambda p: tuple(sorted(p.J1)))
    )


def _closure_meets(
    closing: SemiClosedPiece, other: SemiClosedPiece
) -> Optional[Vector]:
    """A point of cl(closing) ∩ other, or None.

    The closure of a nonempty semi-closed branch is the same system with
    the strict rows weakened; empty branches contribute nothing.
    """
    n = closing.dimension
    live = {anchor for anchor, _ in closing.branch_witnesses}
    live_other = {anchor for anchor, _ in other.branch_witnesses}
    for branch in closing.branches:
        if branch.anchor not in live:
            continue
        closed = branch.weakened()
        for other_branch in other.branches:
            if other_branch.anchor not in live_other:
                continue
            witness = _strict_witness(
                closed.equalities + other_branch.equalities,
                closed.weak + other_branch.weak,
                other_branch.strict,
                n,
            )
            if witness is not None:
                return witness
    return None


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


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


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
    uf = _UnionFind(len(pieces))
    for i, j in edges:
        uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(len(pieces)):
        groups.setdefault(uf.find(i), []).append(i)
    out = []
    for root in sorted(groups):
        members = sorted(groups[root])
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
    edges = _adjacency(pieces)
    neighbors: dict[int, list[tuple[int, Vector]]] = {}
    for (i, j), witness in sorted(edges.items()):
        neighbors.setdefault(i, []).append((j, witness))
        neighbors.setdefault(j, []).append((i, witness))
    # multi-source BFS over pieces
    parent: dict[int, Optional[tuple[int, Vector]]] = {
        i: None for i in z_home
    }
    frontier = list(z_home)
    reached = None
    while frontier and reached is None:
        new_frontier = []
        for i in frontier:
            for j, witness in neighbors.get(i, []):
                if j not in parent:
                    parent[j] = (i, witness)
                    if j in w_home:
                        reached = j
                        break
                    new_frontier.append(j)
            if reached is not None:
                break
        frontier = new_frontier
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

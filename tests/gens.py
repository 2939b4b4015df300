"""Shared fixtures-in-code: worked problems, random generators, oracles.

The vertex-enumeration oracle is an independent implementation (plain
Gaussian elimination over Fractions) used to cross-check the simplex.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

from polydc import DcProblem, LinearProgram, MaxAffine, PolyhedralSet, parse_problem
from polydc import exactlp, structure
from polydc.exactlp import dot, integer_row

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def vec(*values):
    return tuple(Fraction(v) for v in values)


def integer_rows(rows):
    """Rational rows (a, b) as the integer rows (A, B, s) that
    `exactlp.max_slack` takes."""
    return [integer_row(a, b) for a, b in rows]


def interval_problem() -> DcProblem:
    """C = [-2, 3], g = 0, h = max(-x - 1, 0, x - 1) on the line.

    Worked example used throughout: the local solution set is
    {-2} U (-1, 1) U {3}, the critical set adds the points -1 and 1,
    and the unique global solution is 3 with value -2.
    """
    C = PolyhedralSet(1, inequalities=((vec(-1), Fraction(2)), (vec(1), Fraction(3))))
    g = MaxAffine.constant(0, 1)
    h = MaxAffine.from_pieces(
        [(vec(-1), Fraction(-1)), (vec(0), Fraction(0)), (vec(1), Fraction(-1))], 1
    )
    return DcProblem(g=g, h=h, C=C)


def abs_problem() -> DcProblem:
    """g = 0, h = |x| on the whole line: 0 is critical but not stationary."""
    g = MaxAffine.constant(0, 1)
    h = MaxAffine.from_pieces([(vec(1), Fraction(0)), (vec(-1), Fraction(0))], 1)
    return DcProblem(g=g, h=h, C=PolyhedralSet.whole_space(1))


def bundled_problems() -> list[DcProblem]:
    """The example documents in problems/, parsed, in file-name order."""
    return [
        parse_problem(path.read_text(encoding="utf-8"))
        for path in sorted(PROBLEMS.glob("*.json"))
    ]


# ---------------------------------------------------------------------------
# independent linear-algebra oracle


def solve_square(rows, rhs, n):
    """Unique solution of rows . x = rhs, or None (no or many solutions)."""
    matrix = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    pivot_row = 0
    for col in range(n):
        pivot = next(
            (r for r in range(pivot_row, len(matrix)) if matrix[r][col] != 0),
            None,
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        inv = Fraction(1) / matrix[pivot_row][col]
        matrix[pivot_row] = [x * inv for x in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col] != 0:
                f = matrix[r][col]
                matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, len(matrix)):
        if matrix[r][n] != 0:
            return None
    if len(pivots) < n:
        return None  # not unique
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = matrix[r][n]
    return tuple(x)


def vertex_enumeration_minimum(lp: LinearProgram):
    """("optimal", value) via brute force over candidate vertices, or
    ("infeasible", None).  Assumes the feasible set is bounded, so a
    nonempty set has a vertex and the minimum is attained at one."""
    n = lp.dimension
    eq_rows = [row for row, _ in lp.equalities]
    eq_rhs = [b for _, b in lp.equalities]
    best = None
    indices = range(len(lp.inequalities))
    for k in range(n + 1):
        for subset in itertools.combinations(indices, k):
            rows = eq_rows + [lp.inequalities[i][0] for i in subset]
            rhs = eq_rhs + [lp.inequalities[i][1] for i in subset]
            candidate = solve_square(rows, rhs, n)
            if candidate is None:
                continue
            if any(
                dot(row, candidate) > b for row, b in lp.inequalities
            ) or any(dot(row, candidate) != b for row, b in lp.equalities):
                continue
            value = dot(lp.objective, candidate)
            if best is None or value < best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def prepare_every_row(equalities, inequalities, dimension):
    """`exactlp._prepare` as it was before it left out repeated rows: every
    inequality that substitution leaves nonzero gets a row of the tableau,
    copies included.  A reference for the rule that leaves them out."""
    eliminated = exactlp._eliminate_equalities(equalities, dimension)
    if eliminated is None:
        return None
    start = exactlp._Start(dimension, *eliminated)
    projected = []
    for i, (A, B) in enumerate(inequalities):
        *row, b = start.substitute(A, B)
        if any(row):
            start.projected.append(i)
            projected.append((row, b))
        elif b < 0:
            return None
        elif b == 0:
            start.tight.add(i)
    f = len(start.free)
    if f == 0:
        return start
    m = len(projected)
    n = 2 * f + m
    rows, basis = [], []
    for k, (row, b) in enumerate(projected):
        line = row + [-c for c in row] + [0] * m + [b]
        line[2 * f + k] = 1
        if b < 0:
            rows.append([-x for x in line])
            basis.append(n + k)
        else:
            rows.append(line)
            basis.append(2 * f + k)
    tableau = exactlp._Tableau(rows, basis)
    if not tableau.phase_one(range(n)):
        return None
    start.tableau = tableau
    return start


def solve_every_row(lp: LinearProgram, lexmin: int = 0):
    """`lp_solve(lp, lexmin)` over a start from `prepare_every_row`."""
    start = prepare_every_row(lp.equalities, lp.inequalities, lp.dimension)
    return exactlp.INFEASIBLE if start is None else start.solve(lp.objective, lexmin)


def solve_always_walking(lp: LinearProgram, lexmin: int = 0):
    """`lp_solve(lp, lexmin)` as it was before `_Start.solve` skipped the
    lexmin walk on an optimal face that is one vertex: every step is
    walked.  Returns the outcome and the final tableau as (rows, basis,
    det), None when the start has no tableau."""
    start = lp._rows.start()
    if start is None:
        return exactlp.INFEASIBLE, None
    A, _, scale = integer_row(lp.objective, 0)
    line = start.split(A)
    if start.tableau is None:
        value = Fraction(-line[-1], start.det * scale)
        outcome = exactlp.LpOutcome(
            exactlp.LpStatus.OPTIMAL,
            value,
            start.lift((), 1),
            start._with_copies(start.tight),
        )
        return outcome, None
    tableau = start.tableau.copy()
    f = len(start.free)
    n = 2 * f + len(start.projected)
    tableau.load(line)
    if not tableau.minimize(range(n)):
        return exactlp.UNBOUNDED, (tableau.rows, tableau.basis, tableau.det)
    value = Fraction(
        -tableau.reduced[-1] - line[-1] * tableau.det,
        tableau.det * start.det * scale,
    )
    if lexmin:
        columns = [j for j in range(n) if tableau.reduced[j] == 0]
        for k in range(lexmin):
            unit = [0] * lp.dimension
            unit[k] = 1
            columns = tableau.lexmin_step(start.split(unit), columns)
    z = [0] * f
    loose = set()
    for row, col in zip(tableau.rows, tableau.basis):
        if col < f:
            z[col] += row[n]
        elif col < 2 * f:
            z[col - f] -= row[n]
        elif row[n] != 0:
            loose.add(col - 2 * f)
    tight = start.tight.union(
        i for k, i in enumerate(start.projected) if k not in loose
    )
    outcome = exactlp.LpOutcome(
        exactlp.LpStatus.OPTIMAL,
        value,
        start.lift(z, tableau.det),
        start._with_copies(tight),
    )
    return outcome, (tableau.rows, tableau.basis, tableau.det)


# ---------------------------------------------------------------------------
# the local solution set as it was built before sub-pieces were skipped


def reference_piece_subset(P, Q) -> bool:
    """`structure._piece_subset` as it was before containment ran on P's
    own margin LP: once Q holds P's witness, one fresh margin LP per row of
    Q's closed part that P's system does not impose, with the row's
    violation as one more strict row."""
    if not Q.contains(P.witness):
        return False
    equalities, weak, strict = P._system
    settled_equalities, settled = set(equalities), set(weak)
    violations = []
    Q_equalities, Q_inequalities = Q.closed_part._integer_rows
    for row in Q_equalities:
        if row not in settled_equalities:
            settled_equalities.add(row)
            violations += [row, structure._negated(row)]
    for row in Q_inequalities:
        if row not in settled:
            settled.add(row)
            violations.append(structure._negated(row))
    return not any(
        structure._strict_witness(equalities, weak, strict + (v,), P.dimension)
        is not None
        for v in violations
    )


def reference_local_pieces(prob: DcProblem):
    """`structure.local_pieces` as it was before it skipped the J1 whose
    piece equals an earlier one's: a piece is built for every J1, and the
    pieces are then merged pairwise by `reference_piece_subset`, keeping
    the first of each member set."""
    linearized = structure._linearize_all(prob)
    omega = {unshifted.piece: unshifted for unshifted, _ in linearized}
    alpha = {shifted.piece: shifted.value for _, shifted in linearized}
    kept = []
    for size in range(1, len(prob.h.pieces) + 1):
        for combo in itertools.combinations(prob.h.indices, size):
            faces = [omega[j].face for j in combo]
            if any(face is None for face in faces):
                continue
            closed_part = functools.reduce(PolyhedralSet.intersect, faces)
            closed_part = closed_part.intersect(prob.C)
            anchor = min(combo, key=alpha.__getitem__)
            piece = structure.build_piece(
                prob.h, closed_part, frozenset(combo), anchor
            )
            if piece is not None:
                kept.append(piece)
    representatives = []
    for P in kept:
        if not any(
            P.contains(Q.witness)
            and reference_piece_subset(P, Q)
            and reference_piece_subset(Q, P)
            for Q in representatives
        ):
            representatives.append(P)
    return tuple(sorted(representatives, key=lambda p: tuple(sorted(p.J1))))


# ---------------------------------------------------------------------------
# random generators (all integer/rational data, deterministic under a seed)


def random_bounded_lp(rng: random.Random, fractional: bool = False) -> LinearProgram:
    """Feasibility is not guaranteed; boundedness is, via a full box.

    Data are integers by default.  With `fractional`, each row (each box
    pair, the equality and the objective) draws its own denominator
    q <= 50 and its entries are multiples of 1/q in the same ranges.
    """

    def denominator():
        return rng.randint(2, 50) if fractional else 1

    def draw(lo, hi, q):
        return Fraction(rng.randint(lo * q, hi * q), q)

    n = rng.randint(1, 4)
    inequalities = []
    for i in range(n):
        q = denominator()
        lo = draw(-4, 2, q)
        hi = lo + draw(0, 5, q)
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        inequalities.append((tuple(e), hi))
        inequalities.append((tuple(-c for c in e), -lo))
    for _ in range(rng.randint(0, 10 - 2 * n)):
        q = denominator()
        row = tuple(draw(-3, 3, q) for _ in range(n))
        inequalities.append((row, draw(-4, 6, q)))
    equalities = []
    if n >= 2 and rng.random() < 0.3:
        q = denominator()
        row = [draw(-2, 2, q) for _ in range(n)]
        if any(c != 0 for c in row):
            equalities.append((tuple(row), draw(-2, 2, q)))
    q = denominator()
    objective = tuple(draw(-3, 3, q) for _ in range(n))
    return LinearProgram(
        objective=objective,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        dimension=n,
    )


def _distinct_pieces(rng: random.Random, count: int, gradients, offsets):
    pieces = set()
    while len(pieces) < count:
        u = rng.choice(gradients)
        alpha = Fraction(rng.choice(offsets))
        pieces.add((tuple(Fraction(c) for c in u), alpha))
    return tuple(sorted(pieces))


def random_dc_instance(rng: random.Random, n_max: int = 3) -> DcProblem:
    """Bounded instance on a box with full-space domains.

    Piece gradients have entries in -2..2 and offsets in -2..2 (sometimes
    halves), so the structure hypotheses hold trivially and every DCA
    subproblem is bounded.
    """
    n = rng.randint(1, n_max)
    lo, hi = [], []
    for _ in range(n):
        a = Fraction(rng.randint(-3, 0))
        b = a + rng.randint(1, 4)
        if rng.random() < 0.3:
            a -= Fraction(1, 2)
        lo.append(a)
        hi.append(b)
    C = PolyhedralSet.box(lo, hi)
    gradients = list(itertools.product(range(-2, 3), repeat=n))
    offsets = [Fraction(k) for k in range(-2, 3)] + [
        Fraction(1, 2),
        Fraction(-1, 2),
    ]
    g = MaxAffine.from_pieces(
        _distinct_pieces(rng, rng.randint(1, 4), gradients, offsets), n
    )
    h = MaxAffine.from_pieces(
        _distinct_pieces(rng, rng.randint(1, 4), gradients, offsets), n
    )
    return DcProblem(g=g, h=h, C=C)


def random_grid_instance(rng: random.Random) -> DcProblem:
    """Instance for grid cross-checks: n <= 2, integer box and offsets.

    Within each function the piece gradients vary along a single axis with
    entries in -1..1, so every breakpoint hyperplane of g and of h is
    axis-parallel at a multiple of 1/8.  Consequently f is linear on every
    1/8 grid-step segment (no kink strictly between neighbors) and every
    nonempty descent cone contains an axis direction, which makes the
    grid-neighborhood checks sound at step 1/8.
    """
    n = rng.randint(1, 2)
    lo = [Fraction(rng.randint(-2, 0)) for _ in range(n)]
    hi = [l + rng.randint(1, 3) for l in lo]
    C = PolyhedralSet.box(lo, hi)
    offsets = list(range(-2, 3))

    def single_axis_gradients():
        axis = rng.randint(0, n - 1)
        base = rng.randint(-1, 1)
        gradients = []
        for t in (-1, 0, 1):
            v = [Fraction(base)] * n
            v[axis] = Fraction(t)
            gradients.append(tuple(v))
        return gradients

    g = MaxAffine.from_pieces(
        _distinct_pieces(rng, rng.randint(1, 3), single_axis_gradients(), offsets),
        n,
    )
    h = MaxAffine.from_pieces(
        _distinct_pieces(rng, rng.randint(1, 4), single_axis_gradients(), offsets),
        n,
    )
    return DcProblem(g=g, h=h, C=C)

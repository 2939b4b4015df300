"""Shared fixtures-in-code: worked problems, random generators, oracles.

The vertex-enumeration oracle is an independent implementation (plain
Gaussian elimination over Fractions) used to cross-check the simplex.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

from polydc import (
    Classification,
    ConvexBody,
    DcaTrace,
    DcProblem,
    GlobalStatus,
    HypothesisFlags,
    InternalCheckFailed,
    Iterate,
    LinearProgram,
    LocalStatus,
    MaxAffine,
    OutsideDomain,
    PolyhedralSet,
    Scripted,
    Termination,
    TerminationKind,
    parse_problem,
    solve_subproblem,
)
from polydc import exactlp, model, structure
from polydc.dca import SubproblemUnboundedError
from polydc.exactlp import dot, integer_row, row_space_basis

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


def count_evaluations(monkeypatch) -> collections.Counter:
    """A Counter, filled while the patch holds, of the evaluations made by
    `MaxAffine._at` and `PolyhedralSet._tight_rows` (the domain rows that
    `_at` evaluates included), keyed by (id of the function or set, the
    point as `model._scaled` gives it)."""
    calls = collections.Counter()
    at, tight_rows = MaxAffine._at, PolyhedralSet._tight_rows

    def counting_at(f, point):
        calls[(id(f), point)] += 1
        return at(f, point)

    def counting_tight_rows(S, point):
        calls[(id(S), point)] += 1
        return tight_rows(S, point)

    monkeypatch.setattr(MaxAffine, "_at", counting_at)
    monkeypatch.setattr(PolyhedralSet, "_tight_rows", counting_tight_rows)
    return calls


def count_work(monkeypatch) -> collections.Counter:
    """A Counter, filled while the patch holds, of the LPs posed (key
    "lps", the `exactlp._Rows.start` calls every solve makes) and of the
    calls of `MaxAffine._at` and `PolyhedralSet._tight_rows`."""
    calls = collections.Counter()
    for key, owner, name in (
        ("lps", exactlp._Rows, "start"),
        ("_at", MaxAffine, "_at"),
        ("_tight_rows", PolyhedralSet, "_tight_rows"),
    ):

        def counting(*args, _original=getattr(owner, name), _key=key):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


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


def reference_rref(rows, width):
    """`exactlp._rref` as it was before it pivoted on a `_Tableau`: its own
    loop of Bareiss updates, the sign of det left as it falls and fixed
    once at the end.  Returns (matrix, pivots, det)."""
    matrix = list(rows)
    pivots = []
    det = 1
    for col in range(width):
        top = len(pivots)
        if top == len(matrix):
            break
        pivot = next(
            (r for r in range(top, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[top], matrix[pivot] = matrix[pivot], matrix[top]
        pivot_row = matrix[top]
        matrix = [
            line if r == top else full_bareiss(line, pivot_row, col, det)
            for r, line in enumerate(matrix)
        ]
        det = pivot_row[col]
        pivots.append(col)
    if det < 0:
        matrix = [[-x for x in line] for line in matrix]
        det = -det
    return matrix, pivots, det


def full_rref(tableau, width):
    """The tableau `exactlp._rref(rows, width)` returns as (matrix, pivots,
    det), with the pivot columns put back: det in row k's column
    pivots[k], 0 in every other row's.  A row past the rank is basic on
    `width`, no column."""
    full = []
    for line, col in zip(tableau.rows, tableau.basis):
        row = [0] * width + list(line[len(tableau.cols) :])
        for j, x in zip(tableau.cols, line):
            row[j] = x
        if col < width:
            row[col] = tableau.det
        full.append(row)
    return full, [col for col in tableau.basis if col < width], tableau.det


def full_tableau(tableau, cols=None):
    """The dictionary-form `tableau` as the full tableau it stands for,
    (rows, basis, det) with rows = det * B^-1 [A | b]: each stored column
    in its own place, det in a basic column's own row and 0 in the others.
    An artificial has no column in either form.  A column dropped from the
    tableau reads 0, and so does every stored column outside `cols` when
    `cols` is given."""
    n = tableau.n
    rows = []
    for line, col in zip(tableau.rows, tableau.basis):
        row = [0] * n + [line[-1]]
        for j, x in zip(tableau.cols, line):
            if cols is None or j in cols:
                row[j] = x
        if col < n:
            row[col] = tableau.det
        rows.append(row)
    return rows, list(tableau.basis), tableau.det


# ---------------------------------------------------------------------------
# the full integer simplex tableau, as `exactlp` kept it before the
# dictionary form: every column stored, a reference for every pivot


def full_bareiss(line, pivot_row, col, det):
    """(line * p - line[col] * pivot_row) // det for p = pivot_row[col]."""
    p = pivot_row[col]
    factor = line[col]
    if factor == 0:
        return line if p == det else [x * p // det for x in line]
    return [(x * p - factor * y) // det for x, y in zip(line, pivot_row)]


class FullTableau:
    """`exactlp._Tableau` as it was before it stored only the nonbasic
    columns: `rows = det * B^-1 [A | b]` over every column, the rhs last;
    artificials are basic under indices >= the column count and have no
    column.  Methods take columns as original indices, ascending."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis = basis
        self.det = 1
        self.reduced = None

    def copy(self):
        clone = FullTableau(list(self.rows), list(self.basis))
        clone.det = self.det
        clone.reduced = self.reduced
        return clone

    def pivot(self, row, col):
        pivot_row = self.rows[row]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        det = self.det
        self.rows = [
            pivot_row if i == row else full_bareiss(line, pivot_row, col, det)
            for i, line in enumerate(self.rows)
        ]
        if self.reduced is not None:
            self.reduced = full_bareiss(self.reduced, pivot_row, col, det)
        self.basis[row] = col
        self.det = pivot_row[col]

    def in_basis(self, line):
        row = [self.det * x for x in line]
        for r, col in zip(self.rows, self.basis):
            if line[col] != 0:
                row = [x - line[col] * y for x, y in zip(row, r)]
        return row

    def load(self, costs):
        self.reduced = self.in_basis(costs[:-1] + [0])

    def minimize(self, columns):
        while True:
            reduced = self.reduced
            col = next((j for j in columns if reduced[j] < 0), None)
            if col is None:
                return True
            row = None
            for i, line in enumerate(self.rows):
                coeff = line[col]
                if coeff > 0:
                    if row is not None:
                        lhs = line[-1] * best_coeff
                        rhs = best_rhs * coeff
                        if lhs > rhs or (
                            lhs == rhs and self.basis[i] > self.basis[row]
                        ):
                            continue
                    row, best_rhs, best_coeff = i, line[-1], coeff
            if row is None:
                return False
            self.pivot(row, col)

    def phase_one(self, columns):
        width = len(self.rows[0]) - 1 if self.rows else 0
        artificial = [line for line, col in zip(self.rows, self.basis) if col >= width]
        if not artificial:
            return True
        self.reduced = [-sum(column) for column in zip(*artificial)]
        self.minimize(columns)
        if self.reduced[-1] != 0:
            return False
        self.reduced = None
        for r in range(len(self.rows)):
            if self.basis[r] >= width:
                self.pivot(r, next(j for j in columns if self.rows[r][j] != 0))
        return True

    def add_equality(self, line, columns):
        row = self.in_basis(line)
        if row[-1] < 0:
            row = [-x for x in row]
        self.rows.append(row)
        self.basis.append(len(row) - 1 + len(self.rows))
        if not self.phase_one(columns):
            raise ArithmeticError("added row misses the face it should cut")

    def lexmin_step(self, line, columns):
        self.load(line)
        if not self.minimize(columns):
            self.reduced = [-x for x in self.reduced]
            if not (
                self.minimize(columns) and self.reduced[-1] < line[-1] * self.det
            ):
                self.add_equality(line, columns)
                return columns
        return [j for j in columns if self.reduced[j] == 0]


def full_eliminate(equalities, dimension):
    """`exactlp._eliminate_equalities` on a `FullTableau`: (pivots, solved,
    det) with each solved row over every column and the rhs, or None."""
    tableau = FullTableau([list(A) + [B] for A, B in equalities], [])
    for col in range(dimension):
        matrix = tableau.rows
        top = len(tableau.basis)
        if top == len(matrix):
            break
        pivot = next((r for r in range(top, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[top], matrix[pivot] = matrix[pivot], matrix[top]
        tableau.basis.append(col)
        tableau.pivot(top, col)
    matrix, pivots = tableau.rows, tableau.basis
    if any(line[dimension] != 0 for line in matrix[len(pivots) :]):
        return None
    return pivots, matrix[: len(pivots)], tableau.det


class FullStart:
    """`exactlp._Start` over a `FullTableau`: the solved rows of the
    equalities keep every column."""

    def __init__(self, dimension, pivots, solved, det):
        self.dimension = dimension
        self.pivots = pivots
        self.solved = solved
        self.det = det
        self.free = [j for j in range(dimension) if j not in pivots]
        self.kept = self.free + [dimension]
        self.projected = 0
        self.tableau = None

    def substitute(self, A, B):
        row = [self.det * A[j] for j in self.free] + [self.det * B]
        for p, equation in zip(self.pivots, self.solved):
            if A[p] != 0:
                row = [x - A[p] * equation[j] for x, j in zip(row, self.kept)]
        return row

    def lift(self, numerators, denominator):
        point = [Fraction(0)] * self.dimension
        for j, numerator in zip(self.free, numerators):
            point[j] = Fraction(numerator, denominator)
        for p, equation in zip(self.pivots, self.solved):
            numerator = equation[-1] * denominator - sum(
                equation[j] * z for j, z in zip(self.free, numerators)
            )
            point[p] = Fraction(numerator, self.det * denominator)
        return tuple(point)

    def split(self, A):
        *cost, b = self.substitute(A, 0)
        return cost + [-c for c in cost] + [0] * self.projected + [b]

    def solve(self, objective, lexmin):
        A, _, scale = integer_row(objective, 0)
        line = self.split(A)
        if self.tableau is None:
            value = Fraction(-line[-1], self.det * scale)
            return exactlp.LpOutcome(
                exactlp.LpStatus.OPTIMAL, value, self.lift((), 1), True
            )
        tableau = self.tableau.copy()
        f = len(self.free)
        n = 2 * f + self.projected
        tableau.load(line)
        if not tableau.minimize(range(n)):
            return exactlp.UNBOUNDED
        value = Fraction(
            -tableau.reduced[-1] - line[-1] * tableau.det,
            tableau.det * self.det * scale,
        )
        unique = self.proves_unique(tableau)
        if lexmin and not unique:
            columns = [j for j in range(n) if tableau.reduced[j] == 0]
            for k in range(lexmin):
                unit = [0] * self.dimension
                unit[k] = 1
                columns = tableau.lexmin_step(self.split(unit), columns)
        z = [0] * f
        for row, col in zip(tableau.rows, tableau.basis):
            if col < f:
                z[col] += row[n]
            elif col < 2 * f:
                z[col - f] -= row[n]
        point = self.lift(z, tableau.det)
        return exactlp.LpOutcome(exactlp.LpStatus.OPTIMAL, value, point, unique)

    def proves_unique(self, tableau):
        f = len(self.free)
        reduced = tableau.reduced
        basic = set(tableau.basis)
        return not any(
            reduced[j] == 0
            and j not in basic
            and (j >= 2 * f or (j + f) % (2 * f) not in basic)
            for j in range(2 * f + self.projected)
        )


def full_prepare(equalities, inequalities, dimension):
    """`exactlp._prepare` over a `FullTableau`, with the same rule for
    repeated rows."""
    eliminated = full_eliminate(equalities, dimension)
    if eliminated is None:
        return None
    start = FullStart(dimension, *eliminated)
    projected, first = [], set()
    for lp_row in inequalities:
        if lp_row in first:
            continue
        *row, b = start.substitute(*lp_row)
        if b >= 0:
            first.add(lp_row)
        if any(row):
            projected.append((row, b))
        elif b < 0:
            return None
    start.projected = m = len(projected)
    f = len(start.free)
    if f == 0:
        return start
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
    tableau = FullTableau(rows, basis)
    if not tableau.phase_one(range(n)):
        return None
    start.tableau = tableau
    return start


def full_solve(lp: LinearProgram, lexmin: int = 0):
    """`lp_solve(lp, lexmin)` on the full tableau, from scratch."""
    start = full_prepare(lp.equalities, lp.inequalities, lp.dimension)
    return exactlp.INFEASIBLE if start is None else start.solve(lp.objective, lexmin)


def tight_rows(lp: LinearProgram, outcome) -> frozenset:
    """The inequalities of `lp` tight at an optimal outcome's point: the
    indices i with A.x = B on the integer row (A, B) that `lp` holds."""
    return frozenset(
        i for i, (A, B) in enumerate(lp.inequalities) if dot(A, outcome.point) == B
    )


def prepare_every_row(equalities, inequalities, dimension):
    """`exactlp._prepare` as it was before it left out repeated rows: every
    inequality that substitution leaves nonzero gets a row of the tableau,
    copies included.  A reference for the rule that leaves them out."""
    eliminated = exactlp._eliminate_equalities(equalities, dimension)
    if eliminated is None:
        return None
    start = exactlp._Start(dimension, eliminated)
    projected = []
    for A, B in inequalities:
        *row, b = start.substitute(A, B)
        if any(row):
            projected.append((row, b))
        elif b < 0:
            return None
    return start.begin(projected)


def solve_every_row(lp: LinearProgram, lexmin: int = 0):
    """`lp_solve(lp, lexmin)` over a start from `prepare_every_row`."""
    start = prepare_every_row(lp.equalities, lp.inequalities, lp.dimension)
    return exactlp.INFEASIBLE if start is None else start.solve(lp.objective, lexmin)


def solve_always_walking(lp: LinearProgram, lexmin: int = 0):
    """`lp_solve(lp, lexmin)` as it was before `_Start.solve` skipped the
    lexmin walk on an optimal face that is one vertex: every step is
    walked.  Returns the outcome and the final `_Tableau`, None when the
    rows have no solution."""
    start = lp._rows.start()
    if start is None:
        return exactlp.INFEASIBLE, None
    A, _, scale = integer_row(lp.objective, 0)
    line = start.split(A)
    tableau = start.tableau.copy()
    f = len(start.free)
    tableau.load(line)
    if not tableau.minimize():
        return exactlp.UNBOUNDED, tableau
    value = Fraction(
        -tableau.reduced[-1] - line[-1] * tableau.det,
        tableau.det * start.eliminated.det * scale,
    )
    if lexmin:
        tableau.face()
        for k in range(lexmin):
            unit = [0] * lp.dimension
            unit[k] = 1
            tableau.lexmin_step(start.split(unit))
    z = [0] * f
    for row, col in zip(tableau.rows, tableau.basis):
        if col < f:
            z[col] += row[-1]
        elif col < 2 * f:
            z[col - f] -= row[-1]
    outcome = exactlp.LpOutcome(
        exactlp.LpStatus.OPTIMAL, value, start.lift(z, tableau.det)
    )
    return outcome, tableau


def reference_solve_margin(lp: LinearProgram):
    """`exactlp._solve_margin` as it was before a margin LP without strict
    rows was posed once: `lp` is solved first, and when its margin is
    unbounded the same rows capped at eps <= 1 are posed and solved as a
    second LP.  Returns (slack, witness, the LP the witness comes from)."""
    dimension = lp.dimension - 1
    outcome = exactlp.lp_solve(lp)
    if outcome.status is exactlp.LpStatus.INFEASIBLE:
        return exactlp.ExtendedRational.finite(0), None, lp
    if outcome.status is exactlp.LpStatus.UNBOUNDED:
        cap = ((0,) * dimension + (1,), 1)  # eps <= 1
        capped = exactlp._integer_lp(
            lp.objective, lp.equalities, lp.inequalities + (cap,), lp.dimension
        )
        return exactlp.PLUS_INF, exactlp.lp_solve(capped).point[:dimension], capped
    value = exactlp.ExtendedRational.finite(-outcome.value)
    return value, outcome.point[:dimension], lp


# ---------------------------------------------------------------------------
# the order of ExtendedRational as it was written out by hand


def reference_extended_key(x: exactlp.ExtendedRational):
    """The key `ExtendedRational` was compared, ordered and hashed by before
    it was ordered as its (sign, value) pair: an infinity as (sign, 0), a
    finite number as (0, value)."""
    if x.sign != 0:
        return (x.sign, Fraction(0))
    return (0, x.value)


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
    linearized = structure._linearized(prob)
    omega = {r.piece: r for r in linearized}
    alpha = {r.piece: r.value for r in linearized}
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
# the point classifier by weight LPs and direction LPs alone

_solve = exactlp.lp_solve  # as imported: see `reference_local`


def reference_local(prob, x) -> bool:
    """Whether x, a point of C, dom g and dom h, is a local solution, by
    direction LPs over d in T_D(x) ∩ [-1, 1]^n, D = C ∩ dom g: the rows of
    C and dom g tight at x, as equalities or inequalities through 0, and
    the box.  Near x, x + t d stays in D exactly for such d (scaled), and
    g, h and f move by t times their directional derivatives there, so x
    is local exactly when
    * no such d leaves dom h: for each generator of its normal cone at x
      (each tight row, and each equality row with either sign), one LP
      shows that the generator's maximum over those d is 0; and
    * for each active piece j of h, one LP over (d, t) shows that the
      least t - v_j.d with t >= u_i.d, for each active piece i of g, is 0.
    It reads no optimal face and no weight LP.  Its LPs are solved by
    `exactlp.lp_solve` as imported, so a test that records the package's
    LPs by patching the module does not record them."""
    n = prob.dimension
    x = tuple(Fraction(c) for c in x)
    origin = Fraction(0)
    equalities = [(a, origin) for S in (prob.C, prob.g.domain) for a, _ in S.equalities]
    inequalities = [
        (a, origin)
        for S in (prob.C, prob.g.domain)
        for a, b in S.inequalities
        if dot(a, x) == b
    ]
    for k in range(n):
        inequalities += [(_unit(n, k, 1), Fraction(1)), (_unit(n, k, -1), Fraction(1))]
    dom_h = prob.h.domain
    normals = [a for a, b in dom_h.inequalities if dot(a, x) == b]
    normals += [tuple(s * c for c in a) for a, _ in dom_h.equalities for s in (1, -1)]
    for a in normals:  # max a.d is -(min -a.d)
        lp = LinearProgram(tuple(-c for c in a), equalities, inequalities, n)
        if _solve(lp).value != 0:
            return False

    def active(f):
        values = [dot(u, x) + alpha for u, alpha in f.pieces]
        return [u for (u, _), v in zip(f.pieces, values) if v == max(values)]

    # the rows above with t's coefficient 0, then t >= u_i.d
    lifted = [(a + (origin,), b) for a, b in inequalities]
    lifted += [(u + (Fraction(-1),), origin) for u in active(prob.g)]
    lifted_equalities = [(a + (origin,), b) for a, b in equalities]
    for v in active(prob.h):
        objective = tuple(-c for c in v) + (Fraction(1),)
        lp = LinearProgram(objective, lifted_equalities, lifted, n + 1)
        if _solve(lp).value != 0:
            return False
    return True


def reference_classify(prob, x):
    """`optimality.classify` by generator-weight LPs and direction LPs
    alone, the route it took before it read the optimal faces: each set
    and function evaluated row by row and piece by piece on its own, the
    subdifferential of g plus the normal cone of C by `minkowski_sum`,
    critical by one intersection LP, stationary by containment LPs (posed
    whether or not x is critical) and local by `reference_local`.  It
    reads no linearization, so it is an oracle independent of the lemma
    the classifiers use, and no verdict is derived from another."""
    n = prob.dimension
    x = tuple(Fraction(c) for c in x)

    def member(S):
        return all(dot(a, x) == y for a, y in S.equalities) and all(
            dot(a, x) <= b for a, b in S.inequalities
        )

    def interior(S):
        return (
            member(S)
            and not any(any(c != 0 for c in a) for a, _ in S.equalities)
            and all(dot(a, x) < b for a, b in S.inequalities)
        )

    def normal_cone(S):
        return ConvexBody(
            n,
            points=(tuple([Fraction(0)] * n),),
            rays=tuple(a for a, b in S.inequalities if dot(a, x) == b),
            lineality=tuple(row_space_basis([a for a, _ in S.equalities])),
        )

    def subdifferential(f):
        cone = normal_cone(f.domain)
        return ConvexBody(
            n,
            points=tuple(f.pieces[j - 1][0] for j in sorted(f.active_indices(x))),
            rays=cone.rays,
            lineality=cone.lineality,
        )

    flags = HypothesisFlags(interior(prob.g.domain), interior(prob.h.domain))
    if not (member(prob.C) and member(prob.g.domain) and member(prob.h.domain)):
        return Classification(
            False, False, False, LocalStatus.NO, GlobalStatus.NOT_COMPUTED, flags
        )
    dh = subdifferential(prob.h)
    dgc = subdifferential(prob.g).minkowski_sum(normal_cone(prob.C))
    critical = dh.intersection_witness(dgc) is not None
    stationary = dh.issubset(dgc)
    local = LocalStatus.YES if reference_local(prob, x) else LocalStatus.NO
    return Classification(
        True, critical, stationary, local, GlobalStatus.NOT_COMPUTED, flags
    )


# ---------------------------------------------------------------------------
# the LPs of the package as they were posed from `Fraction` rows, which the
# `LinearProgram` constructor scales (`exactlp.integer_row`); the package
# poses each from integer rows, and must pose the same integer rows


def record_integer_lps(monkeypatch, module) -> list:
    """The LPs `module` poses through `exactlp._integer_lp` from here on,
    in order."""
    posed = []
    original = exactlp._integer_lp

    def record(*args):
        posed.append(original(*args))
        return posed[-1]

    monkeypatch.setattr(module, "_integer_lp", record)
    return posed


def assert_same_lp(mine: LinearProgram, reference: LinearProgram):
    """Equal objective and integer rows, every entry a Python int, and
    equal outcomes; returns the outcome."""
    assert mine == reference
    for A, B in mine.equalities + mine.inequalities:
        assert all(type(c) is int for c in A + (B,))
    outcome, expected = exactlp.lp_solve(mine), exactlp.lp_solve(reference)
    assert outcome == expected and outcome.unique == expected.unique
    return outcome


def _unit(width, k, value):
    row = [Fraction(0)] * width
    row[k] = Fraction(value)
    return tuple(row)


def reference_weights(target, *parts) -> LinearProgram:
    """The LP of `model._weights(target, *parts)`: per coordinate, the sum
    of sign * weight * generator equals `target`; the point weights of each
    part with points sum to 1; every point and ray weight is >= 0."""
    columns, convex, nonnegative = [], [], []
    for sign, points, rays, lineality in parts:
        if points:
            convex.append(range(len(columns), len(columns) + len(points)))
        nonnegative += range(len(columns), len(columns) + len(points) + len(rays))
        columns += [tuple(sign * c for c in g) for g in points + rays + lineality]
    width = len(columns)
    equalities = [
        (tuple(g[d] for g in columns), target[d]) for d in range(len(target))
    ]
    for span in convex:
        row = tuple(Fraction(1 if k in span else 0) for k in range(width))
        equalities.append((row, Fraction(1)))
    inequalities = [(_unit(width, k, -1), Fraction(0)) for k in nonnegative]
    return LinearProgram(
        (Fraction(0),) * width, tuple(equalities), tuple(inequalities), width
    )


def reference_set_lp(S, objective) -> LinearProgram:
    """The LP that minimizes `objective` over the set S."""
    return LinearProgram(objective, S.equalities, S.inequalities, S.dimension)


def reference_epigraph_lp(f, xi, C=None) -> LinearProgram:
    """The LP of `f.epigraph_lp(xi, C)`: min t - xi.x over the rows of C,
    then those of dom f, then t >= u.x + alpha for every piece."""
    sets = (f.domain,) if C is None or C.is_whole_space else (C, f.domain)
    zero, one = Fraction(0), Fraction(1)
    equalities = [(a + (zero,), y) for S in sets for a, y in S.equalities]
    inequalities = [(a + (zero,), b) for S in sets for a, b in S.inequalities]
    inequalities += [(u + (-one,), -alpha) for u, alpha in f.pieces]
    objective = tuple(-c for c in xi) + (one,)
    return LinearProgram(
        objective, tuple(equalities), tuple(inequalities), f.dimension + 1
    )


def reference_certificate_lp(lp, outcome) -> LinearProgram:
    """The multiplier LP of `exactlp.optimality_certificate(lp, outcome)`:
    objective + E^T mu + A^T lam = 0, lam = 0 off the tight rows, lam >= 0."""
    n_eq, n_in = len(lp.equalities), len(lp.inequalities)
    width = n_eq + n_in
    rows = lp.equalities + lp.inequalities
    equalities = [
        (tuple(Fraction(A[d]) for A, _ in rows), -lp.objective[d])
        for d in range(lp.dimension)
    ]
    tight = tight_rows(lp, outcome)
    equalities += [
        (_unit(width, n_eq + i, 1), Fraction(0))
        for i in range(n_in)
        if i not in tight
    ]
    inequalities = [(_unit(width, n_eq + i, -1), Fraction(0)) for i in range(n_in)]
    return LinearProgram(
        (Fraction(0),) * width, tuple(equalities), tuple(inequalities), width
    )


# ---------------------------------------------------------------------------
# the DCA loop as it was before each node kept f and h's active set


def reference_dca_run(prob, x0, rule, max_iter=1000):
    """`dca.run` as it was before the problem kept f and h's active set
    with each node: h is evaluated at every iterate, a `pick` rule's
    gradient is looked up afresh, and every subproblem is solved on its
    own LP over g and C (`solve_subproblem`), with no memo."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    x = model._check_dimension(x0, prob.dimension)
    point = model._scaled(x)
    at_g = prob.g._at(point)
    if at_g is None:
        raise OutsideDomain("x0 is outside dom(g)")
    if prob.C._tight_rows(point) is None:
        raise OutsideDomain("x0 is outside the constraint set C")
    pick = getattr(rule, "pick", None)
    iterates, seen, step = [], {}, 0
    g_value = at_g[0]
    while True:
        at_h = prob.h._at(point)
        if at_h is None:
            termination = Termination(TerminationKind.SUBDIFFERENTIAL_EMPTY, step=step)
            break
        if isinstance(rule, Scripted) and step >= len(rule.subgradients):
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        if pick is None:
            xi = rule.choose(prob.h, x, step)
        else:
            xi = prob.h.piece(pick([j + 1 for j in at_h[1]]))[0]
        value = g_value - at_h[0]
        iterates.append(Iterate(x, xi, value))
        if len(iterates) >= 2 and iterates[-2].value < value:
            raise InternalCheckFailed("objective increased along a DCA run")
        if rule.deterministic:
            first = seen.get(point)
            if first is not None:
                period = step - first
                kind = (
                    TerminationKind.FIXED_POINT if period == 1 else TerminationKind.CYCLE
                )
                termination = Termination(kind, step=first, period=period)
                break
            seen[point] = step
        if step >= max_iter:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        xi = model._check_dimension(xi, prob.dimension, "subgradient")
        try:
            x, sub_value = solve_subproblem(prob.g, prob.C, xi)
        except SubproblemUnboundedError:
            termination = Termination(TerminationKind.SUBPROBLEM_UNBOUNDED, step=step)
            break
        point = model._scaled(x)
        g_value = sub_value + dot(xi, x)
        step += 1
    return DcaTrace(iterates=tuple(iterates), termination=termination)


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


def random_open_lp(rng: random.Random, fractional: bool = False) -> LinearProgram:
    """`random_bounded_lp` with half its inequality rows removed, so the
    box no longer bounds it, and half the time a zero objective, so the
    optimal face is the whole feasible set.  A lexmin solve over such a
    face often meets a coordinate with no minimum and pins it
    (`exactlp._Tableau.add_equality`), at times with a negative rhs."""
    lp = random_bounded_lp(rng, fractional)
    rows = lp.inequalities
    removed = set(rng.sample(range(len(rows)), len(rows) - len(rows) // 2))
    kept = tuple(row for i, row in enumerate(rows) if i not in removed)
    objective = lp.objective
    if rng.random() < 0.5:
        objective = (Fraction(0),) * lp.dimension
    return LinearProgram(objective, lp.equalities, kept, lp.dimension)


def random_fixed_point_lp(
    rng: random.Random, fractional: bool = False
) -> LinearProgram:
    """`random_bounded_lp` with n more equalities that fix the point, so
    no coordinate is left free: a triangular system with a nonzero
    diagonal, its columns permuted and its rows shuffled, and sometimes
    one more row that adds two of them, its rhs sometimes moved by 1 (0 =
    1 after elimination).  The point they fix is mostly the midpoint of
    the points where `lp`'s objective is least and greatest, which
    satisfies every row of `lp`, and else a point drawn from [-4, 7]^n."""
    lp = random_bounded_lp(rng, fractional)
    n = lp.dimension
    point = [Fraction(rng.randint(-8, 14), 2) for _ in range(n)]
    low = exactlp.lp_solve(lp)
    if low.is_optimal and rng.random() < 0.8:
        high = exactlp.lp_solve(lp.with_objective(tuple(-c for c in lp.objective)))
        point = [(x + y) / 2 for x, y in zip(low.point, high.point)]
    order = rng.sample(range(n), n)
    rows = []
    for i in range(n):
        row = [0] * i + [rng.choice((-3, -2, -1, 1, 2, 3))]
        row += [rng.randint(-2, 2) for _ in range(n - i - 1)]
        rows.append(tuple(Fraction(row[order[j]]) for j in range(n)))
    rng.shuffle(rows)
    equalities = [(row, dot(row, point)) for row in rows]
    if n >= 2 and rng.random() < 0.3:
        (a, b), (c, d) = rng.sample(equalities, 2)
        moved = rng.choice((0, 0, 1))
        equalities.append((tuple(x + y for x, y in zip(a, c)), b + d + moved))
    return LinearProgram(
        lp.objective, lp.equalities + tuple(equalities), lp.inequalities, n
    )


def medium_lps(n: int, count: int = 10) -> list[LinearProgram]:
    """`count` linearization LPs of one seeded instance in dimension n, of
    a size that the bundled problems do not reach: minimize t - v.x over
    C = [-5, 5]^n and t >= u.x + alpha for each of 4n pieces of g, with
    gradient entries in -4..4 and offsets in -10..10, for `count` random
    gradients v of h.  They share their rows (`with_objective`), which are
    posed afresh on every call."""
    rng = random.Random(7000 + n)

    def gradient():
        return tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))

    rows = []
    for k in range(n):
        e = tuple(Fraction(int(j == k)) for j in range(n + 1))
        rows += [(e, Fraction(5)), (tuple(-c for c in e), Fraction(5))]
    pieces = set()
    while len(pieces) < 4 * n:
        pieces.add((gradient(), Fraction(rng.randint(-10, 10))))
    rows += [(u + (Fraction(-1),), -alpha) for u, alpha in sorted(pieces)]
    lp = LinearProgram((Fraction(0),) * (n + 1), (), tuple(rows), n + 1)
    return [
        lp.with_objective(tuple(-c for c in gradient()) + (Fraction(1),))
        for _ in range(count)
    ]


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


def random_half_space_instance(rng: random.Random, n_max: int = 2) -> DcProblem:
    """`random_dc_instance` with C = {x >= lo}, lo the lower corner of its
    box: C is unbounded above, so some linearizations are unbounded and
    have no optimal face."""
    prob = random_dc_instance(rng, n_max=n_max)
    lo, _ = prob.C.bounding_box()
    n = prob.dimension
    rows = tuple(
        (tuple(Fraction(-int(k == i)) for k in range(n)), -lo[i]) for i in range(n)
    )
    return DcProblem(g=prob.g, h=prob.h, C=PolyhedralSet(n, inequalities=rows))


def probes(prob: DcProblem) -> list:
    """Points of C's bounding box at quarter steps, one step beyond it on
    each side: interior, boundary and outside points."""
    lo, hi = prob.C.bounding_box()
    axes = [
        [l + Fraction(k, 4) * (u - l) for k in range(-1, 6)] for l, u in zip(lo, hi)
    ]
    return list(itertools.product(*axes))


def with_domains(rng: random.Random, prob: DcProblem) -> DcProblem:
    """`prob` with inequality and equality rows in dom g, dom h and C.

    Each row passes through a probe point (`probes`), so some probes sit
    on its boundary; dom g and C keep the centre of C's box, so they meet.
    """
    n = prob.dimension
    points = probes(prob)
    lo, hi = prob.C.bounding_box()
    centre = tuple((l + u) / 2 for l, u in zip(lo, hi))

    def halfspace():
        a = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
        b = dot(a, rng.choice(points))
        if dot(a, centre) > b:
            a, b = tuple(-c for c in a), -b
        return a, b

    def equality():
        a = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
        return a, dot(a, centre)

    def domain():
        rows = [halfspace() for _ in range(rng.randint(0, 2))]
        eqs = [equality()] if n == 2 and rng.random() < 0.3 else []
        return PolyhedralSet(n, equalities=tuple(eqs), inequalities=tuple(rows))

    C = prob.C.intersect(domain())
    return DcProblem(
        g=MaxAffine(prob.g.pieces, domain()),
        h=MaxAffine(prob.h.pieces, domain()),
        C=C,
    )


def cell_instance(n: int, q: int) -> DcProblem:
    """An instance whose optimal faces are mostly cells, not points.

    Drawn from `random.Random(7)`, afresh for each (n, q): C = [-2, 2]^n;
    h draws gradients with entries in -6..6 until q are distinct, sorts
    them and then draws one offset in -2..2 for each, in order; g has one
    piece per piece of h, with its gradient and its offset plus 0 or 1.
    So g - h_j is flat where g's copy of v_j is active.
    """
    if q > 13**n:
        raise ValueError(f"only {13**n} gradients have entries in -6..6")
    rng = random.Random(7)
    gradients = set()
    while len(gradients) < q:
        gradients.add(tuple(Fraction(rng.randint(-6, 6)) for _ in range(n)))
    h = [(v, Fraction(rng.randint(-2, 2))) for v in sorted(gradients)]
    g = [(v, beta + rng.randint(0, 1)) for v, beta in h]
    return DcProblem(
        g=MaxAffine.from_pieces(g, n),
        h=MaxAffine.from_pieces(h, n),
        C=PolyhedralSet.box([Fraction(-2)] * n, [Fraction(2)] * n),
    )


def reference_global_value(prob: DcProblem):
    """(alpha_bar, minimizers): the least f over the vertices of g's cells
    in C, and the vertices that attain it, in ascending order.

    On the cell K_i = {x in C : g_i(x) >= g_k(x) for every k} of g,
    f = g_i - h is concave, so over a bounded C its minimum on the cell is
    reached at a vertex of the cell, and the cells cover C.  Each vertex
    solves n of the cell's rows as equalities (`solve_square`) and
    satisfies the others; f is evaluated piece by piece.  No LP is posed.
    Needs a bounded C without equality rows and whole-space domains.
    """
    assert prob.g.domain.is_whole_space and prob.h.domain.is_whole_space
    assert not prob.C.equalities
    n = prob.dimension

    def f(x):
        def value(pieces):
            return max(dot(u, x) + alpha for u, alpha in pieces)

        return value(prob.g.pieces) - value(prob.h.pieces)

    values = {}
    for u, alpha in prob.g.pieces:
        rows = list(prob.C.inequalities)  # and g_k <= g_i for each other k
        rows += [
            (tuple(a - b for a, b in zip(w, u)), alpha - beta)
            for w, beta in prob.g.pieces
            if (w, beta) != (u, alpha)
        ]
        for system in itertools.combinations(rows, n):
            x = solve_square([a for a, _ in system], [b for _, b in system], n)
            if x is not None and all(dot(a, x) <= b for a, b in rows):
                values[x] = f(x)
    alpha_bar = min(values.values())
    return alpha_bar, sorted(x for x, value in values.items() if value == alpha_bar)


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

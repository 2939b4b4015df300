"""Exact rational linear algebra and a deterministic simplex LP solver.

Every decision procedure in this package bottoms out here.  Data and
results are `fractions.Fraction` (arbitrary precision, lowest terms); there
is no floating point anywhere, so "satisfies a constraint" always means
exact equality or inequality of rationals.

`lp_solve` works on Python integers from the input rows to the basic
solution:

* Each row is scaled once, where it is made: `integer_row` multiplies it by
  the lcm of its denominators and keeps that scale.  Every LP inside the
  package is posed from integer rows (`_integer_lp`) that its set or
  function already holds (`PolyhedralSet._integer_rows`), or that it
  writes as the integers they are; rational rows enter only from a
  caller, through the `LinearProgram` constructor, which scales them once.
  From there on the core sees integers only.  The equalities are brought
  to reduced row echelon form without fractions, and every inequality is
  rewritten as an integer row over the free coordinates, which are split
  into nonnegative pairs.
* Each inequality row `a.z <= b` gets a slack with coefficient 1.  A row
  with b >= 0 starts with its slack basic; only a row with b < 0 is negated
  and gets an artificial, its slack starting nonbasic, and phase 1 runs
  only if there is one.
* A later copy of an inequality row whose rhs after substitution is >= 0
  cannot change a pivot, so it gets no row of the tableau (proof in
  `_prepare`).  Every LP over rows that repeat, such as a face of C cut
  again by C, pivots as over all of them.
* The simplex tableau is a dictionary (Chvatal, Linear Programming, 1983,
  ch. 2) kept fraction-free: it stores the nonbasic columns and the rhs
  only, `det * B^-1 [N | b]` with one common denominator `det > 0`
  (initially 1), integers because each is a minor of the integer system.
  A basic column is det in its own row and 0 elsewhere, so it is not
  stored.  A pivot updates every row with one exact integer division by
  the old `det` (Bareiss 1968), no gcd taken, and hands the entering
  column's slot to the leaving column.  Columns are chosen by their
  original indices, so every pivot is the one the full tableau
  `det * B^-1 [A | b]` takes.  That pivot, `_Tableau.pivot`, is the one
  row update of the module, and `_Tableau._in_basis` the one rewrite of a
  row in a basis.  The elimination of the equalities (`_rref`) is
  Gauss-Jordan pivots on a tableau too, which drops each eliminated
  column, and the start keeps that tableau: its rows are the solved
  equalities over the free coordinates and the rhs, and its `_in_basis`
  substitutes every inequality and objective row.
* Fractions appear again only when the basic solution is read off.  The
  optimal value is read from the tableau: the last entry of the reduced
  row over `det`, with the objective's scale and the constant of the
  substitution undone.  An outcome reports the point, not the rows tight
  there: a reader that needs them evaluates the integer rows at the point,
  which gives exactly the rows whose slack the tableau holds at 0.

All of this up to the end of phase 1 depends on the rows alone.  It is the
rows' prepared start, built on the first solve over them and only read
after that: every LP that `LinearProgram.with_objective` makes over the
same rows loads its objective into a copy of the start's tableau and runs
phase 2 from there.  The start is the one a from-scratch solve reaches, so
every outcome equals the from-scratch one.  Each max-affine function keeps
one such set of epigraph rows (`MaxAffine.epigraph_lp`), so DCA steps,
linearizations and conjugate values over it re-solve only the objective.

A solved tableau can be continued instead of rebuilt.  `lp_solve(lp,
lexmin=k)` restricts it to the optimal face by fixing every nonbasic column
of nonzero reduced cost at 0, which drops the column from the tableau as a
leaving artificial is dropped (`_Tableau.face`), then loads each of the
first k coordinates in turn as the objective, minimizes it over the
columns still stored and fixes again: the lexicographic simplex of
Dantzig, Orden and Wolfe (1955).
A face whose every column of zero reduced cost is basic, or the mirror of
a basic column of a split coordinate, is one point and is not walked;
every optimal outcome reports the same test (`LpOutcome.unique`).  A
coordinate that has no minimum on the face is pinned with one new
primitive, `_Tableau.add_equality`: the row is written in the current basis
(`_Tableau._in_basis`, `det * a - sum of a[basis[i]] * rows[i]`, the
rewrite that also loads an objective), made basic on a new artificial, and
phase 1 over the stored columns drives that artificial to 0 and out.

Pivots follow Bland's anti-cycling rule (lowest-index entering column,
lowest basic index on ratio ties, ratios compared by cross-multiplication).
That makes every outcome a pure function of the input, which the rest of
the package relies on: selection maps in the DCA module must be
deterministic, and reports must be byte-identical across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Row = tuple[Vector, Fraction]  # (coefficients, right-hand side)
# a row in integers, (A, B): the row of an LP once scaled
LpRow = tuple[tuple[int, ...], int]
# (A, B, s): the row (a, b) times its scale s, the lcm of its denominators
IntegerRow = tuple[tuple[int, ...], int, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction, rejecting floats."""
    if type(value) is Fraction:
        return value  # immutable: no copy needed
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(value)


def vector(values: Iterable) -> Vector:
    # tuple() of a list, not of a generator: CPython builds a tuple from a
    # generator at a guessed size and shrinks it, and every such tuple, once
    # freed, stays on its size's free list (up to 2,000 per size), so memory
    # would grow with the number of LPs built.
    return tuple([frac(v) for v in values])


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot of vectors with lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def zero_vector(dimension: int) -> Vector:
    return (ZERO,) * dimension


def midpoint(a: Vector, b: Vector) -> Vector:
    return tuple((x + y) / 2 for x, y in zip(a, b))


@dataclass(order=True, unsafe_hash=True, slots=True, repr=False)
class ExtendedRational:
    """A rational number extended with +infinity and -infinity.

    `sign` is -1 for -inf, 0 for a finite number and +1 for +inf; `value`
    is the number, or None for an infinity.  Equality, the total order and
    the hash are those of the pair (sign, value): an infinity always
    carries None, so two infinities of one sign are equal and no None is
    ever ordered against another value.

    Subtraction follows the convention (+inf) - (+inf) = +inf used by DC
    objective values; the symmetric case (-inf) - (-inf) never arises for
    proper data and raises.
    """

    sign: int
    value: Optional[Fraction]

    @classmethod
    def finite(cls, value) -> "ExtendedRational":
        return cls(0, frac(value))

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def as_fraction(self) -> Fraction:
        if self.sign != 0:
            raise ValueError(f"{self} is not finite")
        return self.value

    def __sub__(self, other: "ExtendedRational") -> "ExtendedRational":
        if self.sign == 0 and other.sign == 0:
            return ExtendedRational.finite(self.value - other.value)
        if self.sign == 1:
            # covers (+inf) - (+inf) = +inf
            return PLUS_INF
        if other.sign == 1:
            return MINUS_INF
        if self.sign == -1 and other.sign == -1:
            raise ArithmeticError("(-inf) - (-inf) is undefined")
        return MINUS_INF if self.sign == -1 else PLUS_INF

    def __add__(self, other: "ExtendedRational") -> "ExtendedRational":
        if self.sign == 0 and other.sign == 0:
            return ExtendedRational.finite(self.value + other.value)
        if self.sign == -other.sign and self.sign != 0:
            raise ArithmeticError("(+inf) + (-inf) is undefined")
        return PLUS_INF if 1 in (self.sign, other.sign) else MINUS_INF

    def __neg__(self) -> "ExtendedRational":
        if self.sign == 0:
            return ExtendedRational.finite(-self.value)
        return MINUS_INF if self.sign == 1 else PLUS_INF

    def __repr__(self):
        return f"ExtendedRational({self})"

    def __str__(self):
        if self.sign == 1:
            return "+inf"
        if self.sign == -1:
            return "-inf"
        return str(self.value)


PLUS_INF = ExtendedRational(1, None)
MINUS_INF = ExtendedRational(-1, None)


def integer_row(a: Sequence, b) -> IntegerRow:
    """(A, B, s): the row `a.x <= b` (or `= b`), its entries coerced by
    `frac`, times s, the lcm of its denominators.  Integers with the row's
    signs; equal rows give equal integer rows, and distinct rows distinct
    ones."""
    a, b = [frac(v) for v in a], frac(b)
    # Fraction's own slots: its numerator and denominator properties are
    # Python calls, and every LP row passes here once
    s = math.lcm(*[v._denominator for v in a], b._denominator)
    A = tuple([v._numerator * (s // v._denominator) for v in a])  # see vector
    return A, b._numerator * (s // b._denominator), s


@dataclass(frozen=True)
class LinearProgram:
    """minimize <objective, x> subject to equality and `row . x <= rhs` rows.

    The constructor scales each rational row once (`integer_row`) and holds
    the integer rows, (A, B) each, with their prepared start (see
    `lp_solve`), which every LP made by `with_objective` shares.  Rational
    rows come only from a caller outside the package; inside it every LP
    is posed from integer rows by `_integer_lp`, which scales nothing.
    Whatever reads `equalities` and `inequalities`, `optimality_certificate`
    among them, reads these integer rows, not the rows the caller passed.
    """

    objective: Vector
    equalities: tuple[LpRow, ...]
    inequalities: tuple[LpRow, ...]
    dimension: int
    _rows: Optional["_Rows"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        rows, given = self._rows, (self.equalities, self.inequalities)
        if rows is None or not rows.holds(*given, self.dimension):
            rows = _Rows(*map(_scale, given), self.dimension)
            object.__setattr__(self, "_rows", rows)
            object.__setattr__(self, "equalities", rows.equalities)
            object.__setattr__(self, "inequalities", rows.inequalities)
        object.__setattr__(self, "objective", vector(self.objective))
        if len(self.objective) != self.dimension:
            raise ValueError("objective length does not match dimension")

    def with_objective(self, objective: Sequence) -> "LinearProgram":
        """The LP over the same rows that minimizes `objective`; it shares
        this LP's prepared start, so only its own phase 2 is solved."""
        return LinearProgram(
            objective, self.equalities, self.inequalities, self.dimension, self._rows
        )


class _Rows:
    """The integer rows of an LP and their prepared start, which `start`
    builds on first use; after that it is only read.  Two threads that ask
    at once may both build the start and keep equal ones."""

    __slots__ = ("equalities", "inequalities", "dimension", "_start")

    def __init__(self, equalities, inequalities, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.equalities = equalities
        self.inequalities = inequalities
        self.dimension = dimension
        for coeffs, _ in itertools.chain(equalities, inequalities):
            if len(coeffs) != dimension:
                raise ValueError(
                    f"row of length {len(coeffs)} in LP of dimension {dimension}"
                )

    def holds(self, equalities, inequalities, dimension: int) -> bool:
        """Whether these are the rows held, the very same tuples."""
        return (
            equalities is self.equalities
            and inequalities is self.inequalities
            and dimension == self.dimension
        )

    def start(self) -> Optional["_Start"]:
        """The prepared start, or None when the rows have no solution."""
        try:
            return self._start
        except AttributeError:
            self._start = _prepare(self.equalities, self.inequalities, self.dimension)
            return self._start


def _scale(rows) -> tuple[LpRow, ...]:
    """Each rational row scaled once, as (A, B)."""
    return tuple([integer_row(a, b)[:2] for a, b in rows])  # see vector


def _integer_lp(objective, equalities, inequalities, dimension) -> LinearProgram:
    """The LP over integer rows (A, B), which are taken as they are."""
    rows = _Rows(tuple(equalities), tuple(inequalities), dimension)
    return LinearProgram(objective, rows.equalities, rows.inequalities, dimension, rows)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: Optional[Fraction] = None
    point: Optional[Vector] = None
    # whether the final tableau proves `point` the only optimal point
    # (`_Start.proves_unique`); a report on the solve, not on the optimum
    unique: bool = field(default=False, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


INFEASIBLE = LpOutcome(LpStatus.INFEASIBLE)
UNBOUNDED = LpOutcome(LpStatus.UNBOUNDED)


def _rref(rows: Sequence[Sequence[int]], width: int) -> "_Tableau":
    """Fraction-free Gauss-Jordan elimination of integer rows over the
    first `width` columns, as the `_Tableau` it pivots.

    Its rows are det * RREF in integers (det > 0) without the pivot
    columns: row k is basic on its pivot column `basis[k]`, det there and
    0 in every other row, so `cols` are the columns outside the pivots, in
    order, and each row keeps those and the columns past `width`.  The
    rows from the rank on are basic on `width`, an artificial, and zero in
    the first `width` columns.

    Each column's pivot row is the first at or below the rows already
    pivoted with a nonzero entry there; it is swapped up and
    `_Tableau.pivot` makes its column basic.  A row not yet pivoted is
    basic on no column, as if on an artificial, so the slot it would hand
    over is dropped.  The Bareiss update of rows and det all negated is
    the update negated, so negating the tableau on each negative pivot, as
    `pivot` does, ends at the matrix that negating once at the end would.
    """
    tableau = _Tableau(list(rows), [width] * len(rows), list(range(width)), width)
    top = 0
    for col in range(width):
        matrix = tableau.rows
        if top == len(matrix):
            break
        k = col - top  # the columns pivoted so far are all before col
        pivot = next((r for r in range(top, len(matrix)) if matrix[r][k] != 0), None)
        if pivot is None:
            continue
        matrix[top], matrix[pivot] = matrix[pivot], matrix[top]
        tableau.pivot(top, k)
        top += 1
    return tableau


def row_space_basis(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Linearly independent spanning set of the row space (RREF rows).

    The empty matrix and the zero matrix both yield [].
    """
    rows = [vector(r) for r in rows]
    if not rows:
        return []
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ValueError("rows of unequal length")
    # the rows as equalities with rhs 0, which are never inconsistent
    t = _eliminate_equalities([integer_row(r, ZERO)[:2] for r in rows], width)
    # each row with its pivot column put back: det there, 0 in the others
    rows = [{p: t.det, **dict(zip(t.cols, line))} for line, p in zip(t.rows, t.basis)]
    return [tuple(Fraction(r.get(j, 0), t.det) for j in range(width)) for r in rows]


def _eliminate_equalities(equalities: Sequence[LpRow], dimension: int):
    """Integer Gauss-Jordan form of A x = B, the tableau `_rref` pivots
    with its zero rows cut off, or None when one of them reads 0 = nonzero.

    The solutions are the x whose coordinates `cols` are free and whose
    coordinate basis[r] is (rows[r][-1] minus the sum of rows[r][k] *
    x[cols[k]]) / det: each row is a solved equality over the free
    coordinates and the rhs.
    """
    tableau = _rref([A + (B,) for A, B in equalities], dimension)
    rank = dimension - len(tableau.cols)  # each pivot drops a slot
    if any(line[-1] != 0 for line in tableau.rows[rank:]):
        return None
    del tableau.rows[rank:], tableau.basis[rank:]
    return tableau


class _Tableau:
    """Integer simplex tableau in dictionary form: `rows = det * B^-1 [N |
    b]`, the nonbasic columns N and the rhs last, where `cols[k]` is the
    original index of the column in slot k.

    A basic column is not stored: it is det in its own row and 0 in every
    other.  `n` is the number of columns; `basis[i] >= n` is an artificial
    variable, which has no column at all: it never enters, so when it
    leaves its slot is dropped.  A column fixed at 0 on the optimal face
    (`face`) never enters again either, and its slot is dropped the same
    way.  `det` is the common denominator of every entry and stays
    positive; `reduced` is the reduced-cost row over the same slots,
    scaled by the same `det` (its last entry is -det times the objective
    value), or None when no objective is being minimized.  Entering and
    leaving columns are chosen by their original indices, so every pivot
    is the one the full tableau `det * B^-1 [A | b]` would take over the
    columns not dropped, and its rows are these with the basic columns put
    back.  The elimination of the equalities (`_rref`) and the simplex run
    on this one type.
    """

    __slots__ = ("rows", "basis", "cols", "n", "det", "reduced")

    def __init__(self, rows: list, basis: list[int], cols: list[int], n: int):
        self.rows = rows
        self.basis = basis
        self.cols = cols
        self.n = n
        self.det = 1
        self.reduced: Optional[list[int]] = None

    def copy(self) -> "_Tableau":
        """A tableau that continues from this state and leaves it as it is.
        No method changes a row in place, so the rows are shared."""
        clone = _Tableau(list(self.rows), list(self.basis), list(self.cols), self.n)
        clone.det = self.det
        clone.reduced = self.reduced
        return clone

    def pivot(self, row: int, k: int) -> None:
        """Bareiss pivot on p = rows[row][k]: column cols[k] enters and
        basis[row] leaves.  Every other row, the reduced row included,
        becomes (line * p - line[k] * pivot row) // det, with one exact
        integer division by the old det, as every entry is a minor of the
        integer system (Bareiss 1968); then det = |p|.

        Slot k goes to the leaving column, whose entries are known: det in
        the pivot row and 0 elsewhere before, so s * det in the pivot row
        and -s times the old slot-k entry in every other row after, for the
        sign s of p.  The update writes the latter itself when the pivot
        row holds p + s * det in slot k.  An artificial that leaves has no
        column, and its slot is dropped.

        A negative p, possible while driving an artificial out and in
        `_rref`, is absorbed by negating everything: the pivot row is
        negated first, and the update by the negated row is the update
        negated, as each division in it is exact."""
        pivot_row = self.rows[row]
        p = pivot_row[k]
        s = 1 if p > 0 else -1
        update = [-x for x in pivot_row] if s < 0 else list(pivot_row)
        p, det = s * p, self.det
        update[k] = p + s * det
        leaving, self.basis[row] = self.basis[row], self.cols[k]
        drop = leaving >= self.n
        reduced = self.reduced
        lines = self.rows if reduced is None else self.rows + [reduced]
        rows = []
        for i, line in enumerate(lines):
            if i == row:
                line = update
            else:
                factor = line[k]
                if factor != 0:
                    line = [(x * p - factor * y) // det for x, y in zip(line, update)]
                elif p != det:
                    line = [x * p // det for x in line]
                elif drop:  # left as it was, and shared: copied to cut
                    line = list(line)
                if drop:
                    del line[k]
            rows.append(line)
        if reduced is not None:
            reduced = rows.pop()
        if drop:
            del update[k], self.cols[k]
        else:
            update[k] = s * det
            self.cols[k] = leaving
        self.rows, self.reduced, self.det = rows, reduced, p

    def _in_basis(self, line: list[int]) -> list[int]:
        """`line`, one integer per column and the rhs, written in the
        current basis over the stored columns and the rhs: `det * line -
        sum of line[basis[i]] * rows[i]`, which is zero in every basic
        column."""
        det = self.det
        row = [det * line[j] for j in self.cols] + [det * line[-1]]
        for r, col in zip(self.rows, self.basis):
            factor = line[col]
            if factor != 0:
                row = [x - factor * y for x, y in zip(row, r)]
        return row

    def load(self, costs: list[int]) -> None:
        """Make `costs`, one integer per column (and one more, ignored, in
        the place of the rhs), the objective to minimize: the reduced row
        is the costs with a rhs of 0 written in the basis (`_in_basis`)."""
        self.reduced = self._in_basis(costs[:-1] + [0])

    def minimize(self) -> bool:
        """Bland's rule over the stored columns: False if unbounded, else
        True.

        Entering: the lowest column with a negative reduced cost.  Leaving:
        the least ratio rhs / coefficient over positive coefficients,
        compared by cross-multiplication, ties to the lowest basic index.
        """
        basis = self.basis
        while True:
            cols = self.cols
            entering = [j for j, x in zip(cols, self.reduced) if x < 0]
            if not entering:
                return True
            k = cols.index(min(entering))
            row = None
            for i, line in enumerate(self.rows):
                coeff = line[k]
                if coeff > 0:
                    if row is not None:
                        lhs = line[-1] * best_coeff
                        rhs = best_rhs * coeff
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[row]):
                            continue
                    row, best_rhs, best_coeff = i, line[-1], coeff
            if row is None:
                return False
            self.pivot(row, k)

    def phase_one(self) -> bool:
        """Phase 1: minimize the sum of the basic artificials.  False when
        it stays positive (the rows have no solution); else each
        artificial, now at 0, is pivoted out on its lowest stored column
        with a nonzero entry and the result is True.  That entry exists:
        either no column has been dropped and every original row has its
        own slack, or the row was added by `add_equality` and is not
        implied on the face."""
        n = self.n
        artificial = [line for line, col in zip(self.rows, self.basis) if col >= n]
        if not artificial:
            return True
        self.reduced = [-sum(column) for column in zip(*artificial)]
        self.minimize()
        if self.reduced[-1] != 0:
            return False
        self.reduced = None
        for r in range(len(self.rows)):
            if self.basis[r] >= n:
                cols = self.cols
                col = min(j for j, x in zip(cols, self.rows[r]) if x != 0)
                self.pivot(r, cols.index(col))
        return True

    def add_equality(self, line: list[int]) -> None:
        """Add the row `line[:-1] . y = line[-1]` to the solved tableau.

        The new row is `line` written in the basis (`_in_basis`); it is
        basic on a new artificial (negated if its rhs is negative, so the
        artificial starts nonnegative).  `phase_one` then brings the
        artificial to 0, which it must reach, and drives it out.
        """
        row = self._in_basis(line)
        if row[-1] < 0:
            row = [-x for x in row]
        self.rows.append(row)
        self.basis.append(self.n + len(self.rows))  # past every column
        if not self.phase_one():
            raise ArithmeticError("added row misses the face it should cut")

    def face(self) -> None:
        """Restrict the solved tableau to its optimal face: drop every
        stored column of nonzero reduced cost, as a leaving artificial's
        slot is dropped.  Such a column is 0 on the face and can never
        enter again, so it never becomes basic and never gets a slot back.
        The rows are new lists: a row the tableau shares is left as it
        was."""
        keep = [k for k, x in enumerate(self.reduced[:-1]) if x == 0]
        self.cols = [self.cols[k] for k in keep]
        self.rows = [[line[k] for k in keep] + line[-1:] for line in self.rows]
        self.reduced = [self.reduced[k] for k in keep] + self.reduced[-1:]

    def lexmin_step(self, line: list[int]) -> None:
        """Cut the face (the stored columns) down to where `c . y` is
        least, for `line = c + [b]` with `c . y - b` a positive multiple
        of one coordinate x_k.

        A finite minimum, or a finite maximum below 0 when the minimum is
        unbounded, is fixed by dropping every column whose reduced cost is
        nonzero (`face`).  Otherwise x_k = 0 lies on the face and is added
        as a row.
        """
        self.load(line)
        if not self.minimize():
            self.reduced = [-x for x in self.reduced]  # maximize from here
            if not (self.minimize() and self.reduced[-1] < line[-1] * self.det):
                self.add_equality(line)
                return
        self.face()


class _Start:
    """Everything `lp_solve` does before it reads the objective.

    The integer equalities are eliminated: `eliminated` is the tableau
    `_eliminate_equalities` returns, one solved row per pivot column over
    the `free` coordinates (its `cols`) and the rhs.  Every integer
    inequality is written in that tableau's basis (`substitute`), a row
    over the free coordinates, and phase 1 finds a feasible basis of those
    rows (`begin`).  `projected` counts the rows that substitution leaves
    nonzero and `_prepare` keeps, one slack column each; when the
    equalities fix the point there are none, and `tableau` is empty.  A
    solve works on a copy of the tableau, so the start is only read once
    it is built.
    """

    __slots__ = ("dimension", "eliminated", "free", "projected", "tableau")

    def __init__(self, dimension: int, eliminated: _Tableau):
        self.dimension = dimension
        self.eliminated = eliminated
        self.free = eliminated.cols

    def substitute(self, A: Sequence[int], B: int) -> list[int]:
        """The integer row `A . x <= B` over the free coordinates, rhs last,
        times the elimination's det: the row written in its basis."""
        if not self.eliminated.rows:  # det is 1 and every coordinate free
            return [*A, B]
        return self.eliminated._in_basis([*A, B])

    def lift(self, numerators, denominator) -> Vector:
        """The solution of the equalities whose free coordinates are
        numerators / denominator."""
        eliminated = self.eliminated
        point = [ZERO] * self.dimension
        for j, numerator in zip(self.free, numerators):
            point[j] = Fraction(numerator, denominator)
        for p, equation in zip(eliminated.basis, eliminated.rows):
            numerator = equation[-1] * denominator - sum(
                x * z for x, z in zip(equation, numerators)
            )
            point[p] = Fraction(numerator, eliminated.det * denominator)
        return tuple(point)

    def split(self, A: Sequence[int]) -> list[int]:
        """The integer row `A . x <= 0` as `c . y <= b` over the tableau's
        columns, c + [b]."""
        *cost, b = self.substitute(A, 0)
        return cost + [-c for c in cost] + [0] * self.projected + [b]

    def begin(self, projected: list[tuple[list[int], int]]) -> Optional["_Start"]:
        """This start over the rows `projected`, each (row, b) for `row . z
        <= b`, with phase 1 run; None when they have no solution.

        The columns are z+ and z- (f each) and one slack per row, 2f + m in
        all.  A row with b >= 0 starts with its slack basic.  A row with
        b < 0 is negated and starts on an artificial, so its slack is a
        stored column holding -1 in that row."""
        self.projected = m = len(projected)
        f = len(self.free)
        n = 2 * f + m
        rows, basis, cols = [], [], list(range(2 * f))
        zeros = [0] * sum(b < 0 for _, b in projected)  # the stored slacks
        for k, (row, b) in enumerate(projected):
            if b < 0:
                line = [-c for c in row] + row + zeros + [-b]
                line[len(cols)] = -1
                cols.append(2 * f + k)
                basis.append(n + k)  # artificial
            else:
                line = row + [-c for c in row] + zeros + [b]
                basis.append(2 * f + k)  # slack
            rows.append(line)
        tableau = _Tableau(rows, basis, cols, n)
        if not tableau.phase_one():
            return None
        self.tableau = tableau
        return self

    def solve(self, objective: Vector, lexmin: int) -> LpOutcome:
        """Phase 2 for `objective` on a copy of the tableau, then the lexmin
        walk and the point; the outcome also reports `proves_unique` of the
        final tableau.

        The value is read from the tableau: with s the lcm of the
        objective's denominators, det_e the elimination's det and (c, b) =
        `split(objective)`, every solution x of the equalities has
        det_e * s * objective.x = c . y - b, and phase 2 ends with
        c . y = -reduced[-1] / det.

        One point: the optimal face is the feasible y whose nonbasic
        columns of nonzero reduced cost are 0.  The mirror of a basic z+ or
        z- column has zero reduced cost whatever the objective, and moving
        it moves that basic column by as much and no coordinate of x.  So
        when every other nonbasic column has nonzero reduced cost, the face
        is the basic point of x (`proves_unique`); a start whose
        equalities fix the point has no column at all.  The test is
        sufficient only, as a degenerate tableau may hide a one-point
        face.  Its two uses: the lexmin walk is skipped on such a face,
        where each step would load its objective and pivot nowhere, and
        `LpOutcome.unique` reports it.
        """
        A, _, scale = integer_row(objective, ZERO)
        line = self.split(A)
        tableau = self.tableau.copy()
        f = len(self.free)
        tableau.load(line)
        if not tableau.minimize():
            return UNBOUNDED
        value = Fraction(
            -tableau.reduced[-1] - line[-1] * tableau.det,
            tableau.det * self.eliminated.det * scale,
        )
        unique = self.proves_unique(tableau)
        if lexmin and not unique:
            tableau.face()
            for k in range(lexmin):
                unit = [0] * self.dimension
                unit[k] = 1
                tableau.lexmin_step(self.split(unit))

        z = [0] * f  # numerators over tableau.det
        for row, col in zip(tableau.rows, tableau.basis):
            if col < f:
                z[col] += row[-1]
            elif col < 2 * f:
                z[col - f] -= row[-1]
        return LpOutcome(LpStatus.OPTIMAL, value, self.lift(z, tableau.det), unique)

    def proves_unique(self, tableau: _Tableau) -> bool:
        """Whether the solved `tableau` of this start proves its optimal
        face one point of x, by the test in `solve`: no stored column of
        zero reduced cost other than the mirror of a basic split column."""
        f = len(self.free)
        stored = set(tableau.cols)
        return not any(
            x == 0 and (j >= 2 * f or (j + f) % (2 * f) in stored)
            for j, x in zip(tableau.cols, tableau.reduced)
        )


def _prepare(
    equalities: Sequence[LpRow], inequalities: Sequence[LpRow], dimension: int
) -> Optional[_Start]:
    """The start of every LP over these rows, or None when they have no
    solution.

    An inequality equal to an earlier row whose rhs after substitution is
    b >= 0 is left out.  The two rows are the same row over z, and the
    first starts with its slack s basic; so would the copy, with its slack
    s'.  No pivot ever separates them.  While both slacks are basic, their
    rows agree off s and s', so the copy ties with the first in every ratio
    test it could win and loses on Bland's rule, as s' has the higher index.
    Once s has left, the copy's row reads s' = s: its only entry off the
    basis is -det in column s, so it wins no ratio test, and when s enters
    again the two rows agree once more.  So s' is always basic and equal to
    s, and every other pivot is the one taken without the copy, with the
    columns in the same order.  A copy of a row with b < 0 has an artificial
    of its own, which weighs in phase 1, and is kept.  A repeated equality
    needs no rule: the elimination turns it into a zero row.
    """
    eliminated = _eliminate_equalities(equalities, dimension)
    if eliminated is None:
        return None
    start = _Start(dimension, eliminated)
    projected = []  # rows over z and their rhs
    first: set[LpRow] = set()  # each row kept with b >= 0
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
    return start.begin(projected)


def lp_solve(lp: LinearProgram, lexmin: int = 0) -> LpOutcome:
    """Exact optimum of `lp` with an optimal point, deterministically.

    Equalities are eliminated by substitution first; the remaining free
    variables are split into nonnegative pairs for the simplex, which runs
    on an integer tableau from the slack basis (see the module docstring).
    All of that up to the end of phase 1 is the rows' prepared start, built
    on the first solve over them and shared by every LP made from `lp` by
    `with_objective`; each solve continues a copy of it.  The point is
    basic.  With `lexmin=k` the same tableau goes on to walk the optimal
    face instead: the value is unchanged, and the point's first k
    coordinates are the lexicographic minimum of the face, where a
    coordinate unbounded below is pinned to its maximum if that is finite
    and negative, else to 0.  An optimal outcome also says whether its
    final tableau proves the point the only optimal one (`LpOutcome.unique`).
    """
    if not 0 <= lexmin <= lp.dimension:
        raise ValueError(f"lexmin={lexmin} in an LP of dimension {lp.dimension}")
    start = lp._rows.start()
    if start is None:
        return INFEASIBLE
    return start.solve(lp.objective, lexmin)


def lp_feasible(
    equalities: Sequence[Row],
    inequalities: Sequence[Row],
    dimension: int,
) -> Optional[Vector]:
    """A point satisfying all constraints exactly, or None if there is none."""
    lp = LinearProgram(
        objective=zero_vector(dimension),
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        dimension=dimension,
    )
    outcome = lp_solve(lp)
    return outcome.point if outcome.is_optimal else None


def _margin_lp(
    equalities: Sequence[IntegerRow],
    weak_inequalities: Sequence[IntegerRow],
    strict_inequalities: Sequence[IntegerRow],
    dimension: int,
) -> LinearProgram:
    """The LP over (x, eps) that maximizes the margin eps >= 0 of the
    strict rows (see `max_slack`).

    Every row is an integer row (A, B, s), as `integer_row` makes it, and
    eps gets the coefficient s in a strict row and 0 in any other, so each
    LP row is its rational row times the lcm of its denominators, without
    scaling anything again.  The eps >= 0 slice of the LP, projected on x,
    is the closure of the strict system whenever that system has a point.
    """
    eq = [(A + (0,), B) for A, B, _ in equalities]
    ineq = [(A + (0,), B) for A, B, _ in weak_inequalities]
    ineq += [(A + (s,), B) for A, B, s in strict_inequalities]
    ineq.append(((0,) * dimension + (-1,), 0))  # eps >= 0
    objective = zero_vector(dimension) + (-ONE,)  # maximize eps
    return _integer_lp(objective, eq, ineq, dimension + 1)


def _solve_margin(
    lp: LinearProgram,
) -> tuple[ExtendedRational, Optional[Vector], LinearProgram]:
    """`max_slack` of the margin LP `lp`, and the LP the witness comes
    from: `lp`, or when the margin is unbounded the same rows capped at
    eps <= 1.

    Without a strict row eps has no bound but eps >= 0, the last row, so
    the margin is +inf exactly when the weak rows have a point: such an
    LP is posed once, already capped, and `lp` itself is not solved.
    """
    dimension = lp.dimension - 1
    # eps has coefficient s > 0 in a strict row; the last row is eps >= 0
    strict = any(A[-1] for A, _ in lp.inequalities[:-1])
    outcome = lp_solve(lp) if strict else UNBOUNDED  # or infeasible
    if outcome.status is LpStatus.UNBOUNDED:
        cap = ((0,) * dimension + (1,), 1)  # eps <= 1
        capped = _integer_lp(
            lp.objective, lp.equalities, lp.inequalities + (cap,), lp.dimension
        )
        outcome = lp_solve(capped)
        if outcome.is_optimal:
            return PLUS_INF, outcome.point[:dimension], capped
    if outcome.status is LpStatus.INFEASIBLE:
        return ExtendedRational.finite(0), None, lp
    return ExtendedRational.finite(-outcome.value), outcome.point[:dimension], lp


def max_slack(
    equalities: Sequence[IntegerRow],
    weak_inequalities: Sequence[IntegerRow],
    strict_inequalities: Sequence[IntegerRow],
    dimension: int,
) -> tuple[ExtendedRational, Optional[Vector]]:
    """Largest margin by which the strict rows can hold simultaneously.

    Returns (slack, witness): slack is the supremum of eps >= 0 such that
    some x satisfies the equalities, the weak rows, and every strict row
    `r.x <= b` tightened to `r.x <= b - eps`.  The strict system has a
    solution iff slack > 0.  Slack 0 with witness None means even the weak
    system is empty; slack may be +inf, in which case the witness has
    margin 1.  Without strict rows the slack is +inf exactly when the weak
    system has a point, and one LP decides it (`_solve_margin`).  Every
    row is an integer row (A, B, s); the LP is `_margin_lp`'s.
    """
    return _solve_margin(
        _margin_lp(equalities, weak_inequalities, strict_inequalities, dimension)
    )[:2]


def _margin_exceeds(lp: LinearProgram, row: IntegerRow) -> bool:
    """Whether some point x of a feasible margin LP's eps >= 0 slice has
    A.x > B, for the integer row (A, B, s).

    One phase 2 on the prepared start that `lp` shares: the maximum of A.x
    over the slice, the closure of the strict system, is above B or
    unbounded.  When the strict system has a point, its members are dense
    in the closure, so some member then has A.x > B as well.
    """
    A, B, _ = row
    outcome = lp_solve(lp.with_objective(tuple([-c for c in A]) + (0,)))
    return outcome.status is LpStatus.UNBOUNDED or -outcome.value > B


def optimality_certificate(
    lp: LinearProgram, outcome: LpOutcome
) -> tuple[Vector, Vector]:
    """Lagrange multipliers proving optimality of an Optimal outcome.

    Returns (eq_multipliers, ineq_multipliers) with the inequality
    multipliers nonnegative, supported on the rows tight at the outcome's
    point (A.x = B on the integer row), and satisfying
    objective + E^T mu + A^T lam = 0 exactly; then
    -mu.e - lam.b equals the optimal value (verified by the caller's tests).
    E, e, A and b are the integer rows `lp` holds: each row (a, b) the
    caller passed times its scale s (`integer_row(a, b)[2]`).  A multiplier
    y of the integer row is y * s for the caller's row.
    """
    if not outcome.is_optimal:
        raise ValueError("certificate requires an Optimal outcome")
    n_eq = len(lp.equalities)
    n_in = len(lp.inequalities)
    dim = n_eq + n_in
    if dim == 0:
        if any(c != 0 for c in lp.objective):
            raise ValueError("unconstrained LP with nonzero objective")
        return (), ()
    # one row per coordinate, scaled by its objective entry's denominator;
    # the rows below are the integers 0 and +-1 they are
    rows = lp.equalities + lp.inequalities
    equalities = [
        integer_row([A[d] for A, _ in rows], -lp.objective[d])[:2]
        for d in range(lp.dimension)
    ]
    for i, (A, B) in enumerate(lp.inequalities):
        if dot(A, outcome.point) != B:
            row = [0] * dim
            row[n_eq + i] = 1
            equalities.append((tuple(row), 0))
    inequalities = []
    for i in range(n_in):
        row = [0] * dim
        row[n_eq + i] = -1
        inequalities.append((tuple(row), 0))
    found = lp_solve(_integer_lp(zero_vector(dim), equalities, inequalities, dim))
    if not found.is_optimal:
        raise RuntimeError("no complementary-slack multipliers found")
    return found.point[:n_eq], found.point[n_eq:]

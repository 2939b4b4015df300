"""Problem data model for polyhedral DC programs over Q^n.

A feasible set is an H-representation (equalities plus `row . x <= rhs`
inequalities).  A polyhedral convex function is a max-affine form: the
pointwise maximum of finitely many affine pieces over a polyhedral domain,
and +inf outside the domain.  A DC problem minimizes g - h over a
polyhedral set C, assuming dom(g) and C intersect.

Subdifferentials and normal cones are carried in generator form
(points + rays + lineality basis).  At a point interior to the domain the
subdifferential of a max-affine function is the convex hull of the active
piece gradients; at boundary points this module adds the domain's normal
cone, which is exact for polyhedral functions in finite dimension.
Piece indices are 1-based throughout, matching the usual way the pieces
of g and h are numbered when writing a problem down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from operator import mul
from typing import Optional, Sequence

from .exactlp import (
    ExtendedRational,
    IntegerRow,
    LinearProgram,
    LpStatus,
    MINUS_INF,
    PLUS_INF,
    Row,
    Vector,
    ONE,
    frac,
    integer_row,
    lp_solve,
    row_space_basis,
    vector,
    vneg,
    vsub,
    zero_vector,
    _integer_lp,
)


class PolydcError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(PolydcError):
    pass


class OutsideDomain(PolydcError):
    """A point failed a membership precondition; message names the set."""


class EmptyIntersection(PolydcError):
    pass


class ImproperFunction(PolydcError):
    pass


class InternalCheckFailed(PolydcError):
    """A property the theory guarantees failed to hold; indicates a bug."""


def _check_dimension(x: Sequence, dimension: int, what: str = "point") -> Vector:
    x = vector(x)
    if len(x) != dimension:
        raise DimensionMismatch(
            f"{what} has length {len(x)}, expected {dimension}"
        )
    return x


Scaled = tuple[tuple[int, ...], int]


def _scaled(x: Vector) -> Scaled:
    """x as (X, d), integers over one positive denominator: x = X / d.

    A point is scaled once, by its `_Point`, and then evaluated on
    integers against the integer rows of every set and function
    (`PolyhedralSet._tight_rows`, `MaxAffine._at`).
    """
    X, d, _ = integer_row(x, ONE)
    return X, d


@dataclass(frozen=True)
class PolyhedralSet:
    """{x : a.x = y for all equalities, a.x <= b for all inequalities}.

    An empty constraint list describes the whole space.
    """

    dimension: int
    equalities: tuple[Row, ...] = ()
    inequalities: tuple[Row, ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        # tuples from lists, not generators: see exactlp.vector
        eqs = tuple([(vector(a), frac(y)) for a, y in self.equalities])
        ineqs = tuple([(vector(a), frac(b)) for a, b in self.inequalities])
        for a, _ in itertools.chain(eqs, ineqs):
            if len(a) != self.dimension:
                raise DimensionMismatch(
                    f"constraint row of length {len(a)} in dimension {self.dimension}"
                )
        object.__setattr__(self, "equalities", eqs)
        object.__setattr__(self, "inequalities", ineqs)

    @classmethod
    def whole_space(cls, dimension: int) -> "PolyhedralSet":
        return cls(dimension)

    @classmethod
    def box(cls, lower: Sequence, upper: Sequence) -> "PolyhedralSet":
        """{x : lower <= x <= upper}; bounds of unequal lengths raise
        DimensionMismatch."""
        lower = vector(lower)
        n = len(lower)
        upper = _check_dimension(upper, n, "upper bound")
        rows = []
        for i in range(n):
            e = list(zero_vector(n))
            e[i] = ONE
            rows.append((tuple(e), upper[i]))
            rows.append((vneg(tuple(e)), -lower[i]))
        return cls(n, inequalities=tuple(rows))

    @property
    def is_whole_space(self) -> bool:
        return not self.equalities and not self.inequalities

    def tight_rows(self, x: Sequence) -> Optional[list[Vector]]:
        """Normals of the inequalities tight at x, or None when x is outside.

        One pass over the rows: every equality and inequality row is
        evaluated once.
        """
        return self._tight_rows(_scaled(_check_dimension(x, self.dimension)))

    @cached_property
    def _integer_rows(self) -> tuple[tuple[IntegerRow, ...], ...]:
        """Each row once as integers with its scale, built on first use:
        (equalities, inequalities), each row (A, B, s) as `integer_row` makes
        it.  At x = X / d with d > 0, a.x <= b exactly when A.X <= B * d,
        and likewise for =.  An intersection joins the integer rows of its
        operands, so a row is scaled once per set that first holds it."""
        operands = self.__dict__.pop("_operands", None)
        if operands is not None:
            first, second = (S._integer_rows for S in operands)
            return first[0] + second[0], first[1] + second[1]
        # tuples from lists, not generators: see exactlp.vector
        return (
            tuple([integer_row(a, y) for a, y in self.equalities]),
            tuple([integer_row(a, b) for a, b in self.inequalities]),
        )

    def _tight_rows(self, point: Scaled) -> Optional[list[Vector]]:
        """`tight_rows` of a point already scaled by `_scaled`."""
        X, d = point
        equalities, inequalities = self._integer_rows
        for A, B, _ in equalities:
            if sum(map(mul, A, X)) != B * d:
                return None
        tight = []
        for (A, B, _), (a, _) in zip(inequalities, self.inequalities):
            value, bound = sum(map(mul, A, X)), B * d
            if value > bound:
                return None
            if value == bound:
                tight.append(a)
        return tight

    def contains(self, x: Sequence) -> bool:
        return self.tight_rows(x) is not None

    def is_interior_point(self, x: Sequence) -> bool:
        """Exact test for membership in the topological interior.

        A nonzero equality row forces an empty interior; otherwise x is
        interior iff it satisfies every inequality strictly.
        """
        return self._is_interior(self.tight_rows(x))

    def _is_interior(self, tight: Optional[Sequence[Vector]]) -> bool:
        """Interiority of a point from its `tight_rows` result."""
        if tight is None or tight:
            return False
        return not any(any(c != 0 for c in a) for a, _ in self.equalities)

    def _lineality(self) -> tuple[Vector, ...]:
        """Basis of the span of the equality rows (the normal cone's
        lineality space at every member point)."""
        return tuple(row_space_basis([a for a, _ in self.equalities]))

    def _lp(self, objective: Vector) -> LinearProgram:
        """The LP that minimizes `objective` over the set, posed from the
        integer rows the set holds; each question about the set asks it
        again with `with_objective`, which shares its prepared start."""
        equalities, inequalities = self._integer_rows
        return _integer_lp(
            objective,
            [(A, B) for A, B, _ in equalities],
            [(A, B) for A, B, _ in inequalities],
            self.dimension,
        )

    def feasible_point(self) -> Optional[Vector]:
        outcome = lp_solve(self._lp(zero_vector(self.dimension)))
        return outcome.point if outcome.is_optimal else None

    def is_empty(self) -> bool:
        return self.feasible_point() is None

    def intersect(self, other: "PolyhedralSet") -> "PolyhedralSet":
        """The rows of this set, then those of `other`, taken as they are
        (both are coerced already); the integer rows, when first asked for,
        are the operands' joined."""
        if other.dimension != self.dimension:
            raise DimensionMismatch("cannot intersect sets of different dimensions")
        S = object.__new__(PolyhedralSet)
        S.__dict__.update(
            dimension=self.dimension,
            equalities=self.equalities + other.equalities,
            inequalities=self.inequalities + other.inequalities,
            _operands=(self, other),
        )
        return S

    def normal_cone(self, x: Sequence) -> "ConvexBody":
        """Normal cone at a member point, in generator form.

        Rays are the normals of the inequalities tight at x; the lineality
        space is spanned by the equality rows (the orthogonal complement of
        the kernel of the equality matrix).
        """
        tight = self.tight_rows(x)
        if tight is None:
            raise OutsideDomain("normal cone requested at a point outside the set")
        return ConvexBody(
            dimension=self.dimension,
            points=(zero_vector(self.dimension),),
            rays=tight,
            lineality=self._lineality(),
        )

    def support_value(self, direction: Sequence) -> ExtendedRational:
        """sup of direction . x over the set; raises on an empty set."""
        direction = _check_dimension(direction, self.dimension, "direction")
        return _supremum(self._lp(vneg(direction)))

    def bounding_box(self) -> tuple[Vector, Vector]:
        """Componentwise (min, max) over the set; raises if unbounded or
        empty.  The 2n directions are asked of one LP (`_lp`)."""
        lp = self._lp(zero_vector(self.dimension))
        lows, highs = [], []
        for i in range(self.dimension):
            e = list(zero_vector(self.dimension))
            e[i] = ONE
            hi = _supremum(lp.with_objective(vneg(tuple(e))))
            lo = _supremum(lp.with_objective(tuple(e)))
            if not hi.is_finite or not lo.is_finite:
                raise PolydcError("set is unbounded; no bounding box")
            lows.append(-lo.as_fraction())
            highs.append(hi.as_fraction())
        return tuple(lows), tuple(highs)


def _supremum(lp: LinearProgram) -> ExtendedRational:
    """sup of -objective over the rows of `lp`: for a set's LP (`_lp`) the
    support value of the set in the direction -objective, for an epigraph
    LP a conjugate value (`MaxAffine.conjugate_value`); raises on empty
    rows."""
    outcome = lp_solve(lp)
    if outcome.status is LpStatus.INFEASIBLE:
        raise EmptyIntersection("support value of an empty set")
    if outcome.status is LpStatus.UNBOUNDED:
        return PLUS_INF
    return ExtendedRational.finite(-outcome.value)


def containment_violation(
    outer: PolyhedralSet, inner: PolyhedralSet, strictly: bool = False
) -> Optional[str]:
    """First violated outer constraint for inner ⊆ outer, or None.

    With strictly=True the target is inner ⊆ int(outer).  Each outer
    constraint is checked by maximizing its row over inner; an unbounded
    maximum counts as a violation.  Inner must be nonempty.  Every row is
    asked of one LP over inner (`PolyhedralSet._lp`), whose prepared start
    the emptiness test builds.
    """
    if outer.dimension != inner.dimension:
        raise DimensionMismatch("containment of sets of different dimensions")
    lp = inner._lp(zero_vector(inner.dimension))
    if not lp_solve(lp).is_optimal:
        raise EmptyIntersection("containment test requires a nonempty inner set")
    for k, (a, y) in enumerate(outer.equalities):
        if strictly and any(c != 0 for c in a):
            return f"equality #{k} is a proper affine constraint (empty interior)"
        hi = _supremum(lp.with_objective(vneg(a)))
        lo = _supremum(lp.with_objective(a))
        if not hi.is_finite or not lo.is_finite:
            return f"equality #{k}: row is unbounded over the inner set"
        if hi.as_fraction() != y or -lo.as_fraction() != y:
            return (
                f"equality #{k}: row ranges over "
                f"[{-lo.as_fraction()}, {hi.as_fraction()}], not {{{y}}}"
            )
    for k, (a, b) in enumerate(outer.inequalities):
        hi = _supremum(lp.with_objective(vneg(a)))
        if not hi.is_finite:
            return f"inequality #{k}: row is unbounded over the inner set"
        if strictly and hi.as_fraction() >= b:
            return f"inequality #{k}: max {hi.as_fraction()} is not < {b}"
        if not strictly and hi.as_fraction() > b:
            return f"inequality #{k}: max {hi.as_fraction()} exceeds {b}"
    return None


def contains_set(
    outer: PolyhedralSet, inner: PolyhedralSet, strictly: bool = False
) -> bool:
    """Decide inner subset of outer (strictly: inner subset of int(outer))."""
    return containment_violation(outer, inner, strictly) is None


def _weights(target: Vector, *parts) -> Optional[Vector]:
    """Generator weights that reach `target`, or None when there are none.

    Each part is (sign, points, rays, lineality) with sign 1 or -1.  One
    feasibility LP over one weight per generator, parts and their
    generators in the order given: per coordinate, the sum of sign *
    weight * generator equals `target`; then, for each part with points,
    its point weights sum to 1; then every point and ray weight is
    nonnegative.  Only the coordinate rows are scaled (`integer_row`); the
    convexity and sign rows are the integers 0 and +-1 they are.
    """
    columns = []  # sign * generator, one per weight
    convex, nonnegative = [], []
    for sign, points, rays, lineality in parts:
        if points:
            convex.append(range(len(columns), len(columns) + len(points)))
        nonnegative += range(len(columns), len(columns) + len(points) + len(rays))
        columns += [g if sign > 0 else vneg(g) for g in points + rays + lineality]
    width = len(columns)
    equalities = [
        integer_row([g[d] for g in columns], target[d])[:2]
        for d in range(len(target))
    ]
    for span in convex:
        equalities.append((tuple([1 if k in span else 0 for k in range(width)]), 1))
    inequalities = []
    for k in nonnegative:
        row = [0] * width
        row[k] = -1
        inequalities.append((tuple(row), 0))
    outcome = lp_solve(_integer_lp(zero_vector(width), equalities, inequalities, width))
    return outcome.point if outcome.is_optimal else None


_FRACTION = {Fraction}


@dataclass(frozen=True)
class ConvexBody:
    """conv(points) + cone(rays) + span(lineality); empty iff no points."""

    dimension: int
    points: tuple[Vector, ...] = ()
    rays: tuple[Vector, ...] = ()
    lineality: tuple[Vector, ...] = ()

    def __post_init__(self):
        # a generator that is a tuple of Fractions already is kept as it is;
        # tuples from lists, not generators: see exactlp.vector
        for name in ("points", "rays", "lineality"):
            generators = [
                g if type(g) is tuple and set(map(type, g)) <= _FRACTION else vector(g)
                for g in getattr(self, name)
            ]
            object.__setattr__(self, name, tuple(generators))
        for gen in itertools.chain(self.points, self.rays, self.lineality):
            if len(gen) != self.dimension:
                raise DimensionMismatch(
                    f"generator of length {len(gen)} in dimension {self.dimension}"
                )

    @property
    def is_empty(self) -> bool:
        return not self.points

    def contains(self, x: Sequence) -> bool:
        x = _check_dimension(x, self.dimension)
        if self.is_empty:
            return False
        return _weights(x, (1, self.points, self.rays, self.lineality)) is not None

    def recession_contains(self, direction: Sequence) -> bool:
        direction = _check_dimension(direction, self.dimension, "direction")
        if all(c == 0 for c in direction):
            return True
        if not self.rays and not self.lineality:
            return False
        return _weights(direction, (1, (), self.rays, self.lineality)) is not None

    def issubset(self, other: "ConvexBody") -> bool:
        """Exact containment: point generators lie in `other`, ray and
        lineality generators lie in its recession cone."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("bodies of different dimensions")
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return (
            all(other.contains(p) for p in self.points)
            and all(other.recession_contains(r) for r in self.rays)
            and all(
                other.recession_contains(l) and other.recession_contains(vneg(l))
                for l in self.lineality
            )
        )

    def intersection_witness(self, other: "ConvexBody") -> Optional[Vector]:
        """A point of the intersection, or None if the bodies are disjoint."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("bodies of different dimensions")
        if self.is_empty or other.is_empty:
            return None
        weights = _weights(
            zero_vector(self.dimension),
            (1, self.points, self.rays, self.lineality),
            (-1, other.points, other.rays, other.lineality),
        )
        if weights is None:
            return None
        point = list(zero_vector(self.dimension))
        for w, g in zip(weights, self.points + self.rays + self.lineality):
            if w != 0:
                point = [p + w * c for p, c in zip(point, g)]
        return tuple(point)

    def minkowski_sum(self, other: "ConvexBody") -> "ConvexBody":
        if self.dimension != other.dimension:
            raise DimensionMismatch("bodies of different dimensions")
        if self.is_empty or other.is_empty:
            return ConvexBody(dimension=self.dimension)
        points = tuple(
            tuple(a + b for a, b in zip(p, q))
            for p in self.points
            for q in other.points
        )
        return ConvexBody(
            dimension=self.dimension,
            points=points,
            rays=self.rays + other.rays,
            lineality=self.lineality + other.lineality,
        )


@dataclass(frozen=True)
class MaxAffine:
    """max over pieces of u.x + alpha on a polyhedral domain, +inf outside.

    Pieces are numbered from 1.  The pieces list is duplicate-free but may
    contain redundant (never active) pieces; they are kept as given because
    active-set semantics depend on the user's numbering.
    """

    pieces: tuple[tuple[Vector, Fraction], ...]
    domain: PolyhedralSet

    def __post_init__(self):
        # a tuple from a list, not a generator: see exactlp.vector
        pieces = tuple([(vector(u), frac(alpha)) for u, alpha in self.pieces])
        if not pieces:
            raise ValueError("a max-affine function needs at least one piece")
        if len(set(pieces)) != len(pieces):
            raise ValueError("pieces must be duplicate-free")
        for u, _ in pieces:
            if len(u) != self.domain.dimension:
                raise DimensionMismatch(
                    f"piece of length {len(u)} on a domain of dimension "
                    f"{self.domain.dimension}"
                )
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def from_pieces(
        cls, pieces, dimension: int, domain: Optional[PolyhedralSet] = None
    ) -> "MaxAffine":
        if domain is None:
            domain = PolyhedralSet.whole_space(dimension)
        return cls(pieces=tuple(pieces), domain=domain)

    @classmethod
    def constant(cls, value, dimension: int) -> "MaxAffine":
        return cls.from_pieces([(zero_vector(dimension), frac(value))], dimension)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def indices(self) -> range:
        """The 1-based piece index set."""
        return range(1, len(self.pieces) + 1)

    def piece(self, j: int) -> tuple[Vector, Fraction]:
        if not 1 <= j <= len(self.pieces):
            raise IndexError(f"piece index {j} outside 1..{len(self.pieces)}")
        return self.pieces[j - 1]

    @cached_property
    def _integer_pieces(self) -> tuple[list[tuple[tuple[int, ...], int]], int]:
        """The pieces once as integers over one common scale L, built on
        first use: ([(U_j, A_j)], L) with u_j = U_j / L and alpha_j = A_j / L,
        so at x = X / d the piece's value is (U_j.X + A_j * d) / (L * d)."""
        flat, scale, _ = integer_row(
            [c for u, alpha in self.pieces for c in u + (alpha,)], ONE
        )
        n = self.dimension
        pieces = [
            (tuple(flat[k : k + n]), flat[k + n]) for k in range(0, len(flat), n + 1)
        ]
        return pieces, scale

    @cached_property
    def _scaled_gradients(self) -> tuple[Scaled, ...]:
        """Each piece gradient scaled by `_scaled`, in piece order, built on
        first use: the key under which `dca._subproblems` keeps the
        subproblem at that gradient."""
        # a tuple from a list, not a generator: see exactlp.vector
        return tuple([_scaled(u) for u, _ in self.pieces])

    @cached_property
    def _below(self) -> dict[int, tuple[tuple[int, IntegerRow], ...]]:
        """For each piece k, the rows u_j.x + alpha_j <= u_k.x + alpha_k of
        the other pieces j in order, as (j, integer row), built on first
        use."""
        pieces = list(zip(self.indices, self.pieces))
        return {  # tuples from lists, not generators: see exactlp.vector
            k: tuple(
                [(j, integer_row(vsub(u, v), b - a)) for j, (u, a) in pieces if j != k]
            )
            for k, (v, b) in pieces
        }

    def _at(self, point: Scaled) -> Optional[tuple[Fraction, list[int], list[Vector]]]:
        """f(x), the 0-based positions (ascending) of the pieces attaining
        it and the domain rows tight at x, for an x already scaled by
        `_scaled`; None outside the domain.  Every row of the domain and
        every piece is evaluated once, on integers, and f(x) is the one
        Fraction built: this is the one place a max-affine function is
        evaluated at a point."""
        tight = self.domain._tight_rows(point)
        if tight is None:
            return None
        X, d = point
        pieces, scale = self._integer_pieces
        values = [sum(map(mul, U, X)) + A * d for U, A in pieces]
        top = max(values)
        return (
            Fraction(top, scale * d),
            [j for j, v in enumerate(values) if v == top],
            tight,
        )

    def _at_member(self, x: Sequence, message: str):
        """`_at` of x, read from its point; raises OutsideDomain(message)
        outside the domain."""
        at = _Point(x, self).h
        if at is None:
            raise OutsideDomain(message)
        return at

    def value(self, x: Sequence) -> ExtendedRational:
        at = _Point(x, self).h
        return PLUS_INF if at is None else ExtendedRational.finite(at[0])

    def finite_value(self, x: Sequence) -> Fraction:
        return self._at_member(x, "point outside the function's domain")[0]

    def active_indices(self, x: Sequence) -> frozenset[int]:
        """1-based indices of the pieces attaining the max at x."""
        at = self._at_member(x, "active set requested outside the domain")
        return frozenset(j + 1 for j in at[1])

    def subdifferential(self, x: Sequence) -> ConvexBody:
        """conv of active piece gradients plus the domain's normal cone.

        At interior points of the domain the normal-cone part is {0} and
        the result is exactly the hull of the active gradients.
        """
        return self._subdifferential(
            self._at_member(x, "active set requested outside the domain")
        )

    def _subdifferential(
        self, at, rays: Sequence[Vector] = (), lineality: tuple[Vector, ...] = ()
    ) -> ConvexBody:
        """The subdifferential at the point `at` describes, plus the cone
        spanned by `rays` and `lineality`: the normal cone of C there gives
        that of f + indicator(C).  Generators in order: active gradients;
        tight rows of the domain, then `rays`; the domain's lineality, then
        `lineality`."""
        _, active, tight = at
        return ConvexBody(
            dimension=self.dimension,
            points=[self.pieces[j][0] for j in active],
            rays=tight + list(rays),
            lineality=self.domain._lineality() + lineality,
        )

    def epigraph_lp(
        self, xi: Vector, C: Optional[PolyhedralSet] = None
    ) -> LinearProgram:
        """The LP of min f(x) - xi.x over dom(f) (intersected with C).

        Variables (x, t): minimize t - xi.x subject to the rows of C, then
        those of dom(f), then t >= u.x + alpha for every piece; at an
        optimum t = f(x), so the optimal face projects one to one onto the
        minimizers.  When C adds no rows, every such LP shares the rows of
        `_epigraph`, and with them one prepared start.
        """
        objective = vneg(xi) + (ONE,)  # minimize t - xi.x
        if C is None or C.is_whole_space:
            return self._epigraph.with_objective(objective)
        return self._epigraph_over((C, self.domain), objective)

    @cached_property
    def _epigraph(self) -> LinearProgram:
        """The epigraph rows over dom(f), built once per function."""
        return self._epigraph_over((self.domain,), zero_vector(self.dimension + 1))

    def _epigraph_over(self, sets, objective: Vector) -> LinearProgram:
        """The epigraph rows over `sets`, posed from the integer rows the
        sets hold, each with t's coefficient 0, and one row per piece."""
        rows = [S._integer_rows for S in sets]
        equalities = [(A + (0,), B) for eqs, _ in rows for A, B, _ in eqs]
        inequalities = [(A + (0,), B) for _, ineqs in rows for A, B, _ in ineqs]
        for u, alpha in self.pieces:
            inequalities.append(integer_row(u + (-ONE,), -alpha)[:2])
        return _integer_lp(objective, equalities, inequalities, self.dimension + 1)

    def conjugate_value(self, xi: Sequence) -> ExtendedRational:
        """sup of xi.x - f(x), read by `_supremum` off one epigraph LP per
        call: +inf when the LP is unbounded.  Raises on an empty domain."""
        xi = _check_dimension(xi, self.dimension, "dual vector")
        try:
            return _supremum(self.epigraph_lp(xi))
        except EmptyIntersection:
            message = "conjugate of a function with empty domain"
            raise ImproperFunction(message) from None

    @cached_property
    def _conjugate_at_gradients(self) -> dict[Vector, ExtendedRational]:
        """f*(u) at each distinct piece gradient u, in piece order, built on
        first use: one `conjugate_value` LP per gradient per function."""
        values: dict[Vector, ExtendedRational] = {}
        for u, _ in self.pieces:
            if u not in values:
                values[u] = self.conjugate_value(u)
        return values


def restrict_sum(g: MaxAffine, C: PolyhedralSet) -> MaxAffine:
    """g + indicator of C: same pieces, domain C ∩ dom(g).

    The rows of C come first, so the result's `epigraph_lp(xi)` is
    `g.epigraph_lp(xi, C)`.
    """
    domain = C.intersect(g.domain)
    if domain.is_empty():
        raise EmptyIntersection(
            "standing assumption violated: dom(g) and C do not intersect"
        )
    return MaxAffine(pieces=g.pieces, domain=domain)


_UNREAD = object()  # an evaluation of a `_Point` not made yet


class _Point:
    """One point x with the evaluations every layer reads there.

    x is coerced once (`_check_dimension`) and scaled once (`_scaled`).
    `h` and `g` are `MaxAffine._at` of the point's functions at x and `C`
    is `PolyhedralSet._tight_rows` of its set there, each made on first
    read and kept, so every reader of the point shares one evaluation of
    each; `objective` is derived from them.  A point is bound to (h, g, C),
    not to a problem, so a point kept with a DCA node or a piece keeps no
    problem alive; a point of h alone serves the membership test of a
    semi-closed piece and the step of a selection rule.
    """

    __slots__ = ("x", "scaled", "functions", "_h", "_g", "_C")

    def __init__(self, x: Sequence, h: MaxAffine, g=None, C=None):
        self.x = x = _check_dimension(x, h.dimension)
        self.scaled = _scaled(x)
        self.functions = h, g, C  # g and C are None for a point of h alone
        self._h = self._g = self._C = _UNREAD

    @property
    def h(self) -> Optional[tuple]:
        if self._h is _UNREAD:
            self._h = self.functions[0]._at(self.scaled)
        return self._h

    @property
    def g(self) -> Optional[tuple]:
        if self._g is _UNREAD:
            self._g = self.functions[1]._at(self.scaled)
        return self._g

    @property
    def C(self) -> Optional[list[Vector]]:
        if self._C is _UNREAD:
            self._C = self.functions[2]._tight_rows(self.scaled)
        return self._C

    @property
    def objective(self) -> ExtendedRational:
        """(g + indicator of C)(x) - h(x), with (+inf) - (+inf) = +inf:
        h is not evaluated where g + indicator(C) is +inf."""
        if self.C is None or self.g is None:
            return PLUS_INF
        h = self.h
        return MINUS_INF if h is None else ExtendedRational.finite(self.g[0] - h[0])

    def finite_objective(self) -> Fraction:
        value = self.objective
        if not value.is_finite:
            raise OutsideDomain("objective is not finite at this point")
        return value.value


@dataclass(frozen=True)
class DcProblem:
    """minimize f = g - h over C, with dom(g) meeting C (checked at load).

    The facts of the problem are kept on it, in `_facts`, each decided on
    first use by the one function of the module that decides it (`kept`):
    the linearizations and the hypotheses (`structure._linearized`,
    `structure._hypothesis_violation`), the global solutions
    (`structure.global_solutions`), the dual report
    (`duality.toland_singer_check`) and the DCA nodes (`dca._subproblems`).
    `_nodes` maps the point of every bounded DCA node, scaled
    (`_Point.scaled`), to that point; `dca._solve_node` registers each
    point as it keeps the node, so `_nodes` refers only to points that the
    nodes hold and grows only with them."""

    g: MaxAffine
    h: MaxAffine
    C: PolyhedralSet
    _domain: PolyhedralSet = field(init=False, repr=False, compare=False)
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.g.dimension == self.h.dimension == self.C.dimension):
            raise DimensionMismatch(
                "g, h and C must share one dimension, got "
                f"{self.g.dimension}, {self.h.dimension}, {self.C.dimension}"
            )
        domain = self.C.intersect(self.g.domain)
        if domain.is_empty():
            raise EmptyIntersection(
                "standing assumption violated: dom(g) ∩ C is empty"
            )
        object.__setattr__(self, "_domain", domain)

    @property
    def dimension(self) -> int:
        return self.C.dimension

    @cached_property
    def g_plus_indicator(self) -> MaxAffine:
        """g + indicator of C as one max-affine function: `restrict_sum`
        over the domain the load check found nonempty, so its LP is posed
        once per problem."""
        return MaxAffine(pieces=self.g.pieces, domain=self._domain)

    def _point(self, x: Sequence) -> _Point:
        """x as a point of this problem's h, g and C (`_Point`), the one
        constructor of a problem's point: at a DCA node it is the node's
        point (`_nodes`), so every reader there shares one evaluation per
        problem, of h made when the node was solved and of g and C on
        first read; anywhere else it is a new point."""
        point = _Point(x, self.h, self.g, self.C)
        return self._nodes.get(point.scaled, point)

    def objective_value(self, x: Sequence) -> ExtendedRational:
        """(g + indicator of C)(x) - h(x), with (+inf) - (+inf) = +inf."""
        return self._point(x).objective

    def finite_objective(self, x: Sequence) -> Fraction:
        return self._point(x).finite_objective()


def kept(build):
    """`build(prob)` as a fact of the problem: built on the first call and
    kept in `prob._facts` under the returned function, which returns the
    kept value on every later call.  A build that raises keeps nothing, so
    the next call builds again and raises the same error."""

    @wraps(build)
    def fact(prob: DcProblem):
        try:
            return prob._facts[fact]
        except KeyError:
            pass
        value = prob._facts[fact] = build(prob)
        return value

    return fact

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .exactlp import (
    ExtendedRational,
    LinearProgram,
    LpStatus,
    PLUS_INF,
    Row,
    Vector,
    ZERO,
    ONE,
    dot,
    frac,
    lp_feasible,
    lp_solve,
    row_space_basis,
    vector,
    vneg,
    zero_vector,
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
        lower, upper = vector(lower), vector(upper)
        n = len(lower)
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
        return self._tight_rows(_check_dimension(x, self.dimension))

    def _tight_rows(self, x: Vector) -> Optional[list[Vector]]:
        """`tight_rows` of a point already coerced by `_check_dimension`."""
        for a, y in self.equalities:
            if dot(a, x) != y:
                return None
        tight = []
        for a, b in self.inequalities:
            value = dot(a, x)
            if value > b:
                return None
            if value == b:
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

    def feasible_point(self) -> Optional[Vector]:
        return lp_feasible(self.equalities, self.inequalities, self.dimension)

    def is_empty(self) -> bool:
        return self.feasible_point() is None

    def intersect(self, other: "PolyhedralSet") -> "PolyhedralSet":
        if other.dimension != self.dimension:
            raise DimensionMismatch("cannot intersect sets of different dimensions")
        return PolyhedralSet(
            self.dimension,
            self.equalities + other.equalities,
            self.inequalities + other.inequalities,
        )

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
        outcome = lp_solve(
            LinearProgram(
                objective=vneg(direction),
                equalities=self.equalities,
                inequalities=self.inequalities,
                dimension=self.dimension,
            )
        )
        if outcome.status is LpStatus.INFEASIBLE:
            raise EmptyIntersection("support value of an empty set")
        if outcome.status is LpStatus.UNBOUNDED:
            return PLUS_INF
        return ExtendedRational.finite(-outcome.value)

    def bounding_box(self) -> tuple[Vector, Vector]:
        """Componentwise (min, max) over the set; raises if unbounded or empty."""
        lows, highs = [], []
        for i in range(self.dimension):
            e = list(zero_vector(self.dimension))
            e[i] = ONE
            hi = self.support_value(tuple(e))
            lo = self.support_value(vneg(tuple(e)))
            if not hi.is_finite or not lo.is_finite:
                raise PolydcError("set is unbounded; no bounding box")
            lows.append(-lo.as_fraction())
            highs.append(hi.as_fraction())
        return tuple(lows), tuple(highs)


def containment_violation(
    outer: PolyhedralSet, inner: PolyhedralSet, strictly: bool = False
) -> Optional[str]:
    """First violated outer constraint for inner ⊆ outer, or None.

    With strictly=True the target is inner ⊆ int(outer).  Each outer
    constraint is checked by maximizing its row over inner; an unbounded
    maximum counts as a violation.  Inner must be nonempty.
    """
    if outer.dimension != inner.dimension:
        raise DimensionMismatch("containment of sets of different dimensions")
    if inner.is_empty():
        raise EmptyIntersection("containment test requires a nonempty inner set")
    for k, (a, y) in enumerate(outer.equalities):
        if strictly and any(c != 0 for c in a):
            return f"equality #{k} is a proper affine constraint (empty interior)"
        hi = inner.support_value(a)
        lo = inner.support_value(vneg(a))
        if not hi.is_finite or not lo.is_finite:
            return f"equality #{k}: row is unbounded over the inner set"
        if hi.as_fraction() != y or -lo.as_fraction() != y:
            return (
                f"equality #{k}: row ranges over "
                f"[{-lo.as_fraction()}, {hi.as_fraction()}], not {{{y}}}"
            )
    for k, (a, b) in enumerate(outer.inequalities):
        hi = inner.support_value(a)
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


@dataclass(frozen=True)
class ConvexBody:
    """conv(points) + cone(rays) + span(lineality); empty iff no points."""

    dimension: int
    points: tuple[Vector, ...] = ()
    rays: tuple[Vector, ...] = ()
    lineality: tuple[Vector, ...] = ()

    def __post_init__(self):
        # tuples from lists, not generators: see exactlp.vector
        object.__setattr__(self, "points", tuple([vector(p) for p in self.points]))
        object.__setattr__(self, "rays", tuple([vector(r) for r in self.rays]))
        object.__setattr__(
            self, "lineality", tuple([vector(l) for l in self.lineality])
        )
        for gen in itertools.chain(self.points, self.rays, self.lineality):
            if len(gen) != self.dimension:
                raise DimensionMismatch(
                    f"generator of length {len(gen)} in dimension {self.dimension}"
                )

    @property
    def is_empty(self) -> bool:
        return not self.points

    def _weight_system(self, target: Vector, include_points: bool):
        """Equality/inequality rows for generator weights reaching `target`."""
        gens = (list(self.points) if include_points else []) + list(
            self.rays
        ) + list(self.lineality)
        n_pts = len(self.points) if include_points else 0
        n_nonneg = n_pts + len(self.rays)
        width = len(gens)
        equalities = []
        for d in range(self.dimension):
            equalities.append(
                (tuple(g[d] for g in gens), target[d])
            )
        if include_points:
            equalities.append(
                (tuple([ONE] * n_pts + [ZERO] * (width - n_pts)), ONE)
            )
        inequalities = []
        for k in range(n_nonneg):
            row = [ZERO] * width
            row[k] = -ONE
            inequalities.append((tuple(row), ZERO))
        return equalities, inequalities, width

    def contains(self, x: Sequence) -> bool:
        x = _check_dimension(x, self.dimension)
        if self.is_empty:
            return False
        equalities, inequalities, width = self._weight_system(x, True)
        return lp_feasible(equalities, inequalities, width) is not None

    def recession_contains(self, direction: Sequence) -> bool:
        direction = _check_dimension(direction, self.dimension, "direction")
        if all(c == 0 for c in direction):
            return True
        if not self.rays and not self.lineality:
            return False
        equalities, inequalities, width = self._weight_system(direction, False)
        return lp_feasible(equalities, inequalities, width) is not None

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
        mine = (list(self.points), list(self.rays), list(self.lineality))
        theirs = (list(other.points), list(other.rays), list(other.lineality))
        gens = [g for group in mine for g in group]
        gens += [g for group in theirs for g in group]
        width = len(gens)
        off = sum(len(group) for group in mine)
        equalities = []
        for d in range(self.dimension):
            row = [g[d] for g in gens[:off]] + [-g[d] for g in gens[off:]]
            equalities.append((tuple(row), ZERO))
        row = [ZERO] * width
        for k in range(len(self.points)):
            row[k] = ONE
        equalities.append((tuple(row), ONE))
        row = [ZERO] * width
        for k in range(len(other.points)):
            row[off + k] = ONE
        equalities.append((tuple(row), ONE))
        inequalities = []
        nonneg = list(range(len(self.points) + len(self.rays)))
        nonneg += [
            off + k for k in range(len(other.points) + len(other.rays))
        ]
        for k in nonneg:
            row = [ZERO] * width
            row[k] = -ONE
            inequalities.append((tuple(row), ZERO))
        weights = lp_feasible(equalities, inequalities, width)
        if weights is None:
            return None
        point = list(zero_vector(self.dimension))
        for w, g in zip(weights[:off], gens[:off]):
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

    def value(self, x: Sequence) -> ExtendedRational:
        x = _check_dimension(x, self.dimension)
        if not self.domain.contains(x):
            return PLUS_INF
        return ExtendedRational.finite(
            max(dot(u, x) + alpha for u, alpha in self.pieces)
        )

    def finite_value(self, x: Sequence) -> Fraction:
        x = _check_dimension(x, self.dimension)
        if not self.domain.contains(x):
            raise OutsideDomain("point outside the function's domain")
        return max(dot(u, x) + alpha for u, alpha in self.pieces)

    def active_indices(self, x: Sequence) -> frozenset[int]:
        """1-based indices of the pieces attaining the max at x."""
        x = _check_dimension(x, self.dimension)
        if not self.domain.contains(x):
            raise OutsideDomain("active set requested outside the domain")
        return frozenset(j + 1 for j in self._active_positions(x))

    def _active_positions(self, x: Vector) -> list[int]:
        """0-based positions, ascending, of the pieces attaining the max at
        a point already checked to lie in the domain; one pass over the
        pieces."""
        values = [dot(u, x) + alpha for u, alpha in self.pieces]
        top = max(values)
        return [j for j, v in enumerate(values) if v == top]

    def subdifferential(self, x: Sequence) -> ConvexBody:
        """conv of active piece gradients plus the domain's normal cone.

        At interior points of the domain the normal-cone part is {0} and
        the result is exactly the hull of the active gradients.
        """
        x = _check_dimension(x, self.dimension)
        tight = self.domain._tight_rows(x)
        if tight is None:
            raise OutsideDomain("active set requested outside the domain")
        return ConvexBody(
            dimension=self.dimension,
            points=[self.pieces[j][0] for j in self._active_positions(x)],
            rays=tight,
            lineality=self.domain._lineality(),
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
        equalities = [(a + (ZERO,), y) for S in sets for a, y in S.equalities]
        inequalities = [(a + (ZERO,), b) for S in sets for a, b in S.inequalities]
        for u, alpha in self.pieces:
            inequalities.append((u + (-ONE,), -alpha))
        return LinearProgram(
            objective=objective,
            equalities=tuple(equalities),
            inequalities=tuple(inequalities),
            dimension=self.dimension + 1,
        )

    def conjugate_value(self, xi: Sequence) -> ExtendedRational:
        """sup of xi.x - f(x), evaluated by one epigraph LP: +inf when the
        LP is unbounded.  Raises on an empty domain."""
        xi = _check_dimension(xi, self.dimension, "dual vector")
        outcome = lp_solve(self.epigraph_lp(xi))
        if outcome.status is LpStatus.INFEASIBLE:
            raise ImproperFunction("conjugate of a function with empty domain")
        if outcome.status is LpStatus.UNBOUNDED:
            return PLUS_INF
        return ExtendedRational.finite(-outcome.value)


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


@dataclass(frozen=True)
class DcProblem:
    """minimize f = g - h over C, with dom(g) meeting C (checked at load)."""

    g: MaxAffine
    h: MaxAffine
    C: PolyhedralSet

    def __post_init__(self):
        if not (self.g.dimension == self.h.dimension == self.C.dimension):
            raise DimensionMismatch(
                "g, h and C must share one dimension, got "
                f"{self.g.dimension}, {self.h.dimension}, {self.C.dimension}"
            )
        if lp_feasible(
            self.g.domain.equalities + self.C.equalities,
            self.g.domain.inequalities + self.C.inequalities,
            self.C.dimension,
        ) is None:
            raise EmptyIntersection(
                "standing assumption violated: dom(g) ∩ C is empty"
            )

    @property
    def dimension(self) -> int:
        return self.C.dimension

    @cached_property
    def g_plus_indicator(self) -> MaxAffine:
        """g + indicator of C as one max-affine function."""
        return restrict_sum(self.g, self.C)

    def objective_value(self, x: Sequence) -> ExtendedRational:
        """(g + indicator of C)(x) - h(x), with (+inf) - (+inf) = +inf."""
        return self.g_plus_indicator.value(x) - self.h.value(x)

    def finite_objective(self, x: Sequence) -> Fraction:
        value = self.objective_value(x)
        if not value.is_finite:
            raise OutsideDomain(
                "objective is not finite at this point"
            )
        return value.as_fraction()

    def require_classifiable(self, x: Sequence) -> Vector:
        """Check x in dom(g) ∩ dom(h) ∩ C, naming the failing set."""
        x = _check_dimension(x, self.dimension)
        if not self.g.domain.contains(x):
            raise OutsideDomain("point is outside dom(g)")
        if not self.h.domain.contains(x):
            raise OutsideDomain("point is outside dom(h)")
        if not self.C.contains(x):
            raise OutsideDomain("point is outside the constraint set C")
        return x

"""Model layer: evaluation, active sets, subdifferentials, cones, conjugates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydc import (
    ConvexBody,
    DcProblem,
    DimensionMismatch,
    EmptyIntersection,
    ImproperFunction,
    MaxAffine,
    MINUS_INF,
    MinIndexActive,
    OutsideDomain,
    PLUS_INF,
    PolyhedralSet,
    Scripted,
    classify,
    contains_set,
    dual_objective,
    grid_cross_check,
    local_pieces,
    optimality_certificate,
    restrict_sum,
    run,
    solution_structure,
    toland_singer_check,
    validate_trace,
)
from polydc.dca import InvalidSelection
from polydc import exactlp, model
from polydc.exactlp import ExtendedRational, dot

import gens
from gens import vec

F = Fraction


def interval_set():
    return PolyhedralSet(1, inequalities=((vec(-1), F(2)), (vec(1), F(3))))


class TestEval:
    def test_values_on_the_vee(self, interval_problem):
        h = interval_problem.h
        assert h.value(vec(2)) == ExtendedRational.finite(1)
        assert h.value(vec(0)) == ExtendedRational.finite(0)

    def test_outside_domain_is_plus_infinity(self):
        f = MaxAffine.from_pieces([(vec(1), F(0))], 1, domain=interval_set())
        assert f.value(vec(4)) == PLUS_INF
        with pytest.raises(OutsideDomain):
            f.finite_value(vec(4))

    def test_dimension_mismatch(self, interval_problem):
        with pytest.raises(DimensionMismatch):
            interval_problem.h.value(vec(0, 0))

    def test_convex_along_segments(self):
        rng = random.Random(3)
        for _ in range(20):
            prob = gens.random_dc_instance(rng)
            f = prob.g
            lo, hi = prob.C.bounding_box()
            a = tuple(
                l + F(rng.randint(0, 4), 4) * (u - l) for l, u in zip(lo, hi)
            )
            b = tuple(
                l + F(rng.randint(0, 4), 4) * (u - l) for l, u in zip(lo, hi)
            )
            mid = tuple((p + q) / 2 for p, q in zip(a, b))
            assert 2 * f.finite_value(mid) <= f.finite_value(a) + f.finite_value(b)


class TestObjectiveValue:
    def test_scales_the_point_once_with_the_values_of_g_and_h(self, monkeypatch):
        # dom g and dom h are boxes, so the grid around C reaches points
        # outside either domain and outside C: +inf, -inf and finite values
        g = MaxAffine(
            (((F(1), F(0)), F(0)), ((F(-1), F(1)), F(1))),
            PolyhedralSet.box([F(-1), F(-1)], [F(2), F(1)]),
        )
        h = MaxAffine(
            (((F(0), F(1)), F(0)), ((F(1), F(-1)), F(-1, 2))),
            PolyhedralSet.box([F(-2), F(-1, 2)], [F(1), F(2)]),
        )
        C = PolyhedralSet.box([F(-1), F(-1)], [F(1), F(1)])
        prob = DcProblem(g=g, h=h, C=C)
        grid = [vec(F(a, 2), F(b, 2)) for a in range(-5, 6) for b in range(-5, 6)]
        expected = [prob.g_plus_indicator.value(x) - prob.h.value(x) for x in grid]
        scaled = []
        original = model._scaled

        def counting(x):
            scaled.append(x)
            return original(x)

        monkeypatch.setattr(model, "_scaled", counting)
        assert [prob.objective_value(x) for x in grid] == expected
        assert len(scaled) == len(grid)
        signs = {value.sign for value in expected}
        assert signs == {-1, 0, 1}
        outside = next(x for x, v in zip(grid, expected) if not v.is_finite)
        with pytest.raises(OutsideDomain, match="^objective is not finite"):
            prob.finite_objective(outside)
        with pytest.raises(DimensionMismatch, match="point has length 1, expected 2"):
            prob.objective_value(vec(0))


class TestActiveIndices:
    def test_kink_by_evaluating_all_pieces(self, interval_problem):
        h = interval_problem.h
        # oracle: evaluate each piece at the probe points
        for x, expected in [(F(1), {2, 3}), (F(0), {2})]:
            values = [dot(u, (x,)) + alpha for u, alpha in h.pieces]
            top = max(values)
            oracle = {j + 1 for j, v in enumerate(values) if v == top}
            assert oracle == expected
            assert h.active_indices((x,)) == frozenset(expected)

    def test_single_piece(self):
        f = MaxAffine.constant(5, 2)
        assert f.active_indices(vec(0, 0)) == frozenset({1})

    def test_outside_domain_raises(self):
        f = MaxAffine.from_pieces([(vec(1), F(0))], 1, domain=interval_set())
        with pytest.raises(OutsideDomain):
            f.active_indices(vec(10))

    def test_active_set_shrinks_within_gap_radius(self):
        # inside the domain's interior, active sets can only shrink on a
        # ball whose radius is the smallest inactive gap over twice the
        # largest gradient size
        rng = random.Random(5)
        for _ in range(20):
            prob = gens.random_dc_instance(rng)
            f = prob.h
            lo, hi = prob.C.bounding_box()
            x = tuple((l + u) / 2 for l, u in zip(lo, hi))
            values = [dot(u, x) + alpha for u, alpha in f.pieces]
            top = max(values)
            gaps = [top - v for v in values if v != top]
            if not gaps:
                continue
            scale = 1 + 2 * max(
                sum(abs(c) for c in u) for u, _ in f.pieces
            )
            radius = min(gaps) / scale
            active = f.active_indices(x)
            for _ in range(8):
                direction = [F(rng.randint(-1, 1)) for _ in range(f.dimension)]
                probe = tuple(c + radius * d for c, d in zip(x, direction))
                assert f.active_indices(probe) <= active


class TestSubdifferential:
    def test_kink_hull(self, interval_problem):
        body = interval_problem.h.subdifferential(vec(1))
        assert body.points == (vec(0), vec(1))
        assert body.rays == () and body.lineality == ()
        assert body.contains(vec(F(1, 2)))
        assert not body.contains(vec(F(3, 2)))

    def test_smooth_region_single_gradient(self, interval_problem):
        body = interval_problem.h.subdifferential(vec(-2))
        assert body.points == (vec(-1),)

    def test_absolute_value_at_zero(self, abs_problem):
        body = abs_problem.h.subdifferential(vec(0))
        assert set(body.points) == {vec(1), vec(-1)}
        assert body.contains(vec(0))

    def test_domain_boundary_adds_normal_cone(self):
        f = MaxAffine.from_pieces([(vec(0), F(0))], 1, domain=interval_set())
        body = f.subdifferential(vec(3))
        assert body.points == (vec(0),)
        assert body.rays == (vec(1),)
        assert body.contains(vec(7)) and not body.contains(vec(-1))


class TestNormalCone:
    def test_right_endpoint(self):
        cone = interval_set().normal_cone(vec(3))
        assert cone.rays == (vec(1),)
        assert cone.contains(vec(5)) and not cone.contains(vec(-1))

    def test_interior_point_trivial_cone(self):
        cone = interval_set().normal_cone(vec(0))
        assert cone.rays == () and cone.lineality == ()
        assert cone.contains(vec(0)) and not cone.contains(vec(1))

    def test_affine_subspace_lineality(self):
        # row space of the single equality row spans the normals
        C = PolyhedralSet(2, equalities=((vec(1, 0), F(0)),))
        cone = C.normal_cone(vec(0, 5))
        assert cone.lineality == (vec(1, 0),)
        assert cone.contains(vec(-3, 0))
        assert not cone.contains(vec(0, 1))

    def test_outside_raises(self):
        with pytest.raises(OutsideDomain):
            interval_set().normal_cone(vec(4))


class TestMembershipAndInterior:
    def test_membership(self):
        C = interval_set()
        assert C.contains(vec(-2))
        assert not C.contains(vec(4))
        assert PolyhedralSet.whole_space(3).contains(vec(9, -9, 0))

    def test_interior(self):
        C = interval_set()
        assert C.is_interior_point(vec(0))
        assert not C.is_interior_point(vec(3))
        line = PolyhedralSet(2, equalities=((vec(1, 0), F(0)),))
        assert not line.is_interior_point(vec(0, 1))

    def test_tight_rows(self):
        C = interval_set()
        assert C.tight_rows(vec(0)) == []
        assert C.tight_rows([3]) == [vec(1)]
        assert C.tight_rows(vec(4)) is None
        segment = PolyhedralSet(
            2,
            equalities=((vec(1, 1), F(0)),),
            inequalities=((vec(1, 0), F(1)), (vec(-1, 0), F(1)), (vec(0, 1), F(1))),
        )
        # both rows tight at (-1, 1) in the order given; off the line: None
        assert segment.tight_rows(vec(-1, 1)) == [vec(-1, 0), vec(0, 1)]
        assert segment.tight_rows(vec(0, 1)) is None
        with pytest.raises(DimensionMismatch):
            C.tight_rows(vec(0, 0))


class TestBox:
    def test_bounds(self):
        box = PolyhedralSet.box([F(0), F(-1)], [F(1), F(2)])
        assert box.contains(vec(1, -1)) and not box.contains(vec(0, 3))

    def test_bounds_of_unequal_lengths(self):
        with pytest.raises(DimensionMismatch, match="length 2, expected 1"):
            PolyhedralSet.box((0,), (1, 2))
        with pytest.raises(DimensionMismatch, match="length 1, expected 2"):
            PolyhedralSet.box((0, 1), (1,))


class TestContainsSet:
    def test_whole_line_strictly_contains_interval(self):
        assert contains_set(
            PolyhedralSet.whole_space(1), interval_set(), strictly=True
        )

    def test_interval_not_strictly_inside_itself(self):
        assert not contains_set(interval_set(), interval_set(), strictly=True)
        assert contains_set(interval_set(), interval_set(), strictly=False)

    def test_per_constraint_maxima(self):
        inner = PolyhedralSet.box([F(0)], [F(1)])
        # per-constraint LP maxima over [0,1]: max x = 1 < 3, max -x = 0 < 2
        assert inner.support_value(vec(1)).as_fraction() == 1
        assert inner.support_value(vec(-1)).as_fraction() == 0
        assert contains_set(interval_set(), inner, strictly=True)

    def test_unbounded_inner_is_a_violation(self):
        assert not contains_set(interval_set(), PolyhedralSet.whole_space(1))


class TestRestrictSum:
    def test_constant_over_interval(self, interval_problem):
        f = restrict_sum(interval_problem.g, interval_problem.C)
        assert f.pieces == ((vec(0), F(0)),)
        assert f.value(vec(0)).as_fraction() == 0
        assert f.value(vec(4)) == PLUS_INF

    def test_domain_intersection(self):
        g = MaxAffine.from_pieces(
            [(vec(0), F(0))], 1, domain=PolyhedralSet.box([F(0)], [F(5)])
        )
        f = restrict_sum(g, interval_set())
        lo, hi = f.domain.bounding_box()
        assert (lo, hi) == (vec(0), vec(3))

    def test_whole_space_constraint_changes_nothing(self):
        g = MaxAffine.from_pieces([(vec(2), F(1))], 1)
        f = restrict_sum(g, PolyhedralSet.whole_space(1))
        assert f.pieces == g.pieces
        assert f.domain.is_whole_space

    def test_empty_intersection_rejected(self):
        g = MaxAffine.from_pieces(
            [(vec(0), F(0))], 1, domain=PolyhedralSet(1, inequalities=((vec(-1), F(-5)),))
        )
        with pytest.raises(EmptyIntersection):
            restrict_sum(g, PolyhedralSet(1, inequalities=((vec(1), F(-6)),)))


class TestLoadCheck:
    """dom(g) ∩ C is decided once per problem, at load; g + indicator(C)
    is built over that domain without testing it again."""

    def _g(self):
        # dom g = [-1, +inf) meets C = [-2, 3]
        return MaxAffine.from_pieces(
            [(vec(0), F(0)), (vec(1), F(-1))],
            1,
            domain=PolyhedralSet(1, inequalities=((vec(-1), F(1)),)),
        )

    def test_one_feasibility_lp_per_problem(self, monkeypatch):
        posed = []
        original = exactlp.lp_solve

        def counting(lp, lexmin=0):
            posed.append(lp)
            return original(lp, lexmin)

        monkeypatch.setattr(model, "lp_solve", counting)
        g = self._g()
        prob = DcProblem(g=g, h=MaxAffine.constant(0, 1), C=interval_set())
        f = prob.g_plus_indicator
        assert f.pieces == g.pieces
        assert f.domain.inequalities == (
            interval_set().inequalities + g.domain.inequalities
        )
        assert f.value(vec(2)) == ExtendedRational.finite(1)
        assert f.value(vec(-2)) == PLUS_INF
        assert len(posed) == 1

    def test_empty_intersection_message(self):
        with pytest.raises(
            EmptyIntersection,
            match="^standing assumption violated: dom\\(g\\) ∩ C is empty$",
        ):
            DcProblem(
                g=self._g(),
                h=MaxAffine.constant(0, 1),
                C=PolyhedralSet.box([F(-3)], [F(-2)]),
            )

    def test_dimension_checked_first(self):
        with pytest.raises(DimensionMismatch, match="share one dimension"):
            DcProblem(
                g=self._g(),
                h=MaxAffine.constant(0, 2),
                C=interval_set(),
            )


class TestConjugate:
    def test_support_function_of_interval(self, interval_problem):
        f = interval_problem.g_plus_indicator
        # sup over [-2,3] of 1.x is attained at an endpoint
        oracle = max(x for x in (F(-2), F(3)))
        assert f.conjugate_value(vec(1)) == ExtendedRational.finite(oracle)

    def test_nonnegative_function_vanishing_at_zero(self, interval_problem):
        h = interval_problem.h
        # h >= 0 everywhere with h(0) = 0, so sup(-h) = 0
        assert h.conjugate_value(vec(0)) == ExtendedRational.finite(0)

    def test_conjugate_of_affine_piece(self):
        f = MaxAffine.from_pieces([(vec(2), F(5))], 1)
        assert f.conjugate_value(vec(2)) == ExtendedRational.finite(-5)
        assert f.conjugate_value(vec(1)) == PLUS_INF

    def test_empty_domain_rejected(self):
        f = MaxAffine.from_pieces(
            [(vec(0), F(0))],
            1,
            domain=PolyhedralSet(
                1, inequalities=((vec(1), F(-1)), (vec(-1), F(0)))
            ),
        )
        with pytest.raises(ImproperFunction):
            f.conjugate_value(vec(0))

    def test_fenchel_young_exact(self):
        rng = random.Random(23)
        for _ in range(15):
            prob = gens.random_dc_instance(rng)
            f = prob.g_plus_indicator
            lo, hi = prob.C.bounding_box()
            x = tuple(
                l + F(rng.randint(0, 2), 2) * (u - l) for l, u in zip(lo, hi)
            )
            for _ in range(4):
                xi = vec(*[rng.randint(-3, 3) for _ in range(prob.dimension)])
                lhs = f.value(x) + f.conjugate_value(xi)
                assert lhs >= ExtendedRational.finite(dot(xi, x))

    def test_subgradient_iff_fenchel_young_equality(self):
        rng = random.Random(29)
        for _ in range(10):
            prob = gens.random_dc_instance(rng)
            f = prob.g_plus_indicator
            lo, hi = prob.C.bounding_box()
            x = tuple(
                l + F(rng.randint(0, 2), 2) * (u - l) for l, u in zip(lo, hi)
            )
            body = f.subdifferential(x)
            candidates = [u for u, _ in f.pieces]
            candidates += [
                vec(*[rng.randint(-2, 2) for _ in range(prob.dimension)])
                for _ in range(3)
            ]
            for xi in candidates:
                member = body.contains(xi)
                equality = f.value(x) + f.conjugate_value(
                    xi
                ) == ExtendedRational.finite(dot(xi, x))
                assert member == equality


class TestConvexBody:
    def test_segment_in_segment(self):
        P = ConvexBody(1, points=(vec(0), vec(1)))
        Q = ConvexBody(1, points=(vec(-1), vec(1)))
        assert P.issubset(Q)
        assert not Q.issubset(P)

    def test_segment_in_halfline(self):
        P = ConvexBody(1, points=(vec(0), vec(1)))
        Q = ConvexBody(1, points=(vec(0),), rays=(vec(1),))
        assert P.issubset(Q)
        assert not ConvexBody(1, points=(vec(-1), vec(0))).issubset(Q)

    def test_intersection_witness(self):
        P = ConvexBody(1, points=(vec(0), vec(1)))
        Q = ConvexBody(1, points=(vec(1), vec(2)))
        assert P.intersection_witness(Q) == vec(1)
        R = ConvexBody(1, points=(vec(2), vec(3)))
        assert P.intersection_witness(R) is None

    def test_minkowski_sum_with_cone(self):
        hull = ConvexBody(1, points=(vec(0),))
        cone = ConvexBody(1, points=(vec(0),), rays=(vec(1),))
        s = hull.minkowski_sum(cone)
        assert s.points == (vec(0),)
        assert s.rays == (vec(1),)

    def test_recession_with_lineality(self):
        body = ConvexBody(2, points=(vec(0, 0),), lineality=(vec(1, 0),))
        assert body.contains(vec(-7, 0))
        assert not body.contains(vec(0, 1))

    def test_fraction_generators_are_kept_others_coerced(self):
        point, ray = vec(1, F(-1, 2)), vec(0, 1)
        body = ConvexBody(2, points=(point,), rays=(ray,), lineality=[[1, "1/3"]])
        assert body.points[0] is point and body.rays[0] is ray
        assert body.lineality == (vec(1, F(1, 3)),)
        assert all(type(c) is Fraction for c in body.lineality[0])
        mixed = (F(1), 2)  # a tuple with an int in it is coerced too
        coerced = ConvexBody(2, points=((2, "3/4"), ["1", F(5)], mixed))
        assert coerced.points == (vec(2, F(3, 4)), vec(1, 5), vec(1, 2))
        assert [type(c) for g in coerced.points for c in g] == [Fraction] * 6
        for floats in ((0.5,), (Fraction(1), 0.5)):
            with pytest.raises(TypeError):
                ConvexBody(len(floats), points=(floats,))


# The Fraction evaluation that the integer kernel replaced, kept as the
# reference the kernel must agree with: same values, same positions, same
# tight rows in the same order.


def reference_tight_rows(S, x):
    for a, y in S.equalities:
        if dot(a, x) != y:
            return None
    tight = []
    for a, b in S.inequalities:
        value = dot(a, x)
        if value > b:
            return None
        if value == b:
            tight.append(a)
    return tight


def reference_at(f, x):
    tight = reference_tight_rows(f.domain, x)
    if tight is None:
        return None
    values = [dot(u, x) + alpha for u, alpha in f.pieces]
    top = max(values)
    return top, [j for j, v in enumerate(values) if v == top], tight


def reference_piece_contains(piece, x):
    if reference_tight_rows(piece.closed_part, x) is None:
        return False
    at = reference_at(piece.h, x)
    return at is not None and all(j + 1 in piece.J1 for j in at[1])


def small_rational(rng, lo, hi):
    """A rational in [lo, hi] with a denominator from 2 to 7."""
    q = rng.randint(2, 7)
    return F(rng.randint(lo * q, hi * q), q)


def small_vector(rng, n, lo=-2, hi=2):
    return tuple([small_rational(rng, lo, hi) for _ in range(n)])


def rows_around(rng, center, equalities, inequalities):
    """A set through `center`: every equality and about half of the
    inequalities tight there, the others slack by a small rational."""
    n = len(center)
    eqs = []
    for _ in range(equalities):
        a = small_vector(rng, n)
        eqs.append((a, dot(a, center)))
    ineqs = []
    for _ in range(inequalities):
        a = small_vector(rng, n)
        slack = F(0) if rng.random() < 0.5 else small_rational(rng, 0, 2)
        ineqs.append((a, dot(a, center) + slack))
    return PolyhedralSet(n, eqs, ineqs)


def probe_points(rng, center):
    """Points inside, on the boundary of and outside a set through
    `center`, several with large denominators."""
    n = len(center)
    points = [center]
    for step in (F(1, 7), F(-1, 3), F(3), F(1, 10007), F(-5, 999983), F(1, 2**61 - 1)):
        direction = small_vector(rng, n)
        points.append(tuple([c + step * v for c, v in zip(center, direction)]))
    points.append(small_vector(rng, n, -3, 3))
    points.append(tuple([F(rng.randint(-10**12, 10**12), 10**12 + 39) for _ in range(n)]))
    return points


def assert_same_evaluation(f, x):
    point = model._scaled(x)
    expected = reference_at(f, x)
    got = f._at(point)
    assert got == expected
    if got is not None:
        assert type(got[0]) is Fraction
        # the tight rows are the set's own Fraction vectors
        assert all(r is e for r, e in zip(got[2], expected[2]))
    tight = f.domain._tight_rows(point)
    assert tight == reference_tight_rows(f.domain, x)


class TestIntegerKernel:
    """`PolyhedralSet._tight_rows`, `MaxAffine._at` and
    `SemiClosedPiece.contains` on integers agree with the Fraction
    evaluation above."""

    def test_seeded_rows_and_pieces(self):
        rng = random.Random(41)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(1, 3)
            center = small_vector(rng, n)
            domain = rows_around(rng, center, rng.randint(0, n - 1), rng.randint(0, 4))
            pieces = list(dict.fromkeys(
                (small_vector(rng, n), small_rational(rng, -2, 2))
                for _ in range(rng.randint(1, 4))
            ))
            if rng.random() < 0.3:  # a tie: two pieces agree at the center
                u = small_vector(rng, n)
                alpha = pieces[0][1] + dot(pieces[0][0], center) - dot(u, center)
                if (u, alpha) not in pieces:
                    pieces.append((u, alpha))
            f = MaxAffine.from_pieces(pieces, n, domain=domain)
            for x in probe_points(rng, center):
                assert_same_evaluation(f, x)
                at = reference_at(f, x)
                outcomes.add(
                    "outside" if at is None
                    else ("tight" if at[2] else "inside", len(at[1]) > 1)
                )
        # the seeds reach every case: outside, boundary and interior points,
        # with one and with several active pieces
        assert outcomes >= {
            "outside", ("tight", False), ("inside", False), ("tight", True), ("inside", True)
        }

    def test_whole_space_and_integer_data(self):
        f = MaxAffine.from_pieces([(vec(1, 0), F(0)), (vec(0, 1), F(0))], 2)
        for x in (vec(0, 0), vec(F(1, 3), F(1, 3)), vec(-5, F(7, 2))):
            assert_same_evaluation(f, x)
        assert f._at(model._scaled(vec(F(1, 3), F(1, 3)))) == (F(1, 3), [0, 1], [])

    def test_semi_closed_pieces(self):
        rng = random.Random(43)
        pieces_seen = 0
        for _ in range(12):
            n = rng.randint(1, 2)
            lower = small_vector(rng, n, -2, 0)
            upper = tuple([l + small_rational(rng, 1, 2) for l in lower])
            C = PolyhedralSet.box(lower, upper)
            margin = small_rational(rng, 1, 2)
            wide = PolyhedralSet.box(
                [l - margin for l in lower], [u + margin for u in upper]
            )
            # dom h: a box around C with one slanted row through a corner of
            # the wide box, strictly away from C
            a = tuple([F(1, 2)] * n)
            dom_h = wide.intersect(
                PolyhedralSet(n, inequalities=((a, dot(a, upper) + margin / 2),))
            )
            dom_g = wide if rng.random() < 0.5 else PolyhedralSet.whole_space(n)
            g = MaxAffine.from_pieces(
                list(dict.fromkeys(
                    (small_vector(rng, n), small_rational(rng, -1, 1))
                    for _ in range(rng.randint(1, 2))
                )),
                n,
                domain=dom_g,
            )
            h = MaxAffine.from_pieces(
                list(dict.fromkeys(
                    (small_vector(rng, n), small_rational(rng, -1, 1))
                    for _ in range(rng.randint(2, 3))
                )),
                n,
                domain=dom_h,
            )
            prob = DcProblem(g=g, h=h, C=C)
            step = [(u - l) / 6 for l, u in zip(lower, upper)]
            grid = [
                tuple([l + k * s for l, k, s in zip(lower, ks, step)])
                for ks in itertools.product(range(-1, 8), repeat=n)
            ]
            for piece in local_pieces(prob):
                pieces_seen += 1
                points = grid + probe_points(rng, piece.witness)
                for x in points:
                    assert piece.contains(x) == reference_piece_contains(piece, x)
                    assert_same_evaluation(piece.h, x)
        assert pieces_seen >= 12

    def test_equality_rows(self):
        line = PolyhedralSet(
            2,
            equalities=((vec(F(1, 3), F(-2, 5)), F(1, 7)),),
            inequalities=((vec(1, 0), F(3, 2)), (vec(-1, 0), F(5, 3))),
        )
        f = MaxAffine.from_pieces(
            [(vec(F(3, 2), F(1, 3)), F(1, 5)), (vec(F(-1, 2), 0), F(-2, 7))],
            2,
            domain=line,
        )
        on_line = vec(F(3, 7), 0)  # 1/3 * 3/7 = 1/7
        assert line.contains(on_line)
        for x in (on_line, vec(F(3, 2), F(25, 28)), vec(F(3, 7), F(1, 10**9)), vec(0, 0)):
            assert_same_evaluation(f, x)
        assert f._at(model._scaled(vec(F(3, 2), F(25, 28)))) is not None


class TestPoint:
    """`model._Point`: x coerced and scaled once, and g, h and C evaluated
    on first read, equal to the Fraction references above."""

    def test_seeded_points_match_the_references(self):
        rng = random.Random(47)
        outside = set()
        for _ in range(60):
            n = rng.randint(1, 3)
            center = small_vector(rng, n)

            def function():
                pieces = dict.fromkeys(
                    (small_vector(rng, n), small_rational(rng, -2, 2))
                    for _ in range(rng.randint(1, 3))
                )
                domain = rows_around(rng, center, rng.randint(0, 1), rng.randint(0, 3))
                return MaxAffine.from_pieces(list(pieces), n, domain=domain)

            g, h = function(), function()
            C = rows_around(rng, center, rng.randint(0, n - 1), rng.randint(1, 4))
            prob = DcProblem(g=g, h=h, C=C)
            for x in probe_points(rng, center):
                point = prob._point(x)
                assert point.x == x and point.scaled == model._scaled(x)
                at_g, at_h = reference_at(g, x), reference_at(h, x)
                tight = reference_tight_rows(C, x)
                assert (point.g, point.h, point.C) == (at_g, at_h, tight)
                if tight is None or at_g is None:
                    expected = PLUS_INF
                elif at_h is None:
                    expected = MINUS_INF
                else:
                    expected = ExtendedRational.finite(at_g[0] - at_h[0])
                assert point.objective == expected == prob.objective_value(x)
                assert expected == prob.g_plus_indicator.value(x) - h.value(x)
                if expected.is_finite:
                    assert prob.finite_objective(x) == expected.as_fraction()
                else:
                    with pytest.raises(OutsideDomain, match="^objective is not"):
                        prob.finite_objective(x)
                for name, at in zip(("dom(g)", "dom(h)", "C"), (at_g, at_h, tight)):
                    if at is None:
                        outside.add(name)
        assert outside == {"dom(g)", "dom(h)", "C"}

    def test_each_evaluation_made_once_on_first_read(self, monkeypatch):
        prob = gens.interval_problem()
        calls = gens.count_evaluations(monkeypatch)
        point = prob._point(vec(F(1, 2)))
        assert not calls  # nothing is evaluated before it is read
        for _ in range(2):
            assert point.h == (F(0), [1], [])
        evaluated = {(id(S), point.scaled): 1 for S in (prob.h, prob.h.domain)}
        assert calls == evaluated
        assert point.objective == point.objective == ExtendedRational.finite(0)
        for S in (prob.g, prob.g.domain, prob.C):
            evaluated[(id(S), point.scaled)] = 1
        assert calls == evaluated
        alone = model._Point(vec(F(1, 2)), prob.h)  # a point of h alone
        assert alone.h == point.h and alone.functions == (prob.h, None, None)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def functions_and_points(draw):
    n = draw(st.integers(1, 3))
    vectors = st.tuples(*[rationals] * n)
    pieces = draw(st.lists(st.tuples(vectors, rationals), min_size=1, max_size=4))
    equalities = draw(st.lists(st.tuples(vectors, rationals), max_size=1))
    inequalities = draw(st.lists(st.tuples(vectors, rationals), max_size=4))
    big = st.fractions(min_value=-4, max_value=4, max_denominator=10**15)
    points = draw(st.lists(st.one_of(vectors, st.tuples(*[big] * n)), min_size=1, max_size=4))
    domain = PolyhedralSet(n, equalities, inequalities)
    f = MaxAffine.from_pieces(list(dict.fromkeys(pieces)), n, domain=domain)
    return f, points


@settings(max_examples=100, deadline=None, database=None)
@given(functions_and_points())
def test_integer_kernel_matches_fractions(case):
    f, points = case
    for x in points:
        assert_same_evaluation(f, tuple(x))


@st.composite
def sets_to_intersect(draw):
    """Two to four sets of one dimension, rows with denominators up to 12,
    and for each whether its integer rows are asked for before joining."""
    n = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[rationals] * n), rationals)
    sets = [
        PolyhedralSet(
            n,
            draw(st.lists(row, max_size=2)),
            draw(st.lists(row, max_size=4)),
        )
        for _ in range(draw(st.integers(2, 4)))
    ]
    return sets, draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))


@settings(max_examples=100, deadline=None, database=None)
@given(sets_to_intersect())
def test_intersection_joins_the_integer_rows_of_its_operands(case):
    sets, scaled_first = case
    for S, first in zip(sets, scaled_first):
        if first:
            S._integer_rows
    joined = sets[0]
    for S in sets[1:]:
        joined = joined.intersect(S)
        assert "_integer_rows" not in joined.__dict__  # nothing scaled yet
    recomputed = tuple(
        tuple([exactlp.integer_row(a, b) for a, b in rows])
        for rows in (joined.equalities, joined.inequalities)
    )
    assert joined._integer_rows == recomputed
    assert joined == PolyhedralSet(
        joined.dimension, joined.equalities, joined.inequalities
    )
    for A, B, s in recomputed[0] + recomputed[1]:
        assert s >= 1 and all(type(c) is int for c in A + (B,))


def random_parts(rng):
    """A target and one or two generator parts, of random signs, for
    `model._weights`; at least one generator in all."""
    n = rng.randint(1, 3)
    while True:
        parts = []
        for sign in rng.sample((1, -1), rng.randint(1, 2)):
            points, rays, lineality = (
                tuple([small_vector(rng, n) for _ in range(rng.randint(0, 2))])
                for _ in range(3)
            )
            parts.append((sign, points, rays, lineality))
        if any(any(part[1:]) for part in parts):
            return small_vector(rng, n), parts


class TestLpsFromIntegerRows:
    """Every LP the package poses from the integer rows its sets and
    functions hold has the objective, the integer rows and the outcome of
    the LP the `LinearProgram` constructor builds from the same `Fraction`
    rows (`gens.reference_*`), and none scales a rational row."""

    def test_weight_lps(self, monkeypatch):
        rng = random.Random(2207)
        posed = gens.record_integer_lps(monkeypatch, model)
        seen = set()
        for _ in range(300):
            target, parts = random_parts(rng)
            del posed[:]
            weights = model._weights(target, *parts)
            (lp,) = posed
            outcome = gens.assert_same_lp(lp, gens.reference_weights(target, *parts))
            assert weights == (outcome.point if outcome.is_optimal else None)
            consistent = exactlp._eliminate_equalities(lp.equalities, lp.dimension)
            seen.add((consistent is not None, outcome.status))
        # inconsistent equalities among them, which scale no sign row
        assert seen >= {
            (False, exactlp.LpStatus.INFEASIBLE),
            (True, exactlp.LpStatus.INFEASIBLE),
            (True, exactlp.LpStatus.OPTIMAL),
        }, seen

    def test_set_lps(self):
        rng = random.Random(2208)
        for _ in range(100):
            n = rng.randint(1, 3)
            S = rows_around(
                rng, small_vector(rng, n), rng.randint(0, 1), rng.randint(0, 4)
            )
            T = rows_around(rng, small_vector(rng, n), 0, rng.randint(0, 3))
            for X in (S, T, S.intersect(T)):
                objective = small_vector(rng, n)
                reference = gens.reference_set_lp(X, objective)
                outcome = gens.assert_same_lp(X._lp(objective), reference)
                if outcome.status is exactlp.LpStatus.INFEASIBLE:
                    assert X.is_empty()
                    with pytest.raises(EmptyIntersection):
                        X.support_value(objective)
                else:
                    assert X.feasible_point() is not None
                    value = X.support_value(tuple(-c for c in objective))
                    assert value == (
                        PLUS_INF if outcome.value is None
                        else ExtendedRational.finite(-outcome.value)
                    )

    def test_epigraph_lps(self):
        rng = random.Random(2209)
        for _ in range(100):
            n = rng.randint(1, 3)
            domain = rows_around(
                rng, small_vector(rng, n), rng.randint(0, 1), rng.randint(0, 3)
            )
            pieces = {
                (small_vector(rng, n), small_rational(rng, -2, 2)): None
                for _ in range(rng.randint(1, 4))
            }
            f = MaxAffine.from_pieces(list(pieces), n, domain=domain)
            C = rows_around(rng, small_vector(rng, n), 0, rng.randint(0, 3))
            restricted = MaxAffine(f.pieces, C.intersect(domain))
            xi = small_vector(rng, n)
            for function, over in ((f, None), (f, C), (restricted, None)):
                gens.assert_same_lp(
                    function.epigraph_lp(xi, over),
                    gens.reference_epigraph_lp(function, xi, over),
                )

    def test_no_layer_scales_rational_rows(self, monkeypatch):
        scaled, weighed = [], []
        scale, weights = exactlp._scale, model._weights

        def counting_scale(rows):
            scaled.append(rows)
            return scale(rows)

        def counting_weights(*args):
            weighed.append(args)
            return weights(*args)

        monkeypatch.setattr(exactlp, "_scale", counting_scale)
        monkeypatch.setattr(model, "_weights", counting_weights)
        rng = random.Random(2210)
        problems = [gens.random_grid_instance(rng) for _ in range(6)]
        problems += [gens.random_dc_instance(rng, n_max=2) for _ in range(6)]
        for prob in problems:
            solution_structure(prob)
            toland_singer_check(prob)
            lo, hi = prob.C.bounding_box()
            for x in (lo, hi, tuple((a + b) / 2 for a, b in zip(lo, hi))):
                classify(prob, x, compute_global=True)
                trace = run(prob, x, MinIndexActive())
                xis = [it.xi for it in trace.iterates]
                validate_trace(prob, trace.points, xis[:-1])
                dual_objective(prob, xis[0])
                # the mean of the gradients active at x: a weight LP
                active = sorted(prob.h.active_indices(x))
                mean = tuple(
                    sum(prob.h.piece(j)[0][d] for j in active) / len(active)
                    for d in range(prob.dimension)
                )
                try:
                    run(prob, x, Scripted((mean, small_vector(rng, prob.dimension))))
                except InvalidSelection:
                    pass
            grid_cross_check(prob, Fraction(1, 2))
            box = PolyhedralSet.box(lo, hi)
            for outer, inner in ((prob.C, box), (box, prob.C), (box, prob.g.domain)):
                model.containment_violation(outer, inner)
                model.containment_violation(outer, inner, strictly=True)
            lp = prob.g.epigraph_lp(xis[0], prob.C)
            optimality_certificate(lp, exactlp.lp_solve(lp))
        assert scaled == []
        assert weighed  # the weight-LP path was taken


def reference_containment_violation(outer, inner, strictly=False):
    """`model.containment_violation` with one LP per support value, as it
    was before every row was asked of one LP over inner."""
    if inner.is_empty():
        raise EmptyIntersection("containment test requires a nonempty inner set")
    for k, (a, y) in enumerate(outer.equalities):
        if strictly and any(c != 0 for c in a):
            return f"equality #{k} is a proper affine constraint (empty interior)"
        hi, lo = inner.support_value(a), inner.support_value(tuple(-c for c in a))
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


class TestOneStartPerSetQuestion:
    """`bounding_box` and a containment check ask every direction and row
    of one LP over the set, so each prepares one start (`exactlp._prepare`),
    and their answers and messages are those of one LP per question."""

    def _counting_prepares(self, monkeypatch):
        prepared = []
        prepare = exactlp._prepare

        def counting(*args):
            prepared.append(args)
            return prepare(*args)

        monkeypatch.setattr(exactlp, "_prepare", counting)
        return prepared

    def test_bounding_box_of_the_bundled_problems(self, monkeypatch):
        problems = gens.bundled_problems()  # loading them poses their own LPs
        prepared = self._counting_prepares(monkeypatch)
        for prob in problems:
            del prepared[:]
            lows, highs = prob.C.bounding_box()
            assert len(prepared) == 1  # 2n, one per direction, at the parent
            n = prob.dimension
            for i in range(n):
                e = tuple(F(int(k == i)) for k in range(n))
                assert prob.C.support_value(e).as_fraction() == highs[i]
                assert prob.C.support_value(tuple(-c for c in e)) == (
                    ExtendedRational.finite(-lows[i])
                )

    def test_containment_checks(self, monkeypatch):
        rng = random.Random(2211)
        prepared = self._counting_prepares(monkeypatch)
        verdicts = set()
        for _ in range(150):
            n = rng.randint(1, 3)
            center = small_vector(rng, n)
            inner = rows_around(rng, center, rng.randint(0, 1), rng.randint(0, 4))
            near = tuple(c + small_rational(rng, -1, 1) for c in center)
            outer = rows_around(
                rng, rng.choice((center, near)), rng.randint(0, 1), rng.randint(0, 4)
            )
            for strictly in (False, True):
                del prepared[:]
                got = model.containment_violation(outer, inner, strictly)
                assert len(prepared) == 1
                assert got == reference_containment_violation(outer, inner, strictly)
                verdicts.add(got and got.split(" #")[0])
        assert verdicts == {None, "equality", "inequality"}, verdicts
        empty = PolyhedralSet(1, inequalities=((vec(1), F(0)), (vec(-1), F(-1))))
        with pytest.raises(EmptyIntersection, match="requires a nonempty inner set"):
            model.containment_violation(interval_set(), empty)
        with pytest.raises(EmptyIntersection, match="support value of an empty set"):
            empty.bounding_box()

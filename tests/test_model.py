"""Model layer: evaluation, active sets, subdifferentials, cones, conjugates."""

import random
from fractions import Fraction

import pytest

from polydc import (
    ConvexBody,
    DcProblem,
    DimensionMismatch,
    EmptyIntersection,
    ImproperFunction,
    MaxAffine,
    OutsideDomain,
    PLUS_INF,
    PolyhedralSet,
    contains_set,
    restrict_sum,
)
from polydc import exactlp
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

        monkeypatch.setattr(exactlp, "lp_solve", counting)
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

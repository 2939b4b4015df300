"""Grid-oracle cross-checks, including problems outside the hypotheses."""

import random
from fractions import Fraction

import pytest

from polydc import (
    DcProblem,
    MaxAffine,
    PolydcError,
    PolyhedralSet,
    grid_cross_check,
)
from polydc import gridcheck

import gens
from gens import vec

F = Fraction


def test_interval_problem_checks_out(interval_problem):
    report = grid_cross_check(interval_problem, F(1, 8))
    assert report.ok
    assert report.pieces_checked
    assert report.points_in_set == 41


def test_grid_is_walked_once(interval_problem, monkeypatch):
    walks = []
    original = gridcheck._grid_points

    def counting(prob, step):
        walks.append(step)
        return original(prob, step)

    monkeypatch.setattr(gridcheck, "_grid_points", counting)
    report = grid_cross_check(interval_problem, F(1, 8))
    assert (report.points_in_set, len(walks)) == (41, 1)


def test_random_grid_instances_check_out():
    rng = random.Random(83)
    for _ in range(5):
        prob = gens.random_grid_instance(rng)
        report = grid_cross_check(prob, F(1, 8))
        assert report.ok, report.failures[:3]
        assert report.pieces_checked


def test_restricted_dom_h_skips_piece_union():
    # dom(h) = [0, oo) only touches C's boundary, so the decomposition
    # hypotheses fail; the per-point checks still run and pass
    h = MaxAffine.from_pieces(
        [(vec(1), F(0))],
        1,
        domain=PolyhedralSet(1, inequalities=((vec(-1), F(0)),)),
    )
    prob = DcProblem(
        g=MaxAffine.constant(0, 1),
        h=h,
        C=PolyhedralSet.box([F(0)], [F(1)]),
    )
    report = grid_cross_check(prob, F(1, 8))
    assert not report.pieces_checked
    assert report.ok


def test_dimension_and_step_guards(interval_problem):
    with pytest.raises(PolydcError):
        grid_cross_check(interval_problem, F(0))
    three = DcProblem(
        g=MaxAffine.constant(0, 3),
        h=MaxAffine.constant(0, 3),
        C=PolyhedralSet.box([F(0)] * 3, [F(1)] * 3),
    )
    with pytest.raises(PolydcError):
        grid_cross_check(three, F(1, 2))


def test_unbounded_set_is_rejected(abs_problem):
    with pytest.raises(PolydcError):
        grid_cross_check(abs_problem, F(1, 8))

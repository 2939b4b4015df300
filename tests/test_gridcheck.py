"""Grid-oracle cross-checks, including problems outside the hypotheses."""

import pathlib
import random
from fractions import Fraction

import pytest

from polydc import (
    DcProblem,
    MaxAffine,
    PolydcError,
    PolyhedralSet,
    grid_cross_check,
    parse_problem,
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


def test_each_grid_point_is_evaluated_once(monkeypatch):
    root = pathlib.Path(__file__).resolve().parent.parent
    prob = parse_problem(
        (root / "problems" / "two_dim_vee.json").read_text(encoding="utf-8")
    )
    calls = []
    original = DcProblem.objective_value

    def counting(self, x):
        calls.append(tuple(x))
        return original(self, x)

    monkeypatch.setattr(DcProblem, "objective_value", counting)
    report = grid_cross_check(prob, F(1, 8))
    assert report.ok and report.points_in_set == 425
    # 3,577 calls when every in-C neighbour was evaluated again
    assert len(calls) == len(set(calls)) == 425

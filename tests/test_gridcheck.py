"""Grid-oracle cross-checks, including problems outside the hypotheses."""

import dataclasses
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
from polydc.optimality import LocalStatus

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
    """Every function and set is evaluated at most once per distinct point
    of a call (`MaxAffine._at`, `PolyhedralSet._tight_rows`): the
    classifier, the objective, the descent probes and the piece tests read
    one point."""
    evaluated = {}
    for name in ("interval", "two_dim_vee", "narrow_cone"):
        path = gens.PROBLEMS / f"{name}.json"
        prob = parse_problem(path.read_text(encoding="utf-8"))
        with monkeypatch.context() as patch:
            calls = gens.count_evaluations(patch)
            report = grid_cross_check(prob, F(1, 8))
        assert report.ok and max(calls.values()) == 1, name
        evaluated[name] = sum(key[0] == id(prob.h) for key in calls)
        if name == "two_dim_vee":
            assert report.points_in_set == 425
    # 127, 854 and 594 evaluations of h when each reader evaluated afresh
    assert evaluated == {"interval": 41, "two_dim_vee": 425, "narrow_cone": 296}


def test_descent_off_the_grid_directions_is_found(capsys):
    # f = 2|x1 - 2 x2| - x1 descends along (2, 1) only, which is no grid
    # direction: on the kink line no grid neighbour is better, and the
    # evidence is the point one step toward the minimizer of g - h_1
    from polydc.cli import main

    path = gens.PROBLEMS / "narrow_cone.json"
    report = grid_cross_check(parse_problem(path.read_text(encoding="utf-8")), F(1, 8))
    assert report.ok, report.failures[:3]
    assert report.points_in_set == 289
    assert main(["verify", "--problem", str(path), "--grid-step", "1/8"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_general_instances_check_out():
    # kinks of g and h at any angle: a better neighbour past a breakpoint
    # of f is no evidence against a local solution, and a descent cone may
    # hold no grid direction; among these, both showed as false failures
    rng = random.Random(5)
    for _ in range(80):
        prob = gens.random_dc_instance(rng, n_max=2)
        report = grid_cross_check(prob, F(1, 4))
        assert report.ok, (prob, report.failures[:3])


def test_proper_domains_check_out(monkeypatch):
    # rows of dom g, dom h and C through quarter-grid points: the grid
    # checks every verdict, and the local-minimum oracle meets points that
    # are local solutions on the boundary of dom h
    verdicts = []
    _patched(monkeypatch, lambda x, result: verdicts.append(result) or result)
    rng = random.Random(2703)
    proper = 0  # problems whose dom g and dom h both have rows; C always has
    while proper < 60:
        prob = gens.with_domains(rng, gens.random_dc_instance(rng, n_max=2))
        proper += not (prob.g.domain.is_whole_space or prob.h.domain.is_whole_space)
        report = grid_cross_check(prob, F(1, 4))
        assert report.ok, (prob, report.failures[:3])
    assert any(
        v.local is LocalStatus.YES and not v.hypothesis_flags.interior_dom_h
        for v in verdicts
    )


def _patched(monkeypatch, wrong):
    """gridcheck's classifier with `wrong(x, result)` applied; it is handed
    the point of x (`model._Point`)."""
    original = gridcheck._classify

    def patched(prob, point):
        return wrong(point.x, original(prob, point))

    monkeypatch.setattr(gridcheck, "_classify", patched)


def test_wrong_local_verdict_fails(interval_problem, monkeypatch):
    # every point called a stationary local solution, the chain intact:
    # at x = 2, where f = 1 - x, the segment to 2 + 1/8 descends
    def local_everywhere(point, result):
        return dataclasses.replace(
            result, critical=True, stationary=True, local=LocalStatus.YES
        )

    _patched(monkeypatch, local_everywhere)
    report = grid_cross_check(interval_problem, F(1, 8))
    flagged = {f.point for f in report.failures if f.check == "local-minimum"}
    assert (F(2),) in flagged
    assert (F(0),) not in flagged  # f is flat on [-1, 1]


def test_wrong_stationary_verdict_fails(interval_problem, monkeypatch):
    # 0 is stationary (f is flat on [-1, 1]); called non-stationary, it has
    # no better neighbour and lies in the optimal face of its active piece
    def not_stationary_at_0(point, result):
        if point != (F(0),):
            return result
        return dataclasses.replace(result, stationary=False, local=LocalStatus.NO)

    _patched(monkeypatch, not_stationary_at_0)
    report = grid_cross_check(interval_problem, F(1, 8))
    assert {(f.point, f.check) for f in report.failures} == {
        ((F(0),), "descent"),
        ((F(0),), "piece-union"),
    }

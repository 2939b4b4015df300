"""Dual objective values, equal-optimal-value checks, conjugate identities."""

import random
from fractions import Fraction

import pytest

from polydc import (
    DcProblem,
    DualReport,
    MaxAffine,
    MaxIndexActive,
    MinIndexActive,
    MINUS_INF,
    PLUS_INF,
    PolyhedralSet,
    dual_objective,
    run,
    toland_singer_check,
)
from polydc import exactlp, model, structure
from polydc.cli import parse_problem, serialize_problem
from polydc.exactlp import ExtendedRational, dot, lp_solve
from polydc.model import InternalCheckFailed
from polydc.structure import HypothesisNotMet, global_solutions, solve_linearization

import gens
from gens import vec

F = Fraction


class TestDualObjective:
    def test_steep_gradient(self, interval_problem):
        # h*(1) = sup(x - h(x)) = 1 (attained for x >= 1);
        # (g + indicator)*(1) = sup over [-2,3] of x = 3
        assert interval_problem.h.conjugate_value(vec(1)) == (
            ExtendedRational.finite(1)
        )
        assert interval_problem.g_plus_indicator.conjugate_value(vec(1)) == (
            ExtendedRational.finite(3)
        )
        assert dual_objective(interval_problem, vec(1)) == (
            ExtendedRational.finite(-2)
        )

    def test_zero_gradient(self, interval_problem):
        # h*(0) = -min h = 0 and (g + indicator)*(0) = 0
        assert dual_objective(interval_problem, vec(0)) == (
            ExtendedRational.finite(0)
        )

    def test_outside_dual_domain(self, interval_problem):
        # slopes of h live in [-1, 1], so h*(2) = +inf while the conjugate
        # of g + indicator stays finite: the difference is +inf
        assert interval_problem.h.conjugate_value(vec(2)) == PLUS_INF
        assert interval_problem.g_plus_indicator.conjugate_value(
            vec(2)
        ).is_finite
        assert dual_objective(interval_problem, vec(2)) == PLUS_INF

    def test_doubly_infinite_convention(self, abs_problem):
        # over the whole line both conjugates blow up at xi = 5; the DC
        # convention makes (+inf) - (+inf) = +inf
        assert abs_problem.h.conjugate_value(vec(5)) == PLUS_INF
        assert abs_problem.g_plus_indicator.conjugate_value(vec(5)) == PLUS_INF
        assert dual_objective(abs_problem, vec(5)) == PLUS_INF


class TestTolandSinger:
    def test_interval_attainment(self, interval_problem):
        report = toland_singer_check(interval_problem)
        assert report.primal_value == ExtendedRational.finite(-2)
        assert report.attained_at == vec(1)
        assert all(v >= report.primal_value for _, v in report.candidates)

    def test_trivial_problem(self):
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.constant(0, 1),
            C=PolyhedralSet.box([F(0)], [F(1)]),
        )
        report = toland_singer_check(prob)
        assert report.primal_value == ExtendedRational.finite(0)
        assert report.attained_at == vec(0)

    def test_unbounded_problem(self):
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.from_pieces([(vec(1), F(0)), (vec(0), F(0))], 1),
            C=PolyhedralSet.whole_space(1),
        )
        report = toland_singer_check(prob)
        assert report.primal_value == MINUS_INF
        # the dual is unbounded through the same gradient
        assert report.attained_at == vec(1)
        assert all(v >= MINUS_INF for _, v in report.candidates)

    def test_unbounded_vee(self, abs_problem):
        # f = -|x| on the line: both linearized subproblems diverge
        report = toland_singer_check(abs_problem)
        assert report.primal_value == MINUS_INF
        assert report.attained_at == vec(1)

    def test_weak_duality_on_random_instances(self):
        rng = random.Random(67)
        for _ in range(15):
            prob = gens.random_dc_instance(rng)
            report = toland_singer_check(prob)
            for _, value in report.candidates:
                assert value >= report.primal_value


    def test_each_candidate_is_scored_once(self, interval_problem, monkeypatch):
        # one h* LP per candidate; the conjugate of g + indicator(C) comes
        # from the q linearizations, each of which is one LP on its rows
        conjugates, epigraph_solves = [], []
        conjugate_value = MaxAffine.conjugate_value

        def counting_conjugate(f, xi):
            conjugates.append((f, xi))
            return conjugate_value(f, xi)

        def counting_solve(lp, **kwargs):
            epigraph_solves.append(lp._rows)
            return lp_solve(lp, **kwargs)

        monkeypatch.setattr(MaxAffine, "conjugate_value", counting_conjugate)
        for module in (exactlp, model, structure):
            monkeypatch.setattr(module, "lp_solve", counting_solve)
        rng = random.Random(61)
        problems = [interval_problem] + [gens.random_dc_instance(rng) for _ in range(6)]
        for prob in problems:
            g_plus_rows = prob.g_plus_indicator._epigraph._rows
            del conjugates[:], epigraph_solves[:]
            report = toland_singer_check(prob)
            assert conjugates == [(prob.h, xi) for xi, _ in report.candidates]
            q = len(prob.h.pieces)
            assert sum(rows is g_plus_rows for rows in epigraph_solves) == q

    def test_h_conjugate_at_its_gradients_is_kept_per_function(self):
        # h*(v) at each distinct piece gradient v, in piece order, built
        # once; a repeated gradient and a bounded dom h are included
        boxed = MaxAffine.from_pieces(
            [(vec(1), F(0)), (vec(-1), F(0)), (vec(1), F(1)), (vec(0), F(-1))],
            1,
            domain=PolyhedralSet.box([F(-4)], [F(4)]),
        )
        rng = random.Random(1709)
        functions = [boxed] + [prob.h for prob in gens.bundled_problems()]
        functions += [gens.random_dc_instance(rng).h for _ in range(30)]
        for h in functions:
            cached = h._conjugate_at_gradients
            gradients = [u for u, _ in h.pieces]
            assert list(cached) == list(dict.fromkeys(gradients))
            assert all(cached[u] == h.conjugate_value(u) for u in gradients)
            assert h._conjugate_at_gradients is cached
        assert len(boxed._conjugate_at_gradients) == 3

    def test_report_matches_the_dca_and_dual_objective_reference(self):
        """On 200 seeded instances, the bundled problems and the worked
        ones, the report equals that of the pool of piece gradients plus
        every subgradient of a DCA run from a global solution witness, each
        scored by `dual_objective`."""
        rng = random.Random(97)
        problems = gens.bundled_problems()
        problems += [gens.interval_problem(), gens.abs_problem()]
        problems += [gens.random_dc_instance(rng) for _ in range(200)]
        for prob in problems:
            assert toland_singer_check(prob) == _reference_report(prob)

    def test_unattained_primal_value_is_named(self, interval_problem, monkeypatch):
        # raising h* lifts every dual value above the finite alpha_bar = -2
        conjugate_value = MaxAffine.conjugate_value

        def raised(f, xi):
            value = conjugate_value(f, xi)
            return value + ExtendedRational.finite(1) if f is prob.h else value

        prob = interval_problem
        monkeypatch.setattr(MaxAffine, "conjugate_value", raised)
        with pytest.raises(InternalCheckFailed, match="alpha_bar = -2"):
            toland_singer_check(prob)


class TestKeptReport:
    """The report is a fact of the problem, built and checked once
    (`toland_singer_check` is kept in `DcProblem._facts`); a check that
    raises keeps nothing."""

    def test_a_repeated_check_reads_the_kept_report(self, monkeypatch):
        # the second check poses no LP and evaluates nothing, and the
        # report equals that of a freshly parsed copy
        rng = random.Random(2621)
        problems = [gens.random_dc_instance(rng) for _ in range(40)]
        reports = [toland_singer_check(prob) for prob in problems]
        work = gens.count_work(monkeypatch)
        for prob, report in zip(problems, reports):
            assert toland_singer_check(prob) is report
        assert not work
        monkeypatch.undo()
        for prob, report in zip(problems, reports):
            copy = parse_problem(serialize_problem(prob))
            assert toland_singer_check(copy) == report

    def test_a_hypothesis_violation_raises_on_every_call(self):
        # dom h = C: C is not inside the interior of dom h
        C = PolyhedralSet.box([F(-2)], [F(3)])
        h = MaxAffine.from_pieces(
            [(vec(1), F(0)), (vec(-1), F(0))], 1, domain=C
        )
        prob = DcProblem(g=MaxAffine.constant(0, 1), h=h, C=C)
        for entry in (toland_singer_check, global_solutions):
            messages = []
            for _ in range(2):
                with pytest.raises(HypothesisNotMet) as info:
                    entry(prob)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
            assert "interior of dom(h)" in messages[0]
        assert toland_singer_check not in prob._facts
        assert global_solutions not in prob._facts
        # the verdict on the hypotheses is kept: it returned a message
        assert prob._facts[structure._hypothesis_violation] == messages[0]

    def test_a_planted_violation_raises_on_every_call(
        self, interval_problem, monkeypatch
    ):
        # h*(0) lowered by 10 puts the dual value at piece 2's gradient
        # below alpha_bar = -2: the check names piece 2 on every call and
        # keeps no report, and the true table gives the true report
        prob = interval_problem
        table = dict(prob.h._conjugate_at_gradients)
        table[vec(0)] = table[vec(0)] - ExtendedRational.finite(10)
        monkeypatch.setitem(vars(prob.h), "_conjugate_at_gradients", table)
        for _ in range(2):
            with pytest.raises(InternalCheckFailed) as info:
                toland_singer_check(prob)
            assert str(info.value) == "piece 2: weak duality violated, -10 < -2"
        assert toland_singer_check not in prob._facts
        assert global_solutions in prob._facts  # it passed, so it is kept
        monkeypatch.undo()
        copy = parse_problem(serialize_problem(prob))
        assert toland_singer_check(prob) == toland_singer_check(copy)
        assert prob._facts[toland_singer_check] == toland_singer_check(copy)

    def test_a_raised_conjugate_breaks_the_bounds_of_each_piece(
        self, interval_problem, monkeypatch
    ):
        # h*(v_j) = -beta_j on every piece here, so raising it by 1 breaks
        # h*(v_j) <= -beta_j and dual(v_j) <= alpha_j for each j, and J*'s
        # attainment for j = 3; the message names every broken bound
        prob = interval_problem
        table = {
            v: value + ExtendedRational.finite(1)
            for v, value in prob.h._conjugate_at_gradients.items()
        }
        monkeypatch.setitem(vars(prob.h), "_conjugate_at_gradients", table)
        with pytest.raises(InternalCheckFailed) as info:
            toland_singer_check(prob)
        broken = str(info.value).split("; ")
        assert [b.split(":")[0] for b in broken] == [
            "piece 1", "piece 1", "piece 2", "piece 2",
            "piece 3", "piece 3", "piece 3 of J*",
        ]
        assert broken[-1] == "piece 3 of J*: -1 misses alpha_bar = -2"

    def test_every_bound_of_the_proof_holds_on_seeded_instances(self):
        # from outside, each conjugate by its own LP: h*(v_j) <= -beta_j
        # and alpha_bar <= dual(v_j) <= alpha_j for every piece j, with
        # equality on J*, and the report scores v_j with dual(v_j)
        for s in range(1000):
            prob = gens.random_dc_instance(random.Random(s))
            alpha_bar, J_star, _ = global_solutions(prob)
            scored = dict(toland_singer_check(prob).candidates)
            for j in prob.h.indices:
                v, beta = prob.h.piece(j)
                h_star = prob.h.conjugate_value(v)
                dual = h_star - prob.g_plus_indicator.conjugate_value(v)
                assert h_star <= ExtendedRational.finite(-beta)
                assert alpha_bar <= dual <= solve_linearization(prob, j).value
                assert j not in J_star or dual == alpha_bar
                assert scored[v] == dual


def _reference_report(prob, max_iter=200):
    """The check as a search over piece gradients and DCA subgradients."""
    alpha_bar, _, global_pieces = structure.global_solutions(prob)
    candidates = []
    for xi in [v for v, _ in prob.h.pieces]:
        if xi not in candidates:
            candidates.append(xi)
    witnesses = [r.witness for r in global_pieces if r.witness is not None]
    for witness in witnesses:
        trace = run(prob, witness, MinIndexActive(), max_iter=max_iter)
        for iterate in trace.iterates:
            if iterate.xi not in candidates:
                candidates.append(iterate.xi)
    scored = [(xi, dual_objective(prob, xi)) for xi in candidates]
    values = dict(scored)
    active = [
        prob.h.piece(j)[0]
        for witness in witnesses
        for j in sorted(prob.h.active_indices(witness))
    ]
    attained = next(
        (xi for xi in active + candidates if values[xi] == alpha_bar), None
    )
    return DualReport(alpha_bar, tuple(scored), attained)


class TestConjugateIdentities:
    def test_double_conjugate_lower_bound_and_touch(self):
        # max over a gradient grid of xi.x - f*(xi) never exceeds f(x) and
        # touches it when the grid holds a subgradient at x
        rng = random.Random(71)
        for _ in range(10):
            prob = gens.random_dc_instance(rng)
            f = prob.g_plus_indicator
            lo, hi = prob.C.bounding_box()
            x = tuple(
                l + F(rng.randint(0, 2), 2) * (u - l) for l, u in zip(lo, hi)
            )
            grid = [u for u, _ in prob.g.pieces]
            grid += [v for v, _ in prob.h.pieces]
            grid += [
                vec(*[rng.randint(-2, 2) for _ in range(prob.dimension)])
                for _ in range(3)
            ]
            fx = f.finite_value(x)
            body = f.subdifferential(x)
            best = None
            has_subgradient = False
            for xi in grid:
                conj = f.conjugate_value(xi)
                if not conj.is_finite:
                    continue
                score = dot(xi, x) - conj.as_fraction()
                assert score <= fx
                best = score if best is None else max(best, score)
                if body.contains(xi):
                    has_subgradient = True
            if has_subgradient:
                assert best == fx

    def test_conjugate_pairing_along_dca_iterates(self):
        # at every accepted step, (g + indicator)(x_next) plus its
        # conjugate at xi equals xi . x_next, exactly
        rng = random.Random(73)
        for _ in range(10):
            prob = gens.random_dc_instance(rng)
            f = prob.g_plus_indicator
            lo, hi = prob.C.bounding_box()
            trace = run(prob, lo, MaxIndexActive(), max_iter=10000)
            for k in range(len(trace.iterates) - 1):
                xi = trace.iterates[k].xi
                x_next = trace.iterates[k + 1].x
                lhs = f.finite_value(x_next) + f.conjugate_value(
                    xi
                ).as_fraction()
                assert lhs == dot(xi, x_next)

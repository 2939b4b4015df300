"""DCA runs: selection rules, canonical subproblem solutions, cycles."""

import collections
import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest

from polydc import (
    ByActiveSetTable,
    DcaTrace,
    DcProblem,
    DimensionMismatch,
    EmptyIntersection,
    EmptyTrace,
    Iterate,
    LinearProgram,
    LpStatus,
    MaxAffine,
    MaxIndexActive,
    MinIndexActive,
    OutsideDomain,
    PolydcError,
    PolyhedralSet,
    Scripted,
    SelectionRule,
    Termination,
    TerminationKind,
    classify,
    is_critical,
    is_local_solution,
    is_stationary,
    lp_feasible,
    lp_solve,
    parse_problem,
    run,
    select_subgradient,
    serialize_problem,
    solve_subproblem,
    toland_singer_check,
    transition_graph,
    validate_trace,
)
from polydc import dca, exactlp, model, structure
from polydc.dca import InvalidSelection, SubproblemUnboundedError
from polydc.model import InternalCheckFailed
from polydc.structure import HypothesisNotMet

import gens
from gens import vec

F = Fraction
ZERO, ONE = F(0), F(1)


class TestSelectSubgradient:
    def test_min_index_at_kink(self, interval_problem):
        # active set at -1 is {1, 2}; the low rule picks the first gradient
        h = interval_problem.h
        assert h.active_indices(vec(-1)) == frozenset({1, 2})
        assert select_subgradient(h, vec(-1), MinIndexActive()) == vec(-1)
        assert select_subgradient(h, vec(-1), MaxIndexActive()) == vec(0)

    def test_unique_active_piece(self, interval_problem):
        h = interval_problem.h
        for rule in (MinIndexActive(), MaxIndexActive()):
            assert select_subgradient(h, vec(2), rule) == vec(1)

    def test_scripted_midpoint_subgradient(self, interval_problem):
        # 0 lies in conv{-1, 0} at the kink -1, so the script is accepted
        rule = Scripted((vec(0),))
        assert select_subgradient(interval_problem.h, vec(-1), rule, 0) == vec(0)

    def test_scripted_rejects_non_subgradients(self, interval_problem):
        rule = Scripted((vec(1),))
        with pytest.raises(InvalidSelection, match="step 0"):
            select_subgradient(interval_problem.h, vec(0), rule, 0)

    def test_scripted_entry_of_the_wrong_length_is_named(self, interval_problem):
        for call in (
            lambda: run(interval_problem, vec(3), Scripted((vec(1, 0),))),
            lambda: run(interval_problem, vec(3), Scripted((vec(1), vec(0, 0)))),
            lambda: select_subgradient(
                interval_problem.h, vec(3), Scripted((vec(1, 0),))
            ),
        ):
            with pytest.raises(DimensionMismatch, match=r"scripted subgradient #\d"):
                call()
        with pytest.raises(DimensionMismatch, match="#1 has length 2, expected 1"):
            run(interval_problem, vec(3), Scripted((vec(1), vec(0, 0))))

    def test_scripted_active_gradient_poses_no_weight_lp(
        self, interval_problem, monkeypatch
    ):
        # at the kink -1 the gradients -1 and 0 of the active pieces 1 and
        # 2 lie in dh(-1) by definition; -1/2 between them is validated by
        # a weight LP, as is 1 at 0, which is rejected
        h = interval_problem.h
        posed = _counting_lps(monkeypatch)
        for xi in (vec(-1), vec(0)):
            assert select_subgradient(h, vec(-1), Scripted((xi,))) == xi
        assert posed == []
        half = vec(F(-1, 2))
        assert select_subgradient(h, vec(-1), Scripted((half,))) == half
        assert len(posed) >= 1
        del posed[:]
        with pytest.raises(InvalidSelection, match="step 0"):
            select_subgradient(h, vec(0), Scripted((vec(1),)))
        assert len(posed) >= 1

    def test_table_rule(self, interval_problem):
        rule = ByActiveSetTable({frozenset({1, 2}): 2, frozenset({2}): 2})
        assert select_subgradient(interval_problem.h, vec(-1), rule) == vec(0)
        with pytest.raises(InvalidSelection, match="no table entry"):
            select_subgradient(interval_problem.h, vec(1), rule)
        # an entry whose choice lies outside its own active set is rejected
        # when the table is built, not when a run reaches that set
        with pytest.raises(InvalidSelection, match=r"\[2\] -> 3"):
            ByActiveSetTable({frozenset({2}): 3})

    def test_a_table_keeps_its_own_copy(self):
        # a later change to the caller's dict does not reach the rule: the
        # run from 3, where the active set is {3}, still finds no entry
        # instead of following the planted entry {3} -> 1 uphill
        prob = gens.interval_problem()
        table = {frozenset({1}): 1, frozenset({2}): 2}
        rule = ByActiveSetTable(table)
        table[frozenset({3})] = 1
        with pytest.raises(InvalidSelection, match=r"active set \[3\]"):
            run(prob, vec(3), rule)
        assert rule.table == {frozenset({1}): 1, frozenset({2}): 2}
        with pytest.raises(TypeError):
            rule.table[frozenset({3})] = 3
        # equal tables are equal rules with equal hashes, whatever the order
        # of their entries, and a different table is a different rule
        other = ByActiveSetTable({frozenset({2}): 2, frozenset({1}): 1})
        assert other == rule and hash(other) == hash(rule)
        assert len({rule, other, ByActiveSetTable({frozenset({1}): 1})}) == 2

    def test_table_entries_checked_at_construction(self):
        for table in (
            {frozenset(): 1},  # an empty active set
            {frozenset({0, 1}): 1},  # pieces are numbered from 1
            {frozenset({1, 2}): 3},  # the choice outside its own set
        ):
            with pytest.raises(InvalidSelection, match="table entry"):
                ByActiveSetTable(table)
        assert ByActiveSetTable({}).table == {}

    def test_a_piece_above_q_is_rejected_before_step_0(self, monkeypatch):
        # piece 4 of the interval's 3-piece h, in an entry no run reaches:
        # no step is taken and no subproblem is posed
        prob = gens.interval_problem()
        table = {frozenset({1}): 1, frozenset({2}): 2, frozenset({3}): 3}
        bad = ByActiveSetTable({**table, frozenset({2, 4}): 4})
        posed = _counting_lps(monkeypatch)
        calls = (lambda: run(prob, vec(0), bad), lambda: transition_graph(prob, bad))
        for call in calls:
            with pytest.raises(InvalidSelection, match="piece 4, but h has 3"):
                call()
        assert posed == [] and dca._subproblems(prob) == {}
        monkeypatch.undo()
        assert run(prob, vec(0), ByActiveSetTable(table)).termination.kind is (
            TerminationKind.FIXED_POINT
        )

    def test_runs_hand_rules_the_active_set_they_evaluated(
        self, interval_problem, monkeypatch
    ):
        # rules with `pick` select from run's own evaluation of h: no
        # second active-set evaluation per iterate, same traces as `choose`
        table = ByActiveSetTable(
            {frozenset(s): max(s) for s in ({1}, {1, 2}, {2}, {2, 3}, {3})}
        )
        for rule in (MinIndexActive(), MaxIndexActive(), table):
            for x0 in (vec(-2), vec(-1), vec(F(1, 2)), vec(3)):
                expected = reference_run(interval_problem, x0, rule)
                monkeypatch.setattr(
                    MaxAffine, "active_indices", lambda h, x: pytest.fail()
                )
                assert run(interval_problem, x0, rule) == expected
                monkeypatch.undo()

    def test_outside_domain(self):
        h = MaxAffine.from_pieces(
            [(vec(0), F(0))],
            1,
            domain=PolyhedralSet(1, inequalities=((vec(-1), F(0)),)),
        )
        with pytest.raises(OutsideDomain):
            select_subgradient(h, vec(-1), MinIndexActive())
        # called directly, a script checks the domain itself
        with pytest.raises(OutsideDomain, match="outside the domain"):
            Scripted((vec(0),)).choose(h, vec(-1), 0)


class TestSolveSubproblem:
    def test_positive_slope_drives_right(self, interval_problem):
        x, value = solve_subproblem(
            interval_problem.g, interval_problem.C, vec(1)
        )
        assert x == vec(3)
        assert value == -3  # min of -x over [-2, 3]

    def test_negative_slope_drives_left(self, interval_problem):
        x, value = solve_subproblem(
            interval_problem.g, interval_problem.C, vec(-1)
        )
        assert x == vec(-2)
        assert value == -2  # min of x over [-2, 3]

    def test_flat_subproblem_takes_lexicographic_minimum(self, interval_problem):
        x, value = solve_subproblem(
            interval_problem.g, interval_problem.C, vec(0)
        )
        assert x == vec(-2)  # smallest point of the optimal face [-2, 3]
        assert value == 0

    def test_lexicographic_order_in_two_dimensions(self):
        g = MaxAffine.constant(0, 2)
        C = PolyhedralSet.box([F(0), F(-1)], [F(2), F(5)])
        x, _ = solve_subproblem(g, C, vec(0, 0))
        assert x == vec(0, -1)
        # tilt the objective so only x2 is forced, x1 stays free on a face
        x, _ = solve_subproblem(g, C, vec(0, -1))
        assert x == vec(0, -1)

    def test_unbounded_face_pins_to_zero(self):
        g = MaxAffine.constant(0, 1)
        x, _ = solve_subproblem(g, PolyhedralSet.whole_space(1), vec(0))
        assert x == vec(0)
        # face bounded above below zero: take its maximum
        C = PolyhedralSet(1, inequalities=((vec(1), F(-5)),))
        x, _ = solve_subproblem(g, C, vec(0))
        assert x == vec(-5)


class TestRun:
    def test_descends_to_global_solution(self, interval_problem):
        trace = run(interval_problem, vec(2), MinIndexActive())
        assert trace.points == (vec(2), vec(3), vec(3))
        assert trace.values == (F(-1), F(-2), F(-2))
        assert trace.termination.kind is TerminationKind.FIXED_POINT
        assert trace.final_point == vec(3)

    def test_descends_to_local_solution(self, interval_problem):
        trace = run(interval_problem, vec(F(-3, 2)), MinIndexActive())
        assert trace.points == (vec(F(-3, 2)), vec(-2), vec(-2))
        assert trace.values == (F(-1, 2), F(-1), F(-1))
        assert trace.termination.kind is TerminationKind.FIXED_POINT

    def test_kink_start_follows_low_rule(self, interval_problem):
        trace = run(interval_problem, vec(-1), MinIndexActive())
        assert trace.points == (vec(-1), vec(-2), vec(-2))
        assert trace.termination.kind is TerminationKind.FIXED_POINT

    def test_scripted_run_stops_when_script_ends(self, interval_problem):
        trace = run(interval_problem, vec(-1), Scripted((vec(0),)))
        assert trace.points == (vec(-1),)
        assert trace.termination.kind is TerminationKind.MAX_ITERATIONS
        assert trace.termination.step == 1

    def test_selection_errors_propagate(self, interval_problem):
        # only an exhausted script ends a run; an IndexError from any other
        # rule is a fault of the rule, not the end of the iteration
        class PicksPieceSix(dca._ActiveSetRule):
            def pick(self, active):
                return 6

        class Faulty(SelectionRule):
            def choose(self, h, x, step):
                return [][step]

        for rule in (PicksPieceSix(), Faulty()):
            with pytest.raises(IndexError):
                run(interval_problem, (0,), rule)
            with pytest.raises(IndexError):
                select_subgradient(interval_problem.h, (0,), rule)

    def test_zero_budget(self, interval_problem):
        trace = run(interval_problem, vec(2), MinIndexActive(), max_iter=0)
        assert trace.termination.kind is TerminationKind.MAX_ITERATIONS
        assert len(trace.points) == 1

    def test_negative_budget_is_rejected(self, interval_problem):
        with pytest.raises(ValueError, match="max_iter"):
            run(interval_problem, vec(2), MinIndexActive(), max_iter=-3)

    def test_subproblem_unbounded_stops(self):
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.from_pieces([(vec(1), F(0)), (vec(0), F(0))], 1),
            C=PolyhedralSet.whole_space(1),
        )
        trace = run(prob, vec(0), MinIndexActive())
        assert trace.termination.kind is TerminationKind.SUBPROBLEM_UNBOUNDED
        assert trace.termination.step == 0

    def test_leaving_dom_h_stops(self):
        h = MaxAffine.from_pieces(
            [(vec(0), F(0))],
            1,
            domain=PolyhedralSet.box([F(0)], [F(1)]),
        )
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=h,
            C=PolyhedralSet.box([F(0)], [F(2)]),
        )
        trace = run(prob, vec(2), MinIndexActive())
        assert trace.termination.kind is TerminationKind.SUBDIFFERENTIAL_EMPTY
        assert trace.termination.step == 0
        assert trace.iterates == ()

    def test_a_trace_without_iterates_has_no_final_point(self):
        h = MaxAffine.from_pieces(
            [(vec(0), F(0))], 1, domain=PolyhedralSet.box([F(0)], [F(1)])
        )
        prob = DcProblem(
            g=MaxAffine.constant(0, 1), h=h, C=PolyhedralSet.box([F(-2)], [F(2)])
        )
        trace = run(prob, vec(-2), MinIndexActive())
        assert trace.termination == Termination(
            TerminationKind.SUBDIFFERENTIAL_EMPTY, step=0
        )
        with pytest.raises(EmptyTrace, match="step 0 \\(subdifferential-empty\\)"):
            trace.final_point
        # an empty script stops before the first iterate as well
        trace = run(prob, vec(F(1, 2)), Scripted(()))
        assert trace.iterates == ()
        with pytest.raises(EmptyTrace, match="step 0 \\(max-iterations\\)"):
            trace.final_point

    def test_x0_validation(self, interval_problem):
        with pytest.raises(OutsideDomain, match="constraint set C"):
            run(interval_problem, vec(4), MinIndexActive())
        g = MaxAffine(interval_problem.g.pieces, PolyhedralSet.box([-1], [1]))
        prob = DcProblem(g=g, h=interval_problem.h, C=interval_problem.C)
        with pytest.raises(OutsideDomain, match="dom\\(g\\)"):
            run(prob, vec(2), MinIndexActive())

    def test_deterministic(self, interval_problem):
        a = run(interval_problem, vec(2), MaxIndexActive())
        b = run(interval_problem, vec(2), MaxIndexActive())
        assert a == b


class TestRunProperties:
    def test_termination_and_descent_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(25):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            for rule in (MinIndexActive(), MaxIndexActive()):
                trace = run(prob, lo, rule, max_iter=10000)
                assert trace.termination.kind in (
                    TerminationKind.FIXED_POINT,
                    TerminationKind.CYCLE,
                )
                values = trace.values
                assert all(a >= b for a, b in zip(values, values[1:]))
                # subgradients come from finitely many piece gradients
                distinct = {it.xi for it in trace.iterates}
                assert len(distinct) <= len(prob.h.pieces)
                # revisit must happen within |J| + 2 recorded points
                assert len(trace.points) <= len(prob.h.pieces) + 3

    def test_canonical_selection_always_reaches_a_fixed_point(self):
        # With the lexicographic-minimum subproblem solution, any periodic
        # tail must have constant objective, which forces every iterate
        # into its own subproblem's optimal face; the lex-minimum then
        # makes the iterates lex-nonincreasing around the cycle, so the
        # period is always 1.
        rng = random.Random(53)
        for _ in range(40):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            trace = run(prob, lo, MinIndexActive(), max_iter=10000)
            assert trace.termination.kind is TerminationKind.FIXED_POINT
            assert trace.points[-1] == trace.points[-2]

    def test_cycle_report_is_exact(self):
        # genuine subgradient selections cannot cycle (see above), so the
        # cycle bookkeeping is exercised with a synthetic deterministic
        # state map bouncing between the endpoints of a flat problem
        prob = _flat_problem(1)
        trace = run(prob, vec(F(1, 2)), _EndpointFlip(), max_iter=100)
        t = trace.termination
        assert t.kind is TerminationKind.CYCLE
        k, p = t.step, t.period
        assert (k, p) == (1, 2)
        assert trace.points == (vec(F(1, 2)), vec(0), vec(1), vec(0))
        assert trace.iterates[k + p].xi == trace.iterates[k].xi
        assert len(set(trace.values[k:])) == 1
        # determinism: the next step would continue the cycle
        x_next, _ = solve_subproblem(prob.g, prob.C, trace.iterates[k + p].xi)
        assert x_next == trace.points[k + 1]

        # a rule may return any sequence of rationals, such as a list of ints
        class ListFlip(SelectionRule):
            def choose(self, h, x, step):
                return [1] if x == vec(0) else [-1]

        listed = run(prob, vec(F(1, 2)), ListFlip(), max_iter=100)
        assert (listed.points, listed.values) == (trace.points, trace.values)

    def test_fixed_points_are_critical(self):
        rng = random.Random(59)
        for _ in range(20):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            trace = run(prob, lo, MinIndexActive(), max_iter=10000)
            if trace.termination.kind is TerminationKind.FIXED_POINT:
                assert is_critical(prob, trace.final_point)


class TestValidateTrace:
    def test_scripted_oscillation_is_valid(self, interval_problem):
        xs = [vec(-1), vec(1), vec(-1), vec(1)]
        xis = [vec(0), vec(0), vec(0)]
        report = validate_trace(interval_problem, xs, xis)
        assert report.valid
        assert all(
            interval_problem.finite_objective(x) == 0 for x in xs
        )

    def test_descent_step_is_valid(self, interval_problem):
        report = validate_trace(interval_problem, [vec(2), vec(3)], [vec(1)])
        assert report.valid
        assert interval_problem.finite_objective(vec(2)) == -1
        assert interval_problem.finite_objective(vec(3)) == -2

    def test_wrong_subgradient_is_flagged(self, interval_problem):
        report = validate_trace(interval_problem, [vec(0), vec(3)], [vec(1)])
        assert not report.valid
        assert report.steps[0].subgradient_ok is False

    def test_non_minimizer_is_flagged(self, interval_problem):
        # xi = 1 forces the subproblem minimum at 3, not at 0
        report = validate_trace(interval_problem, [vec(2), vec(0)], [vec(1)])
        assert not report.valid
        assert report.steps[0].subgradient_ok is True
        assert report.steps[0].minimizer_ok is False
        # nor is a next point outside C, or outside dom(g)
        g = MaxAffine(interval_problem.g.pieces, PolyhedralSet.box([-1], [1]))
        prob = DcProblem(g=g, h=interval_problem.h, C=interval_problem.C)
        for p, x in ((interval_problem, vec(4)), (prob, vec(3))):
            report = validate_trace(p, [vec(0), x], [vec(1)])
            assert report.steps[0].minimizer_ok is False

    def test_length_mismatch(self, interval_problem):
        with pytest.raises(ValueError):
            validate_trace(interval_problem, [vec(0)], [vec(0), vec(0)])

    def test_active_gradients_pose_no_weight_lp(self, monkeypatch):
        """A min-index trace selects active gradients only, so its
        subgradient checks pose no generator-weight LP, as a script's
        selections do not; the verdicts are those of the weight LPs."""
        rng = random.Random(67)
        checked = 0
        for prob in [gens.random_dc_instance(rng) for _ in range(10)]:
            lo, _ = prob.C.bounding_box()
            trace = run(prob, lo, MinIndexActive(), max_iter=10000)
            xs, xis = trace.points, [it.xi for it in trace.iterates]
            weighed = []  # the subdifferentials of h made, one per weight LP
            subdifferential = MaxAffine._subdifferential

            def recording(f, at, *cone):
                if f is prob.h:
                    weighed.append(at)
                return subdifferential(f, at, *cone)

            with monkeypatch.context() as patch:
                patch.setattr(MaxAffine, "_subdifferential", recording)
                steps = validate_trace(prob, xs, xis).steps
            assert weighed == []
            for point, xi, step in zip(xs, xis, steps):
                at = prob.h._at(model._scaled(point))
                assert step.subgradient_ok is True
                assert prob.h._subdifferential(at).contains(xi)
                checked += 1
        assert checked >= 10

    def test_generated_traces_validate(self):
        rng = random.Random(61)
        for _ in range(10):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            trace = run(prob, hi, MaxIndexActive(), max_iter=10000)
            xs = list(trace.points)
            xis = [it.xi for it in trace.iterates]
            assert validate_trace(prob, xs, xis).valid


# ---------------------------------------------------------------------------
# the coordinate walk that solve_subproblem replaced, kept as a reference


def _coordinate_extreme(face_rows, equalities, fixed, n, coordinate, sign):
    objective = [ZERO] * n
    objective[coordinate] = ONE if sign > 0 else -ONE
    return lp_solve(
        LinearProgram(
            objective=tuple(objective),
            equalities=tuple(equalities + fixed),
            inequalities=tuple(face_rows),
            dimension=n,
        )
    )


def reference_subproblem(g, C, xi, branches=None):
    """solve_subproblem by one epigraph LP and then up to two fresh LPs per
    coordinate.  Appends to `branches` the rule each coordinate took: "min"
    (finite minimum), "max<0" (pinned to a negative maximum), "max>=0" or
    "unbounded" (pinned to 0)."""
    n = g.dimension
    xi = tuple(F(c) for c in xi)
    equalities = [(a + (ZERO,), y) for a, y in C.equalities]
    equalities += [(a + (ZERO,), y) for a, y in g.domain.equalities]
    inequalities = [(a + (ZERO,), b) for a, b in C.inequalities]
    inequalities += [(a + (ZERO,), b) for a, b in g.domain.inequalities]
    for u, alpha in g.pieces:
        inequalities.append((u + (-ONE,), -alpha))
    outcome = lp_solve(
        LinearProgram(
            objective=tuple(-c for c in xi) + (ONE,),
            equalities=tuple(equalities),
            inequalities=tuple(inequalities),
            dimension=n + 1,
        )
    )
    if outcome.status is LpStatus.INFEASIBLE:
        raise InternalCheckFailed("reference subproblem infeasible")
    if outcome.status is LpStatus.UNBOUNDED:
        raise SubproblemUnboundedError("reference subproblem unbounded")
    value = outcome.value
    face_eqs = list(C.equalities) + list(g.domain.equalities)
    face_rows = list(C.inequalities) + list(g.domain.inequalities)
    for u, alpha in g.pieces:
        face_rows.append((tuple(a - b for a, b in zip(u, xi)), value - alpha))
    fixed, point = [], []
    for coordinate in range(n):
        lo = _coordinate_extreme(face_rows, face_eqs, fixed, n, coordinate, +1)
        if lo.status is LpStatus.OPTIMAL:
            m, branch = lo.value, "min"
        else:
            hi = _coordinate_extreme(face_rows, face_eqs, fixed, n, coordinate, -1)
            if hi.status is LpStatus.OPTIMAL and -hi.value < 0:
                m, branch = -hi.value, "max<0"
            else:
                m = ZERO
                branch = "max>=0" if hi.status is LpStatus.OPTIMAL else "unbounded"
        if branches is not None:
            branches.append(branch)
        row = [ZERO] * n
        row[coordinate] = ONE
        fixed.append((tuple(row), m))
        point.append(m)
    return tuple(point), value


def _random_rows(rng, n, count):
    rows = []
    while len(rows) < count:
        a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        if any(a):
            rows.append((a, F(rng.randint(-3, 3))))
    return tuple(rows)


def _hand_instances():
    """(g, h, C) cases for every pinning branch, with equality rows in C and
    dom g and inequality rows in dom g."""
    zero1, zero2 = MaxAffine.constant(0, 1), MaxAffine.constant(0, 2)
    h1 = MaxAffine.from_pieces([(vec(1), F(0)), (vec(-1), F(0))], 1)
    h2 = MaxAffine.from_pieces(
        [(vec(1, 0), F(0)), (vec(0, 1), F(0)), (vec(-1, -1), F(1))], 2
    )
    cases = [
        (zero1, h1, PolyhedralSet.whole_space(1)),  # unbounded both ways
        (zero1, h1, PolyhedralSet(1, inequalities=((vec(1), F(-5)),))),
        (zero1, h1, PolyhedralSet(1, inequalities=((vec(1), F(5)),))),
        (zero1, h1, PolyhedralSet(1, inequalities=((vec(1), F(0)),))),
        # x1 free, then x2 in [1, 3]: a bounded coordinate after a pin
        (
            zero2,
            h2,
            PolyhedralSet(2, inequalities=((vec(0, -1), F(-1)), (vec(0, 1), F(3)))),
        ),
        # x1 <= x2 - 1 <= -3: x1 tops out at -3, which leaves x2 = -2
        (
            zero2,
            h2,
            PolyhedralSet(2, inequalities=((vec(1, -1), F(-1)), (vec(0, 1), F(-2)))),
        ),
        # a line x1 + 2 x2 = 3 (an equality row in C)
        (zero2, h2, PolyhedralSet(2, equalities=((vec(1, 2), F(3)),))),
        # the same line, with x2 >= 1 written into dom g
        (
            MaxAffine.from_pieces(
                [(vec(0, 0), F(0))],
                2,
                domain=PolyhedralSet(
                    2,
                    equalities=((vec(1, 2), F(3)),),
                    inequalities=((vec(0, -1), F(-1)),),
                ),
            ),
            h2,
            PolyhedralSet.whole_space(2),
        ),
        # g = |x1 - x2| on a half-plane: an unbounded optimal face
        (
            MaxAffine.from_pieces([(vec(1, -1), F(0)), (vec(-1, 1), F(0))], 2),
            h2,
            PolyhedralSet(2, inequalities=((vec(1, 1), F(2)),)),
        ),
        # dom g a wedge in 3-D, C a slab
        (
            MaxAffine.from_pieces(
                [(vec(1, 0, 0), F(0)), (vec(0, 1, 0), F(1))],
                3,
                domain=PolyhedralSet(
                    3, inequalities=((vec(1, 1, 0), F(1)), (vec(-1, 1, 0), F(1)))
                ),
            ),
            MaxAffine.from_pieces([(vec(0, 0, 1), F(0)), (vec(0, 0, -1), F(0))], 3),
            PolyhedralSet(
                3, inequalities=((vec(0, 0, 1), F(2)), (vec(0, 0, -1), F(2)))
            ),
        ),
    ]
    return [DcProblem(g=g, h=h, C=C) for g, h, C in cases]


def _subproblem_instances():
    """40 random box instances, 40 with their C or dom g reshaped (whole
    space, a half-space, equality rows, dom g inequality rows), and the hand
    cases."""
    rng = random.Random(71)
    boxes = [gens.random_dc_instance(rng) for _ in range(40)]
    reshaped = []
    while len(reshaped) < 40:
        prob = gens.random_dc_instance(rng)
        n = prob.dimension
        shape = len(reshaped) % 4
        C, domain = prob.C, PolyhedralSet.whole_space(n)
        if shape == 0:
            C = PolyhedralSet.whole_space(n)
        elif shape == 1:
            C = PolyhedralSet(n, inequalities=_random_rows(rng, n, 1))
        elif shape == 2:
            C = PolyhedralSet(
                n,
                equalities=_random_rows(rng, n, 1),
                inequalities=C.inequalities[: 2 * rng.randint(0, n)],
            )
        else:
            C = rng.choice((C, PolyhedralSet.whole_space(n)))
            domain = PolyhedralSet(
                n,
                equalities=_random_rows(rng, n, rng.randint(0, 1)),
                inequalities=_random_rows(rng, n, rng.randint(1, 3)),
            )
        g = MaxAffine(pieces=prob.g.pieces, domain=domain)
        try:
            reshaped.append(DcProblem(g=g, h=prob.h, C=C))
        except EmptyIntersection:
            continue
    return boxes + reshaped + _hand_instances()


def _subgradients(rng, prob):
    """h's gradients, zero and a few small random integer vectors."""
    n = prob.dimension
    xis = [u for u, _ in prob.h.pieces] + [(ZERO,) * n]
    xis += [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(3)]
    return xis


def _outcome(solve, g, C, xi):
    try:
        return solve(g, C, xi)
    except SubproblemUnboundedError:
        return "unbounded"


class TestOneTableauSubproblem:
    """solve_subproblem continues the epigraph LP's tableau to the
    lexicographic minimum; the reference walks it with fresh LPs."""

    def test_agrees_with_the_coordinate_walk(self, monkeypatch):
        calls = []
        original = exactlp.lp_solve

        def counting(lp, **kwargs):
            calls.append(lp)
            return original(lp, **kwargs)

        instances = _subproblem_instances()
        assert len(instances) >= 60
        rng = random.Random(73)
        branches, after_pin, unbounded = set(), False, set()
        for prob in instances:
            for xi in _subgradients(rng, prob):
                walked = []
                expected = _outcome(
                    functools.partial(reference_subproblem, branches=walked),
                    prob.g,
                    prob.C,
                    xi,
                )
                for module in (exactlp, model, dca):
                    monkeypatch.setattr(module, "lp_solve", counting)
                del calls[:]
                got = _outcome(solve_subproblem, prob.g, prob.C, xi)
                monkeypatch.undo()
                assert len(calls) == 1
                assert got == expected
                unbounded.add(got == "unbounded")
                branches.update(walked)
                pins = [b in ("max>=0", "unbounded") for b in walked]
                after_pin |= any(
                    b == "min" and any(pins[:k]) for k, b in enumerate(walked)
                )
        assert unbounded == {True, False}
        assert branches == {"min", "max<0", "max>=0", "unbounded"}
        assert after_pin

    def test_runs_agree_with_the_coordinate_walk(self, monkeypatch):
        for prob in _subproblem_instances():
            x0 = lp_feasible(
                prob.g.domain.equalities + prob.C.equalities,
                prob.g.domain.inequalities + prob.C.inequalities,
                prob.dimension,
            )
            for rule in (MinIndexActive(), MaxIndexActive()):
                trace = run(prob, x0, rule, max_iter=50)
                # a new problem object: prob keeps its subproblem answers
                fresh = DcProblem(g=prob.g, h=prob.h, C=prob.C)
                monkeypatch.setattr(dca, "solve_subproblem", reference_subproblem)
                assert run(fresh, x0, rule, max_iter=50) == trace
                monkeypatch.undo()


# ---------------------------------------------------------------------------
# epigraph LPs over one function share one prepared start


def reference_run(prob, x0, rule, max_iter=1000):
    """`run` with every iterate evaluated by `finite_objective` and every
    subproblem posed over g and C, each LP built from scratch."""
    x = tuple(F(c) for c in x0)
    iterates, seen, step = [], {}, 0
    while True:
        if not prob.h.domain.contains(x):
            termination = Termination(TerminationKind.SUBDIFFERENTIAL_EMPTY, step=step)
            break
        try:
            xi = rule.choose(prob.h, x, step)
        except IndexError:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        iterates.append(Iterate(x, xi, prob.finite_objective(x)))
        if rule.deterministic:
            first = seen.get(x)
            if first is not None:
                period = step - first
                kind = (
                    TerminationKind.FIXED_POINT if period == 1 else TerminationKind.CYCLE
                )
                termination = Termination(kind, step=first, period=period)
                break
            seen[x] = step
        if step >= max_iter:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        try:
            x, _ = reference_subproblem(prob.g, prob.C, xi)
        except SubproblemUnboundedError:
            termination = Termination(TerminationKind.SUBPROBLEM_UNBOUNDED, step=step)
            break
        step += 1
    return DcaTrace(iterates=tuple(iterates), termination=termination)


def _fresh(lp):
    return LinearProgram(lp.objective, lp.equalities, lp.inequalities, lp.dimension)


def _equality_problem():
    """C: a line x1 + x2 = 1/2 in a box; dom g: two rows containing C."""
    C = PolyhedralSet(
        2,
        equalities=((vec(1, 1), F(1, 2)),),
        inequalities=PolyhedralSet.box(vec(-1, -1), vec(2, 1)).inequalities,
    )
    g = MaxAffine.from_pieces(
        [(vec(1, 0), F(0)), (vec(-1, 1), F(1, 2)), (vec(0, -2), F(-1))],
        2,
        domain=PolyhedralSet(
            2, inequalities=((vec(1, 0), F(3)), (vec(1, -1), F(4)))
        ),
    )
    h = MaxAffine.from_pieces(
        [(vec(0, 1), F(0)), (vec(0, -1), F(0)), (vec(1, 1), F(-1, 2))], 2
    )
    return DcProblem(g=g, h=h, C=C)


class TestSharedEpigraphStart:
    def test_epigraph_lps_match_fresh_lps(self):
        rng = random.Random(79)
        solves = 0
        statuses = set()
        for prob in _subproblem_instances() + [_equality_problem()]:
            g_plus = prob.g_plus_indicator
            xis = _subgradients(rng, prob)
            # g + indicator(C) poses exactly the rows of g over C
            for xi in xis[:2]:
                assert g_plus.epigraph_lp(xi) == prob.g.epigraph_lp(xi, prob.C)
            posed = [
                (f, xi, k)
                for f in (g_plus, prob.h)
                for xi in xis
                for k in range(prob.dimension + 2)
            ]
            rng.shuffle(posed)
            for f, xi, k in posed:
                lp = f.epigraph_lp(xi)
                assert lp._rows is f._epigraph._rows
                out = lp_solve(lp, lexmin=k)
                assert out == lp_solve(_fresh(lp), lexmin=k)
                statuses.add(out.status)
                solves += 1
        assert statuses == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}
        assert solves >= 3000

    def test_equality_elimination_runs_once_per_epigraph_system(self, monkeypatch):
        prob = _equality_problem()
        g_rows = prob.g.epigraph_lp(vec(0, 0), prob.C)
        assert g_rows.equalities and prob.g.domain.inequalities
        systems = {
            (lp.equalities, lp.inequalities)
            for lp in (g_rows, prob.h.epigraph_lp(vec(0, 0)))
        }
        epigraph_solves, eliminations = [], []
        current = []
        solve, eliminate = exactlp.lp_solve, exactlp._eliminate_equalities

        def counting_solve(lp, **kwargs):
            rows = (lp.equalities, lp.inequalities)
            current.append(rows in systems)
            if current[-1]:
                epigraph_solves.append(rows)
            try:
                return solve(lp, **kwargs)
            finally:
                current.pop()

        def counting_eliminate(equalities, dimension):
            if current and current[-1]:
                eliminations.append(equalities)
            return eliminate(equalities, dimension)

        for module in (exactlp, model, dca, structure):
            monkeypatch.setattr(module, "lp_solve", counting_solve)
        monkeypatch.setattr(exactlp, "_eliminate_equalities", counting_eliminate)
        # the runs pose one LP per distinct subgradient of the problem, and
        # solve_subproblem, which keeps no memo, one per call: with the
        # duality check they drive at least 15 epigraph solves
        for x in (
            vec(F(1, 4), F(1, 4)),
            vec(1, F(-1, 2)),
            vec(F(-1, 2), 1),
            vec(F(3, 2), -1),
        ):
            for rule in (MinIndexActive(), MaxIndexActive()):
                run(prob, x, rule)
        everywhere = PolyhedralSet.whole_space(2)
        for xi in itertools.product(range(-1, 2), repeat=2):
            solve_subproblem(prob.g_plus_indicator, everywhere, xi)
        report = toland_singer_check(prob)
        monkeypatch.undo()
        assert report.attained_at is not None
        assert len(set(epigraph_solves)) == 2
        assert len(epigraph_solves) >= 15
        assert len(eliminations) == 2

    def test_runs_match_a_reference_that_evaluates_every_iterate(self):
        rng = random.Random(83)
        kinds = set()
        for prob in _subproblem_instances() + [_equality_problem()]:
            n = prob.dimension
            starts = [
                lp_feasible(
                    prob.g.domain.equalities + prob.C.equalities,
                    prob.g.domain.inequalities + prob.C.inequalities,
                    n,
                )
            ]
            for _ in range(2):
                objective = tuple(F(rng.randint(-2, 2)) for _ in range(n))
                point = lp_solve(prob.g.epigraph_lp(objective, prob.C)).point
                if point is not None:
                    starts.append(point[:n])
            for x0 in starts:
                for rule in (MinIndexActive(), MaxIndexActive()):
                    trace = run(prob, x0, rule, max_iter=50)
                    assert trace == reference_run(prob, x0, rule, max_iter=50)
                    kinds.add(trace.termination.kind)
        assert TerminationKind.FIXED_POINT in kinds
        assert TerminationKind.SUBPROBLEM_UNBOUNDED in kinds


# ---------------------------------------------------------------------------
# one subproblem LP per distinct subgradient of a run


def test_runs_pose_one_subproblem_per_distinct_subgradient(monkeypatch):
    """On 200 seeded instances and the bundled problems, every run equals
    the reference and poses each distinct xi of its trace at most once."""
    rng = random.Random(89)
    problems = gens.bundled_problems()
    problems += [gens.random_dc_instance(rng) for _ in range(200)]
    posed = []

    def counting(lp, **kwargs):
        posed.append(lp.objective)
        return lp_solve(lp, **kwargs)

    reused = 0
    for prob in problems:
        lo, hi = prob.C.bounding_box()
        centre = tuple((a + b) / 2 for a, b in zip(lo, hi))
        for x0 in (lo, centre):
            for rule in (MinIndexActive(), MaxIndexActive()):
                monkeypatch.setattr(dca, "lp_solve", counting)
                del posed[:]
                trace = run(prob, x0, rule)
                monkeypatch.undo()
                assert trace == reference_run(prob, x0, rule)
                distinct = {it.xi for it in trace.iterates}
                assert len(set(posed)) == len(posed) <= len(distinct)
                reused += len(trace.iterates) - 1 - len(posed)
    assert reused > 0


# ---------------------------------------------------------------------------
# the problem keeps each subproblem answer across runs


class _EndpointFlip(SelectionRule):
    """A deterministic state map, not a subgradient selection: on a flat
    problem over the unit box it bounces between two corners, so its runs
    cycle."""

    def choose(self, h, x, step):
        one = (ONE,) * len(x)
        return one if all(c == 0 for c in x) else tuple(-c for c in one)


def _flat_problem(n):
    return DcProblem(
        g=MaxAffine.constant(0, n),
        h=MaxAffine.constant(0, n),
        C=PolyhedralSet.box((ZERO,) * n, (ONE,) * n),
    )


def _half_space_instance(rng):
    """A random instance over C = {x >= lo}: its subproblems at gradients
    outside those of g are unbounded."""
    prob = gens.random_dc_instance(rng, n_max=2)
    lo, _ = prob.C.bounding_box()
    n = prob.dimension
    rows = tuple(
        (tuple(-ONE if k == i else ZERO for k in range(n)), -lo[i]) for i in range(n)
    )
    return DcProblem(g=prob.g, h=prob.h, C=PolyhedralSet(n, inequalities=rows))


def _starts(rng, prob, count):
    """`count` points of C ∩ dom g on the quarter grid of a box around C."""
    n = prob.dimension
    try:
        lo, hi = prob.C.bounding_box()
    except PolydcError:  # an unbounded C: a box at its lower corner
        lo = lp_feasible(prob.C.equalities, prob.C.inequalities, n)
        hi = tuple(c + 2 for c in lo)
    axes = [[a + F(k, 4) for k in range(int(4 * (b - a)) + 1)] for a, b in zip(lo, hi)]
    grid = [
        x
        for x in itertools.product(*axes)
        if prob.C.contains(x) and prob.g.domain.contains(x)
    ]
    return [rng.choice(grid) for _ in range(count)]


def _table(rng, prob):
    """A random complete `ByActiveSetTable` for the pieces of h."""
    indices = list(prob.h.indices)
    return ByActiveSetTable(
        {
            frozenset(s): rng.choice(s)
            for r in range(1, len(indices) + 1)
            for s in itertools.combinations(indices, r)
        }
    )


def _rules(rng, prob, x0):
    """Both index rules, a random complete table, and a script replaying a
    prefix of the table's run."""
    table = _table(rng, prob)
    replayed = run(_copy(prob), x0, table)
    prefix = rng.randint(0, len(replayed.iterates))
    script = Scripted(tuple(it.xi for it in replayed.iterates[:prefix]))
    return [MinIndexActive(), MaxIndexActive(), table, script]


def _copy(prob):
    """The problem freshly parsed from its document: no answers kept."""
    copy = parse_problem(serialize_problem(prob))
    assert copy == prob and not copy._facts and not copy._nodes
    return copy


def _mean_active_gradient(prob, x0):
    """The mean of the active gradients of h at x0, a subgradient there
    when x0 is interior to dom h, and no piece gradient at a kink."""
    active = sorted(prob.h.active_indices(x0))
    return tuple(
        sum(prob.h.piece(j)[0][i] for j in active) / len(active)
        for i in range(prob.dimension)
    )


def test_shared_problem_runs_equal_runs_on_fresh_copies():
    """1,000 seeded runs on shared problems, in shuffled order, equal the
    same runs each on a freshly parsed copy of its problem: under both
    index rules, tables, scripts of piece gradients and of other
    subgradients, and a state map; over problems with unbounded
    subproblems and with nodes outside dom h."""
    rng = random.Random(1701)
    problems = gens.bundled_problems()
    problems += [gens.random_dc_instance(rng) for _ in range(6)]
    problems += [_half_space_instance(rng) for _ in range(4)]
    problems += [_bounded_h_instance(rng) for _ in range(3)]
    cases = []
    for prob in problems:
        for x0 in _starts(rng, prob, 20):
            rules = _rules(rng, prob, x0)
            if prob.h.domain.is_interior_point(x0):
                rules.append(Scripted((_mean_active_gradient(prob, x0),)))
            for rule in rules:
                cases.append((prob, x0, rule, rng.choice((0, 1, 2, 1000))))
    for prob in (_flat_problem(1), _flat_problem(2)):
        for x0 in _starts(rng, prob, 10):
            cases.append((prob, x0, _EndpointFlip(), rng.choice((2, 3, 1000))))
    expected = [run(_copy(prob), *args) for prob, *args in cases]
    order = list(range(len(cases)))
    rng.shuffle(order)
    shared = {}
    for k in order:
        prob, *args = cases[k]
        shared[k] = run(prob, *args)
    assert [shared[k] for k in range(len(cases))] == expected
    assert len(cases) >= 1000
    kinds = {trace.termination.kind for trace in expected}
    assert kinds == set(TerminationKind)
    # tables and scripts take steps, and read nodes other runs kept
    for kind in (ByActiveSetTable, Scripted):
        assert any(
            isinstance(rule, kind) and len(trace.iterates) > 1
            for (_, _, rule, _), trace in zip(cases, expected)
        )
    # an unbounded subproblem is kept like any other answer, and so is a
    # subgradient that is no piece gradient
    assert any(None in dca._subproblems(prob).values() for prob in problems)
    assert any(
        set(dca._subproblems(prob)) - set(prob.h._scaled_gradients) for prob in problems
    )


def _counting_lps(monkeypatch):
    """A list that gets one entry per LP posed, by any module."""
    posed = []
    start = exactlp._Rows.start

    def counting(rows):
        posed.append(rows)
        return start(rows)

    monkeypatch.setattr(exactlp._Rows, "start", counting)
    return posed


def test_repeated_runs_and_checks_pose_no_lp(monkeypatch):
    """The runs on a problem pose one subproblem LP per distinct xi of the
    problem.  Running them again poses no LP at all, also under a script,
    whose vectors here are active piece gradients and need no weight LP;
    nor does a repeated duality check."""
    rng = random.Random(1703)
    problems = gens.bundled_problems()
    problems += [gens.random_dc_instance(rng) for _ in range(20)]
    problems += [_half_space_instance(rng) for _ in range(5)]
    solved = []

    def counting_solve(lp, **kwargs):
        solved.append(lp.objective)
        return lp_solve(lp, **kwargs)

    for prob in problems:
        starts = _starts(rng, prob, 3)
        runs = [(x0, rule) for x0 in starts for rule in _rules(rng, prob, x0)]
        del solved[:]
        monkeypatch.setattr(dca, "lp_solve", counting_solve)
        first = [run(prob, x0, rule) for x0, rule in runs]
        monkeypatch.undo()
        assert len(set(solved)) == len(solved) == len(dca._subproblems(prob))
        try:
            report = toland_singer_check(prob)
        except HypothesisNotMet as exc:
            report = str(exc)
        del solved[:]
        monkeypatch.setattr(dca, "lp_solve", counting_solve)
        posed = _counting_lps(monkeypatch)
        again = [run(prob, x0, rule) for x0, rule in runs]
        try:
            report_again = toland_singer_check(prob)
        except HypothesisNotMet as exc:
            report_again = str(exc)
        monkeypatch.undo()
        assert again == first
        assert report_again == report
        assert solved == posed == []


# ---------------------------------------------------------------------------
# every node evaluated once per problem; the transition graph of a pick rule


@dataclasses.dataclass(frozen=True)
class _NextPiece(SelectionRule):
    """A `pick` that need not select a subgradient: the piece `shift`
    places after the highest active one, cyclically.  Where f is constant
    on C its runs cycle with any period."""

    q: int
    shift: int = 1

    def pick(self, active):
        return (active[-1] - 1 + self.shift) % self.q + 1


def _bounded_h_instance(rng):
    """A random instance with dom h the half of C where x_1 <= its middle:
    some nodes lie outside dom h."""
    prob = gens.random_dc_instance(rng, n_max=2)
    lo, hi = prob.C.bounding_box()
    n = prob.dimension
    row = (tuple(ONE if k == 0 else ZERO for k in range(n)), (lo[0] + hi[0]) / 2)
    h = MaxAffine(prob.h.pieces, PolyhedralSet(n, inequalities=(row,)))
    return DcProblem(g=prob.g, h=h, C=prob.C)


def _level_instance(rng):
    """A random instance with g = h, so f = 0 on C: any pick keeps the
    objective, and `_NextPiece` cycles."""
    prob = gens.random_dc_instance(rng, n_max=2)
    return DcProblem(g=prob.h, h=prob.h, C=prob.C)


def _random_points(rng, prob, count):
    """`count` random rational points of C (of a box at C's lower corner
    when C is unbounded)."""
    try:
        lo, hi = prob.C.bounding_box()
    except PolydcError:
        lo = lp_feasible(prob.C.equalities, prob.C.inequalities, prob.dimension)
        hi = tuple(c + 2 for c in lo)
    points = []
    for _ in range(count):
        d = rng.randint(1, 9)
        points.append(
            tuple(a + (b - a) * F(rng.randint(0, d), d) for a, b in zip(lo, hi))
        )
    return points


def _walk(graph, prob, x0, rule, max_iter):
    """The run `graph` predicts from x0: x0's own pick, then sigma from node
    to node.  Returns the trace and, when a point repeats, the picks around
    the cycle."""
    x = tuple(F(c) for c in x0)
    if not prob.h.domain.contains(x):
        return DcaTrace((), Termination(TerminationKind.SUBDIFFERENTIAL_EMPTY, step=0)), None
    picks = [rule.pick(tuple(sorted(prob.h.active_indices(x))))]
    iterates = [Iterate(x, prob.h.piece(picks[0])[0], prob.finite_objective(x))]
    seen, step, cycle = {x: 0}, 0, None
    while True:
        if step >= max_iter:
            termination = Termination(TerminationKind.MAX_ITERATIONS, step=step)
            break
        node = graph.nodes[picks[-1] - 1]
        if node.x is None:
            termination = Termination(TerminationKind.SUBPROBLEM_UNBOUNDED, step=step)
            break
        step += 1
        if node.active is None:
            termination = Termination(TerminationKind.SUBDIFFERENTIAL_EMPTY, step=step)
            break
        picks.append(graph.sigma[picks[-1] - 1])
        iterates.append(Iterate(node.x, prob.h.piece(picks[-1])[0], node.value))
        first = seen.get(node.x)
        if first is not None:
            period = step - first
            kind = TerminationKind.FIXED_POINT if period == 1 else TerminationKind.CYCLE
            termination = Termination(kind, step=first, period=period)
            cycle = picks[first:step]
            least = cycle.index(min(cycle))
            cycle = tuple(cycle[least:] + cycle[:least])
            break
        seen[node.x] = step
    return DcaTrace(tuple(iterates), termination), cycle


def _replay_cases(rng):
    """(problem, rule, selects, starts) for the replay test; `selects` says
    whether the rule picks an active piece, so that its fixed points are
    critical."""
    problems = gens.bundled_problems() + [gens.interval_problem()]
    problems += [gens.random_dc_instance(rng) for _ in range(24)]
    problems += [_half_space_instance(rng) for _ in range(6)]
    problems += [_bounded_h_instance(rng) for _ in range(8)]
    levels = [_level_instance(rng) for _ in range(12)]
    for prob in problems + levels:
        starts = _starts(rng, prob, 3) + _random_points(rng, prob, 2)
        rules = [(MinIndexActive(), True), (MaxIndexActive(), True)]
        rules.append((_table(rng, prob), True))
        if prob in levels:
            q = len(prob.h.pieces)
            rules += [(_NextPiece(q), False), (_NextPiece(q, q - 1), False)]
        for rule, selects in rules:
            yield prob, rule, selects, starts


def test_runs_replay_their_transition_graph():
    """Over 1,000 seeded runs under both index rules, random tables and a
    cycling pick, each trace equals its walk on the rule's transition graph
    and the loop that evaluates every iterate and solves every subproblem
    afresh; every fixed point of a selecting rule's graph is critical by
    the weight-LP classifier."""
    rng = random.Random(1907)
    traces = 0
    seen = collections.Counter()
    for prob, rule, selects, starts in _replay_cases(rng):
        graph = transition_graph(prob, rule)
        nodes = [node.x for node in graph.nodes if node.x is not None]
        for j, node in enumerate(graph.nodes, 1):
            if node.x is None:
                continue
            if prob.h.domain.contains(node.x):
                assert node.active == tuple(sorted(prob.h.active_indices(node.x)))
                assert node.value == prob.finite_objective(node.x)
                assert graph.sigma[j - 1] == rule.pick(node.active)
            else:
                assert node.active is node.value is graph.sigma[j - 1] is None
        assert list(graph.terminals) == sorted(graph.terminals)
        assert all(cycle[0] == min(cycle) for cycle in graph.terminals)
        for (j,) in (t for t in graph.terminals if len(t) == 1):
            assert graph.sigma[j - 1] == j
            if selects:
                assert gens.reference_classify(prob, graph.nodes[j - 1].x).critical
                seen["critical fixed point"] += 1
        seen["shared node"] += len(nodes) > len(set(nodes))
        for x0 in starts + nodes:
            max_iter = rng.choice((0, 1, 2, 1000))
            trace = run(prob, x0, rule, max_iter)
            walked, cycle = _walk(graph, prob, x0, rule, max_iter)
            assert trace == walked == gens.reference_dca_run(prob, x0, rule, max_iter)
            if cycle is not None:
                assert cycle in graph.terminals
            kind, step = trace.termination.kind, trace.termination.step
            seen[kind, max_iter if max_iter < 2 else None] += 1
            seen["x0 a node"] += x0 in nodes
            seen["left dom h"] += kind is TerminationKind.SUBDIFFERENTIAL_EMPTY and step > 0
            traces += 1
    assert traces >= 1000
    assert seen[TerminationKind.SUBPROBLEM_UNBOUNDED, None] > 0
    assert seen[TerminationKind.CYCLE, None] > 0
    for max_iter in (0, 1):
        assert seen[TerminationKind.MAX_ITERATIONS, max_iter] > 0
    for case in ("critical fixed point", "shared node", "x0 a node", "left dom h"):
        assert seen[case] > 0, case


def test_a_graph_poses_at_most_q_lps_per_problem(monkeypatch):
    """The graphs of every rule on one problem pose one LP per distinct
    piece gradient between them, and runs after them pose none."""
    rng = random.Random(1913)
    problems = [gens.random_dc_instance(rng) for _ in range(10)]
    problems += [_half_space_instance(rng) for _ in range(3)]
    for prob in problems:
        starts = _starts(rng, prob, 3)
        posed = _counting_lps(monkeypatch)
        graphs = [
            transition_graph(prob, rule)
            for rule in (MinIndexActive(), MaxIndexActive(), _table(rng, prob))
        ]
        assert len(posed) == len({u for u, _ in prob.h.pieces}) <= len(prob.h.pieces)
        for x0 in starts:
            for rule in (MinIndexActive(), MaxIndexActive()):
                run(prob, x0, rule)
        monkeypatch.undo()
        assert len(posed) == len(dca._subproblems(prob))
        assert graphs[0] == transition_graph(_copy(prob), MinIndexActive())
    with pytest.raises(TypeError, match="pick"):
        transition_graph(problems[0], Scripted(()))


def test_interval_graph():
    prob = gens.interval_problem()
    for rule in (MinIndexActive(), MaxIndexActive()):
        graph = transition_graph(prob, rule)
        assert [node.x for node in graph.nodes] == [vec(-2), vec(-2), vec(3)]
        assert [node.active for node in graph.nodes] == [(1,), (1,), (3,)]
        assert [node.value for node in graph.nodes] == [F(-1), F(-1), F(-2)]
        assert graph.sigma == (1, 1, 3)
        assert graph.terminals == ((1,), (3,))


@dataclasses.dataclass(frozen=True)
class _PickMap(SelectionRule):
    """A `pick` by a fixed map from active sets to pieces, active or not."""

    table: tuple

    def pick(self, active):
        return dict(self.table)[active]


def test_a_cycle_entered_above_its_least_piece():
    # g = h = max(-x, x - 4, -1) on [0, 4], so f = 0: the nodes are
    # y = (0, 3, 1) with active sets {1}, {2, 3} and {1, 3}, and the map
    # makes sigma = (3, 3, 2), which piece 1 enters at piece 3
    h = MaxAffine.from_pieces([(vec(-1), F(0)), (vec(1), F(-4)), (vec(0), F(-1))], 1)
    prob = DcProblem(g=h, h=h, C=PolyhedralSet.box(vec(0), vec(4)))
    rule = _PickMap((((1,), 3), ((1, 3), 2), ((2, 3), 3)))
    graph = transition_graph(prob, rule)
    assert [node.x for node in graph.nodes] == [vec(0), vec(3), vec(1)]
    assert graph.sigma == (3, 3, 2)
    assert graph.terminals == ((2, 3),)
    trace = run(prob, vec(0), rule)
    assert trace.points == (vec(0), vec(1), vec(3), vec(1))
    assert trace.termination == Termination(TerminationKind.CYCLE, step=1, period=2)
    assert _walk(graph, prob, vec(0), rule, 1000) == (trace, (2, 3))


def _counting_evaluations(monkeypatch, prob):
    """Lists of the points at which h is evaluated and of every point or
    vector scaled, filled while the patch holds."""
    evaluated, scaled = [], []
    at, scale = MaxAffine._at, model._scaled

    def counting_at(f, point):
        if f is prob.h:
            evaluated.append(point)
        return at(f, point)

    def counting_scale(x):
        scaled.append(x)
        return scale(x)

    monkeypatch.setattr(MaxAffine, "_at", counting_at)
    for module in (model, dca):
        monkeypatch.setattr(module, "_scaled", counting_scale)
    return evaluated, scaled


def test_a_run_evaluates_h_once_per_node(monkeypatch):
    """A fresh run evaluates h at x0 and once per distinct node it solves;
    a warm run evaluates h only at x0, and not even there when x0 is a
    kept node, whose point the problem hands on (`DcProblem._point`),
    under every `pick` rule and under scripts: those replaying the
    index-rule runs, and one step of the mean active gradient, which is
    validated by the weight LP at a kink.  A warm run under a `pick` rule
    scales only x0; a script's vectors are scaled as the keys of their
    nodes."""
    rng = random.Random(1931)
    problems = gens.bundled_problems()
    problems += [gens.random_dc_instance(rng) for _ in range(12)]
    problems += [_half_space_instance(rng) for _ in range(3)]
    problems += [_bounded_h_instance(rng) for _ in range(3)]
    steps = weighed = at_node = 0
    for prob in problems:
        for x0 in _starts(rng, prob, 2):
            rules = [MinIndexActive(), MaxIndexActive(), _table(rng, prob)]
            if prob.h.domain.is_interior_point(x0):
                mean = _mean_active_gradient(prob, x0)
                rules.append(Scripted((mean,)))
                weighed += mean not in [u for u, _ in prob.h.pieces]
            for rule in rules:
                fresh = _copy(prob)
                evaluated, scaled = _counting_evaluations(monkeypatch, fresh)
                trace = run(fresh, x0, rule)
                monkeypatch.undo()
                bounded = [node for node in dca._subproblems(fresh).values() if node]
                assert evaluated[0] == model._scaled(tuple(x0))
                assert sorted(evaluated[1:]) == sorted({n[0].scaled for n in bounded})
                assert trace == run(prob, x0, rule)
                start = model._scaled(tuple(x0))
                kept = {n[0].scaled for n in dca._subproblems(prob).values() if n}
                at_node += start in kept
                evaluated, scaled = _counting_evaluations(monkeypatch, prob)
                assert run(prob, x0, rule) == trace
                monkeypatch.undo()
                assert evaluated == ([] if start in kept else [start])
                assert scaled[0] == tuple(x0)
                if not isinstance(rule, Scripted):
                    assert scaled == [tuple(x0)]
                    # the loop goes on to a script replaying this run
                    rules.append(Scripted(tuple(it.xi for it in trace.iterates)))
                steps += len(trace.iterates) - 1
    assert steps > 0 and weighed > 0 and at_node > 0


def test_validate_trace_evaluates_each_point_once(monkeypatch):
    """`validate_trace` makes one point per distinct x of the trace: each
    function and set is evaluated at most once per point and call, also
    at a fixed point, which the trace holds twice.  A point that is a kept
    node is the node's point, evaluated by the first call that read it, so
    a second call evaluates only the points that are not nodes."""
    rng = random.Random(1937)
    repeated = at_nodes = 0
    for prob in [gens.random_dc_instance(rng) for _ in range(15)]:
        for x0 in _starts(rng, prob, 2):
            trace = run(prob, x0, MinIndexActive())
            xs, xis = trace.points, [it.xi for it in trace.iterates]
            expected = validate_trace(prob, xs, xis)
            with monkeypatch.context() as patch:
                calls = gens.count_evaluations(patch)
                assert validate_trace(prob, xs, xis) == expected
            assert expected.valid and set(calls.values()) <= {1}
            distinct = {model._scaled(x) for x in xs}
            kept = {n[0].scaled for n in dca._subproblems(prob).values() if n}
            assert {point for _, point in calls} == distinct - kept
            repeated += len(distinct) < len(xs)
            at_nodes += bool(distinct & kept)
    assert repeated > 0 and at_nodes > 0


def _warm_nodes(rng, prob):
    """The bounded nodes of `prob` after runs from three starts under both
    index rules, a script of mean active gradients where there is one, and
    the graph of each index rule."""
    for x0 in _starts(rng, prob, 3):
        for rule in (MinIndexActive(), MaxIndexActive()):
            run(prob, x0, rule)
        if prob.h.domain.is_interior_point(x0):
            run(prob, x0, Scripted((_mean_active_gradient(prob, x0),)))
    for rule in (MinIndexActive(), MaxIndexActive()):
        transition_graph(prob, rule)
    return [node for node in dca._subproblems(prob).values() if node]


def test_the_registry_holds_the_points_of_the_bounded_nodes():
    """`DcProblem._nodes` maps each bounded node, scaled, to the very point
    `_subproblems` keeps for it, and to nothing else: two subgradients
    with one minimizer share one point, and `_point` hands it on at the
    node and makes a new point anywhere else."""
    rng = random.Random(1939)
    problems = gens.bundled_problems()
    problems += [gens.random_dc_instance(rng) for _ in range(15)]
    problems += [_half_space_instance(rng) for _ in range(3)]
    shared = 0
    for prob in problems:
        bounded = _warm_nodes(rng, prob)
        points = {id(node[0]): node[0] for node in bounded}
        assert prob._nodes == {p.scaled: p for p in points.values()}
        assert all(prob._nodes[node[0].scaled] is node[0] for node in bounded)
        assert all(prob._point(p.x) is p for p in points.values())
        shared += len(points) < len(bounded)
        for x0 in _starts(rng, prob, 2):
            point = prob._point(x0)
            if point.scaled not in prob._nodes:
                assert prob._point(x0) is not point
        assert prob._nodes == {p.scaled: p for p in points.values()}
    assert shared > 0


def test_checks_at_warm_nodes_evaluate_nothing(monkeypatch):
    """Once a node's point was read, `is_critical`, `is_stationary`,
    `is_local_solution`, `classify` and the objective there make no
    `MaxAffine._at` and no `PolyhedralSet._tight_rows` call, and give what
    they give on a freshly parsed problem."""
    rng = random.Random(1941)
    checked = 0
    for prob in [gens.random_dc_instance(rng) for _ in range(15)]:
        nodes = [node[0].x for node in _warm_nodes(rng, prob) if node[2]]
        checks = (
            is_critical,
            is_stationary,
            is_local_solution,
            classify,
            DcProblem.objective_value,
            DcProblem.finite_objective,
        )
        expected = [[check(prob, x) for check in checks] for x in nodes]
        with monkeypatch.context() as patch:
            calls = gens.count_evaluations(patch)
            assert [[check(prob, x) for check in checks] for x in nodes] == expected
        assert not calls
        fresh = _copy(prob)
        assert [[check(fresh, x) for check in checks] for x in nodes] == expected
        checked += len(nodes)
    assert checked > 0


def test_least_node_value_is_the_global_value():
    """For j in J*, the node y_j is a global minimizer: y_j lies in the
    optimal face of j, inside C, and h >= h_j gives
    f(y_j) <= alpha_j = alpha_bar, the least value of f on C.  So the
    min-index graph's nodes of J* have value alpha_bar, and so has the
    least node value, on every seeded problem."""
    for seed in range(400):
        prob = gens.random_dc_instance(random.Random(seed))
        graph = transition_graph(prob, MinIndexActive())
        alpha_bar, J_star, _ = structure.global_solutions(prob)
        values = [node.value for node in graph.nodes]
        assert {values[j - 1] for j in J_star} == {alpha_bar.value}
        assert min(values) == alpha_bar.value


@dataclasses.dataclass(frozen=True)
class _Mutating(SelectionRule):
    """A `pick` that tries to change the active set it is handed."""

    def pick(self, active):
        active.append(0)  # the kept active set is a tuple: this raises
        return active[0]


def test_a_pick_cannot_change_a_kept_node():
    rng = random.Random(1933)
    for prob in [gens.random_dc_instance(rng) for _ in range(10)]:
        lo, _ = prob.C.bounding_box()
        run(prob, lo, MinIndexActive())
        kept = dict(dca._subproblems(prob))
        for node in filter(None, kept.values()):
            with pytest.raises(AttributeError):
                run(prob, node[0].x, _Mutating())
        assert dca._subproblems(prob) == kept
        for x0 in _starts(rng, prob, 3):
            assert run(prob, x0, MaxIndexActive()) == run(
                _copy(prob), x0, MaxIndexActive()
            )


# ---------------------------------------------------------------------------
# the walk an index rule keeps per piece


class _Unhashable(SelectionRule):
    """The `pick` of `rule` in a rule that cannot be hashed: its runs take
    the step loop and keep no walk."""

    __hash__ = None

    def __init__(self, rule):
        self.rule, self._top_piece = rule, rule._top_piece

    def pick(self, active):
        return self.rule.pick(active)


def _result(call):
    """The trace `call` returns, or the type and message of its error."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _counting_walks(monkeypatch):
    """A Counter of the walks read (`_along`) and built (`_walk`)."""
    calls = collections.Counter()
    for name in ("_along", "_walk"):
        function = getattr(dca, name)

        def counting(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(dca, name, counting)
    return calls


def test_walk_runs_equal_the_step_loop(monkeypatch):
    """Under both index rules, random tables and cycling picks, every run
    equals the run of the step loop, which an unhashable copy of the rule
    takes, and poses no LP that the loop would not: with budgets 0 to 3
    and 1000 in random order, so that walks are built, cut and read, from
    random starts and from the nodes, where the start recurs on its walk."""
    rng = random.Random(1951)
    seen = collections.Counter()
    copies = {}  # one copy per problem, which the loop runs warm as `run` warms it
    for prob, rule, _, starts in _replay_cases(rng):
        if id(prob) not in copies:
            copies[id(prob)] = _copy(prob)
        copy = copies[id(prob)]
        graph = transition_graph(_copy(prob), rule)
        nodes = [node.x for node in graph.nodes if node.x is not None]
        loop = _Unhashable(rule)
        for x0 in starts + nodes:
            budgets = [0, 1, 2, 3, 1000]
            rng.shuffle(budgets)
            for max_iter in budgets:
                posed = _counting_lps(monkeypatch)
                calls = _counting_walks(monkeypatch)
                walked = _result(lambda: run(prob, x0, rule, max_iter))
                on_walk, kept = len(posed), calls["_along"] > calls["_walk"]
                del posed[:]
                looped = _result(lambda: run(copy, x0, loop, max_iter))
                monkeypatch.undo()
                assert walked == looped
                assert on_walk == len(posed)
                seen["kept", kept] += 1
                if kept and isinstance(walked, DcaTrace):
                    end = walked.termination
                    seen["cut"] += end.kind is TerminationKind.MAX_ITERATIONS
                    seen["recurs"] += end.step == 0 and end.period is not None
                    seen["cycle"] += end.kind is TerminationKind.CYCLE
        assert not dca._walks(copy)
    for case in (("kept", True), ("kept", False), "cut", "recurs", "cycle"):
        assert seen[case] > 0, case


def test_a_rule_keeps_at_most_q_walks():
    """After runs from many starts under both index rules, a table given
    twice and a script, each hashable `pick` rule keeps at most q walks,
    one per piece, each of at most q + 1 iterates and none cut by the
    budget; equal tables share theirs, and a script and an unhashable rule
    keep none.  The value of each iterate, read off its node's LP, is
    g - h evaluated afresh there."""
    rng = random.Random(1953)
    problems = [gens.random_dc_instance(rng) for _ in range(16)]
    problems += [_half_space_instance(rng) for _ in range(4)]
    problems += [_bounded_h_instance(rng) for _ in range(4)]
    kept = 0
    for prob in problems:
        q = len(prob.h.pieces)
        table = _table(rng, prob)
        rules = [MinIndexActive(), MaxIndexActive(), table]
        rules += [ByActiveSetTable(dict(table.table)), _Unhashable(table)]
        for x0 in _starts(rng, prob, 12) + _random_points(rng, prob, 12):
            for rule in rules:
                _result(lambda: run(prob, x0, rule, rng.choice((1, 2, 1000))))
            _result(lambda: run(prob, x0, Scripted((prob.h.piece(1)[0],))))
        walks = dca._walks(prob)
        assert set(walks) <= {MinIndexActive(), MaxIndexActive(), table}
        for rule_walks in walks.values():
            assert set(rule_walks) <= set(prob.h.indices)
            for iterates, seen, termination in rule_walks.values():
                assert len(iterates) <= q + 1 and len(seen) <= q
                assert termination.kind is not TerminationKind.MAX_ITERATIONS
                for it in iterates:
                    g, h = prob.g.finite_value(it.x), prob.h.finite_value(it.x)
                    assert it.value == g - h
            kept += len(rule_walks)
    assert kept > 0


@dataclasses.dataclass(frozen=True)
class _PicksOnlyAtStart(dca._ActiveSetRule):
    """A `pick` that raises at every active set but `start`."""

    start: tuple

    def pick(self, active):
        if active != self.start:
            raise InvalidSelection(f"no pick at {list(active)}")
        return active[0]


def test_a_pick_that_raises_on_a_walk_keeps_nothing(monkeypatch):
    # from 0, where h's active set is {2}, the rule picks 2; its node
    # y_2 = -2 has the active set {1}, where the rule raises: the walk of
    # piece 2 is not kept, so the next run builds it again and raises again,
    # posing no LP as the node is kept
    prob = gens.interval_problem()
    rule = _PicksOnlyAtStart((2,))
    for lps in (1, 0):
        posed = _counting_lps(monkeypatch)
        with pytest.raises(InvalidSelection, match=r"no pick at \[1\]"):
            run(prob, vec(0), rule)
        monkeypatch.undo()
        assert len(posed) == lps
        assert dca._walks(prob) == {rule: {}}


def test_a_start_below_its_walk_still_raises():
    # from 0 (f = 0, active set {2}) the min-index rule picks 2: a planted
    # node at y_2 with a value above f(0) raises as the walk is built, and
    # keeps no walk; a planted walk whose first value lies above f(0)
    # raises when it is read
    prob = gens.interval_problem()
    planted = (prob._point(vec(1)), F(1), (2, 3))
    dca._subproblems(prob)[prob.h._scaled_gradients[1]] = planted
    with pytest.raises(InternalCheckFailed, match="objective increased"):
        run(prob, vec(0), MinIndexActive())
    assert dca._walks(prob) == {MinIndexActive(): {}}
    prob = gens.interval_problem()
    expected = run(prob, vec(0), MinIndexActive())
    assert expected.values == (F(0), F(-1), F(-1))
    walks = dca._walks(prob)[MinIndexActive()]
    iterates, seen, termination = walks[2]
    assert run(prob, vec(0), MinIndexActive()) == expected
    raised = dataclasses.replace(iterates[0], value=F(1))
    walks[2] = (raised,) + iterates[1:], seen, termination
    with pytest.raises(InternalCheckFailed, match="objective increased"):
        run(prob, vec(0), MinIndexActive())


def test_a_walk_that_ends_without_a_revisit_is_cut_at_its_length():
    # g = |x| and h = max(0, 2x): from -1, where only piece 1 is active,
    # the max-index rule reaches y_1 = 0, where both are; it picks 2, whose
    # subproblem is unbounded over x >= -1, and whose minimizer 3 over
    # [-1, 3] lies outside dom h = {x <= 1}.  So the walk of piece 1 is the
    # node 0 alone, and a budget of 1 ends the run at 0, before that step
    g = MaxAffine.from_pieces([(vec(1), F(0)), (vec(-1), F(0))], 1)
    pieces = [(vec(0), F(0)), (vec(2), F(0))]
    half_line = PolyhedralSet(1, inequalities=((vec(-1), F(1)),))
    bounded_h = MaxAffine.from_pieces(
        pieces, 1, domain=PolyhedralSet(1, inequalities=((vec(1), F(1)),))
    )
    unbounded = DcProblem(g=g, h=MaxAffine.from_pieces(pieces, 1), C=half_line)
    outside = DcProblem(g=g, h=bounded_h, C=PolyhedralSet.box(vec(-1), vec(3)))
    cases = (
        (unbounded, Termination(TerminationKind.SUBPROBLEM_UNBOUNDED, step=1)),
        (outside, Termination(TerminationKind.SUBDIFFERENTIAL_EMPTY, step=2)),
    )
    rule = MaxIndexActive()
    for prob, end in cases:
        assert run(prob, vec(-1), rule).termination == end
        iterates, _, termination = dca._walks(prob)[rule][1]
        assert [it.x for it in iterates] == [vec(0)] and termination == end
        for max_iter in (0, 1, 2, 1000):
            trace = run(prob, vec(-1), rule, max_iter)
            assert trace == gens.reference_dca_run(prob, vec(-1), rule, max_iter)
            assert trace.points == (vec(-1), vec(0))[: max_iter + 1]
        cut = Termination(TerminationKind.MAX_ITERATIONS, step=1)
        assert run(prob, vec(-1), rule, 1).termination == cut

"""DCA runs: selection rules, canonical subproblem solutions, cycles."""

import functools
import random
from fractions import Fraction

import pytest

from polydc import (
    ByActiveSetTable,
    DcaTrace,
    DcProblem,
    EmptyIntersection,
    Iterate,
    LinearProgram,
    LpStatus,
    MaxAffine,
    MaxIndexActive,
    MinIndexActive,
    OutsideDomain,
    PolyhedralSet,
    Scripted,
    Termination,
    TerminationKind,
    is_critical,
    lp_feasible,
    lp_solve,
    run,
    select_subgradient,
    solve_subproblem,
    toland_singer_check,
    validate_trace,
)
from polydc import dca, exactlp, model, structure
from polydc.dca import InvalidSelection, SubproblemUnboundedError
from polydc.model import InternalCheckFailed

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

    def test_table_rule(self, interval_problem):
        rule = ByActiveSetTable({frozenset({1, 2}): 2, frozenset({2}): 2})
        assert select_subgradient(interval_problem.h, vec(-1), rule) == vec(0)
        with pytest.raises(InvalidSelection, match="no table entry"):
            select_subgradient(interval_problem.h, vec(1), rule)
        bad = ByActiveSetTable({frozenset({2}): 3})
        with pytest.raises(InvalidSelection, match="not active"):
            select_subgradient(interval_problem.h, vec(0), bad)

    def test_outside_domain(self):
        h = MaxAffine.from_pieces(
            [(vec(0), F(0))],
            1,
            domain=PolyhedralSet(1, inequalities=((vec(-1), F(0)),)),
        )
        with pytest.raises(OutsideDomain):
            select_subgradient(h, vec(-1), MinIndexActive())


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

    def test_zero_budget(self, interval_problem):
        trace = run(interval_problem, vec(2), MinIndexActive(), max_iter=0)
        assert trace.termination.kind is TerminationKind.MAX_ITERATIONS
        assert len(trace.points) == 1

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

    def test_x0_validation(self, interval_problem):
        with pytest.raises(OutsideDomain):
            run(interval_problem, vec(4), MinIndexActive())

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
        from polydc import SelectionRule

        class EndpointFlip(SelectionRule):
            def choose(self, h, x, step):
                return vec(1) if x == vec(0) else vec(-1)

        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.constant(0, 1),
            C=PolyhedralSet.box([F(0)], [F(1)]),
        )
        trace = run(prob, vec(F(1, 2)), EndpointFlip(), max_iter=100)
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

    def test_length_mismatch(self, interval_problem):
        with pytest.raises(ValueError):
            validate_trace(interval_problem, [vec(0)], [vec(0), vec(0)])

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
                monkeypatch.setattr(dca, "solve_subproblem", reference_subproblem)
                assert run(prob, x0, rule, max_iter=50) == trace
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
        x0 = vec(F(1, 4), F(1, 4))
        for x, rule in (
            (x0, MinIndexActive()),
            (x0, MaxIndexActive()),
            (vec(1, F(-1, 2)), MinIndexActive()),
            (vec(F(-1, 2), 1), MaxIndexActive()),
        ):
            run(prob, x, rule)
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

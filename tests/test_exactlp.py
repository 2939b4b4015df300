"""Exact LP solver: golden cases, invariants, and the brute-force oracle."""

import collections
import dataclasses
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from polydc import (
    ExtendedRational,
    LinearProgram,
    LpStatus,
    PLUS_INF,
    MINUS_INF,
    lp_feasible,
    lp_solve,
    max_slack,
    optimality_certificate,
    row_space_basis,
)
from polydc import exactlp
from polydc.exactlp import dot, vneg

import gens
from gens import integer_rows, vec


def interval_lp(objective):
    # constraint set [-2, 3] on the line
    return LinearProgram(
        objective=objective,
        equalities=(),
        inequalities=((vec(-1), Fraction(2)), (vec(1), Fraction(3))),
        dimension=1,
    )


class TestLpSolve:
    def test_interval_endpoint(self):
        lp = interval_lp(vec(1))
        out = lp_solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert out.value == Fraction(-2)
        assert out.point == vec(-2)
        assert gens.tight_rows(lp, out) == frozenset({0})
        # mixed-sign rhs: x <= 3 starts on its slack, -x <= -1 on an
        # artificial, so phase 1 runs before the endpoint is found
        for objective, endpoint, tight in ((vec(1), 1, {1}), (vec(-1), 3, {0})):
            lp = LinearProgram(
                objective=objective,
                equalities=(),
                inequalities=((vec(1), Fraction(3)), (vec(-1), Fraction(-1))),
                dimension=1,
            )
            out = lp_solve(lp)
            assert out.status is LpStatus.OPTIMAL
            assert out.point == vec(endpoint)
            assert gens.tight_rows(lp, out) == frozenset(tight)
        # the interval [1, 1] with a redundant negative-rhs row: phase 1
        # ends with an artificial basic at 0 whose row has a negative first
        # entry, so driving it out pivots on a negative integer
        for objective in (vec(1), vec(-1)):
            lp = LinearProgram(
                objective=objective,
                equalities=(),
                inequalities=(
                    (vec(1), Fraction(1)),
                    (vec(Fraction(-1, 2)), Fraction(-1, 2)),
                    (vec(Fraction(-1, 3)), Fraction(-1, 3)),
                ),
                dimension=1,
            )
            out = lp_solve(lp)
            assert out.status is LpStatus.OPTIMAL
            assert out.point == vec(1)
            assert out.value == objective[0]
            assert gens.tight_rows(lp, out) == frozenset({0, 1, 2})

    def test_contradictory_bounds(self):
        lp = LinearProgram(
            objective=vec(0),
            equalities=(),
            inequalities=((vec(1), Fraction(0)), (vec(-1), Fraction(-1))),
            dimension=1,
        )
        assert lp_solve(lp).status is LpStatus.INFEASIBLE
        # no single row is contradictory; only phase 1 finds that
        # x >= 1/3 and y >= 1/4 leave no room for x + y <= 1/2
        lp = LinearProgram(
            objective=vec(1, 1),
            equalities=(),
            inequalities=(
                (vec(1, 1), Fraction(1, 2)),
                (vec(-1, 0), Fraction(-1, 3)),
                (vec(0, -1), Fraction(-1, 4)),
            ),
            dimension=2,
        )
        assert lp_solve(lp).status is LpStatus.INFEASIBLE

    def test_open_ray(self):
        lp = LinearProgram(
            objective=vec(-1),
            equalities=(),
            inequalities=((vec(-1), Fraction(0)),),
            dimension=1,
        )
        assert lp_solve(lp).status is LpStatus.UNBOUNDED

    def test_equality_elimination(self):
        # minimize x2 on {x1 = 1, x1 + x2 <= 3, -x2 <= 0}
        lp = LinearProgram(
            objective=vec(0, 1),
            equalities=((vec(1, 0), Fraction(1)),),
            inequalities=((vec(1, 1), Fraction(3)), (vec(0, -1), Fraction(0))),
            dimension=2,
        )
        out = lp_solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert out.point == vec(1, 0)
        assert out.value == 0
        assert gens.tight_rows(lp, out) == frozenset({1})

    def test_inconsistent_equalities(self):
        lp = LinearProgram(
            objective=vec(0),
            equalities=((vec(1), Fraction(0)), (vec(1), Fraction(1))),
            inequalities=(),
            dimension=1,
        )
        assert lp_solve(lp).status is LpStatus.INFEASIBLE

    def test_redundant_equalities(self):
        # rank-deficient but consistent: x1 + x2 = 2 stated twice (scaled)
        lp = LinearProgram(
            objective=vec(1, 0),
            equalities=(
                (vec(1, 1), Fraction(2)),
                (vec(2, 2), Fraction(4)),
            ),
            inequalities=((vec(-1, 0), Fraction(0)), (vec(0, -1), Fraction(0))),
            dimension=2,
        )
        out = lp_solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert out.value == 0
        assert out.point == vec(0, 2)

    def test_equalities_fix_the_point(self):
        # equalities of full rank leave no freedom; inequalities only checked
        lp = LinearProgram(
            objective=vec(5, -1),
            equalities=((vec(1, 0), Fraction(2)), (vec(0, 1), Fraction(-1))),
            inequalities=((vec(1, 1), Fraction(1)),),
            dimension=2,
        )
        out = lp_solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert out.point == vec(2, -1)
        assert out.value == 11
        assert gens.tight_rows(lp, out) == frozenset({0})
        tight_violation = LinearProgram(
            objective=vec(0, 0),
            equalities=lp.equalities,
            inequalities=((vec(1, 1), Fraction(0)),),
            dimension=2,
        )
        assert lp_solve(tight_violation).status is LpStatus.INFEASIBLE

    def test_exactness_of_reported_data(self):
        rng = random.Random(7)
        for _ in range(50):
            lp = gens.random_bounded_lp(rng)
            out = lp_solve(lp)
            if not out.is_optimal:
                continue
            assert dot(lp.objective, out.point) == out.value
            for row, rhs in lp.equalities:
                assert dot(row, out.point) == rhs
            for row, rhs in lp.inequalities:
                assert dot(row, out.point) <= rhs

    def test_determinism(self):
        rng = random.Random(11)
        for _ in range(25):
            lp = gens.random_bounded_lp(rng)
            assert lp_solve(lp) == lp_solve(lp)

    def test_oracle_equivalence_small(self):
        for fractional in (False, True):
            rng = random.Random(13)
            for _ in range(40):
                lp = gens.random_bounded_lp(rng, fractional)
                status, value = gens.vertex_enumeration_minimum(lp)
                out = lp_solve(lp)
                assert out.status.value == status
                if status == "optimal":
                    assert out.value == value

    def test_degenerate_cycling_guard(self):
        # classic degenerate instance; Bland's rule must terminate
        lp = LinearProgram(
            objective=vec(Fraction(-3, 4), 150, Fraction(-1, 50), 6),
            equalities=(),
            inequalities=(
                (vec(Fraction(1, 4), -60, Fraction(-1, 25), 9), Fraction(0)),
                (vec(Fraction(1, 2), -90, Fraction(-1, 50), 3), Fraction(0)),
                (vec(0, 0, 1, 0), Fraction(1)),
                (vec(-1, 0, 0, 0), Fraction(0)),
                (vec(0, -1, 0, 0), Fraction(0)),
                (vec(0, 0, -1, 0), Fraction(0)),
                (vec(0, 0, 0, -1), Fraction(0)),
            ),
            dimension=4,
        )
        out = lp_solve(lp)
        assert out.status is LpStatus.OPTIMAL
        assert out.value == Fraction(-1, 20)


def walk_from_scratch(lp, k):
    """(status, value, first k coordinates of the lexicographic minimum of
    the optimal face), the face walked with up to two fresh LPs per
    coordinate; a coordinate unbounded below goes to its maximum when that
    is finite and negative, else to 0."""
    out = lp_solve(lp)
    if not out.is_optimal:
        return out.status, None, None
    n = lp.dimension
    equalities = list(lp.equalities) + [(lp.objective, out.value)]
    point = []
    for c in range(k):
        unit = [Fraction(0)] * n
        unit[c] = Fraction(1)
        lo = lp_solve(LinearProgram(unit, equalities, lp.inequalities, n))
        if lo.is_optimal:
            m = lo.value
        else:
            minus = [-u for u in unit]
            hi = lp_solve(LinearProgram(minus, equalities, lp.inequalities, n))
            m = -hi.value if hi.is_optimal and hi.value > 0 else Fraction(0)
        equalities.append((unit, m))
        point.append(m)
    return out.status, out.value, tuple(point)


def optimal_point_is_unique(lp, value):
    equalities = list(lp.equalities) + [(lp.objective, value)]
    for c in range(lp.dimension):
        unit = [Fraction(int(j == c)) for j in range(lp.dimension)]
        lo = lp_solve(LinearProgram(unit, equalities, lp.inequalities, lp.dimension))
        minus = [-u for u in unit]
        hi = lp_solve(LinearProgram(minus, equalities, lp.inequalities, lp.dimension))
        if not (lo.is_optimal and hi.is_optimal and lo.value == -hi.value):
            return False
    return True


def lexmin_cases(rng, fractional):
    """random_bounded_lp, its objective sometimes replaced by 0 or by a
    constraint row (a degenerate optimal face), and sometimes with the box
    rows of some coordinates dropped (a face unbounded in them)."""
    lp = gens.random_bounded_lp(rng, fractional)
    n = lp.dimension
    objective = lp.objective
    shape = rng.randrange(4)
    if shape == 1:
        objective = (Fraction(0),) * n
    elif shape == 2:
        objective = rng.choice(lp.inequalities)[0]
    inequalities = lp.inequalities
    if rng.random() < 0.3:
        dropped = {rng.randrange(n) for _ in range(n)}
        inequalities = [
            row
            for i, row in enumerate(inequalities)
            if i >= 2 * n or i // 2 not in dropped
        ]
        if rng.random() < 0.5:
            objective = (Fraction(0),) * n
    return LinearProgram(objective, lp.equalities, tuple(inequalities), n)


def _degenerate_at(rng, lp, point):
    """`lp` with one more row tight at `point`: the sum of up to two rows
    tight there, so that the vertex is degenerate."""
    tight = [(a, b) for a, b in lp.inequalities if dot(a, point) == b]
    if not tight:
        return lp
    rows = [a for a, _ in rng.sample(tight, min(2, len(tight)))]
    a = tuple(sum(c) for c in zip(*rows))
    extra = (a, dot(a, point))
    return LinearProgram(
        lp.objective, lp.equalities, lp.inequalities + (extra,), lp.dimension
    )


class TestUniqueReport:
    """Every optimal outcome reports whether the final tableau proves the
    optimal point the only one (`LpOutcome.unique`)."""

    def test_a_flagged_point_is_the_whole_optimal_face(self):
        rng = random.Random(1803)
        seen = {"flagged": 0, "unflagged": 0, "degenerate flagged": 0}
        for fractional in (False, True):
            for _ in range(150):
                lp = lexmin_cases(rng, fractional)
                degenerate = False
                out = lp_solve(lp)
                if out.is_optimal and rng.random() < 0.5:
                    lp, degenerate = _degenerate_at(rng, lp, out.point), True
                    out = lp_solve(lp)
                if not out.is_optimal:
                    assert out.unique is False
                    continue
                if not out.unique:
                    seen["unflagged"] += 1
                    continue
                seen["flagged"] += 1
                seen["degenerate flagged"] += degenerate
                # the least and the greatest value of each coordinate over
                # the optimal face are the point's
                n = lp.dimension
                face = list(lp.equalities) + [(lp.objective, out.value)]
                for c in range(n):
                    for sign in (1, -1):
                        unit = [Fraction(sign * int(j == c)) for j in range(n)]
                        at = LinearProgram(unit, face, lp.inequalities, n)
                        extreme = lp_solve(at)
                        assert extreme.is_optimal, lp
                        assert sign * extreme.value == out.point[c], lp
        assert min(seen.values()) >= 20, seen

    def test_equalities_that_fix_the_point_are_one_point(self):
        lp = LinearProgram(
            objective=vec(1, -1),
            equalities=((vec(1, 1), Fraction(1)), (vec(1, -1), Fraction(0))),
            inequalities=((vec(1, 0), Fraction(5)),),
            dimension=2,
        )
        assert lp._rows.start().tableau is None
        assert lp_solve(lp).unique is True

    def test_the_report_is_not_part_of_the_outcome(self):
        out = lp_solve(LinearProgram(vec(1), (), ((vec(-1), Fraction(0)),), 1))
        assert out.unique is True
        assert out == dataclasses.replace(out, unique=False)
        assert hash(out) == hash(dataclasses.replace(out, unique=False))


class TestLexmin:
    """lp_solve(lp, lexmin=k) continues the solved tableau along the optimal
    face; the reference walks the face with fresh LPs."""

    def test_agrees_with_a_walk_from_scratch(self):
        unique_seen = statuses = 0
        seen = set()
        for fractional in (False, True):
            rng = random.Random(17)
            for _ in range(120):
                lp = lexmin_cases(rng, fractional)
                plain = lp_solve(lp)
                for k in range(lp.dimension + 1):
                    out = lp_solve(lp, lexmin=k)
                    assert out.status is plain.status
                    seen.add(out.status)
                    if not out.is_optimal:
                        continue
                    assert (out.status, out.value, out.point[:k]) == walk_from_scratch(
                        lp, k
                    )
                    assert out.value == plain.value == dot(lp.objective, out.point)
                if plain.is_optimal and optimal_point_is_unique(lp, plain.value):
                    unique_seen += 1
                    assert lp_solve(lp, lexmin=lp.dimension) == plain
        assert seen == set(LpStatus)
        assert unique_seen >= 50

    def test_equalities_fix_every_coordinate(self):
        # f = 0: no free coordinate is left for the tableau
        lp = LinearProgram(
            objective=vec(1, -1),
            equalities=((vec(1, 1), Fraction(1)), (vec(1, -1), Fraction(0))),
            inequalities=((vec(1, 0), Fraction(5)), (vec(0, 1), Fraction(1, 2))),
            dimension=2,
        )
        for k in range(3):
            out = lp_solve(lp, lexmin=k)
            assert out == lp_solve(lp)
            assert out.point == vec(Fraction(1, 2), Fraction(1, 2))
            assert gens.tight_rows(lp, out) == frozenset({1})

    def test_added_row_with_negative_rhs_runs_phase_one(self, monkeypatch):
        # x1 + x2 >= 1, x1 <= 5, objective 0: x1 has no minimum and its
        # maximum 5 is reached first, so pinning x1 = 0 adds a row whose
        # rhs is negative there; phase 1 must pivot.  Then x2 >= 1 - 0.
        lp = LinearProgram(
            objective=vec(0, 0),
            equalities=(),
            inequalities=((vec(-1, -1), Fraction(-1)), (vec(1, 0), Fraction(5))),
            dimension=2,
        )
        added, pivots = [], []
        add_equality, pivot = exactlp._Tableau.add_equality, exactlp._Tableau.pivot

        def recording_add(tableau, line, columns):
            rhs = tableau.det * line[-1] - sum(
                line[col] * row[-1] for row, col in zip(tableau.rows, tableau.basis)
            )
            before = len(pivots)
            add_equality(tableau, line, columns)
            added.append((rhs, len(pivots) - before))

        def recording_pivot(tableau, row, col):
            pivots.append(col)
            pivot(tableau, row, col)

        monkeypatch.setattr(exactlp._Tableau, "add_equality", recording_add)
        monkeypatch.setattr(exactlp._Tableau, "pivot", recording_pivot)
        out = lp_solve(lp, lexmin=2)
        assert out.point == vec(0, 1)
        assert gens.tight_rows(lp, out) == frozenset({0})
        assert len(added) == 1
        rhs, phase_one_pivots = added[0]
        assert rhs < 0 and phase_one_pivots >= 1
        monkeypatch.undo()
        assert walk_from_scratch(lp, 2) == (LpStatus.OPTIMAL, 0, vec(0, 1))

    def test_lexmin_is_checked(self):
        with pytest.raises(ValueError):
            lp_solve(interval_lp(vec(1)), lexmin=2)


def objectives_for(rng, lp):
    """Objectives to pose over one LP's rows: its own, zero, +-each row,
    and small random vectors, some with denominators."""
    n = lp.dimension
    objectives = [lp.objective, (Fraction(0),) * n]
    for row, _ in lp.inequalities[:4] + lp.equalities:
        objectives += [row, tuple(-c for c in row)]
    for _ in range(4):
        q = rng.choice((1, 1, 3, 7))
        objectives.append(
            tuple(Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(n))
        )
    return objectives


def start_state(lp):
    """A copy of everything the prepared start of `lp`'s rows holds."""
    start = lp._rows.start()
    if start is None:
        return None
    tableau = start.tableau
    return (
        list(start.pivots),
        [list(row) for row in start.solved],
        start.det,
        start.projected,
        None if tableau is None else gens.full_tableau(tableau),
    )


class TestPreparedStart:
    """Every LP over one set of rows continues the rows' prepared start;
    each outcome must be the one a freshly built LP gives."""

    def test_value_is_the_objective_at_the_point(self):
        seen = set()
        for fractional in (False, True):
            rng = random.Random(23)
            for _ in range(150):
                lp = lexmin_cases(rng, fractional)
                for k in (0, lp.dimension):
                    out = lp_solve(lp, lexmin=k)
                    seen.add(out.status)
                    if out.is_optimal:
                        assert out.value == dot(lp.objective, out.point)
        assert seen == set(LpStatus)
        # the equalities fix the point and the objective has denominators
        lp = LinearProgram(
            objective=vec(Fraction(1, 3), Fraction(-5, 7)),
            equalities=((vec(2, 1), Fraction(1)), (vec(1, -3), Fraction(1, 2))),
            inequalities=(),
            dimension=2,
        )
        out = lp_solve(lp)
        assert out.value == dot(lp.objective, out.point)

    def test_shared_rows_give_fresh_outcomes(self):
        shared_solves = 0
        seen = set()
        for fractional in (False, True):
            rng = random.Random(29)
            for _ in range(60):
                base = lexmin_cases(rng, fractional)
                n = base.dimension
                before = start_state(base)
                posed = [
                    (objective, k)
                    for objective in objectives_for(rng, base)
                    for k in range(n + 1)
                ]
                rng.shuffle(posed)
                for objective, k in posed:
                    shared = base.with_objective(objective)
                    assert shared._rows is base._rows
                    fresh = LinearProgram(
                        objective, base.equalities, base.inequalities, n
                    )
                    assert fresh._rows is not base._rows
                    out = lp_solve(shared, lexmin=k)
                    assert out == lp_solve(fresh, lexmin=k)
                    seen.add(out.status)
                    shared_solves += 1
                assert start_state(base) == before
        assert seen == set(LpStatus)
        assert shared_solves >= 2000

    def test_rows_are_prepared_once(self, monkeypatch):
        rng = random.Random(31)
        lp = None
        while lp is None or not lp_solve(lp).is_optimal or not lp.equalities:
            lp = gens.random_bounded_lp(rng)
        lp = LinearProgram(lp.objective, lp.equalities, lp.inequalities, lp.dimension)
        calls = []
        original = exactlp._eliminate_equalities

        def counting(equalities, dimension):
            calls.append(equalities)
            return original(equalities, dimension)

        monkeypatch.setattr(exactlp, "_eliminate_equalities", counting)
        shared = lp.with_objective(lp.objective)
        for objective in objectives_for(rng, lp):
            lp_solve(lp.with_objective(objective), lexmin=lp.dimension)
        lp_solve(shared)
        assert len(calls) == 1
        lp_solve(LinearProgram(lp.objective, lp.equalities, lp.inequalities, lp.dimension))
        assert len(calls) == 2

    def test_rows_of_another_lp_are_not_shared(self):
        # dataclasses.replace passes the old rows' start along with new rows
        lp = interval_lp(vec(1))
        assert lp_solve(lp).value == -2
        moved = dataclasses.replace(
            lp, inequalities=((vec(-1), Fraction(-4)), (vec(1), Fraction(9)))
        )
        assert moved._rows is not lp._rows
        assert lp_solve(moved).value == 4

    def test_threads_share_starts_built_on_first_use(self):
        # six threads, switching every 10 us, all asking for the same
        # unbuilt starts: each outcome must still be the fresh one
        rng = random.Random(37)
        cases = []
        for fractional in (False, True):
            for _ in range(8):
                base = lexmin_cases(rng, fractional)
                n = base.dimension
                for objective in objectives_for(rng, base)[:6]:
                    fresh = LinearProgram(
                        objective, base.equalities, base.inequalities, n
                    )
                    cases.append((base, objective, n, lp_solve(fresh, lexmin=n)))
        mismatches, finished = [], []

        def solve_all():
            for base, objective, n, expected in cases:
                if lp_solve(base.with_objective(objective), lexmin=n) != expected:
                    mismatches.append(objective)
            finished.append(True)

        threads = [threading.Thread(target=solve_all) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == len(threads)
        assert mismatches == []


class TestCertificate:
    def test_multipliers_prove_optimality(self):
        for fractional in (False, True):
            rng = random.Random(17)
            checked = 0
            while checked < 30:
                lp = gens.random_bounded_lp(rng, fractional)
                out = lp_solve(lp)
                if not out.is_optimal:
                    continue
                mu, lam = optimality_certificate(lp, out)
                assert all(l >= 0 for l in lam)
                # complementary slackness: multipliers vanish off the tight set
                for i, l in enumerate(lam):
                    if i not in gens.tight_rows(lp, out):
                        assert l == 0
                # stationarity
                for d in range(lp.dimension):
                    total = lp.objective[d]
                    total += sum(
                        m * lp.equalities[e][0][d] for e, m in enumerate(mu)
                    )
                    total += sum(
                        l * lp.inequalities[i][0][d] for i, l in enumerate(lam)
                    )
                    assert total == 0
                # dual value equals primal value
                dual = -sum(
                    m * lp.equalities[e][1] for e, m in enumerate(mu)
                ) - sum(l * lp.inequalities[i][1] for i, l in enumerate(lam))
                assert dual == out.value
                checked += 1

    def test_multipliers_scaled_to_the_callers_rows(self):
        # the LP holds each row times its scale s, and the multipliers are
        # those of the held rows: times s, they certify the caller's rows
        lp = LinearProgram(
            vec(1, 1),
            ((vec(Fraction(1, 2), Fraction(1, 3)), Fraction(1)),),
            ((vec(-1, 0), Fraction(0)), (vec(0, Fraction(-1, 4)), Fraction(0))),
            2,
        )
        assert optimality_certificate(lp, lp_solve(lp)) == (
            vec(Fraction(-1, 3)),
            vec(0, Fraction(1, 3)),
        )
        rng = random.Random(19)

        def draw(lo, hi):
            q = rng.randint(2, 12)
            return Fraction(rng.randint(lo * q, hi * q), q)

        checked = 0
        while checked < 40:
            n = rng.randint(1, 3)
            inequalities = []
            for i in range(n):
                e = [Fraction(0)] * n
                e[i] = draw(1, 3)
                inequalities.append((tuple(e), draw(0, 4)))
                inequalities.append((tuple(-c for c in e), draw(0, 4)))
            for _ in range(rng.randint(0, 3)):
                inequalities.append((tuple(draw(-3, 3) for _ in range(n)), draw(-2, 4)))
            equalities = []
            if n > 1 and rng.random() < 0.5:
                equalities.append((tuple(draw(-2, 2) for _ in range(n)), draw(-2, 2)))
            objective = tuple(draw(-3, 3) for _ in range(n))
            lp = LinearProgram(objective, tuple(equalities), tuple(inequalities), n)
            out = lp_solve(lp)
            if not out.is_optimal:
                continue
            mu, lam = optimality_certificate(lp, out)
            rows = equalities + inequalities
            multipliers = [
                y * exactlp.integer_row(a, b)[2] for y, (a, b) in zip(mu + lam, rows)
            ]
            for d in range(n):
                assert objective[d] + sum(
                    y * a[d] for y, (a, _) in zip(multipliers, rows)
                ) == 0
            assert -sum(y * b for y, (_, b) in zip(multipliers, rows)) == out.value
            checked += 1

    def test_multiplier_lp_from_integer_rows(self, monkeypatch):
        # the certificate scales its coordinate rows only; its LP has the
        # integer rows of the one built from Fraction rows
        posed = gens.record_integer_lps(monkeypatch, exactlp)
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            lp = gens.random_bounded_lp(rng, fractional=checked % 2 == 1)
            out = lp_solve(lp)
            if not out.is_optimal:
                continue
            del posed[:]
            mu, lam = optimality_certificate(lp, out)
            (mine,) = posed
            found = gens.assert_same_lp(mine, gens.reference_certificate_lp(lp, out))
            assert mu + lam == found.point
            checked += 1


class TestFeasible:
    def test_witness(self):
        assert lp_feasible(
            ((vec(1), Fraction(3)),), ((vec(1), Fraction(3)),), 1
        ) == vec(3)

    def test_empty(self):
        assert (
            lp_feasible(
                (), ((vec(1), Fraction(-2)), (vec(-1), Fraction(-3))), 1
            )
            is None
        )

    def test_interval_witness_rechecked(self):
        rows = ((vec(-1), Fraction(2)), (vec(1), Fraction(3)))
        witness = lp_feasible((), rows, 1)
        assert witness is not None
        assert all(dot(a, witness) <= b for a, b in rows)


class TestMaxSlack:
    def test_witness_achieves_the_margin(self):
        rng = random.Random(19)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 2)
            box = []
            for i in range(n):
                e = [Fraction(0)] * n
                e[i] = Fraction(1)
                box.append((tuple(e), Fraction(rng.randint(1, 3))))
                box.append((tuple(-c for c in e), Fraction(rng.randint(0, 3))))
            strict = [
                (
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)),
                    Fraction(rng.randint(-1, 3)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            slack, witness = max_slack((), integer_rows(box), integer_rows(strict), n)
            if not slack.is_finite or slack.as_fraction() == 0:
                continue
            checked += 1
            s = slack.as_fraction()
            assert all(dot(a, witness) <= b for a, b in box)
            margins = [b - dot(a, witness) for a, b in strict]
            assert min(margins) == s  # the witness attains the maximum margin

    def test_margin_over_interval(self):
        # weak -x <= 2, x <= 3; strict x < 1.  Brute force over the interval
        # endpoints: margin 1 - x is largest at x = -2, giving 3.
        weak = [(vec(-1), Fraction(2)), (vec(1), Fraction(3))]
        oracle = max(Fraction(1) - x for x in (Fraction(-2), Fraction(3)))
        assert oracle == 3
        slack, witness = max_slack(
            (), integer_rows(weak), integer_rows([(vec(1), Fraction(1))]), 1
        )
        assert slack == ExtendedRational.finite(3)
        assert witness == vec(-2)

    def test_zero_slack_means_empty_strict_system(self):
        slack, witness = max_slack(
            (), [], integer_rows([(vec(1), Fraction(0)), (vec(-1), Fraction(0))]), 1
        )
        assert slack == ExtendedRational.finite(0)
        assert witness == vec(0)

    def test_unconstrained_strict_row(self):
        slack, witness = max_slack((), [], integer_rows([(vec(1), Fraction(5))]), 1)
        assert slack == PLUS_INF
        assert witness is not None and witness[0] < 5

    def test_infeasible_weak_system(self):
        slack, witness = max_slack(
            (), integer_rows([(vec(1), Fraction(-2)), (vec(-1), Fraction(-3))]), [], 1
        )
        assert slack == ExtendedRational.finite(0)
        assert witness is None


def strict_free_systems(rng, count):
    """`count` seeded margin systems without strict rows, as integer rows
    (equalities, weak, dimension): with or without a box, a fifth with a
    pair of contradicting weak rows, so that the weak system is empty,
    some with no weak row at all, and a quarter with an equality."""
    systems = []
    for k in range(count):
        n = rng.randint(1, 3)

        def row():
            q = rng.choice((1, 1, 2, 3, 7))
            a = tuple(Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(n))
            return a, Fraction(rng.randint(-4 * q, 6 * q), q)

        weak = [row() for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            for i in range(n):
                e = tuple(Fraction(int(i == j)) for j in range(n))
                weak += [(e, Fraction(rng.randint(0, 4))), (vneg(e), Fraction(2))]
        if k % 5 == 0:
            a, b = row()
            weak += [(a, b), (vneg(a), -b - 1)]  # a.x <= b and a.x >= b + 1
        if k % 7 == 3:
            weak = []
        equalities = [row()] if rng.random() < 0.25 else []
        systems.append((integer_rows(equalities), integer_rows(weak), n))
    return systems


def lp_rows(lp):
    return lp.objective, lp.equalities, lp.inequalities, lp.dimension


class TestStrictFreeMargin:
    """A margin LP without strict rows is posed once, already capped at
    eps <= 1 (`exactlp._solve_margin`).  Slack, witness and the LP it
    returns are those of the two-LP reference
    (`gens.reference_solve_margin`), which solves the uncapped LP first."""

    def _counting_prepares(self, monkeypatch):
        prepared = []
        prepare = exactlp._prepare

        def counting(*args):
            prepared.append(args)
            return prepare(*args)

        monkeypatch.setattr(exactlp, "_prepare", counting)
        return prepared

    def test_agrees_with_two_lp_reference(self, monkeypatch):
        prepared = self._counting_prepares(monkeypatch)
        outcomes = {"empty": 0, "unbounded": 0, "no weak row": 0}
        for equalities, weak, n in strict_free_systems(random.Random(2001), 300):
            del prepared[:]
            expected = gens.reference_solve_margin(
                exactlp._margin_lp(equalities, weak, (), n)
            )
            reference_starts = len(prepared)
            del prepared[:]
            slack, witness, lp = exactlp._solve_margin(
                exactlp._margin_lp(equalities, weak, (), n)
            )
            assert len(prepared) == 1  # one LP, prepared once
            assert (slack, witness) == expected[:2]
            assert lp_rows(lp) == lp_rows(expected[2])
            assert max_slack(equalities, weak, (), n) == expected[:2]
            if witness is None:
                assert slack == ExtendedRational.finite(0)
                assert reference_starts == 1
                outcomes["empty"] += 1
                continue
            assert slack == PLUS_INF and reference_starts == 2
            assert all(dot(A, witness) == B for A, B, _ in equalities)
            assert all(dot(A, witness) <= B for A, B, _ in weak)
            outcomes["unbounded"] += 1
            outcomes["no weak row"] += not weak
        assert all(outcomes.values()), outcomes

    def test_strict_rows_still_pose_the_uncapped_lp_first(self, monkeypatch):
        # a strict row bounded by nothing: the uncapped LP is unbounded and
        # the capped copy gives the witness, as before
        prepared = self._counting_prepares(monkeypatch)
        lp = exactlp._margin_lp((), [], integer_rows([(vec(1), Fraction(5))]), 1)
        slack, witness, kept = exactlp._solve_margin(lp)
        assert slack == PLUS_INF and len(prepared) == 2 and kept is not lp
        assert (slack, witness) == gens.reference_solve_margin(lp)[:2]


class TestRowSpaceBasis:
    def test_rank_one(self):
        assert row_space_basis([vec(1, 0), vec(2, 0)]) == [vec(1, 0)]

    def test_empty(self):
        assert row_space_basis([]) == []
        assert row_space_basis([vec(0, 0)]) == []

    def test_full_rank_by_hand(self):
        # Gaussian elimination of {(1,1),(1,-1)}: pivots in both columns
        basis = row_space_basis([vec(1, 1), vec(1, -1)])
        assert len(basis) == 2
        # spans Q^2: both unit vectors are combinations; RREF makes it exact
        assert basis == [vec(1, 0), vec(0, 1)]


@st.composite
def integer_systems(draw):
    """Integer rows over `width` columns and a last one, the rhs: entries
    of either sign, so that pivots can be negative; maybe a column of
    zeros; and rows that combine two drawn ones, their rhs moved by -1, 0
    or 1, so dependent rows and inconsistent ones both occur."""
    width = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    rows = draw(
        st.lists(st.lists(entry, min_size=width + 1, max_size=width + 1), max_size=4)
    )
    zero = draw(st.integers(0, width))  # width: no column is zeroed
    for row in rows:
        if zero < width:
            row[zero] = 0
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c, d = draw(entry), draw(entry)
        row = [c * x + d * y for x, y in zip(a, b)]
        row[-1] += draw(st.integers(-1, 1))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return [tuple(row) for row in rows], width


def rref_as_lists(result):
    matrix, pivots, det = result
    return [list(line) for line in matrix], list(pivots), det


@settings(max_examples=400, deadline=None, database=None)
@given(integer_systems())
@example(([(-2, 1, 3), (4, -2, 1), (1, 0, -1)], 2))  # a negative first pivot
@example(([(0, -3, 1), (0, 6, -2), (0, 1, 1)], 2))  # a zero column, 2x a row
@example(([(1, 1, 0), (2, 2, 1)], 2))  # 0 = 1 after elimination
def test_rref_pivots_on_a_tableau_as_before(system):
    """`_rref` runs `_Tableau.pivot` and ends at the integers of its own
    former loop (`gens.reference_rref`), which fixed det's sign once at
    the end; rows are compared as lists."""
    rows, width = system
    assert rref_as_lists(gens.full_rref(exactlp._rref(rows, width), width)) == (
        rref_as_lists(gens.reference_rref(rows, width))
    )
    assert rref_as_lists(
        gens.full_rref(exactlp._rref(rows, width + 1), width + 1)
    ) == rref_as_lists(gens.reference_rref(rows, width + 1))


class TestExtendedRational:
    def test_total_order(self):
        three = ExtendedRational.finite(3)
        assert MINUS_INF < three < PLUS_INF
        assert sorted([PLUS_INF, three, MINUS_INF]) == [MINUS_INF, three, PLUS_INF]

    def test_order_against_other_types_raises_type_error(self):
        one = ExtendedRational.finite(1)
        for compare in (
            lambda: one < Fraction(2),
            lambda: one <= 2,
            lambda: one > 2,
            lambda: one >= Fraction(2),
            lambda: Fraction(2) < one,
            lambda: 2 > one,
        ):
            with pytest.raises(TypeError):
                compare()
        assert one != 1 and one != Fraction(1)

    def test_subtraction_convention(self):
        assert PLUS_INF - PLUS_INF == PLUS_INF
        assert ExtendedRational.finite(1) - PLUS_INF == MINUS_INF
        assert PLUS_INF - ExtendedRational.finite(1) == PLUS_INF
        with pytest.raises(ArithmeticError):
            MINUS_INF - MINUS_INF

    def test_finite_arithmetic(self):
        a = ExtendedRational.finite(Fraction(1, 3))
        b = ExtendedRational.finite(Fraction(1, 6))
        assert (a - b).as_fraction() == Fraction(1, 6)
        assert (a + b).as_fraction() == Fraction(1, 2)


def rational_max_slack(equalities, weak, strict, dimension):
    """max_slack as it was posed from rational rows: the LP over (x, eps)
    built by the public constructor, eps with coefficient 1 in a strict
    row and 0 elsewhere."""
    def embed(rows, eps):
        return [(tuple(a) + (Fraction(eps),), b) for a, b in rows]

    zero = (Fraction(0),) * dimension
    objective = zero + (Fraction(-1),)
    inequalities = embed(weak, 0) + embed(strict, 1) + [(objective, Fraction(0))]
    lp = LinearProgram(objective, embed(equalities, 0), inequalities, dimension + 1)
    out = lp_solve(lp)
    if out.status is LpStatus.INFEASIBLE:
        return ExtendedRational.finite(0), None
    if out.status is LpStatus.UNBOUNDED:
        cap = (zero + (Fraction(1),), Fraction(1))
        capped = dataclasses.replace(lp, inequalities=lp.inequalities + (cap,))
        return PLUS_INF, lp_solve(capped).point[:dimension]
    return ExtendedRational.finite(-out.value), out.point[:dimension]


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def strict_systems(draw):
    n = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[small] * n), small)
    return (
        draw(st.lists(row, max_size=1)),
        draw(st.lists(row, max_size=5)),
        draw(st.lists(row, max_size=3)),
        n,
    )


@settings(max_examples=200, deadline=None, database=None)
@given(strict_systems())
def test_max_slack_from_integer_rows_matches_rational_rows(system):
    *rows, n = system
    expected = rational_max_slack(*rows, n)
    assert max_slack(*(integer_rows(r) for r in rows), n) == expected


@st.composite
def lps_with_copies(draw):
    """An LP, with or without equalities, whose inequalities repeat: each
    drawn copy is inserted somewhere after its original; and a lexmin
    from 0 to n."""
    n = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[small] * n), small)
    drawn = draw(st.lists(row, min_size=1, max_size=6))
    rows = list(drawn)
    if draw(st.booleans()):  # a box, so that most LPs have an optimum
        for j in range(n):
            unit = tuple(Fraction(int(i == j)) for i in range(n))
            rows += [(unit, Fraction(2)), (tuple(-c for c in unit), Fraction(2))]
    for copied in draw(st.lists(st.sampled_from(rows), max_size=4)):
        after = rows.index(copied) + 1
        rows.insert(draw(st.integers(after, len(rows))), copied)
    equalities = draw(st.lists(row, max_size=2))
    # a zero objective reads the point phase 1 ends at
    objective = draw(st.just((Fraction(0),) * n) | st.tuples(*[small] * n))
    lp = LinearProgram(objective, tuple(equalities), tuple(rows), n)
    return lp, draw(st.integers(0, n))


def substituted_rows(lp, start):
    """Each inequality of `lp` as (row, b, first): `row . z <= b` over the
    free coordinates of `start`, and the index of the earlier row it
    copies when `_prepare` leaves it out by the rule it documents (equal
    rows, the earlier kept with b >= 0), else None."""
    rows, first = [], {}
    for i, lp_row in enumerate(lp.inequalities):
        *row, b = start.substitute(*lp_row)
        rows.append((row, b, first.get(lp_row)))
        if b >= 0:
            first.setdefault(lp_row, i)
    return rows


def without_copies(full, lp):
    """The tableau of the every-row start `full` of `lp` without the rows
    and the slack columns of the copies that `_prepare` leaves out, as
    (rows, basis, det) over the columns renumbered."""
    f = len(full.free)
    # every row left nonzero has a slack column in `full`, in order
    nonzero = [first for row, _, first in substituted_rows(lp, full) if any(row)]
    dropped = {2 * f + k for k, first in enumerate(nonzero) if first is not None}
    rows, basis, det = gens.full_tableau(full.tableau)
    width = 2 * f + full.projected + 1  # the rhs last
    columns = [j for j in range(width) if j not in dropped]
    renumbered = {j: k for k, j in enumerate(columns)}
    kept = [r for r, col in enumerate(basis) if col not in dropped]
    return (
        [[rows[r][j] for j in columns] for r in kept],
        [renumbered[basis[r]] for r in kept],
        det,
    )


@settings(max_examples=400, deadline=None, database=None)
@given(lps_with_copies())
def test_repeated_rows_pivot_as_every_row(case):
    lp, lexmin = case
    # phase 1 ends on the every-row tableau without the copies' rows
    full = gens.prepare_every_row(lp.equalities, lp.inequalities, lp.dimension)
    start = lp._rows.start()
    assert (start is None) == (full is None)
    if start is not None and start.tableau is not None:
        assert without_copies(full, lp) == gens.full_tableau(start.tableau)
    out = lp_solve(lp, lexmin=lexmin)
    assert out == gens.solve_every_row(lp, lexmin)


def slack_tight_rows(lp, start, tableau):
    """The inequalities that the final `tableau` (rows, basis, det; None
    when the start has none) of a solve from `start` holds tight: a row
    with a slack column that is nonbasic, or basic at 0; a row that
    substitution leaves as 0 <= 0; and a copy `_prepare` leaves out whose
    first row is tight."""
    f = len(start.free)
    loose = set()
    if tableau is not None:
        rows, basis, _ = tableau
        loose = {col for row, col in zip(rows, basis) if col >= 2 * f and row[-1]}
    tight, k = set(), 0
    for i, (row, b, first) in enumerate(substituted_rows(lp, start)):
        if first is not None:
            if first in tight:
                tight.add(i)
        elif any(row):
            if 2 * f + k not in loose:
                tight.add(i)
            k += 1
        elif b == 0:
            tight.add(i)
    return tight


@settings(max_examples=400, deadline=None, database=None)
@given(lps_with_copies())
def test_rows_tight_at_the_point_are_those_the_tableau_holds_at_zero(case):
    """Outcomes carry no tight set: a reader evaluates the rows at the
    point (`gens.tight_rows`).  Those are exactly the rows the final
    tableau proves tight, copies and rows substitution zeroes included."""
    lp, lexmin = case
    out, tableau = solved_with_tableau(lp, lexmin)
    if out.is_optimal:
        start = lp._rows.start()
        assert gens.tight_rows(lp, out) == slack_tight_rows(lp, start, tableau)


def test_rows_tight_at_the_point_on_seeded_lps():
    optimal = 0
    for seed in range(400):
        lp = gens.random_bounded_lp(random.Random(seed))
        for lexmin in (0, lp.dimension):
            out, tableau = solved_with_tableau(lp, lexmin)
            if out.is_optimal:
                start = lp._rows.start()
                assert gens.tight_rows(lp, out) == slack_tight_rows(lp, start, tableau)
                optimal += 1
    assert optimal >= 350


class TestRepeatedRows:
    """`_prepare` leaves out a later copy of a row whose rhs after
    substitution is >= 0, and keeps one whose rhs is < 0."""

    def test_copy_with_nonnegative_rhs_gets_no_tableau_row(self):
        # x <= 3 twice, -x <= -1 twice: only the second copy of -x <= -1,
        # which starts on an artificial, stays in the tableau
        rows = ((vec(1), Fraction(3)), (vec(-1), Fraction(-1))) * 2
        lp = LinearProgram(vec(1), (), rows, 1)
        start = lp._rows.start()
        assert start.projected == 3
        assert len(start.tableau.rows) == 3
        assert gens.tight_rows(lp, lp_solve(lp)) == {1, 3}
        assert gens.tight_rows(lp, lp_solve(lp.with_objective(vec(-1)))) == {0, 2}

    def test_copies_under_equalities(self):
        # with x1 = 1 - x2 the rows read x2 <= 1 and -x2 <= 2, rhs >= 0
        rows = ((vec(0, 1), Fraction(1)), (vec(1, 0), Fraction(3))) * 2
        lp = LinearProgram(vec(-1, 0), ((vec(1, 1), Fraction(1)),), rows, 2)
        start = lp._rows.start()
        assert start.projected == 2
        out = lp_solve(lp)
        assert out.point == vec(3, -2)
        assert gens.tight_rows(lp, out) == {1, 3}
        assert out == gens.solve_every_row(lp)


def solved_with_tableau(lp, lexmin):
    """`lp_solve(lp, lexmin)` and the tableau it ends with, as (rows,
    basis, det) of the full tableau (`gens.full_tableau`), None when the
    start has no tableau: each solve works on one copy of the start's
    tableau."""
    copies = []
    copy = exactlp._Tableau.copy

    def recording(tableau):
        copies.append(copy(tableau))
        return copies[-1]

    with mock.patch.object(exactlp._Tableau, "copy", recording):
        out = lp_solve(lp, lexmin=lexmin)
    if not copies:
        return out, None
    (tableau,) = copies
    return out, gens.full_tableau(tableau)


@settings(max_examples=400, deadline=None, database=None)
@given(lps_with_copies())
def test_lexmin_walk_skipped_on_a_vertex_face_changes_nothing(case):
    lp, lexmin = case
    assert solved_with_tableau(lp, lexmin) == gens.solve_always_walking(lp, lexmin)


def test_lexmin_walk_runs_only_off_a_vertex_face():
    """With every column of zero reduced cost basic, the optimal face is one
    vertex and `_Start.solve` takes no lexmin step; else it walks.  Both
    occur, and every outcome and final tableau is the always-walking one."""
    rng = random.Random(1505)
    steps = []
    lexmin_step = exactlp._Tableau.lexmin_step

    def counting(tableau, line, columns):
        steps.append(line)
        return lexmin_step(tableau, line, columns)

    walked = {True: 0, False: 0}
    for _ in range(150):
        lp = gens.random_bounded_lp(rng, fractional=rng.random() < 0.3)
        for objective in (lp.objective, (Fraction(0),) * lp.dimension):
            lp = lp.with_objective(objective)
            del steps[:]
            with mock.patch.object(exactlp._Tableau, "lexmin_step", counting):
                got = solved_with_tableau(lp, lp.dimension)
            assert got == gens.solve_always_walking(lp, lp.dimension)
            out, tableau = got
            if out.is_optimal and tableau is not None:
                walked[bool(steps)] += 1
                assert len(steps) in (0, lp.dimension)
    assert walked[True] > 0 and walked[False] > 0, walked


def pivots_and_outcome(lp, lexmin):
    """The outcome of `lp_solve(lp, lexmin)` over freshly posed rows, and
    of `gens.full_solve`, each with its `unique` report and every pivot
    taken, the elimination of the equalities included, as (row, entering
    column)."""
    results = []
    for owner, solve, column in (
        (exactlp._Tableau, lp_solve, lambda t, k: t.cols[k]),
        (gens.FullTableau, gens.full_solve, lambda t, col: col),
    ):
        pivots, pivot = [], owner.pivot

        def recording(tableau, row, k, _pivot=pivot, _pivots=pivots, _col=column):
            _pivots.append((row, _col(tableau, k)))
            _pivot(tableau, row, k)

        with mock.patch.object(owner, "pivot", recording):
            rows = (lp.equalities, lp.inequalities, lp.dimension)
            out = solve(LinearProgram(lp.objective, *rows), lexmin)
        results.append((out, out.unique, pivots))
    return results


class TestDictionaryTableau:
    """The tableau stores only its nonbasic columns and takes the pivots
    of the full tableau it stands for (`gens.FullTableau`, the tableau as
    it was before): the same row and entering column at every pivot, so
    the same outcome and `unique` report."""

    def test_seeded_lps_pivot_as_the_full_tableau(self):
        rng = random.Random(2903)
        seen = collections.Counter()
        for i in range(240):
            lp = lexmin_cases(rng, fractional=i % 3 == 0)
            plain = lp_solve(lp)
            if plain.is_optimal and rng.random() < 0.5:
                lp = _degenerate_at(rng, lp, plain.point)
                seen["degenerate"] += 1
            if lp.inequalities and rng.random() < 0.3:  # repeated rows
                copies = rng.choices(lp.inequalities, k=rng.randint(1, 3))
                rows = lp.inequalities + tuple(copies)
                lp = LinearProgram(lp.objective, lp.equalities, rows, lp.dimension)
                seen["repeated"] += 1
            seen["equalities"] += bool(lp.equalities)
            for k in range(lp.dimension + 1):
                (mine, mine_unique, mine_pivots), reference = pivots_and_outcome(lp, k)
                assert (mine, mine_unique, mine_pivots) == reference, (lp, k)
                seen[mine.status] += 1
                seen["walked"] += bool(k and mine.is_optimal and not mine_unique)
                seen["pivots"] += len(mine_pivots)
        assert all(seen[status] for status in LpStatus), seen
        assert min(seen.values()) >= 20, seen

    def test_negative_pivots_and_added_rows(self):
        # x1 + x2 >= 1, x1 <= 5: phase 1 on an artificial, and the lexmin
        # walk adds the row x1 = 0, whose phase 1 pivots again
        lp = LinearProgram(
            vec(0, 0), (), ((vec(-1, -1), Fraction(-1)), (vec(1, 0), Fraction(5))), 2
        )
        (out, unique, pivots), reference = pivots_and_outcome(lp, 2)
        assert (out, unique, pivots) == reference
        assert out.point == vec(0, 1) and len(pivots) >= 3
        # elimination with negative pivots: the rows of `_rref` as before
        lp = LinearProgram(
            vec(1, 1, 1),
            ((vec(-2, 1, 3), Fraction(1)), (vec(4, -2, 1), Fraction(-3))),
            ((vec(-1, 0, 0), Fraction(4)), (vec(1, 0, 0), Fraction(4))),
            3,
        )
        assert pivots_and_outcome(lp, 3)[0] == pivots_and_outcome(lp, 3)[1]


class TestInequalitiesScaledOnRead:
    """An LP built from rational rows scales each row once, in its
    constructor; an LP made by `with_objective` scales none again."""

    def _counting(self, monkeypatch):
        scaled = []
        integer_row = exactlp.integer_row

        def counting(a, b):
            scaled.append(tuple(a))
            return integer_row(a, b)

        monkeypatch.setattr(exactlp, "integer_row", counting)
        return scaled

    def test_consistent_equalities_scale_every_inequality_once(self, monkeypatch):
        scaled = self._counting(monkeypatch)
        rows = ((vec(Fraction(1, 2), 0), Fraction(1)), (vec(0, -1), Fraction(0)))
        lp = LinearProgram(vec(1, 1), ((vec(1, 1), Fraction(1)),), rows, 2)
        outcome = lp_solve(lp)
        assert outcome.is_optimal and outcome.value == 1
        assert scaled.count(rows[0][0]) == scaled.count(rows[1][0]) == 1
        again = lp_solve(lp.with_objective(vec(-1, 0)))
        assert again.is_optimal and again.value == -1  # y >= 0 caps x at 1
        assert scaled.count(rows[0][0]) == 1
        assert lp == LinearProgram(vec(1, 1), ((vec(1, 1), Fraction(1)),), rows, 2)



class TestExtendedRationalAsPair:
    """`ExtendedRational` is compared, ordered and hashed as its pair
    (sign, value); the reference is the key it was written out by hand
    with (`gens.reference_extended_key`)."""

    VALUES = [
        PLUS_INF,
        MINUS_INF,
        ExtendedRational(1, None),
        ExtendedRational(-1, None),
        ExtendedRational.finite(0),
        ExtendedRational.finite(Fraction(0)),
        ExtendedRational.finite(-3),
        ExtendedRational.finite(Fraction(-3)),
        ExtendedRational.finite(Fraction(-1, 2)),
        ExtendedRational.finite(Fraction(7, 3)),
        ExtendedRational.finite(2),
        ExtendedRational.finite("4/2"),
    ]

    def test_comparisons_and_hash_agree_with_the_reference(self):
        key = gens.reference_extended_key
        for a in self.VALUES:
            for b in self.VALUES:
                ka, kb = key(a), key(b)
                assert (a == b) == (ka == kb), (a, b)
                assert (a != b) == (ka != kb), (a, b)
                assert (a < b) == (ka < kb), (a, b)
                assert (a <= b) == (ka <= kb), (a, b)
                assert (a > b) == (ka > kb), (a, b)
                assert (a >= b) == (ka >= kb), (a, b)
                assert (hash(a) == hash(b)) == (ka == kb), (a, b)

    def test_sorted_and_min_agree_with_the_reference(self):
        key = gens.reference_extended_key
        rng = random.Random(23)
        for _ in range(50):
            values = rng.sample(self.VALUES, rng.randint(1, len(self.VALUES)))
            assert [key(v) for v in sorted(values)] == sorted(map(key, values))
            assert key(min(values)) == min(map(key, values))
            assert key(max(values)) == max(map(key, values))
        assert len(set(self.VALUES)) == len(set(map(key, self.VALUES))) == 7

    def test_not_equal_to_other_types(self):
        assert ExtendedRational.finite(1) != Fraction(1)
        assert PLUS_INF != float("inf")
        with pytest.raises(TypeError):
            PLUS_INF < 1

    def test_infinite_arithmetic(self):
        one = ExtendedRational.finite(1)
        assert PLUS_INF - PLUS_INF == PLUS_INF  # the DC convention
        assert PLUS_INF - one == PLUS_INF
        assert one - PLUS_INF == MINUS_INF
        assert MINUS_INF - one == MINUS_INF
        assert one - MINUS_INF == PLUS_INF
        assert MINUS_INF - PLUS_INF == MINUS_INF
        with pytest.raises(ArithmeticError, match=r"\(-inf\) - \(-inf\)"):
            MINUS_INF - MINUS_INF
        assert PLUS_INF + one == one + PLUS_INF == PLUS_INF
        assert MINUS_INF + one == MINUS_INF + MINUS_INF == MINUS_INF
        with pytest.raises(ArithmeticError, match=r"\(\+inf\) \+ \(-inf\)"):
            PLUS_INF + MINUS_INF
        assert -PLUS_INF == MINUS_INF and -MINUS_INF == PLUS_INF
        assert -one == ExtendedRational.finite(-1)

    def test_text_and_fraction(self):
        assert (str(PLUS_INF), str(MINUS_INF)) == ("+inf", "-inf")
        assert repr(PLUS_INF) == "ExtendedRational(+inf)"
        assert repr(ExtendedRational.finite(Fraction(-1, 2))) == (
            "ExtendedRational(-1/2)"
        )
        assert ExtendedRational.finite("-3/6").as_fraction() == Fraction(-1, 2)
        for infinity in (PLUS_INF, MINUS_INF):
            assert not infinity.is_finite
            with pytest.raises(ValueError, match="is not finite"):
                infinity.as_fraction()

    def test_stays_mutable(self):
        # not frozen: the constructor assigns its slots directly
        x = ExtendedRational.finite(1)
        x.value = Fraction(2)
        assert x == ExtendedRational.finite(2)
        assert not hasattr(x, "__dict__")

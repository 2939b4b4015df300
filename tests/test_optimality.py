"""Classifiers: critical / stationary / local / global, and their chain."""

import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from polydc import (
    MINUS_INF,
    ConvexBody,
    DcProblem,
    GlobalStatus,
    LocalStatus,
    MaxAffine,
    MaxIndexActive,
    MinIndexActive,
    OutsideDomain,
    PolydcError,
    PolyhedralSet,
    TerminationKind,
    classify,
    is_critical,
    is_local_solution,
    is_stationary,
    run,
    solve_linearization,
)
from polydc import InternalCheckFailed, exactlp, model, optimality, structure
from polydc.cli import main
from polydc.exactlp import dot, row_space_basis

import gens
from gens import vec

F = Fraction


class TestBodyOperations:
    def test_hull_containment_on_a_line(self):
        P = ConvexBody(1, points=(vec(0), vec(1)))
        Q = ConvexBody(1, points=(vec(-1), vec(0), vec(1)))
        assert P.issubset(Q)

    def test_halfline_reaches_the_segment(self):
        P = ConvexBody(1, points=(vec(0), vec(1)))
        Q = ConvexBody(1, points=(vec(0),), rays=(vec(1),))
        assert P.issubset(Q)
        assert not ConvexBody(1, points=(vec(-1), vec(0))).issubset(Q)

    def test_intersection_witnesses(self):
        P = ConvexBody(1, points=(vec(0), vec(1)))
        assert P.intersection_witness(ConvexBody(1, points=(vec(1), vec(2)))) == vec(1)
        assert P.intersection_witness(ConvexBody(1, points=(vec(2), vec(3)))) is None

    def test_critical_but_not_stationary_witness(self, abs_problem):
        dh = abs_problem.h.subdifferential(vec(0))
        dgc = abs_problem.g.subdifferential(vec(0)).minkowski_sum(
            abs_problem.C.normal_cone(vec(0))
        )
        assert dh.intersection_witness(dgc) == vec(0)
        assert not dh.issubset(dgc)


class TestCritical:
    def test_interval_probes(self, interval_problem):
        assert is_critical(interval_problem, vec(1))
        assert not is_critical(interval_problem, vec(2))

    def test_absolute_value_origin(self, abs_problem):
        assert is_critical(abs_problem, vec(0))

    def test_precondition_names_failing_set(self, interval_problem):
        with pytest.raises(OutsideDomain, match="constraint set C"):
            is_critical(interval_problem, vec(10))


class TestPreconditions:
    """is_critical, is_stationary and is_local_solution evaluate each row of
    dom g, dom h and C once and name the first of them x lies outside."""

    def _problem(self):
        # dom g = (-oo, 4], dom h = [-1, 5/2], C = [-2, 2]
        g = MaxAffine(
            ((vec(0), F(0)),),
            PolyhedralSet(1, inequalities=((vec(1), F(4)),)),
        )
        h = MaxAffine(
            ((vec(-1), F(-1)), (vec(0), F(0))),
            PolyhedralSet(1, inequalities=((vec(-1), F(1)), (vec(1), F(5, 2)))),
        )
        return DcProblem(g=g, h=h, C=PolyhedralSet.box([F(-2)], [F(2)]))

    @pytest.mark.parametrize(
        "x, message",
        [
            (F(5), "point is outside dom(g)"),  # outside all three
            (F(3), "point is outside dom(h)"),  # outside dom h and C
            (F(9, 4), "point is outside the constraint set C"),
        ],
    )
    def test_message_names_first_failing_set(self, x, message):
        prob = self._problem()
        for single in (is_critical, is_stationary, is_local_solution):
            with pytest.raises(OutsideDomain) as info:
                single(prob, vec(x))
            assert str(info.value) == message

    def test_each_row_set_evaluated_once(self, monkeypatch):
        calls = []
        original = model.PolyhedralSet._tight_rows

        def counting(self, x):
            calls.append(self)
            return original(self, x)

        monkeypatch.setattr(model.PolyhedralSet, "_tight_rows", counting)
        prob = self._problem()
        for single in (is_critical, is_stationary):
            calls.clear()
            assert single(prob, vec(0))
            assert calls == [prob.g.domain, prob.h.domain, prob.C]


class TestStationary:
    def test_interval_probes(self, interval_problem):
        assert is_stationary(interval_problem, vec(0))
        assert not is_stationary(interval_problem, vec(1))

    def test_absolute_value_origin(self, abs_problem):
        assert not is_stationary(abs_problem, vec(0))


class TestLocal:
    def test_interval_probes(self, interval_problem):
        assert is_local_solution(interval_problem, vec(-2)) is LocalStatus.YES
        assert is_local_solution(interval_problem, vec(-1)) is LocalStatus.NO

    def test_boundary_of_dom_h_gives_a_definite_verdict(self):
        # h finite only on [0, oo); at 0 stationarity holds although 0 is
        # not interior to dom h, and f = 0 on C, so 0 is a local solution
        dom_h = PolyhedralSet(1, inequalities=((vec(-1), F(0)),))
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.from_pieces([(vec(0), F(0))], 1, domain=dom_h),
            C=PolyhedralSet.box([F(0)], [F(1)]),
        )
        assert is_stationary(prob, vec(0))
        assert is_local_solution(prob, vec(0)) is LocalStatus.YES
        # on C = [-1, 1] the face of h's piece still holds 0, but f = -oo
        # left of 0, outside dom h: the normal cone of dom h at 0 is not
        # in that of C, so 0 is neither stationary nor local
        wider = dataclasses.replace(prob, C=PolyhedralSet.box([F(-1)], [F(1)]))
        assert is_critical(wider, vec(0))
        assert not is_stationary(wider, vec(0))
        assert is_local_solution(wider, vec(0)) is LocalStatus.NO
        # stationarity failing still yields a definite "no", even at a
        # boundary point of dom(h): here f = -x decreases through 0
        sloped = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.from_pieces([(vec(1), F(0))], 1, domain=dom_h),
            C=PolyhedralSet.box([F(0)], [F(1)]),
        )
        assert not sloped.h.domain.is_interior_point(vec(0))
        assert is_local_solution(sloped, vec(0)) is LocalStatus.NO


class TestClassify:
    def test_global_solution(self, interval_problem):
        c = classify(interval_problem, vec(3), compute_global=True)
        assert (c.critical, c.stationary) == (True, True)
        assert c.local is LocalStatus.YES
        assert c.global_ is GlobalStatus.YES

    def test_local_but_not_global(self, interval_problem):
        c = classify(interval_problem, vec(-2), compute_global=True)
        assert c.local is LocalStatus.YES
        assert c.global_ is GlobalStatus.NO

    def test_slope_region_is_nothing(self, interval_problem):
        # f = 1 - x strictly decreases through 2, so 2 is no local solution
        c = classify(interval_problem, vec(2), compute_global=True)
        assert (c.critical, c.stationary) == (False, False)
        assert c.local is LocalStatus.NO
        assert c.global_ is GlobalStatus.NO

    def test_infeasible_point(self, interval_problem):
        c = classify(interval_problem, vec(7))
        assert not c.feasible
        assert c.local is LocalStatus.NO
        assert c.global_ is GlobalStatus.NOT_COMPUTED

    def test_chain_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(12):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            for _ in range(6):
                x = tuple(
                    l + F(rng.randint(0, 3), 3) * (u - l) for l, u in zip(lo, hi)
                )
                c = classify(prob, x)
                if c.local is LocalStatus.YES:
                    assert c.stationary
                if c.stationary:
                    assert c.critical

    def test_global_implies_local(self):
        rng = random.Random(37)
        for _ in range(8):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            x = tuple(
                l + F(rng.randint(0, 2), 2) * (u - l) for l, u in zip(lo, hi)
            )
            c = classify(prob, x, compute_global=True)
            if c.global_ is GlobalStatus.YES:
                assert c.local is LocalStatus.YES

    def test_a_global_solution_called_not_stationary_raises(self, monkeypatch, capsys):
        # a planted defect: stationarity denied at the global solution 3 of
        # the bundled interval problem.  global => local => stationary is
        # checked, so the report names the point instead of upgrading it
        path = gens.PROBLEMS / "interval.json"
        prob = gens.parse_problem(path.read_text(encoding="utf-8"))
        original = optimality._stationary

        def denied_at_3(prob, point, on_face):
            return point.x != vec(3) and original(prob, point, on_face)

        monkeypatch.setattr(optimality, "_stationary", denied_at_3)
        with pytest.raises(InternalCheckFailed, match=r"^global solution \(3\) is"):
            classify(prob, vec(3), compute_global=True)
        assert classify(prob, vec(3)).local is LocalStatus.NO  # no check asked
        assert classify(prob, vec(-2), compute_global=True).local is LocalStatus.YES
        argv = ["classify", "--problem", str(path), "--point", "3", "--global"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: global solution (3) is not stationary\n"
        )


    def test_global_reads_f_from_the_same_point(self, monkeypatch):
        """With compute_global, f(x) is read from the point classified, so
        each function and set is evaluated at most once per call, on seeded
        points inside and outside C, including global solutions."""
        rng = random.Random(39)
        verdicts = set()
        for _ in range(20):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            points = [
                tuple(l + F(rng.randint(-1, 5), 4) * (u - l) for l, u in zip(lo, hi))
                for _ in range(4)
            ]
            alpha_bar, _, faces = structure.global_solutions(prob)
            points += [face.witness for face in faces]
            for x in points:
                expected = classify(prob, x, compute_global=True)
                with monkeypatch.context() as patch:
                    calls = gens.count_evaluations(patch)
                    assert classify(prob, x, compute_global=True) == expected
                assert max(calls.values()) == 1
                verdicts.add((expected.feasible, expected.global_))
        assert verdicts == {
            (False, GlobalStatus.NO),
            (True, GlobalStatus.NO),
            (True, GlobalStatus.YES),
        }


class TestConcurrentUse:
    def test_parallel_classification_is_consistent(self, interval_problem):
        # all operations are pure functions of immutable values
        from concurrent.futures import ThreadPoolExecutor

        probes = [vec(F(k, 8)) for k in range(-16, 25)]
        expected = [classify(interval_problem, x) for x in probes]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda x: classify(interval_problem, x), probes)
            )
        assert results == expected


class TestTwoRouteEquivalence:
    """The classifier's generator machinery must agree with the raw
    active-set formulas at points interior to both domains."""

    def _direct_bodies(self, prob, x):
        dh = ConvexBody(
            prob.dimension,
            points=tuple(
                prob.h.pieces[j - 1][0]
                for j in sorted(prob.h.active_indices(x))
            ),
        )
        tight = tuple(
            a for a, b in prob.C.inequalities if sum(
                c * v for c, v in zip(a, x)
            ) == b
        )
        dgc = ConvexBody(
            prob.dimension,
            points=tuple(
                prob.g.pieces[i - 1][0]
                for i in sorted(prob.g.active_indices(x))
            ),
            rays=tight,
            lineality=tuple(a for a, _ in prob.C.equalities),
        )
        return dh, dgc

    def test_hull_plus_cone_route(self):
        rng = random.Random(41)
        for _ in range(10):
            prob = gens.random_dc_instance(rng)
            lo, hi = prob.C.bounding_box()
            probes = [
                tuple(l + F(k, 2) * (u - l) for l, u in zip(lo, hi))
                for k in range(3)
            ]
            for x in probes:
                dh, dgc = self._direct_bodies(prob, x)
                assert dh.issubset(dgc) == is_stationary(prob, x)

    def test_equality_rows_as_lineality(self):
        # constraint set: the segment {x1 = 0} x [-1, 1], so the normal
        # cone mixes a lineality space with tight-row rays
        C = PolyhedralSet(
            2,
            equalities=((vec(1, 0), F(0)),),
            inequalities=((vec(0, 1), F(1)), (vec(0, -1), F(1))),
        )
        g = MaxAffine.constant(0, 2)
        h = MaxAffine.from_pieces([(vec(0, 1), F(0)), (vec(0, -1), F(0))], 2)
        prob = DcProblem(g=g, h=h, C=C)
        # at (0, 1): N_C = span{(1,0)} + pos{(0,1)}; dh = {(0,1)} fits
        assert is_stationary(prob, vec(0, 1))
        # at (0, 0): dh = conv{(0,1),(0,-1)}, N_C = span{(1,0)}: not stationary
        assert not is_stationary(prob, vec(0, 0))
        assert is_critical(prob, vec(0, 0))
        # replacing the lineality by the raw equality row changes nothing
        basis = row_space_basis([vec(1, 0)])
        assert basis == [vec(1, 0)]


def _hand_instances():
    # 1-D: dom h = [-1, 5/2] ends inside C = [-2, 3]; dom g = (-oo, 4]
    h = MaxAffine(
        ((vec(-1), F(-1)), (vec(0), F(0)), (vec(1), F(-1))),
        PolyhedralSet(1, inequalities=((vec(-1), F(1)), (vec(1), F(5, 2)))),
    )
    g = MaxAffine(
        ((vec(0), F(0)), (vec(1), F(-2))),
        PolyhedralSet(1, inequalities=((vec(1), F(4)),)),
    )
    C = PolyhedralSet.box([F(-2)], [F(3)])
    yield DcProblem(g=g, h=h, C=C)
    # 1-D with an equality row: C = {1}
    yield DcProblem(
        g=g, h=h, C=PolyhedralSet(1, equalities=((vec(1), F(1)),))
    )
    # 2-D: C is the segment x1 + x2 = 0, |x1| <= 1; dom h cuts it at
    # x1 = 1/2 and carries the equality row of C; dom g is x1 - x2 <= 3
    segment = PolyhedralSet(
        2,
        equalities=((vec(1, 1), F(0)),),
        inequalities=((vec(1, 0), F(1)), (vec(-1, 0), F(1))),
    )
    h2 = MaxAffine(
        ((vec(0, 1), F(0)), (vec(0, -1), F(0)), (vec(1, 0), F(-1, 2))),
        PolyhedralSet(
            2,
            equalities=((vec(1, 1), F(0)),),
            inequalities=((vec(1, 0), F(1, 2)),),
        ),
    )
    g2 = MaxAffine(
        ((vec(1, 0), F(0)), (vec(-1, 1), F(0))),
        PolyhedralSet(2, inequalities=((vec(1, -1), F(3)),)),
    )
    yield DcProblem(g=g2, h=h2, C=segment)
    # the same with a full-dimensional dom h, so local=YES can occur
    h2_full = MaxAffine(h2.pieces, PolyhedralSet.whole_space(2))
    yield DcProblem(g=g2, h=h2_full, C=segment)
    # dom g and C with different equality rows: both lineality spaces
    # enter the subdifferential of g + indicator(C) at the origin
    diagonal = PolyhedralSet(2, equalities=((vec(1, -1), F(0)),))
    yield DcProblem(g=MaxAffine(g2.pieces, diagonal), h=h2_full, C=segment)


def _faces_holding(prob, x):
    """For each piece j of h active at x, in order, whether x attains the
    least value of (g + indicator(C)) - v_j.x: the optimal face of j holds
    x."""
    value = prob.g_plus_indicator.finite_value(x)
    holding = []
    for j in sorted(prob.h.active_indices(x)):
        least = solve_linearization(prob, j, shifted=False).value
        holding.append(
            least.is_finite
            and value - dot(prob.h.piece(j)[0], x) == least.as_fraction()
        )
    return holding


class TestOnePassClassifier:
    """`classify` evaluates each row and piece once and builds one pair of
    subdifferentials; it must give the verdicts of the old route and pose
    exactly the LPs of it that no face decides."""

    def _instances(self):
        rng = random.Random(53)
        plain = [gens.random_dc_instance(rng, n_max=2) for _ in range(30)]
        shaped = [
            gens.with_domains(rng, gens.random_dc_instance(rng, n_max=2))
            for _ in range(30)
        ]
        return plain + shaped + list(_hand_instances())

    def test_agrees_with_reference_and_poses_the_same_lps(self, monkeypatch):
        posed = []
        original = exactlp.lp_solve

        def recording(lp):
            posed.append(lp)
            return original(lp)

        for module in (exactlp, model):
            monkeypatch.setattr(module, "lp_solve", recording)
        seen = set()
        instances = self._instances()
        assert len(instances) >= 50
        decided = set()
        for prob in instances:
            structure._linearized(prob)  # the problem's own LPs, posed before any point
            for x in gens.probes(prob):
                posed.clear()
                expected = gens.reference_classify(prob, x)
                reference_lps = list(posed)
                posed.clear()
                assert classify(prob, x) == expected, (prob, x)
                # the reference's first LP is its intersection test, then
                # one containment test per active gradient, then one
                # recession test per generator of the normal cone of dom h
                # (its direction LPs are not recorded: `reference_local`).
                # The lemma poses no intersection LP where a face holds x
                # and no containment LP; the recession LPs are posed only
                # off the interior of dom h where every face holds x
                if expected.feasible:
                    holding = _faces_holding(prob, x)
                    interior = expected.hypothesis_flags.interior_dom_h
                    lps = [] if any(holding) else reference_lps[:1]
                    if all(holding) and not interior:
                        lps += reference_lps[1 + len(holding) :]
                    reference_lps = lps
                    decided.add((any(holding), all(holding), interior))
                assert posed == reference_lps, (prob, x)
                seen.add(
                    (
                        expected.feasible,
                        expected.critical,
                        expected.stationary,
                        expected.local,
                        expected.hypothesis_flags.interior_dom_h,
                    )
                )
        assert decided == {
            (some, every, interior)
            for some, every in ((True, True), (True, False), (False, False))
            for interior in (True, False)
        }
        no, yes = LocalStatus.NO, LocalStatus.YES
        for verdict in [
            (False, False, False, no, False),  # outside
            (True, False, False, no, True),
            (True, True, False, no, True),
            (True, True, True, yes, True),
            (True, True, False, no, False),  # on the boundary of dom h
            (True, True, True, yes, False),
        ]:
            assert verdict in seen

    def test_single_verdicts_agree_with_classify(self):
        for prob in list(_hand_instances()) + self._instances()[:10]:
            for x in gens.probes(prob):
                c = classify(prob, x)
                if not c.feasible:
                    for single in (is_critical, is_stationary, is_local_solution):
                        with pytest.raises(OutsideDomain):
                            single(prob, x)
                    continue
                assert is_critical(prob, x) == c.critical
                assert is_stationary(prob, x) == c.stationary
                assert is_local_solution(prob, x) is c.local


def _with_bounded_dom_h(rng, prob):
    """`prob` with dom h a box around C's centre whose sides sit on probe
    coordinates, a quarter of C's box inside it, on it or outside it."""
    lo, hi = prob.C.bounding_box()
    lows = [l + F(rng.randint(-1, 1), 4) * (u - l) for l, u in zip(lo, hi)]
    highs = [l + F(rng.randint(3, 5), 4) * (u - l) for l, u in zip(lo, hi)]
    h = MaxAffine(prob.h.pieces, PolyhedralSet.box(lows, highs))
    return DcProblem(g=prob.g, h=h, C=prob.C)


def _unbounded_instance(rng):
    """C = {x >= lo}, with an upper bound on the first coordinate half of
    the time, so some linearized subproblems are unbounded; returns the
    problem and probes at quarter steps from one step below lo."""
    n = rng.randint(1, 2)
    lo = [F(rng.randint(-2, 0)) for _ in range(n)]
    rows = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(-1)
        rows.append((tuple(e), -lo[i]))
    if rng.random() < 0.5:
        rows.append((tuple([F(1)] + [F(0)] * (n - 1)), lo[0] + rng.randint(1, 3)))

    def pieces(count):
        drawn = set()
        while len(drawn) < count:
            u = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            drawn.add((u, F(rng.randint(-4, 4), 2)))
        return sorted(drawn)

    prob = DcProblem(
        g=MaxAffine.from_pieces(pieces(rng.randint(1, 3)), n),
        h=MaxAffine.from_pieces(pieces(rng.randint(1, 4)), n),
        C=PolyhedralSet(n, inequalities=tuple(rows)),
    )
    axes = [[l + F(k, 4) for k in range(-1, 10)] for l in lo]
    return prob, list(itertools.product(*axes))


class TestReferenceLocal:
    """`classify`'s `local` verdict against `gens.reference_local`, which
    decides local optimality by direction LPs and reads neither the faces
    nor the weight LPs: they must agree at every feasible probe, on and off
    the boundaries of dom g, dom h and C."""

    def test_agrees_with_direction_lps_on_proper_domains(self):
        rng = random.Random(2701)
        count = dict.fromkeys(["feasible", "boundary of dom h", "local there"], 0)
        for k in range(1000):
            prob = gens.random_dc_instance(rng, n_max=2)
            if k % 2:
                prob = _with_bounded_dom_h(rng, prob)
            else:
                prob = gens.with_domains(rng, prob)
            for x in gens.probes(prob):
                c = classify(prob, x)
                if not c.feasible:
                    continue
                local = gens.reference_local(prob, x)
                assert (c.local is LocalStatus.YES) == local, (prob, x)
                count["feasible"] += 1
                if not c.hypothesis_flags.interior_dom_h:
                    count["boundary of dom h"] += 1
                    count["local there"] += local
        assert count["local there"] >= 100, count
        assert count["boundary of dom h"] >= 1000, count


class TestChain:
    """global => local => stationary => critical, each verdict from its own
    oracle, so no implication is built into the check: global from the
    vertices of g's cells (`gens.reference_global_value`), local from
    direction LPs (`gens.reference_local`), stationary and critical from
    the weight LPs of `gens.reference_classify`."""

    def test_chain_from_independent_oracles(self):
        rng = random.Random(2702)
        seen = collections.Counter()
        for _ in range(150):
            prob = gens.random_dc_instance(rng, n_max=2)
            alpha_bar, minimizers = gens.reference_global_value(prob)
            for x in gens.probes(prob) + minimizers:
                expected = gens.reference_classify(prob, x)
                if not expected.feasible:
                    continue
                g, h = (
                    max(dot(u, x) + a for u, a in f.pieces) for f in (prob.g, prob.h)
                )
                is_global = g - h == alpha_bar
                local = gens.reference_local(prob, x)
                chain = (is_global, local, expected.stationary, expected.critical)
                for premise, conclusion in zip(chain, chain[1:]):
                    assert conclusion or not premise, (prob, x, chain)
                seen[sum(chain)] += 1
        # every step of the chain is met and left, but for stationary to
        # local: for polyhedral data the two are one (`optimality`)
        assert set(seen) == {0, 1, 3, 4}, seen


class TestFaceLemma:
    """`classify`, `is_critical` and `is_stationary` decide by the optimal
    faces where the lemma of `optimality` applies.  The weight-LP
    classifier `gens.reference_classify` reads no face, and takes `local`
    from direction LPs; they must agree with it at every point."""

    def _instances(self):
        rng = random.Random(1601)
        problems = [gens.random_dc_instance(rng, n_max=2) for _ in range(25)]
        problems += [
            gens.with_domains(rng, gens.random_dc_instance(rng, n_max=2))
            for _ in range(25)
        ]
        problems += [
            _with_bounded_dom_h(rng, gens.random_dc_instance(rng, n_max=2))
            for _ in range(20)
        ]
        problems += list(_hand_instances())
        instances = [(prob, gens.probes(prob)) for prob in problems]
        return instances + [_unbounded_instance(rng) for _ in range(25)]

    def test_agrees_with_the_weight_lp_reference(self):
        saw = dict.fromkeys(
            [
                "face",
                "weight-lp critical",
                "not critical",
                "stationary",
                "unbounded subproblem",
                "kink",
                "boundary of dom g",
                "boundary of a bounded dom h",
                "local on the boundary of dom h",
                "equality in C",
            ],
            0,
        )
        for prob, probes in self._instances():
            try:
                prob.h.domain.bounding_box()
                bounded_dom_h = True
            except PolydcError:
                bounded_dom_h = False
            for x in probes:
                expected = gens.reference_classify(prob, x)
                assert classify(prob, x) == expected, (prob, x)
                if not expected.feasible:
                    for single in (is_critical, is_stationary):
                        with pytest.raises(OutsideDomain):
                            single(prob, x)
                    continue
                assert is_critical(prob, x) == expected.critical, (prob, x)
                assert is_stationary(prob, x) == expected.stationary, (prob, x)
                active = prob.h.active_indices(x)
                on_face = any(_faces_holding(prob, x))
                saw["face"] += on_face
                saw["weight-lp critical"] += expected.critical and not on_face
                saw["not critical"] += not expected.critical
                saw["stationary"] += expected.stationary
                saw["unbounded subproblem"] += any(
                    solve_linearization(prob, j).value == MINUS_INF for j in active
                )
                saw["kink"] += len(active) > 1
                flags = expected.hypothesis_flags
                saw["boundary of dom g"] += not flags.interior_dom_g
                saw["boundary of a bounded dom h"] += (
                    bounded_dom_h and not flags.interior_dom_h
                )
                saw["local on the boundary of dom h"] += (
                    expected.local is LocalStatus.YES and not flags.interior_dom_h
                )
                saw["equality in C"] += bool(prob.C.equalities)
        assert all(saw.values()), saw

    def test_is_critical_poses_no_lp_at_dca_fixed_points(self, monkeypatch):
        posed = []

        def recording(original):
            def solve(lp, **kwargs):
                posed.append(lp)
                return original(lp, **kwargs)

            return solve

        for module in (exactlp, model, structure):
            monkeypatch.setattr(module, "lp_solve", recording(module.lp_solve))
        rng = random.Random(1602)
        traces = fixed = 0
        for _ in range(130):
            prob = gens.random_dc_instance(rng, n_max=3)
            lo, hi = prob.C.bounding_box()
            centre = tuple((a + b) / 2 for a, b in zip(lo, hi))
            corner = tuple(rng.choice(pair) for pair in zip(lo, hi))
            structure._linearized(prob)  # the problem's own LPs, posed once
            for rule in (MinIndexActive(), MaxIndexActive()):
                for x0 in (lo, hi, centre, corner):
                    trace = run(prob, x0, rule)
                    traces += 1
                    if trace.termination.kind is not TerminationKind.FIXED_POINT:
                        continue
                    fixed += 1
                    posed.clear()
                    assert is_critical(prob, trace.final_point), prob
                    assert posed == [], (prob, x0)
        assert traces >= 1000 and fixed >= 1000

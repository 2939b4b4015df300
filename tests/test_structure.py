"""Solution-set decomposition: linearizations, pieces, components, paths."""

import itertools
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import pytest

from polydc import (
    DcProblem,
    MaxAffine,
    MINUS_INF,
    OutsideDomain,
    PolyhedralSet,
    SemiClosedPiece,
    is_stationary,
    toland_singer_check,
)
from polydc import exactlp, model, structure
from polydc.cli import parse_problem
from polydc.exactlp import ExtendedRational, dot, vneg, vsub
from polydc.structure import (
    EnumerationCapExceeded,
    HypothesisNotMet,
    _piece_subset,
    _same_member_set,
    _strict_witness,
    build_piece,
    check_structure_hypotheses,
    components,
    global_solutions,
    local_pieces,
    pieces_adjacent,
    segment_path,
    solution_structure,
    solve_linearization,
)

import gens
from gens import vec

F = Fraction


def endpoint_minimum(pieces_value, lo=F(-2), hi=F(3)):
    """Oracle for a linear objective over an interval: endpoint minimum."""
    return min(pieces_value(lo), pieces_value(hi))


class TestSolveLinearization:
    def test_steep_piece(self, interval_problem):
        # j = 3: minimize 0 - (x - 1) over [-2, 3]; endpoints give -2 at x=3
        oracle = endpoint_minimum(lambda x: -(x - 1))
        assert oracle == -2
        r = solve_linearization(interval_problem, 3, shifted=True)
        assert r.value == ExtendedRational.finite(oracle)
        assert r.witness == vec(3)
        lo, hi = r.face.bounding_box()
        assert (lo, hi) == (vec(3), vec(3))

    def test_negative_slope_piece(self, interval_problem):
        oracle = endpoint_minimum(lambda x: -(-x - 1))
        assert oracle == -1
        r = solve_linearization(interval_problem, 1, shifted=True)
        assert r.value == ExtendedRational.finite(-1)
        lo, hi = r.face.bounding_box()
        assert (lo, hi) == (vec(-2), vec(-2))

    def test_flat_piece_full_face(self, interval_problem):
        r = solve_linearization(interval_problem, 2, shifted=True)
        assert r.value == ExtendedRational.finite(0)
        lo, hi = r.face.bounding_box()
        assert (lo, hi) == (vec(-2), vec(3))

    def test_unshifted_differs_by_the_offset(self, interval_problem):
        shifted = solve_linearization(interval_problem, 3, shifted=True)
        plain = solve_linearization(interval_problem, 3, shifted=False)
        beta = interval_problem.h.piece(3)[1]
        assert plain.value.as_fraction() == shifted.value.as_fraction() + beta
        # the faces agree (the constant shift does not move minimizers)
        assert plain.face.contains(vec(3)) and shifted.face.contains(vec(3))
        assert not plain.face.contains(vec(2)) and not shifted.face.contains(vec(2))


class TestGlobalSolutions:
    def test_interval_example(self, interval_problem):
        alpha_bar, J_star, pieces = global_solutions(interval_problem)
        assert alpha_bar == ExtendedRational.finite(-2)
        assert J_star == frozenset({3})
        assert len(pieces) == 1
        lo, hi = pieces[0].face.bounding_box()
        assert (lo, hi) == (vec(3), vec(3))

    def test_zero_objective_everything_solves(self):
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.constant(0, 1),
            C=PolyhedralSet.box([F(0)], [F(1)]),
        )
        alpha_bar, J_star, pieces = global_solutions(prob)
        assert alpha_bar == ExtendedRational.finite(0)
        assert J_star == frozenset({1})
        lo, hi = pieces[0].face.bounding_box()
        assert (lo, hi) == (vec(0), vec(1))

    def test_unbounded_problem(self):
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=MaxAffine.from_pieces([(vec(1), F(0)), (vec(0), F(0))], 1),
            C=PolyhedralSet.whole_space(1),
        )
        alpha_bar, J_star, pieces = global_solutions(prob)
        assert alpha_bar == MINUS_INF
        assert J_star == frozenset({1})
        assert all(r.face is None for r in pieces)

    def test_hypothesis_violation_is_named(self):
        # dom g = [0, 5] does not contain C = [-2, 3]
        g = MaxAffine.from_pieces(
            [(vec(0), F(0))], 1, domain=PolyhedralSet.box([F(0)], [F(5)])
        )
        prob = DcProblem(
            g=g,
            h=MaxAffine.constant(0, 1),
            C=PolyhedralSet.box([F(-2)], [F(3)]),
        )
        with pytest.raises(HypothesisNotMet, match="dom\\(g\\)"):
            global_solutions(prob)

    def test_interior_hypothesis_violation(self):
        # dom h = [-2, 3] = C: C is not inside the interior
        h = MaxAffine.from_pieces(
            [(vec(0), F(0))], 1, domain=PolyhedralSet.box([F(-2)], [F(3)])
        )
        prob = DcProblem(
            g=MaxAffine.constant(0, 1),
            h=h,
            C=PolyhedralSet.box([F(-2)], [F(3)]),
        )
        with pytest.raises(HypothesisNotMet, match="interior of dom\\(h\\)"):
            global_solutions(prob)

    def test_hypothesis_violation_is_named_by_every_entry_point(self):
        h = MaxAffine.from_pieces(
            [(vec(0), F(0))], 1, domain=PolyhedralSet.box([F(-2)], [F(3)])
        )
        prob = DcProblem(
            g=MaxAffine.constant(0, 1), h=h, C=PolyhedralSet.box([F(-2)], [F(3)])
        )
        for entry in (
            global_solutions,
            local_pieces,
            solution_structure,
            toland_singer_check,
        ):
            with pytest.raises(HypothesisNotMet, match="interior of dom\\(h\\)"):
                entry(prob)

    def test_only_domains_with_rows_pose_containment_lps(
        self, interval_problem, monkeypatch
    ):
        # a domain without rows is the whole space, which contains C; a
        # domain with rows keeps the full check
        posed = []
        for name in ("lp_solve", "lp_feasible"):
            original = getattr(model, name)

            def counting(*args, original=original, **kwargs):
                posed.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(model, name, counting)
        check_structure_hypotheses(interval_problem)
        assert posed == []
        C = PolyhedralSet.box([F(-2)], [F(3)])
        for lower, holds in ((F(-3), True), (F(0), False)):
            g = MaxAffine.from_pieces(
                [(vec(0), F(0))], 1, domain=PolyhedralSet.box([lower], [F(5)])
            )
            prob = DcProblem(g=g, h=MaxAffine.constant(0, 1), C=C)
            del posed[:]
            if holds:
                check_structure_hypotheses(prob)
                toland_singer_check(prob)
            else:
                for entry in (check_structure_hypotheses, toland_singer_check):
                    with pytest.raises(HypothesisNotMet, match="dom\\(g\\)"):
                        entry(prob)
            assert posed

    def test_objective_constant_on_faces(self, interval_problem):
        alpha_bar, _, pieces = global_solutions(interval_problem)
        for r in pieces:
            assert interval_problem.finite_objective(r.witness) == (
                alpha_bar.as_fraction()
            )


class TestLocalPieces:
    def test_interval_member_sets(self, interval_problem):
        pieces = local_pieces(interval_problem)
        assert [sorted(p.J1) for p in pieces] == [[1], [2], [3]]
        probes = {
            F(-2): [frozenset({1})],
            F(-3, 2): [],
            F(-1): [],
            F(-1, 2): [frozenset({2})],
            F(0): [frozenset({2})],
            F(1): [],
            F(3): [frozenset({3})],
        }
        for x, homes in probes.items():
            assert [p.J1 for p in pieces if p.contains((x,))] == homes

    def test_disjoint_faces_make_empty_pieces(self, interval_problem):
        # J1 = {1, 3} intersects the faces {-2} and {3}: empty, never kept
        assert all(
            p.J1 != frozenset({1, 3}) for p in local_pieces(interval_problem)
        )

    def test_single_piece_h(self):
        # h has one piece, so the lone J1 is {1} and the piece is the
        # argmin of g - h_1 over C; strictness conditions are vacuous
        g = MaxAffine.from_pieces([(vec(1), F(0)), (vec(-1), F(0))], 1)
        prob = DcProblem(
            g=g,
            h=MaxAffine.constant(0, 1),
            C=PolyhedralSet.box([F(-2)], [F(3)]),
        )
        pieces = local_pieces(prob)
        assert len(pieces) == 1
        assert pieces[0].J1 == frozenset({1})
        assert pieces[0].contains(vec(0))
        assert not pieces[0].contains(vec(1))

    def test_enumeration_cap(self, interval_problem):
        with pytest.raises(EnumerationCapExceeded):
            local_pieces(interval_problem, cap=2)

    def test_piece_convexity_via_midpoints(self):
        # the piece's witness and those of the reference's live anchors
        rng = random.Random(43)
        for _ in range(8):
            prob = gens.random_grid_instance(rng)
            for piece in local_pieces(prob):
                reference = _reference_build_piece(
                    prob.h, piece.closed_part, piece.J1
                )
                witnesses = [piece.witness]
                witnesses += [w for _, w in reference.branch_witnesses]
                for a, b in itertools.combinations(witnesses, 2):
                    mid = tuple((p + q) / 2 for p, q in zip(a, b))
                    assert piece.contains(mid)

    def test_deduplication_is_maximal(self):
        # after merging, no two kept pieces describe the same member set
        from polydc.structure import _same_member_set

        rng = random.Random(79)
        for _ in range(6):
            prob = gens.random_grid_instance(rng)
            pieces = local_pieces(prob)
            for a, b in itertools.combinations(pieces, 2):
                assert not _same_member_set(a, b)

    def test_stationarity_matches_piece_union_on_a_grid(self, interval_problem):
        pieces = local_pieces(interval_problem)
        step = F(1, 4)
        x = F(-2)
        while x <= 3:
            member = any(p.contains((x,)) for p in pieces)
            assert member == is_stationary(interval_problem, (x,))
            x += step

    def test_global_faces_inside_alpha_level(self, interval_problem):
        alpha_bar, _, gpieces = global_solutions(interval_problem)
        step = F(1, 4)
        x = F(-2)
        while x <= 3:
            value = interval_problem.finite_objective((x,))
            in_face = any(r.face.contains((x,)) for r in gpieces)
            if in_face:
                assert value == alpha_bar.as_fraction()
            else:
                assert value > alpha_bar.as_fraction()
            x += step


def _rational_witness(equalities, weak, strict, dimension):
    """`_strict_witness` of a system of rational rows, each scaled once."""
    return _strict_witness(
        *(gens.integer_rows(rows) for rows in (equalities, weak, strict)), dimension
    )


def _full_row_piece_subset(P, Q):
    """Reference containment test of two reference pieces: per live anchor
    of P, one strict-margin LP per closed row of Q, duplicates and rows P
    already imposes included, and one per piece outside Q.J1 being
    active."""
    n = P.dimension
    live = {anchor for anchor, _ in P.branch_witnesses}
    for anchor, equalities, weak, strict in P.branches:
        if anchor not in live:
            continue

        def meets(extra_weak=(), extra_strict=()):
            return (
                _rational_witness(
                    equalities,
                    weak + tuple(extra_weak),
                    strict + tuple(extra_strict),
                    n,
                )
                is not None
            )

        for a, y in Q.closed_part.equalities:
            if meets(extra_strict=[(a, y)]) or meets(extra_strict=[(vneg(a), -y)]):
                return False
        for a, b in Q.closed_part.inequalities:
            if meets(extra_strict=[(vneg(a), -b)]):
                return False
        for j_extra in sorted(P.J1 - Q.J1):
            v_extra, beta_extra = P.h.piece(j_extra)
            rows = [
                (vsub(P.h.piece(j)[0], v_extra), beta_extra - P.h.piece(j)[1])
                for j in P.h.indices
                if j != j_extra
            ]
            if meets(extra_weak=rows):
                return False
    return True


def _lattice(prob):
    """(J1, closed part, alpha) for every J1 of the lattice whose faces all
    exist, in the order local_pieces tries them (by size, then
    lexicographic)."""
    linearized = structure._linearize_all(prob)
    alpha = {shifted.piece: shifted.value for _, shifted in linearized}
    for size in range(1, len(prob.h.pieces) + 1):
        for combo in itertools.combinations(prob.h.indices, size):
            faces = [linearized[j - 1][0].face for j in combo]
            if any(face is None for face in faces):
                continue
            closed_part = reduce(PolyhedralSet.intersect, faces).intersect(prob.C)
            yield frozenset(combo), closed_part, alpha


def _lattice_pieces(prob):
    """Every nonempty piece over the J1 lattice, as (build_piece result
    for the first anchor of least alpha, reference piece)."""
    out = []
    for J1, closed_part, alpha in _lattice(prob):
        anchor = min(sorted(J1), key=alpha.__getitem__)
        piece = build_piece(prob.h, closed_part, J1, anchor)
        reference = _reference_build_piece(prob.h, closed_part, J1)
        assert (piece is None) == (reference is None), (prob, J1)
        if piece is not None:
            out.append((piece, reference))
    return out


class TestPieceContainment:
    """The containment test reads the active set from P's witness and
    skips rows P's system already imposes; the reference tests every row
    and every piece outside Q.J1 on every live anchor.  Both must decide
    every pair alike."""

    def _instances(self):
        rng = random.Random(60221)
        dc = [gens.random_dc_instance(rng, n_max=2) for _ in range(30)]
        grid = [gens.random_grid_instance(rng) for _ in range(30)]
        return dc + grid

    def test_agrees_with_full_row_reference(self):
        decisions = {True: 0, False: 0}
        for prob in self._instances():
            pairs = _lattice_pieces(prob)
            lattice = [piece for piece, _ in pairs]
            subset = {}
            for (i, (P, P_ref)), (k, (Q, Q_ref)) in itertools.permutations(
                enumerate(pairs), 2
            ):
                subset[i, k] = _full_row_piece_subset(P_ref, Q_ref)
                assert _piece_subset(P, Q) == subset[i, k], (prob, P.J1, Q.J1)
                decisions[subset[i, k]] += 1
            # merge equal member sets, keeping the first of each class
            merged = []
            for i in range(len(lattice)):
                if not any(subset[i, k] and subset[k, i] for k in merged):
                    merged.append(i)
            expected = sorted(
                [(lattice[i].J1, lattice[i].closed_part, lattice[i].witness)
                 for i in merged],
                key=lambda entry: sorted(entry[0]),
            )
            assert [
                (p.J1, p.closed_part, p.witness) for p in local_pieces(prob)
            ] == expected
        # both verdicts occur, so neither side can pass by answering one way
        assert decisions[True] > 0 and decisions[False] > 0

    def test_hand_built_pieces_with_equality_rows(self):
        # Q's equality x = 1 is a weak row of P = [0, 1], not an equality
        # of P, so it is still tested: P has members with x < 1, and
        # S = [1, 2] has members with x > 1
        h = MaxAffine.constant(0, 1)
        one = frozenset({1})
        at_one = ((vec(1), F(1)),)
        closed_parts = {
            "P": PolyhedralSet.box([F(0)], [F(1)]),
            "S": PolyhedralSet.box([F(1)], [F(2)]),
            "Q": PolyhedralSet(1, equalities=at_one),
            "R": PolyhedralSet(1, at_one, at_one),
        }
        built = {
            name: (
                build_piece(h, part, one, anchor=1),
                _reference_build_piece(h, part, one),
            )
            for name, part in closed_parts.items()
        }
        P, S, Q, R = "PSQR"
        cases = [
            (P, Q, False),
            (S, Q, False),
            (Q, P, True),
            (Q, S, True),
            (P, R, False),
            (R, P, True),
            (Q, R, True),
            (R, Q, True),
        ]
        for A, B, verdict in cases:
            assert _full_row_piece_subset(built[A][1], built[B][1]) is verdict
            assert _piece_subset(built[A][0], built[B][0]) is verdict

    def test_interval_lp_budget(self, monkeypatch):
        root = pathlib.Path(__file__).resolve().parent.parent
        prob = parse_problem(
            (root / "problems" / "interval.json").read_text(encoding="utf-8")
        )
        calls = []
        original = exactlp.lp_solve

        def counting(lp):
            calls.append(lp)
            return original(lp)

        for module in (exactlp, model, structure):
            monkeypatch.setattr(module, "lp_solve", counting)
        assert [sorted(p.J1) for p in local_pieces(prob)] == [[1], [2], [3]]
        # the full-row containment test needed 45 LPs here
        assert len(calls) <= 22


@dataclass(frozen=True)
class _ReferencePiece:
    """A semi-closed piece as the reference builds it: one system
    (anchor, equalities, weak, strict) per anchor of J1, in which the
    anchor is a maximizer of h and every excluded piece is below it."""

    J1: frozenset
    closed_part: PolyhedralSet
    h: MaxAffine
    witness: tuple
    branches: tuple
    branch_witnesses: tuple  # (anchor, witness) of each live branch

    @property
    def dimension(self):
        return self.closed_part.dimension

    def contains(self, x):
        return self.closed_part.contains(x) and self.h.active_indices(x) <= self.J1


def _reference_build_piece(h, closed_part, J1):
    """build_piece as it was before repeated rows were dropped and anchors
    ruled out by alpha: one system per anchor of J1, over every row of the
    closed part as given."""
    branches = []
    for anchor in sorted(J1):
        v0, beta0 = h.piece(anchor)
        weak, strict = list(closed_part.inequalities), []
        for j in h.indices:
            if j != anchor:
                vj, betaj = h.piece(j)
                row = (vsub(vj, v0), beta0 - betaj)
                (weak if j in J1 else strict).append(row)
        branches.append(
            (anchor, closed_part.equalities, tuple(weak), tuple(strict))
        )
    witnesses = []
    for anchor, *system in branches:
        w = _rational_witness(*system, closed_part.dimension)
        if w is not None:
            witnesses.append((anchor, w))
    if not witnesses:
        return None
    return _ReferencePiece(
        J1, closed_part, h, witnesses[0][1], tuple(branches), tuple(witnesses)
    )


def _reference_local_pieces(prob):
    """local_pieces with the reference pieces, merged by the full-row
    containment test and its LP per active piece outside Q.J1."""
    kept = []
    for J1, closed_part, _ in _lattice(prob):
        piece = _reference_build_piece(prob.h, closed_part, J1)
        if piece is not None:
            kept.append(piece)
    representatives = []
    for P in kept:
        if not any(
            Q.contains(P.witness)
            and P.contains(Q.witness)
            and _full_row_piece_subset(P, Q)
            and _full_row_piece_subset(Q, P)
            for Q in representatives
        ):
            representatives.append(P)
    return sorted(representatives, key=lambda p: sorted(p.J1))


def _reference_closure_meets(closing, other):
    """A point of cl(closing) ∩ other from each pair of live systems of the
    two reference pieces joined as they are, repeated rows included; the
    closure of a live system weakens its strict rows."""
    live = {anchor for anchor, _ in closing.branch_witnesses}
    live_other = {anchor for anchor, _ in other.branch_witnesses}
    for anchor, equalities, weak, strict in closing.branches:
        if anchor not in live:
            continue
        for other_anchor, other_equalities, other_weak, other_strict in (
            other.branches
        ):
            if other_anchor not in live_other:
                continue
            witness = _rational_witness(
                equalities + other_equalities,
                weak + strict + other_weak,
                other_strict,
                closing.dimension,
            )
            if witness is not None:
                return witness
    return None


def _reference_adjacency(pieces):
    edges = {}
    for i, j in itertools.combinations(range(len(pieces)), 2):
        witness = _reference_closure_meets(pieces[i], pieces[j])
        if witness is None:
            witness = _reference_closure_meets(pieces[j], pieces[i])
        if witness is not None:
            edges[(i, j)] = witness
    return edges


def _shaped_instance(rng):
    """A random instance with dom g rows, a bounded dom h and, in the
    plane, an equality row in C; the structure hypotheses hold."""
    base = gens.random_dc_instance(rng, n_max=2)
    n = base.dimension
    lo, hi = base.C.bounding_box()
    equalities = ()
    if n == 2 and rng.random() < 0.6:
        a = (F(rng.randint(-2, 2)), F(rng.randint(1, 2)))
        centre = tuple((l + u) / 2 for l, u in zip(lo, hi))
        equalities = ((a, dot(a, centre)),)
    C = PolyhedralSet(n, equalities, base.C.inequalities)
    dom_g = PolyhedralSet.box(
        [l - rng.randint(0, 1) for l in lo], [u + rng.randint(0, 2) for u in hi]
    )
    dom_h = PolyhedralSet.box([l - 1 for l in lo], [u + 1 for u in hi])
    return DcProblem(
        g=MaxAffine(base.g.pieces, dom_g), h=MaxAffine(base.h.pieces, dom_h), C=C
    )


def _fractional_instance(rng, q_max=6):
    """A random instance whose rows have denominators 2 to 6, so that each
    row is scaled by more than 1: a box with rational bounds, and g and h
    (up to q_max pieces) with rational gradients and offsets."""
    n = rng.randint(1, 2)

    def rational(lo, hi):
        q = rng.randint(2, 6)
        return F(rng.randint(lo * q, hi * q), q)

    def pieces(count):
        drawn = {(tuple(rational(-2, 2) for _ in range(n)), rational(-2, 2))}
        while len(drawn) < count:
            drawn.add((tuple(rational(-2, 2) for _ in range(n)), rational(-2, 2)))
        return sorted(drawn)

    lo = [rational(-3, 0) for _ in range(n)]
    C = PolyhedralSet.box(lo, [l + rational(1, 3) for l in lo])
    g = MaxAffine.from_pieces(pieces(rng.randint(1, 3)), n)
    h = MaxAffine.from_pieces(pieces(rng.randint(3, q_max)), n)
    return DcProblem(g=g, h=h, C=C)


class TestSmallerSemiClosedLps:
    """local_pieces poses no LP for an anchor that does not attain the
    least alpha, and none for a piece outside Q.J1 being active in P, and
    the LP core leaves out the repeated rows of each closed part that
    cannot change a pivot; the pieces, their witnesses and the adjacency
    witnesses must be those of the reference, which does none of this:
    its LPs keep every row (`gens.prepare_every_row`)."""

    def _instances(self):
        rng = random.Random(80)
        plain = [gens.random_dc_instance(rng, n_max=2) for _ in range(20)]
        grid = [gens.random_grid_instance(rng) for _ in range(12)]
        shaped = [_shaped_instance(rng) for _ in range(12)]
        # in three dimensions: C repeats the row x1 <= -2 in every closed
        # part, and dropping a copy of it, which has its own phase-1
        # artificial, would move the witness of the piece J1 = {1}
        steered = gens.random_dc_instance(random.Random(37), n_max=3)
        # rows scaled by more than 1, and h with up to six pieces
        scaled = [_fractional_instance(random.Random(90 + k)) for k in range(10)]
        return plain + grid + shaped + [steered] + scaled

    def test_agrees_with_reference(self, monkeypatch):
        saw = {"merged": False, "edge": False, "equality": False}
        # the reference solves on instances of its own, so that it shares
        # no prepared start with the pieces it checks
        for prob, reference in zip(self._instances(), self._instances()):
            with monkeypatch.context() as patch:
                patch.setattr(exactlp, "_prepare", gens.prepare_every_row)
                expected = _reference_local_pieces(reference)
            pieces = local_pieces(prob)

            def summary(ps):
                return [(p.J1, p.closed_part, p.witness) for p in ps]

            assert summary(pieces) == summary(expected), prob
            edges = structure._adjacency(pieces)
            with monkeypatch.context() as patch:
                patch.setattr(exactlp, "_prepare", gens.prepare_every_row)
                assert edges == _reference_adjacency(expected), prob
                patch.setattr(structure, "_adjacency", _reference_adjacency)
                expected_components = components(prob, expected)
            assert components(prob, pieces) == expected_components, prob
            saw["merged"] |= len(pieces) < len(_lattice_pieces(prob))
            saw["edge"] |= bool(edges)
            saw["equality"] |= bool(prob.C.equalities) and bool(pieces)
        assert all(saw.values()), saw

    def test_instances_have_scaled_rows(self):
        def scaled_by_more_than_1(prob):
            systems = [p._system for p in local_pieces(prob)]
            return any(s > 1 for system in systems for rows in system for *_, s in rows)

        scaled = [prob for prob in self._instances() if scaled_by_more_than_1(prob)]
        assert max(len(prob.h.pieces) for prob in scaled) == 6

    def test_piece_built_by_hand_derives_its_system(self):
        # the system is derived from the fields, so a piece built by hand
        # decides as the built piece does
        for prob in self._instances()[-10:]:
            pieces = local_pieces(prob)
            by_hand = [
                SemiClosedPiece(
                    p.J1, p.closed_part, p.excluded, p.h, p.witness, p.anchor
                )
                for p in pieces
            ]
            for P, mine in zip(pieces, by_hand):
                assert mine._system[2] == P._system[2]  # the strict rows
                for Q in pieces:
                    assert _piece_subset(mine, Q) == _piece_subset(P, Q)
                    assert pieces_adjacent(mine, Q) == pieces_adjacent(P, Q)

    def test_interval_lp_count(self, interval_problem, monkeypatch):
        linearized = structure._linearize_all(interval_problem)
        calls = []
        original = exactlp.lp_solve

        def counting(lp):
            calls.append(lp)
            return original(lp)

        monkeypatch.setattr(exactlp, "lp_solve", counting)
        pieces = local_pieces(interval_problem, linearized=linearized)
        assert [sorted(p.J1) for p in pieces] == [[1], [2], [3]]
        assert len(calls) <= 9  # 16 with every anchor, row and active piece


class TestLinearizationLemma:
    """On the closed part of J1 each h_j of J1 equals g - alpha_j, so every
    member of the piece has the active set A*(J1) of least alpha over J1.
    The reference, which tries every anchor of J1 over every row, finds
    exactly A*(J1) live or no anchor at all; build_piece decides the piece
    with one LP, and the dual optimum is the gradient of min J*."""

    def _instances(self):
        rng = random.Random(2024)
        dc = [gens.random_dc_instance(rng, n_max=3) for _ in range(120)]
        grid = [gens.random_grid_instance(rng) for _ in range(90)]
        shaped = [_shaped_instance(rng) for _ in range(90)]
        return dc + grid + shaped + gens.bundled_problems()

    def test_live_anchors_are_the_least_alpha_set(self, monkeypatch):
        slack_calls = []
        solve_margin = structure._solve_margin

        def counting(lp):  # each margin LP build_piece solves
            slack_calls.append(lp)
            return solve_margin(lp)

        monkeypatch.setattr(structure, "_solve_margin", counting)
        instances = self._instances()
        assert len(instances) >= 300
        nonempty, tied = 0, 0
        for prob in instances:
            check_structure_hypotheses(prob)
            for J1, closed_part, alpha in _lattice(prob):
                least = min(alpha[j] for j in J1)
                A_star = [j for j in sorted(J1) if alpha[j] == least]
                reference = _reference_build_piece(prob.h, closed_part, J1)
                live = [] if reference is None else reference.branch_witnesses
                assert [anchor for anchor, _ in live] in ([], A_star), (prob, J1)
                del slack_calls[:]
                piece = build_piece(prob.h, closed_part, J1, A_star[0])
                assert len(slack_calls) == 1
                assert (piece is None) == (reference is None)
                if piece is None:
                    continue
                assert piece.witness == reference.witness
                for _, witness in live:
                    assert prob.h.active_indices(witness) == frozenset(A_star)
                nonempty += 1
                tied += len(A_star) >= 2
        assert nonempty > 0 and tied > 0, (nonempty, tied)

    def test_dual_optimum_is_the_gradient_of_min_J_star(self):
        instances = self._instances() + [gens.abs_problem()]
        unbounded = 0
        for prob in instances:
            _, J_star, faces = global_solutions(prob)
            j0 = min(J_star)
            assert toland_singer_check(prob).attained_at == prob.h.piece(j0)[0]
            if faces[0].witness is None:
                unbounded += 1
                continue
            # the active set at the witness of j0's face starts at j0 and
            # lies in J*: the first gradient active at a global solution
            active = prob.h.active_indices(faces[0].witness)
            assert min(active) == j0 and active <= J_star
        assert unbounded > 0


class TestSkippedSubPieces:
    """local_pieces skips a J1 whose piece equals that of a kept K ⊂ J1,
    and tests containment by phase 2 on the start of the piece's own margin
    LP.  The parent algorithm (`gens.reference_local_pieces`) builds every
    J1 and merges by a fresh margin LP per row; both must give the same
    pieces, witnesses, adjacency witnesses and components."""

    def test_agrees_with_building_every_piece(self, monkeypatch):
        skips = []
        equals_sub_piece = structure._equals_sub_piece

        def counting(*args):
            skips.append(equals_sub_piece(*args))
            return skips[-1]

        monkeypatch.setattr(structure, "_equals_sub_piece", counting)
        rng = random.Random(1515)
        merged = 0
        for _ in range(300):
            prob = gens.random_dc_instance(rng, n_max=3)
            pieces = local_pieces(prob)
            expected = gens.reference_local_pieces(prob)

            def summary(ps):
                return [(p.J1, p.closed_part, p.witness, p.anchor) for p in ps]

            assert summary(pieces) == summary(expected), prob
            assert pieces == expected
            edges = structure._adjacency(pieces)
            assert edges == structure._adjacency(expected), prob
            assert components(prob, pieces) == components(prob, expected), prob
            merged += len(pieces) < len(_lattice_pieces(prob))
        assert any(skips) and not all(skips) and merged > 0

    def test_skip_verdict_is_equality_of_member_sets(self):
        # K ⊂ J1 with K nonempty: the skip holds exactly when J1's piece is
        # nonempty and has K's member set
        rng = random.Random(1516)
        instances = [gens.random_dc_instance(rng, n_max=3) for _ in range(40)]
        instances += [_shaped_instance(rng) for _ in range(30)]
        verdicts = {True: 0, False: 0}
        for prob in instances:
            check_structure_hypotheses(prob)
            built = []
            for J1, closed_part, alpha in _lattice(prob):
                anchor = min(sorted(J1), key=alpha.__getitem__)
                least = frozenset(j for j in J1 if alpha[j] == alpha[anchor])
                piece = build_piece(prob.h, closed_part, J1, anchor)
                for K in built:
                    if not K.J1 < J1:
                        continue
                    verdict = structure._equals_sub_piece(K, J1, least, closed_part)
                    expected = piece is not None and _same_member_set(piece, K)
                    assert verdict == expected, (prob, K.J1, J1)
                    verdicts[verdict] += 1
                if piece is not None:
                    built.append(piece)
        assert verdicts[True] > 0 and verdicts[False] > 0, verdicts

    def _counting_prepares(self, monkeypatch):
        prepared = []
        prepare = exactlp._prepare

        def counting(*args):
            prepared.append(args)
            return prepare(*args)

        monkeypatch.setattr(exactlp, "_prepare", counting)
        return prepared

    def test_interval_prepares_five_starts(self, interval_problem, monkeypatch):
        linearized = structure._linearize_all(interval_problem)
        prepared = self._counting_prepares(monkeypatch)
        pieces = local_pieces(interval_problem, linearized=linearized)
        assert [sorted(p.J1) for p in pieces] == [[1], [2], [3]]
        # the pieces of {1}, {2}, {3}, and the two empty ones of {1, 3} and
        # {1, 2, 3}; 9 when every J1 was built and each containment test
        # posed a margin LP of its own
        assert len(prepared) == 5

    def test_no_margin_lp_is_prepared_twice(self, monkeypatch):
        rng = random.Random(1517)
        instances = [gens.random_dc_instance(rng, n_max=2) for _ in range(15)]
        instances += [_shaped_instance(rng) for _ in range(15)]
        prepared = self._counting_prepares(monkeypatch)
        for prob in instances:
            pieces = local_pieces(prob)
            by_hand = [
                SemiClosedPiece(
                    p.J1, p.closed_part, p.excluded, p.h, p.witness, p.anchor
                )
                for p in pieces
            ]
            # a built piece keeps the LP it was decided by, whose start is
            # prepared; a piece built by hand poses and prepares it once
            del prepared[:]
            for P, Q in itertools.product(pieces, repeat=2):
                _piece_subset(P, Q)
            assert prepared == []
            for _ in range(2):
                for mine, P in zip(by_hand, pieces):
                    for Q in pieces:
                        assert _piece_subset(mine, Q) == _piece_subset(P, Q)
            assert len(prepared) <= len(by_hand)


class TestMembershipEvaluatesDomHOnce:
    """`SemiClosedPiece.contains` reads dom h once per point of the closed
    part, through the one evaluation of h at that point."""

    def test_interval_grid(self, monkeypatch):
        root = pathlib.Path(__file__).resolve().parent.parent
        prob = parse_problem(
            (root / "problems" / "interval.json").read_text(encoding="utf-8")
        )
        pieces = local_pieces(prob)
        assert [sorted(p.J1) for p in pieces] == [[1], [2], [3]]
        grid = [vec(F(-2) + F(k, 8)) for k in range(41)]  # [-2, 3] at 1/8
        inside = sum(p.closed_part.contains(x) for x in grid for p in pieces)
        calls = []
        original = model.PolyhedralSet._tight_rows

        def counting(self, x):
            if self is prob.h.domain:
                calls.append(x)
            return original(self, x)

        monkeypatch.setattr(model.PolyhedralSet, "_tight_rows", counting)
        for x in grid:
            for p in pieces:
                p.contains(x)
        assert inside == 43
        assert len(calls) == inside  # 86 when dom h was checked twice


class TestOneCheckOneLinearization:
    """solution_structure checks the hypotheses once and solves one epigraph
    LP per piece of h for both the global and the local part."""

    def _counting(self, monkeypatch):
        counts = {"checks": 0, "linearizations": 0}
        check, solve = structure.check_structure_hypotheses, structure.lp_solve

        def counting_check(prob):
            counts["checks"] += 1
            return check(prob)

        def counting_solve(lp):  # structure poses only the epigraph LPs
            counts["linearizations"] += 1
            return solve(lp)

        monkeypatch.setattr(structure, "check_structure_hypotheses", counting_check)
        monkeypatch.setattr(structure, "lp_solve", counting_solve)
        return counts

    def test_solution_structure_shares_check_and_lps(
        self, interval_problem, monkeypatch
    ):
        counts = self._counting(monkeypatch)
        result = solution_structure(interval_problem)
        assert counts == {"checks": 1, "linearizations": 3}
        assert (result.alpha_bar, result.J_star, result.global_pieces) == (
            global_solutions(interval_problem)
        )
        assert result.local_pieces == local_pieces(interval_problem)

    def test_separate_calls_check_and_solve_on_their_own(
        self, interval_problem, monkeypatch
    ):
        counts = self._counting(monkeypatch)
        global_solutions(interval_problem)
        assert counts == {"checks": 1, "linearizations": 3}
        local_pieces(interval_problem)
        assert counts == {"checks": 2, "linearizations": 6}

    def test_both_results_of_a_piece_share_face_and_witness(self):
        rng = random.Random(59)
        for _ in range(10):
            prob = gens.random_dc_instance(rng, n_max=2)
            for j in prob.h.indices:
                shifted = solve_linearization(prob, j, shifted=True)
                plain = solve_linearization(prob, j, shifted=False)
                beta = prob.h.piece(j)[1]
                assert plain.value.as_fraction() == shifted.value.as_fraction() + beta
                assert (plain.face, plain.witness) == (shifted.face, shifted.witness)
                assert (plain.shifted, shifted.shifted) == (False, True)


class TestComponents:
    def test_interval_components(self, interval_problem):
        pieces = local_pieces(interval_problem)
        comps = components(interval_problem, pieces)
        assert len(comps) == 3
        assert [c.value for c in comps] == [F(-1), F(0), F(-2)]
        # every piece sits in exactly one component
        assert sorted(i for c in comps for i in c.pieces) == [0, 1, 2]

    def test_single_component(self):
        g = MaxAffine.from_pieces([(vec(1), F(0)), (vec(-1), F(0))], 1)
        prob = DcProblem(
            g=g,
            h=MaxAffine.constant(0, 1),
            C=PolyhedralSet.box([F(-2)], [F(3)]),
        )
        pieces = local_pieces(prob)
        comps = components(prob, pieces)
        assert len(comps) == 1
        assert comps[0].value == 0

    def test_closure_touching_does_not_merge(self):
        # two semi-closed pieces [-1, 0) and (0, 1]: their closed parts
        # meet at 0, but 0 belongs to neither, so they stay separate
        h = MaxAffine.from_pieces(
            [(vec(0), F(0)), (vec(1), F(0)), (vec(-1), F(0))], 1
        )
        g = MaxAffine.constant(0, 1)
        C = PolyhedralSet.box([F(-1)], [F(1)])
        prob = DcProblem(g=g, h=h, C=C)
        left = build_piece(
            h, PolyhedralSet.box([F(-1)], [F(0)]), frozenset({3}), anchor=3
        )
        right = build_piece(
            h, PolyhedralSet.box([F(0)], [F(1)]), frozenset({2}), anchor=2
        )
        assert left is not None and right is not None
        assert left.contains(vec(F(-1, 2))) and not left.contains(vec(0))
        assert right.contains(vec(F(1, 2))) and not right.contains(vec(0))
        assert pieces_adjacent(left, right) is None
        comps = components(prob, (left, right))
        assert len(comps) == 2

    def test_overlapping_pieces_merge(self):
        # [-1, 1) and {1} touch at 1, which {1} holds: one component
        prob = _flat_kink_problem()
        pieces = local_pieces(prob)
        left, both, right = pieces
        assert [sorted(p.J1) for p in pieces] == [[1], [1, 2], [2]]
        assert left.contains(vec(F(-1))) and not left.contains(vec(1))
        assert both.contains(vec(1)) and not both.contains(vec(F(3, 2)))
        assert right.contains(vec(2)) and not right.contains(vec(1))
        witness = pieces_adjacent(left, both)
        assert witness is not None
        assert left.contains(witness) or both.contains(witness)
        assert [c.pieces for c in components(prob, pieces)] == [(0, 1, 2)]


def _flat_kink_problem():
    """g = h = max(0, x - 1) on C = [-1, 2]: f = 0, and the pieces are
    [-1, 1), {1} (J1 = {1, 2}, both anchors of least alpha) and (1, 2]."""
    h = MaxAffine.from_pieces([(vec(0), F(0)), (vec(1), F(-1))], 1)
    return DcProblem(g=h, h=h, C=PolyhedralSet.box([F(-1)], [F(2)]))


class TestSegmentPath:
    def test_within_one_piece(self, interval_problem):
        pieces = local_pieces(interval_problem)
        path = segment_path(
            interval_problem, pieces, vec(F(-1, 2)), vec(F(1, 2))
        )
        assert path == (vec(F(-1, 2)), vec(F(1, 2)))

    def test_across_components_returns_none(self, interval_problem):
        pieces = local_pieces(interval_problem)
        assert segment_path(interval_problem, pieces, vec(-2), vec(3)) is None

    def test_through_an_adjacency_witness(self):
        prob = _flat_kink_problem()
        path = segment_path(prob, local_pieces(prob), vec(-1), vec(2))
        assert path is not None
        assert path[0] == vec(-1) and path[-1] == vec(2)
        assert len(path) == 3  # crosses through the shared point
        assert path == (vec(-1), vec(1), vec(2))

    def test_endpoints_must_be_members(self, interval_problem):
        pieces = local_pieces(interval_problem)
        with pytest.raises(OutsideDomain):
            segment_path(interval_problem, pieces, vec(2), vec(3))

    def test_same_point(self, interval_problem):
        pieces = local_pieces(interval_problem)
        assert segment_path(interval_problem, pieces, vec(0), vec(0)) == (vec(0),)


class TestAffineConstraintSet:
    """The whole stack on a segment carved out by an equality row."""

    def _segment_problem(self):
        # C = {x1 = 0} x [-1, 1]; f = -|x2| on the segment
        C = PolyhedralSet(
            2,
            equalities=((vec(1, 0), F(0)),),
            inequalities=((vec(0, 1), F(1)), (vec(0, -1), F(1))),
        )
        g = MaxAffine.constant(0, 2)
        h = MaxAffine.from_pieces([(vec(0, 1), F(0)), (vec(0, -1), F(0))], 2)
        return DcProblem(g=g, h=h, C=C)

    def test_two_endpoint_solutions(self):
        prob = self._segment_problem()
        alpha_bar, J_star, gpieces = global_solutions(prob)
        assert alpha_bar == ExtendedRational.finite(-1)
        assert J_star == frozenset({1, 2})
        tops = sorted(r.witness for r in gpieces)
        assert tops == [vec(0, -1), vec(0, 1)]

    def test_pieces_and_components(self):
        prob = self._segment_problem()
        pieces = local_pieces(prob)
        assert [sorted(p.J1) for p in pieces] == [[1], [2]]
        assert pieces[0].contains(vec(0, 1)) and pieces[1].contains(vec(0, -1))
        assert not any(p.contains(vec(0, 0)) for p in pieces)
        comps = components(prob, pieces)
        assert len(comps) == 2
        assert {c.value for c in comps} == {F(-1)}
        assert segment_path(prob, pieces, vec(0, 1), vec(0, -1)) is None

    def test_dca_and_duality_on_the_segment(self):
        from polydc import MinIndexActive, TerminationKind, run, toland_singer_check

        prob = self._segment_problem()
        trace = run(prob, vec(0, 0), MinIndexActive())
        assert trace.termination.kind is TerminationKind.FIXED_POINT
        assert trace.final_point == vec(0, 1)
        report = toland_singer_check(prob)
        assert report.primal_value == ExtendedRational.finite(-1)
        assert report.attained_at is not None


class TestRandomConsistency:
    """Pieces, components, and paths agree with the classifiers on
    arbitrary rational probe points of random instances."""

    def test_piece_union_equals_stationarity_off_grid(self):
        rng = random.Random(31415)
        for _ in range(6):
            prob = gens.random_dc_instance(rng, n_max=2)
            pieces = local_pieces(prob)
            lo, hi = prob.C.bounding_box()
            for _ in range(10):
                x = tuple(
                    l + F(rng.randint(0, 6), 6) * (u - l)
                    for l, u in zip(lo, hi)
                )
                member = any(p.contains(x) for p in pieces)
                assert member == is_stationary(prob, x)

    def test_paths_respect_components(self):
        rng = random.Random(27182)
        saw_multi = False
        for _ in range(8):
            prob = gens.random_dc_instance(rng, n_max=2)
            pieces = local_pieces(prob)
            comps = components(prob, pieces)
            if len(comps) >= 2:
                saw_multi = True
                a = pieces[comps[0].pieces[0]].witness
                b = pieces[comps[1].pieces[0]].witness
                assert segment_path(prob, pieces, a, b) is None
            for c in comps:
                witnesses = [pieces[i].witness for i in c.pieces]
                if len(witnesses) >= 2:
                    path = segment_path(prob, pieces, witnesses[0], witnesses[-1])
                    assert path is not None
        assert saw_multi


class TestSolutionStructure:
    def test_interval_summary(self, interval_problem):
        s = solution_structure(interval_problem)
        assert s.alpha_bar == ExtendedRational.finite(-2)
        assert s.J_star == frozenset({3})
        assert len(s.local_pieces) == 3
        assert [c.value for c in s.components] == [F(-1), F(0), F(-2)]

    def test_deterministic(self, interval_problem):
        assert solution_structure(interval_problem) == solution_structure(
            interval_problem
        )

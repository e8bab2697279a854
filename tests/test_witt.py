"""Tests for the full-precision stage: twisted modules, divided operators,
Frobenius pullback with Taylor transitions, and the flow step mod p^n."""

import itertools
import random
import types

import pytest

from hdflow.bundles import Bundle, HiggsBundle, change_frame_connection
from hdflow.cartier import inverse_cartier_1, lifting_change_transport
from hdflow.corpus import random_lifting, random_witt_tuple
from hdflow.curves import AffineLine, FrobeniusLifting
from hdflow.errors import (
    CertificateFailed,
    LevelTooHigh,
    NoLiftedFiltration,
    NoSolution,
    NonInvertible,
    SearchBudgetExceeded,
    TransversalityViolated,
    WrongModulus,
)
from hdflow.ringmath import LaurentPoly, RingMatrix, Zmod, solve_linear_mod
from hdflow import ringmath, witt
from hdflow.witt import (
    LiftingInputTuple,
    PConnectionModule,
    TwistedFlatModule,
    adapted_dr_matrix,
    cn_inverse,
    equivalence_check,
    filtration_steps_from_flag,
    fn_apply,
    gamma_apply,
    gamma_relations_check,
    gn_construct,
    local_filtered_lifting,
    mod_reduction_check,
    ptwist_matrix,
    reduce_tuple,
    sharp_construct,
    taylor_coefficient,
    taylor_transition,
    theta_total_matrix,
    truncation_bound,
    w2_flow_step,
)

from oracles import (
    equivalence_gamma_check,
    filtration_lift_candidates,
    horizontal_transport,
    laurent_power,
    leibniz_check,
    level_at_most,
    modulus_power,
    perturbed_construct,
    random_flag_frame,
    random_poly,
    random_unimodular_poly,
    spy_packed_products,
    uncached_adapted_dr_matrix,
    uncached_taylor_transition,
    unfused_gamma_apply,
    unpruned_gamma_apply,
    unshared_gamma_relations_check,
    unshared_taylor_terms,
)


def lp(ring, coeffs):
    return LaurentPoly(ring, coeffs)


def mat(ring, entries):
    """Rows of dicts {exponent: coefficient} (ints taken as constants)."""
    rows = []
    for r in entries:
        row = []
        for x in r:
            if isinstance(x, dict):
                row.append(LaurentPoly(ring, x))
            else:
                row.append(LaurentPoly.const(ring, ring.coerce(x)))
        rows.append(row)
    return RingMatrix(ring, rows)


def basis_col(ring, rank, k):
    e = RingMatrix.zeros(ring, rank, 1)
    e.rows[k][0] = LaurentPoly.one(ring)
    return e


def random_poly_matrix(rng, ring, nr, nc, deg=1):
    return RingMatrix(
        ring, [[random_poly(rng, ring, deg) for _ in range(nc)] for _ in range(nr)]
    )


def paste_block(M, row, col, blk):
    for i in range(blk.nrows):
        for j in range(blk.ncols):
            M.rows[row + i][col + j] = blk.rows[i][j]


def random_input_tuple(rng, ring, ranks, deg=1):
    """Invertible comparison blocks, with the graded connection assembled so
    the comparison rule holds; diagonal-and-below blocks are free."""
    down = Zmod(ring.p, ring.m - 1)
    theta = tuple(
        random_poly_matrix(rng, ring, ranks[g], ranks[g + 1], deg)
        for g in range(len(ranks) - 1)
    )
    psibar = tuple(
        random_unimodular_poly(rng, down, r, ops=2, max_deg=1) for r in ranks
    )
    rank = sum(ranks)
    starts = []
    at = 0
    for r in ranks:
        starts.append(at)
        at += r
    abar = RingMatrix.zeros(down, rank, rank)
    for g in range(len(ranks) - 1):
        blk = (
            psibar[g]
            .inverse()
            .mul(theta[g].reduce_to(down))
            .mul(psibar[g + 1])
        )
        paste_block(abar, starts[g], starts[g + 1], blk)
    for gp in range(len(ranks)):
        for g in range(gp + 1):
            blk = random_poly_matrix(rng, down, ranks[gp], ranks[g], deg)
            paste_block(abar, starts[gp], starts[g], blk)
    return LiftingInputTuple(ring, tuple(ranks), theta, abar, psibar)


def one_periodic_unit_tuple(ring):
    """Rank-two weight-one input with a unit Higgs block, on the punctured
    chart where its grading comparison is invertible."""
    down = Zmod(ring.p, ring.m - 1)
    theta = (mat(ring, [[1]]),)
    abar = mat(down, [[0, {2: 1}], [0, 0]])
    psibar = (mat(down, [[1]]), mat(down, [[{2: 1}]]))
    return LiftingInputTuple(ring, (1, 1), theta, abar, psibar)


def weight_two_unit_tuple(ring):
    """Rank-three weight-two input over Z/25 in the presentation where the
    de Rham matrix is the one produced by the level-one transform."""
    down = Zmod(ring.p, ring.m - 1)
    one = mat(ring, [[1]])
    theta = (one, one)
    abar = mat(down, [[0, {4: 1}, 0], [0, 0, {4: 1}], [0, 0, 0]])
    psibar = (
        mat(down, [[1]]),
        mat(down, [[{4: 1}]]),
        mat(down, [[{8: 1}]]),
    )
    return LiftingInputTuple(ring, (1, 1, 1), theta, abar, psibar)


# ---------------------------------------------------------------------------
# twisting


def test_ptwist_scales_blocks_by_grade_distance():
    ring = Zmod(3, 2)
    A = mat(ring, [[{1: 1}, {0: 1, 1: 1}], [2, {2: 1}]])
    B = ptwist_matrix(A, (1, 1))
    assert B == mat(ring, [[{1: 3}, {0: 1, 1: 1}], [0, {2: 3}]])


def test_ptwist_rejects_two_step_drop():
    ring = Zmod(5, 2)
    A = RingMatrix.zeros(ring, 3, 3)
    A.rows[0][2] = LaurentPoly.one(ring)
    with pytest.raises(TransversalityViolated):
        ptwist_matrix(A, (1, 1, 1))


def test_trivial_filtration_gives_p_times_connection():
    rng = random.Random(7)
    ring = Zmod(3, 2)
    tup = random_input_tuple(rng, ring, (3,))
    tw = gn_construct(tup)
    A = local_filtered_lifting(tup)
    assert tw.module.matrix == A.scale_const(ring.coerce(3))


# ---------------------------------------------------------------------------
# input validation


def test_input_tuple_weight_cap():
    ring = Zmod(3, 2)
    one = mat(ring, [[1]])
    with pytest.raises(LevelTooHigh):
        LiftingInputTuple(ring, (1, 1, 1), (one, one))


def test_input_tuple_comparison_must_carry_connection():
    ring = Zmod(3, 2)
    down = Zmod(3, 1)
    theta = (mat(ring, [[1]]),)
    abar = mat(down, [[0, {2: 1}], [0, 0]])
    bad_psibar = (mat(down, [[1]]), mat(down, [[{3: 1}]]))
    with pytest.raises(CertificateFailed) as err:
        LiftingInputTuple(ring, (1, 1), theta, abar, bad_psibar)
    assert err.value.part == "psi-compat"


def test_input_tuple_comparison_must_be_invertible():
    ring = Zmod(3, 2)
    down = Zmod(3, 1)
    theta = (mat(ring, [[1]]),)
    abar = mat(down, [[0, {2: 1}], [0, 0]])
    psibar = (mat(down, [[1]]), mat(down, [[{0: 1, 1: 1}]]))
    with pytest.raises(NonInvertible):
        LiftingInputTuple(ring, (1, 1), theta, abar, psibar)


def test_input_tuple_rejects_two_step_drop():
    ring = Zmod(5, 2)
    down = Zmod(5, 1)
    one = mat(ring, [[1]])
    abar = mat(down, [[0, {4: 1}, 1], [0, 0, {4: 1}], [0, 0, 0]])
    psibar = (mat(down, [[1]]), mat(down, [[{4: 1}]]), mat(down, [[{8: 1}]]))
    with pytest.raises(TransversalityViolated):
        LiftingInputTuple(ring, (1, 1, 1), (one, one), abar, psibar)


# ---------------------------------------------------------------------------
# the lifting and its two twists


def test_worked_lifting_and_twist():
    ring = Zmod(3, 2)
    down = Zmod(3, 1)
    tup = one_periodic_unit_tuple(ring)
    assert adapted_dr_matrix(tup) == mat(down, [[0, 1], [0, {-1: 1}]])
    A = local_filtered_lifting(tup)
    assert A == mat(ring, [[0, 1], [0, {-1: 1}]])
    assert A.reduce_to(down) == adapted_dr_matrix(tup)
    tw = sharp_construct(tup)
    assert tw.module.matrix == mat(ring, [[0, 1], [0, {-1: 3}]])


def test_lifting_reduces_to_adapted_matrix():
    rng = random.Random(11)
    for ranks in [(1, 1), (2, 1), (1, 2), (3,)]:
        ring = Zmod(3, 2)
        tup = random_input_tuple(rng, ring, ranks)
        A = local_filtered_lifting(tup)
        assert A.reduce_to(tup.down_ring) == adapted_dr_matrix(tup)


def _multi_block_tuples(rng):
    """Seeded tuples with several comparison blocks, p in {3, 5, 7} and
    n in {2, 3}, and the reduced tuple of each one at n = 3."""
    for p in (3, 5, 7):
        for n in (2, 3):
            for ranks in ((2, 2), (1, 3), (1, 2, 1)):
                if len(ranks) - 1 > p - 2:
                    continue
                tup = random_witt_tuple(rng, p, n, ranks)
                yield tup
                if n == 3:
                    yield reduce_tuple(tup)


def test_adapted_matrix_matches_uncached_oracle():
    for tup in _multi_block_tuples(random.Random(61)):
        A = adapted_dr_matrix(tup)
        assert A == uncached_adapted_dr_matrix(tup)
        assert adapted_dr_matrix(tup) is A


def test_adapted_matrix_is_computed_once_per_tuple(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return change_frame_connection(*args)

    monkeypatch.setattr(witt, "change_frame_connection", spy)
    rng = random.Random(67)
    for n, expected in ((2, 2), (3, 2)):
        tup = random_witt_tuple(rng, 5, n, (1, 2, 1))
        del calls[:]
        gn_construct(tup)
        sharp_construct(tup)
        mod_reduction_check(tup)
        if n == 2:
            # one more for the adapted-frame conjugation of the output
            w2_flow_step(tup, filtration_steps_from_flag(tup, tup.ring))
        # n = 2: the tuple; n = 3: the tuple and its reduction
        assert len(calls) == expected


def test_comparison_block_determinants_are_computed_once(monkeypatch):
    """Validating a tuple takes each comparison block's determinant, and the
    adapted matrix inverts the blocks with it instead of taking it again."""
    built = list(_multi_block_tuples(random.Random(73)))
    dets = []
    minors = RingMatrix._minors

    def spy(self):
        minor = minors(self)

        def counted(*args):
            if not args:
                dets.append(self)
            return minor(*args)

        return counted

    monkeypatch.setattr(RingMatrix, "_minors", spy)
    for old in built:
        del dets[:]
        tup = LiftingInputTuple(old.ring, old.ranks, old.theta, old.abar, old.psibar)
        adapted_dr_matrix(tup)
        assert [sum(D is P for D in dets) for P in tup.psibar] == [1] * len(tup.psibar)


def test_constructions_do_not_alias_the_adapted_matrix():
    rng = random.Random(71)
    for tup in _multi_block_tuples(rng):
        if tup.n == 1:
            continue
        zero = LaurentPoly.zero(tup.ring)
        for M in (
            gn_construct(tup).lift,
            sharp_construct(tup).module.matrix,
            local_filtered_lifting(tup),
        ):
            for row in M.rows:
                row[:] = [zero] * len(row)
        # a twin tuple builds its own adapted matrix from the same data
        twin = LiftingInputTuple(tup.ring, tup.ranks, tup.theta, tup.abar, tup.psibar)
        assert adapted_dr_matrix(tup) == uncached_adapted_dr_matrix(tup)
        assert local_filtered_lifting(tup) == local_filtered_lifting(twin)
        assert gn_construct(tup).lift == gn_construct(twin).lift
        assert sharp_construct(tup).module.matrix == sharp_construct(twin).module.matrix


def test_sharp_agrees_with_lifting_twist():
    rng = random.Random(13)
    for ring in (Zmod(3, 2), Zmod(5, 2)):
        shapes = [(1, 1), (2, 1), (1, 2)]
        if ring.p == 5:
            shapes.append((1, 1, 1))
        for ranks in shapes:
            tup = random_input_tuple(rng, ring, ranks)
            assert gn_construct(tup).module.matrix == sharp_construct(tup).module.matrix


def test_lifting_choice_is_invisible_after_twist():
    rng = random.Random(17)
    ring = Zmod(3, 2)
    tup = random_input_tuple(rng, ring, (2, 1))
    pert = RingMatrix.zeros(ring, 3, 3)
    paste_block(pert, 0, 0, random_poly_matrix(rng, ring, 2, 2))
    paste_block(pert, 2, 0, random_poly_matrix(rng, ring, 1, 2))
    paste_block(pert, 2, 2, random_poly_matrix(rng, ring, 1, 1))
    tw = perturbed_construct(tup, pert)
    assert not tw.lift.sub(gn_construct(tup).lift).is_zero()
    assert tw.module.matrix == gn_construct(tup).module.matrix
    assert equivalence_check(tw, sharp_construct(tup)) == RingMatrix.identity(ring, 3)


def _assert_intertwines(tw_a, tw_b, L):
    ring = tw_a.ring
    defect = (
        L.derivative().scale_const(ring.coerce(ring.p))
        .add(tw_a.module.matrix.mul(L))
        .sub(L.mul(tw_b.module.matrix))
    )
    assert defect.is_zero()
    assert L.det().is_unit()


def test_equivalence_under_frame_change():
    rng = random.Random(19)
    ring = Zmod(3, 2)
    tup = random_input_tuple(rng, ring, (1, 1))
    Q = RingMatrix.identity(ring, 2)
    Q.rows[1][0] = lp(ring, {0: 2, 1: 1})
    tw1 = gn_construct(tup)
    tw2 = gn_construct(tup, frame=Q)
    # the p-power-conjugated frame intertwines the frame-changed twist back
    lam = RingMatrix.identity(ring, 2)
    lam.rows[1][0] = Q.rows[1][0].scale(ring.coerce(3))
    _assert_intertwines(tw1, tw2, lam)
    L = equivalence_check(tw1, tw2)
    _assert_intertwines(tw1, tw2, L)
    assert equivalence_gamma_check(tw1, tw2, L, rng)


def test_gn_construct_rejects_a_singular_frame():
    ring = Zmod(3, 2)
    tup = random_input_tuple(random.Random(29), ring, (2, 1))
    frame = RingMatrix.identity(ring, 3)
    frame.rows[2][2] = lp(ring, {0: 3})
    frame.rows[2][0] = lp(ring, {1: 1})
    with pytest.raises(NonInvertible, match="frame is singular"):
        gn_construct(tup, frame=frame)


def _rank_one_twist(ring, b):
    """The rank-one twisted module with constant p-connection matrix (b)."""
    B = mat(ring, [[b]])
    return TwistedFlatModule(
        ring, (1,), RingMatrix.zeros(ring, 1, 1), PConnectionModule(ring, 1, B)
    )


def test_equivalence_check_with_an_empty_kernel_has_no_solution():
    # p dL = L: the t^e equation reads c_e = p (e+1) c_{e+1}, so every
    # coefficient vanishes, from the top of the window down
    ring = Zmod(3, 2)
    with pytest.raises(NoSolution) as err:
        equivalence_check(_rank_one_twist(ring, 0), _rank_one_twist(ring, 1))
    assert err.value.bounds == {"window": (-1, 2), "windows": [(-1, 1), (-1, 2)]}


def test_equivalence_check_budget_error_names_stage_work_and_window(monkeypatch):
    # p dL = p L forces L = 0 mod p: the kernel on the default window
    # [-1, 2] is four p-multiples, so no combination of them is invertible
    # and the search stops after the kernel stage with a proof
    ring = Zmod(3, 2)
    tw_a, tw_b = _rank_one_twist(ring, 0), _rank_one_twist(ring, 3)
    with pytest.raises(NoSolution) as err:
        equivalence_check(tw_a, tw_b)
    assert err.value.bounds == {
        "stage": "kernel",
        "tried": 4,
        "kernel": 4,
        "window": (-1, 2),
        "windows": [(-1, 1), (-1, 2)],
    }
    monkeypatch.setattr(witt, "EQUIVALENCE_BUDGET", 3)
    Ba, Bb = tw_a.module.matrix, tw_b.module.matrix
    with pytest.raises(SearchBudgetExceeded) as err:
        witt._window_intertwiner(ring, Ba, Bb, (0, 5))
    assert err.value.bounds == {"stage": "kernel", "tried": 3, "kernel": 6, "window": (0, 5)}
    # p dL = L N with N nilpotent: the first column of L is p dL_12 and
    # p dL_22, a p-multiple, while the second column may be a unit, so the
    # random stage runs and spends the budget
    monkeypatch.setattr(witt, "EQUIVALENCE_BUDGET", 20)
    tw_a = TwistedFlatModule(
        ring, (1, 1), RingMatrix.zeros(ring, 2, 2),
        PConnectionModule(ring, 2, RingMatrix.zeros(ring, 2, 2)),
    )
    tw_b = TwistedFlatModule(
        ring, (1, 1), RingMatrix.zeros(ring, 2, 2),
        PConnectionModule(ring, 2, mat(ring, [[0, 1], [0, 0]])),
    )
    with pytest.raises(SearchBudgetExceeded) as err:
        equivalence_check(tw_a, tw_b)
    assert err.value.bounds["stage"] == "random"
    assert err.value.bounds["tried"] == 20
    assert err.value.bounds["windows"] == [(-1, 1), (-1, 2)]


def _solve_widths(monkeypatch):
    """Spy on the solves of equivalence_check: the unknown count of each."""
    widths = []

    def spy(rows, d, ncols):
        widths.append(ncols)
        return solve_linear_mod(rows, d, ncols)

    monkeypatch.setattr(witt, "solve_linear_mod", spy)
    return widths


def test_equivalence_check_widens_past_a_window_without_a_unit(monkeypatch):
    # p dL = L B_b with B_b = -2p/t over Z/25: the t^(e-1) equation reads
    # p (e+2) c_e = 0, so -1..1 holds only p-multiples and t^-2 needs the
    # default window -2..2
    ring = Zmod(5, 2)
    tw_a, tw_b = _rank_one_twist(ring, 0), _rank_one_twist(ring, {-1: 15})
    widths = _solve_widths(monkeypatch)
    draws = []

    class Random(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(ringmath, "random", types.SimpleNamespace(Random=Random))
    assert equivalence_check(tw_a, tw_b) == mat(ring, [[{-2: 1}]])
    assert widths == [3, 5]
    # -1..1 costs its three kernel generators, and no random combination
    assert draws == []
    # on -1..1 alone the search ends in its kernel stage with a proof
    Ba, Bb = tw_a.module.matrix, tw_b.module.matrix
    with pytest.raises(NoSolution) as err:
        witt._window_intertwiner(ring, Ba, Bb, (-1, 1))
    assert err.value.bounds == {"stage": "kernel", "tried": 3, "kernel": 3, "window": (-1, 1)}


def _multi_piece_shapes(p):
    """Graded shapes of two or more pieces, weight <= p - 2 and total rank
    <= 4: the shapes whose frame changes are not the identity."""
    return [
        ranks
        for k in range(2, p)
        for ranks in itertools.product(range(1, 4), repeat=k)
        if sum(ranks) <= 4
    ]


def _frame_change_pair(rng, p, n, ranks):
    tup = random_witt_tuple(rng, p, n, ranks)
    frame = random_flag_frame(rng, tup.ring, ranks)
    return gn_construct(tup), gn_construct(tup, frame=frame)


def test_seed_one_frame_changes_solve_one_system_on_the_unit_window(monkeypatch):
    # the witt-lift benchmark's frame-change cases at seed 1
    pairs = [
        _frame_change_pair(
            random.Random("witt-lift:1:%d:2:%s:0" % (p, ranks)), p, 2, ranks
        )
        for p in (3, 5, 7)
        for ranks in _multi_piece_shapes(p)
    ]
    assert len(pairs) == 28
    widths = _solve_widths(monkeypatch)
    for tw, framed in pairs:
        del widths[:]
        L = equivalence_check(tw, framed)
        # one unknown per entry of L and exponent in -1..1; the frame change
        # at p = 5, ranks (1, 1) leaves B as it was and needs no solve
        unchanged = tw.module.matrix == framed.module.matrix
        assert widths == ([] if unchanged else [3 * tw.rank ** 2])
        assert all(-1 <= e <= 1 for row in L.rows for x in row for e in x.coeffs)
        _assert_intertwines(tw, framed, L)
    # the same shapes at other seeds and at n = 3 give invertible
    # intertwiners too, on whichever window holds one
    for p in (3, 5, 7):
        for n in (2, 3):
            rng = random.Random(100 * p + n)
            for ranks in _multi_piece_shapes(p):
                tw, framed = _frame_change_pair(rng, p, n, ranks)
                _assert_intertwines(tw, framed, equivalence_check(tw, framed))


# ---------------------------------------------------------------------------
# divided operators


def test_worked_divided_operator():
    ring = Zmod(3, 2)
    A = mat(ring, [[0, 1], [0, 0]])
    tw = TwistedFlatModule(
        ring, (1, 1), A, PConnectionModule(ring, 2, ptwist_matrix(A, (1, 1)))
    )
    hs = [LaurentPoly.one(ring), LaurentPoly.var(ring)]
    out = tw.gamma(0, hs, basis_col(ring, 2, 1))
    assert out == mat(ring, [[3], [0]])
    # order-(p-1) composite equals the divided operator at weight zero
    v = basis_col(ring, 2, 1)
    chain = tw.nabla(hs[0], tw.nabla(hs[1], v))
    assert chain == out


def test_divided_operator_vanishes_at_level_one():
    ring = Zmod(3, 1)
    A = mat(ring, [[0, {1: 2}], [0, 0]])
    tw = TwistedFlatModule(
        ring, (1, 1), A, PConnectionModule(ring, 2, ptwist_matrix(A, (1, 1)))
    )
    hs = [LaurentPoly.one(ring), LaurentPoly.var(ring)]
    for k in range(2):
        assert tw.gamma(0, hs, basis_col(ring, 2, k)).is_zero()


def test_divided_operator_relations_mod_nine_and_twenty_five():
    rng = random.Random(23)
    for ring, ranks in [(Zmod(3, 2), (1, 1)), (Zmod(3, 2), (2, 1)),
                        (Zmod(5, 2), (1, 1, 1)), (Zmod(5, 2), (1, 2, 1)),
                        (Zmod(5, 2), (1, 1, 1, 1)), (Zmod(5, 3), (1, 2, 1))]:
        tup = random_input_tuple(rng, ring, ranks)
        tw = sharp_construct(tup)
        report = gamma_relations_check(tw, rng, samples=2, m=1)
        assert all(report.values()), (ring, ranks, report)
        # a shape whose top grade reaches p - n has a nonzero operator, so
        # the relations above compared more than zeros
        zeros = [
            tw.gamma(
                1,
                [random_poly(rng, ring, 2) for _ in range(ring.p)],
                RingMatrix(ring, [[random_poly(rng, ring, 2)] for _ in range(tw.rank)]),
            ).is_zero()
            for _ in range(3)
        ]
        live = len(ranks) - 1 >= ring.p - ring.m
        assert all(zeros) != live, (ring, ranks)


def _graded_shapes(max_rank, max_weight):
    """Every tuple of positive grade ranks with the given bounds."""
    shapes = [(r,) for r in range(1, max_rank + 1)]
    out = []
    while shapes:
        out.extend(shapes)
        shapes = [
            s + (r,)
            for s in shapes
            if len(s) <= max_weight
            for r in range(1, max_rank - sum(s) + 1)
        ]
    return out


def _random_one_step_lower(rng, ring, ranks, degree=1):
    """Random connection matrix whose blocks drop at most one grade."""
    grade = [g for g, r in enumerate(ranks) for _ in range(r)]
    return RingMatrix(
        ring,
        [
            [
                random_poly(rng, ring, degree) if gi >= gj - 1 else LaurentPoly.zero(ring)
                for gj in grade
            ]
            for gi in grade
        ],
    )


def test_pruned_divided_operator_matches_unpruned_oracle():
    rng = random.Random(8)
    live = 0
    for p in (3, 5, 7):
        shapes = _graded_shapes(4, p - 2)
        for n in (1, 2, 3):
            ring = Zmod(p, n)
            for m in (0, 1, 2):
                for ranks in shapes:
                    rank = sum(ranks)
                    A = _random_one_step_lower(rng, ring, ranks)
                    hs = [random_poly(rng, ring, 1) for _ in range(p - 1 + m)]
                    col = RingMatrix(
                        ring, [[random_poly(rng, ring, 1)] for _ in range(rank)]
                    )
                    want = unpruned_gamma_apply(A, ranks, m, hs, col)
                    assert gamma_apply(A, ranks, m, hs, col) == want, (p, n, m, ranks)
                    # many columns at once, as taylor_transition applies it
                    # to the identity: column by column the same operator
                    X = col.hstack(RingMatrix.identity(ring, rank))
                    wide = gamma_apply(A, ranks, m, hs, X)
                    for j in range(X.ncols):
                        assert wide.columns([j]) == unpruned_gamma_apply(
                            A, ranks, m, hs, X.columns([j])
                        ), (p, n, m, ranks, j)
                    if len(ranks) - 1 < p - n:
                        assert want.is_zero(), (p, n, m, ranks)
                    elif not want.is_zero():
                        live += 1
    assert live > 0


def _gamma_outcome(apply, A, ranks, m, hs, X):
    """The operator's output, or the part of the certificate it failed."""
    try:
        return apply(A, ranks, m, hs, X)
    except CertificateFailed as err:
        return err.part


def test_fused_divided_operator_matches_unfused_oracle(monkeypatch):
    packed = spy_packed_products(monkeypatch)
    rng = random.Random(61)
    below = escaped = 0
    for p in (3, 5, 7):
        for n in (2, 3):
            ring = Zmod(p, n)
            # the second shape reaches p - n, so its lower grades are parts
            # below p - n; the third has weight p, so a part may escape
            for ranks in ((2, 1), (1,) * (p - n) + (2,), (1,) * (p + 1)):
                rank = sum(ranks)
                A = _random_one_step_lower(rng, ring, ranks)
                X = RingMatrix(
                    ring, [[random_poly(rng, ring, 1)] for _ in range(rank)]
                ).hstack(RingMatrix.identity(ring, rank))
                for m in (0, 1, 2):
                    hs = [random_poly(rng, ring, 1) for _ in range(p - 1 + m)]
                    want = _gamma_outcome(unfused_gamma_apply, A, ranks, m, hs, X)
                    got = _gamma_outcome(gamma_apply, A, ranks, m, hs, X)
                    assert got == want, (p, n, m, ranks)
                    if want == "gamma":
                        escaped += 1
                    elif len(ranks) > p - n > 0 and not want.is_zero():
                        below += 1
    # the shift matrix carries the top grade of a weight-p shape below its
    # slot: both raise, with the same part
    ring = Zmod(3, 2)
    A = mat(ring, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    args = (A, (1, 1, 1, 1), 1, [LaurentPoly.one(ring)] * 3, basis_col(ring, 4, 3))
    assert _gamma_outcome(gamma_apply, *args) == "gamma"
    assert _gamma_outcome(unfused_gamma_apply, *args) == "gamma"
    assert below > 0 and escaped > 0
    assert not packed
    # dense entries of degree 6 at n = 3: the steps multiply on packed slots
    for p in (5, 7):
        ring = Zmod(p, 3)
        ranks = (1,) * (p - 3) + (2,)
        A = _random_one_step_lower(rng, ring, ranks, degree=6)
        X = RingMatrix(ring, [[random_poly(rng, ring, 6)] for _ in range(sum(ranks))])
        hs = [random_poly(rng, ring, 2) for _ in range(p)]
        got = gamma_apply(A, ranks, 1, hs, X)
        assert got == unfused_gamma_apply(A, ranks, 1, hs, X) and not got.is_zero()
    assert packed["_divided_step", 4]


def test_escaped_slot_certificate_fires_with_and_without_pruning():
    # weight p: the top grade ends one slot up, and three one-step drops of
    # the shift matrix carry it to grade zero, below its slot
    ring = Zmod(3, 2)
    ranks = (1, 1, 1, 1)
    A = mat(ring, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    hs = [LaurentPoly.one(ring)] * 3
    col = basis_col(ring, 4, 3)
    for apply in (gamma_apply, unpruned_gamma_apply):
        with pytest.raises(CertificateFailed, match="escaped its slot") as err:
            apply(A, ranks, 1, hs, col)
        assert err.value.part == "gamma"


def test_level_bound_of_twisted_module():
    ring = Zmod(3, 2)
    A = mat(ring, [[0, 1], [0, {1: 1}]])
    tw = TwistedFlatModule(
        ring, (1, 1), A, PConnectionModule(ring, 2, ptwist_matrix(A, (1, 1)))
    )
    one = LaurentPoly.one(ring)
    cols = [basis_col(ring, 2, k) for k in range(2)]
    assert not level_at_most(tw.module, 1, [[one, one]], cols)
    assert level_at_most(tw.module, 2, [[one, one, one]], cols)


def test_pconnection_leibniz():
    rng = random.Random(29)
    ring = Zmod(5, 2)
    tup = random_input_tuple(rng, ring, (1, 1, 1))
    tw = sharp_construct(tup)
    f = random_poly(rng, ring, 2)
    cols = [basis_col(ring, 3, k) for k in range(3)]
    assert leibniz_check(tw.module, f, cols)


# ---------------------------------------------------------------------------
# Taylor coefficients and transitions


def test_taylor_coefficients_frozen_mod_nine():
    ring = Zmod(3, 2)
    assert taylor_coefficient(ring, 3) == 5
    assert taylor_coefficient(ring, 4) == 6
    for j in range(5, 12):
        assert taylor_coefficient(ring, j) == 0


def test_taylor_coefficient_inverts_factorial():
    # c_j * j! = p^(j+1-p) exactly, whenever the unit part was inverted
    for ring in (Zmod(3, 2), Zmod(5, 2), Zmod(3, 3)):
        p = ring.p
        for j in range(p, 3 * p):
            c = taylor_coefficient(ring, j)
            fact = 1
            for k in range(2, j + 1):
                fact *= k
            assert (c * fact) % ring.modulus == (p ** (j + 1 - p)) % ring.modulus


def test_truncation_bound_table():
    assert truncation_bound(3, 1) == 5
    assert truncation_bound(3, 2) == 8
    assert truncation_bound(5, 2) == 14
    for p, n in [(3, 1), (3, 2), (5, 2)]:
        ring = Zmod(p, n)
        for j in range(truncation_bound(p, n), truncation_bound(p, n) + p):
            assert taylor_coefficient(ring, j) == 0


def test_taylor_transition_same_lifting_is_identity():
    rng = random.Random(31)
    ring = Zmod(3, 2)
    tup = random_input_tuple(rng, ring, (1, 1))
    tw = sharp_construct(tup)
    lift = FrobeniusLifting.standard(AffineLine(ring))
    assert taylor_transition(tw, lift, lift) == RingMatrix.identity(ring, 2)


def test_taylor_transition_level_one_matches_exponential():
    rng = random.Random(37)
    ring = Zmod(3, 1)
    curve = AffineLine(ring)
    for _ in range(5):
        theta = (random_poly_matrix(rng, ring, 1, 1, 2),)
        tup = LiftingInputTuple(ring, (1, 1), theta)
        tw = sharp_construct(tup)
        l0 = FrobeniusLifting.standard(curve)
        l1 = FrobeniusLifting(curve, (random_poly(rng, ring, 2),))
        G = taylor_transition(tw, l0, l1)
        higgs = HiggsBundle.from_chart0(
            Bundle(curve, 2), theta_total_matrix(ring, (1, 1), theta)
        )
        # exp(z * pullback of Theta) with z = (F_1 - F_0)/p
        assert G == lifting_change_transport(higgs, l1, l0)[0].phi[0]


def test_taylor_cocycle_full_precision():
    rng = random.Random(41)
    ring = Zmod(3, 2)
    curve = AffineLine(ring)
    for ranks in [(1, 1), (2, 1)]:
        for _ in range(3):
            tup = random_input_tuple(rng, ring, ranks)
            tw = sharp_construct(tup)
            l1 = FrobeniusLifting.standard(curve)
            l2 = FrobeniusLifting(curve, (random_poly(rng, ring, 1),))
            l3 = FrobeniusLifting(curve, (random_poly(rng, ring, 1),))
            g21 = taylor_transition(tw, l1, l2)
            g32 = taylor_transition(tw, l2, l3)
            g31 = taylor_transition(tw, l1, l3)
            assert g31 == g21.mul(g32)


# one low-weight shape and one of weight >= p - n per (p, n): on the second
# the divided-operator terms of the Taylor series need not vanish
TAYLOR_SHAPES = {
    (3, 2): [(1, 1), (2, 1)],
    (3, 3): [(2,), (1, 2)],
    (5, 2): [(2, 1), (1, 1, 1, 1)],
    (5, 3): [(1, 2), (1, 2, 1)],
    (7, 2): [(1, 1), (1, 1, 1, 1, 1, 1)],
    (7, 3): [(2, 1), (1, 1, 1, 1, 1)],
}


def _live_gamma_terms(tw):
    """Degrees j >= p whose divided Taylor term is a nonzero matrix."""
    ring, p = tw.ring, tw.p
    one, ident = LaurentPoly.one(ring), RingMatrix.identity(ring, tw.rank)
    return [
        j
        for j in range(p, truncation_bound(p, modulus_power(tw)))
        if taylor_coefficient(ring, j)
        and not tw.gamma(j + 1 - p, [one] * j, ident).is_zero()
    ]


def test_taylor_transition_matches_uncached_oracle(monkeypatch):
    packed = spy_packed_products(monkeypatch)
    live = 0
    for (p, n), shapes in TAYLOR_SHAPES.items():
        for ranks in shapes:
            rng = random.Random("taylor:%d:%d:%s" % (p, n, ranks))
            tup = random_witt_tuple(rng, p, n, ranks)
            line = AffineLine(tup.ring)
            lifts = [FrobeniusLifting.standard(line)]
            lifts += [random_lifting(rng, line) for _ in range(2)]
            # one module serves every call, in a shuffled order
            tw = sharp_construct(tup)
            calls = [(a, b) for a in range(3) for b in range(3) if a != b]
            rng.shuffle(calls)
            for a, b in calls:
                got = taylor_transition(tw, lifts[a], lifts[b])
                want = uncached_taylor_transition(tw, lifts[a], lifts[b])
                assert got == want, (p, n, ranks, a, b)
            live += bool(_live_gamma_terms(tw))
    assert live > 0 and packed["_divided_step", 4]


def test_taylor_transition_is_horizontal_between_the_pullbacks():
    # G carries the pullback under the source lifting to the one under the
    # target: dG + A_target G - G A_source = 0, and not the other way round
    for (p, n), shapes in TAYLOR_SHAPES.items():
        for ranks in shapes:
            rng = random.Random("horizontal:%d:%d:%s" % (p, n, ranks))
            tup = random_witt_tuple(rng, p, n, ranks)
            line = AffineLine(tup.ring)
            target, source = random_lifting(rng, line), random_lifting(rng, line)
            tw = sharp_construct(tup)
            G = taylor_transition(tw, target, source)
            At, As = fn_apply(tw, target).A[0], fn_apply(tw, source).A[0]
            assert G.derivative().add(At.mul(G)).sub(G.mul(As)).is_zero(), (p, n, ranks)
            assert not G.derivative().add(As.mul(G)).sub(G.mul(At)).is_zero(), (p, n, ranks)


def test_taylor_transition_output_does_not_alias_the_module_terms():
    rng = random.Random(47)
    tup = random_witt_tuple(rng, 5, 3, (1, 2, 1))
    line = AffineLine(tup.ring)
    l0, l1 = random_lifting(rng, line), random_lifting(rng, line)
    tw = sharp_construct(tup)
    want = uncached_taylor_transition(tw, l0, l1)
    G = taylor_transition(tw, l0, l1)
    assert G == want
    # scribble on every entry in place, then on the rows themselves
    for row in G.rows:
        for e in row:
            e.coeffs.clear()
            e.coeffs[7] = 1
        row[0] = LaurentPoly.one(tup.ring)
    assert taylor_transition(tw, l0, l1) == want
    assert taylor_transition(tw, l1, l0) == uncached_taylor_transition(tw, l1, l0)


def test_taylor_terms_are_built_once_per_module(monkeypatch):
    rng = random.Random(53)
    p, n = 5, 3
    tup = random_witt_tuple(rng, p, n, (1, 2, 1))
    line = AffineLine(tup.ring)
    l0, l1, l2 = (random_lifting(rng, line) for _ in range(3))
    tw = sharp_construct(tup)
    assert _live_gamma_terms(tw)
    calls = {"step": 0, "nabla": 0, "substitute": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(witt, "_divided_step", counted("step", witt._divided_step))
    monkeypatch.setattr(
        PConnectionModule, "apply", counted("nabla", PConnectionModule.apply)
    )
    monkeypatch.setattr(witt, "_substitute", counted("substitute", witt._substitute))
    for target, source in ((l0, l1), (l1, l2), (l0, l2)):
        taylor_transition(tw, target, source)
    nonzero = [
        j for j in range(p, truncation_bound(p, n)) if taylor_coefficient(tup.ring, j)
    ]
    # one h = 1 chain up to the last kept term, on the one live grade (2)
    assert calls == {"step": nonzero[-1], "nabla": p - 1, "substitute": 3}


def test_shared_relation_check_matches_unshared_oracle():
    rng = random.Random(67)
    reports = []
    for p in (3, 5, 7):
        for n in (2, 3):
            # the second shape reaches p - n, so its operator is live
            for ranks in ((2, 1), (1,) * (p - 1)):
                tw = sharp_construct(random_witt_tuple(rng, p, n, ranks))
                for m in (1, 2):
                    seed = rng.randrange(2 ** 31)
                    report = gamma_relations_check(tw, random.Random(seed), samples=2, m=m)
                    want = unshared_gamma_relations_check(
                        tw, random.Random(seed), samples=2, m=m
                    )
                    assert report == want, (p, n, m, ranks)
                    assert all(report.values()), (p, n, m, ranks)
                bound = truncation_bound(p, n)
                assert tw._taylor_terms(bound) == unshared_taylor_terms(tw, bound)
            # one entry of the p-connection perturbed after construction: the
            # nabla sides move and gamma's do not
            B = tw.module.matrix
            rows = [list(row) for row in B.rows]
            rows[0][0] = rows[0][0].add(LaurentPoly.one(tw.ring))
            tw.module.matrix = RingMatrix(tw.ring, rows)
            seed = rng.randrange(2 ** 31)
            report = gamma_relations_check(tw, random.Random(seed), samples=2, m=1)
            assert report == unshared_gamma_relations_check(
                tw, random.Random(seed), samples=2, m=1
            ), (p, n)
            reports.append(report)
    assert any(not report["scaling"] or not report["shift"] for report in reports)


def test_divided_step_counts_of_the_shared_chains(monkeypatch):
    rng = random.Random(71)
    p, n = 5, 3
    tw = sharp_construct(random_witt_tuple(rng, p, n, (1, 2, 1)))
    steps = [0]
    step = witt._divided_step

    def counted(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(witt, "_divided_step", counted)
    bound = truncation_bound(p, n)
    terms = tw._taylor_terms(bound)
    kept = [j for j in range(p, bound) if terms[j] is not None]
    # (last kept j) x (live parts of the identity: grade 2 only)
    assert (kept, steps[0]) == ([5, 6, 7], 7 * 1)
    steps[0] = 0
    assert unshared_taylor_terms(tw, bound) == terms
    assert steps[0] == 5 + 6 + 7
    steps[0] = 0
    report = gamma_relations_check(tw, random.Random(5), samples=1, m=1)
    shared = steps[0]
    steps[0] = 0
    assert report == unshared_gamma_relations_check(tw, random.Random(5), samples=1, m=1)
    assert all(report.values())
    assert (shared, steps[0]) == (59, 94) and shared < steps[0]


def test_taylor_transition_stops_z_powers_at_the_last_kept_term(monkeypatch):
    # at p = 7, n = 3 the bound is 27 but the coefficients vanish from
    # degree 10 on, so z^9 is the last power any kept term needs
    rng = random.Random(59)
    tup = random_witt_tuple(rng, 7, 3, (1, 1, 1, 1, 1))
    ring = tup.ring
    line = AffineLine(ring)
    target, source = random_lifting(rng, line), random_lifting(rng, line)
    tw = sharp_construct(tup)
    terms = tw._taylor_terms(truncation_bound(7, 3))
    kept = [j for j, term in enumerate(terms) if term is not None]
    assert (len(terms), len(kept), kept[-1]) == (27, 10, 9)
    z = source.z_same_chart(target, 0, ring)
    with_z = []
    mul = LaurentPoly.mul

    def spy(self, other):
        out = mul(self, other)
        if z in (self, other):
            with_z.append(out)
        return out

    monkeypatch.setattr(LaurentPoly, "mul", spy)
    G = taylor_transition(tw, target, source)
    monkeypatch.undo()
    past = [laurent_power(z, j) for j in range(kept[-1] + 1, len(terms))]
    assert len(with_z) <= kept[-1] and not any(out in past for out in with_z)
    assert G == uncached_taylor_transition(tw, target, source)


# ---------------------------------------------------------------------------
# the composite transform


def test_worked_transform_matrix():
    ring = Zmod(3, 2)
    tup = one_periodic_unit_tuple(ring)
    res = cn_inverse(tup)
    assert res.A[0] == mat(ring, [[0, {2: 1}], [0, {-1: 3}]])


def test_level_one_transform_matches_char_p():
    rng = random.Random(47)
    for p in (3, 5):
        ring = Zmod(p, 1)
        curve = AffineLine(ring)
        for ranks in [(1, 1), (2, 1), (1, 1, 1)][: 2 if p == 3 else 3]:
            for _ in range(3):
                theta = tuple(
                    random_poly_matrix(rng, ring, ranks[g], ranks[g + 1], 2)
                    for g in range(len(ranks) - 1)
                )
                tup = LiftingInputTuple(ring, ranks, theta)
                lift = FrobeniusLifting(curve, (random_poly(rng, ring, 1),))
                total = theta_total_matrix(ring, ranks, theta)
                higgs = HiggsBundle.from_chart0(Bundle(curve, sum(ranks)), total)
                assert (
                    fn_apply(sharp_construct(tup), lift).A[0]
                    == inverse_cartier_1(higgs, lift).A[0]
                )


def test_reduction_certificate():
    rng = random.Random(53)
    for ring in (Zmod(3, 2), Zmod(5, 2)):
        shapes = [(1, 1), (2, 1)] if ring.p == 3 else [(1, 1), (1, 1, 1)]
        for ranks in shapes:
            tup = random_input_tuple(rng, ring, ranks)
            cert = mod_reduction_check(tup)
            assert cert.ok
            assert cert.matrix == RingMatrix.identity(tup.down_ring, tup.rank)
            assert cert.char_p_agrees


def test_reduce_tuple_roundtrip_shapes():
    rng = random.Random(59)
    tup = random_input_tuple(rng, Zmod(3, 2), (2, 1))
    red = reduce_tuple(tup)
    assert red.ring == Zmod(3, 1)
    assert red.ranks == tup.ranks
    assert red.theta[0] == tup.theta[0].reduce_to(Zmod(3, 1))
    assert red.abar is None and red.psibar is None


# ---------------------------------------------------------------------------
# the flow step at full precision


def test_flow_step_one_periodic_worked_instance():
    ring = Zmod(3, 2)
    tup = one_periodic_unit_tuple(ring)
    steps = filtration_steps_from_flag(tup, ring)
    step = w2_flow_step(tup, steps)
    assert step.flat.A[0] == mat(ring, [[0, {2: 1}], [0, {-1: 3}]])
    assert step.theta_next == (mat(ring, [[{2: 1}]]),)
    assert step.periodic
    assert step.psi == (mat(ring, [[1]]), mat(ring, [[{2: 1}]]))
    assert step.certificates["baseline"] == "canonical"
    assert step.certificates["psi_grade0_identity"]
    # the next Higgs block is the derivative quotient times the pulled-back one
    lift = FrobeniusLifting.standard(AffineLine(ring))
    u = lift.derivative_quotient(0, ring)
    pulled = tup.theta[0].substitute(lift.frobenius_image(0, ring)).scale(u)
    assert step.theta_next[0] == pulled


def framed_unit_tuple():
    """Weight-one input over Z/9 whose de Rham side is the canonical matrix
    moved by a stored Frobenius frame."""
    ring = Zmod(3, 2)
    down = Zmod(3, 1)
    theta = (mat(ring, [[1]]),)
    abar = mat(down, [[0, 1], [0, {-1: 1}]])
    psibar = (mat(down, [[1]]), mat(down, [[1]]))
    frame = mat(down, [[1, 0], [0, {-2: 1}]])
    return LiftingInputTuple(ring, (1, 1), theta, abar, psibar, frame)


def test_flow_step_framed_presentation():
    tup = framed_unit_tuple()
    ring = tup.ring
    steps = filtration_steps_from_flag(tup, ring)
    step = w2_flow_step(tup, steps)
    assert step.certificates["baseline"] == "framed"
    assert step.periodic
    assert step.psi == (mat(ring, [[1]]), mat(ring, [[{2: 1}]]))


def test_flow_step_rejects_bad_frame():
    ring = Zmod(3, 2)
    down = Zmod(3, 1)
    theta = (mat(ring, [[1]]),)
    abar = mat(down, [[0, 1], [0, {-1: 1}]])
    psibar = (mat(down, [[1]]), mat(down, [[1]]))
    frame = mat(down, [[1, 0], [0, {-4: 1}]])
    tup = LiftingInputTuple(ring, (1, 1), theta, abar, psibar, frame)
    steps = filtration_steps_from_flag(tup, ring)
    with pytest.raises(CertificateFailed) as err:
        w2_flow_step(tup, steps)
    assert err.value.part == "frame"


def test_flow_step_requires_liftable_filtration():
    ring = Zmod(3, 2)
    tup = one_periodic_unit_tuple(ring)
    bad = RingMatrix.zeros(ring, 2, 1)
    bad.rows[0][0] = LaurentPoly.one(ring)  # reduces onto grade 0, not the flag
    with pytest.raises(NoLiftedFiltration):
        w2_flow_step(tup, (bad,))


def test_flow_step_rejects_steps_that_do_not_complete_to_a_frame():
    ring = Zmod(5, 2)
    tup = weight_two_unit_tuple(ring)
    # step 1 swaps the last two flag vectors, so both steps lead with e_2:
    # each reduces onto the flag, yet together with e_0 they span a plane
    step1 = mat(ring, [[0, 0], [0, 1], [1, 0]])
    step2 = mat(ring, [[0], [0], [1]])
    with pytest.raises(NoLiftedFiltration, match="do not complete to a frame"):
        w2_flow_step(tup, (step1, step2))


def test_flow_step_weight_two_instance():
    ring = Zmod(5, 2)
    tup = weight_two_unit_tuple(ring)
    steps = filtration_steps_from_flag(tup, ring)
    step = w2_flow_step(tup, steps)
    assert step.flat.A[0] == mat(
        ring,
        [[0, {4: 1}, 0], [0, {-1: 5}, {4: 1}], [0, 0, {-1: 10}]],
    )
    assert step.theta_next == (mat(ring, [[{4: 1}]]), mat(ring, [[{4: 1}]]))
    assert step.periodic
    assert step.psi == (
        mat(ring, [[1]]),
        mat(ring, [[{4: 1}]]),
        mat(ring, [[{8: 1}]]),
    )


def test_filtration_lifts_unique_modulo_horizontal_transport_weight_one():
    ring = Zmod(3, 2)
    tup = one_periodic_unit_tuple(ring)
    flag = filtration_steps_from_flag(tup, ring)
    base = w2_flow_step(tup, flag)
    cands = filtration_lift_candidates(tup, (1, 2), (0,))
    accepted = [(entry, steps) for entry, steps, res in cands if res is not None]
    assert len(accepted) == 3  # the flag and both constant deformations
    for entry, steps in accepted[1:]:
        U = horizontal_transport(base.flat, flag[0], steps[0])
        assert U is not None
        assert not U.sub(RingMatrix.identity(ring, 2)).is_zero()


def test_filtration_lift_pinned_in_weight_two():
    ring = Zmod(5, 2)
    tup = weight_two_unit_tuple(ring)
    flag = filtration_steps_from_flag(tup, ring)
    base = w2_flow_step(tup, flag)
    cands = filtration_lift_candidates(tup, (1,), (0,))
    for entry, steps, res in cands:
        if not entry:
            assert res is not None
            continue
        ((d, i, c, e),) = entry
        if d == 2 and i == 1:
            # middle coefficient is pinned by one-step transversality
            assert res is None
        elif d == 2 and i == 0:
            assert res is not None
            stacked_a = flag[0].hstack(flag[1])
            stacked_b = steps[0].hstack(steps[1])
            U = horizontal_transport(base.flat, stacked_a, stacked_b)
            assert U is not None
        elif d == 1:
            # deforming the middle step alone breaks one-step transversality
            assert res is None


def test_fn_apply_rejects_wrong_precision_lifting():
    rng = random.Random(61)
    ring = Zmod(3, 2)
    tup = random_input_tuple(rng, ring, (1, 1))
    tw = sharp_construct(tup)
    with pytest.raises(WrongModulus):
        fn_apply(tw, FrobeniusLifting.standard(AffineLine(Zmod(3, 1))))

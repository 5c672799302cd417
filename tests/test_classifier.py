import random
from fractions import Fraction as F

import numpy as np
import pytest

from macdyn import classifier as cl
from macdyn.arrays import free_indices
from macdyn.classifier import (
    F_quant,
    SliceContext,
    S_quant,
    T_quant,
    check_system,
    decompose,
    f_quant,
    fundamental,
    fundamental_kinds,
    iter_slices,
    left_pull,
    mix,
    pb,
    positivity_scan,
    recombine,
    right_push,
    rsk,
    solve_r,
)
from macdyn.errors import Infeasible, InvalidInput, UnsupportedBasis
from macdyn.macdonald import MacParams, branch_psi, psi_prime_one_box

from helpers import reference_positivity_scan, reference_S_general, reference_T_general

QT = MacParams(F(1, 2), F(1, 3))
QW = MacParams(F(1, 2), 0)
SCH = MacParams(0, 0)


def random_slice(rnd, kmin=1, kmax=5, coord=8, params=QT, need_kappa=None):
    while True:
        k = rnd.randint(kmin, kmax)
        lam = tuple(sorted((rnd.randint(-coord, coord) for _ in range(k)), reverse=True))
        nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
        ctx = SliceContext(nb, lam, params)
        if need_kappa is None or ctx.kappa >= need_kappa:
            return ctx


def T_psi_ratio(ctx, i):
    """Independent definition of T_i through the branching coefficients."""
    nb, lam, p = ctx.nu_bar, ctx.lam, ctx.params
    if i == ctx.k:
        return 0
    floor = nb[i] if i < len(nb) else None
    if floor is not None and nb[i - 1] - 1 < floor:
        return 0
    lower = nb[:i - 1] + (nb[i - 1] - 1,) + nb[i:]
    return (
        branch_psi(lower, lam, p)
        * psi_prime_one_box(lower, i, p)
        / branch_psi(nb, lam, p)
    )


def S_psi_ratio(ctx, j):
    nb, lam, p = ctx.nu_bar, ctx.lam, ctx.params
    if j > 1 and lam[j - 1] >= lam[j - 2]:
        return 0
    up = lam[:j - 1] + (lam[j - 1] + 1,) + lam[j:]
    return branch_psi(nb, up, p) * psi_prime_one_box(lam, j, p) / branch_psi(nb, lam, p)


class TestQuantities:
    def test_whittaker_worked_values(self):
        ctx = SliceContext((1,), (3, 0), QW)
        assert T_quant(ctx, 1) == F(4, 7)
        assert S_quant(ctx, 1) == F(15, 14)
        assert S_quant(ctx, 2) == F(1, 2)

    def test_schur_indicators(self):
        ctx = SliceContext((1,), (3, 0), SCH)
        assert T_quant(ctx, 1) == 1
        assert S_quant(ctx, 1) == 1 and S_quant(ctx, 2) == 1
        blocked = SliceContext((2,), (3, 2), SCH)
        assert S_quant(blocked, 2) == 0 and T_quant(blocked, 1) == 0

    def test_level_one(self):
        ctx = SliceContext((), (9,), QT)
        assert S_quant(ctx, 1) == 1
        assert T_quant(ctx, 1) == 0  # T_k vanishes by agreement

    def test_matches_psi_ratio_all_modes(self):
        rnd = random.Random(11)
        for params in (QT, QW, MacParams(F(1, 2), F(1, 2)), MacParams(F(2, 3), F(1, 5))):
            for _ in range(40):
                ctx = random_slice(rnd, coord=6, params=params)
                for i in range(1, ctx.k + 1):
                    assert T_quant(ctx, i) == T_psi_ratio(ctx, i), (ctx, i)
                    assert S_quant(ctx, i) == S_psi_ratio(ctx, i), (ctx, i)

    def test_zero_dichotomy(self):
        # S_j and T_{j-1} vanish exactly off the free set
        rnd = random.Random(5)
        for _ in range(40):
            ctx = random_slice(rnd, kmin=2)
            free = set(ctx.free)
            for j in range(1, ctx.k + 1):
                assert (S_quant(ctx, j) != 0) == (j in free)
                if j >= 2:
                    assert (T_quant(ctx, j - 1) != 0) == (j in free)

    def test_balance_identity(self):
        rnd = random.Random(6)
        for params in (QT, QW, MacParams(F(1, 2), F(1, 2))):
            for _ in range(60):
                ctx = random_slice(rnd, coord=12, params=params)
                lhs = 1 + sum(T_quant(ctx, j) for j in ctx.pushers)
                assert lhs == sum(S_quant(ctx, m) for m in ctx.free)

    def test_general_formula_t_to_zero_limit(self):
        rnd = random.Random(7)
        limit = MacParams(0.61, 1e-18)  # general branch, numerically at t -> 0
        exact = MacParams(F(61, 100), 0)
        for _ in range(40):
            k = rnd.randint(1, 5)
            lam = tuple(sorted((rnd.randint(0, 10) for _ in range(k)), reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            cg = SliceContext(nb, lam, limit)
            c0 = SliceContext(nb, lam, exact)
            for i in range(1, k + 1):
                assert float(T_quant(cg, i)) == pytest.approx(float(T_quant(c0, i)), abs=1e-12)
                assert float(S_quant(cg, i)) == pytest.approx(float(S_quant(c0, i)), abs=1e-12)


# Schur, q-Whittaker and general points, exact and float, with the
# coincidence t = q**2 among the general ones
TUPLE_POINTS = [
    (F(0), F(0)), (F(1, 3), F(1, 3)), (F(1, 2), F(0)), (F(1, 2), F(1, 3)), (F(1, 3), F(1, 9)),
    (0.0, 0.0), (0.5, 0.0), (0.5, 0.3), (0.25, 0.75),
]


def _bits(value):
    return type(value), (value.hex() if isinstance(value, float) else value)


class TestSliceTuples:
    @pytest.mark.parametrize("point", TUPLE_POINTS, ids=str)
    def test_tuples_match_per_index_quantities(self, point):
        params = MacParams(*point)
        for k in range(1, 6):
            for nb, lam in iter_slices(k, 3):
                ctx = SliceContext(nb, lam, params)
                assert [_bits(v) for v in ctx.S] == [
                    _bits(S_quant(ctx, j)) for j in range(1, k + 1)]
                assert [_bits(v) for v in ctx.T] == [
                    _bits(T_quant(ctx, i)) for i in range(1, k + 1)]

    @pytest.mark.parametrize("point", TUPLE_POINTS, ids=str)
    def test_rsk_prefix_sums_match_quadratic_sums(self, point):
        # r_j of rsk(h) as the per-index sums it was first written with
        params = MacParams(*point)
        for k in range(2, 6):
            for nb, lam in iter_slices(k, 3):
                ctx = SliceContext(nb, lam, params)
                one = params.one()
                for h in range(1, k + 1):
                    sol = fundamental(rsk(h), ctx)
                    for j in ctx.pushers:
                        sums = sum(S_quant(ctx, i) for i in range(1, j + 1))
                        sums -= sum(T_quant(ctx, i) for i in range(1, j))
                        sums -= one if h <= j else 0 * one
                        assert _bits(sol.r[j]) == _bits(sums / T_quant(ctx, j))


class TestSliceContextChecks:
    """The one-pass row check and the step-by-step checks it falls back to."""

    @pytest.mark.parametrize("nb, lam, exc, message", [
        ((1, 2), (3, 2, 0), InvalidInput, "not weakly decreasing: (1, 2)"),
        ((2, 1), (1, 3, 0), InvalidInput, "not weakly decreasing: (1, 3, 0)"),
        ((3, 1), (2, 1, 0), InvalidInput, "rows do not interlace: (3, 1) vs (2, 1, 0)"),
        ((2, 0), (3, 1, 1), InvalidInput, "rows do not interlace: (2, 0) vs (3, 1, 1)"),
        ((2,), (3, 2, 0), InvalidInput, "length mismatch: |mu|=1, |lambda|=3"),
        ((2, 1, 0), (3, 2), InvalidInput, "length mismatch: |mu|=3, |lambda|=2"),
        ((), (), InvalidInput, "length mismatch: |mu|=0, |lambda|=0"),
        (("a",), (1, 0), ValueError, "invalid literal for int() with base 10: 'a'"),
        ((2, 1), (3, 2, "x"), ValueError, "invalid literal for int() with base 10: 'x'"),
        ((float("nan"),), (1, 0), ValueError, "cannot convert float NaN to integer"),
        ((None,), (1, 0), TypeError, None),  # the message int(None) gives
    ], ids=repr)
    def test_refusals_keep_their_class_and_message(self, nb, lam, exc, message):
        if message is None:
            with pytest.raises(TypeError) as want:
                int(None)
            message = str(want.value)
        with pytest.raises(exc) as info:
            SliceContext(nb, lam, QT)
        assert type(info.value) is exc and str(info.value) == message

    @pytest.mark.parametrize("nb, lam, rows", [
        ((1.5,), (2, 0), ((1,), (2, 0))),
        ([1], [2, 0], ((1,), (2, 0))),
        ((True,), (1, 0), ((1,), (1, 0))),
        ((np.int64(3), 1), (4, np.int64(2), 0), ((3, 1), (4, 2, 0))),
    ], ids=repr)
    def test_other_rows_are_converted_to_int_tuples(self, nb, lam, rows):
        ctx = SliceContext(nb, lam, QT)
        assert (ctx.nu_bar, ctx.lam) == rows
        assert all(type(c) is int for c in ctx.nu_bar + ctx.lam)
        assert ctx.free == free_indices(*rows)

    def test_free_indices_and_pushers_match_the_array_helpers(self):
        for k in range(1, 6):
            for nb, lam in iter_slices(k, 4):
                ctx = SliceContext(nb, lam, QT)
                assert ctx.free == free_indices(nb, lam)
                assert ctx.pushers == tuple(m - 1 for m in ctx.free if m >= 2)


def _outcome(fn, *args):
    """The value with its type, floats by their bits, or the exception type."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc).__name__


def _tuple_outcome(fn, indices, k, zero):
    """fn at indices and zero elsewhere, as `SliceContext` S and T hold them,
    or the type of the first exception in index order."""
    out = [zero] * k
    for i in indices:
        try:
            out[i - 1] = fn(i)
        except Exception as exc:  # the exception type is part of the outcome
            return type(exc).__name__
    return [_bits(v) for v in out]


def _attribute_outcome(ctx, name):
    try:
        return [_bits(v) for v in getattr(ctx, name)]
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc).__name__


# general points, float and exact: q = t^2 makes factors cancel or vanish, and
# q = 0.0 raises negative powers of 0.0
KERNEL_TWIN_POINTS = [(0.5, 0.3), (0.25, 0.5), (0.0, 0.3), (F(1, 2), F(1, 3)), (F(1, 3), F(1, 9))]


class TestGeneralKernelTwin:
    @pytest.mark.parametrize("point", KERNEL_TWIN_POINTS, ids=str)
    def test_matches_the_factor_list_twin(self, point):
        params = MacParams(*point)
        rnd = random.Random(str(point))
        for k in range(2, 8):
            for _ in range(25 if params.is_exact else 100):
                lam = tuple(sorted((rnd.randint(0, 12) for _ in range(k)), reverse=True))
                nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
                ctx = SliceContext(nb, lam, params)
                for j in range(1, k + 1):
                    assert _outcome(S_quant, ctx, j) == _outcome(
                        reference_S_general, nb, lam, j, *point), (nb, lam, j)
                for i in range(1, k):
                    assert _outcome(T_quant, ctx, i) == _outcome(
                        reference_T_general, nb, lam, i, *point), (nb, lam, i)
                zero = 0 * params.one()
                assert _attribute_outcome(ctx, "S") == _tuple_outcome(
                    lambda j: reference_S_general(nb, lam, j, *point), ctx.free, k, zero)
                assert _attribute_outcome(ctx, "T") == _tuple_outcome(
                    lambda i: reference_T_general(nb, lam, i, *point), ctx.pushers, k, zero)
        if params.is_exact:
            assert params.factors is None
        else:
            assert 0 < len(params.factors) <= 1 << 15


class TestFQuantities:
    def test_boundary_rows(self):
        ctx = SliceContext((2, 1), (3, 2, 0), QW)
        assert F_quant(ctx, 1) == 0
        assert F_quant(ctx, ctx.k + 1) == 1

    def test_blocked_values(self):
        ctx = SliceContext((2,), (3, 2), QW)
        assert F_quant(ctx, 2) == 1
        assert f_quant(ctx, 2) == 0

    def test_stff(self):
        rnd = random.Random(8)
        for _ in range(60):
            ctx = random_slice(rnd, coord=10, params=QW)
            for j in range(1, ctx.k + 1):
                assert S_quant(ctx, j) - T_quant(ctx, j) == F_quant(ctx, j + 1) - F_quant(ctx, j)

    def test_rejects_general_t(self):
        ctx = SliceContext((1,), (2, 0), QT)
        with pytest.raises(InvalidInput):
            F_quant(ctx, 1)
        with pytest.raises(InvalidInput):
            f_quant(ctx, 1)


class TestSolveR:
    def test_push_block(self):
        rnd = random.Random(9)
        for _ in range(20):
            ctx = random_slice(rnd, kmin=2)
            sol = fundamental(pb(), ctx)
            again = solve_r(ctx, sol.w, sol.c)
            assert all(v == 0 for v in again.r.values())

    def test_rsk_closed_form(self):
        rnd = random.Random(10)
        for _ in range(20):
            ctx = random_slice(rnd, kmin=2)
            for h in ctx.free:
                sol = fundamental(rsk(h), ctx)
                again = solve_r(ctx, sol.w, sol.c)
                assert again.r == sol.r
                for j in ctx.pushers:
                    expect = sum(S_quant(ctx, i) for i in range(1, j + 1))
                    expect -= sum(T_quant(ctx, i) for i in range(1, j))
                    expect -= 1 if h <= j else 0
                    assert sol.r[j] == expect / T_quant(ctx, j)

    def test_single_free_index_forces_unit_rate(self):
        ctx = SliceContext((2, 2), (2, 2, 2), QT)
        assert ctx.kappa == 1
        sol = solve_r(ctx, {1: F(1)}, {})
        assert sol.w == {1: 1} and not sol.r
        with pytest.raises(Infeasible):
            solve_r(ctx, {1: F(2)}, {})

    def test_constraint_violation(self):
        rnd = random.Random(12)
        ctx = random_slice(rnd, kmin=3, need_kappa=3)
        sol = fundamental(pb(), ctx)
        bad = dict(sol.w)
        first = ctx.free[0]
        bad[first] = bad[first] + 1
        with pytest.raises(Infeasible):
            solve_r(ctx, bad, sol.c)


class TestFundamental:
    def test_all_kinds_satisfy_system(self):
        rnd = random.Random(13)
        for params in (QT, QW, SCH):
            for _ in range(50):
                ctx = random_slice(rnd, kmin=2, params=params)
                kinds = [pb()]
                kinds += [rsk(h) for h in range(1, ctx.k + 1)]
                kinds += [right_push(h) for h in range(1, ctx.k)]
                kinds += [left_pull(h) for h in range(1, ctx.k)]
                for kind in kinds:
                    ok, residuals = check_system(ctx, fundamental(kind, ctx))
                    assert ok, (str(kind), ctx.nu_bar, ctx.lam, residuals)

    def test_right_push_rate_formulas(self):
        rnd = random.Random(14)
        for _ in range(30):
            ctx = random_slice(rnd, kmin=2)
            for h in range(1, ctx.k):
                sol = fundamental(right_push(h), ctx)
                for m in ctx.free:
                    expect = S_quant(ctx, m)
                    if h in ctx.pushers and ctx.xi(h) == m:
                        expect -= T_quant(ctx, h)
                    assert sol.w[m] == expect
                solL = fundamental(left_pull(h), ctx)
                for m in ctx.free:
                    expect = S_quant(ctx, m)
                    if h in ctx.pushers and m == h + 1:
                        expect -= T_quant(ctx, h)
                    assert solL.w[m] == expect

    def test_degenerate_index_reduces_to_push_block(self):
        # R(h)/L(h) with h+1 blocked have T_h = 0: no push or pull at all
        ctx = SliceContext((2,), (3, 2), QT)  # index 2 blocked
        assert fundamental(right_push(1), ctx).as_rows() == fundamental(pb(), ctx).as_rows()
        assert fundamental(left_pull(1), ctx).as_rows() == fundamental(pb(), ctx).as_rows()

    def test_perturbed_solution_fails(self):
        ctx = SliceContext((1,), (3, 0), QW)
        sol = fundamental(pb(), ctx)
        sol.w[1] = sol.w[1] + 1
        ok, residuals = check_system(ctx, sol)
        assert not ok and residuals[0] == 1


class TestDecompose:
    @staticmethod
    def random_thetas(rnd, kinds):
        vals = [F(rnd.randint(0, 6), rnd.randint(1, 4)) for _ in kinds]
        total = sum(vals) or F(1)
        if sum(vals) == 0:
            vals[0] = F(1)
        return {kind: v / total for kind, v in zip(kinds, vals)}

    def basis_kinds(self, basis, ctx):
        if basis == "rsk-r":
            return [rsk(h) for h in ctx.free] + [right_push(j) for j in ctx.pushers]
        if basis == "rsk-l":
            return [rsk(h) for h in ctx.free] + [left_pull(j) for j in ctx.pushers]
        if basis == "r-l-pb":
            return [pb()] + [right_push(j) for j in ctx.pushers] + [
                left_pull(j) for j in ctx.pushers
            ]
        return [pb()] + [rsk(h) for h in ctx.free]

    @pytest.mark.parametrize("basis,kappa", [("rsk-r", 3), ("rsk-l", 3), ("r-l-pb", 1), ("const-c", 2)])
    def test_round_trip(self, basis, kappa):
        rnd = random.Random(hash(basis) & 0xFFFF)
        for _ in range(25):
            ctx = random_slice(rnd, kmin=max(2, kappa), need_kappa=kappa)
            thetas = self.random_thetas(rnd, self.basis_kinds(basis, ctx))
            sol = recombine(ctx, thetas)
            assert check_system(ctx, sol)[0]
            back = decompose(ctx, sol, basis)
            keys = set(thetas) | set(back)
            assert all(thetas.get(k, F(0)) == back.get(k, F(0)) for k in keys)
            assert recombine(ctx, back).as_rows() == sol.as_rows()

    def test_push_block_in_const_c(self):
        rnd = random.Random(15)
        ctx = random_slice(rnd, kmin=2, need_kappa=2)
        thetas = decompose(ctx, fundamental(pb(), ctx), "const-c")
        assert thetas[pb()] == 1
        assert all(v == 0 for kind, v in thetas.items() if kind != pb())

    def test_rsk_in_const_c(self):
        rnd = random.Random(16)
        ctx = random_slice(rnd, kmin=2, need_kappa=2)
        h = ctx.free[-1]
        thetas = decompose(ctx, fundamental(rsk(h), ctx), "const-c")
        assert thetas[pb()] == 0
        assert thetas[rsk(h)] == 1

    def test_unsupported_level_two(self):
        ctx = SliceContext((1,), (2, 0), QT)
        with pytest.raises(UnsupportedBasis):
            decompose(ctx, fundamental(pb(), ctx), "rsk-r")

    def test_const_c_needs_constant_c(self):
        rnd = random.Random(17)
        ctx = random_slice(rnd, kmin=3, need_kappa=3)
        j2, j3 = ctx.pushers[0], ctx.pushers[1]
        sol = mix(
            [fundamental(right_push(j2), ctx), fundamental(pb(), ctx)], [F(1, 2), F(1, 2)]
        )
        with pytest.raises(Infeasible):
            decompose(ctx, sol, "const-c")

    def test_bad_basis_name(self):
        ctx = SliceContext((1,), (2, 0), QT)
        with pytest.raises(InvalidInput):
            decompose(ctx, fundamental(pb(), ctx), "nope")


class TestMix:
    def test_identity_mix(self):
        ctx = SliceContext((1,), (3, 0), QT)
        sol = fundamental(pb(), ctx)
        assert mix([sol], [F(1)]).as_rows() == sol.as_rows()

    def test_affine_weights_allowed(self):
        rnd = random.Random(18)
        ctx = random_slice(rnd, kmin=3, need_kappa=3)
        m = mix([fundamental(rsk(1), ctx), fundamental(rsk(ctx.free[1]), ctx)], [F(2), F(-1)])
        assert check_system(ctx, m)[0]

    def test_rsk_half_half_has_unit_propagation(self):
        rnd = random.Random(19)
        ctx = random_slice(rnd, kmin=3, need_kappa=3)
        h1, h2 = ctx.free[0], ctx.free[1]
        m = mix([fundamental(rsk(h1), ctx), fundamental(rsk(h2), ctx)], [F(1, 2), F(1, 2)])
        assert check_system(ctx, m)[0]
        assert all(c == 1 for c in m.c.values())

    def test_weight_sum_enforced(self):
        ctx = SliceContext((1,), (3, 0), QT)
        with pytest.raises(Infeasible):
            mix([fundamental(pb(), ctx), fundamental(rsk(1), ctx)], [F(1, 2), F(1, 4)])


class TestPositivityScan:
    def test_whittaker_small_range(self):
        report = positivity_scan(QW, 3, 6)
        clean = {name for name, _ in report.clean_kinds()}
        assert clean == {"pb", "rsk(1)", "r(1)"}
        # left-pulling witnesses exhibit a negative jump rate at index h+1
        wit = report.results[("l(1)", 2)]
        assert wit is not None
        assert any(entry[0] == "w" and entry[1] == 2 for entry in wit["violations"])

    def test_schur_clean_up_to_level_five(self):
        report = positivity_scan(MacParams(F(1, 2), F(1, 2)), 5, 5)
        assert not report.violating_kinds()

    def test_pb_always_clean(self):
        report = positivity_scan(QT, 3, 5, families=("pb",))
        assert not report.violating_kinds()

    @pytest.mark.parametrize("point", [(F(1, 2), F(1, 2)), (0.3, 0.3), (F(1, 2), F(0))], ids=str)
    def test_matches_the_unskipped_twin(self, point):
        params = MacParams(*point)
        assert positivity_scan(params, 4, 4).results == (
            reference_positivity_scan(params, 4, 4).results)

    def test_schur_scan_solves_the_first_slice_of_each_free_set(self, monkeypatch):
        solved = []
        real = cl.fundamental

        def spy(kind, ctx):
            if not solved or solved[-1] != (ctx.nu_bar, ctx.lam):
                solved.append((ctx.nu_bar, ctx.lam))
            return real(kind, ctx)

        monkeypatch.setattr(cl, "fundamental", spy)
        positivity_scan(MacParams(F(1, 2), F(1, 2)), 4, 4)
        want, firsts = [], set()
        for k in range(2, 5):
            for nb, lam in iter_slices(k, 4):
                level_free = (k, free_indices(nb, lam))
                if level_free not in firsts:
                    firsts.add(level_free)
                    want.append((nb, lam))
        assert solved == want

    def test_schur_solutions_depend_on_the_free_set_alone(self):
        # the premise of skipping repeated free sets in Schur mode
        params = MacParams(F(1, 3), F(1, 3))
        for k in range(2, 5):
            by_free = {}
            for nb, lam in iter_slices(k, 4):
                ctx = SliceContext(nb, lam, params)
                rows = [fundamental(kind, ctx).as_rows() for kind in fundamental_kinds(k)]
                assert by_free.setdefault(ctx.free, rows) == rows


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def slices(draw):
    k = draw(st.integers(1, 5))
    lam = tuple(sorted(draw(st.lists(st.integers(-12, 12), min_size=k, max_size=k)), reverse=True))
    nb = tuple(draw(st.integers(lam[j + 1], lam[j])) for j in range(k - 1))
    return nb, lam


class TestBalanceProperty:
    @settings(max_examples=60, deadline=None)
    @given(slices(), st.sampled_from([(F(1, 2), F(1, 3)), (F(1, 2), F(0)), (F(2, 3), F(2, 3))]))
    def test_one_plus_T_equals_S(self, slc, point):
        nb, lam = slc
        ctx = SliceContext(nb, lam, MacParams(*point))
        assert 1 + sum(T_quant(ctx, j) for j in ctx.pushers) == sum(
            S_quant(ctx, m) for m in ctx.free
        )

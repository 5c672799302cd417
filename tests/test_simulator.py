import gc
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from macdyn.arrays import InterlacingArray
from macdyn.classifier import SliceContext, check_system, iter_slices, mix
from macdyn.errors import Infeasible, InvalidInput, InvariantViolation
from macdyn.insertions import h_insert_trace
from macdyn.macdonald import MacParams
from macdyn.simulator import (
    DynamicsSpec,
    Event,
    QPushTasep,
    QTasep,
    _check_interlacing,
    _slice_data,
    jump_rates,
    leftmost_coordinates,
    propagate,
    rightmost_coordinates,
    run_ensemble,
    simulate,
    slice_solution,
    trajectory_rng,
    trajectory_rngs,
)

from helpers import insertion_push_probabilities, insertion_push_target

SCHUR = MacParams(0.0, 0.0)
QW = MacParams(0.5, 0.0)


class _ScriptedRng:
    """Deterministic stand-in for a Generator: pops scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def exponential(self, scale):
        return scale


class TestSpecValidation:
    def test_wrong_h_length(self):
        with pytest.raises(InvalidInput):
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="rsk", h=(1,))
        with pytest.raises(InvalidInput):
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="r", h=(1, 1))

    def test_unknown_recipe(self):
        with pytest.raises(InvalidInput):
            DynamicsSpec(params=SCHUR, a=(1.0,), depth=1, recipe="zigzag")

    def test_h_range(self):
        with pytest.raises(InvalidInput):
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="rsk", h=(2, 1))

    @pytest.mark.parametrize("drift", [math.inf, math.nan, 0.0])
    def test_drifts_positive_and_finite(self, drift):
        with pytest.raises(InvalidInput, match="drift"):
            DynamicsSpec(params=SCHUR, a=(drift, 1.0), depth=2, recipe="pb")

    @pytest.mark.parametrize("depth", [0, -1, 2.0, "2"])
    def test_depth_is_a_positive_integer(self, depth):
        # depth 0 with no drifts used to run on an empty array
        with pytest.raises(InvalidInput, match="depth must be an integer >= 1"):
            DynamicsSpec(params=SCHUR, a=(), depth=depth, recipe="pb")

    @pytest.mark.parametrize("given", ["components", "weights", "both"])
    def test_components_and_weights_only_for_mixing(self, given):
        # they used to be accepted and ignored
        pb = DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="pb")
        extra = {"components": (pb,), "weights": (1.0,)}
        if given != "both":
            extra = {given: extra[given]}
        for recipe, h in (("pb", None), ("rsk", (1, 1)), ("oconnell-pei", None)):
            with pytest.raises(InvalidInput, match="takes no components or weights"):
                DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe=recipe, h=h, **extra)

    @pytest.mark.parametrize("weights", [(1.0,), (0.5, 0.25, 0.25), None, 1.0])
    def test_one_constant_weight_per_component(self, weights):
        # a wrong count used to raise only at the first slice of a run
        comps = (
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="pb"),
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="rsk", h=(1, 1)),
        )
        with pytest.raises(InvalidInput, match="one weight per component"):
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="mixing",
                         components=comps, weights=weights)


class TestRatesAndPropagation:
    def test_pb_schur_rates(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0, 2.0), depth=2, recipe="pb")
        rows = [[1], [2, 1]]  # index 2 blocked by the lower particle
        rates = dict(jump_rates(spec, rows, 2))
        assert rates == {1: 2.0}
        rows = [[1], [3, 0]]
        rates = dict(jump_rates(spec, rows, 2))
        assert rates == {1: 2.0, 2: 2.0}

    def test_qrow_rates_only_first_index(self):
        spec = DynamicsSpec(params=QW, a=(1.0, 1.5, 2.0), depth=3, recipe="qrow")
        rows = [[2], [3, 1], [4, 2, 0]]
        for k in (2, 3):
            rates = jump_rates(spec, rows, k)
            assert [m for m, _ in rates] == [1]
            assert rates[0][1] == pytest.approx(float(spec.a[k - 1]))

    def test_qrow_push_probability_matches_paper_formula(self):
        # r_j for the row-insertion dynamics at t=0, expressed through the
        # pre-move coordinates of the lower row
        rnd = random.Random(0)
        q = 0.5
        spec = DynamicsSpec(params=QW, a=(1.0,) * 4, depth=4, recipe="qrow")
        for _ in range(60):
            k = rnd.randint(2, 4)
            lam = tuple(sorted((rnd.randint(0, 8) for _ in range(k)), reverse=True))
            prev_low = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            for j in range(1, k):
                moved = list(prev_low)
                moved[j - 1] += 1
                nu_bar = tuple(moved)
                if any(nu_bar[i] < nu_bar[i + 1] for i in range(k - 2)):
                    continue
                if nu_bar[j - 1] > lam[j - 1]:
                    continue  # short-range case, not governed by r
                sol = slice_solution(spec, k, nu_bar, lam)
                if j == 1:
                    expect = q ** (lam[0] - prev_low[0])
                else:
                    expect = (
                        q ** (lam[j - 1] - prev_low[j - 1])
                        * (1 - q ** (prev_low[j - 2] - lam[j - 1]))
                        / (1 - q ** (prev_low[j - 2] - prev_low[j - 1]))
                    )
                assert float(sol.r[j]) == pytest.approx(expect), (nu_bar, lam, j)

    def test_short_range_push_is_forced(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="pb")
        # lower particle moved 2 -> 3 onto the upper particle's column
        rows = [[3], [2, 0]]
        target, cause = propagate(spec, rows, 2, 1, 2, _ScriptedRng([0.99]))
        assert (target, cause) == (1, "short_push")

    def test_pb_never_propagates_otherwise(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="pb")
        rows = [[2], [4, 0]]
        assert propagate(spec, rows, 2, 1, 1, _ScriptedRng([0.0])) is None

    def test_oc_nn_solutions_satisfy_system(self):
        rnd = random.Random(1)
        spec = DynamicsSpec(params=MacParams(F(1, 2), 0), a=(1.0,) * 5, depth=5, recipe="oconnell-pei-nn")
        for _ in range(40):
            k = rnd.randint(2, 5)
            lam = tuple(sorted((rnd.randint(0, 8) for _ in range(k)), reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            sol = slice_solution(spec, k, nb, lam)
            ctx = SliceContext(nb, lam, spec.params)
            ok, res = check_system(ctx, sol)
            assert ok, (nb, lam, res)
            assert sol.is_honest(tol=0)

    def test_det_insertion_solutions_satisfy_system(self):
        rnd = random.Random(2)
        for h_at in (1, 2, 3):
            spec = DynamicsSpec(
                params=MacParams(F(1, 2), 0),
                a=(1.0,) * 3,
                depth=3,
                recipe="det-insertion",
                h=(1, min(h_at, 2), h_at),
            )
            for _ in range(25):
                k = 3
                lam = tuple(sorted((rnd.randint(0, 6) for _ in range(k)), reverse=True))
                nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
                sol = slice_solution(spec, k, nb, lam)
                ctx = SliceContext(nb, lam, spec.params)
                assert check_system(ctx, sol)[0]
                assert all(c == 1 for c in sol.c.values())

    def test_mixing_of_fundamentals(self):
        comps = (
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0, 1.0), depth=3, recipe="pb"),
            DynamicsSpec(params=SCHUR, a=(1.0, 1.0, 1.0), depth=3, recipe="rsk", h=(1, 1, 1)),
        )
        spec = DynamicsSpec(
            params=SCHUR,
            a=(1.0, 1.0, 1.0),
            depth=3,
            recipe="mixing",
            components=comps,
            weights=(0.25, 0.75),
        )
        sol = slice_solution(spec, 3, (2, 1), (3, 2, 0))
        ctx = SliceContext((2, 1), (3, 2, 0), SCHUR)
        assert check_system(ctx, sol, tol=1e-12)[0]
        assert all(c == pytest.approx(0.75) for c in sol.c.values())
        final, events = simulate(spec, 0.7, seed=5)
        assert final.depth == 3

    def test_mixing_builds_one_context_per_slice(self, monkeypatch):
        import macdyn.simulator as sim

        a = (1.0, 0.8, 1.2)
        comps = tuple(
            DynamicsSpec(params=QW, a=a, depth=3, recipe=recipe, h=h)
            for recipe, h in (("pb", None), ("rsk", (1, 2, 1)), ("qrow", None))
        )
        spec = DynamicsSpec(params=QW, a=a, depth=3, recipe="mixing", components=comps,
                            weights=(0.5, 0.25, 0.25))
        want = [slice_solution(comp, 3, (2, 1), (3, 2, 0)) for comp in comps]
        built = []

        def counted(*args):
            built.append(args)
            return SliceContext(*args)

        monkeypatch.setattr(sim, "SliceContext", counted)
        sol = slice_solution(spec, 3, (2, 1), (3, 2, 0))
        assert len(built) == 1
        assert sol == mix(want, [0.5, 0.25, 0.25])


class TestSimulate:
    def test_tau_zero(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0,), depth=1, recipe="pb")
        final, events = simulate(spec, 0.0, seed=1)
        assert final == InterlacingArray.zeros(1) and events == []

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
    def test_tau_finite_and_nonnegative(self, tau):
        spec = DynamicsSpec(params=SCHUR, a=(1.0, 1.0), depth=2, recipe="pb")
        # a generator that cannot draw: were tau let through, the event loop
        # would fail on its first draw instead of running forever
        with pytest.raises(InvalidInput, match="tau"):
            simulate(spec, tau, rng=_ScriptedRng([]))

    def test_reproducible(self):
        spec = DynamicsSpec(params=QW, a=(1.0, 1.0, 1.0), depth=3, recipe="pb")
        a1 = simulate(spec, 1.5, seed=42)
        a2 = simulate(spec, 1.5, seed=42)
        assert a1[0] == a2[0]
        assert [e.time for e in a1[1]] == [e.time for e in a2[1]]
        assert [e.cascade for e in a1[1]] == [e.cascade for e in a2[1]]

    def test_poisson_single_particle(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0,), depth=1, recipe="pb")
        n = 20000
        counts = Counter(run_ensemble(spec, 1.0, n, seed=7, collect=lambda a: a.top[0]))
        stat = 0.0
        cells = 0
        for k in range(7):
            p = math.exp(-1) / math.factorial(k)
            if n * p < 5:
                break
            stat += (counts[k] - n * p) ** 2 / (n * p)
            cells += 1
        assert chi2.sf(stat, cells - 1) > 0.001

    def test_event_log_structure(self):
        for recipe, h in (("pb", None), ("rsk", (1, 2, 3)), ("r", (1, 2)), ("l", (1, 1))):
            spec = DynamicsSpec(params=SCHUR, a=(1.0,) * 3, depth=3, recipe=recipe, h=h)
            final, events = simulate(spec, 1.0, seed=11)
            replay = [list(r) for r in InterlacingArray.zeros(3).levels]
            for ev in events:
                levels = [lvl for lvl, _, _ in ev.cascade]
                assert levels == sorted(levels) and len(set(levels)) == len(levels)
                for lvl, idx, cause in ev.cascade:
                    replay[lvl - 1][idx - 1] += 1
                    assert cause in ("jump", "short_push", "long_push", "pull", "donated")
                assert ev.cascade[0][2] == "jump"
            assert tuple(tuple(r) for r in replay) == final.levels

    def test_rsk_cascades_reach_top(self):
        for h in itertools.product((1,), (1, 2), (1, 2, 3)):
            spec = DynamicsSpec(params=SCHUR, a=(1.0,) * 3, depth=3, recipe="rsk", h=h)
            _, events = simulate(spec, 2.0, seed=13)
            assert events
            for ev in events:
                assert ev.cascade[-1][0] == 3

    def test_rsk_cascades_match_deterministic_insertion(self):
        # in the Schur case the simulated cascade of RSK[h] started at level m
        # must replay the h-insertion of the letter m, cell for cell
        rnd = random.Random(14)
        for _ in range(150):
            n = rnd.randint(2, 4)
            h = tuple(rnd.randint(1, k) for k in range(1, n + 1))
            spec = DynamicsSpec(params=SCHUR, a=(1.0,) * n, depth=n, recipe="rsk", h=h)
            arr = InterlacingArray.zeros(n)
            for _ in range(rnd.randint(0, 8)):
                arr = h_insert_trace(arr, rnd.randint(1, n), h)[0]
            letter = rnd.randint(1, n)
            _, moves = h_insert_trace(arr, letter, h)
            rows = [list(r) for r in arr.levels]
            start_level, start_idx = moves[0]
            rates = dict(jump_rates(spec, rows, start_level))
            assert rates == {start_idx: 1.0}
            got = [(start_level, start_idx)]
            prev = rows[start_level - 1][start_idx - 1]
            rows[start_level - 1][start_idx - 1] += 1
            j = start_idx
            for lvl in range(start_level + 1, n + 1):
                res = propagate(spec, rows, lvl, j, prev, _ScriptedRng([0.5]))
                assert res is not None
                target, _ = res
                prev = rows[lvl - 1][target - 1]
                rows[lvl - 1][target - 1] += 1
                got.append((lvl, target))
                j = target
            assert got == moves, (arr, letter, h)

    @staticmethod
    def _replay_cascade(spec, rows, start_level, start_idx, n):
        got = [(start_level, start_idx)]
        prev = rows[start_level - 1][start_idx - 1]
        rows[start_level - 1][start_idx - 1] += 1
        j = start_idx
        for lvl in range(start_level + 1, n + 1):
            res = propagate(spec, rows, lvl, j, prev, _ScriptedRng([0.5]))
            assert res is not None
            target, _ = res
            prev = rows[lvl - 1][target - 1]
            rows[lvl - 1][target - 1] += 1
            got.append((lvl, target))
            j = target
        return got

    def test_randomized_insertion_matches_column_at_q_zero(self):
        # the randomized insertion dynamics degenerates to column insertion at
        # q = 0 on every state, blocked configurations included
        rnd = random.Random(15)
        n = 4
        col = tuple(range(1, n + 1))
        spec = DynamicsSpec(params=MacParams(0.0, 0.0), a=(1.0,) * n, depth=n, recipe="oconnell-pei")
        for _ in range(80):
            arr = InterlacingArray.zeros(n)
            for _ in range(rnd.randint(0, 8)):
                arr = h_insert_trace(arr, rnd.randint(1, n), col)[0]
            letter = rnd.randint(1, n)
            _, moves = h_insert_trace(arr, letter, col)
            rows = [list(r) for r in arr.levels]
            start_level, start_idx = moves[0]
            rates = dict(jump_rates(spec, rows, start_level))
            assert rates == {start_idx: 1.0}, (arr.levels, letter, rates)
            assert self._replay_cascade(spec, rows, start_level, start_idx, n) == moves

    def test_nn_modification_matches_column_on_separated_states(self):
        # the nearest-neighbor modification agrees with column insertion at
        # q = 0 when particles are apart (on blocked configurations its jump
        # rates genuinely differ, compensating the cascades it may stop)
        rnd = random.Random(16)
        n = 4
        col = tuple(range(1, n + 1))
        spec = DynamicsSpec(params=MacParams(0.0, 0.0), a=(1.0,) * n, depth=n, recipe="oconnell-pei-nn")
        for _ in range(40):
            levels = []
            for k in range(1, n + 1):
                levels.append(
                    tuple(10 * (n - j) + 3 * k + rnd.randint(0, 1) for j in range(1, k + 1))
                )
            arr = InterlacingArray(tuple(levels))
            letter = rnd.randint(1, n)
            _, moves = h_insert_trace(arr, letter, col)
            rows = [list(r) for r in arr.levels]
            start_level, start_idx = moves[0]
            rates = dict(jump_rates(spec, rows, start_level))
            assert rates == {start_idx: 1.0}, (arr.levels, letter, rates)
            assert self._replay_cascade(spec, rows, start_level, start_idx, n) == moves

    def test_det_insertion_aborts_on_negative_rate(self):
        # h != (1,...,1) deterministic propagation is a formal 'dynamics' at
        # t = 0: some state exhibits a negative jump rate and the run aborts
        spec = DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="det-insertion", h=(1, 2, 3))
        with pytest.raises(InvariantViolation):
            for seed in range(200):
                simulate(spec, 2.0, seed=seed)


class TestParticleLines:
    def test_push_probabilities(self):
        line = QPushTasep(q=0.5, a=(1.0, 1.0))
        assert line.push_probability(1) == 1.0
        assert line.push_probability(3) == 0.25

    def test_blocked_qtasep_rate(self):
        line = QTasep(q=0.5, a=(1.0, 1.0), x=[0, -1])
        assert line.rates() == [1.0, 0.0]

    def test_push_block_degeneration_at_q_zero(self):
        # q = 0: a jump pushes exactly the adjacent block
        line = QPushTasep(q=0.0, a=(1.0, 1.0, 1.0, 1.0), x=[0, 1, 2, 5])
        moved = line._apply_move(_ScriptedRng([0.0, 0.9, 0.9, 0.9]))
        assert moved == [1, 2, 3]
        assert line.x == [1, 2, 3, 5]

    def test_qpush_cascade_probability(self):
        line = QPushTasep(q=0.5, a=(1.0, 1.0), x=[0, 3])
        moved = line._apply_move(_ScriptedRng([0.0, 0.2]))  # 0.2 < q^2 = 0.25: push
        assert moved == [1, 2]

    def test_ordering_preserved(self):
        rng = trajectory_rng(3)
        line = QPushTasep(q=0.7, a=(1.0,) * 5)
        line.simulate(3.0, rng)
        assert all(line.x[i] < line.x[i + 1] for i in range(4))
        tline = QTasep(q=0.7, a=(1.0,) * 5)
        tline.simulate(3.0, rng)
        assert all(tline.x[i] > tline.x[i + 1] for i in range(4))

    def test_coordinate_maps(self):
        arr = InterlacingArray(((1,), (2, 0), (2, 1, 0)))
        assert leftmost_coordinates(arr) == (1, 0, 0)
        assert rightmost_coordinates(arr) == (1, 2, 2)


def _reference_simulate(spec, tau, rng):
    """Reference engine: rebuilds every level's rates after every event."""
    n = spec.depth
    rows = [list(r) for r in InterlacingArray.zeros(n).levels]
    t, events = 0.0, []
    while True:
        entries = [(k, m, rate) for k in range(1, n + 1) for m, rate in jump_rates(spec, rows, k)]
        total = 0.0
        for _, _, rate in entries:
            total += rate
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t > tau:
            break
        u = rng.random() * total
        for k, m, rate in entries:
            u -= rate
            if u <= 0:
                break
        cascade = [(k, m, "jump")]
        prev = rows[k - 1][m - 1]
        rows[k - 1][m - 1] += 1
        for lvl in range(k + 1, n + 1):
            res = propagate(spec, rows, lvl, cascade[-1][1], prev, rng)
            if res is None:
                break
            prev = rows[lvl - 1][res[0] - 1]
            rows[lvl - 1][res[0] - 1] += 1
            cascade.append((lvl, *res))
        InterlacingArray(tuple(map(tuple, rows)))  # raises once rows stop interlacing
        events.append(Event(time=t, cascade=tuple(cascade)))
    return InterlacingArray(tuple(map(tuple, rows))), events


def _parity_weights(k, nu_bar, lam):
    """Mixing weights that depend on the slice: on the parity of |lam|."""
    return (0.25, 0.75) if sum(lam) % 2 == 0 else (0.6, 0.4)


def _every_recipe(params, n):
    a = (1.0, 0.7, 1.3, 0.9, 1.1)[:n]
    col, row = tuple(range(1, n + 1)), (1,) * n

    def make(recipe, h=None, **kw):
        return DynamicsSpec(params=params, a=a, depth=n, recipe=recipe, h=h, **kw)

    specs = [
        make("pb"), make("qrow"), make("rsk", row), make("rsk", col), make("r", row[:-1]),
        make("r", col[:-1]), make("l", row[:-1]), make("oconnell-pei"),
        make("oconnell-pei-nn"), make("det-insertion", row),
    ]
    return specs + [
        make("mixing", components=(specs[0], specs[2]), weights=(0.5, 0.5)),
        make("mixing", components=(specs[0], specs[2]), weights=_parity_weights),
    ]


def _outcome(run):
    """(final levels, [(time, cascade)]) of a run, or the error it raised."""
    try:
        final, events = run()
    except (InvalidInput, InvariantViolation) as exc:
        return type(exc), str(exc)
    return final.levels, [(ev.time, ev.cascade) for ev in events]


class TestIncrementalEngine:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("q,t", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3)])
    def test_matches_full_rebuild(self, q, t, n):
        for spec in _every_recipe(MacParams(q, t), n):
            for seed in (0, 1):
                got = _outcome(lambda: simulate(spec, 3.0, rng=trajectory_rng(seed, 3)))
                want = _outcome(lambda: _reference_simulate(spec, 3.0, trajectory_rng(seed, 3)))
                assert got == want, (spec.recipe, spec.h, seed)

    def test_ensemble_matches_trajectory_streams(self):
        spec = DynamicsSpec(params=QW, a=(1.0, 0.8, 1.2), depth=3, recipe="pb")
        want = [simulate(spec, 1.0, rng=trajectory_rng(17, i))[0] for i in range(10)]
        assert run_ensemble(spec, 1.0, 10, 17) == want

    def test_trajectory_rng_is_the_jumped_stream(self):
        for i in (0, 1, 7, 1000, 2**40, 2**64 + 3):
            ref = np.random.Generator(np.random.Philox(key=(5, 9)).jumped(i))
            assert trajectory_rng((5, 9), i).random(8).tolist() == ref.random(8).tolist()

    @pytest.mark.parametrize("seed", [29, (2**63 + 5, 2**62 + 7)])
    def test_trajectory_rngs_are_the_indexed_streams(self, seed):
        streams = {i: rng.random(6).tolist() for i, rng in enumerate(trajectory_rngs(seed, 1000))}
        for i in (0, 1, 2, 999):
            assert streams[i] == trajectory_rng(seed, i).random(6).tolist()

    def test_broken_interlacing_names_rows_and_cascade(self):
        rows = [[2], [1, 0], [3, 1, 0]]
        with pytest.raises(
            InvariantViolation,
            match=r"level 1 row \(2,\) and level 2 row \(1, 0\) by cascade \(\(1, 1, 'jump'\),\)",
        ):
            _check_interlacing(rows, [(1, 1, "jump")])
        _check_interlacing(rows, [(3, 1, "jump")])  # only touched pairs are checked

    def test_corrupted_cascade_raises_before_the_trusted_final_array(self, monkeypatch):
        # simulate skips re-validating its final array, so a cascade that
        # breaks interlacing must be caught by the per-event check
        import macdyn.simulator as sim

        def pull_left(spec, rows, k, j, prev):
            return ((1.0, k, "pull"),)  # the leftmost particle: breaks interlacing from zeros

        monkeypatch.setattr(sim, "_branch", pull_left)
        spec = DynamicsSpec(params=SCHUR, a=(1.0,) * 3, depth=3, recipe="pb")
        with pytest.raises(InvariantViolation, match="interlacing broken") as info:
            simulate(spec, 5.0, seed=3)
        assert info.traceback[-1].name == "_check_interlacing"

    def test_final_array_equals_a_validated_one(self):
        for params, recipe, h in [(QW, "pb", None), (SCHUR, "rsk", (1, 2, 1)), (QW, "qrow", None)]:
            spec = DynamicsSpec(params=params, a=(1.0, 2.0, 0.5), depth=3, recipe=recipe, h=h)
            for seed in range(5):
                final, _ = simulate(spec, 3.0, seed=seed)
                checked = InterlacingArray(final.levels)
                assert final == checked and hash(final) == hash(checked)
                assert all(type(c) is int for row in final.levels for c in row)


_CAUSES = {"short_push", "long_push", "pull", "donated"}


@st.composite
def _point_and_depth(draw):
    q, t = draw(st.sampled_from(((0.0, 0.0), (0.5, 0.0), (0.5, 0.3))))
    return MacParams(q, t), draw(st.integers(1, 4))


def _draw_spec(draw, params, n, recipes, any_h=False):
    """A spec of one of `recipes` valid at params: any h-vector in the Schur
    case or when any_h, else h = (1, ..., 1), for which R(h) is honest."""
    if params.t != 0:
        recipes = [rec for rec in recipes if not rec.startswith("oconnell-pei")]
    if n == 1:
        recipes = [rec for rec in recipes if rec not in ("r", "l")]
    recipe = draw(st.sampled_from(recipes))
    h = None
    if recipe in ("rsk", "det-insertion", "r", "l"):
        size = n if recipe in ("rsk", "det-insertion") else n - 1
        any_h = any_h or params.mode == "schur"
        h = tuple(draw(st.integers(1, k if any_h else 1)) for k in range(1, size + 1))
    a = (1.0, 0.7, 1.3, 0.9)[:n]
    return DynamicsSpec(params=params, a=a, depth=n, recipe=recipe, h=h)


def _honest_recipes(params):
    if params.mode == "schur":
        return ["pb", "qrow", "rsk", "r", "l", "oconnell-pei", "oconnell-pei-nn", "det-insertion"]
    return ["pb", "qrow", "r", "oconnell-pei", "oconnell-pei-nn"]


class TestSimulatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(_point_and_depth(), st.data(), st.integers(0, 2**32 - 1))
    def test_interlacing_kept_and_cascades_bottom_up(self, point, data, seed):
        params, n = point
        spec = _draw_spec(data.draw, params, n, _honest_recipes(params))
        final, events = simulate(spec, 2.0, seed=seed)
        assert isinstance(final, InterlacingArray)
        rows = [list(r) for r in InterlacingArray.zeros(n).levels]
        last = 0.0
        for ev in events:
            assert last <= ev.time <= 2.0
            last = ev.time
            levels = [lvl for lvl, _, _ in ev.cascade]
            assert levels == list(range(levels[0], levels[0] + len(levels)))
            assert ev.cascade[0][2] == "jump"
            assert all(cause in _CAUSES for _, _, cause in ev.cascade[1:])
            for lvl, idx, _ in ev.cascade:
                rows[lvl - 1][idx - 1] += 1
            InterlacingArray(tuple(map(tuple, rows)))  # raises unless rows interlace
        assert final.levels == tuple(map(tuple, rows))

    @settings(max_examples=40, deadline=None)
    @given(_point_and_depth(), st.data(), st.integers(0, 2**32 - 1))
    def test_mixing_with_weight_one_is_its_first_component(self, point, data, seed):
        params, n = point
        honest = [rec for rec in _honest_recipes(params) if rec != "oconnell-pei"]
        first = _draw_spec(data.draw, params, n, honest)
        primitives = ["pb", "qrow", "rsk", "r", "l", "oconnell-pei-nn", "det-insertion"]
        other = _draw_spec(data.draw, params, n, primitives, any_h=True)
        mixed = DynamicsSpec(
            params=params, a=first.a, depth=n, recipe="mixing",
            components=(first, other), weights=(1.0, 0.0),
        )
        want = _outcome(lambda: simulate(first, 2.0, rng=trajectory_rng(seed)))
        assert _outcome(lambda: simulate(mixed, 2.0, rng=trajectory_rng(seed))) == want


class TestStateTable:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("q,t", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3)])
    def test_warm_cold_and_full_tables_agree(self, q, t, n, monkeypatch):
        import macdyn.simulator as sim

        def outcomes(specs, seeds):
            return {
                (i, seed): _outcome(lambda: simulate(spec, 3.0, rng=trajectory_rng(seed, 5)))
                for seed in seeds
                for i, spec in enumerate(specs)
            }

        specs = _every_recipe(MacParams(q, t), n)  # fresh specs own cold tables
        cold = outcomes(specs, (0, 1))
        built = [spec._tables.misses for spec in specs]
        warm = outcomes(specs, (1, 0))  # every state now comes from the table
        assert [spec._tables.misses for spec in specs] == built
        # the same streams again: every event of a run that did not raise
        # follows the links its first pass compiled, without a step lookup
        calls, branch = Counter(), sim._branch

        def counted(spec, *args):
            calls[id(spec)] += 1
            return branch(spec, *args)

        monkeypatch.setattr(sim, "_branch", counted)
        replayed = outcomes(specs, (0, 1))
        monkeypatch.undo()
        for i, spec in enumerate(specs):
            if all(type(cold[i, seed][1]) is list for seed in (0, 1)):
                assert calls[id(spec)] == 0, (spec.recipe, spec.h)
        specs = _every_recipe(MacParams(q, t), n)
        monkeypatch.setattr(sim, "_STATE_TABLE_SIZE", 3)
        full = outcomes(specs, (0, 1))
        assert all(len(spec._tables.ids) <= 3 for spec in specs)
        assert any(spec._tables.refused for spec in specs)
        assert cold == warm == replayed == full

    @pytest.mark.parametrize("q,t", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3)])
    def test_partly_compiled_links_match_the_full_rebuild(self, q, t):
        # after a warm-up, new streams leave compiled links part way down,
        # and the miss path must replay the uniforms the walk drew
        for spec in _every_recipe(MacParams(q, t), 4):
            try:
                run_ensemble(spec, 3.0, 300, seed=59)
            except (InvalidInput, InvariantViolation):
                continue  # the recipe is not defined or not honest at this point
            for i in range(30):
                got = _outcome(lambda: simulate(spec, 3.0, rng=trajectory_rng(61, i)))
                want = _outcome(lambda: _reference_simulate(spec, 3.0, trajectory_rng(61, i)))
                assert got == want, (spec.recipe, spec.h, i)

    def test_specs_differing_only_in_a_share_no_nodes(self):
        def make(a):
            return DynamicsSpec(params=QW, a=a, depth=3, recipe="pb")

        def logs(spec):
            return [_outcome(lambda: simulate(spec, 3.0, rng=trajectory_rng(29, i))) for i in range(20)]

        drifts = ((1.0, 2.0, 0.5), (1.0, 1.0, 1.0), (F(1), F(2), F(1, 2)))
        fresh = [logs(make(a)) for a in drifts]
        specs = [make(a) for a in drifts]
        assert [logs(spec) for spec in specs] == fresh
        assert len({id(spec._tables) for spec in specs}) == 3
        nodes = [{id(node) for node in spec._tables.nodes} for spec in specs]
        assert not (nodes[0] & nodes[1] or nodes[0] & nodes[2] or nodes[1] & nodes[2])

    def test_corrupted_cascade_raises_on_a_warm_table(self, monkeypatch):
        import macdyn.simulator as sim

        spec = DynamicsSpec(params=SCHUR, a=(1.0,) * 3, depth=3, recipe="pb")
        run_ensemble(spec, 5.0, 200, seed=3)
        assert len(spec._tables.ids) > 50
        monkeypatch.setattr(sim, "_branch", lambda spec, rows, k, j, prev: ((1.0, k, "pull"),))
        with pytest.raises(InvariantViolation, match="interlacing broken") as info:
            simulate(spec, 5.0, seed=4)  # a stream the warm-up did not compile
        assert info.traceback[-1].name == "_check_interlacing"

    def test_table_stays_within_its_bound(self, monkeypatch):
        import macdyn.simulator as sim

        def make():
            return DynamicsSpec(params=QW, a=(1.0, 0.8, 1.2), depth=3, recipe="qrow")

        want = run_ensemble(make(), 2.0, 1500, seed=37)
        spec = make()
        monkeypatch.setattr(sim, "_STATE_TABLE_SIZE", 40)
        assert run_ensemble(spec, 2.0, 1500, seed=37) == want
        tables = spec._tables
        assert len(tables.ids) == len(tables.nodes) == 40
        assert tables.refused == tables.misses - 40 > 0

    def test_slice_table_stays_within_its_bound(self, monkeypatch):
        import macdyn.simulator as sim

        def make():
            return DynamicsSpec(params=MacParams(0.5, 0.3), a=(1.0, 0.8, 1.2, 0.9), depth=4,
                                recipe="pb")

        unbounded = make()
        want = run_ensemble(unbounded, 2.0, 400, seed=41)
        assert len(unbounded._tables.slices) > 30
        spec = make()
        monkeypatch.setattr(sim, "_STATE_TABLE_SIZE", 30)
        assert run_ensemble(spec, 2.0, 400, seed=41) == want
        assert len(spec._tables.slices) <= 30

    def test_a_step_on_a_refused_slice_is_still_grafted(self, monkeypatch):
        # with the slice table full, every step recomputes its outcome list;
        # the event's path is grafted all the same, and replaying the stream
        # follows the links without looking a step up
        import macdyn.simulator as sim

        def make():
            return DynamicsSpec(params=QW, a=(1.0, 0.8, 1.2), depth=3, recipe="qrow")

        def run(spec):
            return _outcome(lambda: simulate(spec, 4.0, rng=trajectory_rng(67)))

        want = run(make())
        spec, bound = make(), 200
        monkeypatch.setattr(sim, "_STATE_TABLE_SIZE", bound)
        slices = spec._tables.slices
        slices.update((("filler", i), ()) for i in range(bound))  # refuses every slice
        assert run(spec) == want
        assert all(key[0] == "filler" for key in slices) and not spec._tables.refused
        points = [link for node in spec._tables.nodes for link in node.links
                  if type(link) is list]
        assert points  # steps that drew a uniform were grafted as branch points
        calls, branch = [], sim._branch

        def counted(*args):
            calls.append(args[2:])
            return branch(*args)

        monkeypatch.setattr(sim, "_branch", counted)
        assert run(spec) == want and calls == []

    def test_dropping_the_spec_frees_its_tables(self):
        import weakref

        import macdyn.simulator as sim

        spec = DynamicsSpec(params=QW, a=(1.0, 0.8, 1.2), depth=3, recipe="pb")
        run_ensemble(spec, 2.0, 50, seed=43)
        assert spec._tables.ids
        owner, tables = weakref.ref(spec), id(spec._tables)
        del spec
        gc.collect()
        assert owner() is None
        live = [id(obj) for obj in gc.get_objects() if type(obj) is sim._DynamicsTables]
        assert tables not in live

    def test_a_dropped_spec_is_freed_without_the_collector(self):
        import macdyn.simulator as sim

        def live():
            kinds = (sim._DynamicsTables, sim._Node)
            return Counter(type(obj) for obj in gc.get_objects() if type(obj) in kinds)

        gc.collect()
        gc.disable()
        try:
            before = live()
            spec = DynamicsSpec(params=QW, a=(1.0, 0.8, 1.2), depth=3, recipe="rsk", h=(1, 1, 1))
            run_ensemble(spec, 2.0, 200, seed=47)
            assert any(link is not None for node in spec._tables.nodes for link in node.links)
            assert live()[sim._Node] - before[sim._Node] == len(spec._tables.nodes)
            del spec  # reference counting alone frees the spec, its tables and nodes
            assert live() == before
        finally:
            gc.enable()

    def test_links_lead_only_to_checked_states(self, monkeypatch):
        import macdyn.simulator as sim

        checked, check = set(), sim._check_interlacing

        def recorded(rows, cascade):
            check(rows, cascade)
            checked.add(tuple(itertools.chain.from_iterable(rows)))

        monkeypatch.setattr(sim, "_check_interlacing", recorded)
        initial = InterlacingArray.zeros(3).levels
        checked.add(tuple(itertools.chain.from_iterable(initial)))  # validated on construction
        honest = ("pb", "qrow", "oconnell-pei", "oconnell-pei-nn", "mixing")
        for spec in [spec for spec in _every_recipe(QW, 3) if spec.recipe in honest]:
            run_ensemble(spec, 2.0, 100, seed=53)
            tables = spec._tables
            leaves = [leaf for node in tables.nodes for link in node.links
                      for leaf in _leaves(link)]
            assert leaves, spec.recipe
            for nid, cascade in leaves:
                assert tables.nodes[nid].key in checked, (spec.recipe, cascade)

    def test_callable_weights_are_cached_per_slice(self):
        comps = (
            DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="pb"),
            DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="rsk", h=(1, 1, 1)),
        )

        def mixing(weights):
            return DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="mixing",
                                components=comps, weights=weights)

        calls = []

        def counted(k, nu_bar, lam):
            calls.append((k, nu_bar, lam))
            return (0.25, 0.75)

        per_slice = mixing(counted)
        constant = mixing((0.25, 0.75))

        def runs():
            return [_outcome(lambda: simulate(per_slice, 3.0, seed=seed)) for seed in range(5)]

        first = runs()
        for seed in range(5):
            assert first[seed] == _outcome(lambda: simulate(constant, 3.0, seed=seed))
        slices = per_slice._tables.slices
        assert len(calls) == len(slices) > 0
        assert sorted(calls) == sorted((len(lam), nb, lam) for nb, lam in slices)
        called = len(calls)
        assert runs() == first
        assert len(calls) == called


def _leaves(link):
    """The (successor id, cascade) leaves of a link slot."""
    if type(link) is tuple:
        yield link
    elif link is not None:
        for child in link[1:]:
            yield from _leaves(child)


def _branch_c_r(branch, pushers):
    """(c, r) of a nearest-neighbor slice, rebuilt from its branch list: the
    push outcome's threshold is r_j, the pull outcome's is c_j, and a left-out
    outcome has probability zero."""
    c, r = {}, {}
    for j in pushers:
        thresholds = {cause: th for th, _, cause in branch[j - 1]}
        r[j] = thresholds.get("long_push", thresholds.get("donated", 0.0))
        c[j] = thresholds.get("pull", r[j])
    return c, r


class TestSliceCacheKey:
    def test_mixings_with_equal_weights_keep_their_own_slices(self):
        # also every other nearest-neighbor recipe, at one exact point per
        # mode: _slice_data is the float view of slice_solution, and a slice
        # fails its build exactly when its solution is dishonest, by sign at
        # the exact points
        for q, t in ((0.5, 0.0), (F(1, 2), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1, 3))):
            params = MacParams(q, t)
            half = F(1, 2) if params.is_exact else 0.5

            def make(recipe, h=None, **kw):
                return DynamicsSpec(params=params, a=(1.0,) * 3, depth=3, recipe=recipe, h=h, **kw)

            specs = [
                make("mixing", components=(make("pb"), other), weights=(half, half))
                for other in (make("rsk", (1, 1, 1)), make("r", (1, 1)))
            ]
            specs += [make("pb"), make("qrow"), make("rsk", (1, 2, 3)), make("r", (1, 2)),
                      make("l", (1, 2)), make("det-insertion", (1, 2, 2))]
            if t == 0:
                specs.append(make("oconnell-pei-nn"))
            tol = 0 if params.is_exact else 1e-9
            for spec in specs:
                for nb, lam in iter_slices(3, 4):
                    sol = slice_solution(spec, 3, nb, lam)
                    if not sol.is_honest(tol):
                        with pytest.raises(InvariantViolation):
                            _slice_data(spec, 3, nb, lam)
                        continue
                    entries, branch = _slice_data(spec, 3, nb, lam)  # a_3 = 1
                    w_items = tuple((m, v) for _, m, v in entries)
                    pushers = SliceContext(nb, lam, params).pushers
                    c, r = _branch_c_r(branch, pushers)
                    want_w = tuple((m, float(v)) for m, v in sorted(sol.w.items()) if v > 0)
                    assert w_items == want_w, (spec.recipe, nb, lam)
                    assert c == {j: float(v) for j, v in sol.c.items()}, (spec.recipe, nb, lam)
                    assert r == {j: float(v) for j, v in sol.r.items()}, (spec.recipe, nb, lam)

    def test_exact_parameters_do_not_leak_into_float_runs(self):
        def logs(q, t):
            spec = DynamicsSpec(params=MacParams(q, t), a=(1.0,) * 4, depth=4, recipe="pb")
            return [_outcome(lambda: simulate(spec, 3.0, rng=trajectory_rng(23, i))) for i in range(50)]

        fresh = logs(0.5, 0.25)
        logs(F(1, 2), F(1, 4))
        assert logs(0.5, 0.25) == fresh


class TestHonesty:
    def test_an_exact_rate_just_below_zero_aborts(self):
        # r(1) at (1/4, 1/2) on this slice has the exact jump rate
        # w_1 = -536870912/1152921501922492417, about -4.7e-10: exact params
        # decide honesty by sign, float params let it pass within 1e-9
        def spec(q, t):
            params = MacParams(q, t)
            return DynamicsSpec(params=params, a=(1.0,) * 3, depth=3, recipe="r", h=(1, 1))

        with pytest.raises(InvariantViolation, match=r"level 3, index 1\b"):
            _slice_data(spec(F(1, 4), F(1, 2)), 3, (18, 3), (18, 3, 3))
        entries, _ = _slice_data(spec(0.25, 0.5), 3, (18, 3), (18, 3, 3))
        assert [m for _, m, _ in entries] == [2]

    def test_float_weights_keep_the_float_tolerance_at_exact_params(self):
        # every component propagates with c_j = 1, and these float weights
        # sum to 1 + 2^-52 in float: the mixing's rows are floats, so its
        # honesty is decided within 1e-9, not by sign
        params = MacParams(F(1, 2), F(1, 2))

        def make(recipe, **kw):
            return DynamicsSpec(params=params, a=(1.0,) * 3, depth=3, recipe=recipe, **kw)

        comps = tuple(make("rsk", h=h) for h in ((1, 1, 1), (1, 2, 2), (1, 2, 3)))
        spec = make("mixing", components=comps, weights=(0.33, 0.56, 0.11))
        _, branch = _slice_data(spec, 3, (2, 1), (3, 2, 0))
        assert max(th for outcomes in branch for th, _, _ in outcomes) == 1 + 2 ** -52

    def test_constant_mixing_weights_must_sum_to_one(self):
        comps = tuple(
            DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe=recipe, h=h)
            for recipe, h in (("pb", None), ("rsk", (1, 1, 1)))
        )
        spec = DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="mixing",
                            components=comps, weights=(0.5, 0.4))
        with pytest.raises(Infeasible, match="weights sum to 0.9"):
            simulate(spec, 1.0, seed=1)

    def test_callable_mixing_weights_must_sum_to_one_on_every_slice(self):
        comps = tuple(
            DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe=recipe, h=h)
            for recipe, h in (("pb", None), ("rsk", (1, 1, 1)))
        )

        def weights(k, nu_bar, lam):
            return (0.5, 0.5) if sum(lam) % 2 == 0 else (0.5, 0.4)

        spec = DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="mixing",
                            components=comps, weights=weights)
        _slice_data(spec, 3, (2, 1), (3, 1, 0))
        with pytest.raises(Infeasible, match="weights sum to 0.9"):
            _slice_data(spec, 3, (2, 1), (3, 2, 0))


class TestInsertionBranch:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.8])
    def test_propagate_matches_the_sampling_loop(self, q):
        spec = DynamicsSpec(params=MacParams(q, 0.0), a=(1.0,) * 5, depth=5,
                            recipe="oconnell-pei")
        draws = 0
        for k in range(2, 6):
            for nb, lam in iter_slices(k, 4):
                ctx = SliceContext(nb, lam, spec.params)
                rows = [None] * (k - 2) + [nb, lam]
                for j in range(1, k):
                    start = 0.0
                    for target, p in insertion_push_probabilities(ctx, j):
                        if p <= 0:
                            continue
                        u = start + p / 2  # the midpoint of this outcome's interval
                        start += p
                        assert insertion_push_target(ctx, j, u) == target
                        got = propagate(spec, rows, k, j, nb[j - 1] - 1, _ScriptedRng([u]))
                        assert got == (target, "long_push"), (nb, lam, j, u)
                        draws += 1
        assert draws > 2000

    @pytest.mark.parametrize("wrong", [lambda f: 2 * f, lambda f: math.nan])
    def test_wrong_f_fails_the_slice_build(self, wrong, monkeypatch):
        import macdyn.simulator as sim

        right = sim.f_quant
        monkeypatch.setattr(sim, "f_quant", lambda ctx, i: wrong(right(ctx, i)))
        spec = DynamicsSpec(params=QW, a=(1.0,) * 3, depth=3, recipe="oconnell-pei")
        with pytest.raises(InvariantViolation, match="randomized insertion probabilities"):
            _slice_data(spec, 3, (2, 1), (3, 1, 0))


class TestNonZeroInitial:
    def test_simulate_from_given_state(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0, 1.0, 1.0), depth=3, recipe="pb")
        initial = InterlacingArray(((2,), (3, 1), (4, 2, 0)))
        final, events = simulate(spec, 0.5, seed=21, initial=initial)
        assert final.depth == 3
        assert all(
            final.row(k)[j] >= initial.row(k)[j]
            for k in range(1, 4)
            for j in range(k)
        )

    def test_wrong_depth_rejected(self):
        spec = DynamicsSpec(params=SCHUR, a=(1.0,), depth=1, recipe="pb")
        with pytest.raises(InvalidInput):
            simulate(spec, 1.0, seed=1, initial=InterlacingArray.zeros(2))


class TestDetInsertionSchur:
    def test_coincides_with_rsk_fundamental(self):
        # at q = t the deterministic-propagation recipe is exactly the RSK
        # fundamental dynamics for the same index vector
        from macdyn.classifier import fundamental, rsk

        rnd = random.Random(31)
        spec_h = (1, 2, 1, 3)
        spec = DynamicsSpec(
            params=SCHUR, a=(1.0,) * 4, depth=4, recipe="det-insertion", h=spec_h
        )
        for _ in range(50):
            k = rnd.randint(2, 4)
            lam = tuple(sorted((rnd.randint(0, 6) for _ in range(k)), reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            sol = slice_solution(spec, k, nb, lam)
            ctx = SliceContext(nb, lam, MacParams(0, 0))
            assert sol.as_rows() == fundamental(rsk(spec_h[k - 1]), ctx).as_rows()

"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per criterion
(add -s to also see the printed summaries).  Sample sizes come from
acceptance_config and default to the full scale.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

import acceptance_config as cfg
from macdyn.arrays import InterlacingArray
from macdyn.classifier import (
    SliceContext,
    S_quant,
    T_quant,
    check_system,
    decompose,
    positivity_scan,
    recombine,
    SliceSolution,
)
from macdyn.insertions import f_h, group_order, h_insert, h_rs_forward, h_rs_inverse
from macdyn.macdonald import (
    MacParams,
    SCHUR,
    schur_plancherel_coefficient,
)
from macdyn.oracle import (
    SuiteBounds,
    compare_distributions,
    exact_transient,
    gibbs_check,
    identity_suite,
    two_sample_chi_square,
)
from macdyn.simulator import (
    DynamicsSpec,
    QPushTasep,
    QTasep,
    leftmost_coordinates,
    rightmost_coordinates,
    run_ensemble,
    trajectory_rngs,
)

SCHUR_F = MacParams(F(0), F(0))
QW_HALF = MacParams(F(1, 2), F(0))


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, detail


# --- shared Monte Carlo ensembles (Schur, N = 3, a = (1,1,1), tau = 1) ----------

SCHUR_DYNAMICS = (
    [("pb", None)]
    + [("rsk", h) for h in itertools.product((1,), (1, 2), (1, 2, 3))]
    + [("r", h) for h in itertools.product((1,), (1, 2))]
    + [("l", h) for h in itertools.product((1,), (1, 2))]
)


@pytest.fixture(scope="session")
def schur_ensembles():
    """Counters of (second-top row, top row) for every Schur dynamics at
    N = 3, tau = 1, plus a separate run of the qrow recipe."""
    out = {}
    n = cfg.SAMPLES_MEASURE
    runs = list(SCHUR_DYNAMICS) + [("qrow", None)]
    for idx, (recipe, h) in enumerate(runs):
        spec = DynamicsSpec(
            params=MacParams(0.0, 0.0), a=(1.0, 1.0, 1.0), depth=3, recipe=recipe, h=h
        )
        pairs = run_ensemble(
            spec,
            1.0,
            n,
            seed=(cfg.MASTER_SEED, idx),
            collect=lambda arr: (arr.row(2), arr.top),
        )
        out[(recipe, h)] = Counter(pairs)
    return out


def test_criterion_01_identity_suite():
    """Exact identity suite at (q,t) in {(1/2,1/3), (1/2,0), (1/2,1/2)};
    runtime budget two minutes."""
    start = time.monotonic()
    points = [
        MacParams(F(1, 2), F(1, 3)),
        MacParams(F(1, 2), F(0)),
        MacParams(F(1, 2), F(1, 2)),
    ]
    report = identity_suite(points=points, bounds=SuiteBounds(max_level=5, max_coord=12))
    elapsed = time.monotonic() - start
    checked = sum(report.checks.values())
    _report(
        "1 identity-suite",
        report.ok and elapsed < 120,
        f"{checked} exact checks in {elapsed:.1f}s "
        f"({', '.join(f'{k}:{v}' for k, v in sorted(report.checks.items()))})"
        + ("" if report.ok else f" failures: {report.failures}"),
    )


def _random_honest_solution(ctx, rnd):
    """Random honest (w, c, r) on the slice: sample propagation and push
    probabilities, derive the jump rates from the linear system, and shrink
    the propagation until every rate is nonnegative."""
    pushers = ctx.pushers
    free = ctx.free
    c = {j: F(rnd.randint(0, 8), 8) for j in pushers}
    r = {j: c[j] * F(rnd.randint(0, 4), 4) for j in pushers}
    T = {j: T_quant(ctx, j) for j in pushers}
    S = {m: S_quant(ctx, m) for m in free}
    while True:
        w = {}
        for pos, m in enumerate(free):
            val = S[m]
            if pos >= 1:
                j = m - 1
                val -= (c[j] - r[j]) * T[j]
            if pos + 1 < len(free):
                j = free[pos + 1] - 1
                val -= r[j] * T[j]
            w[m] = val
        sol = SliceSolution(w=w, c=dict(c), r=dict(r))
        if sol.is_honest():
            return sol
        c = {j: v / 2 for j, v in c.items()}
        r = {j: v / 2 for j, v in r.items()}


def test_criterion_02_classification_round_trip():
    """decompose -> recombine is the identity for 1000 random honest solutions
    per basis of the classification theorem."""
    start = time.monotonic()
    rnd = random.Random(cfg.MASTER_SEED)
    params = MacParams(F(1, 2), F(1, 3))
    count = {basis: 0 for basis in ("rsk-r", "rsk-l", "r-l-pb")}
    for basis in count:
        need_kappa = 3 if basis.startswith("rsk") else 1
        while count[basis] < 1000:
            k = rnd.randint(2 if need_kappa == 1 else 3, 5)
            lam = tuple(sorted((rnd.randint(-6, 6) for _ in range(k)), reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            ctx = SliceContext(nb, lam, params)
            if ctx.kappa < need_kappa:
                continue
            sol = _random_honest_solution(ctx, rnd)
            assert check_system(ctx, sol)[0]
            back = recombine(ctx, decompose(ctx, sol, basis))
            assert back.as_rows() == sol.as_rows(), (basis, nb, lam)
            count[basis] += 1
    elapsed = time.monotonic() - start
    _report(
        "2 classification-round-trip",
        elapsed < 60,
        f"{sum(count.values())} exact round trips in {elapsed:.1f}s",
    )


def test_criterion_03_positivity_table():
    """At t=0, q=1/2 the scan certifies exactly {PB, RSK(1..1), R(1..1)} and
    finds a witness for every other kind; Schur mode has no violations."""
    scan = positivity_scan(QW_HALF, 4, 10)
    clean = {name for name, _ in scan.clean_kinds()}
    ok = clean == {"pb", "rsk(1)", "r(1)"}
    witnesses = {(name, k): wit for (name, k), wit in scan.results.items() if wit}
    expected_witnesses = set()
    for k in range(2, 5):
        expected_witnesses.update((f"rsk({h})", k) for h in range(2, k + 1))
        expected_witnesses.update((f"r({h})", k) for h in range(2, k))
        expected_witnesses.update((f"l({h})", k) for h in range(1, k))
    ok = ok and set(witnesses) == expected_witnesses
    schur_scan = positivity_scan(MacParams(F(1, 2), F(1, 2)), 4, 10)
    ok = ok and not schur_scan.violating_kinds()
    _report(
        "3 positivity-table",
        ok,
        f"clean={sorted(clean)}, witnesses for {len(witnesses)} dishonest kinds, "
        f"schur violations={len(schur_scan.violating_kinds())}",
    )


def test_criterion_04_h_rs_bijectivity():
    """Round trips: exhaustively for N=3 (243 words x 6 rules), and 10^4
    random words per rule for N=4."""
    start = time.monotonic()
    checked = 0
    for h in itertools.product((1,), (1, 2), (1, 2, 3)):
        for word in itertools.product((1, 2, 3), repeat=5):
            pair = h_rs_forward(word, h)  # TableauPair validates Q standard
            assert h_rs_inverse(pair, h) == word
            checked += 1
    rnd = random.Random(cfg.MASTER_SEED + 4)
    for h in itertools.product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)):
        for _ in range(10_000):
            word = tuple(rnd.randint(1, 4) for _ in range(8))
            pair = h_rs_forward(word, h)
            assert h_rs_inverse(pair, h) == word
            checked += 1
    elapsed = time.monotonic() - start
    _report("4 h-RS-bijectivity", elapsed < 60, f"{checked} round trips in {elapsed:.1f}s")


def test_criterion_05_group_orders_and_tables():
    """Group orders for N = 2, 3, 4 and the published image tables on the
    length-3 permutation words."""
    start = time.monotonic()
    ok = group_order(2) == 2
    ok = ok and group_order(3) == 72
    ok = ok and group_order(4) == 2 * math.factorial(12) ** 2
    words3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    table_112 = [(1, 3, 2), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 2, 3), (2, 3, 1)]
    table_123 = [(3, 2, 1), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (1, 2, 3)]
    ok = ok and [f_h(w, (1, 1, 2)) for w in words3] == table_112
    ok = ok and [f_h(w, (1, 2, 3)) for w in words3] == table_123
    elapsed = time.monotonic() - start
    _report(
        "5 group-orders",
        ok and elapsed < 30,
        f"orders 2, 72, 2*(12!)^2 and both image tables in {elapsed:.1f}s",
    )


def test_criterion_06_worked_insertion_fixtures():
    """The row/column displays and the mixed-rule double insertion."""
    base = InterlacingArray(((2,), (3, 1), (4, 2, 1), (4, 2, 1, 1), (5, 4, 1, 1, 0)))
    ok = h_insert(base, 2, (1, 1, 1, 1, 1)).levels == (
        (2,), (4, 1), (4, 3, 1), (4, 3, 1, 1), (5, 4, 2, 1, 0),
    )
    ok = ok and h_insert(base, 2, (1, 2, 3, 4, 5)).levels == (
        (2,), (3, 2), (4, 3, 1), (4, 3, 1, 1), (6, 4, 1, 1, 0),
    )
    big = InterlacingArray(
        ((2,), (3, 1), (4, 3, 1), (4, 4, 2, 1), (4, 4, 3, 1, 0), (5, 4, 4, 1, 0, 0))
    )
    h = (1, 2, 1, 4, 4, 1)
    once = h_insert(big, 2, h)
    ok = ok and once.levels == (
        (2,), (3, 2), (4, 3, 2), (4, 4, 3, 1), (4, 4, 4, 1, 0), (5, 4, 4, 2, 0, 0),
    )
    twice = h_insert(once, 2, h)
    ok = ok and twice.levels == (
        (2,), (4, 2), (4, 4, 2), (5, 4, 3, 1), (5, 4, 4, 1, 0), (5, 5, 4, 2, 0, 0),
    )
    _report("6 worked-examples", ok)


def test_criterion_07_schur_measure_preservation(schur_ensembles):
    """Exact: transient DP equals the closed form coefficientwise.  Monte
    Carlo: every Schur dynamics matches the closed form at tau = 1."""
    for a in ((F(1), F(1), F(1)), (F(2), F(1), F(1, 2))):
        table = exact_transient(a, SCHUR_F, 6)
        for lam, c in table.coeffs.items():
            assert c == schur_plancherel_coefficient(lam, a), (a, lam)
    table = exact_transient((F(1), F(1), F(1)), SCHUR_F, 14)
    alpha = cfg.alpha()
    details = []
    ok = True
    for recipe, h in SCHUR_DYNAMICS:
        counts = schur_ensembles[(recipe, h)]
        tops = Counter()
        for (_, top), cnt in counts.items():
            tops[top] += cnt
        stats = compare_distributions(tops, table, 1.0)
        good = stats["tv"] < cfg.tv_threshold(stats["n"]) and stats["pvalue"] > alpha
        ok = ok and good
        details.append(f"{recipe}{h or ''}: tv={stats['tv']:.4f} p={stats['pvalue']:.3f}")
    _report("7 measure-preservation", ok, "; ".join(details))


def test_criterion_08_q_whittaker_transient():
    """(q,t) = (1/2,0), N <= 2: simulated PB and QRow marginals match the
    exact transient law."""
    alpha = cfg.alpha()
    n = cfg.SAMPLES_QWHIT
    ok = True
    details = []
    table1 = exact_transient((F(1),), QW_HALF, 10)
    spec1 = DynamicsSpec(params=MacParams(0.5, 0.0), a=(1.0,), depth=1, recipe="pb")
    tops = Counter(run_ensemble(spec1, 1.0, n, seed=(cfg.MASTER_SEED, 81), collect=lambda arr: arr.top))
    stats = compare_distributions(tops, table1, 1.0)
    ok = ok and stats["tv"] < cfg.tv_threshold(n) and stats["pvalue"] > alpha
    details.append(f"N=1 pb: tv={stats['tv']:.4f} p={stats['pvalue']:.3f}")
    table2 = exact_transient((F(1), F(1)), QW_HALF, 13)
    for idx, recipe in enumerate(("pb", "qrow")):
        spec = DynamicsSpec(params=MacParams(0.5, 0.0), a=(1.0, 1.0), depth=2, recipe=recipe)
        tops = Counter(
            run_ensemble(spec, 1.0, n, seed=(cfg.MASTER_SEED, 82 + idx), collect=lambda arr: arr.top)
        )
        stats = compare_distributions(tops, table2, 1.0)
        ok = ok and stats["tv"] < cfg.tv_threshold(n) and stats["pvalue"] > alpha
        details.append(f"N=2 {recipe}: tv={stats['tv']:.4f} p={stats['pvalue']:.3f}")
    _report("8 q-whittaker-transient", ok, "; ".join(details))


def test_criterion_09_tasep_marginals():
    """Leftmost particles of PB match standalone q-TASEP and rightmost
    particles of QRow match standalone q-PushTASEP (two-sample chi-square on
    the joint time-1 state, N = 4, q = 1/2)."""
    alpha = cfg.alpha()
    n = cfg.SAMPLES_TASEP
    q = 0.5
    spec = DynamicsSpec(params=MacParams(q, 0.0), a=(1.0,) * 4, depth=4, recipe="pb")
    left = Counter(
        run_ensemble(spec, 1.0, n, seed=(cfg.MASTER_SEED, 91), collect=leftmost_coordinates)
    )
    alone = Counter()
    for rng in trajectory_rngs((cfg.MASTER_SEED, 92), n):
        line = QTasep(q=q, a=(1.0,) * 4)
        line.simulate(1.0, rng)
        alone[tuple(line.x[k] + (k + 1) for k in range(4))] += 1
    stats_left = two_sample_chi_square(left, alone)
    specr = DynamicsSpec(params=MacParams(q, 0.0), a=(1.0,) * 4, depth=4, recipe="qrow")
    right = Counter(
        run_ensemble(specr, 1.0, n, seed=(cfg.MASTER_SEED, 93), collect=rightmost_coordinates)
    )
    alone = Counter()
    for rng in trajectory_rngs((cfg.MASTER_SEED, 94), n):
        line = QPushTasep(q=q, a=(1.0,) * 4)
        line.simulate(1.0, rng)
        alone[tuple(line.x[k] - (k + 1) for k in range(4))] += 1
    stats_right = two_sample_chi_square(right, alone)
    ok = stats_left["pvalue"] > alpha and stats_right["pvalue"] > alpha
    _report(
        "9 tasep-marginals",
        ok,
        f"q-TASEP p={stats_left['pvalue']:.3f}, q-PushTASEP p={stats_right['pvalue']:.3f}",
    )


def test_criterion_10_gibbs_conditionals(schur_ensembles):
    """The conditional law of the second-top row given the top row matches the
    stochastic links for the Schur PB and QRow (row insertion) ensembles."""
    alpha = cfg.alpha()
    ok = True
    details = []
    for recipe, h in (("pb", None), ("qrow", None)):
        counts = schur_ensembles[(recipe, h)]
        stats = gibbs_check(counts.elements(), (F(1),) * 3, SCHUR)
        ok = ok and stats["pvalue"] > alpha and not stats["vacuous"]
        details.append(f"{recipe}: p={stats['pvalue']:.3f} over {stats['tops']} top rows")
    _report("10 gibbs-conditionals", ok, "; ".join(details))

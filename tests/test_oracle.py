import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import macdyn.classifier
from macdyn.arrays import interlacing_predecessors
from macdyn.errors import Infeasible, InvalidInput
from macdyn.macdonald import MacParams, SCHUR, schur_plancherel_coefficient
from macdyn.oracle import (
    SuiteBounds,
    compare_distributions,
    exact_transient,
    gibbs_check,
    identity_suite,
    two_sample_chi_square,
)

from helpers import p_up_iterate, p_up_link_commutation, poisson_tail, sample_from_table

QT = MacParams(F(1, 2), F(1, 3))


class TestTransient:
    def test_poisson_level_one(self):
        table = exact_transient((F(2),), QT, 8)
        for n in range(9):
            assert table.coeffs[(n,)] == F(2) ** n / math.factorial(n)

    def test_matches_schur_closed_form(self):
        table = exact_transient((F(1), F(1), F(1)), SCHUR, 6)
        for lam, c in table.coeffs.items():
            assert c == schur_plancherel_coefficient(lam, (F(1), F(1), F(1))), lam

    def test_nonuniform_drifts(self):
        a = (F(2), F(1), F(1, 3))
        table = exact_transient(a, SCHUR, 5)
        for lam, c in table.coeffs.items():
            assert c == schur_plancherel_coefficient(lam, a), lam

    def test_mass_is_poisson_truncation(self):
        # |lam| performs a Poisson(sum(a) tau) process, so the retained mass is
        # exactly the Poisson head
        table = exact_transient((F(1), F(1)), MacParams(F(1, 2), 0), 9)
        for tau in (0.3, 1.0, 2.5):
            assert table.mass(tau) == pytest.approx(1.0 - poisson_tail(2 * tau, 9), abs=1e-12)

    def test_p_up_iteration_oracle(self):
        # the m-fold single-dual-variable step converges to the transient law;
        # Richardson extrapolation in 1/m gives agreement well below 1e-6
        table = exact_transient((F(1), F(1)), QT, 8)
        m = 500
        d1 = p_up_iterate((1.0, 1.0), QT, 1.0, m, 8)
        d2 = p_up_iterate((1.0, 1.0), QT, 1.0, 2 * m, 8)
        observed = 0.0
        for lam in table.coeffs:
            if sum(lam) > 4:
                continue
            rich = 2 * d2.get(lam, 0.0) - d1.get(lam, 0.0)
            observed = max(observed, abs(rich - table.probability(lam, 1.0)))
        assert observed < 1e-6


class TestIdentitySuite:
    def test_default_points_pass(self):
        bounds = SuiteBounds(max_level=4, max_coord=8, samples_per_level=15, exhaustive_coord=2)
        report = identity_suite(bounds=bounds)
        assert report.ok, report.failures
        # the Schur point exercises the indicator path of every quantity
        assert report.checks["one_T_S"] > 0 and report.checks["stff"] > 0

    def test_mutated_T_is_caught(self, monkeypatch):
        original = macdyn.classifier.T_quant

        def wrong(ctx, i):
            value = original(ctx, i)
            return -value if i == 1 else value

        monkeypatch.setattr(macdyn.classifier, "T_quant", wrong)
        bounds = SuiteBounds(max_level=3, max_coord=5, samples_per_level=10, exhaustive_coord=2)
        report = identity_suite(points=[QT], bounds=bounds)
        assert not report.ok
        assert report.failures.get("one_T_S")

    def test_p_up_link_commutation(self):
        a = (F(1), F(1, 2), F(2))
        for lam in [(0, 0, 0), (2, 1, 0), (3, 2, 2)]:
            for nb in interlacing_predecessors(lam):
                assert p_up_link_commutation(lam, nb, a, F(1, 5), QT)


class TestCompare:
    def setup_method(self):
        self.table = exact_transient((F(1), F(1)), SCHUR, 12)

    def test_null_calibration(self):
        rng = np.random.Generator(np.random.Philox(key=4242))
        rejections = 0
        for _ in range(15):
            samples = sample_from_table(self.table, 1.0, 20000, rng)
            stats = compare_distributions(samples, self.table, 1.0)
            if stats["pvalue"] <= 0.001:
                rejections += 1
            assert stats["tv"] < 0.02
        assert rejections <= 1

    def test_power_against_wrong_parameter(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        wrong = exact_transient((F(1), F(1)), MacParams(F(3, 4), 0), 14)
        samples = sample_from_table(wrong, 1.0, 20000, rng)
        stats = compare_distributions(samples, self.table, 1.0)
        assert stats["pvalue"] < 1e-6

    def test_insufficient_samples_rejected(self):
        with pytest.raises(InvalidInput):
            compare_distributions(Counter({(0, 0): 10}), self.table, 1.0)

    def test_insufficient_coverage_rejected(self):
        small = exact_transient((F(1), F(1)), SCHUR, 1)
        with pytest.raises(Infeasible):
            compare_distributions(Counter({(0, 0): 2000}), small, 2.0)

    def test_two_sample_null_and_power(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        s1 = sample_from_table(self.table, 1.0, 15000, rng)
        s2 = sample_from_table(self.table, 1.0, 15000, rng)
        assert two_sample_chi_square(s1, s2)["pvalue"] > 0.001
        wrong = exact_transient((F(1), F(1)), MacParams(F(3, 4), 0), 14)
        s3 = sample_from_table(wrong, 1.0, 15000, rng)
        assert two_sample_chi_square(s1, s3)["pvalue"] < 1e-6


class TestGibbs:
    @staticmethod
    def sample_pairs(n, rng, mutate=False):
        """Draw (nu_bar, top) pairs from the exact Schur joint law at tau = 1:
        top from the transient table, nu_bar from the link conditional, or from
        a uniform mutant when mutate is set."""
        from macdyn.macdonald import MacdonaldP, link_weight

        table = exact_transient((F(1), F(1), F(1)), SCHUR, 10)
        P = MacdonaldP((F(1),) * 3, SCHUR)
        tops = sample_from_table(table, 1.0, n, rng)
        pairs = []
        for lam, count in tops.items():
            if lam == ("tail",):
                lam = (10, 0, 0)
            preds = list(interlacing_predecessors(lam))
            if mutate:
                probs = [1.0 / len(preds)] * len(preds)
            else:
                probs = [float(link_weight(lam, nb, P)) for nb in preds]
            draws = rng.multinomial(count, probs)
            for nb, cnt in zip(preds, draws):
                pairs.extend([(nb, lam)] * int(cnt))
        return pairs

    def test_accepts_link_conditionals(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        pairs = self.sample_pairs(30000, rng)
        stats = gibbs_check(pairs, (F(1),) * 3, SCHUR)
        assert stats["pvalue"] > 0.001

    def test_rejects_uniform_mutant(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        pairs = self.sample_pairs(30000, rng, mutate=True)
        stats = gibbs_check(pairs, (F(1),) * 3, SCHUR)
        assert stats["pvalue"] < 1e-6

    def test_level_one_vacuous(self):
        stats = gibbs_check([((), (n,)) for n in range(2000)], (F(1),), SCHUR, min_count=1)
        assert stats["vacuous"] and stats["pvalue"] == 1.0


def _loaded_by_import(module: str) -> str:
    """Whether `import macdyn, macdyn.cli` in a fresh interpreter loads
    `module`, as the text it prints: "True" or "False"."""
    import subprocess
    import sys
    from pathlib import Path

    import macdyn

    src = str(Path(macdyn.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import macdyn, macdyn.cli; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_importing_the_package_leaves_scipy_out():
    assert _loaded_by_import("scipy") == "False"


def test_importing_the_package_leaves_numpy_out():
    assert _loaded_by_import("numpy") == "False"

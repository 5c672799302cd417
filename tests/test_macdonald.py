import itertools
import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from macdyn.arrays import interlacing_predecessors
from macdyn import macdonald as md
from macdyn.errors import BlockedMove
from macdyn.macdonald import (
    MacdonaldP,
    MacParams,
    SCHUR,
    branch_phi,
    branch_psi,
    dim_standard,
    factor_product,
    link_weight,
    mac_P,
    net_exponents,
    p_up,
    p_up_row,
    pi_dual,
    psi_prime_one_box,
    psi_prime_vertical,
    schur_plancherel_coefficient,
    schur_plancherel_measure,
    schur_s,
    skew_P,
    skew_Q,
    univariate_rates,
)

from helpers import (
    partitions_up_to,
    reference_factor_product,
    reference_skew_eval,
    sub_partitions,
    value_or_raised,
)

QT = MacParams(F(1, 2), F(1, 3))
QW = MacParams(F(1, 2), 0)


def truncated_f(u, q, t, terms=300):
    """Numerical oracle for f(u) = (tu;q)_inf / (qu;q)_inf with truncated
    products; converges fast for q <= 1/2."""
    num = den = 1.0
    for i in range(terms):
        num *= 1.0 - t * u * q ** i
        den *= 1.0 - q * u * q ** i
    return num / den


def psi_truncated_oracle(kappa, nu, q, t):
    """Direct evaluation of the horizontal-strip coefficient from its
    definition via truncated infinite products (float)."""
    m = len(kappa)
    val = 1.0
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            b = float(t) ** (j - i)
            val *= truncated_f(float(q) ** (kappa[i - 1] - kappa[j - 1]) * b, float(q), float(t))
            val *= truncated_f(float(q) ** (nu[i - 1] - nu[j]) * b, float(q), float(t))
            val /= truncated_f(float(q) ** (nu[i - 1] - kappa[j - 1]) * b, float(q), float(t))
            val /= truncated_f(float(q) ** (kappa[i - 1] - nu[j]) * b, float(q), float(t))
    return val


class TestBranchPsi:
    def test_schur_mode_is_one(self):
        assert branch_psi((2,), (3, 1), SCHUR) == 1
        assert branch_psi((2, 1), (3, 1), MacParams(F(1, 2), F(1, 2))) == 1

    def test_empty_strip(self):
        assert branch_psi((2, 1), (2, 1), QT) == 1

    def test_not_a_strip_is_zero(self):
        assert branch_psi((3,), (2, 2), QT) == 0
        assert branch_psi((1, 1), (3, 3), QT) == 0  # two boxes in columns 2 and 3

    def test_against_truncated_product_oracle(self):
        cases = [((0,), (1, 0)), ((2,), (3, 1)), ((2, 1), (4, 2, 0)), ((3, 1), (3, 2, 1))]
        for kappa, nu in cases:
            exact = float(branch_psi(kappa, nu, QT))
            oracle = psi_truncated_oracle(kappa, nu, QT.q, QT.t)
            assert exact == pytest.approx(oracle, rel=1e-10), (kappa, nu)

    def test_translation_invariance(self):
        rnd = random.Random(0)
        for _ in range(50):
            k = rnd.randint(1, 4)
            lam = tuple(sorted((rnd.randint(-5, 5) for _ in range(k)), reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            v1 = branch_psi(nb, lam, QT)
            v2 = branch_psi(tuple(c + 1 for c in nb), tuple(c + 1 for c in lam), QT)
            assert v1 == v2

    def test_equal_length_matches_padding(self):
        # partition-style psi must not depend on how many zeros are appended
        assert branch_psi((1, 0), (2, 1), QT) == branch_psi((1, 0, 0), (2, 1, 0), QT)


class TestBranchPhi:
    def test_trivial_cases(self):
        assert branch_phi((2, 1), (2, 1), QT) == 1
        assert branch_phi((2,), (3, 1), SCHUR) == 1

    def test_one_box_closed_form(self):
        # phi_{(1)/empty} = (1 - t)/(1 - q)
        assert branch_phi((), (1,), QT) == (1 - QT.t) / (1 - QT.q)

    def test_one_row_closed_form(self):
        # phi_{(n)/empty} = prod_{i=1}^{n} (1 - t q^{i-1}) / (1 - q^i)
        q, t = QT.q, QT.t
        for n in range(1, 5):
            expect = F(1)
            for i in range(1, n + 1):
                expect *= (1 - t * q ** (i - 1)) / (1 - q ** i)
            assert branch_phi((), (n,), QT) == expect

    @staticmethod
    def b_norm(lam, q, t):
        """Independent oracle: b_lam as the arm/leg product over cells."""
        lam = [c for c in lam if c]
        conj = [sum(1 for c in lam if c > j) for j in range(lam[0])] if lam else []
        out = F(1)
        for i, row in enumerate(lam, start=1):
            for j in range(1, row + 1):
                arm, leg = row - j, conj[j - 1] - i
                out *= (1 - q ** arm * t ** (leg + 1)) / (1 - q ** (arm + 1) * t ** leg)
        return out

    def test_Q_equals_b_times_P(self):
        # the phi weights must globally reproduce Q = b_lam P; b comes from an
        # independent arm/leg product
        xs = (F(1, 2), F(3, 7))
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
            lhs = skew_Q(lam, (), xs, QT)
            rhs = self.b_norm(lam, QT.q, QT.t) * skew_P(lam, (), xs, QT)
            assert lhs == rhs, lam

    def test_skew_Q_equal_length_b_ratio(self):
        lhs = skew_Q((2, 1), (1, 0), (F(1, 3),), QT)
        ratio = self.b_norm((2, 1), QT.q, QT.t) / self.b_norm((1,), QT.q, QT.t)
        assert lhs == ratio * skew_P((2, 1), (1, 0), (F(1, 3),), QT)


# (q, t) points for the kernel: generic, t = 0, q = 0 (negative powers of q
# divide by zero), q = t**2 and q = t (coincidences that make factors vanish)
KERNEL_POINTS = [
    (F(1, 2), F(1, 3)), (F(1, 2), F(0)), (F(0), F(1, 3)), (F(0), F(0)),
    (F(1, 4), F(1, 2)), (F(1, 9), F(1, 3)), (F(1, 3), F(1, 3)), (F(2, 3), F(3, 5)),
]


def _kernel_outcome(fn, *args):
    """The value with its type, floats by their bits, or the exception type."""
    try:
        value = fn(*args)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return type(value), (value.hex() if isinstance(value, float) else value)


class TestFactorProduct:
    @pytest.mark.parametrize("point", KERNEL_POINTS, ids=str)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_matches_counter_twin(self, point, exact):
        q, t = point if exact else map(float, point)
        keys = [(a, b) for a in range(-2, 4) for b in range(-1, 3)]
        rnd = random.Random(f"{point}{exact}")
        outcomes = set()
        for _ in range(1500):
            num = [rnd.choice(keys) for _ in range(rnd.randint(0, 7))]
            den = [rnd.choice(keys) for _ in range(rnd.randint(0, 7))]
            got = _kernel_outcome(factor_product, net_exponents(num, den), q, t)
            want = _kernel_outcome(
                reference_factor_product, Counter(num), Counter(den), q, t)
            assert got == want, (num, den)
            outcomes.add(got if isinstance(got, str) else got[1] == 0)
        assert False in outcomes  # nonzero values were compared

    def test_vanishing_factors_in_map_order(self):
        # at q = t the factor (1 - q t^-1) vanishes: first in the map decides
        for q, t in [(F(1, 3), F(1, 3)), (1 / 3, 1 / 3)]:
            assert factor_product({(1, -1): 1, (0, 0): -1}, q, t) == 0
            with pytest.raises(ZeroDivisionError):
                factor_product({(0, 0): -1, (1, -1): 1}, q, t)
            assert factor_product({(1, -1): 0, (0, 0): 0}, q, t) == 1  # cancelled keys

    @pytest.mark.parametrize("point", KERNEL_POINTS, ids=str)
    def test_memo_gives_the_same_bits(self, point):
        q, t = map(float, point)
        memo = MacParams(q, t).factors
        keys = [(a, b) for a in range(-2, 4) for b in range(-1, 3)]
        rnd = random.Random(f"{point}memo")
        for _ in range(500):
            num = [rnd.choice(keys) for _ in range(rnd.randint(0, 7))]
            den = [rnd.choice(keys) for _ in range(rnd.randint(0, 7))]
            net = net_exponents(num, den)
            assert _kernel_outcome(factor_product, net, q, t, memo) == (
                _kernel_outcome(factor_product, net, q, t)), (num, den)
        assert all(v != 0 and v == 1.0 - q ** a * t ** b for (a, b), v in memo.items())

    def test_memo_is_bounded(self):
        params = MacParams(0.5, 0.3)
        memo, bound = params.factors, md._FACTOR_MEMO_SIZE
        net = {(a, b): 1 for a in range(1, bound // 4 + 30) for b in range(1, 5)}
        assert len(net) > bound
        value = factor_product(net, 0.5, 0.3, memo)
        assert value.hex() == factor_product(net, 0.5, 0.3).hex()
        assert len(memo) == bound
        later = list(net)[bound:]  # the keys that found the memo full
        assert not any(key in memo for key in later)
        assert factor_product(net, 0.5, 0.3, memo).hex() == value.hex()
        for a, b in later:
            assert factor_product({(a, b): 1}, 0.5, 0.3, memo) == 1.0 - 0.5 ** a * 0.3 ** b
        assert len(memo) == bound
        assert MacParams(F(1, 2), F(1, 3)).factors is None  # exact: fraction-free, no memo

    def test_exact_path_builds_one_fraction(self):
        net = net_exponents([(1, 0), (2, 1), (-1, 2)], [(0, 1), (2, 1)])
        assert net == {(1, 0): 1, (2, 1): 0, (-1, 2): 1, (0, 1): -1}
        value = factor_product(net, F(1, 2), F(1, 3))
        assert value == F(1, 2) * (1 - F(2, 9)) / F(2, 3) and type(value) is F


class TestPsiPrime:
    def test_first_index_is_one(self):
        assert psi_prime_one_box((5, 2, 2), 1, QT) == 1

    def test_derived_value(self):
        assert psi_prime_one_box((2, 0), 2, QW) == F(3, 4)

    def test_schur_mode(self):
        assert psi_prime_one_box((4, 2, 1), 3, MacParams(F(1, 3), F(1, 3))) == 1

    def test_blocked_raises(self):
        with pytest.raises(BlockedMove):
            psi_prime_one_box((2, 2), 2, QT)

    def test_vertical_trivial(self):
        assert psi_prime_vertical((2, 1), (2, 1), QT) == 1
        assert psi_prime_vertical((2, 0), (2, 2), QT) == 0  # not a vertical strip

    def test_vertical_matches_one_box(self):
        for mu in [(0, 0), (2, 0), (3, 1), (4, 4, 1)]:
            for j in range(1, len(mu) + 1):
                if j > 1 and mu[j - 1] >= mu[j - 2]:
                    continue
                lam = mu[:j - 1] + (mu[j - 1] + 1,) + mu[j:]
                assert psi_prime_vertical(mu, lam, QT) == psi_prime_one_box(mu, j, QT)


class TestMacP:
    def test_two_variable_closed_form(self):
        # P_(2)(x, y) = x^2 + y^2 + (1+q)(1-t)/(1-qt) xy
        q, t = QT.q, QT.t
        x, y = F(2), F(5, 3)
        expect = x ** 2 + y ** 2 + (1 + q) * (1 - t) / (1 - q * t) * x * y
        assert mac_P((2,), (x, y), QT) == expect

    def test_short_signature_padding(self):
        assert mac_P((2, 1), (F(1), F(2), F(3)), QT) == mac_P((2, 1, 0), (F(1), F(2), F(3)), QT)

    def test_too_long_is_zero(self):
        assert mac_P((1, 1, 1), (F(1), F(2)), QT) == 0

    def test_negative_parts_index_shift(self):
        a = (F(2), F(3))
        assert mac_P((1, -1), a, QT) == mac_P((2, 0), a, QT) / (a[0] * a[1])

    def test_schur_values(self):
        assert schur_s((1, 0), (1, 1)) == 2
        assert schur_s((2, 0), (1, 1)) == 3
        assert schur_s((1, 1), (1, 1)) == 1
        assert schur_s((2, 1), (1, 1, 1)) == 8

    def test_single_dual_cauchy(self):
        # sum_lam P_lam(a) Q_lam(beta-hat) = prod(1 + a_i beta); only columns
        # survive, so the sum is finite and the identity is exact.
        a = (F(1, 2), F(1, 3), F(2, 5))
        beta = F(3, 7)
        total = 0
        for m in range(len(a) + 1):
            lam = (1,) * m
            qv = psi_prime_vertical((0,) * m, lam, QT) * beta ** m if m else F(1)
            total += mac_P(lam, a, QT) * qv
        assert total == pi_dual(a, beta)

    def test_thread_safety_of_cache(self):
        a = (F(1), F(2), F(3))

        def work(_):
            return mac_P((3, 2, 1), a, QT)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        assert len(set(results)) == 1

    def test_cache_keeps_exact_and_float_apart(self):
        want = mac_P((2, 1, 0), (1.0, 0.5, 0.25), MacParams(0.5, 0.25))
        mac_P((2, 1, 0), (F(1), F(1, 2), F(1, 4)), MacParams(F(1, 2), F(1, 4)))
        got = mac_P((2, 1, 0), (1.0, 0.5, 0.25), MacParams(0.5, 0.25))
        assert type(got) is float and got == want

    def test_dropping_the_owner_frees_its_memo(self):
        import gc
        import weakref

        P = MacdonaldP((F(1), F(2), F(3)), QT)
        assert P((3, 2, 1)) == mac_P((3, 2, 1), P.a, QT)
        assert P._memo
        # the owner is the memo's only referrer, so the memo dies with it
        assert gc.get_referrers(P._memo) == [P]
        owner = weakref.ref(P)
        del P
        gc.collect()
        assert owner() is None


class TestSkew:
    def test_identity_strip(self):
        assert skew_P((2, 1), (2, 1), (F(5),), QT) == 1

    def test_single_box(self):
        x = F(4, 3)
        assert skew_P((1,), (), (x,), QT) == x

    def test_one_variable_equals_psi(self):
        for lam in itertools.combinations_with_replacement(range(3, -1, -1), 3):
            if sum(lam) > 6:
                continue
            for mu in interlacing_predecessors(lam):
                x = F(2, 7)
                expect = branch_psi(mu, lam, QT) * x ** (sum(lam) - sum(mu))
                assert skew_P(lam, mu, (x,), QT) == expect

    def test_branching_consistency(self):
        xs = (F(1, 2), F(2), F(3, 5))
        assert skew_P((2, 1, 0), (), xs, QT) == mac_P((2, 1), xs, QT)

    def test_no_tableau_is_zero(self):
        assert skew_P((1, 1), (2, 0), (F(1),), QT) == 0

    @pytest.mark.parametrize("q,t", [(F(1, 2), F(1, 3)), (F(1, 2), F(0)), (F(1, 3), F(1, 3))])
    def test_tableau_sum_matches_the_recursive_twin(self, q, t):
        # every lam with |lam| <= 4 and mu below it, with mu's columns padded
        # to len(lam) and with mu unpadded (the trapezoid convention), at 0-3
        # variables, and with no variable a lam that carries a zero: the same
        # exact value, or the same exception type
        params = MacParams(q, t)
        xs = (F(1, 2), F(3, 7), F(5, 3))
        for lam in partitions_up_to(4):
            for mu in sub_partitions(lam):
                for m in range(4):
                    shapes = [(lam, mu + (0,) * (len(lam) - len(mu))), (lam, mu)]
                    if m == 0:
                        shapes.append((lam + (0,), mu))
                    for (lam_c, mu_c), (skew, coeff) in itertools.product(
                            shapes, ((skew_P, branch_psi), (skew_Q, branch_phi))):
                        got = value_or_raised(skew, lam_c, mu_c, xs[:m], params)
                        want = value_or_raised(
                            reference_skew_eval, lam_c, mu_c, xs[:m], params, coeff)
                        assert got == want and type(got) is type(want), (lam_c, mu_c, m)


class TestLinksAndRates:
    def test_uniform_links_are_dimension_ratios(self):
        # Schur, a = (1, 1): weights 1/2 on each predecessor of (1, 0)
        P = MacdonaldP((F(1), F(1)), SCHUR)
        w0 = link_weight((1, 0), (0,), P)
        w1 = link_weight((1, 0), (1,), P)
        assert w0 == w1 == F(1, 2)

    def test_unique_predecessor(self):
        assert link_weight((0, 0), (0,), MacdonaldP((F(1), F(2)), QT)) == 1

    def test_row_stochastic_random(self):
        rnd = random.Random(1)
        for _ in range(25):
            k = rnd.randint(2, 4)
            lam = tuple(sorted((rnd.randint(0, 4) for _ in range(k)), reverse=True))
            a = tuple(F(rnd.randint(1, 4), rnd.randint(1, 3)) for _ in range(k))
            P = MacdonaldP(a, QT)
            total = sum(link_weight(lam, nb, P) for nb in interlacing_predecessors(lam))
            assert total == 1

    def test_translation_invariance(self):
        a = (F(1), F(2))
        P = MacdonaldP(a, QT)
        v1 = link_weight((3, 1), (2,), P)
        v2 = link_weight((4, 2), (3,), P)
        assert v1 == v2

    def test_rate_level_one(self):
        rates, diag = univariate_rates((7,), MacdonaldP((F(3),), QT))
        assert rates == [(1, F(3))] and diag == -3

    def test_rate_sum_equals_drift_sum(self):
        rnd = random.Random(2)
        for _ in range(25):
            k = rnd.randint(1, 4)
            lam = tuple(sorted((rnd.randint(0, 5) for _ in range(k)), reverse=True))
            a = tuple(F(rnd.randint(1, 4), rnd.randint(1, 3)) for _ in range(k))
            rates, diag = univariate_rates(lam, MacdonaldP(a, QT))
            assert sum(r for _, r in rates) == sum(a) == -diag

    def test_schur_rates_example(self):
        rates, _ = univariate_rates((1, 0), MacdonaldP((F(1), F(1)), SCHUR))
        table = dict(rates)
        assert table[1] == schur_s((2, 0), (1, 1)) / schur_s((1, 0), (1, 1))
        assert table[2] == schur_s((1, 1), (1, 1)) / schur_s((1, 0), (1, 1))
        assert sum(table.values()) == 2


class TestPUp:
    def test_row_sums(self):
        rnd = random.Random(3)
        for _ in range(20):
            k = rnd.randint(1, 4)
            lam = tuple(sorted((rnd.randint(0, 5) for _ in range(k)), reverse=True))
            a = tuple(F(rnd.randint(1, 3), rnd.randint(1, 3)) for _ in range(k))
            beta = F(rnd.randint(1, 3), rnd.randint(3, 7))
            assert sum(p_up_row(lam, MacdonaldP(a, QT), beta).values()) == 1

    def test_diagonal_entry(self):
        a = (F(1), F(2))
        beta = F(1, 3)
        assert p_up((3, 1), (3, 1), MacdonaldP(a, QT), beta) == 1 / pi_dual(a, beta)

    def test_commutes_with_links(self):
        from helpers import p_up_link_commutation

        a = (F(1), F(2), F(1, 2))
        for lam in [(0, 0, 0), (2, 1, 0), (3, 3, 1)]:
            for nb in interlacing_predecessors(lam):
                assert p_up_link_commutation(lam, nb, a, F(1, 4), QT)


class TestSchurPlancherel:
    def test_poisson(self):
        for n in range(5):
            assert schur_plancherel_measure((n,), (1,), 1.0) == pytest.approx(
                math.exp(-1) / math.factorial(n)
            )

    def test_empty_shape(self):
        assert schur_plancherel_measure((0, 0), (1, 1), 0.7) == pytest.approx(math.exp(-1.4))

    def test_two_particle_value(self):
        assert schur_plancherel_coefficient((1, 0), (F(1), F(1))) == 2
        assert schur_plancherel_measure((1, 0), (1, 1), 0.5) == pytest.approx(
            2 * 0.5 * math.exp(-1.0)
        )

    def test_dim_against_hook_lengths(self):
        def hooks(lam):
            lam = [c for c in lam if c]
            conj = [sum(1 for c in lam if c > j) for j in range(lam[0])] if lam else []
            n = sum(lam)
            prod = 1
            for i, row in enumerate(lam):
                for j in range(row):
                    prod *= row - j + conj[j] - i - 1
            return math.factorial(n) // prod

        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 2), (3, 2, 1), (4, 2, 1)]:
            assert dim_standard(lam) == hooks(lam)


def test_psi_prime_translation_invariance():
    for mu, j in [((3, 1), 2), ((5, 2, 0), 3), ((4, 4, 1), 3)]:
        shifted = tuple(c + 2 for c in mu)
        assert psi_prime_one_box(mu, j, QT) == psi_prime_one_box(shifted, j, QT)
    assert psi_prime_vertical((2, 1), (3, 2), QT) == psi_prime_vertical((4, 3), (5, 4), QT)

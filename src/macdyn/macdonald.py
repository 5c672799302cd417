"""Macdonald polynomial kernel: branching coefficients, skew polynomials,
stochastic links, univariate jump rates, the one-step Markov operator, and
the Schur/Plancherel closed forms.

All coefficient formulas are ratios of products f(q^a t^b) with
f(u) = (tu;q)_inf / (qu;q)_inf.  Because every exponent is an integer, the
infinite q-Pochhammer symbols cancel down to finite products of factors
(1 - q^x t^y); `_pochhammer_ledger` performs that cancellation symbolically
on the exponents, so evaluation is exact over Fractions and never touches an
infinite product.

Every such product goes through one kernel, `factor_product`, which takes
the net exponent map {(a, b): multiplicity} (`net_exponents` builds it from
numerator and denominator factor lists).  On exact parameters it multiplies
integer numerators and denominators and builds a single Fraction at the
end; on floats it multiplies the factors in the map's order, looking each
factor 1 - q^a t^b up in a memo keyed by (a, b).  The memo is owned by the
`MacParams` (`MacParams.factors`; exact parameters have none), holds at most
_FACTOR_MEMO_SIZE = 2^15 nonzero factors (a factor past the bound is
recomputed on every use) and is freed with the params.

Polynomial values are memoized by a `MacdonaldP` owner, for one drift
vector and parameter point, as long as it lives; there is no process-wide
cache.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .arrays import (
    Signature,
    check_signature,
    horizontal_strip,
    interlaces,
    interlacing_predecessors,
    skew_chains,
    vertical_strip,
)
from .errors import BlockedMove, InvalidInput

_EXACT_TYPES = (int, Fraction)
_FACTOR_MEMO_SIZE = 1 << 15  # entries of a float factor memo; later ones are recomputed on use


@dataclass(frozen=True)
class MacParams:
    """The two deformation parameters, 0 <= q, t < 1.

    Mode is inferred: q == t gives the Schur case (all branching coefficients
    are indicators), t == 0 the q-Whittaker case, anything else is general.
    """

    q: object
    t: object

    def __post_init__(self):
        if not (0 <= self.q < 1 and 0 <= self.t < 1):
            raise InvalidInput(f"parameters must lie in [0,1): q={self.q}, t={self.t}")

    # mode, is_exact and one() are read on every slice quantity, so each is
    # computed once per params object
    @cached_property
    def mode(self) -> str:
        if self.q == self.t:
            return "schur"
        if self.t == 0:
            return "q-whittaker"
        return "general"

    @cached_property
    def is_exact(self) -> bool:
        return isinstance(self.q, _EXACT_TYPES) and isinstance(self.t, _EXACT_TYPES)

    @cached_property
    def _one(self):
        return Fraction(1) if self.is_exact else 1.0

    def one(self):
        return self._one

    @cached_property
    def factors(self) -> dict | None:
        """Memo {(a, b): 1 - q^a t^b} of the float factors that
        `factor_product` evaluated at these parameters, at most
        _FACTOR_MEMO_SIZE entries; None for exact parameters, which are
        evaluated fraction-free."""
        return None if self.is_exact else {}


SCHUR = MacParams(0, 0)


# --- exact evaluation of f-products ------------------------------------------

def net_exponents(num, den) -> dict:
    """The net exponent map {(a, b): multiplicity} of the factors listed in
    num over those listed in den; keys keep their first appearance, numerator
    keys first, and cancelled keys stay with multiplicity 0."""
    net: dict = {}
    for key in num:
        net[key] = net.get(key, 0) + 1
    for key in den:
        net[key] = net.get(key, 0) - 1
    return net


def factor_product(net: dict, q, t, memo: dict | None = None):
    """prod (1 - q^a t^b)^mult over the net exponent map {(a, b): mult}.

    Common exponent pairs cancel in the map before evaluation, so
    coincidences like t**2 == q never produce 0/0.  A vanishing factor with
    positive multiplicity gives exact 0; one with negative multiplicity
    raises ZeroDivisionError.  Factors are taken in the map's order.

    Exact parameters are evaluated fraction-free: with q = qn/qd and
    t = tn/td every factor is an integer ratio (a negative exponent swaps
    numerator and denominator), so one Fraction is built at the end.

    A memo, as `MacParams.factors` gives one, marks inexact parameters: the
    float path then looks factors up in it by (a, b) and enters a nonzero
    one while it holds fewer than _FACTOR_MEMO_SIZE entries.  memo must
    belong to this (q, t).  Without one, the types of q and t choose the
    path and every factor is computed.
    """
    if memo is None and isinstance(q, _EXACT_TYPES) and isinstance(t, _EXACT_TYPES):
        qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
        num = den = 1
        for (a, b), mult in net.items():
            if not mult:
                continue
            xn, xd = (qn ** a, qd ** a) if a >= 0 else (qd ** -a, qn ** -a)
            if b:
                xn, xd = (xn * tn ** b, xd * td ** b) if b > 0 else (xn * td ** -b, xd * tn ** -b)
            if not xd:
                raise ZeroDivisionError(f"q^{a} t^{b} with q = {q}, t = {t}")
            if xn == xd:
                if mult > 0:
                    return Fraction(0)
                raise ZeroDivisionError(f"vanishing denominator factor (1 - q^{a} t^{b})")
            if mult > 0:
                num *= (xd - xn) ** mult
                den *= xd ** mult
            else:
                num *= xd ** -mult
                den *= (xd - xn) ** -mult
        return Fraction(num, den)
    if memo is None:
        memo = {}
    get = memo.get
    result = 1.0
    for key, mult in net.items():
        if not mult:
            continue
        factor = get(key)
        if factor is None:  # vanishing factors are never entered
            a, b = key
            factor = 1.0 - q ** a * t ** b
            if factor == 0:
                if mult > 0:
                    return 0.0
                raise ZeroDivisionError(f"vanishing denominator factor (1 - q^{a} t^{b})")
            if len(memo) < _FACTOR_MEMO_SIZE:
                memo[key] = factor
        result *= factor if mult == 1 else factor ** mult
    return result


def _pochhammer_ledger(entries, params: MacParams):
    """Evaluate prod_i ((q^{a_i} t^{b_i}; q)_inf)^{s_i} given that the signed
    entries telescope to a finite product of (1 - q^x t^y) factors.

    entries: iterable of (a, b, s).  Entries are grouped by the t-exponent;
    within each group the net multiplicity of (1 - q^x t^b) is the running sum
    of signs over a_i <= x, which must return to zero past the largest a_i.
    Every key lands in exactly one interval, so the numerator and denominator
    parts of the net map are disjoint.
    """
    groups: dict[int, Counter] = defaultdict(Counter)
    for a, b, s in entries:
        groups[b][a] += s
    num: dict = {}
    den: dict = {}
    for b, ctr in groups.items():
        xs = sorted(x for x, c in ctr.items() if c)
        if not xs:
            continue
        running = 0
        for pos, x in enumerate(xs):
            running += ctr[x]
            if pos + 1 == len(xs):
                if running != 0:
                    raise ArithmeticError("q-Pochhammer product does not terminate")
                break
            if running:
                part = num if running > 0 else den
                for e in range(x, xs[pos + 1]):
                    part[(e, b)] = running
    num.update(den)
    return factor_product(num, params.q, params.t, params.factors)


def _f_entries(a: int, b: int, sign: int):
    """f(q^a t^b) = (q^a t^{b+1}; q)_inf / (q^{a+1} t^b; q)_inf."""
    return ((a, b + 1, sign), (a + 1, b, -sign))


# --- branching coefficients psi, phi, psi' ------------------------------------

def _shift_to_partitions(kappa: Signature, nu: Signature):
    """Translate two equal-length signatures up so both are partitions."""
    shift = -min(min(kappa, default=0), min(nu, default=0), 0)
    return tuple(c + shift for c in kappa), tuple(c + shift for c in nu)


def branch_psi(kappa: Sequence[int], nu: Sequence[int], params: MacParams):
    """psi_{nu/kappa}(q, t) for a horizontal strip nu/kappa; 0 otherwise.

    Accepts len(kappa) == len(nu) - 1 (interlacing rows of an array) or equal
    lengths (partition-style skew row).  Translation invariant.
    """
    kappa = check_signature(kappa)
    nu = check_signature(nu)
    if len(kappa) == len(nu) - 1:
        if not interlaces(kappa, nu):
            return 0 * params.one()
        if params.mode == "schur":
            return params.one()
        entries = []
        m = len(kappa)
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                b = j - i
                entries.extend(_f_entries(kappa[i - 1] - kappa[j - 1], b, +1))
                entries.extend(_f_entries(nu[i - 1] - nu[j], b, +1))
                entries.extend(_f_entries(nu[i - 1] - kappa[j - 1], b, -1))
                entries.extend(_f_entries(kappa[i - 1] - nu[j], b, -1))
        return _pochhammer_ledger(entries, params)
    if len(kappa) == len(nu):
        if not horizontal_strip(kappa, nu):
            return 0 * params.one()
        if params.mode == "schur":
            return params.one()
        # the first ell + 1 rows of the partition picture as interlacing rows
        kap, new = _shift_to_partitions(kappa, nu)
        ell = sum(1 for c in kap if c > 0)
        return branch_psi(kap[:ell], (new + (0,))[:ell + 1], params)
    raise InvalidInput("branch_psi expects len(kappa) in {len(nu), len(nu) - 1}")


def branch_phi(kappa: Sequence[int], nu: Sequence[int], params: MacParams):
    """phi_{nu/kappa}(q, t) for a horizontal strip; 0 otherwise.

    Defined through the partition picture, so negative parts are only allowed
    for equal-length inputs (handled by translation).
    """
    kappa = check_signature(kappa)
    nu = check_signature(nu)
    if len(kappa) == len(nu) - 1:
        if not interlaces(kappa, nu):
            return 0 * params.one()
        if (kappa and kappa[-1] < 0) or nu[-1] < 0:
            raise InvalidInput("branch_phi with mixed lengths needs nonnegative parts")
        kap, new = tuple(kappa), tuple(nu)
    elif len(kappa) == len(nu):
        if not horizontal_strip(kappa, nu):
            return 0 * params.one()
        kap, new = _shift_to_partitions(kappa, nu)
    else:
        raise InvalidInput("branch_phi expects len(kappa) in {len(nu), len(nu) - 1}")
    if params.mode == "schur":
        return params.one()
    ell = sum(1 for c in new if c > 0)
    kap = kap + (0,) * (ell + 2 - len(kap))
    new = new + (0,) * (ell + 2 - len(new))
    entries = []
    for i in range(1, ell + 1):
        for j in range(i, ell + 1):
            b = j - i
            entries.extend(_f_entries(new[i - 1] - new[j - 1], b, +1))
            entries.extend(_f_entries(kap[i - 1] - kap[j], b, +1))
            entries.extend(_f_entries(new[i - 1] - kap[j - 1], b, -1))
            entries.extend(_f_entries(kap[i - 1] - new[j], b, -1))
    return _pochhammer_ledger(entries, params)


def psi_prime_vertical(mu: Sequence[int], lam: Sequence[int], params: MacParams):
    """psi'_{lam/mu} for a vertical strip lam/mu (equal lengths); 0 otherwise."""
    mu = check_signature(mu)
    lam = check_signature(lam)
    if len(mu) != len(lam):
        raise InvalidInput("psi_prime_vertical expects equal lengths")
    if not all(lam[i] - mu[i] in (0, 1) for i in range(len(mu))):
        return 0 * params.one()
    if params.mode == "schur":
        return params.one()
    num = []
    den = []
    n = len(mu)
    for i in range(1, n + 1):
        if lam[i - 1] != mu[i - 1]:
            continue
        for j in range(i + 1, n + 1):
            if lam[j - 1] != mu[j - 1] + 1:
                continue
            num += ((mu[i - 1] - mu[j - 1], j - i - 1), (lam[i - 1] - lam[j - 1], j - i + 1))
            den += ((mu[i - 1] - mu[j - 1], j - i), (lam[i - 1] - lam[j - 1], j - i))
    return factor_product(net_exponents(num, den), params.q, params.t, params.factors)


def psi_prime_one_box(mu: Sequence[int], j: int, params: MacParams):
    """psi'_{mu + e_j / mu}; raises BlockedMove when the box cannot be added."""
    mu = check_signature(mu)
    if not 1 <= j <= len(mu):
        raise InvalidInput(f"index {j} out of range")
    if j > 1 and mu[j - 1] >= mu[j - 2]:
        raise BlockedMove(f"coordinate {j} of {mu} is blocked")
    if params.mode == "schur":
        return params.one()
    num = []
    den = []
    for i in range(1, j):
        d = mu[i - 1] - mu[j - 1]
        num += ((d, j - i - 1), (d - 1, j - i + 1))
        den += ((d, j - i), (d - 1, j - i))
    return factor_product(net_exponents(num, den), params.q, params.t, params.factors)


# --- Macdonald polynomial evaluation ------------------------------------------

def _strip_zeros(lam: Signature) -> Signature:
    n = len(lam)
    while n and lam[n - 1] == 0:
        n -= 1
    return lam[:n]


class MacdonaldP:
    """P_lambda(a_1, ..., a_n; q, t) for one drift vector a, its prefixes
    n <= len(a) and one parameter point, by the branching rule.  Values are
    memoized on the owner and freed with it."""

    def __init__(self, a: Sequence, params: MacParams):
        self.a = tuple(a)
        self.params = params
        # (lam, n) -> P_lam(a_1..a_n); with no variables only lam = () is left
        self._memo: dict = {((), 0): params.one()}

    def __call__(self, lam: Sequence[int], n: int | None = None):
        """P_lam(a_1..a_n), n = len(a) by default.  Negative parts need
        len(lam) == n and go through the shift P_{lam+1} = (prod a_i) P_lam."""
        lam = check_signature(lam)
        n = len(self.a) if n is None else n
        if lam and lam[-1] < 0:
            if len(lam) != n:
                raise InvalidInput("negative parts need exactly len(lam) variables")
            shift = -lam[-1]
            prod_a = self.params.one()
            for v in self.a[:n]:
                prod_a *= v
            return self(tuple(c + shift for c in lam), n) / prod_a ** shift
        lam = _strip_zeros(lam)
        if len(lam) > n:
            return 0 * self.params.one()
        return self._rec(lam, n)

    def _rec(self, lam: Signature, n: int):
        total = self._memo.get((lam, n))
        if total is None:
            padded = lam + (0,) * (n - len(lam))
            total = 0 * self.params.one()
            weight, x = sum(lam), self.a[n - 1]
            for mu in interlacing_predecessors(padded):
                psi = branch_psi(mu, padded, self.params)
                if psi != 0:
                    total += psi * x ** (weight - sum(mu)) * self._rec(_strip_zeros(mu), n - 1)
            self._memo[lam, n] = total
        return total


def mac_P(lam: Sequence[int], a: Sequence, params: MacParams):
    """P_lambda(a_1, ..., a_n; q, t) on a MacdonaldP made for this call."""
    return MacdonaldP(a, params)(lam)


def schur_s(lam: Sequence[int], a: Sequence):
    """Schur polynomial s_lambda(a) (the q = t degeneration)."""
    return mac_P(lam, a, SCHUR)


def skew_P(lam: Sequence[int], mu: Sequence[int], xs: Sequence, params: MacParams):
    """Skew Macdonald polynomial P_{lam/mu}(x_1, ..., x_m) as a tableau sum."""
    return _skew_eval(check_signature(lam), check_signature(mu), tuple(xs), params, branch_psi)


def skew_Q(lam: Sequence[int], mu: Sequence[int], xs: Sequence, params: MacParams):
    """Skew Macdonald polynomial Q_{lam/mu}(x_1, ..., x_m) (phi weights)."""
    return _skew_eval(check_signature(lam), check_signature(mu), tuple(xs), params, branch_phi)


def _skew_eval(lam, mu, xs, params, coeff):
    """Sum over the skew tableaux of shape lam/mu (`skew_chains`) of the
    product, strip by strip, of coeff and x_i^(boxes of letter i)."""
    if not xs:
        same = _strip_zeros(lam) == _strip_zeros(mu) if (
            (not lam or lam[-1] >= 0) and (not mu or mu[-1] >= 0)
        ) else lam == mu
        return params.one() if same else 0 * params.one()
    total = 0 * params.one()
    for chain in skew_chains(lam, mu, len(xs)):
        term = params.one()
        for x, lower, upper in zip(xs, chain.rows, chain.rows[1:]):
            term *= coeff(lower, upper, params) * x ** (sum(upper) - sum(lower))
        total += term
    return total


# --- stochastic links, univariate rates, one-step operator --------------------

def link_weight(lam: Sequence[int], nu_bar: Sequence[int], P: MacdonaldP):
    """Entry of the stochastic link from level k to level k-1.

    P_{nu_bar}(a_1..a_{k-1}) P_{lam/nu_bar}(a_k) / P_lam(a_1..a_k) when
    nu_bar < lam, else 0, at the drifts and parameters of P.  Row sums over
    nu_bar equal 1.
    """
    lam = check_signature(lam)
    nu_bar = check_signature(nu_bar)
    a, params = P.a, P.params
    if len(a) != len(lam) or len(nu_bar) != len(lam) - 1:
        raise InvalidInput("link_weight expects len(a) == len(lam) == len(nu_bar) + 1")
    if not all(v > 0 for v in a):
        raise InvalidInput("variables a must be positive")
    if not interlaces(nu_bar, lam):
        return 0 * params.one()
    psi = branch_psi(nu_bar, lam, params)
    return P(nu_bar, len(a) - 1) * psi * a[-1] ** (sum(lam) - sum(nu_bar)) / P(lam)


def univariate_rates(lam: Sequence[int], P: MacdonaldP):
    """Jump rates of the level-k generator at the drifts and parameters of P:
    list of (j, rate) for each admissible box addition, plus the constant
    diagonal -sum(a)."""
    lam = check_signature(lam)
    a, params = P.a, P.params
    if len(a) != len(lam):
        raise InvalidInput("univariate_rates expects len(a) == len(lam)")
    p_lam = P(lam)
    rates = []
    for j in range(1, len(lam) + 1):
        if j > 1 and lam[j - 1] >= lam[j - 2]:
            continue
        up = lam[:j - 1] + (lam[j - 1] + 1,) + lam[j:]
        rate = P(up) / p_lam * psi_prime_one_box(lam, j, params)
        rates.append((j, rate))
    return rates, -sum(a)


def pi_dual(a: Sequence, beta):
    """Normalizing constant for a single dual variable: prod (1 + a_i beta)."""
    out = 1
    for v in a:
        out = out * (1 + v * beta)
    return out


def p_up(lam: Sequence[int], mu: Sequence[int], P: MacdonaldP, beta):
    """One step of the Markov operator driven by a single dual variable, at
    the drifts and parameters of P.

    Nonzero only when mu/lam is a vertical strip; rows sum to one.
    """
    lam = check_signature(lam)
    mu = check_signature(mu)
    a, params = P.a, P.params
    if len(lam) != len(a) or len(mu) != len(a):
        raise InvalidInput("p_up expects len(lam) == len(mu) == len(a)")
    if not vertical_strip(lam, mu):
        return 0 * params.one()
    q_part = psi_prime_vertical(lam, mu, params) * beta ** (sum(mu) - sum(lam))
    return P(mu) / P(lam) * q_part / pi_dual(a, beta)


def p_up_row(lam: Sequence[int], P: MacdonaldP, beta):
    """All nonzero entries of the p-up row at lam, as {mu: weight}."""
    lam = check_signature(lam)
    out = {}
    for bumps in itertools.product((0, 1), repeat=len(lam)):
        mu = tuple(lam[i] + bumps[i] for i in range(len(lam)))
        if all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1)):
            w = p_up(lam, mu, P, beta)
            if w != 0:
                out[mu] = w
    return out


# --- Schur / Plancherel closed forms ------------------------------------------

def dim_standard(lam: Sequence[int]) -> int:
    """Number of standard tableaux of the given (nonnegative) shape: the sum
    over its removable boxes of the count for the shape without that box,
    memoized within the call."""
    lam = _strip_zeros(check_signature(lam))
    if lam and lam[-1] < 0:
        raise InvalidInput("standard tableaux need a partition shape")
    memo = {(): 1}

    def count(shape: Signature) -> int:
        total = memo.get(shape)
        if total is None:
            total = 0
            for j in range(len(shape)):
                below = shape[j + 1] if j + 1 < len(shape) else 0
                if shape[j] > below:
                    lower = shape[:j] + (shape[j] - 1,) + shape[j + 1:]
                    total += count(_strip_zeros(lower))
            memo[shape] = total
        return total

    return count(lam)


def schur_plancherel_coefficient(lam: Sequence[int], a: Sequence):
    """c_lam with P(lam, tau) = c_lam tau^{|lam|} exp(-tau sum(a)) in the
    Schur case: s_lam(a) dim(lam) / |lam|!."""
    lam = check_signature(lam)
    n = sum(lam)
    return schur_s(lam, a) * dim_standard(lam) / math.factorial(n)


def schur_plancherel_measure(lam: Sequence[int], a: Sequence, tau) -> float:
    """Probability of top row lam at time tau under the Schur dynamics."""
    lam = check_signature(lam)
    coeff = schur_plancherel_coefficient(lam, a)
    return float(coeff) * float(tau) ** sum(lam) * math.exp(-float(tau) * float(sum(a)))

"""Reference code that only the tests use: independent cross-checks of the
package and the reference twin of its fast factor-product kernel."""

import bisect
import math
from collections import Counter, defaultdict
from fractions import Fraction

from macdyn import macdonald as md
from macdyn.arrays import InterlacingArray, add_box, interlacing_predecessors
from macdyn.classifier import F_quant, f_quant


def reference_factor_product(num: Counter, den: Counter, q, t):
    """prod (1 - q^a t^b) over num / same over den, cancelling common exponent
    pairs first; the Counter-based evaluation that `md.factor_product`
    replaced, kept as its differential twin."""
    net = Counter(num)
    net.subtract(den)
    exact = isinstance(q, (int, Fraction)) and isinstance(t, (int, Fraction))
    one = Fraction(1) if exact else 1.0
    result = one
    for (a, b), mult in net.items():
        if mult == 0:
            continue
        factor = one - q ** a * t ** b
        if factor == 0:
            if mult > 0:
                return 0 * one
            raise ZeroDivisionError(f"vanishing denominator factor (1 - q^{a} t^{b})")
        result *= factor ** mult
    return result


def insertion_push_probabilities(ctx, j: int) -> list:
    """[(target, probability)] of the randomized insertion's push after lower
    particle j moved on the slice ctx, in the order the loop below tries them."""
    F = [float(F_quant(ctx, i)) for i in range(1, ctx.k + 2)]
    fj = float(f_quant(ctx, j))
    out = [(j, fj)]
    for target in range(j - 1, 0, -1):
        p = (1 - F[target - 1]) * (1 - fj)
        for rr in range(target + 1, j):
            p *= F[rr - 1]
        out.append((target, p))
    return out


def insertion_push_target(ctx, j: int, u: float) -> int:
    """The target of that push for the uniform u: the successive-subtraction
    sampling loop that the simulator's per-slice branch lists replaced, kept
    as their twin."""
    for target, p in insertion_push_probabilities(ctx, j):
        if u < p:
            return target
        u -= p
    raise ValueError("randomized insertion probabilities do not sum to one")


def with_move(arr: InterlacingArray, k: int, j: int) -> InterlacingArray:
    """New array with coordinate j of level k incremented (interlacing re-checked)."""
    rows = list(arr.levels)
    rows[k - 1] = add_box(rows[k - 1], j)
    return InterlacingArray(tuple(rows))


def letter_counts(chain) -> tuple:
    """Number of boxes each letter of a SkewChain occupies (the exponent of
    x_i in the tableau monomial)."""
    return tuple(sum(upper) - sum(lower) for lower, upper in zip(chain.rows, chain.rows[1:]))


def poisson_tail(mu: float, m: int) -> float:
    """P(Poisson(mu) > m)."""
    term = math.exp(-mu)
    acc = term
    for n in range(1, m + 1):
        term *= mu / n
        acc += term
    return max(0.0, 1.0 - acc)


def p_up_iterate(a, params, beta_total, steps: int, cutoff: int):
    """Distribution of the m-fold one-step operator with beta = beta_total/steps
    applied to the zero signature, truncated at |lam| <= cutoff.

    Converges to the transient law as steps grows; an independent
    cross-check of `exact_transient` at general (q, t).
    """
    a = tuple(float(v) for v in a)
    beta = float(beta_total) / steps
    dist = {(0,) * len(a): 1.0}
    P = md.MacdonaldP(a, params)
    rows = {}
    for _ in range(steps):
        nxt = defaultdict(float)
        for lam, p in dist.items():
            row = rows.get(lam)
            if row is None:
                row = {mu: float(w) for mu, w in md.p_up_row(lam, P, beta).items()}
                rows[lam] = row
            for mu, w in row.items():
                if sum(mu) <= cutoff:
                    nxt[mu] += p * w
        dist = dict(nxt)
    return dist


def p_up_link_commutation(lam, nu_bar, a, beta, params) -> bool:
    """Exact check of p_up(a_1..a_k) Lambda == Lambda p_up(a_1..a_{k-1}) at the
    entry (lam, nu_bar)."""
    P, lower = md.MacdonaldP(a, params), md.MacdonaldP(a[:-1], params)
    lhs = 0
    for mu, w in md.p_up_row(lam, P, beta).items():
        lhs += w * md.link_weight(mu, nu_bar, P)
    rhs = 0
    for kb in interlacing_predecessors(lam):
        link = md.link_weight(lam, kb, P)
        if link == 0:
            continue
        rhs += link * md.p_up(kb, nu_bar, lower, beta)
    return lhs == rhs


def sample_from_table(table, tau, n: int, rng) -> Counter:
    """Inverse-CDF sampling from the exact transient law (tail lumped into a
    sentinel state), for null calibration of the comparison statistics."""
    dist = sorted(table.distribution(tau).items())
    states = [lam for lam, _ in dist]
    cum = []
    acc = 0.0
    for _, p in dist:
        acc += p
        cum.append(acc)
    out: Counter = Counter()
    for u in rng.random(n):
        idx = bisect.bisect_left(cum, u)
        out[("tail",) if idx >= len(states) else states[idx]] += 1
    return out

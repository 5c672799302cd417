"""Reference code that only the tests use: independent cross-checks of the
package and the reference twins of its fast factor-product kernel, of the
general S_j and T_i, of the positivity scan and of its row-level h-RS
correspondence."""

import bisect
import math
from collections import Counter, defaultdict
from fractions import Fraction

from macdyn import macdonald as md
from macdyn.arrays import InterlacingArray, add_box, interlacing_predecessors, xi, xi_inverse
from macdyn.classifier import (
    F_quant,
    ScanReport,
    SliceContext,
    f_quant,
    fundamental,
    fundamental_kinds,
    iter_slices,
)
from macdyn.errors import InvalidInput
from macdyn.insertions import TableauPair, check_h_vector


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


# --- the general T_i and S_j through factor lists -------------------------------
# The evaluation that the direct net-map builders and the factor memo of
# `classifier` replaced: numerator and denominator factor lists, joined by
# `net_exponents` and multiplied by `factor_product` without a memo.

def reference_T_general(nb, lam, i: int, q, t):
    k = len(lam)
    num = [(lam[i - 1] - nb[i - 1], 1), (nb[i - 1] - lam[i], 0)]
    den = [(lam[i - 1] - nb[i - 1] + 1, 0), (nb[i - 1] - 1 - lam[i], 1)]
    for r in range(1, i):
        num += ((lam[r - 1] - nb[i - 1], i - r + 1), (nb[r - 1] - nb[i - 1] + 1, i - r - 1))
        den += ((lam[r - 1] - nb[i - 1] + 1, i - r), (nb[r - 1] - nb[i - 1], i - r))
    for s in range(i + 1, k):
        num += ((nb[i - 1] - nb[s - 1] - 1, s - i + 1), (nb[i - 1] - lam[s], s - i))
        den += ((nb[i - 1] - nb[s - 1], s - i), (nb[i - 1] - lam[s] - 1, s - i + 1))
    return md.factor_product(md.net_exponents(num, den), q, t)


def reference_S_general(nb, lam, j: int, q, t):
    k = len(lam)
    num = []
    den = []
    for r in range(1, j):
        num += ((nb[r - 1] - lam[j - 1], j - r - 1), (lam[r - 1] - lam[j - 1] - 1, j - r + 1))
        den += ((nb[r - 1] - lam[j - 1] - 1, j - r), (lam[r - 1] - lam[j - 1], j - r))
    for s in range(j, k):
        num += ((lam[j - 1] - lam[s] + 1, s - j), (lam[j - 1] - nb[s - 1], s - j + 1))
        den += ((lam[j - 1] - lam[s], s - j + 1), (lam[j - 1] - nb[s - 1] + 1, s - j))
    return md.factor_product(md.net_exponents(num, den), q, t)


def reference_positivity_scan(params, max_level: int, max_coord: int,
                              families=("pb", "rsk", "r", "l")) -> ScanReport:
    """The positivity scan that solves every slice, with no skipping of
    repeated free sets in Schur mode; the twin of `positivity_scan`."""
    report = ScanReport(params=params, max_level=max_level, max_coord=max_coord)
    kinds_by_level = {}
    for k in range(2, max_level + 1):
        kinds = [(str(kind), kind) for kind in fundamental_kinds(k) if kind.tag in families]
        kinds_by_level[k] = kinds
        for name, kind in kinds:
            report.results.setdefault((name, k), None)
    for k in range(2, max_level + 1):
        for nb, lam in iter_slices(k, max_coord):
            ctx = SliceContext(nb, lam, params)
            for name, kind in kinds_by_level[k]:
                if report.results[(name, k)] is not None:
                    continue
                bad = fundamental(kind, ctx).honesty_violations()
                if bad:
                    report.results[(name, k)] = {
                        "nu_bar": nb,
                        "lam": lam,
                        "violations": [(n, i, str(v)) for n, i, v in bad],
                    }
    return report


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


# --- the h-RS correspondence through InterlacingArray and xi/xi_inverse ----------
# The forward and inverse code that the row-level paths of `insertions`
# replaced, kept verbatim (with the tableau conversions it called) as their
# differential twin.

def reference_tableau_to_array(rows, depth: int) -> InterlacingArray:
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if not 1 <= x <= depth:
                raise InvalidInput(f"letter {x} outside alphabet 1..{depth}")
            if c + 1 < len(row) and row[c + 1] < x:
                raise InvalidInput("rows of a semistandard tableau must weakly increase")
            if r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r + 1][c] <= x:
                raise InvalidInput("columns of a semistandard tableau must strictly increase")
    if len(rows) > depth:
        raise InvalidInput(f"tableau has {len(rows)} rows, more than depth {depth}")
    levels = []
    for k in range(1, depth + 1):
        shape = [sum(1 for x in row if x <= k) for row in rows]
        shape += [0] * (k - len(shape))
        levels.append(tuple(shape[:k]))
    return InterlacingArray(tuple(levels))


def reference_array_to_tableau(arr: InterlacingArray):
    if any(c < 0 for row in arr.levels for c in row):
        raise InvalidInput("tableau correspondence needs nonnegative coordinates")
    n = arr.depth
    rows = [[] for _ in range(n)]
    prev = [0] * n
    for k in range(1, n + 1):
        cur = list(arr.row(k)) + [0] * (n - k)
        for i in range(n):
            rows[i].extend([k] * (cur[i] - prev[i]))
        prev = cur
    return tuple(tuple(r) for r in rows if r)


def _reference_donate(rows, k: int, j: int) -> int:
    if k == 1:
        return 1
    return xi(rows[k - 2], rows[k - 1], j)


def reference_h_insert_rows(rows, letter: int, h):
    n = len(rows)
    j = _reference_donate(rows, letter, h[letter - 1])
    prev = rows[letter - 1][j - 1]
    rows[letter - 1][j - 1] += 1
    moves = [(letter, j)]
    for k in range(letter + 1, n + 1):
        if rows[k - 1][j - 1] == prev or j < h[k - 1]:
            target = _reference_donate(rows, k, j)
        else:
            target = j + 1
        prev = rows[k - 1][target - 1]
        rows[k - 1][target - 1] += 1
        moves.append((k, target))
        j = target
    return moves


def reference_h_rs_forward(word, h) -> TableauPair:
    h = check_h_vector(h)
    n = len(h)
    rows = [[0] * k for k in range(1, n + 1)]
    q_rows = [[] for _ in range(n)]
    for step, letter in enumerate(word, start=1):
        if not 1 <= letter <= n:
            raise InvalidInput(f"letter {letter} outside alphabet 1..{n}")
        moves = reference_h_insert_rows(rows, letter, h)
        q_rows[moves[-1][1] - 1].append(step)
    arr = InterlacingArray(tuple(tuple(r) for r in rows))
    p_rows = reference_array_to_tableau(arr)
    return TableauPair(p_rows, tuple(tuple(r) for r in q_rows if r))


def reference_h_rs_inverse(pair: TableauPair, h) -> tuple:
    h = check_h_vector(h)
    n = len(h)
    arr = reference_tableau_to_array(pair.p_rows, n)
    rows = [list(r) for r in arr.levels]
    where = {}
    for r, row in enumerate(pair.q_rows, start=1):
        for entry in row:
            where[entry] = r
    q_shape = [len(r) for r in pair.q_rows]
    word_rev = []
    for step in range(pair.size, 0, -1):
        j = where[step]
        if q_shape[j - 1] == 0:
            raise InvalidInput("recording tableau inconsistent with shape")
        q_shape[j - 1] -= 1
        k = n
        while True:
            rows[k - 1][j - 1] -= 1
            if j < k and rows[k - 1][j - 1] < rows[k - 1][j]:
                raise InvalidInput(f"pair not in the image: row {k} breaks at step {step}")
            if k == 1:
                if j != 1:
                    raise InvalidInput("pair not in the image: bad endpoint at level 1")
                letter = 1
                break
            nu_bar, lam = rows[k - 2], rows[k - 1]
            if j <= k - 1 and lam[j - 1] < nu_bar[j - 1]:
                k -= 1  # short-range push: the mover below had the same index
                continue
            if xi(nu_bar, lam, j) != j:  # j is blocked
                raise InvalidInput("pair not in the image: moved particle was blocked")
            hk = h[k - 1]
            if xi(nu_bar, lam, hk) == j:
                letter = k
                break
            if hk < j:
                if j == 1:
                    raise InvalidInput("pair not in the image: no puller available")
                j = j - 1
            else:
                i = xi_inverse(nu_bar, lam, j)
                if i is None:
                    raise InvalidInput("pair not in the image: no pusher available")
                j = i
            k -= 1
        word_rev.append(letter)
    if any(c != 0 for row in rows for c in row):
        raise InvalidInput("pair not in the image: residue after unwinding")
    return tuple(reversed(word_rev))

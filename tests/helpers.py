"""Reference code that only the tests use: independent cross-checks of the
package and the reference twins of its fast factor-product kernel, of the
general S_j and T_i, of the positivity scan, of its row-level h-RS
correspondence, and of the skew polynomials and array enumeration that now
walk `skew_chains`."""

import bisect
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterator, Sequence

from macdyn import macdonald as md
from macdyn.arrays import (
    InterlacingArray,
    Signature,
    add_box,
    check_signature,
    interlacing_predecessors,
    xi,
    xi_inverse,
)
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


def partitions_up_to(size: int) -> list:
    """Every partition lam with |lam| <= size, without trailing zeros."""
    out = [()]
    for lam in out:  # grows while it is read: each partition once, by last part
        last = lam[-1] if lam else size
        for part in range(1, min(last, size - sum(lam)) + 1):
            out.append(lam + (part,))
    return out


def sub_partitions(lam) -> list:
    """Every partition mu with mu_i <= lam_i for all i, without trailing zeros."""
    out = []
    for mu in itertools.product(*(range(c + 1) for c in lam)):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            out.append(tuple(c for c in mu if c))
    return out


def value_or_raised(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is part of the result
        return type(exc)


# --- skew polynomials and array enumeration by their own recursions -------------
# The recursions that the one chain walk of `arrays.skew_chains` replaced in
# `macdonald.skew_P`/`skew_Q` and `arrays.enumerate_arrays`, kept verbatim as
# their differential twins.  reference_skew_eval takes checked signatures,
# xs as a tuple and the coefficient (`md.branch_psi` or `md.branch_phi`).

def reference_skew_eval(lam, mu, xs, params, coeff):
    m = len(xs)
    if m == 0:
        same = md._strip_zeros(lam) == md._strip_zeros(mu) if (
            (not lam or lam[-1] >= 0) and (not mu or mu[-1] >= 0)
        ) else lam == mu
        return params.one() if same else 0 * params.one()
    if len(mu) < len(lam) <= len(mu) + m and lam[-1] >= 0:
        lam = lam + (0,) * (len(mu) + m - len(lam))  # trapezoid convention
    growing = len(lam) == len(mu) + m
    if not growing and len(lam) != len(mu):
        raise InvalidInput(
            "skew evaluation needs len(lam) == len(mu) (columns padded) or len(mu) + len(xs)"
        )
    zero = 0 * params.one()

    def rec(top: Signature, depth: int):
        if depth == 0:
            return params.one() if top == mu else zero
        x = xs[depth - 1]
        total = zero
        wt = sum(top)
        if growing:
            mu_pad = mu + (-10 ** 18,) * (len(top) - 1 - len(mu))
            for kappa in interlacing_predecessors(top):
                if any(kappa[i] < mu_pad[i] for i in range(len(kappa))):
                    continue
                c = coeff(kappa, top, params)
                if c == 0:
                    continue
                total += c * x ** (wt - sum(kappa)) * rec(kappa, depth - 1)
        else:
            for kappa in reference_equal_length_strips_below(top, mu):
                c = coeff(kappa, top, params)
                if c == 0:
                    continue
                total += c * x ** (wt - sum(kappa)) * rec(kappa, depth - 1)
        return total

    if growing:
        return rec(lam, m)
    if not all(mu[i] <= lam[i] for i in range(len(lam))):
        return zero
    return rec(lam, m)


def reference_equal_length_strips_below(top: Signature, floor: Signature):
    """All kappa with floor <= kappa <= top coordinatewise and top/kappa a
    horizontal strip."""
    n = len(top)
    ranges = []
    for i in range(n):
        lo = max(floor[i], top[i + 1] if i + 1 < n else floor[i])
        ranges.append(range(lo, top[i] + 1))
    for combo in itertools.product(*ranges):
        if all(combo[i] >= combo[i + 1] for i in range(n - 1)):
            yield combo


def reference_enumerate_arrays(lam_top: Sequence[int], depth: int) -> Iterator[InterlacingArray]:
    """All interlacing arrays of the given depth whose top row is lam_top.

    lam_top is zero-padded to length `depth`; it must be nonnegative if padding
    is needed.  Iteration is level by level from the top, O(depth) memory.
    """
    lam_top = check_signature(lam_top)
    if len(lam_top) > depth:
        raise InvalidInput("top row longer than requested depth")
    if len(lam_top) < depth:
        if lam_top and lam_top[-1] < 0:
            raise InvalidInput("cannot zero-pad a signature with negative parts")
        lam_top = lam_top + (0,) * (depth - len(lam_top))

    def rec(upper: Signature) -> Iterator[tuple[Signature, ...]]:
        if len(upper) == 1:
            yield (upper,)
            return
        for nu in interlacing_predecessors(upper):
            for chain in rec(nu):
                yield chain + (upper,)

    for chain in rec(lam_top):
        yield InterlacingArray(chain)

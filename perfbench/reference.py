"""Reference computations the benchmark checks the package against.

Everything here is written from the formulas, not from the package: the
hook-content and hook-length laws of the Schur case, Schensted row insertion,
Poisson probabilities, the shell-sum identity of the transient law, the
chi-square survival function, and the interlacing test.  `selfcheck.py`
checks each piece against hand-computed values.
"""

from __future__ import annotations

import math
from fractions import Fraction


def partitions(total: int, max_parts: int, max_part: int | None = None):
    """Partitions of `total` with at most `max_parts` parts, as weakly
    decreasing tuples padded with zeros to length `max_parts`."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield (0,) * max_parts
        return
    if max_parts == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def _cells(lam):
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    for i, part in enumerate(lam):
        for j in range(part):
            yield j - i, part - j + conj[j] - i - 1  # content, hook length


def hook_product(lam) -> int:
    out = 1
    for _, hook in _cells(lam):
        out *= hook
    return out


def dim_standard(lam) -> int:
    """Number of standard Young tableaux of shape lam (hook-length formula)."""
    return math.factorial(sum(lam)) // hook_product(lam)


def schur_at_ones(lam, n: int) -> int:
    """s_lam(1, ..., 1) with n ones (hook-content formula)."""
    num = 1
    for content, _ in _cells(lam):
        num *= n + content
    return num // hook_product(lam)


def schur_plancherel_coeff(lam, n: int, x=Fraction(1)) -> Fraction:
    """c_lam with P(lam at time tau) = c_lam tau^|lam| exp(-n x tau) for the
    Schur dynamics with all n drift parameters equal to x:
    x^|lam| s_lam(1^n) dim(lam) / |lam|!."""
    size = sum(lam)
    return Fraction(x) ** size * schur_at_ones(lam, n) * dim_standard(lam) / math.factorial(size)


def schur_top_law(n: int, tau: float, cutoff: int) -> dict:
    """Probabilities of the top row (length n) at time tau, all drifts 1,
    for |lam| <= cutoff."""
    law = {}
    for size in range(cutoff + 1):
        for lam in partitions(size, n):
            law[lam] = float(schur_plancherel_coeff(lam, n)) * tau ** size * math.exp(-n * tau)
    return law


def shell_sum(a, size: int) -> Fraction:
    """(sum a)^size / size!: the total transient coefficient of one shell,
    because every jump adds one box and the total jump rate is sum(a)."""
    return Fraction(sum(a)) ** size / math.factorial(size)


def poisson_pmf(mu: float, k: int) -> float:
    return math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1))


def chi2_sf(stat: float, dof: int) -> float:
    """P(chi-square with dof degrees of freedom > stat): the regularized upper
    incomplete gamma function Q(dof/2, stat/2)."""
    s, x = dof / 2.0, stat / 2.0
    if x <= 0:
        return 1.0
    log_front = -x + s * math.log(x) - math.lgamma(s)
    if x < s + 1:  # series for the lower function
        term = total = 1.0 / s
        den = s
        while abs(term) > abs(total) * 1e-16:
            den += 1
            term *= x / den
            total += term
        return max(0.0, 1.0 - total * math.exp(log_front))
    tiny = 1e-300  # Lentz continued fraction for the upper function
    b = x + 1 - s
    c = 1 / tiny
    d = 1 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - s)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        step = d * c
        h *= step
        if abs(step - 1) < 1e-16 or i > 10_000:
            break
    return math.exp(log_front) * h


def chi_square(counts: dict, probs: dict, n: int, min_expected: float = 5.0):
    """Goodness of fit of counts against probs.  Cells expected below
    min_expected and all mass outside probs are pooled into one cell, which
    joins the smallest retained cell if it is itself too small.
    Returns (statistic, degrees of freedom)."""
    cells = []
    pool_p = max(0.0, 1.0 - sum(probs.values()))
    pool_obs = n - sum(counts.get(key, 0) for key in probs)
    for key, p in probs.items():
        if n * p < min_expected:
            pool_p += p
            pool_obs += counts.get(key, 0)
        else:
            cells.append([counts.get(key, 0), n * p])
    if n * pool_p >= min_expected or not cells:
        cells.append([pool_obs, n * pool_p])
    else:
        smallest = min(cells, key=lambda cell: cell[1])
        smallest[0] += pool_obs
        smallest[1] += n * pool_p
    stat = sum((obs - exp) ** 2 / exp for obs, exp in cells if exp > 0)
    return stat, max(len(cells) - 1, 1)


def tv_distance(counts: dict, probs: dict, n: int) -> float:
    tail_p = max(0.0, 1.0 - sum(probs.values()))
    tail_obs = n - sum(counts.get(key, 0) for key in probs)
    tv = abs(tail_obs / n - tail_p)
    for key, p in probs.items():
        tv += abs(counts.get(key, 0) / n - p)
    return tv / 2


def tv_bound(probs: dict, n: int, alpha: float) -> float:
    """A TV distance that an n-sample from probs exceeds with probability at
    most alpha: the mean bound 1/2 sum sqrt(p(1-p)/n) plus the McDiarmid
    deviation sqrt(log(1/alpha) / (2n))."""
    cells = list(probs.values()) + [max(0.0, 1.0 - sum(probs.values()))]
    mean = 0.5 * sum(math.sqrt(p * (1 - p) / n) for p in cells)
    return mean + math.sqrt(math.log(1 / alpha) / (2 * n))


def interlaces(low, high) -> bool:
    """low < high for weakly decreasing rows with len(high) == len(low) + 1."""
    return len(high) == len(low) + 1 and all(
        high[j + 1] <= low[j] <= high[j] for j in range(len(low))
    )


def parse_array(text: str):
    """Canonical array text (rows bottom to top, coordinates increasing) ->
    tuple of weakly decreasing rows."""
    return tuple(
        tuple(int(tok) for tok in reversed(chunk.split(",")) if tok != "")
        for chunk in text.split(";")
    )


def schensted(word):
    """Schensted row insertion of a word: (P rows, Q rows)."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, letter in enumerate(word, start=1):
        x = letter
        for r in range(len(p_rows) + 1):
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            bump = next((i for i, y in enumerate(row) if y > x), None)
            if bump is None:
                row.append(x)
                q_rows[r].append(step)
                break
            row[bump], x = x, row[bump]
    return tuple(map(tuple, p_rows)), tuple(map(tuple, q_rows))


def is_partition_shape(rows) -> bool:
    return all(len(rows[i]) >= len(rows[i + 1]) > 0 for i in range(len(rows) - 1)) and all(rows)


def is_semistandard(rows, alphabet: int) -> bool:
    if not is_partition_shape(rows):
        return False
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if not 1 <= x <= alphabet:
                return False
            if c + 1 < len(row) and row[c + 1] < x:
                return False
            if r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r + 1][c] <= x:
                return False
    return True


def is_standard(rows, size: int) -> bool:
    entries = sorted(x for row in rows for x in row)
    if entries != list(range(1, size + 1)) or not is_partition_shape(rows):
        return False
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if c + 1 < len(row) and row[c + 1] <= x:
                return False
            if r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r + 1][c] <= x:
                return False
    return True

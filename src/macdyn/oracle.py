"""Independent exact oracles and statistical machinery for acceptance testing.

The transient oracle exploits the triangular structure of the univariate
generator: every jump increases |lam| by one and the total jump rate is the
constant sum(a), so P(lam, tau) = c_lam tau^{|lam|} exp(-tau sum(a)) with
coefficients obtained by a shell-by-shell dynamic program.  Truncation at
|lam| <= cutoff is exact for the retained states; the omitted mass is the
Poisson(sum(a) tau) tail.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import classifier as _cl
from . import macdonald as _md
from .arrays import InterlacingArray, Signature, interlaces, interlacing_predecessors
from .errors import Infeasible, InvalidInput
from .macdonald import MacParams


def _chi2_sf(stat: float, dof: int) -> float:
    """The chi-square survival function.  scipy is imported on first use:
    importing scipy.stats costs about 70 MB of memory, which the package
    pays only when a statistical test runs."""
    from scipy.stats import chi2

    return float(chi2.sf(stat, dof))


# --- exact transient distribution ----------------------------------------------

@dataclass
class TransientTable:
    """Coefficients c_lam of the transient law of the univariate dynamics
    started from the zero signature."""

    a: tuple
    params: MacParams
    cutoff: int
    coeffs: dict[Signature, object]

    @property
    def rate_sum(self):
        return sum(self.a)

    def probability(self, lam: Sequence[int], tau) -> float:
        c = self.coeffs.get(tuple(lam))
        if c is None:
            return 0.0
        return float(c) * float(tau) ** sum(lam) * math.exp(-float(tau) * float(self.rate_sum))

    def distribution(self, tau) -> dict[Signature, float]:
        return {lam: self.probability(lam, tau) for lam in self.coeffs}

    def mass(self, tau) -> float:
        return sum(self.distribution(tau).values())


def exact_transient(a: Sequence, params: MacParams, cutoff: int) -> TransientTable:
    """Transient coefficients for all |lam| <= cutoff at level k = len(a).

    c_lam = (1/|lam|) sum over lower states mu of c_mu rate(mu -> lam); the
    recursion is exact on the rational path.
    """
    a = tuple(a)
    if cutoff < 0:
        raise InvalidInput("cutoff must be nonnegative")
    k = len(a)
    zero = (0,) * k
    one = params.one() if params.is_exact and all(
        isinstance(v, (int, Fraction)) for v in a
    ) else 1.0
    coeffs: dict[Signature, object] = {zero: one}
    shell = {zero: one}
    P = _md.MacdonaldP(a, params)
    for n in range(1, cutoff + 1):
        nxt: dict[Signature, object] = defaultdict(lambda: 0 * one)
        for mu, c_mu in shell.items():
            rates, _ = _md.univariate_rates(mu, P)
            for j, rate in rates:
                lam = mu[:j - 1] + (mu[j - 1] + 1,) + mu[j:]
                nxt[lam] += c_mu * rate
        shell = {lam: v / n for lam, v in nxt.items()}
        coeffs.update(shell)
    return TransientTable(a=a, params=params, cutoff=cutoff, coeffs=coeffs)


# --- identity suite -------------------------------------------------------------

@dataclass
class SuiteBounds:
    max_level: int = 5
    max_coord: int = 12
    samples_per_level: int = 60
    exhaustive_coord: int = 3
    seed: int = 20130521


@dataclass
class SuiteReport:
    checks: dict[str, int] = field(default_factory=dict)
    failures: dict[str, list] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())

    def record(self, name: str, witness=None) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1
        if witness is not None:
            self.failures.setdefault(name, []).append(witness)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": dict(self.checks),
            "failures": {k: v for k, v in self.failures.items() if v},
        }


def _iter_suite_slices(bounds: SuiteBounds, rnd: random.Random):
    """Exhaustive small slices plus seeded random slices within the bounds."""
    for k in range(1, min(3, bounds.max_level) + 1):
        yield from _cl.iter_slices(k, bounds.exhaustive_coord)
    for k in range(1, bounds.max_level + 1):
        for _ in range(bounds.samples_per_level):
            c = bounds.max_coord
            lam = tuple(sorted((rnd.randint(-c, c) for _ in range(k)), reverse=True))
            nb = tuple(rnd.randint(lam[j + 1], lam[j]) for j in range(k - 1))
            yield nb, lam


def identity_suite(
    points: Sequence[MacParams] | None = None,
    bounds: SuiteBounds | None = None,
) -> SuiteReport:
    """Exact verification of the structural identities behind the classifier.

    Identities involving the t = 0 quantities F and f are checked at the t = 0
    points only (they do not hold for general t).
    """
    if points is None:
        points = [
            MacParams(Fraction(1, 2), Fraction(1, 3)),
            MacParams(Fraction(1, 2), 0),
            MacParams(Fraction(1, 2), Fraction(1, 2)),
        ]
    bounds = bounds or SuiteBounds()
    rnd = random.Random(bounds.seed)
    report = SuiteReport()
    slices = list(_iter_suite_slices(bounds, rnd))

    for params in points:
        for nb, lam in slices:
            ctx = _cl.SliceContext(nb, lam, params)
            k = ctx.k
            free = ctx.free
            # commutation balance: 1 + sum T = sum S over free indices
            lhs = 1 + sum(_cl.T_quant(ctx, j) for j in ctx.pushers)
            rhs = sum(_cl.S_quant(ctx, m) for m in free)
            report.record(
                "one_T_S",
                None if lhs == rhs else {"nu_bar": nb, "lam": lam, "params": str(params)},
            )
            # coefficient of epsilon in the skew Cauchy identity
            lhs = _md.branch_psi(nb, lam, params)
            for i in range(1, k):
                if nb[i - 1] - 1 < (nb[i] if i < k - 1 else -10 ** 18):
                    continue
                lower = nb[:i - 1] + (nb[i - 1] - 1,) + nb[i:]
                lhs += _md.psi_prime_one_box(lower, i, params) * _md.branch_psi(lower, lam, params)
            rhs = 0
            for j in range(1, k + 1):
                if j > 1 and lam[j - 1] >= lam[j - 2]:
                    continue
                up = lam[:j - 1] + (lam[j - 1] + 1,) + lam[j:]
                rhs += _md.branch_psi(nb, up, params) * _md.psi_prime_one_box(lam, j, params)
            report.record(
                "skew_cauchy_eps",
                None if lhs == rhs else {"nu_bar": nb, "lam": lam, "params": str(params)},
            )
            # forced short-range push: psi psi' = psi' psi on broken interlacing
            for j in range(1, k):
                if j > 1 and nb[j - 1] >= nb[j - 2]:
                    continue
                nu = nb[:j - 1] + (nb[j - 1] + 1,) + nb[j:]
                if interlaces(nu, lam):
                    continue  # only the broken case is forced
                lhs = _md.branch_psi(nb, lam, params) * _md.psi_prime_one_box(nb, j, params)
                up = lam[:j - 1] + (lam[j - 1] + 1,) + lam[j:]
                rhs = _md.psi_prime_one_box(lam, j, params) * _md.branch_psi(nu, up, params)
                report.record(
                    "push_forced",
                    None
                    if lhs == rhs and lhs != 0
                    else {"nu_bar": nb, "lam": lam, "j": j, "params": str(params)},
                )
            # RSK-type solutions have unit total jump rate
            for h in range(1, k + 1):
                sol = _cl.fundamental(_cl.rsk(h), ctx)
                report.record(
                    "rsk_w_sum",
                    None
                    if sum(sol.w.values()) == 1
                    else {"nu_bar": nb, "lam": lam, "h": h, "params": str(params)},
                )
            if params.t == 0:
                for j in range(1, k + 1):
                    lhs = _cl.S_quant(ctx, j) - _cl.T_quant(ctx, j)
                    rhs = _cl.F_quant(ctx, j + 1) - _cl.F_quant(ctx, j)
                    report.record(
                        "stff",
                        None if lhs == rhs else {"nu_bar": nb, "lam": lam, "j": j},
                    )
                for j in range(1, k):
                    lhs = _cl.f_quant(ctx, j) * _cl.T_quant(ctx, j)
                    lhs += (1 - _cl.F_quant(ctx, j)) * _cl.F_quant(ctx, j + 1)
                    report.record(
                        "oconnell_rate",
                        None
                        if lhs == _cl.S_quant(ctx, j)
                        else {"nu_bar": nb, "lam": lam, "j": j},
                    )
                    full = _cl.f_quant(ctx, j) * _cl.T_quant(ctx, j)
                    prod = 1 - _cl.F_quant(ctx, j)
                    for r in range(j + 1, k + 1):
                        prod *= _cl.F_quant(ctx, r)
                    full += prod
                    for i in range(j + 1, k):
                        term = 1 - _cl.F_quant(ctx, j)
                        for r in range(j + 1, i):
                            term *= _cl.F_quant(ctx, r)
                        term *= (1 - _cl.f_quant(ctx, i)) * _cl.T_quant(ctx, i)
                        full += term
                    report.record(
                        "oconnell_rate_full",
                        None
                        if full == _cl.S_quant(ctx, j)
                        else {"nu_bar": nb, "lam": lam, "j": j},
                    )

        # stochasticity of links and p-up row sums on random nonnegative rows
        for k in range(1, bounds.max_level + 1):
            for _ in range(10):
                lam = tuple(sorted((rnd.randint(0, 5) for _ in range(k)), reverse=True))
                a = tuple(Fraction(rnd.randint(1, 5), rnd.randint(1, 5)) for _ in range(k))
                beta = Fraction(rnd.randint(1, 4), rnd.randint(4, 9))
                P = _md.MacdonaldP(a, params)
                if k >= 2:
                    total = sum(
                        _md.link_weight(lam, nb, P) for nb in interlacing_predecessors(lam)
                    )
                    report.record(
                        "links_stochastic",
                        None if total == 1 else {"lam": lam, "a": a, "params": str(params)},
                    )
                row = _md.p_up_row(lam, P, beta)
                report.record(
                    "p_up_rows",
                    None if sum(row.values()) == 1 else {"lam": lam, "a": a, "beta": beta},
                )
    return report


# --- distribution comparison ----------------------------------------------------

def _pooled_chi2(stat, counts, probs, n, min_expected, pool_p=0.0, pool_obs=0):
    """Add to stat the chi-square terms of counts, n observations, against
    the cell probabilities probs.  Cells whose expected count is under
    min_expected join a pooled cell that starts at (pool_p, pool_obs), which
    counts only when its own expected count is positive and reaches
    min_expected.  Returns (stat, cells used)."""
    cells = 0
    for key, p in probs.items():
        obs = counts.get(key, 0)
        if n * p < min_expected:
            pool_p += p
            pool_obs += obs
            continue
        stat += (obs - n * p) ** 2 / (n * p)
        cells += 1
    if pool_p > 0 and n * pool_p >= min_expected:
        stat += (pool_obs - n * pool_p) ** 2 / (n * pool_p)
        cells += 1
    return stat, cells


def compare_distributions(
    samples: Counter,
    table: TransientTable,
    tau,
    min_expected: float = 5.0,
    min_coverage: float = 0.99,
) -> dict:
    """TV distance and chi-square of an empirical sample against the exact
    transient law, with a lumped tail cell for the truncated mass."""
    n = sum(samples.values())
    if n < 1000:
        raise InvalidInput("need at least 1000 samples")
    exact = table.distribution(tau)
    mass = sum(exact.values())
    if mass < min_coverage:
        raise Infeasible(
            f"table covers {mass:.4f} < {min_coverage} of the mass; increase the cutoff"
        )
    tail_p = max(1.0 - mass, 0.0)
    tail_obs = sum(cnt for lam, cnt in samples.items() if lam not in exact)
    tv = abs(tail_obs / n - tail_p)
    for lam, p in exact.items():
        tv += abs(samples.get(lam, 0) / n - p)
    tv /= 2.0
    # chi-square with pooling of low-expectation cells into the tail
    stat, cells = _pooled_chi2(0.0, samples, exact, n, min_expected, tail_p, tail_obs)
    dof = max(cells - 1, 1)
    return {
        "n": n,
        "tv": tv,
        "chi2": stat,
        "dof": dof,
        "pvalue": _chi2_sf(stat, dof),
        "coverage": mass,
    }


def two_sample_chi_square(first: Counter, second: Counter, min_expected: float = 5.0) -> dict:
    """Chi-square homogeneity test of two categorical samples, pooling rare
    categories so each expected count is at least min_expected."""
    n1, n2 = sum(first.values()), sum(second.values())
    if n1 == 0 or n2 == 0:
        raise InvalidInput("both samples must be nonempty")
    keys = sorted(set(first) | set(second), key=lambda k: (first[k] + second[k], str(k)))
    cells = []
    acc1 = acc2 = 0
    for key in keys:
        acc1 += first[key]
        acc2 += second[key]
        pooled = (acc1 + acc2) / (n1 + n2)
        if min(n1, n2) * pooled >= min_expected:
            cells.append((acc1, acc2))
            acc1 = acc2 = 0
    if acc1 or acc2:
        if cells:
            o1, o2 = cells[-1]
            cells[-1] = (o1 + acc1, o2 + acc2)
        else:
            cells.append((acc1, acc2))
    if len(cells) < 2:
        raise Infeasible("not enough distinct categories for a two-sample test")
    stat = 0.0
    for o1, o2 in cells:
        p = (o1 + o2) / (n1 + n2)
        stat += (o1 - n1 * p) ** 2 / (n1 * p) + (o2 - n2 * p) ** 2 / (n2 * p)
    dof = len(cells) - 1
    return {"chi2": stat, "dof": dof, "pvalue": _chi2_sf(stat, dof), "cells": len(cells)}


def gibbs_check(
    ensemble: Iterable,
    a: Sequence,
    params: MacParams,
    min_count: int = 100,
    min_expected: float = 5.0,
) -> dict:
    """Compare empirical conditional laws of the second-top row given the top
    row against the stochastic link, aggregated over frequent top rows.

    ensemble items are InterlacingArray's or (second_top, top) pairs.
    """
    grouped: dict[Signature, Counter] = defaultdict(Counter)
    for item in ensemble:
        if isinstance(item, InterlacingArray):
            nu_bar, lam = item.row(item.depth - 1), item.top
        else:
            nu_bar, lam = item
        grouped[tuple(lam)][tuple(nu_bar)] += 1
    stat = 0.0
    dof = 0
    used = 0
    P = _md.MacdonaldP(a, params)
    for lam, counts in grouped.items():
        n = sum(counts.values())
        if n < min_count:
            continue
        if len(lam) == 1:
            continue
        probs = {
            nb: float(_md.link_weight(lam, nb, P)) for nb in interlacing_predecessors(lam)
        }
        stat, cells = _pooled_chi2(stat, counts, probs, n, min_expected)
        if cells >= 2:
            dof += cells - 1
            used += 1
    if used == 0:
        return {"pvalue": 1.0, "chi2": 0.0, "dof": 0, "tops": 0, "vacuous": True}
    return {
        "chi2": stat,
        "dof": dof,
        "pvalue": _chi2_sf(stat, dof),
        "tops": used,
        "vacuous": False,
    }

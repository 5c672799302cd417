"""Per-slice classification of nearest-neighbor dynamics.

A *slice* is a pair (nu_bar, lam) of adjacent interlacing rows: nu_bar is the
new lower state (length k-1), lam the old upper state (length k).  A
nearest-neighbor 'dynamics' on the slice is a triple (w, c, r):

  w[m]  rate of the independent jump of particle m (divided by a_k), m free;
  c[j]  probability that the move of lower particle j propagates, j+1 free;
  r[j]  probability that the propagation is a push of the first free right
        neighbor xi(j); the pull probability is l[j] = c[j] - r[j].

These satisfy a two-diagonal linear system with coefficients T_i and S_j; the
system is solved by forward substitution, never by a generic solver.  Schur
parameters (q == t) turn every T and S into a 0/1 indicator, and t == 0 has
dedicated short formulas; the general case is a finite product of factors
1 - q^a t^b.  Its net exponent map {(a, b): mult} is counted straight into
one dict (`_S_exponents`, `_T_exponents`: numerator keys first, cancelled
keys kept at multiplicity 0) and evaluated by `macdonald.factor_product`;
on float parameters each factor comes from the memo that the `MacParams`
owns (`MacParams.factors`, at most 2^15 entries).

Building a `SliceContext` checks its rows in one pass: when both are tuples
of ints with lam_{j+1} <= nu_bar_j <= lam_j for every j, they are signatures
that interlace, and the same pass collects the free indices and pushers.
Any other input goes through `check_signature` and `interlaces` step by
step, which convert other sequences and raise what each failure raises.

Each slice evaluates its coefficients once: `SliceContext.S` and
`SliceContext.T` are the cached tuples (S_1..S_k) and (T_1..T_k), each
evaluated in one call.  S_j is computed only at free j and T_i only at
pushers i (i + 1 free); every other entry is the typed zero, since S_j = 0
when j is blocked and T_i = 0 unless i + 1 is free.  `fundamental` (and its
list form `fundamental_rows`, which the simulator reads), `solve_r`,
`solve_w`, `check_system` and `decompose` read these tuples; `S_quant` and
`T_quant` evaluate one index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Sequence

from .arrays import (
    Signature,
    check_signature,
    free_indices,
    interlaces,
    interlacing_predecessors,
    xi,
    xi_inverse,
)
from .errors import Infeasible, InvalidInput, UnsupportedBasis
from .macdonald import MacParams, factor_product

_REL_TOL = 1e-9


class _cached:
    """functools.cached_property without its lock: the first access computes
    the value and stores it in the instance dict, where later accesses find
    it without calling the descriptor."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class SliceContext:
    """A slice (nu_bar < lam) together with the deformation parameters."""

    nu_bar: Signature
    lam: Signature
    params: MacParams

    def __post_init__(self):
        # pushers: the indices j with j+1 free, the lower particles whose
        # move can propagate
        free_pushers = _interlacing_free(self.nu_bar, self.lam)
        if free_pushers is None:
            # the step-by-step checks convert other sequences and raise what
            # each failure has always raised
            object.__setattr__(self, "nu_bar", check_signature(self.nu_bar))
            object.__setattr__(self, "lam", check_signature(self.lam))
            if not interlaces(self.nu_bar, self.lam):
                raise InvalidInput(f"rows do not interlace: {self.nu_bar} vs {self.lam}")
            free = free_indices(self.nu_bar, self.lam)
            free_pushers = free, tuple(m - 1 for m in free if m >= 2)
        object.__setattr__(self, "free", free_pushers[0])
        object.__setattr__(self, "pushers", free_pushers[1])

    @property
    def k(self) -> int:
        return len(self.lam)

    @property
    def kappa(self) -> int:
        return len(self.free)

    @_cached
    def S(self) -> tuple:
        """(S_1, ..., S_k); S_j is evaluated at free j only, blocked j give 0."""
        return self._values(self.free, S_quant, _S_exponents)

    @_cached
    def T(self) -> tuple:
        """(T_1, ..., T_k); T_i is evaluated at pushers only, the others give 0."""
        return self._values(self.pushers, T_quant, _T_exponents)

    def _values(self, indices, quant, exponents) -> tuple:
        """A k-tuple holding quant at the given indices and the typed zero
        elsewhere, evaluated in one pass; each index is one of quant's
        nonzero indices, where Schur mode gives 1."""
        params = self.params
        one = params.one()
        out = [0 * one] * len(self.lam)
        mode = params.mode
        if mode == "schur":
            for i in indices:
                out[i - 1] = one
        elif mode == "general":
            nb, lam, q, t, memo = self.nu_bar, self.lam, params.q, params.t, params.factors
            for i in indices:
                out[i - 1] = factor_product(exponents(nb, lam, i), q, t, memo)
        else:
            for i in indices:
                out[i - 1] = quant(self, i)
        return tuple(out)

    def xi(self, i: int) -> int:
        return xi(self.nu_bar, self.lam, i)

    def xi_inverse(self, m: int):
        return xi_inverse(self.nu_bar, self.lam, m)


def _interlacing_free(nu_bar, lam):
    """(free indices, pushers) of the slice from one pass over the rows, or
    None unless both rows are tuples of ints, of lengths k - 1 and k, with
    lam_{j+1} <= nu_bar_j <= lam_j for every j.  That chain makes both rows
    signatures and makes them interlace."""
    if type(nu_bar) is not tuple or type(lam) is not tuple or len(nu_bar) + 1 != len(lam):
        return None
    hi = lam[0]
    if type(hi) is not int:
        return None
    free = [1]
    pushers = []
    j = 1
    for x in nu_bar:
        lo = lam[j]
        if type(x) is not int or type(lo) is not int or not lo <= x <= hi:
            return None
        if lo < x:  # j + 1 is free
            free.append(j + 1)
            pushers.append(j)
        hi = lo
        j += 1
    return tuple(free), tuple(pushers)


def T_quant(ctx: SliceContext, i: int):
    """T_i(nu_bar, lam); zero exactly when particle i+1 is blocked.  T_k = 0."""
    k, nb, lam = ctx.k, ctx.nu_bar, ctx.lam
    if not 1 <= i <= k:
        raise InvalidInput(f"T index {i} out of range 1..{k}")
    one = ctx.params.one()
    if i == k:
        return 0 * one
    mode = ctx.params.mode
    if mode == "schur":
        return one if (i + 1) in ctx.free else 0 * one
    q, t = ctx.params.q, ctx.params.t
    if mode == "q-whittaker":
        val = one * (1 - q ** (nb[i - 1] - lam[i]))
        if i >= 2:
            val *= 1 - q ** (nb[i - 2] - nb[i - 1] + 1)
        return val / (1 - q ** (lam[i - 1] - nb[i - 1] + 1))
    return factor_product(_T_exponents(nb, lam, i), q, t, ctx.params.factors)


def S_quant(ctx: SliceContext, j: int):
    """S_j(nu_bar, lam); zero exactly when particle j is blocked."""
    k, nb, lam = ctx.k, ctx.nu_bar, ctx.lam
    if not 1 <= j <= k:
        raise InvalidInput(f"S index {j} out of range 1..{k}")
    one = ctx.params.one()
    mode = ctx.params.mode
    if mode == "schur":
        return one if j in ctx.free else 0 * one
    q, t = ctx.params.q, ctx.params.t
    if mode == "q-whittaker":
        val = one
        if j >= 2:
            val *= 1 - q ** (nb[j - 2] - lam[j - 1])
        if j <= k - 1:
            val *= 1 - q ** (lam[j - 1] - lam[j] + 1)
            val /= 1 - q ** (lam[j - 1] - nb[j - 1] + 1)
        return val
    return factor_product(_S_exponents(nb, lam, j), q, t, ctx.params.factors)


# The general T_i and S_j as net exponent maps {(a, b): mult} of their factors
# (1 - q^a t^b): the numerator keys of the product formula are counted up,
# then its denominator keys counted down, straight into one dict.  Keys keep
# their first appearance, numerator keys first, and cancelled keys stay with
# multiplicity 0, the map `net_exponents` makes of the two factor lists.

def _T_exponents(nb, lam, i: int) -> dict:
    x = nb[i - 1]
    net = {(lam[i - 1] - x, 1): 1, (x - lam[i], 0): 1}
    get = net.get
    for r in range(1, i):
        key = (lam[r - 1] - x, i - r + 1)
        net[key] = get(key, 0) + 1
        key = (nb[r - 1] - x + 1, i - r - 1)
        net[key] = get(key, 0) + 1
    for s in range(i + 1, len(lam)):
        key = (x - nb[s - 1] - 1, s - i + 1)
        net[key] = get(key, 0) + 1
        key = (x - lam[s], s - i)
        net[key] = get(key, 0) + 1
    key = (lam[i - 1] - x + 1, 0)
    net[key] = get(key, 0) - 1
    key = (x - 1 - lam[i], 1)
    net[key] = get(key, 0) - 1
    for r in range(1, i):
        key = (lam[r - 1] - x + 1, i - r)
        net[key] = get(key, 0) - 1
        key = (nb[r - 1] - x, i - r)
        net[key] = get(key, 0) - 1
    for s in range(i + 1, len(lam)):
        key = (x - nb[s - 1], s - i)
        net[key] = get(key, 0) - 1
        key = (x - lam[s] - 1, s - i + 1)
        net[key] = get(key, 0) - 1
    return net


def _S_exponents(nb, lam, j: int) -> dict:
    x = lam[j - 1]
    net: dict = {}
    get = net.get
    for r in range(1, j):
        key = (nb[r - 1] - x, j - r - 1)
        net[key] = get(key, 0) + 1
        key = (lam[r - 1] - x - 1, j - r + 1)
        net[key] = get(key, 0) + 1
    for s in range(j, len(lam)):
        key = (x - lam[s] + 1, s - j)
        net[key] = get(key, 0) + 1
        key = (x - nb[s - 1], s - j + 1)
        net[key] = get(key, 0) + 1
    for r in range(1, j):
        key = (nb[r - 1] - x - 1, j - r)
        net[key] = get(key, 0) - 1
        key = (lam[r - 1] - x, j - r)
        net[key] = get(key, 0) - 1
    for s in range(j, len(lam)):
        key = (x - lam[s], s - j + 1)
        net[key] = get(key, 0) - 1
        key = (x - nb[s - 1] + 1, s - j)
        net[key] = get(key, 0) - 1
    return net


def F_quant(ctx: SliceContext, j: int):
    """F_j for the t = 0 (q-Whittaker) quantities: F_1 = 0, F_{k+1} = 1,
    F_j = q^{nu_bar_{j-1} - lam_j} in between."""
    if ctx.params.t != 0:
        raise InvalidInput("F is a t = 0 quantity")
    k = ctx.k
    if not 1 <= j <= k + 1:
        raise InvalidInput(f"F index {j} out of range 1..{k + 1}")
    one = ctx.params.one()
    if j == 1:
        return 0 * one
    if j == k + 1:
        return one
    return one * ctx.params.q ** (ctx.nu_bar[j - 2] - ctx.lam[j - 1])


def f_quant(ctx: SliceContext, i: int):
    """f_i for t = 0: the push probability of the nearest-neighbor variant of
    the randomized-insertion dynamics."""
    if ctx.params.t != 0:
        raise InvalidInput("f is a t = 0 quantity")
    k, q = ctx.k, ctx.params.q
    if not 1 <= i <= k:
        raise InvalidInput(f"f index {i} out of range 1..{k}")
    one = ctx.params.one()
    if i == 1:
        return one
    if i == k:
        return one * (1 - q ** (ctx.nu_bar[k - 2] - ctx.lam[k - 1]))
    return (
        one
        * (1 - q ** (ctx.nu_bar[i - 2] - ctx.lam[i - 1]))
        / (1 - q ** (ctx.nu_bar[i - 2] - ctx.nu_bar[i - 1] + 1))
    )


# --- slice solutions ----------------------------------------------------------

@dataclass
class SliceSolution:
    """Values (w, c, r) on a slice; keys are 1-based particle indices.

    w is defined on the free indices, c and r on indices j with j+1 free.
    """

    w: dict[int, object]
    c: dict[int, object]
    r: dict[int, object]

    def as_rows(self):
        return (
            tuple(sorted(self.w.items())),
            tuple(sorted(self.c.items())),
            tuple(sorted(self.r.items())),
        )

    def honesty_violations(self, tol=0):
        """List of (name, index, value) entries violating w >= 0, 0 <= r <= c <= 1."""
        bad = []
        for m, v in self.w.items():
            if v < -tol:
                bad.append(("w", m, v))
        for j in self.c:
            cj, rj = self.c[j], self.r[j]
            if rj < -tol:
                bad.append(("r", j, rj))
            if cj - rj < -tol:
                bad.append(("l", j, cj - rj))
            if cj > 1 + tol:
                bad.append(("c", j, cj))
        return bad

    def is_honest(self, tol=0) -> bool:
        return not self.honesty_violations(tol)


@dataclass(frozen=True)
class FundamentalKind:
    """One of the fundamental solution families: PB, RSK(h), R(h), L(h)."""

    tag: str
    h: int | None = None

    def __post_init__(self):
        if self.tag not in ("pb", "rsk", "r", "l"):
            raise InvalidInput(f"unknown fundamental kind {self.tag!r}")
        if (self.tag == "pb") != (self.h is None):
            raise InvalidInput("pb takes no index; rsk/r/l require one")

    def validate_level(self, k: int) -> None:
        if self.tag == "rsk" and not 1 <= self.h <= k:
            raise InvalidInput(f"rsk index must lie in 1..{k}")
        if self.tag in ("r", "l") and not 1 <= self.h <= k - 1:
            raise InvalidInput(f"{self.tag} index must lie in 1..{k - 1}")

    def __str__(self):
        return self.tag if self.h is None else f"{self.tag}({self.h})"


def pb() -> FundamentalKind:
    return FundamentalKind("pb")


def rsk(h: int) -> FundamentalKind:
    return FundamentalKind("rsk", h)


def right_push(h: int) -> FundamentalKind:
    return FundamentalKind("r", h)


def left_pull(h: int) -> FundamentalKind:
    return FundamentalKind("l", h)


def fundamental_kinds(k: int) -> list[FundamentalKind]:
    """Every fundamental kind at level k: pb, rsk(1..k), r(1..k-1), l(1..k-1)."""
    return (
        [pb()]
        + [rsk(h) for h in range(1, k + 1)]
        + [right_push(h) for h in range(1, k)]
        + [left_pull(h) for h in range(1, k)]
    )


def solve_r(ctx: SliceContext, w: dict, c: dict) -> SliceSolution:
    """Forward substitution for the push probabilities r given jump rates w and
    propagation probabilities c.

    Requires sum(w) = 1 + sum_j T_j (1 - c_j) (the slice constraint); raises
    Infeasible otherwise.
    """
    free = ctx.free
    pushers = ctx.pushers
    if set(w) != set(free):
        raise InvalidInput(f"w must be defined exactly on the free indices {free}")
    if set(c) != set(pushers):
        raise InvalidInput(f"c must be defined exactly on indices {pushers}")
    S, T = ctx.S, ctx.T
    constraint = sum(w.values()) - 1 - sum(T[j - 1] * (1 - c[j]) for j in pushers)
    if ctx.params.is_exact and all(
        isinstance(v, (int,)) or hasattr(v, "denominator") for v in list(w.values()) + list(c.values())
    ):
        ok = constraint == 0
    else:
        ok = abs(constraint) <= _REL_TOL * (1 + abs(sum(w.values())))
    if not ok:
        raise Infeasible(f"slice constraint violated by {constraint}")
    r: dict[int, object] = {}
    acc = 0 * ctx.params.one()
    for m in range(len(free) - 1):
        cur, nxt = free[m], free[m + 1]
        acc += S[cur - 1] - w[cur]
        if m >= 1:
            acc -= c[cur - 1] * T[cur - 2]
        r[nxt - 1] = acc / T[nxt - 2]
    return SliceSolution(w=dict(w), c=dict(c), r=r)


def solve_w(ctx: SliceContext, c: dict, r: dict) -> dict:
    """The jump rates w the slice's system gives for propagation and push
    probabilities c and r: w_m = S_m - (c_{m-1} - r_{m-1}) T_{m-1} - r_j T_j
    with j + 1 the next free index after m (terms absent at either end)."""
    free, S, T = ctx.free, ctx.S, ctx.T
    w = {}
    for m, cur in enumerate(free):
        val = S[cur - 1]
        if m >= 1:
            j = cur - 1
            val -= (c[j] - r[j]) * T[j - 1]
        if m + 1 < len(free):
            j = free[m + 1] - 1
            val -= r[j] * T[j - 1]
        w[cur] = val
    return w


def fundamental(kind: FundamentalKind, ctx: SliceContext) -> SliceSolution:
    """The closed-form fundamental solution of the given kind on the slice."""
    w, c, r = fundamental_rows(kind, ctx)
    return SliceSolution(
        w=dict(zip(ctx.free, w)), c=dict(zip(ctx.pushers, c)), r=dict(zip(ctx.pushers, r))
    )


def fundamental_rows(kind: FundamentalKind, ctx: SliceContext) -> tuple[list, list, list]:
    """The fundamental solution of the given kind as value lists: w in the
    order of ctx.free, c and r in the order of ctx.pushers."""
    kind.validate_level(ctx.k)
    free, pushers, S = ctx.free, ctx.pushers, ctx.S
    one = ctx.params.one()
    zero = 0 * one
    h = kind.h
    if kind.tag == "rsk":
        T = ctx.T
        target = ctx.xi(h)
        w = [one if m == target else zero for m in free]
        # r_j = (S_1 + ... + S_j - T_1 - ... - T_{j-1} - [h <= j]) / T_j; the
        # prefix sums start at 0 and add in index order, as sum() does
        S_sums = list(accumulate(S, initial=0))
        T_sums = list(accumulate(T, initial=0))
        r = [(S_sums[j] - T_sums[j - 1] - (one if h <= j else zero)) / T[j - 1] for j in pushers]
        return w, [one] * len(pushers), r
    w = [S[m - 1] for m in free]
    c = [zero] * len(pushers)
    r = [zero] * len(pushers)
    if kind.tag != "pb" and h in pushers:
        # pusher h is pushers[i]: xi(h) = free[i] and h + 1 = free[i + 1]
        i = pushers.index(h)
        c[i] = one
        if kind.tag == "r":
            w[i] = w[i] - ctx.T[h - 1]
            r[i] = one
        else:  # left-pulling
            w[i + 1] = w[i + 1] - ctx.T[h - 1]
    return w, c, r


def check_system(ctx: SliceContext, sol: SliceSolution, tol=None):
    """Check the slice's linear system; returns (ok, residuals).

    residuals has one entry per free index (its equation) plus the T/S balance
    1 + sum T = sum S as the last entry.  Exact comparison on the rational
    path, relative tolerance otherwise.
    """
    w = solve_w(ctx, sol.c, sol.r)
    residuals = [sol.w[m] - w[m] for m in ctx.free]
    balance = 1 + sum(ctx.T[j - 1] for j in ctx.pushers) - sum(ctx.S[m - 1] for m in ctx.free)
    residuals.append(balance)
    if tol is None:
        tol = 0 if ctx.params.is_exact else _REL_TOL
    ok = all(abs(res) <= tol for res in residuals)
    return ok, residuals


def check_weights(thetas: Sequence, count: int) -> None:
    """Check that there are count weights and that they sum to one, exactly
    (rationals) or within tolerance (floats).  Negative weights are allowed."""
    if len(thetas) != count:
        raise InvalidInput("one weight per solution")
    total = sum(thetas)
    exact = all(isinstance(v, int) or hasattr(v, "denominator") for v in thetas)
    if (total != 1) if exact else (abs(total - 1) > _REL_TOL):
        raise Infeasible(f"weights sum to {total}, expected 1")


def mix(solutions: Sequence[SliceSolution], thetas: Sequence) -> SliceSolution:
    """Affine combination of slice solutions; the weights pass `check_weights`."""
    check_weights(thetas, len(solutions))
    keys_w = set(solutions[0].w)
    keys_c = set(solutions[0].c)
    for sol in solutions:
        if set(sol.w) != keys_w or set(sol.c) != keys_c:
            raise InvalidInput("solutions live on different slices")
    w = {m: sum(th * sol.w[m] for th, sol in zip(thetas, solutions)) for m in keys_w}
    c = {j: sum(th * sol.c[j] for th, sol in zip(thetas, solutions)) for j in keys_c}
    r = {j: sum(th * sol.r[j] for th, sol in zip(thetas, solutions)) for j in keys_c}
    return SliceSolution(w=w, c=c, r=r)


BASES = ("rsk-r", "rsk-l", "r-l-pb", "const-c")


def decompose(ctx: SliceContext, sol: SliceSolution, basis: str) -> dict[FundamentalKind, object]:
    """Coefficients of sol over the requested fundamental basis.

    The coefficients sum to one; kinds whose index is not free on this slice
    are forced to zero and omitted from the result.  Recombining with
    `recombine` reproduces the solution exactly.
    """
    if basis not in BASES:
        raise InvalidInput(f"basis must be one of {BASES}")
    free = ctx.free
    pushers = ctx.pushers
    kappa = ctx.kappa
    one = ctx.params.one()
    if basis == "r-l-pb":
        thetas: dict[FundamentalKind, object] = {}
        for j in pushers:
            thetas[right_push(j)] = sol.r[j]
            thetas[left_pull(j)] = sol.c[j] - sol.r[j]
        thetas[pb()] = 1 - sum(sol.c.values())
        return thetas
    if basis == "const-c":
        cs = set(sol.c.values())
        if len(cs) > 1:
            raise Infeasible("const-c basis needs equal propagation probabilities")
        C = cs.pop() if cs else 0 * one
        thetas = {pb(): 1 - C}
        for h in free:
            thetas[rsk(h)] = sol.w[h] - (1 - C) * ctx.S[h - 1]
        return thetas
    # rsk-r and rsk-l need at least three free indices
    if ctx.k == 2:
        raise UnsupportedBasis("rsk-r and rsk-l bases need level k >= 3")
    if kappa < 3:
        raise UnsupportedBasis(
            f"slice has {kappa} free indices; rsk-{basis[-1]} decomposition needs >= 3"
        )
    H = (sum(sol.c.values()) - 1) / (kappa - 2)
    side = {j: sol.c[j] - H for j in pushers}
    side_sum = sum(side.values())
    thetas = {}
    for m in free:
        th = sol.w[m] - ctx.S[m - 1] * side_sum
        if basis == "rsk-r":
            i = ctx.xi_inverse(m)
            if i is not None:
                th += side[i] * ctx.T[i - 1]
        else:
            if m - 1 in side:
                th += side[m - 1] * ctx.T[m - 2]
        thetas[rsk(m)] = th
    for j in pushers:
        thetas[right_push(j) if basis == "rsk-r" else left_pull(j)] = side[j]
    return thetas


def recombine(ctx: SliceContext, thetas: dict[FundamentalKind, object]) -> SliceSolution:
    kinds = list(thetas)
    return mix([fundamental(kind, ctx) for kind in kinds], [thetas[kind] for kind in kinds])


# --- positivity scan -----------------------------------------------------------

def iter_slices(k: int, max_coord: int) -> Iterator[tuple[Signature, Signature]]:
    """All slices (nu_bar, lam) at level k with coordinates in [0, max_coord].

    By translation invariance of every quantity on a slice this range also
    certifies coordinates in [-max_coord, max_coord] up to shift.
    """
    import itertools

    for lam in itertools.combinations_with_replacement(range(max_coord, -1, -1), k):
        for nb in interlacing_predecessors(lam):
            yield nb, lam


@dataclass
class ScanReport:
    """Outcome of a positivity scan: per (family, level, h) either None (clean)
    or a witness dict describing the first violation found."""

    params: MacParams
    max_level: int
    max_coord: int
    results: dict = field(default_factory=dict)

    def clean_kinds(self):
        return sorted(key for key, wit in self.results.items() if wit is None)

    def violating_kinds(self):
        return sorted(key for key, wit in self.results.items() if wit is not None)


def positivity_scan(
    params: MacParams,
    max_level: int,
    max_coord: int,
    families: Sequence[str] = ("pb", "rsk", "r", "l"),
) -> ScanReport:
    """Scan every fundamental kind over all slices with levels <= max_level and
    coordinates in [0, max_coord]; record the first dishonest slice per kind.

    In Schur mode every S_j and T_i is the indicator of a free index, so a
    fundamental solution, and its honesty, depend on the level and the free
    set alone: a slice whose free set its level has already shown is
    skipped.  Slices are walked in the same order either way, so the first
    witness of each kind is the same."""
    report = ScanReport(params=params, max_level=max_level, max_coord=max_coord)
    kinds_by_level: dict[int, list[tuple[str, FundamentalKind]]] = {}
    for k in range(2, max_level + 1):
        kinds = [(str(kind), kind) for kind in fundamental_kinds(k) if kind.tag in families]
        kinds_by_level[k] = kinds
        for name, kind in kinds:
            report.results.setdefault((name, k), None)
    schur = params.mode == "schur"
    for k in range(2, max_level + 1):
        scanned = set()  # the free sets of level k seen so far, in Schur mode
        for nb, lam in iter_slices(k, max_coord):
            ctx = SliceContext(nb, lam, params)
            if schur:
                if ctx.free in scanned:
                    continue
                scanned.add(ctx.free)
            for name, kind in kinds_by_level[k]:
                if report.results[(name, k)] is not None:
                    continue
                sol = fundamental(kind, ctx)
                bad = sol.honesty_violations()
                if bad:
                    report.results[(name, k)] = {
                        "nu_bar": nb,
                        "lam": lam,
                        "violations": [(n, i, str(v)) for n, i, v in bad],
                    }
    return report

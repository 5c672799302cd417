"""Continuous-time event-driven simulation of multivariate dynamics on
interlacing arrays, plus the standalone one-dimensional particle systems.

The Gillespie loop (Gillespie's direct method) works on nodes: a node is a
state's jump rates, one tuple of (level, index, rate) entries per level, and
their total.  Each DynamicsSpec owns its tables, made on first use and freed
with the spec: a slice table of per-slice rates and cascade outcomes, and a
state table that maps every visited array (the flat tuple of its
coordinates) to its node, shared across trajectories.  Each holds at most
_STATE_TABLE_SIZE entries.

- Hit: the state after an event is in the table, and the loop takes its node
  as it is: no rate is rebuilt and no interlacing is checked.
- Miss: an event whose cascade moved rows k..K changes only the slices at
  levels k..K+1, so only those row pairs are checked for interlacing and only
  those levels are rebuilt (level 1's rate is constant; the dependency-graph
  idea of Gibson and Bruck's next-reaction method).  The new node then
  enters the table if the table has room.

A state enters the table only after its touched row pairs passed the check,
and the state before the event interlaced, so every state in the table
interlaces.  A node's total and the selection walk add the rates level by
level in index order, so every run is bit-identical to rebuilding all
levels and checking every row pair after every event.  Specs whose slice
weights are a callable have no tables and take the miss path on every event.
A cascade is applied strictly bottom-up.  Each propagation step samples one
outcome of a branch list built once per slice, on the post-move lower row and
pre-move upper row; the nearest-neighbor recipes and the randomized
insertion share that one list shape and one sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Callable, Iterator, Sequence

import numpy as np

from .arrays import InterlacingArray, interlaces, xi
from .classifier import (
    F_quant,
    SliceContext,
    SliceSolution,
    f_quant,
    fundamental,
    left_pull,
    mix,
    pb,
    right_push,
    rsk,
    solve_w,
)
from .errors import InvalidInput, InvariantViolation
from .macdonald import MacParams

_PROB_TOL = 1e-9

RECIPES = (
    "pb",
    "rsk",
    "r",
    "l",
    "qrow",
    "oconnell-pei",
    "oconnell-pei-nn",
    "det-insertion",
    "mixing",
)

_H_LENGTH = {"rsk": 0, "det-insertion": 0, "r": -1, "l": -1}


@dataclass(frozen=True)
class DynamicsSpec:
    """A named dynamics on arrays of the given depth.

    h is required for the rsk / r / l / det-insertion recipes (length depth for
    rsk and det-insertion, depth-1 for r and l).  A mixing recipe carries
    component specs and either one constant weight per component or a callable
    (level, nu_bar, lam) -> weights evaluated per slice.

    The spec owns the slice and state tables of its runs (`_tables`); they
    are freed with it, and equal specs do not share them.
    """

    params: MacParams
    a: tuple
    depth: int
    recipe: str
    h: tuple | None = None
    components: tuple = ()
    weights: object = None

    def __post_init__(self):
        if self.recipe not in RECIPES:
            raise InvalidInput(f"unknown dynamics {self.recipe!r}")
        if len(self.a) != self.depth:
            raise InvalidInput(f"need {self.depth} drift parameters, got {len(self.a)}")
        if any(v <= 0 for v in self.a):
            raise InvalidInput("drift parameters must be positive")
        if self.recipe in _H_LENGTH:
            want = self.depth + _H_LENGTH[self.recipe]
            if self.h is None or len(self.h) != want:
                raise InvalidInput(
                    f"recipe {self.recipe!r} needs an h-vector of length {want}"
                )
            for lvl, v in enumerate(self.h, start=1):
                if not 1 <= v <= lvl:
                    raise InvalidInput(f"h-vector entry {v} at position {lvl} outside 1..{lvl}")
        elif self.h is not None:
            raise InvalidInput(f"recipe {self.recipe!r} takes no h-vector")
        if self.recipe == "mixing":
            if not self.components:
                raise InvalidInput("mixing needs component specs")
            for comp in self.components:
                if comp.recipe in ("mixing", "oconnell-pei"):
                    raise InvalidInput("mixing components must be nearest-neighbor primitives")
                if (comp.params, comp.a, comp.depth) != (self.params, self.a, self.depth):
                    raise InvalidInput("mixing components must share params, a, and depth")

    @cached_property
    def _tables(self) -> _DynamicsTables | None:
        """The slice and state tables of this dynamics, made on first use and
        freed with the spec; None when slice weights are a callable (nothing
        cached).  A spec is frozen, so its tables never go stale."""
        if self.recipe == "mixing" and callable(self.weights):
            return None
        return _DynamicsTables()


def _level_kind(spec: DynamicsSpec, k: int):
    if spec.recipe == "pb":
        return pb()
    if spec.recipe in ("rsk", "qrow"):
        return rsk(spec.h[k - 1] if spec.recipe == "rsk" else 1)
    if spec.recipe == "r":
        return right_push(spec.h[k - 2])
    if spec.recipe == "l":
        return left_pull(spec.h[k - 2])
    return None


def _F_values(ctx: SliceContext) -> list:
    """[F_1, ..., F_{k+1}] of the slice."""
    return [F_quant(ctx, j) for j in range(1, ctx.k + 2)]


def _oc_nn_solution(ctx: SliceContext) -> SliceSolution:
    F = _F_values(ctx)
    w = {m: (1 - F[m - 1]) * F[m] for m in ctx.free}
    c = {j: f_quant(ctx, j) for j in ctx.pushers}
    return SliceSolution(w=w, c=dict(c), r=dict(c))


def _det_insertion_solution(ctx: SliceContext, h: int) -> SliceSolution:
    one = ctx.params.one()
    c = {j: one for j in ctx.pushers}
    r = {j: (one if j < h else 0 * one) for j in ctx.pushers}
    return SliceSolution(w=solve_w(ctx, c, r), c=c, r=r)


def slice_solution(spec: DynamicsSpec, k: int, nu_bar, lam) -> SliceSolution:
    """The (w, c, r) triple the dynamics uses on the slice (nu_bar, lam)."""
    ctx = SliceContext(tuple(nu_bar), tuple(lam), spec.params)
    if k == 1:
        return fundamental(pb(), ctx)  # every recipe jumps at rate a_1 here
    kind = _level_kind(spec, k)
    if kind is not None:
        return fundamental(kind, ctx)
    if spec.recipe == "oconnell-pei-nn":
        return _oc_nn_solution(ctx)
    if spec.recipe == "det-insertion":
        return _det_insertion_solution(ctx, spec.h[k - 1])
    if spec.recipe == "mixing":
        sols = [slice_solution(comp, k, nu_bar, lam) for comp in spec.components]
        if callable(spec.weights):
            thetas = spec.weights(k, tuple(nu_bar), tuple(lam))
        else:
            thetas = spec.weights
        return mix(sols, list(thetas))
    raise InvalidInput(f"recipe {spec.recipe!r} has no slice solution")


_STATE_TABLE_SIZE = 1 << 15  # entries per table; later ones are recomputed on use


class _DynamicsTables:
    """The caches of one dynamics, owned by its spec.

    slices maps (nu_bar, lam) to the slice data of _slice_data; states maps
    a visited array, as the flat tuple of its coordinates, to its node
    (per-level entry tuples, total rate).  Each holds at most
    _STATE_TABLE_SIZE entries.  misses counts the nodes built by simulate,
    refused those left out because states was full."""

    __slots__ = ("slices", "states", "misses", "refused")

    def __init__(self):
        self.slices: dict = {}
        self.states: dict = {}
        self.misses = 0
        self.refused = 0


def _slice_data(spec: DynamicsSpec, k: int, nu_bar: tuple, lam: tuple):
    """Cached float view of the dynamics on a slice: (entries, branch).

    entries holds (k, m, a_k * w_m) for every index m with w_m > 0, in index
    order.  branch[j - 1] lists the triggered moves after lower particle j
    moved without a short push, as (threshold, target, cause) outcomes with
    increasing thresholds: propagate draws u uniform on [0, 1) and takes the
    first outcome with u < threshold, or none.  Outcomes of probability zero
    are left out.  States recur heavily during an ensemble, so the per-slice
    solve is memoized in the spec's table on the slice (the level is
    len(lam)), and equal entry tuples are shared by every node holding them."""
    tables = spec._tables
    if tables is not None:
        hit = tables.slices.get((nu_bar, lam))
        if hit is not None:
            return hit
    if spec.recipe == "oconnell-pei":
        data = _insertion_slice(spec, k, nu_bar, lam)
    else:
        data = _nearest_neighbor_slice(spec, k, nu_bar, lam)
    if tables is not None and len(tables.slices) < _STATE_TABLE_SIZE:
        tables.slices[(nu_bar, lam)] = data
    return data


def _nearest_neighbor_slice(spec: DynamicsSpec, k: int, nu_bar: tuple, lam: tuple):
    """Slice data of a (w, c, r) dynamics: pusher j pushes to xi(j) with
    probability r_j and pulls j + 1 with probability c_j - r_j."""
    sol = slice_solution(spec, k, nu_bar, lam)
    a_k = float(spec.a[k - 1])
    entries = []
    for m, v in sorted(sol.w.items()):
        v = float(v)
        if v < -_PROB_TOL:
            raise InvariantViolation(
                f"negative jump rate {v} at level {k}, index {m}: {spec.recipe} is not "
                f"an honest dynamics on this state"
            )
        if v > 0:
            entries.append((k, m, a_k * v))
    branch = [()] * (k - 1)
    for j in sol.c:
        cj, rj = float(sol.c[j]), float(sol.r[j])
        if rj < -_PROB_TOL or cj - rj < -_PROB_TOL or cj > 1 + _PROB_TOL:
            raise InvariantViolation(
                f"triggered-move probabilities outside [0,1] at level {k}: c={cj}, r={rj}"
            )
        target = xi(nu_bar, lam, j)
        outcomes = []
        if rj > 0:
            outcomes.append((rj, target, "long_push" if target == j else "donated"))
        if cj > rj:
            outcomes.append((cj, j + 1, "pull"))
        branch[j - 1] = tuple(outcomes)
    return tuple(entries), tuple(branch)


def _insertion_slice(spec: DynamicsSpec, k: int, nu_bar: tuple, lam: tuple):
    """Slice data of the randomized insertion (the t = 0 long-range recipe):
    index j jumps at rate a_k (1 - F_j) F_{j+1} ... F_k, and a move of lower
    particle j pushes j with probability f_j, else the first target m < j
    with probability (1 - F_m) F_{m+1} ... F_{j-1} (1 - f_j)."""
    ctx = SliceContext(nu_bar, lam, spec.params)
    F = [float(v) for v in _F_values(ctx)]
    a_k = float(spec.a[k - 1])
    entries = []
    for j in range(1, k + 1):
        rate = 1 - F[j - 1]
        for rr in range(j + 1, k + 1):
            rate *= F[rr - 1]
        if rate:
            entries.append((k, j, a_k * rate))
    branch = []
    for j in range(1, k):
        fj = float(f_quant(ctx, j))
        probs = [fj]  # of the targets j, j - 1, ..., 1
        for target in range(j - 1, 0, -1):
            p = (1 - F[target - 1]) * (1 - fj)
            for rr in range(target + 1, j):
                p *= F[rr - 1]
            probs.append(p)
        sums = list(accumulate(probs))
        if min(probs) < -_PROB_TOL or not abs(sums[-1] - 1) <= _PROB_TOL:
            raise InvariantViolation(
                f"randomized insertion probabilities {probs} at level {k}, index {j} "
                f"are not a distribution"
            )
        outcomes = [
            (th, target, "long_push")
            for th, p, target in zip(sums, probs, range(j, 0, -1))
            if p > 0
        ]
        outcomes[-1] = (1.0, outcomes[-1][1], "long_push")  # the last takes every u
        branch.append(tuple(outcomes))
    return tuple(entries), tuple(branch)


def _level_entries(spec: DynamicsSpec, rows, k: int) -> tuple:
    """Level k's (k, index, rate) entries, in index order, for the current state."""
    if k == 1:
        return ((1, 1, float(spec.a[0])),)
    return _slice_data(spec, k, tuple(rows[k - 2]), tuple(rows[k - 1]))[0]


def jump_rates(spec: DynamicsSpec, rows: Sequence[Sequence[int]], k: int):
    """Independent jump rates [(index, rate)] at level k for the current state."""
    return [(m, rate) for _, m, rate in _level_entries(spec, rows, k)]


def propagate(spec: DynamicsSpec, rows, k: int, j: int, prev: int, rng):
    """Decide the triggered move at level k after lower particle j moved.

    rows holds the post-move lower row and pre-move upper row; prev is the
    mover's coordinate before its move.  Returns (index, cause) or None.
    """
    lam = rows[k - 1]
    if lam[j - 1] == prev:
        return j, "short_push"
    outcomes = _slice_data(spec, k, tuple(rows[k - 2]), tuple(lam))[1][j - 1]
    u = rng.random()
    for threshold, target, cause in outcomes:
        if u < threshold:
            return target, cause
    return None


@dataclass(frozen=True)
class Event:
    """One Gillespie event: the absolute time and the bottom-up cascade of
    single-coordinate moves it produced."""

    time: float
    cascade: tuple[tuple[int, int, str], ...]

    def to_json_dict(self) -> dict:
        return {
            "time": self.time,
            "cascade": [
                {"level": lvl, "index": idx, "cause": cause}
                for lvl, idx, cause in self.cascade
            ],
        }


def _check_interlacing(rows, cascade) -> None:
    """Check the row pairs an event's cascade touched: it moved levels
    low..high, so the pairs (k-1, k) for k = low..high+1 within the array."""
    low, high = cascade[0][0], cascade[-1][0]
    for k in range(max(low, 2), min(high + 1, len(rows)) + 1):
        lower, upper = rows[k - 2], rows[k - 1]
        if not interlaces(lower, upper):
            raise InvariantViolation(
                f"interlacing broken between level {k - 1} row {tuple(lower)} and "
                f"level {k} row {tuple(upper)} by cascade {tuple(cascade)}"
            )


def trajectory_rng(seed, index: int = 0) -> np.random.Generator:
    """Counter-based per-trajectory stream: Philox keyed by seed, advanced by
    index * 2**128 draws (the stream of ``Philox(key=seed).jumped(index)``).
    Equal (seed, index) reproduce bit-identical runs."""
    bits = np.random.Philox(key=seed)
    bits.advance(index << 128)
    return np.random.Generator(bits)


def trajectory_rngs(seed, count: int) -> Iterator[np.random.Generator]:
    """The streams ``trajectory_rng(seed, i)`` for i = 0..count-1, in order.

    One Generator is rewound to each stream in turn, which costs far less
    than building a fresh Philox per trajectory; each stream is valid until
    the next one is drawn."""
    rng = trajectory_rng(seed)
    bits = rng.bit_generator
    start = bits.state
    for i in range(count):
        bits.state = start
        bits.advance(i << 128)
        yield rng


def _node(levels: tuple) -> tuple:
    """(levels, total rate), the total added level by level in index order."""
    total = 0.0
    for entries in levels:
        for _, _, rate in entries:
            total += rate
    return levels, total


def _store(tables: _DynamicsTables | None, key: tuple, node: tuple) -> None:
    if tables is None:
        return
    tables.misses += 1
    if len(tables.states) < _STATE_TABLE_SIZE:
        tables.states[key] = node
    else:
        tables.refused += 1


_NO_STATES = MappingProxyType({})  # the state table of specs that have none


def simulate(
    spec: DynamicsSpec,
    tau: float,
    seed=None,
    initial: InterlacingArray | None = None,
    rng: np.random.Generator | None = None,
    log_events: bool = True,
):
    """Run one trajectory for time tau; returns (final array, event log)."""
    if tau < 0:
        raise InvalidInput("tau must be nonnegative")
    n = spec.depth
    if initial is None:
        initial = InterlacingArray.zeros(n)
    if initial.depth != n:
        raise InvalidInput("initial state has wrong depth")
    if rng is None:
        rng = trajectory_rng(seed)
    tables = spec._tables
    states = _NO_STATES if tables is None else tables.states
    rows = [list(r) for r in initial.levels]
    key = tuple(chain.from_iterable(rows))
    node = states.get(key)
    if node is None:  # the initial array was validated on construction
        node = _node(tuple(_level_entries(spec, rows, k) for k in range(1, n + 1)))
        _store(tables, key, node)
    # levels[k - 1] holds level k's (k, index, rate) entries in index order
    levels, total = node
    t = 0.0
    events: list[Event] = []
    while True:
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t > tau:
            break
        u = rng.random() * total
        for entries in levels:
            for entry in entries:
                u -= entry[2]
                if u <= 0:
                    break
            else:
                continue
            break
        k, m, _ = entry  # the last entry when rounding leaves u > 0
        cascade = [(k, m, "jump")]
        prev = rows[k - 1][m - 1]
        rows[k - 1][m - 1] += 1
        j = m
        for lvl in range(k + 1, n + 1):
            res = propagate(spec, rows, lvl, j, prev, rng)
            if res is None:
                break
            target, cause = res
            prev = rows[lvl - 1][target - 1]
            rows[lvl - 1][target - 1] += 1
            cascade.append((lvl, target, cause))
            j = target
        key = tuple(chain.from_iterable(rows))
        node = states.get(key)
        if node is None:
            _check_interlacing(rows, cascade)
            fresh = list(levels)
            for lvl in range(max(k, 2), min(cascade[-1][0] + 1, n) + 1):  # level 1 is constant
                fresh[lvl - 1] = _level_entries(spec, rows, lvl)
            node = _node(tuple(fresh))
            _store(tables, key, node)
        levels, total = node
        if log_events:
            events.append(Event(time=t, cascade=tuple(cascade)))
    # the initial array was validated and every state reached interlaces (a
    # table hit, or a miss whose touched row pairs passed the check), so the
    # final rows need no second validation
    return InterlacingArray.trusted(tuple(tuple(r) for r in rows)), events


def run_ensemble(
    spec: DynamicsSpec,
    tau: float,
    samples: int,
    seed,
    initial: InterlacingArray | None = None,
    collect: Callable[[InterlacingArray], object] | None = None,
) -> list:
    """Simulate `samples` independent trajectories with per-trajectory Philox
    streams; returns [collect(final_state)] ordered by trajectory index.

    Trajectory i draws from ``trajectory_rng(seed, i)``."""
    collect = collect or (lambda arr: arr)
    if initial is None:
        initial = InterlacingArray.zeros(spec.depth)
    out = []
    for rng in trajectory_rngs(seed, samples):
        final, _ = simulate(spec, tau, initial=initial, rng=rng, log_events=False)
        out.append(collect(final))
    return out


# --- standalone one-dimensional systems ----------------------------------------

@dataclass
class QTasep:
    """q-TASEP: particles x_1 > x_2 > ... > x_N, particle n jumps right at rate
    a_n (1 - q^{x_{n-1} - x_n - 1}); the first particle is free.

    This is the law of the leftmost array particles via x_n = lam^(n)_n - n.
    """

    q: float
    a: tuple
    x: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.x:
            self.x = [-(n + 1) for n in range(len(self.a))]
        if any(self.x[i] <= self.x[i + 1] for i in range(len(self.x) - 1)):
            raise InvalidInput("q-TASEP positions must strictly decrease")

    def rates(self) -> list[float]:
        out = [float(self.a[0])]
        for n in range(1, len(self.x)):
            gap = self.x[n - 1] - self.x[n] - 1
            out.append(float(self.a[n]) * (1.0 - float(self.q) ** gap))
        return out

    def simulate(self, tau: float, rng) -> "QTasep":
        t = 0.0
        while True:
            rates = self.rates()
            total = sum(rates)
            if total <= 0:
                break
            t += rng.exponential(1.0 / total)
            if t > tau:
                break
            u = rng.random() * total
            for n, rate in enumerate(rates):
                u -= rate
                if u <= 0:
                    break
            self.x[n] += 1
            if n > 0 and self.x[n] >= self.x[n - 1]:
                raise InvariantViolation("q-TASEP ordering broken")
        return self


@dataclass
class QPushTasep:
    """q-PushTASEP: particles x_1 < x_2 < ... < x_N; particle n jumps right at
    rate a_n, and any moved particle pushes its right neighbor with probability
    q^{gap - 1} (probability one when the destination is occupied).

    This is the law of the rightmost array particles via x_n = lam^(n)_1 + n.
    """

    q: float
    a: tuple
    x: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.x:
            self.x = [n + 1 for n in range(len(self.a))]
        if any(self.x[i] >= self.x[i + 1] for i in range(len(self.x) - 1)):
            raise InvalidInput("q-PushTASEP positions must strictly increase")

    def push_probability(self, gap: int) -> float:
        if gap < 1:
            raise InvalidInput("gap must be at least 1")
        return float(self.q) ** (gap - 1)

    def _apply_move(self, rng) -> list[int]:
        u = rng.random() * float(sum(self.a))
        for n in range(len(self.a)):
            u -= float(self.a[n])
            if u <= 0:
                break
        moved = []
        i = n
        while True:
            push = None
            if i + 1 < len(self.x):
                push = self.push_probability(self.x[i + 1] - self.x[i])
            self.x[i] += 1
            moved.append(i + 1)
            if push is None or rng.random() >= push:
                break
            i += 1
        if any(self.x[j] >= self.x[j + 1] for j in range(len(self.x) - 1)):
            raise InvariantViolation("q-PushTASEP ordering broken")
        return moved

    def simulate(self, tau: float, rng) -> "QPushTasep":
        t = 0.0
        total = float(sum(self.a))
        while True:
            t += rng.exponential(1.0 / total)
            if t > tau:
                break
            self._apply_move(rng)
        return self


def leftmost_coordinates(arr: InterlacingArray) -> tuple[int, ...]:
    """(lam^(1)_1, ..., lam^(N)_N): the leftmost particle of each level."""
    return tuple(arr.row(k)[k - 1] for k in range(1, arr.depth + 1))


def rightmost_coordinates(arr: InterlacingArray) -> tuple[int, ...]:
    """(lam^(1)_1, ..., lam^(N)_1): the rightmost particle of each level."""
    return tuple(arr.row(k)[0] for k in range(1, arr.depth + 1))

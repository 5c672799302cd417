"""Continuous-time event-driven simulation of multivariate dynamics on
interlacing arrays, plus the standalone one-dimensional particle systems.

The Gillespie loop (Gillespie's direct method) works on nodes: a node is a
visited array's jump rates, (level, index, rate) entries in level and index
order, their total, and links to its successors.  Every DynamicsSpec owns
its tables, made on first use and freed with the spec: a slice table of
per-slice rates and cascade outcomes, and a state table that gives every
visited array (the flat tuple of its coordinates) an integer id and keeps
its node, shared across trajectories.  Each holds at most _STATE_TABLE_SIZE
entries.  A mixing whose weights are a function of the slice is no
exception: the function is called when its slice enters the table.

An event draws its time and the uniform that selects a jump entry, then
follows that entry's link.

- Hit: the link is compiled.  At each branch point, a propagation step that
  samples one of the slice's outcome lists, the walk draws one uniform,
  exactly where propagate would, and takes the child of the outcome it
  selects; the leaf gives the successor's id and the cascade.  No row is
  touched, no tuple built and no state hashed.
- Miss: the walk reaches an empty slot.  The slow path applies the jump to
  the rows, walks the rest of the cascade on the uniforms already drawn,
  then fresh ones, and looks the new array up by its coordinates.
  A cascade that moved rows k..K changes only the slices at levels k..K+1,
  so a new array has only those row pairs checked for interlacing and only
  those levels rebuilt (level 1's rate is constant; the dependency-graph idea
  of Gibson and Bruck's next-reaction method).  It enters the table if there
  is room, and the event's path, holding the outcome lists the steps used,
  is grafted into the links if its successor is in the table.

A state enters the table only after its touched row pairs passed the check,
and the state before the event interlaced, so every state in the table
interlaces, and so does every state a link leads to.  A node's total and the
selection walk add the rates in the same order, and a link and the miss path
draw the same uniforms as propagate, so every run is bit-identical to
rebuilding all levels and checking every row pair after every event.

A cascade is applied strictly bottom-up.  Each propagation step samples one
outcome of a branch list built once per slice, on the post-move lower row and
pre-move upper row (_branch looks it up); the nearest-neighbor recipes and
the randomized insertion share that one list shape and one sampler (_child).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Iterator, Sequence

from .arrays import InterlacingArray, interlaces
from .classifier import (
    F_quant,
    SliceContext,
    SliceSolution,
    f_quant,
    fundamental,
    fundamental_rows,
    left_pull,
    mix,
    pb,
    right_push,
    rsk,
    solve_w,
)
from .errors import InvalidInput, InvariantViolation
from .insertions import check_h_vector
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
    """A named dynamics on arrays of the given depth, an integer >= 1.

    h is required for the rsk / r / l / det-insertion recipes (length depth for
    rsk and det-insertion, depth-1 for r and l).  A mixing recipe carries
    component specs and either one constant weight per component or a callable
    (level, nu_bar, lam) -> weights evaluated per slice; no other recipe takes
    either.  The callable must be a function of those arguments alone: it is
    called once per slice the dynamics visits, and its weights are kept with
    the slice.

    The spec owns the slice and state tables of its runs (`_tables`); they
    are freed with it, and equal specs do not share them.  Each table holds
    at most _STATE_TABLE_SIZE = 2^15 entries; a slice or state past that
    bound is recomputed on every use.
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
        if not isinstance(self.depth, int) or self.depth < 1:
            raise InvalidInput(f"depth must be an integer >= 1, got {self.depth!r}")
        if len(self.a) != self.depth:
            raise InvalidInput(f"need {self.depth} drift parameters, got {len(self.a)}")
        if not all(0 < v < math.inf for v in self.a):
            raise InvalidInput(f"drift parameters must be positive and finite, got {self.a}")
        if self.recipe in _H_LENGTH:
            want = self.depth + _H_LENGTH[self.recipe]
            if self.h is None:
                raise InvalidInput(
                    f"recipe {self.recipe!r} needs an h-vector of length {want}"
                )
            check_h_vector(self.h, want)
        elif self.h is not None:
            raise InvalidInput(f"recipe {self.recipe!r} takes no h-vector")
        if self.recipe != "mixing" and (self.components or self.weights is not None):
            raise InvalidInput(f"recipe {self.recipe!r} takes no components or weights")
        if self.recipe == "mixing":
            if not self.components:
                raise InvalidInput("mixing needs component specs")
            for comp in self.components:
                if comp.recipe in ("mixing", "oconnell-pei"):
                    raise InvalidInput("mixing components must be nearest-neighbor primitives")
                if (comp.params, comp.a, comp.depth) != (self.params, self.a, self.depth):
                    raise InvalidInput("mixing components must share params, a, and depth")
            w, count = self.weights, len(self.components)
            if not (callable(w) or isinstance(w, (tuple, list)) and len(w) == count):
                raise InvalidInput(f"mixing needs one weight per component ({count}), got {w!r}")

    @cached_property
    def _tables(self) -> _DynamicsTables:
        """The slice and state tables of this dynamics, made on first use and
        freed with the spec.  A spec is frozen, so its tables never go stale."""
        return _DynamicsTables()

    @cached_property
    def _kinds(self) -> tuple:
        """The fundamental kind of each level k at index k - 1, or None where
        the recipe is not one; level 1 is pb for every recipe."""
        return (pb(),) + tuple(_level_kind(self, k) for k in range(2, self.depth + 1))


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
    return _solution(spec, k, SliceContext(tuple(nu_bar), tuple(lam), spec.params))


def _solution(spec: DynamicsSpec, k: int, ctx: SliceContext) -> SliceSolution:
    # the components of a mixing share ctx, so S and T are evaluated once per slice
    kind = spec._kinds[k - 1]
    if kind is not None:
        return fundamental(kind, ctx)
    if spec.recipe == "oconnell-pei-nn":
        return _oc_nn_solution(ctx)
    if spec.recipe == "det-insertion":
        return _det_insertion_solution(ctx, spec.h[k - 1])
    if spec.recipe == "mixing":
        sols = [_solution(comp, k, ctx) for comp in spec.components]
        if callable(spec.weights):
            thetas = spec.weights(k, ctx.nu_bar, ctx.lam)
        else:
            thetas = spec.weights
        return mix(sols, list(thetas))
    raise InvalidInput(f"recipe {spec.recipe!r} has no slice solution")


_STATE_TABLE_SIZE = 1 << 15  # entries per table; later ones are recomputed on use


class _DynamicsTables:
    """The caches of one dynamics, owned by its spec.

    slices maps (nu_bar, lam) to the slice data of _slice_data; ids maps a
    visited array, as the flat tuple of its coordinates, to its node id, and
    nodes[id] is its _Node.  Each table holds at most _STATE_TABLE_SIZE
    entries.  interned holds one copy of each cascade that a link stores
    and of each row of a final array, within the same bound.  misses counts
    the nodes built by simulate, refused those left out because the table
    was full."""

    __slots__ = ("slices", "ids", "nodes", "interned", "misses", "refused")

    def __init__(self):
        self.slices: dict = {}
        self.ids: dict = {}
        self.nodes: list = []
        self.interned: dict = {}
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
    slices = spec._tables.slices
    hit = slices.get((nu_bar, lam))
    if hit is not None:
        return hit
    if spec.recipe == "oconnell-pei":
        data = _insertion_slice(spec, k, nu_bar, lam)
    else:
        data = _nearest_neighbor_slice(spec, k, nu_bar, lam)
    if len(slices) < _STATE_TABLE_SIZE:
        slices[(nu_bar, lam)] = data
    return data


def _nearest_neighbor_slice(spec: DynamicsSpec, k: int, nu_bar: tuple, lam: tuple):
    """Slice data of a (w, c, r) dynamics: pusher j pushes to xi(j) with
    probability r_j and pulls j + 1 with probability c_j - r_j.  Every rate
    and probability is checked for honesty."""
    ctx = SliceContext(nu_bar, lam, spec.params)
    free, pushers = ctx.free, ctx.pushers
    kind = spec._kinds[k - 1]
    if kind is not None:
        w, c, r = fundamental_rows(kind, ctx)
    else:
        sol = _solution(spec, k, ctx)
        w = [sol.w[m] for m in free]
        c = [sol.c[j] for j in pushers]
        r = [sol.r[j] for j in pushers]
    a_k = float(spec.a[k - 1])
    entries = []
    for m, v in zip(free, w):
        v = float(v)
        if v < -_PROB_TOL:
            raise InvariantViolation(
                f"negative jump rate {v} at level {k}, index {m}: {spec.recipe} is not "
                f"an honest dynamics on this state"
            )
        if v > 0:
            entries.append((k, m, a_k * v))
    branch = [()] * (k - 1)
    # xi(j) of a pusher j is the free index next below j + 1
    for j, target, cj, rj in zip(pushers, free, c, r):
        cj, rj = float(cj), float(rj)
        if rj < -_PROB_TOL or cj - rj < -_PROB_TOL or cj > 1 + _PROB_TOL:
            raise InvariantViolation(
                f"triggered-move probabilities outside [0,1] at level {k}: c={cj}, r={rj}"
            )
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


def _branch(spec: DynamicsSpec, rows, k: int, j: int, prev: int):
    """The outcome list (branch[j - 1] of _slice_data) of the propagation
    step at level k after lower particle j moved from prev, or None for the
    forced short push.  rows holds the post-move lower row and pre-move
    upper row."""
    lam = rows[k - 1]
    if lam[j - 1] == prev:
        return None
    return _slice_data(spec, k, tuple(rows[k - 2]), tuple(lam))[1][j - 1]


def propagate(spec: DynamicsSpec, rows, k: int, j: int, prev: int, rng):
    """Decide the triggered move at level k after lower particle j moved,
    drawing one uniform from rng to select an outcome of its _branch list.

    rows holds the post-move lower row and pre-move upper row; prev is the
    mover's coordinate before its move.  Returns (index, cause) or None.
    """
    outcomes = _branch(spec, rows, k, j, prev)
    if outcomes is None:
        return j, "short_push"
    b = _child(outcomes, rng.random())
    return outcomes[b - 1][1:] if b <= len(outcomes) else None


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
    Equal (seed, index) reproduce bit-identical runs.  numpy is imported
    here, on first use, so that importing the package leaves it out."""
    import numpy as np

    bits = np.random.Philox(key=seed)
    bits.advance(index << 128)
    return np.random.Generator(bits)


def trajectory_rngs(seed, count: int) -> Iterator[np.random.Generator]:
    """The streams ``trajectory_rng(seed, i)`` for i = 0..count-1, in order.

    One Generator is rewound to each stream in turn by setting its Philox
    counter to i * 2**128 (the state ``advance(i << 128)`` reaches from
    zero), which costs far less than building a fresh Philox per
    trajectory; each stream is valid until the next one is drawn."""
    rng = trajectory_rng(seed)
    bits = rng.bit_generator
    state = bits.state
    counter = state["state"]["counter"] = [0, 0, 0, 0]
    for i in range(count):
        counter[2] = i & 0xFFFF_FFFF_FFFF_FFFF
        counter[3] = i >> 64
        bits.state = state
        yield rng


class _Node:
    """A visited array.

    levels[k - 1] holds level k's (k, index, rate) entries in index order;
    entries is the same entries as one flat tuple and total their sum, added
    left to right.  key is the flat tuple of the array's coordinates and
    final its InterlacingArray, made on first use.  links[i] holds what is
    known of the cascades that follow entry i's jump: None (not compiled
    yet), a leaf (successor id, cascade), or a branch point [outcomes,
    child, ..., child, stop child] where propagate draws a uniform: the
    slice's outcome list, one child per outcome and one for no move.  Links
    hold ids, never nodes, so the nodes form no reference cycles."""

    __slots__ = ("levels", "entries", "total", "key", "links", "final")

    def __init__(self, levels: tuple, key: tuple):
        self.levels = levels
        self.entries = entries = tuple(chain.from_iterable(levels))
        total = 0.0
        for _, _, rate in entries:
            total += rate
        self.total = total
        self.key = key
        self.links = [None] * len(entries)
        self.final = None


def _store(tables: _DynamicsTables, node: _Node) -> int | None:
    """Enter a newly built node in the table; returns its id, or None when
    it is left out."""
    tables.misses += 1
    nodes = tables.nodes
    if len(nodes) < _STATE_TABLE_SIZE:
        nid = tables.ids[node.key] = len(nodes)
        nodes.append(node)
        return nid
    tables.refused += 1
    return None


def _rows(key: tuple, n: int) -> list:
    """The rows, as tuples, of the depth-n array whose flat coordinates are key."""
    rows, start = [], 0
    for k in range(1, n + 1):
        rows.append(key[start:start + k])
        start += k
    return rows


def _intern(tables: _DynamicsTables, value: tuple) -> tuple:
    """The tables' copy of value, which is entered while there is room."""
    interned = tables.interned
    if len(interned) < _STATE_TABLE_SIZE:
        return interned.setdefault(value, value)
    return interned.get(value, value)


def _child(outcomes: tuple, u: float) -> int:
    """The child of a branch point that the uniform u selects: the first
    outcome with u < threshold (children 1..), else the stop child."""
    b = 1
    for threshold, _, _ in outcomes:
        if u < threshold:
            break
        b += 1
    return b


def _miss(spec: DynamicsSpec, tables, node: _Node, rows: list, i: int, drawn: list, rng):
    """The slow path of one event out of node, whose array rows holds.

    It applies entry i's jump and walks the rest of the cascade: each step
    takes its outcome list from _branch and, unless it is a short push, the
    next uniform of drawn, which holds those the link walk drew; past them
    it draws from rng and appends to drawn.  A successor missing from the
    table is checked for interlacing and built from node's levels,
    rebuilding only the levels the cascade touched.  rows is left holding
    the successor.  When the successor is in the table, the path of the
    event is grafted into node's links.  Returns (successor, cascade)."""
    n = len(rows)
    k, m, _ = node.entries[i]
    path = []  # (outcome list, child) of every step that drew a uniform
    cascade = [(k, m, "jump")]
    prev = rows[k - 1][m - 1]
    rows[k - 1][m - 1] += 1
    j = m
    for lvl in range(k + 1, n + 1):
        lam = rows[lvl - 1]
        outcomes = _branch(spec, rows, lvl, j, prev)
        if outcomes is None:
            target, cause = j, "short_push"
        else:
            if len(path) == len(drawn):
                drawn.append(rng.random())
            b = _child(outcomes, drawn[len(path)])
            path.append((outcomes, b))
            if b > len(outcomes):
                break
            _, target, cause = outcomes[b - 1]
        prev = lam[target - 1]
        lam[target - 1] += 1
        cascade.append((lvl, target, cause))
        j = target
    cascade = tuple(cascade)
    key = tuple(chain.from_iterable(rows))
    nid = tables.ids.get(key)
    if nid is None:
        _check_interlacing(rows, cascade)
        levels = list(node.levels)
        for lvl in range(max(k, 2), min(cascade[-1][0] + 1, n) + 1):  # level 1 is constant
            levels[lvl - 1] = _level_entries(spec, rows, lvl)
        succ = _Node(tuple(levels), key)
        nid = _store(tables, succ)
    else:
        succ = tables.nodes[nid]
    if nid is not None:
        cascade = _intern(tables, cascade)
        holder, slot = node.links, i
        for outcomes, b in path:
            point = holder[slot]
            if point is None:
                point = holder[slot] = [outcomes] + [None] * (len(outcomes) + 1)
            holder, slot = point, b
        holder[slot] = (nid, cascade)
    return succ, cascade


def simulate(
    spec: DynamicsSpec,
    tau: float,
    seed=None,
    initial: InterlacingArray | None = None,
    rng: np.random.Generator | None = None,
    log_events: bool = True,
):
    """Run one trajectory for time tau; returns (final array, event log)."""
    if not 0 <= tau < math.inf:
        raise InvalidInput(f"tau must be finite and nonnegative, got {tau}")
    n = spec.depth
    if initial is None:
        initial = InterlacingArray.zeros(n)
    if initial.depth != n:
        raise InvalidInput("initial state has wrong depth")
    if rng is None:
        rng = trajectory_rng(seed)
    tables = spec._tables
    nodes = tables.nodes
    key = tuple(chain.from_iterable(initial.levels))
    nid = tables.ids.get(key)
    rows = None  # the current array as lists while on the miss path, else None
    if nid is None:  # the initial array was validated on construction
        rows = [list(r) for r in initial.levels]
        node = _Node(tuple(_level_entries(spec, rows, k) for k in range(1, n + 1)), key)
        _store(tables, node)
    else:
        node = nodes[nid]
    t = 0.0
    events: list[Event] = []
    while True:
        total = node.total
        if total <= 0:
            break
        t += rng.standard_exponential() * (1.0 / total)
        if t > tau:
            break
        u = rng.random() * total
        for i, entry in enumerate(node.entries):
            u -= entry[2]
            if u <= 0:
                break  # else i is the last entry: rounding left u > 0
        link = node.links[i]
        drawn = []
        while link.__class__ is list:  # a branch point: one uniform, as propagate draws it
            v = rng.random()
            drawn.append(v)
            link = link[_child(link[0], v)]
        if link is None:
            if rows is None:
                rows = list(map(list, _rows(node.key, n)))
            node, cascade = _miss(spec, tables, node, rows, i, drawn, rng)
        else:
            nid, cascade = link
            node = nodes[nid]
            rows = None
        if log_events:
            events.append(Event(time=t, cascade=cascade))
    # the initial array was validated and every state reached interlaces (a
    # state in the table, or a miss whose touched row pairs passed the
    # check), so the final rows need no second validation
    final = node.final
    if final is None:
        rows = tuple(_intern(tables, row) for row in _rows(node.key, n))
        final = node.final = InterlacingArray.trusted(rows)
    return final, events


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

"""Deterministic insertion algorithms of the Schur regime and the induced
word <-> tableau-pair bijections.

An insertion rule is indexed by a vector h with 1 <= h[k] <= k+1 per level
(0-based k); h = (1,...,1) is the classical row insertion and h = (1,2,...,N)
the column insertion.  Inserting a letter m moves exactly one particle at each
of the levels m..N of the interlacing array:

  start   the particle at index h^(m) of level m tries to jump (donating the
          move to its first free right neighbor when blocked);
  step    after a move at index j of level k-1, level k moves at index j
          (a push, donated when blocked) if the pre-move coordinates matched
          or j < h^(k); otherwise at index j+1 (a pull, never blocked).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import lt
from typing import Sequence

from .arrays import InterlacingArray, check_chain, levels_to_tableau, tableau_to_levels
from .errors import InvalidInput, ResourceLimit

Word = tuple[int, ...]


def check_h_vector(h: Sequence[int], depth: int | None = None) -> tuple[int, ...]:
    h = tuple(map(int, h))
    if depth is not None and len(h) != depth:
        raise InvalidInput(f"h-vector must have length {depth}, got {len(h)}")
    for k, v in enumerate(h, start=1):
        if not 1 <= v <= k:
            raise InvalidInput(f"h-vector entry {v} at level {k} outside 1..{k}")
    return h


def _h_insert_rows(rows: list[list[int]], letter: int, h: Sequence[int]) -> int:
    """In-place h-insertion on interlacing row buffers; returns the index of
    the move at the top level.

    A jump or push aimed at a blocked index goes to the first free index
    below it (the scan of `arrays.xi`)."""
    j = h[letter - 1]
    prev = None
    for k in range(letter, len(rows) + 1):
        lam = rows[k - 1]
        if prev is None or lam[j - 1] == prev or j < h[k - 1]:
            if k > 1:
                nu_bar = rows[k - 2]
                while j > 1 and lam[j - 1] >= nu_bar[j - 2]:
                    j -= 1
        else:
            j += 1
        prev = lam[j - 1]
        lam[j - 1] = prev + 1
    return j


def h_insert_trace(arr: InterlacingArray, letter: int, h: Sequence[int]):
    """h-insert `letter` into `arr`; returns (new array, list of moves).

    Exactly one coordinate increments at each level letter..depth.
    """
    h = check_h_vector(h, arr.depth)
    n = arr.depth
    if not 1 <= letter <= n:
        raise InvalidInput(f"letter {letter} outside alphabet 1..{n}")
    rows = [list(r) for r in arr.levels]
    _h_insert_rows(rows, letter, h)
    # the move at each level letter..depth is the one coordinate that grew
    moves = [(k, 1 + next(i for i, (a, b) in enumerate(zip(old, new)) if a != b))
             for k, (old, new) in enumerate(zip(arr.levels, rows), start=1) if k >= letter]
    return InterlacingArray(tuple(tuple(r) for r in rows)), moves


def h_insert(arr: InterlacingArray, letter: int, h: Sequence[int]) -> InterlacingArray:
    return h_insert_trace(arr, letter, h)[0]


@dataclass(frozen=True)
class TableauPair:
    """An insertion tableau P (semistandard) and recording tableau Q (standard)
    of equal shape."""

    p_rows: tuple[tuple[int, ...], ...]
    q_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if list(map(len, self.p_rows)) != list(map(len, self.q_rows)):
            raise InvalidInput("P and Q must have equal shape")
        entries = sorted(itertools.chain.from_iterable(self.q_rows))
        if entries != list(range(1, len(entries) + 1)):
            raise InvalidInput("Q must contain 1..n once each")
        for upper, lower in zip(self.q_rows, self.q_rows[1:] + ((),)):
            if not all(map(lt, upper, upper[1:])):
                raise InvalidInput("Q rows must strictly increase")
            if not all(map(lt, upper, lower)):
                raise InvalidInput("Q columns must strictly increase")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.p_rows))

    @property
    def size(self) -> int:
        return sum(map(len, self.p_rows))


def h_rs_forward(word: Sequence[int], h: Sequence[int]) -> TableauPair:
    """The h-insertion correspondence: word -> (P, Q)."""
    h = check_h_vector(h)
    n = len(h)
    rows = [[0] * k for k in range(1, n + 1)]
    q_rows: list[list[int]] = [[] for _ in range(n)]
    for step, letter in enumerate(word, start=1):
        if not 1 <= letter <= n:
            raise InvalidInput(f"letter {letter} outside alphabet 1..{n}")
        q_rows[_h_insert_rows(rows, letter, h) - 1].append(step)
    check_chain(rows)
    return TableauPair(levels_to_tableau(rows), tuple(tuple(r) for r in q_rows if r))


def h_rs_inverse(pair: TableauPair, h: Sequence[int]) -> Word:
    """Recover the word from (P, Q) under the h-insertion correspondence.

    Reconstructs insertion trajectories last letter first: the Q entry locates
    the level-N endpoint, then on each slice exactly one of {independent jump,
    pull by j-1, push by xi^{-1}(j)} explains the move: the pull when
    h^(k) < j, else the jump when no index in (j, h^(k)] is free, else the
    push from f-1, f the first such free index.
    """
    h = check_h_vector(h)
    n = len(h)
    rows = tableau_to_levels(pair.p_rows, n)
    where = {entry: r for r, row in enumerate(pair.q_rows, start=1) for entry in row}
    q_shape = [len(r) for r in pair.q_rows]
    word_rev = []
    for step in range(pair.size, 0, -1):
        j = where[step]
        if q_shape[j - 1] == 0:
            raise InvalidInput("recording tableau inconsistent with shape")
        q_shape[j - 1] -= 1
        for k in range(n, 0, -1):
            lam = rows[k - 1]
            lam[j - 1] -= 1
            if j < k and lam[j - 1] < lam[j]:
                raise InvalidInput(f"pair not in the image: row {k} breaks at step {step}")
            if k == 1:
                if j != 1:
                    raise InvalidInput("pair not in the image: bad endpoint at level 1")
                letter = 1
                break
            nu_bar = rows[k - 2]
            if j < k and lam[j - 1] < nu_bar[j - 1]:
                continue  # short-range push: the mover below had the same index
            if j > 1 and lam[j - 1] >= nu_bar[j - 2]:
                raise InvalidInput("pair not in the image: moved particle was blocked")
            hk = h[k - 1]
            if hk < j:
                j -= 1
            else:
                f = j + 1
                while f <= hk and lam[f - 1] >= nu_bar[f - 2]:
                    f += 1
                if f > hk:
                    letter = k
                    break
                j = f - 1
        word_rev.append(letter)
    if any(map(any, rows)):
        raise InvalidInput("pair not in the image: residue after unwinding")
    return tuple(reversed(word_rev))


def permutation_words(n: int) -> list[Word]:
    """All permutation words of length n, in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def f_h(word: Sequence[int], h: Sequence[int]) -> Word:
    """The bijection of permutation words given by h-insertion followed by the
    inverse row insertion."""
    word = tuple(word)
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise InvalidInput("f_h is defined on permutation words")
    h = check_h_vector(h, n)
    pair = h_rs_forward(word, h)
    return h_rs_inverse(pair, (1,) * n)


def f_h_table(n: int) -> dict[tuple[int, ...], list[Word]]:
    """Images of all permutation words under every f_h, keyed by h-vector."""
    words = permutation_words(n)
    table = {}
    for h in itertools.product(*(range(1, k + 1) for k in range(1, n + 1))):
        table[h] = [f_h(w, h) for w in words]
    return table


# --- permutation group generated by the f_h maps -------------------------------

def _perm_mul(p: tuple, q: tuple) -> tuple:
    """Composition acting on points: (p * q)(x) = p(q(x))."""
    return tuple(p[i] for i in q)


def _perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _bsgs_order(generators: list[tuple]) -> int:
    """Order of the group generated by `generators` via a deterministic
    stabilizer chain (base and strong generating set).

    Levels are verified deepest-first; Schreier generators that do not sift to
    the identity are appended as strong generators at the level where sifting
    fails, and verification resumes there.
    """
    degree = len(generators[0]) if generators else 0
    identity = tuple(range(degree))
    gens = [g for g in dict.fromkeys(generators) if g != identity]
    if not gens:
        return 1
    base: list[int] = []
    transversals: list[dict[int, tuple]] = []

    def extend_base_for(g: tuple) -> None:
        if all(g[b] == b for b in base):
            base.append(next(p for p in range(degree) if g[p] != p))
            transversals.append({})

    for g in gens:
        extend_base_for(g)

    def level_gens(i: int) -> list[tuple]:
        prefix = base[:i]
        return [g for g in gens if all(g[b] == b for b in prefix)]

    def orbit_transversal(i: int, xs: list[tuple]) -> dict[int, tuple]:
        b = base[i]
        trans = {b: identity}
        frontier = [b]
        while frontier:
            pt = frontier.pop()
            rep = trans[pt]
            for g in xs:
                img = g[pt]
                if img not in trans:
                    trans[img] = _perm_mul(g, rep)
                    frontier.append(img)
        return trans

    def strip(g: tuple, start: int) -> tuple[tuple, int]:
        for lev in range(start, len(base)):
            rep = transversals[lev].get(g[base[lev]])
            if rep is None:
                return g, lev
            g = _perm_mul(_perm_inv(rep), g)
        return g, len(base)

    i = len(base) - 1
    while i >= 0:
        xs = level_gens(i)
        trans = orbit_transversal(i, xs)
        transversals[i] = trans
        descended = False
        for pt, rep in trans.items():
            for g in xs:
                schreier = _perm_mul(_perm_inv(trans[g[pt]]), _perm_mul(g, rep))
                if schreier == identity:
                    continue
                residue, at = strip(schreier, i + 1)
                if residue == identity:
                    continue
                gens.append(residue)
                extend_base_for(residue)
                i = at
                descended = True
                break
            if descended:
                break
        if descended:
            continue
        i -= 1

    order = 1
    for trans in transversals:
        order *= len(trans)
    return order


def group_order(n: int, limit: int = 4) -> int:
    """Order of the subgroup of permutations of the n! permutation words that
    is generated by all the maps f_h.

    Uses a stabilizer chain on degree n!, and refuses n above `limit`.
    n <= 4 takes well under a second; n = 5 (degree 120) has not been seen to
    finish, having run for over 300 s, so it needs an explicit limit=5.
    """
    if n < 1:
        raise InvalidInput("n must be positive")
    if n > limit:
        raise ResourceLimit(f"group order on degree {n}! is over the limit {limit}!")
    index = {w: i for i, w in enumerate(permutation_words(n))}
    return _bsgs_order([tuple(index[w] for w in images) for images in f_h_table(n).values()])

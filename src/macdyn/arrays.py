"""Signatures, interlacing arrays, and the tableau correspondence.

A *signature* of length k is a weakly decreasing tuple of integers (negative
parts allowed).  An *interlacing array* of depth N is a chain of signatures
lambda^(1) < lambda^(2) < ... < lambda^(N) where consecutive rows interlace.
Particle indices are 1-based throughout, matching the usual convention that
index 1 is the rightmost (largest) coordinate of a row.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import le, lt
from typing import Iterator, Sequence

from .errors import BlockedMove, InvalidInput

Signature = tuple[int, ...]


def check_signature(parts: Sequence[int]) -> Signature:
    """Validate weak decrease and return the signature as a tuple."""
    sig = tuple(int(p) for p in parts)
    for i in range(len(sig) - 1):
        if sig[i] < sig[i + 1]:
            raise InvalidInput(f"not weakly decreasing: {sig}")
    return sig


def interlaces(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff mu < lam, i.e. lam_{j+1} <= mu_j <= lam_j for all j.

    Requires len(mu) == len(lam) - 1.
    """
    if len(mu) != len(lam) - 1:
        raise InvalidInput(f"length mismatch: |mu|={len(mu)}, |lambda|={len(lam)}")
    for j in range(len(mu)):
        if not (lam[j + 1] <= mu[j] <= lam[j]):
            return False
    return True


def horizontal_strip(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff lam/mu is a horizontal strip (signatures of equal length)."""
    if len(mu) != len(lam):
        raise InvalidInput("horizontal_strip expects equal lengths; use interlaces otherwise")
    if not all(mu[i] <= lam[i] for i in range(len(mu))):
        return False
    # at most one box per column <=> lam_{j+1} <= mu_j
    return all(lam[j + 1] <= mu[j] for j in range(len(mu) - 1))


def vertical_strip(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff lam/mu is a vertical strip: every row gains at most one box."""
    if len(mu) != len(lam):
        raise InvalidInput("vertical_strip expects equal lengths")
    return all(lam[i] - mu[i] in (0, 1) for i in range(len(mu)))


def add_box(lam: Sequence[int], j: int) -> Signature:
    """Increment coordinate j (1-based).  Raises BlockedMove if the result is not a signature."""
    if not 1 <= j <= len(lam):
        raise InvalidInput(f"index {j} out of range for length {len(lam)}")
    if j > 1 and lam[j - 1] >= lam[j - 2]:
        raise BlockedMove(f"coordinate {j} of {tuple(lam)} is blocked")
    return tuple(lam[:j - 1]) + (lam[j - 1] + 1,) + tuple(lam[j:])


def free_indices(nu_bar: Sequence[int], lam: Sequence[int]) -> tuple[int, ...]:
    """Indices j (1-based) with lam_j < nu_bar_{j-1}, reading nu_bar_0 = +infinity.

    These are the particles of the upper row that are not blocked by the lower
    row; index 1 is always free.
    """
    if len(nu_bar) != len(lam) - 1:
        raise InvalidInput("free_indices expects lower row one shorter than upper row")
    out = [1]
    for j in range(2, len(lam) + 1):
        if lam[j - 1] < nu_bar[j - 2]:
            out.append(j)
    return tuple(out)


def xi(nu_bar: Sequence[int], lam: Sequence[int], i: int) -> int:
    """First free index <= i: the particle that receives a donated move aimed at i.

    Scans down from i past the blocked particles; index 1 is always free."""
    k = len(lam)
    if len(nu_bar) != k - 1:
        raise InvalidInput("xi expects lower row one shorter than upper row")
    j = i if i < k else k
    while j > 1 and lam[j - 1] >= nu_bar[j - 2]:
        j -= 1
    return j if j > 1 else 1


def xi_inverse(nu_bar: Sequence[int], lam: Sequence[int], m: int) -> int | None:
    """The unique j with j+1 free and xi(j) == m, or None if no push lands at m.

    For free m it is one less than the next free index above m; a blocked m
    receives no push."""
    k = len(lam)
    if len(nu_bar) != k - 1:
        raise InvalidInput("xi_inverse expects lower row one shorter than upper row")
    if not 1 <= m <= k or (m > 1 and lam[m - 1] >= nu_bar[m - 2]):
        return None
    for j in range(m + 1, k + 1):
        if lam[j - 1] < nu_bar[j - 2]:
            return j - 1
    return None


@dataclass(frozen=True)
class InterlacingArray:
    """A Gelfand-Tsetlin scheme: levels[k-1] is the length-k row, k = 1..depth."""

    levels: tuple[Signature, ...]

    def __post_init__(self):
        levels = tuple(tuple(int(c) for c in row) for row in self.levels)
        object.__setattr__(self, "levels", levels)
        for k, row in enumerate(levels, start=1):
            if len(row) != k:
                raise InvalidInput(f"row {k} has length {len(row)}, expected {k}")
        check_chain(levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def top(self) -> Signature:
        return self.levels[-1]

    @classmethod
    def zeros(cls, depth: int) -> "InterlacingArray":
        return cls(tuple((0,) * k for k in range(1, depth + 1)))

    @classmethod
    def trusted(cls, levels: tuple[Signature, ...]) -> "InterlacingArray":
        """Wrap rows (tuples of ints) that the caller has already checked to
        have lengths 1..depth and to interlace, skipping the re-validation."""
        arr = object.__new__(cls)
        object.__setattr__(arr, "levels", levels)
        return arr

    def row(self, k: int) -> Signature:
        """Row at level k (1-based)."""
        return self.levels[k - 1]

    def to_text(self) -> str:
        """Canonical text form: rows bottom to top, coordinates left to right
        (increasing), rows separated by ';'."""
        return ";".join(",".join(str(c) for c in reversed(row)) for row in self.levels)

    @classmethod
    def from_text(cls, text: str) -> "InterlacingArray":
        rows = []
        for chunk in text.strip().split(";"):
            try:
                coords = [int(tok) for tok in chunk.split(",") if tok.strip() != ""]
            except ValueError:
                raise InvalidInput(f"not an array text: {text!r}") from None
            rows.append(tuple(reversed(coords)))
        return cls(tuple(rows))


def check_chain(levels: Sequence[Sequence[int]]) -> None:
    """Raise InvalidInput unless consecutive rows (of lengths 1..depth)
    interlace, which also makes every row a signature."""
    for k in range(1, len(levels)):
        mu, lam = levels[k - 1], levels[k]
        if not interlaces(mu, lam):
            raise InvalidInput(
                f"rows {k} and {k + 1} do not interlace: {tuple(mu)} vs {tuple(lam)}"
            )


def tableau_to_levels(rows: Sequence[Sequence[int]], depth: int) -> list[list[int]]:
    """Semistandard tableau over {1..depth} -> the checked rows of its
    interlacing array, as lists: row k is the shape of the letters 1..k.
    The chain check rejects a shape that is not a partition."""
    if len(rows) > depth:
        raise InvalidInput(f"tableau has {len(rows)} rows, more than depth {depth}")
    levels = [[0] * k for k in range(1, depth + 1)]
    above: Sequence[int] = ()
    for i, row in enumerate(rows):
        if not all(map(le, row, row[1:])):
            raise InvalidInput("rows of a semistandard tableau must weakly increase")
        if row and not 1 <= row[0] <= row[-1] <= depth:
            raise InvalidInput(f"row {tuple(row)} has letters outside alphabet 1..{depth}")
        if not all(map(lt, above, row)):
            raise InvalidInput("columns of a semistandard tableau must strictly increase")
        for k in range(i + 1, depth + 1):
            levels[k - 1][i] = bisect_right(row, k)
        above = row
    check_chain(levels)
    return levels


def levels_to_tableau(levels: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Rows that interlace (so the top row's last coordinate is the least)
    and are nonnegative -> semistandard tableau rows."""
    if levels and levels[-1][-1] < 0:
        raise InvalidInput("tableau correspondence needs nonnegative coordinates")
    out: list[list[int]] = [[] for _ in levels]
    lower: Sequence[int] = (0,)
    for k, row in enumerate(levels, start=1):
        for i, c in enumerate(row):
            out[i] += [k] * (c - lower[i])
        lower = (*row, 0)
    return tuple(tuple(r) for r in out if r)


def tableau_to_array(rows: Sequence[Sequence[int]], depth: int) -> InterlacingArray:
    """Semistandard tableau over {1..depth} -> interlacing array."""
    return InterlacingArray.trusted(tuple(map(tuple, tableau_to_levels(rows, depth))))


def array_to_tableau(arr: InterlacingArray) -> tuple[tuple[int, ...], ...]:
    """Interlacing array (nonnegative rows) -> semistandard tableau rows."""
    return levels_to_tableau(arr.levels)


@dataclass(frozen=True)
class SkewChain:
    """A skew semistandard tableau as its chain of interlacing signatures,
    bottom shape first.  Consecutive rows either grow in length by one
    (trapezoidal chain) or keep their length (padded columns), and each step
    must be a horizontal strip."""

    rows: tuple[Signature, ...]

    def __post_init__(self):
        rows = tuple(check_signature(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for lower, upper in zip(rows, rows[1:]):
            if len(upper) == len(lower) + 1:
                ok = interlaces(lower, upper)
            elif len(upper) == len(lower):
                ok = horizontal_strip(lower, upper)
            else:
                raise InvalidInput("chain rows must grow by at most one part per step")
            if not ok:
                raise InvalidInput(f"chain step {lower} -> {upper} is not a horizontal strip")

    @property
    def bottom(self) -> Signature:
        return self.rows[0]

    @property
    def top(self) -> Signature:
        return self.rows[-1]


def skew_chains(lam: Sequence[int], mu: Sequence[int], letters: int) -> Iterator[SkewChain]:
    """All skew semistandard tableaux of shape lam/mu over {1..letters}.

    With len(lam) == len(mu) the chain keeps row lengths fixed (equal-length
    horizontal strips); with len(lam) == len(mu) + letters it grows one part
    per step.  Yields nothing when no tableau exists.
    """
    lam = check_signature(lam)
    mu = check_signature(mu)
    if len(mu) < len(lam) <= len(mu) + letters and (not lam or lam[-1] >= 0):
        lam = lam + (0,) * (len(mu) + letters - len(lam))  # trapezoid convention
    growing = len(lam) == len(mu) + letters
    if not growing and len(lam) != len(mu):
        raise InvalidInput("skew_chains needs len(lam) == len(mu) or len(mu) + letters")

    def rec(top: Signature, depth: int) -> Iterator[tuple[Signature, ...]]:
        if depth == 0:
            if top == mu:
                yield (top,)
            return
        if growing:
            below = interlacing_predecessors(top)
        else:
            below = (
                k
                for k in itertools.product(
                    *(
                        range(max(mu[i], top[i + 1] if i + 1 < len(top) else mu[i]), top[i] + 1)
                        for i in range(len(top))
                    )
                )
                if all(a >= b for a, b in zip(k, k[1:]))
            )
        for kappa in below:
            if growing and any(kappa[i] < mu[i] for i in range(min(len(kappa), len(mu)))):
                continue
            for chain in rec(tuple(kappa), depth - 1):
                yield chain + (top,)

    for chain in rec(lam, letters):
        yield SkewChain(chain)


def interlacing_predecessors(lam: Sequence[int]) -> Iterator[Signature]:
    """All signatures nu_bar of length len(lam)-1 with nu_bar < lam."""
    k = len(lam)
    if k == 0:
        return
    ranges = [range(lam[j + 1], lam[j] + 1) for j in range(k - 1)]
    for combo in itertools.product(*ranges):
        yield combo


def enumerate_arrays(lam_top: Sequence[int], depth: int) -> Iterator[InterlacingArray]:
    """All interlacing arrays of the given depth whose top row is lam_top:
    the skew tableaux of shape lam_top/() over {1..depth}, row by row.

    lam_top is zero-padded to length `depth`; it must be nonnegative if padding
    is needed.  Iteration is level by level from the top, O(depth) memory.
    Depth 0 yields nothing.
    """
    lam_top = check_signature(lam_top)
    if len(lam_top) > depth:
        raise InvalidInput("top row longer than requested depth")
    if len(lam_top) < depth:
        if lam_top and lam_top[-1] < 0:
            raise InvalidInput("cannot zero-pad a signature with negative parts")
        lam_top = lam_top + (0,) * (depth - len(lam_top))
    if depth:
        for chain in skew_chains(lam_top, (), depth):
            yield InterlacingArray.trusted(chain.rows[1:])

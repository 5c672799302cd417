import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdyn.arrays import (
    InterlacingArray,
    add_box,
    array_to_tableau,
    enumerate_arrays,
    free_indices,
    interlaces,
    interlacing_predecessors,
    horizontal_strip,
    tableau_to_array,
    xi,
    xi_inverse,
)
from macdyn.errors import BlockedMove, InvalidInput

from helpers import (
    letter_counts,
    partitions_up_to,
    reference_enumerate_arrays,
    value_or_raised,
    with_move,
)


def weyl_dimension(lam, n):
    """Independent oracle: product formula for the number of depth-n arrays
    with top row lam (the classical dimension formula)."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = den = 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num *= lam[i - 1] - i - lam[j - 1] + j
            den *= j - i
    assert num % den == 0
    return num // den


def signatures(length, lo, hi):
    for comb in itertools.combinations_with_replacement(range(hi, lo - 1, -1), length):
        yield comb


class TestInterlaces:
    def test_paper_chain(self):
        assert interlaces((3,), (4, 2))

    def test_all_zero(self):
        assert interlaces((0,), (0, 0))

    def test_violation(self):
        assert not interlaces((3, 1), (2, 2, 0))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            interlaces((1, 1), (2, 1))

    def test_matches_horizontal_strip(self):
        # interlacing <=> the skew shape is a horizontal strip (<=1 box per column)
        for lam in signatures(3, 0, 5):
            if sum(lam) > 8:
                continue
            for mu in signatures(2, 0, 5):
                padded = mu + (0,)
                strip = all(padded[i] <= lam[i] for i in range(3)) and horizontal_strip(
                    padded, lam
                )
                assert interlaces(mu, lam) == strip

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.integers(-3, 3),
    )
    def test_translation_invariance(self, lam, shift):
        for mu in itertools.islice(
            itertools.product(*(range(lam[j + 1], lam[j] + 1) for j in range(len(lam) - 1))),
            20,
        ):
            shifted_mu = tuple(c + shift for c in mu)
            shifted_lam = tuple(c + shift for c in lam)
            assert interlaces(mu, lam) == interlaces(shifted_mu, shifted_lam)
            assert free_indices(mu, lam) == free_indices(shifted_mu, shifted_lam)
            for i in range(1, len(lam) + 1):
                assert xi(mu, lam, i) == xi(shifted_mu, shifted_lam, i)


class TestFreeIndices:
    def test_two_free(self):
        assert free_indices((1,), (3, 0)) == (1, 2)

    def test_blocked(self):
        assert free_indices((2,), (3, 2)) == (1,)

    def test_first_level(self):
        assert free_indices((), (5,)) == (1,)

    def test_xi_blocked_run(self):
        # free set {1, 4}: indices 2 and 3 donate to 1
        nu_bar, lam = (3, 3, 3), (4, 3, 3, 2)
        assert free_indices(nu_bar, lam) == (1, 4)
        assert xi(nu_bar, lam, 3) == 1
        assert xi(nu_bar, lam, 4) == 4
        assert xi_inverse(nu_bar, lam, 1) == 3
        assert xi_inverse(nu_bar, lam, 4) is None

    def test_xi_identity_on_free(self):
        nu_bar, lam = (2, 1), (3, 2, 0)
        for i in free_indices(nu_bar, lam):
            assert xi(nu_bar, lam, i) == i

    def test_xi_scans_match_free_list(self):
        # the direct scans of xi and xi_inverse against their definitions
        # through the free list, on every slice with k <= 5, coordinates <= 3
        for k in range(1, 6):
            for lam in itertools.combinations_with_replacement(range(3, -1, -1), k):
                for nu_bar in interlacing_predecessors(lam):
                    free = free_indices(nu_bar, lam)
                    for i in range(0, k + 2):
                        assert xi(nu_bar, lam, i) == max([1] + [j for j in free if j <= i])
                        pos = free.index(i) if i in free else None
                        want = None if pos is None or pos + 1 == len(free) else free[pos + 1] - 1
                        assert xi_inverse(nu_bar, lam, i) == want
        with pytest.raises(InvalidInput):
            xi((1, 0), (2, 0), 1)


class TestAddBox:
    def test_plain(self):
        assert add_box((2, 2), 1) == (3, 2)

    def test_blocked(self):
        with pytest.raises(BlockedMove):
            add_box((2, 2), 2)

    def test_negative_parts(self):
        assert add_box((0, -1), 2) == (0, 0)


class TestTableauBijection:
    def test_worked_example(self):
        rows = ((1, 1, 1, 2, 5), (2, 2, 3, 3), (3, 4, 4), (4, 5, 5))
        arr = tableau_to_array(rows, 5)
        assert arr.levels == ((3,), (4, 2), (4, 4, 1), (4, 4, 3, 1), (5, 4, 3, 3, 0))
        assert array_to_tableau(arr) == rows

    def test_empty_tableau(self):
        assert tableau_to_array((), 0).depth == 0

    def test_no_letter_two(self):
        arr = InterlacingArray(((2,), (2, 0)))
        assert array_to_tableau(arr) == ((1, 1),)

    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidInput):
            tableau_to_array(((2, 1),), 2)
        with pytest.raises(InvalidInput):
            tableau_to_array(((1, 1), (1,)), 2)

    def test_round_trip_exhaustive(self):
        # every array of depth <= 5 with coordinates <= 4
        total = 0
        for depth in range(1, 6):
            for top in signatures(depth, 0, 4):
                for arr in enumerate_arrays(top, depth):
                    assert tableau_to_array(array_to_tableau(arr), depth) == arr
                    total += 1
        assert total == 31420  # frozen census of the scanned range


class TestEnumerate:
    def test_two_arrays(self):
        assert len(list(enumerate_arrays((1, 0), 2))) == 2

    def test_zero_shape(self):
        assert len(list(enumerate_arrays((0, 0, 0), 3))) == 1

    def test_single_row(self):
        assert len(list(enumerate_arrays((7,), 1))) == 1

    def test_matches_the_recursive_twin(self):
        # tops with |lam| <= 4, unpadded and with a zero appended, a few with
        # negative parts and one that is not a signature, at depths 0-4 (and
        # -1): the same arrays in the same order, or the same exception type
        tops = [top for lam in partitions_up_to(4) for top in (lam, lam + (0,))]
        tops += [(1, -1), (0, -2), (-1,), (2, 0, -1), (1, 2)]
        for top in tops:
            for depth in range(-1, 5):
                got = value_or_raised(lambda: [a.levels for a in enumerate_arrays(top, depth)])
                want = value_or_raised(
                    lambda: [a.levels for a in reference_enumerate_arrays(top, depth)])
                assert got == want, (top, depth)
                if isinstance(got, list):
                    assert all(type(c) is int for levels in got for row in levels for c in row)

    def test_depth_zero_yields_nothing(self):
        assert list(enumerate_arrays((), 0)) == []

    def test_counts_match_weyl_formula(self):
        for n in range(1, 5):
            for lam in signatures(n, 0, 6):
                if sum(lam) > 6:
                    continue
                count = sum(1 for _ in enumerate_arrays(lam, n))
                assert count == weyl_dimension(lam, n), (lam, n)


class TestArrayType:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            InterlacingArray(((1,), (3, 2)))
        with pytest.raises(InvalidInput):
            InterlacingArray(((1, 0),))

    def test_text_round_trip(self):
        arr = InterlacingArray.from_text("2;1,3;1,2,4")
        assert arr.levels == ((2,), (3, 1), (4, 2, 1))
        assert arr.to_text() == "2;1,3;1,2,4"

    def test_with_move(self):
        arr = with_move(InterlacingArray.zeros(2), 2, 1)
        assert arr.levels == ((0,), (1, 0))
        with pytest.raises(InvalidInput):
            # a lone move of the bottom particle breaks interlacing: this is
            # exactly the situation the short-range push exists to repair
            with_move(InterlacingArray.zeros(2), 1, 1)

    @settings(max_examples=50)
    @given(st.integers(1, 4), st.integers(0, 3))
    def test_zeros_and_text(self, depth, bump):
        arr = InterlacingArray.zeros(depth)
        for _ in range(bump):
            arr = with_move(arr, depth, 1)
        assert InterlacingArray.from_text(arr.to_text()) == arr


class TestSkewChains:
    def test_chain_validation(self):
        from macdyn.arrays import SkewChain

        SkewChain(((1,), (2, 1)))
        SkewChain(((1, 0), (2, 1)))
        with pytest.raises(InvalidInput):
            SkewChain(((2,), (1, 1)))  # not a horizontal strip
        with pytest.raises(InvalidInput):
            SkewChain(((1,), (2, 1, 0)))  # grows by two parts

    def test_letter_counts(self):
        from macdyn.arrays import SkewChain

        chain = SkewChain(((1,), (2, 1), (3, 2)))
        assert letter_counts(chain) == (2, 2)
        assert chain.bottom == (1,) and chain.top == (3, 2)

    def test_enumeration_matches_skew_polynomial(self):
        from fractions import Fraction as F

        from macdyn.arrays import skew_chains
        from macdyn.macdonald import MacParams, branch_psi, skew_P

        params = MacParams(F(1, 2), F(1, 3))
        xs = (F(1, 2), F(3, 7))
        for lam, mu in [((2, 1), ()), ((3, 1), (1,)), ((2, 2), (1, 1))]:
            direct = 0
            for chain in skew_chains(lam, mu, len(xs)):
                weight = F(1)
                for lower, upper in zip(chain.rows, chain.rows[1:]):
                    weight *= branch_psi(lower, upper, params)
                for x, e in zip(xs, letter_counts(chain)):
                    weight *= x ** e
                direct += weight
            assert skew_P(lam, mu, xs, params) == direct

    def test_no_tableau_yields_nothing(self):
        from macdyn.arrays import skew_chains

        assert list(skew_chains((1, 1), (2, 0), 1)) == []

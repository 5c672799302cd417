import itertools
import math
import random

import pytest

from macdyn.arrays import InterlacingArray, array_to_tableau, enumerate_arrays, tableau_to_array
from macdyn.errors import InvalidInput, ResourceLimit
from macdyn.insertions import (
    TableauPair,
    _bsgs_order,
    f_h,
    group_order,
    h_insert,
    h_insert_trace,
    h_rs_forward,
    h_rs_inverse,
)

from helpers import (
    reference_array_to_tableau,
    reference_h_insert_rows,
    reference_h_rs_forward,
    reference_h_rs_inverse,
    reference_tableau_to_array,
)

ROW = lambda n: (1,) * n
COL = lambda n: tuple(range(1, n + 1))


# --- independently written textbook insertions used as oracles -----------------

def textbook_row_insert(rows, letter):
    rows = [list(r) for r in rows]
    x = letter
    for row in rows:
        bigger = next((i for i, y in enumerate(row) if y > x), None)
        if bigger is None:
            row.append(x)
            return tuple(tuple(r) for r in rows)
        row[bigger], x = x, row[bigger]
    rows.append([x])
    return tuple(tuple(r) for r in rows)


def textbook_column_insert(rows, letter):
    cols_count = max((len(r) for r in rows), default=0)
    cols = [
        [rows[i][j] for i in range(len(rows)) if len(rows[i]) > j] for j in range(cols_count)
    ]
    x = letter
    for col in cols:
        bigger = next((i for i, y in enumerate(col) if y >= x), None)
        if bigger is None:
            col.append(x)
            x = None
            break
        col[bigger], x = x, col[bigger]
    if x is not None:
        cols.append([x])
    depth = max(len(c) for c in cols)
    out = [
        tuple(cols[j][i] for j in range(len(cols)) if len(cols[j]) > i) for i in range(depth)
    ]
    return tuple(out)


# --- paper worked examples ------------------------------------------------------

BIG_ARRAY = InterlacingArray(
    ((2,), (3, 1), (4, 3, 1), (4, 4, 2, 1), (4, 4, 3, 1, 0), (5, 4, 4, 1, 0, 0))
)
BIG_H = (1, 2, 1, 4, 4, 1)


class TestHInsertFixtures:
    def test_mixed_h_first_insertion(self):
        out = h_insert(BIG_ARRAY, 2, BIG_H)
        assert out.levels == ((2,), (3, 2), (4, 3, 2), (4, 4, 3, 1), (4, 4, 4, 1, 0), (5, 4, 4, 2, 0, 0))

    def test_mixed_h_second_insertion_with_donations(self):
        two = h_insert(h_insert(BIG_ARRAY, 2, BIG_H), 2, BIG_H)
        assert two.levels == ((2,), (4, 2), (4, 4, 2), (5, 4, 3, 1), (5, 4, 4, 1, 0), (5, 5, 4, 2, 0, 0))

    def test_row_display(self):
        base = InterlacingArray(((2,), (3, 1), (4, 2, 1), (4, 2, 1, 1), (5, 4, 1, 1, 0)))
        out = h_insert(base, 2, ROW(5))
        assert out.levels == ((2,), (4, 1), (4, 3, 1), (4, 3, 1, 1), (5, 4, 2, 1, 0))

    def test_column_display_with_donation(self):
        base = InterlacingArray(((2,), (3, 1), (4, 2, 1), (4, 2, 1, 1), (5, 4, 1, 1, 0)))
        out = h_insert(base, 2, COL(5))
        assert out.levels == ((2,), (3, 2), (4, 3, 1), (4, 3, 1, 1), (6, 4, 1, 1, 0))

    def test_one_move_per_level(self):
        rnd = random.Random(1)
        for _ in range(50):
            n = rnd.randint(1, 5)
            h = tuple(rnd.randint(1, k) for k in range(1, n + 1))
            arr = InterlacingArray.zeros(n)
            for _ in range(rnd.randint(0, 10)):
                arr = h_insert(arr, rnd.randint(1, n), h)
            letter = rnd.randint(1, n)
            new, moves = h_insert_trace(arr, letter, h)
            assert [lvl for lvl, _ in moves] == list(range(letter, n + 1))
            assert sum(new.top) == sum(arr.top) + 1

    def test_bad_h_vector(self):
        with pytest.raises(InvalidInput):
            h_insert(InterlacingArray.zeros(2), 1, (1, 3))
        with pytest.raises(InvalidInput):
            h_insert(InterlacingArray.zeros(2), 1, (1,))


class TestRowColumnSpecialization:
    def test_against_textbook_row(self):
        rnd = random.Random(2)
        n = 4
        for _ in range(2500):
            word = [rnd.randint(1, n) for _ in range(rnd.randint(0, 9))]
            arr = InterlacingArray.zeros(n)
            rows = ()
            for letter in word:
                arr = h_insert(arr, letter, ROW(n))
                rows = textbook_row_insert(rows, letter)
            assert array_to_tableau(arr) == rows

    def test_against_textbook_column(self):
        rnd = random.Random(3)
        n = 4
        for _ in range(2500):
            word = [rnd.randint(1, n) for _ in range(rnd.randint(0, 9))]
            arr = InterlacingArray.zeros(n)
            rows = ()
            for letter in word:
                arr = h_insert(arr, letter, COL(n))
                rows = textbook_column_insert(rows, letter)
            assert array_to_tableau(arr) == rows


class TestCorrespondence:
    def test_two_letter_word(self):
        pair = h_rs_forward((1, 1), (1,))
        assert pair.p_rows == ((1, 1),)
        assert pair.q_rows == ((1, 2),)

    def test_sizes_and_standardness(self):
        rnd = random.Random(4)
        for _ in range(100):
            n = rnd.randint(1, 4)
            h = tuple(rnd.randint(1, k) for k in range(1, n + 1))
            word = tuple(rnd.randint(1, n) for _ in range(rnd.randint(0, 8)))
            pair = h_rs_forward(word, h)  # TableauPair validates Q standard
            assert pair.size == len(word)

    def test_exhaustive_round_trip_n3(self):
        for h in itertools.product((1,), (1, 2), (1, 2, 3)):
            for word in itertools.product((1, 2, 3), repeat=4):
                pair = h_rs_forward(word, h)
                assert h_rs_inverse(pair, h) == word

    def test_round_trip_other_direction(self):
        # pair -> word -> pair on pairs arising from words
        rnd = random.Random(5)
        for _ in range(300):
            n = rnd.randint(2, 4)
            h = tuple(rnd.randint(1, k) for k in range(1, n + 1))
            word = tuple(rnd.randint(1, n) for _ in range(6))
            pair = h_rs_forward(word, h)
            again = h_rs_forward(h_rs_inverse(pair, h), h)
            assert again == pair

    def test_bijection_onto_all_pairs(self):
        # the map is injective (round trips) and hits every (P, Q) pair: the
        # image count equals sum over shapes of (#SSYT) * (#SYT) = N^n
        from macdyn.macdonald import dim_standard

        n, length = 3, 4
        for h in itertools.product((1,), (1, 2), (1, 2, 3)):
            images = {h_rs_forward(word, h) for word in itertools.product((1, 2, 3), repeat=length)}
            assert len(images) == n ** length
        total = 0
        for lam in [(4,), (3, 1), (2, 2), (2, 1, 1)]:
            ssyt = sum(1 for _ in enumerate_arrays(lam, n))
            total += ssyt * dim_standard(lam)
        assert total == n ** length

    def test_invalid_pair_detected(self):
        assert h_rs_inverse(TableauPair(((1, 1),), ((1, 2),)), (1, 1)) == (1, 1)
        with pytest.raises(InvalidInput):
            # letter 3 does not fit the depth-2 alphabet of h = (1, 2)
            h_rs_inverse(TableauPair(((1, 3),), ((1, 2),)), (1, 2))
        with pytest.raises(InvalidInput):
            TableauPair(((1, 1),), ((2, 1),))  # Q not standard

    def test_schensted_first_row_is_lis(self):
        rnd = random.Random(6)
        for _ in range(200):
            n = rnd.randint(2, 5)
            word = tuple(rnd.randint(1, n) for _ in range(rnd.randint(1, 9)))
            pair = h_rs_forward(word, (1,) * n)
            # longest weakly increasing subsequence by patience sorting
            import bisect

            tails = []
            for x in word:
                pos = bisect.bisect_right(tails, x)
                if pos == len(tails):
                    tails.append(x)
                else:
                    tails[pos] = x
            assert len(pair.p_rows[0]) == len(tails)


def h_vectors(n):
    return list(itertools.product(*(range(1, k + 1) for k in range(1, n + 1))))


class TestRowLevelTwin:
    """The row-level h_rs_forward/h_rs_inverse against the twin that goes
    through InterlacingArray, array_to_tableau, tableau_to_array and
    xi/xi_inverse."""

    @staticmethod
    def assert_same(word, h):
        pair = h_rs_forward(word, h)
        assert pair == reference_h_rs_forward(word, h), (word, h)
        back = h_rs_inverse(pair, h)
        assert back == reference_h_rs_inverse(pair, h) == word, (word, h)

    def test_every_n3_word_up_to_length_5(self):
        for h in h_vectors(3):
            for length in range(6):
                for word in itertools.product((1, 2, 3), repeat=length):
                    self.assert_same(word, h)

    @pytest.mark.parametrize("n, per_h, seed", [(4, 120, 41), (5, 12, 51)])
    def test_random_words(self, n, per_h, seed):
        rnd = random.Random(seed)
        for h in h_vectors(n):
            for _ in range(per_h):
                word = tuple(rnd.randint(1, n) for _ in range(rnd.randint(0, 10)))
                self.assert_same(word, h)

    def test_insert_trace_moves_match_the_twin(self):
        rnd = random.Random(61)
        for _ in range(500):
            n = rnd.randint(1, 6)
            h = tuple(rnd.randint(1, k) for k in range(1, n + 1))
            arr = InterlacingArray.zeros(n)
            for _ in range(rnd.randint(0, 12)):
                arr = h_insert(arr, rnd.randint(1, n), h)
            letter = rnd.randint(1, n)
            rows = [list(r) for r in arr.levels]
            moves = reference_h_insert_rows(rows, letter, h)
            assert h_insert_trace(arr, letter, h) == (InterlacingArray(tuple(map(tuple, rows))), moves)

    def test_cross_h_inverses(self):
        # a pair made under one h, unwound under every other
        for h in h_vectors(3):
            for word in itertools.product((1, 2, 3), repeat=4):
                pair = h_rs_forward(word, h)
                for g in h_vectors(3):
                    assert h_rs_inverse(pair, g) == reference_h_rs_inverse(pair, g)

    MALFORMED = {
        "letter-above-N": (((1, 4),), ((1, 2),), (1, 2, 3)),
        "letter-zero": (((0, 1),), ((1, 2),), (1, 2)),
        "row-decreases": (((2, 1),), ((1, 2),), (1, 2)),
        "row-dips": (((1, 2, 1),), ((1, 2, 3),), (1, 2)),
        "column-not-strict": (((1, 2), (1,)), ((1, 2), (3,)), (1, 2, 3)),
        "more-than-N-rows": (((1,), (2,), (2,)), ((1,), (2,), (3,)), (1, 2)),
        "rows-grow": (((1,), (2, 3)), ((1,), (2, 3)), (1, 2, 3)),
        "rows-grow-depth-2": (((1,), (2, 2)), ((1,), (2, 3)), (1, 2)),
        "empty-row-above": (((), (1,)), ((), (1,)), (1, 2)),
        "letter-3-under-h-12": (((1, 3),), ((1, 2),), (1, 2)),
    }

    @pytest.mark.parametrize("p, q, h", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_p_raises_on_both_paths(self, p, q, h):
        pair = TableauPair(p, q)
        for inverse in (h_rs_inverse, reference_h_rs_inverse):
            with pytest.raises(InvalidInput):
                inverse(pair, h)

    @pytest.mark.parametrize("p, q", [
        (((1, 1),), ((1,), (2,))),  # Q's shape is not P's
        (((1, 1),), ((1, 3),)),  # Q misses 2
        (((1, 1),), ((2, 1),)),  # a Q row decreases
        (((1, 1), (2,)), ((2, 3), (1,))),  # a Q column decreases
    ])
    def test_malformed_q_is_refused_by_the_pair(self, p, q):
        with pytest.raises(InvalidInput):
            TableauPair(p, q)

    def test_malformed_words_and_h_raise_on_both_paths(self):
        for word, h in [((1, 3), (1, 2)), ((0,), (1,)), ((1,), (1, 3)), ((1,), (2,))]:
            for forward in (h_rs_forward, reference_h_rs_forward):
                with pytest.raises(InvalidInput):
                    forward(word, h)

    def test_tableau_conversions_match_the_twin(self):
        for depth in range(1, 5):
            for top in itertools.combinations_with_replacement(range(3, -1, -1), depth):
                for arr in enumerate_arrays(top, depth):
                    rows = array_to_tableau(arr)
                    assert rows == reference_array_to_tableau(arr)
                    assert tableau_to_array(rows, depth) == reference_tableau_to_array(rows, depth)
        bad = [(((2, 1),), 2), (((1, 1), (1,)), 2), (((1,), (2, 3)), 3), (((1,), (2,), (3,)), 2),
               (((1, 5),), 4), (((), (1,)), 2), (((1, 2, 1),), 2)]
        for rows, depth in bad:
            for convert in (tableau_to_array, reference_tableau_to_array):
                with pytest.raises(InvalidInput):
                    convert(rows, depth)
        for convert in (array_to_tableau, reference_array_to_tableau):
            with pytest.raises(InvalidInput):
                convert(InterlacingArray(((0,), (0, -1))))


class TestFMaps:
    W3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    TABLES = {
        (1, 1, 1): [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)],
        (1, 1, 2): [(1, 3, 2), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 2, 3), (2, 3, 1)],
        (1, 1, 3): [(1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 2, 3), (2, 3, 1)],
        (1, 2, 1): [(2, 1, 3), (2, 3, 1), (1, 2, 3), (1, 3, 2), (3, 2, 1), (3, 1, 2)],
        (1, 2, 2): [(2, 1, 3), (3, 2, 1), (1, 3, 2), (3, 1, 2), (2, 3, 1), (1, 2, 3)],
        (1, 2, 3): [(3, 2, 1), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (1, 2, 3)],
    }

    def test_identity_map(self):
        for w in self.W3:
            assert f_h(w, (1, 1, 1)) == w

    def test_all_published_tables(self):
        for h, expected in self.TABLES.items():
            assert [f_h(w, h) for w in self.W3] == expected

    def test_single_values(self):
        assert f_h((1, 2, 3), (1, 1, 2)) == (1, 3, 2)
        assert f_h((1, 2, 3), (1, 2, 3)) == (3, 2, 1)

    def test_pairwise_distinct(self):
        images = {h: tuple(f_h(w, h) for w in self.W3) for h in self.TABLES}
        assert len(set(images.values())) == len(images)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInput):
            f_h((1, 1, 2), (1, 1, 3))

    def test_word_3241_avoids_long_rows(self):
        # the counterexample to a linear-order interpretation: every h keeps the
        # first row at length <= 3 although 3241 increases fully in the order
        # 3 < 2 < 4 < 1
        for h in itertools.product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)):
            pair = h_rs_forward((3, 2, 4, 1), h)
            assert len(pair.p_rows[0]) <= 3

    def test_composition_structure_only_for_row(self):
        # f_h respects word composition only for h = (1,1,1)
        def compose(u, v):
            return tuple(u[v_i - 1] for v_i in v)

        for h in self.TABLES:
            breaks = 0
            for u in self.W3:
                for v in self.W3:
                    lhs = f_h(compose(u, v), h)
                    rhs = compose(f_h(u, h), f_h(v, h))
                    if lhs != rhs:
                        breaks += 1
            if h == (1, 1, 1):
                assert breaks == 0
            else:
                assert breaks > 0, h


class TestGroupOrder:
    def test_bsgs_on_known_groups(self):
        assert _bsgs_order([(1, 0, 2, 3), (1, 2, 3, 0)]) == 24
        assert _bsgs_order([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]) == 60
        assert _bsgs_order([tuple(range(5))]) == 1

    def test_small_orders(self):
        assert group_order(1) == 1
        assert group_order(2) == 2
        assert group_order(3) == 72

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            group_order(6)

    def test_splitting_fixture_consistency_n3(self):
        # reported conjecture check: every generator preserves or swaps the
        # published splitting of the permutation words, and the group order
        # matches the wreath-like count 2 * ((n!/2)!)^2
        first = {(1, 2, 3), (1, 3, 2), (3, 1, 2)}
        second = {(3, 2, 1), (2, 3, 1), (2, 1, 3)}
        report = []
        for h in itertools.product((1,), (1, 2), (1, 2, 3)):
            image_first = {f_h(w, h) for w in first}
            report.append(image_first in (first, second))
        assert all(report)
        half = math.factorial(3) // 2
        assert group_order(3) == 2 * math.factorial(half) ** 2

    def test_splitting_fixture_consistency_n4(self):
        first = {
            (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2),
            (1, 4, 2, 3), (1, 4, 3, 2), (3, 1, 2, 4), (3, 1, 4, 2),
            (3, 4, 1, 2), (4, 1, 2, 3), (4, 1, 3, 2), (4, 3, 1, 2),
        }
        second = {
            (4, 3, 2, 1), (3, 4, 2, 1), (4, 2, 3, 1), (2, 4, 3, 1),
            (3, 2, 4, 1), (2, 3, 4, 1), (4, 2, 1, 3), (2, 4, 1, 3),
            (2, 1, 4, 3), (3, 2, 1, 4), (2, 3, 1, 4), (2, 1, 3, 4),
        }
        assert len(first) == len(second) == 12 and not (first & second)
        # word reversal realizes the published pairing of the two halves
        assert {tuple(reversed(w)) for w in first} == second
        consistent = []
        for h in itertools.product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)):
            image = {f_h(w, h) for w in first}
            consistent.append(image in (first, second))
        # reported conjecture check, true on the fixture
        assert all(consistent)

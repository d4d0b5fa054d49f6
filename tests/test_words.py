"""Free-group words, the shared text syntax, and Nielsen base changes."""

import operator
import random

import pytest
from hypothesis import example, given, strategies as st

from asphere import (
    BaseChange,
    Invert,
    RightMultiply,
    Swap,
    Word,
    apply_base_change,
    apply_move,
    parse_word,
    word_to_text,
)
from asphere.words import MAX_LETTERS, WordSyntaxError, move_inverse

from support import random_base_change, random_letters, random_word, replay_moves


def W(pairs):
    return Word.from_pairs(pairs)


letters = st.builds(
    operator.mul, st.integers(min_value=1, max_value=5), st.sampled_from((1, -1))
)
words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, max_size=12))

# Moves on g1..g4 (Swap(i, i) included) acting on words over g1..g6, so
# some letters lie outside every move.
gens = st.integers(min_value=1, max_value=4)
moves = st.one_of(
    st.builds(Swap, gens, gens),
    st.builds(Invert, gens),
    st.tuples(gens, gens).filter(lambda ij: ij[0] != ij[1]).map(lambda ij: RightMultiply(*ij)),
)
wide_words = st.builds(
    lambda ls: Word(tuple(ls)),
    st.lists(
        st.builds(operator.mul, st.integers(min_value=1, max_value=6), st.sampled_from((1, -1))),
        max_size=16,
    ),
)


def random_moves(rng: random.Random, n: int, max_moves: int) -> list:
    """Moves on g1..g<n> that may repeat an index in a Swap."""
    out = []
    for _ in range(rng.randint(0, max_moves)):
        i, j = rng.randint(1, n), rng.randint(1, n)
        kind = rng.randrange(3)
        if kind == 0:
            out.append(Swap(i, j))
        elif kind == 1 or i == j:
            out.append(Invert(i))
        else:
            out.append(RightMultiply(i, j))
    return out


class TestReduction:
    def test_cancels_adjacent_inverse_pair(self):
        assert W([(1, 1), (1, -1)]) == Word()

    def test_cascading_cancellation(self):
        # g1 g2 g2^-1 g1^-1 collapses completely.
        assert W([(1, 1), (2, 1), (2, -1), (1, -1)]) == Word()

    def test_reduce_function_matches_constructor(self):
        raw = [1, 2, -2, 3]
        assert Word(tuple(raw)) == W([(1, 1), (3, 1)])

    def test_already_reduced_untouched(self):
        w = W([(1, 1), (2, -1), (1, 1)])
        assert list(w) == [1, -2, 1]

    @given(st.lists(letters, max_size=20))
    def test_result_has_no_adjacent_inverse_pair(self, raw):
        w = Word(tuple(raw))
        for a, b in zip(w.letters, w.letters[1:]):
            assert a != -b

    @given(words)
    def test_reduction_is_idempotent(self, w):
        assert Word(w.letters) == w


class TestGroupLaws:
    @given(words, words, words)
    def test_associativity(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(words)
    def test_identity(self, w):
        assert w * Word() == w
        assert Word() * w == w

    @given(words)
    def test_inverse_cancels(self, w):
        assert w * w.inverse() == Word()
        assert w.inverse() * w == Word()

    @given(words, words)
    def test_inverse_antihomomorphism(self, u, v):
        assert (u * v).inverse() == v.inverse() * u.inverse()

    @given(words)
    def test_inverse_involution(self, w):
        assert w.inverse().inverse() == w

    @given(words, words)
    def test_multiply_helper(self, u, v):
        assert Word(u.letters + v.letters) == u * v


class TestWordQueries:
    def test_exponent_sum(self):
        w = W([(1, 1), (2, 1), (1, 1), (2, -1), (1, -1)])
        assert w.exponent_sum(1) == 1
        assert w.exponent_sum(2) == 0
        assert w.exponent_sum(3) == 0

    def test_exponent_sums(self):
        w = W([(1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (3, -1)])
        assert w.exponent_sums() == {1: 1, 3: -1}
        assert Word().exponent_sums() == {}

    def test_exponent_sums_match_exponent_sum_fuzz(self):
        rng = random.Random(515)
        for _ in range(300):
            w = Word(tuple(random_letters(rng, 6, 30)))
            expect = {i: w.exponent_sum(i) for i in range(1, 7) if w.exponent_sum(i)}
            assert w.exponent_sums() == expect

    def test_max_index_and_indices(self):
        w = W([(2, 1), (5, -1)])
        assert w.max_index() == 5
        assert w.indices() == frozenset({2, 5})
        assert Word().max_index() == 0
        assert Word().indices() == frozenset()

    @given(words)
    @example(Word())
    def test_max_index_is_the_largest_letter_on_every_call(self, w):
        expect = max(map(abs, w.letters), default=0)
        assert w.max_index() == expect
        assert w.max_index() == expect

    def test_cached_max_index_keeps_equality_and_hash(self):
        a, b = W([(2, 1), (5, -1)]), W([(2, 1), (5, -1)])
        assert a.max_index() == 5
        assert a == b and hash(a) == hash(b)
        assert {a: "cached"}[b] == "cached"
        assert b.max_index() == 5
        assert a != W([(2, 1)])

    def test_rename(self):
        w = W([(2, 1), (5, -1), (2, 1)])
        assert w.rename({2: 1, 5: 3}) == W([(1, 1), (3, -1), (1, 1)])
        with pytest.raises(KeyError):
            w.rename({2: 1})

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            Word.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            Word.from_pairs([(1, 2)])
        with pytest.raises(ValueError):
            Word((1, 0))


class TestTextSyntax:
    def test_parse_basic(self):
        assert parse_word("g1 g2^-1 g1") == W([(1, 1), (2, -1), (1, 1)])

    def test_parse_powers(self):
        assert parse_word("g2^3 g1^-2") == W([(2, 1)] * 3 + [(1, -1)] * 2)

    def test_parse_empty_word(self):
        assert parse_word("1") == Word()
        assert parse_word("") == Word()

    def test_parse_reduces(self):
        assert parse_word("g1 g1^-1") == Word()

    def test_parse_with_names(self):
        assert parse_word("a b^-1", names={"a": 1, "b": 2}) == W([(1, 1), (2, -1)])

    def test_unknown_generator_column(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("g1 q2")
        assert exc.value.col == 4

    def test_malformed_token_column(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("g1 g2^")
        assert exc.value.col == 4

    def test_power_past_the_letter_bound_raises_before_expanding(self):
        # A list of 10^11 letters would not fit in memory: the bound is
        # checked on the exponent.
        for text in (f"g1^{MAX_LETTERS + 1}", "g1^99999999999", "g2 g1^-99999999999"):
            with pytest.raises(WordSyntaxError, match=f"more than {MAX_LETTERS} letters") as exc:
                parse_word(text)
            assert exc.value.col == text.index("g1") + 1

    def test_letter_bound_is_a_running_count(self, monkeypatch):
        monkeypatch.setattr("asphere.words.MAX_LETTERS", 5)
        assert len(parse_word("g1^2 g2^-3")) == 5
        # A memoized token counts again at each use.
        for text in ("g1^2 g2^-3 g1", "g1^3 g1^3", "g1 g2 g1 g2 g1 g2"):
            with pytest.raises(WordSyntaxError, match="more than 5 letters") as exc:
                parse_word(text)
            assert exc.value.col == text.rindex("g") + 1

    def test_render_runs(self):
        assert word_to_text(W([(1, 1), (1, 1), (2, -1)])) == "g1^2 g2^-1"
        assert word_to_text(Word()) == "1"
        assert word_to_text(W([(1, 1)]), names=["a"]) == "a"

    @given(words)
    def test_text_round_trip(self, w):
        assert parse_word(word_to_text(w)) == w


class TestNielsenMoves:
    def test_swap(self):
        assert apply_move(Swap(1, 2), W([(1, 1), (2, -1)])) == W([(2, 1), (1, -1)])

    def test_invert(self):
        assert apply_move(Invert(1), W([(1, 1), (2, 1), (1, -1)])) == W(
            [(1, -1), (2, 1), (1, 1)]
        )

    def test_right_multiply_positive_letter(self):
        # x1 -> x1 x2
        assert apply_move(RightMultiply(1, 2), W([(1, 1)])) == W([(1, 1), (2, 1)])

    def test_right_multiply_negative_letter(self):
        # x1^-1 -> x2^-1 x1^-1
        assert apply_move(RightMultiply(1, 2), W([(1, -1)])) == W([(2, -1), (1, -1)])

    def test_right_multiply_reduces(self):
        # x1 x2^-1 -> x1 x2 x2^-1 = x1
        assert apply_move(RightMultiply(1, 2), W([(1, 1), (2, -1)])) == W([(1, 1)])

    def test_right_multiply_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            RightMultiply(1, 1)

    @pytest.mark.parametrize("i, j", [(0, 2), (2, 0)])
    def test_right_multiply_rejects_one_bad_index(self, i, j):
        with pytest.raises(ValueError, match="generator indices must be >= 1"):
            RightMultiply(i, j)

    @given(words, words)
    def test_moves_are_homomorphisms(self, u, v):
        for move in (Swap(1, 2), Invert(1), RightMultiply(1, 2)):
            assert apply_move(move, u * v) == apply_move(move, u) * apply_move(move, v)

    @given(words)
    def test_move_inverse_round_trip(self, w):
        for move in (Swap(1, 2), Invert(2), RightMultiply(2, 1)):
            undone = w
            for m in (move,) + move_inverse(move):
                undone = apply_move(m, undone)
            # applying the move then its inverse sequence restores the word
            forward = apply_move(move, w)
            back = forward
            for m in move_inverse(move):
                back = apply_move(m, back)
            assert back == w
            del undone


class TestBaseChange:
    def test_inverse_of_empty(self):
        assert BaseChange().inverse() == BaseChange()

    def test_round_trip_example(self):
        bc = BaseChange((RightMultiply(1, 2), Invert(1), Swap(1, 2)))
        w = W([(1, 1), (2, 1), (1, -1)])
        assert apply_base_change(bc.inverse(), apply_base_change(bc, w)) == w

    def test_fuzz_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(300):
            bc = random_base_change(rng, 4, 8)
            w = random_word(rng, 4, 10)
            assert apply_base_change(bc.inverse(), apply_base_change(bc, w)) == w

    @given(st.lists(moves, max_size=10), wide_words)
    def test_composition_matches_replay(self, ms, w):
        bc = BaseChange(tuple(ms))
        assert apply_base_change(bc, w) == replay_moves(bc, w)

    def test_composition_matches_replay_fuzz(self):
        rng = random.Random(1212)
        for _ in range(300):
            n = rng.randint(1, 6)
            ms = random_moves(rng, n, 40)
            if rng.random() < 0.5:
                # an Invert that no later move touches
                ms.append(Invert(rng.randint(1, n + 1)))
            bc = BaseChange(tuple(ms))
            for _ in range(3):
                w = random_word(rng, n + 2, 30)
                assert apply_base_change(bc, w) == replay_moves(bc, w)

    def test_composition_pins(self):
        w = W([(1, 1), (2, -1), (3, 1)])
        assert apply_base_change(BaseChange((Swap(2, 2),)), w) == w
        assert apply_base_change(BaseChange((Invert(3),)), w) == W([(1, 1), (2, -1), (3, -1)])
        # g1 -> g1 g2, then g2 -> g2^-1: g1 goes to g1 g2^-1 and g2 to g2^-1
        bc = BaseChange((RightMultiply(1, 2), Invert(2)))
        assert apply_base_change(bc, w) == W([(1, 1), (3, 1)])
        assert apply_base_change(bc, W([(4, 1)])) == W([(4, 1)])

    def test_cached_images_keep_equality_and_hash(self):
        ms = (RightMultiply(1, 2), Invert(2), Swap(1, 3), RightMultiply(3, 1))
        a, b = BaseChange(ms), BaseChange(ms)
        w = W([(1, 1), (3, -1), (2, 1), (4, 1)])
        first = apply_base_change(a, w)
        assert apply_base_change(a, w) == first
        assert a == b and hash(a) == hash(b)
        assert {a: "cached"}[b] == "cached"
        assert apply_base_change(b, w) == first == replay_moves(a, w)
        assert a != BaseChange(ms[:-1])

    def test_fuzz_reduction_from_raw_letters(self):
        rng = random.Random(7)
        for _ in range(200):
            raw = random_letters(rng, 4, 16)
            w = Word(tuple(raw))
            # the reduced word and the raw word have equal exponent sums
            for i in range(1, 5):
                assert w.exponent_sum(i) == sum(1 if x > 0 else -1 for x in raw if abs(x) == i)

"""Presentations: exponent matrices, local finiteness, the trivial-unit
predicate, normalization certificates, and the text format."""

import random

import pytest

from asphere import (
    DanglingRelator,
    NotUnimodular,
    ParseError,
    Presentation,
    SparseIntMatrix,
    Word,
    WindowMismatch,
    apply_base_change,
    apply_row_ops,
    exponent_matrix,
    is_homology_trivial_unit,
    is_locally_finite,
    normalize,
    parse_presentation_text,
    reduce_to_identity,
    subpresentation,
)
from asphere.presentations import (
    MAX_GENERATORS,
    exponent_vector,
    lift_row_ops,
    presentation_to_text,
)
from asphere.intmat import AddMultiple, NegateRow, RowOpLog, SwapRows
from asphere.words import parse_word

from support import (
    random_base_change,
    random_presentation,
    random_row_ops,
    random_word,
    replay_moves,
)


def P(n, *relator_texts):
    return Presentation(n, tuple(parse_word(t) for t in relator_texts))


# Two-generator window whose exponent matrix is [[0, -1], [-1, 0]].
SCRAMBLED = P(2, "g1 g2 g1^-1 g2^-2", "g2 g1 g2^-1 g1^-2")


class TestPresentation:
    def test_relator_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            P(1, "g2")
        # A word whose index a wider presentation has read already.
        w = parse_word("g1 g3")
        Presentation(3, (w,))
        with pytest.raises(ValueError, match=r"^relator 2 uses generator 3 beyond window of 2$"):
            Presentation(2, (parse_word("g1"), w))

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Presentation(-1)

    def test_balanced(self):
        assert SCRAMBLED.balanced
        assert not P(2, "g1").balanced


class TestExponentMatrix:
    def test_scrambled_fixture(self):
        assert exponent_matrix(SCRAMBLED) == SparseIntMatrix.from_rows(
            [[0, -1], [-1, 0]]
        )

    def test_commutator_contributes_zero(self):
        p = P(2, "g1 g2 g1^-1 g2^-1")
        assert exponent_matrix(p) == SparseIntMatrix.zeros(2, 1)

    def test_exponent_vector(self):
        w = parse_word("g1^2 g3^-1")
        assert exponent_vector(w, 3) == (2, 0, -1)
        assert exponent_vector(Word(), 2) == (0, 0)


class TestLocalFiniteness:
    def test_finite_window_always_passes(self):
        ok, witness = is_locally_finite(P(2, "g1 g2", "g2", "g2^-1"))
        assert ok and witness == 3

    def test_empty_window(self):
        assert is_locally_finite(Presentation(0)) == (True, 0)

    def test_witness_counts_relators_not_letters(self):
        assert is_locally_finite(P(3, "g1 g2", "g2^2")) == (True, 2)

    def test_generator_in_no_relator(self):
        assert is_locally_finite(Presentation(1)) == (True, 0)


class TestTrivialUnitPredicate:
    def test_identity_exponents_pass(self):
        p = P(2, "g1 g2 g1^-1 g2^-1 g1", "g2 g1 g2 g1^-1 g2^-1")
        assert is_homology_trivial_unit(p)

    def test_scrambled_fixture_fails(self):
        assert not is_homology_trivial_unit(SCRAMBLED)

    def test_unbalanced_raises(self):
        with pytest.raises(WindowMismatch):
            is_homology_trivial_unit(P(2, "g1"))


class TestSubpresentation:
    def test_reindexes_in_increasing_order(self):
        p = P(3, "g1", "g3 g3", "g1 g3")
        sub = subpresentation(p, gens=[1, 3], rels=[2, 3])
        assert sub == P(2, "g2 g2", "g1 g2")

    def test_dangling_relator(self):
        p = P(2, "g1 g2")
        with pytest.raises(DanglingRelator):
            subpresentation(p, gens=[1], rels=[1])

    def test_out_of_window_indices(self):
        with pytest.raises(ValueError):
            subpresentation(P(2, "g1"), gens=[3], rels=[])
        with pytest.raises(ValueError):
            subpresentation(P(2, "g1"), gens=[1], rels=[2])


class TestLifting:
    CASES = [
        RowOpLog((SwapRows(1, 2),)),
        RowOpLog((NegateRow(2),)),
        RowOpLog((AddMultiple(1, 2, 3),)),
        RowOpLog((AddMultiple(2, 1, -2),)),
        RowOpLog((SwapRows(1, 3), AddMultiple(3, 1, -1), NegateRow(2))),
    ]

    @pytest.mark.parametrize("log", CASES)
    def test_lift_matches_matrix_action_on_exponents(self, log):
        rng = random.Random(1234)
        bc = lift_row_ops(log)
        for _ in range(50):
            w = random_word(rng, 3, 10)
            moved = apply_base_change(bc, w)
            before = SparseIntMatrix.from_rows([[v] for v in exponent_vector(w, 3)])
            after = [row[0] for row in apply_row_ops(log, before).to_rows()]
            assert list(exponent_vector(moved, 3)) == after


    def test_lifted_multiples_match_replay(self):
        # |coeff| >= 2 lifts to runs of equal RightMultiply moves.
        rng = random.Random(2718)
        for _ in range(100):
            n = rng.randint(2, 5)
            ops = []
            for _ in range(rng.randint(1, 8)):
                i, j = rng.sample(range(1, n + 1), 2)
                ops.append(AddMultiple(i, j, rng.choice((-1, 1)) * rng.randint(2, 5)))
            bc = lift_row_ops(RowOpLog(tuple(ops)))
            for _ in range(3):
                w = random_word(rng, n + 1, 12)
                assert apply_base_change(bc, w) == replay_moves(bc, w)


class TestNormalize:
    def test_already_normalized_is_identity_certificate(self):
        p = P(2, "g1", "g2")
        cert = normalize(p)
        assert cert.exponent_check
        assert len(cert.base_change) == 0
        assert cert.new_relators == p.relators

    def test_single_inverse_generator(self):
        cert = normalize(P(1, "g1^-1"))
        assert cert.exponent_check
        assert cert.new_relators == (parse_word("g1"),)

    def test_scrambled_fixture(self):
        cert = normalize(SCRAMBLED)
        assert cert.exponent_check
        rewritten = Presentation(2, cert.new_relators)
        assert exponent_matrix(rewritten).is_identity()

    def test_base_change_round_trips_relators(self):
        cert = normalize(SCRAMBLED)
        inv = cert.base_change.inverse()
        for old, new in zip(SCRAMBLED.relators, cert.new_relators):
            assert apply_base_change(inv, new) == old

    def test_equivariance_with_integer_reduction(self):
        log = reduce_to_identity(exponent_matrix(SCRAMBLED))
        assert apply_row_ops(log, exponent_matrix(SCRAMBLED)).is_identity()
        cert = normalize(SCRAMBLED)
        assert lift_row_ops(log) == cert.base_change

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            normalize(P(1, "g1^2"))
        with pytest.raises(NotUnimodular):
            normalize(P(2, "g1 g2", "g1 g2"))


class TestTextFormat:
    def test_parse_counted_generators(self):
        parsed = parse_presentation_text("gens: 2\nrel r1: g1 g2^-1\n")
        assert parsed.presentation == P(2, "g1 g2^-1")
        assert parsed.gen_names is None
        assert parsed.rel_names == ("r1",)

    def test_parse_named_generators(self):
        text = "gens: a b\nrel sq: a b a^-1 b^-1\n"
        parsed = parse_presentation_text(text)
        assert parsed.presentation == P(2, "g1 g2 g1^-1 g2^-1")
        assert parsed.gen_names == ("a", "b")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ngens: 1\nrel r: g1  # inline\n"
        assert parse_presentation_text(text).presentation == P(1, "g1")

    def test_missing_gens_line(self):
        with pytest.raises(ParseError):
            parse_presentation_text("rel r: g1\n")

    def test_duplicate_gens_line(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: 1\ngens: 2\n")
        assert exc.value.line == 2

    def test_relator_beyond_window(self):
        with pytest.raises(ParseError):
            parse_presentation_text("gens: 1\nrel r: g2\n")

    def test_bad_word_token_position(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: 1\nrel r: g1 g1^\n")
        assert exc.value.line == 2

    def test_bad_token_after_tokens_of_earlier_relators(self):
        # Tokens seen in relator a are memoized; the bad one in b still
        # reports its own line and column.
        text = "gens: 2\nrel a: g1 g2^-1 g1\nrel b: g2^-1 g1  g3^ g1\n"
        with pytest.raises(ParseError) as exc:
            parse_presentation_text(text)
        assert (exc.value.line, exc.value.col) == (3, 18)
        named = "gens: a b\nrel r: a b\nrel s: b a c\n"
        with pytest.raises(ParseError) as exc:
            parse_presentation_text(named)
        assert (exc.value.line, exc.value.col) == (3, 12)
        assert "unknown generator 'c'" in str(exc.value)

    def test_word_column_after_a_name_that_holds_the_word(self):
        # The relator name q also spells the word q; the error points at
        # the word.
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: a\nrel q: q\n")
        assert (exc.value.line, exc.value.col) == (2, 8)
        assert "unknown generator 'q'" in str(exc.value)

    def test_beyond_window_column_is_the_word_start(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: 2\nrel r:    g3\n")
        assert (exc.value.line, exc.value.col) == (2, 11)
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: 2\n  rel r: g1 g3\n")
        assert (exc.value.line, exc.value.col) == (2, 10)
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: 2\nrel a: g1 g2\nrel b: g2  g3 g1\n")
        assert (exc.value.line, exc.value.col) == (3, 8)
        assert exc.value.message == "relator uses generator g3 beyond window"

    def test_generator_bound(self):
        names = " ".join(f"a{i}" for i in range(MAX_GENERATORS))
        assert parse_presentation_text(f"gens: {MAX_GENERATORS}\n").presentation.n_generators == MAX_GENERATORS
        assert parse_presentation_text(f"gens: {names}\n").presentation.n_generators == MAX_GENERATORS
        for text in (f"gens: {MAX_GENERATORS + 1}\n", f"gens: {names} b\n", "# big\n gens: 10000000000\n"):
            with pytest.raises(ParseError) as exc:
                parse_presentation_text(text)
            assert exc.value.message == f"more than {MAX_GENERATORS} generators"
            assert exc.value.line == text.count("\n", 0, text.index("gens")) + 1

    def test_letter_bound_counts_every_relator(self, monkeypatch):
        monkeypatch.setattr("asphere.words.MAX_LETTERS", 6)
        assert len(parse_presentation_text("gens: 2\nrel a: g1^3\nrel b: g1^-3\nrel c: 1\n").presentation.relators) == 3
        with pytest.raises(ParseError) as exc:
            parse_presentation_text("gens: 2\nrel a: g1^3 g2\nrel b: g2 g1^3\n")
        assert (exc.value.line, exc.value.col) == (3, 11)
        assert exc.value.message == "more than 6 letters after expanding powers"

    def test_unrecognized_line(self):
        with pytest.raises(ParseError):
            parse_presentation_text("gens: 1\nfoo bar\n")

    def test_text_round_trip(self):
        rng = random.Random(404)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(1, 4), rng.randint(0, 4))
            assert parse_presentation_text(presentation_to_text(p)).presentation == p

    def test_named_text_round_trip(self):
        text = presentation_to_text(P(2, "g1 g2"), gen_names=["a", "b"], rel_names=["r"])
        parsed = parse_presentation_text(text)
        assert parsed.presentation == P(2, "g1 g2")
        assert parsed.gen_names == ("a", "b")

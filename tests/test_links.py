"""Surgery codes, sublink filling, and the subcomplex correspondence."""

import itertools
import operator
import random

import pytest
from hypothesis import given, strategies as st

from asphere import (
    BadSelection,
    NotHomologyTrivialUnit,
    NotOneFull,
    Presentation,
    SublinkSelection,
    SubcomplexSpec,
    SurgeryCode,
    WindowMismatch,
    Word,
    build_surgery_code,
    exterior,
    exterior_homology,
    is_homology_trivial_unit,
    subcomplex_to_sublink,
    sublink_to_subcomplex,
    verify_meridian_correspondence,
)
from asphere.complexes import (
    from_presentation,
    full_spec,
    homology,
    onefull_hull,
    subcomplex_presentation,
)
from asphere.words import parse_word

from support import random_surgery_code, random_trivialish_presentation


def P(n, *relator_texts):
    return Presentation(n, tuple(parse_word(t) for t in relator_texts))


# Identity exponent matrix on two generators.
UNIT = P(2, "g1 g2 g1^-1 g2^-1 g1", "g2 g1 g2 g1^-1 g2^-1")


@st.composite
def presentations_near_unit(draw):
    """0-4 generators and, half the time, as many relators as generators,
    otherwise 0-5.  Each relator is a random word followed by a tail that
    makes its exponent sums the Kronecker delta, except that one relator in
    four is off by one in one generator, on or off the diagonal."""
    n = draw(st.integers(min_value=0, max_value=4))
    m = n if draw(st.booleans()) else draw(st.integers(min_value=0, max_value=5))
    letters = st.builds(operator.mul, st.integers(min_value=1, max_value=max(n, 1)), st.sampled_from((1, -1)))
    misses = [(i, e) for i in range(1, n + 1) for e in (1, -1)]
    relators = []
    for j in range(1, m + 1):
        r = Word(tuple(draw(st.lists(letters, max_size=6)))) if n else Word(())
        miss = draw(st.sampled_from([None] * len(misses) * 3 + misses)) if n else None
        for i in range(1, n + 1):
            want = (1 if i == j else 0) + (miss[1] if miss and miss[0] == i else 0)
            d = want - r.exponent_sum(i)
            r = r * Word.from_pairs([(i, 1 if d > 0 else -1)] * abs(d))
        relators.append(r)
    return Presentation(n, tuple(relators))


class TestSurgeryCode:
    def test_component_count_must_match_handles(self):
        with pytest.raises(ValueError):
            SurgeryCode(2, (parse_word("g1"),))

    def test_intersection_numbers_enforced(self):
        with pytest.raises(ValueError):
            SurgeryCode(1, (parse_word("g1^2"),))
        with pytest.raises(ValueError):
            SurgeryCode(2, (parse_word("g1 g2"), parse_word("g2")))

    def test_missing_handle_rejected(self):
        with pytest.raises(ValueError):
            SurgeryCode(1, (parse_word("g2 g1 g2^-1"),))
        # A word whose index a wider presentation has read already.
        w = parse_word("g2 g1 g2^-1")
        Presentation(2, (w,))
        with pytest.raises(ValueError, match=r"^component 1 touches a missing handle$"):
            SurgeryCode(1, (w,))


class TestBuildSurgeryCode:
    def test_components_are_relators_verbatim(self):
        sc = build_surgery_code(UNIT)
        assert sc.n_handles == 2
        assert sc.components == UNIT.relators
        assert verify_meridian_correspondence(sc, UNIT)

    def test_rejects_non_identity_exponents(self):
        with pytest.raises(NotHomologyTrivialUnit):
            build_surgery_code(P(1, "g1^-1"))

    def test_rejects_unbalanced(self):
        with pytest.raises(NotHomologyTrivialUnit):
            build_surgery_code(P(1))

    @given(presentations_near_unit())
    def test_one_check_agrees_with_exponent_matrix(self, p):
        """`SurgeryCode`'s check accepts exactly the presentations whose
        exponent matrix is the identity on the window."""
        try:
            unit = is_homology_trivial_unit(p)
        except WindowMismatch:
            unit = False
        if unit:
            assert build_surgery_code(p).components == p.relators
        else:
            with pytest.raises(NotHomologyTrivialUnit):
                build_surgery_code(p)

    def test_fuzz_normalized_presentations(self):
        from asphere import normalize

        rng = random.Random(606)
        for _ in range(30):
            p = random_trivialish_presentation(rng, rng.randint(1, 4))
            cert = normalize(p)
            q = Presentation(p.n_generators, cert.new_relators)
            sc = build_surgery_code(q)
            assert verify_meridian_correspondence(sc, q)


class TestExterior:
    def test_empty_fill_is_free(self):
        sc = build_surgery_code(UNIT)
        ext = exterior(sc, SublinkSelection(frozenset()))
        assert ext == Presentation(2)

    def test_full_fill_restores_presentation(self):
        sc = build_surgery_code(UNIT)
        assert exterior(sc, SublinkSelection(frozenset({1, 2}))) == UNIT

    def test_partial_fill_sorted(self):
        sc = build_surgery_code(UNIT)
        ext = exterior(sc, SublinkSelection(frozenset({2})))
        assert ext == Presentation(2, (UNIT.relators[1],))

    def test_monotone_in_fill(self):
        sc = build_surgery_code(UNIT)
        small = exterior(sc, SublinkSelection(frozenset({1})))
        large = exterior(sc, SublinkSelection(frozenset({1, 2})))
        assert set(small.relators) <= set(large.relators)

    def test_bad_selection(self):
        sc = build_surgery_code(UNIT)
        with pytest.raises(BadSelection):
            exterior(sc, SublinkSelection(frozenset({3})))

    @given(st.integers(0, 6).flatmap(lambda m: st.tuples(st.just(m), st.frozensets(st.integers(-2, m + 2)))))
    def test_rejects_exactly_the_fills_with_an_index_outside(self, case):
        """A fill is rejected exactly when some index, not only the largest
        or the smallest, lies outside 1..m; a good fill takes its
        components in increasing order."""
        m, fill = case
        sc = random_surgery_code(random.Random(m), "ring", m)
        if any(not 1 <= j <= m for j in fill):
            with pytest.raises(BadSelection, match=f"outside 1..{m}$"):
                exterior(sc, SublinkSelection(fill))
        else:
            assert exterior(sc, SublinkSelection(fill)).relators == tuple(sc.components[j - 1] for j in sorted(fill))

    def test_homology_formula_matches_smith_form(self):
        """The homology read off the code equals the Smith-form homology of
        the exterior's presentation complex, for random fills of random
        identity-exponent codes, the empty and the full fill included."""
        from asphere import normalize

        rng = random.Random(707)
        for _ in range(30):
            p = random_trivialish_presentation(rng, rng.randint(1, 4))
            sc = build_surgery_code(Presentation(p.n_generators, normalize(p).new_relators))
            m = len(sc.components)
            fills = [frozenset(), frozenset(range(1, m + 1))]
            fills += [frozenset(j for j in range(1, m + 1) if rng.random() < 0.5) for _ in range(3)]
            for fill in fills:
                sel = SublinkSelection(fill)
                assert exterior_homology(sc, sel) == homology(from_presentation(exterior(sc, sel)))
            for bad in (0, m + 1):
                with pytest.raises(BadSelection):
                    exterior_homology(sc, SublinkSelection(fills[-1] | {bad}))


class TestSubcomplexCorrespondence:
    def test_round_trip_both_ways(self):
        for fill in ({1}, {2}, {1, 2}, set()):
            sel = SublinkSelection(frozenset(fill))
            spec = sublink_to_subcomplex(sel, 2, 2)
            assert spec.is_1_full
            assert subcomplex_to_sublink(spec) == sel

    def test_not_one_full_rejected(self):
        spec = SubcomplexSpec(frozenset({1}), frozenset(), 2, 2)
        with pytest.raises(NotOneFull):
            subcomplex_to_sublink(spec)
        # the hull fixes it
        assert subcomplex_to_sublink(onefull_hull(spec)) == SublinkSelection(frozenset())

    def test_bad_component_index(self):
        with pytest.raises(BadSelection):
            sublink_to_subcomplex(SublinkSelection(frozenset({3})), 2, 2)

    def test_exterior_equals_subcomplex_presentation(self):
        sc = build_surgery_code(UNIT)
        for r in range(3):
            for fill in itertools.combinations((1, 2), r):
                sel = SublinkSelection(frozenset(fill))
                spec = sublink_to_subcomplex(sel, 2, 2)
                assert exterior(sc, sel) == subcomplex_presentation(UNIT, spec)

    def test_full_selection_is_full_spec(self):
        sel = SublinkSelection(frozenset({1, 2}))
        assert sublink_to_subcomplex(sel, 2, 2) == full_spec(UNIT)


class TestMeridianCorrespondence:
    def test_detects_count_mismatch(self):
        sc = build_surgery_code(UNIT)
        assert not verify_meridian_correspondence(sc, P(2, "g1 g2 g1^-1 g2^-1 g1"))

    def test_detects_word_mismatch(self):
        sc = build_surgery_code(UNIT)
        other = P(2, "g1", "g2")
        assert not verify_meridian_correspondence(sc, other)

"""Presentation complexes, cellular homology, subcomplexes, and the collar
telescope over a filtration."""

import operator
import random

import pytest
from hypothesis import given, strategies as st

from asphere import (
    DanglingRelator,
    Filtration,
    Presentation,
    SparseIntMatrix,
    SubcomplexSpec,
    TwoComplex,
    Word,
    chain_complex,
    from_presentation,
    homology,
    is_homologically_contractible,
    onefull_hull,
    subpresentation,
    telescope,
)
from asphere.complexes import (
    full_spec,
    subcomplex_complex,
    subcomplex_presentation,
)
from asphere.intmat import mat_vec
from asphere.words import parse_word

from support import random_filtration, random_presentation


def P(n, *relator_texts):
    return Presentation(n, tuple(parse_word(t) for t in relator_texts))


TORUS = P(2, "g1 g2 g1^-1 g2^-1")


@st.composite
def presentations_with_stages(draw):
    """A random presentation on 1-3 generators and 1-4 relators of length
    at most 3, with 1-4 random stages, so dangling (also past the first
    selected relator), decreasing and ambient-mismatched stages all come
    up; half the time the whole complex is appended as a last stage."""
    n = draw(st.integers(min_value=1, max_value=3))
    letters = st.builds(operator.mul, st.integers(min_value=1, max_value=n), st.sampled_from((1, -1)))
    words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, max_size=3))
    p = Presentation(n, tuple(draw(st.lists(words, min_size=1, max_size=4))))
    m = len(p.relators)

    def subset(k):
        return st.frozensets(st.integers(min_value=1, max_value=k)) if k else st.just(frozenset())

    stages = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        a, b = draw(st.sampled_from([(n, m)] * 12 + [(n + 1, m), (n, m + 1), (n - 1, m)]))
        stages.append(SubcomplexSpec(draw(subset(a)), draw(subset(b)), a, b))
    if draw(st.booleans()):
        stages.append(full_spec(p))
    return p, tuple(stages)


class TestTwoComplex:
    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            TwoComplex(1, ((1, 2),))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            TwoComplex(1, ((1, 1),), (parse_word("g2"),))
        # A word whose index a wider presentation has read already.
        w = parse_word("g1 g2")
        Presentation(2, (w,))
        with pytest.raises(ValueError, match=r"^face 1 references a missing edge$"):
            TwoComplex(1, ((1, 1),), (w,))

    def test_open_path_rejected(self):
        # edge 1 goes 1 -> 2 and nothing returns
        with pytest.raises(ValueError):
            TwoComplex(2, ((1, 2),), (parse_word("g1"),))

    def test_disconnected_path_rejected(self):
        # two loops at different vertices cannot be traversed consecutively
        with pytest.raises(ValueError):
            TwoComplex(2, ((1, 1), (2, 2)), (parse_word("g1 g2"),))

    def test_interval_square_is_valid(self):
        # edge forward then backward is a closed path
        c = TwoComplex(2, ((1, 2),), (parse_word("g1 g1^-1"),))
        assert c.faces[0] == Word()  # reduces to the constant path

    def test_chi(self):
        assert from_presentation(TORUS).chi == 0
        assert from_presentation(P(1, "g1")).chi == 1

    def test_from_presentation_shape(self):
        c = from_presentation(TORUS)
        assert c.n_vertices == 1
        assert c.edges == ((1, 1), (1, 1))
        assert c.faces == TORUS.relators


class TestChainComplex:
    def test_one_vertex_d1_vanishes(self):
        d2, d1 = chain_complex(from_presentation(TORUS))
        assert d1 == SparseIntMatrix.zeros(1, 2)
        assert d2 == SparseIntMatrix.zeros(2, 1)  # commutator abelianizes to 0

    def test_d1_of_interval(self):
        _, d1 = chain_complex(TwoComplex(2, ((1, 2),)))
        assert d1 == SparseIntMatrix.from_rows([[-1], [1]])

    def test_d1_after_d2_vanishes(self):
        rng = random.Random(77)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(1, 4), rng.randint(0, 4))
            d2, d1 = chain_complex(from_presentation(p))
            for j in range(1, d2.cols + 1):
                col = [d2.get(i, j) for i in range(1, d2.rows + 1)]
                assert all(v == 0 for v in mat_vec(d1, col))


class TestHomology:
    def test_point(self):
        h = homology(TwoComplex(1, ()))
        assert (h.h0, h.h1_rank, h.h1_torsion, h.h2) == (1, 0, (), 0)

    def test_circle(self):
        h = homology(from_presentation(Presentation(1)))
        assert (h.h0, h.h1_rank, h.h1_torsion, h.h2) == (1, 1, (), 0)

    def test_disk(self):
        h = homology(from_presentation(P(1, "g1")))
        assert is_homologically_contractible(from_presentation(P(1, "g1")))
        assert (h.h0, h.h1_rank, h.h1_torsion, h.h2) == (1, 0, (), 0)

    def test_projective_plane(self):
        h = homology(from_presentation(P(1, "g1^2")))
        assert (h.h0, h.h1_rank, h.h1_torsion, h.h2) == (1, 0, (2,), 0)

    def test_torus(self):
        h = homology(from_presentation(TORUS))
        assert (h.h0, h.h1_rank, h.h1_torsion, h.h2) == (1, 2, (), 1)

    def test_sphere_like_doubled_disk(self):
        # two faces on one loop: S^2 with two 2-cells glued along a circle...
        c = TwoComplex(1, ((1, 1),), (parse_word("g1"), parse_word("g1")))
        h = homology(c)
        assert (h.h0, h.h1_rank, h.h2) == (1, 0, 1)

    def test_two_components(self):
        h = homology(TwoComplex(2, ()))
        assert h.h0 == 2

    def test_euler_characteristic_consistency(self):
        rng = random.Random(78)
        for _ in range(50):
            p = random_presentation(rng, rng.randint(1, 4), rng.randint(0, 4))
            h = homology(from_presentation(p))
            assert h.chi == h.h0 - h.h1_rank + h.h2


class TestSubcomplexes:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubcomplexSpec(frozenset({3}), frozenset(), 2, 1)
        with pytest.raises(ValueError):
            SubcomplexSpec(frozenset(), frozenset({2}), 2, 1)

    def test_full_spec_is_1_full(self):
        s = full_spec(TORUS)
        assert s.is_1_full
        assert subcomplex_presentation(TORUS, s) == TORUS

    def test_onefull_hull(self):
        s = SubcomplexSpec(frozenset({1}), frozenset(), 2, 1)
        assert not s.is_1_full
        hull = onefull_hull(s)
        assert hull.is_1_full and hull.rels == s.rels

    def test_subcomplex_complex(self):
        s = SubcomplexSpec(frozenset({2}), frozenset(), 2, 1)
        c = subcomplex_complex(TORUS, s)
        assert c.n_vertices == 1 and len(c.edges) == 1 and not c.faces


class TestFiltration:
    def test_needs_final_full_stage(self):
        partial = SubcomplexSpec(frozenset({1}), frozenset(), 2, 1)
        with pytest.raises(ValueError):
            Filtration(TORUS, (partial,))

    def test_must_be_increasing(self):
        a = SubcomplexSpec(frozenset({1, 2}), frozenset({1}), 2, 1)
        b = SubcomplexSpec(frozenset({1}), frozenset(), 2, 1)
        with pytest.raises(ValueError):
            Filtration(TORUS, (a, b, full_spec(TORUS)))

    def test_stages_must_be_closed(self):
        dangling = SubcomplexSpec(frozenset({1}), frozenset({1}), 2, 1)
        with pytest.raises(DanglingRelator):
            Filtration(TORUS, (dangling, full_spec(TORUS)))

    @given(presentations_with_stages())
    def test_closure_check_agrees_with_subpresentation(self, case):
        """Stages are checked in order, the ambient window before closure:
        Filtration raises DanglingRelator, with the same message, exactly
        when building a sub-presentation raises it on the first stage that
        fails either check."""
        p, stages = case
        expected = None
        for s in stages:
            if (s.ambient_gens, s.ambient_rels) != (p.n_generators, len(p.relators)):
                break
            try:
                subpresentation(p, s.gens, s.rels)
            except DanglingRelator as exc:
                expected = str(exc)
                break
        try:
            Filtration(p, stages)
            got = None
        except DanglingRelator as exc:
            got = str(exc)
        except ValueError:
            got = None
        assert got == expected

    def test_ambient_window_must_match(self):
        alien = SubcomplexSpec(frozenset({1}), frozenset(), 1, 0)
        with pytest.raises(ValueError):
            Filtration(TORUS, (alien, full_spec(TORUS)))


class TestTelescope:
    def test_single_stage_is_the_complex_itself(self):
        t = telescope(Filtration(TORUS, (full_spec(TORUS),)))
        assert t.n_vertices == 1
        assert t.edges == ((1, 1), (1, 1))
        assert t.faces == TORUS.relators

    def test_vertex_only_first_stage_gives_wedge_collar(self):
        p = P(1, "g1")
        empty = SubcomplexSpec(frozenset(), frozenset(), 1, 1)
        t = telescope(Filtration(p, (empty, full_spec(p))))
        # one vertical edge joins the old vertex to the new copy
        assert t.n_vertices == 2
        assert len(t.edges) == 2  # fresh loop + vertical edge
        assert len(t.faces) == 1

    def test_circle_collar_cell_counts(self):
        p = P(1, "g1")
        circle = SubcomplexSpec(frozenset({1}), frozenset(), 1, 1)
        t = telescope(Filtration(p, (circle, full_spec(p))))
        # per shared loop: one new vertex copy, fresh loop + vertical +
        # diagonal edges, and the two triangles of the rectangle
        assert t.n_vertices == 2
        assert len(t.edges) == 1 + 3
        assert len(t.faces) == 2 + 1
        assert t.chi == from_presentation(p).chi

    def test_leading_subcomplex_is_literal(self):
        stage0 = SubcomplexSpec(frozenset({1, 2}), frozenset(), 2, 1)
        t = telescope(Filtration(TORUS, (stage0, full_spec(TORUS))))
        c0 = subcomplex_complex(TORUS, stage0)
        assert t.edges[: len(c0.edges)] == c0.edges
        assert t.faces[: len(c0.faces)] == c0.faces

    def test_no_op_stages_are_skipped(self):
        full = full_spec(TORUS)
        t = telescope(Filtration(TORUS, (full, full, full)))
        assert t.n_vertices == 1

    def test_homology_matches_final_stage_fuzz(self):
        rng = random.Random(515)
        for _ in range(60):
            p = random_presentation(rng, rng.randint(1, 5), rng.randint(1, 5), max_len=6)
            f = random_filtration(rng, p, rng.randint(2, 4))
            t = telescope(f)
            assert homology(t) == homology(from_presentation(p))

    def test_torsion_preserved(self):
        p = P(2, "g1^2", "g2^3 g1")
        stage0 = SubcomplexSpec(frozenset({1}), frozenset({1}), 2, 2)
        t = telescope(Filtration(p, (stage0, full_spec(p))))
        assert homology(t) == homology(from_presentation(p))
        assert homology(t).h1_torsion == (6,)

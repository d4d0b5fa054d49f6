"""Coset enumeration, free differential calculus, and the asphericity
falsification probe."""

import operator
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from asphere import (
    CosetTable,
    IncompleteTable,
    Presentation,
    SparseIntMatrix,
    Word,
    asphericity_verdict,
    coset_enumerate,
    exponent_matrix,
    fox_derivative,
    lifted_boundary,
)
from asphere.intmat import kernel_basis, mat_vec, rank
from asphere.words import parse_word

from support import fox_lifted_boundary, random_word


def P(n, *relator_texts):
    return Presentation(n, tuple(parse_word(t) for t in relator_texts))


def combo_mul_right(terms: dict, g: Word) -> dict:
    """Right-multiply a formal integer combination of words by a word."""
    out: dict = {}
    for w, c in terms.items():
        key = w * g
        out[key] = out.get(key, 0) + c
    return {w: c for w, c in out.items() if c}


def lifted_d1(t) -> SparseIntMatrix:
    """Boundary of the lifted 1-cells: edge i at coset g runs from g to g.x_i."""
    size = t.n_cosets
    entries: dict = {}
    for i in range(1, t.n_generators + 1):
        for g in range(1, size + 1):
            col = (i - 1) * size + g
            for row, v in ((t.act(g, i), 1), (g, -1)):
                entries[(row, col)] = entries.get((row, col), 0) + v
    return SparseIntMatrix(size, t.n_generators * size, entries)


def mat_mul(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    out: dict = {}
    for (i, k), v in a.entries.items():
        for (k2, j), w in b.entries.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + v * w
    return SparseIntMatrix(a.rows, b.cols, out)


def disguise(rng: random.Random, p: Presentation) -> Presentation:
    """The same group: each relator rotated and, half the time, inverted."""
    out = []
    for r in p.relators:
        k = rng.randrange(len(r))
        r = Word(r.letters[k:] + r.letters[:k])
        out.append(r.inverse() if rng.random() < 0.5 else r)
    return Presentation(p.n_generators, tuple(out))


def power(text: str, k: int) -> str:
    return " ".join([text] * k)


# (name, presentation, |G|): the shapes of the finite groups the probe is
# benchmarked on.
FINITE_GROUPS = (
    [(f"Z{n}", P(1, f"g1^{n}"), n) for n in range(2, 14)]
    + [(f"D{n}", P(2, f"g1^{n}", "g2^2", power("g1 g2", 2)), 2 * n) for n in range(3, 13)]
    + [
        ("Q8", P(2, "g1 g2 g1 g2^-1", "g2 g1 g2 g1^-1"), 8),
        ("A4", P(2, "g1^2", "g2^3", power("g1 g2", 3)), 12),
        ("S4", P(2, "g1^2", "g2^3", power("g1 g2", 4)), 24),
        ("A5", P(2, "g1^2", "g2^3", power("g1 g2", 5)), 60),
        ("SL2_5", P(2, "g1^3 g2^-5", "g1^3 g2^-1 g1^-1 g2^-1 g1^-1"), 120),
        ("S5", P(2, "g1^5", "g2^2", power("g1 g2", 4), power("g1^-1 g2 g1 g2", 3)), 120),
        ("PSL2_7", P(2, "g1^2", "g2^3", power("g1 g2", 7), power("g1 g2 g1^-1 g2^-1", 4)), 168),
    ]
)


# Q8's relators read inverse letters, so the lifted boundary's x_i^-1 steps
# meet d1.d2 = 0 here as well.
NON_ABELIAN = {
    "Q8": (P(2, "g1 g2 g1 g2^-1", "g2 g1 g2 g1^-1"), 8),
    "S3": (P(2, "g1^2", "g2^3", "g1 g2 g1 g2"), 6),
    "A4": (P(2, "g1^2", "g2^3", "g1 g2 g1 g2 g1 g2"), 12),
    "S4": (P(2, "g1^2", "g2^3", "g1 g2 g1 g2 g1 g2 g1 g2"), 24),
}


@st.composite
def infinite_h1_presentations(draw):
    """1-3 generators and 1-4 random relators; when there are enough
    relators for a full-rank exponent matrix, every relator's exponent sum
    in one generator is cancelled, so H1 always has positive free rank."""
    n = draw(st.integers(min_value=1, max_value=3))
    letters = st.builds(operator.mul, st.integers(min_value=1, max_value=n), st.sampled_from((1, -1)))
    words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, max_size=8))
    relators = draw(st.lists(words, min_size=1, max_size=4))
    if rank(exponent_matrix(Presentation(n, tuple(relators)))) == n:
        k = draw(st.integers(min_value=1, max_value=n))

        def cancel(r: Word) -> Word:
            e = r.exponent_sum(k)
            return r * Word.from_pairs([(k, -1 if e > 0 else 1)] * abs(e))

        relators = [cancel(r) for r in relators]
    return Presentation(n, tuple(relators))


def combo_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


class TestCosetEnumeration:
    def test_trivial_relator_gives_one_coset(self):
        t = coset_enumerate(P(1, "g1"), 16)
        assert t.is_complete and t.n_cosets == 1

    def test_cyclic_groups(self):
        for k in (2, 3, 5, 7):
            t = coset_enumerate(P(1, f"g1^{k}"), 64)
            assert t.is_complete and t.n_cosets == k

    def test_symmetric_group_s3(self):
        t = coset_enumerate(P(2, "g1^2", "g2^3", "g1 g2 g1 g2"), 64)
        assert t.is_complete and t.n_cosets == 6

    def test_free_group_overflows(self):
        t = coset_enumerate(Presentation(2), 100)
        assert t.status == "overflow"
        assert not t.is_complete

    def test_no_generators(self):
        t = coset_enumerate(Presentation(0), 4)
        assert t.is_complete and t.n_cosets == 1

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            coset_enumerate(Presentation(1), 0)

    def test_relators_act_trivially(self):
        for p in (P(1, "g1^5"), P(2, "g1^2", "g2^3", "g1 g2 g1 g2")):
            t = coset_enumerate(p, 64)
            for r in p.relators:
                for c in range(1, t.n_cosets + 1):
                    h = c
                    for x in r:
                        h = t.act(h, x)
                    assert h == c

    def test_generators_act_by_permutations(self):
        t = coset_enumerate(P(2, "g1^2", "g2^3", "g1 g2 g1 g2"), 64)
        for x in (1, -1, 2, -2):
            images = [t.act(c, x) for c in range(1, t.n_cosets + 1)]
            assert sorted(images) == list(range(1, t.n_cosets + 1))


class TestFoxDerivative:
    def test_single_generator(self):
        assert fox_derivative(parse_word("g1"), 1) == {Word(): 1}

    def test_inverse_generator(self):
        assert fox_derivative(parse_word("g1^-1"), 1) == {parse_word("g1^-1"): -1}

    def test_square(self):
        assert fox_derivative(parse_word("g1^2"), 1) == {Word(): 1, parse_word("g1"): 1}

    def test_commutator(self):
        r = parse_word("g1 g2 g1^-1 g2^-1")
        assert fox_derivative(r, 1) == {Word(): 1, parse_word("g1 g2 g1^-1"): -1}
        assert fox_derivative(r, 2) == {
            parse_word("g1"): 1,
            parse_word("g1 g2 g1^-1 g2^-1"): -1,
        }

    def test_absent_generator(self):
        assert fox_derivative(parse_word("g1^3"), 2) == {}

    def test_product_rule_fuzz(self):
        rng = random.Random(808)
        for _ in range(200):
            u, v = random_word(rng, 3, 6), random_word(rng, 3, 6)
            for i in (1, 2, 3):
                # d(uv) = du + u . dv, with dv shifted by u on the left
                shifted = {}
                for w, c in fox_derivative(v, i).items():
                    key = u * w
                    shifted[key] = shifted.get(key, 0) + c
                expected = combo_add(fox_derivative(u, i), shifted)
                assert fox_derivative(u * v, i) == expected

    def test_fundamental_identity_fuzz(self):
        rng = random.Random(809)
        for _ in range(200):
            r = random_word(rng, 3, 12)
            total: dict = {}
            for i in (1, 2, 3):
                d = fox_derivative(r, i)
                xi = Word.from_pairs([(i, 1)])
                term = combo_add(combo_mul_right(d, xi), {w: -c for w, c in d.items()})
                total = combo_add(total, term)
            expect = combo_add({r: 1}, {Word(): -1})
            assert total == expect


class TestLiftedBoundary:
    def test_order_two_block_matrix(self):
        p = P(1, "g1^2")
        t = coset_enumerate(p, 16)
        m = lifted_boundary(p, t)
        assert m == SparseIntMatrix.from_rows([[1, 1], [1, 1]])

    def test_collapses_to_exponent_matrix_on_one_coset(self):
        p = P(2, "g1 g2 g1^-1 g2^-1 g1", "g2 g1 g2 g1^-1 g2^-1")
        t = coset_enumerate(p, 64)
        assert t.n_cosets == 1
        assert lifted_boundary(p, t) == exponent_matrix(p)

    def test_rejects_overflow_table(self):
        p = Presentation(2)
        t = coset_enumerate(p, 10)
        with pytest.raises(IncompleteTable):
            lifted_boundary(p, t)

    @pytest.mark.parametrize("name", sorted(NON_ABELIAN))
    def test_lifted_chain_complex_on_non_abelian_groups(self, name):
        p, order = NON_ABELIAN[name]
        t = coset_enumerate(p, 256)
        assert t.is_complete and t.n_cosets == order
        d2 = lifted_boundary(p, t)
        assert mat_mul(lifted_d1(t), d2).entries == {}

    def test_walk_matches_fox_oracle_on_finite_groups(self):
        rng = random.Random(1515)
        for name, p, order in FINITE_GROUPS:
            p = disguise(rng, p)
            t = coset_enumerate(p, 4096)
            assert t.is_complete and t.n_cosets == order, name
            assert lifted_boundary(p, t) == fox_lifted_boundary(p, t), name

    def test_walk_matches_fox_oracle_on_random_presentations(self):
        # Relators are random words with inverse letters, some raised to a
        # power; only presentations whose tables complete are compared.
        rng = random.Random(1516)
        compared = nontrivial = 0
        while compared < 200:
            n = rng.randint(1, 3)
            relators = []
            for _ in range(rng.randint(n, n + 2)):
                w = random_word(rng, n, 4)
                relators.append(Word(w.letters * rng.randint(1, 4)))
            p = Presentation(n, tuple(relators))
            t = coset_enumerate(p, 64)
            if t.is_complete:
                assert lifted_boundary(p, t) == fox_lifted_boundary(p, t), p
                compared += 1
                nontrivial += t.n_cosets > 1
        assert nontrivial >= 50

    def test_table_of_another_presentation_raises(self):
        z3 = coset_enumerate(P(1, "g1^3"), 16)
        with pytest.raises(AssertionError, match="relator 1 does not close at coset 1"):
            lifted_boundary(P(1, "g1^2"), z3)
        s3 = coset_enumerate(NON_ABELIAN["S3"][0], 64)
        with pytest.raises(AssertionError, match="relator 2 does not close at coset 1"):
            lifted_boundary(P(2, "g1^2", "g2^2"), s3)

    def test_window_shape(self):
        p = P(1, "g1^3")
        t = coset_enumerate(p, 16)
        m = lifted_boundary(p, t)
        assert (m.rows, m.cols) == (3, 3)


class TestVerdicts:
    def test_relator_free_window_is_aspherical(self):
        v = asphericity_verdict(Presentation(3), 32)
        assert v.status == "aspherical"
        assert v.cosets is None

    def test_order_two_counterexample(self):
        v = asphericity_verdict(P(1, "g1^2"), 32)
        assert v.status == "not_aspherical"
        assert v.cosets == 2
        assert v.kernel_rank == 1
        assert v.witness is not None and any(v.witness)
        p = P(1, "g1^2")
        t = coset_enumerate(p, 32)
        assert all(v2 == 0 for v2 in mat_vec(lifted_boundary(p, t), v.witness))

    def test_disk_is_aspherical(self):
        v = asphericity_verdict(P(1, "g1"), 32)
        assert v.status == "aspherical"
        assert v.cosets == 1 and v.kernel_rank == 0

    def test_overflow_is_inconclusive(self):
        # Z2 * Z3 is infinite, but H1 = Z6 is finite, so HLT runs and overflows
        v = asphericity_verdict(P(2, "g1^2", "g2^3"), 16)
        assert v.status == "inconclusive"
        assert v.reason == "coset enumeration exceeded limit 16"

    def test_positive_free_rank_skips_enumeration(self):
        for p in (P(2, "g1 g2 g1^-1 g2^-1"), P(2, "g1 g2 g1^-1 g2^-1", "g1 g2 g1^-1 g2^-1")):
            v = asphericity_verdict(p, 16)
            assert v.to_json() == {
                "verdict": "inconclusive",
                "cosets": None,
                "kernel_rank": None,
                "witness": None,
                "reason": "infinite: H1 has positive free rank",
            }

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            asphericity_verdict(P(2, "g1 g2 g1^-1 g2^-1"), 0)
        assert asphericity_verdict(Presentation(2), 0).status == "aspherical"

    @given(infinite_h1_presentations())
    def test_positive_free_rank_is_inconclusive_and_overflows(self, p):
        assert len(p.relators) < p.n_generators or rank(exponent_matrix(p)) < p.n_generators
        v = asphericity_verdict(p, 64)
        assert v.status == "inconclusive" and v.cosets is None
        assert coset_enumerate(p, 64).status == "overflow"

    @pytest.mark.parametrize("name", sorted(NON_ABELIAN))
    def test_kernel_rank_meets_euler_identity(self, name):
        p, order = NON_ABELIAN[name]
        chi = 1 - p.n_generators + len(p.relators)
        v = asphericity_verdict(p, 256)
        assert v.status == "not_aspherical"
        assert v.cosets == order
        assert v.kernel_rank == order * chi - 1
        t = coset_enumerate(p, 256)
        assert not any(mat_vec(lifted_boundary(p, t), v.witness))

    def test_s3_witness_pin(self):
        # The first kernel basis vector: the lifts of the face g1^2 at
        # cosets 4 and 4.g1 = 5, which share a boundary.
        v = asphericity_verdict(NON_ABELIAN["S3"][0], 256)
        assert (v.kernel_rank, v.witness) == (11, (0, 0, 0, -1, 1) + (0,) * 13)

    def test_verdict_matches_kernel_basis_on_finite_groups(self):
        # The verdict reads its rank and witness off sparse kernel rows; the
        # densified basis is the oracle for both.
        rng = random.Random(2020)
        for name, p, order in FINITE_GROUPS:
            p = disguise(rng, p)
            v = asphericity_verdict(p, 4096)
            basis = kernel_basis(lifted_boundary(p, coset_enumerate(p, 4096)))
            assert v.cosets == order, name
            assert v.kernel_rank == len(basis), name
            assert v.witness == basis[0], name

    def test_verdict_memory_on_psl2_7(self):
        # Densifying the whole kernel basis (503 vectors of 672 entries)
        # peaks above 4 MiB; one witness stays well under 3 MiB.
        (p,) = [p for name, p, _ in FINITE_GROUPS if name == "PSL2_7"]
        tracemalloc.start()
        try:
            v = asphericity_verdict(p, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.kernel_rank == 503
        assert peak < 3 * 2**20, peak

    def test_duplicate_relator_is_detected(self):
        # two identical 2-cells bound a sphere
        v = asphericity_verdict(P(1, "g1", "g1"), 32)
        assert v.status == "not_aspherical"

    def test_to_json_keys(self):
        v = asphericity_verdict(P(1, "g1"), 32)
        assert set(v.to_json()) == {"verdict", "cosets", "kernel_rank", "witness", "reason"}

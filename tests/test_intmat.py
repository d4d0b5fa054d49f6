"""Sparse windows, elementary op logs, unimodular reduction, and Smith form."""

import random
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from asphere import (
    AddMultiple,
    NegateRow,
    NotUnimodular,
    RowOpLog,
    SparseIntMatrix,
    SwapRows,
    apply_col_ops,
    apply_row_ops,
    kernel_basis,
    reduce_to_identity,
    smith_normal_form,
)
from asphere.intmat import MAX_JSON_SIDE, IndexOutOfWindow, mat_vec, rank

from support import (
    random_non_unimodular,
    random_row_ops,
    random_unimodular,
    random_unit_window,
    random_window,
)

M = SparseIntMatrix.from_rows


def _det(rows: list[list[int]]) -> int:
    """Laplace expansion along the first row; for small minors only."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, v in enumerate(rows[0])
        if v
    )


def determinantal_divisors(m: SparseIntMatrix) -> list[int]:
    """D_k = gcd of the k x k minors, k = 1..min(rows, cols)."""
    dense = m.to_rows()
    return [
        gcd(
            *(
                _det([[dense[i][j] for j in cs] for i in rs])
                for rs in combinations(range(m.rows), k)
                for cs in combinations(range(m.cols), k)
            )
        )
        for k in range(1, min(m.rows, m.cols) + 1)
    ]


def assert_smith_certificate(m: SparseIntMatrix) -> tuple[int, ...]:
    """The diagonal is a nonnegative divisibility chain and the logs replay
    on `m` to it; returns the diagonal."""
    diag, rops, cops = smith_normal_form(m)
    assert len(diag) == min(m.rows, m.cols)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    replayed = apply_col_ops(cops, apply_row_ops(rops, m))
    expect = SparseIntMatrix(m.rows, m.cols, {(k, k): d for k, d in enumerate(diag, start=1) if d})
    assert replayed == expect
    return diag


class TestSparseMatrix:
    def test_round_trips(self):
        m = M([[0, 2], [-1, 0], [0, 0]])
        assert m.to_rows() == [[0, 2], [-1, 0], [0, 0]]
        assert SparseIntMatrix.from_json(m.to_json()) == m
        assert m.transpose().transpose() == m

    def test_json_side_bound(self):
        side = {"rows": MAX_JSON_SIDE, "cols": MAX_JSON_SIDE, "entries": []}
        assert SparseIntMatrix.from_json(side) == SparseIntMatrix.zeros(MAX_JSON_SIDE, MAX_JSON_SIDE)
        for rows, cols in ((MAX_JSON_SIDE + 1, 1), (1, MAX_JSON_SIDE + 1), (10**8, 10**8)):
            with pytest.raises(ValueError, match=f"at most {MAX_JSON_SIDE}"):
                SparseIntMatrix.from_json({"rows": rows, "cols": cols, "entries": [[1, 1, 1]]})

    def test_zero_entries_dropped(self):
        m = SparseIntMatrix(2, 2, {(1, 1): 0, (2, 2): 5})
        assert m.entries == {(2, 2): 5}

    def test_out_of_window_entry(self):
        with pytest.raises(IndexOutOfWindow):
            SparseIntMatrix(2, 2, {(3, 1): 1})

    def test_identity_predicate(self):
        assert SparseIntMatrix.identity(3).is_identity()
        assert not M([[1, 0], [0, -1]]).is_identity()
        assert not SparseIntMatrix.zeros(2, 3).is_identity()

    def test_mat_vec(self):
        assert mat_vec(M([[1, 2], [3, 4]]), [1, -1]) == [-1, -1]
        with pytest.raises(ValueError):
            mat_vec(M([[1, 2]]), [1])


class TestElementaryOps:
    def test_swap_rows(self):
        out = apply_row_ops(RowOpLog((SwapRows(1, 2),)), M([[1, 0], [0, 2]]))
        assert out == M([[0, 2], [1, 0]])

    def test_negate_row(self):
        out = apply_row_ops(RowOpLog((NegateRow(2),)), M([[1, 0], [0, 2]]))
        assert out == M([[1, 0], [0, -2]])

    def test_add_multiple(self):
        out = apply_row_ops(RowOpLog((AddMultiple(1, 2, 3),)), M([[1, 0], [0, 2]]))
        assert out == M([[1, 6], [0, 2]])

    def test_add_multiple_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            AddMultiple(1, 1, 2)

    def test_col_ops(self):
        out = apply_col_ops(RowOpLog((AddMultiple(2, 1, 1),)), M([[1, 0], [0, 2]]))
        assert out == M([[1, 1], [0, 2]])

    def test_out_of_window_op(self):
        with pytest.raises(IndexOutOfWindow):
            apply_row_ops(RowOpLog((SwapRows(1, 3),)), M([[1, 0], [0, 1]]))
        with pytest.raises(IndexOutOfWindow):
            apply_col_ops(RowOpLog((NegateRow(3),)), M([[1, 0], [0, 1]]))

    def test_log_inverse_round_trip_fuzz(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 6)
            log = random_row_ops(rng, n, rng.randint(0, 20))
            m = M([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            assert apply_row_ops(log.inverse(), apply_row_ops(log, m)) == m
            assert apply_col_ops(log.inverse(), apply_col_ops(log, m)) == m


class TestPivotReduction:
    def test_plain_euclid_column(self):
        m = M([[4, 1], [7, 2]])
        log = reduce_to_identity(m)
        assert log.ops[:3] == (AddMultiple(2, 1, -1), SwapRows(1, 2), AddMultiple(2, 1, -1))
        assert apply_row_ops(log, m).is_identity()

    def test_frozen_swap_negate_example(self):
        log = reduce_to_identity(M([[0, -1], [-1, 0]]))
        assert log == RowOpLog((SwapRows(1, 2), NegateRow(1), NegateRow(2)))

    def test_clears_first_row_when_needed(self):
        log = reduce_to_identity(M([[1, 5, 2], [0, 1, 3], [0, 0, 1]]))
        assert log == RowOpLog(
            (AddMultiple(1, 2, -5), AddMultiple(1, 3, 13), AddMultiple(2, 3, -3))
        )

    def test_zero_column(self):
        with pytest.raises(NotUnimodular, match="column 2 has no nonzero entry at or below row 2"):
            reduce_to_identity(M([[1, 1], [1, 1]]))

    def test_non_coprime_column(self):
        with pytest.raises(NotUnimodular, match="column 1 entries have gcd 2 at rows >= 1"):
            reduce_to_identity(M([[2, 1], [4, 3]]))

    def test_log_replays_to_result_fuzz(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            try:
                log = reduce_to_identity(m)
            except NotUnimodular:
                continue
            assert apply_row_ops(log, m).is_identity()


class TestReduceToIdentity:
    def test_identity_gives_empty_log(self):
        assert reduce_to_identity(SparseIntMatrix.identity(3)) == RowOpLog()

    def test_small_example_replay(self):
        m = M([[0, -1], [-1, 0]])
        log = reduce_to_identity(m)
        assert apply_row_ops(log, m).is_identity()

    def test_non_square_rejected(self):
        with pytest.raises(NotUnimodular):
            reduce_to_identity(M([[1, 0]], cols=2))

    def test_determinant_minus_one_is_fine(self):
        log = reduce_to_identity(M([[0, 1], [1, 0]]))
        assert apply_row_ops(log, M([[0, 1], [1, 0]])).is_identity()

    def test_singular_rejected(self):
        with pytest.raises(NotUnimodular):
            reduce_to_identity(M([[1, 1], [1, 1]]))

    def test_non_unit_determinant_rejected(self):
        with pytest.raises(NotUnimodular):
            reduce_to_identity(M([[2, 0], [0, 1]]))


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "rows, expect",
        [
            ([[2, 0], [0, 3]], (1, 6)),
            ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], (1, 2, 12)),
            ([[6, 4], [4, 6], [2, 2]], (2, 2)),
        ],
        ids=["2x2", "3x3", "3x2"],
    )
    def test_diag_2_3(self, rows, expect):
        diag, _, _ = smith_normal_form(M(rows))
        assert diag == expect

    def test_zero_matrix(self):
        diag, rops, cops = smith_normal_form(SparseIntMatrix.zeros(2, 3))
        assert diag == (0, 0)
        assert len(rops) == 0 and len(cops) == 0

    def test_identity(self):
        diag, _, _ = smith_normal_form(SparseIntMatrix.identity(4))
        assert diag == (1, 1, 1, 1)

    def test_divisibility_chain_and_replay_fuzz(self):
        rng = random.Random(13)
        for _ in range(300):
            assert_smith_certificate(random_window(rng, 8))

    def test_unit_windows_chain_and_replay_fuzz(self):
        # Sparse +-1 windows up to 40x40: the unit-pivot phase does most of
        # the work, and about a third leave a non-unit remainder block.
        rng = random.Random(17)
        for _ in range(300):
            m = random_unit_window(rng, 40)
            diag = assert_smith_certificate(m)
            assert sum(1 for d in diag if d) == rank(m)

    def test_determinantal_divisors_oracle(self):
        # d1 * ... * dk = gcd of the k x k minors: a certificate that does
        # not depend on the elimination or its logs.
        rng = random.Random(41)
        for n in range(400):
            if n % 2:
                m = random_unit_window(rng, 5, density=(0.3, 0.7))
            else:
                m = random_window(rng, 5)
            diag, _, _ = smith_normal_form(m)
            divisors = determinantal_divisors(m)
            assert [prod(diag[:k]) for k in range(1, len(diag) + 1)] == divisors

    @pytest.mark.parametrize(
        "rows, expect",
        [
            ([[1, 1], [1, -1]], (1, 2)),
            ([[2, 1], [1, 2]], (1, 3)),
            ([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [2, 0, 0, 0]], (1, 2, 0, 0)),
            ([[0, 0, 0], [0, -1, 0]], (1, 0)),
        ],
        ids=["fill-in-remainder", "unit-off-diagonal", "zero-rows-cols", "zero-tail"],
    )
    def test_unit_pivot_pins(self, rows, expect):
        assert assert_smith_certificate(M(rows)) == expect

    def test_minus_one_pivot_is_negated(self):
        diag, rops, cops = smith_normal_form(M([[0, -1], [3, 0]]))
        assert diag == (1, 3)
        assert rops == RowOpLog((NegateRow(1),))
        assert cops == RowOpLog((SwapRows(1, 2),))

    def test_markowitz_pivot_takes_the_shortest_row(self):
        # Column 1 has units in rows 1 (three nonzeros) and 2 (one): row 2
        # is the pivot, so clearing it touches one entry of row 1.
        diag, rops, cops = smith_normal_form(M([[1, 1, 1], [1, 0, 0]]))
        assert diag == (1, 1)
        assert rops == RowOpLog((AddMultiple(1, 2, -1), SwapRows(1, 2)))
        assert cops == RowOpLog((AddMultiple(3, 2, -1),))

    def test_unit_pivots_then_remainder_logs(self):
        # One unit pivot (-1 at (2,1)), then the non-unit remainder
        # [[2, 0], [0, 3]], whose Euclid passes and Kannan-Bachem step log
        # global indices after the pivot's swap and negation.
        m = M([[0, 2, 0], [-1, 0, 0], [0, 0, 3]])
        diag, rops, cops = smith_normal_form(m)
        assert diag == (1, 1, 6)
        assert rops == RowOpLog(
            (SwapRows(1, 2), NegateRow(1), AddMultiple(2, 3, 1), AddMultiple(3, 2, -3))
        )
        assert cops == RowOpLog(
            (AddMultiple(3, 2, -1), SwapRows(2, 3), AddMultiple(3, 2, -2), NegateRow(3))
        )
        assert assert_smith_certificate(m) == diag

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_windows(self, shape):
        diag, rops, cops = smith_normal_form(SparseIntMatrix.zeros(*shape))
        assert diag == () and len(rops) == 0 and len(cops) == 0

    def test_snf_invariant_under_elementary_ops_fuzz(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = M([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            diag, _, _ = smith_normal_form(m)
            scrambled = apply_col_ops(
                random_row_ops(rng, n, 6), apply_row_ops(random_row_ops(rng, n, 6), m)
            )
            diag2, _, _ = smith_normal_form(scrambled)
            assert diag == diag2


class TestRankAndKernel:
    def test_rank(self):
        assert rank(M([[1, 2], [2, 4]])) == 1
        assert rank(SparseIntMatrix.zeros(3, 2)) == 0
        assert rank(SparseIntMatrix.identity(3)) == 3

    def test_kernel_of_injective_map_is_empty(self):
        assert kernel_basis(SparseIntMatrix.identity(3)) == []

    def test_kernel_example(self):
        basis = kernel_basis(M([[1, 1], [1, 1]]))
        assert len(basis) == 1
        assert all(v == 0 for v in mat_vec(M([[1, 1], [1, 1]]), basis[0]))
        assert any(basis[0])

    def test_kernel_vectors_annihilate_fuzz(self):
        rng = random.Random(31)
        for n in range(400):
            # Dense small windows, and sparse +-1 ones like the probe's
            # lifted boundaries.
            m = random_window(rng, 8) if n % 2 else random_unit_window(rng, 40)
            basis = kernel_basis(m)
            assert len(basis) == m.cols - rank(m)
            for vec in basis:
                assert any(vec)
                assert all(v == 0 for v in mat_vec(m, vec))
            # Unit invariant factors: independent, and a saturated Z-basis.
            diag, _, _ = smith_normal_form(SparseIntMatrix.from_rows(basis, cols=m.cols))
            assert diag == (1,) * len(basis)


@given(st.integers(min_value=0, max_value=12345))
def test_random_unimodular_reduces_and_replays(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = random_unimodular(rng, n, 20)
    log = reduce_to_identity(m)
    assert apply_row_ops(log, m).is_identity()


@given(st.integers(min_value=0, max_value=12345))
def test_random_non_unimodular_is_rejected(seed):
    rng = random.Random(seed)
    m = random_non_unimodular(rng, 5)
    with pytest.raises(NotUnimodular):
        reduce_to_identity(m)

"""Sparse integer matrices on finite truncation windows, elementary
operation logs, unimodular reduction, and a Smith normal form oracle.

Indices are 1-based throughout, matching the matrix JSON interchange form
{"rows": R, "cols": C, "entries": [[i, j, v], ...]}.  Arithmetic is exact
(Python integers); windows beyond a few hundred rows are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union


class IndexOutOfWindow(Exception):
    """An elementary operation touched an index outside the window."""


class NotUnimodular(Exception):
    """The window matrix is not invertible over the integers."""


@dataclass(frozen=True, eq=False)
class SparseIntMatrix:
    """Row- and column-finite integer matrix on a finite window.

    `entries` maps (row, col) to a nonzero integer; no zeros are stored.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("window bounds must be nonnegative")
        clean: dict[tuple[int, int], int] = {}
        for (i, j), v in self.entries.items():
            if not (1 <= i <= self.rows and 1 <= j <= self.cols):
                raise IndexOutOfWindow(f"entry ({i},{j}) outside {self.rows}x{self.cols} window")
            if v != 0:
                clean[(i, j)] = int(v)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, items: Iterable[tuple[int, int, int]]
    ) -> "SparseIntMatrix":
        entries: dict[tuple[int, int], int] = {}
        for i, j, v in items:
            if (i, j) in entries:
                raise ValueError(f"duplicate entry at ({i},{j})")
            entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def from_rows(cls, rowdata: Sequence[Sequence[int]], cols: int | None = None) -> "SparseIntMatrix":
        rows = len(rowdata)
        if cols is None:
            cols = len(rowdata[0]) if rowdata else 0
        entries = {
            (i + 1, j + 1): v
            for i, row in enumerate(rowdata)
            for j, v in enumerate(row)
            if v
        }
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(1, n + 1)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseIntMatrix":
        return cls(rows, cols, {})

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def to_rows(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            dense[i - 1][j - 1] = v
        return dense

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self.entries == {(i, i): 1 for i in range(1, self.rows + 1)}

    def to_json(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, v] for (i, j), v in items],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SparseIntMatrix":
        return cls.from_entries(obj["rows"], obj["cols"], [tuple(e) for e in obj["entries"]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def mat_vec(m: SparseIntMatrix, vec: Sequence[int]) -> list[int]:
    """Matrix-vector product over the integers."""
    if len(vec) != m.cols:
        raise ValueError("vector length does not match window")
    out = [0] * m.rows
    for (i, j), v in m.entries.items():
        out[i - 1] += v * vec[j - 1]
    return out


# ---------------------------------------------------------------------------
# Elementary operations.  The same op objects describe row operations (via
# apply_row_ops) and column operations (via apply_col_ops).


@dataclass(frozen=True)
class SwapRows:
    i: int
    j: int


@dataclass(frozen=True)
class NegateRow:
    i: int


@dataclass(frozen=True)
class AddMultiple:
    """row[target] += coeff * row[source]; target != source."""

    target: int
    source: int
    coeff: int

    def __post_init__(self) -> None:
        if self.target == self.source:
            raise ValueError("AddMultiple requires distinct target and source")


ElementaryOp = Union[SwapRows, NegateRow, AddMultiple]


@dataclass(frozen=True)
class RowOpLog:
    """A replayable finite sequence of elementary operations."""

    ops: tuple[ElementaryOp, ...] = ()

    def inverse(self) -> "RowOpLog":
        inv: list[ElementaryOp] = []
        for op in reversed(self.ops):
            if isinstance(op, AddMultiple):
                inv.append(AddMultiple(op.target, op.source, -op.coeff))
            else:
                inv.append(op)
        return RowOpLog(tuple(inv))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ElementaryOp]:
        return iter(self.ops)


def _op_indices(op: ElementaryOp) -> tuple[int, ...]:
    if isinstance(op, SwapRows):
        return (op.i, op.j)
    if isinstance(op, NegateRow):
        return (op.i,)
    return (op.target, op.source)


def _apply_op_rows(dense: list[list[int]], op: ElementaryOp) -> None:
    if isinstance(op, SwapRows):
        dense[op.i - 1], dense[op.j - 1] = dense[op.j - 1], dense[op.i - 1]
    elif isinstance(op, NegateRow):
        dense[op.i - 1] = [-v for v in dense[op.i - 1]]
    else:
        src = dense[op.source - 1]
        tgt = dense[op.target - 1]
        dense[op.target - 1] = [t + op.coeff * s for t, s in zip(tgt, src)]


def apply_row_ops(log: RowOpLog, m: SparseIntMatrix) -> SparseIntMatrix:
    """Replay the log as row operations on `m`."""
    dense = m.to_rows()
    for op in log:
        if any(not 1 <= k <= m.rows for k in _op_indices(op)):
            raise IndexOutOfWindow(f"{op!r} outside {m.rows} declared rows")
        _apply_op_rows(dense, op)
    return SparseIntMatrix.from_rows(dense, cols=m.cols)


def _apply_col_op(dense: list[list[int]], op: ElementaryOp) -> None:
    if isinstance(op, SwapRows):
        for row in dense:
            row[op.i - 1], row[op.j - 1] = row[op.j - 1], row[op.i - 1]
    elif isinstance(op, NegateRow):
        for row in dense:
            row[op.i - 1] = -row[op.i - 1]
    else:
        for row in dense:
            row[op.target - 1] += op.coeff * row[op.source - 1]


def apply_col_ops(log: RowOpLog, m: SparseIntMatrix) -> SparseIntMatrix:
    """Replay the log as column operations on `m`."""
    dense = m.to_rows()
    for op in log:
        if any(not 1 <= k <= m.cols for k in _op_indices(op)):
            raise IndexOutOfWindow(f"{op!r} outside {m.cols} declared cols")
        _apply_col_op(dense, op)
    return SparseIntMatrix.from_rows(dense, cols=m.cols)


# ---------------------------------------------------------------------------
# Unimodular reduction: the constructive Euclid procedure on a window, by
# invertible row operations only.


def _emit(dense: list[list[int]], ops: list[ElementaryOp], op: ElementaryOp) -> None:
    _apply_op_rows(dense, op)
    ops.append(op)


def _clear_subcolumn(dense: list[list[int]], ops: list[ElementaryOp], k: int) -> None:
    """Make column k equal e_k on rows >= k.

    Repeatedly moves the smallest-|entry| row to row k (smallest row index
    on ties), normalizes its sign, and subtracts floor-quotient multiples
    from the rows below, until the gcd remains at the pivot.  Raises
    NotUnimodular when the subcolumn is identically zero or its gcd
    exceeds 1.
    """
    nrows = len(dense)
    c = k - 1
    while True:
        candidates = [(abs(dense[i][c]), i) for i in range(c, nrows) if dense[i][c]]
        if not candidates:
            raise NotUnimodular(f"column {k} has no nonzero entry at or below row {k}")
        _, best = min(candidates)
        if best != c:
            _emit(dense, ops, SwapRows(k, best + 1))
        if dense[c][c] < 0:
            _emit(dense, ops, NegateRow(k))
        pivot = dense[c][c]
        for i in range(k, nrows):
            v = dense[i][c]
            if v:
                q = v // pivot
                if q:
                    _emit(dense, ops, AddMultiple(i + 1, k, -q))
        if all(dense[i][c] == 0 for i in range(k, nrows)):
            break
    if dense[c][c] != 1:
        raise NotUnimodular(f"column {k} entries have gcd {dense[c][c]} at rows >= {k}")


def reduce_to_identity(c: SparseIntMatrix) -> RowOpLog:
    """Row operations turning a unimodular window into the identity.

    Phase 1 clears each column below a unit pivot, left to right; phase 2
    clears each row right of its pivot, top to bottom, by adding multiples
    of the rows below.  Raises NotUnimodular when the window is not square
    or a column has a zero or non-unit gcd below the diagonal.
    """
    if c.rows != c.cols:
        raise NotUnimodular(f"window is {c.rows}x{c.cols}, not square")
    n = c.rows
    dense = c.to_rows()
    ops: list[ElementaryOp] = []
    for k in range(1, n + 1):
        _clear_subcolumn(dense, ops, k)
    for k in range(1, n + 1):
        for j in range(k + 1, n + 1):
            v = dense[k - 1][j - 1]
            if v:
                _emit(dense, ops, AddMultiple(k, j, -v))
    if not SparseIntMatrix.from_rows(dense, cols=n).is_identity():
        raise NotUnimodular("window did not reduce to the identity")
    return RowOpLog(tuple(ops))


# ---------------------------------------------------------------------------
# Smith normal form with replayable row and column logs.


def smith_normal_form(
    m: SparseIntMatrix,
) -> tuple[tuple[int, ...], RowOpLog, RowOpLog]:
    """Diagonalize by alternating row/column gcd reduction.

    Returns (diagonal, row_log, col_log) with nonnegative diagonal entries
    in a divisibility chain d1 | d2 | ...; replaying row_log as row ops and
    col_log as column ops on `m` yields the diagonal matrix.
    """
    dense = m.to_rows()
    rows, cols = m.rows, m.cols
    rops: list[ElementaryOp] = []
    cops: list[ElementaryOp] = []

    def remit(op: ElementaryOp) -> None:
        _apply_op_rows(dense, op)
        rops.append(op)

    def cemit(op: ElementaryOp) -> None:
        _apply_col_op(dense, op)
        cops.append(op)

    for t in range(1, min(rows, cols) + 1):
        while True:
            candidates = [
                (abs(dense[i][j]), i, j)
                for i in range(t - 1, rows)
                for j in range(t - 1, cols)
                if dense[i][j]
            ]
            if not candidates:
                break
            _, bi, bj = min(candidates)
            if bi != t - 1:
                remit(SwapRows(t, bi + 1))
            if bj != t - 1:
                cemit(SwapRows(t, bj + 1))
            if dense[t - 1][t - 1] < 0:
                remit(NegateRow(t))
            pivot = dense[t - 1][t - 1]
            dirty = False
            for i in range(t, rows):
                v = dense[i][t - 1]
                if v:
                    q = v // pivot
                    if q:
                        remit(AddMultiple(i + 1, t, -q))
                    if dense[i][t - 1]:
                        dirty = True
            for j in range(t, cols):
                v = dense[t - 1][j]
                if v:
                    q = v // pivot
                    if q:
                        cemit(AddMultiple(j + 1, t, -q))
                    if dense[t - 1][j]:
                        dirty = True
            if dirty:
                continue
            bad = next(
                (
                    (i, j)
                    for i in range(t, rows)
                    for j in range(t, cols)
                    if dense[i][j] % pivot
                ),
                None,
            )
            if bad is None:
                break
            remit(AddMultiple(t, bad[0] + 1, 1))
        if dense[t - 1][t - 1] == 0:
            break

    diagonal = tuple(dense[k][k] for k in range(min(rows, cols)))
    return diagonal, RowOpLog(tuple(rops)), RowOpLog(tuple(cops))


def rank(m: SparseIntMatrix) -> int:
    """Integer (= rational) rank, via the SNF diagonal."""
    diagonal, _, _ = smith_normal_form(m)
    return sum(1 for d in diagonal if d)


def kernel_basis(m: SparseIntMatrix) -> list[tuple[int, ...]]:
    """Integer vectors spanning the rational kernel of the window matrix.

    The column log of the SNF, replayed on the identity, sends standard
    basis vectors at zero-diagonal positions to kernel vectors of `m`; the
    replay runs on the transpose, whose rows are those vectors.
    """
    diagonal, _, col_log = smith_normal_form(m)
    vectors = SparseIntMatrix.identity(m.cols).to_rows()
    for op in col_log:
        _apply_op_rows(vectors, op)
    return [
        tuple(vectors[k])
        for k in range(m.cols)
        if k >= len(diagonal) or diagonal[k] == 0
    ]

"""Sparse integer matrices on finite truncation windows, elementary
operation logs, and one Euclid step (`_clear_subcolumn`) that drives the
unimodular reduction, the rank, the integer kernel (two echelon passes)
and the non-unit part of the Smith normal form.

Every elimination and every log replay runs on one row format: row i is a
dict {0-based col: nonzero value}, and a row operation touches only the
nonzeros of its source row.  The Smith form first pivots on +-1 entries,
Markowitz-first, removing one row and column per pivot (Dumas-Saunders-
Villard, J. Symbolic Comput. 32, 2001; Markowitz, Management Sci. 3, 1957);
echelon passes with a Kannan-Bachem fix-up then diagonalize only what has
no unit left.  The boundary maps of presentation complexes are sparse and
made of +-1 entries, so the first phase usually finishes the job.

Entry and operation indices are 1-based, matching the matrix JSON form
{"rows": R, "cols": C, "entries": [[i, j, v], ...]}.  Arithmetic is exact
(Python integers); windows beyond a few hundred rows are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union


MAX_JSON_SIDE = 10_000  # the most rows, and the most cols, matrix JSON may declare


class IndexOutOfWindow(ValueError):
    """An entry or an elementary operation lies outside the window."""


class NotUnimodular(Exception):
    """The window matrix is not invertible over the integers."""


@dataclass(frozen=True)
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
    def from_json(cls, obj: object) -> "SparseIntMatrix":
        """Read the JSON form; ValueError on any other shape, on a value that
        is not an integer (bools included), on a side past MAX_JSON_SIDE or
        on a repeated entry."""
        if not (isinstance(obj, dict) and {"rows", "cols", "entries"} <= obj.keys()):
            raise ValueError('matrix JSON must be an object with "rows", "cols" and "entries"')
        rows, cols, items = obj["rows"], obj["cols"], obj["entries"]
        if type(rows) is not int or type(cols) is not int:
            raise ValueError("matrix rows and cols must be integers")
        if max(rows, cols) > MAX_JSON_SIDE:
            raise ValueError(f"matrix rows and cols must be at most {MAX_JSON_SIDE}")
        if not isinstance(items, list):
            raise ValueError("matrix entries must be a list")
        entries: dict[tuple[int, int], int] = {}
        for item in items:
            if not (isinstance(item, list) and len(item) == 3 and all(type(x) is int for x in item)):
                raise ValueError(f"matrix entry {item!r} is not an [i, j, v] triple of integers")
            i, j, v = item
            if (i, j) in entries:
                raise ValueError(f"duplicate entry at ({i},{j})")
            entries[(i, j)] = v
        return cls(rows, cols, entries)

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


# ---------------------------------------------------------------------------
# Sparse rows: row i of a matrix is a dict {0-based col: nonzero value}.
# Every elimination below and the log replay run on this one format.

Rows = list[dict[int, int]]


def _sparse_rows(m: SparseIntMatrix) -> Rows:
    rows: Rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i - 1][j - 1] = v
    return rows


def _transpose(rows: Rows, ncols: int) -> Rows:
    out: Rows = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def _add_multiple(row: dict[int, int], src: dict[int, int], q: int) -> None:
    """row += q * src in place, touching only the nonzeros of `src`."""
    for j, v in src.items():
        new = row.get(j, 0) + q * v
        if new:
            row[j] = new
        else:
            del row[j]


def _apply_op(rows: Rows, op: ElementaryOp) -> None:
    if isinstance(op, SwapRows):
        rows[op.i - 1], rows[op.j - 1] = rows[op.j - 1], rows[op.i - 1]
    elif isinstance(op, NegateRow):
        rows[op.i - 1] = {j: -v for j, v in rows[op.i - 1].items()}
    else:
        _add_multiple(rows[op.target - 1], rows[op.source - 1], op.coeff)


def _replay(log: RowOpLog, m: SparseIntMatrix, what: str) -> SparseIntMatrix:
    rows = _sparse_rows(m)
    for op in log:
        if any(not 1 <= k <= m.rows for k in _op_indices(op)):
            raise IndexOutOfWindow(f"{op!r} outside {m.rows} declared {what}")
        _apply_op(rows, op)
    entries = {(i + 1, j + 1): v for i, row in enumerate(rows) for j, v in row.items()}
    return SparseIntMatrix(m.rows, m.cols, entries)


def apply_row_ops(log: RowOpLog, m: SparseIntMatrix) -> SparseIntMatrix:
    """Replay the log as row operations on `m`."""
    return _replay(log, m, "rows")


def apply_col_ops(log: RowOpLog, m: SparseIntMatrix) -> SparseIntMatrix:
    """Replay the log as column operations on `m`."""
    return _replay(log, m.transpose(), "cols").transpose()


# ---------------------------------------------------------------------------
# The Euclid step and what is built on it: unimodular reduction, echelon
# form and rank, the Smith normal form, and the integer kernel.


def _emit(rows: Rows, ops: list[ElementaryOp], op: ElementaryOp) -> None:
    _apply_op(rows, op)
    ops.append(op)


def _clear_subcolumn(rows: Rows, ops: list[ElementaryOp] | None, top: int, col: int) -> int:
    """Leave gcd(column `col` at rows >= `top`) at (top, col), zeros below.

    Indices are 0-based.  Each Euclid round moves the smallest-|entry| row
    to row `top` (smallest row index on ties), makes it positive, and
    subtracts floor-quotient multiples of it from the rows below.  The row
    operations are appended to `ops`, or only applied when `ops` is None.
    Returns the nonnegative gcd, or 0 when the subcolumn is zero.
    """
    nrows = len(rows)
    while True:
        candidates = [(abs(rows[i][col]), i) for i in range(top, nrows) if col in rows[i]]
        if not candidates:
            return 0
        _, best = min(candidates)
        if best != top:
            rows[top], rows[best] = rows[best], rows[top]
            if ops is not None:
                ops.append(SwapRows(top + 1, best + 1))
        pivot_row = rows[top]
        if pivot_row[col] < 0:
            pivot_row = rows[top] = {j: -v for j, v in pivot_row.items()}
            if ops is not None:
                ops.append(NegateRow(top + 1))
        pivot = pivot_row[col]
        cleared = True
        for i in range(top + 1, nrows):
            v = rows[i].get(col)
            if v:
                q = v // pivot
                if q:
                    _add_multiple(rows[i], pivot_row, -q)
                    if ops is not None:
                        ops.append(AddMultiple(i + 1, top + 1, -q))
                cleared = cleared and col not in rows[i]
        if cleared:
            return pivot


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
    rows = _sparse_rows(c)
    ops: list[ElementaryOp] = []
    for k in range(1, n + 1):
        g = _clear_subcolumn(rows, ops, k - 1, k - 1)
        if g == 0:
            raise NotUnimodular(f"column {k} has no nonzero entry at or below row {k}")
        if g != 1:
            raise NotUnimodular(f"column {k} entries have gcd {g} at rows >= {k}")
    for k in range(n):
        for j in range(k + 1, n):
            v = rows[k].get(j)
            if v:
                _emit(rows, ops, AddMultiple(k + 1, j + 1, -v))
    if any(row != {i: 1} for i, row in enumerate(rows)):
        raise NotUnimodular("window did not reduce to the identity")
    return RowOpLog(tuple(ops))


def _echelon(rows: Rows, ops: list[ElementaryOp] | None, ncols: int, start: int = 0) -> int:
    """Row echelon form with nonnegative pivots, in place, of the rows and
    columns from `start` on; returns `start` plus their rank.  The row
    operations are logged as in `_clear_subcolumn`."""
    top = start
    for col in range(start, ncols):
        if _clear_subcolumn(rows, ops, top, col):
            top += 1
    return top


def _eliminate_units(
    row_of: Rows, ncols: int, rops: list[ElementaryOp], cops: list[ElementaryOp]
) -> list[tuple[int, int, int]]:
    """Phase 1 of the Smith form: pivot on unit entries of the sparse rows.

    Sweeps the live columns left to right; a column with a +-1 entry takes
    as pivot the one whose row has the fewest nonzeros (Markowitz), lowest
    row index on ties.  Logged row ops clear the rest of the column, each
    touching only the pivot row's nonzeros; logged column ops then clear
    the pivot row, and the pivot's row and column leave the matrix.  As the
    pivot is a unit, what is left is the exact Schur complement.  Sweeps
    repeat until one finds no unit.  Returns the (row, col, +-1) pivots in
    the order taken; the other rows of `row_of` hold the remainder.
    """
    rows_in: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(row_of):
        for j in row:
            rows_in[j].add(i)
    pivots: list[tuple[int, int, int]] = []
    live = [j for j, rs in enumerate(rows_in) if rs]
    while True:
        taken = len(pivots)
        kept: list[int] = []
        for c in live:
            units = [(len(row_of[r]), r) for r in rows_in[c] if row_of[r][c] in (1, -1)]
            if not units:
                if rows_in[c]:
                    kept.append(c)
                continue
            _, p = min(units)
            prow = row_of[p]
            u = prow[c]
            for r in sorted(rows_in[c]):
                if r == p:
                    continue
                row = row_of[r]
                q = -row[c] * u
                _add_multiple(row, prow, q)
                for j in prow:
                    if j in row:
                        rows_in[j].add(r)
                    else:
                        rows_in[j].discard(r)
                rops.append(AddMultiple(r + 1, p + 1, q))
            for j in sorted(prow):
                rows_in[j].discard(p)
                if j != c:
                    cops.append(AddMultiple(j + 1, c + 1, -prow[j] * u))
            pivots.append((p, c, u))
        if len(pivots) == taken:
            return pivots
        live = kept


def _swap_to(at: list[int], pos: list[int], x: int, t: int, ops: list[ElementaryOp]) -> None:
    """Log the swap that brings index `x` to position `t`; `at` and `pos`
    are inverse permutations (position -> index, index -> position)."""
    s = pos[x]
    if s != t:
        y = at[t]
        at[t], at[s] = x, y
        pos[x], pos[y] = t, s
        ops.append(SwapRows(t + 1, s + 1))


def smith_normal_form(
    m: SparseIntMatrix,
) -> tuple[tuple[int, ...], RowOpLog, RowOpLog]:
    """Smith normal form by sparse unit elimination, then Euclid passes on
    the non-unit remainder.

    Phase 1 (`_eliminate_units`) pivots on +-1 entries, Markowitz-ordered,
    and drops each pivot's row and column: the usual first phase of sparse
    integer Smith forms (Dumas-Saunders-Villard, J. Symbolic Comput. 32,
    2001; Markowitz, Management Sci. 3, 1957).  Phase 2 swaps the k unit
    pivots to (1,1)..(k,k) and negates the -1 ones.  If the remaining rows
    are nonzero, echelon passes from row and column k on alternate on the
    rows and the columns (column passes are row passes on the transposed
    rows); once the matrix is diagonal, the first pair with d_i not dividing
    d_{i+1} gets row i+1 added to row i and the passes resume
    (Kannan-Bachem, SIAM J. Comput. 8, 1979).

    Returns (diagonal, row_log, col_log) with nonnegative diagonal entries
    in a divisibility chain d1 | d2 | ...; replaying row_log as row ops and
    col_log as column ops on `m` yields the diagonal matrix.
    """
    nrows, ncols = m.rows, m.cols
    row_of = _sparse_rows(m)
    rops: list[ElementaryOp] = []
    cops: list[ElementaryOp] = []
    pivots = _eliminate_units(row_of, ncols, rops, cops)

    row_at, row_pos = list(range(nrows)), list(range(nrows))
    col_at, col_pos = list(range(ncols)), list(range(ncols))
    for t, (p, c, u) in enumerate(pivots):
        _swap_to(row_at, row_pos, p, t, rops)
        _swap_to(col_at, col_pos, c, t, cops)
        if u < 0:
            rops.append(NegateRow(t + 1))

    k = len(pivots)
    rest = [row_of[i] for i in row_at[k:]]
    if not any(rest):
        diagonal = (1,) * k + (0,) * (min(nrows, ncols) - k)
        return diagonal, RowOpLog(tuple(rops)), RowOpLog(tuple(cops))
    rows = [{t: 1} for t in range(k)] + [{col_pos[j]: v for j, v in row.items()} for row in rest]
    while True:
        _echelon(rows, rops, ncols, k)
        if any(row.keys() - {i} for i, row in enumerate(rows)):  # off-diagonal entry
            transposed = _transpose(rows, ncols)
            _echelon(transposed, cops, nrows, k)
            rows = _transpose(transposed, nrows)
            continue
        # A diagonal echelon form has its zero entries last.
        diagonal = tuple(rows[t].get(t, 0) for t in range(min(nrows, ncols)))
        bad = next(
            (t for t in range(k + 1, len(diagonal)) if diagonal[t - 1] and diagonal[t] % diagonal[t - 1]),
            None,
        )
        if bad is None:
            return diagonal, RowOpLog(tuple(rops)), RowOpLog(tuple(cops))
        _emit(rows, rops, AddMultiple(bad, bad + 1, 1))


def rank(m: SparseIntMatrix) -> int:
    """Integer (= rational) rank: the number of pivots of one echelon pass."""
    return _echelon(_sparse_rows(m), None, m.cols)


def _kernel_rows(m: SparseIntMatrix) -> tuple[int, Rows]:
    """The rank r of the window matrix and a Z-basis of its integer kernel,
    cols - r sparse rows whose entry r + j is coordinate j of the vector.

    A row echelon pass leaves the kernel alone and gives an echelon form E
    of rank r.  A second pass over the first r columns of the rows of
    [E^T | I] makes column operations on E, recorded in the I part (the
    entries r + j).  Its rows r.. then have a zero E^T part, so their I
    parts are kernel vectors, and as rows of a unimodular matrix they form
    a Z-basis (Cohen, GTM 138, section 2.4).
    """
    cols = m.cols
    rows = _sparse_rows(m)
    r = _echelon(rows, None, cols)
    augmented = _transpose(rows[:r], cols)
    del rows
    for j, row in enumerate(augmented):
        row[r + j] = 1
    _echelon(augmented, None, r)
    return r, augmented[r:]


def kernel_basis(m: SparseIntMatrix) -> list[tuple[int, ...]]:
    """A Z-basis of the integer kernel: the rows of `_kernel_rows`, densified."""
    r, rows = _kernel_rows(m)
    return [tuple(row.get(r + j, 0) for j in range(m.cols)) for row in rows]

"""Small-instance falsifier for asphericity claims.

A fundamental group whose abelianization H1 has positive free rank is
infinite, so no coset table can complete and the probe stops there; this
covers every presentation with fewer relators than generators.  Otherwise
bounded HLT coset enumeration detects finite quotients; walking each
relator from each coset lifts the boundary matrix to the universal cover,
an integer block matrix (the Fox derivatives under the left-regular
representation) whose rational kernel rank bounds the rank of the second
homotopy group from below when the fundamental group is the enumerated
finite group.
"""

from __future__ import annotations

from collections import deque

from ._record import Record
from .intmat import SparseIntMatrix, _kernel_rows, mat_vec, rank
from .presentations import Presentation, exponent_matrix
from .words import Word

MAX_TABLE_CELLS = 10_000_000  # limit x 2n: the most cells a coset table may reach


class IncompleteTable(Exception):
    """The operation needs a completed coset table."""


def _column(x: int) -> int:
    """Coset-table column of letter x: g1, g1^-1, g2, g2^-1, ..."""
    return 2 * abs(x) - (2 if x > 0 else 1)


class CosetTable(Record):
    """Permutation action of the generators on cosets of the trivial
    subgroup; complete tables enumerate the whole finite group.

    `action[c][k]` is the 1-based image of coset c+1 under column k, where
    columns alternate g1, g1^-1, g2, g2^-1, ...  `status` is "complete" or
    "overflow"; only complete tables carry an action.
    """

    __match_args__ = ("n_generators", "status", "n_cosets", "action")

    def __init__(
        self, n_generators: int, status: str, n_cosets: int, action: tuple[tuple[int, ...], ...] = ()
    ) -> None:
        self.__dict__.update(n_generators=n_generators, status=status, n_cosets=n_cosets, action=action)

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def act(self, coset: int, x: int) -> int:
        return self.action[coset - 1][_column(x)]


class _Overflow(Exception):
    pass


def coset_enumerate(p: Presentation, limit: int) -> CosetTable:
    """HLT enumeration over the trivial subgroup with a hard coset limit.

    Relators are scanned coset by coset in definition order, filling and
    recording deductions; remaining undefined slots are then defined in
    lexicographic column order.  Coincidences are merged eagerly.  A
    table of more than MAX_TABLE_CELLS cells raises before any is built.
    """
    n = p.n_generators
    ncols = 2 * n
    if limit < 1:
        raise ValueError("limit must be positive")
    if limit * ncols > MAX_TABLE_CELLS:
        raise ValueError(f"limit {limit} x {ncols} table columns is more than {MAX_TABLE_CELLS} cells")
    rels = [[_column(x) for x in w] for w in p.relators]

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]
    queue: deque[int] = deque()

    def rep(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def define(alpha: int, x: int) -> None:
        if len(table) >= limit:
            raise _Overflow
        table.append([None] * ncols)
        parent.append(len(table) - 1)
        new = len(table) - 1
        table[alpha][x] = new
        table[new][x ^ 1] = alpha

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            queue.append(b)

    def process_coincidences() -> None:
        while queue:
            e = queue.popleft()
            for x in range(ncols):
                f = table[e][x]
                if f is None:
                    continue
                if table[f][x ^ 1] == e:
                    table[f][x ^ 1] = None
                e1, f1 = rep(e), rep(f)
                g = table[e1][x]
                if g is not None:
                    merge(f1, g)
                else:
                    h = table[f1][x ^ 1]
                    if h is not None:
                        merge(e1, h)
                    else:
                        table[e1][x] = f1
                        table[f1][x ^ 1] = e1

    def scan_and_fill(alpha: int, rel: list[int]) -> None:
        while True:
            front, i = alpha, 0
            while i < len(rel):
                nxt = table[front][rel[i]]
                if nxt is None:
                    break
                front, i = nxt, i + 1
            if i == len(rel):
                if front != alpha:
                    merge(front, alpha)
                    process_coincidences()
                return
            back, j = alpha, len(rel) - 1
            while j >= i:
                prv = table[back][rel[j] ^ 1]
                if prv is None:
                    break
                back, j = prv, j - 1
            if j < i:
                merge(front, back)
                process_coincidences()
                return
            if j == i:
                table[front][rel[i]] = back
                table[back][rel[i] ^ 1] = front
                return
            define(front, rel[i])

    try:
        alpha = 0
        while alpha < len(table):
            if rep(alpha) == alpha:
                for rel in rels:
                    if rep(alpha) != alpha:
                        break
                    scan_and_fill(alpha, rel)
                if rep(alpha) == alpha:
                    for x in range(ncols):
                        if table[alpha][x] is None:
                            define(alpha, x)
            alpha += 1
    except _Overflow:
        live = sum(1 for k in range(len(table)) if rep(k) == k)
        return CosetTable(n, "overflow", live)

    live = [k for k in range(len(table)) if rep(k) == k]
    renumber = {k: idx for idx, k in enumerate(live, start=1)}
    action = tuple(tuple(renumber[rep(table[k][x])] for x in range(ncols)) for k in live)
    return CosetTable(n, "complete", len(live), action)


# ---------------------------------------------------------------------------
# Free differential calculus.


def fox_derivative(r: Word, i: int) -> dict[Word, int]:
    """Formal combination satisfying the product rule with d(x_i)/d(x_i) = 1
    and d(x_i^-1)/d(x_i) = -x_i^-1."""
    terms: dict[Word, int] = {}
    letters = r.letters
    for k, x in enumerate(letters):
        if x == i:
            key, coeff = Word(letters[:k]), 1
        elif x == -i:
            key, coeff = Word(letters[: k + 1]), -1
        else:
            continue
        terms[key] = terms.get(key, 0) + coeff
    return {w: c for w, c in terms.items() if c}


def lifted_boundary(p: Presentation, t: CosetTable) -> SparseIntMatrix:
    """Block matrix of the derivatives under the left-regular representation.

    Column (j-1)N + a, on the N cosets of a complete table, is the lift of
    face j based at coset a: walk r_j from a.  Reading x_i at coset h adds
    +1 at the lift of edge i based at h; reading x_i^-1 at h crosses the
    lift of edge i based at h.x_i^-1 backwards and adds -1 there.  Block
    (i, j) is thus d(r_j)/d(x_i) (Fox, Ann. of Math. 57, 1953).  The walk
    ends at a because r_j = 1 in G; a table where it does not is not one
    of p, which raises AssertionError.  With N = 1 this collapses to the
    exponent matrix.
    """
    if not t.is_complete:
        raise IncompleteTable("lifted boundary needs a complete coset table")
    n, m, size = p.n_generators, len(p.relators), t.n_cosets
    entries: dict[tuple[int, int], int] = {}
    for j, r in enumerate(p.relators, start=1):
        for a in range(1, size + 1):
            col, h = (j - 1) * size + a, a
            for x in r:
                if x > 0:
                    key, v = ((x - 1) * size + h, col), 1
                    h = t.act(h, x)
                else:
                    h = t.act(h, x)
                    key, v = ((-x - 1) * size + h, col), -1
                entries[key] = entries.get(key, 0) + v
            if h != a:
                raise AssertionError(f"relator {j} does not close at coset {a}")
    return SparseIntMatrix(n * size, m * size, entries)


# ---------------------------------------------------------------------------
# Verdicts.


class Verdict(Record):
    """`status` is "aspherical", "not_aspherical", or "inconclusive"."""

    __match_args__ = ("status", "cosets", "kernel_rank", "witness", "reason")

    def __init__(
        self, status: str, cosets: int | None, kernel_rank: int | None, witness: tuple[int, ...] | None, reason: str
    ) -> None:
        self.__dict__.update(status=status, cosets=cosets, kernel_rank=kernel_rank, witness=witness, reason=reason)

    def to_json(self) -> dict:
        return {
            "verdict": self.status,
            "cosets": self.cosets,
            "kernel_rank": self.kernel_rank,
            "witness": list(self.witness) if self.witness is not None else None,
            "reason": self.reason,
        }


# The two answers fixed by the presentation's shape, shared by every call.
_NO_TWO_CELLS = Verdict("aspherical", None, None, None, "no 2-cells: the complex is a graph")
_INFINITE = Verdict("inconclusive", None, None, None, "infinite: H1 has positive free rank")


def asphericity_verdict(p: Presentation, limit: int) -> Verdict:
    """Sound falsification probe.

    If H1 has positive free rank (fewer relators than generators, or a
    singular exponent matrix), G is infinite and no table can complete, so
    the verdict is inconclusive without enumerating.  A completed table
    enumerates the finite fundamental group G, so the rational kernel of
    the lifted boundary is H2 of the universal cover, of rank |G|.chi - 1
    by the Euler identity; that rank is checked.  A nonzero kernel is a
    second-homotopy witness (re-multiplied through the matrix before it is
    reported); a zero kernel forces G trivial and certifies asphericity.
    Overflow stays inconclusive.
    """
    if not p.relators:
        return _NO_TWO_CELLS
    if limit < 1:
        raise ValueError("limit must be positive")
    n = p.n_generators
    if len(p.relators) < n or rank(exponent_matrix(p)) < n:
        return _INFINITE
    t = coset_enumerate(p, limit)
    if not t.is_complete:
        return Verdict("inconclusive", None, None, None, f"coset enumeration exceeded limit {limit}")
    boundary = lifted_boundary(p, t)
    r, kernel = _kernel_rows(boundary)
    euler = t.n_cosets * (1 - p.n_generators + len(p.relators)) - 1
    if len(kernel) != euler:
        raise AssertionError(
            f"kernel rank {len(kernel)} breaks the Euler identity |G|.chi - 1 = {euler}"
        )
    if not kernel:
        return Verdict("aspherical", 1, 0, None, "trivial group and injective lifted boundary")
    witness = tuple(kernel[0].get(r + j, 0) for j in range(boundary.cols))
    if any(mat_vec(boundary, witness)):
        raise AssertionError("kernel witness failed re-multiplication")
    return Verdict(
        "not_aspherical",
        t.n_cosets,
        len(kernel),
        witness,
        "lifted boundary has nonzero rational kernel",
    )

"""Shared random generators for the fuzz and acceptance suites."""

from __future__ import annotations

import random

from asphere import (
    AddMultiple,
    BaseChange,
    CosetTable,
    IncompleteTable,
    Invert,
    NegateRow,
    Presentation,
    RightMultiply,
    RowOpLog,
    SparseIntMatrix,
    Swap,
    SwapRows,
    Word,
    apply_base_change,
    apply_move,
    apply_row_ops,
    fox_derivative,
    smith_normal_form,
)
from asphere.complexes import Filtration, SubcomplexSpec
from asphere.links import SurgeryCode


def random_word(rng: random.Random, n_gens: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    return Word.from_pairs(
        (rng.randint(1, n_gens), rng.choice((1, -1))) for _ in range(length)
    )


def random_letters(rng: random.Random, n_gens: int, max_len: int) -> list[int]:
    """Unreduced signed-int letters: +k is g<k>, -k its inverse."""
    length = rng.randint(0, max_len)
    return [rng.randint(1, n_gens) * rng.choice((1, -1)) for _ in range(length)]


def random_row_op(rng: random.Random, n: int):
    kind = rng.randrange(3)
    if kind == 0 and n >= 2:
        i, j = rng.sample(range(1, n + 1), 2)
        return SwapRows(i, j)
    if kind == 1:
        return NegateRow(rng.randint(1, n))
    if n >= 2:
        t, s = rng.sample(range(1, n + 1), 2)
        return AddMultiple(t, s, rng.choice((-3, -2, -1, 1, 2, 3)))
    return NegateRow(1)


def random_row_ops(rng: random.Random, n: int, count: int) -> RowOpLog:
    return RowOpLog(tuple(random_row_op(rng, n) for _ in range(count)))


def random_unimodular(rng: random.Random, n: int, max_ops: int) -> SparseIntMatrix:
    log = random_row_ops(rng, n, rng.randint(0, max_ops))
    return apply_row_ops(log, SparseIntMatrix.identity(n))


def random_non_unimodular(rng: random.Random, max_size: int) -> SparseIntMatrix:
    """Rejection-sample dense square matrices until the SNF oracle says some
    diagonal entry differs from 1."""
    while True:
        n = rng.randint(1, max_size)
        m = SparseIntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        diagonal, _, _ = smith_normal_form(m)
        if any(d != 1 for d in diagonal):
            return m


def random_window(rng: random.Random, max_size: int) -> SparseIntMatrix:
    """0..max_size rows and columns, entries up to +-3 or +-1000; with three
    or more rows, half the time one row is the sum of two others, so
    empty and rank-deficient windows come up often."""
    rows, cols = rng.randint(0, max_size), rng.randint(0, max_size)
    bound = rng.choice([3, 1000])
    dense = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        a, b, t = rng.sample(range(rows), 3)
        dense[t] = [x + y for x, y in zip(dense[a], dense[b])]
    return SparseIntMatrix.from_rows(dense, cols=cols)


def random_unit_window(
    rng: random.Random, max_size: int, density: tuple[float, float] = (0.03, 0.10)
) -> SparseIntMatrix:
    """0..max_size rows and columns, each cell nonzero with a probability
    drawn from `density`; entries are +-1 and about one in ten +-2, like
    the sparse boundary maps of presentation complexes and telescopes."""
    rows, cols = rng.randint(0, max_size), rng.randint(0, max_size)
    p = rng.uniform(*density)
    entries = {
        (i, j): rng.choice((1, -1)) * (2 if rng.random() < 0.1 else 1)
        for i in range(1, rows + 1)
        for j in range(1, cols + 1)
        if rng.random() < p
    }
    return SparseIntMatrix(rows, cols, entries)


def random_nielsen_move(rng: random.Random, n: int):
    kind = rng.randrange(3)
    if kind == 0 and n >= 2:
        i, j = rng.sample(range(1, n + 1), 2)
        return Swap(i, j)
    if kind == 1 or n < 2:
        return Invert(rng.randint(1, n))
    i, j = rng.sample(range(1, n + 1), 2)
    return RightMultiply(i, j)


def replay_moves(bc: BaseChange, w: Word) -> Word:
    """Oracle for `apply_base_change`: apply the moves of `bc` one at a time,
    each with its own substitution and free reduction."""
    for move in bc.moves:
        w = apply_move(move, w)
    return w


def random_base_change(rng: random.Random, n: int, max_moves: int) -> BaseChange:
    return BaseChange(
        tuple(random_nielsen_move(rng, n) for _ in range(rng.randint(0, max_moves)))
    )


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def random_trivialish_presentation(
    rng: random.Random, n: int, max_moves: int = 12
) -> Presentation:
    """Balanced presentation with unimodular exponent matrix.

    Starts from relators x_j padded with random commutators (exponent
    matrix = identity) and scrambles by a random base change.
    """
    relators = []
    for j in range(1, n + 1):
        r = Word.from_pairs([(j, 1)])
        for _ in range(rng.randint(0, 2)):
            c = commutator(random_word(rng, n, 3), random_word(rng, n, 3))
            r = r * c
        relators.append(r)
    bc = random_base_change(rng, n, max_moves)
    return Presentation(n, tuple(apply_base_change(bc, r) for r in relators))


def random_surgery_code(rng: random.Random, shape: str, m: int) -> SurgeryCode:
    """An m-component code in one of the two shapes the sublinks benchmark
    walks.  "ring": component j is g_j [g_j, g_(j+1)] around a cycle.
    "triangular": g_1, g_2, then g_j [g_a^±1, g_b^±1] with a != b < j.
    One random permutation relabels handles and components alike, which
    keeps every exponent sum the Kronecker delta."""

    def g(i: int, e: int = 1) -> Word:
        return Word.from_pairs([(i, e)])

    if shape == "ring":
        comps = [g(j) * commutator(g(j), g(j % m + 1)) for j in range(1, m + 1)]
    elif shape == "triangular":
        comps = [g(j) for j in range(1, min(m, 2) + 1)]
        for j in range(3, m + 1):
            a, b = rng.sample(range(1, j), 2)
            comps.append(g(j) * commutator(g(a, rng.choice((1, -1))), g(b, rng.choice((1, -1)))))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    index_of = dict(zip(range(1, m + 1), perm))
    relabelled: list[Word] = [Word(())] * m
    for j, w in enumerate(comps, start=1):
        relabelled[index_of[j] - 1] = w.rename(index_of)
    return SurgeryCode(m, tuple(relabelled))


def random_presentation(rng: random.Random, n_gens: int, n_rels: int, max_len: int = 8) -> Presentation:
    return Presentation(
        n_gens, tuple(random_word(rng, n_gens, max_len) for _ in range(n_rels))
    )


def random_filtration(rng: random.Random, p: Presentation, n_stages: int) -> Filtration:
    """Increasing chain of closed subcomplex specs ending at the whole
    complex."""
    n_gens, n_rels = p.n_generators, len(p.relators)
    rel_order = list(range(1, n_rels + 1))
    rng.shuffle(rel_order)
    cuts = sorted(rng.randint(0, n_rels) for _ in range(n_stages - 1)) + [n_rels]

    stages = []
    gens: set[int] = set()
    for k, cut in enumerate(cuts):
        rels = set(rel_order[:cut])
        for j in rels:
            gens |= p.relators[j - 1].indices()
        extra = rng.randint(0, n_gens)
        gens |= set(rng.sample(range(1, n_gens + 1), extra))
        if k == len(cuts) - 1:
            gens = set(range(1, n_gens + 1))
        stages.append(SubcomplexSpec(frozenset(gens), frozenset(rels), n_gens, n_rels))
    return Filtration(p, tuple(stages))


def fox_lifted_boundary(p: Presentation, t: CosetTable) -> SparseIntMatrix:
    """Oracle for `lifted_boundary`: block (i, j) from the formal Fox
    derivative d(r_j)/d(x_i), each term w traced from every coset.

    The lift of face j based at coset g carries the Fox term w on the lift
    of edge i based at g.w.
    """
    if not t.is_complete:
        raise IncompleteTable("lifted boundary needs a complete coset table")
    n, m, size = p.n_generators, len(p.relators), t.n_cosets
    entries: dict[tuple[int, int], int] = {}
    for j, r in enumerate(p.relators, start=1):
        for i in range(1, n + 1):
            for w, coeff in fox_derivative(r, i).items():
                for alpha in range(1, size + 1):
                    target = alpha
                    for x in w:
                        target = t.act(target, x)
                    key = ((i - 1) * size + target, (j - 1) * size + alpha)
                    v = entries.get(key, 0) + coeff
                    if v:
                        entries[key] = v
                    else:
                        entries.pop(key, None)
    return SparseIntMatrix(n * size, m * size, entries)

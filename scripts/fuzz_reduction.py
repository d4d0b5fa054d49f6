#!/usr/bin/env python3
"""Seeded fuzz harness for the integer reduction and normalization stack.

Each round builds a random unimodular window from elementary operations,
reduces it back to the identity, and checks the replay; it takes the Smith
normal form of a random rectangular window (on odd rounds dense with small
or large entries, on even rounds up to 40x40, sparse and mostly +-1, where
unit pivots do most of the work) and checks the log replay, the
divisibility chain, the rank and the kernel basis (annihilating, and a
saturated Z-basis: its own Smith form is all ones); and it scrambles a
trivial-by-construction presentation with random Nielsen moves and verifies
the normalization certificate end to end: the inverse base change carries
each new relator back, and replaying the base change one move at a time
(`apply_move`, independent of the composed substitution that `normalize`
uses) carries each old relator to the new one.

Usage: python scripts/fuzz_reduction.py [--seed S] [--rounds N]
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "tests")  # reuse the suite's generators

from asphere import (
    Presentation,
    SparseIntMatrix,
    apply_base_change,
    apply_col_ops,
    apply_row_ops,
    exponent_matrix,
    kernel_basis,
    normalize,
    reduce_to_identity,
    smith_normal_form,
)
from asphere.intmat import mat_vec, rank
from support import (
    random_trivialish_presentation,
    random_unimodular,
    random_unit_window,
    random_window,
    replay_moves,
)


def check_snf(m: SparseIntMatrix) -> str | None:
    """Smith form, rank and kernel of `m` against each other; None when sound."""
    dense = m.to_rows()
    diag, row_log, col_log = smith_normal_form(m)
    expect = SparseIntMatrix(m.rows, m.cols, {(k, k): d for k, d in enumerate(diag, 1) if d})
    if apply_col_ops(col_log, apply_row_ops(row_log, m)) != expect:
        return f"SNF logs do not replay to the diagonal for {dense}"
    if any(d < 0 for d in diag) or any(b if a == 0 else b % a for a, b in zip(diag, diag[1:])):
        return f"SNF diagonal {diag} is not a divisibility chain for {dense}"
    r = rank(m)
    if r != sum(1 for d in diag if d):
        return f"rank {r} disagrees with SNF diagonal {diag} for {dense}"
    basis = kernel_basis(m)
    if len(basis) != m.cols - r or any(not any(v) or any(mat_vec(m, v)) for v in basis):
        return f"kernel basis {basis} is wrong for {dense}"
    if smith_normal_form(SparseIntMatrix.from_rows(basis, cols=m.cols))[0] != (1,) * len(basis):
        return f"kernel basis {basis} is not a saturated Z-basis for {dense}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1000)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.monotonic()
    op_total = 0
    for round_no in range(1, args.rounds + 1):
        n = rng.randint(1, 10)
        m = random_unimodular(rng, n, 50)
        log = reduce_to_identity(m)
        op_total += len(log)
        if not apply_row_ops(log, m).is_identity():
            print(f"FAIL round {round_no}: replay mismatch for {m.to_rows()}")
            return 1

        window = random_window(rng, 8) if round_no % 2 else random_unit_window(rng, 40)
        problem = check_snf(window)
        if problem:
            print(f"FAIL round {round_no}: {problem}")
            return 1

        p = random_trivialish_presentation(rng, rng.randint(1, 4))
        cert = normalize(p)
        rewritten = Presentation(p.n_generators, cert.new_relators)
        ok = (
            cert.exponent_check
            and exponent_matrix(rewritten).is_identity()
            and all(
                apply_base_change(cert.base_change.inverse(), new) == old
                and replay_moves(cert.base_change, old) == new
                for old, new in zip(p.relators, cert.new_relators)
            )
        )
        if not ok:
            print(f"FAIL round {round_no}: bad certificate for seed {args.seed}")
            return 1
    elapsed = time.monotonic() - start
    print(
        f"OK: {args.rounds} rounds, {op_total} reduction ops total, "
        f"{elapsed:.2f}s (seed {args.seed})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

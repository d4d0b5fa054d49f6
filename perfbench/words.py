"""Free-group words for the benchmark's own generators and checks.

A word is a list of nonzero ints: +k is the generator g<k>, -k its inverse.
This module deliberately does not import `asphere`, so that input
generation and output checking stay independent of the code under test.
"""

from __future__ import annotations

import random
import re

_TOKEN_RE = re.compile(r"g([1-9][0-9]*)(?:\^(-?[0-9]+))?")


def reduce(letters) -> list[int]:
    """Free reduction by cancelling adjacent inverse pairs."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def inverse(w: list[int]) -> list[int]:
    return [-x for x in reversed(w)]


def commutator(u: list[int], v: list[int]) -> list[int]:
    return reduce(u + v + inverse(u) + inverse(v))


def power(w: list[int], k: int) -> list[int]:
    return reduce((w if k > 0 else inverse(w)) * abs(k))


def random_word(rng: random.Random, pool: list[int], max_len: int) -> list[int]:
    """A reduced word of 1..max_len letters drawn from the generators in pool."""
    raw = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(rng.randint(1, max_len))]
    return reduce(raw)


def exponent_sum(w: list[int], k: int) -> int:
    return sum(1 if x == k else -1 for x in w if abs(x) == k)


# ---------------------------------------------------------------------------
# Nielsen moves, encoded as in the base-change log that `normalize` writes:
# ["swap", i, j], ["invert", i], ["rightmult", i, j] (g_i -> g_i g_j).


def apply_move(move, w: list[int]) -> list[int]:
    """Substitute one Nielsen move into a reduced word.

    Swap and invert permute letters compatibly with inversion, so the
    result stays reduced; right multiplication by g_j (or, for the internal
    "rightdiv", by g_j^-1) is reduced afterwards.
    """
    kind, i = move[0], move[1]
    if i not in w and -i not in w and (kind != "swap" or (move[2] not in w and -move[2] not in w)):
        return w
    if kind == "swap":
        j = move[2]
        table = {i: j, -i: -j, j: i, -j: -i}
        return [table.get(x, x) for x in w]
    if kind == "invert":
        return [-x if x == i or x == -i else x for x in w]
    if kind in ("rightmult", "rightdiv"):
        j = move[2] if kind == "rightmult" else -move[2]
        out: list[int] = []
        for x in w:
            if x == i:
                out += (i, j)
            elif x == -i:
                out += (-j, -i)
            else:
                out.append(x)
        return reduce(out)
    raise ValueError(f"unknown Nielsen move {move!r}")


def inverse_moves(moves) -> list:
    """The move sequence undoing `moves` when applied left to right.

    g_i -> g_i g_j is undone by g_i -> g_i g_j^-1, written ["rightdiv", i, j].
    """
    return [["rightdiv", m[1], m[2]] if m[0] == "rightmult" else m for m in reversed(moves)]


def random_moves(rng: random.Random, n: int, count: int) -> list:
    moves = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            moves.append(["swap", *rng.sample(range(1, n + 1), 2)])
        elif kind == 1:
            moves.append(["invert", rng.randint(1, n)])
        else:
            moves.append(["rightmult", *rng.sample(range(1, n + 1), 2)])
    return moves


def apply_moves(moves, w: list[int]) -> list[int]:
    for move in moves:
        w = apply_move(move, w)
    return w


# ---------------------------------------------------------------------------
# Text form, as the CLI reads and writes it with default generator names:
# whitespace-separated tokens `g<k>`, `g<k>^<e>`; `1` is the empty word.


def to_text(w: list[int]) -> str:
    if not w:
        return "1"
    tokens = []
    k = 0
    while k < len(w):
        x, run = w[k], 1
        while k + run < len(w) and w[k + run] == x:
            run += 1
        e = run if x > 0 else -run
        tokens.append(f"g{abs(x)}" if e == 1 else f"g{abs(x)}^{e}")
        k += run
    return " ".join(tokens)


def parse(text: str) -> list[int]:
    letters: list[int] = []
    for token in text.split():
        if token == "1":
            continue
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise ValueError(f"malformed token {token!r}")
        k, e = int(m.group(1)), int(m.group(2) or 1)
        letters += [k if e > 0 else -k] * abs(e)
    return reduce(letters)


def presentation_text(n: int, relators: list[list[int]]) -> str:
    lines = [f"gens: {n}"] + [f"rel r{j}: {to_text(r)}" for j, r in enumerate(relators, 1)]
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> tuple[int, list[list[int]]]:
    """(generator count, relators) of a presentation file with `gens: <n>`."""
    n, relators = None, []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            n = int(line[5:])
        else:
            m = re.fullmatch(r"rel\s+\w+\s*:\s*(.*)", line)
            if m is None:
                raise ValueError(f"malformed line {line!r}")
            relators.append(parse(m.group(1)))
    if n is None:
        raise ValueError("missing gens: line")
    return n, relators

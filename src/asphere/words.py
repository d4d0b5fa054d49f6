"""Words in a free group on countably indexed generators g1, g2, ...

Letters carry a 1-based generator index and a sign.  Words are kept freely
reduced at all times: every constructor reduces eagerly, so downstream code
may assume reduced form everywhere.  All values are immutable and all
operations are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union


@dataclass(frozen=True)
class Letter:
    """One generator occurrence: g<index> raised to sign (+1 or -1)."""

    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Letter":
        return Letter(self.index, -self.sign)


def _free_reduce(raw: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for letter in raw:
        if stack and stack[-1].index == letter.index and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  The empty word is the group identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Word":
        return cls(tuple(Letter(i, s) for i, s in pairs))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(l.inverse() for l in reversed(self.letters)))

    def exponent_sum(self, index: int) -> int:
        return sum(l.sign for l in self.letters if l.index == index)

    def max_index(self) -> int:
        return max((l.index for l in self.letters), default=0)

    def indices(self) -> frozenset[int]:
        return frozenset(l.index for l in self.letters)

    def __repr__(self) -> str:
        return f"Word({word_to_text(self)!r})"


# ---------------------------------------------------------------------------
# Shared text syntax: whitespace-separated tokens `g<k>`, `g<k>^-1`,
# `g<k>^<int>`; the empty word is spelled `1`.  Generator aliases may replace
# the default `g<k>` names.

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")
_DEFAULT_NAME_RE = re.compile(r"^g([1-9][0-9]*)$")


class WordSyntaxError(ValueError):
    """Malformed word token; `col` is the 1-based column of the token."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


def parse_word(text: str, names: dict[str, int] | None = None) -> Word:
    """Parse the shared word syntax into a reduced Word.

    `names` maps generator aliases to indices; without it tokens must use
    the default `g<k>` spelling.
    """
    letters: list[Letter] = []
    for m in re.finditer(r"\S+", text):
        token, col = m.group(0), m.start() + 1
        if token == "1":
            continue
        tm = _TOKEN_RE.match(token)
        if tm is None:
            raise WordSyntaxError(f"malformed word token {token!r}", col)
        base, exp_text = tm.group(1), tm.group(2)
        exponent = 1 if exp_text is None else int(exp_text)
        if names is not None:
            if base not in names:
                raise WordSyntaxError(f"unknown generator {base!r}", col)
            index = names[base]
        else:
            dm = _DEFAULT_NAME_RE.match(base)
            if dm is None:
                raise WordSyntaxError(f"unknown generator {base!r}", col)
            index = int(dm.group(1))
        sign = 1 if exponent > 0 else -1
        letters.extend(Letter(index, sign) for _ in range(abs(exponent)))
    return Word(tuple(letters))


def word_to_text(w: Word, names: Sequence[str] | None = None) -> str:
    """Render a word in the shared syntax, collapsing runs into powers."""
    if not w:
        return "1"

    def name(index: int) -> str:
        return names[index - 1] if names is not None else f"g{index}"

    tokens: list[str] = []
    run_letter: Letter | None = None
    run = 0
    for letter in list(w.letters) + [None]:  # type: ignore[list-item]
        if letter is not None and run_letter is not None and letter == run_letter:
            run += 1
            continue
        if run_letter is not None:
            exponent = run * run_letter.sign
            if exponent == 1:
                tokens.append(name(run_letter.index))
            else:
                tokens.append(f"{name(run_letter.index)}^{exponent}")
        run_letter, run = letter, 1
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# Nielsen transformations and base changes.


@dataclass(frozen=True)
class Swap:
    """Exchange the generators g<i> and g<j>."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ValueError("generator indices must be >= 1")


@dataclass(frozen=True)
class Invert:
    """Replace g<i> by its inverse."""

    i: int

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError("generator index must be >= 1")


@dataclass(frozen=True)
class RightMultiply:
    """Replace g<i> by g<i> g<j>, with i != j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ValueError("generator indices must be >= 1")
        if self.i == self.j:
            raise ValueError("RightMultiply requires distinct indices")


NielsenMove = Union[Swap, Invert, RightMultiply]


def apply_move(move: NielsenMove, w: Word) -> Word:
    """Apply the substitution induced by one Nielsen move, then reduce."""
    out: list[Letter] = []
    if isinstance(move, Swap):
        for l in w:
            if l.index == move.i:
                out.append(Letter(move.j, l.sign))
            elif l.index == move.j:
                out.append(Letter(move.i, l.sign))
            else:
                out.append(l)
    elif isinstance(move, Invert):
        for l in w:
            out.append(Letter(l.index, -l.sign) if l.index == move.i else l)
    elif isinstance(move, RightMultiply):
        for l in w:
            if l.index == move.i and l.sign == 1:
                out.extend((Letter(move.i, 1), Letter(move.j, 1)))
            elif l.index == move.i and l.sign == -1:
                out.extend((Letter(move.j, -1), Letter(move.i, -1)))
            else:
                out.append(l)
    else:  # pragma: no cover - exhaustive by construction
        raise TypeError(f"not a Nielsen move: {move!r}")
    return Word(tuple(out))


def move_inverse(move: NielsenMove) -> tuple[NielsenMove, ...]:
    """The move sequence undoing `move` (applied left to right)."""
    if isinstance(move, (Swap, Invert)):
        return (move,)
    # x_i -> x_i x_j is undone by x_i -> x_i x_j^-1.
    return (Invert(move.j), RightMultiply(move.i, move.j), Invert(move.j))


@dataclass(frozen=True)
class BaseChange:
    """A finite, invertible sequence of Nielsen moves."""

    moves: tuple[NielsenMove, ...] = ()

    def inverse(self) -> "BaseChange":
        inverted: list[NielsenMove] = []
        for move in reversed(self.moves):
            inverted.extend(move_inverse(move))
        return BaseChange(tuple(inverted))

    def __len__(self) -> int:
        return len(self.moves)


def apply_base_change(bc: BaseChange, w: Word) -> Word:
    """Apply the moves of `bc` left to right."""
    for move in bc.moves:
        w = apply_move(move, w)
    return w

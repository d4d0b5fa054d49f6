"""Words in a free group on countably indexed generators g1, g2, ...

A letter is a nonzero int: +k is g<k> and -k its inverse.  Words are kept
freely reduced at all times: every constructor reduces eagerly, so
downstream code may assume reduced form everywhere.  All values are
immutable and all operations are pure.  Each word computes its largest
generator index once, cached outside the fields that == and hash see.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain, groupby
from typing import Iterable, Iterator, Mapping, Sequence, Union

from ._record import Record


def _free_reduce(raw: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in raw:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word(Record):
    """A freely reduced word.  The empty word is the group identity."""

    __match_args__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        if 0 in letters:
            raise ValueError("a letter must be a nonzero int")
        self.__dict__["letters"] = _free_reduce(letters)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Word":
        """The word of (index, sign) pairs: index >= 1, sign +1 or -1."""
        letters = []
        for index, sign in pairs:
            if index < 1:
                raise ValueError(f"generator index must be >= 1, got {index}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
            letters.append(index * sign)
        return cls(tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def exponent_sum(self, index: int) -> int:
        return self.letters.count(index) - self.letters.count(-index)

    def exponent_sums(self) -> dict[int, int]:
        """Generator index -> its exponent sum, nonzero sums only, in one pass."""
        sums: dict[int, int] = {}
        for x in self.letters:
            if x > 0:
                sums[x] = sums.get(x, 0) + 1
            else:
                sums[-x] = sums.get(-x, 0) - 1
        return {i: v for i, v in sums.items() if v}

    @cached_property
    def _max_index(self) -> int:
        return max(map(abs, self.letters), default=0)

    def max_index(self) -> int:
        return self._max_index

    def indices(self) -> frozenset[int]:
        return frozenset(map(abs, self.letters))

    def rename(self, index_of: Mapping[int, int]) -> "Word":
        """Replace each g<k> by g<index_of[k]>; KeyError if k is unmapped."""
        return Word(tuple(index_of[x] if x > 0 else -index_of[-x] for x in self.letters))

    def __repr__(self) -> str:
        return f"Word({word_to_text(self)!r})"


# ---------------------------------------------------------------------------
# Shared text syntax: whitespace-separated tokens `g<k>`, `g<k>^-1`,
# `g<k>^<int>`; the empty word is spelled `1`.  Generator aliases may replace
# the default `g<k>` names.

MAX_LETTERS = 1_000_000  # in one presentation, or one parsed word, once powers expand

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")
_DEFAULT_NAME_RE = re.compile(r"^g([1-9][0-9]*)$")


class WordSyntaxError(ValueError):
    """Malformed word token; `col` is the 1-based column of the token."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


def _token_letters(token: str, names: dict[str, int] | None, col: int, room: int) -> list[int]:
    """A token's letters; a power of more than `room` raises unexpanded."""
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
    if abs(exponent) > room:
        raise WordSyntaxError(f"more than {MAX_LETTERS} letters after expanding powers", col)
    return [index if exponent > 0 else -index] * abs(exponent)


def _parse_word(text: str, names: dict[str, int] | None, runs: dict[str, list[int]], used: int = 0) -> tuple[Word, int]:
    """`parse_word` with a token memo `runs` that words with one `names`
    share, after `used` letters of earlier words; returns the word and the
    running count, which must stay within MAX_LETTERS."""
    room = MAX_LETTERS - used
    letters: list[int] = []
    for m in re.finditer(r"\S+", text):
        token = m.group(0)
        run = runs.get(token)
        if run is None or len(run) > room:  # a memo run past the room raises here
            run = runs[token] = _token_letters(token, names, m.start() + 1, room)
        room -= len(run)
        letters += run
    return Word(tuple(letters)), MAX_LETTERS - room


def parse_word(text: str, names: dict[str, int] | None = None) -> Word:
    """Parse the shared word syntax into a reduced Word.

    `names` maps generator aliases to indices; without it tokens must use
    the default `g<k>` spelling.
    """
    return _parse_word(text, names, {"1": []})[0]


def word_to_text(w: Word, names: Sequence[str] | None = None) -> str:
    """Render a word in the shared syntax, collapsing runs into powers."""
    if not w:
        return "1"
    tokens: list[str] = []
    for x, run in groupby(w.letters):
        name = names[abs(x) - 1] if names is not None else f"g{abs(x)}"
        n = len(list(run))
        tokens.append(name if x > 0 and n == 1 else f"{name}^{n if x > 0 else -n}")
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# Nielsen transformations and base changes.


class Swap(Record):
    """Exchange the generators g<i> and g<j>."""

    __match_args__ = ("i", "j")

    def __init__(self, i: int, j: int) -> None:
        if i < 1 or j < 1:
            raise ValueError("generator indices must be >= 1")
        self.__dict__.update(i=i, j=j)


class Invert(Record):
    """Replace g<i> by its inverse."""

    __match_args__ = ("i",)

    def __init__(self, i: int) -> None:
        if i < 1:
            raise ValueError("generator index must be >= 1")
        self.__dict__["i"] = i


class RightMultiply(Record):
    """Replace g<i> by g<i> g<j>, with i != j."""

    __match_args__ = ("i", "j")

    def __init__(self, i: int, j: int) -> None:
        if i < 1 or j < 1:
            raise ValueError("generator indices must be >= 1")
        if i == j:
            raise ValueError("RightMultiply requires distinct indices")
        self.__dict__.update(i=i, j=j)


NielsenMove = Union[Swap, Invert, RightMultiply]


def apply_move(move: NielsenMove, w: Word) -> Word:
    """Apply the substitution induced by one Nielsen move, then reduce."""
    if isinstance(move, Swap):
        i, j = move.i, move.j
        sub = {i: (j,), -i: (-j,), j: (i,), -j: (-i,)}
    elif isinstance(move, Invert):
        i = move.i
        sub = {i: (-i,), -i: (i,)}
    elif isinstance(move, RightMultiply):
        i, j = move.i, move.j
        sub = {i: (i, j), -i: (-j, -i)}
    else:  # pragma: no cover - exhaustive by construction
        raise TypeError(f"not a Nielsen move: {move!r}")
    image = {x: (x,) for x in set(w.letters)} | sub
    return Word(tuple(chain.from_iterable(map(image.__getitem__, w.letters))))


def move_inverse(move: NielsenMove) -> tuple[NielsenMove, ...]:
    """The move sequence undoing `move` (applied left to right)."""
    if isinstance(move, (Swap, Invert)):
        return (move,)
    # x_i -> x_i x_j is undone by x_i -> x_i x_j^-1.
    return (Invert(move.j), RightMultiply(move.i, move.j), Invert(move.j))


class BaseChange(Record):
    """A finite, invertible sequence of Nielsen moves."""

    __match_args__ = ("moves",)

    def __init__(self, moves: tuple[NielsenMove, ...] = ()) -> None:
        self.__dict__["moves"] = moves

    def inverse(self) -> "BaseChange":
        inverted: list[NielsenMove] = []
        for move in reversed(self.moves):
            inverted.extend(move_inverse(move))
        return BaseChange(tuple(inverted))

    def __len__(self) -> int:
        return len(self.moves)

    @cached_property
    def _images(self) -> dict[int, tuple[int, ...]]:
        """Letter -> reduced image under all the moves, built from the last
        move back; cached outside the fields, so == and hash see `moves`."""
        img: dict[int, tuple[int, ...]] = {}
        for m in reversed(self.moves):
            if isinstance(m, Swap):
                img[m.i], img[m.j] = img.get(m.j, (m.j,)), img.get(m.i, (m.i,))
            elif isinstance(m, Invert):
                img[m.i] = tuple(-x for x in reversed(img.get(m.i, (m.i,))))
            else:
                img[m.i] = _free_reduce(img.get(m.i, (m.i,)) + img.get(m.j, (m.j,)))
        return img | {-i: tuple(-x for x in reversed(v)) for i, v in img.items()}


def apply_base_change(bc: BaseChange, w: Word) -> Word:
    """Apply the moves of `bc` left to right, as one substitution through
    the generator images composed once per base change.  This equals the
    move-by-move replay: both reduce the same free group element, whose
    reduced word is unique."""
    image = {x: (x,) for x in set(w.letters)} | bc._images
    return Word(tuple(chain.from_iterable(map(image.__getitem__, w.letters))))

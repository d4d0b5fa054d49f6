"""Group presentations on a finite generator window: exponent matrices,
local finiteness, the homology-trivial unit predicate, and normalization of
unimodular windows by lifted Nielsen base changes."""

from __future__ import annotations

import re
from collections import Counter
from typing import AbstractSet, Iterable, Sequence

from ._record import Record
from .intmat import (
    ElementaryOp,
    NegateRow,
    RowOpLog,
    SparseIntMatrix,
    SwapRows,
    reduce_to_identity,
)
from .words import (
    BaseChange,
    Invert,
    NielsenMove,
    RightMultiply,
    Swap,
    Word,
    WordSyntaxError,
    _parse_word,
    apply_base_change,
    word_to_text,
)


class WindowMismatch(Exception):
    """Relator count and generator count disagree on the window."""


class DanglingRelator(ValueError):
    """A selected relator uses an unselected generator."""


class Presentation(Record):
    """Generators 1..n_generators plus an ordered relator list."""

    __match_args__ = ("n_generators", "relators")

    def __init__(self, n_generators: int, relators: tuple[Word, ...] = ()) -> None:
        if n_generators < 0:
            raise ValueError("generator count must be nonnegative")
        relators = tuple(relators)
        for j, r in enumerate(relators, start=1):
            if r.max_index() > n_generators:
                raise ValueError(f"relator {j} uses generator {r.max_index()} beyond window of {n_generators}")
        self.__dict__.update(n_generators=n_generators, relators=relators)

    @property
    def balanced(self) -> bool:
        return len(self.relators) == self.n_generators


def exponent_matrix(p: Presentation) -> SparseIntMatrix:
    """Entry (i, j) = exponent sum of generator i in relator j."""
    entries: dict[tuple[int, int], int] = {}
    for j, r in enumerate(p.relators, start=1):
        for i, v in r.exponent_sums().items():
            entries[(i, j)] = v
    return SparseIntMatrix(p.n_generators, len(p.relators), entries)


def exponent_vector(w: Word, n: int) -> tuple[int, ...]:
    """Abelianization of `w` on the window of n generators."""
    return tuple(w.exponent_sum(i) for i in range(1, n + 1))


def is_locally_finite(p: Presentation) -> tuple[bool, int]:
    """Any finite window is locally finite; the witness is the largest
    number of relators any one generator appears in."""
    counts = Counter(i for r in p.relators for i in r.indices())
    return True, max(counts.values(), default=0)


def is_homology_trivial_unit(p: Presentation) -> bool:
    """True iff the exponent matrix is the identity on the window.

    This certifies the homology half of the definition only; triviality of
    the presented group is an undecidable hypothesis taken on trust by the
    callers that need it.
    """
    if len(p.relators) != p.n_generators:
        raise WindowMismatch(f"{len(p.relators)} relators vs {p.n_generators} generators")
    return exponent_matrix(p).is_identity()


def subpresentation(p: Presentation, gens: Iterable[int], rels: Iterable[int]) -> Presentation:
    """Sub-presentation on selected generator/relator indices, re-indexed.

    Selected generators are renumbered 1..k in increasing order; raises
    DanglingRelator when a selected relator uses an unselected generator.
    """
    gen_set = sorted(set(gens))
    rel_set = sorted(set(rels))
    for i in gen_set:
        if not 1 <= i <= p.n_generators:
            raise ValueError(f"generator index {i} outside window")
    for j in rel_set:
        if not 1 <= j <= len(p.relators):
            raise ValueError(f"relator index {j} outside window")
    renumber = {old: new for new, old in enumerate(gen_set, start=1)}
    _check_closed(p, renumber.keys(), rel_set)
    new_relators = tuple(p.relators[j - 1].rename(renumber) for j in rel_set)
    return Presentation(len(gen_set), new_relators)


def _check_closed(p: Presentation, gens: AbstractSet[int], rels: Iterable[int]) -> None:
    """Raise DanglingRelator for the first selected relator, by index, that
    uses a generator outside `gens`; indices must lie in the window."""
    for j in sorted(rels):
        missing = p.relators[j - 1].indices() - gens
        if missing:
            raise DanglingRelator(f"relator {j} uses unselected generator {min(missing)}")


# ---------------------------------------------------------------------------
# Normalization: lift the row-operation log of the integer reduction to a
# Nielsen base change and rewrite the relators.


def lift_row_op(op: ElementaryOp) -> tuple[NielsenMove, ...]:
    """Nielsen moves whose induced action on exponent vectors equals `op`."""
    if isinstance(op, SwapRows):
        return (Swap(op.i, op.j),)
    if isinstance(op, NegateRow):
        return (Invert(op.i),)
    if op.coeff >= 0:
        return (RightMultiply(op.source, op.target),) * op.coeff
    return (
        (Invert(op.target),)
        + (RightMultiply(op.source, op.target),) * (-op.coeff)
        + (Invert(op.target),)
    )


def lift_row_ops(log: RowOpLog) -> BaseChange:
    moves: list[NielsenMove] = []
    for op in log:
        moves.extend(lift_row_op(op))
    return BaseChange(tuple(moves))


class NormalizationCertificate(Record):
    """Invertible base change carrying a presentation to identity exponents."""

    __match_args__ = ("base_change", "new_relators", "exponent_check")

    def __init__(self, base_change: BaseChange, new_relators: tuple[Word, ...], exponent_check: bool) -> None:
        self.__dict__.update(base_change=base_change, new_relators=new_relators, exponent_check=exponent_check)


def normalize(p: Presentation) -> NormalizationCertificate:
    """Rewrite the relators by a lifted base change so the exponent matrix
    becomes the identity on the window.

    Raises NotUnimodular (from the integer reduction) when the exponent
    matrix is not invertible over the integers; such a window cannot come
    from a contractible complex.
    """
    log = reduce_to_identity(exponent_matrix(p))
    base_change = lift_row_ops(log)
    new_relators = tuple(apply_base_change(base_change, r) for r in p.relators)
    rewritten = Presentation(p.n_generators, new_relators)
    check = exponent_matrix(rewritten).is_identity()
    return NormalizationCertificate(base_change, new_relators, check)


# ---------------------------------------------------------------------------
# Text format.
#
# Text grammar, one item per line:
#   gens: <count>          or   gens: name1 name2 ...
#   rel <name>: <word>     with the shared word syntax
#   # comment to end of line; blank lines ignored.


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ParsedPresentation(Record):
    __match_args__ = ("presentation", "gen_names", "rel_names")

    def __init__(
        self, presentation: Presentation, gen_names: tuple[str, ...] | None, rel_names: tuple[str, ...]
    ) -> None:
        self.__dict__.update(presentation=presentation, gen_names=gen_names, rel_names=rel_names)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
MAX_GENERATORS = 10_000  # on a gens: line; `words.MAX_LETTERS` bounds the letters


def parse_presentation_text(text: str) -> ParsedPresentation:
    gen_names: tuple[str, ...] | None = None
    n_generators: int | None = None
    relators: list[Word] = []
    rel_names: list[str] = []
    names_map: dict[str, int] | None = None
    runs: dict[str, list[int]] = {"1": []}  # each distinct token is parsed once
    letters = 0

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("gens:"):
            if n_generators is not None:
                raise ParseError("duplicate gens: line", lineno, indent)
            body = stripped[len("gens:"):].strip()
            tokens = body.split()
            if not tokens:
                raise ParseError("gens: needs a count or name list", lineno, indent)
            if len(tokens) == 1 and tokens[0].isdigit():
                n_generators = int(tokens[0])
            else:
                for tok in tokens:
                    if not _NAME_RE.match(tok):
                        raise ParseError(f"bad generator name {tok!r}", lineno, indent)
                if len(set(tokens)) != len(tokens):
                    raise ParseError("duplicate generator name", lineno, indent)
                gen_names = tuple(tokens)
                n_generators = len(tokens)
                names_map = {name: i for i, name in enumerate(tokens, start=1)}
            if n_generators > MAX_GENERATORS:
                raise ParseError(f"more than {MAX_GENERATORS} generators", lineno, indent)
        elif stripped.startswith("rel"):
            if n_generators is None:
                raise ParseError("rel before gens: line", lineno, indent)
            m = re.match(r"^rel\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$", stripped)
            if m is None:
                raise ParseError("malformed rel line", lineno, indent)
            name, word_text = m.group(1), m.group(2)
            word_start = indent - 1 + m.start(2)  # 0-based, in `line`
            try:
                word, letters = _parse_word(word_text, names_map, runs, letters)
            except WordSyntaxError as exc:
                raise ParseError(str(exc), lineno, word_start + exc.col) from exc
            if word.max_index() > n_generators:
                raise ParseError(
                    f"relator uses generator g{word.max_index()} beyond window",
                    lineno,
                    word_start + 1,
                )
            rel_names.append(name)
            relators.append(word)
        else:
            raise ParseError(f"unrecognized line {stripped.split()[0]!r}", lineno, indent)

    if n_generators is None:
        raise ParseError("missing gens: line", 1, 1)
    return ParsedPresentation(Presentation(n_generators, relators), gen_names, tuple(rel_names))


def presentation_to_text(
    p: Presentation,
    gen_names: Sequence[str] | None = None,
    rel_names: Sequence[str] | None = None,
) -> str:
    lines = []
    if gen_names is not None:
        lines.append("gens: " + " ".join(gen_names))
    else:
        lines.append(f"gens: {p.n_generators}")
    for j, r in enumerate(p.relators, start=1):
        name = rel_names[j - 1] if rel_names is not None else f"r{j}"
        lines.append(f"rel {name}: {word_to_text(r, gen_names)}")
    return "\n".join(lines) + "\n"

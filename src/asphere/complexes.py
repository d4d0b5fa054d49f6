"""CW 2-complexes of presentations: cellular chain complexes, homology,
the subcomplex lattice, and the collar telescope over a finite filtration."""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import SparseIntMatrix, rank, smith_normal_form
from .presentations import Presentation, _check_closed, exponent_matrix, subpresentation
from .words import Word


@dataclass(frozen=True)
class TwoComplex:
    """Vertices 1..n, oriented edges, and 2-cells given by attaching words.

    Attaching-word letters index edges; each nonempty word must trace a
    closed edge path.  A presentation complex has one vertex, one loop per
    generator, and one face per relator.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("a complex needs at least one vertex")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "faces", tuple(self.faces))
        for s, t in self.edges:
            if not (1 <= s <= self.n_vertices and 1 <= t <= self.n_vertices):
                raise ValueError(f"edge ({s},{t}) references a missing vertex")
        for k, w in enumerate(self.faces, start=1):
            if w.max_index() > len(self.edges):
                raise ValueError(f"face {k} references a missing edge")
            # With one vertex every edge is a loop, so every word is closed.
            if self.n_vertices > 1:
                self._check_closed_path(k, w)

    def _check_closed_path(self, k: int, w: Word) -> None:
        start: int | None = None
        cur: int | None = None
        for x in w:
            s, t = self.edges[abs(x) - 1]
            a, b = (s, t) if x > 0 else (t, s)
            if cur is None:
                start = a
            elif cur != a:
                raise ValueError(f"face {k} attaching word is not an edge path")
            cur = b
        if cur is not None and cur != start:
            raise ValueError(f"face {k} attaching word is not a closed path")

    @property
    def chi(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.faces)


def from_presentation(p: Presentation) -> TwoComplex:
    """One-vertex complex: a loop per generator, a face per relator."""
    edges = tuple((1, 1) for _ in range(p.n_generators))
    return TwoComplex(1, edges, p.relators)


def chain_complex(c: TwoComplex) -> tuple[SparseIntMatrix, SparseIntMatrix]:
    """Cellular boundary maps (d2, d1); d1 . d2 = 0."""
    d1_entries: dict[tuple[int, int], int] = {}
    for j, (s, t) in enumerate(c.edges, start=1):
        if s != t:  # a loop bounds nothing
            d1_entries[(t, j)] = 1
            d1_entries[(s, j)] = -1
    d1 = SparseIntMatrix(c.n_vertices, len(c.edges), d1_entries)
    d2 = exponent_matrix(Presentation(len(c.edges), c.faces))
    return d2, d1


@dataclass(frozen=True)
class HomologyReport:
    h0: int
    h1_rank: int
    h1_torsion: tuple[int, ...]
    h2: int
    chi: int

    @property
    def homologically_contractible(self) -> bool:
        """H0 = Z, H1 = 0 (rank and torsion), H2 = 0: the computable shadow
        of contractibility."""
        return self.h0 == 1 and self.h1_rank == 0 and not self.h1_torsion and self.h2 == 0

    def to_json(self) -> dict:
        return {
            "H0": self.h0,
            "H1": {"rank": self.h1_rank, "torsion": list(self.h1_torsion)},
            "H2": self.h2,
            "chi": self.chi,
        }


def homology(c: TwoComplex) -> HomologyReport:
    """Integral homology via Smith normal forms of the boundary maps."""
    d2, d1 = chain_complex(c)
    r1 = rank(d1)
    diag2, _, _ = smith_normal_form(d2)
    r2 = sum(1 for d in diag2 if d)
    h0 = c.n_vertices - r1
    h1_rank = len(c.edges) - r1 - r2
    h1_torsion = tuple(d for d in diag2 if d > 1)
    h2 = len(c.faces) - r2
    return HomologyReport(h0, h1_rank, h1_torsion, h2, c.chi)


def is_homologically_contractible(c: TwoComplex) -> bool:
    """Whether the homology of `c` is that of a point."""
    return homology(c).homologically_contractible


# ---------------------------------------------------------------------------
# Subcomplexes of a presentation complex, as generator/relator selections.


@dataclass(frozen=True)
class SubcomplexSpec:
    """Generator and relator index sets inside an ambient presentation."""

    gens: frozenset[int]
    rels: frozenset[int]
    ambient_gens: int
    ambient_rels: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gens", frozenset(self.gens))
        object.__setattr__(self, "rels", frozenset(self.rels))
        for i in self.gens:
            if not 1 <= i <= self.ambient_gens:
                raise ValueError(f"generator index {i} outside ambient window")
        for j in self.rels:
            if not 1 <= j <= self.ambient_rels:
                raise ValueError(f"relator index {j} outside ambient window")

    @property
    def is_1_full(self) -> bool:
        return len(self.gens) == self.ambient_gens


def full_spec(p: Presentation) -> SubcomplexSpec:
    return SubcomplexSpec(
        frozenset(range(1, p.n_generators + 1)),
        frozenset(range(1, len(p.relators) + 1)),
        p.n_generators,
        len(p.relators),
    )


def onefull_hull(s: SubcomplexSpec) -> SubcomplexSpec:
    """Extend the generator set to the whole 1-skeleton, keeping relators."""
    return SubcomplexSpec(
        frozenset(range(1, s.ambient_gens + 1)), s.rels, s.ambient_gens, s.ambient_rels
    )


def subcomplex_presentation(p: Presentation, s: SubcomplexSpec) -> Presentation:
    return subpresentation(p, s.gens, s.rels)


def subcomplex_complex(p: Presentation, s: SubcomplexSpec) -> TwoComplex:
    return from_presentation(subcomplex_presentation(p, s))


# ---------------------------------------------------------------------------
# The telescope of a finite filtration.  Each stage difference J_i is taken
# as the full fresh 1-skeleton of stage i plus the newly added faces, so the
# overlap with the previous stage is always the previous 1-skeleton (a
# graph) based at a single vertex.  A product collar, one rectangle per
# shared edge triangulated by a diagonal from (source, 0) to (target, 1),
# joins the previous gluing copy to the fresh one.


@dataclass(frozen=True)
class Filtration:
    """Increasing chain of subcomplexes of a presentation complex, ending
    at the whole complex.  A stage whose relators use a generator outside
    it raises DanglingRelator, checked on the index sets alone."""

    base: Presentation
    stages: tuple[SubcomplexSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("a filtration needs at least one stage")
        for s in self.stages:
            if s.ambient_gens != self.base.n_generators or s.ambient_rels != len(
                self.base.relators
            ):
                raise ValueError("stage ambient window does not match the base")
            _check_closed(self.base, s.gens, s.rels)
        for prev, cur in zip(self.stages, self.stages[1:]):
            if not (prev.gens <= cur.gens and prev.rels <= cur.rels):
                raise ValueError("filtration stages must be increasing")
        final = self.stages[-1]
        if not (final.is_1_full and len(final.rels) == len(self.base.relators)):
            raise ValueError("the final stage must be the whole complex")


def telescope(f: Filtration) -> TwoComplex:
    """Glue successive stages along triangulated product collars.

    The result contains stage 0 as a literal leading subcomplex (its cells
    are the first cells in each dimension) and has the homology of the
    final stage.
    """
    base = f.base
    first = f.stages[0]

    n_vertices = 1
    edges: list[tuple[int, int]] = []
    faces: list[Word] = []

    cur_copy: dict[int, int] = {}
    for g in sorted(first.gens):
        edges.append((1, 1))
        cur_copy[g] = len(edges)
    for j in sorted(first.rels):
        faces.append(base.relators[j - 1].rename(cur_copy))
    cur_vertex = 1
    prev = first

    for stage in f.stages[1:]:
        new_rels = sorted(stage.rels - prev.rels)
        if not new_rels and not (stage.gens - prev.gens):
            prev = stage
            continue

        n_vertices += 1
        v_new = n_vertices
        new_copy: dict[int, int] = {}
        for g in sorted(stage.gens):
            edges.append((v_new, v_new))
            new_copy[g] = len(edges)

        edges.append((cur_vertex, v_new))
        vertical = len(edges)
        for g in sorted(prev.gens):
            edges.append((cur_vertex, v_new))
            diagonal = len(edges)
            e_old, e_new = cur_copy[g], new_copy[g]
            faces.append(Word((e_old, vertical, -diagonal)))
            faces.append(Word((vertical, e_new, -diagonal)))

        for j in new_rels:
            faces.append(base.relators[j - 1].rename(new_copy))

        cur_copy, cur_vertex, prev = new_copy, v_new, stage

    return TwoComplex(n_vertices, tuple(edges), tuple(faces))

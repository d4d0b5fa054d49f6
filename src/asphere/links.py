"""Symbolic surgery codes for ribbon sphere/disk-links.

A surgery code keeps one handle per generator and one loop word per
relator, normalized so that the exponent sum of generator i in component j
is the Kronecker delta.  Sublink filling adds the meridian words of the
filled components as relators of the free exterior group, and selections
correspond bijectively to 1-full subcomplexes.  The homology of an exterior
is read off the code rather than computed: the Kronecker-delta exponent sums
make its second boundary map the identity columns of the fill (see
`exterior_homology`).
"""

from __future__ import annotations

from ._record import Record
from .complexes import HomologyReport, SubcomplexSpec
from .presentations import Presentation
from .words import Word


class NotHomologyTrivialUnit(Exception):
    """The presentation fails the identity-exponent normalization."""


class BadSelection(ValueError):
    """A sublink selection references a missing component."""


class NotOneFull(Exception):
    """The subcomplex does not contain the whole 1-skeleton."""


class SurgeryCode(Record):
    """One handle per generator; one component loop word per relator."""

    __match_args__ = ("n_handles", "components")

    def __init__(self, n_handles: int, components: tuple[Word, ...]) -> None:
        components = tuple(components)
        if len(components) != n_handles:
            raise ValueError(f"{len(components)} components vs {n_handles} handles")
        for j, k in enumerate(components, start=1):
            if k.max_index() > n_handles:
                raise ValueError(f"component {j} touches a missing handle")
            sums = k.exponent_sums()
            for i in k.indices() | {j}:
                want = 1 if i == j else 0
                if sums.get(i, 0) != want:
                    raise ValueError(
                        f"component {j} has intersection number "
                        f"{sums.get(i, 0)} with handle {i}, expected {want}"
                    )
        self.__dict__.update(n_handles=n_handles, components=components)


class SublinkSelection(Record):
    """The component indices whose disk bundles are glued back."""

    __match_args__ = ("fill",)

    def __init__(self, fill: frozenset[int]) -> None:
        self.__dict__["fill"] = frozenset(fill)


def build_surgery_code(p: Presentation) -> SurgeryCode:
    """Realize a homology-trivial unit-group presentation as a surgery code.

    Component j is the relator word r_j verbatim; the identity exponent
    matrix is exactly the intersection-number normalization, so the one
    check is `SurgeryCode`'s, and its failure is NotHomologyTrivialUnit.
    """
    try:
        return SurgeryCode(p.n_generators, p.relators)
    except ValueError as exc:
        raise NotHomologyTrivialUnit(str(exc)) from exc


def _check_fill(fill: frozenset[int], n_components: int) -> None:
    for j in fill:
        if not 1 <= j <= n_components:
            raise BadSelection(f"component index {j} outside 1..{n_components}")


def exterior(sc: SurgeryCode, sel: SublinkSelection) -> Presentation:
    """Fill the selected components: their meridian words become relators.

    The empty selection gives the free group of rank n; the full selection
    returns the original presentation.  One range test on the sorted fill
    guards it; `_check_fill` runs only to name a bad index.
    """
    fill = sorted(sel.fill)
    if fill and (fill[0] < 1 or fill[-1] > len(sc.components)):
        _check_fill(sel.fill, len(sc.components))
    return Presentation(sc.n_handles, tuple(sc.components[j - 1] for j in fill))


def exterior_homology(sc: SurgeryCode, sel: SublinkSelection) -> HomologyReport:
    """Integral homology of the exterior, read off the code without a Smith form.

    The exterior's presentation complex has one vertex, n = `sc.n_handles`
    edges and one face per filled component.  Its d1 is zero, and column j
    of its d2 lists the exponent sums of component j, which `SurgeryCode`
    checks to be the Kronecker delta: d2 is the identity columns of the
    fill F.  So H0 = Z, H1 = Z^(n - |F|) with no torsion, H2 = ker d2 = 0
    and chi = 1 - n + |F|, exactly what `homology(from_presentation(
    exterior(sc, sel)))` returns.
    """
    _check_fill(sel.fill, len(sc.components))
    n, f = sc.n_handles, len(sel.fill)
    return HomologyReport(1, n - f, (), 0, 1 - n + f)


def subcomplex_to_sublink(s: SubcomplexSpec) -> SublinkSelection:
    """The unique sublink matching a 1-full subcomplex: fill = its relators."""
    if not s.is_1_full:
        raise NotOneFull(f"{len(s.gens)} of {s.ambient_gens} generators selected; take the 1-full hull first")
    return SublinkSelection(s.rels)


def sublink_to_subcomplex(sel: SublinkSelection, n_generators: int, n_components: int) -> SubcomplexSpec:
    """Inverse transport: the 1-full subcomplex whose relators are the fill."""
    _check_fill(sel.fill, n_components)
    return SubcomplexSpec(range(1, n_generators + 1), sel.fill, n_generators, n_components)


def verify_meridian_correspondence(sc: SurgeryCode, p: Presentation) -> bool:
    """Component loop words equal relator words index by index (as reduced
    words)."""
    if len(sc.components) != len(p.relators):
        return False
    return all(k == r for k, r in zip(sc.components, p.relators))

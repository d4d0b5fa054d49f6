"""Workbench for group presentations, 2-complexes, and ribbon-link models."""

__version__ = "0.1.0"

from .words import (
    BaseChange,
    Invert,
    RightMultiply,
    Swap,
    Word,
    apply_base_change,
    apply_move,
    parse_word,
    word_to_text,
)
from .intmat import (
    AddMultiple,
    NegateRow,
    NotUnimodular,
    RowOpLog,
    SparseIntMatrix,
    SwapRows,
    apply_col_ops,
    apply_row_ops,
    kernel_basis,
    reduce_to_identity,
    smith_normal_form,
)
from .presentations import (
    DanglingRelator,
    NormalizationCertificate,
    ParseError,
    Presentation,
    WindowMismatch,
    exponent_matrix,
    is_homology_trivial_unit,
    is_locally_finite,
    normalize,
    parse_presentation_text,
    subpresentation,
)
from .complexes import (
    Filtration,
    SubcomplexSpec,
    TwoComplex,
    chain_complex,
    from_presentation,
    homology,
    is_homologically_contractible,
    onefull_hull,
    telescope,
)
from .links import (
    BadSelection,
    NotHomologyTrivialUnit,
    NotOneFull,
    SublinkSelection,
    SurgeryCode,
    build_surgery_code,
    exterior,
    exterior_homology,
    subcomplex_to_sublink,
    sublink_to_subcomplex,
    verify_meridian_correspondence,
)
from .probe import (
    CosetTable,
    IncompleteTable,
    Verdict,
    asphericity_verdict,
    coset_enumerate,
    fox_derivative,
    lifted_boundary,
)

"""What every `Record` promises: immutable fields, equality on the class and
the field tuple, the field tuple's hash, the `Name(field=value, ...)` repr,
`__match_args__` naming the `__init__` parameters, and keyword
construction.  The classes are collected from the package's modules, so a
new one fails here until it has a sample."""

import importlib
import inspect
import pkgutil

import pytest

import asphere
from asphere._record import Record
from asphere.complexes import Filtration, HomologyReport, SubcomplexSpec, TwoComplex
from asphere.intmat import (
    AddMultiple,
    IndexOutOfWindow,
    NegateRow,
    RowOpLog,
    SparseIntMatrix,
    SwapRows,
    apply_col_ops,
    apply_row_ops,
)
from asphere.links import SublinkSelection, SurgeryCode
from asphere.presentations import NormalizationCertificate, ParsedPresentation, Presentation
from asphere.probe import CosetTable, Verdict
from asphere.words import BaseChange, Invert, RightMultiply, Swap, Word

RECORDS = sorted(
    {
        cls
        for info in pkgutil.iter_modules(asphere.__path__)
        for cls in vars(importlib.import_module(f"asphere.{info.name}")).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
    },
    key=lambda cls: cls.__qualname__,
)

ONE = Presentation(1, (Word((1,)),))
SAMPLES = {
    Word: lambda: Word((1, -2)),
    Swap: lambda: Swap(1, 2),
    Invert: lambda: Invert(1),
    RightMultiply: lambda: RightMultiply(1, 2),
    BaseChange: lambda: BaseChange((Swap(1, 2), Invert(1))),
    SparseIntMatrix: lambda: SparseIntMatrix(2, 2, {(1, 2): 3}),
    SwapRows: lambda: SwapRows(1, 2),
    NegateRow: lambda: NegateRow(1),
    AddMultiple: lambda: AddMultiple(1, 2, -3),
    RowOpLog: lambda: RowOpLog((SwapRows(1, 2), NegateRow(1))),
    Presentation: lambda: Presentation(2, (Word((1,)), Word((2,)))),
    NormalizationCertificate: lambda: NormalizationCertificate(BaseChange(), (Word((1,)),), True),
    ParsedPresentation: lambda: ParsedPresentation(ONE, ("x",), ("r",)),
    TwoComplex: lambda: TwoComplex(1, ((1, 1),), (Word((1,)),)),
    HomologyReport: lambda: HomologyReport(1, 0, (2,), 0, 1),
    SubcomplexSpec: lambda: SubcomplexSpec(frozenset({1}), frozenset({1}), 2, 1),
    Filtration: lambda: Filtration(ONE, (SubcomplexSpec(frozenset({1}), frozenset({1}), 1, 1),)),
    SurgeryCode: lambda: SurgeryCode(1, (Word((1,)),)),
    SublinkSelection: lambda: SublinkSelection(frozenset({1})),
    CosetTable: lambda: CosetTable(1, "complete", 1, ((1, 1),)),
    Verdict: lambda: Verdict("aspherical", 1, 0, None, "trivial group and injective lifted boundary"),
}


def fields(r: Record) -> tuple:
    return tuple(getattr(r, name) for name in r.__match_args__)


def test_every_record_has_a_sample():
    assert set(RECORDS) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestEveryRecord:
    def test_fields_can_be_neither_assigned_nor_deleted(self, cls):
        r = SAMPLES[cls]()
        before = fields(r)
        for name in cls.__match_args__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(r, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert fields(r) == before

    def test_match_args_name_the_init_parameters(self, cls):
        params = list(inspect.signature(cls.__init__).parameters)
        assert params[0] == "self"
        assert tuple(params[1:]) == cls.__match_args__

    def test_keyword_construction_and_equality(self, cls):
        r = SAMPLES[cls]()
        by_keyword = cls(**{name: getattr(r, name) for name in cls.__match_args__})
        assert by_keyword == r and not by_keyword != r
        assert by_keyword is not r
        assert r != object() and r != fields(r)

    def test_hash_is_the_field_tuple_hash(self, cls):
        r = SAMPLES[cls]()
        try:
            expected = hash(fields(r))
        except TypeError:  # a dict field: neither is hashable
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == expected == hash(SAMPLES[cls]())

    def test_repr_names_the_fields(self, cls):
        r = SAMPLES[cls]()
        if cls in (Word, SparseIntMatrix):  # their own, shorter reprs
            return
        args = ", ".join(f"{name}={getattr(r, name)!r}" for name in cls.__match_args__)
        assert repr(r) == f"{cls.__qualname__}({args})"


class TestRecordSemantics:
    def test_equality_takes_the_class_into_account(self):
        assert Swap(1, 2) != RightMultiply(1, 2)
        assert SwapRows(1, 2) != Swap(1, 2)
        assert Invert(1) != NegateRow(1)
        assert len({Swap(1, 2), RightMultiply(1, 2), SwapRows(1, 2), Swap(1, 2)}) == 3

    def test_reprs(self):
        assert repr(AddMultiple(1, 2, -3)) == "AddMultiple(target=1, source=2, coeff=-3)"
        assert repr(BaseChange((Swap(1, 2),))) == "BaseChange(moves=(Swap(i=1, j=2),))"
        assert repr(Word((1, -2))) == "Word('g1 g2^-1')"
        assert repr(SparseIntMatrix(2, 3, {(1, 2): 3})) == "SparseIntMatrix(2x3, 1 entries)"
        assert repr(HomologyReport(1, 0, (), 0, 1)) == "HomologyReport(h0=1, h1_rank=0, h1_torsion=(), h2=0, chi=1)"

    def test_defaults(self):
        assert Word() == Word(()) and Word().letters == ()
        assert Presentation(3) == Presentation(3, ()) and Presentation(3).relators == ()
        assert RowOpLog() == RowOpLog(()) and len(RowOpLog()) == 0
        assert BaseChange() == BaseChange(()) and len(BaseChange()) == 0
        assert CosetTable(1, "overflow", 5).action == ()

    def test_match_statement(self):
        match RightMultiply(2, 1):
            case Swap(i, j):
                raise AssertionError("matched the wrong class")
            case RightMultiply(i, j):
                assert (i, j) == (2, 1)

    def test_cached_values_stay_out_of_the_fields(self):
        w = Word((3, -1))
        assert w.max_index() == 3 and "_max_index" in vars(w)
        assert w == Word((3, -1)) and hash(w) == hash(((3, -1),))
        bc = BaseChange((Swap(1, 2),))
        assert bc._images and bc == BaseChange((Swap(1, 2),)) and hash(bc) == hash(((Swap(1, 2),),))

    def test_replay_error_names_the_op(self):
        log = RowOpLog((AddMultiple(3, 1, 2),))
        with pytest.raises(IndexOutOfWindow) as exc:
            apply_row_ops(log, SparseIntMatrix.identity(2))
        assert str(exc.value) == "AddMultiple(target=3, source=1, coeff=2) outside 2 declared rows"
        with pytest.raises(IndexOutOfWindow) as exc:
            apply_col_ops(RowOpLog((SwapRows(1, 4),)), SparseIntMatrix.zeros(5, 3))
        assert str(exc.value) == "SwapRows(i=1, j=4) outside 3 declared cols"

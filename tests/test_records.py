"""The package's frozen records (``Grading``, ``VectorField``,
``FlowSolution``, ``DavieReport``, ``SuiteResult``) behave as frozen
dataclasses do: the constructor takes the fields in order, by position or
keyword, with their defaults; equality and hashing go field by field and
never match another type, a tuple included; ``repr`` names every field;
assignment and deletion raise ``AttributeError``; and a record survives a
pickle round trip."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from mirpath.algebra import Grading
from mirpath.fields import VectorField
from mirpath.solver import DavieReport, FlowSolution
from mirpath.verify import SuiteResult


def _provider(i, k, y):
    """A picklable derivative provider: f_i(y) = y for every i."""
    return y if k == 0 else float(k == 1)


# (record, the same record by keyword, its repr, a record that differs in one field)
CASES = {
    "grading": (
        Grading(3, Fraction(1, 2)),
        Grading(max_norm=3, gamma=Fraction(1, 2)),
        "Grading(max_norm=3, gamma=Fraction(1, 2))",
        Grading(3, Fraction(1, 3)),
    ),
    "vector-field": (
        VectorField(1, _provider, 2, None),
        VectorField(d=1, provider=_provider, max_order=2),
        f"VectorField(d=1, provider={_provider!r}, max_order=2, poly_coeffs=None)",
        VectorField(1, _provider),
    ),
    "flow-solution": (
        FlowSolution((0.0, 0.5), (0.2, 0.25), Fraction(3), ""),
        FlowSolution(times=(0.0, 0.5), values=(0.2, 0.25), level=Fraction(3)),
        "FlowSolution(times=(0.0, 0.5), values=(0.2, 0.25), level=Fraction(3, 1), message='')",
        FlowSolution((0.0, 0.5), (0.2, 0.25), Fraction(3), "diverged"),
    ),
    "davie-report": (
        DavieReport(((0.0, 0.5, 1e-3),), 2.5, 2.0, 3.0, 0.5),
        DavieReport(rows=((0.0, 0.5, 1e-3),), slope=2.5, target_slope=2.0, level=3.0,
                    gamma=0.5),
        "DavieReport(rows=((0.0, 0.5, 0.001),), slope=2.5, target_slope=2.0, level=3.0, "
        "gamma=0.5)",
        DavieReport(((0.0, 0.5, 1e-3),), 2.4, 2.0, 3.0, 0.5),
    ),
    "suite-result": (
        SuiteResult("chen", 10, 1, 1e-9, ("x",)),
        SuiteResult(name="chen", checked=10, failed=1, tolerance=1e-9, failures=("x",)),
        "SuiteResult(name='chen', checked=10, failed=1, tolerance=1e-09, failures=('x',))",
        SuiteResult("chen", 10, 0, 1e-9, ()),
    ),
}


FIELDS = {
    Grading: ("max_norm", "gamma"),
    VectorField: ("d", "provider", "max_order", "poly_coeffs"),
    FlowSolution: ("times", "values", "level", "message"),
    DavieReport: ("rows", "slope", "target_slope", "level", "gamma"),
    SuiteResult: ("name", "checked", "failed", "tolerance", "failures"),
}


@pytest.mark.parametrize("record, by_keyword, text, other", CASES.values(), ids=CASES)
def test_record_behaves_as_a_frozen_dataclass(record, by_keyword, text, other):
    assert repr(record) == text
    assert record == by_keyword and hash(record) == hash(by_keyword)
    assert record != other
    fields = FIELDS[type(record)]
    values = tuple(getattr(record, name) for name in fields)
    assert type(record)(*values) == record
    assert record != values and {values: 1}.get(record) is None
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[-1])
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, name) for name in fields) == values
    back = pickle.loads(pickle.dumps(record))
    assert back == record and repr(back) == text


def test_defaults_fill_the_trailing_fields():
    f = VectorField(1, _provider)
    assert (f.max_order, f.poly_coeffs) == (None, None)
    assert FlowSolution((0.0, 1.0), (0.0, 1.0), Fraction(2)).message == ""
    with pytest.raises(TypeError):
        FlowSolution((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(TypeError):
        Grading(3, Fraction(1, 2), 4)
    with pytest.raises(TypeError):
        SuiteResult("chen", 1, 0, None, (), extra=1)


def test_grading_normalises_gamma_and_refuses_out_of_range_values():
    g = Grading(2, 0.25)
    assert type(g.gamma) is Fraction and g == Grading(2, Fraction(1, 4))
    assert Grading(2, "1/3").gamma == Fraction(1, 3)
    for gamma, message in [(1, "gamma must lie in (0,1), got 1"),
                           (0, "gamma must lie in (0,1), got 0"),
                           (1.5, "gamma must lie in (0,1), got 3/2"),
                           (Fraction(-1, 2), "gamma must lie in (0,1), got -1/2")]:
        with pytest.raises(ValueError) as err:
            Grading(3, gamma)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        Grading(0, Fraction(1, 2))
    assert str(err.value) == "max_norm must be >= 1, got 0"
    # γ is checked before max_norm
    with pytest.raises(ValueError, match="gamma"):
        Grading(0, 2)
    # a Grading is a cache key: equal gradings are one key
    keys = {Grading(3, Fraction(1, 2)), Grading(3, 0.5), Grading(max_norm=3, gamma="1/2")}
    assert len(keys) == 1

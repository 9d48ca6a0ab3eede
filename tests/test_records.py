"""The library's frozen records: construction, equality, hashing, repr,
immutability, normalisation and copying, pinned to their released form."""

import copy
import pickle

import pytest

from calcverify import (
    AntiderivativeReport,
    Box,
    CordicTable,
    DerivativeReport,
    DomainError,
    Polynomial,
    QuadratureRule,
    SolveResult,
    evaluate,
    parse,
)
from calcverify.expr import BinOp, Call, Neg, Num, Var

X = Var("x", 0)

# (class, field values, the repr those values print as); FIELDS names them
CASES = [
    (Polynomial, ((1.0, 2.0),), "Polynomial(coeffs=(1.0, 2.0))"),
    (
        QuadratureRule,
        (1, (0.0,), (2.0,)),
        "QuadratureRule(n=1, nodes=(0.0,), weights=(2.0,))",
    ),
    (Box, ((0.0, 1.0), (1.0, 2.0)), "Box(lo=(0.0, 1.0), hi=(1.0, 2.0))"),
    (
        DerivativeReport,
        (0.5, 0.0001, 1.0, 1.25, 0.25, 0.25, "fail"),
        "DerivativeReport(point=0.5, h=0.0001, analytic=1.0, numeric=1.25, "
        "abs_diff=0.25, rel_diff=0.25, verdict='fail')",
    ),
    (
        AntiderivativeReport,
        (0.0, 1.0, 0.5, 0.5, 20, 0.0, "pass"),
        "AntiderivativeReport(a=0.0, b=1.0, ftc_value=0.5, quad_value=0.5, n=20, "
        "abs_diff=0.0, verdict='pass')",
    ),
    (
        SolveResult,
        (1.5, 1e-12, 4, True),
        "SolveResult(root=1.5, residual=1e-12, iterations=4, converged=True)",
    ),
    (
        CordicTable,
        (1, (0.7853981633974483,), 0.7071067811865475),
        "CordicTable(iters=1, angles=(0.7853981633974483,), gain=0.7071067811865475)",
    ),
    (Num, (2.0, 0), "Num(value=2.0, offset=0)"),
    (Var, ("x", 3), "Var(name='x', offset=3)"),
    (Neg, (X, 1), "Neg(operand=Var(name='x', offset=0), offset=1)"),
    (
        BinOp,
        ("+", X, Num(1.0, 4), 2),
        "BinOp(op='+', left=Var(name='x', offset=0), right=Num(value=1.0, offset=4), offset=2)",
    ),
    (Call, ("sin", X, 0), "Call(func='sin', arg=Var(name='x', offset=0), offset=0)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
FIELDS = {
    Polynomial: ("coeffs",),
    QuadratureRule: ("n", "nodes", "weights"),
    Box: ("lo", "hi"),
    DerivativeReport: ("point", "h", "analytic", "numeric", "abs_diff", "rel_diff", "verdict"),
    AntiderivativeReport: ("a", "b", "ftc_value", "quad_value", "n", "abs_diff", "verdict"),
    SolveResult: ("root", "residual", "iterations", "converged"),
    CordicTable: ("iters", "angles", "gain"),
    Num: ("value", "offset"),
    Var: ("name", "offset"),
    Neg: ("operand", "offset"),
    BinOp: ("op", "left", "right", "offset"),
    Call: ("func", "arg", "offset"),
}


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_form(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, values, text):
    names = FIELDS[cls]
    assert len(names) == len(values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    record = cls(*values)
    assert by_keyword == record and mixed == record
    assert [getattr(record, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_bad_arguments_are_type_errors(cls, values, text):
    name = FIELDS[cls][0]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{name: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_equality_only_within_the_class(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(values))
    assert a != tuple(values) and tuple(values) != a
    assert a != list(values)
    for other_cls, other_values, _ in CASES:
        if other_cls is not cls:
            assert a != other_cls(*other_values)


def test_records_with_a_different_field_differ():
    assert Num(2.0, 0) != Num(2.0, 1)
    assert Num(2.0, 0) != Var("x", 0)
    assert Var("x", 0) != Var("y", 0)
    assert {Num(2.0, 0), Num(2.0, 0), Num(3.0, 0)} == {Num(2.0, 0), Num(3.0, 0)}


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_records_are_frozen(cls, values, text):
    record = cls(*values)
    name = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert repr(record) == text


def test_polynomial_normalises_its_coefficients():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (1.0, 2.0) and all(type(c) is float for c in p.coeffs)
    assert Polynomial(coeffs=(0, 0)).coeffs == (0.0,)
    assert Polynomial(()).coeffs == (0.0,)
    assert Polynomial((3, 0)) == Polynomial((3.0,))
    assert hash(Polynomial((3, 0))) == hash(((3.0,),))
    assert Polynomial((1, 0, 5)).degree == 2


def test_box_coerces_and_checks_its_bounds():
    box = Box([0, 1], hi=(1, 2))
    assert box.lo == (0.0, 1.0) and box.hi == (1.0, 2.0)
    assert all(type(v) is float for v in box.lo + box.hi)
    assert box == Box((0.0, 1.0), (1.0, 2.0)) and box.dims == 2
    for lo, hi in [
        ((0.0,), (1.0, 2.0)),
        ((), ()),
        ((0.0,) * 4, (1.0,) * 4),
        ((0.0,), (float("inf"),)),
        ((float("nan"),), (1.0,)),
        ((1.0,), (1.0,)),
        ((2.0,), (1.0,)),
    ]:
        with pytest.raises(DomainError):
            Box(lo, hi)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_records_survive_pickle_and_deepcopy(cls, values, text):
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == text
        assert hash(twin) == hash(record)


def test_evaluated_tree_survives_pickle_and_deepcopy():
    tree = parse("sin(x)^2 + -x/(1 + y)", ["x", "y"])
    point = {"x": 0.75, "y": 2.0}
    value = evaluate(tree, point)
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin == tree and hash(twin) == hash(tree) and repr(twin) == repr(tree)
        assert evaluate(twin, point) == value
    # a copy taken after evaluation still evaluates, and the original is unchanged
    assert evaluate(tree, point) == value

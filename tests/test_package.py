"""The package namespace: every exported name, whether or not its module
has been imported yet."""

import os
import pickle
import subprocess
import sys

import pytest

import calcverify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)

EXPORTS = {
    "cordic": "CordicTable SinCos cordic_sincos cordic_table",
    "diffcheck": "AntiderivativeReport DerivativeReport central_diff directional_derivative "
    "gradient one_sided_diff verify_antiderivative verify_derivative",
    "errors": "CalcVerifyError CapabilityError DomainError NumericError TableError",
    "expr": "EvalDomainError Expr ParseError as_function evaluate parse to_string",
    "legendre": "Polynomial RootSet legendre_gram_schmidt legendre_recurrence legendre_roots "
    "poly_derivative poly_eval",
    "quadrature": "Box QuadratureRule apply_rule apply_rule_box convergence_table gauss_rule "
    "gauss_weights_linear_system integrate_1d integrate_box",
    "solvers": "SolveResult newton_solve secant_solve",
    "tables": "get_or_build load_tables save_tables",
}


def fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc.stdout


def test_all_lists_the_exports_sorted():
    names = [name for names in EXPORTS.values() for name in names.split()]
    assert len(names) == 46
    assert calcverify.__all__ == sorted(names)


def test_star_import_binds_each_name_to_its_module_attribute():
    # in a fresh process, so no test has imported a submodule first
    check = (
        "from calcverify import *\n"
        "import importlib\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    for name in names.split():\n"
        "        assert globals()[name] is getattr(importlib.import_module('calcverify.' + module), name)\n"
        "        print(name)"
    )
    assert sorted(fresh(check).split()) == calcverify.__all__


def test_submodules_resolve_after_a_bare_import():
    check = (
        "import calcverify\n"
        f"for module in {sorted(EXPORTS)!r}:\n"
        "    assert getattr(calcverify, module).__name__ == 'calcverify.' + module\n"
        "print(calcverify.tables.dumps_tables([calcverify.gauss_rule(1)]), end='')"
    )
    assert fresh(check) == "GAUSSTAB 1\nN 1\n0 2\n"


def test_dir_lists_every_export():
    assert set(calcverify.__all__) <= set(dir(calcverify))
    assert set(EXPORTS) <= set(dir(calcverify))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(calcverify, "nope")
    with pytest.raises(AttributeError, match="^module 'calcverify' has no attribute 'nope'$"):
        calcverify.nope


@pytest.mark.parametrize(
    "value, cls, fields",
    [
        (calcverify.legendre_roots(2), calcverify.RootSet, ("roots", "n")),
        (calcverify.cordic_sincos(0.0), calcverify.SinCos, ("sin", "cos")),
    ],
)
def test_tuple_records_are_named_tuples(value, cls, fields):
    first, second = value
    assert type(value) is cls and value == (first, second) and tuple(value) == (first, second)
    assert cls._fields == fields
    assert repr(value) == f"{cls.__name__}({fields[0]}={first!r}, {fields[1]}={second!r})"
    assert not hasattr(value, "__dict__")


def test_tuple_records_from_a_lazily_loaded_module_pickle():
    check = (
        "import pickle, sys, calcverify\n"
        "records = [calcverify.RootSet((-0.5, 0.5), 2), calcverify.SinCos(0.0, 1.0)]\n"
        "assert pickle.loads(pickle.dumps(records)) == records\n"
        "sys.stdout.buffer.write(pickle.dumps(records))"
    )
    proc = subprocess.run([sys.executable, "-c", check], env=ENV, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    roots, sincos = pickle.loads(proc.stdout)
    assert (type(roots), roots) == (calcverify.RootSet, ((-0.5, 0.5), 2))
    assert (type(sincos), sincos) == (calcverify.SinCos, (0.0, 1.0))


def test_records_from_a_lazily_loaded_module_pickle():
    check = (
        "import pickle, sys, calcverify\n"
        "records = [calcverify.gauss_rule(3), calcverify.Box((0.0,), (1.0,)),\n"
        "           calcverify.SolveResult(1.5, 0.0, 3, True), calcverify.cordic_table(4)]\n"
        "assert all(pickle.loads(pickle.dumps(r)) == r for r in records)\n"
        "sys.stdout.buffer.write(pickle.dumps(records))"
    )
    proc = subprocess.run([sys.executable, "-c", check], env=ENV, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    records = pickle.loads(proc.stdout)
    assert records[0] == calcverify.gauss_rule(3)
    assert records[3] == calcverify.cordic_table(4)


# [Polynomial((-0.5, 0.0, 1.5)), RootSet((-0.5, 0.5), 2)], pickled with protocol 2
# while both classes were defined in calcverify.legendre: the class paths name it
LEGENDRE_PICKLE = (
    b"\x80\x02]q\x00(ccalcverify.legendre\nPolynomial\nq\x01)\x81q\x02}q\x03X\x06\x00\x00\x00coeffsq\x04"
    b"G\xbf\xe0\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00G?\xf8\x00\x00\x00\x00\x00\x00"
    b"\x87q\x05sbccalcverify.legendre\nRootSet\nq\x06G\xbf\xe0\x00\x00\x00\x00\x00\x00"
    b"G?\xe0\x00\x00\x00\x00\x00\x00\x86q\x07K\x02\x86q\x08\x81q\te."
)


def test_the_exact_routes_resolve_under_their_old_module_paths():
    # in a fresh -S process: the old pickle is read first, before any import
    # of the moved names, which then come back as _exact's own objects
    check = (
        "import pickle\n"
        f"old = pickle.loads({LEGENDRE_PICKLE!r})\n"
        "from calcverify.legendre import Polynomial, RootSet, _recurrence_exact, analytic_inner_product\n"
        "from calcverify.quadrature import gauss_weights_linear_system\n"
        "from calcverify import _exact, legendre\n"
        "moved = (Polynomial, RootSet, _recurrence_exact, analytic_inner_product, gauss_weights_linear_system)\n"
        "assert all(obj is getattr(_exact, obj.__name__) for obj in moved)\n"
        "assert old == [Polynomial((-0.5, 0.0, 1.5)), RootSet((-0.5, 0.5), 2)]\n"
        "assert [type(record) for record in old] == [Polynomial, RootSet]\n"
        "try:\n"
        "    legendre.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", check], env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "module 'calcverify.legendre' has no attribute 'nope'\n"

import itertools
import math
import pickle
import random
import sys
import threading
import time

import pytest

from calcverify import (
    DomainError,
    as_function,
    EvalDomainError,
    ParseError,
    cordic_sincos,
    cordic_table,
    evaluate,
    newton_solve,
    parse,
    to_string,
    verify_derivative,
)
from calcverify import expr, quadrature
from calcverify.expr import BinOp, Call, Neg, Num, Var


def ev(text, variables=("x",), **bindings):
    return evaluate(parse(text, list(variables)), bindings)


def test_rational_expression():
    assert ev("(x - 2)/(x^2 + 4)", x=2.0) == 0.0
    assert ev("(x - 2)/(x^2 + 4)", x=0.0) == -0.5


def test_precedence_and_associativity():
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("2^3^2") == 512.0
    assert ev("2*3+4") == 10.0
    assert ev("2+3*4") == 14.0
    assert ev("6/3/2") == 1.0
    assert ev("2-3-4") == -5.0
    assert ev("(-x)^2", x=3.0) == 9.0
    assert ev("2*-3") == -6.0
    assert ev("x^-1", x=4.0) == 0.25
    assert ev("2^-2") == 0.25


def test_numbers():
    assert ev("1.5e2") == 150.0
    assert ev("2.") == 2.0
    assert ev(".5") == 0.5
    assert ev("1e-3") == 0.001
    assert ev("1.") == 1.0
    assert ev("1.e1") == 10.0
    assert ev(".5E+1") == 5.0


def test_functions():
    assert ev("sqrt(x)", x=2.0) == math.sqrt(2.0)
    assert ev("ln(exp(1))") == pytest.approx(1.0, abs=1e-15)
    assert ev("abs(0 - 5)") == 5.0
    for fn in ("sin", "cos", "tan", "exp"):
        assert ev(f"{fn}(x)", x=0.7) == getattr(math, fn)(0.7)


def test_multiple_variables():
    assert ev("x*y", ("x", "y"), x=2.0, y=5.0) == 10.0
    assert ev("x - y + z", ("x", "y", "z"), x=1.0, y=2.0, z=3.0) == 2.0


def test_variable_named_like_builtin():
    # "sin" not followed by '(' is an ordinary variable
    assert ev("sin + 1", ("sin",), sin=2.0) == 3.0


@pytest.mark.parametrize(
    "text,invalid_at",
    [
        ("x + qq", 4),
        ("foo(x)", 0),
        ("2e", 0),
        ("(x", 2),
        ("x 5", 2),
        ("", 0),
        ("x $ y", 2),
        ("x + ", 4),
        ("sin x", 4),
        ("2x", 1),
        ("²", 0),  # superscript two: str.isdigit() is true, float() rejects it
        ("2²", 1),
        ("١", 0),  # Arabic-Indic one: float() would read it as 1
        ("1e999", 0),
        ("x^1e999", 2),
    ],
)
def test_parse_errors_carry_offsets(text, invalid_at):
    with pytest.raises(ParseError) as info:
        parse(text, ["x"])
    err = info.value
    assert 0 <= err.offset <= invalid_at
    assert err.offset <= len(text)
    assert err.message


def test_variable_list_validation():
    with pytest.raises(DomainError):
        parse("x", [])
    with pytest.raises(DomainError):
        parse("x", ["x", "x"])
    with pytest.raises(DomainError):
        parse("x", ["2x"])
    with pytest.raises(DomainError):
        parse("x", ["vé"])


@pytest.mark.parametrize(
    "text,bindings",
    [
        ("ln(x)", {"x": 0.0}),
        ("ln(x)", {"x": -1.0}),
        ("sqrt(x)", {"x": -2.0}),
        ("1/x", {"x": 0.0}),
        ("x^(0-1)", {"x": 0.0}),
        ("(0-8)^0.5", {"x": 0.0}),
        ("exp(x)", {"x": 1e9}),
        ("exp(x)*exp(x)", {"x": 700.0}),
    ],
)
def test_evaluation_domain_errors(text, bindings):
    e = parse(text, ["x"])
    with pytest.raises(EvalDomainError) as info:
        evaluate(e, bindings)
    assert info.value.offset <= len(text)


def test_missing_binding_is_domain_error():
    e = parse("x + y", ["x", "y"])
    with pytest.raises(EvalDomainError):
        evaluate(e, {"x": 1.0})


def test_cordic_backed_trig():
    table = cordic_table(40)
    swapped = {
        "sin": lambda t: cordic_sincos(t, table).sin,
        "cos": lambda t: cordic_sincos(t, table).cos,
    }
    e = parse("sin(x) + cos(x)", ["x"])
    for t in (0.0, 0.4, -1.3, 2.9):
        host = evaluate(e, {"x": t})
        cordic = evaluate(e, {"x": t}, functions=swapped)
        assert abs(host - cordic) <= 2.0 ** (-38) * 2


# --- randomized grammar checks -------------------------------------------

_FUNCS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(0, 4), 3), 0)
        return Var(rng.choice(("x", "y")), 0)
    pick = rng.random()
    if pick < 0.15:
        return Neg(random_tree(rng, depth - 1), 0)
    if pick < 0.35:
        return Call(rng.choice(_FUNCS), random_tree(rng, depth - 1), 0)
    op = rng.choice("+-*/^")
    return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1), 0)


def full_parens(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{full_parens(node.operand)})"
    if isinstance(node, BinOp):
        return f"({full_parens(node.left)}{node.op}{full_parens(node.right)})"
    return f"{node.func}({full_parens(node.arg)})"


def brute_eval(node, bindings):
    """Independent reference evaluator mirroring the documented semantics."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return bindings[node.name]
    if isinstance(node, Neg):
        return -brute_eval(node.operand, bindings)
    if isinstance(node, BinOp):
        a = brute_eval(node.left, bindings)
        b = brute_eval(node.right, bindings)
        if node.op == "+":
            v = a + b
        elif node.op == "-":
            v = a - b
        elif node.op == "*":
            v = a * b
        elif node.op == "/":
            v = a / b
        else:
            v = math.pow(a, b)
    else:
        impl = {
            "sin": math.sin,
            "cos": math.cos,
            "tan": math.tan,
            "exp": math.exp,
            "ln": math.log,
            "sqrt": math.sqrt,
            "abs": math.fabs,
        }[node.func]
        v = impl(brute_eval(node.arg, bindings))
    if not math.isfinite(v):
        raise ValueError("non-finite")
    return v


def test_precedence_against_brute_force():
    rng = random.Random(5150)
    checked = 0
    for _ in range(500):
        tree = random_tree(rng, 5)
        reparsed = parse(full_parens(tree), ["x", "y"])
        bindings = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        try:
            expected = brute_eval(tree, bindings)
        except (ValueError, OverflowError, ZeroDivisionError):
            with pytest.raises(EvalDomainError):
                evaluate(reparsed, bindings)
            continue
        assert evaluate(reparsed, bindings) == expected
        checked += 1
    assert checked > 200


def test_round_trip_printing():
    rng = random.Random(64128)
    binding_sets = 0
    while binding_sets < 100:
        tree = parse(full_parens(random_tree(rng, 4)), ["x", "y"])
        again = parse(to_string(tree), ["x", "y"])
        for _ in range(4):
            bindings = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            try:
                expected = evaluate(tree, bindings)
            except EvalDomainError:
                with pytest.raises(EvalDomainError):
                    evaluate(again, bindings)
                continue
            assert evaluate(again, bindings) == expected
            binding_sets += 1


# --- depth ----------------------------------------------------------------


def test_flat_sum_of_100000_terms_evaluates_and_prints():
    e = Var("x", 0)
    for i in range(1, 100000):  # the left-deep tree parse builds for x+x+...+x
        e = BinOp("+", e, Var("x", 2 * i), 2 * i - 1)
    assert evaluate(e, {"x": 1.0}) == 100000.0
    assert as_function(e, ["x"])(0.5) == 50000.0
    assert to_string(e) == "+".join(["x"] * 100000)


def test_deep_negation_chain_built_from_nodes():
    e = Var("x", 0)
    for _ in range(5000):
        e = Neg(e, 0)
    assert evaluate(e, {"x": 3.0}) == 3.0
    assert as_function(e, ["x"])(3.0) == 3.0
    assert to_string(e) == "-" * 5000 + "x"


def test_printing_is_linear_in_the_tree_size():
    n = 200000
    flat = Var("x", 0)
    for i in range(1, n):  # x+x+...+x, left-deep
        flat = BinOp("+", flat, Var("x", 2 * i), 2 * i - 1)
    chain = Var("x", 0)
    for _ in range(n):  # 2^(2^(...x)), right-deep
        chain = BinOp("^", Num(2.0, 0), chain, 0)
    start = time.process_time()
    assert to_string(flat) == "+".join(["x"] * n)
    assert to_string(chain) == "".join(["2.0^"] * n) + "x"
    # ~1 s of CPU in all when each piece of text is written once; a
    # printer that re-copies the text built so far needs ~8 s
    assert time.process_time() - start < 5.0


@pytest.mark.parametrize("prefix, suffix", [("(", ")"), ("-", ""), ("2^", ""), ("sin(", ")")])
def test_nesting_cap(prefix, suffix):
    parse(prefix * 100 + "x" + suffix * 100, ["x"])
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(prefix * 101 + "x" + suffix * 101, ["x"])


def test_as_function_takes_exactly_one_value_per_variable():
    names = ["a", "b", "c", "d"]
    for k in range(5):
        f = as_function(parse("+".join(["1", *names[:k]]), names[:k] or ["x"]), names[:k])
        assert f(*[1.0] * k) == 1.0 + k
        with pytest.raises(TypeError):
            f(*[1.0] * (k + 1))  # too many: the extra value is not dropped
        if k:
            with pytest.raises(TypeError):
                f(*[1.0] * (k - 1))


def test_first_error_from_the_left_wins():
    e = parse("1/0 + ln(0-1)", ["x"])
    with pytest.raises(EvalDomainError, match="division by zero at offset 1"):
        evaluate(e, {"x": 0.0})
    e = parse("y + 1/0", ["x", "y"])
    with pytest.raises(EvalDomainError, match="unbound variable 'y' at offset 0"):
        as_function(e, ["x"])(0.0)


def test_zero_division_in_a_swapped_function_is_not_a_domain_error():
    e = parse("1 + sin(x)", ["x"])
    with pytest.raises(ZeroDivisionError):
        evaluate(e, {"x": 0.0}, functions={"sin": lambda t: 1 / t})


# --- compiled evaluation -------------------------------------------------


def _outcome(call):
    try:
        v = call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return f"{type(exc).__name__} {exc}"
    return f"{type(v).__name__} {float(v).hex()}"


def test_compiled_evaluation_matches_the_interpreter():
    # under the default builtins evaluate runs each parsed tree's generated
    # code and falls back to the interpreter per point; both routes must give
    # the same bits or errors
    swapped = {
        "sin": math.cos,
        "ln": math.log2,
        "sqrt": lambda t: math.sqrt(t) if t < 2 else math.log(-t),
        "abs": int,
        "exp": lambda t: 1 / t,
    }
    odd = {"cos": lambda t: "text", "tan": lambda t: None}
    rng = random.Random(6061)
    compiled = values = 0
    for _ in range(1000):
        tree = parse(full_parens(random_tree(rng, 6)), ["x", "y"])
        order = expr._postorder(tree)
        for bindings, functions in (
            ({"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}, None),
            ({"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}, swapped),
            ({"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}, odd),
            ({"x": 0.0, "y": -1.0}, None),
            ({"x": 1e155, "y": -1e300}, None),
            ({"x": 3, "y": "0.5"}, None),
            ({"x": math.nan, "y": 2.0}, None),
            ({"x": math.inf, "y": 2.0}, None),
            ({"x": "abc", "y": 1.0}, None),
            ({"x": 1.5}, None),
        ):
            impls = {**expr._DEFAULT_IMPLS, **(functions or {})}
            expected = _outcome(lambda: expr._interpret(order, bindings, impls))
            assert _outcome(lambda: evaluate(tree, bindings, functions)) == expected
            if functions is not None or not expected.startswith(("float ", "int ")):
                continue
            values += 1
            value = tree._program(bindings)
            if value is not None:
                assert _outcome(lambda: value) == expected
                compiled += 1
    # most values come from the generated code, not the fallback
    assert values > 3000 and compiled > 0.95 * values


def test_alternating_trees_generate_code_once_each(monkeypatch):
    generated = []
    generate = expr._generate
    monkeypatch.setattr(expr, "_generate", lambda order: generated.append(order) or generate(order))
    f = as_function(parse("x^3 - 2*x", ["x"]), ["x"])
    fprime = as_function(parse("3*x^2 - 2", ["x"]), ["x"])
    trees = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda e, *rest: trees.append(e) or evaluate(e, *rest))
    assert newton_solve(f, 1.0, 2.0, fprime=fprime).converged
    verify_derivative(f, fprime, 0.7)
    switches = sum(a is not b for a, b in zip(trees, trees[1:]))
    assert len(generated) == 2 and switches > 4


def test_only_parsed_trees_under_the_default_builtins_generate_code(monkeypatch):
    generated = []
    generate = expr._generate
    monkeypatch.setattr(expr, "_generate", lambda order: generated.append(order) or generate(order))
    text = "sin(x)/y + ln(x*y)"
    parsed = parse(text, ["x", "y"])
    built = BinOp(
        "+",
        BinOp("/", Call("sin", Var("x", 4), 0), Var("y", 7), 6),
        Call("ln", BinOp("*", Var("x", 14), Var("y", 16), 15), 11),
        9,
    )
    unpickled = pickle.loads(pickle.dumps(parse(text, ["x", "y"])))
    assert built == parsed == unpickled
    swapped = {"sin": math.cos, "ln": lambda t: 1 / t}
    for bindings in ({"x": 0.5, "y": 2.0}, {"x": 0.5, "y": 0.0}, {"x": -1.0, "y": 1.0}, {"x": 1e200, "y": 1e200}):
        for tree, functions in ((built, None), (unpickled, None), (parsed, swapped), (built, swapped)):
            impls = {**expr._DEFAULT_IMPLS, **(functions or {})}
            expected = _outcome(lambda: expr._interpret(tree._order, bindings, impls))
            assert _outcome(lambda: evaluate(tree, bindings, functions)) == expected
            assert _outcome(lambda: as_function(tree, ["x", "y"], functions)(*bindings.values())) == expected
    assert generated == []
    assert evaluate(parsed, {"x": 0.5, "y": 2.0}) == math.sin(0.5) / 2.0 + math.log(1.0)
    assert len(generated) == 1


def test_a_binding_or_an_int_past_the_double_range_is_an_overflow_error():
    big = 10**400
    for call, text, offset in (
        (lambda tree: evaluate(tree, {"x": big}), "x", 0),
        (lambda tree: as_function(tree, ["x"])(big), "x*2", 0),
        (lambda tree: evaluate(tree, {"x": 1.0}, {"sin": lambda t: big}), "sin(x)", 0),
        (lambda tree: evaluate(tree, {"x": 1e200}, {"abs": int}), "abs(x)*abs(x)", 6),
    ):
        with pytest.raises(EvalDomainError) as info:
            call(parse(text, ["x"]))
        assert info.value.overflow, text
        assert (info.value.offset, info.value.source) == (offset, text)


def test_a_tree_that_performs_no_operation_checks_its_value():
    # no BinOp or Call tests the bound value, so the root does
    for call, text, offset in (
        (lambda tree: evaluate(tree, {"x": math.nan}), "x", 0),
        (lambda tree: as_function(tree, ["x"])(math.inf), "-x", 0),
    ):
        with pytest.raises(EvalDomainError, match="^non-finite result at offset") as info:
            call(parse(text, ["x"]))
        assert info.value.overflow, text
        assert (info.value.offset, info.value.source) == (offset, text)
    with pytest.raises(EvalDomainError) as info:
        evaluate(Num(10**400, 3), {})  # an int literal past the double range, built by hand
    assert (info.value.offset, info.value.overflow, info.value.source) == (3, True, None)


def test_every_node_kind_is_an_expr():
    tree = parse("-sin(x)^2", ["x"])
    nodes = expr._postorder(tree)
    assert {type(node) for node in nodes} == {Num, Var, Neg, BinOp, Call}
    assert all(isinstance(node, expr.Expr) for node in nodes)
    assert not isinstance(1.0, expr.Expr)


def test_variables_named_like_generated_names():
    names = ["_F", "_b", "_v0", "_t1", "_c0", "float", "_n0", "_k1", "_pow", "_isfinite", "program"]
    values = {name: 1.0 + i / 8 for i, name in enumerate(names)}
    text = "_F*_b + _v0 - _t1/_c0 + float^2 + sin(_n0) - _k1*_pow + _isfinite/program + 0.5"
    v = values
    expected = (
        v["_F"] * v["_b"] + v["_v0"] - v["_t1"] / v["_c0"] + math.pow(v["float"], 2.0)
        + math.sin(v["_n0"]) - v["_k1"] * v["_pow"] + v["_isfinite"] / v["program"] + 0.5
    )
    tree = parse(text, names)
    assert tree._program is not None
    assert evaluate(tree, values) == expected
    assert as_function(tree, names)(*values.values()) == expected


def test_a_late_non_finite_temp_fails_the_chunked_check():
    # 200 finite partial sums, then y*y overflows and 1/(y*y) is 0, so
    # only the last chunk of the finiteness check can see it
    text = "+".join(["x"] * 200) + " + 1/(y*y)"
    tree = parse(text, ["x", "y"])
    bindings = {"x": 1.0, "y": 1e200}
    assert tree._program(bindings) is None
    with pytest.raises(EvalDomainError, match=f"non-finite result at offset {text.index('*')}") as info:
        evaluate(tree, bindings)
    assert info.value.overflow
    assert evaluate(tree, {"x": 1.0, "y": 2.0}) == 200.25


def test_variables_named_like_memo_names():
    # the memo code adds _s, _D and _M<i> to the generated names; a site here
    # reads _s, _D and _M1, and the innermost variable z is read per point
    names = ["_s", "_D", "_M1", "_F", "_b", "_v0", "_t1", "_c0", "z"]
    text = "sin(_s)*exp(_D/_M1) + _F*_b - _v0^_t1/_c0 + cos(z)"
    tree = parse(text, names)
    f = as_function(tree, names)
    for z in (0.25, 0.5, 0.75):
        values = {name: 1.0 + i / 8 for i, name in enumerate(names[:-1])}
        v = values
        expected = (
            math.sin(v["_s"]) * math.exp(v["_D"] / v["_M1"]) + v["_F"] * v["_b"]
            - math.pow(v["_v0"], v["_t1"]) / v["_c0"] + math.cos(z)
        )
        assert evaluate(tree, {**values, "z": z}) == expected
        assert f(*values.values(), z) == expected


# literals and axis values where a non-finite value can vanish or a domain ends
_GRID_LITERALS = (0.5, 2.0, 3.0, 710.0, 800.0, 1e200, 1e-300)
_GRID_VALUES = (0.0, -0.0, 1.0, -1.5, 0.75, 710.0, -745.5, 1e155, 1e300, math.inf, -math.inf, math.nan)


def _grid_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(rng.choice(_GRID_LITERALS), 0)
        return Var(rng.choice("xyz"), 0)
    pick = rng.random()
    if pick < 0.1:
        return Neg(_grid_tree(rng, depth - 1), 0)
    if pick < 0.4:
        return Call(rng.choice(_FUNCS), _grid_tree(rng, depth - 1), 0)
    return BinOp(rng.choice("+-*/^"), _grid_tree(rng, depth - 1), _grid_tree(rng, depth - 1), 0)


def test_grid_evaluation_matches_the_interpreter_in_every_loop_order():
    # a tensor loop reuses each outer axis value's float object, which is what
    # the memo sites key on; every loop order makes a different axis innermost
    rng = random.Random(1717)
    for k in range(150):
        tree = _grid_tree(rng, 5)
        if k % 3:
            tree = parse(full_parens(tree), ["x", "y", "z"])  # declared names: outer-axis sites
        order = expr._postorder(tree)
        axes = {name: [rng.choice(_GRID_VALUES) for _ in range(3)] for name in "xyz"}
        for loop in itertools.permutations("xyz"):
            for point in itertools.product(*(axes[name] for name in loop)):
                bindings = dict(zip(loop, point))
                expected = _outcome(lambda: expr._interpret(order, bindings, expr._DEFAULT_IMPLS))
                assert _outcome(lambda: evaluate(tree, bindings)) == expected, (tree, bindings)


def test_a_failed_point_is_not_memoized():
    # x*x overflows and 1/(x*x) is 0: the site fails its check and stores nothing,
    # so the same float objects fail again
    text = "1/(x*x) + y"
    tree = parse(text, ["x", "y"])
    bindings = {"x": 1e200, "y": 1.0}
    for _ in range(2):
        with pytest.raises(EvalDomainError, match=f"non-finite result at offset {text.index('*')}"):
            evaluate(tree, bindings)
    assert evaluate(tree, {"x": 2.0, "y": 1.0}) == 1.25


def test_a_late_non_finite_divisor_fails_the_chunked_site_check():
    # a site with 70 finite divisors before x*x, which overflows while 1/(x*x)
    # is 0: only the last chunk of the site's check can see it
    text = "+".join(["1/x"] * 70) + " + 1/(x*x) + z"
    tree = parse(text, ["x", "z"])
    bindings = {"x": 1e200, "z": 1.0}
    for _ in range(2):
        with pytest.raises(EvalDomainError, match=f"non-finite result at offset {text.index('*')}"):
            evaluate(tree, bindings)


def test_custom_functions_are_called_once_per_node_per_point():
    calls = []
    functions = {
        "sin": lambda t: calls.append("sin") or math.sin(t),
        "cos": lambda t: calls.append("cos") or math.cos(t),
    }
    tree = parse("sin(x)*cos(y) + sin(2*x)", ["x", "y"])
    xs, ys = [0.1, 0.2, 0.3], [0.4, 0.5]
    for x in xs:
        for y in ys:
            evaluate(tree, {"x": x, "y": y})  # fills the memo slots under the builtins
            expected = math.sin(x) * math.cos(y) + math.sin(2 * x)
            assert evaluate(tree, {"x": x, "y": y}, functions) == expected
    assert sorted(calls) == ["cos"] * 6 + ["sin"] * 12


def test_a_box_computes_each_outer_factor_once_per_outer_point(monkeypatch):
    # sin(x)*cos(y) does not read z, so an n^3 grid calls sin n^2 times; this
    # relies on float(x) returning x itself for the loop's float objects
    calls = []
    monkeypatch.setitem(expr._DEFAULT_IMPLS, "sin", lambda t: calls.append(t) or math.sin(t))
    names = ["x", "y", "z"]
    tree = parse("sin(x)*cos(y)*exp(z)", names)
    n, box = 6, quadrature.Box((0.0,) * 3, (1.0,) * 3)
    value = quadrature.apply_rule_box(quadrature.gauss_rule(n), as_function(tree, names), box)
    assert len(calls) == n * n
    order = expr._postorder(tree)
    checked = lambda x, y, z: expr._interpret(order, {"x": x, "y": y, "z": z}, expr._DEFAULT_IMPLS)  # noqa: E731
    assert value == quadrature.apply_rule_box(quadrature.gauss_rule(n), checked, box)


def test_threads_sharing_a_tree_get_the_interpreters_bits():
    # each thread keeps replacing the shared memo slots with its own floats; a
    # slot read half-written would pair one thread's key with another's value
    names = ["x", "y", "z"]
    tree = parse("sin(x)*cos(y)*exp(z) + ln(x + y)", names)
    order = expr._postorder(tree)
    failures, done = [], []

    def sweep(offset):
        axis = [offset + k / 7 for k in range(5)]
        for _ in range(10):
            for point in itertools.product(axis, axis, axis):
                bindings = dict(zip(names, point))
                if evaluate(tree, bindings) != expr._interpret(order, bindings, expr._DEFAULT_IMPLS):
                    failures.append(point)
        done.append(offset)

    threads = [threading.Thread(target=sweep, args=(0.5 + k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(done) == len(threads)


def test_trees_past_the_node_cap_are_interpreted():
    small = parse("+".join(["x"] * 400), ["x"])
    large = parse("+".join(["x"] * 600), ["x"])
    assert small._program is not None and large._program is None
    assert evaluate(small, {"x": 0.5}) == 200.0 and evaluate(large, {"x": 0.5}) == 300.0


def test_evaluated_trees_compare_hash_and_pickle_as_before():
    text = "sin(x)*y - 2^x"
    tree = parse(text, ["x", "y"])
    before = (repr(tree), hash(tree))
    value = evaluate(tree, {"x": 0.3, "y": 1.5})
    assert (repr(tree), hash(tree)) == before
    assert tree == parse(text, ["x", "y"])
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and evaluate(copy, {"x": 0.3, "y": 1.5}) == value


def test_overflow_errors_are_marked():
    for text, x in (("exp(x)", 1e3), ("x*x", 1e200), ("x+1", math.nan), ("x^x", 1e3)):
        with pytest.raises(EvalDomainError) as info:
            evaluate(parse(text, ["x"]), {"x": x})
        assert info.value.overflow, text
    for text, x in (("1/x", 0.0), ("ln(x)", -1.0), ("sqrt(x)", -1.0), ("x^0.5", -1.0), ("y", 1.0)):
        with pytest.raises(EvalDomainError) as info:
            evaluate(parse(text, ["x", "y"]), {"x": x})
        assert not info.value.overflow, text


def test_errors_carry_the_parsed_text():
    for text in ("x + )", "x $ 1", "2x"):
        with pytest.raises(ParseError) as info:
            parse(text, ["x"])
        assert info.value.source == text
    compiled = "1 + ln(x)"
    interpreted = "+".join(["x"] * 600) + "+ln(x)"  # past the node cap
    for text in (compiled, interpreted):
        tree = parse(text, ["x"])
        assert (tree._program is None) == (text is interpreted)
        with pytest.raises(EvalDomainError) as info:
            evaluate(tree, {"x": -1.0})
        assert info.value.source == text
        assert text[info.value.offset :].startswith("ln(")
        # the positional callable raises the same error
        with pytest.raises(EvalDomainError) as info:
            as_function(tree, ["x"])(-1.0)
        assert info.value.source == text


def test_trees_not_from_parse_carry_no_text():
    assert ParseError("bad", 0).source is None
    built = BinOp("/", Num(1.0, 0), Var("x", 2), 1)
    copy = pickle.loads(pickle.dumps(parse("1/x", ["x"])))
    assert copy == built and copy._source is None
    for tree in (built, copy):
        with pytest.raises(EvalDomainError, match="division by zero at offset 1") as info:
            evaluate(tree, {"x": 0.0})
        assert info.value.source is None

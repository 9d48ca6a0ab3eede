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
    integrate_1d,
    newton_solve,
    parse,
    to_string,
    verify_derivative,
)
from calcverify import _nest, _separable, expr, quadrature
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


def _served(f):
    # f's nest with what it returned recorded, copied before apply_rule_box extends it
    served = []

    def nest(axes, nest=f._nest):
        terms = nest(axes)
        served.append(list(terms))
        return terms

    f._nest = nest
    return served


@pytest.fixture
def nest_every_grid(monkeypatch):
    # apply_rule_box hands only grids of _NEST_MIN_POINTS points or more to the
    # nest; the tests that take this keep their small grids and run the nest
    monkeypatch.setattr(quadrature, "_NEST_MIN_POINTS", 1)


def _number(v):
    try:
        return float(v)
    except (TypeError, ValueError):
        return 0.0


def test_compiled_evaluation_matches_the_interpreter():
    # evaluate runs the checked interpreter under any functions; a parsed
    # tree's loop nest, run over one point with unit weights, must give the
    # interpreter's bits wherever it finishes the point
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
            # a binding the tree does not read may be missing or not a number
            point = [_number(bindings.get(name)) for name in "xy"]
            terms = as_function(tree, ["x", "y"])._nest([[(v, 1.0)] for v in point])
            if terms:
                assert _outcome(lambda: terms[0]) == expected
                compiled += 1
    # the nest finishes most points that have a value
    assert values > 3000 and compiled > 0.95 * values


def test_alternating_trees_generate_code_once_each(monkeypatch, nest_every_grid):
    generated = []
    generate = _nest._generate
    monkeypatch.setattr(_nest, "_generate", lambda order, *rest: generated.append(order) or generate(order, *rest))
    f = as_function(parse("x^3 - 2*x", ["x"]), ["x"])
    fprime = as_function(parse("3*x^2 - 2", ["x"]), ["x"])
    trees = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda e, *rest: trees.append(e) or evaluate(e, *rest))
    assert newton_solve(f, 1.0, 2.0, fprime=fprime).converged
    verify_derivative(f, fprime, 0.7)
    switches = sum(a is not b for a, b in zip(trees, trees[1:]))
    assert generated == [] and switches > 4  # point by point, evaluate is the interpreter
    monkeypatch.setattr(expr, "evaluate", evaluate)
    # a nest is generated once per tree and variable order, however the integrals
    # alternate; x/y and x^y read two axes, so neither tree is summed axis by axis
    rule, box = quadrature.gauss_rule(4), quadrature.Box((0.5, 1.0), (1.5, 2.0))
    trees = [parse("x^3 - x/y", ["x", "y"]), parse("3*x^y - y", ["x", "y"])]
    assert not any(map(_is_separable, trees))
    for _ in range(3):
        for tree in trees:
            for names in (["x", "y"], ["y", "x"]):
                quadrature.apply_rule_box(rule, as_function(tree, names), box)
    assert len(generated) == 4 and [list(tree._nests) for tree in trees] == [[("x", "y"), ("y", "x")]] * 2


def test_only_parsed_trees_under_the_default_builtins_generate_code(monkeypatch, nest_every_grid):
    generated = []
    generate = _nest._generate
    monkeypatch.setattr(_nest, "_generate", lambda order, *rest: generated.append(order) or generate(order, *rest))
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
    rule, box = quadrature.gauss_rule(3), quadrature.Box((0.5, 1.0), (1.5, 2.0))
    for tree, functions in ((built, None), (unpickled, None), (parsed, swapped), (built, swapped)):
        f = as_function(tree, ["x", "y"], functions)
        assert not hasattr(f, "_nest")
        quadrature.apply_rule_box(rule, f, box)
    assert generated == []
    assert evaluate(parsed, {"x": 0.5, "y": 2.0}) == math.sin(0.5) / 2.0 + math.log(1.0)
    assert generated == []  # evaluate interprets; only an integral's nest is generated
    quadrature.apply_rule_box(rule, as_function(parsed, ["x", "y"]), box)
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
    # the loop nest nest(axes) binds _pow, _isfinite, _c<i>, _f<i>, _t<i>,
    # _v<k>, _w<k>, _w01, _r<k> (axis k's table), _terms, _term and _append;
    # no variable name reaches its source
    names = ["_F", "_b", "_v0", "_t1", "_c0", "float", "_n0", "_k1", "_pow", "_isfinite", "program"]
    values = {name: 1.0 + i / 8 for i, name in enumerate(names)}
    text = "_F*_b + _v0 - _t1/_c0 + float^2 + sin(_n0) - _k1*_pow + _isfinite/program + 0.5"
    v = values
    expected = (
        v["_F"] * v["_b"] + v["_v0"] - v["_t1"] / v["_c0"] + math.pow(v["float"], 2.0)
        + math.sin(v["_n0"]) - v["_k1"] * v["_pow"] + v["_isfinite"] / v["program"] + 0.5
    )
    tree = parse(text, names)
    assert evaluate(tree, values) == expected
    assert as_function(tree, names)(*values.values()) == expected


def test_variables_named_like_memo_names(nest_every_grid):
    # names the former memo levels generated (_s, _D, _M<k>, _n<k>) mixed with
    # the loop nest's own (_f<i>, _r<k>, _v<k>, _w<k>, _c<i>)
    names = ["_s", "_D", "_M1", "_f3", "_r1", "_v1", "_w1", "_c0", "_M0", "_r2", "_n1", "z"]
    text = "sin(_s)*exp(_D/_M1) + _f3*_r1 - _v1^_w1/_c0 + _M0*ln(_r2) + sqrt(_n1) + cos(z)"
    tree = parse(text, names)
    f = as_function(tree, names)
    values = {name: 1.0 + i / 8 for i, name in enumerate(names[:-2])}
    for n1 in (0.5, 2.0):
        for z in (0.25, 0.5, 0.75):
            v = {**values, "_n1": n1}
            expected = (
                math.sin(v["_s"]) * math.exp(v["_D"] / v["_M1"]) + v["_f3"] * v["_r1"]
                - math.pow(v["_v1"], v["_w1"]) / v["_c0"] + v["_M0"] * math.log(v["_r2"])
                + math.sqrt(n1) + math.cos(z)
            )
            assert evaluate(tree, {**v, "z": z}) == expected
            assert f(*v.values(), z) == expected
    # the same names as the variables of a box whose second and third axes get a table
    box, rule = quadrature.Box((0.5,) * 3, (1.5,) * 3), quadrature.gauss_rule(3)
    plain = lambda x, y, z: math.sin(x) * math.exp(y / 2) + z / (1 + x * x) + math.cos(z)  # noqa: E731
    for names in (["nest", "axes", "_terms"], ["_append", "_term", "_w01"], ["_a0", "_w0", "_r1"], ["_f3", "_r2", "_t1"]):
        a, b, c = names
        tree = parse(f"sin({a})*exp({b}/2) + {c}/(1 + {a}*{a}) + cos({c})", names)
        f = as_function(tree, names)
        served = _served(f)
        assert quadrature.apply_rule_box(rule, f, box) == quadrature.apply_rule_box(rule, plain, box)
        assert len(served[0]) == 3**3 and list(tree._nests) == [tuple(names)]


def test_a_late_non_finite_temp_fails_the_chunked_check():
    # y is tested as the divisor of 70 quotients, then x*y*y overflows and
    # 1/(x*y*y) is 0, so only the second chunk of the y loop's check can see
    # it; the divisor reads x as well, so it stays in the y loop, not y's table
    text = "+".join(["x/y"] * 70) + " + 1/(x*y*y)"
    tree = parse(text, ["x", "y"])
    terms = as_function(tree, ["x", "y"])._nest([[(1.0, 1.0)], [(2.0, 1.0), (1e200, 1.0)]])
    assert terms == [35.25]  # fewer terms than the grid has points: the nest stopped at y = 1e200
    with pytest.raises(EvalDomainError, match=f"non-finite result at offset {text.rindex('*')}") as info:
        evaluate(tree, {"x": 1.0, "y": 1e200})
    assert info.value.overflow
    assert evaluate(tree, {"x": 1.0, "y": 2.0}) == 35.25


def test_a_tree_over_200_variables_gives_the_interpreters_bits():
    names = ["v%d" % k for k in range(200)]
    funcs = itertools.cycle(["sin", "exp", "sqrt", "cos"])
    tree = parse(" + ".join("%s(%s)" % (func, name) for func, name in zip(funcs, names)), names)
    order = expr._postorder(tree)
    f = as_function(tree, names)
    early = [k / 200 for k in range(197)]
    for first in (0.5, 0.25):
        early[0] = first
        for point in itertools.product((0.5, 1.5), (0.25, -0.75), (1.0, 2.0)):
            values = [*early, *point]
            bindings = dict(zip(names, values))
            expected = _outcome(lambda: expr._interpret(order, bindings, expr._DEFAULT_IMPLS))
            assert _outcome(lambda: evaluate(tree, bindings)) == expected
            assert _outcome(lambda: f(*values)) == expected


# literals and axis values where a non-finite value can vanish or a domain ends
_GRID_LITERALS = (0.5, 2.0, 3.0, 710.0, 800.0, 1e200, 1e-300)
_GRID_VALUES = (0.0, -0.0, 1.0, -1.5, 0.75, 710.0, -745.5, 1e155, 1e300, math.inf, -math.inf, math.nan)


def _grid_tree(rng, depth, names="xyz"):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(rng.choice(_GRID_LITERALS), 0)
        return Var(rng.choice(names), 0)
    pick = rng.random()
    if pick < 0.1:
        return Neg(_grid_tree(rng, depth - 1, names), 0)
    if pick < 0.4:
        return Call(rng.choice(_FUNCS), _grid_tree(rng, depth - 1, names), 0)
    return BinOp(rng.choice("+-*/^"), _grid_tree(rng, depth - 1, names), _grid_tree(rng, depth - 1, names), 0)


def test_grid_evaluation_matches_the_interpreter_in_every_loop_order():
    # every loop order makes a different axis innermost, so the loop nest of a
    # parsed tree places each statement at another level; with unit weights,
    # each term it finishes is the interpreter's value at that point
    rng = random.Random(1717)
    finished = 0
    for k in range(150):
        tree = _grid_tree(rng, 5)
        if k % 3:
            tree = parse(full_parens(tree), ["x", "y", "z"])  # declared names: the tree gets a nest
        order = expr._postorder(tree)
        axes = {name: [rng.choice(_GRID_VALUES) for _ in range(3)] for name in "xyz"}
        for loop in itertools.permutations("xyz"):
            expected = []
            for point in itertools.product(*(axes[name] for name in loop)):
                bindings = dict(zip(loop, point))
                expected.append(_outcome(lambda: expr._interpret(order, bindings, expr._DEFAULT_IMPLS)))
                assert _outcome(lambda: evaluate(tree, bindings)) == expected[-1], (tree, bindings)
            if k % 3:
                terms = as_function(tree, loop)._nest([[(v, 1.0) for v in axes[name]] for name in loop])
                assert [_outcome(lambda: term) for term in terms] == expected[: len(terms)], (tree, loop)
                finished += len(terms) == 27
    assert finished > 100


def test_a_failed_point_is_not_memoized():
    # x*x overflows and 1/(x*x) is 0: the interpreter keeps nothing between
    # calls, so the same bindings fail again and a later point is unaffected
    text = "1/(x*x) + y"
    tree = parse(text, ["x", "y"])
    bindings = {"x": 1e200, "y": 1.0}
    for _ in range(2):
        with pytest.raises(EvalDomainError, match=f"non-finite result at offset {text.index('*')}"):
            evaluate(tree, bindings)
    assert evaluate(tree, {"x": 2.0, "y": 1.0}) == 1.25


def test_a_late_non_finite_divisor_fails_the_chunked_outer_loop_check():
    # the x loop of the nest tests 70 finite divisors before x*x, which
    # overflows while 1/(x*x) is 0: only the last chunk of that check can see
    # it, and the nest stops before any point of x = 1e200
    text = "+".join(["1/x"] * 70) + " + 1/(x*x) + z"
    tree = parse(text, ["x", "z"])
    bindings = {"x": 1e200, "z": 1.0}
    for _ in range(2):
        with pytest.raises(EvalDomainError, match=f"non-finite result at offset {text.index('*')}"):
            evaluate(tree, bindings)
    terms = as_function(tree, ["x", "z"])._nest([[(1.0, 1.0), (1e200, 1.0)], [(1.0, 1.0), (2.0, 1.0)]])
    assert terms == [72.0, 73.0]


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
            evaluate(tree, {"x": x, "y": y})  # the builtins, in between, call no custom function
            expected = math.sin(x) * math.cos(y) + math.sin(2 * x)
            assert evaluate(tree, {"x": x, "y": y}, functions) == expected
    assert sorted(calls) == ["cos"] * 6 + ["sin"] * 12


def test_a_box_computes_each_one_axis_factor_once_per_node(monkeypatch):
    # sin reads x, cos y and exp z, so an n^3 grid calls each n times: the
    # loop nest runs x's calls in x's loop and tabulates those of y and z
    # once per node; cos(y*z) reads two axes and still runs once per point
    calls = {name: [] for name in ("sin", "cos", "exp")}
    for name, log in calls.items():
        monkeypatch.setitem(expr._DEFAULT_IMPLS, name, lambda t, log=log, f=getattr(math, name): log.append(t) or f(t))
    names = ["x", "y", "z"]
    n, box = 6, quadrature.Box((0.0,) * 3, (1.0,) * 3)
    for text, cos_calls in (("sin(x)*cos(y)*exp(z)", n), ("sin(x) + cos(y)*exp(z)", n), ("sin(x)*cos(y*z)*exp(z)", n**3)):
        for log in calls.values():
            log.clear()
        tree = parse(text, names)
        value = quadrature.apply_rule_box(quadrature.gauss_rule(n), as_function(tree, names), box)
        assert (len(calls["sin"]), len(calls["cos"]), len(calls["exp"])) == (n, cos_calls, n), text
        order = expr._postorder(tree)
        checked = lambda x, y, z: expr._interpret(order, {"x": x, "y": y, "z": z}, expr._DEFAULT_IMPLS)  # noqa: E731
        assert value == quadrature.apply_rule_box(quadrature.gauss_rule(n), checked, box)


_VANISHING = ("exp(-({v}*1e300))", "2/({v}*1e300) + 1", "({v}*1e300)^0", "0.5^({v}*1e300)", "1^({v}*1e300)")


def _is_separable(tree):
    # every factor of every term reads one variable at most, so apply_rule_box
    # sums the tree axis by axis on a grid that would run its nest
    return all(
        len({node.name for node in factor._order if type(node) is Var}) <= 1
        for _, term in _separable._split(tree, "+-")
        for _, factor in _separable._split(term, "*")
    )


def _box_outcome(call):
    try:
        return float(call()).hex()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc).__name__, str(exc), getattr(exc, "offset", None), getattr(exc, "source", None)


def test_the_loop_nest_gives_the_per_point_loops_bits_and_errors(monkeypatch, nest_every_grid):
    # under a wrapped evaluate, apply_rule_box calls the integrand point by
    # point, here running the checked interpreter under the default builtins
    # or under custom functions that change none; the nest must give the same
    # bits, or the same error at the same point.  Hand-built rules put
    # infinite and NaN nodes and weights on the axes.  A tree over two axes or
    # more is drawn again until it is not separable, which runs no nest.
    rng = random.Random(2026)
    real = expr.evaluate
    routes = (
        real,
        lambda e, bindings, functions=None: real(e, bindings),
        lambda e, bindings, functions=None: real(e, bindings, {}),
    )
    bounds = (-745.5, -1e300, -1.0, -0.0, 0.0, 5e-324, 0.5, 710.0, 1e300, 1.7e308)
    pairs = [(a, b) for a in bounds for b in bounds if a < b]
    odd = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 710.0, -745.5, math.inf, -math.inf, math.nan)
    values, nested = 0, 0  # cases with a value, and those of them the nest summed
    for k in range(360):
        names = "xyz"[: 1 + k % 3]
        if k % 6 == 5:  # a non-finite value that a tested operand alone stops from vanishing
            text = rng.choice(_VANISHING).format(v="*".join(rng.sample(names, 2)))
        else:
            text = full_parens(_grid_tree(rng, 4, names))
            while len(names) > 1 and _is_separable(parse(text, list(names))):
                text = full_parens(_grid_tree(rng, 4, names))
        tree = parse(text, list(names))
        assert len(names) == 1 or not _is_separable(tree)
        box = quadrature.Box(*zip(*(rng.choice(pairs) for _ in names)))
        rule = quadrature.gauss_rule(rng.randint(1, 4))
        if k % 4 == 0:
            nodes = tuple(rng.choice(odd) for _ in range(rule.n))
            rule = quadrature.QuadratureRule(rule.n, nodes, tuple(abs(rng.choice(odd)) for _ in nodes))
        outcomes, served = [], []  # per route: its outcome, and what its nest returned
        for evaluate in routes:
            monkeypatch.setattr(expr, "evaluate", evaluate)
            f = as_function(tree, list(names))
            log = _served(f)
            outcomes.append(_box_outcome(lambda: quadrature.apply_rule_box(rule, f, box)))
            served += log
        assert outcomes[0] == outcomes[1] == outcomes[2], (text, box, rule)
        assert served[1:] == [[], []]  # a wrapped evaluate turns the nest off
        if isinstance(outcomes[0], str):
            values += 1
            nested += len(served[0]) == rule.n ** len(names)
    assert 0.2 * 360 < values < 0.8 * 360 and nested > 0.9 * values


def test_a_stopped_table_gives_the_per_point_loops_bits_and_errors(monkeypatch, nest_every_grid):
    # each pattern reads one inner axis alone, so the nest computes it in that
    # axis's table before any loop runs: where the table stops, the nest has
    # finished no term, and the integral must still give the per-point loop's
    # bits under a wrapped evaluate, or the same error at the same point.  The
    # pattern multiplies a sum that reads two axes, so the tree is not separable
    real = expr.evaluate
    errors = values = 0
    for names, v in ((["x", "y"], "y"), (["x", "y", "z"], "y"), (["x", "y", "z"], "z")):
        # (x + y) in 2-D, as x alone would leave the tree separable; (x + z) or (x + y) in 3-D
        others = "(%s)" % " + ".join(name for name in names if name != v or len(names) == 2)
        for pattern in _VANISHING + ("ln(0.97 - {v})",):
            text = f"{others}*({pattern.format(v=v)})"
            tree = parse(text, names)
            assert not _is_separable(tree)
            for lo, hi in ((0.0, 1.0), (-1.0, 0.0), (0.0, 1e300), (-1e-300, 1e-300)):
                box = quadrature.Box(*zip(*((lo, hi) if name == v else (0.0, 1.0) for name in names)))
                for n in (3, 8):
                    rule = quadrature.gauss_rule(n)
                    f = as_function(tree, names)
                    served = _served(f)
                    outcome = _box_outcome(lambda: quadrature.apply_rule_box(rule, f, box))
                    with monkeypatch.context() as m:
                        m.setattr(expr, "evaluate", lambda e, bindings, functions=None: real(e, bindings))
                        g = as_function(tree, names)
                        assert _box_outcome(lambda: quadrature.apply_rule_box(rule, g, box)) == outcome, (text, box, n)
                    if isinstance(outcome, str):
                        values += 1
                        assert len(served[0]) == n ** len(names), (text, box, n)
                    else:
                        errors += 1
                        assert served[0] == [] and outcome[3] == text, (text, box, n)
    assert errors > 30 and values > 30


def test_finite_tested_values_whose_sum_overflows_pass_the_check():
    # both divisors are ~1e308, so their sum overflows, yet each is finite;
    # x^y reads two axes, so the tree runs the nest, not the axis sums
    names, n = ["x", "y", "z"], 16
    tree = parse("1/(z + 1e308) + 2/(z + 1e308) + x^y", names)
    f, box = as_function(tree, names), quadrature.Box((0.0,) * 3, (1.0,) * 3)
    served = _served(f)
    value = quadrature.apply_rule_box(quadrature.gauss_rule(n), f, box)
    assert len(served[0]) == n**3 and not _is_separable(tree)
    assert value == quadrature.apply_rule_box(quadrature.gauss_rule(n), lambda *v: f(*v), box)
    # the integral of x^y over the unit square is ln 2; x^y's kink at x = 0 slows Gauss down
    assert abs(value - math.log(2.0)) < 1e-4


def test_a_stopped_nest_reruns_one_outer_node(monkeypatch, nest_every_grid):
    # the nest stops at x's last node, at (x, y) = (7, 7), at the very last
    # point, and in a 2-D box; apply_rule_box keeps the outer nodes it finished
    # and calls the integrand at most n^(d-1) times for the error, which must
    # be the one the per-point loop under a wrapped evaluate raises
    n = 8
    rule, real = quadrature.gauss_rule(n), expr.evaluate
    for text, d in (("ln(0.97 - x)*y*z", 3), ("ln(0.95 - x*y)*z", 3), ("exp(800*x*y*z)", 3), ("sqrt(0.9 - x*y)", 2)):
        names, box = list("xyz"[:d]), quadrature.Box((0.0,) * d, (1.0,) * d)
        tree = parse(text, names)
        f, calls = as_function(tree, names), []
        counted = lambda *point, f=f: calls.append(point) or f(*point)  # noqa: E731
        counted._nest = f._nest
        served = _served(counted)
        outcome = _box_outcome(lambda: quadrature.apply_rule_box(rule, counted, box))
        assert (n - 1) * n ** (d - 1) <= len(served[0]) < n**d and 0 < len(calls) <= n ** (d - 1), text
        with monkeypatch.context() as m:
            m.setattr(expr, "evaluate", lambda e, bindings, functions=None: real(e, bindings))
            assert _box_outcome(lambda: quadrature.apply_rule_box(rule, as_function(tree, names), box)) == outcome
        assert (outcome[0], outcome[3]) == ("EvalDomainError", text)
    # an infinite second node stops the nest at a divisor that the interpreter
    # takes to 0 (in 2-D at the second point, inside the first outer node, as
    # the quotient reads both axes and so runs in the y loop): the per-point
    # loop finishes the integral from the outer node it stopped in
    g = quadrature.gauss_rule(4)
    rule = quadrature.QuadratureRule(4, (g.nodes[0], math.inf, *g.nodes[2:]), g.weights)
    for text, d in (("1/x", 1), ("1/x/y", 2)):
        names, box = list("xy"[:d]), quadrature.Box((0.0,) * d, (1.0,) * d)
        tree = parse(text, names)
        f = as_function(tree, names)
        served = _served(f)
        value = quadrature.apply_rule_box(rule, f, box)
        checked = lambda *point: expr._interpret(tree._order, dict(zip(names, point)), expr._DEFAULT_IMPLS)  # noqa: E731
        assert len(served[0]) == 1 and value == quadrature.apply_rule_box(rule, checked, box), text


def test_only_a_grid_of_the_threshold_or_more_generates_code(monkeypatch):
    # 2-D grids of T - 1 and T points, at the threshold and at one lowered to
    # 8^2: both give the per-point interpreter's bits, or for ln(0.97 - x)*y,
    # whose last x nodes pass 0.97, its exact error, offset and source; only
    # the T-point grid generates code
    generated, generate, real = [], _nest._generate, expr.evaluate
    monkeypatch.setattr(_nest, "_generate", lambda order, *rest: generated.append(order) or generate(order, *rest))
    names, box = ["x", "y"], quadrature.Box((0.0, 0.0), (1.0, 1.0))
    below = math.isqrt(quadrature._NEST_MIN_POINTS - 1)  # below^2 <= T - 1 < (below + 1)^2
    cases = [(below, None, False), (below + 1, None, True), (8, 65, False), (8, 64, True)]
    errors = 0
    for text in ("sin(x)*exp(y) + x/(1 + y)", "ln(0.97 - x)*y"):
        for n, threshold, nested in cases:
            rule = quadrature.gauss_rule(n)
            with monkeypatch.context() as m:
                m.setattr(expr, "evaluate", lambda e, bindings, functions=None: real(e, bindings))
                expected = _box_outcome(lambda: quadrature.apply_rule_box(rule, as_function(parse(text, names), names), box))
            with monkeypatch.context() as m:
                if threshold is not None:
                    m.setattr(quadrature, "_NEST_MIN_POINTS", threshold)
                assert (n * n >= quadrature._NEST_MIN_POINTS) == nested
                del generated[:]
                f = as_function(parse(text, names), names)
                assert _box_outcome(lambda: quadrature.apply_rule_box(rule, f, box)) == expected, (text, n)
                assert len(generated) == nested, (text, n, threshold)
            errors += not isinstance(expected, str)
    assert errors == len(cases)


def test_a_wrapped_evaluate_sees_every_point_of_a_box(monkeypatch):
    # the nest runs only under expr's own evaluate, so a wrapper set on it
    # (a tracer counting evaluations) is called once per grid point
    names, n = ["x", "y", "z"], 5
    tree = parse("sin(x)*cos(y)*exp(z) + ln(x + y)", names)
    rule, box = quadrature.gauss_rule(n), quadrature.Box((0.5,) * 3, (1.5,) * 3)
    value = quadrature.apply_rule_box(rule, as_function(tree, names), box)
    assert list(tree._nests) == [tuple(names)]
    points, real = [], expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda e, bindings, functions=None: points.append(bindings) or real(e, bindings))
    assert quadrature.apply_rule_box(rule, as_function(tree, names), box) == value
    assert len(points) == n**3


# --- separable trees: products of one-axis sums -------------------------------

# one-variable factors: those that evaluate everywhere on the boxes below, and
# those that overflow, leave their domain or divide by zero somewhere
_SAFE_FACTORS = ("sin({c}*{v})", "cos({v} + {c})", "exp({c}*{v})", "{v}^2", "({v} - {c})", "sqrt({v}^2 + {c})", "{c}")
_FAILING_FACTORS = (
    "exp(800*{v})", "exp(700*{v})", "{v}^400", "1e300*{v}", "1e300",
    "ln({v} - {c})", "sqrt({c} - {v})", "ln({v})", "1/(0*{v})", "{c}/{v}",
)
_PLAIN_SIDES = ((0.0, 1.0), (-1.0, 1.0), (0.5, 2.0), (-2.0, 0.5), (1.0, 3.0))
# (0, 1e100) keeps its weights unscaled while values times weights overflow; the
# others are rescaled: too wide for the weight product, or a subnormal half-width
_ODD_SIDES = ((0.0, 1e100), (0.0, 1e300), (-1e308, 1e308), (0.0, 5e-324), (-1e-320, 1e-320))


def _separable_terms(rng, names, forms, cancel=False):
    # the texts of a few terms, each a product of one-variable factors, and their signs
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [
            rng.choice(forms).format(v=rng.choice(names), c=rng.choice((0.5, 1.5, 2.0, 3.0)))
            for _ in range(rng.randint(1, 3))
        ]
        terms.append((rng.choice("+-"), "*".join(factors)))
        if cancel:  # the same term in another order, which rounds differently
            terms.append(("-" if terms[-1][0] == "+" else "+", "*".join(reversed(factors))))
    return terms


def _grid_size(rng):
    # a grid over two or three axes at the nest's threshold or above
    names = rng.choice((["x", "y"], ["x", "y", "z"], ["y", "x"]))
    n = rng.randint(11, 16) if len(names) == 2 else rng.randint(5, 7)
    assert n ** len(names) >= quadrature._NEST_MIN_POINTS
    return names, n


def _absolute_sum(terms, names, rule, box):
    # M: the weighted sum over the grid of the sum of |term|, as apply_rule_box weighs it
    orders = [parse(text, names)._order for _, text in terms]
    axes = [
        [((b - a) / 2.0 * x + (b + a) / 2.0, (b - a) / 2.0 * w) for x, w in zip(rule.nodes, rule.weights)]
        for a, b in zip(box.lo, box.hi)
    ]
    return math.fsum(
        math.prod(w for _, w in point)
        * sum(abs(expr._interpret(order, dict(zip(names, (x for x, _ in point))), expr._DEFAULT_IMPLS)) for order in orders)
        for point in itertools.product(*axes)
    )


def _separable_bound(tree, names, terms, rule, box):
    # _separable's bound on |factorised - point route|: (q + 3d + 2) u M
    return (len(tree._order) + 3 * len(names) + 2) * 2.0**-53 * _absolute_sum(terms, names, rule, box)


def test_separable_trees_sum_each_axis_once_within_the_bound(monkeypatch):
    # seeded separable integrands, half of them with terms that cancel: the axis
    # sums run instead of the nest and lie within the stated bound of the point route
    monkeypatch.setattr(_nest, "_generate", lambda *args: pytest.fail("a separable tree generated a nest"))
    rng = random.Random(3434)
    moved = cancelled = 0
    for k in range(60):
        names, n = _grid_size(rng)
        terms = _separable_terms(rng, names, _SAFE_FACTORS, cancel=k % 2 == 1)
        text = " ".join(f"{sign} {term}" for sign, term in terms).lstrip("+ ")
        tree, rule = parse(text, names), quadrature.gauss_rule(n)
        box = quadrature.Box(*zip(*(rng.choice(_PLAIN_SIDES) for _ in names)))
        f = as_function(tree, names)
        value = quadrature.apply_rule_box(rule, f, box)
        point = quadrature.apply_rule_box(rule, lambda *v: f(*v), box)
        bound = _separable_bound(tree, names, terms, rule, box)
        assert abs(value - point) <= bound, (text, box, n, value, point, bound)
        moved += value != point
        cancelled += abs(point) < 1e-6 * bound / 2.0**-53
    # a few values move, by rounding alone; cancelling terms leave little of M
    assert 0 < moved < 60 and cancelled >= 20


def test_the_axis_sums_give_the_point_routes_errors(monkeypatch):
    # factors that overflow, leave their domain or divide by zero, on boxes with
    # unscaled and rescaled weights: where either route raises, both raise the
    # same error at the same point; where both give a value, the axis sums
    # give the point route's bits or a value within the bound
    rng = random.Random(4545)
    summed = []
    integral = _separable.integral
    monkeypatch.setattr(_separable, "integral", lambda *args: summed.append(integral(*args)) or summed[-1])
    # first, two trees whose axis sums and their products are finite while the
    # point route overflows: at the sum of the terms, and at the first product
    # of factors, which the axis sums multiply in another order
    fixed = [
        ([("+", "exp(709.7*x)"), ("+", "exp(709.7*y)")], ["x", "y"], 16, ((0.99, 1.0),) * 2),
        ([("+", "exp(700*x)*exp(700*y)*exp(-700*z)")], ["z", "x", "y"], 6, ((0.0, 1.0),) * 3),
    ]
    errors = values = 0
    for k in range(150 + len(fixed)):
        if k < len(fixed):
            terms, names, n, sides = fixed[k]
        else:
            names, n = _grid_size(rng)
            terms = _separable_terms(rng, names, _SAFE_FACTORS * 4 + _FAILING_FACTORS)
            sides = [rng.choice(_PLAIN_SIDES * 2 + _ODD_SIDES) for _ in names]
        text = " ".join(f"{sign} {term}" for sign, term in terms).lstrip("+ ")
        tree, rule, box = parse(text, names), quadrature.gauss_rule(n), quadrature.Box(*zip(*sides))
        f, seen = as_function(tree, names), [None]

        def watched(*v, f=f, seen=seen):
            seen[0] = v
            return f(*v)

        watched._nest, watched._product = f._nest, f._product
        del summed[:]
        fast = _box_outcome(lambda: quadrature.apply_rule_box(rule, watched, box))
        fast_point, seen[0] = seen[0], None
        bare = _box_outcome(lambda: quadrature.apply_rule_box(rule, lambda *v: watched(*v), box))
        if isinstance(fast, str) and isinstance(bare, str):
            values += 1
            if summed and summed[0] is not None:
                bound = _separable_bound(tree, names, terms, rule, box)
                assert abs(float.fromhex(fast) - float.fromhex(bare)) <= bound, (text, box, n)
                continue
        else:
            errors += 1
            # the nest's rerun calls the integrand up to the failing point; an
            # overflowing sum of finished terms fails at no point
            assert fast_point == seen[0] or (fast_point is None and fast[1].startswith("the sum")), (text, box, n)
            assert summed in ([None], []), (text, box, n)  # handed back, or not offered
        assert fast == bare, (text, box, n)
        assert k >= len(fixed) or fast[0] == "EvalDomainError", text
    assert errors > 40 and values > 40


def test_a_wrapped_evaluate_sees_every_point_of_a_separable_box(monkeypatch):
    # the traced bench run wraps expr.evaluate and compares its stdout with an
    # untraced run's: the wrapper is called once per point, and the value keeps its bits
    names, n = ["x", "y", "z"], 32
    tree = parse("2*sin(x)*cos(y)*exp(z) - x^2*z + 0.5", names)
    rule, box = quadrature.gauss_rule(n), quadrature.Box((0.0, -1.0, 0.5), (1.0, 1.0, 2.0))
    value = quadrature.apply_rule_box(rule, as_function(tree, names), box)
    assert tree._nests == {}  # summed axis by axis: no nest was generated
    calls, real = [0], expr.evaluate

    def counting(e, bindings, functions=None):
        calls[0] += 1
        return real(e, bindings, functions)

    monkeypatch.setattr(expr, "evaluate", counting)
    assert quadrature.apply_rule_box(rule, as_function(tree, names), box).hex() == value.hex()
    assert calls[0] == n**3


@pytest.mark.parametrize("sides, n", [(((0.0, 1.0),) * 3, 5), (((0.0, 1.0),) * 2, 11)])
def test_a_box_of_another_dimension_than_the_names_raises_on_a_separable_grid(sides, n):
    # a grid at the nest's threshold, with one axis more or fewer than the
    # callable's names: the axis sums are not offered, and the point loops
    # raise the callable's TypeError, as on a small grid or a traced run
    names = ["x", "y"] if len(sides) == 3 else ["x", "y", "z"]
    assert n ** len(sides) >= quadrature._NEST_MIN_POINTS
    f = as_function(parse("x*y", names), names)
    box = quadrature.Box(*zip(*sides))
    message = f"expected {len(names)} values, got {len(sides)}"
    with pytest.raises(TypeError, match=message):
        quadrature.apply_rule_box(quadrature.gauss_rule(n), f, box)
    with pytest.raises(TypeError, match=message):
        quadrature.apply_rule_box(quadrature.gauss_rule(n), lambda *v: f(*v), box)


def test_threads_sharing_a_tree_get_the_interpreters_bits():
    # the threads integrate one tree in all six variable orders, so they
    # build and run the nests of its shared _nests dict at once; each integral
    # must give the bits of the per-point loop through the interpreter
    tree = parse("sin(x)*cos(y)*exp(z) + ln(x + y)", ["x", "y", "z"])
    order = expr._postorder(tree)
    rule = quadrature.gauss_rule(5)
    failures, done = [], []

    def sweep(k):
        names = list(itertools.permutations("xyz"))[k]
        box = quadrature.Box((0.5 + k,) * 3, (1.5 + k,) * 3)
        checked = lambda *point: expr._interpret(order, dict(zip(names, point)), expr._DEFAULT_IMPLS)  # noqa: E731
        expected = quadrature.apply_rule_box(rule, checked, box)
        for _ in range(10):
            if quadrature.apply_rule_box(rule, as_function(tree, names), box) != expected:
                failures.append(k)
        done.append(k)

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(6)]
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
    assert failures == [] and len(done) == len(threads) and len(tree._nests) == 6


def test_trees_past_the_node_cap_are_interpreted():
    small = parse("+".join(["x"] * 400), ["x"])
    large = parse("+".join(["x"] * 600), ["x"])
    assert small._nests is not None and large._nests is None
    assert hasattr(as_function(small, ["x"]), "_nest") and not hasattr(as_function(large, ["x"]), "_nest")
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
        assert (tree._nests is None) == (text is interpreted)
        with pytest.raises(EvalDomainError) as info:
            evaluate(tree, {"x": -1.0})
        assert info.value.source == text
        assert text[info.value.offset :].startswith("ln(")
        # the positional callable raises the same error, and so does an
        # integral, whose 3-point grid runs no nest
        for call in (lambda: as_function(tree, ["x"])(-1.0), lambda: integrate_1d(as_function(tree, ["x"]), -2, -1, 3)):
            with pytest.raises(EvalDomainError) as info:
                call()
            assert info.value.source == text
            assert text[info.value.offset :].startswith("ln(")


def test_trees_not_from_parse_carry_no_text():
    assert ParseError("bad", 0).source is None
    built = BinOp("/", Num(1.0, 0), Var("x", 2), 1)
    copy = pickle.loads(pickle.dumps(parse("1/x", ["x"])))
    assert copy == built and copy._source is None
    for tree in (built, copy):
        with pytest.raises(EvalDomainError, match="division by zero at offset 1") as info:
            evaluate(tree, {"x": 0.0})
        assert info.value.source is None

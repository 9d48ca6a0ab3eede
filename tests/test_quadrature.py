import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from calcverify import (
    Box,
    CalcVerifyError,
    CapabilityError,
    DomainError,
    NumericError,
    QuadratureRule,
    apply_rule_box,
    as_function,
    convergence_table,
    cordic_table,
    gauss_rule,
    gauss_weights_linear_system,
    get_or_build,
    integrate_1d,
    integrate_box,
    legendre_gram_schmidt,
    legendre_recurrence,
    legendre_roots,
    newton_solve,
    parse,
    secant_solve,
    verify_antiderivative,
)
from calcverify import legendre, quadrature
from calcverify.cli import main
from calcverify.quadrature import _fsum, _half_width, _midpoint, _term_error, apply_rule


def test_rule_examples():
    r1 = gauss_rule(1)
    assert r1.nodes == (0.0,) and r1.weights == (2.0,)
    r2 = gauss_rule(2)
    assert r2.nodes[1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert r2.weights == (1.0, 1.0)
    r3 = gauss_rule(3)
    assert r3.nodes[2] == pytest.approx(math.sqrt(3 / 5), abs=1e-15)
    # closed-form weights at the P_3 roots match the 3x3 moment system by hand
    assert r3.weights == (5 / 9, 8 / 9, 5 / 9)


def test_rule_matches_legendre_roots():
    for n in (1, 2, 5, 12, 33, 64):
        assert gauss_rule(n).nodes == legendre_roots(n).roots


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_rule_invariants(n):
    rule = gauss_rule(n)
    assert abs(math.fsum(rule.weights) - 2.0) <= 1e-12
    assert abs(math.fsum(w * x for w, x in zip(rule.weights, rule.nodes))) <= 1e-12
    assert all(w > 0 for w in rule.weights)
    for i in range(n):
        assert abs(rule.weights[i] - rule.weights[n - 1 - i]) <= 1e-12
    for a, b in zip(rule.nodes, rule.nodes[1:]):
        assert a < b
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0


def test_rule_range_errors():
    with pytest.raises(CapabilityError):
        gauss_rule(0)
    with pytest.raises(CapabilityError):
        gauss_rule(65)


def test_linear_system_examples():
    # hand solve of the 3x3 moment system for {-1, 0, 1}: Simpson weights,
    # not the {2/3, 4/3, 2/3} sometimes quoted for these nodes (those break
    # the first moment equation w1 + w2 + w3 = 2)
    w = gauss_weights_linear_system([-1.0, 0.0, 1.0])
    assert w == pytest.approx((1 / 3, 4 / 3, 1 / 3), abs=1e-14)
    assert gauss_weights_linear_system([0.0]) == (2.0,)
    s = 1 / math.sqrt(3)
    assert gauss_weights_linear_system([-s, s]) == pytest.approx((1.0, 1.0), abs=1e-14)


def test_linear_system_errors():
    with pytest.raises(NumericError):
        gauss_weights_linear_system([0.5, 0.5])
    with pytest.raises(NumericError, match="overflows a double"):
        gauss_weights_linear_system([-1e-200, 0.0, 1e-200])  # exact weights near 1e400
    with pytest.raises(CapabilityError):
        gauss_weights_linear_system([k / 22.0 for k in range(21)])
    with pytest.raises(DomainError):
        gauss_weights_linear_system([])
    with pytest.raises(DomainError):
        gauss_weights_linear_system([0.0, float("inf")])
    with pytest.raises(DomainError):
        gauss_weights_linear_system([float("nan"), 0.5])


def test_route_equivalence_to_20():
    # the moment system is solved exactly at the float nodes, so the two
    # routes differ only by where the nodes were rounded
    for n in range(1, 21):
        closed = gauss_rule(n).weights
        system = gauss_weights_linear_system(legendre_roots(n))
        for a, b in zip(closed, system):
            assert abs(a - b) <= 1e-15


def test_integrate_examples():
    assert abs(integrate_1d(lambda x: x**5, -1.0, 1.0, 3)) <= 1e-14
    improper = integrate_1d(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 40)
    assert improper == pytest.approx(1.9785, abs=5e-4)
    # antiderivative x^3/3 on [0, 2]; degree 2 <= 2n-1 = 3 so the rule is exact
    assert integrate_1d(lambda x: x * x, 0.0, 2.0, 2) == pytest.approx(8 / 3, rel=1e-14)


def test_integrate_errors():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 1.0, 1.0, 4)
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 2.0, -1.0, 4)
    with pytest.raises(NumericError) as info:
        integrate_1d(lambda x: float("inf"), 0.0, 1.0, 4)
    assert "node" in str(info.value)
    with pytest.raises(NumericError):
        integrate_1d(lambda x: float("nan"), 0.0, 1.0, 4)


def test_exactness_through_degree():
    for n in range(1, 13):
        for k in range(2 * n):
            value = integrate_1d(lambda x, k=k: x**k, -1.0, 1.0, n)
            if k % 2 == 0:
                exact = 2.0 / (k + 1)
                assert abs(value - exact) <= 1e-11 * exact
            else:
                assert abs(value) <= 1e-11


def test_non_exactness_boundary():
    # an n-point rule is degree 2n-1 exact, not higher
    for n in range(1, 7):
        value = integrate_1d(lambda x, p=2 * n: x**p, -1.0, 1.0, n)
        assert abs(value - 2.0 / (2 * n + 1)) > 1e-8


def test_affine_consistency_same_arithmetic():
    cases = [
        (math.exp, 0.3, 2.7, 7),
        (lambda x: 1.0 / (1.0 + x * x), -2.0, 5.0, 11),
        (math.cos, -0.1, 0.2, 4),
    ]
    for f, a, b, n in cases:
        jac = (b - a) / 2.0
        mid = (b + a) / 2.0

        def g(x, f=f, jac=jac, mid=mid):
            return jac * f(jac * x + mid)

        assert integrate_1d(f, a, b, n) == integrate_1d(g, -1.0, 1.0, n)


def test_endpoint_avoidance():
    for a, b in [(-1.0, 1.0), (0.0, 1.0), (2.0, 7.5), (-3.25, -0.5)]:
        jac = (b - a) / 2.0
        mid = (b + a) / 2.0
        for n in range(1, 65):
            for x in gauss_rule(n).nodes:
                u = jac * x + mid
                assert u != a and u != b


def test_box_examples():
    assert integrate_box(lambda x, y: 1.0, Box((0, 0), (1, 1)), 1) == pytest.approx(1.0, abs=1e-15)
    # separable product of two 1-D integrals: (1/2) * (1/2)
    assert integrate_box(lambda x, y: x * y, Box((0, 0), (1, 1)), 2) == pytest.approx(0.25, abs=1e-13)
    # 2 * (2/3) * 2 by symmetry of the two quadratic terms
    v = integrate_box(lambda x, y: x * x + y * y, Box((-1, -1), (1, 1)), 2)
    assert v == pytest.approx(8 / 3, rel=1e-14)


def test_box_three_dimensions():
    v = integrate_box(lambda x, y, z: x * y * z, Box((0, 0, 0), (1, 1, 1)), 3)
    assert v == pytest.approx(1 / 8, rel=1e-13)


def test_box_validation():
    with pytest.raises(DomainError):
        Box((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(DomainError):
        Box((), ())
    with pytest.raises(DomainError):
        Box((0, 1), (1, 1))
    with pytest.raises(DomainError):
        Box((0,), (1, 2))
    with pytest.raises(DomainError):
        Box((0, float("inf")), (1, 2))
    assert Box((0, 0), (1, 2)).dims == 2


@pytest.mark.parametrize(
    "a, b, message",
    [
        (0.0, math.nan, "bounds must be finite"),
        (math.nan, 1.0, "bounds must be finite"),
        (0.0, math.inf, "bounds must be finite"),
        (1.0, 0.0, "lower bound 1.0 is not below upper bound 0.0"),
    ],
)
def test_every_interval_is_checked_by_one_guard(a, b, message):
    # finiteness before order, so a NaN bound reads as a bound that is not finite
    def never_called(*args):
        raise AssertionError("evaluated")

    for call, prefix in (
        (lambda: apply_rule(gauss_rule(2), never_called, a, b), ""),
        (lambda: integrate_1d(never_called, a, b, 2), ""),
        (lambda: verify_antiderivative(never_called, never_called, a, b), ""),
        (lambda: Box((a,), (b,)), ""),
        (lambda: integrate_box(never_called, Box((a,), (b,)), 2), ""),
        (lambda: Box((0.0, a), (1.0, b)), "axis 1: "),
    ):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == prefix + message


def test_every_capped_count_is_checked_by_one_guard(tmp_path):
    # a count past the cap reads the same from the cache, the builder and CORDIC
    cache = str(tmp_path / "cache.gausstab")
    for call, name, most in (
        (lambda k: get_or_build(cache, k), "point count", 64),
        (gauss_rule, "point count", 64),
        (cordic_table, "iteration count", 60),
    ):
        for count in (0, most + 1):
            with pytest.raises(CapabilityError) as info:
                call(count)
            assert str(info.value) == f"{name} must be in 1..{most}, got {count}"


def test_a_cached_count_outside_the_cap_is_refused_like_an_uncached_one(capsys, tmp_path, monkeypatch):
    # the 65-point Gauss block passes the cache's invariant and Gauss checks;
    # only the count guard, before the read, refuses it
    cache = tmp_path / "cache.gausstab"
    cache.write_text(quadrature.dumps_tables([QuadratureRule(65, *legendre.gauss_nodes_and_weights(65))]))
    before = cache.read_bytes()
    with pytest.raises(CapabilityError) as info:
        get_or_build(cache, 65)
    assert str(info.value) == "point count must be in 1..64, got 65"
    assert cache.read_bytes() == before
    argv = ["integrate", "x", "x", "0", "1", "--n", "65"]
    for env in (str(cache), None):
        if env is None:
            monkeypatch.delenv("CALCVERIFY_CACHE", raising=False)
        else:
            monkeypatch.setenv("CALCVERIFY_CACHE", env)
        code = main(argv)
        assert (code, *capsys.readouterr()) == (2, "", "error: point count must be in 1..64, got 65\n")
    assert cache.read_bytes() == before


def test_a_rejected_interval_builds_no_rule():
    before = legendre.gauss_nodes_and_weights.cache_info()
    with pytest.raises(DomainError, match="^bounds must be finite$"):
        integrate_1d(math.sin, 0.0, math.nan, 64)
    assert legendre.gauss_nodes_and_weights.cache_info() == before  # no miss, and no hit either


@pytest.mark.parametrize("count", [2.0, 2.5, "3", [2], True, None])
def test_a_count_that_is_not_an_int_raises_a_domain_error(count, tmp_path):
    # range(), a comparison, a memo or the cache file saw these first; a memo
    # or the file took 2.0 for a cached 2, and the file True for its 1-point rule
    gauss_rule(2)
    cache = str(tmp_path / "rules.gausstab")
    get_or_build(cache, 2)
    calls = (
        gauss_rule,
        legendre_roots,
        legendre_recurrence,
        legendre_gram_schmidt,
        lambda n: integrate_1d(math.sin, 0.0, 1.0, n),
        lambda n: integrate_box(lambda x, y: x * y, Box((0.0, 0.0), (1.0, 1.0)), n),
        lambda n: convergence_table(math.sin, 0.0, 1.0, [1, n], 1 - math.cos(1.0)),
        cordic_table,
        lambda n: newton_solve(math.sin, 0.0, 0.5, max_iters=n),
        lambda n: secant_solve(math.sin, 0.0, 0.5, 0.6, max_iters=n),
        lambda n: get_or_build(cache, n),
    )
    counts = r"(point count|root count|degree|iteration count|max_iters)"
    for call in calls:
        with pytest.raises(DomainError, match=rf"^{counts} must be an integer, got "):
            call(count)


def test_gauss_rule_runs_one_horner_pass_per_positive_root(monkeypatch):
    # the roots' own pass yields their weights' P_n'; the zero node of odd n
    # takes the one further pass
    calls = []
    horner = legendre._horner_fixed
    monkeypatch.setattr(legendre, "_horner_fixed", lambda n, x: calls.append(n) or horner(n, x))
    for n in (1, 2, 7, 8, 63, 64):
        legendre.gauss_nodes_and_weights.cache_clear()
        calls.clear()
        assert gauss_rule(n).n == n
        assert calls == [n] * (n // 2 + n % 2)
        legendre_roots(n)  # served by the same build
        assert calls == [n] * (n // 2 + n % 2)


def test_a_rule_whose_nodes_and_weights_differ_in_length_or_are_empty_is_rejected():
    # zip would drop the unmatched nodes or weights, and max() fails on no weights
    g = gauss_rule(2)
    rules = (
        QuadratureRule(2, g.nodes, g.weights[:1]),
        QuadratureRule(2, g.nodes[:1], g.weights),
        QuadratureRule(0, (), ()),
    )
    square = as_function(parse("x^2", ["x"]), ["x"])
    for rule in rules:
        for f in (lambda x: x * x, square):
            with pytest.raises(DomainError, match="^a rule needs as many weights as nodes, and at least one node$"):
                apply_rule(rule, f, -1.0, 1.0)
        with pytest.raises(DomainError, match="^a rule needs as many weights"):
            apply_rule_box(rule, lambda x, y: x * y, Box((0, 0), (1, 1)))
    assert apply_rule(g, square, -1.0, 1.0) == pytest.approx(2 / 3, rel=1e-15)


def test_box_integrand_errors():
    with pytest.raises(NumericError):
        integrate_box(lambda x, y: float("nan"), Box((0, 0), (1, 1)), 2)
    with pytest.raises(CapabilityError):
        integrate_box(lambda x, y: 1.0, Box((0, 0), (1, 1)), 65)


def test_separability():
    rng = random.Random(20240831)
    for _ in range(50):
        a1, a2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        b1, b2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        c1, c2 = rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)
        lo = (rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 0.0))
        hi = (lo[0] + rng.uniform(0.5, 2.0), lo[1] + rng.uniform(0.5, 2.0))

        def g(x, a=a1, b=b1, c=c1):
            return a * math.exp(b * x) + c

        def h(y, a=a2, b=b2, c=c2):
            return a * math.exp(b * y) + c

        box_value = integrate_box(lambda x, y: g(x) * h(y), Box(lo, hi), 8)
        product = integrate_1d(g, lo[0], hi[0], 8) * integrate_1d(h, lo[1], hi[1], 8)
        assert abs(box_value - product) <= 1e-12 * abs(product)


def test_convergence_table():
    reference = math.e - 1.0 / math.e
    rows = convergence_table(math.exp, -1.0, 1.0, [2, 4, 8], reference)
    assert [n for n, _, _ in rows] == [2, 4, 8]
    errs = [err for _, _, err in rows]
    assert errs[0] > errs[1] > errs[2]

    rows = convergence_table(lambda x: x**3, -1.0, 1.0, [2], 0.0)
    assert rows[0][2] <= 1e-14

    rows = convergence_table(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, [10, 20, 40], 2.0)
    errs = [err for _, _, err in rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] == pytest.approx(0.0215, abs=5e-4)


def test_convergence_table_validation():
    with pytest.raises(DomainError):
        convergence_table(math.exp, 0.0, 1.0, [], 1.0)
    with pytest.raises(DomainError):
        convergence_table(math.exp, 0.0, 1.0, [4, 2], 1.0)


def test_convergence_table_overflowing_error_is_numeric_error():
    # the value and the reference are finite, but their difference is not
    with pytest.raises(NumericError, match=r"^abs error of order 1 is non-finite \(inf\)$"):
        convergence_table(lambda x: 1.0, 0.0, 1e300, [1], -1.7976931348623157e308)


def test_weighted_term_and_sum_overflow_are_numeric_errors():
    # each value is finite; its weighted term, or the sum of the terms, is not
    with pytest.raises(NumericError, match="overflows at node"):
        integrate_1d(lambda x: x * 1e8, 0.0, 1e300, 2)
    with pytest.raises(NumericError, match="overflows at node"):
        integrate_box(lambda x, y: x * y * 1e8, Box((0, 0), (1e300, 1)), 2)
    with pytest.raises(NumericError, match="sum of the weighted integrand values overflows"):
        integrate_1d(lambda x: 1.5e308, 0.0, 2.0, 2)
    with pytest.raises(NumericError, match="sum of the weighted integrand values overflows"):
        integrate_box(lambda x, y: 1.5e308, Box((0, 0), (1, 2)), 2)
    with pytest.raises(NumericError, match="non-finite value inf"):
        integrate_1d(lambda x: float("inf"), 0.0, 1e300, 2)


def _apply_rule_box_reference(rule, f, box):
    # the itertools.product loop that the per-axis loops replaced
    axes = []
    for a, b in zip(box.lo, box.hi):
        jac = (b - a) / 2.0
        mid = (b + a) / 2.0
        axes.append([(jac * x + mid, jac * w) for x, w in zip(rule.nodes, rule.weights)])
    terms = []
    for combo in itertools.product(*axes):
        point, weights = zip(*combo)
        v = f(*point)
        term = math.prod(weights) * v
        if not math.isfinite(term):
            raise _term_error(v, point)
        terms.append(term)
    return _fsum(terms)


def _result(call):
    try:
        return call().hex()
    except NumericError as exc:
        return str(exc)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_apply_rule_box_matches_the_product_loop_bit_for_bit(dims):
    rng = random.Random(4400 + dims)
    names = ["x", "y", "z"][:dims]
    integrands = [
        lambda *p: math.prod(p) + 1.0,
        lambda *p: math.sin(sum(p)) * math.exp(-p[0] / 3),
        as_function(parse("x^2*sin(" + names[-1] + ") - exp(" + "*".join(names) + ")/3", names), names),
        lambda *p: 1e300 * p[-1] * 1e8,  # weighted term overflows at one point
        lambda *p: math.inf if p[0] > 0.2 else 1.0,  # non-finite value
        lambda *p: 1.5e308,  # the sum overflows
    ]
    for n in (1, 2, 5, 16):
        rule = gauss_rule(n)
        for _ in range(4):
            lo = [rng.uniform(-2, 1) for _ in range(dims)]
            box = Box(tuple(lo), tuple(a + rng.uniform(0.1, 3) for a in lo))
            for f in integrands:
                expected = _result(lambda: _apply_rule_box_reference(rule, f, box))
                assert _result(lambda: apply_rule_box(rule, f, box)) == expected


_INTERVAL_INTEGRANDS = [
    math.exp,
    math.sin,
    lambda x: x**3 - x,
    lambda x: 1.0 / (1.0 + x * x),
    as_function(parse("x^2*sin(x) - exp(x/4)/3", ["x"]), ["x"]),
    lambda x: 1e200 * x,
    lambda x: 1e-200 * math.cos(x),
]


def _random_interval(rng):
    scale = 10.0 ** rng.randint(-5, 1)
    a = rng.uniform(-3, 3) * scale
    return a, a + rng.uniform(1e-3, 6) * scale


def _outcome(call):
    try:
        return call().hex()
    except (ArithmeticError, CalcVerifyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_apply_rule_is_the_one_axis_box():
    rng = random.Random(1200)
    bounds = [(0.0, 5e-324), (-1e-310, 1e-310), (-1e308, 1e308), (-MAX, MAX), (1e308, 1.7e308), (0.0, 1e300)]
    integrands = _INTERVAL_INTEGRANDS + [lambda x: 1e308 * x, lambda x: x * 1e8, lambda x: math.inf, lambda x: 1.5e308]
    for _ in range(600):
        a, b = rng.choice(bounds) if rng.random() < 0.2 else _random_interval(rng)
        rule, f = gauss_rule(rng.randint(1, 64)), rng.choice(integrands)
        expected = _outcome(lambda: apply_rule_box(rule, f, Box((a,), (b,))))
        assert _outcome(lambda: apply_rule(rule, f, a, b)) == expected, (a, b, rule.n)


def test_no_internal_path_calls_apply_rule(capsys, monkeypatch):
    # the CLI and integrate_1d hand apply_rule_box the one-axis box; each
    # literal was computed while these paths still called apply_rule
    def stub(*args):
        raise AssertionError("apply_rule called")

    monkeypatch.setattr(quadrature, "apply_rule", stub)
    monkeypatch.delenv("CALCVERIFY_CACHE", raising=False)

    def cli(*argv):
        assert main([*argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    assert cli("integrate", "exp(x)*sin(3*x)", "x", "0", "2", "--n", "64")["value"].hex() == "-0x1.04772ffdf2044p+1"
    report = cli("antideriv", "x^2", "x^3/3", "0", "1")
    assert (report["quad_value"].hex(), report["abs_diff"].hex()) == ("0x1.5555555555556p-2", "0x1.0000000000000p-54")
    wave = as_function(parse("exp(x)*sin(3*x)", ["x"]), ["x"])
    assert integrate_1d(wave, 0.0, 2.0, 64).hex() == "-0x1.04772ffdf2044p+1"
    assert integrate_1d(lambda x: 1e-300, -1e308, 1.7e308, 3).hex() == "0x1.017df80000000p+28"  # rescaled
    assert integrate_1d(lambda x: 1.0, 0.0, 5e-324, 2).hex() == "0x0.0000000000001p-1022"
    rows = convergence_table(math.exp, 0.0, 1.0, [1, 2, 4, 8], math.e - 1)
    assert [(n, v.hex(), e.hex()) for n, v, e in rows] == [
        (1, "0x1.a61298e1e069cp+0", "0x1.1ceb880aa8360p-4"),
        (2, "0x1.b7c80e9975868p+0", "0x1.942c91566a000p-12"),
        (4, "0x1.b7e1515e891e2p+0", "0x1.0073c00000000p-30"),
        (8, "0x1.b7e151628aed3p+0", "0x1.0000000000000p-52"),
    ]
    report = verify_antiderivative(math.cos, math.sin, 0.0, 1.0, n=5)
    assert (report.quad_value.hex(), report.abs_diff.hex()) == ("0x1.aed548f09190cp-1", "0x1.83c0000000000p-42")
    monkeypatch.undo()
    # the library's interval entry is still the one-axis box, its bounds errors included
    for a, b in ((0.0, 2.0), (-1e308, 1.7e308), (0.0, 5e-324), (0.0, math.nan), (1.0, 0.0)):
        for rule, f in ((gauss_rule(64), wave), (gauss_rule(3), lambda x: 1e-300)):
            expected = _outcome(lambda: apply_rule_box(rule, f, Box((a,), (b,))))
            assert _outcome(lambda: apply_rule(rule, f, a, b)) == expected


def test_apply_rule_moved_within_the_stated_bound():
    # against the interval's own loop before it became the one-axis box,
    # w * (jac * v): |new - old| <= 2 eps sum |w_i jac f(u_i)| for terms in
    # the normal range
    rng = random.Random(1201)
    eps = Fraction(sys.float_info.epsilon)
    moved = 0
    for _ in range(2000):
        a, b = _random_interval(rng)
        rule, f = gauss_rule(rng.randint(1, 64)), rng.choice(_INTERVAL_INTEGRANDS)
        jac, mid = (b - a) / 2.0, (b + a) / 2.0
        values = [f(jac * x + mid) for x in rule.nodes]
        old = math.fsum(w * (jac * v) for w, v in zip(rule.weights, values))
        magnitude = sum(abs(Fraction(w) * Fraction(jac) * Fraction(v)) for w, v in zip(rule.weights, values))
        new = apply_rule(rule, f, a, b)
        moved += new != old
        assert abs(Fraction(new) - Fraction(old)) <= 2 * eps * magnitude, (a, b, rule.n)
    assert moved > 100  # the two orders do round differently


@pytest.mark.parametrize("reference", [math.inf, -math.inf, math.nan])
def test_convergence_table_rejects_non_finite_reference(reference):
    with pytest.raises(DomainError, match="reference must be finite"):
        convergence_table(math.exp, 0.0, 1.0, [2, 3], reference)


def test_fsum_is_the_exact_sum_rounded_once():
    # near-overflow terms, some cancelled by their negations, so partial
    # sums overflow while the exact sum may fit; tiny terms would be
    # rounded by a float rescaling of the terms
    rng = random.Random(90)
    paths = {"fits": 0, "partial overflow": 0, "overflows": 0}
    top = 1.7976931348623157e308  # the largest double
    for _ in range(3000):
        big = [rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.0) * top for _ in range(rng.randint(1, 5))]
        terms = big + [-t for t in big if rng.random() < 0.5]
        terms += rng.sample([3e-300, -5e-324, 1e-310, 2.5, -0.0], rng.randint(0, 2))
        rng.shuffle(terms)
        try:
            expected = float(sum(map(Fraction, terms)))
        except OverflowError:
            paths["overflows"] += 1
            with pytest.raises(NumericError, match="^the sum of the weighted integrand values overflows$"):
                _fsum(terms)
            continue
        try:
            math.fsum(terms)
            paths["fits"] += 1
        except OverflowError:
            paths["partial overflow"] += 1
        assert _fsum(terms) == expected, terms
    assert min(paths.values()) >= 300, paths
    assert _fsum([1.7e308, 1.7e308, -1.7e308, -1.7e308, 3e-300]) == 3e-300


MAX = 1.7976931348623157e308


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_interval_wider_than_the_largest_double(n):
    # b - a overflows, but the Jacobian (b - a)/2 fits
    assert integrate_1d(lambda x: 1e-300, -1e308, 1e308, n) == pytest.approx(2e8, rel=1e-15)
    assert integrate_1d(lambda x: 1e-300, -MAX, MAX, n) == pytest.approx(2e-300 * MAX, rel=1e-15)
    box = Box((-1e308, 0.0), (1e308, 1.0))
    assert integrate_box(lambda x, y: 1e-300, box, n) == pytest.approx(2e8, rel=1e-15)


def test_midpoint_whose_sum_overflows():
    # b + a overflows, but the midpoint (b + a)/2 fits; x is integrated exactly
    exact = float((Fraction(1.7e308) ** 2 - Fraction(1e308) ** 2) / 2 / Fraction(1e308))
    assert integrate_1d(lambda x: x / 1e308, 1e308, 1.7e308, 2) == pytest.approx(exact, rel=1e-15)
    box = Box((1e308, 0.0), (1.7e308, 1.0))
    assert integrate_box(lambda x, y: x / 1e308, box, 2) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize(
    "lo, hi, value",
    [
        # the weight product overflows at every point, the integral does not
        ((-1e308, -1e308, 0.0), (1e308, 1e308, 1e-300), 4e16),
        ((0.0, -1e308, -1e308), (1e-300, 1e308, 1e308), 4e16),
        ((0.0, -1.0), (1e308, 1.0), 2e8),  # n = 1: the weight 2*jac overflows
        ((-MAX,), (MAX,), 2e-300 * MAX),
        # and the half-width 2.5e-324 of one axis is not a double
        ((0.0, -1e308, -1e308), (5e-324, 1e308, 1e308), float(Fraction(5e-324) * 4 * 10**316)),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_box_whose_weight_product_overflows(lo, hi, value, n):
    assert integrate_box(lambda *p: 1e-300, Box(lo, hi), n) == pytest.approx(value, rel=1e-14)


def exact_constant_integral(value, lo, hi):
    return float(Fraction(value) * math.prod(Fraction(b) - Fraction(a) for a, b in zip(lo, hi)))


@pytest.mark.parametrize(
    "value, lo, hi",
    [
        # (b - a)/2 is subnormal: as a float, 5e-324/2 rounds to 0 and 1.5e-323/2 to 1e-323
        (1e300, (0.0,), (5e-324,)),
        (1.5e308, (0.0,), (1.5e-323,)),  # no term overflows where its value does not
        (1e300, (-1e-310,), (1e-310,)),
        (1e-300, (0.0, -1e308, 0.0), (5e-324, 0.0, 1e308)),  # the weight product is 0 first
        (1e-300, (-1e308, 0.0, 0.0), (0.0, 1e308, 5e-324)),  # and overflows first
        (1.5e308, (0.0, 0.0, 0.0), (1.5e-323, 1.5, 1.5)),
        (1e300, (0.0, 0.0), (3e-323, 1e-20)),
        (1e308, (0.0, 0.0, 0.0), (3e-323, 4e-323, 1e308)),  # two subnormal half-widths
    ],
)
@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_subnormal_half_width_is_weighed_exactly(value, lo, hi, n):
    f = lambda *p: value  # noqa: E731
    expected = exact_constant_integral(value, lo, hi)
    assert expected != 0.0
    if len(lo) == 1:
        assert integrate_1d(f, lo[0], hi[0], n) == pytest.approx(expected, rel=1e-9, abs=0)
    assert integrate_box(f, Box(lo, hi), n) == pytest.approx(expected, rel=1e-9, abs=0)


def test_box_whose_weight_product_overflows_still_reports_bad_values():
    box = Box((-1e308, -1e308, 0.0), (1e308, 1e308, 1.0))
    with pytest.raises(NumericError, match="non-finite value inf at node"):
        integrate_box(lambda x, y, z: math.inf, box, 2)
    # the scaled terms fit, the integral does not
    with pytest.raises(NumericError, match="sum of the weighted integrand values overflows"):
        integrate_box(lambda x, y, z: 1.0, box, 2)


def test_jacobian_and_midpoint_keep_their_bits_unless_they_overflow():
    rng = random.Random(7)
    tiny = [0.0, 5e-324, 1e-323, 2.5e-308, 1e-300, 1.0, 1e308, MAX]
    values = [s * v for v in tiny for s in (1, -1)] + [rng.uniform(-1e3, 1e3) for _ in range(20)]
    for a in values:
        for b in values:
            jac, mid = math.ldexp(*_half_width(a, b)), _midpoint(a, b)
            if math.isfinite(b - a):
                assert jac.hex() == ((b - a) / 2.0).hex()
            else:
                assert jac == b / 2.0 - a / 2.0
            if math.isfinite(b + a):
                assert mid.hex() == ((b + a) / 2.0).hex()
            else:
                assert mid == b / 2.0 + a / 2.0

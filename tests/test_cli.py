import json
import math
import sys

import pytest

from calcverify import expr, gauss_rule, load_tables
from calcverify.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CALCVERIFY_CACHE", str(tmp_path / "cache.gausstab"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integrate_improper(capsys):
    code, out, _ = run(capsys, "integrate", "1/sqrt(x)", "x", "0", "1", "--n", "40")
    assert code == 0
    assert float(out) == pytest.approx(1.9785, abs=5e-4)


def test_integrate_box(capsys):
    code, out, _ = run(capsys, "integrate", "1", "x", "0", "1", "y", "0", "1", "--n", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)


def test_integrate_exactness(capsys):
    code, out, _ = run(capsys, "integrate", "x^5", "x", "-1", "1", "--n", "3")
    assert code == 0
    assert abs(float(out)) <= 1e-14


def test_integrate_json(capsys):
    code, out, _ = run(capsys, "integrate", "x^2", "x", "0", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == 1 and payload["n"] == 20
    assert payload["value"] == pytest.approx(8 / 3, rel=1e-14)


def test_integrate_parse_error_renders_caret(capsys):
    code, _, err = run(capsys, "integrate", "(x - 2)/(y^2 + 4)", "x", "0", "1")
    assert code == 2
    lines = err.splitlines()
    assert "unknown variable 'y'" in lines[0]
    assert lines[2].index("^") == 2 + 9  # two-space indent + byte offset


def test_integrate_domain_and_usage_errors(capsys):
    assert run(capsys, "integrate", "x", "x", "2", "1")[0] == 2  # lo >= hi
    assert run(capsys, "integrate", "x", "x", "0")[0] == 2  # ragged triplet
    assert run(capsys, "integrate", "x", "x", "0", "1", "y", "0", "1", "z", "0", "1", "w", "0", "1")[0] == 2
    assert run(capsys, "integrate", "ln(x)", "x", "-1", "1")[0] == 2  # eval domain error


def test_integrate_writes_cache(capsys, tmp_path):
    cache = tmp_path / "explicit.gausstab"
    code, _, _ = run(capsys, "integrate", "x", "x", "0", "1", "--n", "7", "--cache", str(cache))
    assert code == 0
    assert load_tables(cache)[7] == gauss_rule(7)


def test_diffcheck_pass_and_fail(capsys):
    code, out, _ = run(
        capsys,
        "diffcheck",
        "(x-2)/(x^2+4)",
        "(-x^2+4*x+4)/(x^2+4)^2",
        "2",
        "--h",
        "1e-4",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert 4e-11 <= payload["abs_diff"] <= 6.4e-10

    assert run(capsys, "diffcheck", "x^2", "2*x", "7")[0] == 0
    assert run(capsys, "diffcheck", "x^2", "x", "7")[0] == 1
    assert run(capsys, "diffcheck", "x^2 +", "2*x", "7")[0] == 2


def test_antideriv_exit_codes(capsys):
    assert run(capsys, "antideriv", "2*x", "x^2", "0", "3")[0] == 0
    assert run(capsys, "antideriv", "1/x", "ln(x)", "1", "2")[0] == 0
    assert run(capsys, "antideriv", "1/x", "ln(x)+x", "1", "2")[0] == 1
    assert run(capsys, "antideriv", "1/x", "ln(x)", "2", "1")[0] == 2


def test_solve_newton_and_secant(capsys):
    code, out, _ = run(capsys, "solve", "x^2", "--c", "4", "--x0", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["root"] == pytest.approx(2.0, abs=1e-10)

    code, out, _ = run(
        capsys, "solve", "x^2 - 2", "--method", "secant", "--x0", "1", "--x1", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["root"] == pytest.approx(math.sqrt(2), abs=1e-10)

    code, _, err = run(capsys, "solve", "x^2 + 1", "--x0", "1")
    assert code == 1
    assert "last iterate" in err or "numeric error" in err

    assert run(capsys, "solve", "x^2", "--method", "secant", "--x0", "1")[0] == 2
    assert run(capsys, "solve", "x^2", "--method", "halley", "--x0", "1")[0] == 2


def test_solve_with_analytic_fprime(capsys):
    code, out, _ = run(
        capsys, "solve", "x^2", "--c", "4", "--x0", "3", "--fprime", "2*x", "--json"
    )
    assert code == 0
    assert json.loads(out)["iterations"] <= 6


def test_nodes_output_loads_as_table(capsys, tmp_path):
    code, out, _ = run(capsys, "nodes", "5")
    assert code == 0
    target = tmp_path / "nodes5.gausstab"
    target.write_text(out)
    assert load_tables(target)[5] == gauss_rule(5)


def test_nodes_examples(capsys):
    code, out, _ = run(capsys, "nodes", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["N 1", "0 2"]

    code, out, _ = run(capsys, "nodes", "3")
    assert code == 0
    third = out.splitlines()[2].split()
    assert float(third[1]) == 5 / 9

    assert run(capsys, "nodes", "65")[0] == 2
    assert run(capsys, "nodes", "0")[0] == 2


def test_nodes_json(capsys):
    code, out, _ = run(capsys, "nodes", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["weights"] == [1.0, 1.0]


def test_cordic_subcommand(capsys):
    code, out, _ = run(capsys, "cordic", "0.5235987755982988", "--iters", "40", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sin"] == pytest.approx(0.5, abs=1e-10)
    assert payload["sin_abs_diff"] <= 1e-10

    code, out, _ = run(capsys, "cordic", "0")
    assert code == 0
    assert run(capsys, "cordic", "1e20")[0] == 2


def test_json_contains_every_plain_field(capsys):
    cases = [
        ("diffcheck", "x^2", "2*x", "7"),
        ("antideriv", "2*x", "x^2", "0", "3"),
        ("solve", "x^2", "--c", "4", "--x0", "3"),
        ("cordic", "0.25"),
    ]
    for argv in cases:
        _, plain, _ = run(capsys, *argv)
        plain_keys = [line.split()[0] for line in plain.splitlines() if line.strip()]
        _, as_json, _ = run(capsys, *argv, "--json")
        payload = json.loads(as_json)
        assert set(plain_keys) <= set(payload)


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["integrate"]) == 2


def test_integrate_rebuilds_cached_rule_that_is_not_gauss(capsys, tmp_path):
    # passes the cheap table invariants, but x^2 on [-1, 1] would come out 0.5
    cache = tmp_path / "bad.gausstab"
    cache.write_text("GAUSSTAB 1\nN 2\n-0.5 1\n0.5 1\n")
    argv = ("integrate", "x^2", "x", "-1", "1", "--n", "2", "--cache", str(cache))
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert float(out) == pytest.approx(2 / 3, rel=1e-9)
    assert "warning" in err and "not a Gauss rule" in err
    assert load_tables(cache)[2] == gauss_rule(2)


def test_integrate_rebuilds_cache_whose_weights_overflow_a_sum(capsys, tmp_path):
    cache = tmp_path / "huge.gausstab"
    cache.write_text("GAUSSTAB 1\nN 2\n-0.5 1e308\n0.5 1e308\n")
    code, out, err = run(capsys, "integrate", "x", "x", "0", "1", "--n", "2", "--cache", str(cache))
    assert (code, out) == (0, "0.5\n")
    assert err.startswith("warning: discarding corrupt rule cache") and "Traceback" not in err
    assert load_tables(cache)[2] == gauss_rule(2)


def test_one_closure_between_tensor_sum_and_evaluate(capsys, monkeypatch):
    # the CLI's integrand calls expr.evaluate directly, so evaluate's
    # caller is called straight from the tensor-product loop
    real = expr.evaluate
    callers = set()

    def recorder(e, bindings, functions=None):
        callers.add(sys._getframe(2).f_code.co_name)
        return real(e, bindings, functions)

    monkeypatch.setattr(expr, "evaluate", recorder)
    code, out, _ = run(capsys, "integrate", "x*y", "x", "0", "1", "y", "0", "1", "--n", "3")
    assert (code, out) == (0, "0.25\n")
    assert callers == {"apply_rule_box"}


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("solve", "x^2 - 2", "--x0", "1", "--max-iters", "-3"), "max_iters"),
        (("solve", "x^2 - 2", "--x0", "1", "--max-iters", "0"), "max_iters"),
        (
            ("solve", "x^2 - 2", "--method", "secant", "--x0", "1", "--x1", "2", "--max-iters", "-3"),
            "max_iters",
        ),
        (("solve", "x^2 - 2", "--x0", "1", "--tol", "-0.001"), "tolerance"),
        (("diffcheck", "x^2", "2*x", "7", "--tol-abs", "-1"), "tol_abs"),
        (("diffcheck", "x^2", "2*x", "7", "--tol-rel", "-1"), "tol_rel"),
        (("antideriv", "2*x", "x^2", "0", "3", "--tol", "-1"), "tol"),
    ],
)
def test_negative_numeric_options_rejected(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and needle in err


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("²", 0, "unexpected character"),
        ("2²", 1, "unexpected character"),
        ("١", 0, "unexpected character"),
        ("x^1e999", 2, "number literal overflows"),
        ("1e999", 0, "number literal overflows"),
    ],
)
def test_integrate_bad_literal_renders_caret(capsys, text, offset, message):
    code, out, err = run(capsys, "integrate", text, "x", "0", "1")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("error: ") and message in lines[0]
    assert lines[2] == "  " + " " * offset + "^"


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 3000 + "x" + ")" * 3000, 101),
        ("-" * 3000 + "x", 101),
        ("2^" * 3000 + "x", 202),
        ("sin(" * 3000 + "x" + ")" * 3000, 404),
    ],
    ids=["parens", "minus", "power", "call"],
)
def test_integrate_nesting_past_the_cap_renders_caret(capsys, text, offset):
    code, out, err = run(capsys, "integrate", "--", text, "x", "0", "1")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0] == f"error: expression nested too deeply at offset {offset}"
    assert lines[2] == "  " + " " * offset + "^"
    assert "Traceback" not in err


def test_integrate_flat_sum_of_3000_terms(capsys):
    code, out, err = run(capsys, "integrate", "+".join(["x"] * 3000), "x", "0", "1")
    assert (code, err) == (0, "")
    assert float(out) == 1500.0


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("--n", "2", "x*1e8", "x", "0", "1e300"), "overflows at node"),
        (("--n", "2", "x*y*1e8", "x", "0", "1e300", "y", "0", "1"), "overflows at node"),
        (("--n", "2", "--", "x*1e8", "x", "-1e300", "1e300"), "overflows at node"),
        (("--n", "2", "1.5e308", "x", "0", "2"), "sum of the weighted integrand values overflows"),
        (("--n", "2", "1.5e308", "x", "0", "1", "y", "0", "2"), "sum of the weighted integrand values overflows"),
    ],
)
def test_integrate_scaled_overflow_is_numeric_error(capsys, argv, needle):
    code, out, err = run(capsys, "integrate", *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("numeric error: ") and needle in err


@pytest.mark.parametrize(
    "text, hi, message, offset",
    [
        ("1e300*1e300", "1", "non-finite result", 5),
        ("exp(x)", "1000", "exp(755.4335009754136) overflows", 0),
        ("1e308*x*10", "1", "non-finite result", 7),
    ],
)
def test_integrand_overflow_is_numeric_error(capsys, text, hi, message, offset):
    # README: a non-finite evaluation exits 1; the caret text is unchanged
    code, out, err = run(capsys, "integrate", text, "x", "0", hi)
    assert (code, out) == (1, "")
    assert err == f"numeric error: {message} at offset {offset}\n  {text}\n  {' ' * offset}^\n"


@pytest.mark.parametrize(
    "text, message",
    [("1/(x-x)", "division by zero"), ("ln(0-x)", "is outside the real domain"), ("(0-x)^0.5", "leaves the reals")],
)
def test_real_domain_violation_stays_exit_two(capsys, text, message):
    code, out, err = run(capsys, "integrate", text, "x", "0", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err.splitlines()[0]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("diffcheck", "x", "1", "nan"), "point a must be finite"),
        (("diffcheck", "x", "1", "inf"), "point a must be finite"),
        (("solve", "x", "--x0", "nan"), "x0 must be finite"),
        (("solve", "x", "--method", "secant", "--x0", "1", "--x1", "nan"), "x1 must be finite"),
        (("solve", "x", "--c", "nan", "--x0", "1"), "c must be finite"),
    ],
)
def test_non_finite_point_or_start_rejected(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and needle in err


@pytest.mark.parametrize(
    "argv, code, out, needle",
    [
        # after "--" every token is positional, so '-' may start an expression or a bound
        (("integrate", "--", "-x^2", "x", "0", "1"), 0, "-0.3333333333\n", ""),
        (("integrate", "--", "x", "x", "-1e0", "1"), 0, "0\n", ""),
        # an option value that starts with '-' goes in the '=' form
        (("solve", "x^2 - 2", "--x0", "1", "--tol=-1e-10"), 2, "", "error: tolerance must be positive"),
        # without them argparse reads the token as an option
        (("integrate", "-x^2", "x", "0", "1"), 2, "", "unrecognized arguments: -x^2"),
        (("integrate", "x", "x", "-1e0", "1"), 2, "", "unrecognized arguments: -1e0 1"),
        (("solve", "x^2 - 2", "--x0", "1", "--tol", "-1e-10"), 2, "", "argument --tol: expected one argument"),
    ],
)
def test_leading_minus_arguments(capsys, argv, code, out, needle):
    got = run(capsys, *argv)
    assert got[:2] == (code, out)
    assert needle in got[2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("diffcheck", "x", "1", "1", "--h", "1e308", "--json"), "central difference is non-finite (nan)"),
        (("diffcheck", "x", "1", "1", "--h", "1e308"), "central difference is non-finite (nan)"),
        (("antideriv", "0", "1e308*sin(x)", "-1.6", "1.6", "--json"), "F(b) - F(a) is non-finite (inf)"),
        (("antideriv", "0", "1e308*sin(x)", "-1.6", "1.6"), "F(b) - F(a) is non-finite (inf)"),
    ],
)
def test_overflowing_estimate_or_difference_is_numeric_error(capsys, argv, message):
    # a bare nan or inf would be invalid JSON and a silently wrong number
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"numeric error: {message}\n")

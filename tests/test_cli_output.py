"""Exact CLI output: argv -> (exit status, stdout, stderr), byte for byte.

The cases cover each subcommand in plain and --json mode with passing,
failing and non-converged results, every usage error the CLI raises
itself, and a parse and an evaluation caret.  --help is left out: its
layout depends on the terminal width.
"""

import pytest

from calcverify.cli import main

CASES = [
    (
        ["diffcheck", "x^2", "2*x", "7"],
        0,
        (
            "point 7\n"
            "h 0.0001\n"
            "analytic 14\n"
            "numeric 14\n"
            "abs_diff 3.262812243e-11\n"
            "rel_diff 2.330580173e-12\n"
            "verdict pass\n"
        ),
        "",
    ),
    (
        ["diffcheck", "x^2", "2*x", "7", "--json"],
        0,
        '{"point": 7, "h": 0.0001, "analytic": 14, "numeric": 13.999999999967372, "abs_diff": 3.2628122426103801e-11, "rel_diff": 2.3305801732931286e-12, "verdict": "pass"}\n',
        "",
    ),
    (
        ["diffcheck", "x^2", "x", "7"],
        1,
        (
            "point 7\n"
            "h 0.0001\n"
            "analytic 7\n"
            "numeric 14\n"
            "abs_diff 7\n"
            "rel_diff 1\n"
            "verdict fail\n"
        ),
        "",
    ),
    (
        ["diffcheck", "x^2", "x", "7", "--json"],
        1,
        '{"point": 7, "h": 0.0001, "analytic": 7, "numeric": 13.999999999967372, "abs_diff": 6.9999999999673719, "rel_diff": 0.99999999999533884, "verdict": "fail"}\n',
        "",
    ),
    (
        ["diffcheck", "(x-2)/(x^2+4)", "(-x^2+4*x+4)/(x^2+4)^2", "2", "--h", "1e-4", "--json"],
        0,
        '{"point": 2, "h": 0.0001, "analytic": 0.125, "numeric": 0.125000000156375, "abs_diff": 1.5637499628518015e-10, "rel_diff": 1.5637499628518015e-10, "verdict": "pass"}\n',
        "",
    ),
    (
        ["antideriv", "1/x", "ln(x)", "1", "2"],
        0,
        (
            "a 1\n"
            "b 2\n"
            "ftc_value 0.6931471806\n"
            "quad_value 0.6931471806\n"
            "n 20\n"
            "abs_diff 0\n"
            "verdict pass\n"
        ),
        "",
    ),
    (
        ["antideriv", "1/x", "ln(x)", "1", "2", "--json"],
        0,
        '{"a": 1, "b": 2, "ftc_value": 0.69314718055994529, "quad_value": 0.69314718055994529, "n": 20, "abs_diff": 0, "verdict": "pass"}\n',
        "",
    ),
    (
        ["antideriv", "1/x", "ln(x)+x", "1", "2"],
        1,
        (
            "a 1\n"
            "b 2\n"
            "ftc_value 1.693147181\n"
            "quad_value 0.6931471806\n"
            "n 20\n"
            "abs_diff 1\n"
            "verdict fail\n"
        ),
        "",
    ),
    (
        ["antideriv", "1/x", "ln(x)+x", "1", "2", "--json"],
        1,
        '{"a": 1, "b": 2, "ftc_value": 1.6931471805599454, "quad_value": 0.69314718055994529, "n": 20, "abs_diff": 1, "verdict": "fail"}\n',
        "",
    ),
    (
        ["solve", "x^2", "--c", "4", "--x0", "3"],
        0,
        (
            "root 2\n"
            "residual 0\n"
            "iterations 5\n"
            "converged true\n"
        ),
        "",
    ),
    (
        ["solve", "x^2", "--c", "4", "--x0", "3", "--json"],
        0,
        '{"root": 2, "residual": 0, "iterations": 5, "converged": true}\n',
        "",
    ),
    (
        ["solve", "x^2 + 1", "--x0", "1"],
        1,
        (
            "root 1.441752175\n"
            "residual 3.078649333\n"
            "iterations 100\n"
            "converged false\n"
        ),
        "did not converge in 100 iterations; last iterate 1.441752175\n",
    ),
    (
        ["solve", "x^2 + 1", "--x0", "1", "--json"],
        1,
        '{"root": 1.4417521747574531, "residual": 3.0786493334178457, "iterations": 100, "converged": false}\n',
        "did not converge in 100 iterations; last iterate 1.441752175\n",
    ),
    (
        ["solve", "x^2 - 2", "--method", "secant", "--x0", "1", "--x1", "2"],
        0,
        (
            "root 1.414213562\n"
            "residual 8.881784197e-16\n"
            "iterations 6\n"
            "converged true\n"
        ),
        "",
    ),
    (
        ["solve", "x^2 - 2", "--method", "secant", "--x0", "1", "--x1", "2", "--json"],
        0,
        '{"root": 1.4142135623730954, "residual": 8.8817841970012523e-16, "iterations": 6, "converged": true}\n',
        "",
    ),
    (
        ["solve", "x^2 + 1", "--method", "secant", "--x0", "1", "--x1", "2", "--max-iters", "5"],
        1,
        (
            "root 0.2213209733\n"
            "residual 1.048982973\n"
            "iterations 5\n"
            "converged false\n"
        ),
        "did not converge in 5 iterations; last iterate 0.2213209733\n",
    ),
    (
        ["solve", "x^2 + 1", "--method", "secant", "--x0", "1", "--x1", "2", "--max-iters", "5", "--json"],
        1,
        '{"root": 0.22132097334878262, "residual": 1.0489829732440525, "iterations": 5, "converged": false}\n',
        "did not converge in 5 iterations; last iterate 0.2213209733\n",
    ),
    (
        ["nodes", "3"],
        0,
        (
            "GAUSSTAB 1\n"
            "N 3\n"
            "-0.7745966692414834 0.55555555555555558\n"
            "0 0.88888888888888884\n"
            "0.7745966692414834 0.55555555555555558\n"
        ),
        "",
    ),
    (
        ["nodes", "5", "--json"],
        0,
        '{"n": 5, "nodes": [-0.90617984593866396, -0.53846931010568311, 0, 0.53846931010568311, 0.90617984593866396], "weights": [0.23692688505618908, 0.47862867049936647, 0.56888888888888889, 0.47862867049936647, 0.23692688505618908]}\n',
        "",
    ),
    (
        ["cordic", "0.5"],
        0,
        (
            "theta 0.5\n"
            "iters 40\n"
            "sin 0.4794255386\n"
            "cos 0.8775825619\n"
            "ref_sin 0.4794255386\n"
            "ref_cos 0.8775825619\n"
            "sin_abs_diff 1.594835375e-13\n"
            "cos_abs_diff 8.726352974e-14\n"
        ),
        "",
    ),
    (
        ["cordic", "0.5", "--iters", "20", "--json"],
        0,
        '{"theta": 0.5, "iters": 20, "sin": 0.47942637668303545, "cos": 0.87758210404530013, "ref_sin": 0.47942553860420301, "ref_cos": 0.87758256189037276, "sin_abs_diff": 8.3807883244357839e-07, "cos_abs_diff": 4.5784507263224583e-07}\n',
        "",
    ),
    (
        ["integrate", "1/sqrt(x)", "x", "0", "1", "--n", "40"],
        0,
        "1.978501249\n",
        "",
    ),
    (
        ["integrate", "x*y", "x", "0", "1", "y", "0", "2", "--n", "3", "--json"],
        0,
        '{"value": 1, "n": 3, "dims": 2}\n',
        "",
    ),
    # a partial sum of the weighted terms overflows, the exact sum does not
    (
        ["integrate", "--n", "3", "1.5e308*(1 - x/0.7745966692414834 - (x/0.7745966692414834)^2)", "x", "-1", "1"],
        0,
        "1.333333333e+308\n",
        "",
    ),
    (
        ["integrate", "x", "x", "0"],
        2,
        "",
        "error: expected 1 to 3 axis triplets: VAR LO HI\n",
    ),
    (
        ["integrate", "x", "x", "0", "one"],
        2,
        "",
        "error: bounds for 'x' are not numbers\n",
    ),
    (
        ["solve", "x^2", "--method", "secant", "--x0", "1"],
        2,
        "",
        "error: the secant method requires --x1\n",
    ),
    (
        ["integrate", "(x - 2)/(y^2 + 4)", "x", "0", "1"],
        2,
        "",
        (
            "error: unknown variable 'y' at offset 9 (expected one of: x)\n"
            "  (x - 2)/(y^2 + 4)\n"
            "           ^\n"
        ),
    ),
    (
        ["integrate", "ln(x)", "x", "-1", "1"],
        2,
        "",
        (
            "error: ln(-0.9931285991850949) is outside the real domain at offset 0\n"
            "  ln(x)\n"
            "  ^\n"
        ),
    ),
    # evaluation carets under the second expression of a command
    (
        ["diffcheck", "x", "1 + ln(x)", "-1"],
        2,
        "",
        (
            "error: ln(-1.0) is outside the real domain at offset 4\n"
            "  1 + ln(x)\n"
            "      ^\n"
        ),
    ),
    (
        ["antideriv", "x", "x + sqrt(x)", "-1", "1"],
        2,
        "",
        (
            "error: sqrt(-1.0) is outside the real domain at offset 4\n"
            "  x + sqrt(x)\n"
            "      ^\n"
        ),
    ),
    (
        ["solve", "x^2 - 2", "--x0", "1", "--fprime", "1/(x-1)"],
        2,
        "",
        (
            "error: division by zero at offset 1\n"
            "  1/(x-1)\n"
            "   ^\n"
        ),
    ),
    # an interval whose width or midpoint sum overflows, though its integral is finite
    (["integrate", "--n", "2", "--", "1e-300", "x", "-1e308", "1e308"], 0, "200000000\n", ""),
    (["integrate", "--n", "2", "--", "x/1e308", "x", "1e308", "1.7e308"], 0, "9.45e+307\n", ""),
    (["integrate", "--n", "2", "--", "1e-300", "x", "-1e308", "1e308", "y", "0", "1"], 0, "200000000\n", ""),
    # an infinite antiderivative bound is a usage error, as for integrate and diffcheck
    (["antideriv", "1", "x", "0", "inf"], 2, "", "error: bounds must be finite\n"),
    (["antideriv", "1", "x", "-1", "inf"], 2, "", "error: bounds must be finite\n"),
    # axes declared out of alphabetical order: a value bound to another
    # axis's position changes the integral (7 and 51 through swapped names)
    (["integrate", "x + 3*y", "y", "0", "1", "x", "0", "2"], 0, "5\n", ""),
    (
        ["integrate", "x + 2*y + 4*z", "z", "0", "1", "x", "0", "2", "y", "0", "3", "--json"],
        0,
        '{"value": 36, "n": 20, "dims": 3}\n',
        "",
    ),
    # evaluation carets at each arity: a domain error exits 2, an overflow 1
    (
        ["integrate", "exp(1000*x)", "x", "0", "1"],
        1,
        "",
        (
            "numeric error: exp(755.4335009754136) overflows at offset 0\n"
            "  exp(1000*x)\n"
            "  ^\n"
        ),
    ),
    (
        ["integrate", "x + sqrt(y - 1)", "y", "0", "2", "x", "0", "1"],
        2,
        "",
        (
            "error: sqrt(-0.9931285991850949) is outside the real domain at offset 4\n"
            "  x + sqrt(y - 1)\n"
            "      ^\n"
        ),
    ),
    (
        ["integrate", "y + exp(1000*x)", "y", "0", "1", "x", "0", "2"],
        1,
        "",
        (
            "numeric error: exp(772.214148858355) overflows at offset 4\n"
            "  y + exp(1000*x)\n"
            "      ^\n"
        ),
    ),
    (
        ["integrate", "x + y + ln(z - 1)", "z", "0", "3", "x", "0", "1", "y", "0", "1"],
        2,
        "",
        (
            "error: ln(-0.9896928987776423) is outside the real domain at offset 8\n"
            "  x + y + ln(z - 1)\n"
            "          ^\n"
        ),
    ),
    (
        ["integrate", "x + exp(1000*y*z)", "z", "0", "1", "y", "0", "2", "x", "0", "1"],
        1,
        "",
        (
            "numeric error: exp(710.0960735233249) overflows at offset 4\n"
            "  x + exp(1000*y*z)\n"
            "      ^\n"
        ),
    ),
    # a subnormal half-width (b - a)/2 is weighed exactly, not rounded to 0
    (["integrate", "1e300", "x", "0", "5e-324"], 0, "4.940656458e-24\n", ""),
    (
        ["integrate", "--n", "3", "--", "1e-300", "x", "0", "5e-324", "y", "-1e308", "0", "z", "0", "1e308"],
        0,
        "4.940656458e-08\n",
        "",
    ),
]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CALCVERIFY_CACHE", str(tmp_path / "cache.gausstab"))


@pytest.mark.parametrize("argv, code, out, err", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_cli_output_is_exact(capsys, argv, code, out, err):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)

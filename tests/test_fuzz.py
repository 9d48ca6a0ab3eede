"""Fuzz the CLI exit-status contract (every input ends in 0, 1 or 2, and
a non-finite step, tolerance or bound in 2), extreme integration bounds
(a finite integral is computed, whatever its interval's width), and the
rule cache (every hand-edited file yields the Gauss rule, in the library
and the CLI)."""

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from calcverify import gauss_rule, get_or_build
from calcverify.cli import main
from calcverify.expr import BUILTIN_FUNCTIONS
from calcverify.tables import dumps_tables, gauss_violation

PIECES = [*"0123456789.eE+-*/^()", " ", "x", "y", "²", "١", *BUILTIN_FUNCTIONS]
EXPRESSIONS = st.lists(st.sampled_from(PIECES)).map("".join)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "cache.gausstab")


def argv_for(command, text, cache):
    if command == "integrate":
        return ["integrate", text, "x", "0", "1", "y", "0", "1", "--n", "4", "--cache", cache]
    if command == "diffcheck":
        return ["diffcheck", text, text, "0.5"]
    return ["solve", text, "--x0", "0.5"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(["integrate", "diffcheck", "solve"]), text=EXPRESSIONS)
def test_every_expression_ends_in_a_documented_exit_status(cache, command, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv_for(command, text, cache))
    assert code in (0, 1, 2), (code, err.getvalue())


WRAPPERS = [("(", ")"), ("-", ""), ("2^", ""), ("sin(", ")")]


def deep_argv(command, text, cache):
    # "--" keeps argparse from reading a leading '-' as an option
    if command == "integrate":
        return ["integrate", "--n", "2", "--cache", cache, "--", text, "x", "0", "1"]
    if command == "diffcheck":
        return ["diffcheck", "--", text, text, "0.5"]
    return ["solve", "--x0", "0.5", "--", text]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["integrate", "diffcheck", "solve"]),
    wrapper=st.sampled_from(WRAPPERS),
    depth=st.integers(1, 5000),
    core=EXPRESSIONS,
)
def test_deep_nesting_ends_in_a_documented_exit_status(cache, command, wrapper, depth, core):
    text = wrapper[0] * depth + core + wrapper[1] * depth
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(deep_argv(command, text, cache))
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


OPTIONS = [
    "-h", "--help", "--json", "--n", "--cache", "--var", "--h", "--tol-abs", "--tol-rel",
    "--tol", "--c", "--method", "--x0", "--x1", "--fprime", "--max-iters", "--iters",
]
NUMBERS = ["0", "-1", "-1e0", "64", "65", "1e308", "1e999", "nan", "inf", "1e-320"]
WORDS = ["x", "y", "x^2 - 2", "-x^2", "1/x", "sin(x)*y", "newton", "secant"]
# relative to the temporary directory the test runs in
CACHES = ["cache.gausstab", "sub/cache.gausstab", ".", "nodes.txt/x"]
ARGV_POOL = OPTIONS + ["--", "--n=3", "--tol=-1"] + NUMBERS + WORDS + CACHES


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    # every path the CLI may write, by --cache, a positional or the
    # environment, lands in one temporary directory
    root = tmp_path_factory.mktemp("argv")
    (root / "nodes.txt").write_text("not a directory\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.setenv("CALCVERIFY_CACHE", str(root / "env.gausstab"))
        yield root


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["integrate", "diffcheck", "antideriv", "solve", "nodes", "cordic"]),
    tokens=st.lists(st.sampled_from(ARGV_POOL), max_size=8),
)
def test_every_argv_ends_in_a_documented_exit_status(argv_dir, command, tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *tokens])
    assert code in (0, 1, 2), (code, err.getvalue())


CACHE_TOKENS = ["1e308", "-0", "nan", "inf", "1_0", "0.5", "-0.5", "1", "2"]


def rule_rows(n):
    return [line.split() for line in dumps_tables([gauss_rule(n)]).splitlines()[2:]]


@st.composite
def cache_texts(draw, k):
    # blocks start as true rules and take edits of one cell or a whole
    # column, so edited files get past the parser to the later checks
    pool = CACHE_TOKENS + [token for row in rule_rows(k) for token in row]
    lines = ["GAUSSTAB 1"]
    for j in draw(st.lists(st.integers(1, 3), max_size=3)):
        rows = rule_rows(j)
        edit = st.tuples(st.integers(0, 1), st.none() | st.integers(0, j - 1), st.sampled_from(pool))
        for column, row, token in draw(st.lists(edit, max_size=3)):
            for r in range(j) if row is None else [row]:
                rows[r][column] = token
        lines += [f"N {j}", *(" ".join(row) for row in rows)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_every_hand_edited_cache_yields_the_gauss_rule(cache, data, k):
    path = cache + ".edited"
    with open(path, "w") as fh:
        fh.write(data.draw(cache_texts(k)))
    with contextlib.redirect_stderr(io.StringIO()):
        rule = get_or_build(path, k)
    assert rule.n == k and gauss_violation(rule) is None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_every_hand_edited_cache_integrates_with_the_gauss_rule(cache, data, k):
    # the CLI maps no TableError to an exit status: get_or_build must
    # recover from every cache it is given
    path = cache + ".cli"
    with open(path, "w") as fh:
        fh.write(data.draw(cache_texts(k)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["integrate", "x", "x", "0", "1", "--n", str(k), "--cache", path])
    assert (code, out.getvalue()) == (0, "0.5\n"), err.getvalue()
    assert not any(line.startswith("table error") for line in err.getvalue().splitlines())


NUMERIC_VALUES = [
    "nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "1e-320", "5e-324", "1", "-2", "0.5", "3",
]
# command -> (expressions, options drawn, count of numeric positionals)
NUMERIC_ARGV = {
    "diffcheck": (["x^2", "2*x"], ["--h", "--tol-abs", "--tol-rel"], 1),
    "antideriv": (["2*x", "x^2"], ["--tol"], 2),
    "solve": (["x^2 - 2"], ["--tol", "--c", "--x0", "--x1"], 0),
    "integrate": (["x^2", "x"], [], 2),
}
STEPS_AND_TOLERANCES = {"--h", "--tol", "--tol-abs", "--tol-rel"}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(sorted(NUMERIC_ARGV)),
    method=st.sampled_from(["newton", "secant"]),
)
def test_every_numeric_option_ends_in_a_documented_exit_status(argv_dir, data, command, method):
    texts, options, count = NUMERIC_ARGV[command]
    value = st.sampled_from(NUMERIC_VALUES)
    drawn = {name: data.draw(st.none() | value, label=name) for name in options}
    lead = []
    if command == "solve":
        drawn["--x0"] = drawn["--x0"] or "1"  # a required option
        lead = ["--method", method]
    elif command == "integrate":
        lead = ["--n", "3", "--cache", "cache.gausstab"]
    # the '=' form and '--' let values and bounds start with '-'
    argv = [command, *lead] + [f"{name}={v}" for name, v in drawn.items() if v is not None]
    argv += ["--", *texts] + [data.draw(value, label="positional") for _ in range(count)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if any(drawn.get(name) in ("nan", "inf", "-inf") for name in STEPS_AND_TOLERANCES):
        assert code == 2, (argv, err.getvalue())


BOUNDS = [
    "0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1", "-1", "1e308", "-1e308",
    "1.7976931348623157e308", "-1.7976931348623157e308", "inf", "-inf", "nan",
]
# the Gauss sum of a constant is exact up to rounding, and each subnormal
# weight and term is rounded to a multiple of 2^-1074; the bound also
# allows for a rounded half-width (b - a)/2, which is now weighed exactly
SUBNORMAL_ULP = Fraction(2) ** -1074


def constant_tolerance(value, widths, n):
    others = sum(math.prod(widths[:k] + widths[k + 1 :]) for k in range(len(widths)))
    return value * (n + 1) * SUBNORMAL_ULP * others + n ** len(widths) * SUBNORMAL_ULP


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(["integrate", "antideriv"]),
    dims=st.integers(1, 3),
    n=st.integers(1, 4),
)
def test_every_bound_ends_in_a_documented_exit_status(argv_dir, data, command, dims, n):
    bound = st.sampled_from(BOUNDS)
    axes = [(data.draw(bound, label="a"), data.draw(bound, label="b")) for _ in range(dims)]
    if command == "integrate":
        triplets = [text for name, (a, b) in zip("xyz", axes) for text in (name, a, b)]
        argv = ["integrate", "--n", str(n), "--cache", "cache.gausstab", "--json", "--", "1e-300", *triplets]
    else:
        axes = axes[:1]
        argv = ["antideriv", "--n", str(n), "--json", "--", "1e-300", "1e-300*x", *axes[0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    bounds = [float(text) for pair in axes for text in pair]
    if not all(map(math.isfinite, bounds)):
        assert code == 2, (argv, err.getvalue())
    elif all(float(a) < float(b) for a, b in axes):
        # a finite interval gives a report or an integral, never a numeric error
        widths = [Fraction(b) - Fraction(a) for a, b in axes]
        value = Fraction(1e-300) * math.prod(widths)
        if command == "antideriv":
            assert code in (0, 1) and "verdict" in out.getvalue(), (argv, err.getvalue())
        elif value > Fraction(sys.float_info.max):
            assert code == 1, (argv, out.getvalue())
        else:
            assert code == 0, (argv, err.getvalue())
            got = Fraction(json.loads(out.getvalue())["value"])
            tolerance = value / 10**9 + constant_tolerance(Fraction(1e-300), widths, n)
            assert abs(got - value) <= tolerance, (argv, float(got), float(value))

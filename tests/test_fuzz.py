"""Fuzz the CLI exit-status contract (every input ends in 0, 1 or 2)
and the rule cache (every hand-edited file yields the Gauss rule)."""

import contextlib
import io

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

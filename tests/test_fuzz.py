"""Fuzz the CLI exit-status contract: every input ends in 0, 1 or 2."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from calcverify.cli import main
from calcverify.expr import BUILTIN_FUNCTIONS

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

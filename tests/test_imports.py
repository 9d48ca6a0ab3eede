import functools
import json
import os
import subprocess
import sys

import pytest

from calcverify import gauss_rule
from calcverify.cli import main
from calcverify.tables import dumps_tables, load_tables

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


@functools.lru_cache(maxsize=None)
def stdlib_baseline():
    # what a fresh -S process loads for the stdlib modules calcverify imports; it
    # differs across Python versions, so a watched name in it is not calcverify's
    code = "import sys, collections, errno, functools, math, operator, os, stat, types; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return frozenset(proc.stdout.split())


def test_cli_import_does_not_load_numpy():
    # every CLI call pays its imports; numpy alone would cost more than the rest
    check = "import calcverify.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", check], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_only_what_a_call_needs():
    # -S: no site .pth files, which may import some of these on their own
    unwanted = ("dataclasses", "inspect", "json", "fractions", "decimal", "typing", "importlib")
    check = f"import calcverify.cli, sys; print(*[m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", check], env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert set(proc.stdout.split()) <= stdlib_baseline()


def test_resolving_every_export_loads_neither_typing_nor_importlib():
    check = (
        "import sys, calcverify\n"
        "for name in calcverify.__all__:\n"
        "    getattr(calcverify, name)\n"
        "print(*[m for m in ('typing', 'importlib') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", check], env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert set(proc.stdout.split()) <= stdlib_baseline()


def test_json_output_still_loads(capsys, tmp_path, monkeypatch):
    # --json prints what json reads back, with or without importing it
    monkeypatch.setenv("CALCVERIFY_CACHE", str(tmp_path / "cache.gausstab"))
    for argv in (
        ["integrate", "x^2", "x", "0", "1", "--json"],
        ["diffcheck", "x^3", "3*x^2", "2", "--json"],
        ["nodes", "3", "--json"],
        ["solve", "x^2 - 2", "--x0", "1", "--json"],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert isinstance(json.loads(out), dict)


def test_module_runs_as_cli():
    argv = [sys.executable, "-m", "calcverify.cli", "nodes", "2"]
    proc = subprocess.run(argv, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dumps_tables([gauss_rule(2)])


def loaded_modules(code, *args, cwd=None, prefixes=("calcverify.",)):
    # the modules under prefixes that a fresh -S process has loaded after running code
    report = f"import sys; print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    argv = [sys.executable, "-S", "-c", f"{code}\n{report}", *args]
    proc = subprocess.run(argv, env=ENV, capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


CLI_MODULES = {"calcverify.cli", "calcverify.errors", "calcverify._record"}


def test_cli_import_loads_no_library_module():
    assert loaded_modules("import calcverify.cli") <= CLI_MODULES


# argv -> the modules it loads besides cli, errors and _record
SUBCOMMAND_MODULES = [
    (["cordic", "1"], {"cordic"}),
    # nodes prints through quadrature's text form: neither the cache's reader nor its writer
    (["nodes", "3"], {"quadrature", "legendre"}),
    (["nodes", "3", "--json"], {"quadrature", "legendre"}),
    # each integrate below misses on an empty cache, so it loads the writer
    (["integrate", "x^2", "x", "0", "1"], {"expr", "quadrature", "legendre", "tables", "_tablewrite"}),
    # a grid of 4^3 points is below the nest's threshold: the point loops run it
    # all, so neither the axis sums' module nor the generator loads
    (
        ["integrate", "x*y*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "4"],
        {"expr", "quadrature", "legendre", "tables", "_tablewrite"},
    ),
    # a grid of 5^3 points is large enough for a nest; x*y*z is a product of
    # one-axis factors, so it is summed axis by axis and the generator stays unloaded
    (
        ["integrate", "x*y*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "5"],
        {"expr", "_separable", "quadrature", "legendre", "tables", "_tablewrite"},
    ),
    # sin(x*y) reads two axes, so the tree is not separable and runs the loop nest
    (
        ["integrate", "sin(x*y)*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "5"],
        {"expr", "_separable", "_nest", "quadrature", "legendre", "tables", "_tablewrite"},
    ),
    (["integrate", "x^", "x", "0", "1"], {"expr"}),  # a parse error builds no rule
    (["diffcheck", "x^2", "2*x", "1"], {"expr", "diffcheck"}),
    (["antideriv", "2*x", "x^2", "0", "1"], {"expr", "diffcheck", "quadrature", "legendre"}),
    (["solve", "x^2 - 2", "--x0", "1"], {"expr", "diffcheck", "solvers"}),
    (["solve", "x^2 - 2", "--x0", "1", "--fprime", "2*x"], {"expr", "solvers"}),
    (["solve", "x^2 - 2", "--method", "secant", "--x0", "1", "--x1", "2"], {"expr", "solvers"}),
]


# one CLI call on the cache in the working directory; its output goes to a
# file, so stdout is the module list alone
RUN_MAIN = (
    "import contextlib, os, sys\n"
    "os.environ['CALCVERIFY_CACHE'] = 'cache.gausstab'\n"
    "from calcverify.cli import main\n"
    "with open('out.txt', 'w') as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
    "    main(sys.argv[1:])"
)


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES, ids=[" ".join(a) for a, _ in SUBCOMMAND_MODULES])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    loaded = loaded_modules(RUN_MAIN, *argv, cwd=tmp_path, prefixes=("calcverify.", "collections."))
    assert {m for m in loaded if m.startswith("calcverify.")} - CLI_MODULES == {f"calcverify.{m}" for m in modules}
    # annotations are never evaluated, so no module imports collections.abc for them
    assert "collections.abc" not in loaded - stdlib_baseline()


# argv on a cache that holds its rule -> the modules it loads besides cli, errors and _record
WARM_MODULES = [
    (["integrate", "x^2", "x", "0", "1", "--n", "5"], {"expr", "quadrature", "tables"}),
    (
        ["integrate", "x*y*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "5"],
        {"expr", "_separable", "quadrature", "tables"},
    ),
    (
        ["integrate", "sin(x*y)*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "5"],
        {"expr", "_separable", "_nest", "quadrature", "tables"},
    ),
]


@pytest.mark.parametrize("argv, modules", WARM_MODULES, ids=[" ".join(a) for a, _ in WARM_MODULES])
def test_an_integral_on_a_warm_cache_loads_no_rule_builder(tmp_path, argv, modules):
    # a hit checks the rule with quadrature's float recurrence, so legendre
    # stays unloaded; the file is read as bytes, so no text codec loads either
    (tmp_path / "cache.gausstab").write_text(dumps_tables([gauss_rule(5)]))
    loaded = loaded_modules(RUN_MAIN, *argv, cwd=tmp_path, prefixes=("calcverify.", "encodings."))
    assert {m for m in loaded if m.startswith("calcverify.")} - CLI_MODULES == {f"calcverify.{m}" for m in modules}
    assert "encodings.ascii" not in loaded - stdlib_baseline()
    assert (tmp_path / "cache.gausstab").read_text() == dumps_tables([gauss_rule(5)])


# argv with no cache named -> the modules it loads besides cli, errors and _record
UNCACHED_MODULES = [
    (["integrate", "x^2", "x", "0", "1", "--n", "5"], {"expr", "quadrature", "legendre"}),
    (
        ["integrate", "x*y*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "5"],
        {"expr", "_separable", "quadrature", "legendre"},
    ),
    (
        ["integrate", "sin(x*y)*z", "x", "0", "1", "y", "0", "1", "z", "0", "1", "--n", "5"],
        {"expr", "_separable", "_nest", "quadrature", "legendre"},
    ),
]


@pytest.mark.parametrize("argv, modules", UNCACHED_MODULES, ids=[" ".join(a) for a, _ in UNCACHED_MODULES])
def test_an_integral_with_no_cache_builds_its_rule_without_tables(tmp_path, argv, modules):
    uncached = RUN_MAIN.replace("os.environ['CALCVERIFY_CACHE'] = 'cache.gausstab'", "os.environ.pop('CALCVERIFY_CACHE', None)")
    assert uncached != RUN_MAIN
    loaded = loaded_modules(uncached, *argv, cwd=tmp_path)
    assert loaded - CLI_MODULES == {f"calcverify.{m}" for m in modules}
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_no_cli_path_compiles_the_exact_routes():
    # every row above pins its whole module set, and none holds _exact, the
    # module that the exact routes' old paths load
    rows = SUBCOMMAND_MODULES + WARM_MODULES + UNCACHED_MODULES
    assert not [argv for argv, modules in rows if "_exact" in modules]
    loaded = loaded_modules("from calcverify.legendre import Polynomial")
    assert loaded == {f"calcverify.{m}" for m in ("_exact", "legendre", "quadrature", "errors", "_record")}


def run_clean(argv, cwd):
    # one CLI call in a fresh -S process on the cache in cwd; the exit code and
    # which of the watched modules it loaded go to a file, past the CLI's output
    watched = ("argparse", "tempfile", "fcntl", "typing", "importlib", "re", "json")
    code = (
        "import sys\n"
        "from calcverify.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('report.txt', 'w') as fh:\n"
        f"    print(code, *[m for m in {watched!r} if m in sys.modules], file=fh)"
    )
    env = dict(ENV, CALCVERIFY_CACHE="cache.gausstab")
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = (cwd / "report.txt").read_text().split()
    return int(code), set(loaded) - stdlib_baseline(), proc.stdout, proc.stderr


PLAIN_ARGV = [
    ["integrate", "x^2", "x", "0", "1", "--n", "3", "--json"],
    ["diffcheck", "x^2", "2*x", "1", "--json"],
    ["antideriv", "2*x", "x^2", "0", "1"],
    ["solve", "x^2 - 2", "--x0", "1", "--method", "secant", "--x1", "2", "--json"],
    ["nodes", "3", "--json"],
    ["cordic", "-1"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGV, ids=[a[0] for a in PLAIN_ARGV])
def test_plain_argv_runs_without_argparse(tmp_path, argv):
    # the warm cache holds the 3-point rule, so integrate reads it and writes nothing
    with open(tmp_path / "cache.gausstab", "w") as fh:
        fh.write(dumps_tables([gauss_rule(3)]))
    code, loaded, out, err = run_clean(argv, tmp_path)
    assert (code, err) == (0, "") and out
    # --json prints ints, booleans and plain words without json, so no call loads a watched module
    assert loaded == set()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integrate", "x", "x", "-1e0", "1"], "calcverify: error: unrecognized arguments: -1e0 1\n"),
        (["diffcheck", "x", "1", "1", "--tol", "1"], "error: ambiguous option: --tol could match --tol-abs, --tol-rel\n"),
    ],
)
def test_other_argv_is_left_to_argparse(tmp_path, argv, message):
    code, loaded, out, err = run_clean(argv, tmp_path)
    assert (code, out) == (2, "") and err.startswith("usage: calcverify") and err.endswith(message)
    assert "argparse" in loaded


def test_a_cache_miss_writes_the_cache_without_tempfile(tmp_path):
    # the temp file is made with os.open, so a miss loads no tempfile (nor the
    # random and shutil it imports); it loads fcntl alone, for the writers' lock
    code, loaded, out, err = run_clean(["integrate", "x^2", "x", "0", "1", "--n", "3"], tmp_path)
    assert (code, out, err) == (0, "0.3333333333\n", "")
    assert loaded == {"fcntl"}
    assert load_tables(tmp_path / "cache.gausstab") == {3: gauss_rule(3)}


def test_a_warm_hit_takes_no_lock(tmp_path):
    # a hit reads the file without locking it, so it loads no fcntl and writes nothing
    (tmp_path / "cache.gausstab").write_text(dumps_tables([gauss_rule(3)]))
    code, loaded, out, err = run_clean(["integrate", "x^2", "x", "0", "1", "--n", "3"], tmp_path)
    assert (code, out, err) == (0, "0.3333333333\n", "")
    assert loaded == set()
    assert (tmp_path / "cache.gausstab").read_text() == dumps_tables([gauss_rule(3)])

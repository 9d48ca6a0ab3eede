import functools
import json
import os
import subprocess
import sys

import pytest

from calcverify import gauss_rule
from calcverify.cli import main
from calcverify.tables import dumps_tables

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


@functools.lru_cache(maxsize=None)
def stdlib_baseline():
    # what a fresh -S process loads for the stdlib modules calcverify imports; it
    # differs across Python versions, so a watched name in it is not calcverify's
    code = "import sys, collections.abc, errno, functools, math, operator, os, stat, types; print(*sys.modules)"
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
    # json is imported only on the --json path
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


def loaded_modules(code, *args, cwd=None):
    # the calcverify.* modules a fresh -S process has loaded after running code
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('calcverify.')))"
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
    (["nodes", "3"], {"quadrature", "legendre", "tables"}),
    (["integrate", "x^2", "x", "0", "1"], {"expr", "quadrature", "legendre", "tables"}),
    (["integrate", "x^", "x", "0", "1"], {"expr"}),  # a parse error builds no rule
    (["diffcheck", "x^2", "2*x", "1"], {"expr", "diffcheck"}),
    (["antideriv", "2*x", "x^2", "0", "1"], {"expr", "diffcheck", "quadrature", "legendre"}),
    (["solve", "x^2 - 2", "--x0", "1"], {"expr", "diffcheck", "solvers"}),
    (["solve", "x^2 - 2", "--method", "secant", "--x0", "1", "--x1", "2"], {"expr", "diffcheck", "solvers"}),
]


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES, ids=[" ".join(a) for a, _ in SUBCOMMAND_MODULES])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    # the run's output goes to a file, so stdout is the module list alone
    code = (
        "import contextlib, os, sys\n"
        "os.environ['CALCVERIFY_CACHE'] = 'cache.gausstab'\n"
        "from calcverify.cli import main\n"
        "with open('out.txt', 'w') as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "    main(sys.argv[1:])"
    )
    loaded = loaded_modules(code, *argv, cwd=tmp_path)
    assert loaded - CLI_MODULES == {f"calcverify.{m}" for m in modules}


def run_clean(argv, cwd):
    # one CLI call in a fresh -S process on the cache in cwd; the exit code and
    # which of the watched modules it loaded go to a file, past the CLI's output
    watched = ("argparse", "tempfile", "typing", "importlib", "re")
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
    ["integrate", "x^2", "x", "0", "1", "--n", "3"],
    ["diffcheck", "x^2", "2*x", "1", "--json"],
    ["antideriv", "2*x", "x^2", "0", "1"],
    ["solve", "x^2 - 2", "--x0", "1", "--method", "secant", "--x1", "2"],
    ["nodes", "3"],
    ["cordic", "-1"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGV, ids=[a[0] for a in PLAIN_ARGV])
def test_plain_argv_runs_without_argparse(tmp_path, argv):
    # the warm cache holds the 3-point rule, so integrate reads it and writes nothing
    with open(tmp_path / "cache.gausstab", "w") as fh:
        fh.write(dumps_tables([gauss_rule(3)]))
    code, loaded, out, err = run_clean(argv, tmp_path)
    assert (code, err) == (0, "") and out
    # json loads re; a plain call without --json loads none of the watched modules
    assert loaded <= ({"re"} if "--json" in argv else set())


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

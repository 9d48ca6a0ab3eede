import json
import os
import subprocess
import sys

from calcverify import gauss_rule
from calcverify.cli import main
from calcverify.tables import dumps_tables

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def test_cli_import_does_not_load_numpy():
    # every CLI call pays its imports; numpy alone would cost more than the rest
    check = "import calcverify.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", check], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_only_what_a_call_needs():
    # -S: no site .pth files, which may import some of these on their own
    unwanted = ("dataclasses", "inspect", "json", "fractions", "decimal")
    check = f"import calcverify.cli, sys; print(*[m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", check], env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\n"


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

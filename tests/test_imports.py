import os
import subprocess
import sys

from calcverify import gauss_rule
from calcverify.tables import dumps_tables

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def test_cli_import_does_not_load_numpy():
    # every CLI call pays its imports; numpy alone would cost more than the rest
    check = "import calcverify.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", check], env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_runs_as_cli():
    argv = [sys.executable, "-m", "calcverify.cli", "nodes", "2"]
    proc = subprocess.run(argv, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dumps_tables([gauss_rule(2)])

"""The traced benchmark child still finds every name it wraps.

``bench/child.py`` wraps module attributes by name (``expr.evaluate``,
``quadrature.apply_rule_box``, ``tables.get_or_build``, ...), so deleting or
renaming one of them would break ``bench/run.py --trace 1``.  Its
per-point rows also count one ``expr.evaluate`` span per integrand point.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced(tmp_path, *cli_args):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), CALCVERIFY_CACHE=str(tmp_path / "c.gausstab"))
    argv = [sys.executable, os.path.join(ROOT, "bench", "child.py"), "cli", str(trace), *cli_args]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_traced_child_runs_a_cli_operation(tmp_path):
    assert _traced(tmp_path, "nodes", "3")["spans"]["cli.main"][0] == 1


def test_traced_integrate_evaluates_once_per_point(tmp_path):
    spans = _traced(tmp_path, "integrate", "x*y", "x", "0", "1", "y", "0", "1", "--n", "3")["spans"]
    assert spans["expr.evaluate"][0] == 9
    # each evaluation is a span opened directly inside the tensor-product sum
    assert spans["quadrature.apply_rule_box"][3] == 9


def test_traced_interval_is_one_apply_rule_box_span(tmp_path):
    trace = _traced(tmp_path, "integrate", "x", "x", "0", "1", "--n", "3")
    assert trace["counts"]["quadrature.points"] == 3
    spans = trace["spans"]
    # the CLI hands apply_rule_box the one-axis box, so each point is counted once
    calls, _, _, inside = spans["quadrature.apply_rule_box"]
    assert (calls, inside) == (1, 3)
    assert spans["quadrature.apply_rule"][0] == 0
    assert spans["expr.evaluate"][0] == 3

"""Tests of the benchmark itself: inputs, answer checks and the traced child.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from calcverify import cli, expr  # noqa: E402
from workloads import AllNear, Near  # noqa: E402

OPTIONS = {"--n", "--json", "--c", "--method", "--x0", "--x1", "--fprime", "--iters"}


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CALCVERIFY_CACHE", str(tmp_path / "rules.gausstab"))


def in_process(op: workloads.Op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def all_ops(workload: str, seed: int, rounds: int) -> list[workloads.Op]:
    return [op for ops in itertools.islice(workloads.generate(workload, seed), rounds) for op in ops]


def _node_count(tree) -> int:
    children = [getattr(tree, a) for a in ("operand", "left", "right", "arg") if hasattr(tree, a)]
    return 1 + sum(_node_count(c) for c in children)


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_same_seed_same_ops(workload):
    assert all_ops(workload, 7, 3) == all_ops(workload, 7, 3)
    assert all_ops(workload, 7, 3) != all_ops(workload, 8, 3)


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_argv_avoids_inputs_a_planned_fix_would_change(workload):
    for op in all_ops(workload, 3, 20):
        for prev, arg in zip(op.argv, op.argv[1:]):
            assert not arg.startswith("-") or arg in OPTIONS, op.argv
            if prev in ("--n", "--iters"):
                assert int(arg) > 0
        assert not any(a.startswith("--tol") or a == "--max-iters" for a in op.argv)


def test_grid_integrands_are_10_to_30_nodes_and_use_every_builtin():
    used = set()
    for op in all_ops("grid_heavy", 5, 4):
        tree = expr.parse(op.argv[1], ["x", "y", "z"][: op.fields.get("dims", (len(op.argv) - 4) // 3)])
        assert 10 <= _node_count(tree) <= 30, op.argv[1]
        used |= set(re.findall(r"[a-z]+(?=\()", op.argv[1]))
    assert used == set(workloads.BUILTINS)


@pytest.mark.parametrize("workload,seeds,rounds", [("cli_light", 4, 3), ("rules_cold", 3, 3), ("grid_heavy", 1, 1)])
def test_generated_ops_pass_their_checks(workload, seeds, rounds):
    for seed in range(seeds):
        for op in all_ops(workload, seed, rounds):
            assert checks.check(op, *in_process(op)) is None, op.argv


def _perturbed(value, want):
    if isinstance(want, Near):
        return value + 10 * want.tol + 1e-6 * abs(value) + 1e-12
    if isinstance(want, AllNear):
        return [value[0] + 1e-9] + value[1:]
    if isinstance(want, bool):
        return not value
    if isinstance(want, int):
        return value + 1
    return {"pass": "fail", "fail": "pass"}.get(value, value + "?")


def _one_of_each_kind() -> list[workloads.Op]:
    found = {}
    for op in all_ops("cli_light", 11, 8):
        found.setdefault((op.kind, op.as_json, op.exit), op)
    return list(found.values())


def test_every_kind_is_covered():
    kinds = {(kind, as_json) for kind, as_json, _ in ((o.kind, o.as_json, o.exit) for o in _one_of_each_kind())}
    for kind in ("integrate", "diffcheck", "antideriv", "solve", "cordic", "nodes"):
        assert {(kind, True), (kind, False)} <= kinds
    assert any(op.caret for op in _one_of_each_kind())
    assert any(op.kind == "diffcheck" and op.exit == 1 for op in _one_of_each_kind())


@pytest.mark.parametrize("op", _one_of_each_kind(), ids=lambda op: f"{op.kind}-{op.exit}-{op.as_json}")
def test_checker_rejects_a_perturbed_answer(op):
    code, stdout, stderr = in_process(op)
    assert checks.check(op, code, stdout, stderr) is None
    assert checks.check(op, code + 1, stdout, stderr) is not None
    assert checks.check(op, code, stdout, stderr + "Traceback (most recent call last):\n") is not None
    if op.caret is not None:
        source, offset = op.caret
        moved = stderr.replace(" " * offset + "^", " " * (offset + 1) + "^")
        assert checks.check(op, code, stdout, moved) is not None
        return
    for name, want in op.fields.items():
        if op.as_json:
            data = json.loads(stdout)
            data[name] = _perturbed(data[name], want)
            bad = json.dumps(data)
        elif op.kind == "integrate":
            bad = f"{_perturbed(float(stdout), want):.10g}\n"
        elif op.kind == "nodes":
            lines = stdout.splitlines()
            if name == "n":
                lines[1] = f"N {int(lines[1].split()[1]) + 1}"
            else:
                x, w = map(float, lines[2].split())
                x, w = (x + 1e-9, w) if name == "nodes" else (x, w + 1e-9)
                lines[2] = f"{x:.17g} {w:.17g}"
            bad = "\n".join(lines) + "\n"
        else:
            value = checks.parse_output(op, stdout)[name]
            new = _perturbed(value, want)
            text = ("true" if new else "false") if isinstance(new, bool) else (
                f"{new:.10g}" if isinstance(new, float) else str(new))
            bad = re.sub(rf"^{name} .*$", f"{name} {text}", stdout, flags=re.M)
        assert checks.check(op, code, bad, stderr) is not None, (name, bad)


def test_tail_has_ten_samples_above():
    values = list(range(100))
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0


def test_traced_child_prints_what_the_cli_prints(tmp_path):
    op = all_ops("grid_heavy", 2, 1)[0]
    env = {"PYTHONPATH": str(ROOT / "src"), "CALCVERIFY_CACHE": str(tmp_path / "c.gausstab")}
    trace_path = tmp_path / "trace.json"
    plain = subprocess.run([sys.executable, "-c", run.CLI, *op.argv], capture_output=True, text=True, env=env)
    traced = subprocess.run(
        [sys.executable, str(run.CHILD), "cli", str(trace_path), *op.argv], capture_output=True, text=True, env=env
    )
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    trace = json.loads(trace_path.read_text())
    assert trace["spans"]["expr.evaluate"][0] == op.points
    assert trace["counts"]["quadrature.points"] == op.points
    # one integrand span opened inside the tensor-product sum per point
    assert trace["spans"]["quadrature.apply_rule_box"][3] == op.points
    assert trace["spans"]["tables.get_or_build"][0] == 1


def test_nested_span_cost_is_measured():
    import child

    assert 0 < child.nested_span_ns(calls=2000, repeat=3) < 1e5

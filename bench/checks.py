"""Check one CLI run against the answer its operation was generated with."""

from __future__ import annotations

import json
import math

from workloads import AllNear, Near, Op


def parse_output(op: Op, stdout: str) -> dict:
    """The printed fields, whatever the subcommand and output mode."""
    if op.as_json:
        return json.loads(stdout)
    lines = stdout.splitlines()
    if op.kind == "integrate":
        if len(lines) != 1:
            raise ValueError(f"expected one line, got {len(lines)}")
        return {"value": float(lines[0])}
    if op.kind == "nodes":
        if not lines or lines[0] != "GAUSSTAB 1":
            raise ValueError("missing 'GAUSSTAB 1' header")
        tag, n = lines[1].split()
        if tag != "N":
            raise ValueError(f"expected 'N <n>', got {lines[1]!r}")
        pairs = [tuple(map(float, line.split())) for line in lines[2:]]
        return {"n": int(n), "nodes": [p[0] for p in pairs], "weights": [p[1] for p in pairs]}
    fields = {}
    for line in lines:
        key, _, text = line.partition(" ")
        if text in ("true", "false"):
            fields[key] = text == "true"
        else:
            try:
                fields[key] = float(text)
            except ValueError:
                fields[key] = text
    return fields


def _mismatch(name: str, got, want) -> str | None:
    if isinstance(want, Near):
        if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want.ref) <= want.tol):
            return f"{name}={got!r}, expected {want.ref!r} +- {want.tol:.3g}"
    elif isinstance(want, AllNear):
        if not isinstance(got, list) or len(got) != len(want.refs):
            return f"{name} has {len(got) if isinstance(got, list) else got!r} entries, expected {len(want.refs)}"
        for i, (g, r) in enumerate(zip(got, want.refs)):
            if not abs(g - r) <= want.tol:
                return f"{name}[{i}]={g!r}, expected {r!r} +- {want.tol:.3g}"
    elif got != want:
        return f"{name}={got!r}, expected {want!r}"
    return None


def check(op: Op, code: int, stdout: str, stderr: str) -> str | None:
    """None when the run is correct, else why it is not."""
    if "Traceback" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1]
    if code != op.exit:
        return f"exit code {code}, expected {op.exit}: {stderr.strip()[:200]}"
    if op.caret is not None:
        source, offset = op.caret
        lines = stderr.splitlines()
        if (
            len(lines) != 3
            or not lines[0].startswith("error: ")
            or lines[1] != "  " + source
            or lines[2] != "  " + " " * offset + "^"
        ):
            return f"expected a caret message at offset {offset}, got {stderr!r}"
        return None
    try:
        fields = parse_output(op, stdout)
    except (ValueError, IndexError) as exc:
        return f"unreadable output ({exc}): {stdout[:200]!r}"
    for name, want in op.fields.items():
        if name not in fields:
            return f"field {name!r} missing from output"
        problem = _mismatch(name, fields[name], want)
        if problem:
            return problem
    return None

"""Fresh-process benchmark of the calcverify CLI.

    python3 bench/run.py --workload cli_light --seed 1 --seconds 24 --trace 0

Each operation is one ``calcverify`` command run as a new process, the
way users run it: one client in a closed loop, so the next command
starts when the previous one exits.  Every answer is checked against a
reference worked out without calcverify (see ``workloads.py``).  The run
measures for ``--seconds`` and then finishes the round it is in, so
every run holds whole rounds of the workload's operation mix.

Times are reported in "starts": an operation's wall plus CPU time
divided by that of the bare interpreter starts (``python -c pass``) run
just before and after it.  On a shared machine whose cores change speed
by up to half for minutes at a time, this keeps runs comparable; wall
and CPU time on their own, in starts and in ms, are in the run
metadata (see ``end_to_end``).

Workloads:

- ``cli_light``: all six subcommands at small sizes on a cache holding
  every rule, about 10% of them bad inputs with known exit codes.  The
  interpreter start and imports are most of each call.
- ``grid_heavy``: integrals over 2 and 3 axes with n from 16 to 64 on the
  same warm cache; expression evaluation and the tensor-product loop are
  most of each call.
- ``rules_cold``: ``nodes n`` plus 1-D integrals at n from 1 to 64,
  weighted to n >= 32, on a cache that starts empty, so rule builds and
  cache rewrites sit beside cache hits.

Set-up builds the shared cache of all 64 rules in one child process,
three times.  ``setup_s`` is the median build cost in starts, times
``START_S``: the seconds the build would take on a machine whose bare
start takes the roadmap's 58 ms.  Inputs are drawn lazily as the run
takes them, outside set-up and outside any operation's time.  The
child environment differs from the caller's only in ``PYTHONPATH``
(the checkout's ``src``) and in ``HOME``, ``XDG_CACHE_HOME`` and
``CALCVERIFY_CACHE``, which point into a temporary directory in the
checkout, so no user cache is read or written.

With ``--trace 0`` the last line of stdout is the end-to-end result.
With ``--trace 1`` the run instead replays a seeded prefix of the
workload, each operation once untraced and once under spans in
``child.py``, checks that both print the same, runs the fixed layer
probe, and reports the per-layer metrics; the tracing overhead is the
median traced minus untraced latency of the same operation.  The line
before the result holds run metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
# What the installed ``calcverify`` console script runs.
CLI = "import sys; from calcverify.cli import entry; sys.exit(entry())"
WARM_CACHE_BUILD = (
    "import sys, time; from calcverify import quadrature, tables; "
    "t = time.perf_counter(); rules = [quadrature.gauss_rule(n) for n in range(1, 65)]; "
    "print((time.perf_counter() - t) * 1e3); tables.save_tables(rules, sys.argv[1])"
)
SETUP_REPEATS = 3
# The bare interpreter start run between operations (see closed_loop).
BARE = "pass"
# Bare starts run before and after each set-up build.
SETUP_BARE_RUNS = 3
# Wall time of a bare start in the roadmap's baseline; converts set-up
# cost from starts to seconds.
START_S = 0.058
OP_TIMEOUT_S = 60.0
INTERPRETER_RUNS = 5
# Seconds one untraced round takes on a 2-core box.  A traced run
# replays int(seconds / (2 * this)) rounds, at least one, running each
# operation untraced and then traced, so it lasts about as long as an
# untraced run.
ROUND_SECONDS = {"cli_light": 1.8, "grid_heavy": 2.8, "rules_cold": 1.7}

# Metric name -> unit, for each section of BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class SetupError(Exception):
    pass


@dataclass
class Run:
    """One finished child process."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    failure: str | None = None
    trace: dict | None = None


class Sandbox:
    """Temporary directory in the checkout, and the children's environment."""

    def __init__(self):
        scratch = ROOT / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.warm_cache = self.dir / "warm.gausstab"
        self.cache = self.dir / "xdg-cache" / "calcverify" / "rules.gausstab"
        self.traced_cache = self.dir / "traced.gausstab"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            HOME=str(self.dir / "home"),
            XDG_CACHE_HOME=str(self.dir / "xdg-cache"),
            CALCVERIFY_CACHE=str(self.cache),
        )
        # Traced children get a cache of their own, so that a replay
        # can alternate untraced and traced runs of each operation.
        self.traced_env = dict(self.env, CALCVERIFY_CACHE=str(self.traced_cache))
        for d in (self.dir / "home", self.cache.parent):
            d.mkdir(parents=True)

    def start_cache(self, warm: bool) -> None:
        """The CLI's caches: a copy of every rule, or no file at all."""
        for cache in (self.cache, self.traced_cache):
            cache.unlink(missing_ok=True)
            if warm:
                shutil.copyfile(self.warm_cache, cache)

    def spawn(self, argv: list[str], env: dict | None = None) -> Run:
        """Run a child to completion, timing it from spawn to exit."""
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env or self.env, cwd=self.dir
            )
            reaped = threading.Event()
            timer = threading.Timer(OP_TIMEOUT_S, lambda: reaped.is_set() or proc.kill())
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        run = Run(proc.returncode, stdout, stderr, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
        if wall >= OP_TIMEOUT_S:
            run.failure = f"timed out after {OP_TIMEOUT_S:.0f} s"
        return run

    def run_op(self, op: workloads.Op, traced: bool = False) -> Run:
        if traced:
            trace_path = self.dir / "trace.json"
            trace_path.unlink(missing_ok=True)
            run = self.spawn([sys.executable, str(CHILD), "cli", str(trace_path), *op.argv], self.traced_env)
            if trace_path.exists():
                run.trace = json.loads(trace_path.read_text())
        else:
            run = self.spawn([sys.executable, "-c", CLI, *op.argv])
        run.failure = run.failure or checks.check(op, run.code, run.stdout, run.stderr)
        return run

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def cost(run: Run) -> float:
    return run.wall_s + run.cpu_s


def setup(sandbox: Sandbox) -> tuple[float, dict]:
    """Build the shared cache SETUP_REPEATS times; return ``setup_s`` and run metadata.

    Each build is weighed against the median of the bare starts run
    just before and after it, as the operations are (see end_to_end).
    """
    starts, wall_s, build_ms = [], [], []
    bare = [sandbox.spawn([sys.executable, "-c", BARE]) for _ in range(SETUP_BARE_RUNS)]
    for _ in range(SETUP_REPEATS):
        sandbox.warm_cache.unlink(missing_ok=True)
        run = sandbox.spawn([sys.executable, "-c", WARM_CACHE_BUILD, str(sandbox.warm_cache)])
        if run.code != 0 or not sandbox.warm_cache.exists():
            raise SetupError(f"building the rule cache failed (exit {run.code}): {run.stderr.strip()}")
        after = [sandbox.spawn([sys.executable, "-c", BARE]) for _ in range(SETUP_BARE_RUNS)]
        starts.append(cost(run) / statistics.median(cost(b) for b in bare + after))
        wall_s.append(run.wall_s)
        build_ms.append(float(run.stdout))
        bare = after
    info = {"setup_starts": starts, "setup_wall_s": wall_s, "gauss_rule_cold_all64_ms": statistics.median(build_ms)}
    return statistics.median(starts) * START_S, info


def closed_loop(sandbox: Sandbox, rounds, seconds: float):
    """Whole rounds of operations, one at a time, until ``seconds`` have passed.

    A bare interpreter start (``python -c pass``) runs before the first
    operation and after each one.  Returns the operations' runs and the
    bare runs, one more of those than of the former.
    """
    start = time.perf_counter()
    runs: list[tuple[workloads.Op, Run]] = []
    bare = [sandbox.spawn([sys.executable, "-c", BARE])]
    for batch in rounds:
        if time.perf_counter() - start >= seconds:
            break
        for op in batch:
            runs.append((op, sandbox.run_op(op)))
            bare.append(sandbox.spawn([sys.executable, "-c", BARE]))
    return runs, bare


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its rank."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(runs, bare: list[Run], setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, in units of the bare starts next to each operation.

    The cores of a shared machine change speed by up to half, within
    seconds and for minutes at a time.  Dividing each operation's times
    by those of the bare interpreter starts just before and after it
    cancels most of that, and no change to calcverify can move a bare
    start.

    The gated cost of an operation is its wall time plus its CPU time.
    numpy's BLAS threads spin at import: with a second core free they
    spin beside the main thread (CPU time well above wall time), and
    without one they take turns with it (wall time up, CPU time down),
    for minutes at a time.  Either figure alone moves by a quarter
    between those states; their sum moves by about 1%.  Wall time,
    CPU time and the same figures in ms go to the run metadata.
    """
    around = [(r, a, b) for (_, r), a, b in zip(runs, bare, bare[1:])]
    starts = [2 * cost(r) / (cost(a) + cost(b)) for r, a, b in around]
    latency = [2 * r.wall_s / (a.wall_s + b.wall_s) for r, a, b in around]
    cpu = [2 * r.cpu_s / (a.cpu_s + b.cpu_s) for r, a, b in around]
    walls = [r.wall_s for _, r in runs]
    integrals = [(op.points, x, r.wall_s) for (op, r), x in zip(runs, starts) if op.points and not r.failure]
    points = sum(p for p, _, _ in integrals)
    integral_starts = sum(x for _, x, _ in integrals) or math.nan
    integral_s = sum(w for _, _, w in integrals) or math.nan
    value, percentile = tail(starts)
    metrics = {
        "cost_p50": statistics.median(starts),
        "cost_tail": value,
        "points_per_start": points / integral_starts,
        "peak_rss_mb": statistics.median(r.rss_kb for _, r in runs) / 1024,
        "setup_s": setup_s,
    }
    info = {
        "tail_percentile": round(percentile, 2),
        "samples": len(starts),
        "starts": {
            "latency_p50": statistics.median(latency),
            "latency_tail": tail(latency)[0],
            "cpu_per_op_p50": statistics.median(cpu),
        },
        "ms": {
            "bare_start_p50": statistics.median(b.wall_s for b in bare) * 1e3,
            "latency_p50": statistics.median(walls) * 1e3,
            "latency_tail": tail(walls)[0] * 1e3,
            "cpu_per_op_p50": statistics.median(r.cpu_s for _, r in runs) * 1e3,
        },
        "ops_per_s": len(walls) / sum(walls),
        "points_per_s": points / integral_s,
    }
    return metrics, info


def _span(record: dict, *names: str) -> tuple[int, int]:
    """(calls, self ns) summed over span names in one traced process."""
    calls = sum(record["spans"].get(n, [0, 0, 0])[0] for n in names)
    self_ns = sum(record["spans"].get(n, [0, 0, 0])[1] for n in names)
    return calls, self_ns


def _per_call(records: list[dict], *names: str) -> float:
    """Median over processes of self ns per call, among processes that made a call."""
    values = [s / c for c, s in (_span(r, *names) for r in records) if c]
    return statistics.median(values) if values else math.nan


def per_layer(replay: list[dict], probe: dict, interpreter_s: list[float], overhead_ms: float) -> dict:
    """Per-layer metrics from traced processes.

    Each is recorded for the end-to-end metric it should move:

    - ``import.*``, ``cli.argparse_us``, ``expr.parse_*``: ``cost_p50``
      and ``peak_rss_mb`` on cli_light (``import.interpreter_ms`` is the
      floor of every latency, which no change to calcverify moves);
    - ``expr.eval_*``, ``quadrature.sum_us_per_point``:
      ``points_per_start`` on grid_heavy;
    - ``legendre.roots_ms``, ``quadrature.weights_ms``,
      ``quadrature.rule_builds``: ``cost_p50``, ``cost_tail`` and
      ``setup_s``, chiefly on rules_cold;
    - ``tables.load_*``, ``tables.cache_bytes``: ``cost_p50`` on the warm
      workloads; ``tables.save_*``, ``tables.hit_ratio``: ``cost_p50`` on
      rules_cold;
    - ``diffcheck``, ``solvers``, ``cordic``: none predicted (below noise);
      recorded so a regression shows.

    ``quadrature.sum_us_per_point`` is the self time of ``apply_rule`` and
    ``apply_rule_box`` less what the spans opened inside them (one per
    integrand call) add to it, as the probe measured.
    """
    both = replay + [probe]

    def total(*names: str) -> tuple[int, int]:
        pairs = [_span(r, *names) for r in replay]
        return sum(c for c, _ in pairs), sum(s for _, s in pairs)

    def nested(*names: str) -> int:
        return sum(r["spans"][n][3] for r in replay for n in names if n in r["spans"])

    def counted(name: str) -> int:
        return sum(r["counts"].get(name, 0) for r in replay)

    evaluations, eval_ns = total("expr.evaluate")
    summing = ("quadrature.apply_rule", "quadrature.apply_rule_box")
    sum_ns = total(*summing)[1] - nested(*summing) * probe["nested_span_ns"]
    gets, _ = total("tables.get_or_build")
    saves, _ = total("tables.save_tables")
    rows = probe["rows"]
    return {
        "import.interpreter_ms": statistics.median(interpreter_s) * 1e3,
        "import.calcverify_ms": statistics.median(r["import_ns"] for r in replay) / 1e6,
        "import.numpy_loaded": sum(r["numpy_loaded"] for r in replay) / len(replay),
        "cli.argparse_us": statistics.median(_span(r, "cli.argparse")[1] for r in replay) / 1e3,
        "expr.parse_us": _per_call(both, "expr.parse") / 1e3,
        "expr.parse_calls": total("expr.parse")[0],
        "expr.eval_us_per_point": eval_ns / evaluations / 1e3 if evaluations else math.nan,
        "expr.evaluations": evaluations,
        "quadrature.sum_us_per_point": sum_ns / max(counted("quadrature.points"), 1) / 1e3,
        "legendre.roots_ms": rows["legendre_roots_cold_ms.n64"],
        "quadrature.weights_ms": rows["gauss_rule_after_roots_ms.n64"],
        "quadrature.rule_builds": total("quadrature.gauss_rule")[0],
        "tables.load_ms": _per_call(both, "tables.load_tables") / 1e6,
        "tables.load_calls": total("tables.load_tables")[0],
        "tables.cache_bytes": counted("tables.bytes_loaded") / max(counted("tables.loads_ok"), 1),
        "tables.save_ms": _per_call(both, "tables.save_tables") / 1e6,
        "tables.save_calls": saves,
        "tables.hit_ratio": (gets - saves) / gets if gets else math.nan,
        "diffcheck.verify_us": _per_call(
            both, "diffcheck.verify_derivative", "diffcheck.verify_antiderivative") / 1e3,
        "solvers.solve_us": _per_call(both, "solvers.newton_solve", "solvers.secant_solve") / 1e3,
        "solvers.iterations": counted("solvers.iterations"),
        "cordic.sincos_us": _per_call(both, "cordic.cordic_sincos") / 1e3,
        "trace.overhead_ms": overhead_ms,
    }


def traced_run(sandbox: Sandbox, workload: str, rounds, seconds: float):
    """Replay a seeded prefix, each operation untraced and then traced; then the probe."""
    count = max(1, int(seconds / (2 * ROUND_SECONDS[workload])))
    ops = [op for ops in islice(rounds, count) for op in ops]
    sandbox.start_cache(workloads.WARM_CACHE[workload])
    pairs = [(sandbox.run_op(op), sandbox.run_op(op, traced=True)) for op in ops]
    for p, t in pairs:
        if not t.failure and (t.code, t.stdout) != (p.code, p.stdout):
            t.failure = f"traced run printed {t.stdout[:80]!r} (exit {t.code}), untraced {p.stdout[:80]!r} (exit {p.code})"
        if not t.failure and t.trace is None:
            t.failure = "traced child wrote no trace"
    probe_path = sandbox.dir / "probe.json"
    probe_run = sandbox.spawn(
        [sys.executable, str(CHILD), "probe", str(probe_path), str(sandbox.warm_cache), str(sandbox.dir)]
    )
    if probe_run.code != 0 or not probe_path.exists():
        raise SetupError(f"layer probe failed (exit {probe_run.code}): {probe_run.stderr.strip()}")
    probe = json.loads(probe_path.read_text())
    interpreter = [sandbox.spawn([sys.executable, "-c", BARE]).wall_s for _ in range(INTERPRETER_RUNS)]
    runs = [(op, run) for op, pair in zip(ops, pairs) for run in pair]
    replay = [t.trace for _, t in pairs if t.trace is not None]
    overhead = statistics.median(t.wall_s - p.wall_s for p, t in pairs) * 1e3
    metrics = per_layer(replay, probe, interpreter, overhead) if replay else {}
    info = {"replayed_ops": len(ops), "rounds": count, "roadmap_rows": probe["rows"],
            "nested_span_ns": probe["nested_span_ns"],
            "untraced_p50_ms": statistics.median(p.wall_s for p, _ in pairs) * 1e3}
    return runs, metrics, info


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "calcverify").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "calcverify" / "cli.py").is_file():
        print(f"error: calcverify sources not found under {SRC}", file=sys.stderr)
        return 2

    import numpy

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "src_calcverify_lines": src_lines(),
    }
    sandbox = Sandbox()
    try:
        setup_s, setup_info = setup(sandbox)
        meta.update(setup_info)
        rounds = workloads.generate(args.workload, args.seed)
        if args.trace:
            runs, metrics, info = traced_run(sandbox, args.workload, rounds, args.seconds)
            units = PER_LAYER
        else:
            sandbox.start_cache(workloads.WARM_CACHE[args.workload])
            runs, bare = closed_loop(sandbox, rounds, args.seconds)
            metrics, info = end_to_end(runs, bare, setup_s)
            units = END_TO_END
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sandbox.close()
    failures = [(list(op.argv), r.failure) for op, r in runs if r.failure]
    for argv_, why in failures[:10]:
        print(f"FAILED {argv_}: {why}", file=sys.stderr)
    values = {name: metrics.get(name, math.nan) for name in units}
    unmeasured = [name for name, value in values.items() if not math.isfinite(value)]
    meta.update(
        info,
        loadavg_end=os.getloadavg(),
        fail_ratio=len(failures) / len(runs),
        failures=failures[:10],
        unmeasured=unmeasured,
        ops=[shlex.join(op.argv) for op, _ in runs],
    )
    print("meta " + json.dumps(meta))
    result = {
        "correct": not failures and not unmeasured,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {
            name: {"value": None if name in unmeasured else value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced child process: one CLI operation, or the fixed layer probe.

Run as a script only; importing it imports calcverify.

    python bench/child.py cli TRACE_JSON ARGV...
    python bench/child.py probe TRACE_JSON WARM_CACHE SCRATCH_DIR

``cli`` times ``import calcverify.cli``, wraps the public functions of
each layer in spans, runs ``cli.main(ARGV)`` in this process, and exits
with its code.  Its stdout is exactly what the CLI prints, so the parent
can compare it with an untraced run of the same operation.

``probe`` first times the baseline rows untraced (rule build cold at
n = 20/40/64, a load of every cached rule, evaluation per point), then
makes one fixed call into every layer under the same spans, so each
per-layer time has at least one sample on every workload.

Spans are kept in memory, one aggregate per span name (calls, self time,
total time, spans opened directly inside; self time excludes nested
spans), and written to TRACE_JSON at exit.  The probe also measures what
one nested span adds to its parent's self time, so the parent can take
it out (see ``nested_span_ns``).
"""

import sys
import time

_start = time.perf_counter_ns()
import calcverify.cli as cli  # noqa: E402  (timed: this is what every CLI call pays)

_import_ns = time.perf_counter_ns() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402

from calcverify import cordic, diffcheck, expr, legendre, quadrature, solvers, tables  # noqa: E402


class Tracer:
    """Self-time spans around module attributes, aggregated by span name."""

    def __init__(self):
        # name -> [calls, self_ns, total_ns, spans opened directly inside]
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        # One [nested_ns, nested_calls] slot per open span, for its direct children.
        self._open = [[0, 0]]

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        agg = self.spans.setdefault(name, [0, 0, 0, 0])
        stack = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            slot = [0, 0]
            stack.append(slot)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                total = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += total
                parent[1] += 1
                agg[0] += 1
                agg[1] += total - slot[0]
                agg[2] += total
                agg[3] += slot[1]
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def _loaded(self, args, result) -> None:
        self.count("tables.loads_ok", 1)
        self.count("tables.bytes_loaded", os.path.getsize(args[0]))

    def install(self) -> None:
        count = self.count
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "build_parser", "cli.argparse")
        self.wrap(argparse.ArgumentParser, "parse_args", "cli.argparse")
        self.wrap(expr, "parse", "expr.parse")
        self.wrap(expr, "evaluate", "expr.evaluate")
        self.wrap(legendre, "legendre_roots", "legendre.legendre_roots")
        self.wrap(quadrature, "gauss_rule", "quadrature.gauss_rule")
        self.wrap(quadrature, "apply_rule", "quadrature.apply_rule",
                  lambda a, r: count("quadrature.points", a[0].n))
        self.wrap(quadrature, "apply_rule_box", "quadrature.apply_rule_box",
                  lambda a, r: count("quadrature.points", a[0].n ** a[2].dims))
        self.wrap(tables, "load_tables", "tables.load_tables", self._loaded)
        self.wrap(tables, "save_tables", "tables.save_tables")
        self.wrap(tables, "get_or_build", "tables.get_or_build")
        self.wrap(diffcheck, "verify_derivative", "diffcheck.verify_derivative")
        self.wrap(diffcheck, "verify_antiderivative", "diffcheck.verify_antiderivative")
        for attr in ("newton_solve", "secant_solve"):
            self.wrap(solvers, attr, f"solvers.{attr}",
                      lambda a, r: count("solvers.iterations", r.iterations))
        self.wrap(cordic, "cordic_table", "cordic.cordic_table")
        self.wrap(cordic, "cordic_sincos", "cordic.cordic_sincos")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_time(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def baseline_rows(warm_cache: str) -> dict[str, float]:
    """The hand-timed rows of the roadmap's baseline table, untraced."""
    rows = {}
    for n in (20, 40, 64):
        start = time.perf_counter()
        legendre.legendre_roots(n)
        roots = time.perf_counter() - start
        start = time.perf_counter()
        quadrature.gauss_rule(n)
        weights = time.perf_counter() - start
        rows[f"legendre_roots_cold_ms.n{n}"] = _ms(roots)
        rows[f"gauss_rule_after_roots_ms.n{n}"] = _ms(weights)
        rows[f"gauss_rule_cold_ms.n{n}"] = _ms(roots + weights)
    rows["load_tables_all64_ms"] = _ms(_median_time(lambda: tables.load_tables(warm_cache), 5))
    rows["get_or_build_warm_ms"] = _ms(_median_time(lambda: tables.get_or_build(warm_cache, 40), 5))
    # ~12-node expression over 3 variables, as in the roadmap's row
    tree = expr.parse("sin(x)*y + exp(z)*x - y/z", ["x", "y", "z"])
    grid = [(0.1 + i / 20, 0.2 + j / 20, 0.3 + k / 20) for i in range(12) for j in range(12) for k in range(12)]

    def evaluate_grid():
        for x, y, z in grid:
            expr.evaluate(tree, {"x": x, "y": y, "z": z})

    def lambda_grid():
        f = lambda x, y, z: math.sin(x) * y + math.exp(z) * x - y / z  # noqa: E731
        for point in grid:
            f(*point)

    rows["evaluate_us_per_point"] = _median_time(evaluate_grid, 5) * 1e6 / len(grid)
    rows["python_lambda_us_per_point"] = _median_time(lambda_grid, 5) * 1e6 / len(grid)
    return rows


def nested_span_ns(calls: int = 20000, repeat: int = 7) -> float:
    """Self time a nested span adds to the span around it, per nested call.

    The clock of a span stops before its own bookkeeping, so the parent
    pays for it: its self time grows by this much for every span opened
    inside it.  Measured as the self time of a span that calls a traced
    no-op ``calls`` times, minus that of the same span calling the plain
    no-op, median of ``repeat``.
    """
    tracer = Tracer()
    ns = types.SimpleNamespace(noop=lambda: None)
    plain = ns.noop
    tracer.wrap(ns, "noop", "noop")
    traced = ns.noop

    def loop(noop):
        for _ in range(calls):
            noop()

    ns.loop = loop
    tracer.wrap(ns, "loop", "loop")
    agg = tracer.spans["loop"]
    extra = []
    for _ in range(repeat):
        self_ns = []
        for noop in (plain, traced):
            before = agg[1]
            ns.loop(noop)
            self_ns.append(agg[1] - before)
        extra.append((self_ns[1] - self_ns[0]) / calls)
    return statistics.median(extra)


def probe_calls(warm_cache: str, scratch: str) -> None:
    """One fixed call into each layer, made through the installed spans."""
    rules = tables.load_tables(warm_cache)
    tables.get_or_build(warm_cache, 40)
    tables.save_tables(rules.values(), os.path.join(scratch, "probe.gausstab"))
    f = expr.as_function(expr.parse("sin(1.3*x) + x^2", ["x"]), ["x"])
    fprime = expr.as_function(expr.parse("1.3*cos(1.3*x) + 2*x", ["x"]), ["x"])
    antiderivative = expr.as_function(expr.parse("x^3/3 - cos(1.3*x)/1.3", ["x"]), ["x"])
    diffcheck.verify_derivative(f, fprime, 0.7)
    diffcheck.verify_antiderivative(f, antiderivative, 0.2, 1.1, n=10)
    solvers.newton_solve(f, 1.0, 0.6, fprime=fprime)
    solvers.secant_solve(f, 1.0, 0.6, 0.7)
    cordic.cordic_sincos(1.234, cordic.cordic_table(40))


def main(argv: list[str]) -> int:
    mode, out_path = argv[0], argv[1]
    tracer = Tracer()
    record = {"import_ns": _import_ns}
    if mode == "cli":
        tracer.install()
        code = cli.main(argv[2:])
        sys.stdout.flush()
    elif mode == "probe":
        warm_cache, scratch = argv[2], argv[3]
        record["rows"] = baseline_rows(warm_cache)
        record["nested_span_ns"] = nested_span_ns()
        tracer.install()
        probe_calls(warm_cache, scratch)
        code = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    record["numpy_loaded"] = "numpy" in sys.modules
    record["spans"] = tracer.spans
    record["counts"] = tracer.counts
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

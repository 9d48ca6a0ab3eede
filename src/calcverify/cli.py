"""Command-line interface.

Subcommands: integrate, diffcheck, antideriv, solve, nodes, cordic.
Exit status 0 means success or a passing verdict, 1 a numeric failure
(failed verdict, non-convergence, non-finite evaluation), and 2 a
usage, parse, or domain error.  Numbers print with 10 significant
digits in plain mode and 17 in --json mode.

Each subcommand imports the library modules it runs, so a call compiles
and runs no other; options left out fall back to the library defaults.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional, Sequence

from .errors import CapabilityError, DomainError, NumericError


def _caret(source: str, offset: int, message: str) -> str:
    offset = max(0, min(offset, len(source)))
    return f"{message}\n  {source}\n  {' ' * offset}^"


def _compile(text: str, variables: Sequence[str]) -> Callable[..., float]:
    from . import expr

    try:
        tree = expr.parse(text, variables)
    except expr.ParseError as pe:
        raise DomainError(_caret(text, pe.offset, str(pe))) from None

    def failure(ee: expr.EvalDomainError) -> Exception:
        # overflow and non-finite values are numeric failures (exit 1)
        kind = NumericError if ee.overflow else DomainError
        return kind(_caret(text, ee.offset, str(ee)))

    # one closure per arity, its names bound here and a dict display per
    # point; expr.evaluate is a module attribute looked up per call, so a
    # wrapper set on it (bench/child.py's tracer) sees every point
    if len(variables) == 1:
        (a,) = variables
        def f(x: float) -> float:
            try:
                return expr.evaluate(tree, {a: x})
            except expr.EvalDomainError as ee:
                raise failure(ee) from None

    elif len(variables) == 2:
        a, b = variables
        def f(x: float, y: float) -> float:
            try:
                return expr.evaluate(tree, {a: x, b: y})
            except expr.EvalDomainError as ee:
                raise failure(ee) from None

    else:
        a, b, c = variables
        def f(x: float, y: float, z: float) -> float:
            try:
                return expr.evaluate(tree, {a: x, b: y, c: z})
            except expr.EvalDomainError as ee:
                raise failure(ee) from None

    return f


def _json_scalar(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_scalar(x) for x in v) + "]"
    import json  # only --json output needs it, so a plain call never loads it

    return json.dumps(v)


def _given(args, *names: str) -> dict:
    # options parsed with default=SUPPRESS are absent unless given, so the
    # library's own defaults apply to the rest
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _record_fields(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def _emit(fields: dict, as_json: bool) -> None:
    if as_json:
        body = ", ".join(f"{_json_scalar(k)}: {_json_scalar(v)}" for k, v in fields.items())
        print("{" + body + "}")
        return
    for k, v in fields.items():
        if isinstance(v, bool):
            print(f"{k} {'true' if v else 'false'}")
        elif isinstance(v, float):
            print(f"{k} {v:.10g}")
        else:
            print(f"{k} {v}")


def _cmd_integrate(args) -> int:
    triplets = args.axes
    if len(triplets) % 3 != 0 or not 1 <= len(triplets) // 3 <= 3:
        raise DomainError("expected 1 to 3 axis triplets: VAR LO HI")
    names, lo, hi = [], [], []
    for k in range(0, len(triplets), 3):
        names.append(triplets[k])
        try:
            lo.append(float(triplets[k + 1]))
            hi.append(float(triplets[k + 2]))
        except ValueError:
            raise DomainError(f"bounds for {triplets[k]!r} are not numbers") from None
    f = _compile(args.expression, names)
    from . import quadrature, tables

    rule = tables.get_or_build(args.cache or tables.default_cache_path(), args.n)
    if len(names) == 1:
        value = quadrature.apply_rule(rule, f, lo[0], hi[0])
    else:
        value = quadrature.apply_rule_box(rule, f, quadrature.Box(tuple(lo), tuple(hi)))
    if args.json:
        _emit({"value": value, "n": args.n, "dims": len(names)}, True)
    else:
        print(f"{value:.10g}")
    return 0


def _cmd_diffcheck(args) -> int:
    f = _compile(args.function, [args.var])
    fprime = _compile(args.derivative, [args.var])
    from . import diffcheck

    report = diffcheck.verify_derivative(
        f, fprime, args.point, **_given(args, "h", "tol_abs", "tol_rel")
    )
    _emit(_record_fields(report), args.json)
    return 0 if report.verdict == "pass" else 1


def _cmd_antideriv(args) -> int:
    f = _compile(args.function, [args.var])
    antideriv = _compile(args.antiderivative, [args.var])
    from . import diffcheck

    report = diffcheck.verify_antiderivative(
        f, antideriv, args.a, args.b, **_given(args, "n", "tol")
    )
    _emit(_record_fields(report), args.json)
    return 0 if report.verdict == "pass" else 1


def _cmd_solve(args) -> int:
    f = _compile(args.function, [args.var])
    from . import solvers

    options = _given(args, "tol", "max_iters")
    if args.method == "newton":
        fprime = _compile(args.fprime, [args.var]) if args.fprime else None
        result = solvers.newton_solve(f, args.c, args.x0, fprime=fprime, **options)
    else:
        if args.x1 is None:
            raise DomainError("the secant method requires --x1")
        result = solvers.secant_solve(f, args.c, args.x0, args.x1, **options)
    _emit(_record_fields(result), args.json)
    if not result.converged:
        print(
            f"did not converge in {result.iterations} iterations; "
            f"last iterate {result.root:.10g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_nodes(args) -> int:
    from . import quadrature

    rule = quadrature.gauss_rule(args.n)
    if args.json:
        _emit(_record_fields(rule), True)
    else:
        from . import tables

        sys.stdout.write(tables.dumps_tables([rule]))
    return 0


def _cmd_cordic(args) -> int:
    from . import cordic

    table = cordic.cordic_table(**_given(args, "iters"))
    result = cordic.cordic_sincos(args.theta, table)
    ref_sin, ref_cos = math.sin(args.theta), math.cos(args.theta)
    _emit(
        {
            "theta": args.theta,
            "iters": table.iters,
            "sin": result.sin,
            "cos": result.cos,
            "ref_sin": ref_sin,
            "ref_cos": ref_cos,
            "sin_abs_diff": abs(result.sin - ref_sin),
            "cos_abs_diff": abs(result.cos - ref_cos),
        },
        args.json,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calcverify",
        description="Gauss-Legendre integration, derivative/antiderivative "
        "verification, root solving, and CORDIC trig.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate an expression over an interval or box")
    p.add_argument("expression")
    p.add_argument(
        "axes",
        nargs="+",
        metavar="VAR LO HI",
        help="1 to 3 axis triplets, e.g. x 0 1 y 0 1",
    )
    p.add_argument("--n", type=int, default=20, help="points per axis (default 20)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache", help="rule cache file (default $CALCVERIFY_CACHE)")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("diffcheck", help="verify an analytic derivative at a point")
    p.add_argument("function")
    p.add_argument("derivative")
    p.add_argument("point", type=float)
    p.add_argument("--var", default="x")
    p.add_argument("--h", type=float, default=argparse.SUPPRESS)
    p.add_argument("--tol-abs", type=float, default=argparse.SUPPRESS)
    p.add_argument("--tol-rel", type=float, default=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diffcheck)

    p = sub.add_parser("antideriv", help="verify an antiderivative on an interval")
    p.add_argument("function")
    p.add_argument("antiderivative")
    p.add_argument("a", type=float)
    p.add_argument("b", type=float)
    p.add_argument("--var", default="x")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_antideriv)

    p = sub.add_parser("solve", help="solve f(x) = c by Newton or secant iteration")
    p.add_argument("function")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--method", choices=("newton", "secant"), default="newton")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--x1", type=float, help="second start (secant only)")
    p.add_argument("--fprime", help="analytic derivative expression (newton only)")
    p.add_argument("--var", default="x")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-iters", type=int, default=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("nodes", help="print an n-point rule in the table file format")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("cordic", help="CORDIC sine/cosine with a reference comparison")
    p.add_argument("theta", type=float)
    p.add_argument("--iters", type=int, default=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cordic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return int(exit_.code) if exit_.code else 0
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

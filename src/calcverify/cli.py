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

import math
import sys
import types

from .errors import CalcVerifyError, DomainError, NumericError, _interval


def _compile(text: str, variables: Sequence[str]) -> Callable[..., float]:
    from . import expr

    return expr.as_function(expr.parse(text, variables), variables)


def _json_scalar(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_scalar(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if type(v) is int:
        return str(v)
    if type(v) is str and v.isascii() and v.isprintable() and '"' not in v and "\\" not in v:
        return f'"{v}"'  # every field name and verdict: nothing to escape
    import json  # only a string that needs escaping loads it

    return json.dumps(v)


def _given(args, *names: str) -> dict:
    # options left out are None, so the library's own defaults apply to them
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


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
    from os import environ  # here, so importing the CLI loads no os

    from . import quadrature

    # the bounds are checked before the rule is fetched, so a rejected call builds and caches none
    domain = _interval(lo[0], hi[0]) if len(names) == 1 else quadrature.Box(tuple(lo), tuple(hi))
    cache = environ.get("CALCVERIFY_CACHE")
    if cache:
        from . import tables

        rule = tables.get_or_build(cache, args.n)
    else:
        rule = quadrature.gauss_rule(args.n)
    if len(names) == 1:
        value = quadrature.apply_rule(rule, f, *domain)
    else:
        value = quadrature.apply_rule_box(rule, f, domain)
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

        print(tables.dumps_tables([rule]), end="")
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


_FLAG = {"action": "store_true", "default": False}
_FLOAT, _INT, _VAR = {"type": float}, {"type": int}, {"default": "x"}

# The one description of the CLI: subcommand -> (handler, help, arguments),
# each argument a name and the keywords of its add_argument call.
# build_parser() hands it to argparse, and _read_argv() reads a plain argv by it.
_COMMANDS = {
    "integrate": (_cmd_integrate, "integrate an expression over an interval or box", [
        ("expression", {}),
        ("axes", {"nargs": "+", "metavar": "VAR LO HI",
                  "help": "1 to 3 axis triplets, e.g. x 0 1 y 0 1"}),
        ("--n", {"type": int, "default": 20, "help": "points per axis (default 20)"}),
        ("--json", _FLAG),
    ]),
    "diffcheck": (_cmd_diffcheck, "verify an analytic derivative at a point", [
        ("function", {}), ("derivative", {}), ("point", _FLOAT), ("--var", _VAR),
        ("--h", _FLOAT), ("--tol-abs", _FLOAT), ("--tol-rel", _FLOAT), ("--json", _FLAG),
    ]),
    "antideriv": (_cmd_antideriv, "verify an antiderivative on an interval", [
        ("function", {}), ("antiderivative", {}), ("a", _FLOAT), ("b", _FLOAT), ("--var", _VAR),
        ("--n", _INT), ("--tol", _FLOAT), ("--json", _FLAG),
    ]),
    "solve": (_cmd_solve, "solve f(x) = c by Newton or secant iteration", [
        ("function", {}),
        ("--c", {"type": float, "default": 0.0}),
        ("--method", {"choices": ("newton", "secant"), "default": "newton"}),
        ("--x0", {"type": float, "required": True}),
        ("--x1", {"type": float, "help": "second start (secant only)"}),
        ("--fprime", {"help": "analytic derivative expression (newton only)"}),
        ("--var", _VAR), ("--tol", _FLOAT), ("--max-iters", _INT), ("--json", _FLAG),
    ]),
    "nodes": (_cmd_nodes, "print an n-point rule in the table file format", [
        ("n", _INT), ("--json", _FLAG),
    ]),
    "cordic": (_cmd_cordic, "CORDIC sine/cosine with a reference comparison", [
        ("theta", _FLOAT), ("--iters", _INT), ("--json", _FLAG),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="calcverify",
        description="Gauss-Legendre integration, derivative/antiderivative "
        "verification, root solving, and CORDIC trig.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return parser


def _value(spec: dict, token: str):
    # argparse reads a token as a value, not an option, if it has no leading '-' or
    # is a plain negative number, ^-\d+$|^-\d*\.\d+$ (\d is isdecimal; isdigit takes '²')
    whole, dot, fraction = token[1:].partition(".")
    if token.startswith("-") and not ((whole + fraction).isdecimal() and (fraction or not dot)):
        raise ValueError(token)
    value = spec.get("type", str)(token)  # the call argparse makes
    if value not in spec.get("choices", (value,)):
        raise ValueError(token)
    return value


def _read_argv(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace build_parser() gives a plain argv, or None to leave argv to argparse.

    Plain is a subcommand name, its positionals, then exact option names, each at
    most once and followed by one value (none for --json) that converts."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    positionals = [(name, spec) for name, spec in arguments if not name.startswith("-")]
    split = next((k for k, token in enumerate(argv) if token in options), len(argv))
    given, tokens, last = argv[1:split], argv[split:], len(positionals) - 1
    if positionals[last][1].get("nargs") == "+" and len(given) > last:  # integrate's axes
        given[last:] = [given[last:]]
    values = {name[2:].replace("-", "_"): spec.get("default") for name, spec in options.items()}
    values.update(command=argv[0], func=func)
    try:
        for (name, spec), token in zip(positionals, given, strict=True):
            one = isinstance(token, str)
            values[name] = _value(spec, token) if one else [_value(spec, t) for t in token]
        while tokens:
            name = tokens.pop(0)
            spec = options.pop(name)  # popped, so a repeat is unknown too
            flag = spec.get("action") == "store_true"
            values[name[2:].replace("-", "_")] = True if flag else _value(spec, tokens.pop(0))
    except (ValueError, KeyError, IndexError):  # a count, a name or a value that is not plain
        return None
    if any(spec.get("required") for spec in options.values()):
        return None
    return types.SimpleNamespace(**values)


def _devnull(fd: int) -> None:
    # the reader of fd has gone: what is left for it goes nowhere at exit
    import os

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            # None for help, a usage error or an unusual argv: argparse answers as always
            args = _read_argv(argv) or build_parser().parse_args(argv)
        except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
            code = int(exit_.code) if exit_.code else 0
        else:
            code = args.func(args)
        if sys.stdout is not None:  # closed stdout: print wrote nothing
            sys.stdout.flush()  # here, so a write that fails is an io error like any other
        return code
    except CalcVerifyError as exc:
        message, source = str(exc), getattr(exc, "source", None)
        if source is not None:  # a parse or evaluation error: point at the offset
            # the tokenizer skips any whitespace: echoed as one space, each character takes one column
            source = "".join(" " if c.isspace() else c for c in source)
            message += f"\n  {source}\n  {' ' * max(0, min(exc.offset, len(source)))}^"
        # overflow and non-finite values are numeric failures (exit 1)
        numeric = isinstance(exc, NumericError) or getattr(exc, "overflow", False)
        line, code = f"{'numeric error' if numeric else 'error'}: {message}", 1 if numeric else 2
    except OSError as exc:
        line, code = f"io error: {exc}", 2
        if isinstance(exc, BrokenPipeError):
            _devnull(1)
    try:
        print(line, file=sys.stderr)
    except OSError:  # best effort: the exit status stays the one of the error reported
        _devnull(2)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

"""Command-line interface.

Subcommands: integrate, diffcheck, antideriv, solve, nodes, cordic.
Exit status 0 means success or a passing verdict, 1 a numeric failure
(failed verdict, non-convergence, non-finite evaluation), and 2 a
usage, parse, or domain error.  Numbers print with 10 significant
digits in plain mode and 17 in --json mode.

Each subcommand's handler, ``run(args, cli)``, is its own module,
``_cmd_<subcommand>``, that ``main`` imports alone.  ``cli`` is this
module, passed in for the output helpers: under ``python -m
calcverify.cli`` it is ``__main__``, and a handler that imported
``calcverify.cli`` would compile it a second time.  Each handler imports
the library modules it runs, so a call compiles and runs no other: a
cache hit no writer, no call the exact routes or the library-only
``_printing`` and ``_differences``, and only an integral the box code of
``_box``.  ``_COMMANDS`` is the one argument table: ``_read_argv`` reads
a plain argv by it, and ``build_parser``, the argparse fallback, hands
it to argparse; neither loads a handler.  Options left out fall back to
the library defaults.
"""

from __future__ import annotations

import sys
import types

from .errors import CalcVerifyError, NumericError


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


_FLAG = {"action": "store_true", "default": False}
_FLOAT, _INT, _VAR = {"type": float}, {"type": int}, {"default": "x"}

# The one description of the CLI: subcommand -> (help, arguments), each
# argument a name and the keywords of its add_argument call; the handler of
# subcommand c is _cmd_c.run.  build_parser() hands it to argparse, and
# _read_argv() reads a plain argv by it.
_COMMANDS = {
    "integrate": ("integrate an expression over an interval or box", [
        ("expression", {}),
        ("axes", {"nargs": "+", "metavar": "VAR LO HI",
                  "help": "1 to 3 axis triplets, e.g. x 0 1 y 0 1"}),
        ("--n", {"type": int, "default": 20, "help": "points per axis (default 20)"}),
        ("--json", _FLAG),
    ]),
    "diffcheck": ("verify an analytic derivative at a point", [
        ("function", {}), ("derivative", {}), ("point", _FLOAT), ("--var", _VAR),
        ("--h", _FLOAT), ("--tol-abs", _FLOAT), ("--tol-rel", _FLOAT), ("--json", _FLAG),
    ]),
    "antideriv": ("verify an antiderivative on an interval", [
        ("function", {}), ("antiderivative", {}), ("a", _FLOAT), ("b", _FLOAT), ("--var", _VAR),
        ("--n", _INT), ("--tol", _FLOAT), ("--json", _FLAG),
    ]),
    "solve": ("solve f(x) = c by Newton or secant iteration", [
        ("function", {}),
        ("--c", {"type": float, "default": 0.0}),
        ("--method", {"choices": ("newton", "secant"), "default": "newton"}),
        ("--x0", {"type": float, "required": True}),
        ("--x1", {"type": float, "help": "second start (secant only)"}),
        ("--fprime", {"help": "analytic derivative expression (newton only)"}),
        ("--var", _VAR), ("--tol", _FLOAT), ("--max-iters", _INT), ("--json", _FLAG),
    ]),
    "nodes": ("print an n-point rule in the table file format", [
        ("n", _INT), ("--json", _FLAG),
    ]),
    "cordic": ("CORDIC sine/cosine with a reference comparison", [
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
    for command, (help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, spec in arguments:
            p.add_argument(name, **spec)
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
    _, arguments = _COMMANDS[argv[0]]
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    positionals = [(name, spec) for name, spec in arguments if not name.startswith("-")]
    split = next((k for k, token in enumerate(argv) if token in options), len(argv))
    given, tokens, last = argv[1:split], argv[split:], len(positionals) - 1
    if positionals[last][1].get("nargs") == "+" and len(given) > last:  # integrate's axes
        given[last:] = [given[last:]]
    values = {name[2:].replace("-", "_"): spec.get("default") for name, spec in options.items()}
    values["command"] = argv[0]
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
            handler = __import__(f"{__package__}._cmd_{args.command}", fromlist=["run"])
            code = handler.run(args, sys.modules[__name__])
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

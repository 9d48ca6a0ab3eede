"""``calcverify antideriv``: F(b) - F(a) against the quadrature of f on [a, b]."""

from __future__ import annotations


def run(args, cli) -> int:
    f = cli._compile(args.function, [args.var])
    antideriv = cli._compile(args.antiderivative, [args.var])
    from . import diffcheck

    report = diffcheck.verify_antiderivative(
        f, antideriv, args.a, args.b, **cli._given(args, "n", "tol")
    )
    cli._emit(cli._record_fields(report), args.json)
    return 0 if report.verdict == "pass" else 1

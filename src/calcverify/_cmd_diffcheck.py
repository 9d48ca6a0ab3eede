"""``calcverify diffcheck``: an analytic derivative against a central difference."""

from __future__ import annotations


def run(args, cli) -> int:
    f = cli._compile(args.function, [args.var])
    fprime = cli._compile(args.derivative, [args.var])
    from . import diffcheck

    report = diffcheck.verify_derivative(
        f, fprime, args.point, **cli._given(args, "h", "tol_abs", "tol_rel")
    )
    cli._emit(cli._record_fields(report), args.json)
    return 0 if report.verdict == "pass" else 1

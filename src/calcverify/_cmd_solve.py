"""``calcverify solve``: f(x) = c by Newton or secant iteration."""

from __future__ import annotations

import sys

from .errors import DomainError


def run(args, cli) -> int:
    f = cli._compile(args.function, [args.var])
    from . import solvers

    options = cli._given(args, "tol", "max_iters")
    if args.method == "newton":
        fprime = cli._compile(args.fprime, [args.var]) if args.fprime else None
        result = solvers.newton_solve(f, args.c, args.x0, fprime=fprime, **options)
    else:
        if args.x1 is None:
            raise DomainError("the secant method requires --x1")
        result = solvers.secant_solve(f, args.c, args.x0, args.x1, **options)
    cli._emit(cli._record_fields(result), args.json)
    if not result.converged:
        print(
            f"did not converge in {result.iterations} iterations; "
            f"last iterate {result.root:.10g}",
            file=sys.stderr,
        )
        return 1
    return 0

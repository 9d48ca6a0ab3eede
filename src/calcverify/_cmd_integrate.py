"""``calcverify integrate``: a Gauss rule applied over an interval or a box."""

from __future__ import annotations

from .errors import DomainError


def run(args, cli) -> int:
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
    f = cli._compile(args.expression, names)
    from os import environ  # here, so a parse error loads no os

    from . import quadrature

    box = quadrature.Box(tuple(lo), tuple(hi))  # the bounds before the rule: a rejected call builds and caches none
    cache = environ.get("CALCVERIFY_CACHE")
    if cache:
        from . import tables

        rule = tables.get_or_build(cache, args.n)
    else:
        rule = quadrature.gauss_rule(args.n)
    value = quadrature.apply_rule_box(rule, f, box)
    if args.json:
        cli._emit({"value": value, "n": args.n, "dims": len(names)}, True)
    else:
        print(f"{value:.10g}")
    return 0

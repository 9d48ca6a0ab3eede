"""``calcverify nodes``: an n-point rule, as the table file holds it or as JSON."""

from __future__ import annotations

from . import quadrature


def run(args, cli) -> int:
    rule = quadrature.gauss_rule(args.n)
    if args.json:
        cli._emit(cli._record_fields(rule), True)
    else:
        print(quadrature.dumps_tables([rule]), end="")
    return 0

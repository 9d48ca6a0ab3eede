"""``calcverify cordic``: CORDIC sine and cosine beside the math module's."""

from __future__ import annotations

import math

from . import cordic


def run(args, cli) -> int:
    table = cordic.cordic_table(**cli._given(args, "iters"))
    result = cordic.cordic_sincos(args.theta, table)
    ref_sin, ref_cos = math.sin(args.theta), math.cos(args.theta)
    cli._emit(
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

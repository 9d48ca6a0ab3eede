"""Numerical calculus verification toolkit.

Gauss-Legendre quadrature constructed from first principles (with the
Legendre polynomials built by two mutually validating routes),
finite-difference verification of derivatives and antiderivatives,
Newton/secant solvers, CORDIC sine/cosine, and a small expression
language feeding all of it from text.

Submodules load on first use (PEP 562): ``import calcverify`` imports
none of them, and ``calcverify.gauss_rule`` imports ``quadrature``.
``_NAMES`` says where every name lives.  Some are defined in a private
module that fewer calls load, and resolve under the module that
documents them through ``_elsewhere``: ``calcverify.legendre.Polynomial``
loads ``_exact``.
"""

__version__ = "0.1.0"

# one row per pair of submodules, "home defined name ...": each name is imported
# from home and defined in defined; a name marked "-" is not exported
_NAMES = {
    name.lstrip("-"): (home, defined, name[0] != "-")
    for home, defined, *names in map(
        str.split,
        (
            "cordic cordic CordicTable SinCos cordic_sincos cordic_table",
            "diffcheck diffcheck AntiderivativeReport DerivativeReport central_diff verify_antiderivative "
            "verify_derivative",
            "diffcheck _differences directional_derivative gradient one_sided_diff",
            "errors errors CalcVerifyError CapabilityError DomainError NumericError TableError",
            "expr expr EvalDomainError Expr ParseError as_function evaluate parse",
            "expr _printing to_string",
            "legendre legendre legendre_roots",
            "legendre _exact Polynomial RootSet legendre_gram_schmidt legendre_recurrence poly_derivative poly_eval "
            "-GRAM_SCHMIDT_MAX_DEGREE -_gram_schmidt_exact -_recurrence_exact -_to_polynomials -analytic_inner_product",
            "quadrature quadrature QuadratureRule gauss_rule",
            "quadrature _box Box apply_rule apply_rule_box convergence_table integrate_1d integrate_box",
            "quadrature _exact gauss_weights_linear_system -LINEAR_SYSTEM_MAX_POINTS",
            "solvers solvers SolveResult newton_solve secant_solve",
            "tables tables get_or_build load_tables save_tables",
        ),
    )
    for name in names
}
_SUBMODULES = frozenset(home for home, _, _ in _NAMES.values())

__all__ = sorted(name for name, (_, _, exported) in _NAMES.items() if exported)


def _submodule(name: str):
    return __import__(f"{__name__}.{name}", fromlist=["__name__"])


def _elsewhere(module: str, name: str):
    """``module``'s PEP 562 ``__getattr__``: its ``name``, which another submodule defines."""
    home, defined, _ = _NAMES.get(name, (None, None, None))
    if home != module.rpartition(".")[2] or defined == home:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return getattr(_submodule(defined), name)


def __getattr__(name: str):
    home, _, exported = _NAMES.get(name, (None, None, False))
    if exported:
        value = getattr(_submodule(home), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups bypass this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""Numerical calculus verification toolkit.

Gauss-Legendre quadrature constructed from first principles (with the
Legendre polynomials built by two mutually validating routes),
finite-difference verification of derivatives and antiderivatives,
Newton/secant solvers, CORDIC sine/cosine, and a small expression
language feeding all of it from text.

Submodules load on first use (PEP 562): ``import calcverify`` imports
none of them, and ``calcverify.gauss_rule`` imports ``quadrature``.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("cordic", "CordicTable SinCos cordic_sincos cordic_table"),
        (
            "diffcheck",
            "AntiderivativeReport DerivativeReport central_diff directional_derivative "
            "gradient one_sided_diff verify_antiderivative verify_derivative",
        ),
        ("errors", "CalcVerifyError CapabilityError DomainError NumericError TableError"),
        ("expr", "EvalDomainError Expr ParseError as_function evaluate parse to_string"),
        (
            "legendre",
            "Polynomial RootSet legendre_gram_schmidt legendre_recurrence legendre_roots "
            "poly_derivative poly_eval",
        ),
        (
            "quadrature",
            "Box QuadratureRule apply_rule apply_rule_box convergence_table gauss_rule "
            "gauss_weights_linear_system integrate_1d integrate_box",
        ),
        ("solvers", "SolveResult newton_solve secant_solve"),
        ("tables", "default_cache_path get_or_build load_tables save_tables"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = __import__(f"{__name__}.{module}", fromlist=["__name__"])
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups bypass this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})

"""Exact tangent multiple-angle triangles, operator expansions, and
derivative polynomials, with machine verification of the identities
connecting them.

Everything is integer or rational arithmetic; no floating point enters any
result (the only float in the package is the explicitly named sanity
bridge tan_float_check).

Importing the package loads none of its modules. Each name in __all__ and
each submodule (tanpoly.symbolic, tanpoly.verify, ...) is loaded from its
home module on first use (PEP 562) and then kept here, so a program pays
only for the layers it touches: exact, then multiangle on it, triangles,
then symbolic on it, and verify on all four.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module it comes from
_HOME = {
    name: module
    for module, names in {
        "exact": ("GaussianInt", "Rational"),
        "multiangle": (
            "DEFAULT_GRID", "POLE", "TanValue", "tan_addition", "tan_beeler", "tan_float_check", "tan_gaussian",
        ),
        "symbolic": (
            "InternalInconsistencyError", "ReducedPair", "YPoly", "YZPoly", "apply_dz", "diff", "dz_iter",
            "hoffman_p", "hoffman_q", "r_poly_closed", "r_poly_dz", "reduce_z", "reduced_diff",
            "t_poly_closed", "t_poly_dz",
        ),
        "triangles": (
            "binom", "m_closed", "m_row", "n_closed", "n_row", "r_coef", "r_row", "t_coef", "t_row", "tilde_rows",
        ),
        "verify": (
            "RTILDE_GOLDEN", "TTILDE_GOLDEN", "VerifyReport", "run_all", "run_suite", "verify_closed_forms",
            "verify_hoffman", "verify_operator_expansion", "verify_rec_vs_closed", "verify_rt_recurrences",
            "verify_tables", "verify_triple_agreement",
        ),
    }.items()
    for name in names
}

_SUBMODULES = frozenset({"cli", *_HOME.values()})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""Exact tangent multiple-angle triangles, operator expansions, and
derivative polynomials, with machine verification of the identities
connecting them.

Everything is integer or rational arithmetic; no floating point enters any
result (the only float in the package is the explicitly named sanity
bridge tan_float_check).
"""

from .exact import GaussianInt, Rational
from .multiangle import (
    DEFAULT_GRID,
    POLE,
    TanValue,
    tan_addition,
    tan_beeler,
    tan_float_check,
    tan_gaussian,
)
from .symbolic import (
    InternalInconsistencyError,
    ReducedPair,
    YPoly,
    YZPoly,
    apply_dz,
    diff,
    dz_iter,
    hoffman_p,
    hoffman_q,
    r_poly_closed,
    r_poly_dz,
    reduce_z,
    reduced_diff,
    t_poly_closed,
    t_poly_dz,
    tilde_rows,
)
from .triangles import (
    binom,
    m_closed,
    m_row,
    n_closed,
    n_row,
    r_coef,
    r_row,
    t_coef,
    t_row,
)
from .verify import (
    RTILDE_GOLDEN,
    TTILDE_GOLDEN,
    VerifyReport,
    run_all,
    run_suite,
    verify_closed_forms,
    verify_hoffman,
    verify_operator_expansion,
    verify_rec_vs_closed,
    verify_rt_recurrences,
    verify_tables,
    verify_triple_agreement,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GRID",
    "GaussianInt",
    "InternalInconsistencyError",
    "POLE",
    "RTILDE_GOLDEN",
    "Rational",
    "ReducedPair",
    "TTILDE_GOLDEN",
    "TanValue",
    "VerifyReport",
    "YPoly",
    "YZPoly",
    "apply_dz",
    "binom",
    "diff",
    "dz_iter",
    "hoffman_p",
    "hoffman_q",
    "m_closed",
    "m_row",
    "n_closed",
    "n_row",
    "r_coef",
    "r_poly_closed",
    "r_poly_dz",
    "r_row",
    "reduce_z",
    "reduced_diff",
    "run_all",
    "run_suite",
    "t_coef",
    "t_poly_closed",
    "t_poly_dz",
    "t_row",
    "tan_addition",
    "tan_beeler",
    "tan_float_check",
    "tan_gaussian",
    "tilde_rows",
    "verify_closed_forms",
    "verify_hoffman",
    "verify_operator_expansion",
    "verify_rec_vs_closed",
    "verify_rt_recurrences",
    "verify_tables",
    "verify_triple_agreement",
]

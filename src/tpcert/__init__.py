"""tpcert: exact certification of total positivity, Stieltjes-moment and
log-convexity properties for combinatorial triangle recurrences and their
continued fractions.

All arithmetic is exact (sparse multivariate polynomials over big
rationals); every certificate is a statement about an explicit finite
truncation and reports the truncation it checked.
"""

__version__ = "0.1.0"

from .contfrac import (
    JFraction,
    SFraction,
    cf_match,
    check_hankel_factorization,
    contract,
    extract_jfraction,
    j_expand,
    rising_product_series,
    s_expand,
    triangle_jfraction,
)
from .polyring import Poly, VarContext
from .totalpos import (
    PolyMatrix,
    TPReport,
    check_k_log_convex,
    hankel,
    is_totally_positive,
    l_operator,
    minor,
    tridiag,
    tridiagonal_tp_criteria,
)
from .triangles import (
    RecurrenceSpec,
    Triangle,
    build_triangle,
    check_companion_relation,
    check_product_formula,
    companion_spec,
    gamma_binomial,
    reciprocal,
    shift_row_gf,
    triangle_convolution,
)

__all__ = [
    "JFraction",
    "Poly",
    "PolyMatrix",
    "RecurrenceSpec",
    "SFraction",
    "TPReport",
    "Triangle",
    "VarContext",
    "__version__",
    "build_triangle",
    "cf_match",
    "check_companion_relation",
    "check_hankel_factorization",
    "check_k_log_convex",
    "check_product_formula",
    "companion_spec",
    "contract",
    "extract_jfraction",
    "gamma_binomial",
    "hankel",
    "is_totally_positive",
    "j_expand",
    "l_operator",
    "minor",
    "reciprocal",
    "rising_product_series",
    "s_expand",
    "shift_row_gf",
    "triangle_convolution",
    "triangle_jfraction",
    "tridiag",
    "tridiagonal_tp_criteria",
]

"""mahlerlab: numerical Mahler measures, elliptic integral identities, and L-values.

The package computes Mahler and half-Mahler measures of the two-parameter
family a(x + 1/x) + y + 1/y + c, verifies the functional identities relating
them across parameter regimes, checks a family of Pi/K elliptic-integral
identities with an automatic-differentiation engine, and cross-validates the
measures against elliptic-curve L-values computed from first principles.
"""

from .elliptic import (
    carlson_rc,
    carlson_rd,
    carlson_rf,
    carlson_rj,
    ell_e,
    ell_k,
    ell_k_imag,
    ell_pi,
    ell_pi_imag,
)
from .errors import (
    AccuracyError,
    DivergenceError,
    DomainError,
    LDataError,
    MahlerLabError,
    RegimeError,
    SingularParameterError,
    SingularPointError,
    UnsupportedCurveError,
)
from .curves import CurveModel, curve_from_k
from .eta import dedekind_eta, verify_eta_param
from .identities import (
    IdentityCandidate,
    IdentityReport,
    builtin_candidates,
    eval_r,
    verify_identity,
)
from .jets import Jet2
from .lseries import LFunctionData, an_table, lvalue_from_k
from .mahler import (
    HalfMeasures,
    LaurentPoly2,
    dfdk,
    dhdk,
    factor_member,
    half_measures,
    m_generic_2d,
    m_p1k,
)
from .quadrature import quadrature_oracle

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CurveModel",
    "DivergenceError",
    "DomainError",
    "HalfMeasures",
    "IdentityCandidate",
    "IdentityReport",
    "Jet2",
    "LDataError",
    "LFunctionData",
    "LaurentPoly2",
    "MahlerLabError",
    "RegimeError",
    "SingularParameterError",
    "SingularPointError",
    "UnsupportedCurveError",
    "an_table",
    "builtin_candidates",
    "carlson_rc",
    "carlson_rd",
    "carlson_rf",
    "carlson_rj",
    "curve_from_k",
    "dedekind_eta",
    "dfdk",
    "dhdk",
    "ell_e",
    "ell_k",
    "ell_k_imag",
    "ell_pi",
    "ell_pi_imag",
    "eval_r",
    "factor_member",
    "half_measures",
    "lvalue_from_k",
    "m_generic_2d",
    "m_p1k",
    "quadrature_oracle",
    "verify_eta_param",
    "verify_identity",
    "__version__",
]

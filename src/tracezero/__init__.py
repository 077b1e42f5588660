"""Exact counts of finite-field elements and irreducible polynomials with
vanishing trace and reciprocal trace, through Artin-Schreier curve point
counts and integer L-polynomial recurrences, cross-validated by brute
force."""

from .counting import CountEngine, CountReport, CountRow, carlitz_count, engine_for, gauss_count
from .curves import CurveSpec, beta_representatives, big_curve_count, count_points, count_points_naive, curve_family
from .errors import (
    BudgetExceededError,
    HasseWeilError,
    InvariantError,
    NegativeCountError,
    NonIntegralError,
    NonMonicError,
    NonPrimeError,
    TraceZeroError,
    ZeroEvaluationError,
)
from .gf import FieldSpec, is_irreducible, make_field, make_tower
from .lpoly import LPolynomial
from .numtheory import mobius
from .oracle import enum_f_count, enum_i_count, verify_all, z_count
from .sequences import (
    FamilyBoundReport,
    SeqFamily,
    build_family,
    cross_correlation,
    distinct_family_count,
    dual_family,
    family_complexity,
    legendre_symbol,
    omega_members,
)

__version__ = "0.1.0"

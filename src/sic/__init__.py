"""Superimposed codes and non-adaptive group-testing designs.

Construction of binary constant-weight codes from shortened Reed-Solomon
codes, exhaustive and certificate verification of cover-free / list-union /
exact-hit / threshold-design properties, and numerical rate bounds.
"""

from .bounds import (
    RateBound,
    asymptotic_rate,
    binary_entropy,
    lower_z1,
    lower_zu,
    nonrecurrent_upper,
    recurrence_objective,
    recurrent_upper,
    threshold_lower,
    threshold_lower_simple,
    universal_upper,
    upper_zu,
)
from .codes import (
    BinaryCode,
    CodeParams,
    QaryCode,
    binary_expand,
    random_code,
    rs_extended,
    search_params,
    shorten,
    strength_feasible,
)
from .errors import SicError
from .fields import FiniteField, is_prime_power
from .matrixfile import read_matrix, write_matrix
from .verify import (
    DEFAULT_BUDGET,
    OutcomeFunction,
    VerificationReport,
    check_cover_free,
    check_d_certificate,
    check_d_code,
    check_design,
    check_m_code,
    check_threshold_bar_design,
    check_threshold_design,
    coincidence,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCode", "CodeParams", "DEFAULT_BUDGET", "FiniteField",
    "OutcomeFunction", "QaryCode", "RateBound", "SicError",
    "VerificationReport", "asymptotic_rate", "binary_entropy",
    "binary_expand", "check_cover_free", "check_d_certificate",
    "check_d_code", "check_design", "check_m_code",
    "check_threshold_bar_design", "check_threshold_design", "coincidence",
    "is_prime_power", "lower_z1", "lower_zu", "nonrecurrent_upper",
    "random_code", "read_matrix", "recurrence_objective", "recurrent_upper",
    "rs_extended", "search_params", "shorten", "strength_feasible",
    "threshold_lower", "threshold_lower_simple", "universal_upper",
    "upper_zu", "write_matrix",
]

"""Entropic integral functionals of Laguerre and Gegenbauer polynomials
with large parameters: asymptotic expansions, a quadrature oracle, and
terminating-hypergeometric closed forms."""

from .asymptotics import (ExpansionResult, closed_form_value,
                          evaluate_asymptotic, hermite_type_gegenbauer,
                          hermite_type_laguerre, optimal_truncation)
from .functional import Functional, Kind
from .logvalue import LogValue
from .oracle import (QuadratureError, QuadResult, hermite_power_integral,
                     integrate_functional, shannon_integrand_value)
from .series import Series

__all__ = [
    "ExpansionResult", "Functional", "Kind", "LogValue", "QuadResult",
    "QuadratureError", "Series", "closed_form_value", "evaluate_asymptotic",
    "hermite_power_integral", "hermite_type_gegenbauer",
    "hermite_type_laguerre", "integrate_functional", "optimal_truncation",
    "shannon_integrand_value",
]

__version__ = "0.1.0"

"""Sign + log-magnitude arithmetic.

Every quantity produced by the evaluators (prefactors like ``alpha**(kappa*m)
* Gamma(mu)`` or ``alpha**alpha * exp(-alpha)``) overflows double precision
long before the interesting parameter range is exhausted, so all values are
carried as a sign and the natural log of the magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Largest log-magnitude that still converts to a finite double.
LINEAR_LOG_LIMIT = 700.0


@dataclass(frozen=True)
class LogValue:
    """A real number stored as ``sign * exp(log_abs)``.

    ``sign`` is -1, 0 or +1; ``log_abs`` is ``-inf`` for zero.
    """

    sign: int
    log_abs: float

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0, -math.inf)

    @staticmethod
    def one() -> "LogValue":
        return LogValue(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if x == 0.0:
            return LogValue.zero()
        if math.isnan(x):
            raise ValueError("cannot represent NaN as a LogValue")
        return LogValue(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(log_abs: float, sign: int = 1) -> "LogValue":
        if sign == 0:
            return LogValue.zero()
        return LogValue(1 if sign > 0 else -1, log_abs)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Linear-space value; +-inf when the magnitude exceeds double range."""
        if self.sign == 0:
            return 0.0
        if self.log_abs > LINEAR_LOG_LIMIT:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_abs)

    @property
    def representable(self) -> bool:
        return self.sign == 0 or self.log_abs < LINEAR_LOG_LIMIT

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LogValue":
        return LogValue(-self.sign, self.log_abs)

    def __abs__(self) -> "LogValue":
        return LogValue(abs(self.sign), self.log_abs)

    def __mul__(self, other: "LogValue") -> "LogValue":
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(s, self.log_abs + other.log_abs)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero LogValue")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.log_abs - other.log_abs)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.log_abs >= other.log_abs:
            big, small = self, other
        else:
            big, small = other, self
        d = small.log_abs - big.log_abs  # <= 0
        if self.sign == other.sign:
            return LogValue(big.sign, big.log_abs + math.log1p(math.exp(d)))
        r = math.exp(d)
        if r == 1.0:
            return LogValue.zero()
        return LogValue(big.sign, big.log_abs + math.log1p(-r))

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def scaled(self, factor: float) -> "LogValue":
        """Multiply by an ordinary float."""
        return self * LogValue.from_float(factor)

    def powf(self, p: float) -> "LogValue":
        """``|self|**p`` for a positive value; rejects negative bases."""
        if self.sign == 0:
            if p <= 0:
                raise ValueError("zero LogValue to a nonpositive power")
            return LogValue.zero()
        if self.sign < 0:
            raise ValueError("real power of a negative LogValue")
        return LogValue(1, p * self.log_abs)

    # -- comparisons -------------------------------------------------------

    def rel_diff(self, other: "LogValue") -> float:
        """|self/other - 1|, computed without leaving log space."""
        if other.sign == 0:
            return 0.0 if self.sign == 0 else math.inf
        if self.sign == 0:
            return 1.0
        d = self.log_abs - other.log_abs
        if self.sign == other.sign:
            if d > LINEAR_LOG_LIMIT:
                return math.inf
            return abs(math.expm1(d))
        if d > LINEAR_LOG_LIMIT:
            return math.inf
        return math.exp(d) + 1.0

"""Descriptors for the five entropic integral families.

A :class:`Functional` pins down one concrete integral: the family, the
polynomial degree ``m``, the large parameter ``alpha``, and exactly the
weight parameters that family uses.  Shannon-type kinds fix ``kappa = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Kind(str, Enum):
    LAG_RENYI = "lag_renyi"            # weight x^(mu-1) e^(-lam x), |L|^kappa
    LAG_SHANNON = "lag_shannon"        # same weight, L^2 log L^2
    GEG_RENYI = "geg_renyi"            # (1-x)^(c a+a')(1+x)^(d a+b'), |C|^kappa
    GEG_SHANNON = "geg_shannon"        # same weight, C^2 log C^2
    EXT_LAG_RENYI = "ext_lag_renyi"    # mu = alpha + sigma, |L|^kappa
    EXT_LAG_SHANNON = "ext_lag_shannon"

    @property
    def is_shannon(self) -> bool:
        return self in (Kind.LAG_SHANNON, Kind.GEG_SHANNON, Kind.EXT_LAG_SHANNON)

    @property
    def is_gegenbauer(self) -> bool:
        return self in (Kind.GEG_RENYI, Kind.GEG_SHANNON)


_REQUIRED = {
    Kind.LAG_RENYI: ("mu", "lam", "kappa"),
    Kind.LAG_SHANNON: ("mu", "lam"),
    Kind.GEG_RENYI: ("a", "b", "c", "d", "kappa"),
    Kind.GEG_SHANNON: ("a", "b", "c", "d"),
    Kind.EXT_LAG_RENYI: ("sigma", "lam", "kappa"),
    Kind.EXT_LAG_SHANNON: ("sigma", "lam"),
}

_PARAM_FIELDS = ("mu", "sigma", "lam", "kappa", "a", "b", "c", "d")


@dataclass(frozen=True)
class Functional:
    kind: Kind
    m: int
    alpha: float
    mu: float | None = None
    sigma: float | None = None
    lam: float | None = None
    kappa: float | None = None
    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {self.m!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        required = set(_REQUIRED[self.kind])
        if self.kind.is_shannon:
            if self.kappa is None:
                object.__setattr__(self, "kappa", 2.0)
            elif self.kappa != 2.0:
                raise ValueError(f"{self.kind.value} fixes kappa = 2, got {self.kappa}")
            required.add("kappa")
        for name in _PARAM_FIELDS:
            val = getattr(self, name)
            if name in required and val is None:
                raise ValueError(f"{self.kind.value} requires parameter {name}")
            if name not in required and val is not None:
                raise ValueError(f"{self.kind.value} does not take parameter {name}")
        for name in ("mu", "lam", "kappa", "c", "d"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ValueError(f"{name} must be positive, got {val}")
        for name in ("alpha", *_PARAM_FIELDS):
            val = getattr(self, name)
            if val is not None and not abs(val) < float("inf"):
                raise ValueError(f"{name} must be finite, got {val}")

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def lag_renyi(m: int, alpha: float, mu: float, lam: float,
                  kappa: float) -> "Functional":
        return Functional(Kind.LAG_RENYI, m, alpha, mu=mu, lam=lam, kappa=kappa)

    @staticmethod
    def lag_shannon(m: int, alpha: float, mu: float, lam: float) -> "Functional":
        return Functional(Kind.LAG_SHANNON, m, alpha, mu=mu, lam=lam)

    @staticmethod
    def geg_renyi(m: int, alpha: float, a: float, b: float, c: float, d: float,
                  kappa: float) -> "Functional":
        return Functional(Kind.GEG_RENYI, m, alpha, a=a, b=b, c=c, d=d, kappa=kappa)

    @staticmethod
    def geg_shannon(m: int, alpha: float, a: float, b: float, c: float,
                    d: float) -> "Functional":
        return Functional(Kind.GEG_SHANNON, m, alpha, a=a, b=b, c=c, d=d)

    @staticmethod
    def gegenbauer_weight_shannon(m: int, alpha: float) -> "Functional":
        """The (1-x^2)^(alpha-1/2) C^2 log C^2 integral: a = b = -1/2, c = d = 1."""
        return Functional.geg_shannon(m, alpha, a=-0.5, b=-0.5, c=1.0, d=1.0)

    @staticmethod
    def ext_renyi(m: int, alpha: float, sigma: float, lam: float,
                  kappa: float) -> "Functional":
        return Functional(Kind.EXT_LAG_RENYI, m, alpha, sigma=sigma, lam=lam,
                          kappa=kappa)

    @staticmethod
    def ext_shannon(m: int, alpha: float, sigma: float, lam: float) -> "Functional":
        return Functional(Kind.EXT_LAG_SHANNON, m, alpha, sigma=sigma, lam=lam)

    def params_dict(self) -> dict:
        out = {"kind": self.kind.value, "m": self.m, "alpha": self.alpha}
        for name in _PARAM_FIELDS:
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out

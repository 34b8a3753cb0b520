"""Test oracles: circle points stored by angle, and dict-based Laurent
arithmetic.

`DictPoly` is the sparse representation the package used before its
coefficient arrays: a dict from exponent to coefficient, with products by a
double loop over both supports.  It keeps every nonzero coefficient, so it
agrees with `LaurentPoly` on supports at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wavefock.laurent import LaurentPoly


@dataclass(frozen=True)
class TorusPoint:
    """A point on the unit circle, stored by angle in [0, 2*pi).

    Storing the angle keeps |z| = 1 exact and makes fiber constructions
    (N-th roots of a point) unambiguous: the principal root divides the
    angle instead of picking a branch of a complex logarithm.
    """

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", self.angle % (2.0 * math.pi))

    @property
    def value(self) -> complex:
        return complex(math.cos(self.angle), math.sin(self.angle))

    def root(self, N: int, branch: int = 0) -> "TorusPoint":
        """Principal N-th root, rotated by `branch` fiber steps."""
        return TorusPoint(self.angle / N + 2.0 * math.pi * branch / N)

    def power(self, k: int) -> "TorusPoint":
        return TorusPoint(self.angle * k)


def torus_grid(n: int) -> list:
    """Equispaced circle points exp(2*pi*i*k/n), k = 0..n-1."""
    return [TorusPoint(2.0 * math.pi * k / n) for k in range(n)]


class DictPoly:
    """sum_k c_k z^k as {k: c_k}, holding the nonzero coefficients only."""

    def __init__(self, coeffs=None):
        self.c = {int(k): complex(v) for k, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def _wrap(cls, c: dict, drop_zeros: bool = False) -> "DictPoly":
        p = cls.__new__(cls)
        p.c = {k: v for k, v in c.items() if v} if drop_zeros else c
        return p

    @classmethod
    def of(cls, p: LaurentPoly) -> "DictPoly":
        return cls._wrap(p.coeffs())

    @property
    def support(self) -> list:
        return sorted(self.c)

    def __add__(self, other):
        c = dict(self.c)
        for k, v in other.c.items():
            c[k] = c.get(k, 0j) + v
        return DictPoly._wrap(c, drop_zeros=True)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __mul__(self, other):
        c = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                c[k1 + k2] = c.get(k1 + k2, 0j) + v1 * v2
        return DictPoly._wrap(c, drop_zeros=True)

    def scale(self, s) -> "DictPoly":
        return DictPoly._wrap({k: v * s for k, v in self.c.items()}, drop_zeros=True)

    def shift(self, d: int) -> "DictPoly":
        return DictPoly._wrap({k + d: v for k, v in self.c.items()})

    def adjoint(self) -> "DictPoly":
        return DictPoly._wrap({-k: v.conjugate() for k, v in self.c.items()})

    def decimate(self, N: int) -> "DictPoly":
        return DictPoly._wrap({k // N: v for k, v in self.c.items() if k % N == 0})

    def upsample(self, N: int) -> "DictPoly":
        return DictPoly._wrap({N * k: v for k, v in self.c.items()})

    def coeffs(self) -> dict:
        return dict(self.c)

    def coeff_norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.c.values()))

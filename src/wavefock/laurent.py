"""Sparse Laurent polynomials on the unit circle.

Coefficients are stored in a dict keyed by integer exponent, so supports may
be negative and gappy.  All higher layers (filter banks, loop matrices,
subdivision operators) reduce to a handful of exact coefficient operations
defined here: products, adjoints, decimation and upsampling.  Grid sampling
on the circle is the only inexact operation and is kept separate from the
coefficient arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Coefficients with modulus below this are dropped after arithmetic.
PRUNE_EPS = 1e-14

# Default number of circle samples used by residual checks.
DEFAULT_GRID = 256


@dataclass(frozen=True)
class TorusPoint:
    """A point on the unit circle, stored by angle.

    The angle is normalised into [0, 2*pi).  Storing the angle rather than a
    complex number keeps |z| = 1 exact and makes fiber constructions (N-th
    roots of a point) unambiguous: the principal root halves the angle range
    instead of picking a branch of a complex logarithm.
    """

    angle: float

    def __post_init__(self):
        two_pi = 2.0 * math.pi
        object.__setattr__(self, "angle", self.angle % two_pi)

    @property
    def value(self) -> complex:
        return complex(math.cos(self.angle), math.sin(self.angle))

    def root(self, N: int, branch: int = 0) -> "TorusPoint":
        """Principal N-th root, rotated by `branch` fiber steps."""
        if N < 1:
            raise ValueError("root order must be positive")
        return TorusPoint(self.angle / N + 2.0 * math.pi * branch / N)

    def power(self, k: int) -> "TorusPoint":
        return TorusPoint(self.angle * k)


def torus_grid(n: int = DEFAULT_GRID) -> list[TorusPoint]:
    """Equispaced circle points exp(2*pi*i*k/n), k = 0..n-1."""
    if n < 1:
        raise ValueError("grid size must be positive")
    return [TorusPoint(2.0 * math.pi * k / n) for k in range(n)]


def grid_angles(n: int = DEFAULT_GRID) -> np.ndarray:
    return 2.0 * math.pi * np.arange(n) / n


class LaurentPoly:
    """Finitely supported Laurent polynomial sum_k c_k z^k.

    >>> p = LaurentPoly({0: 1.0, 1: 1.0})     # 1 + z
    >>> q = p * p
    >>> q.coeff(2)
    (1+0j)

    Instances behave as immutable values; arithmetic returns new objects and
    prunes coefficients below `PRUNE_EPS`.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None, prune_eps: float = PRUNE_EPS):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = complex(v)
                if abs(v) > prune_eps:
                    c[int(k)] = v
        self._c = c

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def monomial(cls, exponent: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls({exponent: coeff})

    # ------------------------------------------------------------------
    # structure

    @property
    def support(self) -> list[int]:
        return sorted(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        if not self._c:
            return 0
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            return 0
        return max(self._c)

    def coeff(self, k: int) -> complex:
        return self._c.get(k, 0j)

    def coeffs(self) -> dict:
        return dict(self._c)

    def coeff_norm(self) -> float:
        """l2 norm of the coefficient sequence."""
        return math.sqrt(sum(abs(v) ** 2 for v in self._c.values()))

    def coeff_sup(self) -> float:
        return max((abs(v) for v in self._c.values()), default=0.0)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0j) + v
        return LaurentPoly(c)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0j) - v
        return LaurentPoly(c)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            c = {}
            for k1, v1 in self._c.items():
                for k2, v2 in other._c.items():
                    k = k1 + k2
                    c[k] = c.get(k, 0j) + v1 * v2
            return LaurentPoly(c)
        if isinstance(other, (int, float, complex)):
            return LaurentPoly({k: v * other for k, v in self._c.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by z^d."""
        return LaurentPoly({k + d: v for k, v in self._c.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def isclose(self, other: "LaurentPoly", tol: float = 1e-12) -> bool:
        keys = set(self._c) | set(other._c)
        return all(abs(self.coeff(k) - other.coeff(k)) <= tol for k in keys)

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, z: TorusPoint | complex) -> complex:
        """Value at a point of the unit circle."""
        if isinstance(z, TorusPoint):
            z = z.value
        total = 0j
        for k, v in self._c.items():
            total += v * z**k
        return total

    __call__ = eval

    def eval_at(self, theta) -> np.ndarray:
        """Values at the circle points exp(i theta), for an angle array of
        any shape; the result has the shape of `theta`."""
        theta = np.asarray(theta, dtype=float)
        if not self._c:
            return np.zeros(theta.shape, dtype=complex)
        exps = np.fromiter(self._c, dtype=float, count=len(self._c))
        coeffs = np.fromiter(self._c.values(), dtype=complex, count=len(self._c))
        return np.exp(1j * np.multiply.outer(theta, exps)) @ coeffs

    def eval_grid(self, n: int = DEFAULT_GRID) -> np.ndarray:
        """Values at the n equispaced circle points."""
        return self.eval_at(grid_angles(n))

    def sup_grid(self, n: int = DEFAULT_GRID) -> float:
        if not self._c:
            return 0.0
        return float(np.max(np.abs(self.eval_grid(n))))

    def __repr__(self):
        if not self._c:
            return "LaurentPoly(0)"
        parts = [f"{v:.6g}*z^{k}" for k, v in sorted(self._c.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


# ----------------------------------------------------------------------
# spectral operations


def adjoint_poly(p: LaurentPoly) -> LaurentPoly:
    """Coefficient adjoint c_k -> conj(c_{-k}).

    On the circle this is pointwise complex conjugation of the function:
    eval(adjoint_poly(p), z) == conj(eval(p, z)) for |z| = 1.
    """
    return LaurentPoly({-k: v.conjugate() for k, v in p.coeffs().items()})


def decimate(p: LaurentPoly, N: int) -> LaurentPoly:
    """Keep every N-th coefficient: d_k = c_{N k}.

    Equals the fiber average (1/N) sum over w with w^N = z of p(w), read in
    coefficients, which is how the subband relations use it.
    """
    if N < 1:
        raise ValueError("decimation factor must be positive")
    return LaurentPoly({k // N: v for k, v in p.coeffs().items() if k % N == 0})


def upsample(p: LaurentPoly, N: int) -> LaurentPoly:
    """Substitute z -> z^N: coefficient c_k moves to exponent N k."""
    if N < 1:
        raise ValueError("upsampling factor must be positive")
    return LaurentPoly({N * k: v for k, v in p.coeffs().items()})


def polys_from_grid(values, lo: int):
    """Polynomials with exponents in [lo, lo + M - 1] from their values at
    the M grid points, read along axis 0: the inverse of `eval_grid(M)` on
    that window, by one DFT.

    `values` of shape (M,) gives one LaurentPoly; shape (M, *S) gives nested
    lists of shape S.  A polynomial with terms outside the window aliases
    onto it, so the window must cover the support.
    """
    values = np.asarray(values)
    M = values.shape[0]
    phase = np.exp(-1j * lo * grid_angles(M)).reshape((M,) + (1,) * (values.ndim - 1))
    coeffs = np.moveaxis(np.fft.fft(values * phase, axis=0) / M, 0, -1)
    exps = range(lo, lo + M)

    def build(c):
        if c.ndim == 1:
            return LaurentPoly(dict(zip(exps, c)))
        return [build(row) for row in c]

    return build(coeffs)


# ----------------------------------------------------------------------
# serialisation

# A polynomial is stored as a JSON array of [exponent, re, im] triples with
# strictly increasing exponents, e.g. [[0, 0.707, 0.0], [1, 0.707, 0.0]].


def poly_to_json(p: LaurentPoly) -> list:
    return [[k, p.coeff(k).real, p.coeff(k).imag] for k in p.support]


def poly_from_json(obj) -> LaurentPoly:
    if not isinstance(obj, list):
        raise ValueError("polynomial JSON must be an array of [exponent, re, im]")
    coeffs = {}
    last = None
    for item in obj:
        if not (isinstance(item, list) and len(item) == 3):
            raise ValueError(f"bad coefficient triple: {item!r}")
        k, re, im = item
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"exponent must be an integer, got {k!r}")
        if last is not None and k <= last:
            raise ValueError("exponents must be strictly increasing")
        last = k
        coeffs[k] = complex(re, im)
    return LaurentPoly(coeffs)

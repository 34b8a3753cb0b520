"""Laurent polynomials on the unit circle, as coefficient windows.

A polynomial sum_k c_k z^k is stored as its lowest exponent `lo` and the
dense complex array `taps` of c_lo, c_lo+1, ..., c_hi; both ends are nonzero
and the zero polynomial has no taps.  Only exact zeros are trimmed, so no
result depends on the scale of its coefficients.  All higher layers (filter
banks, loop matrices, subdivision operators) reduce to a handful of array
operations defined here: convolution, reverse-and-conjugate, a strided slice
(decimation) and zero stuffing (upsampling).  Sampling on the circle is the
only inexact operation, and it has one implementation: `circle_values` folds
a coefficient stack's exponents mod M and takes one FFT for its values at the
M-th roots of unity, and `polys_from_grid` takes one FFT back.
"""

from __future__ import annotations

import cmath

import numpy as np

# Circle samples for the reported residual sups; relation, loop and modulation verdicts read bounds.
DEFAULT_GRID = 256

# A DFT-recovered coefficient counts as roundoff when its modulus is at most
# this many machine epsilons per grid point times the stack's largest one.
ROUNDOFF_ULPS = 64


def _trimmed(lo: int, taps: np.ndarray):
    """(lo, taps) with exact zeros removed from both ends."""
    if len(taps) and taps[0] and taps[-1]:
        return lo, taps
    nz = np.flatnonzero(taps)
    if not len(nz):
        return 0, taps[:0]
    return lo + int(nz[0]), taps[nz[0] : nz[-1] + 1]


class LaurentPoly:
    """Finitely supported Laurent polynomial sum_k c_k z^k.

    >>> p = LaurentPoly({0: 1.0, 1: 1.0})     # 1 + z
    >>> q = p * p
    >>> q.coeff(2)
    (1+0j)

    Instances behave as immutable values; arithmetic returns new objects,
    and the taps a dict is stored in are read-only.
    """

    __slots__ = ("lo", "taps")

    def __init__(self, coeffs: dict | None = None):
        if coeffs:
            lo = min(coeffs)
            taps = np.zeros(max(coeffs) - lo + 1, dtype=complex)
            for k, v in coeffs.items():
                taps[k - lo] = v
            taps.setflags(write=False)  # no one else holds it
            self.lo, self.taps = _trimmed(int(lo), taps)
        else:
            self.lo, self.taps = 0, np.zeros(0, dtype=complex)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_array(cls, lo: int, taps) -> "LaurentPoly":
        """The polynomial sum_t taps[t] z^(lo + t); the array is not copied."""
        p = cls.__new__(cls)
        p.lo, p.taps = _trimmed(int(lo), np.asarray(taps, dtype=complex))
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.monomial(0)

    @classmethod
    def monomial(cls, exponent: int, coeff: complex = 1.0) -> "LaurentPoly":
        return cls.from_array(exponent, [coeff])

    # ------------------------------------------------------------------
    # structure

    @property
    def support(self) -> list[int]:
        return [self.lo + k for k, v in enumerate(self.taps.tolist()) if v]

    @property
    def is_zero(self) -> bool:
        return not len(self.taps)

    @property
    def min_exp(self) -> int:
        return self.lo

    @property
    def max_exp(self) -> int:
        return self.lo + max(len(self.taps) - 1, 0)

    def coeff(self, k: int) -> complex:
        t = k - self.lo
        return complex(self.taps[t]) if 0 <= t < len(self.taps) else 0j

    def coeffs(self) -> dict:
        return {self.lo + k: v for k, v in enumerate(self.taps.tolist()) if v}

    def coeff_norm(self) -> float:
        """l2 norm of the coefficient sequence."""
        return float(np.linalg.norm(self.taps))

    def coeff_sup(self) -> float:
        return float(np.abs(self.taps).max()) if len(self.taps) else 0.0

    # ------------------------------------------------------------------
    # arithmetic

    def _combine(self, other: "LaurentPoly", sign: float) -> "LaurentPoly":
        if other.is_zero:
            return self
        if self.is_zero:
            return other if sign > 0 else -other
        lo = min(self.lo, other.lo)
        out = np.zeros(max(self.max_exp, other.max_exp) - lo + 1, dtype=complex)
        out[self.lo - lo : self.lo - lo + len(self.taps)] = self.taps
        out[other.lo - lo : other.lo - lo + len(other.taps)] += sign * other.taps
        return LaurentPoly.from_array(lo, out)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._combine(other, 1.0)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._combine(other, -1.0)

    def __neg__(self):
        return LaurentPoly.from_array(self.lo, -self.taps)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.is_zero or other.is_zero:
                return LaurentPoly()
            return LaurentPoly.from_array(self.lo + other.lo, np.convolve(self.taps, other.taps))
        if isinstance(other, (int, float, complex)):
            return LaurentPoly.from_array(self.lo, self.taps * other)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by z^d."""
        return LaurentPoly.from_array(self.lo + d, self.taps)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.lo == other.lo and np.array_equal(self.taps, other.taps)

    def __hash__(self):
        return hash((self.lo, tuple(self.taps.tolist())))

    def isclose(self, other: "LaurentPoly", tol: float = 1e-12) -> bool:
        return (self - other).coeff_sup() <= tol

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, z: complex) -> complex:
        """Value at a nonzero complex point, by Horner's rule."""
        acc = 0j
        for v in reversed(self.taps.tolist()):
            acc = acc * z + v
        return acc * z**self.lo

    def eval_grid(self, n: int = DEFAULT_GRID) -> np.ndarray:
        """Values at the n equispaced circle points, by `circle_values`."""
        return circle_values(self.lo, self.taps, n)

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"{v:.6g}*z^{k}" for k, v in self.coeffs().items()]
        return "LaurentPoly(" + " + ".join(parts) + ")"


# ----------------------------------------------------------------------
# spectral operations


def adjoint_poly(p: LaurentPoly) -> LaurentPoly:
    """Coefficient adjoint c_k -> conj(c_{-k}).

    On the circle this is pointwise complex conjugation of the function:
    eval(adjoint_poly(p), z) == conj(eval(p, z)) for |z| = 1.
    """
    return LaurentPoly.from_array(-p.max_exp, p.taps[::-1].conj())


def decimate(p: LaurentPoly, N: int) -> LaurentPoly:
    """Keep every N-th coefficient: d_k = c_{N k}.

    Equals the fiber average (1/N) sum over w with w^N = z of p(w), read in
    coefficients, which is how the subband relations use it.
    """
    if N < 1:
        raise ValueError("decimation factor must be positive")
    first = -p.lo % N
    return LaurentPoly.from_array((p.lo + first) // N, p.taps[first::N])


def upsample(p: LaurentPoly, N: int) -> LaurentPoly:
    """Substitute z -> z^N: coefficient c_k moves to exponent N k."""
    if N < 1:
        raise ValueError("upsampling factor must be positive")
    if p.is_zero:
        return p
    out = np.zeros(N * (len(p.taps) - 1) + 1, dtype=complex)
    out[::N] = p.taps
    return LaurentPoly.from_array(N * p.lo, out)


def poly_window(polys) -> tuple:
    """(lo, width) of the smallest window holding every support (one zero
    tap if all are zero)."""
    live = [p for p in polys if not p.is_zero] or [LaurentPoly.one()]
    lo = min(p.lo for p in live)
    return lo, max(p.max_exp for p in live) - lo + 1


def stack_polys(polys) -> tuple:
    """(lo, C) with C[i, t] the coefficient of z^(lo + t) in polys[i], on
    `poly_window(polys)`."""
    lo, width = poly_window(polys)
    C = np.zeros((len(polys), width), dtype=complex)
    for row, p in zip(C, polys):
        row[p.lo - lo : p.lo - lo + len(p.taps)] = p.taps
    return lo, C


def circle_values(lo: int, taps, M: int) -> np.ndarray:
    """Values at the M points e^(2 pi i j/M), along axis 0, of the
    polynomials sum_t taps[t] z^(lo + t) of a (T, ...) coefficient stack.

    z^k takes the same values as z^(k mod M) there, so the exponents are
    folded mod M into an (M, ...) array, and one inverse FFT, times M, gives
    every value.
    """
    taps = np.asarray(taps, dtype=complex)
    first, T, rest = lo % M, len(taps), taps.shape[1:]
    padded = np.zeros((-(-(first + T) // M) * M,) + rest, dtype=complex)
    padded[first : first + T] = taps  # tap t lands in column (lo + t) mod M of the reshape
    return np.fft.ifft(padded.reshape((-1, M) + rest).sum(axis=0), axis=0) * M


def polys_from_grid(values, lo: int) -> np.ndarray:
    """Coefficients, on exponents lo .. lo + M - 1 along axis 0, of the
    polynomials whose values at the M points of `circle_values` are read
    along axis 0 of `values`: the inverse of `circle_values` on that window,
    by one FFT.

    Coefficients at most ROUNDOFF_ULPS * M * eps times the largest one of
    the whole stack are roundoff and set to exactly 0, so an entry that
    should vanish does not keep its noise.  A polynomial with terms outside
    the window aliases onto it, so the window must cover the support.
    """
    values = np.asarray(values)
    M = values.shape[0]
    coeffs = np.roll(np.fft.fft(values, axis=0) / M, -lo, axis=0)
    size = np.abs(coeffs)
    coeffs[size <= ROUNDOFF_ULPS * M * np.finfo(float).eps * size.max()] = 0
    return coeffs


# ----------------------------------------------------------------------
# serialisation

# A polynomial is stored as a JSON array of [exponent, re, im] triples with
# strictly increasing exponents, e.g. [[0, 0.707, 0.0], [1, 0.707, 0.0]].
# Its coefficient array covers every exponent between the first and the
# last, and a family is stacked on one window, so a read polynomial spans
# fewer than MAX_JSON_SPAN exponents and each is below it in magnitude.
MAX_JSON_SPAN = 1 << 20


def poly_to_json(p: LaurentPoly) -> list:
    return [[k, v.real, v.imag] for k, v in p.coeffs().items()]


def json_complex(re, im) -> complex:
    """re + i im from JSON, refusing all but finite numbers: complex() takes no
    string, null, array, object or int beyond float range; nor booleans."""
    try:
        z = complex(re, im)
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or re is True or re is False or im is True or im is False or not cmath.isfinite(z):
        raise ValueError(f"coefficients must be finite numbers, got {re!r}, {im!r}")
    return z


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
        if abs(k) >= MAX_JSON_SPAN:
            raise ValueError(f"exponent {k} has magnitude {MAX_JSON_SPAN} or more")
        if last is not None and k <= last:
            raise ValueError("exponents must be strictly increasing")
        last = k
        coeffs[k] = json_complex(re, im)
    if coeffs and last - min(coeffs) >= MAX_JSON_SPAN:
        raise ValueError(f"polynomial spans more than {MAX_JSON_SPAN} exponents")
    return LaurentPoly(coeffs)

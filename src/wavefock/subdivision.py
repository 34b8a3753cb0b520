"""Sequence-space picture: slanted Toeplitz subdivision and pyramids.

Signals are finite windows of an l2(Z) sequence.  Subdivision by a filter c
at scale N is (Sx)_i = sum_j c_{i-Nj} x_j, the down-slanted Toeplitz action;
its adjoint decimates.  Everything here works directly on samples so that
agreement with the polynomial-side operators is a genuine cross-check rather
than a tautology.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadNormalizationError, DepthExceededError, NotReconstructiveError
from .filterbank import FilterBank, relation_report
from .laurent import LaurentPoly, TorusPoint

FOURIER_DEPTH_CAP = 4000


@dataclass
class SignalWindow:
    """Finitely supported sequence: samples[k] sits at index offset + k."""

    offset: int
    samples: np.ndarray

    def __init__(self, offset: int, samples):
        self.samples = np.asarray(samples, dtype=complex)
        self.offset = int(offset)
        self._trim()

    def _trim(self):
        nz = np.flatnonzero(self.samples)
        if len(nz) == 0:
            self.offset = 0
            self.samples = np.zeros(0, dtype=complex)
        else:
            self.offset += int(nz[0])
            self.samples = self.samples[nz[0] : nz[-1] + 1]

    @classmethod
    def zero(cls) -> "SignalWindow":
        return cls(0, [])

    @classmethod
    def unit(cls, index: int = 0) -> "SignalWindow":
        return cls(index, [1.0])

    @property
    def is_zero(self) -> bool:
        return len(self.samples) == 0

    @property
    def last(self) -> int:
        return self.offset + len(self.samples) - 1

    def value(self, i: int) -> complex:
        k = i - self.offset
        if 0 <= k < len(self.samples):
            return complex(self.samples[k])
        return 0j

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    def __add__(self, other: "SignalWindow") -> "SignalWindow":
        if self.is_zero:
            return SignalWindow(other.offset, other.samples)
        if other.is_zero:
            return SignalWindow(self.offset, self.samples)
        lo = min(self.offset, other.offset)
        hi = max(self.last, other.last)
        out = np.zeros(hi - lo + 1, dtype=complex)
        out[self.offset - lo : self.offset - lo + len(self.samples)] += self.samples
        out[other.offset - lo : other.offset - lo + len(other.samples)] += other.samples
        return SignalWindow(lo, out)

    def __sub__(self, other: "SignalWindow") -> "SignalWindow":
        neg = SignalWindow(other.offset, -other.samples)
        return self + neg

    def isclose(self, other: "SignalWindow", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def to_poly(self) -> LaurentPoly:
        return LaurentPoly(
            {self.offset + k: v for k, v in enumerate(self.samples)}
        )

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "SignalWindow":
        if p.is_zero:
            return cls.zero()
        lo, hi = p.min_exp, p.max_exp
        return cls(lo, [p.coeff(k) for k in range(lo, hi + 1)])

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "re": [float(v.real) for v in self.samples],
            "im": [float(v.imag) for v in self.samples],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SignalWindow":
        if not isinstance(obj, dict) or "offset" not in obj or "re" not in obj:
            raise ValueError("signal JSON must have keys 'offset' and 're'")
        re = obj["re"]
        im = obj.get("im")
        if im is None:
            im = [0.0] * len(re)
        if len(re) != len(im):
            raise ValueError("re and im arrays differ in length")
        return cls(int(obj["offset"]), np.array(re) + 1j * np.array(im))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index", "re", "im"])
        for k, v in enumerate(self.samples):
            w.writerow([self.offset + k, repr(float(v.real)), repr(float(v.imag))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SignalWindow":
        rows = list(csv.reader(io.StringIO(text)))
        if rows and rows[0][:1] == ["index"]:
            rows = rows[1:]
        entries = {}
        for row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"CSV row must be index,re,im: {row!r}")
            entries[int(row[0])] = float(row[1]) + 1j * float(row[2])
        if not entries:
            return cls.zero()
        lo, hi = min(entries), max(entries)
        return cls(lo, [entries.get(k, 0j) for k in range(lo, hi + 1)])


# ----------------------------------------------------------------------
# subdivision operator and its adjoint


def subdivide(c: LaurentPoly, x: SignalWindow, N: int) -> SignalWindow:
    """(Sx)_i = sum_j c_{i-Nj} x_j; window grows to [N lo + min_exp, N hi + max_exp]."""
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    lo = N * x.offset + c.min_exp
    hi = N * x.last + c.max_exp
    out = np.zeros(hi - lo + 1, dtype=complex)
    for k, ck in c.coeffs().items():
        for j, xj in enumerate(x.samples):
            i = k + N * (x.offset + j)
            out[i - lo] += ck * xj
    return SignalWindow(lo, out)


def decimate_adjoint(c: LaurentPoly, x: SignalWindow, N: int) -> SignalWindow:
    """(S*x)_j = sum_i conj(c_{i-Nj}) x_i."""
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    j_lo = math.ceil((x.offset - c.max_exp) / N)
    j_hi = math.floor((x.last - c.min_exp) / N)
    if j_hi < j_lo:
        return SignalWindow.zero()
    out = np.zeros(j_hi - j_lo + 1, dtype=complex)
    for j in range(j_lo, j_hi + 1):
        acc = 0j
        for k, ck in c.coeffs().items():
            acc += ck.conjugate() * x.value(k + N * j)
        out[j - j_lo] = acc
    return SignalWindow(j_lo, out)


def dense_slanted_matrix(c: LaurentPoly, N: int, window, col_window=None) -> np.ndarray:
    """Materialise the slanted matrix on `window` (rows; cols default same):
    entry (i, j) is c_{i-Nj}."""
    lo, hi = window
    if hi < lo:
        raise ValueError("window is empty")
    c_lo, c_hi = col_window if col_window is not None else window
    offsets = np.arange(lo, hi + 1)[:, None] - N * np.arange(c_lo, c_hi + 1)
    out = np.zeros(offsets.shape, dtype=complex)
    for k, v in c.coeffs().items():
        out[offsets == k] = v
    return out


# ----------------------------------------------------------------------
# pyramid analysis / synthesis


@dataclass
class PyramidDecomposition:
    """Details per level (bands 1..N-1, coarse to fine is levels[-1]..[0])
    plus the final approximation window."""

    N: int
    depth: int
    details: list  # details[level][band-1], level 0 = finest
    approx: SignalWindow


def pyramid(
    bank: FilterBank, x: SignalWindow, depth: int, check: bool = True, tol: float = 1e-9
) -> PyramidDecomposition:
    """Analysis tree: split with the dual adjoints, keep band-0 for recursion."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if check:
        rep = relation_report(bank, tol=tol)
        if not (rep.biorthogonal or rep.cuntz):
            raise NotReconstructiveError("bank fails the pairing verdict")
    duals = bank.duals_or_primaries
    details = []
    current = x
    for _ in range(depth):
        details.append(
            [decimate_adjoint(duals[i], current, bank.N) for i in range(1, bank.N)]
        )
        current = decimate_adjoint(duals[0], current, bank.N)
    return PyramidDecomposition(N=bank.N, depth=depth, details=details, approx=current)


def pyramid_reconstruct(bank: FilterBank, pyr: PyramidDecomposition) -> SignalWindow:
    """Synthesis with the primary filters, inverse of `pyramid`."""
    y = pyr.approx
    for level in reversed(pyr.details):
        y = subdivide(bank.filters[0], y, bank.N)
        for i, d in enumerate(level, start=1):
            y = y + subdivide(bank.filters[i], d, bank.N)
    return y


# ----------------------------------------------------------------------
# infinite-product Fourier formula


def lowpass_value(m0: LaurentPoly, t: float) -> complex:
    """The 2pi-periodic filter variable m_0(t) := m_0(e^{-it})."""
    return m0.eval(TorusPoint(-t))


def fourier_product(
    m0: LaurentPoly, N: int, t: float, J: int | None = None, tol: float = 1e-9
) -> complex:
    """Partial product prod_{j=1..J} m_0(t/N^j)/sqrt(N) for the scaling symbol.

    Requires the lowpass normalisation m_0(1) = sqrt(N).  With J omitted, J is
    raised until the next factor differs from 1 by less than 1e-12, and
    DepthExceededError is raised past FOURIER_DEPTH_CAP.  The angles t/N^j are
    divided down in floats, so no power of N is formed.
    """
    root_n = math.sqrt(N)
    if abs(m0.eval(TorusPoint(0.0)) - root_n) > tol:
        raise BadNormalizationError(
            f"m0(1) = {m0.eval(TorusPoint(0.0)):.6g}, expected sqrt({N})"
        )
    if J is None:
        J, angle = 1, t / N / N
        while abs(lowpass_value(m0, angle) / root_n - 1.0) > 1e-12:
            J += 1
            if J > FOURIER_DEPTH_CAP:
                raise DepthExceededError(
                    f"factors not within 1e-12 of 1 by J = {FOURIER_DEPTH_CAP}"
                )
            angle /= N
    value = 1.0 + 0j
    angle = t
    for _ in range(J):
        angle /= N
        value *= lowpass_value(m0, angle) / root_n
    return value


def haar_scaling_transform(t: float) -> complex:
    """Closed form for the Haar scaling function: e^{-it/2} sin(t/2)/(t/2)."""
    if t == 0.0:
        return 1.0 + 0j
    half = t / 2.0
    return cmath.exp(-1j * half) * math.sin(half) / half

"""Sequence-space picture: slanted Toeplitz subdivision and pyramids.

Signals are finite windows of an l2(Z) sequence.  Subdivision by a filter c
at scale N is (Sx)_i = sum_j c_{i-Nj} x_j, the down-slanted Toeplitz action:
upsample by N, then convolve with c's taps; its adjoint correlates and keeps
every N-th lag.  Both are numpy convolutions on raw samples, never LaurentPoly
arithmetic, so agreement with the polynomial side is a genuine cross-check.
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
from .laurent import LaurentPoly

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

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "re": [float(v.real) for v in self.samples],
            "im": [float(v.imag) for v in self.samples],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SignalWindow":
        if not isinstance(obj, dict) or "re" not in obj or not isinstance(obj.get("offset"), int):
            raise ValueError("signal JSON must have an integer 'offset' and an 're' array")
        try:
            re = np.asarray(obj["re"], dtype=float)
            im = np.zeros_like(re) if obj.get("im") is None else np.asarray(obj["im"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"signal JSON arrays must hold numbers: {exc}") from exc
        if re.ndim != 1 or re.shape != im.shape or not np.isfinite(re + 1j * im).all():
            raise ValueError("re and im must be flat arrays of finite numbers, of one length")
        return cls(obj["offset"], re + 1j * im)

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
            if int(row[0]) in entries:
                raise ValueError(f"CSV index {row[0]} appears twice")
            value = complex(float(row[1]), float(row[2]))
            if not np.isfinite(value):
                raise ValueError(f"CSV samples must be finite: {row!r}")
            entries[int(row[0])] = value
        if not entries:
            return cls.zero()
        lo, hi = min(entries), max(entries)
        return cls(lo, [entries.get(k, 0j) for k in range(lo, hi + 1)])


# ----------------------------------------------------------------------
# subdivision operator and its adjoint


def subdivide(c: LaurentPoly, x: SignalWindow, N: int) -> SignalWindow:
    """(Sx)_i = sum_j c_{i-Nj} x_j on [N lo + min_exp, N hi + max_exp].  Phase r
    of that window (every N-th sample from sample r) is x convolved with the
    taps c_{min_exp+r}, c_{min_exp+r+N}, ...; no zero-stuffed sample is formed."""
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    out = np.zeros(N * (len(x.samples) - 1) + len(c.taps), dtype=complex)
    for r in range(min(N, len(c.taps))):
        out[r::N] = np.convolve(x.samples, c.taps[r::N])
    return SignalWindow(N * x.offset + c.lo, out)


def decimate_adjoint(c: LaurentPoly, x: SignalWindow, N: int) -> SignalWindow:
    """(S*x)_j = sum_k conj(c_k) x_{k+Nj}: lag N j + max_exp - lo of the full
    correlation of x (window start lo) with c's taps, every N-th lag from
    j = ceil((lo - max_exp) / N); when no such lag is left the result is zero."""
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    corr = np.convolve(x.samples, c.taps[::-1].conj())
    j_lo = -((c.max_exp - x.offset) // N)
    return SignalWindow(j_lo, corr[N * j_lo + c.max_exp - x.offset :: N])


def dense_slanted_matrix(c: LaurentPoly, N: int, window, col_window=None) -> np.ndarray:
    """Materialise the slanted matrix on `window` (rows; cols default same):
    entry (i, j) is c_{i-Nj}."""
    lo, hi = window
    c_lo, c_hi = col_window if col_window is not None else window
    if hi < lo or c_hi < c_lo:
        raise ValueError("window is empty")
    offsets = np.arange(lo, hi + 1)[:, None] - N * np.arange(c_lo, c_hi + 1)
    out = np.zeros(offsets.shape, dtype=complex)
    idx = offsets - c.lo
    hit = (idx >= 0) & (idx < len(c.taps))
    out[hit] = c.taps[idx[hit]]
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
    return m0.eval(cmath.exp(-1j * t))


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
    if abs(m0.eval(1.0) - root_n) > tol:
        raise BadNormalizationError(f"m0(1) = {m0.eval(1.0):.6g}, expected sqrt({N})")
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

"""Sequence-space picture: slanted Toeplitz subdivision and pyramids.

Signals are finite windows of an l2(Z) sequence.  Subdivision by a filter c
at scale N is (Sx)_i = sum_j c_{i-Nj} x_j, the down-slanted Toeplitz action,
and its adjoint is (S*x)_j = sum_k conj(c_k) x_{k+Nj}.  Both run in polyphase
form: with the signal cut into blocks X[b] = x[Nb : Nb+N] and a family of
filters split into its loop taps A_m (row k holds the N phases of filter k),
one analysis level is D[j] = sum_m X[j+m] A_m^* for every filter at once and
one synthesis level is Y[b] = sum_m D[b-m] A_m.  Each is one matrix product:
the taps stack into a (T N) x N matrix and multiply a strided view whose row
b holds T consecutive blocks.  A single filter is the one-row loop, so
`subdivide`, `decimate_adjoint` and the pyramid share these two kernels.  The
pyramid reads the loops and the pairing bound the bank builds once, so a bank
applied to many signals pays for them once.  The kernels act on raw samples,
never on LaurentPoly arithmetic, so agreement with the polynomial side is a
genuine cross-check.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BadNormalizationError, DepthExceededError, NotReconstructiveError
from .filterbank import DEFAULT_TOL, FilterBank
from .laurent import LaurentPoly, _trimmed
from .polyphase import phase_split

FOURIER_DEPTH_CAP = 4000
PRODUCT_ROWS = 1024


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
        self.offset, self.samples = _trimmed(self.offset, self.samples)

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


def _loop_product(blocks: np.ndarray, K: np.ndarray, T: int) -> np.ndarray:
    """Row r is blocks[r : r + T] read as one row, times K: every tap of a
    loop in one matrix product over a strided view.  numpy copies a strided
    operand before its BLAS call, so the rows go through in chunks of
    PRODUCT_ROWS, which bounds that copy instead of making it T times the
    signal."""
    rows, width = blocks.shape
    windows = as_strided(
        blocks, (rows - T + 1, T * width), blocks.strides, writeable=False
    )
    out = np.empty((len(windows), K.shape[1]), dtype=complex)
    for r in range(0, len(windows), PRODUCT_ROWS):
        np.matmul(windows[r : r + PRODUCT_ROWS], K, out=out[r : r + PRODUCT_ROWS])
    return out


def _analysis(lo: int, K: np.ndarray, offset: int, samples: np.ndarray, N: int):
    """(j0, D) with D[j - j0] = sum_m X[j+m] A_m^*, where X[b] = x[Nb : Nb+N]
    blocks the window (offset, samples) and the rows of K stack the A_{lo+t}^*;
    column k of D is the adjoint of the subdivision by row k of the loop."""
    T = len(K) // N
    b0 = offset // N
    X = np.zeros((-(-(offset + len(samples)) // N) - b0 + 2 * (T - 1), N), dtype=complex)
    start = N * (T - 1) + offset - N * b0
    X.reshape(-1)[start : start + len(samples)] = samples
    return b0 - lo - T + 1, _loop_product(X, K, T)


def _synthesis(lo: int, taps: np.ndarray, bands, N: int):
    """(i0, y) = sum_k S_k bands[k], with S_k the subdivision by the filter
    in loop row k and bands[k] an (offset, samples) window: the blocks
    Y[b] = sum_m D[b-m] A_m, where column k of D holds bands[k]."""
    T = len(taps)
    live = [(o, len(s)) for o, s in bands if len(s)] or [(0, 0)]
    j0 = min(o for o, _ in live)
    D = np.zeros((max(o + n for o, n in live) - j0 + 2 * (T - 1), len(bands)), dtype=complex)
    for k, (o, s) in enumerate(bands):
        D[T - 1 + o - j0 : T - 1 + o - j0 + len(s), k] = s
    Y = _loop_product(D, taps[::-1].reshape(T * len(bands), N), T)
    return N * (j0 + lo), Y.reshape(-1)


def subdivide(c: LaurentPoly, x: SignalWindow, N: int) -> SignalWindow:
    """(Sx)_i = sum_j c_{i-Nj} x_j: the synthesis kernel on one band."""
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    return SignalWindow(*_synthesis(*phase_split(N, [c]), [(x.offset, x.samples)], N))


def decimate_adjoint(c: LaurentPoly, x: SignalWindow, N: int) -> SignalWindow:
    """(S*x)_j = sum_k conj(c_k) x_{k+Nj}: the analysis kernel on one band."""
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    lo, taps = phase_split(N, [c])
    j0, D = _analysis(lo, taps[:, 0].conj().reshape(-1, 1), x.offset, x.samples, N)
    return SignalWindow(j0, D[:, 0])


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
    bank: FilterBank, x: SignalWindow, depth: int, check: bool = True
) -> PyramidDecomposition:
    """Analysis tree: split with the dual adjoints, keep band-0 for recursion.
    Each level is one analysis product with the dual loop (A for a self-dual
    bank), its taps stacked once per call.  The check is the bank's pairing
    bound on A* Atilde = I, which `pyramid_reconstruct` needs to invert it."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if check and not bank.pair_bound <= DEFAULT_TOL:
        raise NotReconstructiveError("bank fails the pairing identity A* Atilde = I")
    At = bank.loops[1] or bank.loops[0]
    K = At.taps.conj().transpose(0, 2, 1).reshape(-1, bank.N)
    details = []
    offset, samples = x.offset, x.samples
    for _ in range(depth):
        offset, D = _analysis(At.lo, K, offset, samples, bank.N)
        details.append([SignalWindow(offset, D[:, k]) for k in range(1, bank.N)])
        samples = D[:, 0]
    return PyramidDecomposition(
        N=bank.N, depth=depth, details=details, approx=SignalWindow(offset, samples)
    )


def pyramid_reconstruct(bank: FilterBank, pyr: PyramidDecomposition) -> SignalWindow:
    """Synthesis with the primary filters, inverse of `pyramid`: each level
    is one synthesis product with the bank's loop A on the approximation and
    the details together."""
    A = bank.loops[0]
    offset, y = pyr.approx.offset, pyr.approx.samples
    for level in reversed(pyr.details):
        bands = [(offset, y)] + [(d.offset, d.samples) for d in level]
        offset, y = _synthesis(A.lo, A.taps, bands, bank.N)
    return SignalWindow(offset, y)


# ----------------------------------------------------------------------
# infinite-product Fourier formula


def lowpass_value(m0: LaurentPoly, t: float) -> complex:
    """The 2pi-periodic filter variable m_0(t) := m_0(e^{-it})."""
    return m0.eval(cmath.exp(-1j * t))


def fourier_product(m0: LaurentPoly, N: int, t: float, J: int | None = None) -> complex:
    """Partial product prod_{j=1..J} m_0(t/N^j)/sqrt(N) for the scaling symbol.

    Requires the lowpass normalisation m_0(1) = sqrt(N), to DEFAULT_TOL.  With J omitted, J is
    raised until the next factor differs from 1 by less than 1e-12, and
    DepthExceededError is raised past FOURIER_DEPTH_CAP.  The angles t/N^j are
    divided down in floats, so no power of N is formed.
    """
    root_n = math.sqrt(N)
    if abs(m0.eval(1.0) - root_n) > DEFAULT_TOL:
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

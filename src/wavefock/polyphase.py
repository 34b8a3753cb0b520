"""Loop matrices: the polyphase picture of a filter bank.

A bank with filters m_k(z) = sum_j c^(k)_j z^j has the N x N loop matrix

    A_{k,l}(z) = (1/N) sum_{w^N = z} w^(-l) m_k(w),

whose (k, l) entry collects the coefficients c^(k)_{Nm+l} at exponent m.  The
filters are recovered as m_k(z) = sum_l A_{k,l}(z^N) z^l.  Unitarity of A on
the circle characterises the orthogonal case; invertibility with dual loop
Atilde = A^{*-1} characterises the dual-pair case.  The Gram data of the
operator family is carried by AA*(z) and its pointwise inverse.

A loop is one (taps, N, N) coefficient array: products are tap convolutions
of matrix products (`tap_product`, batched under PART_CAP), the adjoint is the
reversed conjugate transpose, and grid values are one FFT of the taps folded
mod the grid size (`circle_values`).  The dual loop is recovered the other
way: A* is inverted pointwise and read back by `polys_from_grid`.  One
certificate, `loop_pair_bound` (sup_z ||A* Atilde - I|| and a condition bound),
judges a dual pair, for every gate and for `dual_loop`; the sigma_min bound
`loop_condition_bound` judges whether a loop with no dual is invertible.

Verdicts read the `*_bound`s, which hold on the whole circle: from a
residual's taps, or from a grid sized by its exponent span.  The sampled sups
(`*_residual`, `modulation_matrix_check`) decide no verdict; they are kept for
the tests, the equivalence sweep script and the benchmark's timing spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularLoopError, SizeCapError
from .filterbank import DEFAULT_TOL, PART_CAP, FilterBank
from .laurent import (
    DEFAULT_GRID,
    LaurentPoly,
    circle_values,
    poly_from_json,
    poly_window,
    polys_from_grid,
    stack_polys,
)

SINGULAR_TOL = 1e-10
SIGMA_GRID_CAP = 1 << 26  # most points, and most entries, of a sigma_min or |det| grid


class LoopMatrix:
    """N x N matrix of Laurent polynomials; rows index filters, columns phases.

    Stored as the lowest exponent `lo` and the (T, N, N) array `taps`, with
    taps[t] the coefficient matrix of z^(lo + t); the end taps are nonzero
    and the zero matrix keeps a single zero tap.  Only exact zeros are
    trimmed, and the taps are scanned only when an end tap is zero.
    """

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        N = len(entries)
        if any(len(row) != N for row in entries):
            raise ValueError("loop matrix must be square")
        lo, C = stack_polys([p for row in entries for p in row])
        self._set(lo, C.T.reshape(-1, N, N))

    def _set(self, lo: int, taps: np.ndarray):
        if not (len(taps) and np.count_nonzero(taps[0]) and np.count_nonzero(taps[-1])):
            live = np.flatnonzero(taps.reshape(len(taps), -1).any(axis=1))
            if len(live):
                lo, taps = lo + int(live[0]), taps[live[0] : live[-1] + 1]
            else:
                lo, taps = 0, np.zeros((1,) + taps.shape[1:], dtype=complex)
        self.lo, self.taps, self.N = lo, taps, taps.shape[1]

    @classmethod
    def from_array(cls, lo: int, taps) -> "LoopMatrix":
        """The loop sum_t taps[t] z^(lo + t) from a (T, N, N) array, not copied."""
        A = cls.__new__(cls)
        A._set(int(lo), np.asarray(taps, dtype=complex))
        return A

    @classmethod
    def from_constant(cls, mat) -> "LoopMatrix":
        return cls.from_array(0, np.array(mat, dtype=complex)[None])

    @property
    def hi(self) -> int:
        """Highest exponent with a nonzero tap (0 for the zero loop)."""
        return self.lo + len(self.taps) - 1

    @property
    def entries(self) -> list:
        """The N x N nested list of entry polynomials."""
        return [
            [LaurentPoly.from_array(self.lo, self.taps[:, i, j]) for j in range(self.N)]
            for i in range(self.N)
        ]

    def __matmul__(self, other: "LoopMatrix") -> "LoopMatrix":
        if self.N != other.N:
            raise ValueError("size mismatch")
        return LoopMatrix.from_array(self.lo + other.lo, tap_product(self.taps, other.taps))

    def adjoint(self) -> "LoopMatrix":
        """Pointwise conjugate transpose as a Laurent-matrix function."""
        return LoopMatrix.from_array(-self.hi, self.taps[::-1].conj().transpose(0, 2, 1))

    def sample_grid(self, grid: int = DEFAULT_GRID) -> np.ndarray:
        """Values at the grid points, shape (grid, N, N)."""
        return circle_values(self.lo, self.taps, grid)

    def max_abs_exp(self) -> int:
        if not self.taps.any():
            return 0
        return max(abs(self.lo), abs(self.hi))

    def to_json(self) -> dict:
        """Entry (i, j) lists the [exponent, re, im] of its nonzero taps."""
        N, E = self.N, self.taps.transpose(1, 2, 0)
        i, j, t = np.nonzero(E)  # by entry, then exponent
        terms = [[k, z.real, z.imag] for k, z in zip((self.lo + t).tolist(), E[i, j, t].tolist())]
        ends = np.cumsum(np.bincount(i * N + j, minlength=N * N)).tolist()
        flat = [terms[a:b] for a, b in zip([0] + ends[:-1], ends)]
        return {"N": N, "entries": [flat[r * N : (r + 1) * N] for r in range(N)]}

    @classmethod
    def from_json(cls, obj: dict) -> "LoopMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("loop JSON must have key 'entries'")
        return cls([[poly_from_json(p) for p in row] for row in obj["entries"]])

    def __repr__(self):
        return f"LoopMatrix(N={self.N}, max_abs_exp={self.max_abs_exp()})"


def tap_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Taps of the product of the loops with (T, N, N) taps a and b, untrimmed.

    Tap pairs are multiplied in batches of at most PART_CAP entries (over one,
    a's exact-zero taps skipped); entry k sums a[s] b[k - s] by s, from 0.0."""
    if len(a) == 1 or len(b) == 1:
        return a @ b + 0.0  # -0.0 to 0.0, as the accumulation below leaves it
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=complex)
    step, batches = max(1, PART_CAP // b.size), [(range(len(a)), a)]  # step: taps of a per batch
    if len(a) > step:
        live = np.flatnonzero(a.reshape(len(a), -1).any(axis=1))
        batches = ((live[c : c + step], a[live[c : c + step]]) for c in range(0, len(live), step))
    for taps, part in batches:
        for s, row in zip(taps, part[:, None] @ b[None]):
            out[s : s + len(b)] += row
    return out


# ----------------------------------------------------------------------
# filters <-> loop


def phase_split(N: int, polys) -> tuple:
    """(lo, taps) with taps[t, k, l] the coefficient of z^(N (lo + t) + l) in
    polys[k]: row k of the loop holds the N phases of polys[k].  Refused before
    any array is built if rows x (window width + N) exceeds PART_CAP."""
    lo, width = poly_window(polys)
    if (entries := len(polys) * (width + N)) > PART_CAP:
        raise SizeCapError(f"a loop build needs {entries} entries (cap {PART_CAP})")
    start = lo - lo % N
    T = -(-(lo + width - start) // N)
    phased = np.zeros((len(polys), T * N), dtype=complex)
    for row, p in zip(phased, polys):  # each polynomial written once, into its phases
        row[p.lo - start : p.lo - start + len(p.taps)] = p.taps
    return start // N, phased.reshape(len(polys), T, N).transpose(1, 0, 2)


def loop_from_filters(bank: FilterBank):
    """Loop matrices (A, Atilde or None) of a bank, by coefficient splitting."""
    A = LoopMatrix.from_array(*phase_split(bank.N, bank.filters))
    if bank.dual_filters is None:
        return A, None
    return A, LoopMatrix.from_array(*phase_split(bank.N, bank.dual_filters))


def filters_from_loop(A: LoopMatrix) -> FilterBank:
    """Bank with m_k(z) = sum_l A_{k,l}(z^N) z^l (primary side only)."""
    N = A.N
    rows = np.empty((N, len(A.taps), N), dtype=complex)
    rows[:] = A.taps.transpose(1, 0, 2)
    rows.setflags(write=False)  # the bank's polynomials hold views of it
    return FilterBank(N, [LaurentPoly.from_array(N * A.lo, row) for row in rows.reshape(N, -1)])


# ----------------------------------------------------------------------
# determinants and the dual loop


def _row_span(taps: np.ndarray) -> tuple:
    """(first, last): the first and last of the (T, N, N) taps nonzero in each row."""
    live = taps.any(axis=2)  # (T, N): tap t of row i is nonzero
    return live.argmax(axis=0), len(taps) - 1 - live[::-1].argmax(axis=0)


def loop_det(A: LoopMatrix) -> LaurentPoly:
    """det A, read back from a grid as wide as its exponent window [sum of row
    minima, sum of row maxima] (refused over PART_CAP entries); no verdict reads it."""
    first, last = _row_span(A.taps)
    lo, hi = A.N * A.lo + int(first.sum()), A.N * A.lo + int(last.sum())
    if (entries := (hi - lo + 1) * A.N * A.N) > PART_CAP:
        raise SizeCapError(f"det A's grid needs {entries} entries (cap {PART_CAP})")
    dets = np.linalg.det(A.sample_grid(hi - lo + 1))
    return LaurentPoly.from_array(lo, polys_from_grid(dets, lo))


def _rotated_values(L: LoopMatrix, M: int):
    """Values of L on M equispaced points, in rotated sub-grids of at most
    PART_CAP entries: sub-grid j holds e^(2 pi i (j + k M/m)/M), k < m."""
    m = min(M, 1 << max(0, (PART_CAP // L.N**2).bit_length() - 1))
    for j in range(M // m):  # z^e there turns by e j/M, taken mod 1 exactly
        turns = (L.lo + np.arange(len(L.taps))) * j % M / M
        yield circle_values(L.lo, L.taps * np.exp(2j * np.pi * turns)[:, None, None], m)


def _flat_det(parts) -> bool:
    """Whether log|det| spreads by at most DEFAULT_TOL over stacks of samples, none singular."""
    logs = np.concatenate([np.linalg.slogdet(values)[1] for values in parts])
    return bool(np.isfinite(logs).all() and np.ptp(logs) <= DEFAULT_TOL)


def loop_condition_bound(A: LoopMatrix) -> float:
    """kappa = sum_t ||D^-1 A_t||_2 over a lower bound on min_z sigma_min(D^-1 A(z)), D
    the row norms of A: the least 1/||(D^-1 A(z))^-1||_F <= sigma_min on M equispaced
    points, less (pi/M) sum_t |t - c| ||D^-1 A_t||_2, c the weighted median tap.
    SingularLoopError unless kappa < 1/SINGULAR_TOL.  M starts above the T taps and
    jumps to the least power of two that could decide; a grid over SIGMA_GRID_CAP
    points is refused as undecided, over SIGMA_GRID_CAP entries as over the size cap."""
    B = LoopMatrix.from_array(A.lo, A.taps / _row_norms(A))
    live = np.flatnonzero(B.taps.reshape(len(B.taps), -1).any(axis=1))
    norms = np.linalg.norm(B.taps[live], 2, axis=(1, 2))
    centre = np.append(live, 0)[np.searchsorted(np.cumsum(norms), norms.sum() / 2)]  # 0 if A = 0
    slope, upper = np.pi * float(np.abs(live - centre) @ norms), float(norms.sum())
    M, s, floor = 1 << len(B.taps).bit_length(), np.inf, SINGULAR_TOL * upper
    while True:  # each grid holds the last; resampling it costs at most as much again
        for values in _rotated_values(B, M):
            try:
                s = min(s, 1 / np.linalg.norm(np.linalg.inv(values), axis=(1, 2)).max())
            except np.linalg.LinAlgError:  # a sample is exactly singular
                s = 0.0
        if s <= floor:
            raise SingularLoopError(f"sigma_min(D^-1 A) reaches {s:.3e}; loop is not invertible")
        if s - slope / M > floor:
            return upper / (s - slope / M)
        M = max(2 * M, 1 << int(slope / (s - floor)).bit_length())
        if M > SIGMA_GRID_CAP:
            raise SingularLoopError(f"sigma_min {s:.3e} undecided below {M} points; loop refused")
        if (size := M * A.N**2) > SIGMA_GRID_CAP:
            raise SizeCapError(f"{M} sigma_min points need {size} entries (cap {SIGMA_GRID_CAP})")


def dual_loop(A: LoopMatrix) -> LoopMatrix | None:
    """The dual loop Atilde = A^{*-1} as a Laurent matrix, or None.

    With D the row norms of A, (D^-1 A)* is inverted on M points and D Atilde
    read back (`polys_from_grid`, blind to row scale) after the longest
    circular run of zero taps.  Row i of a Laurent inverse is a minor of A's
    other rows over the monomial det A*, so one shift fits all its rows in
    windows set by A's rows; a read-back that fits none (a truncated series),
    or from a grid where |det| is not flat (`_flat_det`, so det A is no
    monomial), is not taken.  M starts above A's T taps and doubles to twice
    the windows' span.  A fit, shifted to put the largest trace of A* Atilde
    at z^0, is returned if `loop_pair_bound` (which may raise) is <=
    DEFAULT_TOL; else `loop_condition_bound` raises or gives None, or, when
    the next grid is over PART_CAP and |det| is flat on over twice det's
    span (or that grid is too large), SizeCapError: a dual beyond reach."""
    N, rows, M = A.N, _row_norms(A), 1 << len(A.taps).bit_length()
    B_star = LoopMatrix.from_array(A.lo, A.taps / rows).adjoint()
    first, last = _row_span(A.taps)
    width = int((last - first).sum())  # row i of Atilde spans the others' widths; det A this
    reach = 2 * (width + int(first.max() - last.min()) + 1)  # twice any Laurent inverse's
    while M * N * N <= PART_CAP:
        values = B_star.sample_grid(M)
        if not _flat_det([values]):
            break
        coeffs = polys_from_grid(np.linalg.inv(values), 0)
        live = np.flatnonzero(coeffs.reshape(M, -1).any(axis=1))
        start = int(live[(np.diff(live, append=live[0] + M).argmax() + 1) % len(live)])
        At = LoopMatrix.from_array(start, np.roll(coeffs, -start, axis=0) / rows)
        r, s = _row_span(At.taps)
        if (last - r).max() - (first - s).min() <= width:  # one shift fits every row
            P = A.adjoint() @ At
            shift = P.lo + int(np.abs(np.trace(P.taps, axis1=1, axis2=2)).argmax())
            At.lo, P.lo = At.lo - shift, P.lo - shift
            if loop_pair_bound(A, At, P) <= DEFAULT_TOL:
                return At
        if M >= reach:
            break
        M = min(2 * M, reach)
    if M * N * N > PART_CAP:  # a dual beyond reach if |det| is flat on over twice det's span
        grid = 1 << (2 * width).bit_length()
        if grid * N * N > SIGMA_GRID_CAP or _flat_det(_rotated_values(B_star, grid)):
            raise SizeCapError(f"the dual loop's grid needs {M * N * N} entries (cap {PART_CAP})")
    loop_condition_bound(A)
    return None


def _row_norms(A: LoopMatrix) -> np.ndarray:
    """(N, 1) norms D of the rows of A in L^2 of the circle; a zero row's is 1."""
    return (rows := np.sqrt((np.abs(A.taps) ** 2).sum(axis=(0, 2)))[:, None]) + (rows == 0)


def _identity_gap(L: LoopMatrix) -> float:
    """sum_k ||C_k||_F over the taps C_k of L - I, a bound on sup_z ||L(z) - I||."""
    norms = np.linalg.norm(L.taps, axis=(1, 2))  # Frobenius
    if not L.lo <= 0 <= L.hi:  # I sits on a tap of its own
        return float(norms.sum() + np.sqrt(L.N))
    return float(norms.sum() - norms[-L.lo] + np.linalg.norm(L.taps[-L.lo] - np.eye(L.N)))


def loop_pair_bound(A: LoopMatrix, At: LoopMatrix, P: LoopMatrix | None = None) -> float:
    """g = `_identity_gap` of P = A* Atilde (formed unless given) bounds sup_z
    ||A(z)^* Atilde(z) - I||; g < 1/2 proves cond(D^-1 A(z)) <= kappa = (sum_t
    ||D^-1 A_t||_F)(sum_t ||D Atilde_t||_F)/(1 - g), D the row norms of A, on
    the whole circle; kappa >= 1/SINGULAR_TOL raises SingularLoopError."""
    gap = _identity_gap(A.adjoint() @ At if P is None else P)
    if gap < 0.5:
        rows = _row_norms(A)
        kappa = np.linalg.norm(A.taps / rows, axis=(1, 2)).sum() / (1 - gap)
        kappa *= np.linalg.norm(At.taps * rows, axis=(1, 2)).sum()
        if kappa >= 1 / SINGULAR_TOL:
            raise SingularLoopError(f"cond(A) may reach {kappa:.3e}; loop is not invertible")
    return gap


def loop_unitarity_bound(A: LoopMatrix) -> float:
    """Bound on sup_z ||A(z) A(z)^* - I||."""
    return _identity_gap(A @ A.adjoint())


def _sup_norm(stack: np.ndarray) -> float:
    """Largest spectral norm in a stack of matrices."""
    return float(np.linalg.norm(stack, 2, axis=(-2, -1)).max())


def _hermitian(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-2, -1)


def loop_pair_residual(A: LoopMatrix, At: LoopMatrix, grid: int = DEFAULT_GRID) -> float:
    """sup over the grid of ||A(z)^* Atilde(z) - I|| (spectral norm)."""
    return _sup_norm(A.adjoint().sample_grid(grid) @ At.sample_grid(grid) - np.eye(A.N))


def loop_unitarity_residual(A: LoopMatrix, grid: int = DEFAULT_GRID) -> float:
    """sup over the grid of ||A(z) A(z)^* - I||."""
    vals = A.sample_grid(grid)
    return _sup_norm(vals @ _hermitian(vals) - np.eye(A.N))


# ----------------------------------------------------------------------
# modulation matrices


def _fibre_values(N: int, polys, grid: int) -> np.ndarray:
    """(1/sqrt N) p_k(w_l) over the principal root fiber w_l of each grid
    point z, shape (grid, len(polys), N).  w_l of grid point g is
    e^{2 pi i j/M} with M = grid N and j = g + l grid, so one `circle_values`
    call on M points gives every value."""
    lo, C = stack_polys(polys)
    values = circle_values(lo, C.T, grid * N)  # values[j, k] = p_k(e^{2 pi i j/M})
    fibres = np.arange(grid)[:, None] + grid * np.arange(N)
    return values[fibres].transpose(0, 2, 1) / np.sqrt(N)


def modulation_matrix(bank: FilterBank, grid: int = DEFAULT_GRID, dual: bool = False) -> np.ndarray:
    """M(z)[k, l] = (1/sqrt N) m_k(w_l), `_fibre_values` of one family; shape (grid, N, N)."""
    return _fibre_values(bank.N, bank.duals_or_primaries if dual else bank.filters, grid)


def modulation_matrix_check(bank: FilterBank, grid: int = DEFAULT_GRID):
    """(pair residual, unitarity residual), each a sup over the grid.

    The pair residual measures ||M(z)^* Mtilde(z) - I||; the unitarity
    residual measures ||M(z)^* M(z) - I||.  They coincide for self-dual banks.
    """
    eye = np.eye(bank.N)
    M = modulation_matrix(bank, grid)
    M_star = _hermitian(M)
    unit = _sup_norm(M_star @ M - eye)
    if bank.is_self_dual:
        return unit, unit
    return _sup_norm(M_star @ modulation_matrix(bank, grid, dual=True) - eye), unit


def modulation_bound(bank: FilterBank):
    """(pair bound, unitarity bound) on sup_z ||M^* Mtilde - I|| and sup_z ||M^* M - I||.

    With z = e^{iN phi} the fibre points are w_l = e^{i(phi + 2 pi l/N)}, so
    the fractional frequencies j/N of m(w_l) in the angle of z are integers
    in phi: an entry of the residual R(phi) is a trigonometric polynomial
    whose exponents j' - j (j of a primary, j' of a dual) and 0 (from I)
    span s.  For such a q and M > s equispaced samples (Ehlich & Zeller,
    Math. Z. 86, 1964), sup |q| <= max_k |q(2 pi k/M)| / cos(pi s/(2M));
    q = tr(X^* R) over all ||X||_F = 1 carries it to sup ||R||_F >= the
    spectral sup.  M is a multiple of N above 2s.  Moving phi by 2 pi/N only
    permutes the columns of M(z), which leaves the norms unchanged, so the
    M samples of phi are both families' fibre values on M/N points.
    """
    N, eye = bank.N, np.eye(bank.N)
    (lo_f, w_f), (lo_d, w_d) = bank.windows
    hi_f, hi_d = lo_f + w_f - 1, lo_d + w_d - 1
    spans = [2 * (hi_f - lo_f), max(hi_d - lo_f, 0) - min(lo_d - hi_f, 0)]
    grid = 2 * (max(spans) // N + 1)
    values = _fibre_values(N, bank.filters + (bank.dual_filters or ()), grid)
    mods = [values[:, k : k + N] for k in range(0, values.shape[1], N)]  # M, and Mtilde if held
    gaps = [np.linalg.norm(_hermitian(mods[0]) @ m - eye, axis=(1, 2)).max() for m in mods]
    bounds = np.array(gaps) / np.cos(np.pi * np.array(spans[: len(gaps)]) / (2 * grid * N))
    return float(bounds[-1]), float(bounds[0])


# ----------------------------------------------------------------------
# Gram data


@dataclass
class GramMatrixFunction:
    """AA*(z) with its samples and pointwise inverses on a grid."""

    N: int
    grid: int
    gram: LoopMatrix  # AA*
    samples: np.ndarray  # (grid, N, N) values of AA*
    inverses: np.ndarray  # (grid, N, N) pointwise inverses


def gram_function(bank: FilterBank, grid: int = DEFAULT_GRID) -> GramMatrixFunction:
    """Assemble AA*(z) exactly, then sample and invert it on the grid.

    A is judged invertible on the whole circle first: by `bank.pair_bound`,
    or by `loop_condition_bound` when that fails; the grid sets only the samples."""
    if bank.pair_bound > DEFAULT_TOL:
        loop_condition_bound(bank.loops[0])
    gram = bank.loops[0] @ bank.loops[0].adjoint()
    samples = gram.sample_grid(grid)
    return GramMatrixFunction(bank.N, grid, gram, samples, np.linalg.inv(samples))

"""Loop matrices: the polyphase picture of a filter bank.

A bank with filters m_k(z) = sum_j c^(k)_j z^j has the N x N loop matrix

    A_{k,l}(z) = (1/N) sum_{w^N = z} w^(-l) m_k(w),

whose (k, l) entry collects the coefficients c^(k)_{Nm+l} at exponent m.  The
filters are recovered as m_k(z) = sum_l A_{k,l}(z^N) z^l.  Unitarity of A on
the circle characterises the orthogonal case; invertibility with dual loop
Atilde = A^{*-1} characterises the dual-pair case.  The Gram data of the
operator family is carried by AA*(z) and its pointwise inverse.

A loop is one (taps, N, N) coefficient array: products are tap convolutions
of matrix products, the adjoint is the reversed conjugate transpose, and the
values on a grid are one contraction with the grid phases.  The determinant
and the exact dual loop are recovered the other way: sample on enough points
to cover the known exponent window, invert or take determinants pointwise,
and read the coefficients back with one DFT.

Verdicts read the `*_bound`s, which hold on the whole circle: from a
residual's taps, or from a grid sized by its exponent span.  The sampled sups
(`*_residual`, `modulation_matrix_check`) decide no verdict; they are kept for
the tests, the equivalence sweep script and the benchmark's timing spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularLoopError
from .filterbank import FilterBank
from .laurent import (
    DEFAULT_GRID,
    LaurentPoly,
    adjoint_poly,
    grid_angles,
    poly_from_json,
    poly_to_json,
    polys_from_grid,
    stack_polys,
)

SINGULAR_TOL = 1e-10


class LoopMatrix:
    """N x N matrix of Laurent polynomials; rows index filters, columns phases.

    Stored as the lowest exponent `lo` and the (T, N, N) array `taps`, with
    taps[t] the coefficient matrix of z^(lo + t); the end taps are nonzero
    and the zero matrix keeps a single zero tap.
    """

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        N = len(entries)
        if any(len(row) != N for row in entries):
            raise ValueError("loop matrix must be square")
        lo, C = stack_polys([p for row in entries for p in row])
        self._set(lo, C.T.reshape(-1, N, N))

    def _set(self, lo: int, taps: np.ndarray):
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
    def identity(cls, N: int) -> "LoopMatrix":
        return cls.from_constant(np.eye(N))

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
        a, b = self.taps, other.taps
        out = np.zeros((len(a) + len(b) - 1, self.N, self.N), dtype=complex)
        for s, tap in enumerate(a):
            out[s : s + len(b)] += tap @ b
        return LoopMatrix.from_array(self.lo + other.lo, out)

    def adjoint(self) -> "LoopMatrix":
        """Pointwise conjugate transpose as a Laurent-matrix function."""
        return LoopMatrix.from_array(-self.hi, self.taps[::-1].conj().transpose(0, 2, 1))

    def sample_grid(self, grid: int = DEFAULT_GRID) -> np.ndarray:
        """Values at the grid points, shape (grid, N, N)."""
        exps = np.arange(self.lo, self.lo + len(self.taps))
        phases = np.exp(1j * np.multiply.outer(grid_angles(grid), exps))
        return (phases @ self.taps.reshape(len(self.taps), -1)).reshape(grid, self.N, self.N)

    def max_abs_exp(self) -> int:
        if not self.taps.any():
            return 0
        return max(abs(self.lo), abs(self.hi))

    def isclose(self, other: "LoopMatrix", tol: float = 1e-12) -> bool:
        lo = min(self.lo, other.lo)
        diff = np.zeros((max(self.hi, other.hi) + 1 - lo, self.N, self.N), dtype=complex)
        diff[self.lo - lo : self.lo - lo + len(self.taps)] = self.taps
        diff[other.lo - lo : other.lo - lo + len(other.taps)] -= other.taps
        return float(np.abs(diff).max()) <= tol

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "entries": [[poly_to_json(p) for p in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LoopMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("loop JSON must have key 'entries'")
        return cls([[poly_from_json(p) for p in row] for row in obj["entries"]])

    def __repr__(self):
        return f"LoopMatrix(N={self.N}, max_abs_exp={self.max_abs_exp()})"


@dataclass
class SampledLoop:
    """Pointwise values of a loop on the grid; used when no exact Laurent
    inverse exists (determinant is not a monomial unit)."""

    N: int
    grid: int
    values: np.ndarray  # shape (grid, N, N)


# ----------------------------------------------------------------------
# filters <-> loop


def phase_split(N: int, polys) -> tuple:
    """(lo, taps) with taps[t, k, l] the coefficient of z^(N (lo + t) + l) in
    polys[k]: row k of the loop holds the N phases of polys[k]."""
    lo, C = stack_polys(polys)
    start = lo - lo % N
    T = -(-(lo + C.shape[1] - start) // N)
    phased = np.zeros((len(C), T * N), dtype=complex)
    phased[:, lo - start : lo - start + C.shape[1]] = C
    return start // N, phased.reshape(len(C), T, N).transpose(1, 0, 2)


def loop_from_filters(bank: FilterBank):
    """Loop matrices (A, Atilde or None) of a bank, by coefficient splitting."""
    A = LoopMatrix.from_array(*phase_split(bank.N, bank.filters))
    if bank.dual_filters is None:
        return A, None
    return A, LoopMatrix.from_array(*phase_split(bank.N, bank.dual_filters))


def filters_from_loop(A: LoopMatrix) -> FilterBank:
    """Bank with m_k(z) = sum_l A_{k,l}(z^N) z^l (primary side only)."""
    N = A.N
    rows = A.taps.transpose(1, 0, 2).reshape(N, -1)
    return FilterBank(N, [LaurentPoly.from_array(N * A.lo, row) for row in rows])


# ----------------------------------------------------------------------
# determinants and the dual loop


def loop_det(A: LoopMatrix) -> LaurentPoly:
    """Determinant of a loop as a Laurent polynomial.

    Each term of det A takes one entry from every row, so its exponents lie
    in [sum of row minima, sum of row maxima].  det A(z) is sampled on as
    many grid points as that window holds and read back with one DFT.
    """
    live = A.taps.any(axis=2)  # (T, N): tap t of row i is nonzero
    if not live.any(axis=0).all():
        return LaurentPoly.zero()  # a zero row
    lo = A.N * A.lo + int(live.argmax(axis=0).sum())
    hi = A.N * A.hi - int(live[::-1].argmax(axis=0).sum())
    dets = np.linalg.det(A.sample_grid(hi - lo + 1))
    return LaurentPoly.from_array(lo, polys_from_grid(dets, lo))


def as_monomial_unit(p: LaurentPoly, eps: float = 1e-12):
    """Return (exponent, coeff) if p is a single monomial with nonzero
    coefficient once terms below eps (relative) are discarded, else None."""
    if p.is_zero:
        return None
    top = p.coeff_sup()
    terms = [(k, c) for k, c in p.coeffs().items() if abs(c) > eps * top]
    if len(terms) != 1:
        return None
    return terms[0]


def _check_invertible(det_vals: np.ndarray) -> None:
    worst = float(np.min(np.abs(det_vals)))
    if worst < SINGULAR_TOL:
        raise SingularLoopError(
            f"|det A| reaches {worst:.3e} on the grid; loop is not invertible"
        )


def dual_loop(A: LoopMatrix, grid: int = DEFAULT_GRID):
    """The dual loop Atilde = A^{*-1}.

    When det A* = conj(det A) is a monomial unit c z^e, the inverse is
    adj(A*) / (c z^e), a Laurent matrix with exponents in
    [(N-1) lo - e, (N-1) hi - e], where [lo, hi] bounds the exponents of
    A*.  It is recovered from the pointwise inverse of A* on that many grid
    points and returned only if the coefficient product A* Atilde is I.
    Otherwise the result is a `SampledLoop` holding the pointwise inverse
    of A(z)^* on the grid.
    """
    det = loop_det(A)
    _check_invertible(det.eval_grid(grid))
    A_star = A.adjoint()
    unit = as_monomial_unit(adjoint_poly(det))
    if unit is not None:
        N, e = A.N, unit[0]
        lo = (N - 1) * A_star.lo - e
        inverse = np.linalg.inv(A_star.sample_grid((N - 1) * (A_star.hi - A_star.lo) + 1))
        At = LoopMatrix.from_array(lo, polys_from_grid(inverse, lo))
        if (A_star @ At).isclose(LoopMatrix.identity(N)):
            return At
    vals = A_star.sample_grid(grid)
    return SampledLoop(N=A.N, grid=grid, values=np.linalg.inv(vals))


def _identity_gap(L: LoopMatrix) -> float:
    """sum_k ||C_k||_F over the taps C_k of L - I, a bound on sup_z ||L(z) - I||."""
    norms = np.linalg.norm(L.taps, axis=(1, 2))  # Frobenius
    if not L.lo <= 0 <= L.hi:  # I sits on a tap of its own
        return float(norms.sum() + np.sqrt(L.N))
    return float(norms.sum() - norms[-L.lo] + np.linalg.norm(L.taps[-L.lo] - np.eye(L.N)))


def loop_pair_bound(A: LoopMatrix, At: LoopMatrix) -> float:
    """Bound on sup_z ||A(z)^* Atilde(z) - I|| for an exact dual loop."""
    return _identity_gap(A.adjoint() @ At)


def loop_unitarity_bound(A: LoopMatrix) -> float:
    """Bound on sup_z ||A(z) A(z)^* - I||."""
    return _identity_gap(A @ A.adjoint())


def _sup_norm(stack: np.ndarray) -> float:
    """Largest spectral norm in a stack of matrices."""
    return float(np.linalg.norm(stack, 2, axis=(-2, -1)).max())


def _hermitian(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-2, -1)


def loop_pair_residual(A: LoopMatrix, At, grid: int = DEFAULT_GRID) -> float:
    """sup over the grid of ||A(z)^* Atilde(z) - I|| (spectral norm)."""
    a_star = A.adjoint().sample_grid(grid)
    if isinstance(At, LoopMatrix):
        b = At.sample_grid(grid)
    else:
        if At.grid != grid:
            raise ValueError("sampled loop grid does not match requested grid")
        b = At.values
    return _sup_norm(a_star @ b - np.eye(A.N))


def loop_unitarity_residual(A: LoopMatrix, grid: int = DEFAULT_GRID) -> float:
    """sup over the grid of ||A(z) A(z)^* - I||."""
    vals = A.sample_grid(grid)
    return _sup_norm(vals @ _hermitian(vals) - np.eye(A.N))


# ----------------------------------------------------------------------
# modulation matrices


def modulation_matrix(bank: FilterBank, grid: int = DEFAULT_GRID, dual: bool = False) -> np.ndarray:
    """M(z)[k, l] = (1/sqrt N) m_k(w_l) over the principal root fiber w_l of
    each grid point z; shape (grid, N, N).  w_l of grid point g is e^{2 pi i j/M}
    with M = grid N and j = g + l grid, so one inverse FFT of the coefficients
    folded mod M gives every value."""
    N, M = bank.N, grid * bank.N
    lo, C = stack_polys(bank.duals_or_primaries if dual else bank.filters)
    folded = np.zeros((len(C), M), dtype=complex)
    np.add.at(folded, (slice(None), (lo + np.arange(C.shape[1])) % M), C)
    values = np.fft.ifft(folded) * M  # values[k, j] = m_k(e^{2 pi i j/M})
    fibres = np.arange(grid)[:, None] + grid * np.arange(N)
    return values[:, fibres].transpose(1, 0, 2) / np.sqrt(N)


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
    M samples of phi are the fibres of `modulation_matrix` on M/N points.
    """
    N, eye = bank.N, np.eye(bank.N)
    (lo_f, F), (lo_d, D) = stack_polys(bank.filters), stack_polys(bank.duals_or_primaries)
    hi_f, hi_d = lo_f + F.shape[1] - 1, lo_d + D.shape[1] - 1
    spans = [2 * (hi_f - lo_f), max(hi_d - lo_f, 0) - min(lo_d - hi_f, 0)]
    grid = 2 * (max(spans) // N + 1)
    duals = (False,) if bank.is_self_dual else (False, True)
    mods = [modulation_matrix(bank, grid, dual) for dual in duals]
    gaps = [np.linalg.norm(_hermitian(mods[0]) @ m - eye, axis=(1, 2)).max() for m in mods]
    bounds = np.array(gaps) / np.cos(np.pi * np.array(spans[: len(gaps)]) / (2 * grid * N))
    return float(bounds[-1]), float(bounds[0])


# ----------------------------------------------------------------------
# Gram data


@dataclass
class GramMatrixFunction:
    """AA*(z) with its pointwise inverse and the assembled doubled matrix.

    choi_points[t] is the 2N x 2N block matrix [[AA*, I], [I, (AA*)^-1]] at
    grid point t.  It is Hermitian PSD of rank N at every point: it factors
    as [Y; Y^-*][Y; Y^-*]^* for any square root Y of AA*.
    """

    N: int
    grid: int
    gram: LoopMatrix  # AA*
    samples: np.ndarray  # (grid, N, N) values of AA*
    inverses: np.ndarray  # (grid, N, N) pointwise inverses
    choi_points: np.ndarray  # (grid, 2N, 2N)
    min_eigs: np.ndarray  # (grid,)
    ranks: np.ndarray  # (grid,) at tolerance

    def report(self) -> dict:
        return {
            "N": self.N,
            "grid": self.grid,
            "min_eigenvalue": float(np.min(self.min_eigs)),
            "rank_min": int(np.min(self.ranks)),
            "rank_max": int(np.max(self.ranks)),
        }


def gram_function(
    bank: FilterBank, grid: int = DEFAULT_GRID, rank_tol: float = 1e-8
) -> GramMatrixFunction:
    """Assemble AA*(z) exactly and the doubled positive matrix on the grid."""
    A, _ = loop_from_filters(bank)
    _check_invertible(np.linalg.det(A.sample_grid(grid)))
    N = bank.N
    gram = A @ A.adjoint()
    samples = gram.sample_grid(grid)
    inverses = np.linalg.inv(samples)

    eye = np.eye(N)
    choi_points = np.zeros((grid, 2 * N, 2 * N), dtype=complex)
    choi_points[:, :N, :N] = samples
    choi_points[:, :N, N:] = eye
    choi_points[:, N:, :N] = eye
    choi_points[:, N:, N:] = inverses

    eigs = np.linalg.eigvalsh(0.5 * (choi_points + choi_points.conj().transpose(0, 2, 1)))
    min_eigs = eigs[:, 0]
    ranks = (eigs > rank_tol * np.maximum(eigs[:, -1:], 1e-300)).sum(axis=1)

    return GramMatrixFunction(
        N=N,
        grid=grid,
        gram=gram,
        samples=samples,
        inverses=inverses,
        choi_points=choi_points,
        min_eigs=min_eigs,
        ranks=ranks,
    )

"""Loop matrices: the polyphase picture of a filter bank.

A bank with filters m_k(z) = sum_j c^(k)_j z^j has the N x N loop matrix

    A_{k,l}(z) = (1/N) sum_{w^N = z} w^(-l) m_k(w),

whose (k, l) entry collects the coefficients c^(k)_{Nm+l} at exponent m.  The
filters are recovered as m_k(z) = sum_l A_{k,l}(z^N) z^l.  Unitarity of A on
the circle characterises the orthogonal case; invertibility with dual loop
Atilde = A^{*-1} characterises the dual-pair case.  The Gram data of the
operator family is carried by AA*(z) and its pointwise inverse.

Every sampled quantity goes through `LaurentPoly.eval_at`, one array of
angles at a time, and every sup over the grid is one batched norm.  The
determinant and the exact dual loop are recovered the other way: sample on
enough points to cover the known exponent window, invert or take
determinants pointwise, and read the coefficients back with one DFT.
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
    upsample,
)

SINGULAR_TOL = 1e-10


class LoopMatrix:
    """N x N matrix of Laurent polynomials; rows index filters, columns phases."""

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        N = len(entries)
        if any(len(row) != N for row in entries):
            raise ValueError("loop matrix must be square")
        self.N = N
        self.entries = entries

    @classmethod
    def identity(cls, N: int) -> "LoopMatrix":
        return cls(
            [
                [LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(N)]
                for i in range(N)
            ]
        )

    @classmethod
    def from_constant(cls, mat) -> "LoopMatrix":
        mat = np.asarray(mat)
        return cls(
            [[LaurentPoly({0: mat[i, j]}) for j in range(mat.shape[1])] for i in range(mat.shape[0])]
        )

    def __matmul__(self, other: "LoopMatrix") -> "LoopMatrix":
        if self.N != other.N:
            raise ValueError("size mismatch")
        out = []
        for i in range(self.N):
            row = []
            for j in range(self.N):
                acc = LaurentPoly.zero()
                for k in range(self.N):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return LoopMatrix(out)

    def adjoint(self) -> "LoopMatrix":
        """Pointwise conjugate transpose as a Laurent-matrix function."""
        return LoopMatrix(
            [[adjoint_poly(self.entries[j][i]) for j in range(self.N)] for i in range(self.N)]
        )

    def sample_grid(self, grid: int = DEFAULT_GRID) -> np.ndarray:
        """Values at the grid points, shape (grid, N, N)."""
        theta = grid_angles(grid)
        values = np.array([[p.eval_at(theta) for p in row] for row in self.entries])
        return values.transpose(2, 0, 1)

    def max_abs_exp(self) -> int:
        m = 0
        for row in self.entries:
            for p in row:
                if not p.is_zero:
                    m = max(m, abs(p.min_exp), abs(p.max_exp))
        return m

    def isclose(self, other: "LoopMatrix", tol: float = 1e-12) -> bool:
        return all(
            self.entries[i][j].isclose(other.entries[i][j], tol)
            for i in range(self.N)
            for j in range(self.N)
        )

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
    exact: bool = False


# ----------------------------------------------------------------------
# filters <-> loop


def loop_from_filters(bank: FilterBank):
    """Loop matrices (A, Atilde or None) of a bank, by coefficient splitting."""

    def one_side(filters):
        rows = []
        for m in filters:
            row = []
            for l in range(bank.N):
                row.append(
                    LaurentPoly(
                        {
                            (k - l) // bank.N: c
                            for k, c in m.coeffs().items()
                            if (k - l) % bank.N == 0
                        }
                    )
                )
            rows.append(row)
        return LoopMatrix(rows)

    A = one_side(bank.filters)
    At = None if bank.dual_filters is None else one_side(bank.dual_filters)
    return A, At


def filters_from_loop(A: LoopMatrix) -> FilterBank:
    """Bank with m_k(z) = sum_l A_{k,l}(z^N) z^l (primary side only)."""
    N = A.N
    filters = []
    for k in range(N):
        m = LaurentPoly.zero()
        for l in range(N):
            m = m + upsample(A.entries[k][l], N).shift(l)
        filters.append(m)
    return FilterBank(N, filters)


# ----------------------------------------------------------------------
# determinants and the dual loop


def _row_exponent_ranges(A: LoopMatrix):
    """(min, max) exponent over the nonzero entries of each row, or None
    when some row is zero."""
    ranges = []
    for row in A.entries:
        live = [p for p in row if not p.is_zero]
        if not live:
            return None
        ranges.append((min(p.min_exp for p in live), max(p.max_exp for p in live)))
    return ranges


def loop_det(A: LoopMatrix) -> LaurentPoly:
    """Determinant of a loop as a Laurent polynomial.

    Each term of det A takes one entry from every row, so its exponents lie
    in [sum of row minima, sum of row maxima].  det A(z) is sampled on as
    many grid points as that window holds and read back with one DFT.
    """
    ranges = _row_exponent_ranges(A)
    if ranges is None:
        return LaurentPoly.zero()
    lo = sum(r[0] for r in ranges)
    hi = sum(r[1] for r in ranges)
    return polys_from_grid(np.linalg.det(A.sample_grid(hi - lo + 1)), lo)


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
        ranges = _row_exponent_ranges(A_star)
        lo = min(r[0] for r in ranges)
        hi = max(r[1] for r in ranges)
        N, e = A.N, unit[0]
        inverse = np.linalg.inv(A_star.sample_grid((N - 1) * (hi - lo) + 1))
        At = LoopMatrix(polys_from_grid(inverse, (N - 1) * lo - e))
        if (A_star @ At).isclose(LoopMatrix.identity(N)):
            return At
    vals = A_star.sample_grid(grid)
    return SampledLoop(N=A.N, grid=grid, values=np.linalg.inv(vals), exact=False)


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
    each grid point z; shape (grid, N, N)."""
    N = bank.N
    filters = bank.duals_or_primaries if dual else bank.filters
    fibers = (grid_angles(grid)[:, None] + 2.0 * np.pi * np.arange(N)) / N
    return np.stack([m.eval_at(fibers) for m in filters], axis=1) / np.sqrt(N)


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
    gram: list  # N x N nested list of LaurentPoly for AA*
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
        gram=gram.entries,
        samples=samples,
        inverses=inverses,
        choi_points=choi_points,
        min_eigs=min_eigs,
        ranks=ranks,
    )

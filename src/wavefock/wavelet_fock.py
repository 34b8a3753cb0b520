"""Creation operators of a biorthogonal filter bank via its doubled Gram.

The 2N operators (S_1..S_N, dual family) of a reconstructive bank have the
doubled Gram [[AA*, I], [I, (AA*)^-1]], a positive matrix-valued function on
the circle with commuting entries.  Sampling it on a grid makes every entry
a diagonal multiplication operator: the block matrix has d = grid size and
diagonal blocks, so it is stored as its layers, the grid points' 2N x 2N
matrices, and `validate_choi` judges all of them in one batched eigh.  The
layers feed straight into the Fock construction, whose letter vectors are
the points' kept eigenpairs: the vacuum compressions T_i* T_j recover the
sampled functions exactly, point by point, and no level is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, NotReconstructiveError
from .filterbank import DEFAULT_TOL, FilterBank
from .fock import ChoiMatrix, CreationOps, TstarTReport, creation_matrices, tstar_t_check
from .polyphase import GramMatrixFunction, gram_function

FOCK_GRID = 8


@dataclass
class SampledWaveletChoi:
    """Doubled Gram of a bank on a grid, a block matrix with d = grid size
    stored as its layers: layer t is the 2N x 2N matrix at point t."""

    bank: FilterBank
    gram: GramMatrixFunction
    choi: ChoiMatrix

    @property
    def letters(self) -> int:
        return 2 * self.bank.N


def _points(gram: GramMatrixFunction) -> np.ndarray:
    """[[AA*, I], [I, (AA*)^-1]] at every grid point, shape (grid, 2N, 2N)."""
    eye = np.broadcast_to(np.eye(gram.N), gram.samples.shape)
    return np.block([[gram.samples, eye], [eye, gram.inverses]])


def sampled_choi(
    bank: FilterBank, grid_size: int = FOCK_GRID, check: bool = True
) -> SampledWaveletChoi:
    """Sample [[AA*, I], [I, (AA*)^-1]] on the grid and verify positivity.

    `validate_choi` judges the grid points as the layers of the block
    matrix.  Rank must be exactly N on every layer: the doubled matrix
    factors through a square root of AA*.
    """
    if check and not bank.pair_bound <= DEFAULT_TOL:
        raise NotReconstructiveError("doubled Gram needs a dual pair or orthogonal bank")
    g = gram_function(bank, grid_size)
    P = ChoiMatrix(2 * bank.N, grid_size, layers=_points(g))
    ranks = P.report.kept.sum(axis=1)
    if (ranks != bank.N).any():
        raise NotPsdError(
            f"doubled Gram rank range [{ranks.min()}, {ranks.max()}], "
            f"expected {bank.N} at every point"
        )
    return SampledWaveletChoi(bank=bank, gram=g, choi=P)


@dataclass
class Cor6Report:
    """Corollary residuals, with the one Fock build and T*T check behind them."""

    grid_size: int
    primary_residual: float
    dual_residual: float
    cross_residual: float
    norm_law_residual: float
    ops: CreationOps
    tstar: TstarTReport

    @property
    def residual(self) -> float:
        return max(
            self.primary_residual,
            self.dual_residual,
            self.cross_residual,
            self.norm_law_residual,
        )

    def to_json(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "K": self.ops.K,
            "quotient_dims": self.ops.fock.quotient_dims,
            "primary_residual": self.primary_residual,
            "dual_residual": self.dual_residual,
            "cross_residual": self.cross_residual,
            "norm_law_residual": self.norm_law_residual,
            "fock_general_residual": self.tstar.general_residual,
            "well_definedness_residual": self.ops.well_definedness_residual,
            "residual": self.residual,
        }


def cor6_check(
    bank: FilterBank, grid_size: int = FOCK_GRID, K: int = 2
) -> Cor6Report:
    """Vacuum compressions of the doubled-Gram creation operators.

    Letters 0..N-1 are the primary family, N..2N-1 the dual family:
    (i) primary pairs give the sampled AA* entries, (ii) dual pairs the
    sampled inverse entries, (iii) mixed pairs delta_ij times the identity.
    The targets are the layers of the sampled doubled Gram.
    """
    sw = sampled_choi(bank, grid_size)
    N, g = bank.N, grid_size
    ops = creation_matrices(sw.choi, K)

    # the blocks are diagonal (W = I): vacuum product (a, b) is diagonal, with
    # (A_t* A_t)_ab against entry (a, b) of the doubled Gram at point t
    values = sw.choi.layers
    got = ops.layer_products()
    res = np.abs(got - values).max(axis=0)

    # ||T_a|| = max_t ||a_a^t|| on every level, against sup_z of the
    # diagonal Gram entry
    letters = np.arange(2 * N)
    norms = np.sqrt(got[:, letters, letters].real.max(axis=0))
    sup = np.sqrt(values[:, letters, letters].real.max(axis=0))

    return Cor6Report(
        grid_size=g,
        primary_residual=float(res[:N, :N].max()),
        dual_residual=float(res[N:, N:].max()),
        cross_residual=float(max(res[N:, :N].max(), res[:N, N:].max())),
        norm_law_residual=float(np.abs(norms - sup).max()),
        ops=ops,
        tstar=tstar_t_check(ops),
    )

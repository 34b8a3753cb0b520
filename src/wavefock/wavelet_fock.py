"""Creation operators of a biorthogonal filter bank via its doubled Gram.

The 2N operators (S_1..S_N, dual family) of a reconstructive bank have the
doubled Gram [[AA*, I], [I, (AA*)^-1]], a positive matrix-valued function on
the circle with commuting entries.  Sampling it on a grid makes every entry
a diagonal multiplication operator, so the block matrix feeds straight into
the Fock construction; the vacuum compressions T_i* T_j then recover the
sampled functions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, NotReconstructiveError
from .filterbank import FilterBank, relation_report
from .fock import ChoiMatrix, CreationOps, TstarTReport, creation_matrices, tstar_t_check
from .polyphase import GramMatrixFunction, gram_function

FOCK_GRID = 8


@dataclass
class SampledWaveletChoi:
    """Doubled Gram of a bank, sampled: one 2N x 2N PSD matrix per point."""

    bank: FilterBank
    gram: GramMatrixFunction

    @property
    def grid_size(self) -> int:
        return self.gram.grid

    @property
    def letters(self) -> int:
        return 2 * self.bank.N

    def point(self, t: int) -> ChoiMatrix:
        return ChoiMatrix.from_matrix(self.gram.choi_points[t])

    def block_choi(self) -> ChoiMatrix:
        """One block matrix with d = grid size and diagonal blocks."""
        n, g = self.letters, self.grid_size
        pts = self.gram.choi_points
        m = np.zeros((n * g, n * g), dtype=complex)
        for a in range(n):
            for b in range(n):
                np.fill_diagonal(m[a * g : (a + 1) * g, b * g : (b + 1) * g], pts[:, a, b])
        return ChoiMatrix(n, g, m)

    def to_json(self) -> dict:
        doc = self.block_choi().to_json()
        doc["provenance"] = {
            "source": "filter-bank doubled Gram",
            "bank": self.bank.to_json(),
            "grid_size": self.grid_size,
        }
        return doc


def sampled_choi(
    bank: FilterBank, grid_size: int = FOCK_GRID, check: bool = True
) -> SampledWaveletChoi:
    """Sample [[AA*, I], [I, (AA*)^-1]] on the grid and verify positivity.

    Rank must be exactly N at every point: the doubled matrix factors
    through a square root of AA*.
    """
    if check and not relation_report(bank).biorthogonal:  # the Cuntz verdict if self-dual
        raise NotReconstructiveError("doubled Gram needs a dual pair or orthogonal bank")
    g = gram_function(bank, grid_size)
    lo = float(np.min(g.min_eigs))
    if lo < -1e-10:
        raise NotPsdError(f"doubled Gram eigenvalue {lo:.3e} on the grid")
    if int(np.min(g.ranks)) != bank.N or int(np.max(g.ranks)) != bank.N:
        raise NotPsdError(
            f"doubled Gram rank range [{np.min(g.ranks)}, {np.max(g.ranks)}], "
            f"expected {bank.N} at every point"
        )
    return SampledWaveletChoi(bank=bank, gram=g)


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
    The targets are the sampled doubled Gram itself, read independently of
    the block-matrix assembly.
    """
    sw = sampled_choi(bank, grid_size)
    N, g = bank.N, grid_size
    P = sw.block_choi()
    ops = creation_matrices(P, K)

    # vacuum product (a, b) is diagonal: entry (a, b) of the doubled Gram
    # at each grid point
    values = sw.gram.choi_points
    target = np.eye(g) * values.transpose(1, 2, 0)[:, :, None, :]
    res = np.linalg.norm(ops.products(0) - target, 2, axis=(-2, -1))

    # ||T_a|| over the levels against sup_z of the diagonal Gram entry
    got = np.max([np.linalg.norm(np.stack(ops.ops[k]), 2, axis=(-2, -1)) for k in range(K)], axis=0)
    letters = np.arange(2 * N)
    sup = np.sqrt(values[:, letters, letters].real.max(axis=0))

    return Cor6Report(
        grid_size=g,
        primary_residual=float(res[:N, :N].max()),
        dual_residual=float(res[N:, N:].max()),
        cross_residual=float(max(res[N:, :N].max(), res[:N, N:].max())),
        norm_law_residual=float(np.abs(got - sup).max()),
        ops=ops,
        tstar=tstar_t_check(ops),
    )

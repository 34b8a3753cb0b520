"""N-band filter banks as systems of isometries.

A bank holds a scale N and N subband filters m_0..m_{N-1}, optionally with a
dual family.  The associated operators act on Laurent polynomials by

    S_i f = m_i * upsample(f, N)        (filter after N-fold upsampling)
    S_i^* f = decimate(adjoint(m_i) * f, N)

and `relation_report` measures how far the family is from satisfying the
isometry, range-orthogonality, completeness and dual-pairing identities.
Both operators are shift covariant, S_i(z f) = z^N S_i f, so completeness is
checked on one mode per phase, and adjoint words are expanded level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DualLengthMismatchError, NotReconstructiveError
from .laurent import (
    DEFAULT_GRID,
    LaurentPoly,
    adjoint_poly,
    decimate,
    grid_angles,
    poly_from_json,
    poly_to_json,
    stack_polys,
    upsample,
)

DEFAULT_TOL = 1e-9


class FilterBank:
    """Scale N with N primary filters and an optional dual family.

    The genus g is the smallest integer such that every filter exponent lies
    in [-Ng+1, Ng-1]; it is always computed from the stored filters.
    """

    def __init__(self, N: int, filters, dual_filters=None):
        if N < 2:
            raise ValueError("scale N must be at least 2")
        filters = list(filters)
        if len(filters) != N:
            raise DualLengthMismatchError(
                f"expected {N} primary filters, got {len(filters)}"
            )
        if dual_filters is not None:
            dual_filters = list(dual_filters)
            if len(dual_filters) != N:
                raise DualLengthMismatchError(
                    f"expected {N} dual filters, got {len(dual_filters)}"
                )
        self.N = N
        self.filters = filters
        self.dual_filters = dual_filters

    @property
    def is_self_dual(self) -> bool:
        return self.dual_filters is None

    @property
    def duals_or_primaries(self) -> list:
        return self.dual_filters if self.dual_filters is not None else self.filters

    @property
    def genus(self) -> int:
        all_filters = self.filters + (self.dual_filters or [])
        m = 0
        for p in all_filters:
            if not p.is_zero:
                m = max(m, abs(p.min_exp), abs(p.max_exp))
        return max(1, math.ceil((m + 1) / self.N))

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "filters": [poly_to_json(p) for p in self.filters],
            "dual_filters": None
            if self.dual_filters is None
            else [poly_to_json(p) for p in self.dual_filters],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FilterBank":
        if not isinstance(obj, dict) or "N" not in obj or "filters" not in obj:
            raise ValueError("filter bank JSON must have keys 'N' and 'filters'")
        duals = obj.get("dual_filters")
        return cls(
            int(obj["N"]),
            [poly_from_json(p) for p in obj["filters"]],
            None if duals is None else [poly_from_json(p) for p in duals],
        )

    def __repr__(self):
        tag = "self-dual" if self.is_self_dual else "with duals"
        return f"FilterBank(N={self.N}, genus={self.genus}, {tag})"


# ----------------------------------------------------------------------
# the operators


def apply_S(m: LaurentPoly, f: LaurentPoly, N: int) -> LaurentPoly:
    """S f = m * f(z^N)."""
    return m * upsample(f, N)


def apply_S_adjoint(m: LaurentPoly, f: LaurentPoly, N: int) -> LaurentPoly:
    """S^* f = decimate(adjoint(m) * f, N), the transfer-operator form."""
    return decimate(adjoint_poly(m) * f, N)


# ----------------------------------------------------------------------
# relation verification


@dataclass
class RelationReport:
    N: int
    tolerance: float
    grid: int
    pair_residuals: list = field(repr=False)  # sup |R(adj(m_i) mdual_j) - delta_ij| on the grid
    self_residuals: list = field(repr=False)  # same with duals = primaries
    pair_bounds: list = field(repr=False)  # sum_k |c_k| of each pair residual: sup over the circle
    self_bounds: list = field(repr=False)
    completeness_residual: float = 0.0  # sum_i S_i Sdual_i^* = I on every mode
    self_completeness_residual: float = 0.0

    @property
    def isometry(self) -> bool:
        return max(row[i] for i, row in enumerate(self.self_bounds)) < self.tolerance

    @property
    def orthogonal_ranges(self) -> bool:
        off = [v for i, row in enumerate(self.self_bounds) for j, v in enumerate(row) if i != j]
        return max(off) < self.tolerance

    @property
    def cuntz(self) -> bool:
        complete = self.self_completeness_residual < self.tolerance
        return self.isometry and self.orthogonal_ranges and complete

    @property
    def biorthogonal(self) -> bool:
        complete = self.completeness_residual < self.tolerance
        return max(map(max, self.pair_bounds)) < self.tolerance and complete

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "tolerance": self.tolerance,
            "grid": self.grid,
            "pair_residuals": self.pair_residuals,
            "self_residuals": self.self_residuals,
            "pair_bounds": self.pair_bounds,
            "self_bounds": self.self_bounds,
            "completeness_residual": self.completeness_residual,
            "self_completeness_residual": self.self_completeness_residual,
            "verdicts": {
                "isometry": self.isometry,
                "orthogonal_ranges": self.orthogonal_ranges,
                "cuntz": self.cuntz,
                "biorthogonal": self.biorthogonal,
            },
        }


def _residuals(F, lo_f: int, D, lo_d: int, N: int, grid: int):
    """(pair residuals on the grid, pair bounds, completeness residual) of
    primaries F and duals D, coefficient stacks of shapes (N, L) and (N, Ld)
    from exponents lo_f and lo_d.

    adj(m_i) mdual_j holds conj(F[i, s]) D[j, t] at lag t - s; lag k - (L-1)
    is read from D padded by L - 1 zeros, and only the lags on exponents in
    N Z are gathered, so the N^2 decimated products are one matmul.  The
    image of e_n under sum_i S_i Sdual_i^* holds (D^* F)[s, t] at
    n + lo_f - lo_d + t - s for the rows s = n - lo_d (mod N): the diagonal
    sums of D^* F over each residue class of rows.  A pair residual
    sum_k c_k z^k is at most sum_k |c_k| in modulus on the whole circle.
    """
    L, Ld = F.shape[1], D.shape[1]
    base = lo_d - lo_f - (L - 1)  # exponent of lag index 0
    lags = np.arange(-base % N, L + Ld - 1, N)
    padded = np.zeros((N, Ld + 2 * (L - 1)), dtype=complex)
    padded[:, L - 1 : L - 1 + Ld] = D
    pair = np.matmul(padded[:, lags[:, None] + np.arange(L)], F.conj().T).transpose(2, 0, 1)
    d0 = (base + lags[0]) // N if len(lags) else 0  # exponent of pair[..., 0]
    d_lo, d_hi = min(d0, 0), max(d0 + len(lags) - 1, 0)
    residual = np.zeros((N, N, d_hi - d_lo + 1), dtype=complex)
    residual[:, :, d0 - d_lo : d0 - d_lo + len(lags)] = pair
    residual[:, :, -d_lo] -= np.eye(N)
    phases = np.exp(1j * np.multiply.outer(np.arange(d_lo, d_hi + 1), grid_angles(grid)))
    pair_res = np.abs(residual @ phases).max(axis=-1)

    rows = -(-Ld // N) * N
    diags = np.zeros((rows, L + Ld - 1), dtype=complex)
    s = np.arange(Ld)[:, None]
    diags[s, np.arange(L) - s + Ld - 1] = D.conj().T @ F
    images = diags.reshape(-1, N, L + Ld - 1).sum(axis=0)
    unit = lo_d - lo_f + Ld - 1  # column of e_n
    if 0 <= unit < images.shape[1]:
        images[:, unit] -= 1.0
    else:  # e_n lies outside every image
        images = np.hstack([images, -np.ones((N, 1))])
    bounds = np.abs(residual).sum(axis=-1)
    return pair_res.tolist(), bounds.tolist(), float(np.linalg.norm(images, axis=1).max())


def relation_report(
    bank: FilterBank, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID
) -> RelationReport:
    """Residuals for the subband relations, plus verdicts at `tol`.

    Verdicts read the pairing bounds, which hold on the whole circle; the
    pairing residuals, sups over `grid` points, are only reported.
    Completeness is exact: each image of a Fourier mode is finitely supported,
    and by shift covariance the modes e_0..e_{N-1} give the residual over all.
    """
    N = bank.N
    lo_f, F = stack_polys(bank.filters)
    self_res, self_bnd, self_comp = _residuals(F, lo_f, F, lo_f, N, grid)
    if bank.is_self_dual:
        pair_res, pair_bnd, comp = self_res, self_bnd, self_comp
    else:
        lo_d, D = stack_polys(bank.dual_filters)
        pair_res, pair_bnd, comp = _residuals(F, lo_f, D, lo_d, N, grid)

    return RelationReport(
        N=N,
        tolerance=tol,
        grid=grid,
        pair_residuals=pair_res,
        self_residuals=self_res,
        pair_bounds=pair_bnd,
        self_bounds=self_bnd,
        completeness_residual=comp,
        self_completeness_residual=self_comp,
    )


# ----------------------------------------------------------------------
# module expansion over words


def module_expand(
    bank: FilterBank,
    f: LaurentPoly,
    k: int,
    tol: float = DEFAULT_TOL,
    check: bool = True,
) -> dict:
    """Subband components of f over all words of length k, in lexicographic
    order.

    The component at word w = (i_1, ..., i_k) is the iterated dual adjoint
    Sdual_{i_k}^* ... Sdual_{i_1}^* f with Sdual_{i_1}^* applied first, built
    level by level as {w + (i,): Sdual_i^* f_w}, so words share prefixes.  For
    a bank passing the pairing verdict, f = sum_w b_w * upsample(f_w, N^k)
    with b_w = m_{i_1}(z) m_{i_2}(z^N) ... m_{i_k}(z^(N^(k-1))).
    """
    if k < 1:
        raise ValueError("word length k must be at least 1")
    if check and not relation_report(bank, tol=tol).biorthogonal:  # the Cuntz verdict if self-dual
        raise NotReconstructiveError("bank fails the dual-pairing verdict")
    duals = bank.duals_or_primaries
    components = {(): f}
    for _ in range(k):
        components = {
            word + (i,): apply_S_adjoint(d, g, bank.N)
            for word, g in components.items()
            for i, d in enumerate(duals)
        }
    return components


def module_reconstruct(bank: FilterBank, components: dict) -> LaurentPoly:
    """Reassemble sum_w b_w(z) * f_w(z^(N^|w|)) from `module_expand` output.

    Folds from the deepest level by nested synthesis: the components at
    w + (i,) collapse to sum_i S_i f_{w + (i,)} at w, down to the empty word.
    """
    parts = dict(components)
    for k in range(max(map(len, parts), default=0), 0, -1):
        for word in [w for w in parts if len(w) == k]:
            g = apply_S(bank.filters[word[-1]], parts.pop(word), bank.N)
            parts[word[:-1]] = parts.get(word[:-1], LaurentPoly.zero()) + g
    return parts.get((), LaurentPoly.zero())

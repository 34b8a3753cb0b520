"""Co-invariant anchor subspaces of compactly supported dual pairs.

For a bank of genus g the window W = span{e_0, e_{-1}, ..., e_{-Ng+1}} is
finite dimensional, and each adjoint S_i^* sends a mode e_n to a single
shifted loop-entry conjugate.  The anchor subspace K is the largest subspace
of W mapped into itself by all 2N adjoints (primary and dual family); it is
computed by a shrinking fixed-point iteration.  Every Fourier mode is pulled
into K by sufficiently long adjoint words, and K together with the word
expansions recovers every mode: the double-cyclicity check below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthExceededError, EmptyAnchorError, NotReconstructiveError
from .filterbank import (
    FilterBank,
    module_expand,
    module_reconstruct,
    relation_report,
)
from .laurent import LaurentPoly, adjoint_poly
from .polyphase import LoopMatrix, loop_from_filters

MEMBER_TOL = 1e-10
SVD_CUTOFF = 1e-12
DEPTH_CAP = 64


def adjoint_on_mode(bank: FilterBank, i: int, n: int, dual: bool = False) -> LaurentPoly:
    """S_i^* e_n via the loop matrix: conj(A_{i,j0}) shifted by (n - j0)/N.

    j0 is the phase of n in [0, N-1]; only that one polyphase entry survives
    the decimation, so the result is a single shifted entry conjugate.
    """
    return _mode_adjoint(_family_loops(bank)[bool(dual)], i, n)


def _family_loops(bank: FilterBank) -> tuple:
    """(primary, dual) loops behind the two adjoint families; a self-dual
    bank uses its primary loop for both."""
    A, At = loop_from_filters(bank)
    return A, A if At is None else At


def _mode_adjoint(loop: LoopMatrix, i: int, n: int) -> LaurentPoly:
    if not 0 <= i < loop.N:
        raise ValueError("filter index out of range")
    j0 = n % loop.N
    return adjoint_poly(loop.entries[i][j0]).shift((n - j0) // loop.N)


def _poly_adjoint(loop: LoopMatrix, i: int, p: LaurentPoly) -> LaurentPoly:
    out = LaurentPoly.zero()
    for k, c in p.coeffs().items():
        out = out + c * _mode_adjoint(loop, i, k)
    return out


# ----------------------------------------------------------------------
# the anchor subspace


@dataclass
class AnchorSubspace:
    """Orthonormal basis of K in window coordinates.

    Window modes are e_0, e_{-1}, ..., e_{-(size-1)}; coordinate row r of a
    basis vector is the coefficient of e_{-r}.
    """

    N: int
    genus: int
    basis: np.ndarray  # (window size, dim)
    coinvariance_residual: float

    @property
    def window_size(self) -> int:
        return self.N * self.genus

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def window_modes(self) -> list:
        return [-r for r in range(self.window_size)]

    def coords(self, p: LaurentPoly) -> np.ndarray:
        """Window coordinates of p, ignoring out-of-window terms."""
        v = np.zeros(self.window_size, dtype=complex)
        for k, c in p.coeffs().items():
            if -self.window_size < k <= 0:
                v[-k] = c
        return v

    def leak(self, p: LaurentPoly) -> float:
        """Distance from p to K: out-of-window mass plus off-span mass."""
        outside = 0.0
        for k, c in p.coeffs().items():
            if k > 0 or k <= -self.window_size:
                outside += abs(c) ** 2
        v = self.coords(p)
        inside = v - self.basis @ (self.basis.conj().T @ v)
        return float(np.sqrt(outside + np.linalg.norm(inside) ** 2))

    def contains(self, p: LaurentPoly, tol: float = MEMBER_TOL) -> bool:
        return self.leak(p) <= tol * max(1.0, p.coeff_norm())

    def basis_polys(self) -> list:
        out = []
        for c in range(self.dimension):
            out.append(
                LaurentPoly({-r: self.basis[r, c] for r in range(self.window_size)})
            )
        return out

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "genus": self.genus,
            "dimension": self.dimension,
            "window_modes": self.window_modes(),
            "coinvariance_residual": self.coinvariance_residual,
            "basis": [
                [[float(x.real), float(x.imag)] for x in self.basis[:, c]]
                for c in range(self.dimension)
            ],
        }


def _mode_images(bank: FilterBank) -> list:
    """Images of each window mode under all 2N adjoints."""
    W = bank.N * bank.genus
    return [
        [_mode_adjoint(loop, i, -r) for r in range(W)]
        for loop in _family_loops(bank)
        for i in range(bank.N)
    ]


def compute_anchor(
    bank: FilterBank,
    tol: float = MEMBER_TOL,
    cutoff: float = SVD_CUTOFF,
    check: bool = True,
) -> AnchorSubspace:
    """Largest subspace of the mode window invariant under all 2N adjoints.

    Iteratively removes the directions whose images leak outside the current
    candidate; dimensions strictly decrease until the fixed point.
    """
    if check:
        rep = relation_report(bank)
        if not (rep.biorthogonal or rep.cuntz):
            raise NotReconstructiveError("anchor needs a dual pair or orthogonal bank")
    W = bank.N * bank.genus
    images = _mode_images(bank)

    basis = np.eye(W, dtype=complex)
    while True:
        dim = basis.shape[1]
        if dim == 0:
            raise EmptyAnchorError("invariant fixed point is the zero subspace")
        # rows of the leak map: out-of-window coefficients and the component
        # of the in-window part orthogonal to the current candidate
        blocks = []
        for imgs in images:
            exps = sorted(
                {k for r in range(W) for k in imgs[r].coeffs() if k > 0 or k <= -W}
            )
            row_of = {k: r for r, k in enumerate(exps)}
            out_block = np.zeros((len(exps), dim), dtype=complex)
            in_block = np.zeros((W, dim), dtype=complex)
            for c in range(dim):
                acc: dict = {}
                for r in range(W):
                    w = basis[r, c]
                    if w == 0:
                        continue
                    for k, v in imgs[r].coeffs().items():
                        acc[k] = acc.get(k, 0j) + w * v
                for k, v in acc.items():
                    if k > 0 or k <= -W:
                        out_block[row_of[k], c] = v
                    else:
                        in_block[-k, c] = v
            in_block -= basis @ (basis.conj().T @ in_block)
            blocks.append(out_block)
            blocks.append(in_block)
        # leak_map has at least W rows, so every singular direction is listed
        leak_map = np.vstack(blocks)
        _, s, vh = np.linalg.svd(leak_map)
        n_kernel = int(np.sum(s <= max(cutoff, cutoff * s[0])))
        if n_kernel == dim:
            return AnchorSubspace(
                N=bank.N,
                genus=bank.genus,
                basis=basis,
                coinvariance_residual=float(s[0]),
            )
        if n_kernel == 0:
            raise EmptyAnchorError("invariant fixed point is the zero subspace")
        basis, _ = np.linalg.qr(basis @ vh.conj().T[:, dim - n_kernel :])


# ----------------------------------------------------------------------
# pull-back depth and cyclicity


def _orthonormal_polys(polys: list, cutoff: float = SVD_CUTOFF) -> list:
    exps = sorted({k for p in polys for k in p.coeffs()})
    if not exps:
        return []
    mat = np.zeros((len(polys), len(exps)), dtype=complex)
    for r, p in enumerate(polys):
        for k, v in p.coeffs().items():
            mat[r, exps.index(k)] = v
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = s > cutoff * max(s[0], 1.0) if len(s) else s
    rows = vh[keep]
    return [
        LaurentPoly({exps[c]: rows[r, c] for c in range(len(exps))})
        for r in range(rows.shape[0])
    ]


def pullback_depth(
    bank: FilterBank,
    n: int,
    anchor: AnchorSubspace | None = None,
    cap: int = DEPTH_CAP,
    tol: float = MEMBER_TOL,
) -> int:
    """Smallest k with every length-k adjoint word sending e_n into the anchor.

    Tracked per family on an orthonormalised spanning set: all words of
    length k land in K exactly when the span of their images does.
    """
    if anchor is None:
        anchor = compute_anchor(bank)
    worst = 0
    for loop in _family_loops(bank):
        span = [LaurentPoly.monomial(n)]
        depth = 0
        while not all(anchor.contains(p, tol) for p in span):
            depth += 1
            if depth > cap:
                raise DepthExceededError(
                    f"mode {n} not absorbed within {cap} adjoint applications"
                )
            images = [_poly_adjoint(loop, i, p) for p in span for i in range(bank.N)]
            span = _orthonormal_polys(images)
        worst = max(worst, depth)
    return worst


def adjoint_on_mode_poly(
    bank: FilterBank, i: int, p: LaurentPoly, dual: bool = False
) -> LaurentPoly:
    """Linear extension of adjoint_on_mode to arbitrary polynomials."""
    return _poly_adjoint(_family_loops(bank)[bool(dual)], i, p)


@dataclass
class CyclicityReport:
    n_range: int
    reconstruction_residual: float
    membership_residual: float
    depths: dict

    def to_json(self) -> dict:
        return {
            "n_range": self.n_range,
            "reconstruction_residual": self.reconstruction_residual,
            "membership_residual": self.membership_residual,
            "depths": {str(k): v for k, v in sorted(self.depths.items())},
        }


def cyclicity_check(
    bank: FilterBank,
    anchor: AnchorSubspace | None = None,
    n_range: int = 8,
    cap: int = DEPTH_CAP,
) -> CyclicityReport:
    """Word expansion of every mode through anchor-absorbed components.

    For each family the mode is expanded at depth k = max(pullback depth, 1);
    all components must lie in K and the primary-side words must rebuild the
    mode exactly.
    """
    if anchor is None:
        anchor = compute_anchor(bank)
    swapped = (
        bank
        if bank.is_self_dual
        else FilterBank(bank.N, bank.dual_filters, bank.filters)
    )
    recon_worst = 0.0
    member_worst = 0.0
    depths = {}
    for n in range(-n_range, n_range + 1):
        depths[n] = pullback_depth(bank, n, anchor, cap=cap)
        k = max(depths[n], 1)
        e_n = LaurentPoly.monomial(n)
        for b in (bank, swapped):
            comps = module_expand(b, e_n, k, check=False)
            for p in comps.values():
                member_worst = max(member_worst, anchor.leak(p))
            err = (module_reconstruct(b, comps) - e_n).coeff_norm()
            recon_worst = max(recon_worst, err)
    return CyclicityReport(
        n_range=n_range,
        reconstruction_residual=recon_worst,
        membership_residual=member_worst,
        depths=depths,
    )

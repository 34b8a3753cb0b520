"""Test oracles: circle points stored by angle, dict-based Laurent
arithmetic, and the dense Fock build.

`DictPoly` is the sparse representation the package used before its
coefficient arrays: a dict from exponent to coefficient, with products by a
double loop over both supports.  It keeps every nonzero coefficient, so it
agrees with `LaurentPoly` on supports at any scale.

`dense_validate_choi` and `dense_creation` are the Fock build the package
used before its scalar layers: a dense eigh of P and of every level Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wavefock.errors import NotPsdError, SizeCapError
from wavefock.fock import (
    MAX_LEVEL,
    PSD_HARD,
    PSD_WARN,
    RANK_CUTOFF,
    SIZE_CAP,
    ChoiMatrix,
    ChoiReport,
    CreationOps,
    FockLevel,
    TruncatedFock,
    level_gram,
)
from wavefock.laurent import LaurentPoly


@dataclass(frozen=True)
class TorusPoint:
    """A point on the unit circle, stored by angle in [0, 2*pi).

    Storing the angle keeps |z| = 1 exact and makes fiber constructions
    (N-th roots of a point) unambiguous: the principal root divides the
    angle instead of picking a branch of a complex logarithm.
    """

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", self.angle % (2.0 * math.pi))

    @property
    def value(self) -> complex:
        return complex(math.cos(self.angle), math.sin(self.angle))

    def root(self, N: int, branch: int = 0) -> "TorusPoint":
        """Principal N-th root, rotated by `branch` fiber steps."""
        return TorusPoint(self.angle / N + 2.0 * math.pi * branch / N)

    def power(self, k: int) -> "TorusPoint":
        return TorusPoint(self.angle * k)


def torus_grid(n: int) -> list:
    """Equispaced circle points exp(2*pi*i*k/n), k = 0..n-1."""
    return [TorusPoint(2.0 * math.pi * k / n) for k in range(n)]


class DictPoly:
    """sum_k c_k z^k as {k: c_k}, holding the nonzero coefficients only."""

    def __init__(self, coeffs=None):
        self.c = {int(k): complex(v) for k, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def _wrap(cls, c: dict, drop_zeros: bool = False) -> "DictPoly":
        p = cls.__new__(cls)
        p.c = {k: v for k, v in c.items() if v} if drop_zeros else c
        return p

    @classmethod
    def of(cls, p: LaurentPoly) -> "DictPoly":
        return cls._wrap(p.coeffs())

    @property
    def support(self) -> list:
        return sorted(self.c)

    def __add__(self, other):
        c = dict(self.c)
        for k, v in other.c.items():
            c[k] = c.get(k, 0j) + v
        return DictPoly._wrap(c, drop_zeros=True)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __mul__(self, other):
        c = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                c[k1 + k2] = c.get(k1 + k2, 0j) + v1 * v2
        return DictPoly._wrap(c, drop_zeros=True)

    def scale(self, s) -> "DictPoly":
        return DictPoly._wrap({k: v * s for k, v in self.c.items()}, drop_zeros=True)

    def shift(self, d: int) -> "DictPoly":
        return DictPoly._wrap({k + d: v for k, v in self.c.items()})

    def adjoint(self) -> "DictPoly":
        return DictPoly._wrap({-k: v.conjugate() for k, v in self.c.items()})

    def decimate(self, N: int) -> "DictPoly":
        return DictPoly._wrap({k // N: v for k, v in self.c.items() if k % N == 0})

    def upsample(self, N: int) -> "DictPoly":
        return DictPoly._wrap({N * k: v for k, v in self.c.items()})

    def coeffs(self) -> dict:
        return dict(self.c)

    def coeff_norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.c.values()))


# ----------------------------------------------------------------------
# the dense Fock build


def dense_validate_choi(P: ChoiMatrix) -> ChoiReport:
    """`validate_choi` from one dense eigh of P, as a single layer.

    The Hermiticity residual is the spectral norm of P - P*, the norm is the
    top eigenvalue, eigenvalues below -PSD_HARD times max(1, ||P||) raise and
    the rank keeps those above RANK_CUTOFF times the top one.  The commutator
    sums the pairwise ||[p_a, p_b]||_F^2 by a loop; the blocks commute when it
    is within PSD_HARD times max(1, ||P||^2).
    """
    m = P.matrix
    herm = float(np.linalg.norm(m - m.conj().T, 2))
    eigvals, eigvecs = np.linalg.eigh((m + m.conj().T) / 2)
    lo = float(eigvals[0])
    norm = float(max(eigvals[-1], 0.0))
    scale = max(1.0, norm)
    if lo < -PSD_HARD * scale:
        raise NotPsdError(f"minimum eigenvalue {lo:.3e} below -{PSD_HARD * scale:.3g}")
    flat = [P.block(i, j) for i in range(P.N) for j in range(P.N)]
    commutator = math.sqrt(
        sum(np.linalg.norm(a @ b - b @ a) ** 2 for a in flat for b in flat)
    )
    return ChoiReport(
        hermiticity_residual=herm,
        commutator=commutator,
        commuting=commutator <= PSD_HARD * max(1.0, norm**2),
        W=np.ones((1, 1)),
        eigenvalues=eigvals[None],
        eigenvectors=eigvecs[None],
        kept=(eigvals > RANK_CUTOFF * eigvals[-1])[None],
        norm=norm,
        warning=lo < -PSD_WARN * scale or herm > PSD_WARN * scale,
    )


def dense_creation(
    P: ChoiMatrix, K: int, size_cap: int = SIZE_CAP, max_level: int = MAX_LEVEL
) -> CreationOps:
    """`creation_matrices` from a dense eigh of each level Gram.

    Level k keeps the eigenpairs of `level_gram(P, k)` above RANK_CUTOFF
    times its top eigenvalue; V_k = X Lambda^(-1/2), the factor is V_k* G_k,
    and T_i = (V_{k+1}* G_{k+1})[:, block i] V_k.  The well-definedness
    residual is the worst form ker* G_{k+1}[block i, block i] ker over the
    eigenvectors below the cutoff, and P is judged by `dense_validate_choi`.
    Every consumer of `CreationOps` runs on the result unchanged.
    """
    report = dense_validate_choi(P)
    if K > max_level:
        raise SizeCapError(f"truncation level {K} above cap {max_level}")
    N = P.N
    grams = [level_gram(P, k, size_cap) for k in range(K + 1)]
    levels = []
    for k, G in enumerate(grams):
        eigvals, eigvecs = np.linalg.eigh(G)
        if eigvals[0] < -PSD_HARD * max(1.0, P.norm**k):
            raise NotPsdError(f"level {k} Gram eigenvalue {eigvals[0]:.3e}")
        keep = eigvals > RANK_CUTOFF * eigvals[-1]
        V = eigvecs[:, keep] / np.sqrt(eigvals[keep])
        ker, size = eigvecs[:, ~keep], G.shape[0]
        prepend = 0.0
        if k < K and ker.shape[1]:
            for i in range(N):
                block = grams[k + 1][i * size : (i + 1) * size, i * size : (i + 1) * size]
                sq = np.einsum("ij,ij->j", ker.conj(), block @ ker).real
                prepend = max(prepend, float(np.abs(sq).max()))
        levels.append(FockLevel(k, eigvals, V.conj().T @ G, V, prepend))
    ops = []
    for k in range(K):
        lvl, nxt = levels[k], levels[k + 1]
        size = grams[k].shape[0]
        ops.append(
            np.stack(
                [nxt.factor[:, i * size : (i + 1) * size] @ lvl.quotient for i in range(N)]
            )
        )
    fock = TruncatedFock(P, K, report, levels)
    worst = max((lvl.prepend_residual for lvl in levels[:K]), default=0.0)
    return CreationOps(fock=fock, ops=ops, well_definedness_residual=worst)

"""Test oracles: circle points stored by angle, dict-based Laurent
arithmetic, and the dense Fock build.

`DictPoly` is the sparse representation the package used before its
coefficient arrays: a dict from exponent to coefficient, with products by a
double loop over both supports.  It keeps every nonzero coefficient, so it
agrees with `LaurentPoly` on supports at any scale.

`dense_validate_choi`, `dense_creation`, `dense_tstar_t_check` and
`dense_cor6_check` are the Fock build and checks the package used before its
scalar layers: a dense eigh of P and of every level Gram, creation operators
stacked level by level, and spectral-norm SVDs of every T_i* T_j residual.
`word_factor` lifts the layered letters back to word space.

`eager_relation_json` is the relation report computed all at once, grid
sups included (through the package's `circle_values`, so that the lazy
report matches it bit for bit), as `relation_report` did before it computed
each part on first read; `phase_sum_values` is the independent reference
for `circle_values`, a direct sum of c_t e^(i (lo + t) theta);
`per_vector_spanning_residual` is the scalar kernel law with one random draw
and one norm per factor vector.

`accumulated_tap_product` is the loop product with one matrix product per
tap of the left factor, and the `factorwise_*` generators are the random
corpus loops as the package built them before it batched their constant
factors: one QR or SVD per factor and one trimmed `LoopMatrix` per partial
product.  Each dual loop is multiplied beside its loop from the factors'
inverse adjoints, each factor built as its own `LoopMatrix`.  `per_family_modulation_bound` is `modulation_bound` with one
`modulation_matrix` call per family.

`as_monomial_unit` reads a determinant as one monomial c z^e, as the dual
loop once did before dividing the adjugate by it; `entries_loop_json` is the
loop JSON written through one polynomial per entry; `loops_close` compares
two loops coefficient by coefficient, as `LoopMatrix.isclose` did.
`ill_conditioned_pair` is the bank s z [[1, 0], [1, c]] with |c| = 1.1e-10,
whose exact dual passes A* Atilde = I but whose condition bound does not.
`shifted_diagonal` is a random invertible loop times diag(1 + cz, 1, ..., 1):
invertible for |c| < 1, with no Laurent inverse for any c != 0, and a
truncated series of its inverse fits its windows from small N on.
`shift_loop` is I + 0.99 z P, P the cyclic shift: well conditioned, with no
Laurent inverse.
"""

from __future__ import annotations

import math
import functools
from dataclasses import dataclass, field

import numpy as np

from wavefock.corpus import random_invertible_loop
from wavefock.errors import NotPsdError, SizeCapError
from wavefock.filterbank import FilterBank
from wavefock.fock import (
    MAX_LEVEL,
    PSD_HARD,
    PSD_WARN,
    RANK_CUTOFF,
    ChoiMatrix,
    ChoiReport,
    TruncatedFock,
    TstarTReport,
    level_gram,
    truncated_fock,
)
from wavefock.laurent import LaurentPoly, circle_values, poly_to_json, poly_window, stack_polys
from wavefock.polyphase import LoopMatrix, filters_from_loop, modulation_matrix
from wavefock.wavelet_fock import Cor6Report, _points, sampled_choi


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


def phase_sum_values(lo: int, taps, M: int) -> np.ndarray:
    """sum_t taps[t] e^(i (lo + t) theta_j) at theta_j = 2 pi j/M, along
    axis 0: one phase per (point, exponent), with no folding or FFT."""
    taps = np.asarray(taps, dtype=complex)
    theta = 2.0 * math.pi * np.arange(M) / M
    phases = np.exp(1j * np.multiply.outer(theta, lo + np.arange(len(taps))))
    return np.tensordot(phases, taps, axes=1)


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
    is the Frobenius norm of every pairwise [p_a, p_b], from one einsum of all
    block products; the blocks commute when it is within PSD_HARD times
    max(1, ||P||^2).
    """
    m = P.matrix
    herm = float(np.linalg.norm(m - m.conj().T, 2))
    eigvals, eigvecs = np.linalg.eigh((m + m.conj().T) / 2)
    lo = float(eigvals[0])
    norm = float(max(eigvals[-1], 0.0))
    scale = max(1.0, norm)
    if lo < -PSD_HARD * scale:
        raise NotPsdError(f"minimum eigenvalue {lo:.3e} below -{PSD_HARD * scale:.3g}")
    flat = P.blocks().reshape(-1, P.d, P.d)
    products = np.einsum("aij,bjk->abik", flat, flat)  # not BLAS: diagonal blocks commute exactly
    commutator = math.sqrt(
        sum(np.linalg.norm(p - q) ** 2 for p, q in zip(products, products.swapaxes(0, 1)))
    )
    return ChoiReport(
        hermiticity_residual=herm,
        commutator=commutator,
        commuting=commutator <= PSD_HARD * max(1.0, norm**2),
        W=np.ones((1, 1)),
        layers=m[None],
        off=None,
        eigenvalues=eigvals[None],
        eigenvectors=eigvecs[None],
        kept=(eigvals > RANK_CUTOFF * eigvals[-1])[None],
        norm=norm,
        warning=lo < -PSD_WARN * scale or herm > PSD_WARN * scale,
    )


@dataclass
class DenseLevel:
    """Level k from the kept eigenpairs (lambda, x) of G_k: `factor` is
    V_k* G_k = Lambda^(1/2) X* and `quotient` is V_k = X Lambda^(-1/2)."""

    k: int
    eigenvalues: np.ndarray  # all of G_k's
    factor: np.ndarray
    quotient: np.ndarray
    prepend_residual: float

    @property
    def q(self) -> int:
        return int(self.quotient.shape[1])

    @property
    def kernel_dim(self) -> int:
        return int(self.eigenvalues.size) - self.q

    @property
    def norm(self) -> float:
        return float(np.abs(self.eigenvalues).max())


@dataclass
class DenseFock:
    choi: ChoiMatrix
    K: int
    choi_report: ChoiReport
    levels: list = field(default_factory=list)

    def level(self, k: int) -> DenseLevel:
        return self.levels[k]

    @property
    def quotient_dims(self) -> list:
        return [lvl.q for lvl in self.levels]

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "quotient_dims": self.quotient_dims,
            "kernel_dims": [lvl.kernel_dim for lvl in self.levels],
            "gram_norms": [lvl.norm for lvl in self.levels],
        }


@dataclass
class DenseCreation:
    """Quotient matrices of T_i between consecutive levels, stacked."""

    fock: DenseFock
    ops: list  # ops[k]: (N, q_{k+1}, q_k)
    well_definedness_residual: float

    @property
    def K(self) -> int:
        return self.fock.K

    def op(self, i: int, k: int) -> np.ndarray:
        return self.ops[k][i]

    def products(self, k: int) -> np.ndarray:
        """T_i* T_j on level k for every letter pair, shape (N, N, q_k, q_k)."""
        T = self.ops[k]
        return T.conj().transpose(0, 2, 1)[:, None] @ T[None]


def dense_creation(P: ChoiMatrix, K: int) -> DenseCreation:
    """`creation_matrices` from a dense eigh of each level Gram.

    Level k keeps the eigenpairs of `level_gram(P, k)` above RANK_CUTOFF
    times its top eigenvalue; V_k = X Lambda^(-1/2), the factor is V_k* G_k,
    and T_i = (V_{k+1}* G_{k+1})[:, block i] V_k.  The well-definedness
    residual is the worst form ker* G_{k+1}[block i, block i] ker over the
    eigenvectors below the cutoff, and P is judged by `dense_validate_choi`.
    """
    report = dense_validate_choi(P)
    if K > MAX_LEVEL:
        raise SizeCapError(f"truncation level {K} above cap {MAX_LEVEL}")
    N, pnorm = P.N, np.linalg.norm(P.matrix, 2)
    grams = [level_gram(P, k) for k in range(K + 1)]
    levels = []
    for k, G in enumerate(grams):
        eigvals, eigvecs = np.linalg.eigh(G)
        if eigvals[0] < -PSD_HARD * max(1.0, pnorm**k):
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
        levels.append(DenseLevel(k, eigvals, V.conj().T @ G, V, prepend))
    ops = []
    for k in range(K):
        lvl, nxt = levels[k], levels[k + 1]
        size = grams[k].shape[0]
        ops.append(
            np.stack(
                [nxt.factor[:, i * size : (i + 1) * size] @ lvl.quotient for i in range(N)]
            )
        )
    fock = DenseFock(P, K, report, levels)
    worst = max((lvl.prepend_residual for lvl in levels[:K]), default=0.0)
    return DenseCreation(fock=fock, ops=ops, well_definedness_residual=worst)


def dense_tstar_t_check(ops: DenseCreation) -> TstarTReport:
    """`tstar_t_check` on the dense levels: every T_i* T_j residual is the
    spectral norm of the product stack minus the dense compression
    V_k* G_k (I_{N^k} (x) p_ij) V_k, and the norm law reads the SVD norm of
    each T_i* T_i on each level."""
    fock = ops.fock
    P = fock.choi
    N, d = P.N, P.d
    blocks = P.blocks()
    letters = np.arange(N)

    vacuum = float(np.linalg.norm(ops.products(0) - blocks, 2, axis=(-2, -1)).max())
    general = 0.0
    diag_norms = []  # ||T_i* T_i|| per level
    for k in range(ops.K):
        lvl = fock.level(k)
        prods = ops.products(k)
        F = lvl.factor.reshape(lvl.q, N**k, d)
        target = (F @ blocks[:, :, None]).reshape(N, N, lvl.q, -1) @ lvl.quotient
        general = max(general, float(np.linalg.norm(prods - target, 2, axis=(-2, -1)).max()))
        diag_norms.append(np.linalg.norm(prods[letters, letters], 2, axis=(-2, -1)))

    norm_law = None
    argmax = None
    if fock.choi_report.commuting:
        norm_law = 0.0
        targets = np.linalg.norm(blocks[letters, letters], 2, axis=(-2, -1))
        for i in range(N):
            norms = [float(level[i]) for level in diag_norms]
            best = int(np.argmax(norms))
            # quotient conditioning can push a higher level above the vacuum
            # norm by ~1e-12 of pure roundoff
            if best != 0 and norms[best] > norms[0] + 1e-9 * max(1.0, norms[0]):
                argmax = best
            norm_law = max(norm_law, abs(max(norms) - float(targets[i])))
        argmax = argmax or 0

    pnorm = fock.choi_report.norm
    gap = 0.0
    attain = None
    for k in range(ops.K + 1):
        gk = fock.level(k).norm
        gap = max(gap, (gk - pnorm**k) / max(1.0, pnorm**k))
    if d == 1:
        attain = 0.0
        top = fock.choi_report.eigenvectors[0, :, -1]
        t = top
        for k in range(1, ops.K + 1):
            rayleigh = float(np.linalg.norm(fock.level(k).factor @ t) ** 2)
            attain = max(attain, abs(pnorm**k - rayleigh) / max(1.0, pnorm**k))
            t = np.kron(t, top)
    return TstarTReport(
        vacuum_residual=vacuum,
        general_residual=general,
        commuting=fock.choi_report.commuting,
        norm_law_residual=norm_law,
        norm_law_argmax=argmax,
        gram_norm_gap=gap,
        attainment_gap=attain,
    )


def dense_cor6_check(bank: FilterBank, grid_size: int, K: int) -> Cor6Report:
    """`cor6_check` on the dense levels: spectral norms of the vacuum
    products against the sampled doubled Gram, and ||T_a|| as the largest
    SVD norm of the stacked operators over the levels."""
    sw = sampled_choi(bank, grid_size)
    N, g = bank.N, grid_size
    ops = dense_creation(sw.choi, K)
    values = _points(sw.gram)
    target = np.eye(g) * values.transpose(1, 2, 0)[:, :, None, :]
    res = np.linalg.norm(ops.products(0) - target, 2, axis=(-2, -1))
    got = np.max([np.linalg.norm(ops.ops[k], 2, axis=(-2, -1)) for k in range(K)], axis=0)
    letters = np.arange(2 * N)
    sup = np.sqrt(values[:, letters, letters].real.max(axis=0))
    return Cor6Report(
        grid_size=g,
        primary_residual=float(res[:N, :N].max()),
        dual_residual=float(res[N:, N:].max()),
        cross_residual=float(max(res[N:, :N].max(), res[:N, N:].max())),
        norm_law_residual=float(np.abs(got - sup).max()),
        ops=ops,
        tstar=dense_tstar_t_check(ops),
    )


def word_factor(fock: TruncatedFock, k: int) -> np.ndarray:
    """The level-k factor V_k* G_k in word space, q_k x N^k d, from the
    layered letters: row (s, a_1 .. a_k) is A_s^(x)k (x) w_s*, and level 0 is
    the base space.  Its quotient is V_k = F_k* (F_k F_k*)^-1.  Diagonal
    blocks have W = I."""
    if k == 0:
        return np.eye(fock.choi.d, dtype=complex)
    W = fock.choi_report.W
    if W is None:
        W = np.eye(fock.choi.d)
    rows = []
    for s in np.unique(fock.layer):
        A = fock.letters[fock.layer == s]
        power = functools.reduce(np.kron, [A] * k)
        rows.append(np.kron(power, W[:, s].conj()[None]))
    return np.vstack(rows)


def word_quotient(fock: TruncatedFock, k: int) -> np.ndarray:
    F = word_factor(fock, k)
    return F.conj().T / np.einsum("ij,ij->i", F, F.conj()).real


def _residuals(F, lo_f: int, D, lo_d: int, N: int, grid: int):
    """(pair residuals on the grid, pair bounds, completeness residual) of
    primaries F and duals D, coefficient stacks of shapes (N, L) and (N, Ld)
    from exponents lo_f and lo_d, in one pass."""
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
    pair_res = np.abs(circle_values(d_lo, np.moveaxis(residual, -1, 0), grid)).max(axis=0)

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


def eager_relation_json(bank: FilterBank, tol: float, grid: int) -> dict:
    """`relation_report(bank, tol, grid).to_json()` with both parts and both
    sets of sups computed up front (the self part once for a self-dual bank)."""
    N = bank.N
    lo_f, F = stack_polys(bank.filters)
    self_res, self_bnd, self_comp = _residuals(F, lo_f, F, lo_f, N, grid)
    if bank.is_self_dual:
        pair_res, pair_bnd, comp = self_res, self_bnd, self_comp
    else:
        lo_d, D = stack_polys(bank.dual_filters)
        pair_res, pair_bnd, comp = _residuals(F, lo_f, D, lo_d, N, grid)
    isometry = max(row[i] for i, row in enumerate(self_bnd)) < tol
    off = max(v for i, row in enumerate(self_bnd) for j, v in enumerate(row) if i != j)
    return {
        "N": N,
        "tolerance": tol,
        "grid": grid,
        "pair_residuals": pair_res,
        "self_residuals": self_res,
        "pair_bounds": pair_bnd,
        "self_bounds": self_bnd,
        "completeness_residual": comp,
        "self_completeness_residual": self_comp,
        "verdicts": {
            "isometry": isometry,
            "orthogonal_ranges": off < tol,
            "cuntz": isometry and off < tol and self_comp < tol,
            "biorthogonal": max(map(max, pair_bnd)) < tol and comp < tol,
        },
    }


def per_vector_spanning_residual(P: ChoiMatrix, k: int, rng) -> float:
    """The d = 1 spanning residual of `level_kernel`, one tensor at a time:
    per position and kernel column, k factors drawn one standard complex
    normal vector at a time (the kernel column at the position), and the
    product of their quotient norm ratios."""
    fock = truncated_fock(P, k)
    spanning = 0.0
    for pos in range(k):
        for col in fock.choi_report.kernel.T:
            factors = [rng.standard_normal(P.N) + 1j * rng.standard_normal(P.N) for _ in range(k)]
            factors[pos] = col
            ratios = [np.linalg.norm(fock.letters @ f) / np.linalg.norm(f) for f in factors]
            spanning = max(spanning, float(np.prod(ratios)))
    return spanning


# ----------------------------------------------------------------------
# loop products and the random corpus loops, factor by factor


def accumulated_tap_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Untrimmed taps of the product of the loops with taps a and b: one
    broadcast product if a factor has one tap, else tap a[s] times all of b,
    accumulated from 0.0 in the order of s."""
    if len(a) == 1 or len(b) == 1:
        out = a @ b
        out += 0.0  # -0.0 to 0.0, as the accumulation below leaves it
        return out
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=complex)
    for s, tap in enumerate(a):
        out[s : s + len(b)] += tap @ b
    return out


def _product(A: LoopMatrix, B: LoopMatrix) -> LoopMatrix:
    return LoopMatrix.from_array(A.lo + B.lo, accumulated_tap_product(A.taps, B.taps))


def _factor_unitary(N: int, rng) -> LoopMatrix:
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, r = np.linalg.qr(z)
    return LoopMatrix.from_constant(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def _factor_conditioned(N: int, rng, smin=0.6, smax=1.5) -> tuple:
    """(u s vh, u s^-1 vh): the factor and its inverse adjoint."""
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    u, s, vh = np.linalg.svd(z)
    s = smin + (smax - smin) * (s - s.min()) / max(s.max() - s.min(), 1e-12)
    return LoopMatrix.from_constant(u @ np.diag(s) @ vh), LoopMatrix.from_constant(u @ np.diag(1 / s) @ vh)


def _factor_monomial_diag(N: int, rng, max_shift: int) -> LoopMatrix:
    """diag(z^k_0, ..., z^k_{N-1}), its own inverse adjoint."""
    shifts = rng.integers(0, max_shift + 1, size=N)
    taps = np.zeros((max_shift + 1, N, N), dtype=complex)
    taps[shifts, np.arange(N), np.arange(N)] = 1.0
    return LoopMatrix.from_array(0, taps)


def _factor_shear(N: int, rng, coeff_scale: float) -> tuple:
    """(I + p e_ab, I - p* e_ba): the factor and its inverse adjoint."""
    a, b = rng.choice(N, size=2, replace=False)
    exps = rng.choice(np.arange(-1, 2), size=2, replace=False)
    p = {}
    for k in exps:
        p[int(k)] = coeff_scale * complex(*rng.standard_normal(2))
    eye = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(N)] for i in range(N)]
    shear, inverse = [row[:] for row in eye], [row[:] for row in eye]
    shear[a][b] = LaurentPoly(p)
    inverse[b][a] = LaurentPoly({-k: -c.conjugate() for k, c in p.items()})
    return LoopMatrix(shear), LoopMatrix(inverse)


def factorwise_unitary_loop(N: int, rng, factors: int = 2, max_shift: int = 1) -> LoopMatrix:
    A = _factor_unitary(N, rng)
    for _ in range(factors):
        A = _product(A, _factor_monomial_diag(N, rng, max_shift))
        A = _product(A, _factor_unitary(N, rng))
    return A


def factorwise_invertible_pair(
    N: int, rng, shears: int = 2, max_shift: int = 1, coeff_scale: float = 0.35
) -> tuple:
    """(A, A^{*-1}), the dual multiplied from the factors' inverse adjoints
    in the factors' order."""
    A, At = _factor_conditioned(N, rng)
    for _ in range(shears):
        S, St = _factor_shear(N, rng, coeff_scale)
        A, At = _product(A, S), _product(At, St)
        D = _factor_monomial_diag(N, rng, max_shift)
        A, At = _product(A, D), _product(At, D)
        C, Ct = _factor_conditioned(N, rng)
        A, At = _product(A, C), _product(At, Ct)
    return A, At


def factorwise_invertible_loop(N: int, rng, **kw) -> LoopMatrix:
    return factorwise_invertible_pair(N, rng, **kw)[0]


def _pair_bank(A: LoopMatrix, At: LoopMatrix) -> FilterBank:
    return FilterBank(A.N, filters_from_loop(A).filters, filters_from_loop(At).filters)


def factorwise_biorthogonal_bank(N: int, rng, **kw) -> FilterBank:
    return _pair_bank(*factorwise_invertible_pair(N, rng, **kw))


def factorwise_causal_pair(N: int, rng, stages: int = 2, max_shift: int = 1) -> FilterBank:
    A, At = _factor_conditioned(N, rng)
    for _ in range(stages):
        D = _factor_monomial_diag(N, rng, max_shift)
        A, At = _product(A, D), _product(At, D)
        C, Ct = _factor_conditioned(N, rng)
        A, At = _product(A, C), _product(At, Ct)
    return _pair_bank(A, At)


def per_family_modulation_bound(bank: FilterBank):
    """`modulation_bound` from one `modulation_matrix` call per family."""
    N, eye = bank.N, np.eye(bank.N)
    (lo_f, w_f), (lo_d, w_d) = poly_window(bank.filters), poly_window(bank.duals_or_primaries)
    hi_f, hi_d = lo_f + w_f - 1, lo_d + w_d - 1
    spans = [2 * (hi_f - lo_f), max(hi_d - lo_f, 0) - min(lo_d - hi_f, 0)]
    grid = 2 * (max(spans) // N + 1)
    duals = (False,) if bank.is_self_dual else (False, True)
    mods = [modulation_matrix(bank, grid, dual) for dual in duals]
    M_star = mods[0].conj().swapaxes(-2, -1)
    gaps = [np.linalg.norm(M_star @ m - eye, axis=(1, 2)).max() for m in mods]
    bounds = np.array(gaps) / np.cos(np.pi * np.array(spans[: len(gaps)]) / (2 * grid * N))
    return float(bounds[-1]), float(bounds[0])


def as_monomial_unit(p: LaurentPoly, eps: float = 1e-12):
    """(exponent, coeff) if p is one monomial with a nonzero coefficient once
    terms below eps times its largest are dropped as roundoff, else None."""
    if p.is_zero:
        return None
    top = p.coeff_sup()
    terms = [(k, c) for k, c in p.coeffs().items() if abs(c) > eps * top]
    return terms[0] if len(terms) == 1 else None


def entries_loop_json(A: LoopMatrix) -> dict:
    """`LoopMatrix.to_json` through one `LaurentPoly` per entry."""
    return {"N": A.N, "entries": [[poly_to_json(p) for p in row] for row in A.entries]}


def loops_close(A: LoopMatrix, B: LoopMatrix, tol: float = 1e-12) -> bool:
    """Every coefficient of A - B is at most tol in modulus."""
    lo = min(A.lo, B.lo)
    diff = np.zeros((max(A.hi, B.hi) + 1 - lo, A.N, A.N), dtype=complex)
    diff[A.lo - lo : A.lo - lo + len(A.taps)] = A.taps
    diff[B.lo - lo : B.lo - lo + len(B.taps)] -= B.taps
    return float(np.abs(diff).max()) <= tol


def ill_conditioned_pair(s: float, with_dual: bool = True) -> FilterBank:
    """Primaries of A = s z M, M = [[1, 0], [1, 1.1e-10 e^{0.7i}]], and the
    exact dual z M^{-*}/s if asked: A* Atilde = I to roundoff at every s,
    and cond(A(z)) ~ 1.8e10 on the whole circle."""
    M = np.array([[1.0, 0.0], [1.0, 1.1e-10 * np.exp(0.7j)]])
    A = LoopMatrix.from_array(1, s * M[None])
    At = LoopMatrix.from_array(1, np.linalg.inv(M.conj().T)[None] / s)
    return _pair_bank(A, At) if with_dual else filters_from_loop(A)


def shifted_diagonal(N: int, c: complex, seed: int = 0) -> LoopMatrix:
    """`random_invertible_loop`(N, seed) times diag(1 + c z, 1, ..., 1): det is a
    monomial times 1 + c z, so |det| spreads by log((1 + |c|)/(1 - |c|))."""
    taps = np.zeros((2, N, N), dtype=complex)
    taps[0] = np.eye(N)
    taps[1, 0, 0] = c
    return random_invertible_loop(N, np.random.default_rng(seed)) @ LoopMatrix.from_array(0, taps)


def shift_loop(N: int) -> LoopMatrix:
    """I + 0.99 z P, P the cyclic shift: det A = 1 - (-0.99)^N z^N, and
    sigma_min(A(z)) >= 0.01 on the circle."""
    taps = np.zeros((2, N, N), dtype=complex)
    taps[0] = np.eye(N)
    taps[1] = 0.99 * np.roll(np.eye(N), 1, axis=0)
    return LoopMatrix.from_array(0, taps)

"""Fock space of a positive block matrix: Grams, quotients, creation operators.

A system of N letters over a d-dimensional base space is encoded by an
(Nd) x (Nd) positive block matrix P with d x d blocks p_ij.  Level k of the
pre-Fock space is spanned by word tensors w (x) h; its Gram has the block
entry p_{w_1 w'_1} ... p_{w_k w'_k}.  Quotienting by the Gram kernel gives a
finite-dimensional truncated Fock space on which the letter-prepending
creation operators act; their compressions recover p_ij through T_i* T_j.

Blocks that commute are diagonal in one unitary basis W of the base space,
so P splits into d scalar N x N layers P_s and the level-k Gram is unitarily
the direct sum of their Kronecker powers P_s^(x)k.  `validate_choi` runs the
one eigh, over the stack of layers, and reads the PSD floor, rank, norm and
kernel of P from it; blocks that do not commute make P itself the one layer.
Every level is built from those eigenpairs: no level Gram is formed or
diagonalized, and the level-k rank is sum_s rank(P_s)^k by construction.
`level_gram` keeps the dense word-product recursion as the oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPsdError, SizeCapError

PSD_HARD = 1e-8
PSD_WARN = 1e-10
RANK_CUTOFF = 1e-10
SIZE_CAP = 4096
MAX_LEVEL = 4


# ----------------------------------------------------------------------
# the block matrix


@dataclass(frozen=True)
class ChoiMatrix:
    """N letters over a d-dimensional base space; matrix is (Nd) x (Nd)."""

    N: int
    d: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise ValueError("N and d must be positive")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.N * self.d, self.N * self.d):
            raise ValueError(f"matrix must be {self.N * self.d} square")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix, d: int = 1) -> "ChoiMatrix":
        matrix = np.asarray(matrix, dtype=complex)
        n, _ = matrix.shape
        if n % d:
            raise ValueError("matrix size is not a multiple of d")
        return cls(n // d, d, matrix)

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.matrix[i * d : (i + 1) * d, j * d : (j + 1) * d]

    def blocks(self) -> np.ndarray:
        """All blocks as an (N, N, d, d) array."""
        N, d = self.N, self.d
        return self.matrix.reshape(N, d, N, d).transpose(0, 2, 1, 3)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    @functools.cached_property
    def report(self) -> "ChoiReport":
        """`validate_choi` of this matrix, run once and kept."""
        return validate_choi(self)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "d": self.d,
            "blocks": [
                [[float(x.real), float(x.imag)] for x in row] for row in self.matrix
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChoiMatrix":
        try:
            N, d = int(obj["N"]), int(obj["d"])
            rows = obj["blocks"]
            matrix = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed block matrix document: {exc}") from exc
        if not np.isfinite(matrix).all():
            raise ValueError("block matrix entries must be finite numbers")
        return cls(N, d, matrix)


@dataclass
class ChoiReport:
    """The spectrum of P by layers: row s of `eigenvalues` (ascending) and
    `eigenvectors` is the eigh of P_s, and u (x) W[:, s] is the eigenvector
    of P for an eigenvector u of P_s.  One layer with W = [[1]] is P itself.
    """

    hermiticity_residual: float  # ||P - P*||_F
    commutator: float  # ||G_2 - G_2*||_F
    commuting: bool
    W: np.ndarray
    eigenvalues: np.ndarray  # (layers, n)
    eigenvectors: np.ndarray  # (layers, n, n)
    kept: np.ndarray  # (layers, n), above the rank cutoff
    norm: float
    warning: bool

    @property
    def rank(self) -> int:
        return int(self.kept.sum())

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues.min())

    @property
    def kernel(self) -> np.ndarray:
        """Eigenvectors of P at or below the rank cutoff, as columns."""
        s, a = np.nonzero(~self.kept)
        u = self.eigenvectors[s, :, a]
        return np.einsum("mi,bm->ibm", u, self.W[:, s]).reshape(u.shape[1] * len(self.W), -1)


def _drift_bound(pnorm: float, k: int) -> float:
    """Largest Hermiticity drift accepted in the level-k Gram."""
    return PSD_HARD * max(1.0, pnorm**k)


def _off_diagonal(blocks: np.ndarray) -> np.ndarray:
    return blocks[..., ~np.eye(blocks.shape[-1], dtype=bool)]


def _commutator_norm(blocks: np.ndarray) -> float:
    """sqrt(sum_{a,b} ||[p_a, p_b]||_F^2) over ordered pairs of blocks: exactly
    ||G_2 - G_2*||_F, as block ((i w), (j w')) of G_2 - G_2* is [p_ij, p_ww']."""
    if not _off_diagonal(blocks).any():
        return 0.0
    flat = blocks.reshape(-1, *blocks.shape[-2:])
    return float(np.sqrt(sum(np.linalg.norm(b @ flat - flat @ b) ** 2 for b in flat)))


def _layers(P: ChoiMatrix):
    """(W, layers, off): the layers (P_s)_ij = (W* p_ij W)_ss, and the
    off-diagonal mass W leaves in the blocks.

    Commuting blocks are normal (p_ji = p_ij*), so one unitary W makes them
    all diagonal: the identity for diagonal blocks (and for d = 1), else the
    eigenbasis of a fixed Hermitian combination (weights are golden-ratio
    Weyl phases, so no random numbers are drawn).
    """
    N, d = P.N, P.d
    rotated, W = P.blocks(), np.eye(d)
    if _off_diagonal(rotated).any():
        weights = np.exp(1j * np.pi * (np.sqrt(5.0) - 1.0) * np.arange(1, N * N + 1))
        M = np.einsum("ij,ijab->ab", weights.reshape(N, N), rotated)
        W = np.linalg.eigh(M + M.conj().T)[1]
        rotated = W.conj().T @ rotated @ W
    layers = np.diagonal(rotated, axis1=2, axis2=3).transpose(2, 0, 1)
    return W, layers, float(np.linalg.norm(_off_diagonal(rotated)))


def validate_choi(P: ChoiMatrix) -> ChoiReport:
    """Spectrum of P from one eigh over its layers, with ||P - P*||_F and
    the commutator norm of the blocks.

    The blocks commute when that norm is within the level-2 drift bound of
    the layers' top eigenvalue, at most ||P|| as the layers pinch W* P W;
    then off-diagonal mass above the bound raises, else P is the one layer.
    An eigenvalue below -PSD_HARD max(1, ||P||) raises (eigh roundoff grows
    with the norm); the rank counts those above RANK_CUTOFF times the top
    one, so it is scale invariant and a zero matrix has rank 0.
    """
    m = P.matrix
    commutator = _commutator_norm(P.blocks())
    W, layers, off = _layers(P)
    eigvals, eigvecs = np.linalg.eigh((layers + layers.conj().transpose(0, 2, 1)) / 2)
    bound = _drift_bound(max(eigvals.max(), 0.0), 2)
    commuting = commutator <= bound
    if not commuting:
        W = np.ones((1, 1))
        eigvals, eigvecs = np.linalg.eigh((m + m.conj().T)[None] / 2)
    elif off > bound:
        raise NotPsdError(f"commuting blocks keep off-diagonal mass {off:.3e} in one eigenbasis")
    lo = float(eigvals.min())
    norm = float(max(eigvals.max(), 0.0))
    scale = max(1.0, norm)
    if lo < -PSD_HARD * scale:
        raise NotPsdError(f"minimum eigenvalue {lo:.3e} below -{PSD_HARD * scale:.3g}")
    herm = float(np.linalg.norm(m - m.conj().T))
    return ChoiReport(
        hermiticity_residual=herm,
        commutator=commutator,
        commuting=bool(commuting),
        W=W,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        kept=eigvals > RANK_CUTOFF * eigvals.max(),
        norm=norm,
        warning=lo < -PSD_WARN * scale or herm > PSD_WARN * scale,
    )


# ----------------------------------------------------------------------
# levels


@dataclass
class FockLevel:
    """Level k of the quotient, from the kept eigenpairs (lambda, x) of G_k.

    `factor` is V_k* G_k = Lambda^(1/2) X* and `quotient` is
    V_k = X Lambda^(-1/2): factor @ quotient = I, and factor* factor is G_k
    without its numerical kernel.
    """

    k: int
    eigenvalues: np.ndarray  # all of G_k's, layer by layer
    factor: np.ndarray
    quotient: np.ndarray
    prepend_residual: float  # worst x* G_{k+1}[block i, block i] x, x dropped

    @property
    def q(self) -> int:
        return int(self.quotient.shape[1])

    @property
    def kernel_dim(self) -> int:
        return int(self.eigenvalues.size) - self.q

    @property
    def norm(self) -> float:
        """Spectral norm of the Gram, read off its spectrum."""
        return float(np.abs(self.eigenvalues).max())


def _level_size(P: ChoiMatrix, k: int, size_cap: int) -> None:
    size = P.N**k * P.d
    if size > size_cap:
        raise SizeCapError(f"level {k} needs {size} spanning vectors (cap {size_cap})")


def level_gram(P: ChoiMatrix, k: int, size_cap: int = SIZE_CAP) -> np.ndarray:
    """Dense Gram of level k in word-major order, i_1 most significant: the
    oracle for the layered levels.

    Recursion: G_{k+1}[(i w), (j w')] = p_ij G_k[w, w'].  Noncommuting blocks
    make a non-Hermitian product; that aborts rather than being symmetrized.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    _level_size(P, k, size_cap)
    d, pnorm = P.d, P.norm
    G = np.eye(d, dtype=complex)
    for j in range(1, k + 1):
        prev = G.shape[0] // d
        G = np.einsum("ijab,wbvc->iwajvc", P.blocks(), G.reshape(prev, d, prev, d))
        G = G.reshape(P.N * prev * d, -1)
        # Frobenius: a safe-side bound on the spectral norm, without an SVD
        drift = float(np.linalg.norm(G - G.conj().T))
        if drift > _drift_bound(pnorm, j):
            raise NotPsdError(
                f"level {j} Gram is not Hermitian (drift {drift:.3e}); "
                "noncommuting blocks break the word-product form"
            )
        G = (G + G.conj().T) / 2
    return G


@dataclass
class TruncatedFock:
    choi: ChoiMatrix
    K: int
    choi_report: ChoiReport
    levels: list = field(default_factory=list)

    def level(self, k: int) -> FockLevel:
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


def truncated_fock(
    P: ChoiMatrix, K: int, size_cap: int = SIZE_CAP, max_level: int = MAX_LEVEL
) -> TruncatedFock:
    """Levels 0..K in word-major order, i_1 most significant.

    Level 0 is the base space.  Above it G_k is unitarily the direct sum over
    layers s of P_s^(x)k: its eigenpairs are Kronecker products of the
    layers' eigenpairs times column s of W, and the kept ones are products
    of kept level-1 pairs, so the rank is sum_s rank(P_s)^k by construction.
    Noncommuting blocks make no Hermitian level-2 Gram; that aborts the run.
    Letter i prepended to a level-k eigenvector of layer s, eigenvalue mu,
    has the form mu (P_s)_ii, which gives `prepend_residual`.
    """
    report = P.report
    if K < 0:
        raise ValueError("level must be nonnegative")
    if K > max_level:
        raise SizeCapError(f"truncation level {K} above cap {max_level}")
    fock = TruncatedFock(P, K, report)
    _level_size(P, 0, size_cap)
    eye = np.eye(P.d, dtype=complex)
    fock.levels.append(FockLevel(0, np.ones(P.d), eye, eye, 0.0))
    W, mu, U, keep1 = report.W, report.eigenvalues, report.eigenvectors, report.kept
    s1, a1 = np.nonzero(keep1)
    A1 = np.sqrt(mu[s1, a1])[:, None] * U[s1, :, a1].conj()  # kept sqrt(mu) u*
    diag = np.einsum("sia,sa->si", np.abs(U) ** 2, mu).max(axis=1)  # max_i (P_s)_ii
    # per layer: every level-k eigenvalue and its keep flag; F holds the kept
    # rows of the layers' factor powers, and `layer` the layer of each row
    eig, keep = np.ones((len(mu), 1)), np.ones((len(mu), 1), dtype=bool)
    F, layer = np.ones((len(mu), 1), dtype=complex), np.arange(len(mu))
    for k in range(1, K + 1):
        _level_size(P, k, size_cap)
        if k == 2 and not report.commuting:
            raise NotPsdError(
                f"level 2 Gram is not Hermitian (drift {report.commutator:.3e}); "
                "noncommuting blocks break the word-product form"
            )
        eig = (eig[:, :, None] * mu[:, None, :]).reshape(len(mu), -1)
        keep = (keep[:, :, None] & keep1[:, None, :]).reshape(len(mu), -1)
        rows, cols = np.nonzero(layer[:, None] == s1)
        F = (F[rows][:, :, None] * A1[cols][:, None, :]).reshape(rows.size, -1)
        layer = s1[cols]
        factor = (F[:, :, None] * W.conj().T[layer][:, None, :]).reshape(rows.size, -1)
        dropped = np.abs(eig[~keep]) * diag[np.nonzero(~keep)[0]]
        fock.levels.append(
            FockLevel(k, eig.ravel(), factor, factor.conj().T / eig[keep], dropped.max(initial=0.0))
        )
    return fock


@dataclass
class KernelReport:
    k: int
    dim: int
    predicted_dim: int | None
    spanning_residual: float | None

    @property
    def matches_prediction(self) -> bool | None:
        if self.predicted_dim is None:
            return None
        return self.dim == self.predicted_dim


def level_kernel(
    P: ChoiMatrix,
    k: int,
    size_cap: int = SIZE_CAP,
    rng: np.random.Generator | None = None,
) -> KernelReport:
    """Kernel of the level-k Gram with the scalar-case cross-checks.

    For d = 1 the Gram is an exact Kronecker power, so the kernel dimension
    is N^k - r^k and is spanned by word tensors with one factor in ker P;
    both facts are verified, the second by the quotient norm ||F_k t|| / ||t||
    of such tensors t, with F_k = V_k* G_k the level factor.  No closed form
    is attempted for d > 1.
    """
    fock = truncated_fock(P, k, size_cap)
    top = fock.level(k)
    predicted = spanning = None
    if P.d == 1:
        predicted = P.N**k - fock.choi_report.rank**k
        spanning = 0.0
        rng = rng or np.random.default_rng(0)
        for pos in range(k):
            for col in fock.choi_report.kernel.T:
                factors = [
                    rng.standard_normal(P.N) + 1j * rng.standard_normal(P.N)
                    for _ in range(k)
                ]
                factors[pos] = col
                t = functools.reduce(np.kron, factors)
                spanning = max(spanning, float(np.linalg.norm(top.factor @ t) / np.linalg.norm(t)))
    return KernelReport(k=k, dim=top.kernel_dim, predicted_dim=predicted, spanning_residual=spanning)


# ----------------------------------------------------------------------
# creation operators


@dataclass
class CreationOps:
    """Quotient matrices of T_i between consecutive truncation levels."""

    fock: TruncatedFock
    ops: list  # ops[k]: (N, q_{k+1}, q_k), letter i -> T_i from level k
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


def creation_matrices(
    P: ChoiMatrix, K: int, size_cap: int = SIZE_CAP, max_level: int = MAX_LEVEL
) -> CreationOps:
    """T_i^(k) = (V_{k+1}* G_{k+1})[:, block i] V_k for all letters and levels k < K.

    Block i holds the level-(k+1) words that start with letter i, so the
    column slice is the Gram composed with the embedding w -> iw.  For d = 1
    and P = V*V with columns v_i, T_i = v_i (x) I; commuting blocks give this
    layer by layer.  Letter-prepending maps Gram-null vectors to Gram-null
    vectors; the returned residual is the worst squared Phi-norm of such an
    image, from the dropped eigenvalues (the quadratic form itself; its
    square root sits at sqrt(eps) even for exact kernels, so the form is the
    meaningful zero test).
    """
    fock = truncated_fock(P, K, size_cap, max_level)
    ops = []
    for lvl, nxt in zip(fock.levels, fock.levels[1:]):
        ops.append(nxt.factor.reshape(nxt.q, P.N, -1).transpose(1, 0, 2) @ lvl.quotient)
    worst = max((lvl.prepend_residual for lvl in fock.levels[:K]), default=0.0)
    return CreationOps(fock=fock, ops=ops, well_definedness_residual=float(worst))


# ----------------------------------------------------------------------
# relation checks


@dataclass
class TstarTReport:
    vacuum_residual: float
    general_residual: float
    commuting: bool
    norm_law_residual: float | None
    norm_law_argmax: int | None
    gram_norm_gap: float
    attainment_gap: float | None

    def to_json(self) -> dict:
        return {
            "vacuum_residual": self.vacuum_residual,
            "general_residual": self.general_residual,
            "commuting": self.commuting,
            "norm_law_residual": self.norm_law_residual,
            "norm_law_argmax": self.norm_law_argmax,
            "gram_norm_gap": self.gram_norm_gap,
            "attainment_gap": self.attainment_gap,
        }


def tstar_t_check(ops: CreationOps) -> TstarTReport:
    """T_i* T_j against the block data of the block matrix behind `ops`.

    (a) on the vacuum level the product matrix is p_ij exactly;
    (b) at level k it is the quotient compression of w (x) h -> w (x) p_ij h;
    (c) for pairwise commuting blocks the largest ||T_i* T_i|| over levels
        equals ||p_ii|| and is attained on the vacuum;
    (d) ||G_k|| <= ||P||^k, attained for d = 1 by top-eigenvector powers.
    """
    fock = ops.fock
    P = fock.choi
    N, d = P.N, P.d
    blocks = P.blocks()
    letters = np.arange(N)

    vacuum = float(np.linalg.norm(ops.products(0) - blocks, 2, axis=(-2, -1)).max())
    general = 0.0
    diag_norms = []  # ||T_i* T_i|| per level
    # level k target for pair (i, j): V_k* G_k (I_{N^k} (x) p_ij) V_k, with
    # the Kronecker factor applied blockwise to the columns of the factor
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
            # strictness guard is relative: quotient conditioning can push a
            # higher level above the vacuum norm by ~1e-12 of pure roundoff
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

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
A `ChoiMatrix` whose blocks are all diagonal is stored as its layers, W = I.

Every level is read from those eigenpairs in closed form.  On layer s,
P_s = A_s* A_s on its kept part with A_s = Lambda_s^(1/2) U_s* (r_s x N), and
column i of A_s is the letter vector a_i^s.  Level k has dimension
sum_s r_s^k and Gram norm max_s |mu_s|^k, the creation operator from it is
T_i = (+)_s a_i^s (x) I_{r_s^k}, and T_i* T_j = (+)_s (A_s* A_s)_ij I.  No
level Gram, factor or operator stack is formed; `CreationOps.op` builds one
operator on demand, and `level_gram` keeps the dense word-product recursion
as the oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPsdError, SizeCapError
from .laurent import json_complex

PSD_HARD = 1e-8
PSD_WARN = 1e-10
RANK_CUTOFF = 1e-10
SIZE_CAP = 4096
MAX_LEVEL = 12


# ----------------------------------------------------------------------
# the block matrix


@dataclass(frozen=True)
class ChoiMatrix:
    """N letters over a d-dimensional base space, (Nd) x (Nd), stored as its
    `layers` (d, N, N), (P_s)_ij = (p_ij)_ss, when every block p_ij is
    diagonal (d = 1, sampled doubled Grams), else as the blocks (N, N, d, d)
    in `general`.  `blocks()` and `matrix` are derived from either."""

    N: int
    d: int
    layers: np.ndarray | None = None
    general: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, matrix, d: int = 1) -> "ChoiMatrix":
        matrix = np.asarray(matrix, dtype=complex)
        n = len(matrix)
        if matrix.shape != (n, n) or n % d or not n:
            raise ValueError(f"matrix must be square, its size a positive multiple of {d}")
        blocks = matrix.reshape(n // d, d, n // d, d).transpose(0, 2, 1, 3)
        if _off_diagonal(blocks).any():
            return cls(n // d, d, general=blocks)
        return cls(n // d, d, layers=np.diagonal(blocks, axis1=2, axis2=3).transpose(2, 0, 1))

    def blocks(self) -> np.ndarray:
        """All blocks as an (N, N, d, d) array."""
        if self.general is not None:
            return self.general
        return np.where(np.eye(self.d, dtype=bool), self.layers.transpose(1, 2, 0)[..., None], 0)

    @property
    def matrix(self) -> np.ndarray:
        return self.blocks().transpose(0, 2, 1, 3).reshape(self.N * self.d, -1)

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
                [[json_complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed block matrix document: {exc}") from exc
        if N < 1 or d < 1 or matrix.shape != (N * d, N * d):
            raise ValueError(f"block matrix document must hold an {N * d} square matrix")
        return cls.from_matrix(matrix, d)


@dataclass
class ChoiReport:
    """The spectrum of P by layers: row s of `eigenvalues` (ascending) and
    `eigenvectors` is the eigh of the Hermitian part of `layers[s]`, and
    u (x) W[:, s] is the eigenvector of P for an eigenvector u of P_s; W is
    None for diagonal blocks, where it is I.  One layer, W = [[1]], is P.
    """

    hermiticity_residual: float  # ||P - P*||_F
    commutator: float  # ||G_2 - G_2*||_F
    commuting: bool
    W: np.ndarray | None
    layers: np.ndarray  # (layers, n, n): (W* p_ij W)_ss, or P itself
    off: np.ndarray | None  # (N, N, d(d-1)): entries W* p_ij W keeps off its diagonal
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

    def base_vectors(self, s: np.ndarray) -> np.ndarray:
        """Columns W[:, s]: the base-space vector of each layer in s."""
        if self.W is None:
            return (np.arange(len(self.layers))[:, None] == s).astype(float)
        return self.W[:, s]

    @property
    def kernel(self) -> np.ndarray:
        """Eigenvectors of P at or below the rank cutoff, as columns."""
        s, a = np.nonzero(~self.kept)
        u = self.eigenvectors[s, :, a]
        lift = self.base_vectors(s)
        return np.einsum("mi,bm->ibm", u, lift).reshape(u.shape[1] * len(lift), -1)


def _drift_bound(pnorm: float, k: int) -> float:
    """Largest Hermiticity drift accepted in the level-k Gram."""
    return PSD_HARD * max(1.0, pnorm**k)


def _off_diagonal(blocks: np.ndarray) -> np.ndarray:
    return blocks[..., ~np.eye(blocks.shape[-1], dtype=bool)]


def _layers(blocks: np.ndarray):
    """(W, layers, off, commutator) of general blocks: the layers
    (P_s)_ij = (W* p_ij W)_ss, the entries W leaves off the diagonals, and
    sqrt(sum_{a,b} ||[p_a, p_b]||_F^2) over ordered pairs of blocks: exactly
    ||G_2 - G_2*||_F, as block ((i w), (j w')) of G_2 - G_2* is [p_ij, p_ww'].

    Commuting blocks are normal (p_ji = p_ij*), so one unitary W makes them
    all diagonal: the eigenbasis of a fixed Hermitian combination (weights
    are golden-ratio Weyl phases, so no random numbers are drawn).
    """
    flat = blocks.reshape(-1, *blocks.shape[-2:])
    # einsum, as in the dense oracle: BLAS products round differently
    commutator = float(np.sqrt(sum(
        np.linalg.norm(np.einsum("ij,bjk->bik", b, flat) - np.einsum("bij,jk->bik", flat, b)) ** 2
        for b in flat
    )))
    N = len(blocks)
    weights = np.exp(1j * np.pi * (np.sqrt(5.0) - 1.0) * np.arange(1, N * N + 1))
    M = np.einsum("ij,ijab->ab", weights.reshape(N, N), blocks)
    W = np.linalg.eigh(M + M.conj().T)[1]
    rotated = W.conj().T @ blocks @ W
    layers = np.diagonal(rotated, axis1=2, axis2=3).transpose(2, 0, 1)
    return W, layers, _off_diagonal(rotated), commutator


def validate_choi(P: ChoiMatrix) -> ChoiReport:
    """Spectrum of P from one eigh over its layers, with ||P - P*||_F and
    the commutator norm of the blocks.

    Stored layers commute by type.  Blocks commute when that norm is within
    the level-2 drift bound of the layers' top eigenvalue, at most ||P|| as
    the layers pinch W* P W; then off-diagonal mass above the bound raises,
    else P is the one layer.  An eigenvalue below -PSD_HARD max(1, ||P||)
    raises (eigh roundoff grows with the norm); the rank counts those above
    RANK_CUTOFF times the top one, so it is scale invariant and a zero
    matrix has rank 0.
    """
    W, layers, off, commutator = None, P.layers, None, 0.0
    if P.general is not None:
        W, layers, off, commutator = _layers(P.general)
    eigvals, eigvecs = np.linalg.eigh((layers + layers.conj().transpose(0, 2, 1)) / 2)
    bound = _drift_bound(max(eigvals.max(), 0.0), 2)
    commuting = commutator <= bound
    if not commuting:
        W, layers, off = np.ones((1, 1)), P.matrix[None], None
        eigvals, eigvecs = np.linalg.eigh((layers + layers.conj().transpose(0, 2, 1)) / 2)
    elif off is not None and (mass := float(np.linalg.norm(off))) > bound:
        raise NotPsdError(f"commuting blocks keep off-diagonal mass {mass:.3e} in one eigenbasis")
    lo = float(eigvals.min())
    norm = float(max(eigvals.max(), 0.0))
    scale = max(1.0, norm)
    if lo < -PSD_HARD * scale:
        raise NotPsdError(f"minimum eigenvalue {lo:.3e} below -{PSD_HARD * scale:.3g}")
    stored = P.layers if P.general is None else P.matrix
    herm = float(np.linalg.norm(stored - stored.conj().swapaxes(-2, -1)))
    return ChoiReport(
        hermiticity_residual=herm,
        commutator=commutator,
        commuting=bool(commuting),
        W=W,
        layers=layers,
        off=off,
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
    """Level k of the quotient, read in closed form from the layers."""

    k: int
    q: int
    kernel_dim: int
    norm: float  # spectral norm of the level Gram
    prepend_residual: float  # worst x* G_{k+1}[block i, block i] x, x dropped


def level_gram(P: ChoiMatrix, k: int, size_cap: int = SIZE_CAP) -> np.ndarray:
    """Dense Gram of level k in word-major order, i_1 most significant: the
    oracle for the layered levels.

    Recursion: G_{k+1}[(i w), (j w')] = p_ij G_k[w, w'].  Noncommuting blocks
    make a non-Hermitian product; that aborts rather than being symmetrized.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    if P.N**k * P.d > size_cap:
        raise SizeCapError(f"level {k} needs {P.N**k * P.d} spanning vectors (cap {size_cap})")
    d, pnorm, blocks = P.d, float(np.linalg.norm(P.matrix, 2)), P.blocks()
    G = np.eye(d, dtype=complex)
    for j in range(1, k + 1):
        prev = G.shape[0] // d
        G = np.einsum("ijab,wbvc->iwajvc", blocks, G.reshape(prev, d, prev, d))
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
    """Levels 0..K and their letters: row (s, a) of `letters` is sqrt(mu) u*
    for the kept eigenpair (mu, u) of layer s, so the rows of layer s form A_s."""

    choi: ChoiMatrix
    K: int
    choi_report: ChoiReport
    letters: np.ndarray  # (q_1, N e): e = d for one noncommuting layer, else 1
    layer: np.ndarray  # (q_1,), ascending: the layer of each row
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


def truncated_fock(P: ChoiMatrix, K: int) -> TruncatedFock:
    """Levels 0..K in word-major order, i_1 most significant.

    Level 0 is the base space.  Above it G_k is unitarily the direct sum of
    the P_s^(x)k, so q_k = sum_s rank(P_s)^k and ||G_k|| = max_s |mu_s|^k.
    Letter i prepended to a level-k eigenvector of layer s, eigenvalue mu,
    has the form mu (P_s)_ii, which gives `prepend_residual`.  Noncommuting
    blocks make no Hermitian level-2 Gram; that aborts the run.
    """
    report = P.report
    if K < 0:
        raise ValueError("level must be nonnegative")
    if K > MAX_LEVEL:
        raise SizeCapError(f"truncation level {K} above cap {MAX_LEVEL}")
    if K >= 2 and not report.commuting:
        raise NotPsdError(
            f"level 2 Gram is not Hermitian (drift {report.commutator:.3e}); "
            "noncommuting blocks break the word-product form"
        )
    mu, U, kept = report.eigenvalues, report.eigenvectors, report.kept
    s1, a1 = np.nonzero(kept)
    letters = np.sqrt(mu[s1, a1])[:, None] * U[s1, :, a1].conj()
    fock = TruncatedFock(P, K, report, letters, s1)
    fock.levels.append(FockLevel(0, P.d, 0, 1.0, 0.0))
    ranks = [int(r) for r in kept.sum(axis=1)]
    top = np.abs(mu).max(axis=1)
    dropped = np.where(kept, 0.0, np.abs(mu)).max(axis=1)
    diag = np.einsum("sia,sa->si", np.abs(U) ** 2, mu).max(axis=1)  # max_i (P_s)_ii
    for k in range(1, K + 1):
        q = sum(r**k for r in ranks)
        prepend = float((dropped * top ** (k - 1) * diag).max())
        fock.levels.append(FockLevel(k, q, P.N**k * P.d - q, float(top.max()) ** k, prepend))
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
    P: ChoiMatrix, k: int, rng: np.random.Generator | None = None
) -> KernelReport:
    """Kernel of the level-k Gram with the scalar-case cross-checks.

    For d = 1 the Gram is an exact Kronecker power, so the kernel dimension
    is N^k - r^k and is spanned by word tensors with one factor in ker P;
    both facts are verified, the second by the quotient norm ||F_k t|| / ||t||
    of such tensors t = (x)_j f_j: with F_k = A^(x)k, A the letters, it is
    prod_j ||A f_j|| / ||f_j||.  One tensor per (position, kernel column),
    its other factors standard complex normal, all drawn in one call.  No
    closed form is attempted for d > 1.
    """
    fock = truncated_fock(P, k)
    top = fock.level(k)
    predicted = spanning = None
    if P.d == 1:
        predicted = P.N**k - fock.choi_report.rank**k
        kernel = fock.choi_report.kernel.T
        rng = rng or np.random.default_rng(0)
        draws = rng.standard_normal((k, len(kernel), k, 2, P.N))
        factors = draws[..., 0, :] + 1j * draws[..., 1, :]  # [pos, column, factor]
        factors[np.arange(k), :, np.arange(k)] = kernel
        ratios = np.linalg.norm(factors @ fock.letters.T, axis=-1)
        ratios /= np.linalg.norm(factors, axis=-1)
        spanning = float(np.prod(ratios, axis=-1).max(initial=0.0))
    return KernelReport(k=k, dim=top.kernel_dim, predicted_dim=predicted, spanning_residual=spanning)


# ----------------------------------------------------------------------
# creation operators


@dataclass
class CreationOps:
    """Creation operators between consecutive levels, kept as the letters of
    `fock`: T_i = (+)_s a_i^s (x) I_{r_s^k} from level k >= 1, and
    (+)_s a_i^s w_s* from the base space, w_s = W[:, s]."""

    fock: TruncatedFock
    well_definedness_residual: float

    @property
    def K(self) -> int:
        return self.fock.K

    def op(self, i: int, k: int) -> np.ndarray:
        """T_i from level k as a q_{k+1} x q_k matrix, formed on demand."""
        fock = self.fock
        q = fock.level(k + 1).q
        if q > SIZE_CAP:
            raise SizeCapError(f"level {k + 1} has quotient dimension {q} (cap {SIZE_CAP})")
        e = fock.letters.shape[1] // fock.choi.N
        a = fock.letters[:, i * e : (i + 1) * e]
        if k == 0:
            return a * fock.choi_report.base_vectors(fock.layer).conj().T
        T = np.zeros((q, fock.level(k).q), dtype=complex)
        row = col = 0
        for s in np.unique(fock.layer):
            a_s = a[fock.layer == s]
            n = len(a_s) ** k
            T[row : row + len(a_s) * n, col : col + n] = np.kron(a_s, np.eye(n))
            row, col = row + len(a_s) * n, col + n
        return T

    def layer_products(self) -> np.ndarray:
        """A_s* A_s for every layer s: T_i* T_j = (+)_s (A_s* A_s)_ij I on
        every level k >= 1, and W diag_s (A_s* A_s)_ij W* on the vacuum."""
        rep = self.fock.choi_report
        U, mu = rep.eigenvectors, np.where(rep.kept, rep.eigenvalues, 0.0)
        return (U * mu[:, None, :]) @ U.conj().transpose(0, 2, 1)


def creation_matrices(P: ChoiMatrix, K: int) -> CreationOps:
    """T_i^(k) = (V_{k+1}* G_{k+1})[:, block i] V_k for all letters and levels k < K.

    Block i holds the level-(k+1) words that start with letter i; on the
    quotient bases of `truncated_fock` the slice is (+)_s a_i^s (x) I.
    Letter-prepending maps Gram-null vectors to Gram-null vectors; the
    returned residual is the worst squared Phi-norm of such an image, from
    the dropped eigenvalues (the quadratic form itself; its square root sits
    at sqrt(eps) even for exact kernels, so the form is the meaningful zero
    test).
    """
    fock = truncated_fock(P, K)
    worst = max((lvl.prepend_residual for lvl in fock.levels[:K]), default=0.0)
    return CreationOps(fock=fock, well_definedness_residual=float(worst))


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
    """T_i* T_j against targets read from the blocks of P, per layer.

    (a) on the vacuum level the product matrix is p_ij exactly;
    (b) at level k the target V_k* G_k (I (x) p_ij) V_k has block (s, t)
        (W* p_ij W)_st (A_s A_t^+)^(x)k.  The diagonal blocks are read exactly
        against (A_s* A_s)_ij; the off-diagonal ones, 0 for d = 1 and sampled
        Grams, add their Frobenius norm, a safe-side bound.  Noncommuting
        blocks have only the vacuum, where T_i* T_j = a_i* a_j;
    (c) for pairwise commuting blocks ||T_i* T_i|| = max_s (A_s* A_s)_ii on
        every level, so it is attained on the vacuum, and equals ||p_ii||
        (the largest |diagonal entry| when the blocks are diagonal, as for
        d = 1 and sampled Grams; an SVD otherwise);
    (d) ||G_k|| <= ||P||^k, attained for d = 1 by top-eigenvector powers.
    """
    fock = ops.fock
    report, P = fock.choi_report, fock.choi
    N, d = P.N, P.d
    got = ops.layer_products()
    letters = np.arange(N)

    norm_law = None
    argmax = None
    if not report.commuting:
        diff = (got - report.layers)[0].reshape(N, d, N, d).transpose(0, 2, 1, 3)
        vacuum = float(np.linalg.norm(diff, 2, axis=(-2, -1)).max())
        general = vacuum if ops.K else 0.0
    else:
        diag = np.abs(got - report.layers)
        present = report.kept.any(axis=1)[:, None, None]
        off, frob = np.zeros((N, N, 0)), np.zeros(0)  # W = I leaves nothing off the diagonal
        if report.off is not None:
            layers = len(got)
            onehot = (fock.layer == np.arange(layers)[:, None]).astype(float)
            A = fock.letters
            ratio = np.abs(A @ A.conj().T / report.eigenvalues[report.kept]) ** 2
            frob = (onehot @ ratio @ onehot.T)[~np.eye(layers, dtype=bool)]  # ||A_s A_t^+||_F^2
            off = np.abs(report.off) ** 2

        def residual(k: int) -> float:
            on_layers = diag if k == 0 else np.where(present, diag, 0.0)
            return float((on_layers.max(axis=0) + np.sqrt(off @ frob**k)).max())

        vacuum = residual(0)
        general = max((residual(k) for k in range(ops.K)), default=0.0)
        if P.layers is not None:  # ||p_ii|| is its largest |diagonal entry|
            targets = np.abs(P.layers[:, letters, letters]).max(axis=0)
        else:
            targets = np.linalg.norm(P.general[letters, letters], 2, axis=(-2, -1))
        norm_law = float(np.abs(got[:, letters, letters].real.max(axis=0) - targets).max())
        argmax = 0

    pnorm = report.norm
    gap = max((lvl.norm - pnorm**k) / max(1.0, pnorm**k) for k, lvl in enumerate(fock.levels))
    attain = None
    if d == 1:
        rayleigh = float(np.linalg.norm(fock.letters @ report.eigenvectors[0, :, -1]) ** 2)
        attain = max(
            (abs(pnorm**k - rayleigh**k) / max(1.0, pnorm**k) for k in range(1, ops.K + 1)),
            default=0.0,
        )
    return TstarTReport(
        vacuum_residual=vacuum,
        general_residual=general,
        commuting=report.commuting,
        norm_law_residual=norm_law,
        norm_law_argmax=argmax,
        gram_norm_gap=gap,
        attainment_gap=attain,
    )

"""Fock space of a positive block matrix: Grams, quotients, creation operators.

A system of N letters over a d-dimensional base space is encoded by an
(Nd) x (Nd) positive block matrix P with d x d blocks p_ij.  Level k of the
pre-Fock space is spanned by word tensors w (x) h; its Gram has the block
entry p_{w_1 w'_1} ... p_{w_k w'_k}.  Quotienting by the Gram kernel gives a
finite-dimensional truncated Fock space on which the letter-prepending
creation operators act; their compressions recover p_ij through T_i* T_j.

Everything is dense numpy; the level caps keep eigendecompositions cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPsdError, NotUnitaryError, SizeCapError

PSD_HARD = 1e-8
PSD_WARN = 1e-10
RANK_CUTOFF = 1e-10
SIZE_CAP = 4096
LETTER_CAP = 16
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
        return cls(N, d, matrix)


@dataclass
class ChoiReport:
    hermiticity_residual: float
    eigenvalues: np.ndarray
    rank: int
    norm: float
    kernel: np.ndarray
    warning: bool

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def to_json(self) -> dict:
        return {
            "hermiticity_residual": self.hermiticity_residual,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "min_eigenvalue": self.min_eigenvalue,
            "rank": self.rank,
            "norm": self.norm,
            "kernel_dimension": int(self.kernel.shape[1]),
            "warning": self.warning,
        }


def _level_spectrum(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors, keep) of a Hermitian Gram, ascending.

    `keep` marks the eigenvalues above RANK_CUTOFF times the largest one,
    so the rank decision is invariant under scaling and a zero Gram has
    rank 0; the other eigenvectors span the numerical kernel.
    """
    eigvals, eigvecs = np.linalg.eigh(G)
    keep = eigvals > RANK_CUTOFF * eigvals[-1]
    return eigvals, eigvecs, keep


def validate_choi(P: ChoiMatrix, hard: float = PSD_HARD, warn: float = PSD_WARN) -> ChoiReport:
    """Hermiticity and spectrum report; hard failure below -`hard`."""
    m = P.matrix
    herm = float(np.linalg.norm(m - m.conj().T, 2))
    eigvals, eigvecs, keep = _level_spectrum((m + m.conj().T) / 2)
    lo = float(eigvals[0])
    if lo < -hard:
        raise NotPsdError(f"minimum eigenvalue {lo:.3e} below -{hard:.0e}")
    return ChoiReport(
        hermiticity_residual=herm,
        eigenvalues=eigvals,
        rank=int(np.sum(keep)),
        norm=float(max(eigvals[-1], 0.0)),
        kernel=eigvecs[:, ~keep],
        warning=lo < -warn or herm > warn,
    )


# ----------------------------------------------------------------------
# levels: Gram, spectrum, quotient


@dataclass
class FockLevel:
    k: int
    gram: np.ndarray
    eigenvalues: np.ndarray  # of the Gram, ascending
    quotient: np.ndarray  # V_k
    kernel: np.ndarray

    @property
    def q(self) -> int:
        return int(self.quotient.shape[1])

    @property
    def norm(self) -> float:
        """Spectral norm of the Gram, read off its spectrum."""
        return float(max(self.eigenvalues[-1], -self.eigenvalues[0]))


def _level_size(P: ChoiMatrix, k: int, size_cap: int) -> None:
    size = P.N**k * P.d
    if size > size_cap:
        raise SizeCapError(f"level {k} needs {size} spanning vectors (cap {size_cap})")


def _fock_levels(P: ChoiMatrix, K: int, size_cap: int):
    """Yield levels 0..K in word-major order, i_1 most significant, each
    Gram built from the one before.

    Recursion: prepending letters multiplies the new block on the left,
    G_{k+1}[(i w), (j w')] = p_ij G_k[w, w'].  Products of noncommuting
    blocks need not produce a Hermitian matrix; that failure aborts the run
    rather than being symmetrized away.  The level's own eigendecomposition
    gives the PSD check, the quotient V_k (V_k* G_k V_k = I) and the kernel.
    """
    d = P.d
    blocks = P.blocks()
    pnorm = P.norm
    G = np.eye(d, dtype=complex)
    for k in range(K + 1):
        _level_size(P, k, size_cap)
        scale = max(1.0, pnorm**k)
        if k:
            prev = G.shape[0] // d
            g4 = G.reshape(prev, d, prev, d)
            G = np.einsum("ijab,wbvc->iwajvc", blocks, g4).reshape(
                P.N * prev * d, P.N * prev * d
            )
            # Frobenius: a safe-side bound on the spectral norm, without an SVD
            drift = float(np.linalg.norm(G - G.conj().T))
            if drift > PSD_HARD * scale:
                raise NotPsdError(
                    f"level {k} Gram is not Hermitian (drift {drift:.3e}); "
                    "noncommuting blocks break the word-product form"
                )
            G = (G + G.conj().T) / 2
        eigvals, eigvecs, keep = _level_spectrum(G)
        if eigvals[0] < -PSD_HARD * scale:
            raise NotPsdError(f"level {k} Gram eigenvalue {eigvals[0]:.3e}")
        yield FockLevel(
            k=k,
            gram=G,
            eigenvalues=eigvals,
            quotient=eigvecs[:, keep] / np.sqrt(eigvals[keep]),
            kernel=eigvecs[:, ~keep],
        )


def _top_level(P: ChoiMatrix, k: int, size_cap: int) -> FockLevel:
    if k < 0:
        raise ValueError("level must be nonnegative")
    _level_size(P, k, size_cap)
    for lvl in _fock_levels(P, k, size_cap):
        pass
    return lvl


def level_gram(P: ChoiMatrix, k: int, size_cap: int = SIZE_CAP) -> np.ndarray:
    """Gram of level k in word-major order, i_1 most significant.

    Every level up to k is checked for Hermiticity and positivity on the way.
    """
    return _top_level(P, k, size_cap).gram


@dataclass
class KernelReport:
    k: int
    basis: np.ndarray
    predicted_dim: int | None
    spanning_residual: float | None

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    @property
    def matches_prediction(self) -> bool | None:
        if self.predicted_dim is None:
            return None
        return self.dim == self.predicted_dim

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "dimension": self.dim,
            "predicted_dimension": self.predicted_dim,
            "matches_prediction": self.matches_prediction,
            "spanning_residual": self.spanning_residual,
        }


def level_kernel(
    P: ChoiMatrix,
    k: int,
    size_cap: int = SIZE_CAP,
    rng: np.random.Generator | None = None,
) -> KernelReport:
    """Kernel of the level-k Gram with the scalar-case cross-checks.

    For d = 1 the Gram is an exact Kronecker power, so the kernel dimension
    is N^k - r^k and is spanned by word tensors with one factor in ker P;
    both facts are verified.  No closed form is attempted for d > 1.
    """
    top = _top_level(P, k, size_cap)
    G = top.gram

    predicted = None
    spanning = None
    if P.d == 1:
        choi_report = validate_choi(P)
        predicted = P.N**k - choi_report.rank**k
        if k >= 1 and predicted > 0:
            kerP = choi_report.kernel
            rng = rng or np.random.default_rng(0)
            worst = 0.0
            for pos in range(k):
                for col in range(kerP.shape[1]):
                    factors = [
                        rng.standard_normal(P.N) + 1j * rng.standard_normal(P.N)
                        for _ in range(k)
                    ]
                    factors[pos] = kerP[:, col]
                    t = factors[0]
                    for f in factors[1:]:
                        t = np.kron(t, f)
                    nrm = np.linalg.norm(t)
                    if nrm > 0:
                        worst = max(worst, float(np.linalg.norm(G @ t) / nrm))
            spanning = worst
        elif predicted == 0:
            spanning = 0.0
    return KernelReport(k=k, basis=top.kernel, predicted_dim=predicted, spanning_residual=spanning)


# ----------------------------------------------------------------------
# the truncated space and its creation operators


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
            "kernel_dims": [int(lvl.kernel.shape[1]) for lvl in self.levels],
            "gram_norms": [lvl.norm for lvl in self.levels],
        }


def truncated_fock(
    P: ChoiMatrix,
    K: int,
    size_cap: int = SIZE_CAP,
    max_level: int = MAX_LEVEL,
    letter_cap: int = LETTER_CAP,
) -> TruncatedFock:
    choi_report = validate_choi(P)
    if K > max_level:
        raise SizeCapError(f"truncation level {K} above cap {max_level}")
    if P.N * P.d > letter_cap:
        raise SizeCapError(f"N*d = {P.N * P.d} above cap {letter_cap}")
    return TruncatedFock(
        choi=P, K=K, choi_report=choi_report, levels=list(_fock_levels(P, K, size_cap))
    )


@dataclass
class CreationOps:
    """Quotient matrices of T_i between consecutive truncation levels."""

    fock: TruncatedFock
    ops: list  # ops[k][i]: level k -> k+1
    well_definedness_residual: float

    @property
    def K(self) -> int:
        return self.fock.K

    def op(self, i: int, k: int) -> np.ndarray:
        return self.ops[k][i]

    def products(self, k: int) -> np.ndarray:
        """T_i* T_j on level k for every letter pair, shape (N, N, q_k, q_k)."""
        T = np.stack(self.ops[k])
        return T.conj().transpose(0, 2, 1)[:, None] @ T[None]

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "quotient_dims": self.fock.quotient_dims,
            "well_definedness_residual": self.well_definedness_residual,
        }


def creation_matrices(
    P: ChoiMatrix,
    K: int,
    size_cap: int = SIZE_CAP,
    max_level: int = MAX_LEVEL,
    letter_cap: int = LETTER_CAP,
) -> CreationOps:
    """T_i^(k) = V_{k+1}* G_{k+1}[:, block i] V_k for all letters and levels k < K.

    Block i holds the level-(k+1) words that start with letter i, so the
    column slice is the Gram composed with the embedding w -> iw.
    Letter-prepending maps Gram-null vectors to Gram-null vectors; the
    returned residual is the worst squared Phi-norm of such an image,
    ker* G_{k+1}[block i, block i] ker (the quadratic form itself; its
    square root sits at sqrt(eps) even for exact kernels, so the form is
    the meaningful zero test).
    """
    fock = truncated_fock(P, K, size_cap, max_level, letter_cap)
    ops = []
    worst = 0.0
    for k in range(K):
        lvl, nxt = fock.level(k), fock.level(k + 1)
        size, ker = lvl.gram.shape[0], lvl.kernel
        row = []
        for i in range(P.N):
            block = slice(i * size, (i + 1) * size)
            row.append(nxt.quotient.conj().T @ nxt.gram[:, block] @ lvl.quotient)
            if ker.shape[1]:
                sq = np.einsum("ij,ij->j", ker.conj(), nxt.gram[block, block] @ ker).real
                worst = max(worst, float(np.abs(sq).max()))
        ops.append(row)
    return CreationOps(fock=fock, ops=ops, well_definedness_residual=worst)


# ----------------------------------------------------------------------
# relation checks


def _blocks_commute(P: ChoiMatrix, tol: float = 1e-10) -> bool:
    blocks = P.blocks().reshape(P.N * P.N, P.d, P.d)
    for a in range(blocks.shape[0] - 1):
        rest = blocks[a + 1 :]
        comm = blocks[a] @ rest - rest @ blocks[a]
        if np.linalg.norm(comm, 2, axis=(-2, -1)).max() > tol:
            return False
    return True


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


def tstar_t_check(ops: CreationOps, P: ChoiMatrix | None = None) -> TstarTReport:
    """T_i* T_j against the block data of P.

    (a) on the vacuum level the product matrix is p_ij exactly;
    (b) at level k it is the quotient compression of w (x) h -> w (x) p_ij h;
    (c) for pairwise commuting blocks the largest ||T_i* T_i|| over levels
        equals ||p_ii|| and is attained on the vacuum;
    (d) ||G_k|| <= ||P||^k, attained for d = 1 by top-eigenvector powers.
    """
    P = P or ops.fock.choi
    fock = ops.fock
    N, d = P.N, P.d
    blocks = P.blocks()
    letters = np.arange(N)

    vacuum = float(np.linalg.norm(ops.products(0) - blocks, 2, axis=(-2, -1)).max())
    general = 0.0
    diag_norms = []  # ||T_i* T_i|| per level
    # level k target for pair (i, j): V_k* G_k (I_{N^k} (x) p_ij) V_k, with
    # the Kronecker factor applied blockwise to the columns of V_k* G_k
    for k in range(ops.K):
        lvl = fock.level(k)
        prods = ops.products(k)
        VG = (lvl.quotient.conj().T @ lvl.gram).reshape(lvl.q, N**k, d)
        target = (VG @ blocks[:, :, None]).reshape(N, N, lvl.q, -1) @ lvl.quotient
        general = max(general, float(np.linalg.norm(prods - target, 2, axis=(-2, -1)).max()))
        diag_norms.append(np.linalg.norm(prods[letters, letters], 2, axis=(-2, -1)))

    commuting = _blocks_commute(P)
    norm_law = None
    argmax = None
    if commuting:
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

    pnorm = P.norm
    gap = 0.0
    attain = None
    for k in range(ops.K + 1):
        gk = fock.level(k).norm
        gap = max(gap, (gk - pnorm**k) / max(1.0, pnorm**k))
    if d == 1:
        attain = 0.0
        eigvals, eigvecs = np.linalg.eigh((P.matrix + P.matrix.conj().T) / 2)
        top = eigvecs[:, -1]
        for k in range(1, ops.K + 1):
            t = top
            for _ in range(k - 1):
                t = np.kron(t, top)
            rayleigh = float((t.conj() @ fock.level(k).gram @ t).real)
            attain = max(attain, abs(pnorm**k - rayleigh) / max(1.0, pnorm**k))
    return TstarTReport(
        vacuum_residual=vacuum,
        general_residual=general,
        commuting=commuting,
        norm_law_residual=norm_law,
        norm_law_argmax=argmax,
        gram_norm_gap=gap,
        attainment_gap=attain,
    )


def basis_change_equivalence(
    P: ChoiMatrix, U: np.ndarray, K: int = 2, **caps
) -> float:
    """Residual of the unitary equivalence under a letter basis change.

    P' = (U (x) I_d) P (U* (x) I_d); level-wise U^{(x)k} (x) I_d compresses
    to a quotient unitary Q_k, and Q_{k+1} T_i = sum_a U_{ai} T'_a Q_k.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (P.N, P.N):
        raise ValueError("U must act on the letter index")
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(P.N), 2))
    if defect > 1e-10:
        raise NotUnitaryError(f"U*U differs from I by {defect:.3e}")
    Pp = ChoiMatrix(
        P.N,
        P.d,
        np.kron(U, np.eye(P.d)) @ P.matrix @ np.kron(U.conj().T, np.eye(P.d)),
    )
    ops = creation_matrices(P, K, **caps)
    ops_p = creation_matrices(Pp, K, **caps)
    omegas = []
    for k in range(K + 1):
        W = np.eye(1, dtype=complex)
        for _ in range(k):
            W = np.kron(W, U)
        omegas.append(np.kron(W, np.eye(P.d)))
    Q = []
    for k in range(K + 1):
        lvl_p = ops_p.fock.level(k)
        Q.append(lvl_p.quotient.conj().T @ lvl_p.gram @ omegas[k] @ ops.fock.level(k).quotient)
    residual = 0.0
    for k in range(K + 1):
        eye_defect = np.linalg.norm(Q[k].conj().T @ Q[k] - np.eye(Q[k].shape[1]), 2)
        residual = max(residual, float(eye_defect))
    for k in range(K):
        for i in range(P.N):
            lhs = Q[k + 1] @ ops.op(i, k)
            rhs = sum(U[a, i] * ops_p.op(a, k) @ Q[k] for a in range(P.N))
            residual = max(residual, float(np.linalg.norm(lhs - rhs, 2)))
    return residual

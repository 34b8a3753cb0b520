"""Co-invariant anchor subspaces of compactly supported dual pairs.

A bank of scale N and genus g has every filter exponent in [-(Ng-1), Ng-1],
so S_i^* e_n = decimate(adjoint(m_i) e_n, N) lives on the modes from
(n - Ng + 1)/N to (n + Ng - 1)/N.  The 2N adjoints (primary and dual family)
act as finite slanted matrices B_i, from `dense_slanted_matrix`, on:

- the window [-(Ng-1), Ng-1], mapped into itself as Ng - 1 >= (Ng-1)/(N-1).
  The anchor subspace K is the largest subspace of span{e_0, ..., e_{-(Ng-1)}}
  mapped into itself by all 2N adjoints, found by a shrinking fixed-point
  iteration whose leak maps are one batched matmul each;
- frames [c - Mf, c + Mf] with (N-1) Mf >= Ng - 1 + N - 1, so that the images
  of a vector on the frame at c lie on the frame at trunc(c / N): the level-k
  word images of e_n share one frame of 2 Mf + 1 modes however large |n| is.

Pull-back depths come from the completely positive recursions
R_{k+1} = sum_i B_i^* R_k B_i from R_0 = I - Pi_K, and G_{k+1} likewise from
G_0 = I, per family.  Unrolled, (R_k)_nn = sum over length-k words w of
||(I - Pi_K) B_w e_n||^2 and (G_k)_nn = sum_w ||B_w e_n||^2, so (R_k)_nn
vanishes exactly when every length-k word sends e_n into K.  The depth of e_n
is the least k with (R_k)_nn <= MEMBER_TOL^2 (G_k)_nn: relative, so images
that grow or shrink with k (large-norm duals) are judged by their roundoff,
not their scale.  Unlike a test of each unit direction of their span, it passes a small
out-of-K image beside large ones in K.  Both diagonals are read off V_k, the
QR factor of the stacked images of V_{k-1}'s rows: it keeps the Gram matrix
of all length-k word images of e_n in at most 2 Mf + 1 rows.

The double-cyclicity check expands all modes |n| <= n_range at once, as
level-by-level stacks of word images on their frames, and folds them back
with the forward slanted matrices.  `depths_and_cyclicity` shares its frame
build and its one depth run with the depths of the modes beyond n_range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthExceededError, EmptyAnchorError, NotReconstructiveError
from .filterbank import DEFAULT_TOL, FilterBank
from .laurent import LaurentPoly, adjoint_poly
from .subdivision import dense_slanted_matrix

MEMBER_TOL = 1e-10
SVD_CUTOFF = 1e-12
DEPTH_CAP = 64


def adjoint_on_mode(bank: FilterBank, i: int, n: int, dual: bool = False) -> LaurentPoly:
    """S_i^* e_n via the loop matrix: conj(A_{i,j0}) shifted by (n - j0)/N.

    j0 is the phase of n in [0, N-1]; only that one polyphase entry survives
    the decimation, so the result is a single shifted entry conjugate.  A
    self-dual bank uses its primary loop for both families.
    """
    if not 0 <= i < bank.N:
        raise ValueError("filter index out of range")
    loop = (dual and bank.loops[1]) or bank.loops[0]
    j0 = n % bank.N
    entry = LaurentPoly.from_array(loop.lo, loop.taps[:, i, j0])
    return adjoint_poly(entry).shift((n - j0) // bank.N)


# ----------------------------------------------------------------------
# frames


def _families(bank: FilterBank) -> list:
    """(expanding, folding) filter pairs: the dual adjoints expand and the
    primaries fold back, then the other way round; a self-dual bank has one."""
    if bank.is_self_dual:
        return [(bank.filters, bank.filters)]
    return [(bank.dual_filters, bank.filters), (bank.filters, bank.dual_filters)]


def _frame_matrices(bank: FilterBank, filters) -> tuple:
    """The forward S_i from the frame at 0 onto modes -wide..wide,
    wide = N (Mf + g) - 1, as an (N, 2 wide + 1, L) stack, L = 2 Mf + 1, and,
    sliced from it, the (2N-1, N, L, L) stack whose entry [s + N - 1, i] is
    B_i from the frame at N c + s to the frame at c."""
    N, g = bank.N, bank.genus
    Mf = -(-(N * g - 1) // (N - 1)) + 1
    wide = N * (Mf + g) - 1
    fwd = np.stack([dense_slanted_matrix(m, N, (-wide, wide), (-Mf, Mf)) for m in filters])
    rows = [fwd[:, wide + s - Mf : wide + s + Mf + 1] for s in range(1 - N, N)]
    return fwd, np.stack(rows).conj().swapaxes(-1, -2)


def _frame_step(V: np.ndarray, c: np.ndarray, frames: np.ndarray) -> tuple:
    """Adjoint images of the rows of each V[p], a (rows, L) block on the frame
    at c[p]: a (P, rows, N, L) stack with row w's image under B_i at (w, i),
    the new centres trunc(c / N) and the phases c - N trunc(c / N).  Each
    block's frames are gathered by its phase into a (P, N, L, L) stack for
    one batched product; P <= MODE_BLOCK in a depth run, and P <= 2 n_range
    + 1 in a cyclicity expansion."""
    N = frames.shape[1]
    q = np.sign(c) * (np.abs(c) // N)
    s = c - N * q
    return np.swapaxes(V[:, None] @ frames[s + N - 1].swapaxes(-1, -2), 1, 2), q, s


def _leaks(V: np.ndarray, c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(P, rows) distances to K of the rows of each V[p] on the frame at c[p]:
    the mass off K's modes plus the distance to K of the rest."""
    L = V.shape[-1]
    r = L // 2 - c[:, None] - np.arange(L)  # anchor-window row of each column
    on = (r >= 0) & (r < basis.shape[0])
    p, j = np.nonzero(on)
    Vk = np.zeros((len(V), V.shape[1], basis.shape[0]), dtype=complex)
    Vk[p, :, r[p, j]] = V[p, :, j]
    off = np.sum(np.abs(V * ~on[:, None]) ** 2, axis=2)
    return np.sqrt(off + np.sum(np.abs(Vk - (Vk @ basis.conj()) @ basis.T) ** 2, axis=2))


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

    def leak(self, p: LaurentPoly) -> float:
        """Distance from p to K: out-of-window mass plus off-span mass."""
        v = np.zeros(self.window_size, dtype=complex)
        outside = 0.0
        for k, c in p.coeffs().items():
            if -self.window_size < k <= 0:
                v[-k] = c
            else:
                outside += abs(c) ** 2
        inside = v - self.basis @ (self.basis.conj().T @ v)
        return float(np.sqrt(outside + np.linalg.norm(inside) ** 2))

    def contains(self, p: LaurentPoly, tol: float = MEMBER_TOL) -> bool:
        return self.leak(p) <= tol * max(1.0, p.coeff_norm())

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "genus": self.genus,
            "dimension": self.dimension,
            "window_modes": [-r for r in range(self.window_size)],
            "coinvariance_residual": self.coinvariance_residual,
            "basis": [
                [[float(x.real), float(x.imag)] for x in self.basis[:, c]]
                for c in range(self.dimension)
            ],
        }


def compute_anchor(bank: FilterBank, check: bool = True) -> AnchorSubspace:
    """Largest subspace of the mode window invariant under all 2N adjoints.

    Iteratively removes the directions whose images leak outside the current
    candidate; dimensions strictly decrease until the fixed point.
    """
    if check and not bank.pair_bound <= DEFAULT_TOL:
        raise NotReconstructiveError("anchor needs a dual pair or orthogonal bank")
    W = bank.N * bank.genus
    # the B_i of both families on modes -(W-1)..W-1, row W - 1 + n for e_n
    adjs = [dense_slanted_matrix(m, bank.N, (1 - W, W - 1)) for f, _ in _families(bank) for m in f]
    adjs = np.stack(adjs).conj().swapaxes(1, 2)
    basis = np.eye(W, dtype=complex)
    while True:
        dim = basis.shape[1]
        if dim == 0:
            raise EmptyAnchorError("invariant fixed point is the zero subspace")
        # leak map: every adjoint image of the candidate minus its projection
        # on the candidate; it has at least W rows, so every singular
        # direction is listed
        X = np.zeros((2 * W - 1, dim), dtype=complex)
        X[:W] = basis[::-1]  # basis row r is e_{-r}
        images = adjs @ X
        leak_map = (images - X @ (X.conj().T @ images)).reshape(-1, dim)
        _, s, vh = np.linalg.svd(leak_map, full_matrices=False)
        n_kernel = int(np.sum(s <= SVD_CUTOFF * max(1.0, s[0])))
        if n_kernel == dim:
            return AnchorSubspace(bank.N, bank.genus, basis, float(s[0]))
        if n_kernel == 0:
            raise EmptyAnchorError("invariant fixed point is the zero subspace")
        basis, _ = np.linalg.qr(basis @ vh.conj().T[:, dim - n_kernel :])


# ----------------------------------------------------------------------
# pull-back depth and cyclicity


MODE_BLOCK = 1024  # modes per block of a pull-back depth run
WORD_BUDGET = 1 << 20  # complex entries per chunk of a cyclicity expansion


def _first_absorbed(modes, frames, basis, cap: int) -> np.ndarray:
    """Per mode, the least k <= cap with (R_k)_nn <= MEMBER_TOL^2 (G_k)_nn, or -1."""
    if len(modes) > MODE_BLOCK:
        parts = [modes[b : b + MODE_BLOCK] for b in range(0, len(modes), MODE_BLOCK)]
        return np.concatenate([_first_absorbed(m, frames, basis, cap) for m in parts])
    L = frames.shape[-1]
    first = np.full(len(modes), -1)
    live = np.arange(len(modes))
    c = np.array(modes, dtype=np.int64)
    V = np.tile(np.eye(L, dtype=complex)[L // 2], (len(modes), 1, 1))  # e_n on its frame
    for k in range(cap + 1):
        leak = np.sum(_leaks(V, c, basis) ** 2, axis=1)
        hit = leak <= MEMBER_TOL**2 * np.sum(np.abs(V) ** 2, axis=(1, 2))
        first[live[hit]] = k
        live, c, V = live[~hit], c[~hit], V[~hit]
        if not live.size or k == cap:
            break
        images, c, _ = _frame_step(V, c, frames)
        V = np.linalg.qr(images.reshape(len(live), -1, L), mode="r")
    return first


def pullback_depths(
    bank: FilterBank,
    modes,
    anchor: AnchorSubspace | None = None,
    cap: int = DEPTH_CAP,
) -> dict:
    """Per mode e_n, the least k with (R_k)_nn <= MEMBER_TOL^2 (G_k)_nn in both
    families: every length-k adjoint word sends e_n into the anchor.  Raises
    DepthExceededError for the first mode, in the order given, that is not
    absorbed within `cap` steps."""
    if anchor is None:
        anchor = compute_anchor(bank)
    modes = list(modes)
    if not modes:
        return {}
    frames = [_frame_matrices(bank, expand)[1] for expand, _ in _families(bank)]
    return _depths(modes, frames, anchor.basis, cap)


def _depths(modes: list, frames: list, basis, cap: int) -> dict:
    """`pullback_depths` on the expanding families' frame stacks."""
    per_family = np.array([_first_absorbed(modes, f, basis, cap) for f in frames])
    failed = (per_family < 0).any(axis=0)
    if failed.any():
        n = modes[int(np.argmax(failed))]
        raise DepthExceededError(f"mode {n} not absorbed within {cap} adjoint applications")
    return dict(zip(modes, per_family.max(axis=0).tolist()))


def pullback_depth(
    bank: FilterBank,
    n: int,
    anchor: AnchorSubspace | None = None,
    cap: int = DEPTH_CAP,
) -> int:
    """Smallest k with every length-k adjoint word sending e_n into the anchor."""
    return pullback_depths(bank, [n], anchor, cap=cap)[n]


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


def _expand_and_fold(ns, k: int, frames, fwd, basis) -> np.ndarray:
    """(membership, reconstruction) residuals of the modes ns at depth k."""
    P, N, L = len(ns), frames.shape[1], frames.shape[-1]
    if P * N**k * fwd.shape[1] > WORD_BUDGET and P > 1:
        parts = np.array_split(ns, 2)
        return np.max([_expand_and_fold(m, k, frames, fwd, basis) for m in parts], axis=0)
    c = np.array(ns, dtype=np.int64)
    words = np.tile(np.eye(L, dtype=complex)[L // 2], (P, 1, 1))
    phases = []
    for _ in range(k):  # word w + (i,) at row N w + i, as in module_expand
        words, c, s = _frame_step(words, c, frames)
        words = words.reshape(P, -1, L)
        phases.append(s)
    member = _leaks(words, c, basis).max()
    wide, synth = fwd.shape[1] // 2, fwd.transpose(0, 2, 1).reshape(N * L, -1)
    lost = np.zeros(P)
    for s in reversed(phases):
        full = words.reshape(P, -1, N * L) @ synth
        rows = (s + wide - L // 2)[:, None] + np.arange(L)
        outside = np.ones((P, full.shape[-1]), dtype=bool)
        outside[np.arange(P)[:, None], rows] = False
        lost += np.sum(np.abs(full) ** 2 * outside[:, None], axis=(1, 2))
        words = np.take_along_axis(full, rows[:, None], axis=2)
    words[:, 0, L // 2] -= 1.0
    return np.array([member, np.sqrt(np.sum(np.abs(words[:, 0]) ** 2, axis=1) + lost).max()])


def cyclicity_check(
    bank: FilterBank,
    anchor: AnchorSubspace | None = None,
    n_range: int = 8,
    cap: int = DEPTH_CAP,
) -> CyclicityReport:
    """Word expansion of every mode through anchor-absorbed components.

    For each family the mode is expanded at depth k = max(pullback depth, 1);
    all components must lie in K and the folding family's words must rebuild
    the mode exactly.  Each fold-back step maps the frame at c' onto
    N c' + [-wide, wide] and keeps the frame at c: for a dual pair only
    roundoff leaves it, and any mass that does is added to the residual.
    """
    return depths_and_cyclicity(bank, anchor, n_range, n_range, cap)[1]


def depths_and_cyclicity(
    bank: FilterBank,
    anchor: AnchorSubspace | None = None,
    span: int = 8,
    n_range: int = 8,
    cap: int = DEPTH_CAP,
) -> tuple:
    """(pull-back depths of the modes |n| <= max(span, n_range), the
    `cyclicity_check` report on |n| <= n_range), from one frame build per
    filter set and one depth run.  The depths list |n| <= n_range first;
    a mode beyond n_range that is not absorbed is reported before any
    other, as `pullback_depths` on those modes alone would."""
    if anchor is None:
        anchor = compute_anchor(bank)
    modes = np.arange(-n_range, n_range + 1)
    outer = [n for n in range(-span, span + 1) if abs(n) > n_range]
    mats = {id(f): f for f in _families(bank)[0]}  # both filter sets, once each
    mats = {key: _frame_matrices(bank, f) for key, f in mats.items()}
    frames = [mats[id(expand)][1] for expand, _ in _families(bank)]
    depths = _depths(outer + modes.tolist(), frames, anchor.basis, cap)
    inner = {n: depths[n] for n in modes.tolist()}
    ks = np.maximum(list(inner.values()), 1)
    worst = []
    for expand, fold in _families(bank):
        frames, fwd = mats[id(expand)][1], mats[id(fold)][0]
        for k in np.unique(ks).tolist():
            worst.append(_expand_and_fold(modes[ks == k], k, frames, fwd, anchor.basis))
    member, recon = np.max(worst, axis=0).tolist()
    return {**inner, **depths}, CyclicityReport(n_range, recon, member, inner)

"""Built-in banks, loops, and Choi matrices, plus seeded random generators.

Everything here is deterministic given a seed.  Random loops are composed
from elementary factors whose determinant is a monomial unit, so the dual
loop stays an exact Laurent matrix and property tests do not inherit
inversion error.
"""

from __future__ import annotations

import numpy as np

from .filterbank import FilterBank
from .laurent import LaurentPoly
from .polyphase import LoopMatrix, dual_loop, filters_from_loop, tap_product

SQRT2 = np.sqrt(2.0)

HAAR_LOOP = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2

STRETCHED_HAAR_LOOP = np.array(
    [
        [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)


def haar_bank() -> FilterBank:
    """N=2 orthogonal bank with m_0 = (1+z)/sqrt2, m_1 = (1-z)/sqrt2."""
    return filters_from_loop(LoopMatrix.from_constant(HAAR_LOOP))


def stretched_haar_bank(with_duals: bool = False) -> FilterBank:
    """N=4 bank with m_0 = 1 + z^2; non-orthogonal but invertible.

    With `with_duals`, the dual family from Atilde = A^{*-1} = A/2 is
    attached, making the bank a dual pair.
    """
    A = LoopMatrix.from_constant(STRETCHED_HAAR_LOOP)
    bank = filters_from_loop(A)
    if not with_duals:
        return bank
    dual = filters_from_loop(dual_loop(A))
    return FilterBank(bank.N, bank.filters, dual.filters)


def identity_loop_bank(N: int = 2) -> FilterBank:
    """m_i(z) = z^i; the simplest orthogonal bank at scale N."""
    return filters_from_loop(LoopMatrix.identity(N))


# ----------------------------------------------------------------------
# random loops


def _gaussian(N: int, rng) -> np.ndarray:
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Unitary factors of a (F, N, N) stack, phases fixed, by one batched QR."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _conditioned(z: np.ndarray, smin=0.6, smax=1.5) -> np.ndarray:
    """A (F, N, N) stack, its singular values mapped onto [smin, smax] by one batched SVD."""
    u, s, vh = np.linalg.svd(z)
    lo, hi = s.min(axis=-1, keepdims=True), s.max(axis=-1, keepdims=True)
    s = smin + (smax - smin) * (s - lo) / np.maximum(hi - lo, 1e-12)
    return u * s[..., None, :] @ vh


def _random_unitary(N: int, rng) -> np.ndarray:
    return _unitaries(_gaussian(N, rng)[None])[0]


def _monomial_diag(N: int, rng, max_shift: int) -> tuple:
    """(lo, taps) of diag(z^k_0, ..., z^k_{N-1}), k_i drawn from 0..max_shift."""
    shifts = rng.integers(0, max_shift + 1, size=N)
    taps = np.zeros((max_shift + 1, N, N), dtype=complex)
    taps[shifts, np.arange(N), np.arange(N)] = 1.0
    return 0, taps


def _random_loop(N: int, rng, stages: int, middle, constants) -> LoopMatrix:
    """C_0 B_1 C_1 ... B_stages C_stages.  The draws of each C_f precede those
    of B_{f+1}; `middle()` draws the (lo, taps) factors whose product is B_f,
    and `constants` makes all C_f from their (stages + 1, N, N) stack of
    Gaussian draws in one batched call.  The factors are chained as raw taps
    through `tap_product`, and only the result is trimmed."""
    z, between = [_gaussian(N, rng)], []
    for _ in range(stages):
        between.append(middle())
        z.append(_gaussian(N, rng))
    consts = constants(np.array(z))
    lo, taps = 0, consts[:1]
    for factors, constant in zip(between, consts[1:]):
        for shift, factor in factors:
            lo, taps = lo + shift, tap_product(taps, factor)
        taps = tap_product(taps, constant[None])
    return LoopMatrix.from_array(lo, taps)


def random_unitary_loop(N: int, rng, factors: int = 2, max_shift: int = 1) -> LoopMatrix:
    """Product of constant unitaries and monomial diagonal phases.

    Pointwise unitary on the circle with monomial determinant, so the dual
    loop is exact and equals the loop itself.
    """
    return _random_loop(N, rng, factors, lambda: [_monomial_diag(N, rng, max_shift)], _unitaries)


def _shear(N: int, rng, coeff_scale: float) -> tuple:
    a, b = rng.choice(N, size=2, replace=False)
    exps = rng.choice(np.arange(-1, 2), size=2, replace=False)
    taps = np.zeros((3, N, N), dtype=complex)
    taps[1] = np.eye(N)
    for k in exps:  # I + p(z) e_ab with p supported on `exps`
        taps[k + 1, a, b] = coeff_scale * complex(*rng.standard_normal(2))
    return -1, taps


def random_invertible_loop(
    N: int, rng, shears: int = 2, max_shift: int = 1, coeff_scale: float = 0.35
) -> LoopMatrix:
    """Well-conditioned invertible loop with monomial-unit determinant.

    Alternates conditioned constant factors, unit-determinant shears and
    monomial diagonals; the determinant stays a monomial unit by construction.
    """
    def middle():
        return [_shear(N, rng, coeff_scale), _monomial_diag(N, rng, max_shift)]

    return _random_loop(N, rng, shears, middle, _conditioned)


def random_orthogonal_bank(N: int, rng, **kw) -> FilterBank:
    return filters_from_loop(random_unitary_loop(N, rng, **kw))


def random_biorthogonal_bank(N: int, rng, **kw) -> FilterBank:
    """Dual pair built from a random invertible loop and its exact dual."""
    A = random_invertible_loop(N, rng, **kw)
    primary = filters_from_loop(A)
    dual = filters_from_loop(dual_loop(A))
    return FilterBank(N, primary.filters, dual.filters)


def random_causal_pair(N: int, rng, stages: int = 2, max_shift: int = 1) -> FilterBank:
    """Dual pair with both families supported in [0, Ng-1].

    Constant invertible factors and nonnegative monomial diagonals keep the
    loop and its dual polynomial in z; under that support normalization the
    mode window is invariant for both adjoint families.
    """
    A = _random_loop(N, rng, stages, lambda: [_monomial_diag(N, rng, max_shift)], _conditioned)
    primary = filters_from_loop(A)
    dual = filters_from_loop(dual_loop(A))
    return FilterBank(N, primary.filters, dual.filters)


def random_bank(N: int, rng, terms: int = 4, span: int = 6) -> FilterBank:
    """Unstructured random filters; no relation is expected to hold."""
    filters = []
    for _ in range(N):
        exps = rng.choice(np.arange(-span, span + 1), size=terms, replace=False)
        filters.append(
            LaurentPoly({int(k): complex(*rng.standard_normal(2)) for k in exps})
        )
    return FilterBank(N, filters)


# ----------------------------------------------------------------------
# Choi matrices


def choi_identity(N: int) -> np.ndarray:
    """P = I_N with d = 1: the unrestricted N-letter system."""
    return np.eye(N)


def choi_collapse(N: int) -> np.ndarray:
    """2N letters with d = 1; letters i and i+N are glued.

    Entries are 1 exactly where the letter indices agree mod N, i.e. the
    blocks p_{i,i} = p_{i,i+N} = p_{i+N,i} = p_{i+N,i+N} = 1.
    """
    return np.kron(np.ones((2, 2)), np.eye(N))


def random_psd_choi(N: int, rank: int, rng, d: int = 1, scale: float = 1.0) -> np.ndarray:
    """Random PSD (N*d) x (N*d) matrix of exact rank `rank`."""
    n = N * d
    if not 1 <= rank <= n:
        raise ValueError("rank out of range")
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    p = b @ b.conj().T
    return scale * p / np.linalg.norm(p, 2)


def random_commuting_choi(N: int, d: int, rng) -> np.ndarray:
    """PSD block matrix whose d x d blocks pairwise commute.

    Built from d scalar PSD layers conjugated by one shared unitary, so the
    blocks are simultaneously diagonal in a fixed basis.
    """
    w = _random_unitary(d, rng)
    layers = [random_psd_choi(N, N, rng) for _ in range(d)]
    blocks = np.zeros((N, N, d, d), dtype=complex)
    for i in range(N):
        for j in range(N):
            diag = np.diag([layers[s][i, j] for s in range(d)])
            blocks[i, j] = w @ diag @ w.conj().T
    return blocks.transpose(0, 2, 1, 3).reshape(N * d, N * d)


# ----------------------------------------------------------------------
# name-based dispatch for the CLI


def builtin_bank(name: str, params: dict | None = None) -> FilterBank:
    params = dict(params or {})
    N = int(params.pop("N", 0) or 0)
    seed = int(params.pop("seed", 0) or 0)
    if params:
        raise ValueError(f"unknown builtin parameters: {sorted(params)}")
    if name == "haar":
        return haar_bank()
    if name == "stretched-haar":
        return stretched_haar_bank()
    if name == "stretched-haar-dual":
        return stretched_haar_bank(with_duals=True)
    if name == "identity-loop":
        return identity_loop_bank(N or 2)
    if name == "random-orthogonal":
        return random_orthogonal_bank(N or 2, np.random.default_rng(seed))
    if name == "random-biorthogonal":
        return random_biorthogonal_bank(N or 2, np.random.default_rng(seed))
    if name == "random-causal-pair":
        return random_causal_pair(N or 2, np.random.default_rng(seed))
    raise ValueError(f"unknown builtin bank {name!r}")


def builtin_choi(name: str, params: dict | None = None) -> np.ndarray:
    params = dict(params or {})
    N = int(params.pop("N", 0) or 0)
    seed = int(params.pop("seed", 0) or 0)
    rank = int(params.pop("rank", 0) or 0)
    if params:
        raise ValueError(f"unknown builtin parameters: {sorted(params)}")
    if name == "cuntz":
        return choi_identity(N or 2)
    if name == "collapse":
        return choi_collapse(N or 2)
    if name == "random-psd":
        n = N or 2
        return random_psd_choi(n, rank or max(1, n - 1), np.random.default_rng(seed))
    raise ValueError(f"unknown builtin Choi matrix {name!r}")

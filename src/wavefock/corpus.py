"""Built-in banks, loops, and Choi matrices, plus seeded random generators.

Everything here is deterministic given a seed.  Random loops are composed
from elementary factors with monomial-unit determinants and closed-form
inverse adjoints, so each dual loop A^{*-1} is chained from those beside A:
an exact Laurent matrix, and property tests do not inherit inversion error.
"""

from __future__ import annotations

import numpy as np

from .filterbank import FilterBank
from .laurent import LaurentPoly
from .polyphase import LoopMatrix, filters_from_loop, tap_product

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

    With `with_duals`, the dual family from Atilde = A^{*-1} = A/2 (A is
    real with A A^T = 2I) is attached, making the bank a dual pair.
    """
    A = LoopMatrix.from_constant(STRETCHED_HAAR_LOOP)
    if not with_duals:
        return filters_from_loop(A)
    return _pair_bank(A, LoopMatrix.from_array(A.lo, A.taps / 2))


def identity_loop_bank(N: int = 2) -> FilterBank:
    """m_i(z) = z^i; the simplest orthogonal bank at scale N."""
    return filters_from_loop(LoopMatrix.from_constant(np.eye(N)))


# ----------------------------------------------------------------------
# random loops


def _gaussian(N: int, rng) -> np.ndarray:
    return rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Unitary factors of a (F, N, N) stack, phases fixed, by one batched QR."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _conditioned(z: np.ndarray, smin=0.6, smax=1.5) -> tuple:
    """A (F, N, N) stack, its singular values mapped onto [smin, smax] by one
    batched SVD, and the inverse adjoints u s^-1 vh of its matrices u s vh."""
    u, s, vh = np.linalg.svd(z)
    lo, hi = s.min(axis=-1, keepdims=True), s.max(axis=-1, keepdims=True)
    s = smin + (smax - smin) * (s - lo) / np.maximum(hi - lo, 1e-12)
    return u * s[..., None, :] @ vh, u * (1 / s)[..., None, :] @ vh


def _random_unitary(N: int, rng) -> np.ndarray:
    return _unitaries(_gaussian(N, rng)[None])[0]


def _monomial_diag(N: int, rng, max_shift: int) -> tuple:
    """(lo, taps, taps) of diag(z^k_0, ..., z^k_{N-1}), k_i drawn from
    0..max_shift: the factor is its own inverse adjoint."""
    shifts = rng.integers(0, max_shift + 1, size=N)
    taps = np.zeros((max_shift + 1, N, N), dtype=complex)
    taps[shifts, np.arange(N), np.arange(N)] = 1.0
    return 0, taps, taps


def _random_loop(N: int, rng, stages: int, middle, constants) -> tuple:
    """C_0 B_1 C_1 ... B_stages C_stages, then its inverse adjoint if the
    constants differ from theirs.  The draws of each C_f precede those of
    B_{f+1}; `middle()` draws the (lo, taps, inverse adjoint taps) factors
    whose product is B_f, and `constants` makes the C_f, and their inverse
    adjoints if they differ, from the (stages + 1, N, N) stack of Gaussian
    draws in one batched call.  As (F_1 ... F_m)^{*-1} = F_1^{*-1} ...
    F_m^{*-1}, each chain multiplies its side of the factors in order, as
    raw taps through `tap_product` (a factor and its inverse adjoint share
    their lowest exponent); only the results are trimmed."""
    z, between = [_gaussian(N, rng)], []
    for _ in range(stages):
        between.append(middle())
        z.append(_gaussian(N, rng))
    chains = constants(np.array(z))
    lo, taps = 0, [c[:1] for c in chains]
    for f, factors in enumerate(between, 1):
        for shift, *sides in factors:
            lo, taps = lo + shift, [tap_product(t, side) for t, side in zip(taps, sides)]
        taps = [tap_product(t, c[f : f + 1]) for t, c in zip(taps, chains)]
    return tuple(LoopMatrix.from_array(lo, t) for t in taps)


def _pair_bank(A: LoopMatrix, At: LoopMatrix) -> FilterBank:
    """The dual pair with loop A and dual loop At."""
    return FilterBank(A.N, filters_from_loop(A).filters, filters_from_loop(At).filters)


def random_unitary_loop(N: int, rng, factors: int = 2, max_shift: int = 1) -> LoopMatrix:
    """Product of constant unitaries and monomial diagonal phases.

    Pointwise unitary on the circle with monomial determinant; each factor
    is its own inverse adjoint, so the loop is its own dual and only one
    chain is formed.
    """
    def middle():
        return [_monomial_diag(N, rng, max_shift)]

    return _random_loop(N, rng, factors, middle, lambda z: (_unitaries(z),))[0]


def _shear(N: int, rng, coeff_scale: float) -> tuple:
    """(lo, taps, inverse adjoint taps) of the unit-determinant lifting step
    I + p(z) e_ab, p supported on two of the exponents -1, 0, 1; its inverse
    adjoint is I - p*(z) e_ba."""
    a, b = rng.choice(N, size=2, replace=False)
    exps = rng.choice(np.arange(-1, 2), size=2, replace=False)
    taps = np.zeros((2, 3, N, N), dtype=complex)
    taps[:, 1] = np.eye(N)
    for k in exps:
        c = coeff_scale * complex(*rng.standard_normal(2))
        taps[0, k + 1, a, b] = c
        taps[1, 1 - k, b, a] = -c.conjugate()
    return -1, taps[0], taps[1]


def random_invertible_pair(
    N: int, rng, shears: int = 2, max_shift: int = 1, coeff_scale: float = 0.35
) -> tuple:
    """(A, Atilde = A^{*-1}) for a well-conditioned invertible loop A.

    A alternates conditioned constant factors, unit-determinant shears and
    monomial diagonals, so its determinant is a monomial unit and its dual
    an exact Laurent matrix, chained from the factors' inverse adjoints.
    """
    def middle():
        return [_shear(N, rng, coeff_scale), _monomial_diag(N, rng, max_shift)]

    return _random_loop(N, rng, shears, middle, _conditioned)


def random_invertible_loop(N: int, rng, **kw) -> LoopMatrix:
    """The loop A of `random_invertible_pair`, with the same draws."""
    return random_invertible_pair(N, rng, **kw)[0]


def random_orthogonal_bank(N: int, rng, **kw) -> FilterBank:
    return filters_from_loop(random_unitary_loop(N, rng, **kw))


def random_biorthogonal_bank(N: int, rng, **kw) -> FilterBank:
    """Dual pair built from a random invertible loop and its exact dual."""
    return _pair_bank(*random_invertible_pair(N, rng, **kw))


def random_causal_pair(N: int, rng, stages: int = 2, max_shift: int = 1) -> FilterBank:
    """Dual pair with both families supported in [0, Ng-1].

    Constant invertible factors and nonnegative monomial diagonals keep the
    loop and its dual polynomial in z; under that support normalization the
    mode window is invariant for both adjoint families.
    """
    def middle():
        return [_monomial_diag(N, rng, max_shift)]

    return _pair_bank(*_random_loop(N, rng, stages, middle, _conditioned))


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

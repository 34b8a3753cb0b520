"""Seeded benchmark inputs, built with numpy alone.

Every bank, loop, block matrix and signal the benchmark feeds to `wavefock`
is made here from the workload seed and written to disk before timing
starts.  Nothing here imports `wavefock`, so the expected outputs stored
beside each input are known by construction rather than computed by the
program under test:

- loops are products of factors whose inverse adjoints are known in closed
  form, so the dual loop of every bank is exact;
- block matrices are assembled from eigenvalues and unitaries, so the rank
  of every layer, and hence every quotient dimension, is known.

A Laurent matrix is a pair (lo, C) with C of shape (L, N, N): C[t] is the
coefficient of z^(lo + t).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PRUNE = 1e-14  # the program drops coefficients at or below this modulus

STRETCHED_HAAR = np.array(
    [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, -1.0]]
)

# Nonzero eigenvalues of generated block matrices lie in this range, so the
# level-k Gram keeps every product of k of them far above the rank cutoff
# (0.25^4 = 4e-3 against 1e-10).
EIG_RANGE = (0.25, 1.0)


# ----------------------------------------------------------------------
# Laurent matrices


def lmul(a, b):
    (alo, A), (blo, B) = a, b
    out = np.zeros((A.shape[0] + B.shape[0] - 1,) + A.shape[1:], dtype=complex)
    for s in range(A.shape[0]):
        for t in range(B.shape[0]):
            out[s + t] += A[s] @ B[t]
    return _trim((alo + blo, out))


def _trim(m):
    lo, C = m
    live = np.flatnonzero(np.abs(C).reshape(C.shape[0], -1).max(axis=1) > PRUNE)
    return lo + int(live[0]), C[live[0] : live[-1] + 1]


def lsample(m, z):
    """Values at the points z, shape (len(z), N, N)."""
    lo, C = m
    powers = z[:, None] ** (lo + np.arange(C.shape[0]))[None, :]
    return np.einsum("pt,tij->pij", powers, C)


def _const(M):
    return 0, np.asarray(M, dtype=complex)[None]


def _diag(shifts):
    N = len(shifts)
    C = np.zeros((max(shifts) + 1, N, N), dtype=complex)
    for i, s in enumerate(shifts):
        C[s, i, i] = 1.0
    return 0, C


def _shear(N, a, b, terms):
    """I + p(z) e_ab with p = sum of c z^e over `terms`, e in {-1, 0, 1}."""
    C = np.zeros((3, N, N), dtype=complex)
    C[1] = np.eye(N)
    for e, c in terms:
        C[e + 1, a, b] += c
    return -1, C


def _shear_dual(N, a, b, terms):
    """(I + p e_ab)^{*-1} = I - p^* e_ba, since e_ba squares to zero."""
    return _shear(N, b, a, [(-e, -np.conj(c)) for e, c in terms])


def _unitary(N, rng):
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _conditioned(N, rng, smin=0.6, smax=1.5):
    u, v = _unitary(N, rng), _unitary(N, rng)
    return u @ np.diag(rng.uniform(smin, smax, N)) @ v


# ----------------------------------------------------------------------
# banks


def random_loop(family: str, N: int, rng):
    """(A, Atilde) with Atilde = A^{*-1} exactly, as Laurent matrices.

    For A = F_1 ... F_m the dual is F_1^{*-1} ... F_m^{*-1}.  Families:
    `orthogonal` multiplies unitaries and monomial diagonals, so A is
    unitary on the circle; `biorthogonal` adds unit-determinant shears
    between well-conditioned constants; `causal` keeps to constants and
    nonnegative monomial diagonals, so both families are polynomials in z.

    The seed draws the constants, coefficients and the placement of shifts
    and shears, but not their number or exponents, so every loop of one
    family and N has the same support and the same amount of work follows
    from any seed.
    """
    if family == "orthogonal":
        first = _unitary(N, rng)
    else:
        first = _conditioned(N, rng)
    A = _const(first)
    At = _const(np.linalg.inv(first).conj().T)
    for _ in range(2):
        factors = []
        if family == "biorthogonal":
            a, b = (int(x) for x in rng.choice(N, size=2, replace=False))
            terms = [(e, 0.35 * complex(*rng.standard_normal(2))) for e in (-1, 1)]
            factors.append((_shear(N, a, b, terms), _shear_dual(N, a, b, terms)))
        D = _diag([int(s) for s in rng.permutation(np.arange(N) % 2)])
        factors.append((D, D))
        M = _unitary(N, rng) if family == "orthogonal" else _conditioned(N, rng)
        factors.append((_const(M), _const(np.linalg.inv(M).conj().T)))
        for F, Ft in factors:
            A, At = lmul(A, F), lmul(At, Ft)
    return A, At


def filters_of(m) -> list:
    """m_k(z) = sum_l A_kl(z^N) z^l, each as a dict exponent -> coefficient."""
    lo, C = m
    N = C.shape[1]
    out = []
    for k in range(N):
        f = {}
        for t in range(C.shape[0]):
            for l in range(N):
                if abs(C[t, k, l]) > PRUNE:
                    f[N * (lo + t) + l] = complex(C[t, k, l])
        out.append(f)
    return out


def genus(N: int, filters: list) -> int:
    m = max((abs(k) for f in filters for k in f), default=0)
    return max(1, math.ceil((m + 1) / N))


def poly_json(f: dict) -> list:
    return [[k, f[k].real, f[k].imag] for k in sorted(f)]


def loop_json(m) -> dict:
    lo, C = m
    N = C.shape[1]
    return {
        "N": N,
        "entries": [
            [
                [[lo + t, C[t, i, j].real, C[t, i, j].imag] for t in range(C.shape[0]) if abs(C[t, i, j]) > PRUNE]
                for j in range(N)
            ]
            for i in range(N)
        ],
    }


def bank_json(N: int, filters: list, duals: list | None) -> dict:
    return {
        "N": N,
        "filters": [poly_json(f) for f in filters],
        "dual_filters": None if duals is None else [poly_json(f) for f in duals],
    }


class Bank:
    """A generated bank with its loops and filters known by construction."""

    def __init__(self, family: str, N: int, A, At):
        self.family, self.N, self.A, self.At = family, N, A, At
        self.filters = filters_of(A)
        # an orthogonal bank is stored self-dual: its dual family is itself
        self.duals = None if family == "orthogonal" else filters_of(At)
        self.genus = genus(N, self.filters + (self.duals or []))

    @classmethod
    def random(cls, family: str, N: int, rng) -> "Bank":
        return cls(family, N, *random_loop(family, N, rng))

    @classmethod
    def stretched_haar_dual(cls) -> "Bank":
        A = _const(STRETCHED_HAAR)
        return cls("biorthogonal", 4, A, _const(np.linalg.inv(STRETCHED_HAAR).T))

    @property
    def verdict(self) -> str:
        return "cuntz" if self.duals is None else "biorthogonal"

    def json(self) -> dict:
        return bank_json(self.N, self.filters, self.duals)

    def primary_json(self) -> dict:
        return bank_json(self.N, self.filters, None)


# ----------------------------------------------------------------------
# block matrices


def _psd(N: int, rank: int, rng) -> np.ndarray:
    U = _unitary(N, rng)[:, :rank]
    return (U * rng.uniform(*EIG_RANGE, rank)) @ U.conj().T


def choi_json(matrix: np.ndarray, d: int) -> dict:
    return {
        "N": matrix.shape[0] // d,
        "d": d,
        "blocks": [[[float(x.real), float(x.imag)] for x in row] for row in matrix],
    }


def scalar_choi(kind: str, N: int, rank: int, rng):
    """(matrix, rank) for d = 1: `cuntz` is I_N, `collapse` glues letter i
    to letter i + N, `random-psd` has the given rank."""
    if kind == "cuntz":
        return np.eye(N, dtype=complex), N
    if kind == "collapse":
        return np.kron(np.ones((2, 2)), np.eye(N)).astype(complex), N
    return _psd(N, rank, rng), rank


def commuting_choi(N: int, d: int, ranks: list, rng) -> np.ndarray:
    """Blocks W diag(layer_s[i, j]) W^* for one shared unitary W.

    The blocks commute and the level-k Gram is unitarily a direct sum of the
    scalar layers' Kronecker powers, so its rank is sum_s ranks[s]^k.
    """
    W = _unitary(d, rng)
    layers = np.stack([_psd(N, r, rng) for r in ranks])  # (d, N, N)
    blocks = np.einsum("as,sij,bs->ijab", W, layers, W.conj())
    return blocks.transpose(0, 2, 1, 3).reshape(N * d, N * d)


# ----------------------------------------------------------------------
# pyramid signals


def signal_lengths(n: int, rng, lo: int = 64, hi: int = 100_000) -> list:
    """n increasing lengths spread log-uniformly over [lo, hi], one per stratum."""
    u = (np.arange(n) + rng.random(n)) / n
    return [int(x) for x in np.rint(lo * (hi / lo) ** u)]


# ----------------------------------------------------------------------
# files


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)

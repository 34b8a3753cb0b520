"""N-band filter banks as systems of isometries.

A bank is an immutable value: a scale N and N subband filters m_0..m_{N-1},
optionally with a dual family, whose loop matrices and pairing bound it
builds once.  The associated operators act on Laurent polynomials by

    S_i f = m_i * upsample(f, N)        (filter after N-fold upsampling)
    S_i^* f = decimate(adjoint(m_i) * f, N)

and `relation_report` measures how far the family is from satisfying the
isometry, range-orthogonality, completeness and dual-pairing identities.
Each of its parts is computed when first read, so a verdict pays only for
the bounds it reads, and only the reported grid sups sample the circle; a
bank whose parts would exceed PART_CAP entries is refused before any.
Both operators are shift covariant, S_i(z f) = z^N S_i f, so completeness is
checked on one mode per phase, and adjoint words are expanded level by level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DualLengthMismatchError, NotReconstructiveError, SizeCapError
from .laurent import (
    DEFAULT_GRID,
    LaurentPoly,
    adjoint_poly,
    circle_values,
    decimate,
    poly_from_json,
    poly_to_json,
    poly_window,
    stack_polys,
    upsample,
)

DEFAULT_TOL = 1e-9
PART_CAP = 1 << 21  # entries of the largest array a report part builds: 32 MiB of complex


def _own(p: LaurentPoly) -> LaurentPoly:
    """p if its taps lie in a read-only array, else p on a read-only copy of
    its taps: a caller's array is neither shared nor marked."""
    owner = p.taps if p.taps.base is None else p.taps.base  # numpy's base owns the memory
    if isinstance(owner, np.ndarray) and not owner.flags.writeable:  # no view of it can write
        return p
    taps = p.taps.copy()
    taps.setflags(write=False)
    return LaurentPoly.from_array(p.lo, taps)


class FilterBank:
    """Scale N with N primary filters and an optional dual family: an
    immutable value, whose `loops`, `pair_bound` and exponent `windows` are
    built on first read.  Every polynomial it holds has taps of its own,
    marked read-only.

    The genus g is the smallest integer such that every filter exponent lies
    in [-Ng+1, Ng-1]; it is always computed from the stored filters.
    """

    def __init__(self, N: int, filters, dual_filters=None):
        if N < 2:
            raise ValueError("scale N must be at least 2")
        filters = tuple(map(_own, filters))  # the cached loops stay in step with them
        if len(filters) != N:
            raise DualLengthMismatchError(f"expected {N} primary filters, got {len(filters)}")
        if dual_filters is not None:
            dual_filters = tuple(map(_own, dual_filters))
            if len(dual_filters) != N:
                raise DualLengthMismatchError(f"expected {N} dual filters, got {len(dual_filters)}")
        self.__dict__.update(N=N, filters=filters, dual_filters=dual_filters)

    def __setattr__(self, name, value):
        raise AttributeError(f"FilterBank is immutable; cannot set {name!r}")

    @functools.cached_property
    def loops(self) -> tuple:
        """(A, Atilde or None) by `polyphase.loop_from_filters`; taps read-only."""
        from .polyphase import loop_from_filters  # polyphase imports this module
        loops = loop_from_filters(self)
        for loop in filter(None, loops):
            loop.taps.flags.writeable = False
        return loops

    @functools.cached_property
    def pair_bound(self) -> float:
        """`polyphase.loop_pair_bound` of A against Atilde, or against A if
        self-dual, the verdict of every reconstructive gate; refused before any
        loop is built if A* Atilde would hold over PART_CAP entries."""
        from .polyphase import loop_pair_bound
        taps = sum(-(-(lo % self.N + width) // self.N) for lo, width in self.windows)
        if (entries := (taps - 1) * self.N**2) > PART_CAP:
            raise SizeCapError(f"the pair certificate needs {entries} entries (cap {PART_CAP})")
        return loop_pair_bound(self.loops[0], self.loops[1] or self.loops[0])

    @property
    def is_self_dual(self) -> bool:
        return self.dual_filters is None

    @property
    def duals_or_primaries(self) -> tuple:
        return self.dual_filters if self.dual_filters is not None else self.filters

    @functools.cached_property
    def windows(self) -> tuple:
        """`poly_window` of the primaries and of `duals_or_primaries`."""
        primaries = poly_window(self.filters)
        return primaries, primaries if self.is_self_dual else poly_window(self.dual_filters)

    @property
    def genus(self) -> int:
        reach = max(max(-lo, lo + width - 1) for lo, width in self.windows)
        return max(1, math.ceil((reach + 1) / self.N))

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "filters": [poly_to_json(p) for p in self.filters],
            "dual_filters": None
            if self.dual_filters is None
            else [poly_to_json(p) for p in self.dual_filters],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FilterBank":
        if not isinstance(obj, dict) or "N" not in obj or "filters" not in obj:
            raise ValueError("filter bank JSON must have keys 'N' and 'filters'")
        duals = obj.get("dual_filters")
        return cls(
            int(obj["N"]),
            [poly_from_json(p) for p in obj["filters"]],
            None if duals is None else [poly_from_json(p) for p in duals],
        )

    def __repr__(self):
        tag = "self-dual" if self.is_self_dual else "with duals"
        return f"FilterBank(N={self.N}, genus={self.genus}, {tag})"


# ----------------------------------------------------------------------
# the operators


def apply_S(m: LaurentPoly, f: LaurentPoly, N: int) -> LaurentPoly:
    """S f = m * f(z^N)."""
    return m * upsample(f, N)


def apply_S_adjoint(m: LaurentPoly, f: LaurentPoly, N: int) -> LaurentPoly:
    """S^* f = decimate(adjoint(m) * f, N), the transfer-operator form."""
    return decimate(adjoint_poly(m) * f, N)


# ----------------------------------------------------------------------
# relation verification


@dataclass
class _Part:
    """Primaries paired with one dual family (with themselves for the self part)."""

    residual: np.ndarray  # (N, N, taps): decimate(adj(m_i) mdual_j) - delta_ij from exponent lo
    lo: int
    bounds: list  # sum_k |c_k| of each residual: its sup over the circle
    completeness: float  # sum_i S_i Sdual_i^* = I on every mode


def _part(lo_f: int, F, lo_d: int, D, N: int) -> _Part:
    """Pair residuals, their bounds and the completeness residual of
    primaries F and duals D, coefficient stacks of shapes (N, L) and (N, Ld)
    from exponents lo_f and lo_d.

    adj(m_i) mdual_j holds conj(F[i, s]) D[j, t] at lag t - s; lag k - (L-1)
    is read from D padded by L - 1 zeros, and only the lags on exponents in
    N Z are gathered, so the N^2 decimated products are one matmul.  The
    image of e_n under sum_i S_i Sdual_i^* holds (D^* F)[s, t] at
    n + lo_f - lo_d + t - s for the rows s = n - lo_d (mod N): the diagonal
    sums of D^* F over each residue class of rows.  A pair residual
    sum_k c_k z^k is at most sum_k |c_k| in modulus on the whole circle.
    """
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
    bounds = np.abs(residual).sum(axis=-1).tolist()
    return _Part(residual, d_lo, bounds, float(np.linalg.norm(images, axis=1).max()))


def _grid_sups(part: _Part, grid: int) -> list:
    """sup of |residual| over the grid points, per pair."""
    values = circle_values(part.lo, np.moveaxis(part.residual, -1, 0), grid)
    return np.abs(values).max(axis=0).tolist()


class RelationReport:
    """Residuals for the subband relations, plus verdicts at `tolerance`.

    Each part is computed when it is first read, then kept: `biorthogonal`
    reads the pair part (primaries against duals), the other verdicts the
    self part, and only the grid sups `pair_residuals`/`self_residuals`,
    i.e. `to_json`, sample the circle.  A self-dual bank has one part and
    one set of sups.
    """

    def __init__(self, N: int, tolerance: float, grid: int, primaries: tuple, duals=None):
        self.N, self.tolerance, self.grid = N, tolerance, grid
        self._primaries, self._duals = primaries, duals  # (lo, stack); duals None if self-dual

    def __repr__(self):
        return f"RelationReport(N={self.N}, tolerance={self.tolerance}, grid={self.grid})"

    @functools.cached_property
    def _self(self) -> _Part:
        return _part(*self._primaries, *self._primaries, self.N)

    @functools.cached_property
    def _pair(self) -> _Part:
        if self._duals is None:
            return self._self
        return _part(*self._primaries, *self._duals, self.N)

    @functools.cached_property
    def self_residuals(self) -> list:
        """sup |decimate(adj(m_i) m_j) - delta_ij| on the grid."""
        return _grid_sups(self._self, self.grid)

    @functools.cached_property
    def pair_residuals(self) -> list:
        """The same with the duals on the right."""
        if self._duals is None:
            return self.self_residuals
        return _grid_sups(self._pair, self.grid)

    @property
    def pair_bounds(self) -> list:
        return self._pair.bounds

    @property
    def self_bounds(self) -> list:
        return self._self.bounds

    @property
    def completeness_residual(self) -> float:
        return self._pair.completeness

    @property
    def self_completeness_residual(self) -> float:
        return self._self.completeness

    @property
    def isometry(self) -> bool:
        return max(row[i] for i, row in enumerate(self.self_bounds)) < self.tolerance

    @property
    def orthogonal_ranges(self) -> bool:
        off = [v for i, row in enumerate(self.self_bounds) for j, v in enumerate(row) if i != j]
        return max(off) < self.tolerance

    @property
    def cuntz(self) -> bool:
        complete = self.self_completeness_residual < self.tolerance
        return self.isometry and self.orthogonal_ranges and complete

    @property
    def biorthogonal(self) -> bool:
        complete = self.completeness_residual < self.tolerance
        return max(map(max, self.pair_bounds)) < self.tolerance and complete

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "tolerance": self.tolerance,
            "grid": self.grid,
            "pair_residuals": self.pair_residuals,
            "self_residuals": self.self_residuals,
            "pair_bounds": self.pair_bounds,
            "self_bounds": self.self_bounds,
            "completeness_residual": self.completeness_residual,
            "self_completeness_residual": self.self_completeness_residual,
            "verdicts": {
                "isometry": self.isometry,
                "orthogonal_ranges": self.orthogonal_ranges,
                "cuntz": self.cuntz,
                "biorthogonal": self.biorthogonal,
            },
        }


def relation_report(
    bank: FilterBank, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID
) -> RelationReport:
    """Residuals for the subband relations, plus verdicts at `tol`.

    Verdicts read the pairing bounds, which hold on the whole circle; the
    pairing residuals, sups over `grid` points, are only reported.
    Completeness is exact: each image of a Fourier mode is finitely supported,
    and by shift covariance the modes e_0..e_{N-1} give the residual over all.
    Each part is computed on first read, and one on L and Ld exponents builds
    at most (L + Ld + N) max(L, Ld + N) entries in an array: a bank over
    PART_CAP is refused before its coefficients are stacked.
    """
    (_, L), (_, Ld) = bank.windows
    entries = (L + max(L, Ld) + bank.N) * (max(L, Ld) + bank.N)  # the self or the pair part
    if entries > PART_CAP:
        raise SizeCapError(f"a relation report part needs {entries} entries (cap {PART_CAP})")
    duals = None if bank.is_self_dual else stack_polys(bank.dual_filters)
    return RelationReport(bank.N, tol, grid, stack_polys(bank.filters), duals)


# ----------------------------------------------------------------------
# module expansion over words


def module_expand(bank: FilterBank, f: LaurentPoly, k: int, check: bool = True) -> dict:
    """Subband components of f over all words of length k, in lexicographic
    order.

    The component at word w = (i_1, ..., i_k) is the iterated dual adjoint
    Sdual_{i_k}^* ... Sdual_{i_1}^* f with Sdual_{i_1}^* applied first, built
    level by level as {w + (i,): Sdual_i^* f_w}, so words share prefixes.  For
    a bank passing the pairing verdict, f = sum_w b_w * upsample(f_w, N^k)
    with b_w = m_{i_1}(z) m_{i_2}(z^N) ... m_{i_k}(z^(N^(k-1))).
    """
    if k < 1:
        raise ValueError("word length k must be at least 1")
    if check and not bank.pair_bound <= DEFAULT_TOL:
        raise NotReconstructiveError("bank fails the dual-pairing verdict")
    duals = bank.duals_or_primaries
    components = {(): f}
    for _ in range(k):
        components = {
            word + (i,): apply_S_adjoint(d, g, bank.N)
            for word, g in components.items()
            for i, d in enumerate(duals)
        }
    return components


def module_reconstruct(bank: FilterBank, components: dict) -> LaurentPoly:
    """Reassemble sum_w b_w(z) * f_w(z^(N^|w|)) from `module_expand` output.

    Folds from the deepest level by nested synthesis: the components at
    w + (i,) collapse to sum_i S_i f_{w + (i,)} at w, down to the empty word.
    """
    parts = dict(components)
    for k in range(max(map(len, parts), default=0), 0, -1):
        for word in [w for w in parts if len(w) == k]:
            g = apply_S(bank.filters[word[-1]], parts.pop(word), bank.N)
            parts[word[:-1]] = parts.get(word[:-1], LaurentPoly.zero()) + g
    return parts.get((), LaurentPoly.zero())

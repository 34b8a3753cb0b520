"""Anchor subspace extraction, pull-back depths, and double cyclicity."""

import math

import numpy as np
import pytest

import wavefock.anchor as anchor_module
from wavefock.anchor import (
    DEPTH_CAP,
    MEMBER_TOL,
    SVD_CUTOFF,
    AnchorSubspace,
    CyclicityReport,
    adjoint_on_mode,
    compute_anchor,
    cyclicity_check,
    depths_and_cyclicity,
    pullback_depth,
    pullback_depths,
)
from wavefock.corpus import (
    builtin_bank,
    haar_bank,
    random_biorthogonal_bank,
    random_causal_pair,
    random_orthogonal_bank,
    stretched_haar_bank,
)
from wavefock.errors import (
    DepthExceededError,
    EmptyAnchorError,
    NotReconstructiveError,
    WavefockError,
)
from wavefock.filterbank import (
    FilterBank,
    apply_S_adjoint,
    module_expand,
    module_reconstruct,
    relation_report,
)
from oracles import DictPoly
from wavefock.laurent import LaurentPoly
from wavefock.polyphase import loop_from_filters

SQRT2 = math.sqrt(2.0)


def pair_bank(seed):
    return random_causal_pair(2, np.random.default_rng(seed))


# ----------------------------------------------------------------------
# the polynomial path in dict arithmetic, kept as the oracle for the
# slanted-matrix recursions


def basis_polys(K: AnchorSubspace) -> list:
    return [
        LaurentPoly({-r: K.basis[r, c] for r in range(K.window_size)})
        for c in range(K.dimension)
    ]


def _family_loops(bank):
    """Per family, the loop entries as dict polynomials."""
    A, At = loop_from_filters(bank)
    return [[[DictPoly.of(p) for p in row] for row in L.entries] for L in (A, At or A)]


def _mode_adjoint(loop, i, n):
    N = len(loop)
    j0 = n % N
    return loop[i][j0].adjoint().shift((n - j0) // N)


def _poly_adjoint(loop, i, p):
    """sum_k c_k S_i^* e_k, accumulated coefficient by coefficient."""
    N, out = len(loop), {}
    for k, c in p.coeffs().items():
        j0 = k % N
        for e, v in loop[i][j0].c.items():  # e_k -> conj(A_{i,j0}) z^((k - j0) / N)
            out[(k - j0) // N - e] = out.get((k - j0) // N - e, 0j) + c * v.conjugate()
    return DictPoly(out)


def adjoint_on_mode_poly(bank, i, p, dual=False):
    """Linear extension of adjoint_on_mode to arbitrary polynomials."""
    return LaurentPoly(_poly_adjoint(_family_loops(bank)[bool(dual)], i, p).coeffs())


def oracle_anchor(bank, cutoff=SVD_CUTOFF):
    """The fixed point with leak maps accumulated coefficient by coefficient."""
    rep = relation_report(bank)
    if not (rep.biorthogonal or rep.cuntz):
        raise NotReconstructiveError("anchor needs a dual pair or orthogonal bank")
    W = bank.N * bank.genus
    images = [
        [_mode_adjoint(loop, i, -r) for r in range(W)]
        for loop in _family_loops(bank)
        for i in range(bank.N)
    ]
    basis = np.eye(W, dtype=complex)
    while True:
        dim = basis.shape[1]
        if dim == 0:
            raise EmptyAnchorError("invariant fixed point is the zero subspace")
        blocks = []
        for imgs in images:
            exps = sorted(
                {k for r in range(W) for k in imgs[r].coeffs() if k > 0 or k <= -W}
            )
            row_of = {k: r for r, k in enumerate(exps)}
            out_block = np.zeros((len(exps), dim), dtype=complex)
            in_block = np.zeros((W, dim), dtype=complex)
            for c in range(dim):
                acc = {}
                for r in range(W):
                    for k, v in imgs[r].coeffs().items():
                        acc[k] = acc.get(k, 0j) + basis[r, c] * v
                for k, v in acc.items():
                    if k > 0 or k <= -W:
                        out_block[row_of[k], c] = v
                    else:
                        in_block[-k, c] = v
            in_block -= basis @ (basis.conj().T @ in_block)
            blocks += [out_block, in_block]
        _, s, vh = np.linalg.svd(np.vstack(blocks))
        n_kernel = int(np.sum(s <= max(cutoff, cutoff * s[0])))
        if n_kernel == dim:
            return AnchorSubspace(bank.N, bank.genus, basis, float(s[0]))
        if n_kernel == 0:
            raise EmptyAnchorError("invariant fixed point is the zero subspace")
        basis, _ = np.linalg.qr(basis @ vh.conj().T[:, dim - n_kernel :])


def _orthonormal_polys(polys, cutoff=SVD_CUTOFF):
    exps = sorted({k for p in polys for k in p.coeffs()})
    if not exps:
        return []
    mat = np.zeros((len(polys), len(exps)), dtype=complex)
    for r, p in enumerate(polys):
        for k, v in p.coeffs().items():
            mat[r, exps.index(k)] = v
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    rows = vh[s > cutoff * max(s[0], 1.0)]
    return [DictPoly(dict(zip(exps, row))) for row in rows]


def oracle_depth(loops, n, anchor, cap=DEPTH_CAP, tol=MEMBER_TOL):
    """Per mode, an orthonormalised polynomial span of the word images."""
    worst = 0
    for loop in loops:
        span = [DictPoly({n: 1.0})]
        depth = 0
        while not all(anchor.contains(p, tol) for p in span):
            depth += 1
            if depth > cap:
                raise DepthExceededError(
                    f"mode {n} not absorbed within {cap} adjoint applications"
                )
            images = [_poly_adjoint(loop, i, p) for p in span for i in range(len(loop))]
            span = _orthonormal_polys(images)
        worst = max(worst, depth)
    return worst


def oracle_cyclicity(bank, anchor, n_range):
    """Expand and fold back each mode on its own through module_expand."""
    loops = _family_loops(bank)
    swapped = (
        bank if bank.is_self_dual else FilterBank(bank.N, bank.dual_filters, bank.filters)
    )
    recon = member = 0.0
    for n in range(-n_range, n_range + 1):
        k = max(oracle_depth(loops, n, anchor), 1)
        e_n = LaurentPoly.monomial(n)
        for b in (bank, swapped):
            comps = module_expand(b, e_n, k, check=False)
            member = max([member] + [anchor.leak(p) for p in comps.values()])
            recon = max(recon, (module_reconstruct(b, comps) - e_n).coeff_norm())
    return recon, member


def outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except WavefockError as exc:
        return (type(exc), str(exc))


# ----------------------------------------------------------------------
# single-mode adjoints


def test_adjoint_on_mode_matches_direct_haar(haar):
    for i in range(2):
        for n in range(-8, 9):
            via_loop = adjoint_on_mode(haar, i, n)
            direct = apply_S_adjoint(haar.filters[i], LaurentPoly.monomial(n), 2)
            assert via_loop.isclose(direct, tol=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_adjoint_on_mode_matches_direct_random(seed):
    bank = random_biorthogonal_bank(2, np.random.default_rng(seed))
    span = 4 * bank.N * bank.genus
    for dual in (False, True):
        filters = bank.duals_or_primaries if dual else bank.filters
        for i in range(bank.N):
            for n in range(-span, span + 1):
                via_loop = adjoint_on_mode(bank, i, n, dual=dual)
                direct = apply_S_adjoint(filters[i], LaurentPoly.monomial(n), bank.N)
                assert via_loop.isclose(direct, tol=1e-13)


def test_adjoint_on_mode_haar_frozen(haar):
    # S_i^* e_0 = e_0 / sqrt(2) for both filters
    for i in range(2):
        img = adjoint_on_mode(haar, i, 0)
        assert img.isclose(LaurentPoly.monomial(0, 1 / SQRT2), tol=1e-15)
    # e_{-1} picks up the sign of the highpass coefficient
    assert adjoint_on_mode(haar, 0, -1).isclose(
        LaurentPoly.monomial(-1, 1 / SQRT2), tol=1e-15
    )
    assert adjoint_on_mode(haar, 1, -1).isclose(
        LaurentPoly.monomial(-1, -1 / SQRT2), tol=1e-15
    )


def test_adjoint_on_mode_index_error(haar):
    with pytest.raises(ValueError):
        adjoint_on_mode(haar, 2, 0)


def test_adjoint_on_mode_poly_linear(haar, rng):
    p = LaurentPoly({k: complex(*rng.normal(size=2)) for k in range(-5, 6)})
    q = LaurentPoly({k: complex(*rng.normal(size=2)) for k in range(-3, 8)})
    for i in range(2):
        lhs = adjoint_on_mode_poly(haar, i, p + 2j * q)
        rhs = adjoint_on_mode_poly(haar, i, p) + 2j * adjoint_on_mode_poly(haar, i, q)
        assert lhs.isclose(rhs, tol=1e-12)
        direct = apply_S_adjoint(haar.filters[i], p + 2j * q, 2)
        assert lhs.isclose(direct, tol=1e-12)


# ----------------------------------------------------------------------
# the anchor subspace


def test_haar_anchor_is_the_window(haar):
    K = compute_anchor(haar)
    assert K.dimension == 2
    assert K.window_size == 2
    assert K.coinvariance_residual < 1e-12
    for n in (0, -1):
        assert K.contains(LaurentPoly.monomial(n))
    assert not K.contains(LaurentPoly.monomial(1))
    assert not K.contains(LaurentPoly.monomial(-2))


def test_anchor_basis_orthonormal(haar):
    K = compute_anchor(haar)
    gram = K.basis.conj().T @ K.basis
    assert np.allclose(gram, np.eye(K.dimension), atol=1e-12)


@pytest.mark.parametrize(
    "bank_fn",
    [
        haar_bank,
        lambda: stretched_haar_bank(with_duals=True),
        lambda: pair_bank(5),
        lambda: random_orthogonal_bank(3, np.random.default_rng(9)),
    ],
)
def test_anchor_invariant_under_all_adjoints(bank_fn):
    bank = bank_fn()
    K = compute_anchor(bank)
    assert 1 <= K.dimension <= bank.N * bank.genus
    for p in basis_polys(K):
        for dual in (False, True):
            for i in range(bank.N):
                img = adjoint_on_mode_poly(bank, i, p, dual=dual)
                assert K.leak(img) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_anchor_dimension_bounded(seed):
    bank = pair_bank(seed)
    K = compute_anchor(bank)
    assert 1 <= K.dimension <= bank.N * bank.genus


def test_anchor_empty_raises():
    # both polyphase rows are injective on the window and jointly force
    # every candidate vector out of it
    bank = FilterBank(
        2,
        [
            LaurentPoly({-2: 1.0, -3: 1.0}),
            LaurentPoly({-2: 1.0, -3: -1.0}),
        ],
    )
    with pytest.raises(EmptyAnchorError):
        compute_anchor(bank, check=False)


def test_anchor_report_json(haar):
    K = compute_anchor(haar)
    doc = K.to_json()
    assert doc["N"] == 2
    assert doc["dimension"] == 2
    assert doc["window_modes"] == [0, -1]
    assert len(doc["basis"]) == 2
    assert all(len(vec) == 2 for vec in doc["basis"])


# ----------------------------------------------------------------------
# pull-back depth


@pytest.mark.parametrize(
    "n, expected",
    [(0, 0), (-1, 0), (1, 1), (-2, 1), (2, 2), (-3, 2), (4, 3), (8, 4), (-8, 3)],
)
def test_haar_pullback_depth_frozen(haar, n, expected):
    assert pullback_depth(haar, n) == expected


def test_haar_pullback_depth_nondecreasing(haar):
    K = compute_anchor(haar)
    depths = [pullback_depth(haar, n, K) for n in range(33)]
    assert all(b >= a for a, b in zip(depths, depths[1:]))
    assert depths[0] == 0
    assert all(d <= 64 for d in depths)


def test_pullback_depth_cap(haar):
    assert pullback_depth(haar, 0, cap=0) == 0
    with pytest.raises(DepthExceededError):
        pullback_depth(haar, 4, cap=2)


def test_pullback_depths_name_first_failing_mode(haar):
    assert pullback_depths(haar, [1, -2, 0]) == {1: 1, -2: 1, 0: 0}
    assert pullback_depths(haar, []) == {}
    with pytest.raises(DepthExceededError, match="mode -8 not absorbed within 2"):
        pullback_depths(haar, range(-8, 9), cap=2)
    with pytest.raises(DepthExceededError, match="mode 8 not absorbed within 2"):
        pullback_depths(haar, range(8, -9, -1), cap=2)


@pytest.mark.parametrize("bank_fn", [haar_bank, lambda: pair_bank(5)])
def test_depths_do_not_depend_on_anchor_basis(bank_fn, rng):
    # a rotated basis spans the same K; its projector reads 1 - 1 = O(eps) on
    # the diagonal, which the factored recursion squares away below tol^2
    bank = bank_fn()
    K = compute_anchor(bank)
    q, _ = np.linalg.qr(rng.normal(size=(K.dimension,) * 2) + 1j * rng.normal(size=(K.dimension,) * 2))
    rotated = AnchorSubspace(K.N, K.genus, K.basis @ q, K.coinvariance_residual)
    modes = range(-16, 17)
    assert pullback_depths(bank, modes, rotated) == pullback_depths(bank, modes, K)


@pytest.mark.parametrize("seed", [1, 3])
def test_random_pair_depths_finite(seed):
    bank = pair_bank(seed)
    K = compute_anchor(bank)
    for n in range(-6, 7):
        assert pullback_depth(bank, n, K) <= 64


# ----------------------------------------------------------------------
# cyclicity


def test_haar_cyclicity(haar):
    report = cyclicity_check(haar, n_range=8)
    assert isinstance(report, CyclicityReport)
    assert report.reconstruction_residual < 1e-10
    assert report.membership_residual < 1e-10
    assert report.depths[0] == 0
    assert report.depths[4] == 3


def test_stretched_cyclicity():
    bank = stretched_haar_bank(with_duals=True)
    report = cyclicity_check(bank, n_range=4)
    assert report.reconstruction_residual < 1e-10
    assert report.membership_residual < 1e-10


@pytest.mark.parametrize("seed", [0, 2])
def test_random_pair_cyclicity(seed):
    bank = pair_bank(seed)
    report = cyclicity_check(bank, n_range=6)
    assert report.reconstruction_residual < 1e-9
    assert report.membership_residual < 1e-9


def test_cyclicity_flags_a_bank_that_does_not_reconstruct():
    # perturbed duals: the anchor and the depths exist, but the fold-back
    # misses each mode and lets mass leave the frames on the way
    base = pair_bank(2)
    bank = FilterBank(2, base.filters, [f + LaurentPoly({0: 0.05}) for f in base.dual_filters])
    K = compute_anchor(bank, check=False)
    report = cyclicity_check(bank, K, n_range=4)
    recon, member = oracle_cyclicity(bank, K, 4)
    assert report.membership_residual == member == 0.0
    assert report.reconstruction_residual > 0.1 and recon > 0.1


@pytest.mark.parametrize(
    "bank_fn", [haar_bank, lambda: stretched_haar_bank(with_duals=True), lambda: pair_bank(2)]
)
@pytest.mark.parametrize("span, n_range", [(12, 8), (8, 8), (5, 3)])
def test_depths_and_cyclicity_build_frames_once(monkeypatch, bank_fn, span, n_range):
    # one frame build per filter set and one depth run give what
    # pullback_depths and cyclicity_check give apart
    bank = bank_fn()
    K = compute_anchor(bank)
    outer = [n for n in range(-span, span + 1) if abs(n) > n_range]
    want_depths = {**cyclicity_check(bank, K, n_range).depths, **pullback_depths(bank, outer, K)}
    want = cyclicity_check(bank, K, n_range).to_json()
    builds, runs = [], []
    frame_matrices, depths = anchor_module._frame_matrices, anchor_module._depths
    monkeypatch.setattr(
        anchor_module, "_frame_matrices", lambda *a: builds.append(1) or frame_matrices(*a)
    )
    monkeypatch.setattr(anchor_module, "_depths", lambda *a: runs.append(1) or depths(*a))
    got_depths, report = depths_and_cyclicity(bank, K, span, n_range)
    assert len(builds) == (1 if bank.is_self_dual else 2) and len(runs) == 1
    assert list(got_depths.items()) == list(want_depths.items())
    assert report.to_json() == want


def test_cyclicity_report_json(haar):
    doc = cyclicity_check(haar, n_range=2).to_json()
    assert set(doc) == {
        "n_range",
        "reconstruction_residual",
        "membership_residual",
        "depths",
    }
    assert doc["depths"]["0"] == 0


# ----------------------------------------------------------------------
# the slanted-matrix recursions against the polynomial oracle

BUILTINS = [
    ("haar", {}),
    ("stretched-haar", {}),
    ("stretched-haar-dual", {}),
    ("identity-loop", {"N": 2}),
    ("identity-loop", {"N": 3}),
    ("identity-loop", {"N": 4}),
    ("random-orthogonal", {}),
    ("random-biorthogonal", {}),
    ("random-causal-pair", {}),
]
RANDOM_FAMILIES = ["random-orthogonal", "random-biorthogonal", "random-causal-pair"]
RANDOM = [
    (RANDOM_FAMILIES[s % 3], {"N": 2 + s // 3 % 3, "seed": s}) for s in range(100)
]


@pytest.mark.parametrize(
    "name, params",
    BUILTINS + RANDOM,
    ids=[name + "".join(f"-{k}{v}" for k, v in p.items()) for name, p in BUILTINS + RANDOM],
)
def test_slanted_recursions_match_polynomial_oracle(name, params):
    bank = builtin_bank(name, params)
    K = outcome(compute_anchor, bank)
    K_ref = outcome(oracle_anchor, bank)
    if isinstance(K_ref, tuple):
        assert K == K_ref
        return
    assert K.dimension == K_ref.dimension
    assert np.allclose(K.basis @ K.basis.conj().T, K_ref.basis @ K_ref.basis.conj().T, atol=1e-12)
    assert abs(K.coinvariance_residual - K_ref.coinvariance_residual) < 1e-12

    loops = _family_loops(bank)
    modes = range(-32, 33)
    for cap in (DEPTH_CAP, 1):
        depths = outcome(pullback_depths, bank, modes, K, cap=cap)
        try:
            expected = {n: oracle_depth(loops, n, K, cap=cap) for n in modes}
        except DepthExceededError as exc:
            expected = (DepthExceededError, str(exc))
        assert depths == expected

    cyc = cyclicity_check(bank, K, n_range=6)
    recon, member = oracle_cyclicity(bank, K, 6)
    assert abs(cyc.reconstruction_residual - recon) < 1e-12
    assert abs(cyc.membership_residual - member) < 1e-12


# ----------------------------------------------------------------------
# far modes, large mode sets and scaled duals against the oracle


@pytest.mark.parametrize(
    "name, params, n",
    [("haar", {}, n) for n in (4096, -4096, 12345, 10**6)]
    + [("random-causal-pair", {"N": 4}, n) for n in (777, -5000, 4096)]
    + [("random-biorthogonal", {"N": 3}, n) for n in (999, -4096)],
)
def test_far_mode_depths_match_oracle(name, params, n):
    # the images of e_n stay on one short frame: a far mode costs
    # O(log |n|) steps of fixed size
    bank = builtin_bank(name, params)
    K = compute_anchor(bank)
    assert pullback_depth(bank, n, K) == oracle_depth(_family_loops(bank), n, K)


def test_many_modes_match_oracle(haar):
    K = compute_anchor(haar)
    depths = pullback_depths(haar, range(-3000, 3001), K)
    loops = _family_loops(haar)
    assert all(depths[n] == oracle_depth(loops, n, K) for n in range(-3000, 3001, 250))


def test_blocks_and_chunks_do_not_change_results(monkeypatch):
    bank = builtin_bank("random-causal-pair", {"N": 3})
    K = compute_anchor(bank)
    depths = pullback_depths(bank, range(-40, 41), K)
    cyc = cyclicity_check(bank, K, n_range=6)
    monkeypatch.setattr(anchor_module, "MODE_BLOCK", 7)
    monkeypatch.setattr(anchor_module, "WORD_BUDGET", 64)
    assert pullback_depths(bank, range(-40, 41), K) == depths
    assert cyclicity_check(bank, K, n_range=6) == cyc


@pytest.mark.parametrize("name, params, n_range", [("haar", {}, 40), ("random-causal-pair", {"N": 3}, 16)])
def test_wide_cyclicity_matches_oracle(name, params, n_range):
    bank = builtin_bank(name, params)
    K = compute_anchor(bank)
    cyc = cyclicity_check(bank, K, n_range=n_range)
    recon, member = oracle_cyclicity(bank, K, n_range)
    assert abs(cyc.reconstruction_residual - recon) < 1e-12
    assert abs(cyc.membership_residual - member) < 1e-12


def scaled_pair(scale):
    # primaries / scale and duals * scale are still a dual pair: the dual
    # family's word images grow like scale^k and the primary family's shrink
    base = builtin_bank("random-biorthogonal", {"N": 2, "seed": 4})
    return FilterBank(
        2, [f * (1 / scale) for f in base.filters], [f * scale for f in base.dual_filters]
    )


@pytest.mark.parametrize("scale", [10.0, 1e3])
def test_scaled_dual_depths_match_oracle(scale):
    # an absolute leak bound reads the size of the images, not their
    # roundoff, and gave depth 5 against the oracle's 6 at scale 10
    bank = scaled_pair(scale)
    K = compute_anchor(bank)
    loops = _family_loops(bank)
    modes = range(-32, 33)
    assert pullback_depths(bank, modes, K) == {n: oracle_depth(loops, n, K) for n in modes}


def test_scaled_dual_cyclicity_matches_oracle():
    bank = scaled_pair(10.0)
    K = compute_anchor(bank)
    cyc = cyclicity_check(bank, K, n_range=6)
    recon, member = oracle_cyclicity(bank, K, 6)
    assert abs(cyc.reconstruction_residual - recon) < 1e-12
    assert abs(cyc.membership_residual - member) < 1e-12

"""Doubled-Gram sampling and the wavelet creation-operator corollary."""

import tracemalloc

import numpy as np
import pytest

from wavefock.corpus import (
    haar_bank,
    random_bank,
    random_biorthogonal_bank,
    stretched_haar_bank,
)
from wavefock.errors import NotReconstructiveError, SingularLoopError
from wavefock.filterbank import FilterBank
from wavefock.fock import creation_matrices
from wavefock.laurent import LaurentPoly
from wavefock.wavelet_fock import Cor6Report, cor6_check, sampled_choi


def pair_bank(seed):
    return random_biorthogonal_bank(2, np.random.default_rng(seed))


def eigenvalue_structure_residual(sw) -> float:
    """Nonzero spectrum per point is {lam + 1/lam} over eigenvalues of AA*."""
    s = sw.gram.samples
    lam = np.linalg.eigvalsh((s + s.conj().transpose(0, 2, 1)) / 2)
    predicted = np.sort(np.concatenate([lam + 1.0 / lam, np.zeros_like(lam)], axis=1), axis=1)
    # the block matrix's layers are its grid points, in grid order
    return float(np.abs(sw.choi.report.eigenvalues - predicted).max())


def layer(sw, t: int) -> np.ndarray:
    """The 2N x 2N matrix at grid point t, read off the diagonal blocks."""
    return sw.choi.blocks()[:, :, t, t]


def layer_ranks(sw) -> list:
    return sw.choi.report.kept.sum(axis=1).tolist()


# ----------------------------------------------------------------------
# sampling the doubled Gram


def test_haar_sampled_points(haar):
    sw = sampled_choi(haar, grid_size=8)
    eye2 = np.eye(2)
    expected = np.block([[eye2, eye2], [eye2, eye2]])
    for t in range(8):
        assert np.allclose(layer(sw, t), expected, atol=1e-12)
    assert layer_ranks(sw) == [2] * 8
    assert sw.letters == 4


def test_stretched_sampled_points():
    bank = stretched_haar_bank(with_duals=True)
    sw = sampled_choi(bank, grid_size=8)
    eye4 = np.eye(4)
    expected = np.block([[2 * eye4, eye4], [eye4, 0.5 * eye4]])
    for t in range(8):
        assert np.allclose(layer(sw, t), expected, atol=1e-12)
    assert layer_ranks(sw) == [4] * 8


@pytest.mark.parametrize("seed", range(6))
def test_random_pair_sampled(seed):
    sw = sampled_choi(pair_bank(seed), grid_size=8)
    assert sw.choi.report.min_eigenvalue >= -1e-10
    assert layer_ranks(sw) == [2] * 8


@pytest.mark.parametrize(
    "bank_fn",
    [
        haar_bank,
        lambda: stretched_haar_bank(with_duals=True),
        lambda: pair_bank(3),
    ],
)
def test_eigenvalue_structure(bank_fn):
    sw = sampled_choi(bank_fn(), grid_size=16)
    assert eigenvalue_structure_residual(sw) < 1e-9


def test_point_extraction(haar):
    # each grid point is one layer: [[AA*, I], [I, (AA*)^-1]] sampled there,
    # with the spectrum the report holds for that layer
    sw = sampled_choi(haar, grid_size=4)
    eye = np.eye(2)
    for t in range(4):
        point = np.block([[sw.gram.samples[t], eye], [eye, sw.gram.inverses[t]]])
        assert np.allclose(layer(sw, t), point)
        assert np.allclose(sw.choi.report.eigenvalues[t], np.linalg.eigvalsh(point))


def test_block_choi_layout(haar):
    sw = sampled_choi(haar, grid_size=4)
    P = sw.choi
    assert P.N == 4 and P.d == 4
    # diagonal blocks are stored as the layer stack, with W = I by type
    assert P.general is None and P.layers.shape == (4, 4, 4)
    assert sw.choi.report.W is None
    assert np.array_equal(sw.choi.report.base_vectors(np.arange(4)), np.eye(4))
    # diagonal blocks carry the per-point samples
    for a in range(4):
        for b in range(4):
            block = P.blocks()[a, b]
            assert np.allclose(np.diag(np.diagonal(block)), block, atol=0)
            assert np.allclose(np.diagonal(block), [layer(sw, t)[a, b] for t in range(4)])


def test_singular_loop_propagates():
    m = LaurentPoly({0: 1.0, 1: 1.0})
    with pytest.raises(SingularLoopError):
        sampled_choi(FilterBank(2, [m, m]), check=False)


def test_verdict_required(rng):
    with pytest.raises(NotReconstructiveError):
        sampled_choi(random_bank(2, rng))


# ----------------------------------------------------------------------
# the creation-operator corollary


def test_cor6_haar(haar):
    rep = cor6_check(haar, grid_size=8, K=2)
    assert isinstance(rep, Cor6Report)
    assert rep.ops.fock.quotient_dims == [8, 16, 32]
    assert rep.primary_residual < 1e-10
    assert rep.dual_residual < 1e-10
    assert rep.cross_residual < 1e-10
    assert rep.norm_law_residual < 1e-10
    assert rep.residual < 1e-10


def test_cor6_haar_isometries(haar):
    # orthogonal bank: AA* = I, so every letter acts isometrically
    sw = sampled_choi(haar, grid_size=8)
    ops = creation_matrices(sw.choi, 2)
    for k in range(2):
        for a in range(4):
            prod = ops.op(a, k).conj().T @ ops.op(a, k)
            assert np.allclose(prod, np.eye(prod.shape[0]), atol=1e-10)


def test_cor6_stretched():
    bank = stretched_haar_bank(with_duals=True)
    rep = cor6_check(bank, grid_size=8, K=2)
    assert rep.ops.fock.quotient_dims == [8, 32, 128]
    assert rep.residual < 1e-9

    sw = sampled_choi(bank, grid_size=8)
    ops = creation_matrices(sw.choi, 2)
    eye = np.eye(8)
    for i in range(4):
        prim = ops.op(i, 0).conj().T @ ops.op(i, 0)
        assert np.allclose(prim, 2 * eye, atol=1e-10)
        du = ops.op(4 + i, 0).conj().T @ ops.op(4 + i, 0)
        assert np.allclose(du, 0.5 * eye, atol=1e-10)
        cross = ops.op(4 + i, 0).conj().T @ ops.op(i, 0)
        assert np.allclose(cross, eye, atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_cor6_random_pairs(seed):
    rep = cor6_check(pair_bank(seed), grid_size=8, K=2)
    assert rep.residual < 1e-9
    assert rep.ops.well_definedness_residual < 1e-10
    assert rep.ops.fock.quotient_dims[0] == 8


def test_cor6_runs_one_eigh_on_the_layers(monkeypatch):
    # the doubled Gram is judged once, on its (grid, 2N, 2N) layer stack;
    # no eigensolver sees the (2N grid)^2 block matrix
    shapes = []

    def spy(solver):
        def run(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solver(a, *args, **kwargs)

        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    cor6_check(pair_bank(1), grid_size=8, K=2)
    assert shapes == [(8, 4, 4)]


def test_cor6_memory_grows_with_the_layers_not_the_block_matrix():
    # grid 512 on four letters per family: the dense block matrix would be
    # (8 * 512)^2 complex entries, 256 MiB; the layer stack is 0.5 MiB
    bank = stretched_haar_bank(with_duals=True)
    tracemalloc.start()
    try:
        rep = cor6_check(bank, grid_size=512, K=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.residual < 1e-9
    assert peak < 32 * 2**20


def _cor6_oracle(bank, grid_size, K):
    """Per-pair vacuum residuals and norm law against the sampled Gram."""
    sw = sampled_choi(bank, grid_size)
    rep = cor6_check(bank, grid_size, K)
    ops, N, g = rep.ops, bank.N, grid_size

    def vac(a, b):
        return ops.op(a, 0).conj().T @ ops.op(b, 0)

    primary = dual = cross = norm_law = 0.0
    for i in range(N):
        for j in range(N):
            target = np.diag(sw.gram.samples[:, i, j])
            primary = max(primary, np.linalg.norm(vac(i, j) - target, 2))
            target = np.diag(sw.gram.inverses[:, i, j])
            dual = max(dual, np.linalg.norm(vac(N + i, N + j) - target, 2))
            eye = float(i == j) * np.eye(g)
            cross = max(
                cross,
                np.linalg.norm(vac(N + i, j) - eye, 2),
                np.linalg.norm(vac(i, N + j) - eye, 2),
            )
        for letter, values in ((i, sw.gram.samples), (N + i, sw.gram.inverses)):
            sup = np.sqrt(np.max(values[:, i, i].real))
            got = max(np.linalg.norm(ops.op(letter, k), 2) for k in range(K))
            norm_law = max(norm_law, abs(got - sup))
    return rep, (primary, dual, cross, norm_law)


@pytest.mark.parametrize(
    "bank_fn",
    [haar_bank, lambda: stretched_haar_bank(with_duals=True), lambda: pair_bank(4)],
)
def test_cor6_matches_per_pair_oracle(bank_fn):
    rep, want = _cor6_oracle(bank_fn(), 8, 2)
    got = (rep.primary_residual, rep.dual_residual, rep.cross_residual, rep.norm_law_residual)
    assert got == pytest.approx(want, abs=1e-12)


def test_cor6_report_json(haar):
    doc = cor6_check(haar, grid_size=4, K=2).to_json()
    assert doc["grid_size"] == 4
    assert doc["K"] == 2
    assert doc["residual"] < 1e-9
    assert doc["quotient_dims"][0] == 4

"""Level Grams, quotients, and creation operators on block-matrix Fock spaces."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavefock import acceptance, cli
from wavefock.corpus import (
    builtin_bank,
    choi_collapse,
    choi_identity,
    random_biorthogonal_bank,
    random_commuting_choi,
    random_psd_choi,
    stretched_haar_bank,
)
from wavefock.errors import NotPsdError, SizeCapError
from wavefock.fock import (
    ChoiMatrix,
    creation_matrices,
    level_gram,
    level_kernel,
    truncated_fock,
    tstar_t_check,
    validate_choi,
)
from wavefock.filterbank import FilterBank
from wavefock.wavelet_fock import cor6_check, sampled_choi

from oracles import (
    dense_cor6_check,
    dense_creation,
    dense_tstar_t_check,
    dense_validate_choi,
    per_vector_spanning_residual,
    word_factor,
    word_quotient,
)


def scalar_choi(matrix) -> ChoiMatrix:
    return ChoiMatrix.from_matrix(np.asarray(matrix, dtype=complex))


def kron_power(m: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, m)
    return out


# ----------------------------------------------------------------------
# the block matrix and its validation


def test_choi_identity_report():
    rep = validate_choi(scalar_choi(choi_identity(3)))
    assert rep.rank == 3
    assert rep.norm == pytest.approx(1.0)
    assert rep.kernel.shape[1] == 0
    assert not rep.warning
    assert rep.hermiticity_residual == 0.0


def test_choi_collapse_report():
    rep = validate_choi(scalar_choi(choi_collapse(2)))
    assert rep.rank == 2
    assert rep.kernel.shape[1] == 2
    assert rep.norm == pytest.approx(2.0)


def test_choi_negative_definite_rejected():
    with pytest.raises(NotPsdError):
        validate_choi(scalar_choi(-np.eye(2)))


def test_choi_warning_band():
    rep = validate_choi(scalar_choi(np.diag([1.0, -5e-9])))
    assert rep.warning
    assert rep.min_eigenvalue == pytest.approx(-5e-9)


def test_choi_blocks_view():
    m = np.arange(16, dtype=float).reshape(4, 4)
    P = ChoiMatrix.from_matrix(m, d=2)
    assert np.array_equal(P.blocks()[0, 1], m[0:2, 2:4])
    assert np.array_equal(P.blocks()[1, 0], m[2:4, 0:2])


def test_choi_json_round_trip():
    m = np.array([[2.0, 1j], [-1j, 3.0]])
    P = scalar_choi(m)
    doc = P.to_json()
    back = ChoiMatrix.from_json(doc)
    assert back.N == 2 and back.d == 1
    assert np.allclose(back.matrix, m)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"N": 2, "d": 1},
        {"N": 2, "d": 1, "blocks": [[[1, 0]]]},
        {"N": 2, "d": 1, "blocks": [[[1], [0]], [[0], [1]]]},
    ],
)
def test_choi_json_malformed(doc):
    with pytest.raises(ValueError):
        ChoiMatrix.from_json(doc)


def test_choi_shape_validation():
    doc = ChoiMatrix.from_matrix(np.eye(3)).to_json()
    with pytest.raises(ValueError):
        ChoiMatrix.from_json({**doc, "N": 2, "d": 2})
    with pytest.raises(ValueError):
        ChoiMatrix.from_matrix(np.eye(3), d=2)


# ----------------------------------------------------------------------
# level Grams


def test_identity_gram_is_identity():
    P = scalar_choi(choi_identity(2))
    assert np.array_equal(level_gram(P, 3), np.eye(8))


def test_collapse_gram_level_one():
    P = scalar_choi(choi_collapse(2))
    G = level_gram(P, 1)
    assert np.array_equal(G, P.matrix)
    assert np.linalg.matrix_rank(G) == 2


@pytest.mark.parametrize("seed", range(20))
def test_scalar_gram_matches_kronecker_power(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 4))
    rank = int(rng.integers(1, N + 1))
    P = scalar_choi(random_psd_choi(N, rank, rng))
    for k in range(4):
        assert np.allclose(level_gram(P, k), kron_power(P.matrix, k), atol=1e-13)


def test_gram_level_zero_is_base_identity():
    P = ChoiMatrix.from_matrix(random_commuting_choi(2, 3, np.random.default_rng(1)), d=3)
    assert np.array_equal(level_gram(P, 0), np.eye(3))


def test_gram_size_cap():
    P = scalar_choi(choi_identity(2))
    with pytest.raises(SizeCapError):
        level_gram(P, 4, size_cap=8)
    with pytest.raises(ValueError):
        level_gram(P, -1)


def test_gram_noncommuting_blocks_abort():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = ChoiMatrix.from_matrix(x @ x.conj().T, d=2)
    with pytest.raises(NotPsdError):
        level_gram(P, 2)


@pytest.mark.parametrize("seed", range(4))
def test_gram_noncommuting_blocks_not_hermitian(seed):
    # the abort comes from the Hermiticity drift at level 2, not from the
    # eigenvalue check after it; commuting blocks pass the same drift test
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NotPsdError, match="level 2 Gram is not Hermitian"):
        level_gram(ChoiMatrix.from_matrix(x @ x.conj().T, d=2), 2)
    level_gram(ChoiMatrix.from_matrix(random_commuting_choi(2, 2, rng), d=2), 3)


@pytest.mark.parametrize("seed", range(6))
def test_gram_psd_for_valid_input(seed):
    rng = np.random.default_rng(seed)
    P = scalar_choi(random_psd_choi(3, 2, rng, scale=1.7))
    for k in range(1, 4):
        lo = float(np.linalg.eigvalsh(level_gram(P, k))[0])
        assert lo >= -1e-9 * np.linalg.norm(P.matrix, 2) ** k


# ----------------------------------------------------------------------
# kernels


def test_collapse_kernel_vectors():
    P = scalar_choi(choi_collapse(2))
    rep = level_kernel(P, 1)
    assert rep.dim == 2
    assert rep.predicted_dim == 2
    assert rep.matches_prediction
    G = level_gram(P, 1)
    for i in range(2):
        v = np.zeros(4)
        v[i], v[i + 2] = 1.0, -1.0
        assert np.linalg.norm(G @ v) < 1e-12


def test_identity_kernel_trivial():
    P = scalar_choi(choi_identity(3))
    for k in range(4):
        rep = level_kernel(P, k)
        assert rep.dim == 0
        assert rep.predicted_dim == 0


@pytest.mark.parametrize("seed", range(10))
def test_scalar_kernel_dimension_law(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 5))
    r = int(rng.integers(1, N))
    P = scalar_choi(random_psd_choi(N, r, rng))
    for k in range(1, 4):
        if N**k > 256:
            break
        rep = level_kernel(P, k, rng=rng)
        assert rep.dim == N**k - r**k
        assert rep.matches_prediction
        assert rep.spanning_residual < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_spanning_residual_matches_per_vector_oracle(seed):
    # one batched draw is the per-vector stream in the same order: the same
    # residual, and the rng left where the next criterion expects it
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 5))
    r = int(rng.integers(1, N + 1))  # r = N: no kernel, nothing drawn
    P = scalar_choi(random_psd_choi(N, r, rng))
    for k in (1, 2, 3):
        ours, theirs = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        got = level_kernel(P, k, rng=ours).spanning_residual
        want = per_vector_spanning_residual(P, k, theirs)
        assert abs(got - want) <= 1e-15
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_spanning_residual_pairs_draws_as_the_oracle(monkeypatch):
    # on true kernel columns the residual is roundoff; on arbitrary columns
    # it is O(1) and tells which draw went into which factor
    from wavefock.fock import ChoiReport

    rng = np.random.default_rng(4)
    P = scalar_choi(random_psd_choi(3, 3, rng))
    cols = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    monkeypatch.setattr(ChoiReport, "kernel", property(lambda self: cols))
    for k in (1, 2, 3):
        got = level_kernel(P, k, rng=np.random.default_rng(k)).spanning_residual
        want = per_vector_spanning_residual(P, k, np.random.default_rng(k))
        assert got > 0.1 and got == pytest.approx(want, rel=1e-12)


def test_kernel_no_prediction_for_blocks():
    P = ChoiMatrix.from_matrix(random_commuting_choi(2, 2, np.random.default_rng(3)), d=2)
    rep = level_kernel(P, 2)
    assert rep.predicted_dim is None
    assert rep.matches_prediction is None


# ----------------------------------------------------------------------
# quotients


def test_identity_quotient_full():
    P = scalar_choi(choi_identity(2))
    V, G = word_quotient(truncated_fock(P, 2), 2), level_gram(P, 2)
    assert V.shape == (4, 4)
    assert np.allclose(V.conj().T @ G @ V, np.eye(4), atol=1e-12)


def test_collapse_quotient_dims():
    P = scalar_choi(choi_collapse(2))
    for k in range(4):
        V, G = word_quotient(truncated_fock(P, k), k), level_gram(P, k)
        assert V.shape[1] == 2**k
        assert np.allclose(V.conj().T @ G @ V, np.eye(2**k), atol=1e-11)


@pytest.mark.parametrize("seed", range(6))
def test_random_quotient_rank(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    P = scalar_choi(random_psd_choi(4, r, rng))
    V, G = word_quotient(truncated_fock(P, 2), 2), level_gram(P, 2)
    assert V.shape[1] == r**2
    assert np.allclose(V.conj().T @ G @ V, np.eye(r**2), atol=1e-10)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
def test_quotient_dims_scale_invariant(scale):
    # the rank cutoff is relative to each level's norm, so a positive
    # definite input keeps full rank at every level whatever its scale
    fock = truncated_fock(scalar_choi(scale * np.eye(2)), 4)
    assert fock.quotient_dims == [1, 2, 4, 8, 16]
    assert fock.to_json()["kernel_dims"] == [0] * 5


# ----------------------------------------------------------------------
# creation operators


def _oracle_cases():
    rng = np.random.default_rng(11)
    bank = sampled_choi(stretched_haar_bank(with_duals=True), grid_size=4)
    return {
        "scalar": scalar_choi(random_psd_choi(3, 2, rng)),
        "commuting": ChoiMatrix.from_matrix(random_commuting_choi(2, 3, rng), d=3),
        "sampled-bank": bank.choi,
    }


@pytest.mark.parametrize("case", ["scalar", "commuting", "sampled-bank"])
def test_level_grams_match_level_gram(case):
    # the factor F_k = V_k* G_k, lifted from the letters, carries the Gram:
    # F_k* F_k = G_k up to the eigenvalues under the rank cutoff
    P = _oracle_cases()[case]
    fock = truncated_fock(P, 2)
    for k, lvl in enumerate(fock.levels):
        F = word_factor(fock, k)
        assert F.shape == (lvl.q, lvl.q + lvl.kernel_dim)
        assert np.abs(F.conj().T @ F - level_gram(P, k)).max() <= 1e-12
        assert np.allclose(F @ word_quotient(fock, k), np.eye(lvl.q), atol=1e-12)


@pytest.mark.parametrize("case", ["scalar", "commuting", "sampled-bank"])
def test_creation_matches_embedding_oracle(case):
    # dense reference: E_i embeds level-k coordinates as the level-(k+1)
    # words that start with letter i
    P = _oracle_cases()[case]
    ops = creation_matrices(P, 2)
    worst = 0.0
    for k in range(2):
        V, V_next = word_quotient(ops.fock, k), word_quotient(ops.fock, k + 1)
        G, G_next = level_gram(P, k), level_gram(P, k + 1)
        size = G.shape[0]
        eigvals, eigvecs = np.linalg.eigh(G)
        kernel = eigvecs[:, eigvals <= 1e-10 * eigvals[-1]]
        for i in range(P.N):
            E = np.zeros((P.N * size, size))
            E[i * size : (i + 1) * size, :] = np.eye(size)
            expected = V_next.conj().T @ G_next @ E @ V
            assert np.linalg.norm(ops.op(i, k) - expected, 2) < 1e-12
            if kernel.shape[1]:
                img = E @ kernel
                sq = np.einsum("ij,ik,kj->j", img.conj(), G_next, img).real
                worst = max(worst, float(np.abs(sq).max()))
    assert abs(ops.well_definedness_residual - worst) < 1e-12


def test_identity_creation_isometries():
    P = scalar_choi(choi_identity(2))
    ops = creation_matrices(P, 3)
    assert ops.fock.quotient_dims == [1, 2, 4, 8]
    for k in range(3):
        for i in range(2):
            prod = ops.op(i, k).conj().T @ ops.op(i, k)
            assert np.allclose(prod, np.eye(prod.shape[0]), atol=1e-12)
        cross = ops.op(0, k).conj().T @ ops.op(1, k)
        assert np.linalg.norm(cross, 2) < 1e-12


def test_identity_range_completeness():
    # sum_i T_i T_i* = I on levels 1..K-1: every word starts with one letter
    P = scalar_choi(choi_identity(2))
    ops = creation_matrices(P, 3)
    for k in (1, 2):
        total = sum(
            ops.op(i, k - 1) @ ops.op(i, k - 1).conj().T for i in range(2)
        )
        assert np.allclose(total, np.eye(2**k), atol=1e-12)


def test_collapse_creation_pairs():
    P = scalar_choi(choi_collapse(2))
    ops = creation_matrices(P, 3)
    assert ops.fock.quotient_dims == [1, 2, 4, 8]
    assert ops.well_definedness_residual < 1e-10
    for k in range(3):
        for i in range(2):
            diff = ops.op(i, k) - ops.op(i + 2, k)
            assert np.linalg.norm(diff, 2) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_creation_kernel_preservation(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 4))
    r = int(rng.integers(1, N + 1))
    P = scalar_choi(random_psd_choi(N, r, rng))
    ops = creation_matrices(P, 3)
    assert ops.well_definedness_residual < 1e-10


def test_creation_caps():
    P = scalar_choi(choi_identity(2))
    with pytest.raises(SizeCapError):
        creation_matrices(P, 13)


# ----------------------------------------------------------------------
# T*T relations


def test_identity_tstar_t():
    P = scalar_choi(choi_identity(3))
    rep = tstar_t_check(creation_matrices(P, 2))
    assert rep.vacuum_residual < 1e-12
    assert rep.general_residual < 1e-12
    assert rep.commuting
    assert rep.norm_law_residual < 1e-12
    assert rep.norm_law_argmax == 0


def test_diagonal_tstar_t_norms():
    P = scalar_choi(np.diag([4.0, 1.0]))
    ops = creation_matrices(P, 3)
    rep = tstar_t_check(ops)
    assert rep.vacuum_residual == 0.0
    assert rep.norm_law_residual < 1e-12
    assert rep.norm_law_argmax == 0
    top = max(np.linalg.norm(ops.op(0, k), 2) for k in range(3))
    assert top == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_commuting_blocks_tstar_t(seed):
    rng = np.random.default_rng(seed)
    P = ChoiMatrix.from_matrix(random_commuting_choi(2, 2, rng), d=2)
    rep = tstar_t_check(creation_matrices(P, 3))
    assert rep.commuting
    assert rep.vacuum_residual < 1e-9
    assert rep.general_residual < 1e-9
    assert rep.norm_law_residual < 1e-9
    assert rep.gram_norm_gap < 1e-9
    assert rep.attainment_gap is None


@pytest.mark.parametrize("seed", range(8))
def test_scalar_norm_bound_attained(seed):
    rng = np.random.default_rng(seed)
    P = scalar_choi(random_psd_choi(3, 3, rng, scale=1.3))
    rep = tstar_t_check(creation_matrices(P, 3))
    assert rep.gram_norm_gap < 1e-9
    assert rep.attainment_gap < 1e-9


def _tstar_oracle(ops, P):
    """Per-pair T*T residuals with the dense I (x) p_ij target."""
    N = P.N
    vacuum = general = 0.0
    for i in range(N):
        for j in range(N):
            prod = ops.op(i, 0).conj().T @ ops.op(j, 0)
            vacuum = max(vacuum, np.linalg.norm(prod - P.blocks()[i, j], 2))
            for k in range(ops.K):
                V = word_quotient(ops.fock, k)
                kron = np.kron(np.eye(N**k), P.blocks()[i, j])
                target = V.conj().T @ level_gram(P, k) @ kron @ V
                prod_k = ops.op(i, k).conj().T @ ops.op(j, k)
                general = max(general, np.linalg.norm(prod_k - target, 2))
    blocks = [P.blocks()[i, j] for i in range(N) for j in range(N)]
    commuting = all(
        np.linalg.norm(a @ b - b @ a, 2) <= 1e-10 for a in blocks for b in blocks
    )
    diag = [
        [np.linalg.norm(ops.op(i, k).conj().T @ ops.op(i, k), 2) for k in range(ops.K)]
        for i in range(N)
    ]
    return vacuum, general, commuting, diag


@pytest.mark.parametrize("case", ["scalar", "commuting", "sampled-bank", "noncommuting"])
def test_tstar_matches_dense_oracle(case):
    if case == "noncommuting":
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = ChoiMatrix.from_matrix(b @ b.conj().T, d=2)
        ops = creation_matrices(P, 1)
    else:
        P = _oracle_cases()[case]
        ops = creation_matrices(P, 2)
    rep = tstar_t_check(ops)
    vacuum, general, commuting, diag = _tstar_oracle(ops, P)
    assert abs(rep.vacuum_residual - vacuum) < 1e-12
    assert abs(rep.general_residual - general) < 1e-12
    assert rep.commuting == commuting == (case != "noncommuting")
    if commuting:
        want = max(
            abs(max(diag[i]) - np.linalg.norm(P.blocks()[i, i], 2)) for i in range(P.N)
        )
        assert abs(rep.norm_law_residual - want) < 1e-12


def test_tstar_t_report_json():
    P = scalar_choi(choi_identity(2))
    doc = tstar_t_check(creation_matrices(P, 2)).to_json()
    assert doc["commuting"] is True
    assert doc["vacuum_residual"] < 1e-12


# ----------------------------------------------------------------------
# basis change


def basis_change_equivalence(P: ChoiMatrix, U: np.ndarray, K: int = 2) -> float:
    """Residual of the unitary equivalence under a letter basis change.

    P' = (U (x) I_d) P (U* (x) I_d); level-wise U^{(x)k} (x) I_d compresses
    to a quotient unitary Q_k = V'_k* G'_k (U^{(x)k} (x) I_d) V_k, and
    Q_{k+1} T_i = sum_a U_{ai} T'_a Q_k.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (P.N, P.N):
        raise ValueError("U must act on the letter index")
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(P.N), 2))
    if defect > 1e-10:
        raise ValueError(f"U is not unitary: U*U differs from I by {defect:.3e}")
    Pp = ChoiMatrix.from_matrix(
        np.kron(U, np.eye(P.d)) @ P.matrix @ np.kron(U.conj().T, np.eye(P.d)), d=P.d
    )
    ops = creation_matrices(P, K)
    ops_p = creation_matrices(Pp, K)
    residual = 0.0
    Q, W = [], np.eye(1, dtype=complex)
    for k in range(K + 1):
        omega = np.kron(W, np.eye(P.d))
        Q.append(word_factor(ops_p.fock, k) @ omega @ word_quotient(ops.fock, k))
        eye_defect = np.linalg.norm(Q[k].conj().T @ Q[k] - np.eye(Q[k].shape[1]), 2)
        residual = max(residual, float(eye_defect))
        W = np.kron(W, U)
    for k in range(K):
        T, T_p = (np.stack([o.op(i, k) for i in range(P.N)]) for o in (ops, ops_p))
        rhs = np.einsum("ai,axy->ixy", U, T_p) @ Q[k]
        err = np.linalg.norm(Q[k + 1] @ T - rhs, 2, axis=(-2, -1))
        residual = max(residual, float(err.max()))
    return residual


def test_basis_change_identity_exact():
    P = scalar_choi(choi_identity(2))
    assert basis_change_equivalence(P, np.eye(2)) < 1e-12


def test_basis_change_fourier_on_identity():
    P = scalar_choi(choi_identity(2))
    F = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert basis_change_equivalence(P, F, K=2) < 1e-9
    # the recombined tuple is still a family of isometries with orthogonal
    # ranges: the transformed block matrix is again the identity
    Pp = scalar_choi(F @ P.matrix @ F.conj().T)
    ops = creation_matrices(Pp, 2)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                prod = ops.op(i, k).conj().T @ ops.op(j, k)
                expect = np.eye(prod.shape[0]) if i == j else 0
                assert np.allclose(prod, expect, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_basis_change_seeded(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 4))
    P = scalar_choi(random_psd_choi(N, N, rng))
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, r = np.linalg.qr(z)
    U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    assert basis_change_equivalence(P, U, K=2) < 1e-9


def test_basis_change_rejects_nonunitary():
    P = scalar_choi(choi_identity(2))
    with pytest.raises(ValueError, match="U is not unitary"):
        basis_change_equivalence(P, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="U must act on the letter index"):
        basis_change_equivalence(P, np.eye(3))


# ----------------------------------------------------------------------
# the truncated space


def test_truncated_fock_report():
    P = scalar_choi(choi_collapse(2))
    fock = truncated_fock(P, 2)
    doc = fock.to_json()
    assert doc["quotient_dims"] == [1, 2, 4]
    assert doc["kernel_dims"] == [0, 2, 12]
    assert doc["K"] == 2


# ----------------------------------------------------------------------
# layered levels against the dense oracle


def _load_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_inputs():
    """(name, P, K) for each class of the `fock` benchmark workload."""
    gen = _load_gen()
    rng = np.random.default_rng(5)
    cases = []
    for kind, N, rank in [
        ("cuntz", 3, 3), ("collapse", 2, 2), ("random-psd", 2, 1),
        ("random-psd", 3, 2), ("random-psd", 4, 3),
    ]:
        matrix, _ = gen.scalar_choi(kind, N, rank, rng)
        cases.append((f"{kind}-{N}", ChoiMatrix.from_matrix(matrix), 3))
    for N, d, ranks in [(2, 2, [1, 2]), (3, 3, [3, 1, 2]), (3, 4, [1, 3, 2, 1]), (4, 2, [2, 4])]:
        matrix = gen.commuting_choi(N, d, ranks, rng)
        cases.append((f"commuting-{N}x{d}", ChoiMatrix.from_matrix(matrix, d=d), 3))
    for family, grid in [("orthogonal", 8), ("biorthogonal", 8), ("biorthogonal", 12)]:
        bank = FilterBank.from_json(gen.Bank.random(family, 2, rng).json())
        cases.append((f"{family}-grid{grid}", sampled_choi(bank, grid).choi, 2))
    # stretched-haar-dual at grid 8 runs through test_cor6_matches_dense_oracle
    return cases


BENCHMARK_INPUTS = _benchmark_inputs()


def _validation_inputs():
    """(name, P) for every `fock` input class: the benchmark inputs, a
    noncommuting d = 2 matrix, d = 2 blocks built with W = I (from real and
    from complex layers) and with a random W, and sampled banks at grid 16."""
    gen = _load_gen()
    rng = np.random.default_rng(6)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cases = [(name, P) for name, P, _ in BENCHMARK_INPUTS]
    cases.append(("noncommuting-2x2", ChoiMatrix.from_matrix(b @ b.conj().T, d=2)))
    # diagonal blocks, W = I: the stored layers commute by type, the
    # oracle's einsum products exactly, for real and for complex layers
    g = [rng.standard_normal((3, r)) for r in (2, 3)]
    cases.append(("diagonal-3x2", _diagonal_choi([x @ x.T for x in g])))
    matrix = gen.commuting_choi(3, 2, [2, 1], rng)
    cases.append(("commuting-3x2", ChoiMatrix.from_matrix(matrix, d=2)))
    bank = FilterBank.from_json(gen.Bank.random("biorthogonal", 2, rng).json())
    cases.append(("biorthogonal-grid16", sampled_choi(bank, 16).choi))
    for grid in (8, 16):
        bank = builtin_bank("stretched-haar-dual", {})
        cases.append((f"stretched-haar-dual-grid{grid}", sampled_choi(bank, grid).choi))
    # complex layers drawn as for the benchmark's commuting inputs
    cases.append(("diagonal-complex-3x2", _diagonal_choi([gen._psd(3, r, rng) for r in (2, 3)])))
    return cases


def _diagonal_choi(layers) -> ChoiMatrix:
    """Blocks p_ij = diag(layers[s][i, j] over s): d = len(layers), W = I."""
    N, d = len(layers[0]), len(layers)
    m = np.zeros((N, d, N, d), dtype=complex)
    for s, layer in enumerate(layers):
        m[:, s, :, s] = layer
    return ChoiMatrix.from_matrix(m.reshape(N * d, N * d), d=d)


VALIDATION_INPUTS = _validation_inputs()
DENSE = {}


def _oracle_pair(name, P):
    """(creation_matrices, dense_creation) at the deepest K <= 3 whose top
    dense level has at most 512 word vectors; noncommuting inputs stop at 1."""
    if name not in DENSE:
        K = 1 if name.startswith("noncommuting") else max(
            k for k in (1, 2, 3) if P.N**k * P.d <= 1024
        )
        DENSE[name] = (creation_matrices(P, K), dense_creation(P, K))
    return DENSE[name]


@pytest.mark.parametrize("name,P", VALIDATION_INPUTS, ids=[c[0] for c in VALIDATION_INPUTS])
def test_layered_levels_match_dense_oracle(name, P):
    ops, dense = _oracle_pair(name, P)
    fock, ref = ops.fock.to_json(), dense.fock.to_json()
    assert fock["quotient_dims"] == ref["quotient_dims"]
    assert fock["kernel_dims"] == ref["kernel_dims"]
    for got, want in zip(fock["gram_norms"], ref["gram_norms"]):
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert abs(ops.well_definedness_residual - dense.well_definedness_residual) <= 1e-12
    rep, rep_ref = tstar_t_check(ops), dense_tstar_t_check(dense)
    assert rep.commuting is rep_ref.commuting is (not name.startswith("noncommuting"))
    for key in ("vacuum_residual", "general_residual", "norm_law_residual", "gram_norm_gap"):
        if getattr(rep_ref, key) is None:
            assert getattr(rep, key) is None, key
        else:
            assert abs(getattr(rep, key) - getattr(rep_ref, key)) <= 1e-12, key
    assert rep.norm_law_argmax == rep_ref.norm_law_argmax
    if P.d == 1:
        assert abs(rep.attainment_gap - rep_ref.attainment_gap) <= 1e-12


def _takes_layers(name: str, P: ChoiMatrix) -> bool:
    return P.d == 1 or "grid" in name or name.startswith("diagonal")


@pytest.mark.parametrize("name,P", VALIDATION_INPUTS, ids=[c[0] for c in VALIDATION_INPUTS])
def test_stored_form_follows_the_blocks(name, P):
    # diagonal blocks are kept as their layer stack, all others as blocks;
    # both views agree with the dense matrix
    blocks = P.blocks()
    diagonal = np.array_equal(blocks * np.eye(P.d), blocks)
    assert diagonal is _takes_layers(name, P) is (P.layers is not None) is (P.general is None)
    assert np.array_equal(blocks.transpose(0, 2, 1, 3).reshape(P.N * P.d, -1), P.matrix)
    if diagonal:
        assert np.array_equal(np.diagonal(blocks, axis1=2, axis2=3).transpose(2, 0, 1), P.layers)
    assert (P.report.W is None) is diagonal
    back = ChoiMatrix.from_json(P.to_json())
    assert np.array_equal(back.matrix, P.matrix) and (back.layers is None) is (P.layers is None)


@pytest.mark.parametrize("name,P", VALIDATION_INPUTS, ids=[c[0] for c in VALIDATION_INPUTS])
def test_norm_law_target_matches_svd(name, P):
    # diagonal blocks (d = 1, sampled Grams) read ||p_ii|| as their largest
    # |diagonal entry|; the result stays within 1e-15 of the SVD target
    ops = creation_matrices(P, 1)
    rep = tstar_t_check(ops)
    if not rep.commuting:
        assert rep.norm_law_residual is None
        return
    blocks, letters = P.blocks(), np.arange(P.N)
    diagonal = np.array_equal(blocks * np.eye(P.d), blocks)
    assert diagonal is _takes_layers(name, P)
    svd = np.linalg.norm(blocks[letters, letters], 2, axis=(-2, -1))
    if diagonal:
        read = np.abs(np.diagonal(blocks[letters, letters], axis1=-2, axis2=-1)).max(axis=-1)
        assert np.abs(read - svd).max() <= 1e-15 * svd.max()
    got = ops.layer_products()[:, letters, letters].real.max(axis=0)
    assert abs(rep.norm_law_residual - np.abs(got - svd).max()) <= 1e-15 * max(1.0, svd.max())


def _singular_values(m):
    return np.linalg.svd(m, compute_uv=False)


@pytest.mark.parametrize("name,P", VALIDATION_INPUTS, ids=[c[0] for c in VALIDATION_INPUTS])
def test_creation_ops_match_dense_oracle(name, P):
    # the layered and dense quotient bases differ by a unitary on each level,
    # so compare what does not see it: the singular values of each T_i and
    # of each T_i* T_j
    ops, dense = _oracle_pair(name, P)
    scale = max(1.0, dense.fock.choi_report.norm)
    for k in range(ops.K):
        T = [ops.op(i, k) for i in range(P.N)]
        T_ref = [dense.op(i, k) for i in range(P.N)]
        for i in range(P.N):
            assert T[i].shape == T_ref[i].shape
            assert np.abs(_singular_values(T[i]) - _singular_values(T_ref[i])).max() <= 1e-12
            for j in range(P.N):
                got = _singular_values(T[i].conj().T @ T[j])
                want = _singular_values(T_ref[i].conj().T @ T_ref[j])
                assert np.abs(got - want).max() <= 1e-12 * scale


def test_noncommuting_level_one_matches_dense_oracle():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = ChoiMatrix.from_matrix(b @ b.conj().T, d=2)
    ops, dense = creation_matrices(P, 1), dense_creation(P, 1)
    assert ops.fock.quotient_dims == dense.fock.quotient_dims == [2, 4]
    commutator = dense.fock.choi_report.commutator
    assert ops.fock.choi_report.commutator == pytest.approx(commutator, rel=1e-12)
    rep, rep_ref = tstar_t_check(ops), dense_tstar_t_check(dense)
    assert rep.commuting is rep_ref.commuting is False
    assert abs(rep.vacuum_residual - rep_ref.vacuum_residual) <= 1e-12
    assert abs(rep.general_residual - rep_ref.general_residual) <= 1e-12
    with pytest.raises(NotPsdError, match="level 2 Gram is not Hermitian"):
        creation_matrices(P, 2)
    with pytest.raises(NotPsdError, match="level 2 Gram is not Hermitian"):
        dense_creation(P, 2)


@pytest.mark.parametrize("name,P", VALIDATION_INPUTS, ids=[c[0] for c in VALIDATION_INPUTS])
def test_validate_choi_matches_dense_oracle(name, P):
    rep, ref = validate_choi(P), dense_validate_choi(P)
    scale = max(1.0, ref.norm)
    assert np.abs(np.sort(rep.eigenvalues.ravel()) - ref.eigenvalues[0]).max() <= 1e-12
    assert abs(rep.norm - ref.norm) <= 1e-12
    assert rep.rank == ref.rank
    assert rep.commuting is ref.commuting is (not name.startswith("noncommuting"))
    assert rep.commutator == pytest.approx(ref.commutator, rel=1e-12, abs=1e-300)
    # the kernels span one subspace: the layers' eigenvectors lifted by W
    ker, ker_ref = rep.kernel, ref.kernel
    assert ker.shape == ker_ref.shape
    assert np.abs(ker @ ker.conj().T - ker_ref @ ker_ref.conj().T).max() <= 1e-10
    assert rep.rank == truncated_fock(P, 1).quotient_dims[1]


@pytest.mark.parametrize(
    "name,params",
    [
        ("haar", {}),
        ("stretched-haar-dual", {}),
        ("random-orthogonal", {"N": 2, "seed": 1}),
        ("random-biorthogonal", {"N": 2, "seed": 2}),
        ("identity-loop", {}),
        ("random-causal-pair", {"N": 2, "seed": 3}),
    ],
)
def test_cor6_matches_dense_oracle(name, params):
    bank = builtin_bank(name, params)
    got = cor6_check(bank, grid_size=8, K=2)
    want = dense_cor6_check(bank, grid_size=8, K=2)
    assert got.ops.fock.to_json()["quotient_dims"] == want.ops.fock.to_json()["quotient_dims"]
    assert got.ops.fock.to_json()["kernel_dims"] == want.ops.fock.to_json()["kernel_dims"]
    for norm, ref in zip(got.ops.fock.to_json()["gram_norms"], want.ops.fock.to_json()["gram_norms"]):
        assert abs(norm - ref) <= 1e-12 * max(1.0, ref)
    assert got.tstar.commuting is want.tstar.commuting is True
    for doc, ref in ((got.to_json(), want.to_json()), (got.tstar.to_json(), want.tstar.to_json())):
        for key, value in ref.items():
            if isinstance(value, float):
                assert abs(doc[key] - value) <= 1e-12, key


def test_deep_levels_form_no_word_space():
    # level 12 of a rank-1 P on four letters has 4^12 word vectors; only
    # the closed forms can report its kernel
    P = scalar_choi(random_psd_choi(4, 1, np.random.default_rng(12)))
    ops = creation_matrices(P, 12)
    assert ops.fock.quotient_dims == [1] * 13
    assert ops.fock.level(12).kernel_dim == 4**12 - 1
    assert ops.op(0, 11).shape == (1, 1)
    assert tstar_t_check(ops).general_residual < 1e-12 * max(1.0, np.linalg.norm(P.matrix, 2))


# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# the rank law at small eigenvalues


@pytest.mark.parametrize("seed", [535648839, 822900467])
def test_kernel_law_seeds(seed):
    # both seeds draw full-rank P whose small eigenvalues, cubed, fell under
    # the cutoff of a dense level-3 spectrum
    assert acceptance.check_kernel_law(seed).passed


def test_small_eigenvalues_keep_full_rank_at_level_three():
    # the spectrum diagnosed at seed 535648839: at level 3, 2.26e-5 cubed is
    # 1.2e-14, under RANK_CUTOFF times the top eigenvalue
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    P = scalar_choi((q * [1.0, 3.78e-4, 2.26e-5]) @ q.conj().T)
    assert dense_creation(P, 3).fock.quotient_dims[3] < 27
    fock = truncated_fock(P, 3)
    assert fock.quotient_dims == [1, 3, 9, 27]
    assert fock.to_json()["kernel_dims"] == [0, 0, 0, 0]
    assert level_kernel(P, 3).matches_prediction


# ----------------------------------------------------------------------
# scale invariance of the fock report


def _scale_cases():
    # norms of a few units: at c = 1e6 the T*T residuals pass 1e-9, so an
    # absolute tolerance would flip the verdict
    rng = np.random.default_rng(8)
    bank = sampled_choi(random_biorthogonal_bank(2, rng), grid_size=4)
    layers = np.stack([random_psd_choi(3, r, rng, scale=4.0) for r in (1, 3, 2)])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    blocks = np.einsum("as,sij,bs->iajb", q, layers, q.conj())
    return {
        "scalar": scalar_choi(random_psd_choi(3, 2, rng, scale=4.0)),
        "sampled-diagonal": bank.choi,
        "commuting": ChoiMatrix.from_matrix(blocks.reshape(9, 9), d=3),
    }


SCALE_CASES = _scale_cases()
UNIT_SUMMARIES = {}


def _fock_summary(path, P):
    """(exit code, quotient dims, kernel dims, commuting) of a `fock` run."""
    path.write_text(json.dumps(P.to_json()))
    out = path.with_suffix(".out")
    code = cli.main(["fock", "--input", str(path), "--levels", "2", "--output", str(out)])
    doc = json.loads(out.read_text())
    return (
        code,
        doc["fock"]["quotient_dims"],
        doc["fock"]["kernel_dims"],
        doc["tstar"]["commuting"],
    )


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exponent=st.floats(min_value=-6.0, max_value=6.0))
def test_fock_report_scale_invariant(case, exponent, tmp_path):
    P = SCALE_CASES[case]
    if case not in UNIT_SUMMARIES:
        UNIT_SUMMARIES[case] = _fock_summary(tmp_path / "unit.json", P)
    scaled = ChoiMatrix.from_matrix(10.0**exponent * P.matrix, d=P.d)
    assert _fock_summary(tmp_path / "scaled.json", scaled) == UNIT_SUMMARIES[case]


def _reweighted_bank(c: float, N: int = 2) -> FilterBank:
    # the same frame pair with primaries times c and duals over c: the
    # doubled Gram's norm grows like c**2, its eigh roundoff with it
    bank = builtin_bank("random-biorthogonal", {"N": str(N), "seed": "2"})
    return FilterBank(N, [f * c for f in bank.filters], [f * (1 / c) for f in bank.dual_filters])


@pytest.mark.parametrize("c", [1e-4, 1e-3, 1e3, 1e4])
def test_fock_verdict_on_reweighted_bank(c, tmp_path):
    # eigh roundoff grows with the norm (6.9e8 at 1e-4, 6.9e6 at 1e-3, 3.7e6
    # at 1e3, 3.7e8 at 1e4): the doubled Gram's smallest eigenvalue reaches
    # -1.3e-7 at 1e-4 and the cor6 residual 2.8e-9 at 1e3, both roundoff
    # against that norm; an absolute floor of -1e-10 refused c = 1e-3
    cor6 = cor6_check(_reweighted_bank(c))
    norm = cor6.ops.fock.choi_report.norm
    assert norm > 1e6
    assert cor6.residual <= 1e-9 * norm
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(_reweighted_bank(c).to_json()))
    assert cli.main(["fock", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("c", [1e-4, 1e-3, 1e3, 1e4])
def test_fock_passes_on_reweighted_n3_bank(c, tmp_path):
    # |det A| ~ c^3 |det A_1|: at c = 1e-4 it is 4.4e-13 on the grid, which an
    # absolute floor of 1e-10 refused in gram_function; the floor is now
    # relative to the product of the row norms of A, which scales alike
    path, out = tmp_path / "bank.json", tmp_path / "out.json"
    path.write_text(json.dumps(_reweighted_bank(c, N=3).to_json()))
    assert cli.main(["verify", "--input", str(path), "--output", str(out)]) == 0
    argv = ["fock", "--input", str(path), "--grid", "16", "--output", str(out)]
    assert cli.main(argv) == 0


def test_psd_floor_is_relative_to_the_norm():
    P = np.diag([1e8, -5e-8])
    assert validate_choi(scalar_choi(P)).min_eigenvalue == pytest.approx(-5e-8)
    with pytest.raises(NotPsdError):
        validate_choi(scalar_choi(np.diag([1e8, -2.0])))

"""Verdicts rest on bounds over the whole circle, not on where a grid samples.

Each residual of the relation, loop and modulation forms is a Laurent or
trigonometric polynomial, so a bound on its sup follows from its
coefficients (or from a sampling inequality sized by its exponent span).
The sampled sups stay as reported values; these tests pin that the bounds
hold against a dense sup, that aliased exponents cannot slip past them, and
that the reconstruction entry points judge the filters they actually use.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefock import cli
from wavefock.anchor import compute_anchor
from wavefock.corpus import builtin_bank, haar_bank, random_biorthogonal_bank, random_orthogonal_bank
from wavefock.errors import NotReconstructiveError
from wavefock.filterbank import FilterBank, module_expand, relation_report
from wavefock.laurent import LaurentPoly, adjoint_poly, decimate
from wavefock.polyphase import (
    loop_from_filters,
    loop_pair_bound,
    loop_unitarity_bound,
    loop_unitarity_residual,
    modulation_bound,
    modulation_matrix,
    modulation_matrix_check,
)
from wavefock.subdivision import SignalWindow, pyramid
from wavefock.wavelet_fock import sampled_choi

DENSE = 4096


def aliased_haar():
    """Haar with m0 + 1e-3 (1 - z^16): the perturbation vanishes at every
    8th root of unity, so a grid of 8 sees an orthogonal bank."""
    m0, m1 = haar_bank().filters
    return FilterBank(2, [m0 + LaurentPoly({0: 1e-3, 16: -1e-3}), m1])


def mismatched_duals():
    """Haar primaries with duals [1, z]: each family alone is orthogonal,
    but the pair does not reconstruct."""
    return FilterBank(2, haar_bank().filters, [LaurentPoly.one(), LaurentPoly.monomial(1)])


def spectral_sup(stack):
    return float(np.linalg.norm(stack, 2, axis=(-2, -1)).max())


# ----------------------------------------------------------------------
# the grid-aliasing repro


def test_aliased_bank_fails_at_every_grid():
    bank = aliased_haar()
    assert max(map(max, relation_report(bank, grid=8).self_residuals)) < 1e-12
    for grid in range(1, 257):
        rep = relation_report(bank, grid=grid)
        assert not rep.isometry and not rep.orthogonal_ranges, grid
    A, _ = loop_from_filters(bank)
    assert loop_unitarity_residual(A, 8) < 1e-12 < 1e-3 < loop_unitarity_bound(A)
    assert max(modulation_matrix_check(bank, 8)) < 1e-12 < 1e-3 < min(modulation_bound(bank))


def test_shifted_duals_fail_every_form():
    # M^* Mtilde - I = (e^{16 i phi} - 1) I vanishes on the 8 fibre samples
    # that the filter spans alone would ask for; the span must include 0
    m = haar_bank().filters
    bank = FilterBank(2, m, [f * LaurentPoly.monomial(16) for f in m])
    A, At = loop_from_filters(bank)
    assert min(modulation_bound(bank)[0], loop_pair_bound(A, At)) > 1.0
    assert not relation_report(bank).biorthogonal


def run_verify(capsys, *argv):
    code = cli.main(["verify", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_verify_rejects_aliased_bank_at_grid_8(tmp_path, capsys):
    path = tmp_path / "aliased.json"
    path.write_text(json.dumps(aliased_haar().to_json()))
    code, doc = run_verify(capsys, "--input", str(path), "--grid", "8")
    assert code == 1
    assert doc["verdicts"]["cuntz"] is False
    assert max(map(max, doc["self_residuals"])) < 1e-12 < 1e-3 < max(map(max, doc["self_bounds"]))


BUILTIN_VERDICTS = [  # (name, params, exit code)
    ("haar", [], 0),
    ("stretched-haar", [], 1),
    ("stretched-haar-dual", [], 0),
    ("identity-loop", ["N=3"], 0),
    ("random-orthogonal", ["N=3", "seed=1"], 0),
    ("random-biorthogonal", ["N=3", "seed=2"], 0),
    ("random-causal-pair", ["N=2", "seed=7"], 0),
]


@pytest.mark.parametrize("name, params, expected", BUILTIN_VERDICTS, ids=[b[0] for b in BUILTIN_VERDICTS])
def test_builtin_verdicts_do_not_depend_on_grid(capsys, name, params, expected):
    runs = [run_verify(capsys, "--builtin", name, *params, "--grid", g) for g in ("8", "64", "256")]
    assert [code for code, _ in runs] == [expected] * 3
    assert all(doc["verdicts"] == runs[0][1]["verdicts"] for _, doc in runs)
    assert all(doc["pair_bounds"] == runs[0][1]["pair_bounds"] for _, doc in runs)


# ----------------------------------------------------------------------
# the bounds against a dense sup


@st.composite
def banks(draw):
    N = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([random_orthogonal_bank, random_biorthogonal_bank]))
    bank = make(N, rng)
    if draw(st.booleans()):  # a near-aliased perturbation eps (1 - e^{i alpha} z^k)
        eps = draw(st.floats(1e-8, 1e-1))
        alpha = draw(st.floats(0.0, 2 * np.pi))
        k = draw(st.integers(1, 40))
        i = draw(st.integers(0, N - 1))
        filters = list(bank.filters)
        filters[i] = filters[i] + LaurentPoly({0: eps, k: -eps * np.exp(1j * alpha)})
        bank = FilterBank(N, filters, bank.dual_filters)
    shift = draw(st.integers(-20, 20))
    if shift:  # duals moved off the primaries: the residual's exponents leave 0
        bank = FilterBank(N, bank.filters, [d * LaurentPoly.monomial(shift) for d in bank.duals_or_primaries])
    return bank


def covers(bound, dense):
    # both sides carry their own roundoff, so a residual that is exactly 0
    # reads ~1e-15 on each; the allowance is relative to max(1, dense)
    return bound >= dense - 1e-12 * max(1.0, dense)


@settings(max_examples=40, deadline=None)
@given(banks())
def test_bounds_cover_the_dense_sup(bank):
    N, eye = bank.N, np.eye(bank.N)
    rep = relation_report(bank)
    for duals, bounds in ((bank.filters, rep.self_bounds), (bank.duals_or_primaries, rep.pair_bounds)):
        for i, mi in enumerate(bank.filters):
            for j, mj in enumerate(duals):
                q = decimate(adjoint_poly(mi) * mj, N) - LaurentPoly.monomial(0, float(i == j))
                assert covers(bounds[i][j], q.sup_grid(DENSE))

    A, At = loop_from_filters(bank)
    a = A.sample_grid(DENSE)
    a_star = a.conj().swapaxes(1, 2)
    assert covers(loop_unitarity_bound(A), spectral_sup(a @ a_star - eye))
    if At is not None:
        assert covers(loop_pair_bound(A, At), spectral_sup(a_star @ At.sample_grid(DENSE) - eye))

    M = modulation_matrix(bank, DENSE)
    M_star = M.conj().swapaxes(1, 2)
    pair, unit = modulation_bound(bank)
    assert covers(unit, spectral_sup(M_star @ M - eye))
    assert covers(pair, spectral_sup(M_star @ modulation_matrix(bank, DENSE, dual=True) - eye))


RECONSTRUCTIVE = [(name, params) for name, params, code in BUILTIN_VERDICTS if code == 0]


@pytest.mark.parametrize("name, params", RECONSTRUCTIVE, ids=[b[0] for b in RECONSTRUCTIVE])
def test_reconstructive_builtins_have_small_bounds(name, params):
    bank = builtin_bank(name, dict(p.split("=") for p in params))
    A, At = loop_from_filters(bank)
    rep = relation_report(bank)
    bounds = [max(map(max, rep.pair_bounds)), modulation_bound(bank)[0]]
    bounds.append(loop_unitarity_bound(A) if At is None else loop_pair_bound(A, At))
    assert max(bounds) < 1e-9


# ----------------------------------------------------------------------
# the reconstruction entry points judge the filters they use


ENTRY_POINTS = {
    "pyramid": lambda bank: pyramid(bank, SignalWindow(-4, np.arange(9.0)), depth=2),
    "module_expand": lambda bank: module_expand(bank, LaurentPoly({0: 1.0, 3: 2.0}), 2),
    "compute_anchor": compute_anchor,
    "sampled_choi": sampled_choi,
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_reject_mismatched_duals(name):
    assert relation_report(FilterBank(2, haar_bank().filters)).cuntz
    with pytest.raises(NotReconstructiveError):
        ENTRY_POINTS[name](mismatched_duals())

"""Release gate: the package's frozen acceptance suite.

Each check pins a worked example or a property batch to fixed tolerances and
returns a `CriterionResult`; `run_all` executes the lot.  The pytest wrapper
(tests/test_acceptance.py) and the command line both call these functions, so
a green gate means the same thing in CI and in the terminal.

Wall-clock measurements are reported in the human-readable lines but kept out
of the JSON: fixed seed and config must produce byte-identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    choi_collapse,
    haar_bank,
    identity_loop_bank,
    random_biorthogonal_bank,
    random_causal_pair,
    random_commuting_choi,
    random_invertible_pair,
    random_orthogonal_bank,
    random_psd_choi,
    random_unitary_loop,
    stretched_haar_bank,
)
from .anchor import compute_anchor, depths_and_cyclicity
from .filterbank import FilterBank, adjoint_poly, decimate, relation_report
from .fock import ChoiMatrix, creation_matrices, level_kernel, tstar_t_check
from .laurent import LaurentPoly
from .polyphase import (
    LoopMatrix,
    dual_loop,
    filters_from_loop,
    loop_from_filters,
    loop_pair_bound,
    loop_unitarity_bound,
    modulation_bound,
)
from .subdivision import (
    SignalWindow,
    fourier_product,
    haar_scaling_transform,
    pyramid,
    pyramid_reconstruct,
)
from .wavelet_fock import cor6_check

DEFAULT_SEED = 20240811


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{verdict}  {self.name}  [{self.seconds * 1e3:.1f} ms]  {parts}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ----------------------------------------------------------------------
# worked filter-bank examples


def check_haar_loop() -> CriterionResult:
    """Haar filters produce the constant orthogonal loop matrix."""
    bank = haar_bank()
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        A, _ = loop_from_filters(bank)
        best = min(best, time.perf_counter() - start)
    target = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    err = max(
        (A.entries[i][j] - LaurentPoly({0: target[i, j]})).coeff_norm()
        for i in range(2)
        for j in range(2)
    )
    return CriterionResult(
        name="haar-loop-constant",
        passed=err < 1e-12 and best < 1e-3,
        details={"entry_error": err},
        seconds=best,
    )


def check_stretched_haar() -> CriterionResult:
    """Scale-4 two-tap bank: constant transfer mass, sparse loop row, tight frame."""

    def body():
        bank = stretched_haar_bank()
        m0 = bank.filters[0]
        dec = decimate(adjoint_poly(m0) * m0, 4)
        dec_err = (dec - LaurentPoly({0: 2.0})).coeff_norm()

        A, _ = bank.loops
        row = [1.0, 0.0, 1.0, 0.0]
        row_err = max(
            (A.entries[0][j] - LaurentPoly({0: row[j]})).coeff_norm() for j in range(4)
        )

        # AA* - 2I = 2 (BB* - I) with B = A / sqrt 2
        frame_err = 2.0 * loop_unitarity_bound(LoopMatrix.from_array(A.lo, A.taps / np.sqrt(2.0)))

        At = dual_loop(A)
        dual_err = max(
            (At.entries[i][j] - A.entries[i][j] * 0.5).coeff_norm()
            for i in range(4)
            for j in range(4)
        )
        return dec_err, row_err, frame_err, dual_err

    (dec_err, row_err, frame_err, dual_err), dt = _timed(body)
    return CriterionResult(
        name="stretched-haar-loop",
        passed=dec_err == 0.0 and row_err < 1e-12 and frame_err < 1e-12 and dual_err < 1e-12,
        details={
            "decimated_mass_error": dec_err,
            "row0_error": row_err,
            "frame_error": frame_err,
            "half_dual_error": dual_err,
        },
        seconds=dt,
    )


def check_equivalence_suite(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Operator, modulation and loop formulations give one verdict per
    instance, each judged on its own bound over the whole circle."""

    def body():
        rng = np.random.default_rng(seed)
        agree = 0
        total = 0
        worst = 0.0
        for s in range(50):
            N = 2 + s % 2
            A = random_unitary_loop(N, rng)
            bank = filters_from_loop(A)
            op_ok = relation_report(bank, tol=1e-9).cuntz
            _, unit = modulation_bound(bank)
            loop_res = loop_unitarity_bound(A)
            verdicts = (op_ok, unit < 1e-9, loop_res < 1e-9)
            agree += len(set(verdicts)) == 1
            total += 1
            worst = max(worst, unit, loop_res)
        for s in range(50):
            N = 2 + s % 2
            A, At = random_invertible_pair(N, rng)
            primary = filters_from_loop(A)
            dual = filters_from_loop(At)
            bank = FilterBank(N, primary.filters, dual.filters)
            op_ok = relation_report(bank, tol=1e-9).biorthogonal
            pair, _ = modulation_bound(bank)
            loop_res = loop_pair_bound(A, At)
            verdicts = (op_ok, pair < 1e-9, loop_res < 1e-9)
            agree += len(set(verdicts)) == 1
            total += 1
            worst = max(worst, pair, loop_res)
        return agree, total, worst

    (agree, total, worst), dt = _timed(body)
    return CriterionResult(
        name="relation-equivalence-suite",
        passed=agree == total and dt < 10.0,
        details={"agree": agree, "total": total, "worst_residual": worst},
        seconds=dt,
    )


def _reconstruction_corpus(rng):
    return [
        ("haar", haar_bank()),
        ("stretched-haar-dual", stretched_haar_bank(with_duals=True)),
        ("identity-loop-2", identity_loop_bank(2)),
        ("identity-loop-3", identity_loop_bank(3)),
        ("random-orthogonal-2", random_orthogonal_bank(2, rng)),
        ("random-orthogonal-3", random_orthogonal_bank(3, rng)),
        ("random-biorthogonal-2", random_biorthogonal_bank(2, rng)),
        ("random-biorthogonal-3", random_biorthogonal_bank(3, rng)),
        ("random-causal-pair-2", random_causal_pair(2, rng)),
    ]


def check_perfect_reconstruction(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Pyramid round trips on every pairing-verdict bank in the corpus."""

    def body():
        rng = np.random.default_rng(seed)
        worst = 0.0
        banks = 0
        for _, bank in _reconstruction_corpus(rng):
            for length in (64, 37):
                x = SignalWindow(
                    -(length // 2),
                    rng.standard_normal(length) + 1j * rng.standard_normal(length),
                )
                pyr = pyramid(bank, x, depth=3)
                y = pyramid_reconstruct(bank, pyr)
                diff = y - x
                err = float(np.max(np.abs(diff.samples))) if not diff.is_zero else 0.0
                worst = max(worst, err)
            banks += 1
        return worst, banks

    (worst, banks), dt = _timed(body)
    return CriterionResult(
        name="pyramid-perfect-reconstruction",
        passed=worst < 1e-10,
        details={"max_error": worst, "banks": banks},
        seconds=dt,
    )


# ----------------------------------------------------------------------
# anchor subspace


def check_anchor() -> CriterionResult:
    """Haar anchor: the two-mode window, co-invariant and doubly cyclic."""

    def body():
        bank = haar_bank()
        anchor = compute_anchor(bank)
        dim_ok = anchor.dimension == 2
        span_ok = anchor.contains(LaurentPoly.monomial(0)) and anchor.contains(
            LaurentPoly.monomial(-1)
        )
        depths, cyc = depths_and_cyclicity(bank, anchor, span=32, n_range=8)
        return anchor, dim_ok, span_ok, cyc, max(depths.values())

    (anchor, dim_ok, span_ok, cyc, max_depth), dt = _timed(body)
    cyc_res = max(cyc.reconstruction_residual, cyc.membership_residual)
    return CriterionResult(
        name="haar-anchor-cyclic",
        passed=(
            dim_ok
            and span_ok
            and anchor.coinvariance_residual < 1e-10
            and cyc_res < 1e-9
            and max_depth <= 64
        ),
        details={
            "dim": anchor.dimension,
            "coinvariance_residual": anchor.coinvariance_residual,
            "cyclicity_residual": cyc_res,
            "max_depth": max_depth,
        },
        seconds=dt,
    )


# ----------------------------------------------------------------------
# twisted Fock checks


def check_fock_unrestricted() -> CriterionResult:
    """Identity block matrix: full Cuntz-Toeplitz behaviour to depth 3."""

    def body():
        P = ChoiMatrix.from_matrix(np.eye(2))
        ops = creation_matrices(P, 3)
        iso = 0.0
        for k in range(3):
            for i in range(2):
                for j in range(2):
                    prod = ops.op(i, k).conj().T @ ops.op(j, k)
                    target = np.eye(prod.shape[0]) if i == j else 0.0
                    iso = max(iso, float(np.max(np.abs(prod - target))))
        complete = 0.0
        for k in range(2):
            total = sum(ops.op(i, k) @ ops.op(i, k).conj().T for i in range(2))
            complete = max(complete, float(np.max(np.abs(total - np.eye(total.shape[0])))))
        return ops.fock.quotient_dims, iso, complete

    (dims, iso, complete), dt = _timed(body)
    return CriterionResult(
        name="cuntz-fock-unrestricted",
        passed=dims == [1, 2, 4, 8] and iso < 1e-12 and complete < 1e-12,
        details={"quotient_dims": dims, "isometry_error": iso, "completeness_error": complete},
        seconds=dt,
    )


def check_fock_collapse() -> CriterionResult:
    """Rank-halving block matrix on four letters: paired letters act identically."""

    def body():
        P = ChoiMatrix.from_matrix(choi_collapse(2))
        ops = creation_matrices(P, 3)
        pair = 0.0
        for k in range(3):
            for i in range(2):
                pair = max(pair, float(np.max(np.abs(ops.op(i, k) - ops.op(i + 2, k)))))
        return ops.fock.quotient_dims, pair

    (dims, pair), dt = _timed(body)
    return CriterionResult(
        name="collapse-fock-letters",
        passed=dims == [1, 2, 4, 8] and pair < 1e-10,
        details={"quotient_dims": dims, "letter_pairing_error": pair},
        seconds=dt,
    )


def check_kernel_law(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Scalar kernel dimensions follow the rank power law, with spanning vectors."""

    def body():
        rng = np.random.default_rng(seed)
        law_ok = True
        worst_span = 0.0
        for s in range(20):
            N = 2 + s % 2
            r = 1 + s % N
            P = ChoiMatrix.from_matrix(random_psd_choi(N, r, rng))
            for k in range(1, 4):
                rep = level_kernel(P, k, rng=rng)
                law_ok = law_ok and rep.matches_prediction and rep.dim == N**k - r**k
                worst_span = max(worst_span, rep.spanning_residual)
        return law_ok, worst_span

    (law_ok, worst_span), dt = _timed(body)
    return CriterionResult(
        name="scalar-kernel-law",
        passed=law_ok and worst_span < 1e-10,
        details={"law_holds": law_ok, "spanning_residual": worst_span},
        seconds=dt,
    )


def check_norm_laws(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Level norms stay below the block norm power and attain it; commuting
    blocks put the creation-product sup at the vacuum level."""

    def body():
        rng = np.random.default_rng(seed)
        scalar_gap = 0.0
        for s in range(8):
            N = 2 + s % 2
            r = 1 + s % N
            P = ChoiMatrix.from_matrix(random_psd_choi(N, r, rng))
            rep = tstar_t_check(creation_matrices(P, 3))
            scalar_gap = max(scalar_gap, abs(rep.gram_norm_gap), rep.attainment_gap)
        comm_res = 0.0
        argmax_ok = True
        for _ in range(5):
            P = ChoiMatrix.from_matrix(random_commuting_choi(2, 2, rng), d=2)
            rep = tstar_t_check(creation_matrices(P, 3))
            comm_res = max(comm_res, rep.norm_law_residual)
            argmax_ok = argmax_ok and rep.norm_law_argmax == 0
        return scalar_gap, comm_res, argmax_ok

    (scalar_gap, comm_res, argmax_ok), dt = _timed(body)
    return CriterionResult(
        name="creation-norm-laws",
        passed=scalar_gap < 1e-9 and comm_res < 1e-9 and argmax_ok,
        details={
            "scalar_gap": scalar_gap,
            "commuting_residual": comm_res,
            "sup_at_vacuum": argmax_ok,
        },
        seconds=dt,
    )


def check_wavelet_fock() -> CriterionResult:
    """Sampled doubled-Gram corollary for the two worked banks at grid 8."""

    def body():
        haar_rep = cor6_check(haar_bank(), grid_size=8, K=2)
        stretched_rep = cor6_check(stretched_haar_bank(with_duals=True), grid_size=8, K=2)
        ops = stretched_rep.ops
        eye = np.eye(8)
        frame = 0.0
        for i in range(4):
            prim = ops.op(i, 0).conj().T @ ops.op(i, 0)
            du = ops.op(4 + i, 0).conj().T @ ops.op(4 + i, 0)
            frame = max(
                frame,
                float(np.max(np.abs(prim - 2.0 * eye))),
                float(np.max(np.abs(du - 0.5 * eye))),
            )
        return haar_rep.residual, stretched_rep.residual, frame

    (haar_res, stretched_res, frame), dt = _timed(body)
    return CriterionResult(
        name="wavelet-fock-corollary",
        passed=haar_res < 1e-9 and stretched_res < 1e-9 and frame < 1e-9,
        details={
            "haar_residual": haar_res,
            "stretched_residual": stretched_res,
            "tight_frame_error": frame,
        },
        seconds=dt,
    )


def check_haar_product() -> CriterionResult:
    """Partial scaling product against the closed-form sinc transform."""

    def body():
        m0 = haar_bank().filters[0]
        mag_err = 0.0
        complex_err = 0.0
        for k in range(1, 61):
            t = 0.1 * k
            approx = fourier_product(m0, 2, t, J=40)
            exact = haar_scaling_transform(t)
            mag_err = max(mag_err, abs(abs(approx) - abs(exact)))
            complex_err = max(complex_err, abs(approx - exact))
        return mag_err, complex_err

    (mag_err, complex_err), dt = _timed(body)
    return CriterionResult(
        name="haar-product-formula",
        passed=mag_err < 1e-7,
        details={"magnitude_error": mag_err, "complex_error": complex_err},
        seconds=dt,
    )


# ----------------------------------------------------------------------
# runner


ALL_CHECKS = [
    check_haar_loop,
    check_stretched_haar,
    check_equivalence_suite,
    check_perfect_reconstruction,
    check_anchor,
    check_fock_unrestricted,
    check_fock_collapse,
    check_kernel_law,
    check_norm_laws,
    check_wavelet_fock,
    check_haar_product,
]

_SEEDED = {check_equivalence_suite, check_perfect_reconstruction, check_kernel_law, check_norm_laws}


@dataclass
class AcceptanceSummary:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        out = [r.line() for r in self.results]
        n_pass = sum(r.passed for r in self.results)
        out.append(f"{n_pass}/{len(self.results)} criteria passed")
        return out

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "criteria": [r.to_json() for r in self.results],
        }


def run_all(seed: int = DEFAULT_SEED) -> AcceptanceSummary:
    results = []
    for check in ALL_CHECKS:
        if check in _SEEDED:
            results.append(check(seed=seed))
        else:
            results.append(check())
    return AcceptanceSummary(results)

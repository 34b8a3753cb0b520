"""Release gate, one test per criterion.

Each test reruns its check from scratch and fails with the check's own
pass/fail line, so the pytest output doubles as the acceptance report.
"""

import json

from wavefock import acceptance


def test_haar_loop_constant():
    res = acceptance.check_haar_loop()
    assert res.passed, res.line()


def test_stretched_haar_loop():
    res = acceptance.check_stretched_haar()
    assert res.passed, res.line()


def test_relation_equivalence_suite():
    res = acceptance.check_equivalence_suite()
    assert res.passed, res.line()


def test_pyramid_perfect_reconstruction():
    res = acceptance.check_perfect_reconstruction()
    assert res.passed, res.line()


def test_haar_anchor_cyclic():
    res = acceptance.check_anchor()
    assert res.passed, res.line()


def test_cuntz_fock_unrestricted():
    res = acceptance.check_fock_unrestricted()
    assert res.passed, res.line()


def test_collapse_fock_letters():
    res = acceptance.check_fock_collapse()
    assert res.passed, res.line()


def test_scalar_kernel_law():
    res = acceptance.check_kernel_law()
    assert res.passed, res.line()


def test_creation_norm_laws():
    res = acceptance.check_norm_laws()
    assert res.passed, res.line()


def test_wavelet_fock_corollary():
    res = acceptance.check_wavelet_fock()
    assert res.passed, res.line()


def test_haar_product_formula():
    res = acceptance.check_haar_product()
    assert res.passed, res.line()


def test_summary_shape():
    summary = acceptance.AcceptanceSummary(
        [acceptance.check_haar_loop(), acceptance.check_fock_unrestricted()]
    )
    assert summary.passed
    doc = summary.to_json()
    assert doc["passed"] is True
    assert [c["name"] for c in doc["criteria"]] == [
        "haar-loop-constant",
        "cuntz-fock-unrestricted",
    ]
    # timing stays out of the machine-readable report
    assert "seconds" not in doc["criteria"][0]
    assert len(summary.lines()) == 3


def test_json_report_holds_no_wall_clock_data():
    for res in (acceptance.check_haar_loop(), acceptance.check_equivalence_suite()):
        text = json.dumps(res.to_json())
        assert "under_" not in text and "seconds" not in text


def test_time_bounds_still_enforced(monkeypatch):
    # a clock that advances 2 ms per read puts the loop split over 1 ms
    ticks = iter(range(10**6))
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(ticks) * 2e-3)
    assert not acceptance.check_haar_loop().passed
    # and an equivalence suite that took 11 s fails its 10 s bound
    monkeypatch.setattr(acceptance, "_timed", lambda fn: (fn(), 11.0))
    res = acceptance.check_equivalence_suite()
    assert res.details["agree"] == res.details["total"] and not res.passed

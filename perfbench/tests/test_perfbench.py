"""Arithmetic, generator and checker tests for the benchmark itself.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from run import tail_latency  # noqa: E402


# ----------------------------------------------------------------------
# self time


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4];
    # a third child [8, 12] runs past the parent's end
    span_list = [
        ["p", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 0],
        ["b", 3.0, 6.0, 0, 0, 0],
        ["c", 8.0, 12.0, 0, 0, 0],
    ]
    selfs = spans.self_times(span_list)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1:] == [pytest.approx(3.0), pytest.approx(3.0), pytest.approx(4.0)]


def test_self_time_subtracts_leaf_seconds_and_nested_children_once():
    span_list = [
        ["p", 0.0, 10.0, -1, 0, 0],
        ["a", 2.0, 6.0, 0, 0, 0],
        ["a.inner", 3.0, 5.0, 1, 0, 0],
    ]
    selfs = spans.self_times(span_list, leaf_seconds={0: 1.5, 2: 0.5})
    assert selfs == [pytest.approx(4.5), pytest.approx(2.0), pytest.approx(1.5)]


def test_covered_handles_disjoint_nested_and_outside_intervals():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(2, 3), (5, 7)]) == pytest.approx(3)
    assert spans.covered(0, 10, [(1, 9), (2, 3)]) == pytest.approx(8)
    assert spans.covered(0, 10, [(-5, -1), (11, 12)]) == 0


# ----------------------------------------------------------------------
# tail percentile


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 201))  # 200 samples
    pct, value, n = tail_latency(values)
    assert (pct, value, n) == (95.0, 190, 200)
    assert sum(v > value for v in values) == 10

    pct, value, n = tail_latency(list(range(100, 0, -1)))
    assert (pct, value, n) == (90.0, 90, 100)


def test_tail_with_eleven_samples_is_the_minimum_and_with_fewer_the_maximum():
    assert tail_latency(list(range(11))) == (pytest.approx(100 / 11), 0, 11)
    assert tail_latency([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


# ----------------------------------------------------------------------
# generator


@pytest.mark.parametrize("family", ["orthogonal", "biorthogonal", "causal"])
@pytest.mark.parametrize("N", [2, 3, 5])
def test_generated_dual_loop_inverts_the_adjoint(family, N):
    A, At = gen.random_loop(family, N, np.random.default_rng(N))
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 37))
    prod = gen.lsample(A, z).conj().transpose(0, 2, 1) @ gen.lsample(At, z)
    assert np.abs(prod - np.eye(N)).max() < 1e-12
    if family == "causal":
        assert A[0] >= 0 and At[0] >= 0


def test_generator_is_deterministic_in_the_seed():
    a = gen.Bank.random("biorthogonal", 3, np.random.default_rng(7)).json()
    b = gen.Bank.random("biorthogonal", 3, np.random.default_rng(7)).json()
    c = gen.Bank.random("biorthogonal", 3, np.random.default_rng(8)).json()
    assert a == b and a != c


def test_commuting_choi_has_the_constructed_layer_ranks():
    rng = np.random.default_rng(3)
    ranks = [1, 3, 2]
    m = gen.commuting_choi(3, 3, ranks, rng)
    assert np.linalg.matrix_rank(m, tol=1e-10) == sum(ranks)
    blocks = m.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
    assert np.abs(blocks[0, 1] @ blocks[2, 1] - blocks[2, 1] @ blocks[0, 1]).max() < 1e-12


def test_signal_lengths_cover_the_log_range():
    lengths = sorted(gen.signal_lengths(100, np.random.default_rng(0)))
    assert 64 <= lengths[0] < 70 and 90_000 < lengths[-1] <= 100_000


# ----------------------------------------------------------------------
# checkers reject doctored reports


def _fock_report(dims):
    return {"fock": {"quotient_dims": list(dims)}, "cor6": {"quotient_dims": list(dims)}}


def test_fock_check_rejects_wrong_dims_and_wrong_exit_code():
    dims = [8, 16, 32]
    assert checks.check_fock(0, _fock_report(dims), dims) is None
    assert "quotient dims" in checks.check_fock(0, _fock_report([8, 16, 31]), dims)
    doctored = _fock_report(dims)
    doctored["cor6"]["quotient_dims"] = [8, 16, 33]
    assert "cor6" in checks.check_fock(0, doctored, dims)
    assert "exit code 1" in checks.check_fock(1, _fock_report(dims), dims)
    assert checks.check_fock(0, None, dims) == "no report"


def _loop_report(bank, dual):
    return {"A": gen.loop_json(bank.A), "Atilde": gen.loop_json(dual), "Atilde_exact": True}


def test_loop_checks_reject_a_wrong_dual_and_a_moved_coefficient():
    bank = gen.Bank.random("biorthogonal", 3, np.random.default_rng(1))
    assert checks.check_to_loop(0, _loop_report(bank, bank.At), bank) is None
    lo, C = bank.At
    assert "A* Atilde" in checks.check_to_loop(0, _loop_report(bank, (lo, 1.001 * C)), bank)
    inexact = _loop_report(bank, bank.At)
    inexact["Atilde_exact"] = False
    assert "not exact" in checks.check_to_loop(0, inexact, bank)

    filters = [dict(f) for f in bank.filters]
    assert checks.check_from_loop(0, {"filters": [gen.poly_json(f) for f in filters]}, bank) is None
    k = next(iter(filters[1]))
    filters[1][k] += 1e-6
    assert "round trip" in checks.check_from_loop(0, {"filters": [gen.poly_json(f) for f in filters]}, bank)


def test_gate_and_pyramid_checks_reject_failures():
    good = {"passed": True, "criteria": [{"name": f"c{i}", "passed": True} for i in range(11)]}
    assert checks.check_gate(0, good) is None
    bad = {"passed": False, "criteria": [dict(c) for c in good["criteria"]]}
    bad["criteria"][3]["passed"] = False
    assert "exit code 1" in checks.check_gate(1, bad)
    assert "c3" in checks.check_gate(0, bad)

    x = np.arange(5, dtype=complex)
    assert checks.check_pyramid(-2, x, -2, x) is None
    assert checks.check_pyramid(-2, x, -2, x + 1e-9) is not None
    assert checks.reconstruction_error(0, x, 1, x[1:]) == 0.0


# ----------------------------------------------------------------------
# tracer on the real package


def test_tracer_wraps_every_holder_and_restores_them(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from wavefock import acceptance, cli, laurent

    table, seeded = list(acceptance.ALL_CHECKS), set(acceptance._SEEDED)
    mul = laurent.LaurentPoly.__dict__["__mul__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = acceptance.ALL_CHECKS
        assert all(w.__wrapped__ is f for w, f in zip(wrapped, table))
        assert {w for w in wrapped if w.__wrapped__ in seeded} == acceptance._SEEDED
        assert laurent.LaurentPoly.__rmul__ is laurent.LaurentPoly.__mul__ is not mul
        tracer.job = 0
        root = tracer.open("cli")
        assert cli.main(["loop", "--builtin", "haar", "--output", str(tmp_path / "r.json")]) == 0
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert acceptance.ALL_CHECKS == table and acceptance._SEEDED == seeded
    assert laurent.LaurentPoly.__dict__["__mul__"] is mul

    layers = spans.layer_metrics(tracer, passes=1)
    assert layers["polyphase.loop_from_filters.calls"] == 1
    assert layers["polyphase.dual_loop.calls"] == 1
    assert layers["polyphase.loop_det.calls"] >= 1
    assert layers["laurent.LaurentPoly.__mul__.calls"] > 0
    assert 0 <= layers["cli.self_s"] <= tracer.spans[0][2] - tracer.spans[0][1]


def test_benchmark_json_lists_every_per_layer_metric_the_tracer_reports():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert listed == spans.layer_metric_units() + [("trace.slowdown", "ratio")]

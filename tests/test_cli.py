"""Exit codes, report shapes and determinism of the command line."""

import contextlib
import io
import json
import re
import shlex
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefock import cli, corpus
from wavefock.corpus import haar_bank, random_bank, random_invertible_loop
from wavefock.errors import SingularLoopError
from wavefock.filterbank import FilterBank
from wavefock.fock import ChoiMatrix
from wavefock.laurent import LaurentPoly
from wavefock.polyphase import LoopMatrix, filters_from_loop, loop_from_filters
from oracles import ill_conditioned_pair

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ----------------------------------------------------------------------
# verify


def test_verify_haar_passes(capsys):
    code, doc, _ = run_json(capsys, "verify", "--builtin", "haar")
    assert code == 0
    assert doc["verdicts"]["cuntz"] is True


def test_verify_stretched_haar_fails(capsys):
    # self-dual frame with constant 2: isometry residual is exactly 1
    code, doc, _ = run_json(capsys, "verify", "--builtin", "stretched-haar")
    assert code == 1
    assert doc["verdicts"]["cuntz"] is False
    assert doc["self_residuals"][0][0] == pytest.approx(1.0, abs=1e-12)


def test_verify_biorthogonal_pair(capsys):
    code, doc, _ = run_json(
        capsys, "verify", "--builtin", "random-biorthogonal", "N=3", "seed=2"
    )
    assert code == 0
    assert doc["verdicts"]["biorthogonal"] is True


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "verify", "--input", str(bad))
    assert code == 2
    assert "error:" in err


def test_verify_unknown_builtin(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "no-such-bank")
    assert code == 2
    assert "no-such-bank" in err


def test_verify_bad_builtin_param(capsys):
    assert run(capsys, "verify", "--builtin", "haar", "junk")[0] == 2


def test_verify_requires_input(capsys):
    assert run(capsys, "verify")[0] == 2


# ----------------------------------------------------------------------
# loop


def test_loop_haar_constant(capsys):
    code, doc, _ = run_json(capsys, "loop", "--builtin", "haar")
    assert code == 0
    root = 1.0 / np.sqrt(2.0)
    expected = [[root, root], [root, -root]]
    for i in range(2):
        for j in range(2):
            terms = doc["A"]["entries"][i][j]
            assert len(terms) == 1
            exp, re, im = terms[0]
            assert exp == 0 and im == 0.0
            assert re == pytest.approx(expected[i][j], abs=1e-15)
    assert doc["Atilde_exact"] is True


def test_loop_identity_gives_monomials(tmp_path, capsys):
    code, loop_doc, _ = run_json(capsys, "loop", "--builtin", "identity-loop")
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop_doc["A"]))
    code, bank_doc, _ = run_json(
        capsys, "loop", "--direction", "from-loop", "--input", str(path)
    )
    assert code == 0
    bank = FilterBank.from_json(bank_doc)
    for i, m in enumerate(bank.filters):
        assert (m - LaurentPoly.monomial(i)).coeff_norm() == 0.0


def test_loop_round_trip_identical(tmp_path, capsys):
    _, doc, _ = run_json(
        capsys, "loop", "--builtin", "random-orthogonal", "N=3", "seed=11"
    )
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc["A"]))
    code, rebuilt, _ = run_json(
        capsys, "loop", "--direction", "from-loop", "--input", str(path)
    )
    assert code == 0
    from wavefock.corpus import builtin_bank

    direct = builtin_bank("random-orthogonal", {"N": 3, "seed": 11}).to_json()
    assert rebuilt == direct


def test_loop_singular_exits_one(tmp_path, capsys):
    m = LaurentPoly({0: 1.0, 1: 1.0})
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(FilterBank(2, [m, m]).to_json()))
    code, _, err = run(capsys, "loop", "--input", str(path))
    assert code == 1
    assert "SINGULAR_LOOP" in err


def _diag_bank_path(tmp_path, p: LaurentPoly) -> str:
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(filters_from_loop(LoopMatrix([[p, zero], [zero, one]])).to_json()))
    return str(path)


def test_loop_zero_between_grid_points_exits_one(tmp_path, capsys):
    # det A = 1 + z^16 reads 2 on every grid of at most 16 points and
    # vanishes between them; `loop` samples no user grid
    path = _diag_bank_path(tmp_path, LaurentPoly({0: 1.0, 16: 1.0}))
    code, doc, err = run_json(capsys, "loop", "--input", path)
    assert code == 1 and doc["Atilde"] is None
    assert "SINGULAR_LOOP" in err


def test_loop_large_orthogonal_bank_exact(capsys):
    # |det A| = 1 and every row has norm 1 on the circle, at any N; a floor
    # built from row norms summed over the taps (not L^2) grows as ~1.7^N
    # on these 3-tap loops and refused N = 64 at |det A| = 1
    code, doc, _ = run_json(capsys, "loop", "--builtin", "random-orthogonal", "N=64")
    assert code == 0 and doc["Atilde_exact"] is True


@pytest.mark.parametrize("scale, code, exact", [(1.0, 0, True), (1.5, 1, False)])
def test_loop_judges_a_supplied_dual(tmp_path, capsys, scale, code, exact):
    # the bank's own dual family is split, not recomputed, and judged by its
    # pair bound: one dual filter scaled by 1.5 puts it at 2.79
    from wavefock.corpus import builtin_bank

    bank = builtin_bank("random-biorthogonal", {"N": 3})
    duals = [bank.dual_filters[0] * scale, *bank.dual_filters[1:]]
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(FilterBank(3, bank.filters, duals).to_json()))
    got, doc, _ = run_json(capsys, "loop", "--input", str(path))
    assert (got, doc["Atilde_exact"], "note" in doc) == (code, exact, not exact)
    assert doc["Atilde"] is not None


@pytest.mark.parametrize(
    "name, N", [("random-biorthogonal", 128), ("random-causal-pair", 192), ("random-biorthogonal", 192)]
)
def test_fock_judges_large_dual_pairs(capsys, name, N):
    # det A is at most 1e-10 of the row-norm product on these loops, which
    # the determinant verdict refused; the bank's pair bound certifies
    # A* Atilde = I.  At N = 192 a relation report would pass its cap, so a
    # gate that read one refused the bank
    code, _, err = run(capsys, "fock", "--builtin", name, f"N={N}", "--grid", "8", "--levels", "2")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("with_dual", [True, False])
@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
def test_loop_gives_one_verdict_on_an_ill_conditioned_pair(tmp_path, capsys, s, with_dual):
    # a supplied dual is judged by the certificate dual_loop uses, condition
    # bound included: the dual passed at s = 1 alone, the primaries nowhere
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(ill_conditioned_pair(s, with_dual).to_json()))
    code, out, err = run(capsys, "loop", "--input", str(path))
    assert code == 1 and json.loads(out)["Atilde"] is None
    assert err.startswith("SINGULAR_LOOP") and "1.818e+10" in err


def test_loop_without_laurent_dual_at_large_N(tmp_path, capsys):
    # diag(1 + 0.9z, 1, ..., 1) at N = 128: the inverse's windows are two taps
    # wide, so one grid of 4 points and a 2-point det A decide, with a note
    taps = np.zeros((2, 128, 128), dtype=complex)
    taps[0] = np.eye(128)
    taps[1, 0, 0] = 0.9
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(filters_from_loop(LoopMatrix.from_array(0, taps)).to_json()))
    got, doc, _ = run_json(capsys, "loop", "--input", str(path))
    assert (got, doc["Atilde"], doc["Atilde_exact"]) == (0, None, False)
    assert "not a Laurent matrix" in doc["note"]


def test_loop_dual_over_cap_exits_two(tmp_path, capsys):
    # I + 0.99 z P, P the cyclic shift, at N = 128 has no Laurent inverse, and
    # det A needs 129 grid points of 128 x 128, over the cap: a size refusal,
    # exit 2 like every SIZE_CAP, not a failed verdict
    taps = np.zeros((2, 128, 128), dtype=complex)
    taps[0] = np.eye(128)
    taps[1] = 0.99 * np.roll(np.eye(128), 1, axis=0)
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(filters_from_loop(LoopMatrix.from_array(0, taps)).to_json()))
    code, out, err = run(capsys, "loop", "--input", str(path))
    assert (code, out) == (2, "")
    assert "cap" in err


def _loop_verdict(folder: Path, A: LoopMatrix) -> tuple:
    """(exit code, Atilde_exact) of `loop` on the primary filters of A."""
    path, out = folder / "bank.json", folder / "report.json"
    path.write_text(json.dumps(filters_from_loop(A).to_json()))
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["loop", "--input", str(path), "--output", str(out)])
    return code, json.loads(out.read_text())["Atilde_exact"]


def _scaled(A: LoopMatrix, c: float) -> LoopMatrix:
    return LoopMatrix.from_array(A.lo, c * A.taps)


def _loop_of_kind(kind: str, N: int, rng) -> LoopMatrix:
    if kind == "monomial":  # an exact dual
        return random_invertible_loop(N, rng)
    if kind == "unstructured":  # a determinant of many terms
        return loop_from_filters(random_bank(N, rng))[0]
    # the first row times 1 + z^k: det A vanishes where z^k = -1
    A = random_invertible_loop(N, rng)
    taps = np.zeros((len(A.taps) + 4,) + A.taps.shape[1:], dtype=complex)
    taps[: len(A.taps)] = A.taps
    taps[4:, 0] += A.taps[:, 0]
    return LoopMatrix.from_array(A.lo, taps)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["monomial", "unstructured", "singular"]),
    N=st.integers(2, 7),
    seed=st.integers(0, 2**16),
    exponent=st.floats(min_value=-6.0, max_value=6.0),
)
def test_loop_verdict_is_scale_invariant(kind, N, seed, exponent):
    A = _loop_of_kind(kind, N, np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as folder:
        want = _loop_verdict(Path(folder), A)
        assert _loop_verdict(Path(folder), _scaled(A, 10.0**exponent)) == want
    if kind != "unstructured":
        assert want == ((0, True) if kind == "monomial" else (1, False))


# ----------------------------------------------------------------------
# anchor


def test_anchor_haar(capsys):
    code, doc, _ = run_json(capsys, "anchor", "--builtin", "haar", "--modes", "4")
    assert code == 0
    assert doc["anchor"]["dimension"] == 2
    assert doc["depths"]["0"] == 0
    assert doc["depths"]["4"] == 3
    assert doc["cyclicity"]["reconstruction_residual"] < 1e-9


def test_anchor_seeded_regression(capsys):
    code, doc, _ = run_json(
        capsys, "anchor", "--builtin", "random-causal-pair", "seed=7", "--modes", "4"
    )
    assert code == 0
    assert doc["anchor"]["dimension"] == 6
    assert doc["depths"] == {
        "-4": 0, "-3": 0, "-2": 0, "-1": 0, "0": 0, "1": 1, "2": 1, "3": 1, "4": 2,
    }


def test_anchor_many_modes(capsys):
    code, doc, _ = run_json(capsys, "anchor", "--builtin", "haar", "--modes", "3000")
    assert code == 0
    assert len(doc["depths"]) == 6001
    assert (doc["depths"]["3000"], doc["depths"]["-3000"]) == (12, 12)
    assert doc["cyclicity"]["n_range"] == 8


@pytest.mark.parametrize("modes, outer", [("4", []), ("8", []), ("11", [-11, -10, -9, 9, 10, 11])])
def test_anchor_depths_computed_once_per_mode(monkeypatch, capsys, modes, outer):
    # one depth run covers every mode, the modes beyond the cyclicity
    # range (|n| > 8) first, and each mode appears in it once
    import wavefock.anchor as anchor_mod
    from wavefock.anchor import pullback_depths
    from wavefock.corpus import builtin_bank

    calls = []
    depths = anchor_mod._depths

    def recording(ns, *args, **kw):
        calls.append(list(ns))
        return depths(ns, *args, **kw)

    monkeypatch.setattr(anchor_mod, "_depths", recording)
    code, doc, _ = run_json(capsys, "anchor", "--builtin", "random-causal-pair", "N=3", "--modes", modes)
    n_range = min(int(modes), 8)
    assert code == 0 and calls == [outer + list(range(-n_range, n_range + 1))]
    span = int(modes)
    direct = pullback_depths(builtin_bank("random-causal-pair", {"N": "3"}), range(-span, span + 1))
    assert doc["depths"] == {str(n): d for n, d in direct.items()}


def test_anchor_rejects_unstructured_bank(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from wavefock.corpus import random_bank

    path = tmp_path / "bank.json"
    path.write_text(json.dumps(random_bank(2, rng).to_json()))
    code, _, err = run(capsys, "anchor", "--input", str(path))
    assert code == 1
    assert "NOT_RECONSTRUCTIVE" in err


# ----------------------------------------------------------------------
# fock


def test_fock_cuntz(capsys):
    code, doc, _ = run_json(capsys, "fock", "--builtin", "cuntz", "N=2", "K=3")
    assert code == 0
    assert doc["fock"]["quotient_dims"] == [1, 2, 4, 8]
    assert doc["tstar"]["vacuum_residual"] < 1e-12
    assert doc["tstar"]["general_residual"] < 1e-12


def test_fock_collapse(capsys):
    code, doc, _ = run_json(capsys, "fock", "--builtin", "collapse", "N=2", "K=3")
    assert code == 0
    assert doc["fock"]["quotient_dims"] == [1, 2, 4, 8]
    assert doc["choi"]["rank"] == 2
    assert doc["choi"]["warning"] is False


def test_fock_small_scale_full_rank(tmp_path, capsys):
    # P = 1e-3 I_2 is positive definite: every level keeps full rank
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(ChoiMatrix.from_matrix(1e-3 * np.eye(2)).to_json()))
    code, doc, _ = run_json(capsys, "fock", "--input", str(path), "--levels", "4")
    assert code == 0
    assert doc["fock"]["quotient_dims"] == [1, 2, 4, 8, 16]
    assert doc["fock"]["kernel_dims"] == [0, 0, 0, 0, 0]


def test_fock_bank_cor6(capsys):
    code, doc, _ = run_json(
        capsys, "fock", "--builtin", "haar", "--grid", "8", "--levels", "2"
    )
    assert code == 0
    assert doc["cor6"]["residual"] < 1e-10
    assert doc["cor6"]["quotient_dims"] == [8, 16, 32]


@pytest.mark.parametrize(
    "argv,dims",
    [
        (("--builtin", "cuntz", "N=2", "K=12"), [2**k for k in range(13)]),
        (("--builtin", "haar", "--grid", "256", "--levels", "4"), [256 * 2**k for k in range(5)]),
    ],
    ids=["cuntz-K12", "haar-grid256-levels4"],
)
def test_fock_deep_levels(capsys, argv, dims):
    # levels whose word spaces (2^12 words; 4^4 words over a 256-point grid)
    # no dense build could hold
    code, doc, _ = run_json(capsys, "fock", *argv)
    assert code == 0
    assert doc["fock"]["quotient_dims"] == dims
    assert doc["tstar"]["general_residual"] < 1e-12


def test_fock_not_psd_exits_one(tmp_path, capsys):
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(ChoiMatrix.from_matrix(-np.eye(2)).to_json()))
    code, _, err = run(capsys, "fock", "--input", str(path))
    assert code == 1
    assert "NOT_PSD" in err


@pytest.mark.parametrize("command", ["verify", "loop", "anchor", "fock"])
def test_builtin_construction_error_is_diagnostic(monkeypatch, capsys, command):
    # a builtin generator that meets a singular loop ends in the error's
    # code line, as a verdict step does
    def singular(name, params):
        raise SingularLoopError("loop is not invertible")

    monkeypatch.setattr(corpus, "builtin_bank", singular)
    code, out, err = run(capsys, command, "--builtin", "random-biorthogonal", "N=3")
    assert code == 1
    assert out == ""
    assert err == "SINGULAR_LOOP: loop is not invertible\n"


def test_fock_cap_is_config_error(capsys):
    code, _, err = run(
        capsys, "fock", "--builtin", "haar", "--grid", "32", "--levels", "13"
    )
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "anchor", "fock"])
@pytest.mark.parametrize("e", [2000, 10**6])
def test_relation_report_cap_refuses_before_allocating(tmp_path, capsys, command, e):
    # the N = 2 bank {1, z^e} is within the JSON limits, but a relation report
    # part on it would build arrays quadratic in e (214 MiB at e = 2000), so
    # verify refuses it.  anchor and fock read the pair certificate: its loop
    # is singular (both filters in phase 0), which A* A of 2e/2 + 1 taps shows
    # at e = 2000 (the zero taps of A* skipped), and at e = 10^6 that product
    # is over the cap and refused before any loop is built
    path = tmp_path / "bank.json"
    bank = FilterBank(2, [LaurentPoly.one(), LaurentPoly.monomial(e)])
    path.write_text(json.dumps(bank.to_json()))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, "--input", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if command == "verify" or e > 2000:
        assert (code, out) == (2, "")
        assert "cap" in err
    else:
        assert (code, out) == (1, "")
        assert err.startswith("NOT_RECONSTRUCTIVE")
    assert peak < 2 << 20


def _traced_loop(tmp_path, capsys, bank: FilterBank) -> tuple:
    """(exit code, stdout, stderr, tracemalloc peak) of `loop --input` on bank."""
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(bank.to_json()))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "loop", "--input", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def test_loop_far_exponent_dual_is_exact(tmp_path, capsys):
    # {1, z^2001} at N = 2 has A = Atilde = diag(1, z^1000); the FFT reads
    # that coefficient back to the last bits, where a phase e^(i k theta)
    # rounded per exponent k would miss it by ~k eps
    bank = FilterBank(2, [LaurentPoly.one(), LaurentPoly.monomial(2001)])
    code, out, _, _ = _traced_loop(tmp_path, capsys, bank)
    doc = json.loads(out)
    assert code == 0 and doc["Atilde_exact"] is True
    [[k, re, im]] = doc["Atilde"]["entries"][1][1]
    assert k == 1000 and abs(complex(re, im) - 1.0) <= 1e-15


def test_loop_far_monomial_dual_in_little_memory(tmp_path, capsys):
    # {1, z^8001} at N = 2: A = Atilde = diag(1, z^4000), whose A* Atilde
    # formed every pair of 4001 x 4001 taps (1 GB); A* has two nonzero taps
    bank = FilterBank(2, [LaurentPoly.one(), LaurentPoly.monomial(8001)])
    code, out, _, peak = _traced_loop(tmp_path, capsys, bank)
    assert code == 0 and json.loads(out)["Atilde_exact"] is True
    assert peak < 16 << 20


def test_loop_build_cap_refuses_before_allocating(tmp_path, capsys):
    # 4 rows x (2^20 + 4) phase entries, over the cap; the bank's JSON is tiny
    bank = FilterBank(4, [LaurentPoly.monomial(k) for k in (0, 1, 2, 2**20 - 1)])
    code, out, err, peak = _traced_loop(tmp_path, capsys, bank)
    assert (code, out) == (2, "")
    assert "cap" in err
    assert peak < 1 << 20


def test_loop_under_build_cap_still_judged(tmp_path, capsys):
    # {1, z^(10^6)} at N = 2 needs 2 x (10^6 + 3) entries, under the cap:
    # the loop is built, and found singular: both exponents are even, so
    # its second column is zero
    bank = FilterBank(2, [LaurentPoly.one(), LaurentPoly.monomial(10**6)])
    code, _, err, _ = _traced_loop(tmp_path, capsys, bank)
    assert code == 1
    assert "SINGULAR_LOOP" in err


# ----------------------------------------------------------------------
# non-finite numbers in JSON input


def _nonfinite_doc(kind: str, value) -> dict:
    """A Haar bank or a 2 x 2 block matrix with one number set to `value`."""
    if kind == "bank":
        doc = haar_bank().to_json()
        doc["filters"][0][0][1] = value
    else:
        doc = ChoiMatrix.from_matrix(np.eye(2)).to_json()
        doc["blocks"][0][0][0] = value
    return doc


TOO_LARGE = 10**400  # an int that no float holds
NOT_FINITE = [float("nan"), float("inf"), "x", None, [1], {}, True, TOO_LARGE]


@pytest.mark.parametrize(
    "command,kind,value",
    [(c, "bank", v) for c in ("verify", "loop", "anchor", "fock") for v in NOT_FINITE]
    + [("fock", "choi", v) for v in NOT_FINITE],
    ids=lambda v: (
        json.dumps(v) if isinstance(v, (list, dict)) else "10**400" if v is TOO_LARGE else None
    ),
)
def test_nonfinite_input_is_parse_error(tmp_path, capsys, command, kind, value):
    # Python's json reads NaN and Infinity, and any JSON value can stand
    # where a number belongs; the readers must refuse all but finite numbers
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_nonfinite_doc(kind, value)))
    if isinstance(value, float):
        assert ("NaN" if value != value else "Infinity") in path.read_text()
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err


# ----------------------------------------------------------------------
# output formats and determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--builtin", "haar"),
        ("loop", "--builtin", "random-biorthogonal", "N=3", "seed=2"),
        ("loop", "--direction", "from-loop", "--input", "loop.json"),
        ("anchor", "--builtin", "haar", "--modes", "2"),
        ("fock", "--builtin", "haar", "--grid", "8", "--levels", "2"),
        ("fock", "--builtin", "random-psd", "N=3", "rank=2", "seed=5"),
        ("acceptance",),
    ],
    ids=" ".join,
)
def test_json_report_is_one_sorted_line(tmp_path, monkeypatch, capsys, argv):
    # the layout the json module's C encoder writes: no indent, sorted keys
    monkeypatch.chdir(tmp_path)
    Path("loop.json").write_text(json.dumps(loop_from_filters(haar_bank())[0].to_json()))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert out.count("\n") == 1


def test_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "haar", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert "verdicts.cuntz" in keys


def test_reports_byte_identical(capsys):
    args = ("fock", "--builtin", "random-psd", "N=3", "rank=2", "seed=5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--builtin", "haar", "--output", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["verdicts"]["cuntz"] is True


def test_bad_tolerance_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--builtin", "haar", "--tolerance", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("acceptance", "--grid", "8"),
        ("acceptance", "--builtin", "haar"),
        ("loop", "--builtin", "haar", "--levels", "3"),
        ("loop", "--builtin", "haar", "--tolerance", "1e-3"),
        ("anchor", "--builtin", "haar", "--grid", "8"),
        ("verify", "--builtin", "haar", "--seed", "1"),
        ("fock", "--builtin", "cuntz", "--modes", "2"),
        ("verify", "--builtin", "haar", "--modes", "8"),
        ("loop", "--builtin", "haar", "--grid", "16"),
        ("anchor", "--builtin", "haar", "--modes", "2", "--tolerance", "1e-9"),
    ],
)
def test_unread_flag_is_rejected(capsys, argv):
    # each subcommand registers only the flags it reads
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_read_flags_still_accepted(capsys):
    code, doc, _ = run_json(capsys, "loop", "--builtin", "haar")
    assert code == 0 and doc["Atilde_exact"] is True
    code, doc, _ = run_json(capsys, "anchor", "--builtin", "haar", "--modes", "2")
    assert code == 0 and sorted(doc["depths"], key=int) == ["-2", "-1", "0", "1", "2"]


def _readme_commands() -> list:
    """The `wavefock ...` lines of the README's sh blocks that read no file."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line.split("#")[0].strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("wavefock ") and "--input" not in line]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    # a flag the README shows must still be registered, and its example pass
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0


def test_main_calls_share_no_state(capsys):
    # main parses with one parser per process; no flag or subcommand default
    # of one call may reach the next
    code, doc, _ = run_json(capsys, "verify", "--builtin", "haar", "--tolerance", "1e-3")
    assert code == 0 and doc["tolerance"] == 1e-3
    code, doc, _ = run_json(capsys, "anchor", "--builtin", "haar", "--modes", "2")
    assert code == 0 and len(doc["depths"]) == 5
    code, _, _ = run(capsys, "fock", "--builtin", "cuntz")
    assert code == 0
    code, doc, _ = run_json(capsys, "verify", "--builtin", "haar")
    assert code == 0 and doc["tolerance"] == 1e-9 and doc["grid"] == 64
    code, doc, _ = run_json(capsys, "anchor", "--builtin", "haar")
    assert code == 0 and len(doc["depths"]) == 17
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--builtin", "haar", "--modes", "8"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# acceptance


def test_acceptance_command(capsys):
    code, doc, err = run_json(capsys, "acceptance")
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 11
    assert "11/11 criteria passed" in err

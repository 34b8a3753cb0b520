"""Output checks behind the benchmark's failure count.

Each check takes a job's exit code and report and compares them with values
known when the input was generated (see gen.py), never with bytes saved from
an earlier commit.  A check returns None when the output is right and a
short reason when it is wrong.
"""

from __future__ import annotations

import numpy as np

from gen import lsample

COEFF_TOL = 1e-9
PAIR_TOL = 1e-8
RESIDUAL_TOL = 1e-9
PYRAMID_TOL = 1e-10
CRITERIA = 11

_CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)


def _poly(triples) -> dict:
    return {int(k): complex(re, im) for k, re, im in triples}


def _poly_error(got: dict, want: dict) -> float:
    keys = set(got) | set(want)
    return max((abs(got.get(k, 0) - want.get(k, 0)) for k in keys), default=0.0)


def _loop_from_json(doc: dict):
    """(lo, C) Laurent matrix from the program's loop JSON."""
    entries = [[_poly(p) for p in row] for row in doc["entries"]]
    exps = [k for row in entries for p in row for k in p] or [0]
    lo, N = min(exps), len(entries)
    C = np.zeros((max(exps) - lo + 1, N, N), dtype=complex)
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            for k, c in p.items():
                C[k - lo, i, j] = c
    return lo, C


def _loop_error(got, want) -> float:
    return float(np.abs(lsample(got, _CIRCLE) - lsample(want, _CIRCLE)).max())


def _exit(rc: int):
    return None if rc == 0 else f"exit code {rc}, expected 0"


def check_verify(rc, report, bank) -> str | None:
    if rc != 0 or report is None:
        return _exit(rc) or "no report"
    if report["verdicts"][bank.verdict] is not True:
        return f"{bank.verdict} verdict does not hold"
    return None


def check_to_loop(rc, report, bank) -> str | None:
    if rc != 0 or report is None:
        return _exit(rc) or "no report"
    if report["Atilde_exact"] is not True:
        return "dual loop not exact although det A is a monomial unit"
    A, At = _loop_from_json(report["A"]), _loop_from_json(report["Atilde"])
    if _loop_error(A, bank.A) > COEFF_TOL:
        return "loop A differs from the generating loop"
    a_star, at = lsample(A, _CIRCLE).conj().transpose(0, 2, 1), lsample(At, _CIRCLE)
    pair = float(np.abs(a_star @ at - np.eye(bank.N)).max())
    if pair > PAIR_TOL:
        return f"A* Atilde - I reaches {pair:.3e} on the circle"
    if _loop_error(At, bank.At) > PAIR_TOL:
        return "dual loop differs from the constructed dual"
    return None


def check_from_loop(rc, report, bank) -> str | None:
    if rc != 0 or report is None:
        return _exit(rc) or "no report"
    got = [_poly(p) for p in report["filters"]]
    if len(got) != bank.N:
        return f"{len(got)} filters, expected {bank.N}"
    worst = max(_poly_error(g, w) for g, w in zip(got, bank.filters))
    if worst > COEFF_TOL:
        return f"round trip moves a filter coefficient by {worst:.3e}"
    return None


def check_anchor(rc, report, bank) -> str | None:
    """Causal filters with exponents in [0, Ng-1] keep the whole mode window
    invariant, so the anchor is the window: dimension N * genus."""
    if rc != 0 or report is None:
        return _exit(rc) or "no report"
    anchor, cyc = report["anchor"], report["cyclicity"]
    want = bank.N * bank.genus
    if anchor["dimension"] != want:
        return f"anchor dimension {anchor['dimension']}, expected {want}"
    basis = np.array([[complex(re, im) for re, im in col] for col in anchor["basis"]]).T
    ortho = float(np.abs(basis.conj().T @ basis - np.eye(want)).max())
    worst = max(
        anchor["coinvariance_residual"],
        cyc["reconstruction_residual"],
        cyc["membership_residual"],
        ortho,
    )
    if worst > RESIDUAL_TOL:
        return f"anchor residual {worst:.3e}"
    return None


def check_fock(rc, report, dims) -> str | None:
    if rc != 0 or report is None:
        return _exit(rc) or "no report"
    got = report["fock"]["quotient_dims"]
    if got != dims:
        return f"quotient dims {got}, expected {dims}"
    if "cor6" in report and report["cor6"]["quotient_dims"] != dims:
        return f"cor6 quotient dims {report['cor6']['quotient_dims']}, expected {dims}"
    return None


def check_gate(rc, report) -> str | None:
    if rc != 0 or report is None:
        return _exit(rc) or "no report"
    failing = [c["name"] for c in report["criteria"] if not c["passed"]]
    if failing or not report["passed"]:
        return f"failing criteria {failing}"
    if len(report["criteria"]) != CRITERIA:
        return f"{len(report['criteria'])} criteria, expected {CRITERIA}"
    return None


def reconstruction_error(x_offset: int, x, y_offset: int, y) -> float:
    """max |y - x| over the union of both windows."""
    lo = min(x_offset, y_offset)
    hi = max(x_offset + len(x), y_offset + len(y))
    diff = np.zeros(hi - lo, dtype=complex)
    diff[x_offset - lo : x_offset - lo + len(x)] -= x
    diff[y_offset - lo : y_offset - lo + len(y)] += y
    return float(np.abs(diff).max()) if len(diff) else 0.0


def check_pyramid(x_offset, x, y_offset, y) -> str | None:
    err = reconstruction_error(x_offset, x, y_offset, y)
    return None if err < PYRAMID_TOL else f"reconstruction error {err:.3e}"

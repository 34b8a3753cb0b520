"""Sweep seeded loops and compare the three reconstruction formulations.

For each instance the subband-operator verdict, the modulation-matrix residual
and the loop-matrix residual are computed independently; the CSV has one row
per instance so disagreements (there should be none) are easy to locate.
Each formulation's verdict reads its bound over the whole circle (the
`*_bound` columns); the sampled sups on the default grid sit beside them.

    python3 scripts/equivalence_sweep.py --count 50 --out sweep.csv
"""

import argparse
import csv
import sys

import numpy as np

from wavefock.corpus import random_invertible_pair, random_unitary_loop
from wavefock.filterbank import FilterBank, relation_report
from wavefock.polyphase import (
    filters_from_loop,
    loop_pair_bound,
    loop_pair_residual,
    loop_unitarity_bound,
    loop_unitarity_residual,
    modulation_bound,
    modulation_matrix_check,
)


def unitary_row(seed, N, rng, tol):
    A = random_unitary_loop(N, rng)
    bank = filters_from_loop(A)
    rep = relation_report(bank, tol=tol)
    _, unit = modulation_bound(bank)
    loop = loop_unitarity_bound(A)
    return {
        "kind": "unitary",
        "seed": seed,
        "N": N,
        "operator_verdict": rep.cuntz,
        "operator_residual": max(map(max, rep.self_residuals)),
        "operator_bound": max(map(max, rep.self_bounds)),
        "modulation_residual": modulation_matrix_check(bank)[1],
        "modulation_bound": unit,
        "loop_residual": loop_unitarity_residual(A),
        "loop_bound": loop,
        "agree": rep.cuntz == (unit < tol) == (loop < tol),
    }


def invertible_row(seed, N, rng, tol):
    A, At = random_invertible_pair(N, rng)
    bank = FilterBank(N, filters_from_loop(A).filters, filters_from_loop(At).filters)
    rep = relation_report(bank, tol=tol)
    pair, _ = modulation_bound(bank)
    loop = loop_pair_bound(A, At)
    return {
        "kind": "invertible",
        "seed": seed,
        "N": N,
        "operator_verdict": rep.biorthogonal,
        "operator_residual": max(map(max, rep.pair_residuals)),
        "operator_bound": max(map(max, rep.pair_bounds)),
        "modulation_residual": modulation_matrix_check(bank)[0],
        "modulation_bound": pair,
        "loop_residual": loop_pair_residual(A, At),
        "loop_bound": loop,
        "agree": rep.biorthogonal == (pair < tol) == (loop < tol),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=50, help="instances per family")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = ap.parse_args(argv)

    rows = []
    for s in range(args.count):
        N = 2 + s % 2
        rows.append(unitary_row(s, N, np.random.default_rng((args.seed, 0, s)), args.tolerance))
        rows.append(invertible_row(s, N, np.random.default_rng((args.seed, 1, s)), args.tolerance))

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    if out is not sys.stdout:
        out.close()

    agree = sum(r["agree"] for r in rows)
    print(f"{agree}/{len(rows)} instances agree across all three formulations", file=sys.stderr)
    return 0 if agree == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())

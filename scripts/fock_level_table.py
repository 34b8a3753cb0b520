"""Per-level tables for truncated twisted Fock spaces.

For each requested block matrix the table lists, level by level, the quotient
dimension, the kernel dimension next to the scalar rank-law prediction, the
Gram norm against the block-norm power, and the largest creation-operator
column norm.  Instances are named builtins, optionally with parameters:

    python3 scripts/fock_level_table.py --levels 3 cuntz collapse "random-psd N=3 rank=2 seed=4"
"""

import argparse
import sys

import numpy as np

from wavefock.corpus import builtin_choi
from wavefock.fock import ChoiMatrix, creation_matrices, level_kernel


def parse_instance(text):
    tokens = text.split()
    params = {}
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        params[key] = value
    return tokens[0], params


def table(name, params, K):
    P = ChoiMatrix.from_matrix(builtin_choi(name, params))
    ops = creation_matrices(P, K)
    pnorm = ops.fock.choi_report.norm
    print(f"instance: {name} {params or ''}  (letters={P.N}, d={P.d}, norm={pnorm:.4g})")
    print(f"{'level':>5} {'dim':>5} {'ker':>5} {'ker_pred':>8} {'gram_norm':>11} {'norm_bound':>11} {'max_op_norm':>12}")
    for k in range(K + 1):
        lvl = ops.fock.level(k)
        ker = level_kernel(P, k)
        pred = "-" if ker.predicted_dim is None else str(ker.predicted_dim)
        op_norm = (
            max(float(np.linalg.norm(ops.op(i, k), 2)) for i in range(P.N))
            if k < K
            else float("nan")
        )
        print(
            f"{k:>5} {lvl.q:>5} {ker.dim:>5} {pred:>8}"
            f" {lvl.norm:>11.4e} {pnorm ** k:>11.4e}"
            f" {op_norm:>12.4e}"
        )
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instances", nargs="*", default=["cuntz", "collapse"])
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args(argv)

    for text in args.instances or ["cuntz", "collapse"]:
        name, params = parse_instance(text)
        table(name, params, args.levels)
    return 0


if __name__ == "__main__":
    sys.exit(main())

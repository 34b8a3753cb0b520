"""Command-line front end.

Subcommands load a filter bank or block matrix (from a JSON file or a named
builtin), run the corresponding verification, and emit a JSON or CSV report.
Exit codes: 0 when the requested verdict holds, 1 when it fails or any step
raises a `WavefockError`, 2 when the input cannot be parsed or is over a size
cap (`SizeCapError`).  A JSON report is one line with sorted keys, so the
json module's C encoder writes it (an indented dump runs in Python).  Reports
are byte-identical for a fixed seed and config: wall-clock data never enters
the output.
"""

from __future__ import annotations

import argparse
import functools
import io
import csv
import json
import sys
from dataclasses import dataclass, fields

from . import corpus
from .acceptance import DEFAULT_SEED, run_all
from .anchor import compute_anchor, depths_and_cyclicity
from .errors import SizeCapError, WavefockError
from .filterbank import DEFAULT_TOL, FilterBank
from .fock import ChoiMatrix, creation_matrices, tstar_t_check
from .polyphase import LoopMatrix, dual_loop, filters_from_loop
from .wavelet_fock import cor6_check

VERDICT_FAILED = 1
PARSE_FAILED = 2

_CHOI_BUILTINS = {"cuntz", "collapse", "random-psd"}


class CliParseError(Exception):
    pass


@dataclass
class RunConfig:
    tolerance: float = 1e-9
    grid_size: int = 64
    fock_level_cap: int = 2
    mode_range: int | None = None
    rng_seed: int = DEFAULT_SEED
    output: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise CliParseError("tolerance must be positive")
        if self.grid_size <= 0 or self.fock_level_cap <= 0:
            raise CliParseError("grid and level caps must be positive")
        if self.mode_range is not None and self.mode_range <= 0:
            raise CliParseError("mode range must be positive")


# ----------------------------------------------------------------------
# input plumbing


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliParseError(f"{path} is not valid JSON: {exc}") from exc


def _parse_builtin(tokens: list) -> tuple:
    name, params = tokens[0], {}
    for tok in tokens[1:]:
        key, sep, value = tok.partition("=")
        if not sep or not key:
            raise CliParseError(f"builtin parameter {tok!r} is not key=value")
        params[key] = value
    return name, params


def _bank_from_args(args) -> FilterBank:
    if args.builtin:
        name, params = _parse_builtin(args.builtin)
        try:
            return corpus.builtin_bank(name, params)
        except ValueError as exc:
            raise CliParseError(str(exc)) from exc
    if not args.input:
        raise CliParseError("either --input or --builtin is required")
    try:
        return FilterBank.from_json(_load_json(args.input))
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


def _fock_input_from_args(args, config: RunConfig):
    """Returns ("bank", FilterBank) or ("choi", ChoiMatrix); may bump the
    level cap when the builtin carries K=..."""
    if args.builtin:
        name, params = _parse_builtin(args.builtin)
        if "K" in params:
            config.fock_level_cap = int(params.pop("K"))
        try:
            if name in _CHOI_BUILTINS:
                return "choi", ChoiMatrix.from_matrix(corpus.builtin_choi(name, params))
            return "bank", corpus.builtin_bank(name, params)
        except ValueError as exc:
            raise CliParseError(str(exc)) from exc
    if not args.input:
        raise CliParseError("either --input or --builtin is required")
    doc = _load_json(args.input)
    try:
        if isinstance(doc, dict) and "filters" in doc:
            return "bank", FilterBank.from_json(doc)
        return "choi", ChoiMatrix.from_json(doc)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


# ----------------------------------------------------------------------
# output plumbing


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _to_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for path, value in _flatten(doc):
        if isinstance(value, bool):
            value = str(value).lower()
        writer.writerow([path, value])
    return buf.getvalue()


def _emit(doc: dict, config: RunConfig):
    if config.fmt == "csv":
        text = _to_csv(doc)
    else:
        text = json.dumps(doc, sort_keys=True) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diagnostic(exc: WavefockError) -> int:
    print(f"{exc.code}: {exc}", file=sys.stderr)
    return VERDICT_FAILED


# ----------------------------------------------------------------------
# subcommands


def cmd_verify(args, config: RunConfig) -> int:
    from .filterbank import relation_report  # the operator report is verify's alone
    bank = _bank_from_args(args)
    rep = relation_report(bank, tol=config.tolerance, grid=config.grid_size)
    _emit(rep.to_json(), config)
    bank.pair_bound  # the bank's one certificate: SingularLoopError past its condition bound
    return 0 if rep.biorthogonal else VERDICT_FAILED  # the Cuntz verdict if self-dual


def cmd_loop(args, config: RunConfig) -> int:
    if args.direction == "from-loop":
        doc = _load_json(args.input) if args.input else None
        if doc is None:
            raise CliParseError("--input with a loop JSON file is required")
        try:
            A = LoopMatrix.from_json(doc)
        except ValueError as exc:
            raise CliParseError(str(exc)) from exc
        _emit(filters_from_loop(A).to_json(), config)
        return 0

    bank = _bank_from_args(args)
    A, At = bank.loops
    report = {"A": A.to_json(), "Atilde": None, "Atilde_exact": False}
    try:
        if At is not None:  # a supplied dual is judged by its pair bound
            holds = bank.pair_bound <= DEFAULT_TOL
        else:  # A itself if its pair bound certifies A* A = I, else a dual dual_loop certified
            try:
                own = bank.pair_bound <= DEFAULT_TOL
            except SizeCapError:  # A* A is over the cap, and dual_loop's grids may not be
                own = False
            At, holds = A if own else dual_loop(A), True
    except SizeCapError:
        raise  # configuration, exit 2, as from `main`
    except WavefockError as exc:
        _emit(report, config)
        return _diagnostic(exc)
    if At is None:
        report["note"] = "no exact dual loop: A is invertible, but A^-1 is not a Laurent matrix"
    else:
        report["Atilde"], report["Atilde_exact"] = At.to_json(), holds
    if not holds:
        report["note"] = f"A* Atilde = I fails: pair bound {bank.pair_bound:.3e} > {DEFAULT_TOL:g}"
    _emit(report, config)
    return 0 if holds else VERDICT_FAILED


def cmd_anchor(args, config: RunConfig) -> int:
    bank = _bank_from_args(args)
    span = config.mode_range if config.mode_range is not None else 8
    n_range = min(span, 8)
    anchor = compute_anchor(bank)
    depths, cyc = depths_and_cyclicity(bank, anchor, span, n_range)
    depths = {str(n): d for n, d in depths.items()}
    doc = {"anchor": anchor.to_json(), "depths": depths, "cyclicity": cyc.to_json()}
    _emit(doc, config)
    return 0


def cmd_fock(args, config: RunConfig) -> int:
    kind, obj = _fock_input_from_args(args, config)
    K = config.fock_level_cap
    cor6 = None
    if kind == "bank":
        cor6 = cor6_check(obj, grid_size=config.grid_size, K=K)
        ops, tstar = cor6.ops, cor6.tstar
    else:
        ops = creation_matrices(obj, K)
        tstar = tstar_t_check(ops)

    choi_rep = ops.fock.choi_report
    doc = {
        "choi": {
            "rank": choi_rep.rank,
            "min_eigenvalue": choi_rep.min_eigenvalue,
            "norm": choi_rep.norm,
            "hermiticity_residual": choi_rep.hermiticity_residual,
            "warning": choi_rep.warning,
        },
        "fock": ops.fock.to_json(),
        "tstar": tstar.to_json(),
    }
    if cor6 is not None:
        doc["cor6"] = cor6.to_json()
    _emit(doc, config)

    # T_i* T_j and the cor6 compressions scale with P, so their residuals are
    # judged relative to ||P||
    scale = max(1.0, choi_rep.norm)
    failed = max(tstar.vacuum_residual, tstar.general_residual) > config.tolerance * scale
    if cor6 is not None:
        failed = failed or cor6.residual > config.tolerance * scale
    return VERDICT_FAILED if failed else 0


def cmd_acceptance(args, config: RunConfig) -> int:
    summary = run_all(seed=config.rng_seed)
    for line in summary.lines():
        print(line, file=sys.stderr)
    _emit(summary.to_json(), config)
    return 0 if summary.passed else VERDICT_FAILED


# ----------------------------------------------------------------------
# argument parsing


def _config_flag(dest: str, kind, help=None) -> dict:
    """A flag that sets RunConfig field `dest`; when the flag is absent the
    field keeps its default."""
    return {"dest": dest, "type": kind, "default": argparse.SUPPRESS, "help": help}


# every flag a subcommand may take
_FLAGS = {
    "--input": {"help": "JSON input file"},
    "--builtin": {
        "nargs": "+",
        "metavar": "NAME [key=value ...]",
        "help": "named builtin instance, e.g. 'haar' or 'random-psd N=3 rank=2 seed=7'",
    },
    "--tolerance": _config_flag("tolerance", float),
    "--grid": _config_flag("grid_size", int),
    "--levels": _config_flag("fock_level_cap", int, "word-length cap for Fock levels"),
    "--modes": _config_flag("mode_range", int, "largest |n| for anchor pull-back depths"),
    "--seed": _config_flag("rng_seed", int),
}


def _add_flags(sub, *flags):
    """Register the given flags and the output flags every subcommand reads;
    a flag a subcommand does not read is not registered, so argparse rejects it."""
    for flag in flags:
        sub.add_argument(flag, **{"metavar": flag[2:].upper(), **_FLAGS[flag]})
    sub.add_argument("--output", help="write the report here instead of stdout")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json", default="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefock",
        description="verify filter-bank relations, loop matrices, anchors and Fock data",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="subband relation residuals and verdicts")
    _add_flags(sub, "--input", "--builtin", "--tolerance", "--grid")
    sub.set_defaults(fn=cmd_verify)

    sub = subs.add_parser("loop", help="convert between filters and loop matrices")
    sub.add_argument(
        "--direction", choices=("to-loop", "from-loop"), default="to-loop"
    )
    _add_flags(sub, "--input", "--builtin")
    sub.set_defaults(fn=cmd_loop)

    sub = subs.add_parser("anchor", help="anchor subspace, depths, cyclicity")
    _add_flags(sub, "--input", "--builtin", "--modes")
    sub.set_defaults(fn=cmd_anchor)

    sub = subs.add_parser("fock", help="truncated Fock report; cor6 for bank input")
    _add_flags(sub, "--input", "--builtin", "--tolerance", "--grid", "--levels")
    sub.set_defaults(fn=cmd_fock, grid_size=8)

    sub = subs.add_parser("acceptance", help="run the full release gate")
    _add_flags(sub, "--seed")
    sub.set_defaults(fn=cmd_acceptance)

    return parser


_parser = functools.cache(build_parser)  # built on first use; parsing leaves it unchanged


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.fn(args, config)
    except (CliParseError, SizeCapError) as exc:  # a size cap is configuration, not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_FAILED
    except WavefockError as exc:
        return _diagnostic(exc)


if __name__ == "__main__":
    sys.exit(main())

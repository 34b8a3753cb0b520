"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps the public functions of each `wavefock` module named
in LAYERS, in every module that holds a reference to them (including
module-level lists and sets such as the acceptance suite's check table),
and the hot `LaurentPoly` methods and numpy dense kernels named in LEAVES
and LINALG.  Nothing under `src/` changes; `uninstall` puts every original
back.

Layer functions become spans: name, start, end, parent span and job id.
Leaf calls are too frequent for one span each (a gate run makes about 250k
`LaurentPoly.eval` calls), so they are summed per parent span as call count,
seconds and computed flops.  Spans are kept in memory and written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

LAYERS = {
    "filterbank": ["relation_report"],
    "polyphase": [
        "loop_from_filters",
        "filters_from_loop",
        "dual_loop",
        "loop_det",
        "modulation_matrix_check",
        "loop_pair_residual",
        "loop_unitarity_residual",
        "gram_function",
    ],
    "subdivision": ["pyramid", "pyramid_reconstruct", "subdivide", "decimate_adjoint"],
    "anchor": ["compute_anchor", "pullback_depth", "cyclicity_check", "adjoint_on_mode"],
    "fock": [
        "validate_choi",
        "level_gram",
        "truncated_fock",
        "creation_matrices",
        "tstar_t_check",
        "level_kernel",
    ],
    "wavelet_fock": ["sampled_choi", "cor6_check"],
}

LEAVES = {"laurent": ("LaurentPoly", ["__mul__", "eval", "eval_grid"])}

ACCEPTANCE_CRITERIA = [
    "haar-loop-constant",
    "stretched-haar-loop",
    "relation-equivalence-suite",
    "pyramid-perfect-reconstruction",
    "haar-anchor-cyclic",
    "cuntz-fock-unrestricted",
    "collapse-fock-letters",
    "scalar-kernel-law",
    "creation-norm-laws",
    "wavelet-fock-corollary",
    "haar-product-formula",
]


def _batch(shape) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _cube_flops(a, *args, **kwargs) -> int:
    """n^3 per matrix, the order of eigh and inv (computed, not counted)."""
    shape = np.shape(a)
    return _batch(shape) * shape[-1] ** 3


def _svd_flops(a, *args, **kwargs) -> int:
    """m n min(m, n) per matrix (computed, not counted)."""
    shape = np.shape(a)
    m, n = shape[-2], shape[-1]
    return _batch(shape) * m * n * min(m, n)


def _is_matrix_2norm(x, ord=None, axis=None, keepdims=False) -> bool:
    """Spectral norm of a matrix, or of a stack over the last two axes."""
    if ord != 2:
        return False
    return np.ndim(x) == 2 if axis is None else isinstance(axis, tuple) and len(axis) == 2


# kernel -> [(numpy.linalg attribute, flops, filter on arguments or None)]
LINALG = {
    "eigh": [("eigh", _cube_flops, None), ("eigvalsh", _cube_flops, None)],
    "svd": [("svd", _svd_flops, None)],
    "inv": [("inv", _cube_flops, None)],
    "norm2": [("norm", _svd_flops, _is_matrix_2norm)],
}


class Tracer:
    """Spans of one traced phase.  `job` is None outside a job, and nothing
    is recorded then, so the benchmark's own numpy checks are not counted."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job, size]
        self.leaves = {}  # (parent index, leaf name) -> [calls, seconds, flops]
        self.stack = []
        self.job = None
        self._in_leaf = False
        self._undo = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name: str, size: int = 0) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job, size]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list):
        rec[2] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, size=None, rename=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.job is None or tracer._in_leaf:
                return fn(*args, **kwargs)
            rec = tracer.open(name, size(*args, **kwargs) if size else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if rename:
                rec[0] = rename(out)
            return out

        return wrapped

    def leaf(self, name: str, fn, flops=None, when=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.job is None or tracer._in_leaf or (when and not when(*args, **kwargs)):
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_leaf = False
                key = (tracer.stack[-1] if tracer.stack else -1, name)
                acc = tracer.leaves.get(key)
                if acc is None:
                    acc = tracer.leaves[key] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += elapsed
                if flops:
                    acc[2] += flops(*args, **kwargs)

        return wrapped

    # ------------------------------------------------------------------
    # patching

    def install(self):
        mods = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "wavefock"]
        for module, names in LAYERS.items():
            home = sys.modules[f"wavefock.{module}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                size = _signal_size if fn_name == "pyramid" else None
                self._replace(mods, orig, self.span(f"{module}.{fn_name}", orig, size))
        acceptance = sys.modules["wavefock.acceptance"]
        for orig in list(acceptance.ALL_CHECKS):
            wrapper = self.span(f"acceptance.{orig.__name__}", orig, rename=_criterion_name)
            self._replace(mods, orig, wrapper)
        for module, (cls_name, methods) in LEAVES.items():
            cls = getattr(sys.modules[f"wavefock.{module}"], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                wrapper = self.leaf(f"{module}.{cls_name}.{meth}", orig)
                # aliases such as __rmul__ = __mul__ share the wrapper
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        self._set(cls, key, wrapper)
        for kernel, entries in LINALG.items():
            for attr, flops, when in entries:
                orig = getattr(np.linalg, attr)
                self._set(np.linalg, attr, self.leaf(f"linalg.{kernel}", orig, flops, when))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, key, value):
        old = getattr(owner, key)
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def _replace(self, modules, orig, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)
                elif isinstance(value, list) and any(v is orig for v in value):
                    self._swap_in_list(value, orig, wrapper)
                elif isinstance(value, set) and orig in value:
                    value.discard(orig)
                    value.add(wrapper)
                    self._undo.append(lambda s=value: (s.discard(wrapper), s.add(orig)))

    def _swap_in_list(self, seq, orig, wrapper):
        for i, v in enumerate(seq):
            if v is orig:
                seq[i] = wrapper
                self._undo.append(lambda i=i: seq.__setitem__(i, orig))

    # ------------------------------------------------------------------
    # output

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, size) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                if size:
                    doc["size"] = size
                fh.write(json.dumps(doc) + "\n")
            for (parent, name), (calls, seconds, flops) in sorted(self.leaves.items()):
                doc = {"leaf": name, "parent": parent, "calls": calls, "seconds": seconds, "flops": flops}
                fh.write(json.dumps(doc) + "\n")


def _signal_size(bank, x, *args, **kwargs) -> int:
    return len(x.samples)


def _criterion_name(result) -> str:
    return f"acceptance.{result.name}"


# ----------------------------------------------------------------------
# aggregation


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans, leaf_seconds=None) -> list:
    """Self time of each span: its duration minus the part of it that its
    child spans cover, minus the seconds of leaf calls summed under it."""
    children = [[] for _ in spans]
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    leaf_seconds = leaf_seconds or {}
    return [
        (end - start) - covered(start, end, children[i]) - leaf_seconds.get(i, 0.0)
        for i, (_, start, end, *_rest) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass totals by layer function: calls and self seconds for spans
    and LaurentPoly leaves; calls, busy seconds and computed flops for
    numpy kernels; span seconds for acceptance criteria."""
    leaf_seconds = {}
    for (parent, _), (_, seconds, _) in tracer.leaves.items():
        leaf_seconds[parent] = leaf_seconds.get(parent, 0.0) + seconds
    selfs = self_times(tracer.spans, leaf_seconds)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    samples = busy = 0.0
    for rec, self_s in zip(tracer.spans, selfs):
        name, start, end = rec[0], rec[1], rec[2]
        if name.startswith("acceptance."):
            add(f"{name}.s", end - start)
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        if name in ("subdivision.pyramid", "subdivision.pyramid_reconstruct"):
            busy += end - start
            samples += rec[5]
    for (_, name), (calls, seconds, flops) in tracer.leaves.items():
        add(f"{name}.calls", calls)
        if name.startswith("linalg."):
            add(f"{name}.busy_s", seconds)
            add(f"{name}.flops", flops)
        else:
            add(f"{name}.self_s", seconds)
    per_pass = {key: value / passes for key, value in out.items()}
    per_pass["subdivision.samples_per_busy_s"] = samples / busy if busy else 0.0
    return per_pass


def layer_metric_units() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    units = {".calls": "count", ".flops": "flop", "_per_busy_s": "samples/s"}
    return [(name, next((u for end, u in units.items() if name.endswith(end)), "s")) for name in _layer_metric_names()]


def _layer_metric_names() -> list:
    names = []
    for module, fns in LAYERS.items():
        for fn in fns:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    for module, (cls_name, methods) in LEAVES.items():
        for meth in methods:
            names += [f"{module}.{cls_name}.{meth}.calls", f"{module}.{cls_name}.{meth}.self_s"]
    for kernel in LINALG:
        names += [f"linalg.{kernel}.calls", f"linalg.{kernel}.busy_s", f"linalg.{kernel}.flops"]
    names += ["subdivision.samples_per_busy_s", "cli.self_s"]
    names += [f"acceptance.{c}.s" for c in ACCEPTANCE_CRITERIA]
    return names

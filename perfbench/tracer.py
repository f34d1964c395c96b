"""Spans around dphgnn's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``dphgnn`` module namespace that holds it by name (``from .x import f``
makes an alias per importing module), and wraps the ``SparseMatrix.matmul_dense``
class attribute. ``uninstall`` puts the originals back, so one process can
alternate untraced and traced rounds.

Spans are kept in memory as ``[name, start, end, parent_index, counts]``.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

# (span name, module under dphgnn, attribute). Order fixes the metric order.
FUNCTIONS = (
    ("experiments.build_iso_pool", "experiments", "build_iso_pool"),
    ("synthetic.generate_synthetic", "synthetic", "generate_synthetic"),
    ("gwl.gwl_test", "gwl", "gwl_test"),
    ("gwl.brute_force_isomorphic", "gwl", "brute_force_isomorphic"),
    ("expand.clique_expand", "expand", "clique_expand"),
    ("expand.star_expand", "expand", "star_expand"),
    ("expand.hypergcn_expand", "expand", "hypergcn_expand"),
    ("spectral.build_laplacians", "spectral", "build_laplacians"),
    ("spectral.sib_update", "spectral", "sib_update"),
    ("precompute.build_structure", "precompute", "build_structure"),
    ("precompute.content_hash", "precompute", "content_hash"),
    ("precompute.save_structure", "precompute", "save_structure"),
    ("precompute.load_structure", "precompute", "load_structure"),
    ("sparse.matmul_dense", "sparse", "SparseMatrix.matmul_dense"),
    ("autodiff.backward", "autodiff", "backward"),
    ("autodiff.matmul", "autodiff", "matmul"),
    ("autodiff.select_rows", "autodiff", "select_rows"),
    ("autodiff.segment_softmax", "autodiff", "segment_softmax"),
    ("autodiff.segment_sums", "autodiff", "segment_sums"),
    ("autodiff.cross_entropy", "autodiff", "cross_entropy"),
    ("attention.taa_forward", "attention", "taa_forward"),
    ("attention.cross_attention", "attention", "cross_attention"),
    ("model.dphgnn_forward", "model", "dphgnn_forward"),
    ("model.feature_mix", "model", "feature_mix"),
    ("model.dff_forward", "model", "dff_forward"),
    ("model.predict_layer", "model", "predict_layer"),
    ("nn.adam_step", "nn", "adam_step"),
    ("nn.save_checkpoint", "nn", "save_checkpoint"),
    ("nn.load_checkpoint", "nn", "load_checkpoint"),
    ("hypergraph.load_dataset", "hypergraph", "load_dataset"),
    ("hypergraph.ensure_min_degree", "hypergraph", "ensure_min_degree"),
    ("hypergraph.build_hypergraph", "hypergraph", "build_hypergraph"),
    ("metrics.metrics", "metrics", "metrics"),
    ("train.evaluate", "train", "evaluate"),
    ("cli.main", "cli", "main"),
)

# Spans whose name gets a suffix chosen per call.
SPLITS = {
    "model.dphgnn_forward": ("train", "eval"),
    "sparse.matmul_dense": ("fwd", "bwd"),
}

# (metric name, unit, better); each is summed over a round's spans, except
# the per-call sizes in PER_CALL, which keep their largest value.
COUNTERS = (
    ("expand.clique.nnz", "count", "lower"),
    ("expand.star.nnz", "count", "lower"),
    ("expand.hypergcn.nnz", "count", "lower"),
    ("precompute.npz_bytes", "B", "lower"),
    ("precompute.cache_hits", "count", "higher"),
    ("precompute.cache_misses", "count", "lower"),
    ("sparse.matmul_dense.fwd.flops", "count", "lower"),
    ("sparse.matmul_dense.fwd.bytes", "B", "lower"),
    ("sparse.matmul_dense.bwd.flops", "count", "lower"),
    ("sparse.matmul_dense.bwd.bytes", "B", "lower"),
    ("attention.pairs", "count", "lower"),
    ("nn.save_checkpoint.bytes", "B", "lower"),
    ("nn.load_checkpoint.bytes", "B", "lower"),
)
PER_CALL = {"expand.clique.nnz", "expand.star.nnz", "expand.hypergcn.nnz",
            "precompute.npz_bytes", "attention.pairs"}

# Traced minus untraced median, as a share of the untraced median.
OVERHEAD = (
    ("trace.overhead.train_s", "%", "lower"),
    ("trace.overhead.eval_ms_p50", "%", "lower"),
)


def span_names() -> list[str]:
    names = []
    for name, _, _ in FUNCTIONS:
        if name in SPLITS:
            names.extend(f"{name}.{suffix}" for suffix in SPLITS[name])
        else:
            names.append(name)
    return names


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for name in span_names():
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.ms", "unit": "ms", "better": "lower"})
        out.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
    for name, unit, better in COUNTERS + OVERHEAD:
        out.append({"name": name, "unit": unit, "better": better})
    return out


# ----------------------------------------------------------------------
# counters taken at the call boundary; they and the namers get the call's
# arguments by parameter name


def _nnz(view):
    def counts(name, arguments, result):
        graph = getattr(result, "graph", result)
        return {f"expand.{view}.nnz": graph.adjacency.nnz}
    return counts


def _file_bytes(key):
    def counts(name, arguments, result):
        return {key: os.path.getsize(arguments["path"])}
    return counts


def _save_structure_counts(name, arguments, result):
    return {"precompute.npz_bytes": os.path.getsize(arguments["path"]),
            "precompute.cache_misses": 1}


def _load_structure_counts(name, arguments, result):
    return {"precompute.npz_bytes": os.path.getsize(arguments["path"]),
            "precompute.cache_hits": 1}


def _matmul_dense_counts(name, arguments, result):
    # CSR x dense traffic model: data, indices and indptr once, one input row
    # gathered per stored entry, one output row written per matrix row.
    mat = arguments["self"]
    nnz, rows, cols = mat.nnz, mat.rows, result.shape[1]
    return {
        f"{name}.flops": 2 * nnz * cols,
        f"{name}.bytes": 8 * (2 * nnz + rows + 1 + nnz * cols + rows * cols),
    }


class _PairCounter:
    """Admissible (i, j) pairs of a cross_attention call: mask plus diagonal.

    Both calls of a forward pass share one mask array, so the count of the
    last mask seen is kept to avoid scanning it again.
    """

    def __init__(self):
        self._last: tuple[object, int] = (None, 0)

    def __call__(self, name, arguments, result):
        mask = arguments["neighborhoods"]
        if self._last[0] is not mask:
            if hasattr(mask, "nnz"):  # a sparse pattern, as ROADMAP item 2 plans
                pairs = mask.nnz + int(np.count_nonzero(mask.diagonal() == 0.0))
            else:
                dense = np.asarray(mask) != 0.0
                pairs = int(np.count_nonzero(dense)) + int(np.count_nonzero(~np.diagonal(dense)))
            self._last = (mask, pairs)
        return {"attention.pairs": self._last[1]}


def _forward_mode(arguments, parent):
    mode = arguments.get("mode")
    return "model.dphgnn_forward.train" if getattr(mode, "value", "eval") == "train" \
        else "model.dphgnn_forward.eval"


def _matmul_dense_side(arguments, parent):
    return "sparse.matmul_dense.bwd" if parent == "autodiff.backward" else "sparse.matmul_dense.fwd"


# ----------------------------------------------------------------------


class Tracer:
    """Records spans while installed; aggregates them per round."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._counters = {
            "expand.clique_expand": _nnz("clique"),
            "expand.star_expand": _nnz("star"),
            "expand.hypergcn_expand": _nnz("hypergcn"),
            "precompute.save_structure": _save_structure_counts,
            "precompute.load_structure": _load_structure_counts,
            "attention.cross_attention": _PairCounter(),
            "nn.save_checkpoint": _file_bytes("nn.save_checkpoint.bytes"),
            "nn.load_checkpoint": _file_bytes("nn.load_checkpoint.bytes"),
            "sparse.matmul_dense": _matmul_dense_counts,
        }
        self._namers = {"model.dphgnn_forward": _forward_mode,
                        "sparse.matmul_dense": _matmul_dense_side}
        self.missing: list[str] = []

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        namer = self._namers.get(label)
        counter = self._counters.get(label)
        signature = inspect.signature(fn) if namer or counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            arguments = signature.bind(*args, **kwargs).arguments if signature else None
            name = namer(arguments, spans[parent][0] if parent >= 0 else None) if namer else label
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if counter is not None:
                span[4] = counter(name, arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed in ``missing``."""
        if self._restore:
            return
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dphgnn" or n.startswith("dphgnn."))]
        for label, module_name, attr in FUNCTIONS:
            module = importlib.import_module(f"dphgnn.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(label)
                continue
            if owner_name:
                setattr(owner, method, self._wrap(label, original))
                self._restore.append((owner, method, original))
                continue
            wrapper = self._wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def mark(self) -> int:
        return len(self.spans)

    def aggregate(self, start: int) -> dict[str, float]:
        """Per-layer totals of the spans recorded since index ``start``."""
        spans = self.spans[start:]
        names = span_names()
        out = {f"{n}.{k}": 0.0 for n in names for k in ("calls", "ms", "self_ms")}
        for name, _, _ in COUNTERS:
            out[name] = 0.0
        child_ms = [0.0] * len(spans)
        for _, s, e, parent, _ in spans:
            if parent >= start:
                child_ms[parent - start] += (e - s) * 1e3
        for i, (name, s, e, _, counts) in enumerate(spans):
            dur = (e - s) * 1e3
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += dur
            out[f"{name}.self_ms"] += dur - child_ms[i]
            for key, value in (counts or {}).items():
                out[key] = max(out[key], value) if key in PER_CALL else out[key] + value
        return out

    def covered_ms(self, start: int) -> float:
        """Total duration of the root spans recorded since index ``start``."""
        return sum((e - s) * 1e3 for _, s, e, parent, _ in self.spans[start:] if parent < start)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, s, e, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": s, "end": e, "parent": parent,
                                     "counts": counts or {}}) + "\n")


def median_rounds(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}

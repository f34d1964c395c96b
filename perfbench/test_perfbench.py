"""Tests of the benchmark itself, on shrunken copies of its workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "iso_pool_train": {"kind": "iso_pool", "num_pairs": 10},
    "wide_edges_train": {"kind": "two_community", "num_nodes": 120, "num_edges": 60,
                         "edge_size": 8},
    "cached_eval": {"kind": "iso_pool", "num_pairs": 10},
}

TRAIN_SPANS = {
    "expand.clique_expand", "expand.star_expand", "expand.hypergcn_expand",
    "spectral.build_laplacians", "spectral.sib_update", "precompute.build_structure",
    "sparse.matmul_dense.fwd", "sparse.matmul_dense.bwd", "autodiff.backward",
    "autodiff.matmul", "autodiff.select_rows", "autodiff.segment_softmax",
    "autodiff.segment_sums", "autodiff.cross_entropy", "attention.taa_forward",
    "attention.cross_attention", "model.dphgnn_forward.train", "model.dphgnn_forward.eval",
    "model.feature_mix", "model.dff_forward", "model.predict_layer", "nn.adam_step",
    "hypergraph.ensure_min_degree", "hypergraph.build_hypergraph", "metrics.metrics",
}
ISO_SPANS = {"experiments.build_iso_pool", "gwl.gwl_test", "gwl.brute_force_isomorphic"}
EXPECTED_SPANS = {
    "iso_pool_train": TRAIN_SPANS | ISO_SPANS,
    "wide_edges_train": TRAIN_SPANS | {"synthetic.generate_synthetic"},
    "cached_eval": TRAIN_SPANS | ISO_SPANS | {
        "precompute.content_hash", "precompute.save_structure", "precompute.load_structure",
        "nn.save_checkpoint", "nn.load_checkpoint", "hypergraph.load_dataset",
        "train.evaluate", "cli.main",
    },
}


TRAIN_COUNTERS = {
    "expand.clique.nnz", "expand.star.nnz", "expand.hypergcn.nnz", "attention.pairs",
    "sparse.matmul_dense.fwd.flops", "sparse.matmul_dense.fwd.bytes",
    "sparse.matmul_dense.bwd.flops", "sparse.matmul_dense.bwd.bytes",
}
EXPECTED_COUNTERS = {
    "iso_pool_train": TRAIN_COUNTERS,
    "wide_edges_train": TRAIN_COUNTERS,
    "cached_eval": TRAIN_COUNTERS | {
        "precompute.npz_bytes", "precompute.cache_hits", "precompute.cache_misses",
        "nn.save_checkpoint.bytes", "nn.load_checkpoint.bytes",
    },
}


def small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], generator=SMALL[name])


@pytest.fixture(scope="module")
def traced_rounds(tmp_path_factory):
    """One untraced and one traced round of each shrunken workload."""
    out = {}
    for name in workloads.WORKLOADS:
        ledger = workloads.Ledger()
        kind = workloads.KINDS[name](small(name), 3, ledger, tmp_path_factory.mktemp(name))
        kind.setup(workloads.Samples())
        if name == "cached_eval":
            kind.warm_up()
        tracer = tracer_mod.Tracer()
        metrics, detail = run._traced(kind, 0.0, float("inf"), tracer)
        assert ledger.failed == 0, ledger.errors
        out[name] = (metrics, detail)
    return out


def test_benchmark_json_matches_what_a_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == tracer_mod.per_layer_metrics()


def test_expected_spans_cover_every_wrapped_function():
    assert set().union(*EXPECTED_SPANS.values()) == set(tracer_mod.span_names())


def test_install_wraps_every_alias_and_uninstall_restores_it():
    originals = {}
    for label, module_name, attr in tracer_mod.FUNCTIONS:
        module = importlib.import_module(f"dphgnn.{module_name}")
        owner, _, method = attr.rpartition(".")
        originals[label] = (getattr(module, owner).__dict__[method] if owner
                            else getattr(module, attr))
    modules = [m for n, m in sys.modules.items() if n == "dphgnn" or n.startswith("dphgnn.")]

    def leftovers():
        return [(mod.__name__, key) for mod in modules for key, value in vars(mod).items()
                if any(value is fn for fn in originals.values())]

    before = leftovers()
    assert ("dphgnn.attention", "matmul") in before and ("dphgnn.model", "matmul") in before
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert leftovers() == []
        from dphgnn.sparse import SparseMatrix

        assert SparseMatrix.__dict__["matmul_dense"] is not originals["sparse.matmul_dense"]
    finally:
        tracer.uninstall()
    assert leftovers() == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_wrapped_function_records_a_span_on_its_workload(traced_rounds, name):
    metrics, _ = traced_rounds[name]
    missing = [s for s in EXPECTED_SPANS[name] if metrics[f"{s}.calls"] < 1]
    assert missing == []
    assert [c for c in EXPECTED_COUNTERS[name] if metrics[c] <= 0] == []
    assert set(metrics) == {m["name"] for m in tracer_mod.per_layer_metrics()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_and_untraced_remainder_add_up_to_the_wall_time(traced_rounds, name):
    _, detail = traced_rounds[name]
    for entry in detail["balance"]:
        total = entry["self_ms"] + (entry["wall_ms"] - entry["covered_ms"])
        assert abs(total - entry["wall_ms"]) <= 0.1 * entry["wall_ms"]
        assert entry["covered_ms"] <= entry["wall_ms"]


def test_traced_and_untraced_runs_give_bit_identical_logits():
    from dphgnn.model import DropoutRates, Mode, init_dphgnn
    from dphgnn.precompute import build_structure

    model = importlib.import_module("dphgnn.model")

    wl = small("iso_pool_train")
    data = wl.make_data(5)
    structure = build_structure(data.hypergraph, data.features)
    config = wl.run_config(3, 5)

    def logits():
        params = init_dphgnn(np.random.default_rng(1), data.num_features, 32, 2, num_heads=2)
        rates = DropoutRates(0.2, 0.2, 0.2, 0.2)
        out = [model.dphgnn_forward(data, params, mode=mode, structure=structure, rates=rates,
                                    rng=np.random.default_rng(2)).logits.value.tobytes()
               for mode in (Mode.TRAIN, Mode.EVAL)]
        report = workloads.train_mod.train(config, data=data)
        return out, report.losses, report.final_metrics

    plain = logits()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = logits()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.aggregate(0)["model.dphgnn_forward.train.calls"] == 1 + 3


def test_reference_tolerance_passes_rounding_and_fails_a_wrong_result():
    want = json.loads(workloads.REFERENCE_PATH.read_text())["iso_pool_train"]
    rounded = {"final_loss": want["final_loss"] * (1 + 1e-12),
               "test_mean_accuracy": want["test_mean_accuracy"]}
    assert workloads.check_reference("iso_pool_train", rounded) is None
    wrong = dict(want, final_loss=want["final_loss"] * (1 + 1e-4))
    assert workloads.check_reference("iso_pool_train", wrong) is not None
    wrong = dict(want, test_mean_accuracy=want["test_mean_accuracy"] - 0.01)
    assert workloads.check_reference("iso_pool_train", wrong) is not None


def test_cached_eval_flags_output_that_differs_from_evaluate(tmp_path):
    ledger = workloads.Ledger()
    kind = workloads.CachedEvalWorkload(small("cached_eval"), 4, ledger, tmp_path)
    kind.setup(workloads.Samples())
    kind.warm_up()
    assert ledger.failed == 0, ledger.errors
    kind.expected = dict(kind.expected, mean_accuracy=kind.expected["mean_accuracy"] + 0.5)
    kind.cycle(workloads.Samples())
    assert ledger.failed == workloads.REQUESTS_PER_CYCLE


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso_pool_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

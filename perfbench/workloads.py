"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operations are public dphgnn calls
(``train()`` or an in-process ``dphgnn eval`` request); functions that the
tracer wraps are reached through their module attribute so that a traced
round sees them.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dphgnn import cli, experiments, hypergraph, precompute, synthetic
from dphgnn.experiments import IsoPoolSpec
from dphgnn.synthetic import TwoCommunitySpec

# The package re-exports the function train() under the submodule's name.
train_mod = importlib.import_module("dphgnn.train")

# The acceptance check c07's run configuration (hidden 32, 2 heads, dropout 0.2).
C07_CONFIG = {
    "gnn": {"lr": 0.01, "weight_decay": 5e-4, "dropout": 0.2, "hidden": 32, "num_layers": 2},
    "taa": {"lr": 0.001, "weight_decay": 1e-3, "dropout": 0.2, "hidden": 32, "num_layers": 1,
            "attention_heads": 2},
    "sib": {"lr": 0.01, "weight_decay": 5e-4, "dropout": 0.2, "hidden": 64, "num_layers": 1},
    "dff": {"lr": 0.01, "weight_decay": 5e-4, "dropout": 0.2, "hidden": 64, "num_layers": 2},
}

SETUP_REPEATS = 5          # set-ups per run; setup_s is their median
REFERENCE_SEED = 0         # seed of the warm-up run checked against reference.json
LOSS_RTOL = 1e-6           # passes a reordered float sum, fails a wrong gradient
ACCURACY_ATOL = 0.005      # about one test node on wide_edges_train, four on the iso pool
MIN_EVAL_REQUESTS = 40     # p75 then has at least 10 samples above it
REQUESTS_PER_CYCLE = 5     # cached_eval requests between checks of the clock

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: dict          # "kind" plus the generator's parameters
    config: dict             # RunConfig.from_dict payload, without epochs and seed
    epochs: int              # epochs of each timed train() call

    def run_config(self, epochs: int, seed: int) -> train_mod.RunConfig:
        return train_mod.RunConfig.from_dict({**self.config, "epochs": epochs, "seed": seed})

    def make_data(self, seed: int):
        params = {k: v for k, v in self.generator.items() if k != "kind"}
        if self.generator["kind"] == "iso_pool":
            data, _ = experiments.build_iso_pool(IsoPoolSpec(**params), seed)
            return data
        return synthetic.generate_synthetic(TwoCommunitySpec(**params), seed)

    def describe(self) -> dict:
        return {"why": self.why, "generator": self.generator, "config": self.config,
                "epochs": self.epochs}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iso_pool_train",
            why="The paper's headline iso/non-iso pool: 4000 nodes, 4000 size-2 edges; "
                "attention over the dense n x n mask dominates each epoch.",
            generator={"kind": "iso_pool", "num_pairs": 200},
            config=C07_CONFIG,
            epochs=5,
        ),
        Workload(
            name="wide_edges_train",
            why="Size-8 edges give a clique expansion with about 28 nnz per node, so sparse "
                "products and the structure build dominate instead of attention.",
            generator={"kind": "two_community", "num_nodes": 2000, "num_edges": 1000,
                       "edge_size": 8},
            config={},
            epochs=3,
        ),
        Workload(
            name="cached_eval",
            why="Forward-only dphgnn eval requests on the iso pool that read the structure "
                "cache and the JSON dataset and checkpoint, which training never touches.",
            generator={"kind": "iso_pool", "num_pairs": 200},
            config=C07_CONFIG,
            epochs=3,
        ),
    )
}


# ----------------------------------------------------------------------
# operations and their checks


class Ledger:
    """Counts attempted and failed operations; a failure is a raise or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label, fn, check=None):
        """Time ``fn()``; returns (seconds, result), with result None on failure.

        Reference cycles left by earlier operations are collected first, so
        that their collection and their memory are not charged to this one.
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, the loop goes on
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        problem = check(result) if check is not None else None
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
        return elapsed, result


def _report_fingerprint(report) -> tuple:
    return (tuple(report.losses), json.dumps(report.final_metrics, sort_keys=True))


class TrainCheck:
    """Losses finite and E long; every call equal to the run's first call."""

    def __init__(self, epochs: int):
        self.epochs = epochs
        self.first = None

    def __call__(self, report) -> str | None:
        if len(report.losses) != self.epochs:
            return f"{len(report.losses)} losses for {self.epochs} epochs"
        if not all(math.isfinite(v) for v in report.losses):
            return f"non-finite loss in {report.losses}"
        if "test" not in report.final_metrics:
            return "no test metrics"
        if self.first is None:
            self.first = _report_fingerprint(report)
        elif _report_fingerprint(report) != self.first:
            return "result differs from the first call with the same inputs"
        return None


def reference_run(wl: Workload) -> dict:
    """Final loss and test accuracy of one train() call at REFERENCE_SEED."""
    report = train_mod.train(wl.run_config(wl.epochs, REFERENCE_SEED),
                             data=wl.make_data(REFERENCE_SEED))
    return {"final_loss": report.losses[-1],
            "test_mean_accuracy": report.final_metrics["test"]["mean_accuracy"]}


def check_reference(name: str, got: dict) -> str | None:
    want = json.loads(REFERENCE_PATH.read_text())[name]
    if not math.isclose(got["final_loss"], want["final_loss"], rel_tol=LOSS_RTOL):
        return f"final loss {got['final_loss']!r} != reference {want['final_loss']!r}"
    if abs(got["test_mean_accuracy"] - want["test_mean_accuracy"]) > ACCURACY_ATOL:
        return (f"test accuracy {got['test_mean_accuracy']!r} != reference "
                f"{want['test_mean_accuracy']!r}")
    return None


def eval_request(checkpoint, data_path, cache_dir) -> dict:
    """One ``dphgnn eval`` request in process; returns its printed JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_path),
                         "--mask", "test", "--cache", str(cache_dir)])
    if code != 0:
        raise RuntimeError(f"dphgnn eval exited with {code}")
    return json.loads(out.getvalue())


# ----------------------------------------------------------------------
# set-up and cycles


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)     # train() at the workload's epochs
    train0_s: list[float] = field(default_factory=list)    # train() with epochs=0
    eval_s: list[float] = field(default_factory=list)      # request latencies

    def metrics(self, epochs: int) -> dict[str, float]:
        med = statistics.median
        return {
            "setup_s": med(self.setup_s),
            "train_s": med(self.train_s),
            "epoch_ms": (med(self.train_s) - med(self.train0_s)) / epochs * 1e3,
            "eval_ms_p50": float(np.percentile(self.eval_s, 50)) * 1e3,
            "eval_ms_p75": float(np.percentile(self.eval_s, 75)) * 1e3,
        }


class TrainWorkload:
    """iso_pool_train and wide_edges_train.

    A cycle is train(E) then two train(epochs=0) calls. train(0) builds the
    structure without a cache, runs one EVAL forward and scores all masks,
    so its latencies are this workload's uncached eval requests.
    """

    def __init__(self, wl: Workload, seed: int, ledger: Ledger, workdir: Path):
        self.wl, self.seed, self.ledger = wl, seed, ledger
        self.check_e = TrainCheck(wl.epochs)
        self.check_0 = TrainCheck(0)
        self.data = None

    def setup(self, samples: Samples) -> None:
        def build():
            data = self.wl.make_data(self.seed)
            hg = hypergraph.ensure_min_degree(data.hypergraph)
            precompute.build_structure(hg, data.features)
            return data

        seconds, data = self.ledger.op("setup", build)
        if data is not None:
            samples.setup_s.append(seconds)
            self.data = data

    def warm_up(self) -> None:
        self.ledger.op("reference", lambda: reference_run(self.wl),
                       lambda got: check_reference(self.wl.name, got))

    def cycle(self, samples: Samples) -> None:
        config_e = self.wl.run_config(self.wl.epochs, self.seed)
        config_0 = self.wl.run_config(0, self.seed)
        seconds, report = self.ledger.op("train", lambda: train_mod.train(config_e, data=self.data),
                                         self.check_e)
        if report is not None:
            samples.train_s.append(seconds)
        for _ in range(2):
            seconds, report = self.ledger.op(
                "train0", lambda: train_mod.train(config_0, data=self.data), self.check_0)
            if report is not None:
                samples.train0_s.append(seconds)
                samples.eval_s.append(seconds)

    def enough(self, samples: Samples) -> bool:
        return bool(samples.train_s)


class CachedEvalWorkload:
    """cached_eval: warm ``dphgnn eval`` requests against a filled cache.

    A set-up generates the pool, writes the dataset JSON, trains and writes
    the checkpoint, and fills the cache with one cold request, in a fresh
    directory. It also times a train(epochs=0) call, left out of setup_s,
    so that train_s and epoch_ms mean what they mean on the train workloads.
    """

    def __init__(self, wl: Workload, seed: int, ledger: Ledger, workdir: Path):
        self.wl, self.seed, self.ledger, self.workdir = wl, seed, ledger, workdir
        self.check_e = TrainCheck(wl.epochs)
        self.check_0 = TrainCheck(0)
        self.paths = None
        self.expected = None
        self.outputs: list[dict] = []

    def _check_output(self, got: dict) -> str | None:
        if self.expected is None:  # first set-ups: checked once warm_up knows the answer
            self.outputs.append(got)
        elif got != self.expected:
            return f"printed {got} but evaluate() gives {self.expected}"
        return None

    def setup(self, samples: Samples) -> None:
        start = time.perf_counter()
        root = Path(tempfile.mkdtemp(dir=self.workdir))
        data = self.wl.make_data(self.seed)
        hypergraph.save_dataset(data, root / "data.json")
        train_seconds, report = self.ledger.op(
            "train", lambda: train_mod.train(self.wl.run_config(self.wl.epochs, self.seed),
                                             data=data, out_dir=root / "run"),
            self.check_e)
        train0_seconds, report0 = self.ledger.op(
            "train0", lambda: train_mod.train(self.wl.run_config(0, self.seed), data=data),
            self.check_0)
        paths = {"dir": root, "data": root / "data.json", "checkpoint": root / "run" / "checkpoint.json",
                 "cache": root / "cache"}
        _, cold = self.ledger.op("cold_request", lambda: eval_request(
            paths["checkpoint"], paths["data"], paths["cache"]), self._check_output)
        elapsed = time.perf_counter() - start
        if report is None or report0 is None or cold is None:
            return
        samples.setup_s.append(elapsed - train0_seconds)
        samples.train_s.append(train_seconds)
        samples.train0_s.append(train0_seconds)
        if self.paths is not None:
            shutil.rmtree(self.paths["dir"], ignore_errors=True)
        self.paths, self.data = paths, data

    def warm_up(self) -> None:
        # The expected output comes from an in-process evaluate() without a cache.
        _, result = self.ledger.op("evaluate", lambda: train_mod.evaluate(
            self.paths["checkpoint"], self.data, "test"))
        if result is not None:
            self.expected = {"mask": "test", "mean_accuracy": result.mean_accuracy,
                             "macro_f1": result.macro_f1, "micro_f1": result.micro_f1}
            for got in self.outputs:
                if got != self.expected:
                    self.ledger.failed += 1
                    self.ledger.errors.append(f"cold_request: printed {got}, expected {self.expected}")
        self.ledger.op("warm_request", lambda: eval_request(
            self.paths["checkpoint"], self.paths["data"], self.paths["cache"]), self._check_output)

    def cycle(self, samples: Samples) -> None:
        for _ in range(REQUESTS_PER_CYCLE):
            seconds, got = self.ledger.op("request", lambda: eval_request(
                self.paths["checkpoint"], self.paths["data"], self.paths["cache"]),
                self._check_output)
            if got is not None:
                samples.eval_s.append(seconds)

    def enough(self, samples: Samples) -> bool:
        return len(samples.eval_s) >= MIN_EVAL_REQUESTS


KINDS = {"iso_pool_train": TrainWorkload, "wide_edges_train": TrainWorkload,
         "cached_eval": CachedEvalWorkload}

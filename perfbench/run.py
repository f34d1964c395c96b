"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload iso_pool_train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record, with the
environment, the samples and any errors, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import ctypes
import os

# BLAS threads are fixed before numpy loads; a second thread saves little on
# these sizes and turns small products into 100x outliers under contention.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

PR_SET_THP_DISABLE = 41


def disable_transparent_huge_pages() -> bool:
    """Opt this process out of transparent huge pages (Linux prctl).

    With THP on, the kernel collapses heap regions into huge pages at times
    of its own choosing, and the peak RSS of identical runs moved between
    365 and 446 MB on the iso pool. Returns whether the kernel accepted it.
    """
    try:
        return ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


THP_DISABLED = disable_transparent_huge_pages()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "epoch_ms": "ms", "eval_ms_p50": "ms",
                    "eval_ms_p75": "ms", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_env": BLAS_ENV,
        "thp_disabled": THP_DISABLED,
        "blas_threads": None,
        "blas_runtime": None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }
    # OpenBLAS reports its own thread count; find the loaded library by name.
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                env["blas_threads"] = threads()
                env["blas_runtime"] = config().decode()
                return env
    return env


def _percent_gap(traced: list[float], untraced: list[float]) -> float:
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base * 100.0


def _untraced(kind, seconds: float, hard_stop: float, samples, setups_left: int) -> None:
    """Run cycles for ``seconds``, with the remaining set-ups spread evenly
    over the window so that slow and fast spells of a shared machine reach
    setup_s as they reach the other metrics."""
    total = setups_left + 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < hard_stop and (
            time.perf_counter() < deadline or not kind.enough(samples)):
        if setups_left and time.perf_counter() >= deadline - seconds * setups_left / total:
            kind.setup(samples)
            setups_left -= 1
        kind.cycle(samples)
    for _ in range(setups_left):
        kind.setup(samples)


def _traced(kind, seconds: float, hard_stop: float, tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; a round is one set-up and one cycle."""
    import workloads
    from tracer import median_rounds

    plain, traced = workloads.Samples(), workloads.Samples()
    rounds, balance = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < hard_stop and (time.perf_counter() < deadline or not rounds):
        if len(plain.setup_s) <= len(rounds):
            kind.setup(plain)
            kind.cycle(plain)
            continue
        tracer.install()
        try:
            mark, start = tracer.mark(), time.perf_counter()
            kind.setup(traced)
            kind.cycle(traced)
            wall_ms = (time.perf_counter() - start) * 1e3
        finally:
            tracer.uninstall()
        rounds.append(tracer.aggregate(mark))
        balance.append({"wall_ms": wall_ms, "covered_ms": tracer.covered_ms(mark),
                        "self_ms": sum(v for k, v in rounds[-1].items() if k.endswith(".self_ms"))})
    metrics = median_rounds(rounds)
    metrics["trace.overhead.train_s"] = _percent_gap(traced.train_s, plain.train_s)
    metrics["trace.overhead.eval_ms_p50"] = _percent_gap(traced.eval_s, plain.eval_s)
    detail = {"rounds": len(rounds), "balance": balance,
              "samples": {"untraced": vars(plain), "traced": vars(traced)}}
    return metrics, detail


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, warm up, then measure for ``seconds``; returns (result, detail)."""
    import workloads
    from tracer import Tracer, per_layer_metrics

    wl = workloads.WORKLOADS[name]
    ledger = workloads.Ledger()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    kind = workloads.KINDS[name](wl, seed, ledger, workdir)
    detail: dict = {"workload": wl.describe()}
    try:
        samples = workloads.Samples()
        kind.setup(samples)
        if not samples.setup_s:
            raise RuntimeError("set-up failed:\n" + "\n".join(ledger.errors))
        kind.warm_up()
        # A run whose operations all fail would otherwise never have enough samples.
        hard_stop = time.perf_counter() + seconds + 60
        if trace:
            tracer = Tracer()
            metrics, more = _traced(kind, seconds, hard_stop, tracer)
            detail.update(more, untraceable=tracer.missing)
            (WORK / "results").mkdir(exist_ok=True)
            tracer.dump(str(WORK / "results" / f"{name}-seed{seed}-spans.jsonl"))
            units = {m["name"]: m["unit"] for m in per_layer_metrics()}
        else:
            _untraced(kind, seconds, hard_stop, samples, workloads.SETUP_REPEATS - 1)
            metrics = samples.metrics(wl.epochs)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            detail["samples"] = vars(samples)
            detail["sample_counts"] = {k: len(v) for k, v in vars(samples).items()}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["errors"] = ledger.errors
    detail["error_rate"] = ledger.failed / ledger.attempted
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dphgnn" / "__init__.py").is_file():
        print(f"error: no dphgnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    for error in detail["errors"]:
        print(error, file=sys.stderr)
    env = detail["environment"]
    print(f"# {args.workload} seed={args.seed} numpy={env['numpy']} blas={env['blas']} "
          f"{env['blas_version']} blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"thp_disabled={env['thp_disabled']}")
    print(f"# error_rate {detail['error_rate']:.4f} ({result['failed']}/{result['attempted']})")
    if "sample_counts" in detail:
        print("# samples " + " ".join(f"{k}={n}" for k, n in detail["sample_counts"].items()))
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Higher-level experiment drivers: ablation grids and the iso/non-iso pool.

The iso pool turns hypergraph-pair isomorphism into transductive node
classification. Each instance is a pair (A, B) of 2-uniform cycle
hypergraphs embedded as one connected-componentwise block of a pooled
hypergraph; every node of the pair carries the pair's binary label
(1 = isomorphic, 0 = not). All cycles are 2-regular and 2-uniform, so
color refinement assigns every node the same stable color and the
verdict for every pair is PossiblyIsomorphic: structure alone cannot
separate the classes, which is the point of the benchmark. Models must
instead exploit per-node identifier features propagated from the sparse
supervised nodes of each pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleSpecError
from .gwl import Verdict, brute_force_isomorphic, gwl_test
from .hypergraph import Hypergraph, LabeledHypergraph, build_hypergraph
from .model import AblationFlags, Mode, dphgnn_forward, init_dphgnn
from .precompute import build_structure
from .synthetic import cycle_hypergraph, permuted_copy
from .train import RunConfig, train

__all__ = [
    "AblationRow",
    "run_ablation",
    "IsoPoolSpec",
    "build_iso_pool",
    "iso_experiment",
    "time_forward",
]

DEFAULT_GRID = (
    ("overall", AblationFlags(True, True, True)),
    ("no_taa", AblationFlags(False, True, True)),
    ("no_sib", AblationFlags(True, False, True)),
    ("no_dff", AblationFlags(True, True, False)),
)


@dataclass
class AblationRow:
    name: str
    flags: AblationFlags
    metrics: dict[str, dict[str, float]]
    final_loss: float | None


def run_ablation(
    config: RunConfig,
    data: LabeledHypergraph | None = None,
    grid=None,
    cache_dir=None,
) -> list[AblationRow]:
    """Train once per flag combination with a shared seed and dataset."""
    if grid is None:
        grid = DEFAULT_GRID
    if data is None:
        from .train import resolve_dataset

        data = resolve_dataset(config)
    rows = []
    for name, flags in grid:
        run_cfg = replace(config, ablation=flags)
        report = train(run_cfg, data=data, cache_dir=cache_dir)
        rows.append(
            AblationRow(
                name=name,
                flags=flags,
                metrics=report.final_metrics,
                final_loss=report.losses[-1] if report.losses else None,
            )
        )
    return rows


# ----------------------------------------------------------------------
# iso/non-iso pool


@dataclass(frozen=True)
class IsoPoolSpec:
    """Pool layout. Halves are cycles; split pairs use (split_a, split_b)
    and joined instances a single cycle of length split_a + split_b."""

    num_pairs: int = 200
    split_a: int = 5
    split_b: int = 5
    train_per_pair: int = 2
    feature_dim: int = 24
    verify_ground_truth: bool = True


@dataclass
class IsoPair:
    index: int
    kind: str
    label: int
    left: Hypergraph
    right: Hypergraph
    node_offset: int
    num_nodes: int
    verdict: Verdict = Verdict.POSSIBLY_ISOMORPHIC


def _pooled_hypergraph(sides: list[Hypergraph]) -> Hypergraph:
    """The sides side by side, each side's nodes numbered after the nodes of
    the sides before it: what ``build_hypergraph`` makes of the shifted
    edges, built from the sides' validated arrays without checking them again."""
    counts = np.array([side.num_nodes for side in sides], dtype=np.int64)
    offsets = (np.cumsum(counts) - counts).tolist()
    members = np.concatenate([side.members + off for side, off in zip(sides, offsets)])
    sizes = np.concatenate([side.edge_degrees for side in sides])
    flat, bounds = members.tolist(), np.concatenate(([0], np.cumsum(sizes))).tolist()
    edges = tuple(map(tuple, map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:]))))
    degrees = np.concatenate([side.node_degrees for side in sides])
    return Hypergraph(int(counts.sum()), edges, degrees, sizes, members)


def build_iso_pool(
    spec: IsoPoolSpec, seed: int
) -> tuple[LabeledHypergraph, list[IsoPair]]:
    """Assemble the pooled dataset plus per-pair bookkeeping.

    Even pair indices are isomorphic (a cycle family and a relabeled
    copy), odd ones are not (two small cycles versus their joined
    cycle: same node count, same degree sequence, not isomorphic).
    Features are seeded unit normals acting as near-unique node ids.
    Splits are per pair: ``train_per_pair`` random nodes train, the
    rest alternate val/test.

    Every non-iso pair is the same two hypergraph objects, so its
    brute-force check and refinement verdict run once per call, at pair
    1; each iso pair is checked and refined on its own.
    """
    if spec.num_pairs < 2:
        raise InfeasibleSpecError("iso pool needs at least 2 pairs")
    split = cycle_hypergraph(spec.split_a, spec.split_b)
    joined = cycle_hypergraph(spec.split_a + spec.split_b)
    rng = np.random.default_rng(seed)
    pairs: list[IsoPair] = []
    sides: list[Hypergraph] = []
    labels = []
    offset = 0
    non_iso_verdict = None
    for i in range(spec.num_pairs):
        if i % 2 == 0:
            # isomorphic pair; alternate joined/split families so that
            # small-cycle components occur under both labels
            base = joined if i % 4 == 0 else split
            other, _ = permuted_copy(base, rng)
            label = 1
            kind = "iso"
        else:
            base, other = split, joined
            label = 0
            kind = "non_iso"
        if kind == "non_iso" and non_iso_verdict is not None:
            verdict = non_iso_verdict
        else:
            if spec.verify_ground_truth and base.num_nodes <= 10:
                if brute_force_isomorphic(base, other) != (label == 1):
                    raise InfeasibleSpecError(
                        f"pair {i} ({kind}) failed its brute-force isomorphism check"
                    )
            verdict = gwl_test(base, other).verdict
            if kind == "non_iso":
                non_iso_verdict = verdict
        pair_nodes = base.num_nodes + other.num_nodes
        pairs.append(
            IsoPair(
                index=i,
                kind=kind,
                label=label,
                left=base,
                right=other,
                node_offset=offset,
                num_nodes=pair_nodes,
                verdict=verdict,
            )
        )
        sides += [base, other]
        labels.extend([label] * pair_nodes)
        offset += pair_nodes

    hg = _pooled_hypergraph(sides)
    labels = np.asarray(labels, dtype=np.int64)
    features = rng.standard_normal((offset, spec.feature_dim))

    train_mask = np.zeros(offset, dtype=bool)
    val_mask = np.zeros(offset, dtype=bool)
    test_mask = np.zeros(offset, dtype=bool)
    for pair in pairs:
        ids = np.arange(pair.node_offset, pair.node_offset + pair.num_nodes)
        rng.shuffle(ids)
        k = min(spec.train_per_pair, pair.num_nodes - 2)
        train_mask[ids[:k]] = True
        rest = ids[k:]
        val_mask[rest[::2]] = True
        test_mask[rest[1::2]] = True

    data = LabeledHypergraph(
        hypergraph=hg,
        features=features,
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        num_classes=2,
    )
    return data, pairs


def iso_experiment(
    pool_spec: IsoPoolSpec,
    seed: int,
    base_config: RunConfig,
    cache_dir=None,
) -> dict:
    """Train both models on identical pool splits; summarize with verdicts."""
    data, pairs = build_iso_pool(pool_spec, seed)
    verdicts = {v.name: 0 for v in Verdict}
    for pair in pairs:
        verdicts[pair.verdict.name] += 1
    reports = {}
    for model in ("dphgnn", "hgnn"):
        cfg = replace(base_config, model=model, seed=seed)
        reports[model] = train(cfg, data=data, cache_dir=cache_dir)
    return {
        "num_pairs": len(pairs),
        "num_nodes": data.num_nodes,
        "positive_pairs": sum(p.label for p in pairs),
        "verdicts": verdicts,
        "dphgnn": reports["dphgnn"].final_metrics,
        "hgnn": reports["hgnn"].final_metrics,
        "test_accuracy_gap": (
            reports["dphgnn"].final_metrics["test"]["mean_accuracy"]
            - reports["hgnn"].final_metrics["test"]["mean_accuracy"]
        ),
    }


# ----------------------------------------------------------------------
# timing


def time_forward(
    num_nodes: int,
    edge_counts: list[int],
    feature_dim: int = 16,
    hidden: int = 16,
    edge_size: int = 3,
    repeats: int = 3,
    seed: int = 0,
) -> dict[int, float]:
    """Median Eval-mode forward time (seconds) per hyperedge count.

    Structure bundles are built outside the timed region, matching how
    training amortizes decomposition cost across epochs.
    """
    rng = np.random.default_rng(seed)
    timings: dict[int, float] = {}
    for m in edge_counts:
        edges = []
        # force full coverage so no singleton patching distorts m
        perm = rng.permutation(num_nodes)
        for i in range(0, num_nodes, edge_size):
            chunk = perm[i : i + edge_size]
            if len(chunk) == 1:
                chunk = perm[i - 1 : i + 1]
            edges.append(tuple(int(v) for v in chunk))
        if m < len(edges):
            raise InfeasibleSpecError(f"m={m} cannot cover {num_nodes} nodes")
        while len(edges) < m:
            members = rng.choice(num_nodes, size=edge_size, replace=False)
            edges.append(tuple(int(v) for v in members))
        hg = build_hypergraph(num_nodes, edges)
        features = rng.standard_normal((num_nodes, feature_dim))
        labels = np.zeros(num_nodes, dtype=np.int64)
        labels[: num_nodes // 2] = 1
        mask = np.zeros(num_nodes, dtype=bool)
        mask[0] = True
        data = LabeledHypergraph(
            hypergraph=hg,
            features=features,
            labels=labels,
            train_mask=mask,
            val_mask=~mask & (np.arange(num_nodes) % 2 == 0),
            test_mask=~mask & (np.arange(num_nodes) % 2 == 1),
            num_classes=2,
        )
        structure = build_structure(hg, features)
        params = init_dphgnn(np.random.default_rng(seed), feature_dim, hidden, 2)
        samples = []
        dphgnn_forward(data, params, mode=Mode.EVAL, structure=structure)
        for _ in range(repeats):
            start = time.perf_counter()
            dphgnn_forward(data, params, mode=Mode.EVAL, structure=structure)
            samples.append(time.perf_counter() - start)
        timings[m] = float(np.median(samples))
    return timings

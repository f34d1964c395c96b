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

from .autodiff import no_grad
from .errors import InfeasibleSpecError
from .gwl import BRUTE_FORCE_MAX_NODES, Verdict, brute_force_isomorphic, gwl_test
from .hypergraph import Hypergraph, LabeledHypergraph, _from_arrays, build_hypergraph
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
    offsets = np.cumsum(counts) - counts
    members = np.concatenate([side.members for side in sides])
    members += np.repeat(offsets, [side.members.size for side in sides])
    sizes = np.concatenate([side.edge_degrees for side in sides])
    return _from_arrays(int(counts.sum()), sizes, members)


def _uncertified(bases: list[Hypergraph], copies: list[Hypergraph], perms: list) -> np.ndarray:
    """Per (base, copy, perm), whether ``perm`` fails to be a permutation of
    the base's nodes that maps its edge multiset onto the copy's, node v to
    perm[v].

    The bases are the pool's two cycle families: uniform edges, one node
    count, one edge count. So the pairs stack into arrays, and all are
    compared at once: each side's edges become rows of sorted members, in
    lexicographic order within each pair.
    """
    n, m = bases[0].num_nodes, bases[0].num_edges
    perm = np.stack(perms)
    mapped = np.take_along_axis(perm, np.stack([base.members for base in bases]), axis=1)
    got = np.stack([copy.members for copy in copies])
    ok = (np.sort(perm, axis=1) == np.arange(n)).all(axis=1)
    ok &= np.array([copy.num_nodes == n for copy in copies])
    ok &= (np.stack([copy.edge_degrees for copy in copies])
           == np.stack([base.edge_degrees for base in bases])).all(axis=1)
    ok &= (_edge_rows(mapped, m) == _edge_rows(got, m)).all(axis=(1, 2))
    return ~ok


def _edge_rows(members: np.ndarray, num_edges: int) -> np.ndarray:
    # (pairs, edges, width) rows of each pair's uniform edges: members sorted
    # within each edge, edges in lexicographic order within each pair.
    rows = np.sort(members.reshape(len(members), num_edges, -1), axis=2)
    flat = rows.reshape(-1, rows.shape[2])
    pair = np.repeat(np.arange(len(members)), num_edges)
    return flat[np.lexsort((*flat.T[::-1], pair))].reshape(rows.shape)


def build_iso_pool(
    spec: IsoPoolSpec, seed: int
) -> tuple[LabeledHypergraph, list[IsoPair]]:
    """Assemble the pooled dataset plus per-pair bookkeeping.

    Even pair indices are isomorphic (a cycle family and a relabeled
    copy), odd ones are not (two small cycles versus their joined
    cycle: same node count, same degree sequence, not isomorphic).
    Features are seeded unit normals acting as near-unique node ids.
    Splits are per pair: ``train_per_pair`` random nodes train, the
    rest alternate val/test. Every pair has 2 (split_a + split_b) nodes,
    so one ``rng.permuted`` call shuffles every pair's node ids, row by
    row, as one ``rng.shuffle`` per pair would.

    With ``verify_ground_truth`` each iso pair is checked, at any node
    count, by its certificate: the permutation that made the copy must
    map the base's edge multiset onto the copy's. All certificates are
    checked at once after the pairs are made. The non-iso pair, the
    same two objects at every odd index, is searched by brute force once
    when its sides have at most ``BRUTE_FORCE_MAX_NODES`` nodes. The first
    failing pair raises. Without it nothing is checked. Refinement is
    invariant under relabelling one side, so ``gwl_test`` runs once per
    base family for the iso pairs and once for the non-iso pair.
    """
    if spec.num_pairs < 2:
        raise InfeasibleSpecError("iso pool needs at least 2 pairs")
    split = cycle_hypergraph(spec.split_a, spec.split_b)
    joined = cycle_hypergraph(spec.split_a + spec.split_b)
    width = split.num_nodes + joined.num_nodes
    rng = np.random.default_rng(seed)
    pairs: list[IsoPair] = []
    sides: list[Hypergraph] = []
    iso: list[tuple[Hypergraph, Hypergraph, np.ndarray]] = []   # (base, copy, perm)
    # one refinement verdict per class, keyed by kind and base object
    verdicts: dict[tuple[str, int], Verdict] = {}
    for i in range(spec.num_pairs):
        if i % 2 == 0:
            # isomorphic pair; alternate joined/split families so that
            # small-cycle components occur under both labels
            base = joined if i % 4 == 0 else split
            other, perm = permuted_copy(base, rng)
            iso.append((base, other, perm))
            label, kind = 1, "iso"
        else:
            base, other = split, joined
            label, kind = 0, "non_iso"
        key = (kind, id(base))
        if key not in verdicts:
            verdicts[key] = gwl_test(base, other).verdict
        pairs.append(IsoPair(i, kind, label, base, other, i * width, width, verdicts[key]))
        sides += [base, other]

    if spec.verify_ground_truth:
        bad = np.flatnonzero(_uncertified(*zip(*iso)))
        # iso pairs sit at the even indices
        failures = [(2 * int(j), "iso", "failed its permutation certificate") for j in bad[:1]]
        if split.num_nodes <= BRUTE_FORCE_MAX_NODES and brute_force_isomorphic(split, joined):
            failures.append((1, "non_iso", "failed its brute-force isomorphism check"))
        if failures:
            i, kind, what = min(failures)
            raise InfeasibleSpecError(f"pair {i} ({kind}) {what}")

    hg = _pooled_hypergraph(sides)
    num_nodes = spec.num_pairs * width
    labels = np.repeat(np.array([pair.label for pair in pairs], dtype=np.int64), width)
    features = rng.standard_normal((num_nodes, spec.feature_dim))

    ids = rng.permuted(np.arange(num_nodes).reshape(spec.num_pairs, width), axis=1)
    k = min(spec.train_per_pair, width - 2)
    rest = ids[:, k:]
    train_mask = np.zeros(num_nodes, dtype=bool)
    val_mask = np.zeros(num_nodes, dtype=bool)
    test_mask = np.zeros(num_nodes, dtype=bool)
    train_mask[ids[:, :k]] = True
    val_mask[rest[:, ::2]] = True
    test_mask[rest[:, 1::2]] = True

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
        # EVAL forwards record no tape, as in ``train`` and ``evaluate``.
        with no_grad():
            dphgnn_forward(data, params, mode=Mode.EVAL, structure=structure)
            for _ in range(repeats):
                start = time.perf_counter()
                dphgnn_forward(data, params, mode=Mode.EVAL, structure=structure)
                samples.append(time.perf_counter() - start)
        timings[m] = float(np.median(samples))
    return timings

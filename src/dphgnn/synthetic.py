"""Deterministic synthetic hypergraph generators.

Four families, all reproducible from (spec, seed):

* ``two_community``: planted-partition node classification; most edges
  fall inside one community, a few mix both.
* ``uniform_imbalanced``: k-uniform structure with a mirror automorphism
  (every edge has a shifted twin) and a minority positive class whose
  default rate, 6568/33395, matches a public procurement fraud corpus.
* ``iso_pair``: a random hypergraph and a relabeled copy.
* ``non_iso_pair``: two disjoint cycles against one long cycle on the
  same node count; both sides are 2-regular and 2-uniform, so degree
  histograms agree while the structures differ.

Classification datasets default to one-hot node-index features, held as
a CSR identity so that featureless data costs O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InfeasibleSpecError, ParseError
from .gwl import BRUTE_FORCE_MAX_NODES, brute_force_isomorphic
from .hypergraph import Hypergraph, LabeledHypergraph, build_hypergraph, relabel_nodes
from .sparse import SparseMatrix

__all__ = [
    "TwoCommunitySpec",
    "UniformImbalancedSpec",
    "IsoPairSpec",
    "NonIsoPairSpec",
    "GeneratorSpec",
    "parse_generator_spec",
    "generate_synthetic",
    "cycle_hypergraph",
    "random_hypergraph",
    "permuted_copy",
    "mirrored_uniform_hypergraph",
    "one_hot_features",
    "stratified_masks",
    "IMBALANCED_POSITIVE_RATE",
]

# Minority/total ratio of the reference fraud corpus (6568 of 33395).
IMBALANCED_POSITIVE_RATE = 6568 / 33395


@dataclass(frozen=True)
class TwoCommunitySpec:
    num_nodes: int = 200
    num_edges: int = 100
    edge_size: int = 3
    p_in: float = 0.3
    p_out: float = 0.02
    train_frac: float = 0.5
    val_frac: float = 0.25


@dataclass(frozen=True)
class UniformImbalancedSpec:
    num_nodes: int = 400
    num_edges: int | None = None   # default: ~0.41 per node, mirrored
    edge_size: int = 4
    positive_rate: float = IMBALANCED_POSITIVE_RATE
    train_frac: float = 0.5
    val_frac: float = 0.25


@dataclass(frozen=True)
class IsoPairSpec:
    num_nodes: int = 8
    num_edges: int = 6
    min_edge_size: int = 2
    max_edge_size: int = 4


@dataclass(frozen=True)
class NonIsoPairSpec:
    cycle_a: int = 3
    cycle_b: int = 3


GeneratorSpec = Union[TwoCommunitySpec, UniformImbalancedSpec, IsoPairSpec, NonIsoPairSpec]

_KINDS = {
    "two_community": TwoCommunitySpec,
    "uniform_imbalanced": UniformImbalancedSpec,
    "iso_pair": IsoPairSpec,
    "non_iso_pair": NonIsoPairSpec,
}


def parse_generator_spec(payload: dict) -> GeneratorSpec:
    """Build a spec from a JSON-style dict with a ``kind`` field."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParseError("generator spec must be an object with a 'kind' field")
    kind = payload["kind"]
    cls = _KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown generator kind {kind!r}; choose from {sorted(_KINDS)}")
    kwargs = {k: v for k, v in payload.items() if k != "kind"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ParseError(f"bad parameters for {kind}: {exc}") from exc


# ----------------------------------------------------------------------
# shared helpers


def one_hot_features(num_nodes: int) -> SparseMatrix:
    """X = I as a CSR identity: GCN's featureless mode in O(n) memory."""
    return SparseMatrix.identity(num_nodes)


def stratified_masks(
    labels: np.ndarray,
    rng: np.random.Generator,
    train_frac: float,
    val_frac: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class shuffled split into train/val/test masks."""
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac > 1:
        raise InfeasibleSpecError("split fractions must be non-negative and sum to at most 1")
    n = len(labels)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        n_train = int(round(train_frac * len(members)))
        n_val = int(round(val_frac * len(members)))
        train[members[:n_train]] = True
        val[members[n_train : n_train + n_val]] = True
        test[members[n_train + n_val :]] = True
    return train, val, test


def random_hypergraph(
    rng: np.random.Generator,
    num_nodes: int,
    num_edges: int,
    min_edge_size: int = 2,
    max_edge_size: int = 4,
) -> Hypergraph:
    if min_edge_size < 1 or max_edge_size < min_edge_size:
        raise InfeasibleSpecError("bad edge size range")
    if max_edge_size > num_nodes:
        raise InfeasibleSpecError(
            f"edge size {max_edge_size} exceeds node count {num_nodes}"
        )
    edges = []
    for _ in range(num_edges):
        size = int(rng.integers(min_edge_size, max_edge_size + 1))
        edges.append(sorted(rng.choice(num_nodes, size=size, replace=False).tolist()))
    return build_hypergraph(num_nodes, edges)


def permuted_copy(hg: Hypergraph, rng: np.random.Generator) -> tuple[Hypergraph, np.ndarray]:
    perm = rng.permutation(hg.num_nodes)
    return relabel_nodes(hg, perm), perm


def cycle_hypergraph(*lengths: int) -> Hypergraph:
    """Disjoint union of 2-uniform cycles with the given lengths."""
    for length in lengths:
        if length < 3:
            raise InfeasibleSpecError("cycles need at least 3 nodes")
    edges = []
    offset = 0
    for length in lengths:
        for i in range(length):
            edges.append((offset + i, offset + (i + 1) % length))
        offset += length
    return build_hypergraph(offset, edges)


def mirrored_uniform_hypergraph(
    rng: np.random.Generator,
    half_nodes: int,
    half_edges: int,
    edge_size: int,
) -> tuple[Hypergraph, np.ndarray]:
    """k-uniform hypergraph with the shift v -> v + half_nodes as automorphism.

    Every sampled edge on the first half is duplicated, shifted into the
    second half, so the shift maps the edge set onto itself. Returns the
    hypergraph and the automorphism as a permutation array.
    """
    if edge_size > half_nodes:
        raise InfeasibleSpecError(
            f"edge size {edge_size} exceeds half the node count"
        )
    base = []
    for _ in range(half_edges):
        base.append(sorted(rng.choice(half_nodes, size=edge_size, replace=False).tolist()))
    # Keep both halves free of isolated nodes so Laplacians exist.
    covered = {v for e in base for v in e}
    for v in range(half_nodes):
        if v not in covered:
            others = np.delete(np.arange(half_nodes), v)
            extra = [v] + rng.choice(others, size=edge_size - 1, replace=False).tolist()
            base.append(sorted(extra))
    edges = [tuple(e) for e in base] + [tuple(v + half_nodes for v in e) for e in base]
    hg = build_hypergraph(2 * half_nodes, edges)
    automorphism = np.concatenate(
        [np.arange(half_nodes) + half_nodes, np.arange(half_nodes)]
    )
    return hg, automorphism


# ----------------------------------------------------------------------
# generator entry point


def _gen_two_community(spec: TwoCommunitySpec, rng: np.random.Generator) -> LabeledHypergraph:
    n = spec.num_nodes
    if n < 2 * spec.edge_size:
        raise InfeasibleSpecError("each community needs at least edge_size nodes")
    if not (0 <= spec.p_out <= spec.p_in <= 1) or spec.p_in <= 0:
        raise InfeasibleSpecError("need 0 <= p_out <= p_in and p_in > 0")
    half = n // 2
    labels = np.zeros(n, dtype=np.int64)
    labels[half:] = 1
    communities = [np.arange(half), np.arange(half, n)]
    pure_share = spec.p_in / (spec.p_in + spec.p_out)
    edges = []
    for _ in range(spec.num_edges):
        if rng.random() < pure_share:
            pool = communities[int(rng.integers(2))]
            edges.append(sorted(rng.choice(pool, size=spec.edge_size, replace=False).tolist()))
        else:
            # Mixed edge: force at least one member from each side.
            a = int(rng.choice(communities[0]))
            b = int(rng.choice(communities[1]))
            rest = rng.choice(
                np.delete(np.arange(n), [a, b]), size=spec.edge_size - 2, replace=False
            ).tolist()
            edges.append(sorted([a, b] + rest))
    hg = build_hypergraph(n, edges)
    train, val, test = stratified_masks(labels, rng, spec.train_frac, spec.val_frac)
    return LabeledHypergraph(
        hypergraph=hg,
        features=one_hot_features(n),
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=2,
    )


def _gen_uniform_imbalanced(
    spec: UniformImbalancedSpec, rng: np.random.Generator
) -> LabeledHypergraph:
    n = spec.num_nodes
    if n % 2:
        raise InfeasibleSpecError("mirrored construction needs an even node count")
    half = n // 2
    num_edges = spec.num_edges
    if num_edges is None:
        num_edges = 2 * max(1, int(round(0.205 * n)))
    if num_edges % 2:
        raise InfeasibleSpecError("mirrored construction needs an even edge count")
    hg, _ = mirrored_uniform_hypergraph(rng, half, num_edges // 2, spec.edge_size)
    if not 0 < spec.positive_rate < 1:
        raise InfeasibleSpecError("positive_rate must be in (0, 1)")
    num_pos = int(np.rint(spec.positive_rate * n))
    num_pos = min(max(num_pos, 1), n - 1)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=num_pos, replace=False)] = 1
    train, val, test = stratified_masks(labels, rng, spec.train_frac, spec.val_frac)
    return LabeledHypergraph(
        hypergraph=hg,
        features=one_hot_features(hg.num_nodes),
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=2,
    )


def _gen_iso_pair(
    spec: IsoPairSpec, rng: np.random.Generator
) -> tuple[Hypergraph, Hypergraph, bool]:
    base = random_hypergraph(
        rng, spec.num_nodes, spec.num_edges, spec.min_edge_size, spec.max_edge_size
    )
    copy, _ = permuted_copy(base, rng)
    return base, copy, True


def _gen_non_iso_pair(
    spec: NonIsoPairSpec, rng: np.random.Generator
) -> tuple[Hypergraph, Hypergraph, bool]:
    split = cycle_hypergraph(spec.cycle_a, spec.cycle_b)
    joined = cycle_hypergraph(spec.cycle_a + spec.cycle_b)
    # Shuffle labels so the pair is not trivially aligned.
    split, _ = permuted_copy(split, rng)
    joined, _ = permuted_copy(joined, rng)
    if joined.num_nodes <= BRUTE_FORCE_MAX_NODES and brute_force_isomorphic(split, joined):
        raise InfeasibleSpecError("non_iso_pair failed its brute-force isomorphism check")
    return split, joined, False


def generate_synthetic(
    spec: GeneratorSpec, seed: int
) -> LabeledHypergraph | tuple[Hypergraph, Hypergraph, bool]:
    """Produce a dataset or a labeled pair; bit-identical for equal inputs."""
    rng = np.random.default_rng(seed)
    if isinstance(spec, TwoCommunitySpec):
        return _gen_two_community(spec, rng)
    if isinstance(spec, UniformImbalancedSpec):
        return _gen_uniform_imbalanced(spec, rng)
    if isinstance(spec, IsoPairSpec):
        return _gen_iso_pair(spec, rng)
    if isinstance(spec, NonIsoPairSpec):
        return _gen_non_iso_pair(spec, rng)
    raise ParseError(f"unknown generator spec {type(spec)!r}")

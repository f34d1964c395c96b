"""Synthetic dataset generators: determinism, structure, and splits."""

from collections import Counter

import numpy as np
import pytest

import dphgnn.synthetic as synthetic
from dphgnn.errors import InfeasibleSpecError, ParseError
from dphgnn.gwl import Verdict, brute_force_isomorphic, gwl_test
from dphgnn.hypergraph import relabel_nodes
from dphgnn.sparse import SparseMatrix
from dphgnn.synthetic import (
    IMBALANCED_POSITIVE_RATE,
    IsoPairSpec,
    NonIsoPairSpec,
    TwoCommunitySpec,
    UniformImbalancedSpec,
    cycle_hypergraph,
    generate_synthetic,
    mirrored_uniform_hypergraph,
    parse_generator_spec,
    permuted_copy,
    random_hypergraph,
    stratified_masks,
)


def assert_masks_partition(data):
    combined = (
        data.train_mask.astype(int)
        + data.val_mask.astype(int)
        + data.test_mask.astype(int)
    )
    np.testing.assert_array_equal(combined, np.ones(data.num_nodes, dtype=int))


def test_two_community_structure():
    spec = TwoCommunitySpec(num_nodes=40, num_edges=30, edge_size=3)
    data = generate_synthetic(spec, seed=11)
    assert data.num_nodes == 40
    assert data.hypergraph.num_edges == 30
    assert all(len(e) == 3 for e in data.hypergraph.edges)
    np.testing.assert_array_equal(data.labels[:20], 0)
    np.testing.assert_array_equal(data.labels[20:], 1)
    assert isinstance(data.features, SparseMatrix)
    np.testing.assert_array_equal(data.features.to_dense(), np.eye(40))
    assert_masks_partition(data)


def test_two_community_deterministic():
    spec = TwoCommunitySpec(num_nodes=30, num_edges=20)
    a = generate_synthetic(spec, seed=5)
    b = generate_synthetic(spec, seed=5)
    assert a.hypergraph.edges == b.hypergraph.edges
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.features.to_dense(), b.features.to_dense())
    np.testing.assert_array_equal(a.train_mask, b.train_mask)
    np.testing.assert_array_equal(a.val_mask, b.val_mask)
    np.testing.assert_array_equal(a.test_mask, b.test_mask)
    c = generate_synthetic(spec, seed=6)
    assert c.hypergraph.edges != a.hypergraph.edges


def test_two_community_pure_when_no_mixing():
    spec = TwoCommunitySpec(num_nodes=20, num_edges=25, p_in=0.4, p_out=0.0)
    data = generate_synthetic(spec, seed=2)
    for e in data.hypergraph.edges:
        sides = {data.labels[v] for v in e}
        assert len(sides) == 1


def test_two_community_mixed_edges_touch_both_sides():
    spec = TwoCommunitySpec(num_nodes=20, num_edges=40, p_in=0.1, p_out=0.1)
    data = generate_synthetic(spec, seed=3)
    mixed = [
        e for e in data.hypergraph.edges if len({data.labels[v] for v in e}) == 2
    ]
    assert mixed  # equal rates make half the draws mixed on average


def test_two_community_validation():
    with pytest.raises(InfeasibleSpecError):
        generate_synthetic(TwoCommunitySpec(num_nodes=4, edge_size=3), seed=0)
    with pytest.raises(InfeasibleSpecError):
        generate_synthetic(TwoCommunitySpec(p_in=0.1, p_out=0.5), seed=0)


def test_uniform_imbalanced_counts():
    data = generate_synthetic(UniformImbalancedSpec(), seed=7)
    assert data.num_nodes == 400
    # 2 * round(0.205 * 400) sampled, plus mirrored coverage repairs
    assert data.hypergraph.num_edges >= 164
    assert data.hypergraph.num_edges % 2 == 0
    assert all(len(e) == 4 for e in data.hypergraph.edges)
    # rint(6568/33395 * 400) = 79 positives out of 400
    assert int(data.labels.sum()) == 79
    assert IMBALANCED_POSITIVE_RATE == 6568 / 33395
    assert_masks_partition(data)


def test_uniform_imbalanced_exact_when_covered():
    # edge_size == half the nodes: every sampled edge covers the half fully
    spec = UniformImbalancedSpec(num_nodes=8, num_edges=6, edge_size=4)
    data = generate_synthetic(spec, seed=4)
    assert data.hypergraph.num_edges == 6


def test_uniform_imbalanced_mirror_automorphism():
    data = generate_synthetic(UniformImbalancedSpec(num_nodes=40), seed=9)
    hg = data.hypergraph
    half = 20
    perm = np.concatenate([np.arange(half) + half, np.arange(half)])
    shifted = relabel_nodes(hg, perm)
    assert Counter(shifted.edges) == Counter(hg.edges)


def test_uniform_imbalanced_validation():
    with pytest.raises(InfeasibleSpecError):
        generate_synthetic(UniformImbalancedSpec(num_nodes=41), seed=0)
    with pytest.raises(InfeasibleSpecError):
        generate_synthetic(UniformImbalancedSpec(num_edges=7), seed=0)
    with pytest.raises(InfeasibleSpecError):
        generate_synthetic(UniformImbalancedSpec(positive_rate=1.5), seed=0)


def test_mirrored_halves_have_no_isolates():
    rng = np.random.default_rng(1)
    hg, automorphism = mirrored_uniform_hypergraph(rng, 10, 3, 3)
    assert hg.num_nodes == 20
    assert np.all(hg.node_degrees >= 1)
    assert Counter(relabel_nodes(hg, automorphism).edges) == Counter(hg.edges)


def _two_community_edges_from_lists(spec, seed):
    """Edges drawn as the generator did with O(n) Python-list populations."""
    rng = np.random.default_rng(seed)
    n, half = spec.num_nodes, spec.num_nodes // 2
    communities = [np.arange(half), np.arange(half, n)]
    edges = []
    for _ in range(spec.num_edges):
        if rng.random() < spec.p_in / (spec.p_in + spec.p_out):
            pool = communities[int(rng.integers(2))]
            edges.append(sorted(rng.choice(pool, size=spec.edge_size, replace=False).tolist()))
        else:
            a = int(rng.choice(communities[0]))
            b = int(rng.choice(communities[1]))
            rest = rng.choice([v for v in range(n) if v not in (a, b)],
                              size=spec.edge_size - 2, replace=False).tolist()
            edges.append(sorted([a, b] + rest))
    return tuple(tuple(e) for e in edges)


def _mirrored_base_from_lists(rng, half_nodes, half_edges, edge_size):
    base = [sorted(rng.choice(half_nodes, size=edge_size, replace=False).tolist())
            for _ in range(half_edges)]
    covered = {v for e in base for v in e}
    for v in range(half_nodes):
        if v not in covered:
            others = [u for u in range(half_nodes) if u != v]
            base.append(sorted([v] + rng.choice(others, size=edge_size - 1, replace=False).tolist()))
    return base


@pytest.mark.parametrize("seed", range(6))
def test_generator_populations_draw_what_python_lists_drew(seed):
    # Half the edges are mixed, so each seed draws dozens of populations.
    spec = TwoCommunitySpec(num_nodes=60, num_edges=80, edge_size=5, p_in=0.3, p_out=0.3)
    assert generate_synthetic(spec, seed).hypergraph.edges == _two_community_edges_from_lists(
        spec, seed
    )
    # Three base edges leave most of the 30 nodes uncovered.
    hg, _ = mirrored_uniform_hypergraph(np.random.default_rng(seed), 30, 3, 4)
    base = _mirrored_base_from_lists(np.random.default_rng(seed), 30, 3, 4)
    assert hg.edges[: len(base)] == tuple(tuple(e) for e in base)


def test_iso_pair_is_isomorphic():
    a, b, label = generate_synthetic(IsoPairSpec(), seed=13)
    assert label is True
    assert a.num_nodes == b.num_nodes == 8
    assert brute_force_isomorphic(a, b)
    assert gwl_test(a, b).verdict is Verdict.POSSIBLY_ISOMORPHIC


def test_non_iso_pair_fools_refinement():
    split, joined, label = generate_synthetic(NonIsoPairSpec(), seed=17)
    assert label is False
    for hg in (split, joined):
        assert all(len(e) == 2 for e in hg.edges)
        np.testing.assert_array_equal(hg.node_degrees, 2)
    assert not brute_force_isomorphic(split, joined)
    # two triangles against a hexagon: refinement cannot tell them apart
    assert gwl_test(split, joined).verdict is Verdict.POSSIBLY_ISOMORPHIC


def test_non_iso_pair_ground_truth_failure_raises(monkeypatch):
    # an oracle that calls the pair isomorphic must stop the generator, also under -O
    monkeypatch.setattr(synthetic, "brute_force_isomorphic", lambda a, b: True)
    with pytest.raises(InfeasibleSpecError, match="brute-force"):
        generate_synthetic(NonIsoPairSpec(), seed=17)


def test_cycle_hypergraph_shapes():
    hg = cycle_hypergraph(3, 4)
    assert hg.num_nodes == 7
    assert hg.num_edges == 7
    np.testing.assert_array_equal(hg.node_degrees, 2)
    with pytest.raises(InfeasibleSpecError):
        cycle_hypergraph(2)


def test_random_hypergraph_bounds():
    rng = np.random.default_rng(21)
    hg = random_hypergraph(rng, 9, 12, min_edge_size=2, max_edge_size=4)
    assert hg.num_nodes == 9
    assert hg.num_edges == 12
    assert all(2 <= len(e) <= 4 for e in hg.edges)
    with pytest.raises(InfeasibleSpecError):
        random_hypergraph(rng, 3, 2, max_edge_size=5)


def test_permuted_copy_consistent():
    rng = np.random.default_rng(23)
    hg = random_hypergraph(rng, 7, 5)
    copy, perm = permuted_copy(hg, rng)
    assert Counter(copy.edges) == Counter(relabel_nodes(hg, perm).edges)


def test_stratified_masks_split_sizes():
    labels = np.array([0] * 10 + [1] * 6)
    rng = np.random.default_rng(29)
    train, val, test = stratified_masks(labels, rng, 0.5, 0.25)
    for cls, total in ((0, 10), (1, 6)):
        members = labels == cls
        assert int(train[members].sum()) == round(0.5 * total)
        assert int(val[members].sum()) == round(0.25 * total)
    np.testing.assert_array_equal(
        train.astype(int) + val.astype(int) + test.astype(int), 1
    )
    with pytest.raises(InfeasibleSpecError):
        stratified_masks(labels, rng, 0.9, 0.2)


def test_parse_generator_spec_round_trip():
    spec = parse_generator_spec(
        {"kind": "two_community", "num_nodes": 50, "p_out": 0.05}
    )
    assert spec == TwoCommunitySpec(num_nodes=50, p_out=0.05)
    pair = parse_generator_spec({"kind": "non_iso_pair", "cycle_a": 5, "cycle_b": 5})
    assert pair == NonIsoPairSpec(5, 5)


def test_parse_generator_spec_errors():
    with pytest.raises(ParseError):
        parse_generator_spec({"num_nodes": 5})
    with pytest.raises(ParseError):
        parse_generator_spec({"kind": "mystery"})
    with pytest.raises(ParseError):
        parse_generator_spec({"kind": "iso_pair", "wings": 2})

"""Expansions checked against brute-force pair enumeration."""

import numpy as np
import pytest
from itertools import combinations

import dphgnn.expand as expand
from dphgnn.errors import ShapeMismatchError
from dphgnn.expand import (
    clique_expand,
    hypergcn_expand,
    star_expand,
)
from dphgnn.hypergraph import build_hypergraph
from dphgnn.sparse import SparseMatrix
from dphgnn.synthetic import random_hypergraph


def clique_oracle(hg):
    """Unweighted co-occurrence pairs via direct enumeration."""
    pairs = set()
    for edge in hg.edges:
        for u, v in combinations(sorted(edge), 2):
            pairs.add((u, v))
    return {p: 1.0 for p in pairs}


def star_oracle(hg):
    pairs = {}
    for j, edge in enumerate(hg.edges):
        for v in edge:
            pairs[(v, hg.num_nodes + j)] = 1.0
    return pairs


def hypergcn_oracle(hg, features):
    """Representative-pair construction with explicit distance loops."""
    weights = {}
    for edge in hg.edges:
        members = sorted(edge)
        if len(members) < 2:
            continue
        best = None
        best_dist = -1.0
        for u, v in combinations(members, 2):
            dist = float(np.sum((features[u] - features[v]) ** 2))
            if dist > best_dist:
                best_dist = dist
                best = (u, v)
        w = 1.0 if len(members) == 2 else 1.0 / (2 * len(members) - 3)
        weights[best] = weights.get(best, 0.0) + w
    return weights


def graph_pairs(graph):
    """Upper-triangle weight dict of a Graph's adjacency."""
    out = {}
    r, c, v = graph.adjacency.to_coo()
    for i, j, w in zip(r.tolist(), c.tolist(), v.tolist()):
        if i < j:
            out[(i, j)] = w
    return out


def assert_symmetric_zero_diag(graph):
    dense = graph.adjacency.to_dense()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0)


def test_clique_running_example(spec_example):
    g = clique_expand(spec_example)
    assert graph_pairs(g) == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0}
    assert g.degrees[2] == 3.0


def test_clique_single_pair_edge():
    g = clique_expand(build_hypergraph(2, [(0, 1)]))
    assert graph_pairs(g) == {(0, 1): 1.0}


def test_clique_shared_pair_appears_once():
    g = clique_expand(build_hypergraph(3, [(0, 1, 2), (0, 1)]))
    assert graph_pairs(g)[(0, 1)] == 1.0


def test_star_running_example(spec_example):
    star = star_expand(spec_example)
    assert star.adjacency.rows - spec_example.num_nodes == 2
    assert graph_pairs(star) == {
        (0, 4): 1.0,
        (1, 4): 1.0,
        (2, 4): 1.0,
        (2, 5): 1.0,
        (3, 5): 1.0,
    }


def test_star_edgeless():
    star = star_expand(build_hypergraph(3, []))
    assert star.adjacency.rows - 3 == 0
    assert star.adjacency.nnz == 0


def test_star_degree_equals_incidence_count():
    rng = np.random.default_rng(0)
    hg = random_hypergraph(rng, 8, 6)
    star = star_expand(hg)
    np.testing.assert_array_equal(star.degrees[:8], hg.node_degrees)


def test_hypergcn_pair_edge_weight_one():
    hg = build_hypergraph(2, [(0, 1)])
    g = hypergcn_expand(hg, np.random.default_rng(0).standard_normal((2, 3)))
    assert graph_pairs(g) == {(0, 1): 1.0}


def test_hypergcn_identity_features_tie_break():
    hg = build_hypergraph(3, [(0, 1, 2)])
    g = hypergcn_expand(hg, np.eye(3))
    assert graph_pairs(g) == {(0, 1): pytest.approx(1.0 / 3.0)}


def test_hypergcn_constant_features_tie_break():
    hg = build_hypergraph(5, [(1, 2, 4), (0, 3)])
    g = hypergcn_expand(hg, np.ones((5, 2)))
    assert graph_pairs(g) == {(1, 2): pytest.approx(1.0 / 3.0), (0, 3): 1.0}


def test_hypergcn_weights_accumulate():
    hg = build_hypergraph(2, [(0, 1), (0, 1)])
    g = hypergcn_expand(hg, np.arange(4.0).reshape(2, 2))
    assert graph_pairs(g) == {(0, 1): 2.0}


def test_expansions_match_oracles_fuzz():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 7))
        hg = random_hypergraph(rng, n, m, max_edge_size=min(4, n))
        # integer-valued features keep squared distances exact, so near-tie
        # float noise cannot flip the representative pair
        feats = rng.integers(0, 4, size=(n, 3)).astype(float)

        g = clique_expand(hg)
        assert graph_pairs(g) == clique_oracle(hg)
        assert_symmetric_zero_diag(g)

        star = star_expand(hg)
        assert graph_pairs(star) == star_oracle(hg)
        assert_symmetric_zero_diag(star)

        hyper = hypergcn_expand(hg, feats)
        assert graph_pairs(hyper) == pytest.approx(hypergcn_oracle(hg, feats))
        assert_symmetric_zero_diag(hyper)


def scan_pick(edge, features):
    """The first pair by a strict > over d2 in lexicographic pair order,
    seeded with the first pair: the rule hypergcn_expand keeps."""
    block = features[list(edge)]
    sq = np.sum(block * block, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (block @ block.T)
    best, best_d = (edge[0], edge[1]), d2[0, 1]
    for a, b in combinations(range(len(edge)), 2):
        if d2[a, b] > best_d:
            best, best_d = (edge[a], edge[b]), d2[a, b]
    return best


def test_hypergcn_nan_first_pair_is_kept():
    # Node 0's row is NaN, so every pair with node 0 (the first pair too) is NaN.
    feats = np.array([[np.nan, 0.0], [0.0, 0.0], [5.0, 0.0], [1.0, 0.0]])
    hg = build_hypergraph(4, [(0, 1, 2, 3)])
    assert graph_pairs(hypergcn_expand(hg, feats)) == {(0, 1): 1.0 / 5.0}
    assert scan_pick((0, 1, 2, 3), feats) == (0, 1)


def test_hypergcn_nan_distances_never_win_after_a_real_first_pair():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 0.0], [4.0, 0.0]])
    hg = build_hypergraph(4, [(0, 1, 2, 3)])
    assert graph_pairs(hypergcn_expand(hg, feats)) == {(0, 3): 1.0 / 5.0}
    assert scan_pick((0, 1, 2, 3), feats) == (0, 3)


def test_hypergcn_all_nan_and_all_tied_keep_first_pair():
    hg = build_hypergraph(6, [(1, 3, 4), (0, 2, 4, 5), (0, 5)])
    for feats in (np.full((6, 3), np.nan), np.ones((6, 3)), np.zeros((6, 0))):
        g = hypergcn_expand(hg, feats)
        assert graph_pairs(g) == {(1, 3): 1.0 / 3.0, (0, 2): 1.0 / 5.0, (0, 5): 1.0}


def test_hypergcn_weights_sum_as_a_running_total_in_edge_order():
    # Node 0 and node 1 lie farthest apart, so every edge below picks (0, 1).
    feats = np.array([[0.0], [10.0], [1.0], [2.0], [3.0], [4.0]])
    edges = [(0, 1, 2, 3)] + [(0, 1, 2)] * 6 + [(0, 1, 2, 3, 4)] + [(0, 1, 2)] * 6 + [(0, 1, 3, 5)]
    weights = [1.0 / (2 * len(e) - 3) for e in edges]
    running = 0.0
    for w in weights:
        running += w
    # Both other orders round differently, so the test tells them apart.
    assert running != np.add.reduceat(np.array(weights), [0])[0]
    bucket_order = sorted(weights, reverse=True)  # size 3 first, then 4, then 5
    assert running != sum(bucket_order)
    g = hypergcn_expand(build_hypergraph(6, edges), feats)
    r, c, v = g.adjacency.to_coo()
    assert np.array_equal(r, [0, 1]) and np.array_equal(c, [1, 0])
    assert np.array_equal(v, [running, running])
    assert graph_pairs(g) == pytest.approx(hypergcn_oracle(build_hypergraph(6, edges), feats))


def test_hypergcn_mixed_size_buckets_in_small_slices(monkeypatch):
    rng = np.random.default_rng(7)
    n = 30
    edges = [rng.choice(n, int(rng.integers(1, 10)), replace=False).tolist() for _ in range(80)]
    hg = build_hypergraph(n, edges)
    feats = rng.integers(0, 5, size=(n, 4)).astype(float)
    whole = hypergcn_expand(hg, feats)
    monkeypatch.setattr(expand, "_SLICE_FLOATS", 40)  # one or a few edges per slice
    sliced = hypergcn_expand(hg, feats)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(whole.adjacency, name), getattr(sliced.adjacency, name))
    assert graph_pairs(sliced) == pytest.approx(hypergcn_oracle(hg, feats))
    feats = rng.standard_normal((n, 4))
    picks = {}
    for e in hg.edges:
        if len(e) >= 2:
            pair = scan_pick(e, feats)
            picks[pair] = picks.get(pair, 0.0) + (1.0 if len(e) == 2 else 1.0 / (2 * len(e) - 3))
    assert graph_pairs(hypergcn_expand(hg, feats)) == picks
    assert_symmetric_zero_diag(sliced)


def test_hypergcn_slices_bound_features_and_gram(monkeypatch):
    rng = np.random.default_rng(8)
    hg = build_hypergraph(60, [rng.choice(60, 40, replace=False).tolist() for _ in range(6)]
                          + [rng.choice(60, 3, replace=False).tolist() for _ in range(9)])
    feats = rng.standard_normal((60, 2))
    whole = hypergcn_expand(hg, feats)
    shapes = []
    real = expand._farthest_pairs

    def recording(blocks, sq, iu, ju):
        shapes.append(blocks.shape)
        return real(blocks, sq, iu, ju)

    monkeypatch.setattr(expand, "_SLICE_FLOATS", 3300)
    monkeypatch.setattr(expand, "_farthest_pairs", recording)
    sliced = hypergcn_expand(hg, feats)
    # Gram stacks of 40-member edges (1600 values each) go two to a slice.
    assert sorted(shapes) == [(2, 40, 2)] * 3 + [(9, 3, 2)]
    assert all(e * k * max(k, d) <= 3300 for e, k, d in shapes)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(whole.adjacency, name), getattr(sliced.adjacency, name))


def assert_same_adjacency(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.adjacency, name), getattr(b.adjacency, name))


def test_hypergcn_csr_features_match_dense_path_and_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    multi_entry_rows = empty_rows = 0
    for trial in range(60):
        n, d = int(rng.integers(4, 16)), int(rng.integers(1, 7))
        # Small integers: distances are exact, and ties are common.
        dense = rng.integers(-2, 3, size=(n, d)).astype(float)
        dense[rng.random((n, d)) < 0.5] = 0.0
        dense[rng.integers(n)] = 0.0
        csr = SparseMatrix.from_dense(dense)
        row_nnz = np.diff(csr.indptr)
        multi_entry_rows += int(np.sum(row_nnz >= 2))
        empty_rows += int(np.sum(row_nnz == 0))
        edges = [rng.choice(n, int(rng.integers(1, min(n, 7) + 1)), replace=False).tolist()
                 for _ in range(int(rng.integers(1, 12)))]
        hg = build_hypergraph(n, edges)
        via_csr = hypergcn_expand(hg, csr)
        assert_same_adjacency(via_csr, hypergcn_expand(hg, dense))
        assert graph_pairs(via_csr) == pytest.approx(hypergcn_oracle(hg, dense))
        assert_symmetric_zero_diag(via_csr)
        with monkeypatch.context() as patched:
            patched.setattr(expand, "_SLICE_FLOATS", 40)  # one or a few edges per slice
            assert_same_adjacency(hypergcn_expand(hg, csr), via_csr)
    assert multi_entry_rows > 100 and empty_rows > 60


def test_hypergcn_csr_identity_ties_like_dense_identity():
    rng = np.random.default_rng(13)
    hg = random_hypergraph(rng, 30, 40, min_edge_size=2, max_edge_size=8)
    via_csr = hypergcn_expand(hg, SparseMatrix.identity(30))
    assert_same_adjacency(via_csr, hypergcn_expand(hg, np.eye(30)))
    # Every pair of distinct one-hot rows is at distance sqrt(2): the first pair wins.
    assert graph_pairs(via_csr) == pytest.approx(hypergcn_oracle(hg, np.eye(30)))


def test_hypergcn_csr_blocks_span_only_the_member_columns(monkeypatch):
    # Rows of a 1000-wide CSR with at most two entries each.
    n, d = 40, 1000
    rng = np.random.default_rng(14)
    rows = np.repeat(np.arange(n), 2)
    csr = SparseMatrix.from_coo(n, d, rows, rng.integers(0, d, size=2 * n),
                                rng.integers(1, 4, size=2 * n).astype(float))
    hg = build_hypergraph(n, [rng.choice(n, 5, replace=False).tolist() for _ in range(30)])
    shapes = []
    real = expand._farthest_pairs

    def recording(blocks, sq, iu, ju):
        shapes.append(blocks.shape)
        return real(blocks, sq, iu, ju)

    monkeypatch.setattr(expand, "_farthest_pairs", recording)
    via_csr = hypergcn_expand(hg, csr)
    assert shapes and all(k == 5 and width <= 10 for _, k, width in shapes)
    assert_same_adjacency(via_csr, hypergcn_expand(hg, csr.to_dense()))


def test_hypergcn_csr_rejects_wrong_row_count():
    with pytest.raises(ShapeMismatchError):
        hypergcn_expand(build_hypergraph(3, [(0, 1, 2)]), SparseMatrix.identity(4))


def test_singleton_edges_only():
    hg = build_hypergraph(3, [(0,), (2,), (0,)])
    clique = clique_expand(hg)
    assert clique.adjacency.nnz == 0 and clique.adjacency.shape == (3, 3)
    np.testing.assert_array_equal(clique.degrees, np.zeros(3))
    star = star_expand(hg)
    assert graph_pairs(star) == star_oracle(hg) == {(0, 3): 1.0, (2, 4): 1.0, (0, 5): 1.0}
    np.testing.assert_array_equal(star.degrees, [2.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    assert_symmetric_zero_diag(star)
    assert hypergcn_expand(hg, np.ones((3, 2))).adjacency.nnz == 0

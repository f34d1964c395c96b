"""Laplacian operators against dense re-derivations and pinned values."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    dense_incidence,
    dense_rw,
    dense_smoothing,
    dense_sym,
    random_covering_hypergraph,
)
from dphgnn.autodiff import Tensor, grad_check, matmul, mul, sum_all
from dphgnn.errors import IsolatedNodeError
from dphgnn.expand import clique_expand, hypergcn_expand, star_expand
from dphgnn.hypergraph import build_hypergraph, ensure_min_degree, relabel_nodes
from dphgnn.precompute import build_structure
from dphgnn.sparse import FactoredOperator, SparseMatrix
from dphgnn.spectral import (
    LaplacianSet,
    build_laplacians,
    graph_laplacian,
    laplacian_hgnn,
    laplacian_rw,
    laplacian_sym,
    sib_update,
)
from dphgnn.synthetic import TwoCommunitySpec, generate_synthetic


def test_smoothing_pinned_entries(spec_example):
    delta = laplacian_hgnn(spec_example).to_dense()
    assert delta[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert delta[2, 3] == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-12)


def test_smoothing_single_covering_edge():
    hg = build_hypergraph(5, [(0, 1, 2, 3, 4)])
    np.testing.assert_allclose(
        laplacian_hgnn(hg).to_dense(), np.full((5, 5), 1.0 / 5.0), atol=1e-12
    )


def test_sym_pinned_entries(spec_example):
    sym = laplacian_sym(spec_example).to_dense()
    smoothing = laplacian_hgnn(spec_example).to_dense()
    assert sym[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sym[0, 0] + smoothing[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_rw_pinned_entry(spec_example):
    assert laplacian_rw(spec_example).to_dense()[2, 2] == pytest.approx(
        7.0 / 12.0, abs=1e-12
    )


def test_operators_match_dense_oracles():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        hg = random_covering_hypergraph(rng, n, int(rng.integers(1, 8)))
        np.testing.assert_allclose(
            laplacian_hgnn(hg).to_dense(), dense_smoothing(hg), atol=1e-12
        )
        np.testing.assert_allclose(laplacian_sym(hg).to_dense(), dense_sym(hg), atol=1e-12)
        np.testing.assert_allclose(laplacian_rw(hg).to_dense(), dense_rw(hg), atol=1e-12)


def test_identity_suite_properties():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        hg = random_covering_hypergraph(rng, n, int(rng.integers(1, 8)))
        smoothing = laplacian_hgnn(hg).to_dense()
        sym = laplacian_sym(hg).to_dense()
        rw = laplacian_rw(hg).to_dense()
        eye = np.eye(n)
        np.testing.assert_allclose(sym, eye - smoothing, atol=1e-12)
        np.testing.assert_allclose(smoothing, smoothing.T, atol=1e-12)
        np.testing.assert_allclose(rw.sum(axis=1), np.zeros(n), atol=1e-12)
        walk = eye - rw
        np.testing.assert_allclose(smoothing + sym + rw, 2 * eye - walk, atol=1e-12)
        # smoothing operator never amplifies: spectral radius at most 1
        assert np.max(np.abs(np.linalg.eigvalsh(smoothing))) <= 1.0 + 1e-10


def test_isolated_node_rejected():
    with pytest.raises(IsolatedNodeError):
        laplacian_hgnn(build_hypergraph(3, [(0, 1)]))


def test_graph_laplacian_path():
    hg = build_hypergraph(3, [(0, 1), (1, 2)])
    L = graph_laplacian(clique_expand(hg)).to_dense()
    np.testing.assert_allclose(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], atol=1e-12)


def test_graph_laplacian_edgeless_and_rowsum():
    edgeless = clique_expand(build_hypergraph(3, []))
    np.testing.assert_array_equal(graph_laplacian(edgeless).to_dense(), np.zeros((3, 3)))
    rng = np.random.default_rng(2)
    hg = random_covering_hypergraph(rng, 7, 5)
    L = graph_laplacian(clique_expand(hg)).to_dense()
    np.testing.assert_allclose(L @ np.ones(7), np.zeros(7), atol=1e-12)


def sib(x, lam, theta, structure):
    """sib_update with the hyperedge mean D_e^-1 H^T x, which the star view shares."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    return sib_update(x, matmul(structure.node_from_edge.T, x), lam, theta, structure)


def _sib_dense(hg, x, lam):
    """Straight-line dense oracle for the spectral block input stack."""
    combined = (dense_rw(hg) + dense_sym(hg)) @ x
    smoothed = dense_smoothing(hg) @ x
    return np.hstack([x, x]) + lam * np.hstack([combined, smoothed])


def test_sib_lambda_zero_drops_laplacians(spec_example):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    theta = Tensor(rng.standard_normal((6, 2)))
    out = sib(x, 0.0, theta, build_structure(spec_example, x))
    np.testing.assert_allclose(
        out.value, np.maximum(np.hstack([x, x]) @ theta.value, 0.0), atol=1e-12
    )


def test_sib_identity_block_row_check(spec_example):
    # theta stacked [I; 0] keeps the left block: relu(X + (rw+sym) X)
    x = np.eye(4)
    theta = Tensor(np.vstack([np.eye(4), np.zeros((4, 4))]))
    out = sib(x, 1.0, theta, build_structure(spec_example, x))
    expected = np.maximum(x + (dense_rw(spec_example) + dense_sym(spec_example)) @ x, 0.0)
    np.testing.assert_allclose(out.value[0], expected[0], atol=1e-12)
    np.testing.assert_allclose(out.value, expected, atol=1e-12)


@pytest.mark.parametrize(
    "edge_size, smoothing_form",
    [(2, SparseMatrix), (8, FactoredOperator)],
    ids=["csr_smoothing", "factored_smoothing"],
)
def test_sib_matches_dense_oracle(edge_size, smoothing_form):
    # (2I - D_v^-1 H D_e^-1 H^T - S) x || S x, on bundles whose smoothing S
    # is one CSR matrix (size-2 edges) or a product through H (size-8 edges).
    rng = np.random.default_rng(4)
    for seed in range(3):
        data = generate_synthetic(
            TwoCommunitySpec(num_nodes=120, num_edges=60, edge_size=edge_size), seed
        )
        hg = ensure_min_degree(data.hypergraph)
        x = rng.standard_normal((hg.num_nodes, 3))
        structure = build_structure(hg, x)
        assert type(structure.laplacians.smoothing) is smoothing_form
        lam = float(rng.uniform(0.1, 2.0))
        theta = Tensor(rng.standard_normal((6, 4)))
        H = dense_incidence(hg)
        walk = np.diag(1 / H.sum(axis=1)) @ H @ np.diag(1 / H.sum(axis=0)) @ H.T
        S = dense_smoothing(hg)
        identifiers = np.hstack([(2 * np.eye(hg.num_nodes) - walk - S) @ x, S @ x])
        expected = np.maximum((np.hstack([x, x]) + lam * identifiers) @ theta.value, 0.0)
        out = sib(x, lam, theta, structure)
        np.testing.assert_allclose(out.value, expected, atol=1e-10)


def test_sib_matches_dense_oracle_on_random_hypergraphs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        hg = random_covering_hypergraph(rng, n, int(rng.integers(2, 6)))
        x = rng.standard_normal((n, 3))
        lam = float(rng.uniform(0.1, 2.0))
        theta = Tensor(rng.standard_normal((6, 4)))
        out = sib(x, lam, theta, build_structure(hg, x))
        expected = np.maximum(_sib_dense(hg, x, lam) @ theta.value, 0.0)
        np.testing.assert_allclose(out.value, expected, atol=1e-10)


def test_sib_gradient_through_the_edge_mean():
    rng = np.random.default_rng(6)
    hg = random_covering_hypergraph(rng, 7, 5)
    x = rng.standard_normal((7, 3))
    structure = build_structure(hg, x)
    xt = Tensor(x, requires_grad=True)
    tt = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    weight = Tensor(rng.standard_normal((7, 4)))
    err = grad_check(lambda: sum_all(mul(sib(xt, 0.8, tt, structure), weight)),
                     {"x": xt, "theta": tt})
    assert err < 1e-6


def test_sib_permutation_equivariance():
    rng = np.random.default_rng(5)
    hg = random_covering_hypergraph(rng, 6, 4)
    x = rng.standard_normal((6, 3))
    theta = Tensor(rng.standard_normal((6, 2)))
    base = sib(x, 0.7, theta, build_structure(hg, x)).value
    perm = rng.permutation(6)
    hg_p = relabel_nodes(hg, perm)
    x_p = np.empty_like(x)
    x_p[perm] = x
    permuted = sib(x_p, 0.7, theta, build_structure(hg_p, x_p)).value
    np.testing.assert_allclose(permuted[perm], base, atol=1e-10)


def test_laplacian_set_builds_all_views(spec_example):
    feats = np.eye(4)
    laps = build_laplacians(
        spec_example,
        clique_expand(spec_example),
        star_expand(spec_example),
        hypergcn_expand(spec_example, feats),
    )
    assert laps.smoothing.shape == (4, 4)
    assert laps.star.shape == (6, 6)
    assert laps.clique.shape == (4, 4)
    assert laps.hypergcn.shape == (4, 4)
    # The identifier block applies rw + sym through the edge mean; neither is kept.
    assert [f.name for f in dataclasses.fields(LaplacianSet)] == [
        "smoothing", "clique", "star", "hypergcn"
    ]

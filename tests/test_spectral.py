"""Laplacian operators against dense re-derivations and pinned values."""

import numpy as np
import pytest

from conftest import (
    dense_rw,
    dense_smoothing,
    dense_sym,
    random_covering_hypergraph,
)
from dphgnn.autodiff import Tensor
from dphgnn.errors import IsolatedNodeError
from dphgnn.expand import clique_expand, hypergcn_expand, star_expand
from dphgnn.hypergraph import build_hypergraph, relabel_nodes
from dphgnn.spectral import (
    build_laplacians,
    graph_laplacian,
    laplacian_hgnn,
    laplacian_rw,
    laplacian_sym,
    sib_update,
)


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


def reference_laplacians(hg, x):
    """The CSR reference operators of every view of ``hg``."""
    return build_laplacians(
        hg, clique_expand(hg), star_expand(hg), hypergcn_expand(hg, x)
    )


def _sib_dense(hg, x, lam):
    """Straight-line dense oracle for the spectral block input stack."""
    combined = (dense_rw(hg) + dense_sym(hg)) @ x
    smoothed = dense_smoothing(hg) @ x
    return np.hstack([x, x]) + lam * np.hstack([combined, smoothed])


def test_sib_lambda_zero_drops_laplacians(spec_example):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    theta = Tensor(rng.standard_normal((6, 2)))
    out = sib_update(Tensor(x), 0.0, theta, reference_laplacians(spec_example, x))
    np.testing.assert_allclose(
        out.value, np.maximum(np.hstack([x, x]) @ theta.value, 0.0), atol=1e-12
    )


def test_sib_identity_block_row_check(spec_example):
    # theta stacked [I; 0] keeps the left block: relu(X + (rw+sym) X)
    x = np.eye(4)
    theta = Tensor(np.vstack([np.eye(4), np.zeros((4, 4))]))
    out = sib_update(Tensor(x), 1.0, theta, reference_laplacians(spec_example, x))
    expected = np.maximum(x + (dense_rw(spec_example) + dense_sym(spec_example)) @ x, 0.0)
    np.testing.assert_allclose(out.value[0], expected[0], atol=1e-12)
    np.testing.assert_allclose(out.value, expected, atol=1e-12)


def test_sib_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        hg = random_covering_hypergraph(rng, n, int(rng.integers(2, 6)))
        x = rng.standard_normal((n, 3))
        lam = float(rng.uniform(0.1, 2.0))
        theta = Tensor(rng.standard_normal((6, 4)))
        out = sib_update(Tensor(x), lam, theta, reference_laplacians(hg, x))
        expected = np.maximum(_sib_dense(hg, x, lam) @ theta.value, 0.0)
        np.testing.assert_allclose(out.value, expected, atol=1e-10)


def test_sib_permutation_equivariance():
    rng = np.random.default_rng(5)
    hg = random_covering_hypergraph(rng, 6, 4)
    x = rng.standard_normal((6, 3))
    theta = Tensor(rng.standard_normal((6, 2)))
    base = sib_update(Tensor(x), 0.7, theta, reference_laplacians(hg, x)).value
    perm = rng.permutation(6)
    hg_p = relabel_nodes(hg, perm)
    x_p = np.empty_like(x)
    x_p[perm] = x
    permuted = sib_update(Tensor(x_p), 0.7, theta, reference_laplacians(hg_p, x_p)).value
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
    np.testing.assert_allclose(
        laps.rw_plus_sym.to_dense(),
        dense_rw(spec_example) + dense_sym(spec_example),
        atol=1e-12,
    )

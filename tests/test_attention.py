"""Attention block vs straight-line dense re-computation."""

import itertools

import numpy as np
import pytest

from dphgnn.attention import (
    LEAKY_SLOPE,
    TaaParams,
    UpdateVariant,
    attention_pattern,
    cross_attention,
    propagation_matrix,
    score_vectors,
    single_layer_update,
    star_update,
    taa_forward,
)
from dphgnn import autodiff
from dphgnn import precompute
from dphgnn.autodiff import Tensor, add, backward, cross_entropy, grad_check, mul, sum_all
from dphgnn.errors import ShapeMismatchError
from dphgnn.expand import clique_expand, hypergcn_expand, star_expand
from dphgnn.hypergraph import LabeledHypergraph, build_hypergraph, ensure_min_degree
from dphgnn.model import DropoutRates, Mode, dphgnn_forward, init_dphgnn
from dphgnn.precompute import build_structure
from dphgnn.sparse import FactoredOperator, SparseMatrix
from dphgnn.spectral import graph_laplacian
from dphgnn.synthetic import TwoCommunitySpec, generate_synthetic


def edge_mean(x, structure):
    """D_e^-1 H^T x, the hyperedge mean the forward pass gives the star view."""
    return autodiff.matmul(structure.node_from_edge.T, x)


def star_nodes_of(x, theta):
    """ReLU(x theta), the star view's node rows the forward pass forms."""
    return autodiff.relu(autodiff.matmul(x, theta))


def taa(x, params, structure):
    """taa_forward on ``x`` with the hyperedge mean and star node rows the
    forward pass forms; returns them after the two attention paths."""
    x = Tensor(x)
    mean, nodes = edge_mean(x, structure), star_nodes_of(x, params.theta_star)
    spatial, spectral = taa_forward(x, mean, nodes, params, structure)
    return spatial, spectral, nodes


def make_params(rng, width, heads=1):
    return TaaParams(
        delta=Tensor(rng.standard_normal((2 * width, 1)), requires_grad=True),
        weight=Tensor(rng.standard_normal((width, width)), requires_grad=True),
        theta_clique=Tensor(rng.standard_normal((width, width)), requires_grad=True),
        theta_star=Tensor(rng.standard_normal((width, width)), requires_grad=True),
        theta_hypergcn=Tensor(rng.standard_normal((width, width)), requires_grad=True),
        num_heads=heads,
    )


def pattern_of(mask):
    """CSR attention pattern (neighbors plus self) of a dense boolean mask."""
    return attention_pattern(SparseMatrix.from_dense(mask))


def attend(q, k, v, pattern, params, **kwargs):
    """cross_attention on query, key and value features: their score
    matrices and projected values, formed from ``score_vectors(params)``."""
    wq, wk = score_vectors(params)
    return cross_attention(autodiff.matmul(q, wq), autodiff.matmul(k, wk),
                           autodiff.matmul(v, params.weight), pattern, **kwargs)


def leaky(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def attention_oracle(q, k, v, mask, delta, W, heads):
    """Per-head additive attention with explicit python loops."""
    n, width = q.shape
    qp, kp, vp = q @ W, k @ W, v @ W
    step = width // heads
    mask = mask | np.eye(n, dtype=bool)
    blocks = []
    for h in range(heads):
        sl = slice(h * step, (h + 1) * step)
        dq = delta[:width][sl]
        dk = delta[width:][sl]
        out = np.zeros((n, step))
        for i in range(n):
            neigh = np.flatnonzero(mask[i])
            scores = np.array(
                [leaky((qp[i, sl] @ dq).item() + (kp[j, sl] @ dk).item()) for j in neigh]
            )
            scores -= scores.max()
            alpha = np.exp(scores)
            alpha /= alpha.sum()
            out[i] = sum(a * vp[j, sl] for a, j in zip(alpha, neigh))
        blocks.append(out)
    return np.hstack(blocks)


def test_residual_rw_running_example(spec_example):
    g = clique_expand(spec_example)
    prop = propagation_matrix(g, UpdateVariant.RESIDUAL_RW)
    out = single_layer_update(prop, Tensor(np.eye(4)), Tensor(np.eye(4)))
    # node 3 has the single clique neighbor 2
    np.testing.assert_allclose(out.value[3], [0, 0, 1, 1], atol=1e-12)


def test_residual_rw_prop_matrix_oracle(spec_example):
    g = clique_expand(spec_example)
    dense = g.adjacency.to_dense()
    deg = dense.sum(axis=1)
    expected = np.eye(4) + dense / deg[:, None]
    np.testing.assert_allclose(
        propagation_matrix(g, UpdateVariant.RESIDUAL_RW).to_dense(), expected, atol=1e-12
    )


def test_residual_rw_isolated_row_is_identity():
    g = clique_expand(build_hypergraph(3, [(0, 1)]))
    prop = propagation_matrix(g, UpdateVariant.RESIDUAL_RW).to_dense()
    np.testing.assert_array_equal(prop[2], [0.0, 0.0, 1.0])


def test_sym_norm_prop_matrix_oracle(spec_example):
    g = clique_expand(spec_example)
    dense = g.adjacency.to_dense() + np.eye(4)
    deg = dense.sum(axis=1)
    expected = dense / np.sqrt(deg)[:, None] / np.sqrt(deg)[None, :]
    np.testing.assert_allclose(
        propagation_matrix(g, UpdateVariant.SYM_NORM).to_dense(), expected, atol=1e-12
    )


def test_sym_norm_single_vertex():
    g = clique_expand(build_hypergraph(1, [(0,)]))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3))
    theta = rng.standard_normal((3, 3))
    prop = propagation_matrix(g, UpdateVariant.SYM_NORM)
    out = single_layer_update(prop, Tensor(x), Tensor(theta))
    np.testing.assert_allclose(out.value, np.maximum(x @ theta, 0.0), atol=1e-12)


def test_zero_theta_zero_output(spec_example):
    prop = propagation_matrix(clique_expand(spec_example), UpdateVariant.RESIDUAL_RW)
    out = single_layer_update(prop, Tensor(np.ones((4, 3))), Tensor(np.zeros((3, 2))))
    np.testing.assert_array_equal(out.value, np.zeros((4, 2)))


def test_zero_delta_gives_neighborhood_mean():
    rng = np.random.default_rng(2)
    n, width = 6, 4
    q, k, v = (rng.standard_normal((n, width)) for _ in range(3))
    mask = rng.random((n, n)) < 0.5
    mask = mask | mask.T
    params = make_params(rng, width)
    params.delta.value[:] = 0.0
    got = attend(Tensor(q), Tensor(k), Tensor(v), pattern_of(mask), params)
    vp = v @ params.weight.value
    full = mask | np.eye(n, dtype=bool)
    expected = np.vstack([vp[np.flatnonzero(full[i])].mean(axis=0) for i in range(n)])
    np.testing.assert_allclose(got.value, expected, atol=1e-10)


def test_isolated_node_attends_to_itself():
    rng = np.random.default_rng(3)
    n, width = 4, 2
    v = rng.standard_normal((n, width))
    mask = np.zeros((n, n), dtype=bool)  # no neighbors anywhere
    params = make_params(rng, width)
    got = attend(Tensor(v), Tensor(v), Tensor(v), pattern_of(mask), params)
    np.testing.assert_allclose(got.value, v @ params.weight.value, atol=1e-10)


def test_heads_must_divide_width():
    rng = np.random.default_rng(4)
    params = make_params(rng, 4, heads=3)
    x = Tensor(rng.standard_normal((3, 4)))
    with pytest.raises(ShapeMismatchError):
        attend(x, x, x, pattern_of(np.zeros((3, 3), dtype=bool)), params)


def test_taa_forward_shapes_and_star_content(spec_example):
    rng = np.random.default_rng(5)
    width = 4
    x = rng.standard_normal((4, width))
    structure = build_structure(spec_example, x)
    params = make_params(rng, width)
    spatial, spectral, star_nodes = taa(x, params, structure)
    assert spatial.value.shape == (4, width)
    assert spectral.value.shape == (4, width)
    assert star_nodes.value.shape == (4, width)

    # supernode input rows are zero, so a supernode's one-step features are
    # the mean of its member features (projected, rectified)
    prop = propagation_matrix(star_expand(spec_example), UpdateVariant.RESIDUAL_RW)
    stacked = np.vstack([x, np.zeros((2, width))])
    expected = np.maximum(prop.to_dense() @ stacked @ params.theta_star.value, 0.0)
    np.testing.assert_allclose(star_nodes.value, expected[:4], atol=1e-10)
    star_feats = star_update(star_nodes, edge_mean(x, structure), params.theta_star)
    assert star_feats.value[:4].tobytes() == star_nodes.value.tobytes()
    np.testing.assert_allclose(star_feats.value, expected, atol=1e-10)
    members = x[[0, 1, 2]].mean(axis=0)
    np.testing.assert_allclose(
        star_feats.value[4],
        np.maximum(members @ params.theta_star.value, 0.0),
        atol=1e-10,
    )


def star_step_inputs(rng, edge_size, width=5):
    """A covering hypergraph whose edges have ``edge_size`` members, features and theta."""
    n = 3 * edge_size
    edges = [tuple(rng.choice(n, size=edge_size, replace=False)) for _ in range(n)]
    edges += [tuple(range(k, min(k + edge_size, n))) for k in range(0, n, edge_size)]
    hg = ensure_min_degree(build_hypergraph(n, edges))
    x = rng.standard_normal((n, width))
    return hg, x, rng.standard_normal((width, width))


@pytest.mark.parametrize("edge_size", [2, 3, 7, 8, 20])
def test_star_update_matches_the_dense_and_star_propagation_oracles(edge_size):
    rng = np.random.default_rng(edge_size)
    hg, x, theta = star_step_inputs(rng, edge_size)
    structure = build_structure(hg, x)
    got = star_update(star_nodes_of(x, theta), edge_mean(x, structure), Tensor(theta)).value

    H = np.zeros((hg.num_nodes, hg.num_edges))
    for j, e in enumerate(hg.edges):
        H[list(e), j] = 1.0
    dense = np.maximum(np.vstack([x, (H / H.sum(axis=0)).T @ x]) @ theta, 0.0)
    # The residual step of the star graph on the zero-padded input.
    prop = propagation_matrix(star_expand(hg), UpdateVariant.RESIDUAL_RW)
    stacked = np.vstack([x, np.zeros((hg.num_edges, x.shape[1]))])
    old = single_layer_update(prop, stacked, theta).value
    if edge_size <= 7:
        np.testing.assert_array_equal(got, old)
    else:
        np.testing.assert_allclose(got, old, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-14)


def test_star_update_gradient():
    rng = np.random.default_rng(30)
    hg, x, theta = star_step_inputs(rng, 4, width=3)
    structure = build_structure(hg, x)
    xt = Tensor(x, requires_grad=True)
    tt = Tensor(theta, requires_grad=True)
    weight = Tensor(rng.standard_normal((hg.num_nodes + hg.num_edges, 3)))
    err = grad_check(
        lambda: sum_all(mul(star_update(star_nodes_of(xt, tt), edge_mean(xt, structure), tt),
                            weight)),
        {"x": xt, "theta": tt},
    )
    assert err < 1e-6


def test_taa_forward_spectral_premultiplies(spec_example):
    rng = np.random.default_rng(6)
    width = 2
    x = rng.standard_normal((4, width))
    structure = build_structure(spec_example, x)
    params = make_params(rng, width)
    params.delta.value[:] = 0.0  # uniform attention isolates the value path

    _, spectral, _ = taa(x, params, structure)

    hyper_prop = structure.prop_hypergcn.to_dense()
    hyper_feats = np.maximum(hyper_prop @ x @ params.theta_hypergcn.value, 0.0)
    smoothed_values = structure.laplacians.hypergcn.to_dense() @ hyper_feats
    vp = smoothed_values @ params.weight.value
    full = (clique_expand(spec_example).adjacency.to_dense() != 0) | np.eye(4, dtype=bool)
    expected = np.vstack([vp[np.flatnonzero(full[i])].mean(axis=0) for i in range(4)])
    np.testing.assert_allclose(spectral.value, expected, atol=1e-10)


def test_constant_features_orbit_rows_match():
    # two disjoint triangles: all six nodes lie in one structural orbit
    hg = build_hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    x = np.ones((6, 2))
    structure = build_structure(hg, x)
    rng = np.random.default_rng(7)
    params = make_params(rng, 2)
    spatial, spectral, _ = taa(x, params, structure)
    for out in (spatial.value, spectral.value):
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-10)


def test_zero_features_zero_outputs(spec_example):
    x = np.zeros((4, 3))
    structure = build_structure(spec_example, np.ones((4, 3)))
    rng = np.random.default_rng(8)
    params = make_params(rng, 3)
    spatial, spectral, star_nodes = taa(x, params, structure)
    np.testing.assert_array_equal(spatial.value, np.zeros((4, 3)))
    np.testing.assert_array_equal(spectral.value, np.zeros((4, 3)))
    np.testing.assert_array_equal(star_nodes.value, np.zeros((4, 3)))


def test_cross_attention_permutation_equivariance():
    rng = np.random.default_rng(9)
    n, width = 5, 4
    q, k, v = (rng.standard_normal((n, width)) for _ in range(3))
    mask = rng.random((n, n)) < 0.5
    mask = mask | mask.T
    params = make_params(rng, width, heads=2)
    base = attend(Tensor(q), Tensor(k), Tensor(v), pattern_of(mask), params).value

    perm = rng.permutation(n)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    permuted = attend(
        Tensor(q[inv]), Tensor(k[inv]), Tensor(v[inv]), pattern_of(mask[np.ix_(inv, inv)]),
        params,
    ).value
    np.testing.assert_allclose(permuted, base[inv], atol=1e-10)


def random_mask(rng, n, density):
    """Symmetric neighbor mask with no self loops; some rows may be empty."""
    mask = rng.random((n, n)) < density
    mask = mask | mask.T
    np.fill_diagonal(mask, False)
    isolated = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
    mask[isolated, :] = False
    mask[:, isolated] = False
    return mask


def test_attention_pattern_is_adjacency_plus_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        mask = random_mask(rng, n, rng.uniform(0.0, 0.6))
        weights = np.where(mask, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        weights = weights + weights.T
        pattern = attention_pattern(SparseMatrix.from_dense(weights))
        full = mask | np.eye(n, dtype=bool)
        np.testing.assert_array_equal(pattern.to_dense(), full.astype(float))
        np.testing.assert_array_equal(pattern.data, 1.0)
        # row-major pair order, as a scan of the dense mask gives it
        rows, cols = np.nonzero(full)
        np.testing.assert_array_equal(
            np.repeat(np.arange(n), np.diff(pattern.indptr)), rows
        )
        np.testing.assert_array_equal(pattern.indices, cols)


def test_cross_attention_matches_oracle():
    # random graphs, some with isolated nodes or no edges at all, one and two heads
    rng = np.random.default_rng(11)
    for n, density, heads in itertools.product(range(1, 9), (0.0, 0.3, 0.7), (1, 2)):
        mask = random_mask(rng, n, density)
        width = 4
        q, k, v = (rng.standard_normal((n, width)) for _ in range(3))
        params = make_params(rng, width, heads)
        got = attend(Tensor(q), Tensor(k), Tensor(v), pattern_of(mask), params)
        expected = attention_oracle(
            q, k, v, mask, params.delta.value, params.weight.value, heads
        )
        np.testing.assert_allclose(got.value, expected, atol=1e-8)


def test_pattern_missing_diagonal_rejected():
    rng = np.random.default_rng(12)
    params = make_params(rng, 2)
    x = Tensor(rng.standard_normal((3, 2)))
    # a path 0-1-2 without self entries: every row lacks its diagonal
    path = SparseMatrix.from_dense(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    with pytest.raises(ShapeMismatchError):
        attend(x, x, x, path, params)
    # only row 2 lacks its diagonal
    partial = SparseMatrix.from_dense(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 0]]))
    with pytest.raises(ShapeMismatchError):
        attend(x, x, x, partial, params)


def test_pattern_keeps_its_pair_rows_and_diagonal_count_across_calls():
    rng = np.random.default_rng(14)
    params = make_params(rng, 2)
    x = Tensor(rng.standard_normal((3, 2)))
    path = SparseMatrix.from_dense(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    pattern = attention_pattern(path)
    first = attend(x, x, x, pattern, params).value
    index = pattern._pattern_index()
    rows, diagonal = index
    np.testing.assert_array_equal(rows, [0, 0, 1, 1, 1, 2, 2])
    assert diagonal == 3 and not rows.flags.writeable
    np.testing.assert_array_equal(attend(x, x, x, pattern, params).value, first)
    assert pattern._pattern_index() is index


def test_pattern_must_be_square():
    rng = np.random.default_rng(13)
    params = make_params(rng, 2)
    x = Tensor(rng.standard_normal((3, 2)))
    wide = SparseMatrix.from_dense(np.eye(3, 4))
    with pytest.raises(ShapeMismatchError):
        attend(x, x, x, wide, params)


def test_scores_of_another_shape_are_rejected():
    rng = np.random.default_rng(16)
    pattern = pattern_of(np.zeros((3, 3), dtype=bool))
    v = rng.standard_normal((3, 4))
    for q, k in [((3, 2), (3, 1)), ((2, 1), (2, 1)), ((3,), (3,))]:
        with pytest.raises(ShapeMismatchError):
            cross_attention(rng.standard_normal(q), rng.standard_normal(k), v, pattern)


def test_cross_attention_gradients_with_attention_dropout():
    rng = np.random.default_rng(14)
    mask = random_mask(rng, 7, 0.5)
    pattern = pattern_of(mask)
    q, k, v = (Tensor(rng.standard_normal((7, 4)), requires_grad=True) for _ in range(3))
    params = make_params(rng, 4, heads=2)
    upstream = Tensor(rng.standard_normal((7, 4)))

    def loss():
        # A fresh generator per call keeps the dropout mask fixed.
        out = attend(q, k, v, pattern, params, attn_dropout=0.4,
                              rng=np.random.default_rng(3))
        return sum_all(mul(out, upstream))

    tensors = {"q": q, "k": k, "v": v, "delta": params.delta, "weight": params.weight}
    assert grad_check(loss, tensors) < 1e-6


def test_forward_only_cross_attention_builds_no_backward_plan():
    rng = np.random.default_rng(15)
    pattern = pattern_of(random_mask(rng, 9, 0.4))
    q, k, v = (Tensor(rng.standard_normal((9, 4)), requires_grad=True) for _ in range(3))
    params = make_params(rng, 4, heads=2)
    out = attend(q, k, v, pattern, params)
    assert out.requires_grad and pattern._transpose is None
    backward(sum_all(out))
    assert pattern._transpose is not None and pattern.T._plan is not None and v.grad is not None


def record_op_sizes(monkeypatch, sizes):
    """Append the size of every op output and of every gradient an op receives."""
    make = autodiff._make

    def recording_make(value, parents, bwd):
        sizes.append(np.size(value))

        def recording_bwd(g):
            sizes.append(np.size(g))
            bwd(g)

        return make(value, parents, recording_bwd)

    monkeypatch.setattr(autodiff, "_make", recording_make)


def test_cross_attention_ops_are_o_nnz_and_scale_linearly_in_nodes(monkeypatch):
    # Node count doubles at a fixed mean degree (m = n / 2 edges of size 8).
    width, heads = 8, 2
    head_width = width // heads
    largest = {}
    for n in (400, 800):
        data = generate_synthetic(TwoCommunitySpec(num_nodes=n, num_edges=n // 2, edge_size=8), 0)
        pattern = attention_pattern(clique_expand(ensure_min_degree(data.hypergraph)).adjacency)
        pairs = pattern.nnz
        rng = np.random.default_rng(n)
        q, k, v = (Tensor(rng.standard_normal((n, width)), requires_grad=True) for _ in range(3))
        params = make_params(rng, width, heads)
        sizes = []
        with monkeypatch.context() as patched:
            record_op_sizes(patched, sizes)
            out = attend(q, k, v, pattern, params, attn_dropout=0.2,
                                  rng=np.random.default_rng(0))
            backward(sum_all(out))
        assert v.grad is not None and params.delta.grad is not None
        assert pairs * head_width not in sizes
        # The (pairs, 1) scores and the (n, width) projections are the largest.
        assert max(sizes) == max(pairs, n * width)
        largest[n] = max(sizes)
    assert largest[800] <= 2.2 * largest[400]


def test_star_laplacian_node_rows_give_the_masked_product_bit_for_bit():
    # Edges of up to 7 members: each supernode column of the full Laplacian
    # then sums at most 8 terms, where its extra +0.0 term changes no bit.
    hg = build_hypergraph(7, [(0, 1, 2), (2, 3), (1, 3, 4, 5, 6), (4,)])
    rng = np.random.default_rng(8)
    structure = build_structure(hg, rng.standard_normal((7, 2)))
    full = graph_laplacian(star_expand(hg))
    feats = rng.standard_normal((7 + 4, 3))
    weights = rng.standard_normal((7, 3))
    a, b = Tensor(feats, requires_grad=True), Tensor(feats, requires_grad=True)
    masked = autodiff.select_rows(autodiff.matmul(full, a), np.arange(7))
    sliced = autodiff.matmul(structure.laplacians.star, b)
    assert structure.laplacians.star.shape == (7, 11)
    assert masked.value.tobytes() == sliced.value.tobytes()
    backward(sum_all(mul(masked, weights)))
    backward(sum_all(mul(sliced, weights)))
    assert a.grad.tobytes() == b.grad.tobytes()



def labeled(hg, x, num_classes=2):
    """``hg`` and ``x`` with seeded labels and half the nodes for training."""
    n = hg.num_nodes
    train = np.arange(n) < n // 2
    return LabeledHypergraph(
        hypergraph=hg, features=x, labels=np.arange(n) % num_classes, train_mask=train,
        val_mask=np.zeros(n, dtype=bool), test_mask=~train, num_classes=num_classes,
    )


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("share, form", [(0.0, SparseMatrix), (np.inf, FactoredOperator)])
def test_star_and_clique_laplacians_multiply_only_score_columns(monkeypatch, heads, share, form):
    monkeypatch.setattr(precompute, "FACTORED_SHARE", share)
    rng = np.random.default_rng(40)
    hg, x, _ = star_step_inputs(rng, 8, width=6)
    data = labeled(hg, x)
    structure = build_structure(hg, x)
    laplacians = structure.laplacians
    assert isinstance(laplacians.clique, form)
    watched = {
        id(laplacians.star): "star", id(laplacians.star.transpose()): "star.T",
        id(laplacians.clique): "clique", id(laplacians.clique.transpose()): "clique.T",
    }
    widths = {}

    def recording(product):
        def record(self, other, *args, **kwargs):
            if id(self) in watched:
                widths.setdefault(watched[id(self)], []).append(np.shape(other)[1])
            return product(self, other, *args, **kwargs)
        return record

    for cls in (SparseMatrix, FactoredOperator):
        monkeypatch.setattr(cls, "matmul_dense", recording(cls.matmul_dense))
    params = init_dphgnn(np.random.default_rng(41), 6, 8, 2, num_heads=heads)
    trace = dphgnn_forward(data, params, Mode.TRAIN, rates=DropoutRates(0.1, 0.1, 0.1, 0.1),
                           rng=np.random.default_rng(42), structure=structure)
    backward(cross_entropy(trace.logits, data.labels, data.train_mask))
    # One forward product each, and one transposed product in backward.
    assert widths == {"star": [heads], "star.T": [heads],
                      "clique": [heads], "clique.T": [heads]}


@pytest.mark.parametrize("share", [0.0, np.inf])
def test_spectral_attention_matches_the_dense_premultiplied_views(monkeypatch, share):
    # Attention on L_star star_update, L_clique clique_feats and
    # L_hypergcn hyper_feats, each formed densely, with dropout off.
    monkeypatch.setattr(precompute, "FACTORED_SHARE", share)
    rng = np.random.default_rng(43)
    hg, x, _ = star_step_inputs(rng, 8, width=6)
    n, width, heads = hg.num_nodes, 6, 2
    structure = build_structure(hg, x)
    params = make_params(rng, width, heads)
    _, spectral, _ = taa(x, params, structure)

    clique, star, hyper = clique_expand(hg), star_expand(hg), hypergcn_expand(hg, x)
    clique_prop = propagation_matrix(clique, UpdateVariant.RESIDUAL_RW).to_dense()
    hyper_prop = propagation_matrix(hyper, UpdateVariant.SYM_NORM).to_dense()
    clique_feats = np.maximum(clique_prop @ x @ params.theta_clique.value, 0.0)
    hyper_feats = np.maximum(hyper_prop @ x @ params.theta_hypergcn.value, 0.0)
    H = np.zeros((n, hg.num_edges))
    for j, e in enumerate(hg.edges):
        H[list(e), j] = 1.0
    star_feats = np.maximum(np.vstack([x, (H / H.sum(axis=0)).T @ x]) @ params.theta_star.value,
                            0.0)
    expected = attention_oracle(
        graph_laplacian(star).to_dense()[:n] @ star_feats,
        graph_laplacian(clique).to_dense() @ clique_feats,
        graph_laplacian(hyper).to_dense() @ hyper_feats,
        clique.adjacency.to_dense() != 0, params.delta.value, params.weight.value, heads,
    )
    assert np.abs(spectral.value - expected).max() <= 1e-12 * np.abs(expected).max()


def test_taa_forward_gradients_at_two_heads():
    rng = np.random.default_rng(44)
    hg, x, _ = star_step_inputs(rng, 3, width=4)
    structure = build_structure(hg, x)
    params = make_params(rng, 4, heads=2)
    xt = Tensor(x, requires_grad=True)
    upstream = [Tensor(rng.standard_normal((hg.num_nodes, 4))) for _ in range(2)]

    def loss():
        mean = edge_mean(xt, structure)
        nodes = star_nodes_of(xt, params.theta_star)
        spatial, spectral = taa_forward(xt, mean, nodes, params, structure, attn_dropout=0.3,
                                        rng=np.random.default_rng(5))
        return add(sum_all(mul(spatial, upstream[0])), sum_all(mul(spectral, upstream[1])))

    tensors = {"x": xt, **params.parameters()}
    assert grad_check(loss, tensors) < 1e-6

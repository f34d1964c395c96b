"""Model assembly: mixing, fusion, prediction, ablations, equivalences."""

import hashlib

import numpy as np
import pytest

from conftest import (
    dense_rw,
    dense_smoothing,
    dense_sym,
    permute_data,
    random_covering_hypergraph,
)
import dphgnn.autodiff as autodiff
from dphgnn import attention
from dphgnn.attention import star_update
from dphgnn.autodiff import Tensor, backward, cross_entropy
from dphgnn.errors import ShapeMismatchError
from dphgnn.expand import clique_expand, hypergcn_expand, star_expand
from dphgnn.hypergraph import LabeledHypergraph, build_hypergraph, ensure_min_degree, relabel_nodes
from dphgnn.model import (
    AblationFlags,
    DropoutRates,
    Mode,
    dff_forward,
    dphgnn_forward,
    feature_mix,
    hgnn_baseline_forward,
    init_dphgnn,
    init_hgnn,
    predict_layer,
)
from dphgnn.precompute import build_structure
from dphgnn.sparse import FactoredOperator, SparseMatrix
from dphgnn.synthetic import TwoCommunitySpec, generate_synthetic


def make_data(hg, features, labels=None, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    n = hg.num_nodes
    if labels is None:
        labels = rng.integers(0, num_classes, size=n)
    train = np.zeros(n, dtype=bool)
    train[: max(1, n // 2)] = True
    return LabeledHypergraph(
        hypergraph=hg,
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=np.zeros(n, dtype=bool),
        test_mask=~train,
        num_classes=num_classes,
    )


@pytest.fixture
def small_instance():
    hg = build_hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    rng = np.random.default_rng(7)
    return make_data(hg, rng.standard_normal((6, 4)), num_classes=3)


def test_forward_shapes_and_trace(small_instance):
    params = init_dphgnn(np.random.default_rng(0), 4, 8, 3, num_heads=2, num_layers=3)
    trace = dphgnn_forward(small_instance, params)
    assert trace.projected.value.shape == (6, 8)
    assert trace.spectral.value.shape == (6, 16)
    assert trace.attn_spatial.value.shape == (6, 8)
    assert trace.static.value.shape == (6, 8)  # mixing restores full width
    assert trace.fused.value.shape == (3, 8)  # per-hyperedge intermediate
    assert trace.logits.value.shape == (6, 3)
    assert np.all(np.isfinite(trace.logits.value))


def test_eval_mode_deterministic(small_instance):
    params = init_dphgnn(np.random.default_rng(1), 4, 8, 3)
    a = dphgnn_forward(small_instance, params).logits.value
    b = dphgnn_forward(small_instance, params).logits.value
    np.testing.assert_array_equal(a, b)


def test_ablations_preserve_shapes(small_instance):
    for i in range(8):
        flags = AblationFlags(bool(i & 1), bool(i & 2), bool(i & 4))
        params = init_dphgnn(np.random.default_rng(2), 4, 8, 3, flags=flags)
        logits = dphgnn_forward(small_instance, params).logits.value
        assert logits.shape == (6, 3)
        assert np.all(np.isfinite(logits))


def test_sib_off_passthrough(small_instance):
    params = init_dphgnn(
        np.random.default_rng(3), 4, 8, 3, flags=AblationFlags(use_sib=False)
    )
    trace = dphgnn_forward(small_instance, params)
    np.testing.assert_array_equal(
        trace.spectral.value,
        np.hstack([trace.projected.value, trace.projected.value]),
    )


def test_taa_off_passthrough(small_instance):
    params = init_dphgnn(
        np.random.default_rng(4), 4, 8, 3, flags=AblationFlags(use_taa=False)
    )
    trace = dphgnn_forward(small_instance, params)
    assert trace.attn_spatial is trace.projected
    assert trace.attn_spectral is trace.projected


def test_dff_off_drops_star_term(small_instance):
    rng = np.random.default_rng(5)
    params = init_dphgnn(rng, 4, 8, 3, flags=AblationFlags(use_dff=False))
    structure = build_structure(
        small_instance.hypergraph, small_instance.features
    )
    trace = dphgnn_forward(small_instance, params, structure=structure)
    expected_fused = structure.edge_from_node @ trace.static.value
    np.testing.assert_allclose(trace.fused.value, expected_fused, atol=1e-12)


def test_taa_off_fusion_reads_the_star_node_rows(small_instance):
    params = init_dphgnn(
        np.random.default_rng(5), 4, 8, 3, flags=AblationFlags(use_taa=False)
    )
    structure = build_structure(small_instance.hypergraph, small_instance.features)
    trace = dphgnn_forward(small_instance, params, structure=structure)
    edge_mean = autodiff.matmul(structure.node_from_edge.T, trace.projected)
    star_nodes = autodiff.relu(autodiff.matmul(trace.projected, params.taa.theta_star))
    # With attention off the forward forms the same node rows as the star
    # view that the spectral path reads with attention on.
    star_feats = star_update(star_nodes, edge_mean, params.taa.theta_star)
    assert star_feats.value.shape == (6 + 3, 8)
    assert star_nodes.value.tobytes() == star_feats.value[:6].tobytes()
    expected = autodiff.add(
        autodiff.matmul(structure.edge_from_node, trace.static),
        autodiff.matmul(structure.node_from_edge.T, star_nodes),
    )
    assert trace.fused.value.tobytes() == expected.value.tobytes()


@pytest.mark.parametrize("num_layers", [2, 4])
def test_forward_forms_each_edge_mean_once(small_instance, monkeypatch, num_layers):
    # The SIB and the star step share D_e^-1 H^T projected, and every fusion
    # layer reads one D_e^-1 H^T star_nodes: two products by node_from_edge^T.
    params = init_dphgnn(np.random.default_rng(6), 4, 8, 3, num_layers=num_layers)
    structure = build_structure(small_instance.hypergraph, small_instance.features)
    gather = structure.node_from_edge.T
    operands, query_scores, score_products = [], [], []
    product = SparseMatrix.matmul_dense
    scores = attention.score_vectors
    dense_product = attention.matmul

    def recording_product(self, other, data=None, out=None):
        if self is gather:
            operands.append(other)
        return product(self, other, data, out)

    def recording_scores(taa):
        wq, wk = scores(taa)
        query_scores.append(wq)
        return wq, wk

    def recording_dense_product(a, b):
        if query_scores and b is query_scores[0]:
            score_products.append(a)
        return dense_product(a, b)

    monkeypatch.setattr(SparseMatrix, "matmul_dense", recording_product)
    monkeypatch.setattr(attention, "score_vectors", recording_scores)
    monkeypatch.setattr(attention, "matmul", recording_dense_product)
    with autodiff.no_grad():
        trace = dphgnn_forward(small_instance, params, Mode.EVAL, structure=structure)
    monkeypatch.undo()
    assert len(operands) == 2
    assert operands[0] is trace.projected.value
    # The star node rows are formed once: the operand of the spatial query's
    # score product is the operand of the fusion layers' edge mean. The
    # spectral query's is the star view's n + m rows.
    assert len(query_scores) == 1 and len(score_products) == 2
    assert operands[1] is score_products[0].value
    assert score_products[1].value.shape[0] == small_instance.hypergraph.num_nodes + \
        small_instance.hypergraph.num_edges
    np.testing.assert_array_equal(
        operands[1], np.maximum(trace.projected.value @ params.taa.theta_star.value, 0.0)
    )


def other_edges(data, num_nodes, edges):
    """``data`` with its features and labels, on another hypergraph."""
    return make_data(build_hypergraph(num_nodes, edges), data.features[:num_nodes],
                     labels=data.labels[:num_nodes], num_classes=data.num_classes)


def test_bundle_of_another_hypergraph_with_the_same_node_count_is_rejected(small_instance):
    dphgnn_params = init_dphgnn(np.random.default_rng(0), 4, 8, 3)
    hgnn_params = init_hgnn(np.random.default_rng(0), 4, 8, 3)
    other = other_edges(small_instance, 6, [(0, 1), (1, 2, 3), (3, 4, 5)])
    foreign = build_structure(other.hypergraph, other.features)
    with pytest.raises(ShapeMismatchError, match="another hypergraph"):
        dphgnn_forward(small_instance, dphgnn_params, structure=foreign)
    with pytest.raises(ShapeMismatchError, match="another hypergraph"):
        hgnn_baseline_forward(small_instance, hgnn_params, structure=foreign)

    # An equal hypergraph built apart is the same hypergraph.
    twin = other_edges(small_instance, 6, small_instance.hypergraph.edges)
    own = build_structure(twin.hypergraph, twin.features)
    np.testing.assert_array_equal(
        dphgnn_forward(small_instance, dphgnn_params, structure=own).logits.value,
        dphgnn_forward(small_instance, dphgnn_params).logits.value,
    )
    np.testing.assert_array_equal(
        hgnn_baseline_forward(small_instance, hgnn_params, structure=own).value,
        hgnn_baseline_forward(small_instance, hgnn_params).value,
    )


def test_bundle_of_another_hypergraph_with_another_node_count_is_rejected(small_instance):
    dphgnn_params = init_dphgnn(np.random.default_rng(0), 4, 8, 3)
    hgnn_params = init_hgnn(np.random.default_rng(0), 4, 8, 3)
    other = other_edges(small_instance, 5, [(0, 1, 2), (2, 3, 4)])
    foreign = build_structure(other.hypergraph, other.features)
    with pytest.raises(ShapeMismatchError, match="another hypergraph"):
        dphgnn_forward(small_instance, dphgnn_params, structure=foreign)
    with pytest.raises(ShapeMismatchError, match="another hypergraph"):
        hgnn_baseline_forward(small_instance, hgnn_params, structure=foreign)


def test_feature_mix_width_and_gate():
    rng = np.random.default_rng(6)
    h = 8
    params = init_dphgnn(rng, 4, h, 2)
    n = 5
    spatial = Tensor(rng.standard_normal((n, h)))
    spectral_attn = Tensor(rng.standard_normal((n, h)))
    spectral = Tensor(rng.standard_normal((n, 2 * h)))
    projected = Tensor(rng.standard_normal((n, h)))

    out = feature_mix(spatial, spectral_attn, spectral, projected, params)
    assert out.value.shape == (n, h)

    # dense oracle
    att = np.hstack([spatial.value, spectral_attn.value]) @ params.mix_attended.weight.value
    att = att + params.mix_attended.bias.value
    gate_pre = spectral.value @ params.mix_gate.weight.value + params.mix_gate.bias.value
    gate = 1.0 / (1.0 + np.exp(-np.maximum(gate_pre, 0.0)))
    skip = projected.value @ params.mix_skip.weight.value + params.mix_skip.bias.value
    np.testing.assert_allclose(out.value, np.hstack([att * gate, skip]), atol=1e-10)

    # zero gate weights saturate the sigmoid at one half
    params.mix_gate.weight.value[:] = 0.0
    params.mix_gate.bias.value[:] = 0.0
    halved = feature_mix(spatial, spectral_attn, spectral, projected, params)
    np.testing.assert_allclose(halved.value[:, : h // 2], 0.5 * att, atol=1e-10)


def test_dff_forward_dense_oracle(spec_example):
    rng = np.random.default_rng(8)
    h = 4
    structure = build_structure(spec_example, rng.standard_normal((4, h)))
    static = rng.standard_normal((4, h))
    star_edges = rng.standard_normal((2, h))
    theta = rng.standard_normal((h, h))

    H = np.array([[1, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    dv = H.sum(axis=1)
    de = H.sum(axis=0)
    incident = H.T @ np.diag(1 / np.sqrt(dv)) @ static
    for edges, fused in ((Tensor(star_edges), incident + star_edges), (None, incident)):
        expected = np.maximum(static + H @ np.diag(1 / de) @ fused @ theta, 0.0)
        sink = {}
        out = dff_forward(Tensor(static), edges, Tensor(theta), structure, trace_sink=sink)
        assert sink["fused"].value.shape == (2, h)
        np.testing.assert_allclose(sink["fused"].value, fused, atol=1e-12)
        np.testing.assert_allclose(out.value, expected, atol=1e-10)


def test_dff_theta_zero_is_rectified_skip(spec_example):
    rng = np.random.default_rng(9)
    structure = build_structure(spec_example, rng.standard_normal((4, 3)))
    static = rng.standard_normal((4, 3))
    out = dff_forward(
        Tensor(static), Tensor(rng.standard_normal((2, 3))), Tensor(np.zeros((3, 3))), structure
    )
    np.testing.assert_array_equal(out.value, np.maximum(static, 0.0))


def test_dff_single_edge_symmetric_rows():
    hg = build_hypergraph(3, [(0, 1, 2)])
    structure = build_structure(hg, np.ones((3, 2)))
    rng = np.random.default_rng(10)
    static = Tensor(np.ones((3, 2)))
    star_edges = Tensor(np.ones((1, 2)))
    out = dff_forward(static, star_edges, Tensor(rng.standard_normal((2, 2))), structure).value
    np.testing.assert_allclose(out[1], out[0], atol=1e-12)
    np.testing.assert_allclose(out[2], out[0], atol=1e-12)


def test_dff_automorphic_pair_identical_rows():
    # the shift v -> v+3 maps edge {0,1,2} to {3,4,5}; constant features
    hg = build_hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    structure = build_structure(hg, np.ones((6, 2)))
    rng = np.random.default_rng(11)
    static = Tensor(np.ones((6, 2)))
    star_edges = Tensor(np.ones((2, 2)))
    out = dff_forward(static, star_edges, Tensor(rng.standard_normal((2, 2))), structure).value
    np.testing.assert_allclose(out[3:], out[:3], atol=1e-12)


def test_predict_layer_oracle_and_cases(spec_example):
    rng = np.random.default_rng(12)
    structure = build_structure(spec_example, rng.standard_normal((4, 3)))
    x = rng.standard_normal((4, 3))
    theta = rng.standard_normal((3, 2))
    out = predict_layer(Tensor(x), Tensor(theta), structure)
    np.testing.assert_allclose(
        out.value, dense_smoothing(spec_example) @ x @ theta, atol=1e-10
    )

    zeros = predict_layer(Tensor(x), Tensor(np.zeros((3, 2))), structure)
    np.testing.assert_array_equal(zeros.value, np.zeros((4, 2)))
    labels = np.array([0, 1, 0, 1])
    loss = cross_entropy(zeros, labels, np.ones(4, dtype=bool))
    assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-12)


def test_predict_layer_rank_one_smoothing():
    hg = build_hypergraph(3, [(0, 1, 2)])
    structure = build_structure(hg, np.ones((3, 2)))
    out = predict_layer(
        Tensor(np.ones((3, 2))), Tensor(np.arange(4.0).reshape(2, 2)), structure
    ).value
    np.testing.assert_allclose(out[1], out[0], atol=1e-12)
    np.testing.assert_allclose(out[2], out[0], atol=1e-12)


def full_forward_oracle(data, params, structure):
    """Straight-line dense recomputation of the whole pipeline (1 head)."""
    hg = data.hypergraph
    n = hg.num_nodes
    x = data.features
    h = params.proj.weight.value.shape[1]

    proj = x @ params.proj.weight.value + params.proj.bias.value

    rw_sym = (dense_rw(hg) + dense_sym(hg)) @ proj
    smooth = dense_smoothing(hg) @ proj
    stack = np.hstack([proj, proj]) + params.sib_lambda * np.hstack([rw_sym, smooth])
    spectral = np.maximum(stack @ params.sib_theta.value, 0.0)

    def residual_prop(adj):
        deg = adj.sum(axis=1)
        inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        return np.eye(len(adj)) + adj * inv[:, None]

    a_star = star_expand(hg).adjacency.to_dense()
    a_clique = clique_expand(hg).adjacency.to_dense()
    a_hyper = hypergcn_expand(hg, x).adjacency.to_dense()

    star_in = np.vstack([proj, np.zeros((hg.num_edges, h))])
    star_feats = np.maximum(
        residual_prop(a_star) @ star_in @ params.taa.theta_star.value, 0.0
    )
    clique_feats = np.maximum(
        residual_prop(a_clique) @ proj @ params.taa.theta_clique.value, 0.0
    )
    with_loops = a_hyper + np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(with_loops.sum(axis=1))
    sym_prop = with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]
    hyper_feats = np.maximum(sym_prop @ proj @ params.taa.theta_hypergcn.value, 0.0)

    mask = (a_clique != 0) | np.eye(n, dtype=bool)
    np.testing.assert_array_equal(structure.attention_pattern.to_dense(), mask.astype(float))
    delta = params.taa.delta.value
    W = params.taa.weight.value

    def attend(q, k, v):
        qp, kp, vp = q @ W, k @ W, v @ W
        qs = qp @ delta[:h]
        ks = kp @ delta[h:]
        scores = qs + ks.T
        scores = np.where(scores > 0, scores, 0.2 * scores)
        out = np.zeros((n, h))
        for i in range(n):
            cols = np.flatnonzero(mask[i])
            s = scores[i, cols] - scores[i, cols].max()
            alpha = np.exp(s) / np.exp(s).sum()
            out[i] = alpha @ vp[cols]
        return out

    def glap(adj):
        return np.diag(adj.sum(axis=1)) - adj

    spatial = attend(star_feats[:n], clique_feats, hyper_feats)
    spectral_attn = attend(
        (glap(a_star) @ star_feats)[:n],
        glap(a_clique) @ clique_feats,
        glap(a_hyper) @ hyper_feats,
    )

    att = np.hstack([spatial, spectral_attn]) @ params.mix_attended.weight.value
    att = att + params.mix_attended.bias.value
    gate_pre = spectral @ params.mix_gate.weight.value + params.mix_gate.bias.value
    gate = 1.0 / (1.0 + np.exp(-np.maximum(gate_pre, 0.0)))
    skip = proj @ params.mix_skip.weight.value + params.mix_skip.bias.value
    static = np.hstack([att * gate, skip])

    H = np.zeros((n, hg.num_edges))
    for j, e in enumerate(hg.edges):
        H[list(e), j] = 1.0
    dv = H.sum(axis=1)
    de = H.sum(axis=0)
    current = static
    for theta in params.fusion_weights:
        fused = H.T @ np.diag(1 / np.sqrt(dv)) @ current
        fused = fused + np.diag(1 / de) @ a_star[n:] @ star_feats
        current = np.maximum(current + H @ np.diag(1 / de) @ fused @ theta.value, 0.0)

    return dense_smoothing(hg) @ current @ params.head_weight.value


def test_full_forward_matches_dense_oracle(small_instance):
    params = init_dphgnn(np.random.default_rng(13), 4, 8, 3, num_layers=2)
    structure = build_structure(small_instance.hypergraph, small_instance.features)
    got = dphgnn_forward(small_instance, params, structure=structure).logits.value
    expected = full_forward_oracle(small_instance, params, structure)
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_degenerate_pipeline_equals_baseline_with_tied_weights():
    """All blocks off on a singleton-edge hypergraph collapses to the baseline."""
    n, in_dim, h_base, classes = 5, 3, 4, 2
    hg = build_hypergraph(n, [(v,) for v in range(n)])
    rng = np.random.default_rng(14)
    features = rng.standard_normal((n, in_dim))
    data = make_data(hg, features, num_classes=classes)

    baseline = init_hgnn(np.random.default_rng(15), in_dim, h_base, classes)

    h = 2 * h_base
    params = init_dphgnn(
        np.random.default_rng(16), in_dim, h, classes,
        flags=AblationFlags(False, False, False), num_layers=2,
    )
    params.proj.weight.value = np.hstack([baseline.theta1.value, baseline.theta1.value])
    params.proj.bias.value[:] = 0.0
    params.mix_attended.weight.value[:] = 0.0
    params.mix_attended.bias.value[:] = 0.0
    params.mix_skip.weight.value = np.vstack([np.eye(h_base), np.zeros((h_base, h_base))])
    params.mix_skip.bias.value[:] = 0.0
    params.fusion_weights[0].value[:] = 0.0
    params.head_weight.value = np.vstack(
        [np.zeros((h_base, classes)), baseline.theta2.value]
    )

    structure = build_structure(hg, features)
    ours = dphgnn_forward(data, params, structure=structure).logits.value
    theirs = hgnn_baseline_forward(data, baseline, structure=structure).value
    np.testing.assert_allclose(ours, theirs, atol=1e-10)
    # sanity: the shared value is the plain two-layer map
    np.testing.assert_allclose(
        theirs,
        np.maximum(features @ baseline.theta1.value, 0.0) @ baseline.theta2.value,
        atol=1e-10,
    )


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(17)
    hg = random_covering_hypergraph(rng, 7, 5)
    data = make_data(hg, rng.standard_normal((7, 3)), num_classes=2)
    params = init_dphgnn(np.random.default_rng(18), 3, 8, 2, num_heads=2)
    base = dphgnn_forward(data, params).logits.value
    for _ in range(3):
        perm = rng.permutation(7)
        permuted = dphgnn_forward(permute_data(data, perm), params).logits.value
        np.testing.assert_allclose(permuted[perm], base, atol=1e-8)


def test_hgnn_baseline_oracle_and_equivariance(spec_example):
    rng = np.random.default_rng(19)
    features = rng.standard_normal((4, 3))
    data = make_data(spec_example, features, num_classes=2)
    params = init_hgnn(np.random.default_rng(20), 3, 4, 2)
    structure = build_structure(spec_example, features)
    logits = hgnn_baseline_forward(data, params, structure=structure).value

    delta = dense_smoothing(spec_example)
    layer1 = np.maximum(delta @ features @ params.theta1.value, 0.0)
    np.testing.assert_allclose(logits, delta @ layer1 @ params.theta2.value, atol=1e-10)

    perm = np.array([2, 0, 3, 1])
    permuted = hgnn_baseline_forward(permute_data(data, perm), params).value
    np.testing.assert_allclose(permuted[perm], logits, atol=1e-10)


def test_hgnn_zero_thetas_chance_loss(spec_example):
    data = make_data(spec_example, np.eye(4), num_classes=2)
    params = init_hgnn(np.random.default_rng(21), 4, 4, 2)
    params.theta2.value[:] = 0.0
    logits = hgnn_baseline_forward(data, params)
    loss = cross_entropy(logits, data.labels, np.ones(4, dtype=bool))
    assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-12)


def test_init_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(ShapeMismatchError):
        init_dphgnn(rng, 3, 7, 2)  # odd hidden width
    with pytest.raises(ShapeMismatchError):
        init_dphgnn(rng, 3, 8, 2, num_layers=0)


def test_parameter_groups_partition():
    params = init_dphgnn(np.random.default_rng(23), 3, 8, 2, num_layers=3)
    names = set(params.named_parameters())
    groups = params.parameter_groups()
    seen = [n for members in groups.values() for n in members]
    assert sorted(seen) == sorted(names)
    assert "taa.delta" in groups["taa"] and "taa.weight" in groups["taa"]
    assert "proj.weight" in groups["gnn"] and "taa.theta_star" in groups["gnn"]
    assert "sib.theta" in groups["sib"] and "mix.gate.weight" in groups["sib"]
    assert "head.theta" in groups["dff"] and "fusion.1.theta" in groups["dff"]


def _train_step(data, seed):
    """Logits and every parameter's gradient, in named order, of one TRAIN forward plus backward."""
    params = init_dphgnn(np.random.default_rng(seed), data.num_features, 8, 2, num_heads=2)
    trace = dphgnn_forward(data, params, Mode.TRAIN, rates=DropoutRates(0.1, 0.1, 0.1, 0.1),
                           rng=np.random.default_rng(seed))
    backward(cross_entropy(trace.logits, data.labels, data.train_mask))
    return (trace.logits.value, *(t.grad for t in params.named_parameters().values()))


# First 16 hex digits of the sha256 of the logits' and each gradient's bytes
# from _train_step(<two_community n=60, m=40, size 4, seed 2>, 3). Any change
# to an op's arithmetic, its summation order or the sweep order shows here.
TRAIN_STEP_DIGESTS = {
    "logits": "58ef75eb1c302479",
    "proj.weight": "1c8ecdb610b9cb05",
    "proj.bias": "094fd6e442afd67b",
    "taa.delta": "c52380cfd2eb98c8",
    "taa.weight": "e0bf44e38d78fb0c",
    "taa.theta_clique": "b01480fe18c23a5a",
    "taa.theta_star": "b2958998804f84b3",
    "taa.theta_hypergcn": "32e16432898e2f15",
    "sib.theta": "8bef73c0cf4975c4",
    "mix.attended.weight": "779c4560d4bf00a7",
    "mix.attended.bias": "28d4f0ef43daa2a2",
    "mix.gate.weight": "5ea5ac2cc44f46ed",
    "mix.gate.bias": "0f1238c4837ca9eb",
    "mix.skip.weight": "1c5fb0486e968b3f",
    "mix.skip.bias": "a525a848fc0d2067",
    "fusion.0.theta": "a5de5ed892fc0031",
    "head.theta": "03e0ded0eb58c560",
}


def test_train_step_logits_and_every_gradient_are_frozen():
    data = generate_synthetic(TwoCommunitySpec(num_nodes=60, num_edges=40, edge_size=4), 2)
    data = make_data(ensure_min_degree(data.hypergraph), data.features, labels=data.labels)
    arrays = _train_step(data, 3)
    digests = dict(zip(TRAIN_STEP_DIGESTS, (hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)))
    assert len(arrays) == len(TRAIN_STEP_DIGESTS)
    assert digests == TRAIN_STEP_DIGESTS


# The same digests from _train_step(<two_community n=120, m=60, size 8, seed 0>, 3):
# 5.95 pairs per incidence, so the attention sums run on edge blocks and the
# three clique-pattern operators are factored through H. Any change to the
# block sums, the scatter or a factor's product shows here.
WIDE_TRAIN_STEP_DIGESTS = {
    "logits": "4b647540d22d81ce",
    "proj.weight": "a40390583d313a2d",
    "proj.bias": "6732661d622174f6",
    "taa.delta": "73efaf2898806ccb",
    "taa.weight": "5adc34214e7a89c1",
    "taa.theta_clique": "51d19c6a56827e17",
    "taa.theta_star": "c8dbca5f5c85e5a5",
    "taa.theta_hypergcn": "d7e0fa4ec0831ff0",
    "sib.theta": "38f9b8eb2c01a3ff",
    "mix.attended.weight": "2d2f9d137e910d3a",
    "mix.attended.bias": "92dc2b839f397dac",
    "mix.gate.weight": "36a78203af963f8c",
    "mix.gate.bias": "38ff885e94bc18c4",
    "mix.skip.weight": "2bb7b2ec5a7d7612",
    "mix.skip.bias": "bc57a56e71a45405",
    "fusion.0.theta": "e46398bb0e78bec5",
    "head.theta": "37b41283d87b3f21",
}


def test_wide_edge_train_step_logits_and_every_gradient_are_frozen():
    data = generate_synthetic(TwoCommunitySpec(num_nodes=120, num_edges=60, edge_size=8), 0)
    data = make_data(ensure_min_degree(data.hypergraph), data.features, labels=data.labels)
    # The instance must stay above both wide-edge thresholds.
    bundle = build_structure(data.hypergraph, data.features)
    assert bundle.attention_blocks is not None
    assert all(isinstance(op, FactoredOperator) for op in
               (bundle.laplacians.smoothing, bundle.laplacians.clique, bundle.prop_clique))
    arrays = _train_step(data, 3)
    digests = dict(zip(WIDE_TRAIN_STEP_DIGESTS,
                       (hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)))
    assert len(arrays) == len(WIDE_TRAIN_STEP_DIGESTS)
    assert digests == WIDE_TRAIN_STEP_DIGESTS


def test_csr_identity_features_give_the_dense_identity_results_bit_for_bit():
    data = generate_synthetic(TwoCommunitySpec(num_nodes=60, num_edges=40, edge_size=4), 2)
    assert isinstance(data.features, SparseMatrix)
    hg = ensure_min_degree(data.hypergraph)
    sparse = make_data(hg, data.features, labels=data.labels)
    dense = make_data(hg, data.features.to_dense(), labels=data.labels)
    (logits, *grads), (dense_logits, *dense_grads) = (
        _train_step(sparse, 3), _train_step(dense, 3)
    )
    assert logits.tobytes() == dense_logits.tobytes()  # sign bits included
    # A one-hot product copies each term; only a -0.0 gradient entry may
    # differ, kept by the CSR product and summed to +0.0 by the dense one.
    for a, b in zip(grads, dense_grads):
        np.testing.assert_array_equal(a, b)
    params = init_hgnn(np.random.default_rng(4), 60, 8, 2)
    np.testing.assert_array_equal(
        hgnn_baseline_forward(sparse, params).value, hgnn_baseline_forward(dense, params).value
    )


def test_csr_features_forward_is_permutation_equivariant():
    rng = np.random.default_rng(24)
    hg = random_covering_hypergraph(rng, 9, 6)
    feats = rng.integers(0, 3, size=(9, 4)).astype(float)
    data = make_data(hg, SparseMatrix.from_dense(feats), num_classes=2)
    params = init_dphgnn(np.random.default_rng(25), 4, 8, 2, num_heads=2)
    base = dphgnn_forward(data, params).logits.value
    # The projection sums only stored entries, so it may round unlike BLAS.
    np.testing.assert_allclose(
        base, dphgnn_forward(make_data(hg, feats), params).logits.value, atol=1e-12
    )
    perm = rng.permutation(9)
    permuted = permute_data(data, perm)
    assert isinstance(permuted.features, SparseMatrix)
    np.testing.assert_allclose(dphgnn_forward(permuted, params).logits.value[perm], base, atol=1e-8)


def test_featureless_train_step_ops_are_o_n_in_nodes(monkeypatch):
    # Node count doubles at a fixed mean degree (m = n / 2 edges of size 8).
    largest = {}
    for n in (400, 800):
        data = generate_synthetic(TwoCommunitySpec(num_nodes=n, num_edges=n // 2, edge_size=8), 0)
        hg = ensure_min_degree(data.hypergraph)
        data = make_data(hg, data.features, labels=data.labels)
        sizes = []
        make = autodiff._make

        def recording_make(value, parents, bwd):
            # The op's output, every operand it reads and every gradient it gets.
            sizes.append(np.size(value))
            sizes.extend(np.size(p.value) for p in parents)

            def recording_bwd(g):
                sizes.append(np.size(g))
                bwd(g)

            return make(value, parents, recording_bwd)

        with monkeypatch.context() as patched:
            patched.setattr(autodiff, "_make", recording_make)
            _train_step(data, n)
        assert max(sizes) < n * n
        largest[n] = max(sizes)
    assert largest[800] <= 2.2 * largest[400]

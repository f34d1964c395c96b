"""Autodiff engine: per-op gradients vs finite differences, op semantics."""

import contextlib
import weakref

import numpy as np
import pytest
from conftest import dense_pattern

from dphgnn import autodiff, errors
from dphgnn.autodiff import (
    Tensor,
    add,
    backward,
    concat_cols,
    concat_rows,
    cross_entropy,
    dropout,
    grad_check,
    leaky_relu,
    matmul,
    mul,
    relu,
    scale,
    segment_softmax,
    select_cols,
    select_rows,
    sigmoid,
    sub,
    sum_all,
    transpose,
)
from dphgnn.errors import EmptyMaskError, NonScalarLossError, ShapeMismatchError
from dphgnn.sparse import SparseMatrix


def param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_scalar_square_gradient():
    w = Tensor(np.array([[3.0]]), requires_grad=True)
    err = grad_check(lambda: sum_all(mul(w, w)), {"w": w})
    assert err < 1e-9
    w.zero_grad()
    backward(sum_all(mul(w, w)))
    assert w.grad[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_linear_map_gradient_is_outer_product():
    rng = np.random.default_rng(0)
    W = param(rng, 3, 4)
    x = Tensor(rng.standard_normal((4, 1)))
    backward(sum_all(matmul(W, x)))
    np.testing.assert_allclose(W.grad, np.ones((3, 1)) @ x.value.T, atol=1e-12)


def test_dead_relu_zero_gradient():
    rng = np.random.default_rng(1)
    x = param(rng, 2, 3)
    loss = sum_all(relu(scale(mul(x, x), -1.0)))  # relu(-x^2) is identically 0
    backward(loss)
    np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))
    err = grad_check(lambda: sum_all(relu(scale(mul(x, x), -1.0))), {"x": x})
    assert err == 0.0


def test_constant_function_zero_error():
    rng = np.random.default_rng(2)
    x = param(rng, 2, 2)
    c = Tensor(np.ones((2, 2)))
    assert grad_check(lambda: sum_all(c), {"x": x}) == 0.0


@pytest.mark.parametrize(
    "name,f",
    [
        ("add", lambda a, b: add(a, b)),
        ("sub", lambda a, b: sub(a, b)),
        ("mul", lambda a, b: mul(a, b)),
        ("matmul", lambda a, b: matmul(a, b)),
        ("concat_cols", lambda a, b: concat_cols(a, b)),
        ("concat_rows", lambda a, b: concat_rows(a, b)),
    ],
)
def test_binary_op_gradients(name, f):
    rng = np.random.default_rng(3)
    a = param(rng, 4, 4)
    b = param(rng, 4, 4)
    err = grad_check(lambda: sum_all(mul(f(a, b), f(a, b))), {"a": a, "b": b})
    assert err < 1e-6, name


@pytest.mark.parametrize(
    "name,f",
    [
        ("relu", relu),
        ("leaky_relu", leaky_relu),
        ("sigmoid", sigmoid),
        ("scale", lambda t: scale(t, -1.7)),
        ("transpose", transpose),
    ],
)
def test_unary_op_gradients(name, f):
    rng = np.random.default_rng(4)
    x = param(rng, 3, 5)
    weight = Tensor(rng.standard_normal((3, 5)) if name != "transpose" else rng.standard_normal((5, 3)))
    err = grad_check(lambda: sum_all(mul(f(x), weight)), {"x": x})
    assert err < 1e-6, name


def test_select_ops_gradients():
    rng = np.random.default_rng(5)
    x = param(rng, 6, 5)
    rows = np.array([0, 2, 2, 5])
    cols = np.array([1, 3])
    err = grad_check(
        lambda: sum_all(mul(select_rows(x, rows), select_rows(x, rows))), {"x": x}
    )
    assert err < 1e-6
    err = grad_check(
        lambda: sum_all(mul(select_cols(x, cols), select_cols(x, cols))), {"x": x}
    )
    assert err < 1e-6


def test_add_broadcasts_bias_row():
    rng = np.random.default_rng(6)
    x = param(rng, 4, 3)
    b = param(rng, 1, 3)
    loss = sum_all(mul(add(x, b), add(x, b)))
    backward(loss)
    assert b.grad.shape == (1, 3)
    err = grad_check(lambda: sum_all(mul(add(x, b), add(x, b))), {"x": x, "b": b})
    assert err < 1e-6


def test_hadamard_with_ones_is_identity():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 4)))
    np.testing.assert_array_equal(mul(x, Tensor(np.ones((3, 4)))).value, x.value)


def test_sparse_const_matmul_matches_dense():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((5, 4))
    dense[rng.random((5, 4)) > 0.4] = 0.0
    sp = SparseMatrix.from_dense(dense)
    x = param(rng, 4, 3)
    y = Tensor(x.value.copy(), requires_grad=True)

    out_sparse = sum_all(mul(matmul(sp, x), matmul(sp, x)))
    backward(out_sparse)
    grad_sparse = x.grad.copy()

    out_dense = sum_all(mul(matmul(Tensor(dense), y), matmul(Tensor(dense), y)))
    backward(out_dense)
    np.testing.assert_allclose(grad_sparse, y.grad, atol=1e-12)


def test_dropout_semantics():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((50, 20)))
    assert dropout(x, 0.0, rng=0) is x
    out = dropout(x, 0.5, rng=np.random.default_rng(0))
    kept = out.value != 0.0
    # survivors are scaled by 1/(1-p)
    np.testing.assert_allclose(out.value[kept], x.value[kept] * 2.0, atol=1e-12)
    frac = kept.mean()
    assert 0.4 < frac < 0.6


def test_dropout_deterministic_by_seed():
    x = Tensor(np.ones((10, 10)))
    a = dropout(x, 0.3, rng=np.random.default_rng(7))
    b = dropout(x, 0.3, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(a.value, b.value)


def test_concat_cols_left_block():
    rng = np.random.default_rng(12)
    a = Tensor(rng.standard_normal((3, 2)))
    b = Tensor(rng.standard_normal((3, 4)))
    out = concat_cols(a, b)
    assert out.value.shape == (3, 6)
    np.testing.assert_array_equal(out.value[:, :2], a.value)


def test_cross_entropy_pinned_values():
    labels = np.array([0, 1])
    mask = np.ones(2, dtype=bool)
    loss = cross_entropy(Tensor(np.zeros((2, 2))), labels, mask)
    assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-12)

    one_node = cross_entropy(
        Tensor(np.array([[1.0, 0.0, 0.0]])), np.array([0]), np.array([True])
    )
    assert float(one_node.value) == pytest.approx(-np.log(np.e / (np.e + 2.0)), abs=1e-9)

    big_margin = cross_entropy(
        Tensor(np.array([[500.0, 0.0]])), np.array([0]), np.array([True])
    )
    assert float(big_margin.value) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_masked_mean_and_gradient():
    rng = np.random.default_rng(13)
    logits = param(rng, 5, 3)
    labels = rng.integers(0, 3, size=5)
    mask = np.array([True, False, True, True, False])

    # oracle: mean over masked rows of log-sum-exp minus true logit
    vals = logits.value
    lse = np.log(np.exp(vals).sum(axis=1))
    per_row = lse - vals[np.arange(5), labels]
    expected = per_row[mask].mean()
    loss = cross_entropy(logits, labels, mask)
    assert float(loss.value) == pytest.approx(expected, abs=1e-10)

    err = grad_check(lambda: cross_entropy(logits, labels, mask), {"logits": logits})
    assert err < 1e-6

    backward(cross_entropy(logits, labels, mask))
    assert np.all(logits.grad[~mask] == 0.0)

    with pytest.raises(EmptyMaskError):
        cross_entropy(logits, labels, np.zeros(5, dtype=bool))


def test_two_layer_mlp_finite_differences():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((6, 4)))
    w1 = param(rng, 4, 5)
    w2 = param(rng, 5, 3)
    labels = rng.integers(0, 3, size=6)
    mask = np.ones(6, dtype=bool)

    def loss():
        return cross_entropy(matmul(relu(matmul(x, w1)), w2), labels, mask)

    assert grad_check(loss, {"w1": w1, "w2": w2}) < 1e-4


def test_backward_requires_scalar():
    with pytest.raises(NonScalarLossError):
        backward(Tensor(np.zeros((2, 2)), requires_grad=True))


def test_gradient_accumulation_and_zero_grad():
    w = Tensor(np.array([[2.0]]), requires_grad=True)
    backward(sum_all(mul(w, w)))
    backward(sum_all(mul(w, w)))
    assert w.grad[0, 0] == pytest.approx(8.0)
    w.zero_grad()
    assert w.grad is None


def test_backward_frees_intermediate_gradients_and_keeps_leaves():
    rng = np.random.default_rng(30)
    w = param(rng, 3, 2)
    x = Tensor(rng.standard_normal((4, 3)))
    hidden = matmul(x, w)
    act = relu(hidden)
    loss = sum_all(mul(act, act))
    backward(loss)
    assert hidden.grad is None and act.grad is None and loss.grad is None
    assert x.grad is None
    first = w.grad.copy()
    np.testing.assert_allclose(first, x.value.T @ (2.0 * act.value), atol=1e-12)
    backward(sum_all(mul(relu(matmul(x, w)), relu(matmul(x, w)))))
    np.testing.assert_array_equal(w.grad, first + first)


def test_op_output_that_backward_never_reads_is_freed_when_dropped():
    rng = np.random.default_rng(31)
    w = param(rng, 6, 3)
    op = SparseMatrix.from_dense(np.triu(rng.standard_normal((5, 6))))
    doubled = add(w, w)
    picked = select_cols(doubled, np.array([2, 0, 2]))
    refs = [weakref.ref(doubled.value), weakref.ref(picked.value)]
    out = matmul(op, picked)
    del doubled, picked
    # add, select_cols and the sparse product keep no values on the tape.
    assert all(r() is None for r in refs)
    backward(sum_all(out))
    col = op.to_dense().sum(axis=0)
    np.testing.assert_allclose(w.grad, 2.0 * np.stack([col, np.zeros(6), 2.0 * col], axis=1))


def test_backward_frees_every_array_the_graph_saved(monkeypatch):
    saved = []
    make = autodiff._make

    def recording_make(value, parents, bwd):
        # The op's output and every array its closure captured.
        saved.append(weakref.ref(value))
        for cell in bwd.__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                saved.append(weakref.ref(cell.cell_contents))
        return make(value, parents, bwd)

    monkeypatch.setattr(autodiff, "_make", recording_make)
    rng = np.random.default_rng(32)
    w, b = param(rng, 5, 4), param(rng, 1, 4)
    x = Tensor(rng.standard_normal((6, 5)))
    h = dropout(leaky_relu(relu(add(matmul(x, w), b))), 0.5, rng=3)
    weights = segment_softmax(select_cols(mul(h, sigmoid(h)), np.array([0])), np.array([0, 2, 6]))
    loss = cross_entropy(concat_cols(h, weights), rng.integers(0, 5, 6), np.ones(6, bool))
    del x, h, weights
    backward(loss)
    alive = [r() for r in saved if r() is not None]
    assert len(alive) == 1 and alive[0] is loss.value
    assert w.grad.shape == (5, 4) and b.grad.shape == (1, 4)


def test_no_grad_records_nothing_and_restores_the_mode():
    rng = np.random.default_rng(33)
    w, b = param(rng, 3, 3), param(rng, 1, 3)
    x = Tensor(rng.standard_normal((4, 3)))
    recorded = mul(add(matmul(x, w), b), matmul(x, w))
    with autodiff.no_grad():
        hidden = add(matmul(x, w), b)
        ref = weakref.ref(hidden.value)
        out = mul(hidden, matmul(x, w))
        assert not out.requires_grad and out._node is None
        del hidden
        assert ref() is None  # mul saved no operand
        with autodiff.no_grad():
            pass
        assert not matmul(x, w).requires_grad  # the inner block restored no-grad
    assert out.value.tobytes() == recorded.value.tobytes()
    assert matmul(x, w).requires_grad
    with pytest.raises(ShapeMismatchError):
        with autodiff.no_grad():
            matmul(w, Tensor(np.ones((2, 2))))
    assert matmul(x, w).requires_grad


def test_second_backward_through_a_consumed_graph_raises():
    rng = np.random.default_rng(34)
    w = param(rng, 3, 2)
    hidden = matmul(Tensor(rng.standard_normal((4, 3))), w)
    loss = sum_all(mul(hidden, hidden))
    backward(loss)
    first = w.grad.copy()
    with pytest.raises(errors.GraphConsumedError, match="consumed"):
        backward(loss)
    with pytest.raises(errors.GraphConsumedError):
        backward(sum_all(relu(hidden)))  # a new loss over a consumed op
    np.testing.assert_array_equal(w.grad, first)


@pytest.mark.parametrize("shape", [(7, 4), (7,)])
def test_select_rows_gradient_adds_repeated_rows_in_index_order(shape):
    rng = np.random.default_rng(31)
    index = rng.integers(0, 5, 300)  # rows 5 and 6 are never picked
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    spread = 10.0 ** rng.uniform(-6, 6, (300,) + (1,) * (len(shape) - 1))
    weight = rng.standard_normal((300,) + shape[1:]) * spread
    backward(sum_all(mul(select_rows(x, index), Tensor(weight))))
    want = np.zeros(shape)
    np.add.at(want, index, weight)
    assert np.array_equal(x.grad, want)
    assert np.all(x.grad[5:] == 0.0)


def test_select_cols_gradient_adds_repeated_unsorted_columns_like_add_at():
    rng = np.random.default_rng(38)
    index = np.array([4, 1, 4, 0, 4, 1, 6])  # columns 2, 3 and 5 are never picked
    x = Tensor(rng.standard_normal((9, 7)), requires_grad=True)
    weight = rng.standard_normal((9, 7)) * 10.0 ** rng.uniform(-6, 6, (9, 7))
    weight[:, 3] = -0.0  # a column of -0.0 terms sums to +0.0, as np.add.at gives
    backward(sum_all(mul(select_cols(x, index), Tensor(weight))))
    want = np.zeros((9, 7))
    np.add.at(want.T, index, weight.T)
    assert np.array_equal(x.grad, want) and np.array_equal(np.signbit(x.grad), np.signbit(want))
    assert x.grad.flags.c_contiguous
    assert np.all(x.grad[:, [2, 3, 5]] == 0.0)


@pytest.mark.parametrize("shape", [(500,), (500, 1), (500, 6)])
def test_scatter_rows_matches_add_at_with_negative_zeros(shape):
    from dphgnn.autodiff import _scatter_rows

    rng = np.random.default_rng(39)
    index = rng.integers(0, 40, 500)
    g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    g[rng.random(shape) < 0.3] = -0.0
    g[index == 7] = -0.0  # row 7 gathers only -0.0 terms
    got = _scatter_rows(index, g, 45)  # rows 40 to 44 are never hit
    want = np.zeros((45,) + shape[1:])
    np.add.at(want, index, g)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert not np.signbit(got[7]).any() and np.all(got[40:] == 0.0)


def test_segment_softmax_matches_rowwise():
    from dphgnn.autodiff import segment_softmax

    rng = np.random.default_rng(31)
    # two segments of sizes 3 and 2
    x = param(rng, 5, 1)
    indptr = np.array([0, 3, 5])
    out = segment_softmax(x, indptr).value[:, 0]
    flat = x.value[:, 0]
    for lo, hi in ((0, 3), (3, 5)):
        e = np.exp(flat[lo:hi] - flat[lo:hi].max())
        np.testing.assert_allclose(out[lo:hi], e / e.sum(), atol=1e-12)
    assert out[:3].sum() == pytest.approx(1.0)
    assert out[3:].sum() == pytest.approx(1.0)


def test_segment_softmax_gradient():
    from dphgnn.autodiff import segment_softmax

    rng = np.random.default_rng(32)
    x = param(rng, 7, 1)
    weights = Tensor(rng.standard_normal((7, 1)))
    indptr = np.array([0, 2, 5, 7])

    def loss():
        return sum_all(mul(segment_softmax(x, indptr), weights))

    assert grad_check(loss, {"x": x}) < 1e-6


def test_segment_softmax_single_element_segments():
    from dphgnn.autodiff import segment_softmax

    x = Tensor(np.array([[5.0], [-2.0]]))
    out = segment_softmax(x, np.array([0, 1, 2]))
    np.testing.assert_array_equal(out.value, np.ones((2, 1)))


def test_segment_softmax_rejects_bad_segments():
    from dphgnn.autodiff import segment_softmax
    from dphgnn.errors import ShapeMismatchError

    x = Tensor(np.zeros((3, 1)))
    with pytest.raises(EmptyMaskError):
        segment_softmax(x, np.array([0, 1, 1, 3]))
    with pytest.raises(ShapeMismatchError):
        segment_softmax(x, np.array([0, 2]))
    with pytest.raises(ShapeMismatchError):
        segment_softmax(Tensor(np.zeros((3, 2))), np.array([0, 3]))


def test_segment_sums_values_and_gradient():
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(33)
    x = param(rng, 6, 3)
    # Row i of the pattern picks the rows of segment i: [0, 2), [2, 3), [3, 6).
    indptr = np.array([0, 2, 3, 6])
    pattern = SparseMatrix(3, 6, indptr, np.arange(6), np.ones(6))
    ones = Tensor(np.ones((6, 1)), requires_grad=True)
    out = segment_sums([ones], x, pattern)
    expected = np.vstack([
        x.value[0:2].sum(axis=0),
        x.value[2:3].sum(axis=0),
        x.value[3:6].sum(axis=0),
    ])
    np.testing.assert_allclose(out.value, expected, atol=1e-12)

    weights = Tensor(rng.standard_normal((3, 3)))

    def loss():
        return sum_all(mul(segment_sums([ones], x, pattern), weights))

    assert grad_check(loss, {"x": x}) < 1e-7
    assert grad_check(loss, {"ones": ones}) < 1e-7
    x.zero_grad()
    ones.zero_grad()
    backward(sum_all(segment_sums([ones], x, pattern)))
    np.testing.assert_array_equal(x.grad, np.ones((6, 3)))
    np.testing.assert_allclose(ones.grad[:, 0], x.value.sum(axis=1), atol=1e-12)


def pattern_with_row_lengths(rng, lengths, cols):
    """Unit-valued CSR pattern whose row i holds lengths[i] sorted columns."""
    picked = [np.sort(rng.choice(cols, length, replace=False)) for length in lengths]
    indices = np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    return SparseMatrix(len(lengths), cols, indptr, indices, np.ones(len(indices)))


def old_weighted_sums(w, v, pattern, g):
    """The former spread / pick / multiply chain and its gradients.

    Returns (output, d weights, d values) for the upstream gradient g. The
    output sums each row's products with np.add.at in stored order; the
    gradients are formed the way that chain formed them.
    """
    width = v.shape[1]
    rows = np.repeat(np.arange(pattern.rows), np.diff(pattern.indptr))
    ones = np.ones((1, width))
    spread = w @ ones
    picked = v[pattern.indices]
    out = np.zeros((pattern.rows, width))
    np.add.at(out, rows, spread * picked)
    g_pairs = g[rows]
    d_weights = (g_pairs * picked) @ ones.T
    d_values = np.zeros_like(v)
    np.add.at(d_values, pattern.indices, g_pairs * spread)
    return out, d_weights, d_values


def new_weighted_sums(w, v, pattern, g):
    from dphgnn.autodiff import segment_sums

    wt, vt = Tensor(w, requires_grad=True), Tensor(v, requires_grad=True)
    out = segment_sums([wt], vt, pattern)
    backward(sum_all(mul(out, Tensor(g))))
    return out.value, wt.grad, vt.grad


# Segment lengths from 1 to 200, around 8, 16, 64 and 128.
SEGMENT_LENGTHS = (1, 1, 2, 7, 8, 9, 17, 63, 64, 65, 128, 129, 200, 3, 1)


@pytest.mark.parametrize("width", [1, 4, 32])
def test_segment_sums_bit_identical_to_old_chain(width):
    rng = np.random.default_rng(34 + width)
    pattern = pattern_with_row_lengths(rng, SEGMENT_LENGTHS, 300)
    # Spread over twelve decades, so any other summation order rounds differently.
    v = rng.standard_normal((300, width)) * 10.0 ** rng.uniform(-6, 6, (300, 1))
    w = rng.random((pattern.nnz, 1))
    w[rng.random(pattern.nnz) < 0.3] = 0.0  # entries that dropout removed
    g = rng.standard_normal((pattern.rows, width)) * 10.0 ** rng.uniform(-6, 6, (pattern.rows, 1))
    for got, want in zip(new_weighted_sums(w, v, pattern, g), old_weighted_sums(w, v, pattern, g)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_segment_sums_matches_dense_oracle_with_empty_rows():
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(36)
    pattern = pattern_with_row_lengths(rng, [3, 0, 1, 5, 0, 2], 7)
    w = Tensor(rng.standard_normal((pattern.nnz, 1)), requires_grad=True)
    v = param(rng, 7, 3)
    out = segment_sums([w], v, pattern)
    dense = dense_pattern(pattern, w.value[:, 0])
    np.testing.assert_allclose(out.value, dense @ v.value, rtol=1e-12, atol=1e-15)
    assert np.all(out.value[[1, 4]] == 0.0)
    upstream = Tensor(rng.standard_normal((6, 3)))

    def loss():
        return sum_all(mul(segment_sums([w], v, pattern), upstream))

    assert grad_check(loss, {"w": w, "v": v}) < 1e-7


def test_segment_sums_gradient_with_zero_weights_and_long_row():
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(37)
    pattern = pattern_with_row_lengths(rng, [1, 140, 4], 150)
    w_value = rng.random((pattern.nnz, 1))
    w_value[::4] = 0.0
    w = Tensor(w_value, requires_grad=True)
    v = param(rng, 150, 2)
    upstream = Tensor(rng.standard_normal((3, 2)))
    dense = dense_pattern(pattern, w.value[:, 0])
    out = segment_sums([w], v, pattern)
    np.testing.assert_allclose(out.value, dense @ v.value, rtol=1e-12, atol=1e-15)

    def loss():
        return sum_all(mul(segment_sums([w], v, pattern), upstream))

    assert grad_check(loss, {"w": w, "v": v}, max_entries=400) < 1e-6
    # A weight of zero still passes a gradient to itself, none to its value row.
    w.zero_grad()
    v.zero_grad()
    backward(loss())
    rows = np.repeat(np.arange(3), np.diff(pattern.indptr))
    expected_w = (upstream.value[rows] * v.value[pattern.indices]).sum(axis=1)
    np.testing.assert_allclose(w.grad[:, 0], expected_w, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(v.grad, dense.T @ upstream.value, rtol=1e-12, atol=1e-15)


def test_segment_sums_rejects_bad_shapes():
    from dphgnn.autodiff import segment_sums
    from dphgnn.errors import ShapeMismatchError

    pattern = SparseMatrix(2, 4, np.array([0, 2, 3]), np.array([0, 3, 1]), np.ones(3))
    values = Tensor(np.ones((4, 2)))
    for bad in (np.ones(3), np.ones((3, 2)), np.ones((2, 1)), np.ones((4, 1))):
        with pytest.raises(ShapeMismatchError):
            segment_sums([Tensor(bad)], values, pattern)
    for bad in (np.ones((3, 2)), np.ones((5, 2)), np.ones(4)):
        with pytest.raises(ShapeMismatchError):
            segment_sums([Tensor(np.ones((3, 1)))], Tensor(bad), pattern)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def spread_rows(rng, rows, width):
    # Rows spread over twelve decades, so each summation order rounds differently.
    return rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-6, 6, (rows, 1))


def head_weights(rng, nnz, heads):
    """One (nnz, 1) weights array per head, holding 0.0 and -0.0 entries."""
    out = []
    for _ in range(heads):
        w = rng.random((nnz, 1))
        w[rng.random(nnz) < 0.2] = 0.0
        w[rng.random(nnz) < 0.1] = -0.0
        out.append(w)
    return out


# Rows of 63 to 65 entries, an empty row and a single entry.
HEAD_ROW_LENGTHS = (63, 64, 65, 3, 0, 1, 64)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_multi_head_segment_sums_equals_one_call_per_head_bit_for_bit(heads):
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(60 + heads)
    step = 3
    pattern = pattern_with_row_lengths(rng, HEAD_ROW_LENGTHS, 120)
    # Every other column of a wider array: the values and each head's block are strided views.
    values = spread_rows(rng, 120, 2 * heads * step)[:, ::2]
    assert not values.flags.c_contiguous
    ws = head_weights(rng, pattern.nnz, heads)
    g = spread_rows(rng, pattern.rows, heads * step)
    wts, vt = [Tensor(w, requires_grad=True) for w in ws], Tensor(values, requires_grad=True)
    out = segment_sums(wts, vt, pattern)
    backward(sum_all(mul(out, Tensor(g))))
    for h, w in enumerate(ws):
        cols = slice(h * step, (h + 1) * step)
        wh = Tensor(w, requires_grad=True)
        vh = Tensor(np.ascontiguousarray(values[:, cols]), requires_grad=True)
        one = segment_sums([wh], vh, pattern)
        backward(sum_all(mul(one, Tensor(np.ascontiguousarray(g[:, cols])))))
        assert_same_bits(out.value[:, cols], one.value)
        assert_same_bits(wts[h].grad, wh.grad)
        assert_same_bits(vt.grad[:, cols], vh.grad)
    assert np.all(out.value[4] == 0.0) and not np.signbit(out.value[4]).any()


@pytest.mark.parametrize("heads", [2, 4])
def test_multi_head_segment_sums_matches_the_dense_oracle(heads):
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(70 + heads)
    step = 2
    pattern = pattern_with_row_lengths(rng, HEAD_ROW_LENGTHS, 90)
    wts = [Tensor(w, requires_grad=True) for w in head_weights(rng, pattern.nnz, heads)]
    v = param(rng, 90, heads * step)
    g = rng.standard_normal((pattern.rows, heads * step))
    out = segment_sums(wts, v, pattern)
    backward(sum_all(mul(out, Tensor(g))))
    rows = np.repeat(np.arange(pattern.rows), np.diff(pattern.indptr))
    d_values = np.zeros_like(v.value)
    for h, wt in enumerate(wts):
        cols = slice(h * step, (h + 1) * step)
        dense = dense_pattern(pattern, wt.value[:, 0])
        np.testing.assert_allclose(out.value[:, cols], dense @ v.value[:, cols], rtol=1e-12, atol=1e-14)
        d_values[:, cols] = dense.T @ g[:, cols]
        d_weights = (g[rows, cols] * v.value[pattern.indices, cols]).sum(axis=1)
        np.testing.assert_allclose(wt.grad[:, 0], d_weights, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(v.grad, d_values, rtol=1e-12, atol=1e-14)

    upstream = Tensor(g)

    def loss():
        return sum_all(mul(segment_sums(wts, v, pattern), upstream))

    assert grad_check(loss, {"v": v, **{f"w{h}": wt for h, wt in enumerate(wts)}}, max_entries=60) < 1e-6


def test_multi_head_segment_sums_rejects_bad_heads():
    from dphgnn.autodiff import segment_sums

    pattern = SparseMatrix(2, 4, np.array([0, 2, 3]), np.array([0, 3, 1]), np.ones(3))
    values = Tensor(np.ones((4, 6)))
    good = Tensor(np.ones((3, 1)))
    # One head's weights of the wrong length, in either place.
    for heads in ([good, Tensor(np.ones((2, 1)))], [Tensor(np.ones((4, 1))), good]):
        with pytest.raises(ShapeMismatchError):
            segment_sums(heads, values, pattern)
    # A width of 6 splits among 1, 2, 3 or 6 heads, not among 4 or 5, nor among none.
    for count in (4, 5, 0):
        with pytest.raises(ShapeMismatchError):
            segment_sums([good] * count, values, pattern)
    assert segment_sums([good] * 3, values, pattern).shape == (2, 6)


# NaN, signed zeros and infinities, the smallest subnormals, a subnormal, a
# normal near the bottom of the range, and values past exp's overflow.
SPECIAL_VALUES = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, -1e-310,
                           2.3e-308, 1.0, -1.0, 37.5, -37.5, 710.0, -710.0, -np.nan])


def special_grid(rng, shape):
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-320, 300, shape)
    x.flat[: SPECIAL_VALUES.size] = SPECIAL_VALUES
    return x


@pytest.mark.parametrize("shape", [(9, 7), (1,), (3, 1)])
def test_relu_and_sigmoid_match_their_former_forms_on_special_values(shape):
    # numpy's vector loops and its scalar tail treat max(-0.0, 0.0) differently,
    # so each special value is also tried alone and in short arrays.
    rng = np.random.default_rng(80)
    inputs = [special_grid(rng, shape)] + [np.full(shape, v) for v in SPECIAL_VALUES]
    with np.errstate(all="ignore"):
        for x in inputs:
            g = special_grid(rng, shape)[::-1].copy()
            keep = x > 0
            for op, value in (
                (relu, np.where(keep, x, 0.0)),
                (sigmoid, np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))),
            ):
                t = Tensor(x, requires_grad=True)
                out = op(t)
                assert_same_bits(out.value, value)
                out._node.backward(g)
                assert_same_bits(t.grad, g * keep if op is relu else g * value * (1.0 - value))


def test_select_rows_prefix_backward_matches_the_scatter_form_on_special_values():
    from dphgnn.autodiff import _scatter_rows

    rng = np.random.default_rng(81)
    # A prefix of the rows, in 2-d and 1-d, against the bincount over rows.
    for shape, k in (((9, 7), 5), ((9,), 9), ((9, 7), 0)):
        t = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = select_rows(t, np.arange(k))
        assert_same_bits(out.value, t.value[:k])
        g = special_grid(rng, (k,) + shape[1:]) if k else np.zeros((0,) + shape[1:])
        out._node.backward(g)
        assert_same_bits(t.grad, _scatter_rows(np.arange(k), g, shape[0]))


def test_relu_keeps_its_mask_only_while_recording():
    import tracemalloc

    x = Tensor(np.random.default_rng(82).standard_normal(1 << 16), requires_grad=True)
    peaks = {}
    for recording in (True, False):
        tracemalloc.start()
        with autodiff.no_grad() if not recording else contextlib.nullcontext():
            out = relu(x)
        peaks[recording] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out.requires_grad is recording
        del out
    # Both allocate the 512 KiB output; only the recording one adds the 64 KiB bool mask.
    assert peaks[True] - peaks[False] >= x.value.size
    assert peaks[False] < x.value.nbytes + x.value.size // 2


def wide_edge_layout(seed):
    """A wide-edge pattern of H H^T (unit values) and its edge-block layout.

    Sizes 2 to 9 plus singletons, many pairs shared by two or more edges."""
    from dphgnn.hypergraph import build_hypergraph, clique_owners, cooccurrence, incidence
    from dphgnn.sparse import EdgeBlocks

    rng = np.random.default_rng(seed)
    n = 40
    edges = [tuple(rng.choice(n, int(rng.integers(2, 10)), replace=False)) for _ in range(25)]
    edges += [(v,) for v in range(0, n, 7)]
    hg = build_hypergraph(n, edges)
    co = cooccurrence(hg)
    pattern = SparseMatrix(n, n, co.indptr, co.indices, np.ones(co.nnz))
    return pattern, EdgeBlocks(pattern, incidence(hg), clique_owners(hg))


def assert_close_to(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_segment_sums_on_edge_blocks_match_the_csr_pattern(heads):
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(90 + heads)
    step = 3
    pattern, blocks = wide_edge_layout(90 + heads)
    # Every other column of a wider array: the values are a strided view.
    values = rng.standard_normal((pattern.rows, 2 * heads * step))[:, ::2]
    ws = head_weights(rng, pattern.nnz, heads)
    g = rng.standard_normal((pattern.rows, heads * step))
    results = []
    for operand in (pattern, blocks):
        wts, vt = [Tensor(w, requires_grad=True) for w in ws], Tensor(values, requires_grad=True)
        out = segment_sums(wts, vt, operand)
        backward(sum_all(mul(out, Tensor(g))))
        results.append((out.value, vt.grad, *(wt.grad for wt in wts)))
    for got, want in zip(*reversed(results), strict=True):
        assert_close_to(got, want)


def test_segment_sums_on_edge_blocks_pass_grad_check_and_the_shape_checks():
    from dphgnn.autodiff import segment_sums

    rng = np.random.default_rng(95)
    pattern, blocks = wide_edge_layout(95)
    wts = [Tensor(w, requires_grad=True) for w in head_weights(rng, pattern.nnz, 2)]
    v = param(rng, pattern.rows, 4)
    upstream = Tensor(rng.standard_normal((pattern.rows, 4)))

    def loss():
        return sum_all(mul(segment_sums(wts, v, blocks), upstream))

    assert grad_check(loss, {"v": v, "w0": wts[0], "w1": wts[1]}, max_entries=60) < 1e-6
    for bad in (np.ones(pattern.nnz), np.ones((pattern.nnz - 1, 1)), np.ones((pattern.nnz, 2))):
        with pytest.raises(ShapeMismatchError):
            segment_sums([Tensor(bad)], v, blocks)
    for bad in (np.ones((pattern.rows - 1, 4)), np.ones(pattern.rows)):
        with pytest.raises(ShapeMismatchError):
            segment_sums([Tensor(np.ones((pattern.nnz, 1)))], Tensor(bad), blocks)
    with pytest.raises(ShapeMismatchError):
        segment_sums(wts * 3, v, blocks)  # 6 heads cannot split a width of 4

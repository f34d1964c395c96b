"""Initialization, Adam behavior, checkpoint round trips."""

import json

import numpy as np
import pytest

from dphgnn.autodiff import Tensor
from dphgnn.errors import ParseError, ShapeMismatchError
from dphgnn.nn import (
    AdamState,
    Linear,
    adam_step,
    assign_parameters,
    glorot,
    load_checkpoint,
    save_checkpoint,
)


def test_glorot_bounds_and_determinism():
    a = glorot(np.random.default_rng(0), 30, 20)
    b = glorot(np.random.default_rng(0), 30, 20)
    np.testing.assert_array_equal(a, b)
    limit = np.sqrt(6.0 / 50.0)
    assert a.shape == (30, 20)
    assert np.all(np.abs(a) <= limit)


def test_linear_applies_affine_map():
    rng = np.random.default_rng(1)
    layer = Linear.init(rng, 4, 3)
    np.testing.assert_array_equal(layer.bias.value, np.zeros((1, 3)))
    x = Tensor(rng.standard_normal((5, 4)))
    np.testing.assert_allclose(
        layer(x).value, x.value @ layer.weight.value, atol=1e-12
    )
    names = set(layer.parameters("blk"))
    assert names == {"blk.weight", "blk.bias"}


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.array([[1.0, -2.0, 3.0], [-0.5, 0.25, -4.0]])
    state = AdamState(lr=0.1)
    adam_step({"p": p}, {"p": g}, state)
    np.testing.assert_allclose(p.value, -0.1 * np.sign(g), rtol=1e-6)


def test_adam_zero_gradient_no_decay_keeps_params():
    p = Tensor(np.full((2, 2), 1.5), requires_grad=True)
    state = AdamState(lr=0.1, weight_decay=0.0)
    adam_step({"p": p}, {"p": np.zeros((2, 2))}, state)
    np.testing.assert_array_equal(p.value, np.full((2, 2), 1.5))


def test_adam_missing_gradient_treated_as_zero():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    adam_step({"p": p}, {}, AdamState(lr=0.1))
    np.testing.assert_array_equal(p.value, np.ones((2, 2)))


def test_adam_decoupled_weight_decay_shrinks():
    p = Tensor(np.full((1, 1), 2.0), requires_grad=True)
    state = AdamState(lr=0.1, weight_decay=0.5)
    adam_step({"p": p}, {"p": np.zeros((1, 1))}, state)
    # zero gradient: only the decay term acts
    assert p.value[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_reference_trajectory():
    """Cross-check several steps against an inline textbook implementation."""
    rng = np.random.default_rng(2)
    p = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    ref = p.value.copy()
    state = AdamState(lr=0.05)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 6):
        g = rng.standard_normal((3, 2))
        adam_step({"p": p}, {"p": g}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref = ref - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.value, ref, atol=1e-12)


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(3)
        p = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        state = AdamState(lr=0.01, weight_decay=1e-4)
        for _ in range(10):
            adam_step({"p": p}, {"p": rng.standard_normal((4, 4))}, state)
        return p.value

    np.testing.assert_array_equal(run(), run())


def test_adam_shape_mismatch_rejected():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        adam_step({"p": p}, {"p": np.ones((3, 3))}, AdamState())


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    params = {
        "a.weight": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "a.bias": Tensor(rng.standard_normal((1, 4)), requires_grad=True),
    }
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path, extra={"hidden": 4})
    arrays, extra = load_checkpoint(path)
    assert extra == {"hidden": 4}
    for name, t in params.items():
        np.testing.assert_array_equal(arrays[name], t.value)

    fresh = {
        name: Tensor(np.zeros_like(t.value), requires_grad=True)
        for name, t in params.items()
    }
    assign_parameters(fresh, arrays)
    for name in params:
        np.testing.assert_array_equal(fresh[name].value, params[name].value)


def test_checkpoint_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ParseError):
        load_checkpoint(bad)
    bad.write_text(json.dumps({"format": "dphgnn-checkpoint-v1", "params": [1, 2]}))
    with pytest.raises(ParseError):
        load_checkpoint(bad)

    p = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
    with pytest.raises(ParseError):
        assign_parameters(p, {})
    with pytest.raises(ShapeMismatchError):
        assign_parameters(p, {"w": np.ones((3, 3))})


def test_checkpoint_null_values_rejected(tmp_path):
    # A null among list-form values was read as NaN.
    path = tmp_path / "ckpt.json"
    save_checkpoint({"w": Tensor(np.ones((1, 2)))}, path)
    payload = json.loads(path.read_text())
    payload["params"]["w"] = {"shape": [1, 2], "values": [None, 1.0]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_checkpoint(path)

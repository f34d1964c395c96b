"""Parameter containers, initialization, Adam, and checkpoints."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .autodiff import Tensor, add, matmul
from .errors import ParseError, ShapeMismatchError
from .fileio import atomic_write, decode_floats, encode_floats, float_array

__all__ = [
    "glorot",
    "Linear",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
    "assign_parameters",
]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Glorot-uniform sample; defaults to a (fan_in, fan_out) matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


@dataclass(eq=False)
class Linear:
    """Affine map x @ W + b with a zero-initialized bias row."""

    weight: Tensor
    bias: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, fan_in: int, fan_out: int) -> Linear:
        return cls(
            weight=Tensor(glorot(rng, fan_in, fan_out), requires_grad=True),
            bias=Tensor(np.zeros((1, fan_out)), requires_grad=True),
        )

    def __call__(self, x) -> Tensor:
        return add(matmul(x, self.weight), self.bias)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


@dataclass
class AdamState:
    """Optimizer state for one parameter group.

    Weight decay is decoupled: each step shrinks parameters by
    lr * weight_decay * value before the moment-based update.
    """

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> Mapping[str, Tensor]:
    """Apply one Adam update in place; missing gradients are treated as zero."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - state.beta1**t
    correct2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.value)
        if g.shape != p.value.shape:
            raise ShapeMismatchError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        if state.weight_decay:
            p.value -= state.lr * state.weight_decay * p.value
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / correct1
        v_hat = v / correct2
        p.value -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ----------------------------------------------------------------------
# checkpoints

_CHECKPOINT_FORMAT = "dphgnn-checkpoint-v1"


def save_checkpoint(params: Mapping[str, Tensor], path: str | Path, extra: dict | None = None) -> None:
    """Write parameters as JSON: name -> the base64 float64 object of its
    values (see :mod:`dphgnn.fileio`). The file is written beside ``path``
    and renamed over it, so a reader never sees half of it."""
    payload = {
        "format": _CHECKPOINT_FORMAT,
        "params": {name: encode_floats(t.value) for name, t in params.items()},
    }
    if extra:
        payload["extra"] = extra
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read arrays saved by :func:`save_checkpoint`.

    An entry is the base64 float64 object or, as older files and
    hand-written ones have it, ``{"shape": [...], "values": [...]}`` with
    row-major number values.

    Raises:
        ParseError: unreadable JSON, another format, ``params`` that is not
            an object, or a malformed entry:
            values that are not numbers (null included), a shape they do
            not fill, or a malformed base64 object.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _CHECKPOINT_FORMAT:
        raise ParseError(f"{path} is not a {_CHECKPOINT_FORMAT} file")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ParseError(f"{path}: params must be an object")
    arrays = {}
    for name, entry in params.items():
        what = f"checkpoint entry {name}"
        if isinstance(entry, dict) and "values" in entry:
            try:
                arrays[name] = float_array(entry["values"], what).reshape(entry["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{what} malformed: {exc}") from exc
        else:
            arrays[name] = decode_floats(entry, what)
    return arrays, payload.get("extra", {})


def assign_parameters(params: Mapping[str, Tensor], arrays: Mapping[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into parameter tensors, checking shapes."""
    missing = set(params) - set(arrays)
    if missing:
        raise ParseError(f"checkpoint missing parameters: {sorted(missing)}")
    for name, t in params.items():
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != t.value.shape:
            raise ShapeMismatchError(
                f"{name}: checkpoint shape {arr.shape} != model shape {t.value.shape}"
            )
        t.value = arr.copy()

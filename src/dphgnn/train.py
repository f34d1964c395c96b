"""Full-batch transductive training, evaluation, and run configuration.

A run config mirrors the hyperparameter table layout: one block of
{lr, weight_decay, dropout, hidden, num_layers} per submodule (the
attention block adds ``attention_heads``), plus run-level fields. The
pipeline width is the ``gnn`` block's hidden size; the number of fusion
layers comes from the ``dff`` block. Each submodule gets its own Adam
parameter group with its own learning rate and weight decay.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import backward, cross_entropy, no_grad
from .errors import DivergenceError, ParseError, ShapeMismatchError
from .fileio import atomic_write, number_array
from .hypergraph import LabeledHypergraph, ensure_min_degree, load_dataset
from .metrics import MetricsResult, metrics, predictions_from_logits
from .model import (
    AblationFlags,
    DphgnnParams,
    DropoutRates,
    HgnnParams,
    Mode,
    dphgnn_forward,
    hgnn_baseline_forward,
    init_dphgnn,
    init_hgnn,
)
from .nn import (
    AdamState,
    adam_step,
    assign_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .precompute import StructureBundle, load_or_build
from .synthetic import generate_synthetic, parse_generator_spec

__all__ = [
    "ModuleConfig",
    "RunConfig",
    "TrainReport",
    "train",
    "evaluate",
    "resolve_dataset",
]

MASK_NAMES = ("train", "val", "test")


@dataclass
class ModuleConfig:
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.0
    hidden: int = 64
    num_layers: int = 1
    attention_heads: int = 1

    def validate(self, name: str) -> None:
        for key, kinds in (("lr", "iuf"), ("weight_decay", "iuf"), ("dropout", "iuf"),
                           ("hidden", "iu"), ("num_layers", "iu"), ("attention_heads", "iu")):
            number_array(getattr(self, key), f"{name}.{key}", kinds, ndim=0)
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ParseError(f"{name}.lr must be finite and positive")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParseError(f"{name}.weight_decay must be finite and non-negative")
        if not 0 <= self.dropout < 1:
            raise ParseError(f"{name}.dropout must be in [0, 1)")
        if self.hidden < 1 or self.num_layers < 1:
            raise ParseError(f"{name}.hidden and num_layers must be positive")
        if self.attention_heads < 1:
            raise ParseError(f"{name}.attention_heads must be positive")


def _default_gnn():
    return ModuleConfig(lr=0.01, weight_decay=5e-4, dropout=0.3, hidden=64, num_layers=2)


def _default_taa():
    return ModuleConfig(lr=0.001, weight_decay=1e-3, dropout=0.5, hidden=32,
                        num_layers=1, attention_heads=2)


def _default_sib():
    return ModuleConfig(lr=0.01, weight_decay=5e-4, dropout=0.4, hidden=64, num_layers=1)


def _default_dff():
    return ModuleConfig(lr=0.01, weight_decay=5e-4, dropout=0.5, hidden=64, num_layers=2)


@dataclass
class RunConfig:
    """One training run: model choice, data source, and per-module knobs."""

    model: str = "dphgnn"
    epochs: int = 400
    seed: int = 0
    sib_lambda: float = 1.0
    dataset: str | dict | None = None
    ablation: AblationFlags = field(default_factory=AblationFlags)
    gnn: ModuleConfig = field(default_factory=_default_gnn)
    taa: ModuleConfig = field(default_factory=_default_taa)
    sib: ModuleConfig = field(default_factory=_default_sib)
    dff: ModuleConfig = field(default_factory=_default_dff)

    def __post_init__(self) -> None:
        if self.model not in ("dphgnn", "hgnn"):
            raise ParseError(f"model must be 'dphgnn' or 'hgnn', got {self.model!r}")
        for name, kinds in (("epochs", "iu"), ("seed", "iu"), ("sib_lambda", "iuf")):
            number_array(getattr(self, name), name, kinds, ndim=0)
        if self.epochs < 0 or self.seed < 0:
            raise ParseError("epochs and seed must be non-negative")
        if not np.isfinite(self.sib_lambda):
            raise ParseError(f"sib_lambda must be finite, got {self.sib_lambda}")
        for name in ("gnn", "taa", "sib", "dff"):
            getattr(self, name).validate(name)
        if self.gnn.hidden % 2:
            raise ParseError("gnn.hidden must be even (half-width mixing layers)")
        if self.gnn.hidden % self.taa.attention_heads:
            raise ParseError("taa.attention_heads must divide gnn.hidden")

    @classmethod
    def from_dict(cls, payload: dict) -> RunConfig:
        if not isinstance(payload, dict):
            raise ParseError("config must be a JSON object")
        known = dict(payload)
        kwargs = {}
        for name in ("gnn", "taa", "sib", "dff"):
            if name in known:
                block = known.pop(name)
                if not isinstance(block, dict):
                    raise ParseError(f"{name} block must be an object")
                base = asdict(getattr(cls(), name))
                unknown = set(block) - set(base)
                if unknown:
                    raise ParseError(f"unknown keys in {name} block: {sorted(unknown)}")
                base.update(block)
                kwargs[name] = ModuleConfig(**base)
        if "ablation" in known:
            kwargs["ablation"] = _ablation_flags(known.pop("ablation"), "config ablation")
        for name in ("model", "epochs", "seed", "sib_lambda", "dataset"):
            if name in known:
                kwargs[name] = known.pop(name)
        if known:
            raise ParseError(f"unknown config keys: {sorted(known)}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> RunConfig:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        out = asdict(self)
        return out


@dataclass
class TrainReport:
    model: str
    seed: int
    epochs: int
    losses: list[float]
    final_metrics: dict[str, dict[str, float]]
    wall_time_s: float
    checkpoint: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_dataset(config: RunConfig) -> LabeledHypergraph:
    """Load the dataset file or run the configured generator."""
    src = config.dataset
    if src is None:
        raise ParseError("config has no dataset")
    if isinstance(src, str):
        return load_dataset(src)
    if isinstance(src, dict) and "generator" in src:
        spec = parse_generator_spec(src["generator"])
        seed = number_array(src.get("seed", 0), "dataset.seed", "iu", ndim=0)
        if seed < 0:
            raise ParseError("dataset.seed must be non-negative")
        data = generate_synthetic(spec, int(seed))
        if not isinstance(data, LabeledHypergraph):
            raise ParseError("pair generators do not produce trainable datasets")
        return data
    raise ParseError("dataset must be a path or {'generator': ..., 'seed': ...}")


def _with_min_degree(data: LabeledHypergraph) -> LabeledHypergraph:
    """``data`` with a singleton edge on every isolated node; ``data`` itself if it has none."""
    hg = ensure_min_degree(data.hypergraph)
    if hg is data.hypergraph:
        return data
    return replace(data, hypergraph=hg)


def _init_params(config: RunConfig, in_dim: int, num_classes: int, rng: np.random.Generator):
    if config.model == "hgnn":
        return init_hgnn(rng, in_dim, config.gnn.hidden, num_classes)
    return init_dphgnn(
        rng,
        in_dim,
        config.gnn.hidden,
        num_classes,
        num_heads=config.taa.attention_heads,
        num_layers=config.dff.num_layers,
        flags=config.ablation,
        sib_lambda=config.sib_lambda,
    )


def _forward_logits(
    config: RunConfig,
    data: LabeledHypergraph,
    params,
    structure: StructureBundle,
    mode: Mode,
    rng: np.random.Generator | None,
):
    if config.model == "hgnn":
        return hgnn_baseline_forward(
            data, params, structure=structure,
            dropout_rate=config.gnn.dropout, mode=mode, rng=rng,
        )
    rates = DropoutRates(
        gnn=config.gnn.dropout, taa=config.taa.dropout,
        sib=config.sib.dropout, dff=config.dff.dropout,
    )
    return dphgnn_forward(
        data, params, mode=mode, structure=structure, rates=rates, rng=rng
    ).logits


def _metrics_all_masks(data: LabeledHypergraph, logits: np.ndarray) -> dict[str, dict[str, float]]:
    preds = predictions_from_logits(logits)
    out = {}
    for name in MASK_NAMES:
        mask = getattr(data, f"{name}_mask")
        if mask.any():
            result = metrics(preds, data.labels, mask, num_classes=data.num_classes)
            out[name] = {
                "mean_accuracy": result.mean_accuracy,
                "macro_f1": result.macro_f1,
                "micro_f1": result.micro_f1,
            }
    return out


def _checkpoint_extra(config: RunConfig, data: LabeledHypergraph) -> dict:
    return {
        "model": config.model,
        "in_dim": data.num_features,
        "hidden": config.gnn.hidden,
        "num_classes": data.num_classes,
        "attention_heads": config.taa.attention_heads,
        "num_layers": config.dff.num_layers,
        "sib_lambda": config.sib_lambda,
        "ablation": asdict(config.ablation),
    }


def train(
    config: RunConfig,
    data: LabeledHypergraph | None = None,
    out_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> TrainReport:
    """Train full-batch with per-module Adam groups; deterministic by seed.

    Isolated nodes are patched with singleton edges before any structure
    is built. With ``epochs=0`` the report carries the untrained model's
    metrics and an empty loss history.

    Raises:
        DivergenceError: a non-finite loss appeared.
    """
    started = time.perf_counter()
    if data is None:
        data = resolve_dataset(config)
    data = _with_min_degree(data)
    structure = load_or_build(data.hypergraph, data.features, cache_dir)
    rng = np.random.default_rng(config.seed)
    params = _init_params(config, data.num_features, data.num_classes, rng)
    named = params.named_parameters()
    groups = params.parameter_groups()
    states = {
        name: AdamState(
            lr=getattr(config, name).lr,
            weight_decay=getattr(config, name).weight_decay,
        )
        for name in groups
    }

    losses: list[float] = []
    for epoch in range(config.epochs):
        for t in named.values():
            t.zero_grad()
        logits = _forward_logits(config, data, params, structure, Mode.TRAIN, rng)
        loss = cross_entropy(logits, data.labels, data.train_mask)
        loss_value = float(loss.value)
        if not np.isfinite(loss_value):
            raise DivergenceError(
                f"non-finite training loss {loss_value} at epoch {epoch}"
            )
        losses.append(loss_value)
        backward(loss)
        for group_name, members in groups.items():
            group_params = {m: named[m] for m in members}
            grads = {
                m: named[m].grad for m in members if named[m].grad is not None
            }
            adam_step(group_params, grads, states[group_name])

    with no_grad():
        final_logits = _forward_logits(config, data, params, structure, Mode.EVAL, None)
    report = TrainReport(
        model=config.model,
        seed=config.seed,
        epochs=config.epochs,
        losses=losses,
        final_metrics=_metrics_all_masks(data, np.asarray(final_logits.value)),
        wall_time_s=time.perf_counter() - started,
    )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = out_dir / "checkpoint.json"
        save_checkpoint(named, ckpt_path, extra=_checkpoint_extra(config, data))
        report.checkpoint = str(ckpt_path)
        with atomic_write(out_dir / "report.json") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with atomic_write(out_dir / "loss.csv") as fh:
            fh.write("epoch,loss\n")
            for i, value in enumerate(losses):
                fh.write(f"{i},{value!r}\n")
    return report


def _ablation_flags(value, what: str) -> AblationFlags:
    names = {f.name for f in fields(AblationFlags)}
    if (not isinstance(value, dict) or not value.keys() <= names
            or not all(isinstance(flag, bool) for flag in value.values())):
        raise ParseError(f"{what} must be an object mapping some of {sorted(names)} to booleans")
    return AblationFlags(**value)


def _params_from_checkpoint(arrays: dict, extra: dict):
    rng = np.random.default_rng(0)
    if not isinstance(extra, dict):
        raise ParseError("checkpoint extra must be an object")
    model = extra.get("model")
    if model not in ("hgnn", "dphgnn"):
        raise ParseError(f"checkpoint has unknown model kind {model!r}")

    def number(key: str, kinds: str, default=None):
        if key not in extra:
            if default is None:
                raise ParseError(f"checkpoint extra lacks the model dimension {key!r}")
            return default
        value = number_array(extra[key], f"checkpoint extra {key}", kinds, ndim=0).item()
        if not np.isfinite(value):
            raise ParseError(f"checkpoint extra {key} must be finite, got {value}")
        return value

    dims = [number(key, "iu") for key in ("in_dim", "hidden", "num_classes")]
    # Checked against the stored first and last weights before any weight is allocated.
    first, last = (("layer1.theta", "layer2.theta") if model == "hgnn"
                   else ("proj.weight", "head.theta"))
    for name, shape in ((first, tuple(dims[:2])), (last, tuple(dims[1:]))):
        stored = arrays[name].shape if name in arrays else None
        if min(dims) < 1 or stored != shape:
            raise ParseError(f"checkpoint extra in_dim, hidden and num_classes {dims} must be "
                             f"positive and give {name} its shape {stored}")
    if model == "hgnn":
        params = init_hgnn(rng, *dims)
    else:
        # Checked against the stored fusion weights before any is allocated.
        num_layers = number("num_layers", "iu", 2)
        fusion = sum(bool(re.fullmatch(r"fusion\.\d+\.theta", name)) for name in arrays)
        if num_layers - 1 != fusion:
            raise ParseError(
                f"checkpoint extra num_layers {num_layers} needs {num_layers - 1} "
                f"fusion.<k>.theta arrays, the checkpoint holds {fusion}"
            )
        params = init_dphgnn(
            rng,
            *dims,
            num_heads=number("attention_heads", "iu", 1),
            num_layers=num_layers,
            flags=_ablation_flags(extra.get("ablation", {}), "checkpoint extra ablation"),
            sib_lambda=number("sib_lambda", "iuf", 1.0),
        )
    assign_parameters(params.named_parameters(), arrays)
    return model, params


def evaluate(
    checkpoint_path: str | Path,
    data: LabeledHypergraph,
    mask_name: str = "test",
    cache_dir: str | Path | None = None,
) -> MetricsResult:
    """Score a saved checkpoint on one split of a dataset."""
    if mask_name not in MASK_NAMES:
        raise ParseError(f"mask must be one of {MASK_NAMES}")
    arrays, extra = load_checkpoint(checkpoint_path)
    model, params = _params_from_checkpoint(arrays, extra)
    data = _with_min_degree(data)
    if data.num_features != extra.get("in_dim"):
        raise ShapeMismatchError(
            f"dataset has {data.num_features} features, checkpoint expects {extra.get('in_dim')}"
        )
    if data.num_classes != extra.get("num_classes"):
        raise ShapeMismatchError(
            f"dataset has {data.num_classes} classes, checkpoint expects {extra.get('num_classes')}"
        )
    structure = load_or_build(data.hypergraph, data.features, cache_dir)
    with no_grad():
        if model == "hgnn":
            logits = hgnn_baseline_forward(data, params, structure=structure)
        else:
            logits = dphgnn_forward(data, params, mode=Mode.EVAL, structure=structure).logits
    preds = predictions_from_logits(np.asarray(logits.value))
    return metrics(
        preds, data.labels, getattr(data, f"{mask_name}_mask"), num_classes=data.num_classes
    )

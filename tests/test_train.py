"""Training loop, config plumbing, and checkpoint evaluation."""

import dataclasses
import importlib
import json
import weakref

import numpy as np
import pytest

import dphgnn.autodiff as autodiff
from dphgnn.errors import DivergenceError, ParseError, ShapeMismatchError
from dphgnn.hypergraph import save_dataset
from dphgnn.synthetic import TwoCommunitySpec, generate_synthetic
from dphgnn.train import (
    MASK_NAMES,
    ModuleConfig,
    RunConfig,
    evaluate,
    resolve_dataset,
    train,
)

train_mod = importlib.import_module("dphgnn.train")

SMALL = {"generator": {"kind": "two_community", "num_nodes": 20, "num_edges": 15}, "seed": 3}


def small_config(**overrides):
    base = dict(model="dphgnn", epochs=5, seed=1, dataset=SMALL)
    base.update(overrides)
    cfg = RunConfig(**base)
    return dataclasses.replace(
        cfg,
        gnn=dataclasses.replace(cfg.gnn, hidden=8, dropout=0.0),
        taa=dataclasses.replace(cfg.taa, dropout=0.0),
        sib=dataclasses.replace(cfg.sib, dropout=0.0),
        dff=dataclasses.replace(cfg.dff, dropout=0.0),
    )


def test_config_round_trip():
    cfg = small_config()
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_config_from_json(tmp_path):
    cfg = small_config(model="hgnn")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_json(path) == cfg


def test_config_rejects_unknown_keys():
    payload = small_config().to_dict()
    payload["optimiser"] = "adam"
    with pytest.raises(ParseError):
        RunConfig.from_dict(payload)
    bad_block = small_config().to_dict()
    bad_block["gnn"]["momentum"] = 0.9
    with pytest.raises(ParseError):
        RunConfig.from_dict(bad_block)
    for ablation in ({"use_bogus": True}, [1], {"use_taa": 1}):
        with pytest.raises(ParseError, match="ablation"):
            RunConfig.from_dict({**small_config().to_dict(), "ablation": ablation})


@pytest.mark.parametrize(
    "name, block",
    [("gnn", 1), ("sib", [[1]]), ("taa", "x")],
    ids=["gnn_int", "sib_nested_list", "taa_string"],
)
def test_config_rejects_a_module_block_that_is_not_an_object(name, block):
    with pytest.raises(ParseError, match=f"{name} block must be an object"):
        RunConfig.from_dict({**small_config().to_dict(), name: block})


def test_config_validation():
    with pytest.raises(ParseError):
        RunConfig(model="transformer")
    with pytest.raises(ParseError):
        RunConfig(epochs=-1)
    with pytest.raises(ParseError):
        small_config(gnn=ModuleConfig(lr=-0.1, weight_decay=0, dropout=0, hidden=8, num_layers=2))
    with pytest.raises(ParseError):  # odd hidden breaks the half-width mixers
        cfg = small_config()
        RunConfig.from_dict({**cfg.to_dict(), "gnn": {**cfg.to_dict()["gnn"], "hidden": 9}})
    with pytest.raises(ParseError):  # heads must divide the width
        cfg = small_config()
        RunConfig.from_dict({**cfg.to_dict(), "taa": {**cfg.to_dict()["taa"], "attention_heads": 3}})


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"sib_lambda": float("nan")}, "sib_lambda"),
        ({"sib_lambda": float("inf")}, "sib_lambda"),
        ({"sib_lambda": "x"}, "sib_lambda"),
        ({"epochs": "3"}, "epochs"),
        ({"seed": "a"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"gnn": {"hidden": "8"}}, "gnn.hidden"),
        ({"gnn": {"lr": "x"}}, "gnn.lr"),
        ({"gnn": {"lr": float("nan")}}, "gnn.lr"),
        ({"dff": {"weight_decay": float("nan")}}, "dff.weight_decay"),
        ({"taa": {"attention_heads": True}}, "taa.attention_heads"),
    ],
    ids=["lambda_nan", "lambda_inf", "lambda_string", "epochs_string", "seed_string",
         "seed_negative", "hidden_string", "lr_string", "lr_nan", "weight_decay_nan", "heads_bool"],
)
def test_config_rejects_a_bad_scalar(edit, named):
    payload = small_config().to_dict()
    for key, value in edit.items():
        payload[key] = {**payload[key], **value} if isinstance(value, dict) else value
    with pytest.raises(ParseError, match=named):
        RunConfig.from_dict(payload)


def _checkpoint_with(path, **extra):
    payload = json.loads(path.read_text())
    payload["extra"].update(extra)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("model", ["dphgnn", "hgnn"])
@pytest.mark.parametrize(
    "key, value",
    [("in_dim", 0), ("in_dim", 21), ("hidden", -2), ("hidden", 6), ("num_classes", 3)],
)
def test_checkpoint_dimensions_must_match_the_stored_weights(tmp_path, monkeypatch, model,
                                                             key, value):
    cfg = small_config(model=model, epochs=1)
    report = train(cfg, out_dir=tmp_path)
    checkpoint = _checkpoint_with(tmp_path / "checkpoint.json", **{key: value})

    def no_init(*args, **kwargs):
        raise AssertionError("nothing may be allocated for mismatched dimensions")

    monkeypatch.setattr(train_mod, "init_dphgnn", no_init)
    monkeypatch.setattr(train_mod, "init_hgnn", no_init)
    with pytest.raises(ParseError, match=key):
        evaluate(report.checkpoint, resolve_dataset(cfg))
    assert checkpoint.exists()


def test_checkpoint_sib_lambda_must_be_finite(tmp_path):
    cfg = small_config(epochs=1)
    report = train(cfg, out_dir=tmp_path)
    _checkpoint_with(tmp_path / "checkpoint.json", sib_lambda=float("nan"))
    with pytest.raises(ParseError, match="sib_lambda"):
        evaluate(report.checkpoint, resolve_dataset(cfg))


def test_resolve_dataset_path_and_generator(tmp_path):
    data = generate_synthetic(TwoCommunitySpec(num_nodes=20, num_edges=15), seed=3)
    path = tmp_path / "data.json"
    save_dataset(data, path)
    from_path = resolve_dataset(small_config(dataset=str(path)))
    from_gen = resolve_dataset(small_config())
    assert from_path.hypergraph.edges == from_gen.hypergraph.edges
    np.testing.assert_array_equal(from_path.labels, from_gen.labels)


def test_resolve_dataset_rejects_pairs_and_missing():
    pair = {"generator": {"kind": "iso_pair"}, "seed": 0}
    with pytest.raises(ParseError):
        resolve_dataset(small_config(dataset=pair))
    with pytest.raises(ParseError):
        resolve_dataset(small_config(dataset=None))


def test_train_reduces_loss_and_reports_metrics():
    report = train(small_config(epochs=30))
    assert len(report.losses) == 30
    assert report.losses[-1] < report.losses[0]
    assert set(report.final_metrics) == set(MASK_NAMES)
    for block in report.final_metrics.values():
        assert set(block) == {"mean_accuracy", "macro_f1", "micro_f1"}
    assert report.wall_time_s > 0


def test_train_zero_epochs_scores_initial_model():
    report = train(small_config(epochs=0))
    assert report.losses == []
    assert "test" in report.final_metrics


def test_train_deterministic_across_runs():
    a = train(small_config(epochs=8))
    b = train(small_config(epochs=8))
    assert a.losses == b.losses
    assert a.final_metrics == b.final_metrics
    c = train(small_config(epochs=8, seed=2))
    assert c.losses != a.losses


def test_train_hgnn_baseline_path():
    report = train(small_config(model="hgnn", epochs=30))
    assert report.model == "hgnn"
    assert report.losses[-1] < report.losses[0]


def test_train_divergence_on_runaway_lr():
    # weight explosion overflows the logits and the loss goes NaN
    cfg = small_config(epochs=10)
    blown = dataclasses.replace(
        cfg,
        gnn=dataclasses.replace(cfg.gnn, lr=1e120),
        taa=dataclasses.replace(cfg.taa, lr=1e120),
        sib=dataclasses.replace(cfg.sib, lr=1e120),
        dff=dataclasses.replace(cfg.dff, lr=1e120),
    )
    with pytest.raises(DivergenceError):
        with np.errstate(all="ignore"):
            train(blown)


def test_checkpoint_round_trip_exact(tmp_path):
    cfg = small_config(epochs=10)
    report = train(cfg, out_dir=tmp_path)
    assert (tmp_path / "checkpoint.json").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "loss.csv").exists()

    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["losses"] == report.losses

    lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
    assert len(lines) == 11  # header plus one row per epoch
    assert float(lines[1].split(",")[1]) == report.losses[0]

    data = resolve_dataset(cfg)
    result = evaluate(report.checkpoint, data, mask_name="test")
    assert result.mean_accuracy == report.final_metrics["test"]["mean_accuracy"]
    assert result.macro_f1 == report.final_metrics["test"]["macro_f1"]


def test_checkpoint_round_trip_hgnn(tmp_path):
    cfg = small_config(model="hgnn", epochs=6)
    report = train(cfg, out_dir=tmp_path)
    data = resolve_dataset(cfg)
    result = evaluate(report.checkpoint, data, mask_name="val")
    assert result.mean_accuracy == report.final_metrics["val"]["mean_accuracy"]


def test_evaluate_rejects_feature_mismatch(tmp_path):
    cfg = small_config(epochs=1)
    report = train(cfg, out_dir=tmp_path)
    other = generate_synthetic(TwoCommunitySpec(num_nodes=24, num_edges=18), seed=5)
    with pytest.raises(ShapeMismatchError):
        evaluate(report.checkpoint, other)
    with pytest.raises(ParseError):
        evaluate(report.checkpoint, resolve_dataset(cfg), mask_name="all")


def test_evaluate_rejects_class_count_mismatch(tmp_path):
    cfg = small_config(epochs=1)
    report = train(cfg, out_dir=tmp_path)
    data = resolve_dataset(cfg)
    more = dataclasses.replace(data, num_classes=data.num_classes + 1)
    with pytest.raises(ShapeMismatchError, match="classes"):
        evaluate(report.checkpoint, more)


def test_train_accepts_explicit_data():
    data = generate_synthetic(TwoCommunitySpec(num_nodes=20, num_edges=15), seed=3)
    report = train(small_config(epochs=3, dataset=None), data=data)
    assert len(report.losses) == 3


def test_each_epochs_graph_is_freed_before_the_next_forward(monkeypatch):
    epochs = 3
    values: list[list] = []  # weakrefs to each forward's op outputs
    last: dict = {}  # ids of the logits and loss values train() still holds
    checked, records = [], []
    make, forward, loss_fn = autodiff._make, train_mod._forward_logits, train_mod.cross_entropy

    def recording_make(value, parents, bwd):
        values[-1].append(weakref.ref(value))
        return make(value, parents, bwd)

    def checked_forward(config, data, params, structure, mode, rng):
        if values:
            alive = {id(v) for r in values[-1] if (v := r()) is not None}
            checked.append(alive <= {last["logits"], last["loss"]})
        values.append([])
        logits = forward(config, data, params, structure, mode, rng)
        last["logits"] = id(logits.value)
        records.append(logits.requires_grad)
        return logits

    def recording_loss(logits, labels, mask):
        loss = loss_fn(logits, labels, mask)
        last["loss"] = id(loss.value)
        return loss

    monkeypatch.setattr(autodiff, "_make", recording_make)
    monkeypatch.setattr(train_mod, "_forward_logits", checked_forward)
    monkeypatch.setattr(train_mod, "cross_entropy", recording_loss)
    cfg = small_config(epochs=epochs)
    report = train(dataclasses.replace(cfg, gnn=dataclasses.replace(cfg.gnn, dropout=0.3)))
    assert len(report.losses) == epochs
    # Checked before epochs 1 and 2 and before the final EVAL forward.
    assert checked == [True] * epochs
    assert records == [True] * epochs + [False]  # the EVAL forward records no graph


@pytest.mark.parametrize("model", ["dphgnn", "hgnn"])
def test_evaluate_records_no_graph(tmp_path, monkeypatch, model):
    cfg = small_config(model=model, epochs=1)
    report = train(cfg, out_dir=tmp_path)
    outputs = []
    make = autodiff._make

    def recording_make(value, parents, bwd):
        outputs.append(make(value, parents, bwd))
        return outputs[-1]

    monkeypatch.setattr(autodiff, "_make", recording_make)
    evaluate(report.checkpoint, resolve_dataset(cfg))
    assert outputs and not any(t.requires_grad for t in outputs)

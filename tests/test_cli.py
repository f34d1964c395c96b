"""End-to-end command line flows on temporary files."""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dphgnn
from dphgnn.cli import main
from dphgnn.hypergraph import load_dataset, save_dataset
from dphgnn.train import RunConfig

SMALL = {"generator": {"kind": "two_community", "num_nodes": 20, "num_edges": 15}, "seed": 3}


def write_config(tmp_path, **overrides):
    base = dict(model="dphgnn", epochs=4, seed=1, dataset=SMALL)
    base.update(overrides)
    cfg = RunConfig(**base)
    cfg = dataclasses.replace(
        cfg,
        gnn=dataclasses.replace(cfg.gnn, hidden=8, dropout=0.0),
        taa=dataclasses.replace(cfg.taa, dropout=0.0),
        sib=dataclasses.replace(cfg.sib, dropout=0.0),
        dff=dataclasses.replace(cfg.dff, dropout=0.0),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_dataset(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "two_community", "num_nodes": 24, "num_edges": 18}))
    out = tmp_path / "data.json"
    code, stdout, _ = run_cli(
        capsys, "generate", "--spec", str(spec), "--seed", "4", "--out", str(out)
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["num_nodes"] == 24
    data = load_dataset(out)
    assert data.num_nodes == 24
    assert data.hypergraph.num_edges == 18
    # One-hot features are written as a CSR identity: O(n) numbers, not n² floats.
    csr = json.loads(out.read_text())["features_csr"]
    assert len(csr["indptr"]) == 25 and len(csr["indices"]) == len(csr["data"]) == 24
    assert data.features.to_dense().tolist() == np.eye(24).tolist()


def test_generate_pair_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "non_iso_pair", "cycle_a": 3, "cycle_b": 3}))
    out = tmp_path / "pair.json"
    code, stdout, _ = run_cli(
        capsys, "generate", "--spec", str(spec), "--seed", "1", "--out", str(out)
    )
    assert code == 0
    assert json.loads(stdout)["isomorphic"] is False
    payload = json.loads(out.read_text())
    assert payload["a"]["num_nodes"] == 6
    assert payload["b"]["num_nodes"] == 6
    assert payload["isomorphic"] is False


def _pair_run(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "non_iso_pair", "cycle_a": 3, "cycle_b": 3}))
    return ["generate", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "pair.json")]


def _train_run(tmp_path):
    return ["train", "--config", str(write_config(tmp_path, epochs=2)), "--out", str(tmp_path)]


@pytest.mark.parametrize(
    "argv, written, payload_key",
    [(_pair_run, "pair.json", "isomorphic"), (_train_run, "report.json", "losses")],
    ids=["generate_pair", "train_report"],
)
def test_a_write_that_raises_leaves_the_previous_file(
    tmp_path, capsys, monkeypatch, argv, written, payload_key
):
    argv = argv(tmp_path)
    assert run_cli(capsys, *argv)[0] == 0
    path = tmp_path / written
    before = path.read_bytes()
    dump = json.dump

    def dump_part_then_fail(obj, fh, **kwargs):
        if payload_key not in obj:
            return dump(obj, fh, **kwargs)
        fh.write('{"partial": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_part_then_fail)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob(".*.tmp"))


def test_train_eval_chain(tmp_path, capsys):
    config = write_config(tmp_path, epochs=6)
    run_dir = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys, "train", "--config", str(config), "--out", str(run_dir)
    )
    assert code == 0
    report = json.loads(stdout)
    assert len(report["losses"]) == 6

    # regenerate the dataset to a file, then score the checkpoint on it
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL["generator"]))
    data_path = tmp_path / "data.json"
    run_cli(capsys, "generate", "--spec", str(spec), "--seed", "3", "--out", str(data_path))

    code, stdout, _ = run_cli(
        capsys,
        "eval",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--data", str(data_path),
        "--mask", "test",
    )
    assert code == 0
    scored = json.loads(stdout)
    assert scored["mask"] == "test"
    assert scored["mean_accuracy"] == report["final_metrics"]["test"]["mean_accuracy"]


def test_cached_eval_prints_what_uncached_eval_prints(tmp_path, capsys):
    config = write_config(tmp_path, epochs=3)
    run_dir = tmp_path / "run"
    assert run_cli(capsys, "train", "--config", str(config), "--out", str(run_dir))[0] == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL["generator"]))
    data_path = tmp_path / "data.json"
    run_cli(capsys, "generate", "--spec", str(spec), "--seed", "3", "--out", str(data_path))
    # `generate` writes CSR features only; the same data with dense features
    # takes the base64 float64 path.
    dense_path = tmp_path / "dense.json"
    data = load_dataset(data_path)
    save_dataset(dataclasses.replace(data, features=data.features.to_dense()), dense_path)
    assert "float64_le" in json.loads(dense_path.read_text())["features"]

    for path in (data_path, dense_path):
        request = ("eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--data", str(path))
        code, uncached, _ = run_cli(capsys, *request)
        assert code == 0

        cache = tmp_path / f"cache-{path.stem}"
        inodes = []
        for _ in ("cold", "warm"):
            code, stdout, _ = run_cli(capsys, *request, "--cache", str(cache))
            assert code == 0
            assert json.loads(stdout) == json.loads(uncached)
            [entry] = cache.iterdir()
            assert entry.match("structure-*.npz")
            inodes.append(entry.stat().st_ino)
        assert inodes[0] == inodes[1]  # the warm request read the file and did not rewrite it


def test_iso_test_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    # two triangles against a hexagon: the motivating indistinguishable pair
    a.write_text(json.dumps({
        "num_nodes": 6,
        "hyperedges": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
    }))
    b.write_text(json.dumps({
        "num_nodes": 6,
        "hyperedges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
    }))
    code, stdout, _ = run_cli(
        capsys, "iso-test", "--a", str(a), "--b", str(b), "--brute-force"
    )
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["verdict"] == "POSSIBLY_ISOMORPHIC"
    assert verdict["brute_force"] is False


def test_iso_test_pair_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "iso_pair", "num_nodes": 7, "num_edges": 5}))
    out = tmp_path / "pair.json"
    run_cli(capsys, "generate", "--spec", str(spec), "--seed", "2", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "iso-test", "--a", str(out), "--brute-force")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["verdict"] == "POSSIBLY_ISOMORPHIC"
    assert verdict["brute_force"] is True


def test_iso_test_distinguishable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"num_nodes": 3, "hyperedges": [[0, 1, 2]]}))
    b.write_text(json.dumps({"num_nodes": 3, "hyperedges": [[0, 1], [1, 2]]}))
    code, stdout, _ = run_cli(capsys, "iso-test", "--a", str(a), "--b", str(b))
    assert code == 0
    assert json.loads(stdout)["verdict"] == "DISTINGUISHED"


def test_iso_test_rejects_a_string_member_without_a_traceback(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"num_nodes": 3, "hyperedges": [[0, "x"]]}))
    b.write_text(json.dumps({"num_nodes": 3, "hyperedges": [[0, 1]]}))
    code, stdout, stderr = run_cli(capsys, "iso-test", "--a", str(a), "--b", str(b))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "integers" in stderr and "Traceback" not in stderr


def test_ablate_writes_rows(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "ablation.json"
    code, stdout, _ = run_cli(
        capsys, "ablate", "--config", str(config), "--out", str(out)
    )
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["name"] for r in rows] == ["overall", "no_taa", "no_sib", "no_dff"]
    assert rows[1]["flags"]["use_taa"] is False


def test_iso_exp_smoke(tmp_path, capsys):
    config = write_config(tmp_path, dataset=None, epochs=2)
    code, stdout, _ = run_cli(
        capsys, "iso-exp", "--seed", "1", "--pairs", "4", "--config", str(config)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["num_pairs"] == 4
    assert report["verdicts"]["POSSIBLY_ISOMORPHIC"] == 4
    assert "test_accuracy_gap" in report


def test_errors_exit_code_two(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "train", "--config", str(tmp_path / "missing.json")
    )
    assert code == 2
    assert "error:" in err

    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"kind": "mystery"}))
    code, _, err = run_cli(
        capsys, "generate", "--spec", str(spec), "--seed", "0",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error:" in err


def test_eval_of_a_checkpoint_without_model_dimensions_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, epochs=1)
    run_dir = tmp_path / "run"
    assert run_cli(capsys, "train", "--config", str(config), "--out", str(run_dir))[0] == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL["generator"]))
    data_path = tmp_path / "data.json"
    run_cli(capsys, "generate", "--spec", str(spec), "--seed", "3", "--out", str(data_path))
    checkpoint = run_dir / "checkpoint.json"
    payload = json.loads(checkpoint.read_text())
    for extra, named in (({"model": "dphgnn"}, "in_dim"),
                         ({**payload["extra"], "hidden": 8.5}, "hidden"),
                         ([], "extra")):
        checkpoint.write_text(json.dumps({**payload, "extra": extra}))
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(data_path)
        )
        assert code == 2
        assert err.startswith("error:") and named in err and "Traceback" not in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A one-epoch dphgnn checkpoint's JSON payload and the dataset it was trained on."""
    root = tmp_path_factory.mktemp("trained")
    config = write_config(root, epochs=1)
    assert main(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    spec = root / "spec.json"
    spec.write_text(json.dumps(SMALL["generator"]))
    data_path = root / "data.json"
    assert main(["generate", "--spec", str(spec), "--seed", "3", "--out", str(data_path)]) == 0
    return json.loads((root / "run" / "checkpoint.json").read_text()), data_path


@pytest.mark.parametrize(
    "key, value",
    [
        ("ablation", {"use_bogus": True}),
        ("ablation", [1]),
        ("ablation", {"use_taa": 1}),
        ("attention_heads", "2"),
        ("num_layers", "2"),
        ("sib_lambda", "x"),
        ("sib_lambda", None),
        ("sib_lambda", float("nan")),
    ],
    ids=["ablation_unknown_flag", "ablation_list", "ablation_int_flag", "heads_string",
         "layers_string", "lambda_string", "lambda_null", "lambda_nan"],
)
def test_eval_of_a_checkpoint_with_a_bad_extra_field_exits_two(
    tmp_path, capsys, trained_run, key, value
):
    payload, data_path = trained_run
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps({**payload, "extra": {**payload["extra"], key: value}}))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(data_path))
    assert code == 2
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_eval_of_a_checkpoint_with_more_layers_than_fusion_weights_exits_two(
    tmp_path, capsys, trained_run
):
    # The count is checked before num_layers - 1 fusion weights are allocated,
    # so the error names the mismatch in one line instead of 19,999 missing names.
    payload, data_path = trained_run
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps({**payload, "extra": {**payload["extra"], "num_layers": 20000}}))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(data_path))
    assert code == 2
    assert err.startswith("error:") and "num_layers" in err and "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "key, value",
    [("hidden", -2), ("in_dim", -1), ("num_classes", -1), ("hidden", 10**12)],
    ids=["hidden_negative", "in_dim_negative", "classes_negative", "hidden_huge"],
)
def test_eval_of_a_checkpoint_with_bad_model_dimensions_exits_two(
    tmp_path, capsys, monkeypatch, trained_run, key, value
):
    # The dimensions are checked against the stored weights before the model
    # is allocated; a hidden width of 10^12 would ask numpy for terabytes.
    def no_init(*args, **kwargs):
        raise AssertionError("the model must not be allocated")

    monkeypatch.setattr(importlib.import_module("dphgnn.train"), "init_dphgnn", no_init)
    payload, data_path = trained_run
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps({**payload, "extra": {**payload["extra"], key: value}}))
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(data_path))
    assert code == 2
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_train_with_a_non_finite_sib_lambda_exits_two(tmp_path, capsys):
    config = write_config(tmp_path)
    payload = json.loads(config.read_text())
    config.write_text(json.dumps({**payload, "sib_lambda": float("nan")}))
    code, stdout, err = run_cli(capsys, "train", "--config", str(config),
                                "--out", str(tmp_path / "run"))
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "sib_lambda" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name, block", [("gnn", 1), ("sib", [[1]]), ("taa", "x")],
                         ids=["gnn_int", "sib_nested_list", "taa_string"])
def test_train_with_a_module_block_that_is_not_an_object_exits_two(tmp_path, capsys, name, block):
    config = write_config(tmp_path)
    payload = json.loads(config.read_text())
    config.write_text(json.dumps({**payload, name: block}))
    code, stdout, err = run_cli(capsys, "train", "--config", str(config),
                                "--out", str(tmp_path / "run"))
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and f"{name} block" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seed", ["a", -1, 2.7, None, [3]], ids=["text", "negative", "fraction", "null", "list"])
def test_train_with_a_bad_dataset_seed_exits_two(tmp_path, capsys, seed):
    config = write_config(tmp_path, dataset={**SMALL, "seed": seed})
    code, stdout, err = run_cli(capsys, "train", "--config", str(config),
                                "--out", str(tmp_path / "run"))
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "dataset.seed" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_eval_with_a_cache_path_naming_a_file_exits_two(tmp_path, capsys, trained_run):
    payload, data_path = trained_run
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    taken = tmp_path / "taken"
    taken.write_text("")
    code, stdout, err = run_cli(
        capsys, "eval", "--checkpoint", str(checkpoint), "--data", str(data_path),
        "--cache", str(taken),
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and str(taken) in err and "Traceback" not in err
    assert taken.read_text() == ""


def load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def console_script_command(name):
    """argv that starts console script ``name`` in a fresh process, plus its env.

    An installed script on PATH is used as is. When the suite runs from
    source without an install, the entry point declared under
    ``[project.scripts]`` in pyproject.toml is launched the way the
    generated wrapper does it, with the imported package's source
    directory on PYTHONPATH.
    """
    installed = shutil.which(name)
    if installed:
        return [installed], None
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = load_toml(pyproject).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no [project.scripts] {name}"
    module, sep, attr = scripts[name].partition(":")
    assert sep and module and attr.isidentifier(), (
        f"[project.scripts] {name} = {scripts[name]!r} is not of module:attr form"
    )
    src = str(Path(dphgnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", code], env


def test_console_script_help():
    argv, env = console_script_command("dphgnn")
    proc = subprocess.run(
        [*argv, "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dphgnn")
    for name in ("generate", "train", "eval", "iso-test", "ablate", "iso-exp"):
        assert name in proc.stdout

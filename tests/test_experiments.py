"""Ablation grid, isomorphism pool assembly, and forward timing."""

import dataclasses
import hashlib

import numpy as np
import pytest

import dphgnn.experiments as experiments
from dphgnn.errors import InfeasibleSpecError
from dphgnn.experiments import (
    DEFAULT_GRID,
    IsoPoolSpec,
    build_iso_pool,
    iso_experiment,
    run_ablation,
    time_forward,
)
from dphgnn.gwl import Verdict
from dphgnn.model import AblationFlags
from dphgnn.train import RunConfig

SMALL = {"generator": {"kind": "two_community", "num_nodes": 20, "num_edges": 15}, "seed": 3}


def tiny_config(**overrides):
    base = dict(model="dphgnn", epochs=4, seed=1, dataset=SMALL)
    base.update(overrides)
    cfg = RunConfig(**base)
    return dataclasses.replace(
        cfg,
        gnn=dataclasses.replace(cfg.gnn, hidden=8, dropout=0.0),
        taa=dataclasses.replace(cfg.taa, dropout=0.0),
        sib=dataclasses.replace(cfg.sib, dropout=0.0),
        dff=dataclasses.replace(cfg.dff, dropout=0.0),
    )


def test_ablation_grid_rows():
    rows = run_ablation(tiny_config())
    assert [r.name for r in rows] == ["overall", "no_taa", "no_sib", "no_dff"]
    assert rows[0].flags == AblationFlags(True, True, True)
    assert rows[1].flags == AblationFlags(False, True, True)
    for row in rows:
        assert "test" in row.metrics
        assert row.final_loss is not None and np.isfinite(row.final_loss)


def test_ablation_deterministic_and_distinct():
    a = run_ablation(tiny_config())
    b = run_ablation(tiny_config())
    for ra, rb in zip(a, b):
        assert ra.metrics == rb.metrics
        assert ra.final_loss == rb.final_loss
    # disabling a block changes the function being trained
    assert a[0].final_loss != a[1].final_loss


def test_ablation_custom_grid():
    grid = (("all_off", AblationFlags(False, False, False)),)
    rows = run_ablation(tiny_config(), grid=grid)
    assert len(rows) == 1
    assert rows[0].name == "all_off"


def test_iso_pool_layout():
    spec = IsoPoolSpec(num_pairs=8, feature_dim=6)
    data, pairs = build_iso_pool(spec, seed=5)
    assert len(pairs) == 8
    assert data.num_nodes == 8 * 20  # each side has 10 nodes
    assert data.features.shape == (160, 6)

    for i, pair in enumerate(pairs):
        assert pair.index == i
        assert pair.kind == ("iso" if i % 2 == 0 else "non_iso")
        assert pair.label == (1 if i % 2 == 0 else 0)
        assert pair.num_nodes == 20
        # every instance is 2-regular and 2-uniform: refinement is blind here
        assert pair.verdict is Verdict.POSSIBLY_ISOMORPHIC
        block = slice(pair.node_offset, pair.node_offset + pair.num_nodes)
        np.testing.assert_array_equal(data.labels[block], pair.label)

    # pairs alternate, so node labels are balanced
    assert int(data.labels.sum()) == 80


def test_iso_pool_masks_partition_per_pair():
    spec = IsoPoolSpec(num_pairs=4, train_per_pair=3, feature_dim=4)
    data, pairs = build_iso_pool(spec, seed=9)
    combined = (
        data.train_mask.astype(int)
        + data.val_mask.astype(int)
        + data.test_mask.astype(int)
    )
    np.testing.assert_array_equal(combined, 1)
    for pair in pairs:
        block = slice(pair.node_offset, pair.node_offset + pair.num_nodes)
        assert int(data.train_mask[block].sum()) == 3
        assert int(data.val_mask[block].sum()) > 0
        assert int(data.test_mask[block].sum()) > 0


def test_iso_pool_deterministic():
    spec = IsoPoolSpec(num_pairs=4, feature_dim=4)
    a, _ = build_iso_pool(spec, seed=2)
    b, _ = build_iso_pool(spec, seed=2)
    assert a.hypergraph.edges == b.hypergraph.edges
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)
    c, _ = build_iso_pool(spec, seed=3)
    assert not np.array_equal(a.features, c.features)


def test_iso_pool_rejects_tiny():
    with pytest.raises(InfeasibleSpecError):
        build_iso_pool(IsoPoolSpec(num_pairs=1), seed=0)


def _with_wrong_permutation(monkeypatch):
    real = experiments.permuted_copy

    def wrong(hg, rng):
        copy, perm = real(hg, rng)
        # Swapping two nodes' images is no automorphism of the cycle families.
        perm = perm.copy()
        perm[[0, 1]] = perm[[1, 0]]
        return copy, perm

    monkeypatch.setattr(experiments, "permuted_copy", wrong)


def test_iso_pool_ground_truth_failure_raises(monkeypatch):
    # A certificate that does not map the base onto its copy must stop the
    # pool build, also under -O.
    spec = IsoPoolSpec(num_pairs=4, feature_dim=4)
    with monkeypatch.context() as patched:
        _with_wrong_permutation(patched)
        with pytest.raises(InfeasibleSpecError, match=r"pair 0 \(iso\)"):
            build_iso_pool(spec, seed=0)
    # calling every pair isomorphic fails only the non-iso pairs
    monkeypatch.setattr(experiments, "brute_force_isomorphic", lambda a, b: True)
    with pytest.raises(InfeasibleSpecError, match=r"pair 1 \(non_iso\)"):
        build_iso_pool(spec, seed=0)
    data, _ = build_iso_pool(dataclasses.replace(spec, verify_ground_truth=False), seed=0)
    assert data.num_nodes == 80


def test_iso_pairs_above_the_brute_force_cap_are_certified(monkeypatch):
    spec = IsoPoolSpec(num_pairs=4, split_a=6, split_b=6, feature_dim=4)
    _with_wrong_permutation(monkeypatch)
    with pytest.raises(InfeasibleSpecError, match=r"pair 0 \(iso\)"):
        build_iso_pool(spec, seed=0)
    data, _ = build_iso_pool(dataclasses.replace(spec, verify_ground_truth=False), seed=0)
    assert data.num_nodes == 96


def test_iso_pool_checks_the_non_iso_pair_once_per_call(monkeypatch):
    calls = {"brute_force_isomorphic": 0, "gwl_test": 0}

    def counted(name):
        real = getattr(experiments, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(experiments, name, counted(name))
    spec = IsoPoolSpec(num_pairs=8, feature_dim=4)
    for _ in range(2):
        _, pairs = build_iso_pool(spec, seed=0)
        # iso pairs are certified by their permutations and refined once per
        # base family; the non-iso pair is searched and refined once
        assert calls == {"brute_force_isomorphic": 1, "gwl_test": 3}
        assert all(p.verdict is Verdict.POSSIBLY_ISOMORPHIC for p in pairs)
        calls.update(brute_force_isomorphic=0, gwl_test=0)


# sha256 of each array's bytes for build_iso_pool(IsoPoolSpec(num_pairs=200), seed),
# the pool the benchmark trains on.
ISO_POOL_DIGESTS = {
    0: {
        "members": "a395c311f98b4dc22c7dac0dde2bde0476dff57ad864ac4f438b557d6f3fab63",
        "features": "3787af02494a0c4f2adf0c354f5ca852e44672384a8ffb44ee5a9691f1b96bc2",
        "labels": "5248a3c45060b228e1ef3d82ad163211ad9f113d269d9993f7174cd1c6cd83e5",
        "train_mask": "f87a01d0e62f4b9092f67585f497ffd3d119389f2c446e078493a1b8182fd58f",
        "val_mask": "1d2120fc8c03ccd2df798a28e62b25d113b76f8b2611c374cd0b898fe333f083",
        "test_mask": "c187e1dd696b7b01954825a15bb4a4bfd557bdc32bdd3c924974e69bfdbe1b4e",
    },
    1: {
        "members": "e19b3186d4a3f9b1dc1e3cced4ec83b2f72f1bc3451d85d5e49e118cfaca246e",
        "features": "a4f9d8b3cec8a4b036a141fd7fde23aa06f81c008d8cb756c8dbb27365f39cf7",
        "labels": "5248a3c45060b228e1ef3d82ad163211ad9f113d269d9993f7174cd1c6cd83e5",
        "train_mask": "864b3e5c92dded86b0167d15efe1b6213ea8758a8412beaa11af1573ec598b8c",
        "val_mask": "e99a74c1c3e6657b3b8ec6334dc66262e26473731474100ba59f1aed09923003",
        "test_mask": "2b7f1ed964ffcd860c4807b64ea9f95b0c2fcc3813ee36ef4cef65b9ed90719d",
    },
}


@pytest.mark.parametrize("seed", sorted(ISO_POOL_DIGESTS))
def test_benchmark_iso_pool_matches_its_frozen_digests(seed):
    data, pairs = build_iso_pool(IsoPoolSpec(num_pairs=200), seed)
    arrays = {
        "members": data.hypergraph.members,
        "features": data.features,
        "labels": data.labels,
        "train_mask": data.train_mask,
        "val_mask": data.val_mask,
        "test_mask": data.test_mask,
    }
    got = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
    assert got == ISO_POOL_DIGESTS[seed]
    assert all(p.verdict is Verdict.POSSIBLY_ISOMORPHIC for p in pairs)


# The same digests for a pool whose cycle families have 7 nodes (3 + 4), at
# an odd pair count, as the pair-by-pair shuffles of earlier code gave them.
ODD_POOL_DIGESTS = {
    0: {
        "members": "a0222862117da9acc9eeaab21e8ed25b74c9966d20590af8f51543224e3f1289",
        "features": "5aae30e1518f4244976066613d56904f95757a02e3990f73bd8d5f72843c0e1d",
        "labels": "1977430289de9ec36bf9c838bd3e0e17d769dbbb4db4b42b33f20d811853d65d",
        "train_mask": "fd2059b972281b6250fcedee0bf2d16c03bb85cd51dac3b8b4c7d9b37303d500",
        "val_mask": "a6a5ebbc768516ad7ab2fe16e8d48b3d4609c574630d2b9d937cc5db83d9b9e8",
        "test_mask": "78efb2c4049a235a01719d443f3346eb58b412959dcce18f9a714786639b30bb",
    },
    1: {
        "members": "34bcad7901a37d60db1fec4f942f588aa10c89027cdcbcc900a9a34725bf9b21",
        "features": "bfd7b258ccca8a93482b648b4cd5f72ada5aa9124329e31ffe42fcf296654c43",
        "labels": "1977430289de9ec36bf9c838bd3e0e17d769dbbb4db4b42b33f20d811853d65d",
        "train_mask": "62e5e5529afcd6dbbce0519ed459433ae4ff984abd88391d11166b8765bdf578",
        "val_mask": "75458002b981aade5613a38bb325a587f063e8c90a982e562e3d24d3e1b4c73d",
        "test_mask": "082d4a216fa4e0ef41961a0d2ee63b94f5a532a70fa510d04447bc61d95a46a0",
    },
}


@pytest.mark.parametrize("seed", sorted(ODD_POOL_DIGESTS))
def test_odd_sized_iso_pool_matches_its_frozen_digests(seed):
    data, _ = build_iso_pool(IsoPoolSpec(num_pairs=7, split_a=3, split_b=4), seed)
    arrays = {
        "members": data.hypergraph.members,
        "features": data.features,
        "labels": data.labels,
        "train_mask": data.train_mask,
        "val_mask": data.val_mask,
        "test_mask": data.test_mask,
    }
    got = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
    assert got == ODD_POOL_DIGESTS[seed]


def test_iso_pool_forms_no_edge_tuples():
    data, _ = build_iso_pool(IsoPoolSpec(num_pairs=6, feature_dim=4), 0)
    assert "edges" not in data.hypergraph.__dict__


def test_iso_experiment_summary_keys():
    spec = IsoPoolSpec(num_pairs=4, feature_dim=4)
    result = iso_experiment(spec, seed=1, base_config=tiny_config(dataset=None))
    assert result["num_pairs"] == 4
    assert result["num_nodes"] == 80
    assert result["positive_pairs"] == 2
    assert result["verdicts"]["POSSIBLY_ISOMORPHIC"] == 4
    assert set(result["dphgnn"]) == {"train", "val", "test"}
    assert result["test_accuracy_gap"] == pytest.approx(
        result["dphgnn"]["test"]["mean_accuracy"]
        - result["hgnn"]["test"]["mean_accuracy"]
    )


def test_time_forward_returns_positive_medians():
    out = time_forward(30, (12, 24), feature_dim=4, hidden=8, repeats=2)
    assert sorted(out) == [12, 24]
    assert all(v > 0 for v in out.values())


def test_time_forward_rejects_uncoverable():
    with pytest.raises(InfeasibleSpecError):
        time_forward(30, (5,), feature_dim=4, hidden=8)  # 30 nodes need 10 edges


@pytest.mark.parametrize("spec", [IsoPoolSpec(num_pairs=6), IsoPoolSpec(num_pairs=7, split_a=3, split_b=4)])
def test_pooled_hypergraph_is_the_built_hypergraph_of_the_shifted_sides(spec):
    from dphgnn.hypergraph import build_hypergraph

    data, pairs = build_iso_pool(spec, 5)
    shifted = [
        tuple(v + pair.node_offset + start for v in edge)
        for pair in pairs
        for side, start in ((pair.left, 0), (pair.right, pair.left.num_nodes))
        for edge in side.edges
    ]
    want = build_hypergraph(sum(pair.num_nodes for pair in pairs), shifted)
    got = data.hypergraph
    assert got.num_nodes == want.num_nodes and got.edges == want.edges
    assert all(type(v) is int for edge in got.edges for v in edge)
    for name in ("node_degrees", "edge_degrees", "members"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

"""Hypergraph container, incidence, density, dataset files."""

import json

import numpy as np
import pytest

from conftest import reference_build_hypergraph
from dphgnn.errors import (
    DphgnnError,
    DuplicateMemberError,
    EmptyEdgeError,
    MaskOverlapError,
    NodeIdOutOfRangeError,
    NoEdgesError,
    ParseError,
    ShapeMismatchError,
)
from dphgnn.hypergraph import (
    LabeledHypergraph,
    build_hypergraph,
    density_stats,
    ensure_min_degree,
    incidence,
    load_dataset,
    relabel_nodes,
    save_dataset,
)
from dphgnn.sparse import SparseMatrix


def test_degrees_on_running_example(spec_example):
    np.testing.assert_array_equal(spec_example.node_degrees, [1, 1, 2, 1])
    np.testing.assert_array_equal(spec_example.edge_degrees, [3, 2])


def test_degree_sums_agree(spec_example):
    assert spec_example.node_degrees.sum() == spec_example.edge_degrees.sum()


def test_singleton_hypergraph():
    hg = build_hypergraph(1, [(0,)])
    np.testing.assert_array_equal(hg.node_degrees, [1])
    np.testing.assert_array_equal(hg.edge_degrees, [1])


def test_build_validation():
    with pytest.raises(NodeIdOutOfRangeError):
        build_hypergraph(3, [(0, 3)])
    with pytest.raises(EmptyEdgeError):
        build_hypergraph(3, [()])
    with pytest.raises(DuplicateMemberError):
        build_hypergraph(3, [(1, 1)])


HUGE = 2**70  # beyond int64


@pytest.mark.parametrize(
    "num_nodes, edges, error, message",
    [
        (3, [(5, -1)], NodeIdOutOfRangeError, "edge 0 refers to node 5, but num_nodes=3"),
        (3, [(0, 1), (1, 9, 1)], DuplicateMemberError, "edge 1 repeats a member"),
        (3, [(0,), (), (1, 1)], EmptyEdgeError, "edge 1 is empty"),
        (3, [(0,), (4, 0), ()], NodeIdOutOfRangeError, "edge 1 refers to node 4, but num_nodes=3"),
        (3, [(2, HUGE, 1)], NodeIdOutOfRangeError, f"edge 0 refers to node {HUGE}, but num_nodes=3"),
        (3, [(1,), (HUGE, -1, HUGE)], DuplicateMemberError, "edge 1 repeats a member"),
        (0, [(0,)], NodeIdOutOfRangeError, "edge 0 refers to node 0, but num_nodes=0"),
        (-1, [], NodeIdOutOfRangeError, "num_nodes must be non-negative"),
    ],
    ids=["input_order", "duplicate_and_out_of_range", "empty_before_later_faults",
         "range_before_later_empty", "beyond_int64", "duplicate_beyond_int64", "no_nodes",
         "negative_count"],
)
def test_build_errors_name_the_first_bad_edge(num_nodes, edges, error, message):
    for build in (build_hypergraph, reference_build_hypergraph):
        with pytest.raises(error) as info:
            build(num_nodes, edges)
        assert str(info.value) == message


def _random_edge_input(rng):
    """(n, factory): fresh edges on n nodes in mixed forms on every call, some bad."""
    n = int(rng.integers(0, 7))
    edges = []
    for _ in range(int(rng.integers(0, 6))):
        size = int(rng.integers(1, 5))
        edge = [int(v) for v in rng.permutation(max(n, size))[:size]]  # unsorted
        fault = rng.random()
        if fault < 0.05:
            edge = []
        elif fault < 0.10:
            edge.insert(int(rng.integers(0, size + 1)), edge[0])
        elif fault < 0.15:
            edge[int(rng.integers(0, size))] = int(rng.choice([-1, -7, n, n + 3, HUGE]))
        edges.append(edge)
    kinds = [(list, int), (tuple, np.int64), (tuple, np.int32), (list, int), (np.array, int)]
    forms = [kinds[int(rng.integers(0, len(kinds)))] for _ in edges]
    outer = int(rng.integers(0, 3))

    def factory():
        rows = [box([cast(v) if abs(v) < 2**31 else v for v in e]) for e, (box, cast) in zip(edges, forms)]
        return (list, tuple, iter)[outer](rows)

    return n, factory


def _outcome(build, num_nodes, edges):
    try:
        return build(num_nodes, edges)
    except DphgnnError as exc:
        return type(exc), str(exc)


def test_build_hypergraph_matches_the_per_edge_loop():
    rng = np.random.default_rng(0)
    faults = 0
    for _ in range(3000):
        n, factory = _random_edge_input(rng)
        want = _outcome(reference_build_hypergraph, n, factory())
        got = _outcome(build_hypergraph, n, factory())
        if isinstance(want[0], type):
            faults += 1
            assert got == want
            continue
        assert got.num_nodes == n
        assert got.edges == want[0]
        assert all(type(v) is int for e in got.edges for v in e)
        for array, expected in zip((got.node_degrees, got.edge_degrees, got.members), want[1:]):
            np.testing.assert_array_equal(array, expected)
            assert array.dtype == expected.dtype == np.int64
    assert 500 < faults < 2500  # both outcomes are exercised


@pytest.mark.parametrize(
    "hyperedges", [[5], [[0, "x"]], [[0, 1], "ab"], [[None]]],
    ids=["edge_not_a_list", "non_numeric_member", "string_edge", "null_member"],
)
def test_load_dataset_rejects_unconvertible_edges(tmp_path, hyperedges):
    path = tmp_path / "bad.json"
    save_dataset(_sparse_dataset(), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "hyperedges": hyperedges}))
    with pytest.raises(ParseError):
        load_dataset(path)


def test_members_stored_sorted():
    hg = build_hypergraph(5, [(3, 0, 4)])
    assert hg.edges[0] == (0, 3, 4)


def test_incidence_matches_membership(spec_example):
    np.testing.assert_array_equal(
        incidence(spec_example).to_dense(),
        [[1, 0], [1, 0], [1, 1], [0, 1]],
    )


def test_incidence_edgeless():
    hg = build_hypergraph(3, [])
    assert incidence(hg).to_dense().shape == (3, 0)


def test_incidence_single_covering_edge():
    hg = build_hypergraph(4, [(0, 1, 2, 3)])
    np.testing.assert_array_equal(incidence(hg).to_dense(), np.ones((4, 1)))


def test_density_examples(spec_example):
    assert density_stats(spec_example) == (1.0, 2.5)
    assert density_stats(build_hypergraph(2, [(0, 1)])) == (1.0, 2.0)
    # 4-uniform with m = n/4 edges: mean edge size exactly 4
    hg = build_hypergraph(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert density_stats(hg)[1] == 4.0
    with pytest.raises(NoEdgesError):
        density_stats(build_hypergraph(2, []))


def test_relabel_preserves_structure(spec_example):
    perm = np.array([2, 0, 3, 1])  # new id of node v is perm[v]
    relabeled = relabel_nodes(spec_example, perm)
    assert relabeled.num_nodes == 4
    assert sorted(relabeled.edge_multiset()) == sorted(
        [tuple(sorted(perm[list(e)])) for e in spec_example.edges]
    )


def test_ensure_min_degree():
    hg = build_hypergraph(4, [(0, 1)])
    patched = ensure_min_degree(hg)
    assert patched.num_edges == 3
    assert (2,) in patched.edges and (3,) in patched.edges
    assert ensure_min_degree(patched) is patched


def _edge_lists(rng, num_nodes: int) -> list[tuple[int, ...]]:
    """Random edges in random member order over all but the last two nodes,
    singletons included, with one edge repeated (members reordered) later on."""
    core = num_nodes - 2
    edges = [tuple(rng.choice(core, size=int(rng.integers(1, 6)), replace=False).tolist())
             for _ in range(int(rng.integers(5, 30)))]
    edges.insert(int(rng.integers(1, len(edges) + 1)), edges[0][::-1])
    return edges


def assert_same_hypergraph(got, want):
    assert got.num_nodes == want.num_nodes and got.edges == want.edges
    for name in ("node_degrees", "edge_degrees", "members"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert a.dtype == b.dtype == np.int64


@pytest.mark.parametrize("seed", range(6))
def test_edges_are_the_sorted_member_tuples_formed_on_first_read(seed):
    rng = np.random.default_rng(seed)
    edges = _edge_lists(rng, 25)
    hg = build_hypergraph(25, edges)
    assert hg.num_edges == len(edges)
    assert "edges" not in hg.__dict__  # the counts read the arrays alone
    assert hg.edges == tuple(tuple(sorted(e)) for e in edges)
    assert all(type(v) is int for e in hg.edges for v in e)
    assert hg.edges is hg.edges


@pytest.mark.parametrize("seed", range(6))
def test_relabel_and_min_degree_equal_the_built_tuple_form(seed):
    rng = np.random.default_rng(seed)
    edges = _edge_lists(rng, 25)
    hg = build_hypergraph(25, edges)
    perm = rng.permutation(25)
    assert_same_hypergraph(
        relabel_nodes(hg, perm), build_hypergraph(25, [[perm[v] for v in e] for e in edges])
    )
    isolated = [v for v in range(25) if v not in set().union(*edges)]
    assert isolated[-2:] == [23, 24]
    assert_same_hypergraph(
        ensure_min_degree(hg), build_hypergraph(25, edges + [(v,) for v in isolated])
    )


def _tiny_dataset() -> LabeledHypergraph:
    return LabeledHypergraph(
        hypergraph=build_hypergraph(2, [(0, 1)]),
        features=np.array([[0.25], [1.0 / 3.0]]),
        labels=np.array([0, 1]),
        train_mask=np.array([True, False]),
        val_mask=np.array([False, False]),
        test_mask=np.array([False, True]),
        num_classes=2,
    )


def test_dataset_round_trip_bit_identical(tmp_path):
    path = tmp_path / "d.json"
    data = _tiny_dataset()
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded.features.tolist() == data.features.tolist()
    assert loaded.labels.tolist() == data.labels.tolist()
    assert loaded.hypergraph.edges == data.hypergraph.edges
    assert loaded.num_classes == 2
    save_dataset(loaded, tmp_path / "d2.json")
    assert (tmp_path / "d.json").read_text() == (tmp_path / "d2.json").read_text()


def test_dataset_mask_overlap_rejected():
    with pytest.raises(MaskOverlapError):
        LabeledHypergraph(
            hypergraph=build_hypergraph(2, [(0, 1)]),
            features=np.eye(2),
            labels=np.array([0, 1]),
            train_mask=np.array([True, True]),
            val_mask=np.array([False, True]),
            test_mask=np.array([False, False]),
            num_classes=2,
        )


def test_dataset_label_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    data = _tiny_dataset()
    save_dataset(data, path)
    payload = json.loads(path.read_text())
    payload["labels"] = [0, payload["num_classes"]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_dataset(path)


@pytest.mark.parametrize(
    "patch",
    [
        {"labels": [0, 1.9]},           # was truncated to [0, 1]
        {"num_classes": 2.7},           # was truncated to 2
        {"features": [[None], [1]]},    # null was read as NaN
        {"train_mask": [2, None]},      # was read as [True, False]
        {"test_mask": [0, 0.5]},        # was read as [False, True]
        {"hyperedges": [[0, 1.5]]},     # was read as node 1
        {"hyperedges": [[0, True]]},    # was read as node 1
        {"hyperedges": [["0", 1]]},     # was read as node 0
        {"hyperedges": [[0, None]]},    # raised a bare TypeError
        {"hyperedges": [5]},            # an edge that is no list
        {"num_nodes": 2.7},             # was truncated to 2
        {"num_nodes": "2"},             # was read as 2
    ],
    ids=["fractional_label", "fractional_num_classes", "null_feature", "numeric_train_mask",
         "fractional_test_mask", "fractional_member", "bool_member", "string_member",
         "null_member", "scalar_edge", "fractional_num_nodes", "string_num_nodes"],
)
def test_dataset_numbers_are_not_coerced(tmp_path, patch):
    path = tmp_path / "bad.json"
    save_dataset(_tiny_dataset(), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, **patch}))
    with pytest.raises(ParseError):
        load_dataset(path)


def test_dataset_feature_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        LabeledHypergraph(
            hypergraph=build_hypergraph(2, [(0, 1)]),
            features=np.eye(3),
            labels=np.array([0, 1]),
            train_mask=np.array([True, False]),
            val_mask=np.array([False, False]),
            test_mask=np.array([False, True]),
            num_classes=2,
        )


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_dataset(path)


def _sparse_dataset() -> LabeledHypergraph:
    # Row 0 holds one entry, row 1 two, row 2 none.
    dense = np.array([[0.0, 0.25, 0.0], [1.0 / 3.0, 0.0, -2.5], [0.0, 0.0, 0.0]])
    return LabeledHypergraph(
        hypergraph=build_hypergraph(3, [(0, 1), (1, 2)]),
        features=SparseMatrix.from_dense(dense),
        labels=np.array([0, 1, 1]),
        train_mask=np.array([True, False, False]),
        val_mask=np.array([False, True, False]),
        test_mask=np.array([False, False, True]),
        num_classes=2,
    )


def test_sparse_dataset_round_trip_bit_identical(tmp_path):
    path = tmp_path / "d.json"
    data = _sparse_dataset()
    save_dataset(data, path)
    payload = json.loads(path.read_text())
    assert "features" not in payload
    assert payload["features_csr"] == {
        "shape": [3, 3], "indptr": [0, 1, 3, 3], "indices": [1, 0, 2],
        "data": [0.25, 1.0 / 3.0, -2.5],
    }
    loaded = load_dataset(path)
    assert isinstance(loaded.features, SparseMatrix)
    assert loaded.features.shape == (3, 3)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(loaded.features, name), getattr(data.features, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    save_dataset(loaded, tmp_path / "d2.json")
    assert path.read_text() == (tmp_path / "d2.json").read_text()


@pytest.mark.parametrize(
    "patch",
    [
        {"indptr": [0, 1, 3]},                     # not rows + 1 offsets
        {"indptr": [0, 1, 3, 4]},                  # does not end at nnz
        {"indptr": [0, 2, 1, 3]},                  # not monotone
        {"data": [0.25, 1.0 / 3.0]},               # fewer values than indices
        {"indices": [1, 0, 3]},                    # column out of range
        {"indices": [1, -1, 2]},                   # negative column
        {"indices": [1, 2, 0]},                    # columns not increasing in a row
        {"data": [0.25, 0.0, -2.5]},               # explicit zero
        {"indices": [1.0, 0.0, 2.0]},              # not integers
        {"data": [[0.25], [1.0], [-2.5]]},         # not flat
        {"data": ["0.25", "1", "-2.5"]},           # not numbers
        {"indices": [[1], [0, 2]]},                # ragged
        {"shape": [3]},                            # shape needs two integers
        {"shape": [3, -1]},                        # negative width
        {"shape": None},
        {"extra": []},                             # unknown key
    ],
)
def test_malformed_features_csr_raises_parse_error(tmp_path, patch):
    path = tmp_path / "bad.json"
    save_dataset(_sparse_dataset(), path)
    payload = json.loads(path.read_text())
    payload["features_csr"].update(patch)
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_dataset(path)


def test_features_csr_must_be_an_object_with_every_key(tmp_path):
    path = tmp_path / "bad.json"
    save_dataset(_sparse_dataset(), path)
    payload = json.loads(path.read_text())
    for form in ([1, 2], {k: v for k, v in payload["features_csr"].items() if k != "data"}):
        path.write_text(json.dumps({**payload, "features_csr": form}))
        with pytest.raises(ParseError):
            load_dataset(path)


def test_dataset_needs_exactly_one_feature_form(tmp_path):
    path = tmp_path / "bad.json"
    save_dataset(_sparse_dataset(), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "features": np.zeros((3, 3)).tolist()}))
    with pytest.raises(ParseError, match="exactly one"):
        load_dataset(path)
    del payload["features_csr"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="exactly one"):
        load_dataset(path)


def test_csr_features_of_the_wrong_shape_rejected(tmp_path):
    with pytest.raises(ShapeMismatchError):
        LabeledHypergraph(
            hypergraph=build_hypergraph(2, [(0, 1)]),
            features=SparseMatrix.identity(3),
            labels=np.array([0, 1]),
            train_mask=np.array([True, False]),
            val_mask=np.array([False, False]),
            test_mask=np.array([False, True]),
            num_classes=2,
        )
    # A well-formed CSR whose row count disagrees with num_nodes.
    path = tmp_path / "rows.json"
    save_dataset(_sparse_dataset(), path)
    payload = json.loads(path.read_text())
    payload["features_csr"] = {"shape": [2, 2], "indptr": [0, 1, 2], "indices": [0, 1],
                               "data": [1.0, 1.0]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ShapeMismatchError):
        load_dataset(path)

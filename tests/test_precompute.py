"""Structure bundle assembly and the content-addressed disk cache."""

import dataclasses
import hashlib
import importlib.util
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import dphgnn.autodiff as autodiff
import dphgnn.experiments as experiments
import dphgnn.precompute as precompute
from conftest import (
    dense_clique_laplacian,
    dense_incidence,
    dense_prop_clique,
    dense_smoothing,
    row_slice,
)
from dphgnn.attention import UpdateVariant, attention_pattern, propagation_matrix
from dphgnn.errors import IsolatedNodeError, ParseError
from dphgnn.expand import clique_expand, hypergcn_expand, star_expand
from dphgnn.experiments import IsoPoolSpec, build_iso_pool, time_forward
from dphgnn.hypergraph import build_hypergraph, cooccurrence, ensure_min_degree, relabel_nodes
from dphgnn.model import dphgnn_forward, init_dphgnn
from dphgnn.precompute import (
    StructureBundle,
    build_structure,
    content_hash,
    load_or_build,
    save_structure,
)
from dphgnn.sparse import EdgeBlocks, FactoredOperator, SparseMatrix
from dphgnn.spectral import (
    LaplacianSet,
    build_laplacians,
    graph_laplacian,
    laplacian_rw,
    laplacian_sym,
)
from dphgnn.synthetic import TwoCommunitySpec, generate_synthetic
from dphgnn.train import RunConfig, train

# The operators a bundle may hold in factored form, by their attribute path.
FACTORABLE = ("laplacians.smoothing", "laplacians.clique", "prop_clique")


def getattr_path(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def forms(bundle: StructureBundle) -> dict[str, str]:
    return {path: type(getattr_path(bundle, path)).__name__ for path in FACTORABLE}


def test_bundle_operators_match_dense(spec_example):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((4, 3))
    bundle = build_structure(spec_example, features)

    H = dense_incidence(spec_example)
    dv = H.sum(axis=1)
    de = H.sum(axis=0)
    np.testing.assert_allclose(
        bundle.edge_from_node.to_dense(), H.T @ np.diag(1 / np.sqrt(dv)), atol=1e-12
    )
    np.testing.assert_allclose(
        bundle.node_from_edge.to_dense(), H @ np.diag(1 / de), atol=1e-12
    )
    # The star step's supernode rows: each supernode averages its members.
    a_star = star_expand(spec_example).adjacency.to_dense()
    np.testing.assert_array_equal(a_star[4:, 4:], 0.0)
    np.testing.assert_allclose(
        bundle.node_from_edge.T.to_dense(), np.diag(1 / de) @ a_star[4:, :4], atol=1e-12
    )

    expected = (H @ H.T != 0).astype(float)  # shares an edge with, or is, the node
    np.testing.assert_array_equal(bundle.attention_pattern.to_dense(), expected)
    # nodes 0 and 3 share no hyperedge
    assert expected[0, 3] == 0.0


def test_content_hash_sensitivity(spec_example):
    features = np.ones((4, 2))
    base = content_hash(spec_example, features)
    assert base == content_hash(spec_example, np.ones((4, 2)))
    assert base != content_hash(spec_example, np.zeros((4, 2)))
    other = build_hypergraph(4, [(0, 1, 2), (1, 3)])
    assert base != content_hash(other, features)


def test_content_hash_separates_edges_with_the_same_flat_members():
    features = np.ones((3, 2))
    a = build_hypergraph(3, [(0, 1), (2,)])
    b = build_hypergraph(3, [(0,), (1, 2)])
    assert np.array_equal(a.members, b.members)
    assert content_hash(a, features) != content_hash(b, features)


def test_content_hash_of_csr_features(spec_example):
    eye = SparseMatrix.identity(4)
    base = content_hash(spec_example, eye)
    assert base == content_hash(spec_example, SparseMatrix.identity(4))
    # The same values dense, and the same pattern with other values, hash apart.
    assert base != content_hash(spec_example, np.eye(4))
    assert base != content_hash(spec_example, eye.scale(2.0))
    # Same indptr, indices and data under another width.
    wider = SparseMatrix(4, 5, eye.indptr, eye.indices, eye.data)
    assert base != content_hash(spec_example, wider)


def test_csr_features_cache_round_trip_and_match_the_dense_bundle(tmp_path):
    data = generate_synthetic(TwoCommunitySpec(num_nodes=40, num_edges=20, edge_size=5), seed=1)
    hg = ensure_min_degree(data.hypergraph)
    assert isinstance(data.features, SparseMatrix)
    missed = load_or_build(hg, data.features, cache_dir=tmp_path)
    [path] = tmp_path.glob("structure-*.npz")
    assert path.name == f"structure-{content_hash(hg, data.features)}.npz"
    assert_bundles_equal(missed, load_or_build(hg, data.features, cache_dir=tmp_path))
    # One-hot rows give every operator of the dense-identity build, bit for bit.
    assert bundle_digest(missed, data.features) == bundle_digest(
        build_structure(hg, np.eye(40)), np.eye(40)
    )


def expansions(bundle: StructureBundle, features):
    """The clique, star and distance-pair graphs the bundle was built from."""
    hg = bundle.hypergraph
    return clique_expand(hg), star_expand(hg), hypergcn_expand(hg, features)


def reference_operators(bundle: StructureBundle, features) -> dict[str, SparseMatrix]:
    """The CSR forms that build_laplacians and propagation_matrix give.

    The star Laplacian has all n + m rows, of which a bundle keeps the n
    node rows. ``prop_star`` and ``super_gather`` (D_e^{-1} times the star
    adjacency's supernode rows) are the star operators bundles held before
    the star step read H directly, and ``rw_plus_sym`` is the sum of the
    random-walk and symmetric Laplacians they held before the identifier
    block read the hyperedge mean.
    """
    hg = bundle.hypergraph
    clique, star, hyper = expansions(bundle, features)
    laps = build_laplacians(hg, clique, star, hyper)
    super_rows = row_slice(star.adjacency, hg.num_nodes, hg.num_nodes + hg.num_edges)
    return {
        "laplacians.smoothing": laps.smoothing,
        "laplacians.rw_plus_sym": laplacian_rw(hg).add(laplacian_sym(hg)),
        "laplacians.clique": laps.clique,
        "laplacians.star": laps.star,
        "prop_clique": propagation_matrix(clique, UpdateVariant.RESIDUAL_RW),
        "prop_star": propagation_matrix(star, UpdateVariant.RESIDUAL_RW),
        "super_gather": super_rows.scale_rows(1.0 / hg.edge_degrees.astype(np.float64)),
    }


def bundle_digest(bundle: StructureBundle, features) -> str:
    """sha256 over the shape, indptr, indices and data of every operator, then the degrees.

    The expansion graphs, which the bundle does not keep, are rebuilt from
    its hypergraph and ``features`` and digested first, and so are
    ``rw_plus_sym``, ``prop_star`` and ``super_gather``. A factored
    operator, and the star Laplacian's node rows, are digested as their CSR
    reference (:func:`reference_operators`), which
    test_bundle_operators_match_their_csr_reference compares with the
    bundle's own form.
    """
    graphs = expansions(bundle, features)
    reference = reference_operators(bundle, features)

    def csr(path):
        op = getattr_path(bundle, path)
        return op if isinstance(op, SparseMatrix) else reference[path]

    operators = (
        *(graph.adjacency for graph in graphs),
        csr("laplacians.smoothing"), csr("laplacians.clique"), reference["laplacians.star"],
        bundle.laplacians.hypergcn, reference["laplacians.rw_plus_sym"],
        csr("prop_clique"), reference["prop_star"], bundle.prop_hypergcn,
        bundle.attention_pattern, bundle.edge_from_node, reference["super_gather"],
        bundle.node_from_edge,
    )
    digest = hashlib.sha256()
    for mat in operators:
        for array in (np.array(mat.shape, dtype=np.int64), mat.indptr, mat.indices, mat.data):
            digest.update(np.ascontiguousarray(array).tobytes())
    for graph in graphs:
        digest.update(np.ascontiguousarray(graph.degrees).tobytes())
    return digest.hexdigest()


# Digests of the bundles built by the dict-and-lexsort construction this
# module replaced, on an iso pool of 10 pairs and a two_community instance
# (120 nodes, 60 edges of size 8), both at seed 0.
@pytest.mark.parametrize(
    "make_data, expected",
    [
        (
            lambda: build_iso_pool(IsoPoolSpec(num_pairs=10), 0)[0],
            "4b61ecaf073716221e8c2a35e56ff77d14e0f99fda3e8190857b64672a8c4e57",
        ),
        (
            lambda: generate_synthetic(
                TwoCommunitySpec(num_nodes=120, num_edges=60, edge_size=8), 0
            ),
            "b04e242716fb05bbfc39115d9d703a429deefe6a061af547dbce17fbeebe9de7",
        ),
    ],
    ids=["iso_pool", "two_community"],
)
def test_bundle_operators_frozen_digest(make_data, expected):
    data = make_data()
    bundle = build_structure(ensure_min_degree(data.hypergraph), data.features)
    assert bundle_digest(bundle, data.features) == expected


def _wide_edges():
    return generate_synthetic(TwoCommunitySpec(num_nodes=120, num_edges=60, edge_size=8), 0)


def assert_close_relative(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize(
    "make_data",
    [
        lambda: build_iso_pool(IsoPoolSpec(num_pairs=10), 0)[0],
        _wide_edges,
        lambda: generate_synthetic(TwoCommunitySpec(num_nodes=40, num_edges=20, edge_size=5), 1),
    ],
    ids=["iso_pool", "two_community", "two_community_small"],
)
def test_bundle_operators_match_their_csr_reference(make_data):
    data = make_data()
    bundle = build_structure(ensure_min_degree(data.hypergraph), data.features)
    reference = reference_operators(bundle, data.features)
    x = np.random.default_rng(0).standard_normal((data.num_nodes, 5))
    for path in FACTORABLE:
        op, csr = getattr_path(bundle, path), reference[path]
        if isinstance(op, SparseMatrix):
            for got, want in zip(operator_arrays(op), operator_arrays(csr), strict=True):
                np.testing.assert_array_equal(got, want, err_msg=path)
        else:
            assert_close_relative(op.matmul_dense(x), csr.matmul_dense(x))
            assert_close_relative(op.transpose().matmul_dense(x), csr.transpose().matmul_dense(x))
    node_rows = row_slice(reference["laplacians.star"], 0, data.num_nodes)
    for got, want in zip(
        operator_arrays(bundle.laplacians.star), operator_arrays(node_rows), strict=True
    ):
        np.testing.assert_array_equal(got, want)
    # The fusion gather reads node_from_edge^T: super_gather without its
    # supernode columns, which hold no entry.
    gather, old = bundle.node_from_edge.T, reference["super_gather"]
    assert gather.shape == (old.rows, data.num_nodes) and old.indices.max() < data.num_nodes
    for got, want in zip(operator_arrays(gather)[1:], operator_arrays(old)[1:], strict=True):
        np.testing.assert_array_equal(got, want)


def hypergraph_with_shared_pairs(rng, n: int):
    """Random edges over all but the last three nodes, which lie in singleton edges only.

    The first edge is repeated, so its member pairs share at least two edges.
    """
    core = n - 3
    edges = [tuple(rng.choice(core, size=int(rng.integers(2, 6)), replace=False))
             for _ in range(core)]
    edges += [edges[0]] + [(v,) for v in range(core, n)]
    return ensure_min_degree(build_hypergraph(n, edges))


@pytest.mark.parametrize("seed", range(4))
def test_factored_operators_match_the_dense_oracles(seed, monkeypatch):
    monkeypatch.setattr(precompute, "FACTORED_SHARE", np.inf)  # factor all three
    rng = np.random.default_rng(seed)
    hg = hypergraph_with_shared_pairs(rng, 30)
    shared = cooccurrence(hg).to_dense() - np.diag(hg.node_degrees)
    assert shared.max() >= 2 and np.count_nonzero(shared.sum(axis=1) == 0) >= 3
    bundle = build_structure(hg, rng.standard_normal((30, 3)))
    oracles = {
        "laplacians.smoothing": dense_smoothing(hg),
        "laplacians.clique": dense_clique_laplacian(hg),
        "prop_clique": dense_prop_clique(hg),
    }
    x = rng.standard_normal((30, 4))
    for path, dense in oracles.items():
        op = getattr_path(bundle, path)
        assert isinstance(op, FactoredOperator), path
        assert_close_relative(op.matmul_dense(x), dense @ x)
        assert_close_relative(op.transpose().matmul_dense(x), dense.T @ x)


@pytest.mark.parametrize("seed", range(3))
def test_csr_clique_pattern_operators_and_star_rows_equal_their_references(seed, monkeypatch):
    monkeypatch.setattr(precompute, "FACTORED_SHARE", 0.0)  # keep all three as CSR
    rng = np.random.default_rng(seed)
    hg = hypergraph_with_shared_pairs(rng, 30)
    features = rng.standard_normal((30, 3))
    bundle = build_structure(hg, features)
    clique, star, hyper = clique_expand(hg), star_expand(hg), hypergcn_expand(hg, features)
    assert np.count_nonzero(clique.degrees == 0) >= 3  # nodes in singleton edges only
    references = {
        "laplacians.clique": graph_laplacian(clique),
        "prop_clique": propagation_matrix(clique, UpdateVariant.RESIDUAL_RW),
        "attention_pattern": attention_pattern(clique.adjacency),
        "laplacians.star": row_slice(build_laplacians(hg, clique, star, hyper).star, 0, 30),
    }
    for path, want in references.items():
        got = getattr_path(bundle, path)
        assert isinstance(got, SparseMatrix), path
        for a, b in zip(operator_arrays(got), operator_arrays(want), strict=True):
            np.testing.assert_array_equal(a, b, err_msg=path)
            assert a.dtype == b.dtype, path
    # The attention pattern is H H^T's own pattern, index arrays and all.
    co = cooccurrence(hg)
    assert bundle.attention_pattern.indptr is co.indptr
    assert bundle.attention_pattern.indices is co.indices


def test_isolated_node_is_rejected_before_factoring():
    hg = build_hypergraph(10, [tuple(range(9))])  # node 9 lies in no edge
    with pytest.raises(IsolatedNodeError):
        build_structure(hg, np.ones((10, 2)))


def test_factored_form_is_chosen_by_stored_terms(monkeypatch):
    every_csr = dict.fromkeys(FACTORABLE, "SparseMatrix")
    iso, _ = build_iso_pool(IsoPoolSpec(num_pairs=10), 0)
    assert forms(build_structure(ensure_min_degree(iso.hypergraph), iso.features)) == every_csr
    # Size-8 edges on 120 nodes: the factors hold at most 0.57 of the CSR terms.
    data = _wide_edges()
    assert forms(build_structure(ensure_min_degree(data.hypergraph), data.features)) == (
        dict.fromkeys(FACTORABLE, "FactoredOperator")
    )
    # The wide_edges_train benchmark instance factors all three.
    data = generate_synthetic(TwoCommunitySpec(num_nodes=2000, num_edges=1000, edge_size=8), 0)
    assert set(forms(build_structure(ensure_min_degree(data.hypergraph), data.features))
               .values()) == {"FactoredOperator"}
    # The instances of acceptance check c10 keep every operator one CSR.
    built = []

    def recording_build(hg, features):
        built.append(build_structure(hg, features))
        return built[-1]

    monkeypatch.setattr(experiments, "build_structure", recording_build)
    time_forward(300, [100, 200, 400], repeats=1)
    assert [forms(bundle) for bundle in built] == [every_csr] * 3


def operator_arrays(op) -> list[np.ndarray]:
    """Shape and stored arrays of a CSR matrix, or of every term of a factored operator."""
    if isinstance(op, SparseMatrix):
        return [np.array(op.shape), op.indptr, op.indices, op.data]
    out = [np.array(op.shape)]
    for scale, chain in op.terms:
        out += [np.array([scale is None, len(chain)]), np.zeros(0) if scale is None else scale]
        for mat in chain:
            out += operator_arrays(mat)
    return out


def distinct_matrices(bundle: StructureBundle) -> list[SparseMatrix]:
    """Every matrix the bundle's operators are or hold as a factor, each object once."""
    laps = bundle.laplacians
    operators = [getattr(laps, f.name) for f in dataclasses.fields(LaplacianSet)] + [
        bundle.prop_clique, bundle.prop_hypergcn, bundle.attention_pattern,
        bundle.edge_from_node, bundle.node_from_edge,
    ]
    seen: dict[int, SparseMatrix] = {}
    for op in operators:
        chains = [chain for _, chain in op.terms] if isinstance(op, FactoredOperator) else [[op]]
        for mat in (mat for chain in chains for mat in chain):
            seen.setdefault(id(mat), mat)
    return list(seen.values())


def assert_bundles_equal(a: StructureBundle, b: StructureBundle):
    assert a.hypergraph.edges == b.hypergraph.edges
    for name in (
        "attention_pattern", "prop_clique", "prop_hypergcn", "edge_from_node", "node_from_edge",
        "laplacians.smoothing", "laplacians.clique", "laplacians.star",
        "laplacians.hypergcn",
    ):
        op_a, op_b = (getattr_path(bundle, name) for bundle in (a, b))
        assert type(op_a) is type(op_b), name
        for x, y in zip(operator_arrays(op_a), operator_arrays(op_b), strict=True):
            np.testing.assert_array_equal(x, y, err_msg=name)


def test_cache_round_trip(tmp_path, spec_example):
    rng = np.random.default_rng(1)
    features = rng.standard_normal((4, 3))
    first = load_or_build(spec_example, features, cache_dir=tmp_path)
    cached = list(tmp_path.glob("structure-*.npz"))
    assert len(cached) == 1
    assert cached[0].name == f"structure-{content_hash(spec_example, features)}.npz"
    second = load_or_build(spec_example, features, cache_dir=tmp_path)
    assert_bundles_equal(first, second)


def test_factored_bundle_cache_round_trip(tmp_path, monkeypatch):
    data = _wide_edges()
    hg = ensure_min_degree(data.hypergraph)
    missed = load_or_build(hg, data.features, cache_dir=tmp_path)
    assert "FactoredOperator" in forms(missed).values()
    [path] = tmp_path.glob("structure-*.npz")
    # Each distinct matrix is stored once, a factor shared between operators or
    # also a field among them: the six CSR operators and the factors H, H^T, C.
    assert len(distinct_matrices(missed)) == 9
    with np.load(path) as blob:
        assert len(blob["matrices"]) == 9

    def no_build(*args):
        raise AssertionError("a cache hit must not build")

    monkeypatch.setattr(precompute, "_build", no_build)
    hit = load_or_build(hg, data.features, cache_dir=tmp_path)
    assert_bundles_equal(missed, hit)
    assert bundle_digest(hit, data.features) == bundle_digest(missed, data.features)
    params = init_dphgnn(np.random.default_rng(2), data.num_features, 8, data.num_classes)
    data = dataclasses.replace(data, hypergraph=hg)
    np.testing.assert_array_equal(
        dphgnn_forward(data, params, structure=hit).logits.value,
        dphgnn_forward(data, params, structure=missed).logits.value,
    )


@pytest.mark.parametrize(
    "make_data",
    [lambda: build_iso_pool(IsoPoolSpec(num_pairs=10), 0)[0], _wide_edges],
    ids=["iso_pool", "two_community"],
)
def test_cache_file_holds_only_the_bundles_operators(tmp_path, make_data):
    data = make_data()
    hg = ensure_min_degree(data.hypergraph)
    bundle = load_or_build(hg, data.features, cache_dir=tmp_path)
    [path] = tmp_path.glob("structure-*.npz")
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    assert sorted(arrays) == sorted(precompute._MEMBERS)
    graph = np.concatenate(([hg.num_nodes, hg.num_edges], hg.edge_degrees, hg.members))
    np.testing.assert_array_equal(arrays["graph"], graph)
    # One operator index for each of the bundle's nine operators, the four
    # Laplacians and five other fields, with no expansion graph, prop_star,
    # super_gather or rw_plus_sym among them, and no edge-block layout: the
    # load rebuilds it from the hypergraph.
    assert len(dataclasses.fields(LaplacianSet)) + len(precompute._STORED) == 9
    assert [f.name for f in dataclasses.fields(StructureBundle)[2:]] == [
        *precompute._STORED, "attention_blocks"]
    assert set(arrays["terms"][:, 0].tolist()) == set(range(9))
    # The matrix table holds exactly the matrices those operators are made of.
    assert sorted(map(tuple, arrays["matrices"][:, :3].tolist())) == sorted(
        (mat.rows, mat.cols, mat.nnz) for mat in distinct_matrices(bundle)
    )


def test_unusable_cache_dir_raises_before_building(tmp_path, spec_example, monkeypatch):
    def no_build(*args):
        raise AssertionError("nothing may be built for an unusable cache directory")

    monkeypatch.setattr(precompute, "_build", no_build)
    taken = tmp_path / "taken"
    taken.write_text("")
    for cache_dir in (taken, taken / "below"):
        with pytest.raises(ParseError, match=str(cache_dir)):
            load_or_build(spec_example, np.ones((4, 2)), cache_dir=cache_dir)


def test_cache_file_of_format_v8_is_a_miss(tmp_path, spec_example, monkeypatch):
    features = np.ones((4, 2))
    monkeypatch.setattr(precompute, "CACHE_FORMAT_VERSION", 8)
    load_or_build(spec_example, features, cache_dir=tmp_path)
    [old] = tmp_path.glob("structure-*.npz")
    monkeypatch.undo()
    assert precompute.CACHE_FORMAT_VERSION == 9
    built, build = [], precompute._build
    monkeypatch.setattr(precompute, "_build", lambda *args: built.append(1) or build(*args))
    load_or_build(spec_example, features, cache_dir=tmp_path)
    assert built == [1]
    assert len(list(tmp_path.glob("structure-*.npz"))) == 2 and old.exists()


def test_load_or_build_hashes_once_on_a_miss_and_on_a_hit(tmp_path, spec_example, monkeypatch):
    calls = []

    def counting_hash(hg, features):
        calls.append(1)
        return content_hash(hg, features)

    monkeypatch.setattr(precompute, "content_hash", counting_hash)
    features = np.random.default_rng(4).standard_normal((4, 3))
    missed = load_or_build(spec_example, features, cache_dir=tmp_path)
    assert len(calls) == 1
    [path] = tmp_path.glob("structure-*.npz")
    assert path.name == f"structure-{content_hash(spec_example, features)}.npz"
    calls.clear()
    hit = load_or_build(spec_example, features, cache_dir=tmp_path)
    assert len(calls) == 1
    assert_bundles_equal(hit, missed)


def test_cached_bundle_gives_identical_logits(tmp_path):
    data = generate_synthetic(TwoCommunitySpec(num_nodes=20, num_edges=15), seed=3)
    params = init_dphgnn(np.random.default_rng(2), 20, 8, 2)
    fresh = build_structure(data.hypergraph, data.features)
    load_or_build(data.hypergraph, data.features, cache_dir=tmp_path)
    reloaded = load_or_build(data.hypergraph, data.features, cache_dir=tmp_path)
    a = dphgnn_forward(data, params, structure=fresh).logits.value
    b = dphgnn_forward(data, params, structure=reloaded).logits.value
    np.testing.assert_array_equal(a, b)


def test_cache_hit_reuses_the_callers_hypergraph(tmp_path, monkeypatch):
    data, _ = build_iso_pool(IsoPoolSpec(num_pairs=10), 0)
    hg = ensure_min_degree(data.hypergraph)
    fresh = build_structure(hg, data.features)
    load_or_build(hg, data.features, cache_dir=tmp_path)

    def no_build(*args):
        raise AssertionError("a cache hit must not build")

    monkeypatch.setattr(precompute, "_build", no_build)
    hit = load_or_build(hg, data.features, cache_dir=tmp_path)
    assert hit.hypergraph is hg
    # every operator, byte for byte
    assert bundle_digest(hit, data.features) == bundle_digest(fresh, data.features)
    # Operators with one pattern share its index arrays after a load.
    assert np.array_equal(hit.attention_pattern.indices, hit.laplacians.clique.indices)
    assert np.shares_memory(hit.attention_pattern.indices, hit.laplacians.clique.indices)
    params = init_dphgnn(np.random.default_rng(2), data.num_features, 8, data.num_classes)
    data = dataclasses.replace(data, hypergraph=hg)
    np.testing.assert_array_equal(
        dphgnn_forward(data, params, structure=hit).logits.value,
        dphgnn_forward(data, params, structure=fresh).logits.value,
    )


@pytest.mark.parametrize(
    "make_data",
    [
        lambda: build_iso_pool(IsoPoolSpec(num_pairs=200), 0)[0],
        lambda: generate_synthetic(
            TwoCommunitySpec(num_nodes=2000, num_edges=1000, edge_size=8), 0
        ),
    ],
    ids=["iso_pool_train", "wide_edges_train"],
)
def test_cache_file_stores_each_distinct_array_once(tmp_path, make_data):
    data = make_data()
    bundle = load_or_build(ensure_min_degree(data.hypergraph), data.features, cache_dir=tmp_path)
    [path] = tmp_path.glob("structure-*.npz")
    with np.load(path) as blob:
        ints, floats, matrices, terms = (blob[k] for k in ("ints", "floats", "matrices", "terms"))
    # (offset, length) of every stored index array, and of every value or scale array.
    int_spans = {(off, rows + 1) for rows, off in matrices[:, [0, 3]].tolist()}
    int_spans |= {(off, nnz) for nnz, off in matrices[:, [2, 4]].tolist()}
    float_spans = {(off, nnz) for nnz, off in matrices[:, [2, 5]].tolist() if off != -1}
    float_spans |= {(off, rows) for rows, off in terms[:, [1, 3]].tolist() if off != -1}
    for pool, spans in ((ints, int_spans), (floats, float_spans)):
        stored = [pool[off:off + k] for off, k in spans]
        assert len({a.tobytes() for a in stored}) == len(stored)   # no two are equal
        assert len(pool) == sum(map(len, stored))   # and the pool holds nothing else
    assert not any(len(v) and np.all(v == 1.0) for v in (floats[o:o + k] for o, k in float_spans))
    # H D_e^{-1} is a field and, on wide edges, a factor of the smoothing operator: stored once.
    nfe = bundle.node_from_edge
    same = [row for row in matrices.tolist()
            if row[:3] == [nfe.rows, nfe.cols, nfe.nnz]
            and np.array_equal(floats[row[5]:row[5] + nfe.nnz], nfe.data)]
    assert len(same) == 1


def test_no_cache_dir_builds_directly(spec_example):
    bundle = load_or_build(spec_example, np.ones((4, 2)), cache_dir=None)
    assert bundle.hypergraph is spec_example


def test_content_hash_carries_format_version(spec_example, monkeypatch):
    features = np.ones((4, 2))
    current = content_hash(spec_example, features)
    monkeypatch.setattr(precompute, "CACHE_FORMAT_VERSION", precompute.CACHE_FORMAT_VERSION + 1)
    assert content_hash(spec_example, features) != current


def test_failed_save_keeps_previous_file(tmp_path, spec_example, monkeypatch):
    bundle = build_structure(spec_example, np.ones((4, 2)))
    path = tmp_path / "bundle.npz"
    save_structure(bundle, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle.npz"]
    before = path.read_bytes()

    def broken_savez(file, **arrays):
        file.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(precompute.np, "savez", broken_savez)
    with pytest.raises(OSError):
        save_structure(bundle, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle.npz"]


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _rewrite_members(path, edit):
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as zf:
        for name, blob in members.items():
            zf.writestr(name, blob)


def _edit_arrays(edit):
    """A corruption that rewrites the cache file with ``edit`` applied to its arrays."""
    def corrupt(path):
        with np.load(path) as npz:
            arrays = {name: npz[name].copy() for name in npz.files}
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return corrupt


def _drop_member(path):
    _rewrite_members(path, lambda members: members.pop("floats.npy"))


def _drop_pattern_member(path):
    # The attention pattern's index arrays live in the int pool; its values are not stored.
    _rewrite_members(path, lambda members: members.pop("ints.npy"))


def _bad_indices(arrays):
    # A column index past the first matrix's column count.
    arrays["ints"][arrays["matrices"][0, 4]] = 10**6


def _other_hypergraphs_bundle(path):
    # The same node count and edge sizes as spec_example, other members.
    other = build_hypergraph(4, [(0, 1, 3), (2, 3)])
    save_structure(build_structure(other, np.ones((4, 2))), path)


def _other_node_count(arrays):
    arrays["graph"][0] = 5


def _span_outside_pool(arrays):
    arrays["matrices"][0, 3] = len(arrays["ints"]) - 1   # indptr runs past the int pool


def _matrix_id_out_of_range(arrays):
    arrays["chains"][0] = len(arrays["matrices"])


def _operator_without_terms(arrays):
    arrays["terms"] = arrays["terms"][arrays["terms"][:, 0] != 6]   # the attention pattern


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_bytes(b""),
        lambda p: p.write_bytes(b"not an npz archive at all"),
        _truncate,
        _drop_member,
        _drop_pattern_member,
        _edit_arrays(_bad_indices),
        _other_hypergraphs_bundle,
        _edit_arrays(_other_node_count),
        _edit_arrays(_span_outside_pool),
        _edit_arrays(_matrix_id_out_of_range),
        _edit_arrays(_operator_without_terms),
    ],
    ids=["empty", "garbage", "truncated", "missing_member", "missing_pattern_member",
         "inconsistent_arrays", "other_hypergraphs_edges", "other_node_count",
         "span_outside_pool", "matrix_id_out_of_range", "operator_without_terms"],
)
def test_unreadable_cache_file_is_a_miss(tmp_path, spec_example, corrupt):
    features = np.ones((4, 2))
    fresh = load_or_build(spec_example, features, cache_dir=tmp_path)
    (path,) = tmp_path.glob("structure-*.npz")
    good = path.read_bytes()
    corrupt(path)
    rebuilt = load_or_build(spec_example, features, cache_dir=tmp_path)
    assert_bundles_equal(fresh, rebuilt)
    assert path.read_bytes() == good
    assert_bundles_equal(fresh, load_or_build(spec_example, features, cache_dir=tmp_path))


# On _wide_edges every clique-pattern operator is factored, and the first term
# stored is the smoothing operator's diag(D_v^{-1/2}) (H D_e^{-1}) (H^T D_v^{-1/2}).
def _drop_first_factor(arrays):
    arrays["matrices"] = np.delete(arrays["matrices"], arrays["chains"][0], axis=0)


def _longer_chain(arrays):
    arrays["terms"][0, 5] = 3


def _unknown_factor(arrays):
    arrays["chains"][1] = 99


def _swapped_factors(arrays):
    arrays["chains"][[0, 1]] = arrays["chains"][[1, 0]]


def _short_scale(arrays):
    # The clique Laplacian's diagonal term claims 119 of its 120 rows, so 119 scale values.
    arrays["terms"][1, 1:3] -= 1


@pytest.mark.parametrize(
    "edit",
    [_drop_first_factor, _longer_chain, _unknown_factor, _swapped_factors, _short_scale],
    ids=["missing_factor", "bad_chain_lengths", "unknown_factor", "factors_do_not_chain",
         "scales_count"],
)
def test_unreadable_factored_operator_is_a_miss(tmp_path, edit):
    data = _wide_edges()
    hg = ensure_min_degree(data.hypergraph)
    fresh = load_or_build(hg, data.features, cache_dir=tmp_path)
    (path,) = tmp_path.glob("structure-*.npz")
    good = path.read_bytes()
    _edit_arrays(edit)(path)
    assert_bundles_equal(fresh, load_or_build(hg, data.features, cache_dir=tmp_path))
    assert path.read_bytes() == good


def _arrays_in(obj, seen=None):
    """Every ndarray reachable from a bundle through fields, slots and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_in(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays_in(getattr(obj, f.name), seen)
    elif isinstance(obj, SparseMatrix):
        for name in ("indptr", "indices", "data"):
            yield getattr(obj, name)
    elif isinstance(obj, FactoredOperator):
        yield from _arrays_in(obj.terms, seen)


def test_bundle_and_cache_hold_no_quadratic_array(tmp_path):
    data = generate_synthetic(TwoCommunitySpec(num_nodes=2000, num_edges=1200), seed=0)
    n = data.num_nodes
    hg = ensure_min_degree(data.hypergraph)
    bundle = load_or_build(hg, data.features, cache_dir=tmp_path)
    sizes = [a.size for a in _arrays_in(bundle)]
    assert len(sizes) == 30  # the walk reaches every array of the hypergraph and the operators
    assert max(sizes) < n * n
    (path,) = tmp_path.glob("structure-*.npz")
    with np.load(path) as blob:
        assert max(blob[name].size for name in blob.files) < n * n


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_generator(name: str) -> dict:
    """The generator parameters of one of the benchmark's workloads, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {k: v for k, v in module.WORKLOADS[name].generator.items() if k != "kind"}


def test_edge_blocks_are_built_from_four_pairs_per_incidence(monkeypatch):
    def blocks_of(data):
        hg = ensure_min_degree(data.hypergraph)
        bundle = build_structure(hg, data.features)
        ratio = bundle.attention_pattern.nnz / len(hg.members)
        assert (bundle.attention_blocks is not None) == (ratio >= precompute.BLOCK_PAIRS)
        return bundle.attention_blocks

    # The iso pool (1.5 pairs per incidence) and the instance of the frozen
    # train-step digests (3.07) stay on the CSR pattern.
    assert blocks_of(build_iso_pool(IsoPoolSpec(num_pairs=10), 0)[0]) is None
    assert blocks_of(generate_synthetic(TwoCommunitySpec(num_nodes=60, num_edges=40, edge_size=4), 2)) is None
    # wide_edges_train's instance (7.1) runs on edge blocks of its own pattern.
    data = generate_synthetic(TwoCommunitySpec(**benchmark_generator("wide_edges_train")), 1)
    blocks = blocks_of(data)
    assert isinstance(blocks, EdgeBlocks)
    # The instances of acceptance check c10 (3.0, 2.5 and 2.2) stay on CSR.
    built = []

    def recording_build(hg, features):
        built.append(build_structure(hg, features))
        return built[-1]

    monkeypatch.setattr(experiments, "build_structure", recording_build)
    time_forward(300, [100, 200, 400], repeats=1)
    assert [bundle.attention_blocks for bundle in built] == [None] * 3


def test_a_cache_hit_rebuilds_the_edge_blocks_of_its_own_pattern(tmp_path):
    data = _wide_edges()
    hg = ensure_min_degree(data.hypergraph)
    missed = load_or_build(hg, data.features, cache_dir=tmp_path)
    hit = load_or_build(hg, data.features, cache_dir=tmp_path)
    assert isinstance(hit.attention_blocks, EdgeBlocks)
    assert hit.attention_blocks.pattern is hit.attention_pattern
    rng = np.random.default_rng(5)
    values, other = rng.random(missed.attention_pattern.nnz), rng.standard_normal((hg.num_nodes, 4))
    np.testing.assert_array_equal(hit.attention_blocks.matmul_dense(other, data=values),
                                  missed.attention_blocks.matmul_dense(other, data=values))


def test_edge_blocks_refuse_a_pattern_other_than_h_ht():
    # A loaded pattern with the right size but another structure (here a
    # relabelled copy's) must not be laid out on this hypergraph's blocks.
    hg = ensure_min_degree(_wide_edges().hypergraph)
    other = relabel_nodes(hg, np.roll(np.arange(hg.num_nodes), 1))
    pattern = build_structure(other, np.ones((hg.num_nodes, 1))).attention_pattern
    assert pattern.nnz == cooccurrence(hg).nnz
    with pytest.raises(ValueError, match="H H"):
        precompute._attention_blocks(hg, pattern)


def test_wide_edge_training_still_runs_the_traced_attention_ops(monkeypatch):
    # The benchmark times these three by their module attributes; training on
    # edge blocks must still call each of them, under every name it is held by.
    calls = {"segment_sums": [], "segment_softmax": [], "select_rows": []}
    for name, seen in calls.items():
        original = getattr(autodiff, name)

        def counted(*args, _original=original, _seen=seen, **kwargs):
            _seen.append(args)
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("dphgnn") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    data = generate_synthetic(TwoCommunitySpec(num_nodes=200, num_edges=100, edge_size=8), 0)
    train(RunConfig.from_dict({"epochs": 1, "seed": 0}), data=data)
    assert all(calls.values())
    assert {type(args[2]) for args in calls["segment_sums"]} == {EdgeBlocks}

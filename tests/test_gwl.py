"""Color refinement, joint comparison, and the exact search fallback."""

import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import random_covering_hypergraph
from dphgnn.errors import TooLargeError
from dphgnn.gwl import (
    Verdict,
    _component_shapes,
    _node_profile,
    brute_force_isomorphic,
    color_refine_step,
    gwl_test,
    initial_coloring,
    refine_to_stable,
)
from dphgnn.hypergraph import build_hypergraph, relabel_nodes


def permutation_oracle(hg1, hg2):
    """Exhaustive reference check, written independently of the module."""
    if hg1.num_nodes != hg2.num_nodes or hg1.num_edges != hg2.num_edges:
        return False
    target = Counter(frozenset(e) for e in hg2.edges)
    for perm in itertools.permutations(range(hg1.num_nodes)):
        mapped = Counter(frozenset(perm[v] for v in e) for e in hg1.edges)
        if mapped == target:
            return True
    return False


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def cycle_union(lengths):
    edges, offset = [], 0
    for length in lengths:
        edges += cycle(length, offset)
        offset += length
    return build_hypergraph(offset, edges)


def cycle_partitions(n, smallest=3):
    """Every multiset of cycle lengths >= smallest summing to n, ascending."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(smallest, n + 1)
        for rest in cycle_partitions(n - first, first)
    ]


def loose_hypergraph(rng, n):
    """Edges of size 1-3 that may leave nodes isolated or repeat an edge."""
    edges = []
    for _ in range(int(rng.integers(n // 2, n + 2))):
        size = min(n, int(rng.choice([1, 2, 2, 3])))
        edges.append(tuple(rng.choice(n, size=size, replace=False).tolist()))
    if edges and rng.random() < 0.5:
        edges.append(edges[int(rng.integers(len(edges)))])
    return build_hypergraph(n, edges)


def member_swaps(hg):
    """Every hypergraph made by trading one member between two equal-size
    edges; each keeps every node's degree and incident edge sizes."""
    edges = [set(e) for e in hg.edges]
    for j, k in itertools.combinations(range(len(edges)), 2):
        if len(edges[j]) != len(edges[k]):
            continue
        for u in sorted(edges[j] - edges[k]):
            for w in sorted(edges[k] - edges[j]):
                swapped = list(edges)
                swapped[j] = edges[j] - {u} | {w}
                swapped[k] = edges[k] - {w} | {u}
                yield build_hypergraph(hg.num_nodes, [tuple(e) for e in swapped])


def reachability_components(hg):
    """Sorted (nodes, edges) per component from a dense transitive closure."""
    n = hg.num_nodes
    reach = np.eye(n, dtype=bool)
    for e in hg.edges:
        reach[np.ix_(e, e)] = True
    for _ in range(n):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    shapes = []
    for rows in {tuple(np.flatnonzero(r)) for r in reach}:
        edges = sum(1 for e in hg.edges if e[0] in rows)
        shapes.append((len(rows), edges))
    return sorted(shapes)


def test_refinement_splits_example(spec_example):
    state = refine_to_stable(spec_example)
    colors = state.colors
    assert state.num_colors == 3
    assert colors[0] == colors[1]
    assert len({colors[0], colors[2], colors[3]}) == 3


def test_initial_coloring_uniform(spec_example):
    state = initial_coloring(spec_example)
    np.testing.assert_array_equal(state.colors, np.zeros(4, dtype=np.int64))
    assert state.round == 0
    assert state.color_histogram == {0: 4}


def test_edgeless_never_splits():
    hg = build_hypergraph(5, [])
    state = refine_to_stable(hg)
    assert state.num_colors == 1


def test_vertex_transitive_single_color():
    hg = build_hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    assert refine_to_stable(hg).num_colors == 1


def test_refinement_monotone():
    rng = np.random.default_rng(0)
    for _ in range(10):
        hg = random_covering_hypergraph(rng, 8, 5)
        state = initial_coloring(hg)
        prev = state.num_colors
        for _ in range(8):
            state = color_refine_step(hg, state)
            assert state.num_colors >= prev
            prev = state.num_colors


def test_refine_canonical_labels():
    # interning by first appearance keeps colors in 0..k-1
    rng = np.random.default_rng(1)
    hg = random_covering_hypergraph(rng, 7, 4)
    state = refine_to_stable(hg)
    assert set(state.colors.tolist()) == set(range(state.num_colors))


def test_permuted_copy_possibly_isomorphic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        hg = random_covering_hypergraph(rng, 7, 4)
        other = relabel_nodes(hg, rng.permutation(7))
        verdict = gwl_test(hg, other)
        assert verdict.verdict is Verdict.POSSIBLY_ISOMORPHIC


@pytest.mark.parametrize(
    "hg",
    [
        cycle_union([10]),
        cycle_union([5, 5]),
        build_hypergraph(7, [(0, 1, 2), (2, 3), (3, 4), (4, 5, 6), (0, 6), (1, 5)]),
    ],
    ids=["C10", "C5+C5", "mixed_sizes"],
)
def test_joint_refinement_is_invariant_under_relabelling_one_side(hg):
    # The iso pool refines one copy per class on this invariance.
    want = gwl_test(hg, hg)
    rng = np.random.default_rng(7)
    for _ in range(50):
        assert gwl_test(hg, relabel_nodes(hg, rng.permutation(hg.num_nodes))) == want


def test_size_histogram_distinguished_first_round():
    a = build_hypergraph(3, [(0, 1, 2)])
    b = build_hypergraph(3, [(0, 1), (1, 2)])
    verdict = gwl_test(a, b)
    assert verdict.verdict is Verdict.DISTINGUISHED
    assert verdict.rounds_used == 1


def test_node_count_mismatch_immediate():
    a = build_hypergraph(3, [(0, 1, 2)])
    b = build_hypergraph(4, [(0, 1, 2)])
    verdict = gwl_test(a, b)
    assert verdict.verdict is Verdict.DISTINGUISHED
    assert verdict.rounds_used == 0


def test_joint_namespace_catches_edge_size():
    # separately both refine to one color; only the shared table splits them
    a = build_hypergraph(2, [(0, 1)])
    b = build_hypergraph(2, [(0,), (1,)])
    assert refine_to_stable(a).num_colors == 1
    assert refine_to_stable(b).num_colors == 1
    assert gwl_test(a, b).verdict is Verdict.DISTINGUISHED


def test_two_triangles_vs_six_cycle():
    triangles = build_hypergraph(6, cycle(3) + cycle(3, offset=3))
    hexagon = build_hypergraph(6, cycle(6))
    assert gwl_test(triangles, hexagon).verdict is Verdict.POSSIBLY_ISOMORPHIC
    assert not brute_force_isomorphic(triangles, hexagon)
    assert not permutation_oracle(triangles, hexagon)


def test_brute_force_identity_and_permutation():
    rng = np.random.default_rng(3)
    hg = random_covering_hypergraph(rng, 6, 4)
    assert brute_force_isomorphic(hg, hg)
    assert brute_force_isomorphic(hg, relabel_nodes(hg, rng.permutation(6)))


def test_brute_force_counts_mismatch():
    a = build_hypergraph(3, [(0, 1)])
    assert not brute_force_isomorphic(a, build_hypergraph(3, [(0, 1), (1, 2)]))
    assert not brute_force_isomorphic(a, build_hypergraph(4, [(0, 1)]))


def test_brute_force_node_cap():
    big = build_hypergraph(11, [(0, 1)])
    with pytest.raises(TooLargeError):
        brute_force_isomorphic(big, big)


def test_empty_hypergraphs():
    a = build_hypergraph(0, [])
    assert brute_force_isomorphic(a, a)
    assert gwl_test(a, a).verdict is Verdict.POSSIBLY_ISOMORPHIC


def test_brute_force_matches_permutation_oracle():
    rng = np.random.default_rng(4)
    agreements = 0
    for trial in range(40):
        n = int(rng.integers(2, 7))
        a = random_covering_hypergraph(rng, n, int(rng.integers(1, 4)))
        if trial % 2:
            b = relabel_nodes(a, rng.permutation(n))
        else:
            b = random_covering_hypergraph(rng, n, int(rng.integers(1, 4)))
        expected = permutation_oracle(a, b)
        assert brute_force_isomorphic(a, b) == expected
        if expected:
            # soundness: refinement must never separate true isomorphs
            assert gwl_test(a, b).verdict is Verdict.POSSIBLY_ISOMORPHIC
            agreements += 1
    assert agreements >= 20  # half the trials are genuine isomorphs


def test_gwl_self_comparison_stable():
    rng = np.random.default_rng(5)
    for _ in range(5):
        hg = random_covering_hypergraph(rng, 8, 5)
        verdict = gwl_test(hg, hg)
        assert verdict.verdict is Verdict.POSSIBLY_ISOMORPHIC
        assert verdict.rounds_used >= 1


def test_component_shapes_count_isolated_nodes_singletons_and_repeats():
    hg = build_hypergraph(7, [(0, 1), (1, 2), (0, 1), (3,), (4, 5), (5,)])
    # {0,1,2} with a repeated edge, {3} under a singleton, {4,5}, isolated 6
    assert _component_shapes(hg) == [(1, 0), (1, 1), (2, 2), (3, 3)]
    assert _component_shapes(build_hypergraph(0, [])) == []


def test_component_shapes_match_a_reachability_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        hg = loose_hypergraph(rng, int(rng.integers(1, 9)))
        assert _component_shapes(hg) == reachability_components(hg)


def test_brute_force_matches_permutation_oracle_on_loose_hypergraphs():
    # isolated nodes, singleton edges and repeated edges, against an
    # independent permutation check
    rng = np.random.default_rng(12)
    isomorphs = 0
    for trial in range(60):
        n = int(rng.integers(1, 8))
        a = loose_hypergraph(rng, n)
        b = relabel_nodes(a, rng.permutation(n)) if trial % 2 else loose_hypergraph(rng, n)
        expected = permutation_oracle(a, b)
        assert brute_force_isomorphic(a, b) == expected
        isomorphs += expected
    assert isomorphs >= 30


def test_brute_force_matches_permutation_oracle_on_member_swaps():
    # a member swap keeps every node profile, so these pairs get past the
    # profile and edge-size checks; the reachability oracle sorts them by
    # whether the component check or the search has to reject them
    rng = np.random.default_rng(14)
    bases = [
        build_hypergraph(6, cycle(3) + cycle(3, offset=3) + [(0,), (3, 4)]),
        build_hypergraph(6, cycle(4) + [(0, 1), (4,)]),
    ] + [loose_hypergraph(rng, int(rng.integers(3, 7))) for _ in range(8)]
    outcomes = Counter()
    for a in bases:
        for b in member_swaps(a):
            b = relabel_nodes(b, rng.permutation(a.num_nodes))
            expected = permutation_oracle(a, b)
            assert brute_force_isomorphic(a, b) == expected
            same_shapes = reachability_components(a) == reachability_components(b)
            outcomes[expected, same_shapes] += 1
    assert outcomes[True, False] == 0
    assert outcomes[False, False] >= 20  # rejected by the component check
    assert outcomes[False, True] >= 5    # rejected by the search
    assert outcomes[True, True] >= 10


def test_search_rejects_pairs_that_share_every_invariant():
    # a 4-cycle with a 2-edge tail against a triangle with a 3-edge tail;
    # a 3-edge chain with pendant 2-edges placed on different members
    pairs = [
        (
            build_hypergraph(6, cycle(4) + [(3, 4), (4, 5)]),
            build_hypergraph(6, cycle(3) + [(2, 3), (3, 4), (4, 5)]),
        ),
        (
            build_hypergraph(7, [(0, 1, 2), (2, 3, 4), (0, 5), (1, 6)]),
            build_hypergraph(7, [(0, 1, 2), (2, 3, 4), (0, 5), (3, 6)]),
        ),
    ]
    for a, b in pairs:
        assert sorted(_node_profile(a)) == sorted(_node_profile(b))
        assert _component_shapes(a) == _component_shapes(b)
        assert not permutation_oracle(a, b)
        assert not brute_force_isomorphic(a, b)
        assert not brute_force_isomorphic(b, a)


def test_cycle_unions_isomorphic_iff_their_lengths_match():
    rng = np.random.default_rng(13)
    families = [p for n in range(6, 11) for p in cycle_partitions(n)]
    assert len(families) == 16
    for left in families:
        a = cycle_union(left)
        for right in families:
            b = cycle_union(right)
            b = relabel_nodes(b, rng.permutation(b.num_nodes))
            assert brute_force_isomorphic(a, b) == (left == right), (left, right)

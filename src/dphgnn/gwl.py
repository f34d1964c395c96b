"""Color refinement for hypergraphs and a brute-force isomorphism check.

Refinement generalizes 1-WL: a node's next color hashes its own color
together with the multiset, over its incident edges, of the multiset of
member colors. Hashing is canonical interning: each distinct signature
gets the next integer in order of first appearance, so colors are stable
across runs. Two hypergraphs are compared by refining them jointly in a
shared namespace; differing color histograms certify non-isomorphism,
while agreement is only ever "possibly isomorphic" (the classic failure
pair, two triangles against a six-cycle, stays indistinguishable).
A signature reads colors, never node ids, so relabelling either side
leaves the joint verdict and its round count unchanged:
``gwl_test(a, copy)`` equals ``gwl_test(a, a)`` for every relabelled
copy of ``a``.

The exact search rules pairs out on three cheap invariants before it
backtracks: the sorted node profiles (degree and incident edge sizes),
the sorted edge sizes, and the sorted (node count, edge count) of the
connected components. Isomorphism preserves all three, so they only
shorten the search for pairs it would reject.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TooLargeError
from .hypergraph import Hypergraph

__all__ = [
    "Verdict",
    "GwlVerdict",
    "ColoringState",
    "initial_coloring",
    "color_refine_step",
    "refine_to_stable",
    "gwl_test",
    "brute_force_isomorphic",
    "BRUTE_FORCE_MAX_NODES",
]

BRUTE_FORCE_MAX_NODES = 10


class Verdict(Enum):
    DISTINGUISHED = "distinguished"
    POSSIBLY_ISOMORPHIC = "possibly_isomorphic"


@dataclass(frozen=True)
class GwlVerdict:
    verdict: Verdict
    rounds_used: int


@dataclass(eq=False)
class ColoringState:
    """Node colors after some number of refinement rounds.

    Colors are canonical: relabeled to 0..k-1 by first occurrence.
    """

    colors: np.ndarray
    round: int

    @property
    def num_colors(self) -> int:
        return int(self.colors.max()) + 1 if self.colors.size else 0

    @property
    def color_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.colors, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def initial_coloring(hg: Hypergraph) -> ColoringState:
    """Uniform start: every node shares color 0."""
    return ColoringState(np.zeros(hg.num_nodes, dtype=np.int64), 0)


def _incident_lists(hg: Hypergraph) -> list[list[int]]:
    incident: list[list[int]] = [[] for _ in range(hg.num_nodes)]
    for j, e in enumerate(hg.edges):
        for v in e:
            incident[v].append(j)
    return incident


def _signatures(hg: Hypergraph, colors: np.ndarray, incident: list[list[int]]):
    edge_sigs = [tuple(sorted(colors[list(e)].tolist())) for e in hg.edges]
    return [
        (int(colors[v]), tuple(sorted(edge_sigs[j] for j in incident[v])))
        for v in range(hg.num_nodes)
    ]


def _intern(signature_lists) -> list[np.ndarray]:
    table: dict[object, int] = {}
    out = []
    for sigs in signature_lists:
        new = np.empty(len(sigs), dtype=np.int64)
        for i, sig in enumerate(sigs):
            if sig not in table:
                table[sig] = len(table)
            new[i] = table[sig]
        out.append(new)
    return out


def color_refine_step(hg: Hypergraph, state: ColoringState) -> ColoringState:
    """One refinement round with canonical relabeling."""
    (new,) = _intern([_signatures(hg, state.colors, _incident_lists(hg))])
    return ColoringState(new, state.round + 1)


def refine_to_stable(hg: Hypergraph) -> ColoringState:
    """Iterate until the partition stops splitting (at most n rounds)."""
    state = initial_coloring(hg)
    incident = _incident_lists(hg)
    for _ in range(max(hg.num_nodes, 1)):
        (new,) = _intern([_signatures(hg, state.colors, incident)])
        nxt = ColoringState(new, state.round + 1)
        if nxt.num_colors == state.num_colors:
            return nxt
        state = nxt
    return state


def gwl_test(hg1: Hypergraph, hg2: Hypergraph) -> GwlVerdict:
    """Joint refinement of two hypergraphs in one color namespace.

    Returns DISTINGUISHED as soon as the color histograms split, or
    POSSIBLY_ISOMORPHIC once the joint partition is stable.
    """
    if hg1.num_nodes != hg2.num_nodes:
        return GwlVerdict(Verdict.DISTINGUISHED, 0)
    max_rounds = max(hg1.num_nodes + hg2.num_nodes, 1)
    colors1 = initial_coloring(hg1).colors
    colors2 = initial_coloring(hg2).colors
    incident1 = _incident_lists(hg1)
    incident2 = _incident_lists(hg2)
    num_joint = 1
    for round_no in range(1, max_rounds + 1):
        new1, new2 = _intern(
            [
                _signatures(hg1, colors1, incident1),
                _signatures(hg2, colors2, incident2),
            ]
        )
        if Counter(new1.tolist()) != Counter(new2.tolist()):
            return GwlVerdict(Verdict.DISTINGUISHED, round_no)
        joint = len(set(new1.tolist()) | set(new2.tolist()))
        if joint == num_joint:
            return GwlVerdict(Verdict.POSSIBLY_ISOMORPHIC, round_no)
        num_joint = joint
        colors1, colors2 = new1, new2
    return GwlVerdict(Verdict.POSSIBLY_ISOMORPHIC, max_rounds)


# ----------------------------------------------------------------------
# exact search


def _node_profile(hg: Hypergraph) -> list[tuple[int, tuple[int, ...]]]:
    sizes: list[list[int]] = [[] for _ in range(hg.num_nodes)]
    for e in hg.edges:
        for v in e:
            sizes[v].append(len(e))
    return [
        (int(hg.node_degrees[v]), tuple(sorted(sizes[v])))
        for v in range(hg.num_nodes)
    ]


def _component_shapes(hg: Hypergraph) -> list[tuple[int, int]]:
    """Sorted (node count, edge count) of each connected component.

    An isolated node is a (1, 0) component; singleton and repeated edges
    count toward the component of their members.
    """
    parent = list(range(hg.num_nodes))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in hg.edges:
        root = find(e[0])
        for v in e[1:]:
            parent[find(v)] = root
    nodes = Counter(find(v) for v in range(hg.num_nodes))
    edges = Counter(find(e[0]) for e in hg.edges)
    return sorted((count, edges[root]) for root, count in nodes.items())


def brute_force_isomorphic(hg1: Hypergraph, hg2: Hypergraph) -> bool:
    """Exhaustive search for a node bijection mapping edge multisets.

    Before searching it returns False when the node counts, edge counts,
    sorted node profiles, sorted edge sizes or sorted component shapes
    differ. The search backtracks over profile-compatible assignments,
    checking each edge as soon as its last member is mapped. Only defined
    for instances with at most ``BRUTE_FORCE_MAX_NODES`` nodes.

    Raises:
        TooLargeError: either input exceeds the node cap.
    """
    n = hg1.num_nodes
    if n > BRUTE_FORCE_MAX_NODES or hg2.num_nodes > BRUTE_FORCE_MAX_NODES:
        raise TooLargeError(
            f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes"
        )
    if hg2.num_nodes != n or hg2.num_edges != hg1.num_edges:
        return False
    prof1, prof2 = _node_profile(hg1), _node_profile(hg2)
    if sorted(prof1) != sorted(prof2):
        return False
    if sorted(map(len, hg1.edges)) != sorted(map(len, hg2.edges)):
        return False
    if _component_shapes(hg1) != _component_shapes(hg2):
        return False
    if n == 0:
        return True

    candidates = [
        [w for w in range(n) if prof2[w] == prof1[v]] for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    incident = _incident_lists(hg1)
    remaining = Counter(frozenset(e) for e in hg2.edges)
    pending = [len(e) for e in hg1.edges]
    mapping = [-1] * n
    used = [False] * n

    def place(v: int, w: int) -> list[frozenset] | None:
        """Map v -> w; returns consumed edge images, or None on conflict."""
        mapping[v] = w
        used[w] = True
        consumed: list[frozenset] = []
        for j in incident[v]:
            pending[j] -= 1
            if pending[j] == 0:
                image = frozenset(mapping[u] for u in hg1.edges[j])
                if remaining[image] == 0:
                    unplace(v, w, consumed, partial=j)
                    return None
                remaining[image] -= 1
                consumed.append(image)
        return consumed

    def unplace(v: int, w: int, consumed: list[frozenset], partial: int | None = None) -> None:
        for image in consumed:
            remaining[image] += 1
        for j in incident[v]:
            pending[j] += 1
            if j == partial:
                break
        mapping[v] = -1
        used[w] = False

    def search(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in candidates[v]:
            if used[w]:
                continue
            consumed = place(v, w)
            if consumed is None:
                continue
            if search(depth + 1):
                return True
            unplace(v, w, consumed)
        return False

    return search(0)

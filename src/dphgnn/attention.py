"""Topology-aware attention over the three graph expansions.

Each expansion view is refreshed by a single message-passing step, then a
shared cross-attention layer mixes the views: the spatial path attends
from the star view over clique neighborhoods onto the distance-pair view,
and the spectral path does the same after premultiplying each view by its
graph Laplacian. Attention scores follow the additive form

    s_ij = LeakyReLU(delta^T [W q_i || W k_j])

restricted to j in N(i) or j = i, normalized row-wise by softmax. Heads
split the hidden width into equal slices that attend independently. The
score is additive, so a head's query half is q_i . (W_h delta_q,h), where
W_h holds the head's columns of W: each head folds W into one score
vector per side, and :func:`score_vectors` stacks them into an (h x heads)
matrix per side, formed once per forward for both paths. A view X enters
the scores only as X @ wq or X @ wk, an (n x heads) matrix of per-node
terms (GAT, Velickovic et al., arXiv:1710.10903), and the values only as
X @ W. Products associate, so the spectral path's (L X) @ wq equals
L @ (X @ wq), and (L X) @ W equals L @ (X @ W): each Laplacian multiplies
the view's score matrix, heads columns wide, or the projected values the
spatial path already formed, never the h-wide view itself. The
admissible pairs come from a CSR pattern of the clique adjacency plus the
identity (see :func:`attention_pattern`), so scores and softmax cost
O(nnz), never O(n^2). The weighted sums of all heads are one op
(:func:`~dphgnn.autodiff.segment_sums`) with one weights tensor per head:
the pattern carries a head's attention weights as its values and
multiplies that head's columns of the projected values, written into the
same columns of the output, so no (pairs x head width) array is formed.

The star view's node rows, ReLU(x theta_star), are formed once by the
model's forward pass (:func:`~dphgnn.model.dphgnn_forward`), which hands
the same tensor to the spatial query here and to the fusion layers. Only
the spectral path reads the supernode rows, which :func:`star_update`
appends below them.

Every operator a forward pass reads comes from the dataset's structure
bundle (:mod:`dphgnn.precompute`), which is built once;
:func:`propagation_matrix` builds the propagation operators for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat_cols,
    concat_rows,
    dropout,
    leaky_relu,
    matmul,
    relu,
    segment_softmax,
    segment_sums,
    select_cols,
    select_rows,
)
from .errors import ShapeMismatchError
from .expand import Graph
from .sparse import SparseMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .precompute import StructureBundle

__all__ = [
    "TaaParams",
    "UpdateVariant",
    "propagation_matrix",
    "single_layer_update",
    "star_update",
    "attention_pattern",
    "score_vectors",
    "cross_attention",
    "taa_forward",
]

LEAKY_SLOPE = 0.2


class UpdateVariant(Enum):
    """Normalization of the one-step message pass."""

    RESIDUAL_RW = "residual_rw"   # ReLU((I + D^{-1} A) x theta)
    SYM_NORM = "sym_norm"         # ReLU(D^{-1/2} (A + I) D^{-1/2} x theta) with self-loop degrees


@dataclass(eq=False)
class TaaParams:
    """Learned pieces of the attention block.

    ``delta`` is the (2h, 1) score vector, ``weight`` the shared h x h
    projection, and the three thetas drive the per-view updates.
    """

    delta: Tensor
    weight: Tensor
    theta_clique: Tensor
    theta_star: Tensor
    theta_hypergcn: Tensor
    num_heads: int = 1

    def parameters(self, prefix: str = "taa") -> dict[str, Tensor]:
        return {
            f"{prefix}.delta": self.delta,
            f"{prefix}.weight": self.weight,
            f"{prefix}.theta_clique": self.theta_clique,
            f"{prefix}.theta_star": self.theta_star,
            f"{prefix}.theta_hypergcn": self.theta_hypergcn,
        }


def propagation_matrix(g: Graph, variant: UpdateVariant) -> SparseMatrix:
    """Constant propagation operator for :func:`single_layer_update`.

    Residual random-walk rows of isolated vertices fall back to the bare
    identity (their D^{-1} row is taken as zero).
    """
    n = g.adjacency.rows
    eye = SparseMatrix.identity(n)
    if variant is UpdateVariant.RESIDUAL_RW:
        inv = np.zeros(n)
        nonzero = g.degrees > 0
        inv[nonzero] = 1.0 / g.degrees[nonzero]
        return eye.add(g.adjacency.scale_rows(inv))
    if variant is UpdateVariant.SYM_NORM:
        with_loops = g.adjacency.add(eye)
        inv_sqrt = 1.0 / np.sqrt(with_loops.row_sums())
        return with_loops.scale_rows(inv_sqrt).scale_cols(inv_sqrt)
    raise ValueError(f"unknown variant {variant!r}")  # pragma: no cover


def single_layer_update(
    prop: SparseMatrix, x: Tensor | np.ndarray, theta: Tensor | np.ndarray
) -> Tensor:
    """One message-passing step with ReLU through a propagation operator,
    as built by :func:`propagation_matrix`."""
    return relu(matmul(matmul(prop, x), theta))


def star_update(star_nodes: Tensor, edge_mean: Tensor, theta: Tensor) -> Tensor:
    """The star view's one-step features on all n + m star vertices.

    Supernode rows of the star input start at zero, so the residual step
    leaves each node row as it is, giving ``star_nodes`` = ReLU(x theta),
    and gives a supernode the mean of its member features, ``edge_mean`` =
    D_e^{-1} H^T x: the supernode rows are ReLU(edge_mean theta). The
    spectral path reads these rows only through their query scores,
    ``star_update(...) @ wq``, which the star Laplacian then multiplies.
    """
    return concat_rows(star_nodes, relu(matmul(edge_mean, theta)))


def _head_slices(width: int, num_heads: int) -> list[slice]:
    if num_heads < 1 or width % num_heads:
        raise ShapeMismatchError(
            f"num_heads={num_heads} must divide the hidden width {width}"
        )
    step = width // num_heads
    return [slice(i * step, (i + 1) * step) for i in range(num_heads)]


def attention_pattern(adjacency: SparseMatrix) -> SparseMatrix:
    """Unit-valued CSR pattern of ``adjacency + I``.

    Row i lists the neighbors of i and i itself in increasing column
    order: the candidate set each node attends over.
    """
    n = adjacency.rows
    # Unit values on both sides sum to 1 or 2, so no position cancels.
    unit = SparseMatrix(n, n, adjacency.indptr, adjacency.indices, np.ones(adjacency.nnz),
                        validate=False)
    merged = unit.add(SparseMatrix.identity(n))
    return SparseMatrix(n, n, merged.indptr, merged.indices, np.ones(merged.nnz), validate=False)


def score_vectors(params: TaaParams) -> tuple[Tensor, Tensor]:
    """The (h x heads) query and key score matrices ``(wq, wk)``.

    Column k of ``wq`` is W[:, head k] @ delta_q[head k], and of ``wk``
    W[:, head k] @ delta_k[head k], where delta_q and delta_k are the two
    halves of ``delta``. So column k of X @ wq is head k's query score
    (X W)[:, head k] @ delta_q[head k] of each row of the features X.

    Raises:
        ShapeMismatchError: ``num_heads`` does not divide the hidden width.
    """
    width = params.weight.value.shape[1]
    query, key = [], []
    for sl in _head_slices(width, params.num_heads):
        head_cols = np.arange(sl.start, sl.stop)
        head_weight = select_cols(params.weight, head_cols)
        query.append(matmul(head_weight, select_rows(params.delta, head_cols)))
        key.append(matmul(head_weight, select_rows(params.delta, width + head_cols)))
    return reduce(concat_cols, query), reduce(concat_cols, key)


def cross_attention(
    q_scores: Tensor | np.ndarray,
    k_scores: Tensor | np.ndarray,
    v_proj: Tensor | np.ndarray,
    neighborhoods: SparseMatrix,
    attn_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Neighborhood-restricted additive attention.

    ``q_scores`` and ``k_scores`` are (n x heads): column k holds head k's
    query and key score terms of each node, as X @ wq and X @ wk of
    :func:`score_vectors` give them. ``v_proj`` is the (n x h) projected
    values, whose columns split into one equal block per head. Pair (i, j)
    of head k scores LeakyReLU(q_scores[i, k] + k_scores[j, k]).

    ``neighborhoods`` is an n x n CSR pattern, as built by
    :func:`attention_pattern`, whose row i lists node i's neighbors and i
    itself; only its sparsity structure is read. With zero scores the
    output row i is the plain mean of projected values over that set.
    A non-zero ``attn_dropout`` drops attention weights at that rate, head
    by head, so an EVAL caller passes 0.0.
    """
    n = neighborhoods.rows
    if neighborhoods.shape != (n, n):
        raise ShapeMismatchError("neighborhoods must be square")
    # Scores exist only for admissible (i, j) pairs, laid out row-major so
    # each node's candidates form one contiguous segment. The pattern keeps
    # its pair rows and its diagonal count from the first call on.
    indptr = neighborhoods.indptr
    pair_cols = neighborhoods.indices
    pair_rows, diagonal = neighborhoods._pattern_index()
    # Columns increase strictly within a row, so a row holds at most one
    # diagonal entry and n of them means every node attends to itself.
    if diagonal != n:
        raise ShapeMismatchError("every row of neighborhoods must hold its own diagonal entry")
    shape = q_scores.shape
    if shape != k_scores.shape or len(shape) != 2 or shape[0] != n:
        raise ShapeMismatchError(
            f"cross_attention needs ({n}, heads) query and key scores, "
            f"got {shape} and {k_scores.shape}"
        )

    head_weights = []
    for head in range(shape[1]):
        scores = leaky_relu(
            add(select_rows(select_cols(q_scores, [head]), pair_rows),
                select_rows(select_cols(k_scores, [head]), pair_cols)),
            LEAKY_SLOPE,
        )
        weights = segment_softmax(scores, indptr)
        if attn_dropout:
            weights = dropout(weights, attn_dropout, rng=rng)
        head_weights.append(weights)
    return segment_sums(head_weights, v_proj, neighborhoods)


def taa_forward(
    x: Tensor | np.ndarray,
    edge_mean: Tensor | np.ndarray,
    star_nodes: Tensor,
    params: TaaParams,
    structure: "StructureBundle",
    attn_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Run both attention paths over the bundle's views.

    Returns (spatial attention, spectral attention). ``star_nodes`` =
    ReLU(x theta_star) are the star view's n node rows, the spatial query.
    The spectral path reads all n + m star rows (:func:`star_update`), the
    supernode rows from ``edge_mean`` = D_e^{-1} H^T x.

    The score matrices and the projected values V = hyper_feats @ W are
    formed once. The spectral path applies each Laplacian after the
    projection (see the module docstring): L_star @ (star_update @ wq),
    L_clique @ (clique_feats @ wk) and L_hypergcn @ V, so the star and
    clique Laplacians multiply heads columns, forward and backward.
    """
    clique_feats = single_layer_update(structure.prop_clique, x, params.theta_clique)
    hyper_feats = single_layer_update(structure.prop_hypergcn, x, params.theta_hypergcn)
    wq, wk = score_vectors(params)
    k_scores = matmul(clique_feats, wk)
    v_proj = matmul(hyper_feats, params.weight)
    laplacians = structure.laplacians

    spatial = cross_attention(
        matmul(star_nodes, wq),
        k_scores,
        v_proj,
        structure.attention_pattern,
        attn_dropout=attn_dropout,
        rng=rng,
    )
    # The bundle's star Laplacian holds only its n node rows.
    spectral = cross_attention(
        matmul(laplacians.star, matmul(star_update(star_nodes, edge_mean, params.theta_star), wq)),
        matmul(laplacians.clique, k_scores),
        matmul(laplacians.hypergcn, v_proj),
        structure.attention_pattern,
        attn_dropout=attn_dropout,
        rng=rng,
    )
    return spatial, spectral

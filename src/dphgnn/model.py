"""Model assembly: feature mixing, fusion layers, and prediction.

The full pipeline per forward pass:

1. project input features (dense or CSR) to the hidden width,
2. spectral identifier block (skippable),
3. topology-aware attention over the expansion views (skippable),
4. gated feature mixing into a static representation,
5. one or more hyperedge fusion layers (star fusion term skippable),
6. a final smoothing-operator convolution emitting class logits.

Disabled blocks are replaced by width-preserving pass-throughs so every
ablation sees identical downstream shapes. The two-layer spectral
baseline lives here as well.

Every block reads the dataset's structure bundle. Only the two entry
points, :func:`dphgnn_forward` and :func:`hgnn_baseline_forward`, build
it when the caller passes none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .attention import TaaParams, taa_forward
from .autodiff import (
    Tensor,
    add,
    concat_cols,
    dropout,
    matmul,
    mul,
    relu,
    sigmoid,
)
from .errors import ShapeMismatchError
from .hypergraph import LabeledHypergraph
from .nn import Linear, glorot
from .precompute import StructureBundle, build_structure
from .spectral import sib_update

__all__ = [
    "Mode",
    "AblationFlags",
    "DropoutRates",
    "DphgnnParams",
    "HgnnParams",
    "ForwardTrace",
    "init_dphgnn",
    "init_hgnn",
    "feature_mix",
    "dff_forward",
    "predict_layer",
    "dphgnn_forward",
    "hgnn_baseline_forward",
]


class Mode(Enum):
    TRAIN = "train"
    EVAL = "eval"


@dataclass(frozen=True)
class AblationFlags:
    use_taa: bool = True
    use_sib: bool = True
    use_dff: bool = True


@dataclass(frozen=True)
class DropoutRates:
    """Per-block dropout, applied only in train mode."""

    gnn: float = 0.0
    taa: float = 0.0
    sib: float = 0.0
    dff: float = 0.0


@dataclass(eq=False)
class DphgnnParams:
    """All learned tensors of the full model.

    ``hidden`` must be even: the mixing layers emit half-width blocks
    whose concatenation restores the hidden width.
    """

    proj: Linear                  # in_dim -> h
    taa: TaaParams                # delta (2h, 1), weight (h, h), thetas (h, h)
    sib_theta: Tensor             # (2h, 2h)
    mix_attended: Linear          # 2h -> h/2, on [spatial || spectral] attention
    mix_gate: Linear              # 2h -> h/2, gates via the identifier block
    mix_skip: Linear              # h -> h/2, on the projected input
    fusion_weights: list[Tensor]  # each (h, h)
    head_weight: Tensor           # (h, C)
    flags: AblationFlags = field(default_factory=AblationFlags)
    sib_lambda: float = 1.0

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.proj.parameters("proj"))
        out.update(self.taa.parameters("taa"))
        out["sib.theta"] = self.sib_theta
        out.update(self.mix_attended.parameters("mix.attended"))
        out.update(self.mix_gate.parameters("mix.gate"))
        out.update(self.mix_skip.parameters("mix.skip"))
        for i, w in enumerate(self.fusion_weights):
            out[f"fusion.{i}.theta"] = w
        out["head.theta"] = self.head_weight
        return out

    def parameter_groups(self) -> dict[str, list[str]]:
        """Optimizer group per submodule, mirroring the config schema."""
        names = self.named_parameters()
        groups = {"gnn": [], "taa": [], "sib": [], "dff": []}
        for name in names:
            if name.startswith(("proj.", "taa.theta_")):
                groups["gnn"].append(name)
            elif name.startswith("taa."):
                groups["taa"].append(name)
            elif name.startswith(("sib.", "mix.")):
                groups["sib"].append(name)
            else:
                groups["dff"].append(name)
        return groups


@dataclass(eq=False)
class HgnnParams:
    """Two stacked spectral convolutions."""

    theta1: Tensor  # in_dim -> h
    theta2: Tensor  # h -> C

    def named_parameters(self) -> dict[str, Tensor]:
        return {"layer1.theta": self.theta1, "layer2.theta": self.theta2}

    def parameter_groups(self) -> dict[str, list[str]]:
        return {"gnn": list(self.named_parameters())}


@dataclass(eq=False)
class ForwardTrace:
    """Intermediate results of one full forward pass."""

    projected: Tensor
    spectral: Tensor
    attn_spatial: Tensor
    attn_spectral: Tensor
    static: Tensor
    fused: Tensor | None
    updated: Tensor
    logits: Tensor


def init_dphgnn(
    rng: np.random.Generator,
    in_dim: int,
    hidden: int,
    num_classes: int,
    num_heads: int = 1,
    num_layers: int = 2,
    flags: AblationFlags | None = None,
    sib_lambda: float = 1.0,
) -> DphgnnParams:
    """Glorot-uniform weights, zero biases, fixed construction order."""
    if hidden % 2:
        raise ShapeMismatchError("hidden width must be even")
    if num_layers < 1:
        raise ShapeMismatchError("num_layers must be at least 1")
    h = hidden
    half = h // 2
    taa = TaaParams(
        delta=Tensor(glorot(rng, 2 * h, 1), requires_grad=True),
        weight=Tensor(glorot(rng, h, h), requires_grad=True),
        theta_clique=Tensor(glorot(rng, h, h), requires_grad=True),
        theta_star=Tensor(glorot(rng, h, h), requires_grad=True),
        theta_hypergcn=Tensor(glorot(rng, h, h), requires_grad=True),
        num_heads=num_heads,
    )
    return DphgnnParams(
        proj=Linear.init(rng, in_dim, h),
        taa=taa,
        sib_theta=Tensor(glorot(rng, 2 * h, 2 * h), requires_grad=True),
        mix_attended=Linear.init(rng, 2 * h, half),
        mix_gate=Linear.init(rng, 2 * h, half),
        mix_skip=Linear.init(rng, h, half),
        fusion_weights=[
            Tensor(glorot(rng, h, h), requires_grad=True) for _ in range(num_layers - 1)
        ],
        head_weight=Tensor(glorot(rng, h, num_classes), requires_grad=True),
        flags=flags or AblationFlags(),
        sib_lambda=sib_lambda,
    )


def init_hgnn(
    rng: np.random.Generator, in_dim: int, hidden: int, num_classes: int
) -> HgnnParams:
    return HgnnParams(
        theta1=Tensor(glorot(rng, in_dim, hidden), requires_grad=True),
        theta2=Tensor(glorot(rng, hidden, num_classes), requires_grad=True),
    )


def feature_mix(
    attn_spatial: Tensor,
    attn_spectral: Tensor,
    spectral: Tensor,
    projected: Tensor,
    params: DphgnnParams,
) -> Tensor:
    """Gate the attended views by the identifier block and append a skip.

    out = [ mix_attended([spatial || spectral_attn]) * sigmoid(ReLU(mix_gate(spectral)))
            || mix_skip(projected) ]

    A zero gate input leaves sigmoid(0) = 0.5, so the attended half is
    halved rather than nulled.
    """
    attended = params.mix_attended(concat_cols(attn_spatial, attn_spectral))
    gate = sigmoid(relu(params.mix_gate(spectral)))
    return concat_cols(mul(attended, gate), params.mix_skip(projected))


def dff_forward(
    static: Tensor,
    star_edges: Tensor | None,
    theta: Tensor,
    structure: StructureBundle,
    trace_sink: dict | None = None,
) -> Tensor:
    """One hyperedge fusion layer.

    Aggregates node features onto edges two ways, then scatters back:

        fused = H^T D_v^{-1/2} static + star_edges
        out   = ReLU(static + H D_e^{-1} fused theta)

    ``star_edges`` is D_e^{-1} H^T star_nodes, each edge's mean of the star
    view's node features, which does not change from layer to layer; with
    ``None`` (fusion ablated) only the incidence aggregation remains.
    """
    fused = matmul(structure.edge_from_node, static)
    if star_edges is not None:
        fused = add(fused, star_edges)
    if trace_sink is not None:
        trace_sink["fused"] = fused
    return relu(add(static, matmul(structure.node_from_edge, matmul(fused, theta))))


def predict_layer(x: Tensor, theta: Tensor, structure: StructureBundle) -> Tensor:
    """Final smoothing-operator convolution; raw logits, no activation."""
    return matmul(structure.laplacians.smoothing, matmul(x, theta))


def _structure_for(
    data: LabeledHypergraph, structure: StructureBundle | None
) -> StructureBundle:
    """``structure``, checked to be ``data``'s, or a bundle built for ``data``.

    Callers pass the bundle built on ``data.hypergraph`` itself, so the
    identity test settles it and no edge array is compared per forward.
    """
    hg = data.hypergraph
    if structure is None:
        return build_structure(hg, data.features)
    own = structure.hypergraph
    if own is not hg and not all(map(
        np.array_equal,
        (own.num_nodes, own.edge_degrees, own.members),
        (hg.num_nodes, hg.edge_degrees, hg.members),
    )):
        raise ShapeMismatchError(
            f"structure was built for another hypergraph ({own.num_nodes} nodes, "
            f"{own.num_edges} edges); the data has {hg.num_nodes} nodes, {hg.num_edges} edges"
        )
    return structure


def dphgnn_forward(
    data: LabeledHypergraph,
    params: DphgnnParams,
    mode: Mode = Mode.EVAL,
    structure: StructureBundle | None = None,
    rates: DropoutRates | None = None,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Full model forward pass on a labeled dataset.

    Without ``structure`` the bundle is built here.

    Raises:
        ShapeMismatchError: ``structure`` was built for another hypergraph.
    """
    structure = _structure_for(data, structure)
    rates = rates or DropoutRates()
    train = mode is Mode.TRAIN
    flags = params.flags

    projected = params.proj(data.features)
    if train and rates.gnn:
        projected = dropout(projected, rates.gnn, rng=rng)

    # The hyperedge mean D_e^{-1} H^T x that the SIB and the star view share.
    if flags.use_sib or flags.use_taa:
        edge_mean = matmul(structure.node_from_edge.T, projected)

    if flags.use_sib:
        spectral = sib_update(projected, edge_mean, params.sib_lambda, params.sib_theta, structure)
        if train and rates.sib:
            spectral = dropout(spectral, rates.sib, rng=rng)
    else:
        spectral = concat_cols(projected, projected)

    # The star view's node rows ReLU(x theta_star): the spatial query, the
    # node block of the spectral query and the fusion layers' star term.
    fuse = flags.use_dff and bool(params.fusion_weights)
    if flags.use_taa or fuse:
        star_nodes = relu(matmul(projected, params.taa.theta_star))

    if flags.use_taa:
        attn_spatial, attn_spectral = taa_forward(
            projected, edge_mean, star_nodes, params.taa, structure,
            attn_dropout=rates.taa if train else 0.0,
            rng=rng,
        )
    else:
        attn_spatial = attn_spectral = projected

    static = feature_mix(attn_spatial, attn_spectral, spectral, projected, params)

    star_edges = matmul(structure.node_from_edge.T, star_nodes) if fuse else None

    current = static
    sink: dict = {}
    for theta in params.fusion_weights:
        current = dff_forward(current, star_edges, theta, structure, trace_sink=sink)
        if train and rates.dff:
            current = dropout(current, rates.dff, rng=rng)

    logits = predict_layer(current, params.head_weight, structure)
    return ForwardTrace(
        projected=projected,
        spectral=spectral,
        attn_spatial=attn_spatial,
        attn_spectral=attn_spectral,
        static=static,
        fused=sink.get("fused"),
        updated=current,
        logits=logits,
    )


def hgnn_baseline_forward(
    data: LabeledHypergraph,
    params: HgnnParams,
    structure: StructureBundle | None = None,
    dropout_rate: float = 0.0,
    mode: Mode = Mode.EVAL,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Two-layer spectral convolution baseline; returns logits.

    Without ``structure`` the bundle is built here.

    Raises:
        ShapeMismatchError: ``structure`` was built for another hypergraph.
    """
    smoothing = _structure_for(data, structure).laplacians.smoothing
    train = mode is Mode.TRAIN
    hidden = relu(matmul(smoothing, matmul(data.features, params.theta1)))
    if train and dropout_rate:
        hidden = dropout(hidden, dropout_rate, rng=rng)
    return matmul(smoothing, matmul(hidden, params.theta2))

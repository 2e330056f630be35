"""Heterogeneous message-passing layers over a graph with one virtual node.

A layer updates two node kinds synchronously from the pre-layer state:

* the virtual node receives one pooled message computed from all graph-node
  states (the pool may be a plain mean, feature statistics, or a
  softmax-weighted selection, which is how attention-style reads are
  expressed), then applies its update;
* every graph node receives the virtual node's state through the
  virtual-to-graph channel plus, optionally, a summed message over its graph
  neighbors (the graph-to-graph channel), then applies its update.

Dropping the graph-to-graph channel gives the simplified layer form; the
compiled attention programs only ever use the simplified form.

``run_program`` is the one loop over a program's layers.  Callers that need
intermediate results (per-layer selection weights, a state at some time)
pass an ``observe(k, state, aux)`` callback instead of asking for a trace.

Every function slot is filled by a *descriptor*: a frozen dataclass with a
registered ``kind`` and a ``__call__``, either closed-form or backed by
trained MLP weights.  Descriptors need no codec of their own: ``to_json`` and
``from_json`` derive the JSON layout from the dataclass fields (one key per
field, decoded by the field's type), so programs (ordered layer lists plus
initial-state and output conventions) persist to JSON wholesale.  Array
fields are declared with ``matrix()`` or ``vector()``.

Determinism note: pooled reductions always run in ascending node-index order
(numpy axis reductions over row-major arrays), so reruns are bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import attention, mlp, numkit
from .graphs import Graph


@dataclass
class NodeState:
    """States of the graph nodes (one row each) and of the virtual node."""

    gn: np.ndarray
    vn: np.ndarray

    def __post_init__(self):
        self.gn = numkit.as_matrix(self.gn)
        self.vn = numkit.as_vector(self.vn)


# ---------------------------------------------------------------------------
# descriptor registry and the field-derived JSON codec
# ---------------------------------------------------------------------------


def matrix():
    """A 2-D float64 array field, stored as a ``numkit`` matrix blob."""
    return field(default=None, metadata={"codec": (
        numkit.as_matrix, numkit.matrix_to_json, numkit.matrix_from_json)})


def vector():
    """A 1-D float64 array field, stored as a single-row matrix blob."""
    return field(default=None, metadata={"codec": (
        numkit.as_vector, numkit.vector_to_json, numkit.vector_from_json)})


class Descriptor:
    """A layer-slot evaluator; subclasses register themselves by ``kind``.

    A new descriptor is a frozen dataclass that sets ``kind`` and defines
    ``__call__``; its JSON form is derived from its fields, so it needs no
    codec.  Array fields declared with ``matrix()``/``vector()`` are coerced
    to float64 on construction.
    """

    kind: ClassVar[str] = ""
    _registry: ClassVar[dict[str, type]] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.kind:
            if cls.kind in Descriptor._registry:
                raise TypeError(f"duplicate descriptor kind {cls.kind!r}")
            Descriptor._registry[cls.kind] = cls

    def __post_init__(self):
        for f in _codec_fields(type(self)):
            value = getattr(self, f.name)
            if f.coerce is not None and not (value is None and f.optional):
                object.__setattr__(self, f.name, f.coerce(value))

    def to_json(self) -> dict:
        return {"kind": self.kind, **to_json(self)}


def descriptor_from_json(blob: dict) -> "Descriptor":
    kind = blob.get("kind")
    try:
        sub = Descriptor._registry[kind]
    except KeyError:
        raise ValueError(f"unknown descriptor kind {kind!r}") from None
    return from_json(sub, blob)


class _FieldCodec(NamedTuple):
    name: str
    optional: bool  # annotated ``X | None``: may be None or missing
    coerce: Callable | None
    encode: Callable
    decode: Callable


# values whose JSON layout is not field-shaped keep their own codecs
_LEAF_CODECS = {
    attention.FeatureMap: (attention.feature_map_to_json,
                           attention.feature_map_from_json),
    attention.Gatv2Score: (attention.gatv2_to_json, attention.gatv2_from_json),
    mlp.MlpParams: (mlp.params_to_json, mlp.params_from_json),
}


def _same(value):
    return value


def _type_codec(tp) -> tuple[Callable, Callable]:
    """(encode, decode) for a value of annotated type ``tp``."""
    if tp in (int, float):
        return _same, tp
    if tp is str:
        return _same, _same
    if tp in _LEAF_CODECS:
        return _LEAF_CODECS[tp]
    if isinstance(tp, type) and issubclass(tp, Descriptor):
        return Descriptor.to_json, descriptor_from_json
    if dataclasses.is_dataclass(tp):
        return to_json, functools.partial(from_json, tp)
    if typing.get_origin(tp) is dict:
        enc, dec = _type_codec(typing.get_args(tp)[1])
        return (lambda d: {k: enc(v) for k, v in d.items()},
                lambda d: {k: dec(v) for k, v in d.items()})
    raise TypeError(f"no JSON codec for field type {tp!r}")


@functools.cache
def _codec_fields(cls) -> tuple[_FieldCodec, ...]:
    """The codec of every dataclass field of ``cls``, resolved once."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        tp, optional = hints[f.name], False
        if typing.get_origin(tp) in (typing.Union, types.UnionType):
            optional = type(None) in typing.get_args(tp)
            (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
        if "codec" in f.metadata:
            coerce, encode, decode = f.metadata["codec"]
        else:
            coerce, (encode, decode) = None, _type_codec(tp)
        table.append(_FieldCodec(f.name, optional, coerce, encode, decode))
    return tuple(table)


def to_json(obj) -> dict:
    """One key per dataclass field; None stays None for optional fields."""
    blob = {}
    for f in _codec_fields(type(obj)):
        value = getattr(obj, f.name)
        blob[f.name] = None if value is None and f.optional else f.encode(value)
    return blob


def from_json(cls, blob: dict):
    """Rebuild a ``cls`` written by :func:`to_json`, decoding by field type."""
    kwargs = {}
    for f in _codec_fields(cls):
        value = blob.get(f.name)
        if value is None and not f.optional:
            label = cls.kind if issubclass(cls, Descriptor) else cls.__name__
            raise ValueError(f"{label}: missing value for field {f.name!r}")
        kwargs[f.name] = None if value is None else f.decode(value)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# virtual-node pools: (vn, gn) -> (pooled vector, aux or None)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanPool(Descriptor):
    kind: ClassVar[str] = "mean_pool"

    def __call__(self, vn, gn):
        return gn.sum(axis=0) / gn.shape[0], None


@dataclass(frozen=True, eq=False)
class FeatureStatsPool(Descriptor):
    """Aggregate kernel-feature statistics of all graph nodes.

    pooled = [ sum_j phi(x_j w_k),  raster-flatten( sum_j phi(x_j w_k) (x) (x_j w_v) ) ]

    which is everything a query needs to resolve kernelized attention in one
    later step.  Output width is (1 + value_dim) * feature_dim.
    """

    kind: ClassVar[str] = "feature_stats_pool"
    w_k: np.ndarray = matrix()
    w_v: np.ndarray = matrix()
    feature_map: attention.FeatureMap = field(default=None)

    def __call__(self, vn, gn):
        P = attention.phi_matrix(gn @ self.w_k, self.feature_map)
        V = gn @ self.w_v
        return np.concatenate([P.sum(axis=0), numkit.flatten_raster(P.T @ V)]), None

    def out_width(self) -> int:
        m = self.feature_map.out_dim(self.w_k.shape[1])
        return m * (1 + self.w_v.shape[1])


@dataclass(frozen=True)
class SoftmaxSelectPool(Descriptor):
    """Softmax-weighted combination of graph-node states.

    Scores read block-structured states: the first ``width`` channels of each
    graph node against the selector stored in the virtual node's channels
    [width, 2*width), scaled by ``scale`` (the amplification factor).
    """

    kind: ClassVar[str] = "softmax_select_pool"
    width: int = 0
    scale: float = 1.0

    def __call__(self, vn, gn):
        d = self.width
        selector = vn[d : 2 * d]
        scores = self.scale * (gn[:, :d] @ selector)
        weights = numkit.softmax(scores)
        return weights @ gn, {"selection_weights": weights}


@dataclass(frozen=True)
class OracleSelectPool(Descriptor):
    """Ideal selection: returns the state of one fixed graph node."""

    kind: ClassVar[str] = "oracle_select_pool"
    index: int = 0

    def __call__(self, vn, gn):
        if not 0 <= self.index < gn.shape[0]:
            raise ValueError(f"selection index {self.index} out of range")
        weights = np.zeros(gn.shape[0])
        weights[self.index] = 1.0
        return gn[self.index].copy(), {"selection_weights": weights}


@dataclass(frozen=True, eq=False)
class Gatv2SelectPool(Descriptor):
    """Softmax selection driven by a trained additive score."""

    kind: ClassVar[str] = "gatv2_select_pool"
    score: attention.Gatv2Score = field(default=None)
    width: int = 0
    scale: float = 1.0

    def __call__(self, vn, gn):
        d = self.width
        selector = vn[d : 2 * d]
        scores = self.scale * attention.gatv2_scores_against(
            selector, gn[:, :d], self.score
        )
        weights = numkit.softmax(scores)
        return weights @ gn, {"selection_weights": weights}


# ---------------------------------------------------------------------------
# virtual-node updates: (vn, pooled) -> new vn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CopyPooled(Descriptor):
    kind: ClassVar[str] = "copy_pooled"

    def __call__(self, vn, pooled):
        return pooled.copy()


@dataclass(frozen=True)
class KeepVn(Descriptor):
    kind: ClassVar[str] = "keep_vn"

    def __call__(self, vn, pooled):
        return vn.copy()


@dataclass(frozen=True, eq=False)
class ConstVn(Descriptor):
    kind: ClassVar[str] = "const_vn"
    values: np.ndarray = vector()

    def __call__(self, vn, pooled):
        return self.values.copy()


@dataclass(frozen=True, eq=False)
class SelectorAdvance(Descriptor):
    """Store the selected feature and stage the next selector.

    new vn = [pooled[:width], next_selector or zeros, 0] in block layout
    [feature | selector | placeholder].
    """

    kind: ClassVar[str] = "selector_advance"
    width: int = 0
    next_selector: np.ndarray | None = vector()

    def __call__(self, vn, pooled):
        d = self.width
        nxt = self.next_selector if self.next_selector is not None else np.zeros(d)
        return np.concatenate([pooled[:d], nxt, [0.0]])


# ---------------------------------------------------------------------------
# virtual-to-graph messages: (gn, vn) -> (n, width) message matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CopyVnMsg(Descriptor):
    """Every graph node receives the virtual node's state verbatim."""

    kind: ClassVar[str] = "copy_vn_msg"

    def __call__(self, gn, vn):
        return np.tile(vn, (gn.shape[0], 1))


# ---------------------------------------------------------------------------
# graph-node updates: (gn, msg, gg) -> new gn matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityGn(Descriptor):
    kind: ClassVar[str] = "identity_gn"

    def __call__(self, gn, msg, gg):
        return gn.copy()


@dataclass(frozen=True, eq=False)
class LinearGn(Descriptor):
    kind: ClassVar[str] = "linear_gn"
    matrix: np.ndarray = matrix()

    def __call__(self, gn, msg, gg):
        return gn @ self.matrix


@dataclass(frozen=True, eq=False)
class AffineFromVn(Descriptor):
    """new x_i = activation(x_i + message_i @ matrix + bias).

    With the virtual node carrying the input mean, this is exactly the
    mean-mixing half of a permutation-equivariant linear layer.
    """

    kind: ClassVar[str] = "affine_from_vn"
    matrix: np.ndarray = matrix()
    bias: np.ndarray = vector()
    activation: str | None = None

    def __call__(self, gn, msg, gg):
        out = gn + msg @ self.matrix + self.bias
        if self.activation is not None:
            out = numkit.activation_fn(self.activation)(out)
        return out


@dataclass(frozen=True, eq=False)
class ResolveQueryUpdate(Descriptor):
    """Resolve each node's kernel query against pooled feature statistics.

    The message carries [key_sum | raster(kv_sum)]; the update computes

        new x_i = phi(x_i w_q) @ kv_sum / phi(x_i w_q) @ key_sum
    """

    kind: ClassVar[str] = "resolve_query_update"
    w_q: np.ndarray = matrix()
    feature_map: attention.FeatureMap = field(default=None)
    value_dim: int = 0

    def __call__(self, gn, msg, gg):
        m = self.feature_map.out_dim(self.w_q.shape[1])
        P_q = attention.phi_matrix(gn @ self.w_q, self.feature_map)
        key_sum = msg[0, :m]
        kv_sum = msg[0, m:].reshape(m, self.value_dim)
        den = P_q @ key_sum
        if not np.all(den > 0.0):
            raise ValueError("query resolution denominator not positive")
        return (P_q @ kv_sum) / den[:, None]


@dataclass(frozen=True, eq=False)
class ScoreAccumulate(Descriptor):
    """Accumulate one attention term against the broadcast feature.

    States are block-structured [x | acc | mass].  With y the first ``width``
    channels of the received message,

        acc  += exp(score(x_i, y)) * (y @ w_v)
        mass += exp(score(x_i, y))

    and x stays fixed.
    """

    kind: ClassVar[str] = "score_accumulate"
    w_q: np.ndarray = matrix()
    w_k: np.ndarray = matrix()
    w_v: np.ndarray = matrix()
    width: int = 0

    def __call__(self, gn, msg, gg):
        d = self.width
        y = msg[0, :d]
        yk = y @ self.w_k
        yv = y @ self.w_v
        out = gn.copy()
        # row-by-row on purpose: batched matmuls round differently than
        # per-row products, and accumulation layers are verified against a
        # per-row reference trace down to the last bit
        for i in range(gn.shape[0]):
            e = np.exp(float((gn[i, :d] @ self.w_q) @ yk))
            out[i, d : 2 * d] = gn[i, d : 2 * d] + e * yv
            out[i, 2 * d] = gn[i, 2 * d] + e
        return out


@dataclass(frozen=True)
class RatioUpdate(Descriptor):
    """Finish accumulation: [x | acc | mass] -> [acc / mass | 0 | 0]."""

    kind: ClassVar[str] = "ratio_update"
    width: int = 0

    def __call__(self, gn, msg, gg):
        d = self.width
        mass = gn[:, 2 * d]
        if not np.all(mass > 0.0):
            raise ValueError("accumulated mass not positive")
        out = np.zeros_like(gn)
        out[:, :d] = gn[:, d : 2 * d] / mass[:, None]
        return out


@dataclass(frozen=True)
class AddPooledNeighbors(Descriptor):
    """new x_i = x_i + summed graph-neighbor messages (zero if channel absent)."""

    kind: ClassVar[str] = "add_pooled_neighbors"

    def __call__(self, gn, msg, gg):
        return gn.copy() if gg is None else gn + gg


# ---------------------------------------------------------------------------
# graph-to-graph pair messages: pooled over graph neighbors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityPairMsg(Descriptor):
    """Message from neighbor j to i is j's state; pooled by sum."""

    kind: ClassVar[str] = "identity_pair_msg"

    def pooled(self, gn, neighbor_rows):
        out = np.zeros_like(gn)
        for i, nbrs in enumerate(neighbor_rows):
            for j in nbrs:
                out[i] += gn[j]
        return out


# ---------------------------------------------------------------------------
# layers and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MpnnVnLayer:
    """One synchronous heterogeneous layer.

    ``gn_gn_msg`` None means the simplified form (no graph-to-graph channel).
    """

    vn_pool: Descriptor
    vn_update: Descriptor
    gn_msg: Descriptor
    gn_update: Descriptor
    gn_gn_msg: Descriptor | None = None


def _graph_neighbor_rows(g: Graph) -> list[list[int]]:
    """Neighbor lists among graph nodes only, as gn-row indices."""
    nodes = g.graph_nodes
    row_of = {node: i for i, node in enumerate(nodes)}
    rows: list[list[int]] = [[] for _ in nodes]
    for i, j in g.edges:
        if i == g.vn_index or j == g.vn_index:
            continue
        rows[row_of[i]].append(row_of[j])
        rows[row_of[j]].append(row_of[i])
    return [sorted(r) for r in rows]


def run_layer(g: Graph, s: NodeState,
              layer: MpnnVnLayer) -> tuple[NodeState, dict | None]:
    """Apply one layer with a synchronous barrier.

    All messages and pools read the pre-layer state ``s``; nothing observes a
    mid-layer update.  Returns the post-layer state and the pool's aux output
    (None for plain pools; selection pools give ``selection_weights``).
    """
    if not g.has_vn:
        raise ValueError("run_layer requires a graph with a virtual node")
    n_graph = g.n - 1
    if s.gn.shape[0] != n_graph:
        raise ValueError(
            f"state has {s.gn.shape[0]} graph-node rows, graph has {n_graph}"
        )
    pooled, aux = layer.vn_pool(s.vn, s.gn)
    new_vn = layer.vn_update(s.vn, pooled)
    msg = layer.gn_msg(s.gn, s.vn)
    gg = None
    if layer.gn_gn_msg is not None:
        gg = layer.gn_gn_msg.pooled(s.gn, _graph_neighbor_rows(g))
    new_gn = layer.gn_update(s.gn, msg, gg)
    return NodeState(new_gn, new_vn), aux


@dataclass(eq=False)
class LayerProgram:
    """An ordered layer list plus input/output conventions.

    ``gn_init`` is "identity" (graph-node state = input row) or
    ("pad", width): input row left-aligned into a zero row of that width.
    ``gn_out`` is None (full state) or (lo, hi): output = state[:, lo:hi].
    ``provenance`` names the compiler that produced the program; ``metadata``
    carries plain-JSON config echoes (fit errors, bounds, seeds).
    """

    layers: list[MpnnVnLayer]
    vn_init: np.ndarray
    gn_init: str | tuple[str, int] = "identity"
    gn_out: tuple[int, int] | None = None
    provenance: str = "hand-built"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vn_init = numkit.as_vector(self.vn_init)

    def initial_state(self, X) -> NodeState:
        X = numkit.as_matrix(X)
        if self.gn_init == "identity":
            gn = X.copy()
        else:
            tag, width = self.gn_init
            if tag != "pad":
                raise ValueError(f"unknown gn_init {self.gn_init!r}")
            if width < X.shape[1]:
                raise ValueError("pad width smaller than the input dimension")
            gn = np.zeros((X.shape[0], width))
            gn[:, : X.shape[1]] = X
        return NodeState(gn, self.vn_init.copy())

    def extract(self, s: NodeState) -> np.ndarray:
        if self.gn_out is None:
            return s.gn.copy()
        lo, hi = self.gn_out
        return s.gn[:, lo:hi].copy()

    def execute(self, g: Graph, X) -> np.ndarray:
        return self.extract(run_program(g, self.initial_state(X), self))


def run_program(g: Graph, s0: NodeState, prog: LayerProgram,
                observe: Callable | None = None) -> NodeState:
    """Run all layers in order; the empty program is the identity.

    ``observe(k, state, aux)``, when given, is called after layer k for
    k = 1..L with the post-layer state and the pool's aux output (None for
    plain pools); it keeps whatever it needs.
    """
    s = s0
    for k, layer in enumerate(prog.layers, start=1):
        s, aux = run_layer(g, s, layer)
        if observe is not None:
            observe(k, s, aux)
    return s


# ---------------------------------------------------------------------------
# program persistence
# ---------------------------------------------------------------------------


def program_to_json(prog: LayerProgram) -> dict:
    gn_init = prog.gn_init
    if isinstance(gn_init, tuple):
        gn_init = list(gn_init)
    return {
        "format": "layer-program/v1",
        "provenance": prog.provenance,
        "metadata": prog.metadata,
        "vn_init": numkit.vector_to_json(prog.vn_init),
        "gn_init": gn_init,
        "gn_out": None if prog.gn_out is None else list(prog.gn_out),
        "layers": [to_json(l) for l in prog.layers],
    }


def program_from_json(blob: dict) -> LayerProgram:
    if blob.get("format") != "layer-program/v1":
        raise ValueError("not a layer-program/v1 document")
    # composite descriptors contributed by the compilers register on import
    from . import constructions  # noqa: F401

    gn_init = blob["gn_init"]
    if isinstance(gn_init, list):
        gn_init = (gn_init[0], int(gn_init[1]))
    gn_out = blob.get("gn_out")
    return LayerProgram(
        layers=[from_json(MpnnVnLayer, l) for l in blob["layers"]],
        vn_init=numkit.vector_from_json(blob["vn_init"]),
        gn_init=gn_init,
        gn_out=None if gn_out is None else (int(gn_out[0]), int(gn_out[1])),
        provenance=blob.get("provenance", "unknown"),
        metadata=blob.get("metadata", {}),
    )


def save_program(prog: LayerProgram, path) -> None:
    numkit.dump_json(program_to_json(prog), path)


def load_program(path) -> LayerProgram:
    return program_from_json(numkit.load_json(path))

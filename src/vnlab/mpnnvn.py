"""Message-passing layers over a node set with one virtual node.

A layer updates two node kinds synchronously from the pre-layer state:

* the virtual node receives one pooled message computed from all graph-node
  states (the pool may be a plain mean, feature statistics, or a
  softmax-weighted selection, which is how attention-style reads are
  expressed), then applies its update;
* every graph node reads the virtual node's state vector, then applies its
  update.

No graph node reads another, so a layer acts on the set of graph-node rows
and the VM needs no graph: ``LayerProgram.execute`` is the one function that
takes one, and checks it against the input once per program.

``run_program`` is the one loop over a program's layers.  Callers that need
intermediate results (per-layer selection weights, a state at some time)
pass an ``observe(k, state, aux)`` callback instead of asking for a trace.

Every function slot is filled by a *descriptor*: a frozen dataclass with a
registered ``kind`` and a ``__call__``, either closed-form or backed by
trained MLP weights.  Descriptors need no codec of their own: ``to_json`` and
``from_json`` derive the JSON layout from the dataclass fields (one key per
field, decoded by the field's type).  Array fields are declared with
``matrix()`` or ``vector()``.

Programs (ordered layer lists plus initial-state and output conventions)
persist as ``layer-program/v2`` documents: a ``descriptors`` table holds each
distinct slot descriptor once, and each layer names its three slots by index
into it, so a deep program's one shared ``ScoreAccumulate`` is stored once
and is one object again after loading.  ``layer-program/v1`` documents, whose
layers hold their descriptors inline, still load.

Determinism note: pooled reductions always run in ascending node-index order
(numpy axis reductions over row-major arrays), so reruns are bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import json
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
    if not isinstance(kind, str):
        raise ValueError(f"field 'kind' must be a string, got {kind!r}")
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


def _decode_int(value, least: int = 1) -> int:
    """A JSON integer >= ``least``.  Descriptor ints are widths and sizes,
    so at least 1, unless a field's codec says otherwise (an index)."""
    got = numkit.scalar_from_json(value, int)
    if got < least:
        raise ValueError(f"value must be at least {least}, got {got}")
    return got


def _type_codec(tp) -> tuple[Callable, Callable]:
    """(encode, decode) for a value of annotated type ``tp``."""
    if tp is int:
        return _same, _decode_int
    if tp in (float, str):
        return _same, functools.partial(numkit.scalar_from_json, tp=tp)
    if tp in _LEAF_CODECS:
        return _LEAF_CODECS[tp]
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
    label = cls.kind if issubclass(cls, Descriptor) else cls.__name__
    numkit.require_object(blob, label)
    for f in _codec_fields(cls):
        value = blob.get(f.name)
        if value is None and not f.optional:
            raise ValueError(f"{label}: missing value for field {f.name!r}")
        try:
            kwargs[f.name] = None if value is None else f.decode(value)
        except ValueError as e:
            raise ValueError(f"{label}: field {f.name!r}: {e}") from None
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
    index: int = field(default=0, metadata={"codec": (
        None, _same, functools.partial(_decode_int, least=0))})

    def __call__(self, vn, gn):
        if not 0 <= self.index < gn.shape[0]:
            raise ValueError(f"selection index {self.index} out of range")
        weights = np.zeros(gn.shape[0])
        weights[self.index] = 1.0
        return gn[self.index].copy(), {"selection_weights": weights}


@dataclass(frozen=True, eq=False)
class Gatv2SelectPool(Descriptor):
    """Softmax selection by an additive score against the staged selector.

    The deep compiler builds ``attention.l1_score``: -|x - selector|_1.
    """

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
# graph-node updates: (gn, vn) -> new gn matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityGn(Descriptor):
    kind: ClassVar[str] = "identity_gn"

    def __call__(self, gn, vn):
        return gn.copy()


@dataclass(frozen=True, eq=False)
class LinearGn(Descriptor):
    kind: ClassVar[str] = "linear_gn"
    matrix: np.ndarray = matrix()

    def __call__(self, gn, vn):
        return gn @ self.matrix


@dataclass(frozen=True, eq=False)
class AffineFromVn(Descriptor):
    """new x_i = activation(x_i + vn @ matrix + bias).

    With the virtual node carrying the input mean, this is exactly the
    mean-mixing half of a permutation-equivariant linear layer.
    """

    kind: ClassVar[str] = "affine_from_vn"
    matrix: np.ndarray = matrix()
    bias: np.ndarray = vector()
    activation: str | None = None

    def __call__(self, gn, vn):
        out = gn + vn @ self.matrix + self.bias
        if self.activation is not None:
            out = numkit.activation_fn(self.activation)(out)
        return out


@dataclass(frozen=True, eq=False)
class ResolveQueryUpdate(Descriptor):
    """Resolve each node's kernel query against pooled feature statistics.

    The virtual node carries [key_sum | raster(kv_sum)]; the update computes

        new x_i = phi(x_i w_q) @ kv_sum / phi(x_i w_q) @ key_sum
    """

    kind: ClassVar[str] = "resolve_query_update"
    w_q: np.ndarray = matrix()
    feature_map: attention.FeatureMap = field(default=None)
    value_dim: int = 0

    def __call__(self, gn, vn):
        m = self.feature_map.out_dim(self.w_q.shape[1])
        P_q = attention.phi_matrix(gn @ self.w_q, self.feature_map)
        key_sum = vn[:m]
        kv_sum = vn[m:].reshape(m, self.value_dim)
        den = P_q @ key_sum
        if not np.all(den > 0.0):
            raise ValueError("query resolution denominator not positive")
        return (P_q @ kv_sum) / den[:, None]


@dataclass(frozen=True, eq=False)
class StageQuery(Descriptor):
    """Stage each node's query: [x | acc | mass | q] -> q = x @ w_q.

    The query never changes during a run, so the deep program computes it
    once, in its first layer, and every ``ScoreAccumulate`` reads it back.
    """

    kind: ClassVar[str] = "stage_query"
    w_q: np.ndarray = matrix()
    width: int = 0

    def __call__(self, gn, vn):
        d = self.width
        out = gn.copy()
        # einsum, not @, so each row is the per-row einsum of the
        # reference trace (see ScoreAccumulate)
        out[:, 2 * d + 1 : 3 * d + 1] = np.einsum("ia,ac->ic", gn[:, :d],
                                                  self.w_q)
        return out


@dataclass(frozen=True, eq=False)
class ScoreAccumulate(Descriptor):
    """Accumulate one attention term against the virtual node's feature.

    States are block-structured [x | acc | mass | q].  With y the first
    ``width`` channels of the virtual node's state,

        acc  += exp(q_i . (y @ w_k)) * (y @ w_v)
        mass += exp(q_i . (y @ w_k))

    and x and q stay fixed.  q_i is read from the state, where
    ``StageQuery`` put it; with ``w_q`` given (documents saved before the
    query was staged, whose states are [x | acc | mass]) it is recomputed
    as x_i @ w_q instead, in the same float operations.
    """

    kind: ClassVar[str] = "score_accumulate"
    w_q: np.ndarray | None = matrix()
    w_k: np.ndarray = matrix()
    w_v: np.ndarray = matrix()
    width: int = 0

    def __call__(self, gn, vn):
        d = self.width
        y = vn[:d]
        yk = y @ self.w_k
        yv = y @ self.w_v
        # einsum, not @: a batched BLAS matmul rounds differently from
        # per-row products, but einsum's own loops reduce each row in the
        # same order whatever the batch, so every row here is bitwise the
        # per-row einsum the reference trace computes
        if self.w_q is None:
            q = gn[:, 2 * d + 1 : 3 * d + 1]
        else:
            q = np.einsum("ia,ac->ic", gn[:, :d], self.w_q)
        e = np.exp(np.einsum("ic,c->i", q, yk))
        out = gn.copy()
        out[:, d : 2 * d] += e[:, None] * yv
        out[:, 2 * d] += e
        return out


@dataclass(frozen=True)
class RatioUpdate(Descriptor):
    """Finish accumulation: [x | acc | mass | q] -> [acc / mass | 0 | 0 | 0].

    Also reads [x | acc | mass] states, which have no q block.
    """

    kind: ClassVar[str] = "ratio_update"
    width: int = 0

    def __call__(self, gn, vn):
        d = self.width
        mass = gn[:, 2 * d]
        if not np.all(mass > 0.0):
            raise ValueError("accumulated mass not positive")
        out = np.zeros_like(gn)
        out[:, :d] = gn[:, d : 2 * d] / mass[:, None]
        return out


# ---------------------------------------------------------------------------
# layers and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MpnnVnLayer:
    """One synchronous layer: virtual-node pool and update, graph-node update."""

    vn_pool: Descriptor
    vn_update: Descriptor
    gn_update: Descriptor


def run_layer(s: NodeState, layer: MpnnVnLayer) -> tuple[NodeState, dict | None]:
    """Apply one layer with a synchronous barrier.

    The pool and every graph-node update read the pre-layer state ``s``:
    each graph node sees the pre-layer virtual-node vector ``s.vn``, so
    nothing observes a mid-layer update.  Returns the post-layer state and
    the pool's aux output (None for plain pools; selection pools give
    ``selection_weights``).  The state's rows are the node set; checking
    them against a host graph is ``LayerProgram.execute``'s job.
    """
    pooled, aux = layer.vn_pool(s.vn, s.gn)
    new_vn = layer.vn_update(s.vn, pooled)
    new_gn = layer.gn_update(s.gn, s.vn)
    return NodeState(new_gn, new_vn), aux


@dataclass(eq=False)
class LayerProgram:
    """An ordered layer list plus input/output conventions.

    ``gn_init`` is "identity" (graph-node state = input row) or
    ("pad", width): input row left-aligned into a zero row of that width.
    ``gn_out`` is None (full state) or (lo, hi): output = state[:, lo:hi].
    ``provenance`` names the compiler that produced the program; ``metadata``
    carries plain-JSON config echoes (fit errors, bounds, seeds).

    A deep program (``metadata["compiler"] == "deep"``) has one selection
    layer per input row, so it only simulates attention on the node count
    ``metadata["n"]`` it was compiled for: ``initial_state`` raises
    ``ValueError`` naming both counts on any other, which makes ``execute``
    and every caller that starts from ``initial_state`` refuse it.  Other
    programs run on any number of rows.
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
        n = self.metadata.get("n")
        if self.metadata.get("compiler") == "deep" and X.shape[0] != n:
            raise ValueError(f"deep program was compiled for n={n} graph "
                             f"nodes, input has {X.shape[0]} rows")
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
        """Run on the rows of ``X``: the one VM function that reads a graph.

        ``g`` must have a virtual node and one graph node per row of ``X``.
        """
        if not g.has_vn:
            raise ValueError("execute requires a graph with a virtual node")
        s0 = self.initial_state(X)
        if s0.gn.shape[0] != g.n - 1:
            raise ValueError(
                f"state has {s0.gn.shape[0]} graph-node rows, graph has {g.n - 1}"
            )
        return self.extract(run_program(s0, self))


def run_program(s0: NodeState, prog: LayerProgram,
                observe: Callable | None = None) -> NodeState:
    """Run all layers in order; the empty program is the identity.

    The layers act on ``s0``'s node set and read no graph; the host graph is
    checked once per program, by ``LayerProgram.execute``.

    ``observe(k, state, aux)``, when given, is called after layer k for
    k = 1..L with the post-layer state and the pool's aux output (None for
    plain pools); it keeps whatever it needs.
    """
    s = s0
    for k, layer in enumerate(prog.layers, start=1):
        s, aux = run_layer(s, layer)
        if observe is not None:
            observe(k, s, aux)
    return s


# ---------------------------------------------------------------------------
# program persistence
# ---------------------------------------------------------------------------


_V1, _V2 = "layer-program/v1", "layer-program/v2"
_SLOTS = tuple(f.name for f in dataclasses.fields(MpnnVnLayer))


def program_to_json(prog: LayerProgram) -> dict:
    """The program as a ``layer-program/v2`` document.

    ``descriptors`` holds each distinct slot descriptor once, in order of
    first use (layer order, then ``vn_pool``, ``vn_update``, ``gn_update``);
    each layer maps its three slots to indexes into it.  Descriptors are told apart by their encoded
    value, so equal descriptors share one entry whether or not they are one
    object, and a program re-saves to the same bytes after a reload.
    """
    gn_init = prog.gn_init
    if isinstance(gn_init, tuple):
        gn_init = list(gn_init)
    descriptors, index_of_value, index_of_obj = [], {}, {}

    def ref(slot: Descriptor) -> int:
        # keyed by id() too, so a shared object is encoded once; ``prog``
        # keeps every slot alive, so no id is reused meanwhile
        if id(slot) not in index_of_obj:
            blob = slot.to_json()
            key = json.dumps(blob, sort_keys=True)
            if key not in index_of_value:
                index_of_value[key] = len(descriptors)
                descriptors.append(blob)
            index_of_obj[id(slot)] = index_of_value[key]
        return index_of_obj[id(slot)]

    layers = [{name: ref(getattr(l, name)) for name in _SLOTS}
              for l in prog.layers]
    return {
        "format": _V2,
        "provenance": prog.provenance,
        "metadata": prog.metadata,
        "vn_init": numkit.vector_to_json(prog.vn_init),
        "gn_init": gn_init,
        "gn_out": None if prog.gn_out is None else list(prog.gn_out),
        "descriptors": descriptors,
        "layers": layers,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_descriptor(where: str, blob) -> Descriptor:
    if not isinstance(blob, dict):
        raise ValueError(f"{where} must be an object, got {blob!r}")
    try:
        return descriptor_from_json(blob)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _decode_layer(i: int, layer, table: list) -> MpnnVnLayer:
    """Layer ``i``: each slot is an index into ``table`` (v2) or an inline
    descriptor object (v1)."""
    if not isinstance(layer, dict):
        raise ValueError(f"layers[{i}] must be an object, got {layer!r}")
    # a graph-to-graph channel is never dropped silently
    if layer.get("gn_gn_msg") is not None:
        raise ValueError(f"layers[{i}]: graph-to-graph messages "
                         "('gn_gn_msg') are not supported")
    slots = {}
    for name in _SLOTS:
        where, value = f"layers[{i}].{name}", layer.get(name)
        if value is None:
            raise ValueError(f"{where}: missing value for MpnnVnLayer "
                             f"field {name!r}")
        if isinstance(value, dict):
            slots[name] = _decode_descriptor(where, value)
        elif _is_int(value) and 0 <= value < len(table):
            slots[name] = table[value]
        else:
            raise ValueError(
                f"{where} must be an index into the {len(table)}-entry "
                f"descriptor table or a descriptor object, got {value!r}")
    return MpnnVnLayer(**slots)


def program_from_json(blob: dict) -> LayerProgram:
    """Read a ``layer-program/v2`` or ``layer-program/v1`` document.

    Each v2 table entry is decoded once, and every layer that refers to it
    gets the same descriptor object.  A v1 document is read by the same
    path with an empty table: its slots hold descriptors inline.
    """
    fmt = blob.get("format")
    if fmt not in (_V1, _V2):
        raise ValueError(f"not a {_V2} or {_V1} document: format {fmt!r}")
    for name in ("layers", "vn_init") + (("descriptors",) if fmt == _V2 else ()):
        if name not in blob:
            raise ValueError(f"{fmt}: missing field {name!r}")
    # composite descriptors contributed by the compilers register on import
    from . import constructions  # noqa: F401

    entries = blob.get("descriptors", [])
    if not isinstance(entries, list):
        raise ValueError(f"descriptors must be a list, got {entries!r}")
    table = [_decode_descriptor(f"descriptors[{j}]", entry)
             for j, entry in enumerate(entries)]
    layers = [_decode_layer(i, layer, table)
              for i, layer in enumerate(blob["layers"])]
    gn_init = blob.get("gn_init")
    if gn_init != "identity":
        if not (isinstance(gn_init, list) and len(gn_init) == 2
                and gn_init[0] == "pad" and _is_int(gn_init[1])):
            raise ValueError(
                f"gn_init must be \"identity\" or [\"pad\", int], got {gn_init!r}")
        gn_init = tuple(gn_init)
    gn_out = blob.get("gn_out")
    if gn_out is not None:
        if not (isinstance(gn_out, list) and len(gn_out) == 2
                and all(map(_is_int, gn_out))):
            raise ValueError(f"gn_out must be null or two ints, got {gn_out!r}")
        gn_out = tuple(gn_out)
    provenance = blob.get("provenance", "unknown")
    if not isinstance(provenance, str):
        raise ValueError(f"provenance must be a string, got {provenance!r}")
    metadata = blob.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be an object, got {metadata!r}")
    if metadata.get("compiler") == "deep":
        # the node count and dimension it runs on; a program without them
        # loads, and refuses every input (``LayerProgram.initial_state``)
        for name in ("n", "d"):
            value = metadata.get(name)
            if name in metadata and not (_is_int(value) and value >= 1):
                raise ValueError(f"metadata field {name!r} of a deep program "
                                 f"must be an integer >= 1, got {value!r}")
    return LayerProgram(
        layers=layers,
        vn_init=numkit.vector_from_json(blob["vn_init"]),
        gn_init=gn_init,
        gn_out=gn_out,
        provenance=provenance,
        metadata=metadata,
    )


def save_program(prog: LayerProgram, path) -> None:
    numkit.dump_json(program_to_json(prog), path)


def load_program(path) -> LayerProgram:
    return program_from_json(numkit.load_json(path))

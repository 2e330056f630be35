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
intermediate results (selection weights, a state at some time) pass an
``observe(ks, state, vn_rows, weights)`` callback instead of asking for a
trace; it is called once per step, a step being one layer or one chunk of
selection rounds.  The loop walks the program's runs, stretches of layers
that hold the same three slot objects (``LayerProgram.runs``).  A run of
selection rounds (rounds 2..n of a compiled deep program: a round-indexed
selection pool, a ``SelectorAdvance`` staging zeros and a
``ScoreAccumulate``) never writes block ``x``, so it is computed a chunk of
rounds at a time, observed or not, by three stacked calls: the pool's
``select``, ``SelectorAdvance.stage`` and ``ScoreAccumulate.fold``, which
folds the chunk's score terms into ``acc`` and ``mass`` by one reduce each,
in round order.  Every state, virtual-node row, selection weight and output
is bitwise what ``run_layer``, applied to one layer after another, gives:
the one-layer ``__call__`` of each pool, of ``SelectorAdvance`` and of
``ScoreAccumulate`` is the one-round case of the same stacked method.
Every other run goes layer by layer through ``run_layer``.

Every function slot is filled by a *descriptor*: a frozen dataclass with a
registered ``kind`` and a ``__call__``, either closed-form or backed by
built MLP weights.  Descriptors need no codec of their own: ``to_json`` and
``from_json`` derive the JSON layout from the dataclass fields (one key per
field, decoded by the field's type).  Array fields are declared with
``matrix()`` or ``vector()``.

Programs (ordered layer lists plus the virtual node's initial state) persist
as ``layer-program/v3`` documents: a ``descriptors`` table holds each
distinct slot descriptor once, and ``layers`` is a list of runs, each naming
its three slots by index into the table plus a ``repeat`` count of the
consecutive layers that use them.  A compiled deep program selects through
one round-indexed pool (oracle, or softmax with an n x d ``selectors``
table), so its rounds 2..n are one run: 7 entries in 4 runs for any n.
``save_program`` writes a document on one line, with sorted keys and no
spaces; ``load_program`` reads it and also documents written indented.
``layer-program/v2`` documents (one entry per layer, no ``repeat``) and
``layer-program/v1`` documents (whose layers hold their descriptors inline)
still load and run as before.  Both record the state layout as
``gn_init``/``gn_out``, and one whose keys disagree with its layers is
refused; v3 does not record them, since the layers imply both.

Determinism note: pooled reductions always run in ascending node-index order
(numpy axis reductions over row-major arrays), so reruns are bit-identical.

Graph-node states are named blocks, one (rows, width) array each.  A
program with no deep descriptor runs on one block ``x``.  A deep program's
state is ``x``, ``acc``, ``mass`` and ``q`` (``[x | acc | mass | q]`` in
column order).  Building a program derives its layout, its node count and
its output (block ``x``) from its descriptors alone; a run checks only its
input (see ``LayerProgram``).  Each descriptor declares the blocks it reads
or returns (``Descriptor.blocks``), and a graph-node update returns the
whole new block mapping, sharing every block it leaves alone:

* every pool reads ``x`` only (a selection pool returns ``x`` rows);
* ``StageQuery`` reads ``x`` and returns a new ``q``, sharing the rest;
* ``ScoreAccumulate`` reads ``q`` (or ``x``, given ``w_q``), ``acc`` and
  ``mass``, and returns new ``acc`` and ``mass``, sharing ``x`` and ``q``;
* ``RatioUpdate`` reads ``acc`` and ``mass`` and returns a new ``x`` and
  new zero blocks, sharing nothing.

States are not copied between layers: ``initial_state`` coerces the input
once, descriptors return C-contiguous float64 arrays and never write into
their arguments, so consecutive states may share blocks.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import json
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import attention, mlp, numkit
from .graphs import Graph


@dataclass
class NodeState:
    """States of the graph nodes and of the virtual node.

    ``gn`` maps block names to 2-D float64 arrays with one row per graph
    node, in column order (``{"x": ...}``, or ``x``, ``acc``, ``mass`` and
    ``q`` for a deep program); ``vn`` is a 1-D float64 array.  Other states
    may share any of these arrays, so none is ever written.
    """

    gn: dict[str, np.ndarray]
    vn: np.ndarray


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

    ``blocks`` names the graph-node blocks a pool or graph-node update reads
    or returns.  A descriptor that names a block other than ``x`` is a deep
    descriptor; a program's deep descriptors share one ``width``, which
    sets its block layout.
    """

    kind: ClassVar[str] = ""
    blocks: ClassVar[tuple[str, ...]] = ("x",)
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
    if kind == "gatv2_select_pool":  # older documents' additive pool
        if blob.get("score") is None:
            raise ValueError(f"{kind}: missing value for field 'score'")
        return from_json(SoftmaxSelectPool, blob, kind)
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
                lambda d: {k: dec(v) for k, v
                           in numkit.require_object(d, "mapping").items()})
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


def from_json(cls, blob: dict, label: str | None = None):
    """Rebuild a ``cls`` written by :func:`to_json`, decoding by field type.
    A key that is no field (nor ``kind``) is refused, so a misspelt optional
    field is not read as missing; errors name ``label`` or the kind."""
    kwargs = {}
    if label is None:
        label = cls.kind if issubclass(cls, Descriptor) else cls.__name__
    numkit.require_object(blob, label)
    fields = _codec_fields(cls)
    unknown = sorted(blob.keys() - {"kind", *(f.name for f in fields)})
    if unknown:
        raise ValueError(f"{label}: unknown field {unknown[0]!r}")
    for f in fields:
        value = blob.get(f.name)
        if value is None and not f.optional:
            raise ValueError(f"{label}: missing value for field {f.name!r}")
        try:
            kwargs[f.name] = None if value is None else f.decode(value)
        except ValueError as e:
            raise ValueError(f"{label}: field {f.name!r}: {e}") from None
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# virtual-node pools: (vn, gn blocks, layer number) -> (pooled vector,
# selection weights or None)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanPool(Descriptor):
    kind: ClassVar[str] = "mean_pool"

    def __call__(self, vn, gn, k):
        x = gn["x"]
        return x.sum(axis=0) / x.shape[0], None


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

    def __call__(self, vn, gn, k):
        x = gn["x"]
        P = attention.phi_matrix(x @ self.w_k, self.feature_map)
        V = x @ self.w_v
        return np.concatenate([P.sum(axis=0), numkit.flatten_raster(P.T @ V)]), None


@dataclass(frozen=True, eq=False)
class SoftmaxSelectPool(Descriptor):
    """Softmax-weighted combination of the graph nodes' ``x`` blocks.

    Each row's first ``width`` channels are scored against a selector, times
    ``scale`` (the amplification, finite and positive): x . selector with
    ``score`` None, else the additive ``score`` (the deep compiler builds
    ``attention.l1_score``, -|x - selector|_1).  Layer k reads row k - 1 of
    the ``selectors`` table; without one (older documents, hand-built
    programs) the selector staged in the virtual node's [width, 2*width).
    """

    kind: ClassVar[str] = "softmax_select_pool"
    width: int = 0
    scale: float = 1.0
    score: attention.Gatv2Score | None = None
    selectors: np.ndarray | None = matrix()

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"{self.kind}: field 'scale' must be finite "
                             f"and positive, got {self.scale!r}")

    def select(self, vn, gn, ks: range, weigh: bool = True):
        """The pooled rows of layers ``ks`` and their selection weights, one
        row per layer: ((rounds, x width), (rounds, rows)).  Every pooled
        row reads only ``x``, and a staged selector (no table) serves one
        layer.  Each round's scores, softmax and weighted sum are stacked
        1-D products and a row-wise softmax, so row j is bitwise what layer
        ``ks[j]`` alone gets; the weights are built whatever ``weigh``."""
        d = self.width
        x = gn["x"]
        selectors = vn[None, d : 2 * d] if self.selectors is None \
            else self.selectors[ks.start - 1 : ks.stop - 1]
        scores = np.matmul(x[None, :, :d], selectors[:, :, None])[:, :, 0] \
            if self.score is None \
            else attention.gatv2_scores_against(selectors, x[:, :d],
                                                self.score)
        weights = numkit.softmax(self.scale * scores)
        return np.matmul(weights[:, None], x)[:, 0], weights

    def __call__(self, vn, gn, k):
        pooled, weights = self.select(vn, gn, range(k, k + 1))
        return pooled[0], weights[0]


@dataclass(frozen=True)
class OracleSelectPool(Descriptor):
    """Ideal selection: returns the ``x`` row of one graph node.

    With ``index`` None (the deep compiler's one shared pool) layer k
    selects row k - 1; with an int (documents saved before selection was
    round-indexed) every layer selects that fixed row.
    """

    kind: ClassVar[str] = "oracle_select_pool"
    index: int | None = field(default=None, metadata={"codec": (
        None, _same, functools.partial(_decode_int, least=0))})

    def select(self, vn, gn, ks: range, weigh: bool = True):
        """The ``x`` rows layers ``ks`` select, one row per layer, and, with
        ``weigh``, their one-hot selection weights as the rows of one
        (rounds, rows) array (else None: nothing builds them)."""
        x = gn["x"]
        rows = np.arange(ks.start - 1, ks.stop - 1) if self.index is None \
            else np.full(len(ks), self.index)
        outside = rows[(rows < 0) | (rows >= x.shape[0])]
        if outside.size:
            raise ValueError(f"selection index {outside[0]} out of range")
        weights = None
        if weigh:
            weights = np.zeros((rows.size, x.shape[0]))
            weights[np.arange(rows.size), rows] = 1.0
        return x[rows], weights

    def __call__(self, vn, gn, k):
        pooled, weights = self.select(vn, gn, range(k, k + 1))
        return pooled[0], weights[0]


# ---------------------------------------------------------------------------
# virtual-node updates: (vn, pooled) -> new vn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CopyPooled(Descriptor):
    kind: ClassVar[str] = "copy_pooled"

    def __call__(self, vn, pooled):
        return pooled


@dataclass(frozen=True)
class KeepVn(Descriptor):
    kind: ClassVar[str] = "keep_vn"

    def __call__(self, vn, pooled):
        return vn


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
    [feature | selector | placeholder]; a ``next_selector`` has ``width``
    values.  Compiled programs stage zeros; only documents saved before the
    ``selectors`` table carry a ``next_selector``, one per round.
    """

    kind: ClassVar[str] = "selector_advance"
    width: int = 0
    next_selector: np.ndarray | None = vector()

    def __post_init__(self):
        super().__post_init__()
        if self.next_selector is not None \
                and self.next_selector.shape != (self.width,):
            raise ValueError(
                f"{self.kind}: field 'next_selector' has "
                f"{self.next_selector.size} values, but field 'width' is "
                f"{self.width}")

    def stage(self, pooled):
        """The new virtual-node states for a stack of pooled rows, one row
        each: (rounds, 2 * width + 1)."""
        d = self.width
        new = np.zeros((len(pooled), 2 * d + 1))
        new[:, :d] = pooled[:, :d]
        if self.next_selector is not None:
            new[:, d : 2 * d] = self.next_selector
        return new

    def __call__(self, vn, pooled):
        return self.stage(pooled[None])[0]


# ---------------------------------------------------------------------------
# graph-node updates: (gn blocks, vn) -> new gn blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityGn(Descriptor):
    kind: ClassVar[str] = "identity_gn"

    def __call__(self, gn, vn):
        return gn


@dataclass(frozen=True, eq=False)
class LinearGn(Descriptor):
    kind: ClassVar[str] = "linear_gn"
    matrix: np.ndarray = matrix()

    def __call__(self, gn, vn):
        return {"x": gn["x"] @ self.matrix}


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
        out = gn["x"] + vn @ self.matrix + self.bias
        if self.activation is not None:
            out = numkit.activation_fn(self.activation)(out)
        return {"x": out}


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
        P_q = attention.phi_matrix(gn["x"] @ self.w_q, self.feature_map)
        key_sum = vn[:m]
        kv_sum = vn[m:].reshape(m, self.value_dim)
        den = P_q @ key_sum
        if not np.all(den > 0.0):
            raise ValueError("query resolution denominator not positive")
        return {"x": (P_q @ kv_sum) / den[:, None]}


@dataclass(frozen=True, eq=False)
class StageQuery(Descriptor):
    """Stage each node's query: returns a new block q = x @ w_q and shares
    every other block.

    The query never changes during a run, so the deep program computes it
    once, in its first layer, and every ``ScoreAccumulate`` reads it back.
    """

    kind: ClassVar[str] = "stage_query"
    blocks: ClassVar[tuple[str, ...]] = ("x", "q")
    w_q: np.ndarray = matrix()
    width: int = 0

    def __call__(self, gn, vn):
        # einsum, not @, so each row is the per-row einsum of the
        # reference trace (see ScoreAccumulate)
        return {**gn, "q": np.einsum("ia,ac->ic", gn["x"], self.w_q)}


@dataclass(frozen=True, eq=False)
class ScoreAccumulate(Descriptor):
    """Accumulate one attention term against the virtual node's feature.

    With y the first ``width`` channels of the virtual node's state,

        acc  += exp(q_i . (y @ w_k)) * (y @ w_v)
        mass += exp(q_i . (y @ w_k))

    in new ``acc`` and ``mass`` blocks; every other block (x and q) is
    shared with the input state.  q_i is read from block q, where
    ``StageQuery`` put it; with ``w_q`` given (documents saved before the
    query was staged, whose states have no q block) it is recomputed as
    x_i @ w_q instead, in the same float operations.
    """

    kind: ClassVar[str] = "score_accumulate"
    w_q: np.ndarray | None = matrix()
    w_k: np.ndarray = matrix()
    w_v: np.ndarray = matrix()
    width: int = 0

    @property
    def blocks(self) -> tuple[str, ...]:
        return ("acc", "mass", "q") if self.w_q is None \
            else ("x", "acc", "mass")

    def fold(self, gn, ys):
        """State ``gn`` after the rounds that read the features ``ys`` (one
        row each, in round order; each round's y is the first ``width``
        channels of its row): new ``acc`` and ``mass`` blocks, each the old
        sum plus every round's term, and x and q shared.  The old sum is
        added into the first round's term (addition commutes exactly), and
        ``np.add.reduce`` over the leading axis of a C-contiguous stack adds
        ``out += a[j]`` row by row, so the sums are bitwise those of one
        round at a time, however the rounds are split into calls."""
        # einsum, not @: a batched BLAS matmul rounds differently from
        # per-row products, but einsum's own loops reduce each row in the
        # same order whatever the batch, so every row here is bitwise the
        # per-row einsum the reference trace computes; the stacked 1 x width
        # products y @ w are each the one a lone y gets
        if self.w_q is None:
            q = gn["q"]
        else:
            q = np.einsum("ia,ac->ic", gn["x"], self.w_q)
        # numpy sums a lone contiguous axis pairwise, so a one-node state
        # gets a copy of its node as a second row, dropped from the sums:
        # with two nodes each reduce adds row by row
        rows = len(q)
        if rows == 1:
            q = np.concatenate([q, q])
        ys = ys[:, None, : self.width]
        e = np.exp(np.einsum("ic,kc->ki", q, (ys @ self.w_k)[:, 0]))
        # the term e_i * yv_c is one product per entry, as with a
        # broadcast *, but einsum needs no scratch buffer for it
        terms = np.einsum("ki,kc->kic", e, (ys @ self.w_v)[:, 0])
        terms[0] += gn["acc"]
        e[0] += gn["mass"][:, 0]
        return {**gn, "acc": np.add.reduce(terms, axis=0)[:rows],
                "mass": np.add.reduce(e, axis=0)[:rows, None]}

    def __call__(self, gn, vn):
        return self.fold(gn, vn[None])


@dataclass(frozen=True)
class RatioUpdate(Descriptor):
    """Finish accumulation: x = acc / mass, and every other block zero.

    Reads states with or without a q block.
    """

    kind: ClassVar[str] = "ratio_update"
    blocks: ClassVar[tuple[str, ...]] = ("acc", "mass")
    width: int = 0

    def __call__(self, gn, vn):
        mass = gn["mass"]
        if not np.all(mass > 0.0):
            raise ValueError("accumulated mass not positive")
        zeros = {name: np.zeros_like(block) for name, block in gn.items()}
        return zeros | {"x": gn["acc"] / mass}


# ---------------------------------------------------------------------------
# layers and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MpnnVnLayer:
    """One synchronous layer: virtual-node pool and update, graph-node update."""

    vn_pool: Descriptor
    vn_update: Descriptor
    gn_update: Descriptor


def run_layer(s: NodeState, layer: MpnnVnLayer,
              k: int) -> tuple[NodeState, np.ndarray | None]:
    """Apply ``layer`` as the program's layer ``k`` (1-based) with a
    synchronous barrier.

    The pool is called as ``pool(vn, gn, k)``: a round-indexed pool (an
    ``OracleSelectPool`` without ``index``, or a ``SoftmaxSelectPool`` with
    a ``selectors`` table) reads its row from ``k``, so one layer object can
    serve every round.  The pool and every graph-node update read the
    pre-layer state ``s``: each graph node sees the pre-layer virtual-node
    vector ``s.vn``, so nothing observes a mid-layer update.  Returns the
    post-layer state and the pool's selection weights, one per row (None
    for a pool that is not a selection pool).  The state's rows are the
    node set; checking them against a host graph is
    ``LayerProgram.execute``'s job.  The new state shares every block the
    graph-node update returned unchanged (all of them for ``IdentityGn``; x
    and q for ``ScoreAccumulate``): no descriptor writes into ``s``.
    """
    pooled, weights = layer.vn_pool(s.vn, s.gn, k)
    new_vn = layer.vn_update(s.vn, pooled)
    new_gn = layer.gn_update(s.gn, s.vn)
    return NodeState(new_gn, new_vn), weights


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the pools that select one input row each: a deep program has one
# selection layer per row
_SELECTION_POOLS = (OracleSelectPool, SoftmaxSelectPool)


def _round_indexed(pool: Descriptor) -> bool:
    """Whether ``pool`` reads its row from the layer number (``run_layer``)."""
    return getattr(pool, "selectors", None) is not None \
        or getattr(pool, "index", 0) is None


class Run(NamedTuple):
    """``repeat`` consecutive layers from ``layers[start]`` on, all holding
    ``layer``'s three slot objects."""

    start: int
    layer: MpnnVnLayer
    repeat: int


def _slot_ids(layer: MpnnVnLayer) -> tuple[int, int, int]:
    return id(layer.vn_pool), id(layer.vn_update), id(layer.gn_update)


@dataclass(frozen=True, eq=False)
class LayerProgram:
    """An ordered layer list and the virtual node's initial state.

    ``provenance`` names the compiler that produced the program and
    ``metadata`` carries plain-JSON config echoes (fit errors, bounds,
    seeds); nothing reads either to run or check the program.

    Construction derives what a run needs from the descriptors alone, once,
    for compiled, hand-built and loaded programs alike, and keeps it in
    three plain attributes.  The program is frozen (``dataclasses.replace``
    builds a changed copy, which derives them again), and its ``layers``
    list is not to be changed in place:

    * ``runs``: the layers as maximal stretches that hold the same three
      slot objects (``Run``), in order.  A compiled deep program's rounds
      2..n are one run, and so are the layers of a loaded document that
      name the same descriptors.  Every check below, ``run_program`` and
      ``program_to_json`` walk these.
    * ``layout``: None (one block ``x``, the input rows) when no descriptor
      names a block other than ``x``.  Otherwise the widths of the blocks
      ``x``, ``acc`` and ``mass`` (d, d, 1), plus ``q`` (d) when a
      descriptor names it, for the one ``width`` d that every deep
      descriptor must share; a deep descriptor of another width is
      refused, naming its layer, slot and kind.
    * ``n``: with a layout, the number of selection layers (oracle or
      softmax pools), the only row count the program runs on; a program
      with a layout and no selection layer is refused, naming ``layers``.
      Else None.

    A round-indexed pool (see ``run_layer``) past layer n is refused, as is
    a ``selectors`` table that is not a finite (n, width) matrix (without a
    layout, any row count), each naming its ``layers[i].vn_pool``.  The
    output is always block ``x``.  A run checks only its input
    (``initial_state``).
    """

    layers: list[MpnnVnLayer]
    vn_init: np.ndarray
    provenance: str = "hand-built"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        runs, start = [], 0
        for _, same in itertools.groupby(self.layers, key=_slot_ids):
            same = list(same)
            runs.append(Run(start, same[0], len(same)))
            start += len(same)
        layout = n = None
        width, named = None, set()
        for run in runs:
            for slot in ("vn_pool", "gn_update"):
                desc = getattr(run.layer, slot)
                if desc.blocks == ("x",):
                    continue
                if width is None:
                    width = desc.width
                elif desc.width != width:
                    raise ValueError(
                        f"layers[{run.start}].{slot}: {desc.kind} has width "
                        f"{desc.width}, but the program's deep descriptors "
                        f"have width {width}")
                named.update(desc.blocks)
        if width is not None:
            layout = {"x": width, "acc": width, "mass": 1}
            if "q" in named:
                layout["q"] = width
            n = sum(run.repeat for run in runs
                    if isinstance(run.layer.vn_pool, _SELECTION_POOLS))
            if not n:
                raise ValueError(
                    f"layers: a program with graph-node blocks "
                    f"{list(layout)} needs a selection layer per input "
                    f"row, and its {len(self.layers)} layers hold none")
        for run in runs:
            pool, where = run.layer.vn_pool, f"layers[{run.start}].vn_pool"
            if not _round_indexed(pool):
                continue
            table = getattr(pool, "selectors", None)
            if table is not None and (n is None or run.start < n):
                rows = table.shape[0] if n is None else n
                if table.shape != (rows, pool.width):
                    raise ValueError(
                        f"{where}: {pool.kind} field 'selectors' is "
                        f"{table.shape}, not (n, width) = "
                        f"{(rows, pool.width)}")
                numkit.check_finite(table, f"{where}: {pool.kind} field "
                                           "'selectors'")
            if n is not None and run.start + run.repeat > n:
                i = max(run.start, n)  # the run's first layer past n
                raise ValueError(f"layers[{i}].vn_pool: round-indexed "
                                 f"{pool.kind} at layer {i + 1}, past "
                                 f"n={n}")
        for name, value in (("vn_init", numkit.as_vector(self.vn_init)),
                            ("runs", runs), ("layout", layout), ("n", n)):
            object.__setattr__(self, name, value)

    def initial_state(self, X) -> NodeState:
        """The state before layer 1 for the rows of ``X``: block ``x`` is a
        copy of ``X`` and every other block of the layout is zero.  Only
        ``X`` is checked here: a non-finite entry is refused, naming the
        first one by (row, column), and, with a layout, so is an X of
        another row count than ``n`` or another column count than the width
        of block ``x``."""
        X = numkit.check_finite(numkit.as_matrix(X), "input X")
        rows, cols = X.shape
        layout = self.layout or {"x": cols}
        if self.n is not None and rows != self.n:
            raise ValueError(f"deep program was compiled for n={self.n} "
                             f"graph nodes, input has {rows} rows")
        if cols != layout["x"]:
            raise ValueError(f"input X has {cols} columns, but the "
                             f"program's x block is {layout['x']} wide")
        gn = {name: X.copy() if name == "x" else np.zeros((rows, w))
              for name, w in layout.items()}
        return NodeState(gn, self.vn_init.copy())

    def extract(self, s: NodeState) -> np.ndarray:
        """The program's output: a copy of block ``x``."""
        return s.gn["x"].copy()

    def execute(self, g: Graph, X) -> np.ndarray:
        """Run on the rows of ``X``: the one VM function that reads a graph.

        ``g`` must have a virtual node and one graph node per row of ``X``.
        """
        if not g.has_vn:
            raise ValueError("execute requires a graph with a virtual node")
        s0 = self.initial_state(X)
        rows = s0.gn["x"].shape[0]
        if rows != g.n - 1:
            raise ValueError(
                f"state has {rows} graph-node rows, graph has {g.n - 1}"
            )
        return self.extract(run_program(s0, self))


# the most score-term floats a chunk of selection rounds holds at once: a
# chunk on (rows, width) ``x`` blocks is this many // (rows * width) rounds,
# at least one, so its (rounds, rows, width) terms stay within 256 KiB
# whatever n (16 rounds at n = 256, d = 8; 4 at n = 1024)
_CHUNK_FLOATS = 1 << 15


def _selection_run(run: Run) -> bool:
    """Whether ``run`` is r > 1 selection rounds (see ``run_program``).
    Such a run never writes block ``x``."""
    pool, advance, accumulate = (run.layer.vn_pool, run.layer.vn_update,
                                 run.layer.gn_update)
    return (run.repeat > 1 and _round_indexed(pool)
            and isinstance(advance, SelectorAdvance)
            and advance.next_selector is None
            and isinstance(accumulate, ScoreAccumulate)
            and accumulate.width == advance.width)


def _layer_by_layer(s: NodeState, run: Run):
    for k in range(run.start + 1, run.start + run.repeat + 1):
        s, weights = run_layer(s, run.layer, k)
        yield range(k, k + 1), s, s.vn[None], \
            None if weights is None else weights[None]


def _folded_rounds(s: NodeState, run: Run, weigh: bool):
    """The steps of a selection run (``_selection_run``), a chunk of rounds
    at a time: yields (ks, state, vn_rows, weights) for each chunk of layers
    ks, from three stacked calls: the pool's ``select`` (weights None
    without ``weigh``), ``SelectorAdvance.stage`` and
    ``ScoreAccumulate.fold``.  Every pooled row reads the run's first ``x``
    block, and round k accumulates the feature round k - 1 selected."""
    pool, advance, accumulate = (run.layer.vn_pool, run.layer.vn_update,
                                 run.layer.gn_update)
    d, stop, gn, vn = accumulate.width, run.start + run.repeat + 1, s.gn, s.vn
    chunk = max(1, _CHUNK_FLOATS // max(1, gn["x"].size))
    for first in range(run.start + 1, stop, chunk):
        ks = range(first, min(first + chunk, stop))
        pooled, weights = pool.select(vn, gn, ks, weigh)
        vn_rows = advance.stage(pooled)
        gn = accumulate.fold(
            gn, np.concatenate([vn[None, :d], vn_rows[:-1, :d]]))
        vn = vn_rows[-1]
        yield ks, NodeState(gn, vn), vn_rows, weights


def run_program(s0: NodeState, prog: LayerProgram,
                observe: Callable | None = None) -> NodeState:
    """Run all layers in order; the empty program is the identity.

    The layers act on ``s0``'s node set and read no graph; the host graph is
    checked once per program, by ``LayerProgram.execute``.

    The program runs by its ``runs``.  A run of r > 1 selection rounds (a
    round-indexed selection pool, a ``SelectorAdvance`` staging zeros and
    a ``ScoreAccumulate`` of its width) goes a chunk of rounds at a time,
    each chunk holding about ``_CHUNK_FLOATS`` score-term floats, so its
    memory does not grow with n, and each chunk's score terms are folded
    into ``acc`` and ``mass`` by one ``ScoreAccumulate.fold``
    (``_folded_rounds``).
    Every other run goes layer by layer through ``run_layer``.

    ``observe(ks, state, vn_rows, weights)``, when given, is called once
    per step, in layer order, and keeps whatever it needs.  A step is one
    layer (``ks = range(k, k + 1)``) or one chunk of a run of selection
    rounds (``ks`` its layers); the steps' ``ks`` cover layers 1..L once
    each.  ``state`` is the state after layer ``ks[-1]``, ``vn_rows`` the
    virtual-node state after each layer of the step, (len(ks), vn width),
    and ``weights`` each layer's selection weights, (len(ks), rows), or
    None when the step's pool is not a selection pool.  Each is bitwise
    what ``run_layer`` gives at those layers, and no array handed out is
    written afterwards.  Only an observer makes the folded rounds of an
    oracle pool build their one-hot weights.
    """
    s = s0
    for run in prog.runs:
        steps = _folded_rounds(s, run, observe is not None) \
            if _selection_run(run) else _layer_by_layer(s, run)
        for ks, s, vn_rows, weights in steps:
            if observe is not None:
                observe(ks, s, vn_rows, weights)
    return s


# ---------------------------------------------------------------------------
# program persistence
# ---------------------------------------------------------------------------


# the document formats ``program_from_json`` reads; ``program_to_json``
# writes the last
FORMATS = ("layer-program/v1", "layer-program/v2", "layer-program/v3")
_V1, _V2, _V3 = FORMATS
_SLOTS = tuple(f.name for f in dataclasses.fields(MpnnVnLayer))
# a descriptor's dedupe key: its blob encoded with sorted keys (built once,
# as ``json.dumps`` would build it again on every call)
_descriptor_key = json.JSONEncoder(sort_keys=True).encode
# the most layers a v3 document may expand to, checked before any layer is
# built: far above any compiled program (a deep one has n + 2 layers), so a
# short document cannot ask the loader for billions of them
MAX_LAYERS = 1_000_000


def _recorded_layout(prog: LayerProgram) -> dict:
    """``gn_init`` and ``gn_out`` as a v1 or v2 document records the
    layout: "identity" and null for one block ``x``, else the blocks' total
    width as a pad and the columns of ``x``."""
    if prog.layout is None:
        return {"gn_init": "identity", "gn_out": None}
    return {"gn_init": ["pad", sum(prog.layout.values())],
            "gn_out": [0, prog.layout["x"]]}


def program_to_json(prog: LayerProgram) -> dict:
    """The program as a ``layer-program/v3`` document.

    ``descriptors`` holds each distinct slot descriptor once, in order of
    first use (layer order, then ``vn_pool``, ``vn_update``, ``gn_update``).
    ``layers`` is a list of maximal runs: each run maps the three slots to
    indexes into the table and says in ``repeat`` how many consecutive
    layers use them, so a deep program's n - 1 accumulation rounds are one
    entry.  Descriptors are told apart by their encoded value, and layers by
    their three indexes, so equal descriptors share one entry whether or
    not they are one object, and a program re-saves to the same bytes after
    a reload.  The document holds a copy of the program's ``metadata``.
    """
    descriptors, index_of_value, index_of_obj = [], {}, {}

    def ref(slot: Descriptor) -> int:
        # keyed by id() too, so a shared object is encoded once; ``prog``
        # keeps every slot alive, so no id is reused meanwhile
        if id(slot) not in index_of_obj:
            blob = slot.to_json()
            key = _descriptor_key(blob)
            if key not in index_of_value:
                index_of_value[key] = len(descriptors)
                descriptors.append(blob)
            index_of_obj[id(slot)] = index_of_value[key]
        return index_of_obj[id(slot)]

    # each of the program's runs is encoded once; then neighbouring runs
    # with the same three indexes merge
    runs = []  # [slot indexes, repeat]
    for run in prog.runs:
        key = tuple(ref(getattr(run.layer, name)) for name in _SLOTS)
        if runs and runs[-1][0] == key:
            runs[-1][1] += run.repeat
        else:
            runs.append([key, run.repeat])
    layers = [dict(zip(_SLOTS, key), repeat=repeat) for key, repeat in runs]
    return {
        "format": _V3,
        "provenance": prog.provenance,
        "metadata": copy.deepcopy(prog.metadata),
        "vn_init": numkit.vector_to_json(prog.vn_init),
        "descriptors": descriptors,
        "layers": layers,
    }


def _decode_descriptor(where: str, blob) -> Descriptor:
    if not isinstance(blob, dict):
        raise ValueError(f"{where} must be an object, got {blob!r}")
    try:
        return descriptor_from_json(blob)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _check_layer_entry(i: int, layer) -> None:
    if not isinstance(layer, dict):
        raise ValueError(f"layers[{i}] must be an object, got {layer!r}")


def _decode_layer(i: int, layer, table: list) -> MpnnVnLayer:
    """Layer entry ``i``: each slot is an index into ``table`` (v2, v3) or
    an inline descriptor object (v1)."""
    _check_layer_entry(i, layer)
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


def _run_lengths(runs: list) -> list[int]:
    """The ``repeat`` of every run of a v3 ``layers`` list: a JSON integer
    >= 1 (a bool, a float or a string is not taken for one), and all of
    them together at most ``MAX_LAYERS``.  Checked before any layer is
    built."""
    lengths, total = [], 0
    for i, run in enumerate(runs):
        _check_layer_entry(i, run)
        repeat = run.get("repeat")
        if not (_is_int(repeat) and repeat >= 1):
            raise ValueError(f"layers[{i}].repeat must be an integer >= 1, "
                             f"got {repeat!r}")
        total += repeat
        if total > MAX_LAYERS:
            raise ValueError(
                f"layers[{i}].repeat {repeat} brings the program to {total} "
                f"layers, more than the {MAX_LAYERS} a document may hold")
        lengths.append(repeat)
    return lengths


def _check_recorded_layout(blob: dict, prog: LayerProgram) -> None:
    """Refuse a v1 or v2 document whose ``gn_init`` or ``gn_out`` is not
    what its layers imply.  A pad too narrow for a block that a layer needs
    names the first such ``layers[i].slot``; any other disagreement names
    its key.  Values are compared by ``repr``, so that 7.0, true or a tuple
    is not taken for 7, 1 or a list."""
    for key, implied in _recorded_layout(prog).items():
        declared = blob.get(key)
        if repr(declared) == repr(implied):
            continue
        if key == "gn_init" and prog.layout is not None \
                and isinstance(declared, list) and len(declared) == 2 \
                and declared[0] == "pad" and _is_int(declared[1]):
            d = prog.layout["x"]
            ends = itertools.accumulate((d, d, 1, d))
            held = {name for name, end in zip(("x", "acc", "mass", "q"), ends)
                    if end <= declared[1]}
            for i, layer in enumerate(prog.layers):
                for slot in ("vn_pool", "gn_update"):
                    desc = getattr(layer, slot)
                    for name in desc.blocks:
                        if name not in held:
                            raise ValueError(
                                f"layers[{i}].{slot}: {desc.kind} needs "
                                f"graph-node block {name!r}, which a state "
                                f"initialized by {tuple(declared)!r} does "
                                f"not hold for width {d}")
        raise ValueError(f"{key} {declared!r} disagrees with the layers, "
                         f"which imply {implied!r}")


def program_from_json(blob: dict) -> LayerProgram:
    """Read a ``layer-program/v3``, ``v2`` or ``v1`` document.

    Each table entry is decoded once, and every layer that refers to it gets
    the same descriptor object.  A v3 run is decoded once and expanded into
    ``repeat`` references to one layer object; its ``repeat`` counts are
    checked first (see ``_run_lengths``).  A v2 layer entry is one layer,
    and a v1 document is read by the same path with an empty table: its
    slots hold descriptors inline.  The program gets a copy of the
    document's ``metadata``.  A v1 or v2 document's ``gn_init`` and
    ``gn_out`` must be the ones its layers imply; v3 does not record them.
    """
    numkit.require_object(blob, "program document")
    fmt = blob.get("format")
    if fmt not in FORMATS:
        raise ValueError(f"not a {_V3}, {_V2} or {_V1} document: "
                         f"format {fmt!r}")
    for name in ("layers", "vn_init") + (("descriptors",) if fmt != _V1 else ()):
        if name not in blob:
            raise ValueError(f"{fmt}: missing field {name!r}")
    # composite descriptors contributed by the compilers register on import
    from . import constructions  # noqa: F401

    entries = blob.get("descriptors", [])
    if not isinstance(entries, list):
        raise ValueError(f"descriptors must be a list, got {entries!r}")
    if not isinstance(blob["layers"], list):
        raise ValueError(f"layers must be a list, got {blob['layers']!r}")
    repeats = _run_lengths(blob["layers"]) if fmt == _V3 \
        else itertools.repeat(1)
    table = [_decode_descriptor(f"descriptors[{j}]", entry)
             for j, entry in enumerate(entries)]
    layers = []
    for i, (layer, repeat) in enumerate(zip(blob["layers"], repeats)):
        layers += [_decode_layer(i, layer, table)] * repeat
    provenance = blob.get("provenance", "unknown")
    if not isinstance(provenance, str):
        raise ValueError(f"provenance must be a string, got {provenance!r}")
    metadata = blob.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be an object, got {metadata!r}")
    try:
        vn_init = numkit.vector_from_json(blob["vn_init"])
    except ValueError as e:
        raise ValueError(f"vn_init: {e}") from None
    prog = LayerProgram(
        layers=layers,
        vn_init=vn_init,
        provenance=provenance,
        metadata=copy.deepcopy(metadata),
    )
    if fmt != _V3:
        _check_recorded_layout(blob, prog)
    return prog


def save_program(prog: LayerProgram, path) -> None:
    """Write ``prog`` to ``path`` as a ``layer-program/v3`` document.

    The document is one line with sorted keys and no spaces, so equal
    programs give equal bytes, and ``load_program`` followed by
    ``save_program`` reproduces them.  A program that cannot be encoded
    leaves ``path`` as it was.
    """
    numkit.dump_json(program_to_json(prog), path, compact=True)


def load_program(path) -> LayerProgram:
    return program_from_json(numkit.load_json(path))

"""Compilers that realize attention layers as virtual-node layer programs.

Two constructions are implemented, each returning a runnable, serializable
:class:`~vnlab.mpnnvn.LayerProgram`:

* ``compile_kernel_vn`` — constant depth (2 layers).  The virtual node pools
  kernel-feature statistics of all nodes; each graph node then resolves its
  own query against them.  Exact mode reproduces kernelized attention to
  roundoff; mlp mode swaps every nonlinear primitive (squaring, the scalar
  kernel nonlinearity, reciprocal) for a one-dimensional network and reports
  each network's measured error.  Every network is a ReLU interpolant
  built to a proven error bound; nothing is trained.

* ``compile_deep_vn`` — linear depth (n + 2 layers).  The virtual node visits
  the n node features one at a time (by oracle, by amplified-softmax
  selection, or by the constructed additive score -|x - x_k|_1, which selects
  any set of distinct points); every graph node accumulates one unnormalized
  attention term per step and finally normalizes.  With perfect selection the
  program equals full softmax attention to roundoff.

``run_and_report`` executes a compiled program next to its reference
attention layer and produces an :class:`ErrorReport` with per-node errors
and, for deep programs, per-layer selection-quality measurements against the
guaranteed bounds.  It measures them as arrays, and the report's tables
(:class:`ReportRows`) build a row's dict only when it is read.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import attention, mlp, numkit
from .attention import AttnWeights, FeatureMap, l1_score
from .graphs import Graph, add_virtual_node
from .mpnnvn import (
    ConstVn,
    CopyPooled,
    Descriptor,
    FeatureStatsPool,
    IdentityGn,
    KeepVn,
    LayerProgram,
    MeanPool,
    MpnnVnLayer,
    OracleSelectPool,
    RatioUpdate,
    ResolveQueryUpdate,
    ScoreAccumulate,
    SelectorAdvance,
    SoftmaxSelectPool,
    StageQuery,
    matrix,
    run_program,
)
from .separability import (
    MARGIN_BAND,
    SeparabilityCertificate,
    l1_certificate,
    selection_weight_bound,
    vdelta_certificate,
)


def attention_host_graph(n: int) -> Graph:
    """The graph programs run on: n isolated nodes plus the virtual node."""
    return add_virtual_node(Graph(n, ()))


# ---------------------------------------------------------------------------
# scalar pieces for mlp mode
# ---------------------------------------------------------------------------

# the squaring piece is always built on this fixed window; multiplication
# rescales its operands into [-2, 2] first (see _mul_via_sq)
_SQ_LO, _SQ_HI = -2.2, 2.2

# mlp mode: rows per probe batch, the factor probed piece domains are
# inflated by, and each piece's sup-error target
_PROBE_N = 8
_DOMAIN_INFLATION = 1.5
_SQ_TARGET, _EXP_TARGET, _RECIP_TARGET = 3e-3, 1e-3, 1e-3
# the probed magnitudes a run rescales piece operands by (with inv_max)
_SCALE_BOUNDS = ("k_abs", "q_abs", "v_abs", "phi_k_max", "phi_q_max",
                 "s_max", "m_abs", "num_abs")
# a built piece's proven error bound is at most this share of its target,
# so lattice roundoff cannot lift the measured error above the target
_BOUND_SLACK = 0.99
# the most knot intervals H a built piece may have: the 2049-point lattice
# check of a piece at the cap holds about 268 MB
_MAX_KNOTS = 2**14


@dataclass(frozen=True, eq=False)
class FittedPiece:
    """A 1-D scalar function approximated by a one-hidden-layer network.

    ``sup_error`` is the network's measured error on a 2049-point lattice
    over [lo, hi]; ``target`` is the error it was built to meet.  A compile
    builds every piece (:func:`_build_piece`); a document saved while pieces
    were trained loads its ELU networks and runs them as saved.
    """

    name: str
    params: mlp.MlpParams
    lo: float
    hi: float
    sup_error: float
    target: float


@dataclass(frozen=True, eq=False)
class KernelPieces:
    """The scalar pieces an mlp-mode program is assembled from.

    ``sq`` powers multiplication via ab = ((a+b)^2 - (a-b)^2)/4 after static
    rescaling; ``expish`` is the scalar kernel nonlinearity (exp, or the
    shifted elu for the elu feature map); ``recip`` implements division.
    All three are built ReLU interpolants (:func:`_build_piece`) that meet
    their targets by construction.  ``sq`` depends on nothing a compile is
    given, so every program shares one (:func:`_sq_piece`).  ``bounds``
    holds the probe-calibrated magnitudes used for rescaling; operands are
    divided by them, so each of ``_SCALE_BOUNDS`` and ``inv_max`` must be
    finite and positive.  The probe holds O(``probe_batches`` ·
    ``_PROBE_N`` · (d + m)) floats at once.
    """

    kind: str
    sq: FittedPiece
    expish: FittedPiece
    recip: FittedPiece
    bounds: dict[str, float]

    def __post_init__(self):
        keys = (*_SCALE_BOUNDS, "inv_max")
        for key, value in zip(keys, numkit.require_keys(
                self.bounds, "KernelPieces bounds", *keys)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"KernelPieces bounds[{key!r}] must be "
                                 f"finite and positive, got {value!r}")

    def fit_summary(self) -> dict:
        out = {}
        for p in (self.sq, self.expish, self.recip):
            out[p.name] = {
                "sup_error": p.sup_error,
                "target": p.target,
                "lo": p.lo,
                "hi": p.hi,
            }
        return out


def _piece_eval(piece: FittedPiece, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1, 1)
    return mlp.forward(piece.params, flat)[:, 0].reshape(t.shape)


def _lattice_sup_error(params: mlp.MlpParams, fn, lo: float,
                       hi: float) -> float:
    dense = np.linspace(lo, hi, 2049)[:, None]
    return float(np.max(np.abs(mlp.forward(params, dense) - fn(dense))))


def _mul_via_sq(sq: FittedPiece, a, b, bound_a: float, bound_b: float):
    """a*b through the squaring piece, operands statically rescaled.

    With |a| <= bound_a and |b| <= bound_b the piece only ever sees inputs in
    [-2, 2], inside its window; the absolute error is at most
    bound_a * bound_b * (piece error) / 2.
    """
    ap = np.asarray(a, dtype=np.float64) / bound_a
    bp = np.asarray(b, dtype=np.float64) / bound_b
    diff = _piece_eval(sq, ap + bp) - _piece_eval(sq, ap - bp)
    return bound_a * bound_b * diff / 4.0


# built pieces: name -> (function, max |f''| over a window [lo, hi])
_BUILT = {
    "sq": (np.square, lambda lo, hi: 2.0),
    "exp": (np.exp, lambda lo, hi: math.exp(hi)),
    # (elu + 1)'' is exp(t) below 0 and 0 above it
    "elu_plus_one": (lambda t: numkit.elu(t) + 1.0,
                     lambda lo, hi: math.exp(min(hi, 0.0)) if lo < 0 else 0.0),
    # (1/t)'' = 2/t^3 peaks at lo; a window reaching 0, or whose lo^3
    # underflows, has no finite bound
    "recip": (np.reciprocal,
              lambda lo, hi: 2.0 / lo**3 if lo**3 > 0 else math.inf),
}


def _build_piece(name: str, lo: float, hi: float,
                 target: float) -> FittedPiece:
    """The piecewise-linear interpolant of a ``_BUILT`` function, as a ReLU
    network.

    The function f is interpolated at H + 1 equispaced knots t_k over
    [lo, hi].  With h = (hi - lo)/H the error on [lo, hi] is at most
    h^2 * max|f''| / 8 (Yarotsky 2017), so H is the least count that keeps
    this bound at ``_BOUND_SLACK * target``: the target holds before any
    input is seen.  Hidden unit k < H is relu(t - t_k) and unit H is
    relu(lo - t), so the network continues both end segments linearly
    outside the window.  A window that needs H > ``_MAX_KNOTS`` is refused
    before anything is allocated.
    """
    if not hi > lo:
        raise ValueError(f"piece {name!r}: empty domain [{lo}, {hi}]")
    fn, curvature = _BUILT[name]
    H = (hi - lo) * math.sqrt(
        curvature(lo, hi) / (8.0 * _BOUND_SLACK * target))
    if not H <= _MAX_KNOTS:
        raise ValueError(
            f"piece {name!r} on [{lo:.6g}, {hi:.6g}] needs H = {H:.4g} "
            f"knot intervals to meet its target {target:.3g}, more than "
            f"{_MAX_KNOTS}; lower the feature bound")
    H = max(1, math.ceil(H))
    knots = np.linspace(lo, hi, H + 1)
    values = fn(knots)
    slopes = np.diff(values) / np.diff(knots)
    w_in = np.ones((1, H + 1))
    w_in[0, H] = -1.0
    b_in = np.append(-knots[:-1], lo)
    w_out = np.concatenate([slopes[:1], np.diff(slopes), -slopes[:1]])
    params = mlp.MlpParams(mlp.MlpSpec((1, H + 1, 1), "relu"),
                           [w_in, w_out[:, None]], [b_in, values[:1]])
    return FittedPiece(name=name, params=params, lo=lo, hi=hi,
                       sup_error=_lattice_sup_error(params, fn, lo, hi),
                       target=target)


def _inflate(lo: float, hi: float, factor: float) -> tuple[float, float]:
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    half = max(half * factor, 1e-3)  # never collapse to a point
    return center - half, center + half


def _phi_via_pieces(rows: np.ndarray, fm: FeatureMap, pieces: KernelPieces,
                    scale_key: str) -> np.ndarray:
    """Kernel features of projected rows, all nonlinearities via pieces.

    ``scale_key`` names the probed magnitude bound of ``rows`` ("k_abs" for
    key projections, "q_abs" for query projections).
    """
    if pieces.kind == "exp_features":
        R = pieces.bounds[scale_key]
        squares = R * R * _piece_eval(pieces.sq, rows / R)
        half_norm = 0.5 * squares.sum(axis=1)
        args = rows @ fm.directions.T - half_norm[:, None]
        return _piece_eval(pieces.expish, args) / math.sqrt(fm.directions.shape[0])
    return _piece_eval(pieces.expish, rows)


@dataclass(frozen=True, eq=False)
class MlpStatsPool(Descriptor):
    """Feature-statistics pool with every nonlinearity a scalar piece."""

    kind: ClassVar[str] = "mlp_stats_pool"
    slot: ClassVar[str] = "vn_pool"
    w_k: np.ndarray = matrix()
    w_v: np.ndarray = matrix()
    feature_map: FeatureMap = field(default=None)
    pieces: KernelPieces = field(default=None)

    def __call__(self, gn, k):
        x = gn["x"]
        P = _phi_via_pieces(x @ self.w_k, self.feature_map, self.pieces,
                            "k_abs")
        V = x @ self.w_v
        b = self.pieces.bounds
        prods = _mul_via_sq(self.pieces.sq, P[:, :, None], V[:, None, :],
                            b["phi_k_max"], b["v_abs"])
        kv = prods.sum(axis=0)  # (m, value_dim)
        return np.concatenate([P.sum(axis=0), numkit.flatten_raster(kv)]), None


@dataclass(frozen=True, eq=False)
class MlpResolveUpdate(Descriptor):
    """Query resolution (dot products and division) via scalar pieces."""

    kind: ClassVar[str] = "mlp_resolve_update"
    slot: ClassVar[str] = "gn_update"
    w_q: np.ndarray = matrix()
    feature_map: FeatureMap = field(default=None)
    pieces: KernelPieces = field(default=None)
    value_dim: int = 0

    def __call__(self, gn, vn):
        m = self.feature_map.out_dim(self.w_q.shape[1])
        key_sum = vn[:m]
        kv_sum = vn[m:].reshape(m, self.value_dim)
        P_q = _phi_via_pieces(gn["x"] @ self.w_q, self.feature_map,
                              self.pieces, "q_abs")
        b = self.pieces.bounds
        num = _mul_via_sq(self.pieces.sq, P_q[:, :, None], kv_sum[None, :, :],
                          b["phi_q_max"], b["m_abs"]).sum(axis=1)
        den = _mul_via_sq(self.pieces.sq, P_q, key_sum[None, :],
                          b["phi_q_max"], b["s_max"]).sum(axis=1)
        if not np.all(den > 0.0):
            raise ValueError(
                "approximate query resolution produced a non-positive "
                "denominator; the pieces are out of their domain"
            )
        inv = _piece_eval(self.pieces.recip, den)
        return {"x": _mul_via_sq(self.pieces.sq, num, inv[:, None],
                                 b["num_abs"], b["inv_max"])}


# ---------------------------------------------------------------------------
# constant-depth kernelized-attention compiler
# ---------------------------------------------------------------------------


def _require_ints(cfg, *names: str) -> None:
    """Refuse a config count or seed that is not an integer (a numpy integer
    is one, a bool is not), naming the field; a numpy integer is stored as
    a Python int, so the metadata it reaches stays JSON."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(cfg, name, int(value))


@dataclass(frozen=True, eq=False)
class KernelSimConfig:
    """How to compile the constant-depth kernelized-attention program.

    ``feature_bound`` is the radius of the input ball the program is
    declared for; mlp mode probes ``probe_batches`` random input sets of
    ``_PROBE_N`` rows with norms in [feature_bound/2, feature_bound] to
    calibrate piece domains (inflated by ``_DOMAIN_INFLATION``), all
    batches in one stacked pass of O(``probe_batches`` · ``_PROBE_N`` ·
    (d + m)) floats for input width d and feature count m.  It then
    builds the ``sq``, kernel-nonlinearity and ``recip`` pieces as ReLU
    interpolants that meet their sup-error targets by construction; a window
    too wide for its target is refused with a ``ValueError``.  Inputs
    outside the probed range, or more rows than a probe batch holds, can
    push intermediate values outside the windows, where the pieces
    extrapolate linearly.

    ``piece_epochs`` and ``piece_restarts`` are inert: they budgeted the
    trained ``recip`` piece, which is now built.  They still construct and
    are still checked to be at least 1, because the benchmark's warm-up
    passes them; they go with the benchmark catch-up (ROADMAP item 1).
    """

    feature_map: FeatureMap
    mode: str = "exact"  # "exact" | "mlp"
    feature_bound: float = 1.0
    seed: int = 0
    probe_batches: int = 16
    piece_epochs: int = 6000
    piece_restarts: int = 3

    def __post_init__(self):
        if self.mode not in ("exact", "mlp"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.feature_bound) and self.feature_bound > 0.0):
            raise ValueError("feature_bound must be finite and positive, "
                             f"got {self.feature_bound!r}")
        counts = ("probe_batches", "piece_epochs", "piece_restarts")
        _require_ints(self, "seed", *counts)
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed!r}")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)!r}")


def _probe_kernel_domains(w: AttnWeights, cfg: KernelSimConfig) -> dict:
    """Measure every piece input/operand range on random in-ball inputs.

    The batches are drawn one after another (directions, then radii) and
    measured in one pass over their (``probe_batches``, ``_PROBE_N``, ·)
    stack; every tracked bound is a max or min over the stack, so it is
    bitwise the bound a batch-by-batch loop finds.
    """
    fm = cfg.feature_map
    rng = numkit.make_rng(cfg.seed)
    draws = [(rng.normal(size=(_PROBE_N, w.in_dim)),
              rng.uniform(0.5, 1.0, size=(_PROBE_N, 1)))
             for _ in range(cfg.probe_batches)]
    X = np.stack([x for x, _ in draws])
    radii = cfg.feature_bound * np.stack([r for _, r in draws])
    X = X / np.linalg.norm(X, axis=2, keepdims=True) * radii
    K, Q, V = X @ w.w_k, X @ w.w_q, X @ w.w_v

    def phi(rows):  # one row per probe row, back to batches
        flat = attention.phi_matrix(rows.reshape(-1, rows.shape[2]), fm)
        return flat.reshape(rows.shape[:2] + flat.shape[1:])

    P_k, P_q = phi(K), phi(Q)
    S = P_k.sum(axis=1)
    M = P_k.transpose(0, 2, 1) @ V
    den = P_q @ S[:, :, None]
    num = P_q @ M
    if fm.kind == "exp_features":
        args = [R @ fm.directions.T - 0.5 * (R**2).sum(axis=2)[:, :, None]
                for R in (K, Q)]
    else:
        args = [K, Q]
    f = _DOMAIN_INFLATION
    magnitudes = {
        "k_abs": K, "q_abs": Q, "v_abs": V,
        "phi_k_max": P_k, "phi_q_max": P_q,
        "s_max": S, "m_abs": M, "num_abs": num,
    }
    bounds = {k: float(np.max(np.abs(a))) * f for k, a in magnitudes.items()}
    bounds["arg_lo"], bounds["arg_hi"] = _inflate(
        min(float(a.min()) for a in args), max(float(a.max()) for a in args),
        f)
    # the denominator window widens multiplicatively and must stay positive
    bounds["den_lo"] = float(den.min()) / f
    bounds["den_hi"] = float(den.max()) * f
    bounds["inv_max"] = 1.0 / bounds["den_lo"]
    return bounds


@functools.cache
def _sq_piece() -> FittedPiece:
    """The squaring piece: its window and target are fixed, so it is built
    once per process and shared by every program, its arrays read-only."""
    sq = _build_piece("sq", _SQ_LO, _SQ_HI, _SQ_TARGET)
    for a in sq.params.weights + sq.params.biases:
        a.setflags(write=False)
    return sq


def _kernel_pieces(w: AttnWeights, cfg: KernelSimConfig) -> KernelPieces:
    fm = cfg.feature_map
    bounds = _probe_kernel_domains(w, cfg)
    kernel_fn = "exp" if fm.kind == "exp_features" else "elu_plus_one"
    sq = _sq_piece()
    expish = _build_piece(kernel_fn, bounds["arg_lo"], bounds["arg_hi"],
                          _EXP_TARGET)
    recip = _build_piece("recip", bounds["den_lo"], bounds["den_hi"],
                         _RECIP_TARGET)
    return KernelPieces(kind=fm.kind, sq=sq, expish=expish, recip=recip,
                        bounds=bounds)


def compile_kernel_vn(w: AttnWeights, cfg: KernelSimConfig) -> LayerProgram:
    """Two layers: pool feature statistics, then resolve every query.

    The virtual node's state width is (value_dim + 1) * feature_dim — the key
    feature sum plus the raster-flattened feature-value outer product sum.
    """
    fm = cfg.feature_map
    m = fm.out_dim(w.qk_dim)
    vn_width = (w.out_dim + 1) * m
    metadata = {
        "compiler": "kernel",
        "mode": cfg.mode,
        "feature_kind": fm.kind,
        "m": m,
        "value_dim": w.out_dim,
        "vn_width": vn_width,
        "feature_bound": cfg.feature_bound,
    }
    if cfg.mode == "exact":
        pool = FeatureStatsPool(w.w_k, w.w_v, fm)
        resolve = ResolveQueryUpdate(w.w_q, fm, value_dim=w.out_dim)
    else:
        pieces = _kernel_pieces(w, cfg)
        pool = MlpStatsPool(w.w_k, w.w_v, fm, pieces)
        resolve = MlpResolveUpdate(w.w_q, fm, pieces, value_dim=w.out_dim)
        metadata["piece_fits"] = pieces.fit_summary()
        metadata["bounds"] = dict(pieces.bounds)
    layers = [
        MpnnVnLayer(vn_pool=pool, vn_update=CopyPooled(),
                    gn_update=IdentityGn()),
        MpnnVnLayer(vn_pool=MeanPool(), vn_update=KeepVn(),
                    gn_update=resolve),
    ]
    prog = LayerProgram(
        layers=layers,
        vn_init=np.ones(vn_width),
        provenance="kernel-attention-compiler",
        metadata=metadata,
    )
    assert prog.vn_init.shape[0] == vn_width
    return prog


# ---------------------------------------------------------------------------
# linear-depth full-attention compiler
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DeepSimConfig:
    """How to compile the depth-(n+2) full-attention program.

    selection: "oracle" (layer k reads node k's state directly), "softmax"
    (amplified bilinear scores against a "bilinear" certificate's
    directions), or "gatv2" (one shared constructed score -c |x - x_k|_1
    against an "l1" certificate's points).  ``amplification`` overrides the
    certificate's score scale; when given it must be finite and positive.
    Oracle selection reads neither, and refuses both.
    """

    n: int
    selection: str = "oracle"
    certificate: SeparabilityCertificate | None = None
    amplification: float | None = None

    def __post_init__(self):
        _require_ints(self, "n")
        if self.n < 1:
            raise ValueError("need at least one node")
        if self.selection not in ("oracle", "softmax", "gatv2"):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.selection == "oracle" and (self.certificate is not None
                                           or self.amplification is not None):
            raise ValueError("oracle selection takes no certificate and no "
                             "amplification")
        if self.amplification is not None and not (
                math.isfinite(self.amplification) and self.amplification > 0.0):
            raise ValueError("amplification must be finite and positive, "
                             f"got {self.amplification!r}")


def _check_cert_score(pool: SoftmaxSelectPool,
                      cert: SeparabilityCertificate) -> None:
    """A bilinear pool (no ``score``) reads a "bilinear" certificate, an
    additive one an "l1" certificate."""
    selection, want = ("softmax", "bilinear") if pool.score is None \
        else ("gatv2", "l1")
    if cert.score != want:
        raise ValueError(f"{selection} selection needs a {want!r} "
                         f"certificate, got a {cert.score!r} one")


def compile_deep_vn(w: AttnWeights, cfg: DeepSimConfig) -> LayerProgram:
    """Depth n+2 program: select, accumulate, normalize.

    Graph-node states are four blocks: feature ``x``, accumulator ``acc``,
    ``mass`` and query ``q`` (widths d, d, 1, d, laid out as
    [x | acc | mass | q]); the program derives them from its descriptors'
    width d, and its node count from its n selection layers.  The
    ``metadata`` only echoes the config.  The virtual node's state is
    [feature | selector | placeholder] of width 2d+1.  Layer k in 1..n
    selects node k's ``x`` row into the virtual node (every selection pool
    reads only block x) while every graph node accumulates the previously
    selected one (from layer 2 on).  Layer 1 instead stages each node's
    query x_i @ w_q into a new ``q`` block and shares x, acc and mass.  Each
    ``ScoreAccumulate`` returns new ``acc`` and ``mass`` blocks and shares
    x and q with the state before it.  Layer n+1 accumulates the last
    selection; layer n+2 divides, returning x = acc / mass and zero blocks.
    The normalized output is block x, as in every program.  The selection
    modes differ only in the one pool all rounds share, which reads row
    k - 1 at layer k: an ``OracleSelectPool`` selects it, a
    ``SoftmaxSelectPool`` (bilinear for softmax, l1 for gatv2) scores
    against it in its table of the certificate's directions.  So one
    ``SelectorAdvance`` stages zeros, ``vn_init`` is zero and rounds 2..n
    are one ``MpnnVnLayer`` object (one saved run).
    """
    n, d = cfg.n, w.in_dim
    if w.out_dim != d or w.qk_dim != d:
        raise ValueError(
            "the deep construction keeps blocks of width d and needs "
            f"square weights; got qk_dim={w.qk_dim}, out_dim={w.out_dim}"
        )
    stage = StageQuery(w.w_q, width=d)
    accumulate = ScoreAccumulate(w.w_k, w.w_v, width=d)
    if cfg.selection == "oracle":
        scale, pool = None, OracleSelectPool()
    else:
        cert = cfg.certificate
        if cert is None:
            raise ValueError(f"{cfg.selection} selection requires a "
                             "certificate")
        scale = cfg.amplification if cfg.amplification is not None \
            else cert.amplification
        pool = SoftmaxSelectPool(
            width=d, scale=scale,
            score=None if cfg.selection == "softmax" else l1_score(d),
            selectors=cert.directions)
        _check_cert_score(pool, cert)
        if cert.n != n:
            raise ValueError(f"certificate covers {cert.n} points, program "
                             f"needs {n}")
        if cert.delta <= MARGIN_BAND:
            raise ValueError(
                f"certificate margin {cert.delta:.3g} is inside the "
                f"unreliable band (<= {MARGIN_BAND:.3g}); selection would be "
                "meaningless"
            )
    advance = SelectorAdvance(width=d)
    layers = [MpnnVnLayer(pool, advance, stage)] \
        + [MpnnVnLayer(pool, advance, accumulate)] * (n - 1)
    mean, ones = MeanPool(), ConstVn(np.ones(2 * d + 1))
    layers.append(MpnnVnLayer(vn_pool=mean, vn_update=ones,
                              gn_update=accumulate))
    layers.append(MpnnVnLayer(vn_pool=mean, vn_update=ones,
                              gn_update=RatioUpdate(width=d)))

    return LayerProgram(
        layers=layers,
        vn_init=np.zeros(2 * d + 1),
        provenance="deep-attention-compiler",
        metadata={
            "compiler": "deep",
            "selection": cfg.selection,
            "n": n,
            "d": d,
            "c": scale,
        },
    )


# ---------------------------------------------------------------------------
# certified instances
# ---------------------------------------------------------------------------


# how many point sets make_certified_instance draws before giving up
_INSTANCE_DRAWS = 200
# relative roundoff slack of the closest-pair bound: a draw is rejected
# before its LPs only when its bound is below min_delta by more than this
_PAIR_BOUND_SLACK = 1e-9


class NoCertifiedInstance(RuntimeError):
    """``make_certified_instance`` ran out of draws."""


def make_certified_instance(n: int, d: int, rng: np.random.Generator,
                            min_delta: float = 0.1):
    """Draw a point set every point of which is certified selectable.

    Points are sampled on the unit sphere (sphere points are extreme points
    of their hull, so certification usually succeeds) and redrawn until the
    ``vdelta_certificate`` margin reaches ``min_delta``; the certificate's
    amplification is the one for a selection weight of 1 - 1e-4.  A point's
    margin is at most its L1 distance to any other point (which lies in the
    others' hull, and |w|_inf <= 1), that is its ``l1_certificate`` margin,
    so a draw whose closest pair is nearer than ``min_delta`` in L1 is
    redrawn before any LP runs.  Returns (X, certificate); raises
    ``NoCertifiedInstance``, naming the largest delta a draw reached, when
    none of ``_INSTANCE_DRAWS`` draws qualifies.
    """
    best, unsolved = None, 0  # largest delta reached; draws with no LP run
    for _ in range(_INSTANCE_DRAWS):
        X = rng.normal(size=(n, d))
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        bound = l1_certificate(X)
        if not isinstance(bound, SeparabilityCertificate) \
                or bound.delta * (1.0 + _PAIR_BOUND_SLACK) < min_delta:
            unsolved += 1
            continue
        cert = vdelta_certificate(X)
        if isinstance(cert, SeparabilityCertificate):
            if cert.delta >= min_delta:
                return X, cert
            best = cert.delta if best is None else max(best, cert.delta)
    reached = ("no draw certified every point" if best is None
               else f"the largest delta reached was {best:.6g}")
    raise NoCertifiedInstance(
        f"no (V, delta >= {min_delta}) instance found in {_INSTANCE_DRAWS} "
        f"draws: {reached}; {unsolved} draws had a closest pair nearer than "
        f"{min_delta} in L1 and ran no LP"
    )


# ---------------------------------------------------------------------------
# error reporting
# ---------------------------------------------------------------------------


class ReportRows(Sequence):
    """A report table: its rows read as dicts, each built when it is read.

    ``columns`` maps each key, in row key order, to a 1-D array with one
    entry per row.  ``held`` maps a key to a bool array of the rows that
    hold it; any other key is in every row.  Reading a row builds a new
    dict of Python scalars, so changing it changes nothing else.  ``len``
    and ``all_true`` read the arrays only, and a table equals a list of
    the dicts it reads as.
    """

    def __init__(self, columns: dict, held: dict | None = None):
        held = held or {}
        self._columns = {key: column for key, column in columns.items()
                         if key not in held or held[key].any()}
        self._held = {key: rows for key, rows in held.items()
                      if key in self._columns and not rows.all()}
        self._len = len(next(iter(columns.values()), ()))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self._len)[i]]
        i = range(self._len)[i]
        return {key: column[i].item() for key, column in self._columns.items()
                if key not in self._held or self._held[key][i]}

    def __iter__(self):
        keys = tuple(self._columns)
        values = [column.tolist() for column in self._columns.values()]
        if not self._held:
            return (dict(zip(keys, row)) for row in zip(*values))
        absent = object()
        for j, key in enumerate(keys):
            if key in self._held:
                values[j] = [v if h else absent for v, h
                             in zip(values[j], self._held[key].tolist())]
        return ({k: v for k, v in zip(keys, row) if v is not absent}
                for row in zip(*values))

    def __eq__(self, other):
        if isinstance(other, ReportRows):
            other = list(other)
        return list(self) == other if isinstance(other, list) \
            else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))

    def all_true(self, *keys: str) -> bool:
        """Whether every row holding each of ``keys`` has a true value
        there: ``all(row.get(key, True) ...)`` over the rows, read off the
        arrays."""
        for key in keys:
            column = self._columns.get(key)
            if column is not None and not np.all(
                    column[self._held[key]] if key in self._held else column):
                return False
        return True


@dataclass
class ErrorReport:
    """Measured deviation of a compiled program from its reference layer.

    ``per_node`` reads as one ``{"node", "abs", "rel"}`` dict per output
    row, and ``selection`` as one dict per selection layer (see
    ``run_and_report``).  ``run_and_report`` fills both with
    ``ReportRows``, which keep the values as arrays and build each dict
    when it is read; a hand-built report may hold plain lists of dicts.
    """

    reference: str
    max_abs: float
    mean_abs: float
    max_rel: float
    per_node: Sequence
    selection: Sequence
    config: dict
    seed: int | None
    rng_algorithm: ClassVar[str] = numkit.RNG_ALGORITHM

    @property
    def bounds_ok(self) -> bool:
        """The output is finite, and every selected feature and selection
        weight is within its bound."""
        keys = ("feature_error_ok", "weight_ok")
        rows = self.selection
        return math.isfinite(self.max_abs) and (
            rows.all_true(*keys) if isinstance(rows, ReportRows)
            else all(entry.get(key, True) for entry in rows for key in keys))


def report_to_json(report: ErrorReport) -> dict:
    """The format tag, one key per ``ErrorReport`` field, the rng algorithm.

    Built field by field: every row is a new dict and ``config`` a deep
    copy, so changing the document changes nothing in ``report``.
    """
    blob = {"format": "error-report/v1"}
    for f in fields(ErrorReport):
        value = getattr(report, f.name)
        blob[f.name] = [dict(row) for row in value] \
            if f.name in ("per_node", "selection") else copy.deepcopy(value)
    blob["rng_algorithm"] = report.rng_algorithm
    return blob


def report_csv_row(report: ErrorReport) -> tuple:
    cfg = report.config
    return (
        "" if report.seed is None else str(report.seed),
        str(cfg.get("n", "")),
        str(cfg.get("d", cfg.get("value_dim", ""))),
        str(cfg.get("c") if cfg.get("c") is not None else cfg.get("m", "")),
        repr(report.max_abs),
        repr(report.mean_abs),
        "true" if report.bounds_ok else "false",
    )


def run_and_report(
    X,
    prog: LayerProgram,
    w: AttnWeights,
    reference: str = "full",
    fm: FeatureMap | None = None,
    cert: SeparabilityCertificate | None = None,
    feature_bound: float | None = None,
    seed: int | None = None,
) -> ErrorReport:
    """Execute a compiled program and measure errors against a reference.

    reference "full" compares against softmax attention; "kernel" against
    kernelized attention with feature map ``fm``.  Deep programs (those
    with a block layout) additionally get per-layer selection diagnostics:
    the round's target (the row its selection weights favour most, the
    first on ties), the realized weight of that row, the selected feature's
    error against it, and the guaranteed bound n * C1 * (1 - weight) that
    error must respect (C1 = ``feature_bound`` or the largest input row
    norm).  An oracle round's weights are one-hot on row k - 1, so its
    target is row k - 1 and its weight 1.0, read off no weight row.  A
    ``cert`` must be for the program's selection pools ("bilinear" for
    softmax, "l1" for gatv2), as ``compile_deep_vn`` requires, and cover
    the program's n points; each weight bound is for its pool's ``scale``
    and the margin of round k's selector, ``cert.margins[k - 1]``,
    whichever row now holds its point.  A ``feature_bound`` must be finite
    and positive.

    Every measurement is an array over rows or rounds: the report's
    ``per_node`` and ``selection`` are ``ReportRows`` over them, and
    ``max_abs`` and ``max_rel`` are NaN when any row's error is.
    """
    if feature_bound is not None and not (
            math.isfinite(feature_bound) and feature_bound > 0.0):
        raise ValueError("feature_bound must be finite and positive, "
                         f"got {feature_bound!r}")
    X = numkit.as_matrix(X)
    n = X.shape[0]
    if reference == "full":
        want = attention.self_attention(X, w)
    elif reference == "kernel":
        if fm is None:
            raise ValueError("kernel reference needs a feature map")
        want = attention.approx_attention(X, w, fm)
    else:
        raise ValueError(f"unknown reference {reference!r}")

    deep = prog.n is not None
    d = prog.layout["x"] if deep else 0
    # a deep program's selection layers come first, one per row; each pool
    # says which certificate it reads and, as ``scale``, the amplification
    # its weight bound is for (NaN: the oracle pool reads neither)
    if cert is not None and deep and cert.n != prog.n:
        raise ValueError(f"certificate covers {cert.n} points, program "
                         f"needs {prog.n}")
    oracle, scales = np.zeros(n, dtype=bool), np.full(n, np.nan)
    for run in prog.runs if deep else ():
        if run.start >= n:
            break
        pool = run.layer.vn_pool
        rows = slice(run.start, run.start + run.repeat)
        if cert is not None and isinstance(pool, SoftmaxSelectPool):
            _check_cert_score(pool, cert)
        oracle[rows] = isinstance(pool, OracleSelectPool)
        scale = getattr(pool, "scale", None)
        scales[rows] = np.nan if scale is None else scale
    # after layer k <= n: the feature stored and, where the pool gives
    # selection weights, the row it weighs most (its target, the first on
    # ties) and that row's weight.  An oracle pool's weights are one-hot
    # on row k - 1, so its target is row k - 1 and its weight 1.0, read off
    # no weight row; without weights the target is row k - 1 too
    features, targets = np.zeros((n, d)), np.arange(n)
    w_target, weighed = np.where(oracle, 1.0, 0.0), oracle.copy()

    def measure_selection(ks, state, vn_rows, weights):
        if ks.start > n:
            return
        rows = slice(ks.start - 1, ks.stop - 1)  # one step, one pool
        features[rows] = vn_rows[:, :d]
        if weights is not None and not oracle[rows.start]:
            targets[rows] = weights.argmax(axis=1)
            w_target[rows] = weights.max(axis=1)
            weighed[rows] = True

    final = run_program(prog.initial_state(X), prog,
                        observe=measure_selection if deep else None)
    got = prog.extract(final)
    if got.shape != want.shape:
        raise ValueError(
            f"program output {got.shape} does not match reference {want.shape}"
        )

    diff = np.abs(got - want)
    abs_node = diff.max(axis=1)
    rel_node = abs_node / np.maximum(np.abs(want).max(axis=1), 1e-12)
    per_node = ReportRows({"node": np.arange(n), "abs": abs_node,
                           "rel": rel_node})

    selection = ReportRows({})
    if deep:
        c1 = feature_bound if feature_bound is not None \
            else float(np.linalg.norm(X, axis=1).max())
        offset = features - X[targets]
        feat_errs = np.sqrt(np.vecdot(offset, offset))
        bounds = n * c1 * (1.0 - w_target)
        columns = {"layer": np.arange(1, n + 1), "target": targets,
                   "weight": w_target, "feature_error": feat_errs,
                   "feature_error_bound": bounds,
                   "feature_error_ok": feat_errs <= bounds + 1e-12}
        held = dict.fromkeys(columns.keys() - {"layer", "target"}, weighed)
        if cert is not None:
            checked = weighed & ~np.isnan(scales)
            columns["weight_bound"] = np.array([
                selection_weight_bound(c, m, n) if ok else np.nan
                for c, m, ok in zip(scales.tolist(), cert.margins.tolist(),
                                    checked.tolist())])
            columns["weight_ok"] = w_target >= columns["weight_bound"] - 1e-12
            held["weight_bound"] = held["weight_ok"] = checked
        selection = ReportRows(columns, held)

    config = dict(prog.metadata)
    config.setdefault("n", n)
    return ErrorReport(
        reference=reference,
        max_abs=float(diff.max()),
        mean_abs=float(diff.mean()),
        max_rel=float(rel_node.max()),
        per_node=per_node,
        selection=selection,
        config=config,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# amplification sweep
# ---------------------------------------------------------------------------


def sweep_deep_amplification(n: int, d: int, factors, seeds,
                             min_delta: float = 0.1):
    """Deep-program error against full attention across amplification levels.

    For every seed: draw one certified instance on the unit sphere and one
    random weight set, then compile the softmax-selection program once per
    factor with amplification c = factor / delta, and report it with the
    feature bound C1 = 1.  Returns the reports as a list (seeds) of lists
    (factors); medians across seeds are what sweeps assert on.
    """
    out = []
    for seed in seeds:
        rng = numkit.make_rng(seed)
        X, cert = make_certified_instance(n, d, rng, min_delta=min_delta)
        w = attention.random_weights(d, rng)
        row = []
        for factor in factors:
            cfg = DeepSimConfig(
                n=n, selection="softmax", certificate=cert,
                amplification=float(factor) / cert.delta,
            )
            prog = compile_deep_vn(w, cfg)
            row.append(run_and_report(
                X, prog, w, reference="full", cert=cert,
                feature_bound=1.0, seed=seed,
            ))
        out.append(row)
    return out

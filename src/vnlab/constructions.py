"""Compilers that realize attention layers as virtual-node layer programs.

Two constructions are implemented, each returning a runnable, serializable
:class:`~vnlab.mpnnvn.LayerProgram`:

* ``compile_kernel_vn`` — constant depth (2 layers).  The virtual node pools
  kernel-feature statistics of all nodes; each graph node then resolves its
  own query against them.  Exact mode reproduces kernelized attention to
  roundoff; mlp mode swaps every nonlinear primitive (squaring, the scalar
  kernel nonlinearity, reciprocal) for a *fitted* one-dimensional network and
  reports the achieved approximation quality instead of assuming it.

* ``compile_deep_vn`` — linear depth (n + 2 layers).  The virtual node visits
  the n node features one at a time (by oracle, amplified-softmax, or trained
  additive-score selection); every graph node accumulates one unnormalized
  attention term per step and finally normalizes.  With perfect selection the
  program equals full softmax attention to roundoff.

``run_and_report`` executes a compiled program next to its reference
attention layer and produces an :class:`ErrorReport` with per-node errors
and, for deep programs, per-layer selection-quality measurements against the
guaranteed bounds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import attention, mlp, numkit
from .attention import AttnWeights, FeatureMap
from .graphs import Graph, add_virtual_node
from .mpnnvn import (
    ConstVn,
    CopyPooled,
    CopyVnMsg,
    Descriptor,
    FeatureStatsPool,
    Gatv2SelectPool,
    IdentityGn,
    KeepVn,
    LayerProgram,
    LinearGn,
    MeanPool,
    MpnnVnLayer,
    OracleSelectPool,
    RatioUpdate,
    ResolveQueryUpdate,
    ScoreAccumulate,
    SelectorAdvance,
    SoftmaxSelectPool,
    matrix,
    run_program,
)
from .separability import (
    SeparabilityCertificate,
    selection_weight_bound,
    vdelta_certificate,
)


def attention_host_graph(n: int) -> Graph:
    """The graph programs run on: n isolated nodes plus the virtual node."""
    return add_virtual_node(Graph(n, ()))


# ---------------------------------------------------------------------------
# fitted scalar pieces for mlp mode
# ---------------------------------------------------------------------------

# the squaring piece is always fit on this fixed window; multiplication
# rescales its operands into [-2, 2] first (see _mul_via_sq)
_SQ_LO, _SQ_HI = -2.2, 2.2


@dataclass(frozen=True, eq=False)
class FittedPiece:
    """A 1-D scalar function approximated by a trained network."""

    name: str
    params: mlp.MlpParams
    lo: float
    hi: float
    sup_error: float
    target: float


@dataclass(frozen=True, eq=False)
class KernelPieces:
    """The fitted primitives an mlp-mode program is assembled from.

    ``sq`` powers multiplication via ab = ((a+b)^2 - (a-b)^2)/4 after static
    rescaling; ``expish`` is the scalar kernel nonlinearity (exp, or the
    shifted elu for the elu feature map); ``recip`` implements division.
    ``bounds`` holds the probe-calibrated magnitudes used for rescaling.
    """

    kind: str
    sq: FittedPiece
    expish: FittedPiece
    recip: FittedPiece
    bounds: dict[str, float]

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


def _mul_via_sq(sq: FittedPiece, a, b, bound_a: float, bound_b: float):
    """a*b through the squaring piece, operands statically rescaled.

    With |a| <= bound_a and |b| <= bound_b the piece only ever sees inputs in
    [-2, 2], inside its fitted window; the absolute error is
    bound_a * bound_b * (piece error) / 2.
    """
    ap = np.asarray(a, dtype=np.float64) / bound_a
    bp = np.asarray(b, dtype=np.float64) / bound_b
    diff = _piece_eval(sq, ap + bp) - _piece_eval(sq, ap - bp)
    return bound_a * bound_b * diff / 4.0


def _fit_piece(name: str, fn, lo: float, hi: float, target: float,
               hidden: int, epochs: int, seed: int,
               restarts: int = 3) -> FittedPiece:
    """Fit one scalar piece on a lattice; report its holdout sup error.

    Individual fits vary a lot with the initialization, so up to ``restarts``
    fits are run from different seeds and the best dense-lattice sup error
    wins; a restart that reaches ``target`` stops the search.
    """
    if not hi > lo:
        raise ValueError(f"piece {name!r}: empty domain [{lo}, {hi}]")
    train_x = mlp.lattice(lo, hi, 513, 1)
    train_y = fn(train_x)
    mid = (train_x[:-1] + train_x[1:]) / 2.0
    mid_y = fn(mid)
    dense = mlp.lattice(lo, hi, 2049, 1)
    dense_y = fn(dense)
    spec = mlp.MlpSpec(widths=(1, hidden, 1), activation="elu")
    budget = mlp.FitBudget(max_epochs=epochs, lr=1e-2, schedule="cosine",
                           eval_every=50, target_sup=target)
    best_params, best_sup = None, np.inf
    for attempt in range(max(restarts, 1)):
        params, _ = mlp.fit(spec, train_x, train_y, budget,
                            mid, mid_y, seed=seed + 1000 * attempt)
        sup = float(np.max(np.abs(mlp.forward(params, dense) - dense_y)))
        if sup < best_sup:
            best_params, best_sup = params, sup
        if best_sup <= target:
            break
    if best_sup > target:
        warnings.warn(
            f"fitted piece {name!r} reached sup error {best_sup:.3e} "
            f"(target {target:.3e}) on [{lo:.3g}, {hi:.3g}]",
            RuntimeWarning,
        )
    return FittedPiece(name=name, params=best_params, lo=lo, hi=hi,
                       sup_error=best_sup, target=target)


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
    """Feature-statistics pool with every nonlinearity a fitted network."""

    kind: ClassVar[str] = "mlp_stats_pool"
    w_k: np.ndarray = matrix()
    w_v: np.ndarray = matrix()
    feature_map: FeatureMap = field(default=None)
    pieces: KernelPieces = field(default=None)

    def __call__(self, vn, gn):
        P = _phi_via_pieces(gn @ self.w_k, self.feature_map, self.pieces,
                            "k_abs")
        V = gn @ self.w_v
        b = self.pieces.bounds
        prods = _mul_via_sq(self.pieces.sq, P[:, :, None], V[:, None, :],
                            b["phi_k_max"], b["v_abs"])
        kv = prods.sum(axis=0)  # (m, value_dim)
        return np.concatenate([P.sum(axis=0), numkit.flatten_raster(kv)]), None


@dataclass(frozen=True, eq=False)
class MlpResolveUpdate(Descriptor):
    """Query resolution (dot products and division) via fitted pieces."""

    kind: ClassVar[str] = "mlp_resolve_update"
    w_q: np.ndarray = matrix()
    feature_map: FeatureMap = field(default=None)
    pieces: KernelPieces = field(default=None)
    value_dim: int = 0

    def __call__(self, gn, msg, gg):
        m = self.feature_map.out_dim(self.w_q.shape[1])
        key_sum = msg[0, :m]
        kv_sum = msg[0, m:].reshape(m, self.value_dim)
        P_q = _phi_via_pieces(gn @ self.w_q, self.feature_map, self.pieces,
                              "q_abs")
        b = self.pieces.bounds
        num = _mul_via_sq(self.pieces.sq, P_q[:, :, None], kv_sum[None, :, :],
                          b["phi_q_max"], b["m_abs"]).sum(axis=1)
        den = _mul_via_sq(self.pieces.sq, P_q, key_sum[None, :],
                          b["phi_q_max"], b["s_max"]).sum(axis=1)
        if not np.all(den > 0.0):
            raise ValueError(
                "approximate query resolution produced a non-positive "
                "denominator; the fitted pieces are out of their domain"
            )
        inv = _piece_eval(self.pieces.recip, den)
        return _mul_via_sq(self.pieces.sq, num, inv[:, None],
                           b["num_abs"], b["inv_max"])


# ---------------------------------------------------------------------------
# constant-depth kernelized-attention compiler
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KernelSimConfig:
    """How to compile the constant-depth kernelized-attention program.

    ``feature_bound`` is the radius of the input ball the program is
    declared for; mlp mode probes ``probe_batches`` random input sets of
    ``probe_n`` rows with norms in [feature_bound/2, feature_bound] to
    calibrate piece domains (inflated by ``domain_inflation``), then fits
    the pieces to the listed targets.  Inputs far inside the probed range
    can push intermediate values outside the fitted windows, where the
    pieces extrapolate and quality degrades gracefully.
    """

    feature_map: FeatureMap
    mode: str = "exact"  # "exact" | "mlp"
    feature_bound: float = 1.0
    seed: int = 0
    probe_n: int = 8
    probe_batches: int = 16
    domain_inflation: float = 1.5
    piece_hidden: int = 48
    piece_epochs: int = 6000
    piece_restarts: int = 3
    sq_target: float = 5e-2
    exp_target: float = 1e-2
    recip_target: float = 1e-2

    def __post_init__(self):
        if self.mode not in ("exact", "mlp"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _probe_kernel_domains(w: AttnWeights, cfg: KernelSimConfig) -> dict:
    """Measure every piece input/operand range on random in-ball inputs."""
    fm = cfg.feature_map
    rng = numkit.make_rng(cfg.seed)
    track = {
        "k_abs": 0.0, "q_abs": 0.0, "v_abs": 0.0,
        "phi_k_max": 0.0, "phi_q_max": 0.0,
        "s_max": 0.0, "m_abs": 0.0, "num_abs": 0.0,
        "arg_lo": np.inf, "arg_hi": -np.inf,
        "den_lo": np.inf, "den_hi": -np.inf,
    }
    for _ in range(cfg.probe_batches):
        X = rng.normal(size=(cfg.probe_n, w.in_dim))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        radii = cfg.feature_bound * rng.uniform(
            0.5, 1.0, size=(cfg.probe_n, 1)
        )
        X = X / norms * radii
        K, Q, V = X @ w.w_k, X @ w.w_q, X @ w.w_v
        P_k = attention.phi_matrix(K, fm)
        P_q = attention.phi_matrix(Q, fm)
        S = P_k.sum(axis=0)
        M = P_k.T @ V
        den = P_q @ S
        num = P_q @ M
        track["k_abs"] = max(track["k_abs"], float(np.max(np.abs(K))))
        track["q_abs"] = max(track["q_abs"], float(np.max(np.abs(Q))))
        track["v_abs"] = max(track["v_abs"], float(np.max(np.abs(V))))
        track["phi_k_max"] = max(track["phi_k_max"], float(np.max(np.abs(P_k))))
        track["phi_q_max"] = max(track["phi_q_max"], float(np.max(np.abs(P_q))))
        track["s_max"] = max(track["s_max"], float(np.max(np.abs(S))))
        track["m_abs"] = max(track["m_abs"], float(np.max(np.abs(M))))
        track["num_abs"] = max(track["num_abs"], float(np.max(np.abs(num))))
        track["den_lo"] = min(track["den_lo"], float(den.min()))
        track["den_hi"] = max(track["den_hi"], float(den.max()))
        if fm.kind == "exp_features":
            args = K @ fm.directions.T - 0.5 * (K**2).sum(axis=1)[:, None]
            args_q = Q @ fm.directions.T - 0.5 * (Q**2).sum(axis=1)[:, None]
            track["arg_lo"] = min(track["arg_lo"], float(args.min()),
                                  float(args_q.min()))
            track["arg_hi"] = max(track["arg_hi"], float(args.max()),
                                  float(args_q.max()))
        else:
            track["arg_lo"] = min(track["arg_lo"], float(K.min()),
                                  float(Q.min()))
            track["arg_hi"] = max(track["arg_hi"], float(K.max()),
                                  float(Q.max()))

    f = cfg.domain_inflation
    bounds = {k: track[k] * f for k in
              ("k_abs", "q_abs", "v_abs", "phi_k_max", "phi_q_max",
               "s_max", "m_abs", "num_abs")}
    bounds["arg_lo"], bounds["arg_hi"] = _inflate(track["arg_lo"],
                                                  track["arg_hi"], f)
    # the denominator window widens multiplicatively and must stay positive
    bounds["den_lo"] = track["den_lo"] / f
    bounds["den_hi"] = track["den_hi"] * f
    bounds["inv_max"] = 1.0 / bounds["den_lo"]
    return bounds


def _fit_kernel_pieces(w: AttnWeights, cfg: KernelSimConfig) -> KernelPieces:
    fm = cfg.feature_map
    bounds = _probe_kernel_domains(w, cfg)
    sq = _fit_piece("sq", lambda t: t * t, _SQ_LO, _SQ_HI, cfg.sq_target,
                    cfg.piece_hidden, cfg.piece_epochs, cfg.seed + 1,
                    cfg.piece_restarts)
    if fm.kind == "exp_features":
        expish = _fit_piece("exp", np.exp, bounds["arg_lo"], bounds["arg_hi"],
                            cfg.exp_target, cfg.piece_hidden,
                            cfg.piece_epochs, cfg.seed + 2,
                            cfg.piece_restarts)
    else:
        expish = _fit_piece("elu_plus_one",
                            lambda t: numkit.elu(t) + 1.0,
                            bounds["arg_lo"], bounds["arg_hi"],
                            cfg.exp_target, cfg.piece_hidden,
                            cfg.piece_epochs, cfg.seed + 2,
                            cfg.piece_restarts)
    recip = _fit_piece("recip", lambda t: 1.0 / t,
                       bounds["den_lo"], bounds["den_hi"], cfg.recip_target,
                       cfg.piece_hidden, cfg.piece_epochs, cfg.seed + 3,
                       cfg.piece_restarts)
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
        pieces = _fit_kernel_pieces(w, cfg)
        pool = MlpStatsPool(w.w_k, w.w_v, fm, pieces)
        resolve = MlpResolveUpdate(w.w_q, fm, pieces, value_dim=w.out_dim)
        metadata["piece_fits"] = pieces.fit_summary()
        metadata["bounds"] = dict(pieces.bounds)
    layers = [
        MpnnVnLayer(vn_pool=pool, vn_update=CopyPooled(),
                    gn_msg=CopyVnMsg(), gn_update=IdentityGn()),
        MpnnVnLayer(vn_pool=MeanPool(), vn_update=KeepVn(),
                    gn_msg=CopyVnMsg(), gn_update=resolve),
    ]
    prog = LayerProgram(
        layers=layers,
        vn_init=np.ones(vn_width),
        gn_init="identity",
        gn_out=None,
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
    (amplified bilinear scores against certificate directions), or "gatv2"
    (one trained additive score per step).  ``append_final_linear`` adds an
    (n+3)rd layer applying the output projection as an explicit linear layer
    instead of slicing the first channels.
    """

    n: int
    selection: str = "oracle"
    certificate: SeparabilityCertificate | None = None
    amplification: float | None = None
    gatv2_scores: tuple = ()
    gatv2_scale: float = 1.0
    selectors: np.ndarray | None = None
    append_final_linear: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        if self.selection not in ("oracle", "softmax", "gatv2"):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.selectors is not None:
            object.__setattr__(self, "selectors",
                               numkit.as_matrix(self.selectors))


def _deep_selectors(cfg: DeepSimConfig, d: int) -> np.ndarray:
    if cfg.selection == "softmax":
        return cfg.certificate.directions
    if cfg.selectors is not None:
        if cfg.selectors.shape != (cfg.n, d):
            raise ValueError(
                f"selectors must be ({cfg.n}, {d}), got {cfg.selectors.shape}"
            )
        return cfg.selectors
    return np.zeros((cfg.n, d))


def compile_deep_vn(w: AttnWeights, cfg: DeepSimConfig) -> LayerProgram:
    """Depth n+2 program: select, accumulate, normalize.

    States are [feature | accumulator | mass] of width 2d+1.  Layer k in
    1..n selects node k's feature into the virtual node while every graph
    node accumulates the previously selected one (from layer 2 on); layer
    n+1 accumulates the last selection; layer n+2 divides.
    """
    n, d = cfg.n, w.in_dim
    if w.out_dim != d or w.qk_dim != d:
        raise ValueError(
            "the deep construction keeps states of width 2d+1 and needs "
            f"square weights; got qk_dim={w.qk_dim}, out_dim={w.out_dim}"
        )
    scale = None
    if cfg.selection == "softmax":
        cert = cfg.certificate
        if cert is None:
            raise ValueError("softmax selection requires a certificate")
        if cert.n != n:
            raise ValueError(
                f"certificate covers {cert.n} points, program needs {n}"
            )
        if cert.delta <= cert.band:
            raise ValueError(
                f"certificate margin {cert.delta:.3g} is inside the "
                f"unreliable band (<= {cert.band:.3g}); selection would be "
                "meaningless"
            )
        scale = cfg.amplification if cfg.amplification is not None \
            else cert.amplification
    elif cfg.selection == "gatv2":
        if len(cfg.gatv2_scores) != n:
            raise ValueError(
                f"gatv2 selection needs one trained score per step "
                f"({n}), got {len(cfg.gatv2_scores)}"
            )
        scale = cfg.gatv2_scale

    selectors = _deep_selectors(cfg, d)

    def pool_for(k: int):
        if cfg.selection == "oracle":
            return OracleSelectPool(index=k - 1)
        if cfg.selection == "softmax":
            return SoftmaxSelectPool(width=d, scale=scale)
        return Gatv2SelectPool(cfg.gatv2_scores[k - 1], width=d, scale=scale)

    ones = ConstVn(np.ones(2 * d + 1))
    accumulate = ScoreAccumulate(w.w_q, w.w_k, w.w_v, width=d)
    layers = []
    for k in range(1, n + 1):
        nxt = selectors[k] if k <= n - 1 else None
        layers.append(MpnnVnLayer(
            vn_pool=pool_for(k),
            vn_update=SelectorAdvance(width=d, next_selector=nxt),
            gn_msg=CopyVnMsg(),
            gn_update=IdentityGn() if k == 1 else accumulate,
        ))
    layers.append(MpnnVnLayer(vn_pool=MeanPool(), vn_update=ones,
                              gn_msg=CopyVnMsg(), gn_update=accumulate))
    layers.append(MpnnVnLayer(vn_pool=MeanPool(), vn_update=ones,
                              gn_msg=CopyVnMsg(),
                              gn_update=RatioUpdate(width=d)))
    gn_out = (0, d)
    if cfg.append_final_linear:
        proj = np.zeros((2 * d + 1, d))
        proj[:d, :d] = np.eye(d)
        layers.append(MpnnVnLayer(vn_pool=MeanPool(), vn_update=KeepVn(),
                                  gn_msg=CopyVnMsg(),
                                  gn_update=LinearGn(proj)))
        gn_out = None

    vn_init = np.concatenate([np.zeros(d), selectors[0], [0.0]])
    return LayerProgram(
        layers=layers,
        vn_init=vn_init,
        gn_init=("pad", 2 * d + 1),
        gn_out=gn_out,
        provenance="deep-attention-compiler",
        metadata={
            "compiler": "deep",
            "selection": cfg.selection,
            "n": n,
            "d": d,
            "c": scale,
            "append_final_linear": cfg.append_final_linear,
        },
    )


# ---------------------------------------------------------------------------
# certified instances
# ---------------------------------------------------------------------------


def make_certified_instance(
    n: int,
    d: int,
    rng: np.random.Generator,
    min_delta: float = 0.1,
    feature_bound: float = 1.0,
    eps: float = 1e-4,
    max_tries: int = 200,
):
    """Draw a point set every point of which is certified selectable.

    Points are sampled on the sphere of radius ``feature_bound`` (sphere
    points are extreme points of their hull, so certification usually
    succeeds) and redrawn until the certificate margin reaches ``min_delta``.
    Returns (X, certificate).
    """
    for _ in range(max_tries):
        X = rng.normal(size=(n, d))
        X = X / np.linalg.norm(X, axis=1, keepdims=True) * feature_bound
        cert = vdelta_certificate(X, eps=eps)
        if isinstance(cert, SeparabilityCertificate) and cert.delta >= min_delta:
            return X, cert
    raise RuntimeError(
        f"no (V, delta >= {min_delta}) instance found in {max_tries} draws"
    )


# ---------------------------------------------------------------------------
# error reporting
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Measured deviation of a compiled program from its reference layer."""

    reference: str
    max_abs: float
    mean_abs: float
    max_rel: float
    per_node: list
    selection: list
    config: dict
    seed: int | None
    rng_algorithm: str = numkit.RNG_ALGORITHM

    @property
    def bounds_ok(self) -> bool:
        """Every selected feature and selection weight is within its bound."""
        return all(entry.get("feature_error_ok", True)
                   and entry.get("weight_ok", True)
                   for entry in self.selection)


def report_to_json(report: ErrorReport) -> dict:
    return {
        "format": "error-report/v1",
        "reference": report.reference,
        "max_abs": report.max_abs,
        "mean_abs": report.mean_abs,
        "max_rel": report.max_rel,
        "per_node": report.per_node,
        "selection": report.selection,
        "config": report.config,
        "seed": report.seed,
        "rng_algorithm": report.rng_algorithm,
    }


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
    kernelized attention with feature map ``fm``.  Deep programs additionally
    get per-layer selection diagnostics: the realized selection weight, the
    selected-feature error, and the guaranteed bound n * C1 * (1 - weight)
    it must respect (C1 = ``feature_bound`` or the largest input row norm).
    """
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

    deep = prog.metadata.get("compiler") == "deep"
    d = prog.metadata["d"] if deep else 0
    measured = []  # after layer k <= n: (feature error, target's weight)

    def measure_selection(k, state, aux):
        if k <= n:
            weights = None if aux is None else aux.get("selection_weights")
            measured.append((
                float(np.linalg.norm(state.vn[:d] - X[k - 1])),
                None if weights is None else float(weights[k - 1]),
            ))

    final = run_program(attention_host_graph(n), prog.initial_state(X), prog,
                        observe=measure_selection if deep else None)
    got = prog.extract(final)
    if got.shape != want.shape:
        raise ValueError(
            f"program output {got.shape} does not match reference {want.shape}"
        )

    diff = np.abs(got - want)
    per_node = []
    for i in range(n):
        abs_i = float(diff[i].max())
        ref_i = float(np.max(np.abs(want[i])))
        per_node.append({
            "node": i,
            "abs": abs_i,
            "rel": abs_i / max(ref_i, 1e-12),
        })

    selection = []
    if deep:
        c1 = feature_bound if feature_bound is not None \
            else float(np.linalg.norm(X, axis=1).max())
        c = prog.metadata.get("c")
        for k in range(1, n + 1):
            feat_err, w_target = measured[k - 1]
            entry = {"layer": k, "target": k - 1}
            if w_target is not None:
                entry["weight"] = w_target
                entry["feature_error"] = feat_err
                entry["feature_error_bound"] = n * c1 * (1.0 - w_target)
                entry["feature_error_ok"] = (
                    feat_err <= n * c1 * (1.0 - w_target) + 1e-12
                )
                if cert is not None and c is not None:
                    entry["weight_bound"] = selection_weight_bound(
                        c, float(cert.margins[k - 1]), n
                    )
                    entry["weight_ok"] = w_target >= entry["weight_bound"] - 1e-12
            selection.append(entry)

    config = dict(prog.metadata)
    config.setdefault("n", n)
    return ErrorReport(
        reference=reference,
        max_abs=float(diff.max()),
        mean_abs=float(diff.mean()),
        max_rel=float(max(e["rel"] for e in per_node)),
        per_node=per_node,
        selection=selection,
        config=config,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# amplification sweep
# ---------------------------------------------------------------------------


def sweep_deep_amplification(
    n: int,
    d: int,
    factors,
    seeds,
    min_delta: float = 0.1,
    feature_bound: float = 1.0,
    eps: float = 1e-4,
):
    """Deep-program error against full attention across amplification levels.

    For every seed: draw one certified instance and one random weight set,
    then compile the softmax-selection program once per factor with
    amplification c = factor / delta.  Returns the reports as a list (seeds)
    of lists (factors); medians across seeds are what sweeps assert on.
    """
    out = []
    for seed in seeds:
        rng = numkit.make_rng(seed)
        X, cert = make_certified_instance(
            n, d, rng, min_delta=min_delta, feature_bound=feature_bound,
            eps=eps,
        )
        w = attention.random_weights(d, rng, out_dim=d)
        row = []
        for factor in factors:
            cfg = DeepSimConfig(
                n=n, selection="softmax", certificate=cert,
                amplification=float(factor) / cert.delta,
            )
            prog = compile_deep_vn(w, cfg)
            row.append(run_and_report(
                X, prog, w, reference="full", cert=cert,
                feature_bound=feature_bound, seed=seed,
            ))
        out.append(row)
    return out

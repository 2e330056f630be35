"""Self-attention layers, kernelized feature maps, and operating assumptions.

Row-vector convention throughout: inputs X are (n, d) with one node per row,
projections are Q = X @ w_q, K = X @ w_k, V = X @ w_v, and the unnormalized
score between rows u and v is (u @ w_q) . (v @ w_k) = u^T (Wq Wk^T) v.

Two attention evaluators live here:

* :func:`self_attention` - exact softmax attention,
* :func:`approx_attention` - kernelized attention where the softmax kernel
  exp(q . k) is replaced by phi(q) . phi(k) for a feature map phi, computed
  in the regrouped O(n) form: accumulate sum_j phi(k_j) and
  sum_j phi(k_j) (x) v_j once, then resolve every query against the sums.

The exponential-features map draws m Gaussian directions and uses positive
features phi(x) = exp(-|x|^2/2)/sqrt(m) * [exp(w_r . x)]_r, an unbiased
estimator of exp(x . y).  The elu-features map is deterministic:
phi(x) = elu(x) + 1 entrywise (positive, no sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit


@dataclass(frozen=True)
class AttnWeights:
    """Projection triple of one attention layer plus its operating bounds.

    ``feature_bound`` caps row norms of valid inputs (strict); ``weight_bound``
    caps the spectral norms of the three projections (strict).
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    feature_bound: float = 1.0
    weight_bound: float = 1.0

    def __post_init__(self):
        w_q = numkit.as_matrix(self.w_q)
        w_k = numkit.as_matrix(self.w_k)
        w_v = numkit.as_matrix(self.w_v)
        if w_q.shape != w_k.shape:
            raise ValueError("w_q and w_k must share a shape")
        if w_v.shape[0] != w_q.shape[0]:
            raise ValueError("w_v must accept the same input dimension")
        if self.feature_bound <= 0 or self.weight_bound <= 0:
            raise ValueError("bounds must be positive")
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)
        object.__setattr__(self, "w_v", w_v)

    @property
    def in_dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def qk_dim(self) -> int:
        return self.w_q.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w_v.shape[1]


def random_weights(d: int, rng: np.random.Generator, qk_dim: int | None = None,
                   out_dim: int | None = None, feature_bound: float = 1.0,
                   weight_bound: float = 1.0) -> AttnWeights:
    """Random projections rescaled to spectral norm 0.8 * ``weight_bound``."""
    qk_dim = d if qk_dim is None else qk_dim
    out_dim = d if out_dim is None else out_dim

    def draw(cols):
        m = numkit.gaussian_matrix(d, cols, rng)
        norm = numkit.spectral_norm(m)
        return m * (0.8 * weight_bound / norm) if norm > 0 else m

    return AttnWeights(draw(qk_dim), draw(qk_dim), draw(out_dim),
                       feature_bound, weight_bound)


def self_attention(X, w: AttnWeights) -> np.ndarray:
    """Exact softmax attention: softmax(X Wq (X Wk)^T) X Wv, row-wise."""
    X = numkit.as_matrix(X)
    if X.shape[0] < 1:
        raise ValueError("attention needs at least one row")
    if X.shape[1] != w.in_dim:
        raise ValueError(f"input dim {X.shape[1]} does not match weights ({w.in_dim})")
    scores = (X @ w.w_q) @ (X @ w.w_k).T
    return numkit.softmax_rows(scores) @ (X @ w.w_v)


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMap:
    """Positive feature map phi used to linearize the attention kernel.

    kind "exp_features": random-direction exponential features (unbiased for
    the softmax kernel); kind "elu_features": deterministic elu(x)+1.
    """

    kind: str
    directions: np.ndarray | None = None  # (m, qk_dim) for exp_features
    seed: int | None = None

    def __post_init__(self):
        if self.kind == "exp_features":
            if self.directions is None:
                raise ValueError("exp_features needs sampled directions")
            object.__setattr__(self, "directions", numkit.as_matrix(self.directions))
        elif self.kind == "elu_features":
            if self.directions is not None:
                raise ValueError("elu_features takes no sampled directions")
        else:
            raise ValueError(f"unknown feature map kind {self.kind!r}")

    def out_dim(self, qk_dim: int) -> int:
        return qk_dim if self.kind == "elu_features" else self.directions.shape[0]


def exp_feature_map(m: int, qk_dim: int, seed: int) -> FeatureMap:
    """Sample m Gaussian directions for the exponential-features estimator."""
    if m < 1:
        raise ValueError("need at least one random feature")
    rng = numkit.make_rng(seed)
    return FeatureMap("exp_features", numkit.gaussian_matrix(m, qk_dim, rng), seed)


def elu_feature_map() -> FeatureMap:
    return FeatureMap("elu_features")


def phi(x, fm: FeatureMap) -> np.ndarray:
    """Apply the feature map to one vector."""
    return phi_matrix(numkit.as_vector(x).reshape(1, -1), fm)[0]


def phi_matrix(rows, fm: FeatureMap) -> np.ndarray:
    """Apply the feature map to every row of a matrix."""
    rows = numkit.as_matrix(rows)
    if fm.kind == "elu_features":
        return numkit.elu(rows) + 1.0
    if rows.shape[1] != fm.directions.shape[1]:
        raise ValueError(
            f"feature map expects dim {fm.directions.shape[1]}, got {rows.shape[1]}"
        )
    m = fm.directions.shape[0]
    # phi_r(x) = exp(w_r . x - |x|^2 / 2) / sqrt(m)
    args = rows @ fm.directions.T - 0.5 * np.sum(rows * rows, axis=1, keepdims=True)
    return np.exp(args) / np.sqrt(m)


def kernel_estimate(x, y, fm: FeatureMap) -> float:
    """phi(x) . phi(y); for exp_features an unbiased estimate of exp(x . y)."""
    return float(phi(x, fm) @ phi(y, fm))


def approx_attention(X, w: AttnWeights, fm: FeatureMap) -> np.ndarray:
    """Kernelized attention in the regrouped (associativity-exploiting) form.

    row_i = phi(q_i) @ [sum_j phi(k_j) (x) v_j] / phi(q_i) @ [sum_j phi(k_j)]
    """
    X = numkit.as_matrix(X)
    if X.shape[0] < 1:
        raise ValueError("attention needs at least one row")
    P_k = phi_matrix(X @ w.w_k, fm)
    P_q = phi_matrix(X @ w.w_q, fm)
    V = X @ w.w_v
    key_sum = P_k.sum(axis=0)            # sum_j phi(k_j)
    kv_sum = P_k.T @ V                   # sum_j phi(k_j) (x) v_j, raster layout
    den = P_q @ key_sum
    if not np.all(den > 0.0):
        raise ValueError("kernelized attention denominator not positive")
    return (P_q @ kv_sum) / den[:, None]


def denominator_lower_bound(fm: FeatureMap, feature_bound: float,
                            weight_bound: float, n: int, qk_dim: int) -> float:
    """Analytic positive floor of the kernelized-attention denominator.

    Every projected row has norm < B = feature_bound * weight_bound, so each
    feature entry is at least exp(-B^2/2 - |w_r| B)/sqrt(m) (exp features) or
    exp(-B) entrywise (elu features, since elu(t)+1 = exp(t) for t < 0).  The
    denominator sums n products of matching positive entries.
    """
    b = feature_bound * weight_bound
    if fm.kind == "elu_features":
        per_entry = np.exp(-b)
        return float(n * qk_dim * per_entry * per_entry)
    norms = np.sqrt(np.sum(fm.directions * fm.directions, axis=1))
    m = fm.directions.shape[0]
    entries = np.exp(-0.5 * b * b - norms * b) / np.sqrt(m)
    return float(n * np.sum(entries * entries))


# ---------------------------------------------------------------------------
# bilinear-vs-nonlinear scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gatv2Score:
    """Additive attention score a^T LeakyReLU(W [u ; v] + b)."""

    a: np.ndarray
    w: np.ndarray  # (hidden, d_u + d_v)
    b: np.ndarray
    slope: float = 0.2

    def __post_init__(self):
        a = numkit.as_vector(self.a)
        w = numkit.as_matrix(self.w)
        b = numkit.as_vector(self.b)
        if a.shape[0] != w.shape[0] or b.shape[0] != w.shape[0]:
            raise ValueError("a, b must match the hidden row count of w")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)


def l1_score(d: int, slope: float = 0.2) -> Gatv2Score:
    """The additive score -|u - v|_1 over d-dimensional u and v, exactly.

    LeakyReLU(t) + LeakyReLU(-t) = (1 - slope) |t|, so W = [[I, -I], [-I, I]],
    b = 0 and a = -1/(1 - slope) give minus the L1 distance: v itself scores
    0, every other point strictly less (cf. Brody et al. 2022, 2105.14491).
    """
    w = np.eye(2 * d) - np.eye(2 * d, k=d) - np.eye(2 * d, k=-d)
    return Gatv2Score(a=np.full(2 * d, -1.0 / (1.0 - slope)), w=w,
                      b=np.zeros(2 * d), slope=slope)


def gatv2_scores_against(fixed_v, rows, g: Gatv2Score) -> np.ndarray:
    """Score every row u of ``rows`` against one fixed second argument."""
    rows = numkit.as_matrix(rows)
    fixed_v = numkit.as_vector(fixed_v)
    uv = np.concatenate([rows, np.tile(fixed_v, (rows.shape[0], 1))], axis=1)
    pre = uv @ g.w.T + g.b
    return numkit.leaky_relu(pre, g.slope) @ g.a


# ---------------------------------------------------------------------------
# operating assumptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    feature_norms_ok: bool       # strict row-norm bound on inputs
    weight_norms_ok: bool        # strict spectral bound on projections
    max_row_norm: float
    max_weight_norm: float
    score_lo: float              # proven score interval under the bounds
    score_hi: float

    @property
    def all_ok(self) -> bool:
        return self.feature_norms_ok and self.weight_norms_ok


def check_assumptions(X, w: AttnWeights, feature_bound: float | None = None,
                      weight_bound: float | None = None) -> AssumptionReport:
    """Check the strict norm assumptions and report the implied score interval.

    |u^T Wq Wk^T v| <= |u| |Wq| |Wk| |v| < feature_bound^2 * weight_bound^2,
    so every unnormalized score lies in the reported interval.
    """
    X = numkit.as_matrix(X)
    c1 = w.feature_bound if feature_bound is None else float(feature_bound)
    c2 = w.weight_bound if weight_bound is None else float(weight_bound)
    max_row = float(np.max(numkit.row_norms(X))) if X.size else 0.0
    max_weight = max(
        numkit.spectral_norm(w.w_q),
        numkit.spectral_norm(w.w_k),
        numkit.spectral_norm(w.w_v),
    )
    cap = (c1 * c1) * (c2 * c2)
    return AssumptionReport(
        feature_norms_ok=max_row < c1,
        weight_norms_ok=max_weight < c2,
        max_row_norm=max_row,
        max_weight_norm=max_weight,
        score_lo=-cap,
        score_hi=cap,
    )


# ---------------------------------------------------------------------------
# persistence (same weight envelope as the mlp module)
# ---------------------------------------------------------------------------


def feature_map_to_json(fm: FeatureMap) -> dict:
    blob = {"format": "weights/v1", "kind": "feature_map", "map": fm.kind,
            "seed": fm.seed, "rng_algorithm": numkit.RNG_ALGORITHM}
    if fm.directions is not None:
        blob["matrices"] = {"directions": numkit.matrix_to_json(fm.directions)}
    return blob


def feature_map_from_json(blob: dict) -> FeatureMap:
    numkit.require_object(blob, "feature map")
    if blob.get("kind") != "feature_map":
        raise ValueError(f"not a feature map file (kind={blob.get('kind')!r})")
    directions = None
    if "matrices" in blob:
        directions = numkit.matrix_from_json(blob["matrices"]["directions"])
    return FeatureMap(blob["map"], directions,
                      numkit.seed_from_json(blob, "feature map"))


def gatv2_to_json(g: Gatv2Score) -> dict:
    return {
        "format": "weights/v1",
        "kind": "gatv2",
        "slope": g.slope,
        "matrices": {
            "a": numkit.vector_to_json(g.a),
            "w": numkit.matrix_to_json(g.w),
            "b": numkit.vector_to_json(g.b),
        },
    }


def gatv2_from_json(blob: dict) -> Gatv2Score:
    numkit.require_object(blob, "gatv2 weight")
    if blob.get("kind") != "gatv2":
        raise ValueError(f"not a gatv2 weight file (kind={blob.get('kind')!r})")
    mats = blob["matrices"]
    return Gatv2Score(
        numkit.vector_from_json(mats["a"]),
        numkit.matrix_from_json(mats["w"]),
        numkit.vector_from_json(mats["b"]),
        numkit.scalar_from_json(blob.get("slope"), float, "gatv2 slope"),
    )

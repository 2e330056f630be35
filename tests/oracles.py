"""Independent reference implementations used to check the package.

Everything in here is written the slow, obvious way (explicit Python loops,
direct formulas) so that agreement with the vectorized implementations is
meaningful.  Test modules and the acceptance suite import from this file.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# mlp oracles
# ---------------------------------------------------------------------------

# (widths, activation) pairs the forward-pass tests run.
MLP_SHAPE_MATRIX = [
    ((1, 1), "relu"),
    ((1, 8, 1), "relu"),
    ((2, 16, 4), "relu"),
    ((3, 8, 8, 2), "elu"),
    ((5, 4, 3), "elu"),
    ((2, 12, 12, 1), "relu"),
]


def _act_scalar(name: str, z: float) -> float:
    if name == "relu":
        return z if z > 0.0 else 0.0
    if name == "elu":
        return z if z >= 0.0 else math.exp(z) - 1.0
    raise ValueError(name)


def mlp_forward_oracle(params, x: np.ndarray) -> np.ndarray:
    """Pure-Python, loop-by-loop forward pass for a single input vector."""
    h = [float(v) for v in x]
    last = params.spec.n_layers - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        nxt = []
        for j in range(w.shape[1]):
            acc = float(b[j])
            for i in range(w.shape[0]):
                acc += h[i] * float(w[i, j])
            if li != last:
                acc = _act_scalar(params.spec.activation, acc)
            nxt.append(acc)
        h = nxt
    return np.asarray(h)


# ---------------------------------------------------------------------------
# attention oracles
# ---------------------------------------------------------------------------


def self_attention_oracle(X: np.ndarray, w_q, w_k, w_v) -> np.ndarray:
    """Row-by-row softmax attention computed with scalar loops."""
    n, d = X.shape
    out = np.zeros((n, w_v.shape[1]))
    for i in range(n):
        scores = []
        for j in range(n):
            q = [sum(X[i, a] * w_q[a, c] for a in range(d)) for c in range(w_q.shape[1])]
            k = [sum(X[j, a] * w_k[a, c] for a in range(d)) for c in range(w_k.shape[1])]
            scores.append(sum(qc * kc for qc, kc in zip(q, k)))
        mx = max(scores)
        es = [math.exp(s - mx) for s in scores]
        z = sum(es)
        for j in range(n):
            vj = [sum(X[j, a] * w_v[a, c] for a in range(d)) for c in range(w_v.shape[1])]
            for c in range(len(vj)):
                out[i, c] += (es[j] / z) * vj[c]
    return out


def kernelized_attention_pairwise(X: np.ndarray, w_q, w_k, w_v, phi_fn) -> np.ndarray:
    """Kernelized attention in per-pair form: no regrouping of the sums.

    row_i = sum_j (phi(q_i) . phi(k_j)) v_j / sum_j (phi(q_i) . phi(k_j))
    """
    n = X.shape[0]
    Q = X @ w_q
    K = X @ w_k
    V = X @ w_v
    out = np.zeros_like(V)
    for i in range(n):
        pq = phi_fn(Q[i])
        num = np.zeros(V.shape[1])
        den = 0.0
        for j in range(n):
            sim = float(pq @ phi_fn(K[j]))
            num += sim * V[j]
            den += sim
        out[i] = num / den
    return out


def exp_features_oracle(rows: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Performer's positive features exp(w . x - |x|^2 / 2) / sqrt(m).

    One expression with a fresh temporary per step.  ``phi_matrix`` applies
    the same ufuncs to the same operands in one buffer, so it must agree bit
    for bit.
    """
    m = directions.shape[0]
    return np.exp(rows @ directions.T
                  - 0.5 * np.sum(rows * rows, axis=1, keepdims=True)) / np.sqrt(m)


def gatv2_score_oracle(u, v, a, w, b, slope: float = 0.2) -> float:
    """a^T LeakyReLU(W [u ; v] + b), expanded entry by entry."""
    uv = list(u) + list(v)
    acc = 0.0
    for r in range(w.shape[0]):
        pre = float(b[r])
        for c in range(w.shape[1]):
            pre += float(w[r, c]) * uv[c]
        acc += float(a[r]) * (pre if pre > 0 else slope * pre)
    return acc


# ---------------------------------------------------------------------------
# graph / calendar oracles
# ---------------------------------------------------------------------------


def grid_degree_census(rows: int, cols: int, neighborhood: int):
    """Count nodes by degree via explicit neighbor enumeration."""
    if neighborhood == 4:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    census: dict[int, int] = {}
    total_deg = 0
    for r in range(rows):
        for c in range(cols):
            deg = 0
            for dr, dc in steps:
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    deg += 1
            census[deg] = census.get(deg, 0) + 1
            total_deg += deg
    assert total_deg % 2 == 0
    return census, total_deg // 2


def calendar_days_oracle(start_year: int, end_year: int) -> int:
    """Day count via per-year leap-rule enumeration (no date library)."""

    def is_leap(y):
        return y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)

    return sum(366 if is_leap(y) else 365 for y in range(start_year, end_year + 1))


# ---------------------------------------------------------------------------
# deep-construction trace oracle
# ---------------------------------------------------------------------------


def deep_trace_oracle(X: np.ndarray, selectors: np.ndarray, w_q, w_k, w_v, time: int):
    """Closed-form node states of the depth-(n+2) program at a given time.

    Times follow the layer clock: state 0 is the initial embedding, state t is
    the synchronous result after layer t.  Selection is assumed perfect
    (oracle mode), so the feature picked at layer k is exactly X[k-1].

    Graph-node states are [x | acc | mass | q]: layer 1 stages each query
    q_i = x_i @ w_q, which stays until the final normalization (time n+2)
    zeroes every channel but the output.

    Returns (gn_states (n, 3d+1), vn_state (2d+1,)).
    """
    n, d = X.shape
    if not 0 <= time <= n + 2:
        raise ValueError(f"time {time} outside program range 0..{n + 2}")

    def score_exp(i: int, k: int) -> float:
        # exp of the unnormalized attention score between x_i and x_k, one
        # pair at a time; np.exp (not math.exp) and einsum (not BLAS @) for
        # the query side so the oracle and the engine share one
        # elementary-function implementation and one summation order, and
        # can agree bitwise
        q = np.einsum("a,ac->c", X[i], w_q)
        return float(np.exp(np.einsum("c,c->", q, X[k] @ w_k)))

    vn = np.zeros(2 * d + 1)
    if time <= n:
        if time >= 1:
            vn[:d] = X[time - 1]
        if time <= n - 1:
            # selector for the next layer; zeroed once selection is finished
            vn[d : 2 * d] = selectors[time]
    else:
        vn[:] = 1.0

    gn = np.zeros((n, 3 * d + 1))
    gn[:, :d] = X
    if 1 <= time <= n + 1:
        for i in range(n):
            gn[i, 2 * d + 1 :] = np.einsum("a,ac->c", X[i], w_q)
    upto = min(max(time - 1, 0), n)  # accumulation covers features 1..time-1
    for i in range(n):
        acc = np.zeros(d)
        ps = 0.0
        for k in range(upto):
            e = score_exp(i, k)
            acc = acc + e * (X[k] @ w_v)
            ps = ps + e
        if time == n + 2:
            gn[i, :d] = acc / ps
            gn[i, d : 2 * d] = 0.0
            gn[i, 2 * d] = 0.0
        else:
            gn[i, d : 2 * d] = acc
            gn[i, 2 * d] = ps
    return gn, vn


def time2_rows_oracle(X: np.ndarray, w_q, w_k, w_v, gn: dict) -> bool:
    """Whether the deep program's state after layer 2, as its named blocks
    ``gn``, is exact: each row i holds x_i, its query q_i = x_i @ w_q, and
    one accumulated term against y = X[0], acc_i = e_i (y @ w_v) and
    mass_i = e_i with e_i = exp(q_i . (y @ w_k)).

    One row at a time, with the per-row einsum (not BLAS @), so an exact
    state agrees bitwise.
    """
    y = X[0]
    yk = y @ w_k
    yv = y @ w_v
    for i in range(X.shape[0]):
        q = np.einsum("a,ac->c", X[i], w_q)
        e = np.exp(np.einsum("c,c->", q, yk))
        if not (np.array_equal(gn["acc"][i], e * yv) and gn["mass"][i, 0] == e
                and np.array_equal(gn["x"][i], X[i])
                and np.array_equal(gn["q"][i], q)):
            return False
    return True


def deepsets_linear_oracle(X, A, B, c):
    """Explicit-summation evaluation of X A + (1/n) 1 1^T X B + 1 c^T."""
    n, d_in = X.shape
    d_out = A.shape[1]
    mean = [sum(float(X[i, p]) for i in range(n)) / n for p in range(d_in)]
    out = np.zeros((n, d_out))
    for i in range(n):
        for q in range(d_out):
            v = float(c[q])
            for p in range(d_in):
                v += float(X[i, p]) * float(A[p, q])
                v += mean[p] * float(B[p, q])
            out[i, q] = v
    return out


def random_network(widths, rng, activation: str = "relu"):
    """A set network with one ``random_linear`` layer per consecutive pair
    of ``widths``, the layers drawn from ``rng`` in order."""
    from vnlab.deepsets import DeepSetsNet, random_linear

    layers = [random_linear(a, b, rng) for a, b in zip(widths[:-1], widths[1:])]
    return DeepSetsNet(tuple(layers), activation=activation)


# ---------------------------------------------------------------------------
# nonlinear separation
# ---------------------------------------------------------------------------


def delta_nonlin_sep(sets) -> float:
    """Smallest cross-set distance: min over set pairs of min pair distance."""
    from vnlab import numkit

    mats = [numkit.as_matrix(s) for s in sets]
    if len(mats) < 2:
        raise ValueError("need at least two point sets")
    if any(m.shape[0] == 0 for m in mats):
        raise ValueError("point sets must be non-empty")
    best = np.inf
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            diff = mats[a][:, None, :] - mats[b][None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            best = min(best, float(dist.min()))
    return best


# ---------------------------------------------------------------------------
# sequential hull-distance certifier
# ---------------------------------------------------------------------------
#
# One dense simplex tableau per LP, pivoted row by row with Bland's rule and
# priced column by column: the certifier as it was before its LPs were
# stacked.  The stacked solver must take exactly these pivots, so agreement
# is checked bit for bit.

ORACLE_LP_TOL = 1e-9


def _oracle_pivot(T, row, col):
    T[row] = T[row] / T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] = T[r] - T[r, col] * T[row]


def _oracle_bland_iterate(T, basis):
    """Simplex iterations in place until optimal or unbounded."""
    m = len(basis)
    while True:
        enter = -1
        for j in range(T.shape[1] - 1):
            if T[-1, j] < -ORACLE_LP_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = np.inf
        for i in range(m):
            if T[i, enter] > ORACLE_LP_TOL:
                ratio = T[i, -1] / T[i, enter]
                if ratio < best - ORACLE_LP_TOL or (
                    abs(ratio - best) <= ORACLE_LP_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _oracle_pivot(T, leave, enter)
        basis[leave] = enter


def solve_lp_oracle(c, A, b, basis):
    """min c.x s.t. A x = b, x >= 0 from a feasible start basis.

    Returns (status, x, objective, final basis); x, objective and basis are
    None when the LP is unbounded.
    """
    c = np.ascontiguousarray(np.asarray(c, dtype=np.float64))
    A = np.ascontiguousarray(np.asarray(A, dtype=np.float64))
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    m, n = A.shape
    basis = [int(j) for j in basis]
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[-1, :n] = c
    for i, j in enumerate(basis):
        if not 0 <= j < n or abs(T[i, j]) <= ORACLE_LP_TOL:
            raise ValueError(f"start column {j} is singular in row {i}")
        _oracle_pivot(T, i, j)
    if np.any(T[:m, -1] < 0.0):
        raise ValueError("start basis is not feasible")
    if _oracle_bland_iterate(T, basis) == "unbounded":
        return "unbounded", None, None, None
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return "optimal", x, float(c @ x), tuple(basis)


def hull_distance_oracle(p, points):
    """(L1 distance from p to conv(points), dual direction w), one LP."""
    k, d = points.shape
    A = np.block([[points.T, np.eye(d), -np.eye(d)],
                  [np.ones((1, k)), np.zeros((1, 2 * d))]])
    b = np.concatenate([p, [1.0]])
    c = np.concatenate([np.zeros(k), np.ones(2 * d)])
    start = [k + i if p[i] - points[0, i] >= 0.0 else k + d + i
             for i in range(d)]
    status, _, objective, basis = solve_lp_oracle(c, A, b, start + [0])
    assert status == "optimal"
    B = list(basis)
    w = np.linalg.solve(A[:, B].T, c[B])[:d]
    return objective, np.clip(w, -1.0, 1.0)


def strict_separation_oracle(i, X, band):
    """(w, margin) for point i of X, or None when the margin is <= band."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    others = np.delete(X, i, axis=0)
    _, w = hull_distance_oracle(X[i], others)
    margin = float(np.min((X[i] - others) @ w))
    if margin <= band:
        return None
    return w, margin


def vdelta_certificate_oracle(X, eps, band):
    """(directions, margins, amplification, inseparable indices).

    On failure the first three are None; on success the tuple is empty.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    directions = np.zeros((n, d))
    margins = np.zeros(n)
    bad = []
    for i in range(n):
        got = strict_separation_oracle(i, X, band)
        if got is None:
            bad.append(i)
        else:
            directions[i], margins[i] = got
    if bad:
        return None, None, None, tuple(bad)
    delta = float(margins.min())
    amplification = math.log((n - 1) * (1.0 - eps) / eps) / delta
    return directions, margins, amplification, ()


# ---------------------------------------------------------------------------
# mlp-mode probe oracle
# ---------------------------------------------------------------------------


def probe_bounds_oracle(w, cfg) -> dict:
    """The mlp-mode probe as a batch-by-batch loop: every bound is updated
    after each batch of ``_PROBE_N`` in-ball rows, then inflated."""
    from vnlab import attention, numkit
    from vnlab.constructions import (_DOMAIN_INFLATION, _PROBE_N,
                                     _SCALE_BOUNDS, _inflate)

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
        X = rng.normal(size=(_PROBE_N, w.in_dim))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        radii = cfg.feature_bound * rng.uniform(
            0.5, 1.0, size=(_PROBE_N, 1)
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

    f = _DOMAIN_INFLATION
    bounds = {k: track[k] * f for k in _SCALE_BOUNDS}
    bounds["arg_lo"], bounds["arg_hi"] = _inflate(track["arg_lo"],
                                                  track["arg_hi"], f)
    # the denominator window widens multiplicatively and must stay positive
    bounds["den_lo"] = track["den_lo"] / f
    bounds["den_hi"] = track["den_hi"] * f
    bounds["inv_max"] = 1.0 / bounds["den_lo"]
    return bounds

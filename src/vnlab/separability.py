"""Certifying when softmax attention can single out individual set elements.

A point x_i can be selected by a softmax over bilinear scores exactly when
some direction scores x_i strictly above every other point — equivalently,
when x_i lies outside the convex hull of the rest.  One LP answers both: the
L1 distance from x_i to the others' hull is, by LP duality, the max margin
min_j (x_i - x_j).w over |w|_inf <= 1, and its optimal duals are that w
(Mangasarian, "Arbitrary-norm separating plane", Oper. Res. Lett. 24, 1999).

* ``strict_separation`` reads the max-margin direction off the duals;
* ``hull_member`` tests the same distance for zero;
* ``vdelta_certificate`` packages per-point directions and margins, plus the
  score amplification needed to push the softmax weight to a target level;
* ``delta_nonlin_sep`` and ``train_gatv2_selector`` cover the relaxation to
  nonlinearly separated point clusters, where no bilinear score works but a
  trained additive score does.

The LP solver is a dense two-phase primal simplex with Bland's anti-cycling
pivot rule: deterministic, dependency-free, adequate for the small instances
certified here (d+1 rows, a few dozen columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mlp, numkit
from .attention import Gatv2Score, gatv2_scores_against

LP_TOL = 1e-9
# Margins at or below this are reported as "not separable": selection error
# grows like 1/margin, so certifying hairline margins is useless downstream.
MARGIN_BAND = 1e-6


# ---------------------------------------------------------------------------
# linear programming: dense two-phase primal simplex, Bland's rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    basis: tuple | None = None  # final basic column of each kept row


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] = T[r] - T[r, col] * T[row]


def _bland_iterate(T: np.ndarray, basis: list[int], n_cols: int,
                   tol: float) -> str:
    """Run simplex iterations in place until optimal or unbounded."""
    m = len(basis)
    while True:
        enter = -1
        for j in range(n_cols):
            if T[-1, j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = np.inf
        for i in range(m):
            if T[i, enter] > tol:
                ratio = T[i, -1] / T[i, enter]
                # Bland: strictly better ratio wins; ties go to the smallest
                # basis index, which is what rules out cycling.
                if ratio < best - tol or (
                    abs(ratio - best) <= tol
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def solve_lp(c, A, b, tol: float = LP_TOL) -> LpResult:
    """Minimize c.x subject to A x = b, x >= 0.

    Two-phase dense simplex.  Phase 1 minimizes artificial variables to find
    a feasible basis (infeasible if their sum stays positive); phase 2
    minimizes the real objective.  Bland's rule everywhere, so termination is
    guaranteed and identical inputs take identical pivots.  With A of full
    row rank, the duals are y = solve(A[:, basis].T, c[basis]).
    """
    c = numkit.as_vector(c)
    A = numkit.as_matrix(A)
    b = numkit.as_vector(b).copy()
    m, n = A.shape
    if c.shape[0] != n or b.shape[0] != m:
        raise ValueError("LP dimensions disagree")
    if m == 0:
        return LpResult("optimal", np.zeros(n), 0.0, ())

    A = A.copy()
    neg = b < 0
    A[neg] = -A[neg]
    b[neg] = -b[neg]

    # phase 1 tableau: [A | I | b] with one cost row under it
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    # reduced costs for minimizing the artificial sum
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()

    if _bland_iterate(T, basis, n + m, tol) != "optimal":
        raise RuntimeError("phase-1 LP cannot be unbounded")  # pragma: no cover
    # feasibility threshold: a decade above the pivot tolerance
    if -T[-1, -1] > 10.0 * tol:
        return LpResult("infeasible", None, None)

    # drive surviving artificials out of the basis (degenerate pivots)
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            piv = -1
            for j in range(n):
                if abs(T[i, j]) > tol:
                    piv = j
                    break
            if piv < 0:
                drop_rows.append(i)  # redundant constraint
            else:
                _pivot(T, i, piv)
                basis[i] = piv
    if drop_rows:
        keep = [i for i in range(m) if i not in drop_rows]
        T = T[keep + [m]]
        basis = [basis[i] for i in keep]
        m = len(basis)

    # phase 2: rebuild the cost row for the real objective
    T = np.concatenate([T[:m, :n], T[:m, -1:]], axis=1)
    cost = np.zeros(n + 1)
    cost[:n] = c
    for i, bi in enumerate(basis):
        cost = cost - cost[bi] * np.concatenate([T[i, :n], T[i, -1:]])
    T = np.vstack([T, cost])

    if _bland_iterate(T, basis, n, tol) == "unbounded":
        return LpResult("unbounded", None, None)

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return LpResult("optimal", x, float(c @ x), tuple(basis))


# ---------------------------------------------------------------------------
# separation and hull membership
# ---------------------------------------------------------------------------


def _hull_distance(p: np.ndarray, points: np.ndarray):
    """(L1 distance from p to the hull of ``points``, dual direction w).

    min 1.(u + v)  s.t.  points.T lam + u - v = p,  1.lam = 1,  all >= 0; the
    u block makes the d+1 rows full rank.  The dual constraints make w a
    |w|_inf <= 1 direction whose margin min_j (p - x_j).w is the distance.
    """
    k, d = points.shape
    A = np.block([[points.T, np.eye(d), -np.eye(d)],
                  [np.ones((1, k)), np.zeros((1, 2 * d))]])
    b = np.concatenate([p, [1.0]])
    c = np.concatenate([np.zeros(k), np.ones(2 * d)])
    res = solve_lp(c, A, b)
    if res.status != "optimal":  # pragma: no cover - feasible and bounded
        raise RuntimeError(f"hull-distance LP ended {res.status}")
    B = list(res.basis)
    w = np.linalg.solve(A[:, B].T, c[B])[:d]
    # the dual box holds only to the pivot tolerance; make it exact
    return res.objective, np.clip(w, -1.0, 1.0)


def strict_separation(i: int, X, band: float = MARGIN_BAND):
    """Max-margin direction scoring x_i above every other point, or None.

    max_w min_j (x_i - x_j).w over |w|_inf <= 1, with w read off the duals of
    the L1 distance from x_i to the others' hull.  The margin is computed from
    w, so w always reaches it.  Returns (w, margin) when the margin clears
    the ``band``; margins inside the band count as inseparable.
    """
    X = numkit.check_finite(numkit.as_matrix(X), "points")
    n = X.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for {n} points")
    if n < 2:
        raise ValueError("separation needs at least two points")
    others = np.delete(X, i, axis=0)
    _, w = _hull_distance(X[i], others)
    margin = float(np.min((X[i] - others) @ w))
    if margin <= band:
        return None
    return w, margin


def hull_member(p, points) -> bool:
    """Is p a convex combination of the given points?

    True when p's L1 distance to their hull is at most 10 * LP_TOL; borderline
    cases fall inside the margin band, where callers treat answers as unsure.
    """
    points = numkit.check_finite(numkit.as_matrix(points), "points")
    p = numkit.check_finite(numkit.as_vector(p), "point")
    if points.shape[0] == 0:
        raise ValueError("hull of an empty point set")
    if points.shape[1] != p.shape[0]:
        raise ValueError("dimension mismatch")
    distance, _ = _hull_distance(p, points)
    return distance <= 10.0 * LP_TOL


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeparabilityCertificate:
    """Per-point selection directions with their margins.

    The bilinear score is kept in normal form: the quadratic weight matrix is
    the identity and the learned direction is folded into ``directions[i]``,
    so the selection score for target i is amplification * (x . directions[i]).
    """

    directions: np.ndarray  # (n, d), box-normalized (sup-norm <= 1)
    margins: np.ndarray  # (n,), all > 0
    amplification: float
    eps: float
    band: float = MARGIN_BAND
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "directions", numkit.as_matrix(self.directions))
        object.__setattr__(self, "margins", numkit.as_vector(self.margins))
        if self.directions.shape[0] != self.margins.shape[0]:
            raise ValueError("one margin per direction required")
        if np.any(self.margins <= 0.0):
            raise ValueError("certificate margins must be positive")
        if not self.amplification > 0.0:
            raise ValueError("amplification must be positive")

    @property
    def n(self) -> int:
        return self.directions.shape[0]

    @property
    def delta(self) -> float:
        return float(self.margins.min())


@dataclass(frozen=True)
class CertificateFailure:
    """Certification failed: these point indices are not separable."""

    inseparable: tuple

    @property
    def ok(self) -> bool:
        return False


def amplification_for(delta: float, eps: float, n: int) -> float:
    """Smallest score scale making the target's softmax weight >= 1 - eps.

    With a margin of delta and n-1 competitors tied just below, a scale c
    gives the target weight e^{c delta} / (e^{c delta} + n - 1); solving for
    weight = 1 - eps yields c = ln((n-1)(1-eps)/eps) / delta.
    """
    if delta <= 0.0:
        raise ValueError("margin must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("amplification needs at least two points")
    return math.log((n - 1) * (1.0 - eps) / eps) / delta


def vdelta_certificate(X, eps: float = 1e-4, band: float = MARGIN_BAND,
                       seed: int | None = None):
    """Certify every point as softmax-selectable, or report which are not.

    Success returns a :class:`SeparabilityCertificate` whose amplification is
    sized so every point's selection weight reaches >= 1 - eps; failure
    returns a :class:`CertificateFailure` naming the inseparable indices.
    """
    X = numkit.as_matrix(X)
    n, d = X.shape
    if n < 2:
        raise ValueError("certification needs at least two points")
    directions = np.zeros((n, d))
    margins = np.zeros(n)
    bad = []
    for i in range(n):
        got = strict_separation(i, X, band=band)
        if got is None:
            bad.append(i)
        else:
            directions[i], margins[i] = got
    if bad:
        return CertificateFailure(tuple(bad))
    delta = float(margins.min())
    return SeparabilityCertificate(
        directions=directions,
        margins=margins,
        amplification=amplification_for(delta, eps, n),
        eps=eps,
        band=band,
        seed=seed,
    )


def selection_weights(X, cert: SeparabilityCertificate, target: int) -> np.ndarray:
    """Softmax weights of the amplified bilinear selection score.

    Guarantee: weights[target] >= e^{c m} / (e^{c m} + n - 1) with
    c the certificate amplification and m the target's margin.
    """
    X = numkit.as_matrix(X)
    if X.shape[0] != cert.n:
        raise ValueError("certificate covers a different point count")
    if not 0 <= target < cert.n:
        raise ValueError("target index out of range")
    scores = cert.amplification * (X @ cert.directions[target])
    return numkit.softmax(scores)


def selection_weight_bound(c: float, margin: float, n: int) -> float:
    """e^{c margin} / (e^{c margin} + n - 1), the guaranteed target weight."""
    # computed in log-space so huge amplifications don't overflow
    z = c * margin
    return float(1.0 / (1.0 + (n - 1) * math.exp(-z)))


# ---------------------------------------------------------------------------
# nonlinear separation and the trained additive selector
# ---------------------------------------------------------------------------


def delta_nonlin_sep(sets) -> float:
    """Smallest cross-set distance: min over set pairs of min pair distance."""
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


def three_cluster_line(n_per: int = 3, spread: float = 0.15,
                       centers=(-2.0, 0.0, 2.0)):
    """Three 1-D clusters on a line; the middle one defeats bilinear scores.

    Every middle point lies between outer points, i.e. inside their convex
    hull, so no direction separates it — yet the clusters are far apart, so a
    nonlinear score can single the middle one out.  Points are deterministic
    (evenly spread around each center).
    """
    if n_per == 1:
        offsets = np.zeros(1)
    else:
        offsets = spread * np.linspace(-1.0, 1.0, n_per)
    return [np.array([[c + o] for o in offsets]) for c in centers]


@dataclass
class SelectorResult:
    """A trained additive selection score and how well it worked."""

    score: Gatv2Score
    achieved_gap: float
    requested_gap: float
    target: int
    fit_report: mlp.FitReport

    @property
    def ok(self) -> bool:
        return self.achieved_gap >= self.requested_gap


def _mlp_to_gatv2(params: mlp.MlpParams, selector_dim: int) -> Gatv2Score:
    """Exactly rewrite a 1-hidden-layer leaky-ReLU network as an added score.

    The score form a^T LeakyReLU(W [u ; v] + b) has no output bias, so the
    network's output bias rides along as one extra hidden unit with zero
    incoming weights and bias 1 (LeakyReLU(1) = 1).  The selector block of W
    is zero: the trained score reads only the candidate point, which keeps it
    valid whatever the selector channels hold.
    """
    if params.spec.n_layers != 2:
        raise ValueError("conversion expects exactly one hidden layer")
    if params.spec.activation != "leaky_relu":
        raise ValueError("conversion expects a leaky_relu hidden layer")
    w1 = params.weights[0]  # (d_in, hidden)
    b1 = params.biases[0]
    w2 = params.weights[1]  # (hidden, 1)
    b2 = params.biases[1]
    d_in, hidden = w1.shape
    W = np.zeros((hidden + 1, d_in + selector_dim))
    W[:hidden, :d_in] = w1.T
    b = np.concatenate([b1, [1.0]])
    a = np.concatenate([w2[:, 0], [float(b2[0])]])
    return Gatv2Score(a=a, w=W, b=b, slope=0.2)


def train_gatv2_selector(
    sets,
    target: int,
    gap: float = 1.0,
    hidden: int = 16,
    seed: int = 0,
    budget: mlp.FitBudget | None = None,
) -> SelectorResult:
    """Fit an additive score separating one point set from all the others.

    Trains a small network toward value 1.5 on the target set and 0 on the
    rest, then rewrites it exactly in the additive-score form.  The achieved
    gap (min target score minus max non-target score over the given points)
    is reported; callers decide whether it suffices.
    """
    mats = [numkit.as_matrix(s) for s in sets]
    if not 0 <= target < len(mats):
        raise ValueError("target set index out of range")
    X = np.vstack(mats)
    y = np.concatenate(
        [np.full(m.shape[0], 1.5 if k == target else 0.0)
         for k, m in enumerate(mats)]
    ).reshape(-1, 1)
    d = X.shape[1]
    spec = mlp.MlpSpec(widths=(d, hidden, 1), activation="leaky_relu")
    if budget is None:
        budget = mlp.FitBudget(max_epochs=3000, lr=1e-2, schedule="cosine",
                               eval_every=50, target_sup=0.05)
    params, report = mlp.fit(spec, X, y, budget, X, y, seed=seed)
    score = _mlp_to_gatv2(params, selector_dim=d)

    values = gatv2_scores_against(np.zeros(d), X, score)
    mask = np.concatenate(
        [np.full(m.shape[0], k == target) for k, m in enumerate(mats)]
    )
    achieved = float(values[mask].min() - values[~mask].max())
    return SelectorResult(score=score, achieved_gap=achieved,
                          requested_gap=gap, target=target,
                          fit_report=report)


def gatv2_selection_weights(points, score: Gatv2Score, scale: float,
                            selector=None) -> np.ndarray:
    """Softmax weights of the scaled additive score over the given points."""
    points = numkit.as_matrix(points)
    if selector is None:
        selector = np.zeros(points.shape[1])
    values = gatv2_scores_against(selector, points, score)
    return numkit.softmax(scale * values)

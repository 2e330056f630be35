"""Certifying when attention can single out individual set elements.

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
* ``l1_certificate`` certifies any set of distinct points, with no LP, for
  the constructed additive score ``attention.l1_score``;
* ``delta_nonlin_sep`` and ``three_cluster_line`` measure and build
  nonlinearly separated point clusters, where no bilinear score works.

The LP solver is a dense primal simplex with Bland's anti-cycling pivot
rule, run once from a feasible basis the caller supplies: the hull-distance
LP always has one (the first point with weight 1, the slacks absorbing the
rest).  Deterministic, dependency-free, adequate for the small instances
certified here (d+1 rows, a few dozen columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit

LP_TOL = 1e-9
# Margins at or below this are reported as "not separable": selection error
# grows like 1/margin, so certifying hairline margins is useless downstream.
MARGIN_BAND = 1e-6


# ---------------------------------------------------------------------------
# linear programming: dense primal simplex from a feasible basis, Bland's rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    basis: tuple | None = None  # final basic column of each row


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] = T[r] - T[r, col] * T[row]


def _bland_iterate(T: np.ndarray, basis: list[int]) -> str:
    """Run simplex iterations in place until optimal or unbounded."""
    m = len(basis)
    while True:
        enter = -1
        for j in range(T.shape[1] - 1):
            if T[-1, j] < -LP_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = np.inf
        for i in range(m):
            if T[i, enter] > LP_TOL:
                ratio = T[i, -1] / T[i, enter]
                # Bland: strictly better ratio wins; ties go to the smallest
                # basis index, which is what rules out cycling.
                if ratio < best - LP_TOL or (
                    abs(ratio - best) <= LP_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def solve_lp(c, A, b, basis) -> LpResult:
    """Minimize c.x subject to A x = b, x >= 0, starting from ``basis``.

    ``basis[i]`` is the column made basic in row i; the caller guarantees
    that these columns form a feasible basis.  Pivoting them into the tableau
    [A | b] under the cost row [c | 0] turns that row into reduced costs, and
    one run of Bland's rule from there ends optimal or unbounded, so
    termination is guaranteed and identical inputs take identical pivots.
    With the final basis B, the duals are y = solve(A[:, B].T, c[B]).
    """
    c = numkit.as_vector(c)
    A = numkit.as_matrix(A)
    b = numkit.as_vector(b)
    m, n = A.shape
    basis = [int(j) for j in basis]
    if c.shape[0] != n or b.shape[0] != m or len(basis) != m:
        raise ValueError("LP dimensions disagree")
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[-1, :n] = c
    for i, j in enumerate(basis):
        if not 0 <= j < n or abs(T[i, j]) <= LP_TOL:
            raise ValueError(f"start column {j} is singular in row {i}")
        _pivot(T, i, j)
    if np.any(T[:m, -1] < 0.0):
        raise ValueError("start basis is not feasible")

    if _bland_iterate(T, basis) == "unbounded":
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
    # lam_0 = 1 leaves u - v = p - x_0; u_i or v_i takes each row's residual,
    # whichever keeps it non-negative, so this start is feasible exactly
    start = [k + i if p[i] - points[0, i] >= 0.0 else k + d + i
             for i in range(d)]
    res = solve_lp(c, A, b, start + [0])
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

    ``score`` names the score the certificate is for.  Under "bilinear" the
    score is kept in normal form: the quadratic weight matrix is the identity
    and the LP's direction (sup-norm <= 1) is folded into ``directions[i]``,
    so the selection score for target i is amplification * (x . directions[i]).
    Under "l1", ``directions[i]`` is the point x_i itself and the score is
    -amplification * |x - directions[i]|_1 (``attention.l1_score``).  Either
    way ``margins[i]`` is how far x_i's score clears every other point's.
    """

    directions: np.ndarray  # (n, d)
    margins: np.ndarray  # (n,), all > 0
    amplification: float
    eps: float
    band: float = MARGIN_BAND
    score: str = "bilinear"  # "bilinear" | "l1"

    def __post_init__(self):
        object.__setattr__(self, "directions", numkit.as_matrix(self.directions))
        object.__setattr__(self, "margins", numkit.as_vector(self.margins))
        if self.directions.shape[0] != self.margins.shape[0]:
            raise ValueError("one margin per direction required")
        if np.any(self.margins <= 0.0):
            raise ValueError("certificate margins must be positive")
        if not (math.isfinite(self.amplification) and self.amplification > 0.0):
            raise ValueError("amplification must be finite and positive")
        if self.score not in ("bilinear", "l1"):
            raise ValueError(f"unknown certificate score {self.score!r}")

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


def vdelta_certificate(X, eps: float = 1e-4, band: float = MARGIN_BAND):
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
    )


def l1_certificate(X, eps: float = 1e-4, band: float = MARGIN_BAND):
    """Certify every point as selectable by the constructed L1 score.

    With x_i staged, ``attention.l1_score`` scores x_i at 0 and x_j at
    -|x_i - x_j|_1, so x_i's margin is its L1 distance to its nearest other
    point; hull-interior points pass too.  Margins inside the ``band``
    (duplicate points) give a :class:`CertificateFailure`.
    """
    X = numkit.check_finite(numkit.as_matrix(X), "points")
    n = X.shape[0]
    if n < 2:
        raise ValueError("certification needs at least two points")
    dist = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    margins = dist.min(axis=1)
    bad = np.flatnonzero(margins <= band)
    if bad.size:
        return CertificateFailure(tuple(int(i) for i in bad))
    return SeparabilityCertificate(
        directions=X.copy(),
        margins=margins,
        amplification=amplification_for(float(margins.min()), eps, n),
        eps=eps,
        band=band,
        score="l1",
    )


def selection_weight_bound(c: float, margin: float, n: int) -> float:
    """e^{c margin} / (e^{c margin} + n - 1), the guaranteed target weight."""
    # computed in log-space so huge amplifications don't overflow
    z = c * margin
    return float(1.0 / (1.0 + (n - 1) * math.exp(-z)))


# ---------------------------------------------------------------------------
# nonlinear separation
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

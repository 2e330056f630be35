"""Certifying when attention can single out individual set elements.

A point x_i can be selected by a softmax over bilinear scores exactly when
some direction scores x_i strictly above every other point — equivalently,
when x_i lies outside the convex hull of the rest.  One LP answers both: the
L1 distance from x_i to the others' hull is, by LP duality, the max margin
min_j (x_i - x_j).w over |w|_inf <= 1, and its optimal duals are that w
(Mangasarian, "Arbitrary-norm separating plane", Oper. Res. Lett. 24, 1999).

* ``strict_separation`` reads the max-margin direction off the duals, and
  ``point_separations`` does so for every point at once;
* ``hull_member`` tests the same distance for zero;
* ``vdelta_certificate`` packages per-point directions and margins, plus the
  score amplification that lifts every target's softmax weight to at least
  1 - 1e-4 (``CERT_EPS``); margins at or below ``MARGIN_BAND`` fail it;
* ``l1_certificate`` certifies any set of distinct points, with no LP, for
  the constructed additive score ``attention.l1_score``;
* ``three_cluster_line`` builds nonlinearly separated point clusters,
  where no bilinear score works.

The LP solver, ``solve_lp``, is a dense primal simplex with Bland's
anti-cycling pivot rule, run once from a feasible basis the caller supplies:
the hull-distance LP always has one (the first point with weight 1, the
slacks absorbing the rest).  Deterministic, dependency-free, adequate for
the small instances certified here (d+1 rows, a few dozen columns).

It solves only stacks of LPs and returns arrays.  Certifying n points
stacks their n LPs into one (n, d+2, n+2d) tableau that pivots in lockstep:
each iteration every LP still running picks its own entering column and
Bland leaving row, and all of them pivot in one numpy update.  The running
LPs form a compacted working stack; an LP that ends optimal or unbounded is
written back and leaves it.  The leaving row comes from the least ratio in
a few array operations, exact ties going to the smallest basis index; only
LPs with another ratio within ``LP_TOL`` of the least, where the order of
Bland's row scan decides, run that scan.  Each LP takes exactly the pivots,
and gets exactly the bits, it would take solved alone; ``hull_member``
solves a stack of one.  Stacks are chunked so that one holds at most
``LP_BATCH_BYTES`` of tableau, and the working stack is at most a copy of
it, so a large point set still needs O(n d) memory per LP.
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
CERT_EPS = 1e-4  # certified selection weights reach at least 1 - CERT_EPS
# Tableau bytes one lockstep batch of LPs may hold.  Certifying n points
# solves n LPs of O(n d) entries each; chunking them under this budget keeps
# memory at O(n d) per LP however many points there are.
LP_BATCH_BYTES = 1 << 21


# ---------------------------------------------------------------------------
# linear programming: dense primal simplex from a feasible basis, Bland's rule
# ---------------------------------------------------------------------------


def _pivot(T: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Pivot tableau b of the C-contiguous stack ``T`` on (rows[b], cols[b]),
    in place.

    A row whose pivot-column entry is 0 is left as it is: its update is set
    to +0.0, and x - (+0.0) is x bit for bit, where subtracting 0 times the
    pivot row could turn a -0.0 into +0.0.  So every tableau gets exactly
    the float operations of a pivot done on it alone.
    """
    n_lp, height, width = T.shape
    stacked_rows = T.reshape(n_lp * height, width)  # a view: T is contiguous
    at = np.arange(0, n_lp * height, height) + rows
    factor = T[np.arange(n_lp), :, cols]
    prow = stacked_rows.take(at, axis=0) / factor.reshape(-1)[at][:, None]
    update = factor[:, :, None] * prow[:, None, :]
    update[factor == 0.0] = 0.0
    np.subtract(T, update, out=T)
    stacked_rows[at] = prow  # the pivot row's own update is overwritten


def _ratio_scan(ratios: np.ndarray, positive: np.ndarray,
                basis: np.ndarray) -> np.ndarray:
    """Bland's leaving row of each LP by a scan over its rows, or -1.

    Only rows with ``positive`` pivot-column entries compete.  A ratio
    below the best so far by more than ``LP_TOL`` wins; one within
    ``LP_TOL`` of it goes to the smaller basis index, which is what rules
    out cycling.
    """
    n_lp, m = basis.shape
    leave = np.full(n_lp, -1)
    best = np.full(n_lp, np.inf)
    tie_key = np.zeros_like(leave)  # basis index of the current `leave`
    for i in range(m):
        ratio = ratios[:, i]
        wins = positive[:, i] & (
            (ratio < best - LP_TOL)
            | ((np.abs(ratio - best) <= LP_TOL) & (basis[:, i] < tie_key))
        )
        best = np.where(wins, ratio, best)
        leave = np.where(wins, i, leave)
        tie_key = np.where(wins, basis[:, i], tie_key)
    return leave


def _leaving_rows(rhs: np.ndarray, column: np.ndarray,
                  basis: np.ndarray) -> np.ndarray:
    """``_ratio_scan``'s leaving row of each LP (or -1 where no row can
    leave), mostly without the scan.

    Among the rows whose ratio equals the least ratio r*, the scan ends on
    the one with the smallest basis index whenever every other ratio r has
    fl(r - LP_TOL) > r* and fl(r - r*) > LP_TOL; both sides are monotone in
    r, so checking the least such r checks them all.  Only the LPs where
    some other ratio lies within ``LP_TOL`` of r* (or r* is not finite),
    where the scan's order decides, run the scan.
    """
    lp = np.arange(len(column))
    positive = column > LP_TOL
    ratios = np.divide(rhs, column, where=positive,
                       out=np.full(column.shape, np.inf))
    least = ratios[lp, ratios.argmin(axis=1)]  # NaN if any ratio is NaN
    tied = ratios == least[:, None]
    others = np.where(tied, np.inf, ratios)
    untied = others[lp, others.argmin(axis=1)]
    leave = np.where(tied, basis, np.inf).argmin(axis=1)
    stuck = least == np.inf  # no finite ratio: the scan finds no row
    # inf - inf, from rows that cannot leave, is NaN and compares false
    with np.errstate(invalid="ignore"):
        clear = (untied - LP_TOL > least) & (untied - least > LP_TOL) \
            & (least > -np.inf)
        near = ~(clear | stuck)
        if np.count_nonzero(near):
            leave[near] = _ratio_scan(ratios[near], positive[near],
                                      basis[near])
    leave[stuck] = -1
    return leave


def _bland_lockstep(T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Run Bland's rule on a stack of tableaux in place until each ends.

    ``T`` (B, m+1, n+1), C-contiguous, holds every LP's rows [A | b] under
    its reduced-cost row, canonical for ``basis`` (B, m).  Each iteration,
    every LP still running picks its entering column and leaving row as it
    would alone, and all of them pivot in one update.  The running LPs form
    a compacted working stack: an LP that ends optimal (before the ratio
    test) or unbounded (after it) has its tableau and basis written back to
    ``T`` and ``basis`` once and leaves the stack.  Returns the unbounded
    flags (B,).
    """
    n_lp, m = basis.shape
    if m == 0 or n_lp == 0:
        # nothing to pivot; with no row to leave, an entering column is
        # unbounded
        return (T[:, -1, :-1] < -LP_TOL).any(axis=1)
    unbounded = np.zeros(n_lp, dtype=bool)
    ids = lp = np.arange(n_lp)  # each running LP's place in T
    work, work_basis = T, basis  # copied on the first LP to end

    def retire(ended, why):
        """Write the LPs ``ended`` marks back to ``T`` and ``basis`` with
        unbounded flag ``why``; returns the places of the others."""
        nonlocal ids, lp, work, work_basis
        gone = np.flatnonzero(ended)
        done = ids[gone]
        T[done] = work.take(gone, axis=0)
        basis[done] = work_basis.take(gone, axis=0)
        unbounded[done] = why
        keep = np.flatnonzero(~ended)
        work = work.take(keep, axis=0)
        work_basis = work_basis.take(keep, axis=0)
        ids, lp = ids[keep], lp[:keep.size]
        return keep

    while True:
        negative = work[:, -1, :-1] < -LP_TOL
        enter = negative.argmax(axis=1)  # the first negative reduced cost
        # an optimal LP leaves before the ratio test: its enter is column
        # 0 by default, whose ratios mean nothing
        optimal = ~negative[lp, enter]
        if np.count_nonzero(optimal):
            enter = enter[retire(optimal, False)]
            if not enter.size:
                return unbounded
        leave = _leaving_rows(work[:, :m, -1], work[lp, :m, enter],
                              work_basis)
        if np.count_nonzero(leave < 0):
            keep = retire(leave < 0, True)
            if not keep.size:
                return unbounded
            enter, leave = enter[keep], leave[keep]
        _pivot(work, leave, enter)
        work_basis[lp, leave] = enter


def solve_lp(c, A, b, basis):
    """Minimize c[k].x subject to A[k] x = b[k], x >= 0, for each LP k.

    A stack of k LPs: A (k, m, n), c (k, n), b (k, m) and ``basis`` (k, m),
    where ``basis[k, i]`` is the column made basic in row i of LP k; the
    caller guarantees that these columns form a feasible basis.  Pivoting
    them into the tableau [A | b] under the cost row [c | 0] turns that row
    into reduced costs, and one run of Bland's rule from there ends optimal
    or unbounded, so termination is guaranteed and identical inputs take
    identical pivots.  The LPs pivot in lockstep; each takes exactly the
    pivots, and gets exactly the bits, it would take solved alone.

    Returns (x, basis, unbounded): the final basic solutions (k, n), NaN
    for an unbounded LP; the final bases (k, m); and the unbounded flags
    (k,).  With LP k's final basis B, its duals are
    y = solve(A[k][:, B].T, c[k][B]).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 3:
        raise ValueError(f"expected A as a (k, m, n) stack, one constraint "
                         f"matrix per LP, got shape {A.shape}")
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    basis = np.array(basis, dtype=np.intp)
    n_lp, m, n = A.shape
    if c.shape != (n_lp, n) or b.shape != (n_lp, m) \
            or basis.shape != (n_lp, m):
        raise ValueError("LP dimensions disagree")
    T = np.zeros((n_lp, m + 1, n + 1))
    T[:, :m, :n] = A
    T[:, :m, -1] = b
    T[:, -1, :n] = c
    lp = np.arange(n_lp)
    no_such_column = (basis < 0) | (basis >= n)
    for i in range(m):
        j = basis[:, i]
        bad = no_such_column[:, i]
        if not np.count_nonzero(bad):
            bad = np.abs(T[lp, i, j]) <= LP_TOL
        if np.count_nonzero(bad):
            raise ValueError(f"start column {j[bad][0]} is singular in row {i}")
        _pivot(T, np.full(n_lp, i), j)
    if np.any(T[:, :m, -1] < 0.0):
        raise ValueError("start basis is not feasible")

    unbounded = _bland_lockstep(T, basis)
    x = np.zeros((n_lp, n))
    x[lp[:, None], basis] = T[:, :m, -1]
    x[unbounded] = np.nan
    return x, basis, unbounded


# ---------------------------------------------------------------------------
# separation and hull membership
# ---------------------------------------------------------------------------


def _hull_distances(P: np.ndarray, points: np.ndarray):
    """(cost c, solutions x, dual w's) of the L1 distances from each P[b] to
    the hull of points[b]; the distance itself is c @ x[b].

    min 1.(u + v)  s.t.  points.T lam + u - v = p,  1.lam = 1,  all >= 0; the
    u block makes the d+1 rows full rank.  The dual constraints make w a
    |w|_inf <= 1 direction whose margin min_j (p - x_j).w is the distance.
    All the LPs go to ``solve_lp`` as one stack.
    """
    n_lp, k, d = points.shape
    A = np.zeros((n_lp, d + 1, k + 2 * d))
    A[:, :d, :k] = points.transpose(0, 2, 1)
    A[:, :d, k:k + d] = np.eye(d)
    A[:, :d, k + d:] = -np.eye(d)
    A[:, d, :k] = 1.0
    b = np.concatenate([P, np.ones((n_lp, 1))], axis=1)
    c = np.concatenate([np.zeros(k), np.ones(2 * d)])
    # lam_0 = 1 leaves u - v = p - x_0; u_i or v_i takes each row's residual,
    # whichever keeps it non-negative, so this start is feasible exactly
    rows = np.arange(d)
    start = np.where(P - points[:, 0] >= 0.0, k + rows, k + d + rows)
    start = np.concatenate([start, np.zeros((n_lp, 1), dtype=start.dtype)],
                           axis=1)
    x, basis, unbounded = solve_lp(np.broadcast_to(c, (n_lp, c.size)), A, b,
                                   start)
    if unbounded.any():  # pragma: no cover
        raise RuntimeError("hull-distance LP ended unbounded")
    # each LP's basic columns A[:, B], transposed, and their costs c[B]
    A_B = A[np.arange(n_lp)[:, None, None], np.arange(d + 1)[:, None],
            basis[:, None, :]]
    w = np.linalg.solve(A_B.transpose(0, 2, 1), c[basis][:, :, None])
    # the dual box holds only to the pivot tolerance; make it exact
    return c, x, np.clip(w[:, :d, 0], -1.0, 1.0)


def _separations(X: np.ndarray, targets: np.ndarray):
    """Max-margin directions (k, d) and margins (k,) of the target points
    of the checked matrix X, as ``strict_separation`` reads them.

    The targets' LPs are solved in lockstep, in chunks whose tableaux fit
    in ``LP_BATCH_BYTES``.
    """
    n, d = X.shape
    tableau_bytes = 8 * (d + 2) * (n + 2 * d)  # k + 2d + 1 columns, k = n - 1
    step = max(1, LP_BATCH_BYTES // tableau_bytes)
    rest = np.arange(n - 1)
    directions, margins = [], []
    for lo in range(0, len(targets), step):
        chunk = targets[lo:lo + step]
        points = X[chunk]
        # X without each target's own row
        others = X.take(rest + (rest >= chunk[:, None]), axis=0)
        _, _, W = _hull_distances(points, others)
        directions.append(W)
        margins.append(np.matmul(points[:, None, :] - others,
                                 W[:, :, None])[:, :, 0].min(axis=1))
    return np.concatenate(directions), np.concatenate(margins)


def strict_separation(i: int, X, band: float = MARGIN_BAND):
    """Max-margin direction scoring x_i above every other point, or None.

    max_w min_j (x_i - x_j).w over |w|_inf <= 1, with w read off the duals of
    the L1 distance from x_i to the others' hull.  The margin is computed from
    w, so w always reaches it.  Returns (w, margin) when the margin clears
    the ``band``; margins inside the band count as inseparable.
    """
    X = numkit.check_finite(numkit.as_matrix(X), "points")
    n = X.shape[0]
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValueError(f"point index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range for {n} points")
    if n < 2:
        raise ValueError("separation needs at least two points")
    W, margins = _separations(X, np.array([i]))
    margin = float(margins[0])
    return None if margin <= band else (W[0], margin)


def point_separations(X, band: float = MARGIN_BAND) -> list:
    """``strict_separation`` of every point of X, all its LPs in one call.

    Returns one entry per point: (w, margin), or None when inseparable.
    """
    X = numkit.check_finite(numkit.as_matrix(X), "points")
    if X.shape[0] < 2:
        raise ValueError("separation needs at least two points")
    W, margins = _separations(X, np.arange(X.shape[0]))
    return [None if margin <= band else (w, margin)
            for w, margin in zip(W, margins.tolist())]


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
    c, x, _ = _hull_distances(p[None], points[None])
    return float(c @ x[0]) <= 10.0 * LP_TOL


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
    score: str = "bilinear"  # "bilinear" | "l1"

    def __post_init__(self):
        object.__setattr__(self, "directions", numkit.as_matrix(self.directions))
        object.__setattr__(self, "margins", numkit.as_vector(self.margins))
        if self.directions.shape[0] != self.margins.shape[0]:
            raise ValueError("one margin per direction required")
        if not np.all(np.isfinite(self.directions)):
            raise ValueError("certificate directions must be finite")
        # not ``any(m <= 0)``, which a NaN margin passes
        if not np.all(self.margins > 0.0):
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


def amplification_for(delta: float, eps: float, n: int) -> float:
    """Smallest score scale making the target's softmax weight >= 1 - eps.

    With a margin of delta and n-1 competitors tied just below, a scale c
    gives the target weight e^{c delta} / (e^{c delta} + n - 1); solving for
    weight = 1 - eps yields c = ln((n-1)(1-eps)/eps) / delta.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"margin must be finite and positive, got {delta!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("amplification needs at least two points")
    return math.log((n - 1) * (1.0 - eps) / eps) / delta


def vdelta_certificate(X):
    """Certify every point as softmax-selectable, or report which are not.

    Success returns a :class:`SeparabilityCertificate` whose amplification is
    sized so every point's selection weight reaches >= 1 - ``CERT_EPS``
    (1 - 1e-4); failure returns a :class:`CertificateFailure` naming the
    points whose margin is at or below ``MARGIN_BAND``.
    """
    X = numkit.check_finite(numkit.as_matrix(X), "points")
    n = X.shape[0]
    if n < 2:
        raise ValueError("certification needs at least two points")
    directions, margins = _separations(X, np.arange(n))
    bad = np.flatnonzero(margins <= MARGIN_BAND)
    if bad.size:
        return CertificateFailure(tuple(bad.tolist()))
    delta = float(margins.min())
    return SeparabilityCertificate(
        directions=directions,
        margins=margins,
        amplification=amplification_for(delta, CERT_EPS, n),
    )


def l1_certificate(X, eps: float = CERT_EPS):
    """Certify every point as selectable by the constructed L1 score.

    With x_i staged, ``attention.l1_score`` scores x_i at 0 and x_j at
    -|x_i - x_j|_1, so x_i's margin is its L1 distance to its nearest other
    point; hull-interior points pass too.  Margins at or below
    ``MARGIN_BAND`` (duplicate points) give a :class:`CertificateFailure`.
    """
    X = numkit.check_finite(numkit.as_matrix(X), "points")
    n = X.shape[0]
    if n < 2:
        raise ValueError("certification needs at least two points")
    dist = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    margins = dist.min(axis=1)
    bad = np.flatnonzero(margins <= MARGIN_BAND)
    if bad.size:
        return CertificateFailure(tuple(int(i) for i in bad))
    return SeparabilityCertificate(
        directions=X.copy(),
        margins=margins,
        amplification=amplification_for(float(margins.min()), eps, n),
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


def three_cluster_line():
    """Three 1-D clusters on a line; the middle one defeats bilinear scores.

    Three points each, evenly spread over +-0.15 around the centers -2, 0
    and 2.  Every middle point lies between outer points, i.e. inside their
    convex hull, so no direction separates it — yet the clusters are far
    apart, so a nonlinear score can single the middle one out.
    """
    offsets = 0.15 * np.linspace(-1.0, 1.0, 3)
    return [np.array([[c + o] for o in offsets]) for c in (-2.0, 0.0, 2.0)]

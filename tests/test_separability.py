"""Tests for LP-based selection certificates and the constructed selector."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    delta_nonlin_sep,
    hull_distance_oracle,
    solve_lp_oracle,
    strict_separation_oracle,
    vdelta_certificate_oracle,
)
from vnlab import numkit, separability
from vnlab.attention import l1_score
from vnlab.mpnnvn import SoftmaxSelectPool
from vnlab.separability import (
    MARGIN_BAND,
    CertificateFailure,
    SeparabilityCertificate,
    amplification_for,
    hull_member,
    l1_certificate,
    point_separations,
    selection_weight_bound,
    solve_lp,
    strict_separation,
    three_cluster_line,
    vdelta_certificate,
)


# ---------------------------------------------------------------------------
# the simplex core
# ---------------------------------------------------------------------------


def _solve_one(c, A, b, start):
    """``solve_lp`` on a stack of one: (x, final basis, unbounded)."""
    x, basis, unbounded = solve_lp(np.asarray(c)[None], np.asarray(A)[None],
                                   np.asarray(b)[None], np.array([start]))
    return x[0], tuple(basis[0].tolist()), bool(unbounded[0])


class TestSolveLp:
    def test_simple_bounded_maximum(self):
        # max x  s.t. x + s = 1  ->  x = 1, from the slack start s = 1
        c = np.array([-1.0, 0.0])
        x, _, unbounded = _solve_one(c, np.array([[1.0, 1.0]]),
                                     np.array([1.0]), [1])
        assert not unbounded
        assert abs(x[0] - 1.0) < 1e-9
        assert abs(c @ x + 1.0) < 1e-9

    def test_two_variable_lp_known_solution(self):
        # min -(x + 2y)  s.t.  x + y + s1 = 4,  y + s2 = 3
        # optimum at x=1, y=3 with objective -7
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([4.0, 3.0])
        x, _, unbounded = _solve_one(c, A, b, [2, 3])
        assert not unbounded
        assert np.allclose(x[:2], [1.0, 3.0], atol=1e-9)
        assert abs(c @ x + 7.0) < 1e-9

    def test_basis_gives_the_duals(self):
        # same LP: both x and y basic, so B^T y = c_B gives y = (-1, -1)
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        x, basis, _ = _solve_one(c, A, np.array([4.0, 3.0]), [2, 3])
        assert sorted(basis) == [0, 1]
        B = list(basis)
        y = np.linalg.solve(A[:, B].T, c[B])
        assert np.allclose(y, [-1.0, -1.0], atol=1e-12)
        assert abs(y @ [4.0, 3.0] - c @ x) < 1e-12

    def test_unbounded_detected(self):
        # min -x  s.t. s - x = 1: x can grow without limit
        _, _, unbounded = _solve_one(np.array([-1.0, 0.0]),
                                     np.array([[-1.0, 1.0]]),
                                     np.array([1.0]), [1])
        assert unbounded

    def test_degenerate_vertex(self):
        # three constraints meeting at one vertex; Bland's rule must not cycle
        c = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
        A = np.array([
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([1.0, 1.0, 2.0])
        x, _, unbounded = _solve_one(c, A, b, [2, 3, 4])
        assert not unbounded
        assert abs(c @ x + 2.0) < 1e-9

    def test_zero_constraints(self):
        x, _, unbounded = _solve_one(np.array([1.0]), np.zeros((0, 1)),
                                     np.zeros(0), [])
        assert not unbounded
        assert np.array_equal(x, [0.0])
        _, _, unbounded = _solve_one(np.array([-1.0]), np.zeros((0, 1)),
                                     np.zeros(0), [])
        assert unbounded

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            _solve_one(np.zeros(2), np.ones((1, 3)), np.ones(1), [0])
        with pytest.raises(ValueError, match="dimensions"):
            _solve_one(np.zeros(3), np.ones((1, 3)), np.ones(1), [0, 1])

    def test_singular_start_column_rejected(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="singular"):
            _solve_one(np.zeros(3), A, np.ones(2), [0, 1])  # zero column
        with pytest.raises(ValueError, match="singular"):
            _solve_one(np.zeros(3), A, np.ones(2), [2, 2])  # repeated column
        with pytest.raises(ValueError, match="singular"):
            _solve_one(np.zeros(3), A, np.ones(2), [0, 3])  # no such column

    def test_infeasible_start_basis_rejected(self):
        # x - s = 1 with s basic would need s = -1
        with pytest.raises(ValueError, match="not feasible"):
            _solve_one(np.zeros(2), np.array([[1.0, -1.0]]), np.ones(1), [1])

    def test_determinism_bitwise(self):
        rng = numkit.make_rng(0)
        # positive rows with slacks: a bounded polytope, so an optimum exists
        A = np.hstack([np.abs(rng.normal(size=(4, 7))), np.eye(4)])
        b = np.abs(rng.normal(size=4))
        c = np.concatenate([rng.normal(size=7), np.zeros(4)])
        start = [7, 8, 9, 10]
        x1, basis1, unbounded1 = _solve_one(c, A, b, start)
        x2, basis2, unbounded2 = _solve_one(c, A, b, start)
        assert not unbounded1 and not unbounded2
        assert np.array_equal(x1, x2)
        assert c @ x1 == c @ x2
        assert basis1 == basis2


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _staircase_lp(t, m=4):
    """min -(x_0 + ... + x_{t-1})  s.t.  x_j + s_j = 1 (j < m), from the
    slack basis: exactly t pivots, x_j replacing s_j for each j < t."""
    A = np.hstack([np.eye(m), np.eye(m)])
    c = np.concatenate([-(np.arange(m) < t).astype(float), np.zeros(m)])
    return c, A, np.ones(m), list(range(m, 2 * m))


def _ratio_lp(rhs, start):
    """min -x_0  s.t.  x_0 + s_i = rhs[i], with slack s_i in column
    start[i]: entering x_0 has ratio rhs[i] in row i, so the first pivot's
    leaving row is the ratio test's answer, and the LP ends optimal."""
    m = len(rhs)
    A = np.zeros((m, m + 1))
    A[:, 0] = 1.0
    A[np.arange(m), start] = 1.0
    c = np.zeros(m + 1)
    c[0] = -1.0
    return c, A, np.array(rhs), list(start)


def _scaled_staircase_lp(t, seed, m=4):
    """``_staircase_lp`` with random positive entries: x_j = b_j / a_j,
    after exactly t pivots."""
    rng = numkit.make_rng(seed)
    c, _, _, start = _staircase_lp(t, m)
    A = np.hstack([np.diag(rng.uniform(0.5, 2.0, m)), np.eye(m)])
    return c * rng.uniform(0.5, 2.0, 2 * m), A, rng.uniform(0.5, 2.0, m), start


def _solve_stack(lps):
    """``solve_lp`` on the LPs (c, A, b, start) stacked in order."""
    return solve_lp(*(np.array([lp[k] for lp in lps]) for k in range(4)))


class TestLockstepStack:
    """Stacked LPs pivot in lockstep and each gets the bits it gets alone."""

    def _check_against_oracle(self, x, basis, unbounded, c, A, b, start):
        status, want_x, objective, want_basis = solve_lp_oracle(c, A, b,
                                                                start)
        assert unbounded == (status == "unbounded")
        if status == "optimal":
            assert _same_bits(x, want_x)
            assert float(c @ x) == objective
            assert tuple(basis.tolist()) == want_basis

    def test_lps_ending_after_different_pivot_counts(self):
        lps = [_staircase_lp(t) for t in (3, 0, 4, 1, 2)]
        x, basis, unbounded = _solve_stack(lps)
        for t, lp, x_k, basis_k, unbounded_k in zip((3, 0, 4, 1, 2), lps, x,
                                                    basis, unbounded):
            assert not unbounded_k
            assert lp[0] @ x_k == -t
            assert tuple(basis_k.tolist()) == \
                tuple(range(t)) + tuple(range(4 + t, 8))
            alone_x, alone_basis, _ = _solve_one(*lp)
            assert _same_bits(x_k, alone_x)
            assert tuple(basis_k.tolist()) == alone_basis
            self._check_against_oracle(x_k, basis_k, unbounded_k, *lp)

    def test_unbounded_lp_next_to_optimal_ones(self):
        # x_0 enters the middle LP, but its column has no positive entry
        c, A, b, start = _staircase_lp(1)
        A = A.copy()
        A[0, 0] = -1.0
        lps = [_staircase_lp(2), (c, A, b, start), _staircase_lp(4)]
        x, basis, unbounded = _solve_stack(lps)
        assert unbounded.tolist() == [False, True, False]
        assert np.isnan(x[1]).all() and np.isnan(c @ x[1])
        for lp, *got in zip(lps, x, basis, unbounded):
            self._check_against_oracle(*got, *lp)

    def test_rows_with_a_zero_pivot_column_entry_keep_their_bits(self):
        # subtracting 0 * (-0.5) = -0.0 would turn the -0.0 below into +0.0
        T = np.array([[[2.0, -1.0], [0.0, -0.0]],
                      [[4.0, 2.0], [1.0, -0.0]]])
        separability._pivot(T, np.array([0, 0]), np.array([0, 0]))
        assert _same_bits(T[0], np.array([[1.0, -0.5], [0.0, -0.0]]))
        assert _same_bits(T[1], np.array([[1.0, 0.5], [0.0, -0.5]]))
        # a tableau outside the stack being pivoted keeps every bit
        before = T.copy()
        separability._pivot(T[1:], np.array([0]), np.array([1]))
        assert _same_bits(T[0], before[0])
        assert _same_bits(T[1], np.array([[2.0, 1.0], [1.0, 0.0]]))

    def test_exact_tie_goes_to_the_smaller_basis_index(self):
        # rows 0 and 1 tie at ratio 0 exactly, row 0 holding the larger
        # basis index: Bland's rule takes row 1, whatever the row order
        lps = [_ratio_lp([0.0, 0.0, 1.0], [3, 2, 1]),
               _ratio_lp([0.0, 0.0, 1.0], [2, 3, 1]),
               _ratio_lp([2.0, 0.0, 0.0], [1, 3, 2]),
               _ratio_lp([0.5, 0.25, 1.0], [3, 2, 1])]
        x, basis, unbounded = _solve_stack(lps)
        assert basis[:, :2].tolist() == [[3, 0], [0, 3], [1, 3], [3, 0]]
        for lp, *got in zip(lps, x, basis, unbounded):
            self._check_against_oracle(*got, *lp)

    def test_ratios_within_the_tolerance_follow_the_scan_order(self):
        # unequal ratios closer than LP_TOL: the row scan decides, not the
        # least ratio; in the chain 0 ~ 0.8e-9 ~ 1.6e-9 the last row wins
        # though its ratio is more than LP_TOL above the least
        lps = [_ratio_lp([0.5e-9, 1e-9, 1.0], [3, 2, 1]),
               _ratio_lp([0.0, 0.8e-9, 1.6e-9], [3, 2, 1]),
               _ratio_lp([1.0, 0.5, 0.25], [3, 2, 1])]
        x, basis, unbounded = _solve_stack(lps)
        assert basis.tolist() == [[3, 0, 1], [3, 2, 0], [3, 2, 0]]
        assert x[0, 0] == 1e-9 and x[1, 0] == 1.6e-9
        for lp, *got in zip(lps, x, basis, unbounded):
            self._check_against_oracle(*got, *lp)

    def test_lps_that_end_leave_the_stack_with_their_bits(self):
        # after the first pivot one LP is optimal and one unbounded; the
        # other three go on pivoting for up to three more iterations
        unbounded_lp = _scaled_staircase_lp(2, seed=3)
        unbounded_lp[1][1, 1] *= -1.0  # x_1 enters with no positive entry
        lps = [_scaled_staircase_lp(4, seed=1),
               _scaled_staircase_lp(1, seed=2), unbounded_lp,
               _scaled_staircase_lp(3, seed=4),
               _scaled_staircase_lp(4, seed=5)]
        x, basis, unbounded = _solve_stack(lps)
        assert unbounded.tolist() == [False, False, True, False, False]
        assert np.isnan(x[2]).all()
        for lp, *got in zip(lps, x, basis, unbounded):
            self._check_against_oracle(*got, *lp)
            alone_x, alone_basis, alone_unbounded = _solve_one(*lp)
            assert _same_bits(got[0], alone_x)
            assert tuple(got[1].tolist()) == alone_basis
            assert got[2] == alone_unbounded

    def test_the_ratio_test_sees_only_lps_that_pivot(self, monkeypatch):
        # an LP with no reduced cost below -LP_TOL is optimal, and its
        # entering column is column 0 by default, so its ratios mean
        # nothing: it must not reach _leaving_rows.  No LP here ends
        # unbounded, so every LP the ratio test sees pivots right after,
        # on a negative reduced cost
        sizes = []  # per iteration: [LPs ratio-tested, LPs pivoted]
        in_lockstep = []
        leaving_rows, pivot = separability._leaving_rows, separability._pivot
        lockstep = separability._bland_lockstep

        def lockstep_spy(T, basis):
            in_lockstep.append(True)
            try:
                return lockstep(T, basis)
            finally:
                in_lockstep.clear()

        def ratio_spy(rhs, column, basis):
            leave = leaving_rows(rhs, column, basis)
            assert (leave >= 0).all()
            sizes.append([len(column), 0])
            return leave

        def pivot_spy(T, rows, cols):
            if in_lockstep:  # not a start-basis pivot of solve_lp
                reduced = T[np.arange(len(cols)), -1, cols]
                assert (reduced < -separability.LP_TOL).all()
                sizes[-1][1] += len(cols)
            pivot(T, rows, cols)

        monkeypatch.setattr(separability, "_bland_lockstep", lockstep_spy)
        monkeypatch.setattr(separability, "_leaving_rows", ratio_spy)
        monkeypatch.setattr(separability, "_pivot", pivot_spy)
        # t = 0 is optimal from the start; the others end after t pivots
        _solve_stack([_staircase_lp(t) for t in (3, 0, 4, 1, 2)])
        assert sizes == [[4, 4], [3, 3], [2, 2], [1, 1]]
        sizes.clear()
        vdelta_certificate(_unit_sphere_points(3))
        assert sizes and all(seen == pivoted for seen, pivoted in sizes)

    def test_stacked_dimensions_must_agree(self):
        c, A, b, start = _staircase_lp(2)
        with pytest.raises(ValueError, match="dimensions"):
            solve_lp(np.array([c, c]), np.array([A]), np.array([b]),
                     np.array([start]))
        with pytest.raises(ValueError, match="constraint matrix"):
            solve_lp(c, np.zeros((1, 1, 1, 1)), b, start)
        with pytest.raises(ValueError, match="constraint matrix"):
            solve_lp(c, A, b, start)  # one LP must come as a stack of one

    def test_chunks_under_a_lowered_byte_budget_give_the_same_bits(
            self, monkeypatch):
        X = _unit_sphere_points(3)
        calls = []

        def counting_solve_lp(*args):
            calls.append(np.shape(args[1])[0])
            return solve_lp(*args)

        monkeypatch.setattr(separability, "solve_lp", counting_solve_lp)
        whole = vdelta_certificate(X)
        assert calls == [32]
        calls.clear()
        # one 3-D hull-distance tableau of 32 points: (d+2) x (n+2d) floats
        monkeypatch.setattr(separability, "LP_BATCH_BYTES", 11 * 8 * 5 * 38)
        chunked = vdelta_certificate(X)
        assert calls == [11, 11, 10]
        assert _same_bits(chunked.directions, whole.directions)
        assert _same_bits(chunked.margins, whole.margins)
        assert chunked.amplification == whole.amplification
        # a budget below one tableau still solves one LP at a time
        calls.clear()
        monkeypatch.setattr(separability, "LP_BATCH_BYTES", 1)
        single = vdelta_certificate(X)
        assert calls == [1] * 32
        assert _same_bits(single.directions, whole.directions)

    def test_points_are_checked_once(self, monkeypatch):
        seen = []
        check_finite = numkit.check_finite

        def counting_check(arr, label="array"):
            seen.append(label)
            return check_finite(arr, label)

        monkeypatch.setattr(separability.numkit, "check_finite",
                            counting_check)
        vdelta_certificate(_unit_sphere_points(3))
        assert seen == ["points"]


@st.composite
def certifier_point_sets(draw):
    """2-40 points in 1-5 dimensions, scaled by 1e-4 to 1e3, some of them
    inside the others' hull or duplicated."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    rng = numkit.make_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["normal", "sphere", "interior",
                                 "duplicates"]))
    X = rng.normal(size=(n, d))
    if kind == "sphere":
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    elif kind == "interior":
        for j in rng.choice(n, size=max(1, n // 4), replace=False):
            weights = rng.dirichlet(np.ones(n))
            weights[j] = 0.0
            X[j] = weights / weights.sum() @ X
    elif kind == "duplicates":
        k = n // 3 + 1
        X[rng.integers(n, size=k)] = X[rng.integers(n, size=k)]
    return X * 10.0 ** draw(st.floats(-4.0, 3.0))


class TestSequentialOracle:
    """The lockstep certifier against the one-LP-at-a-time solver, bitwise."""

    @given(certifier_point_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_certificates_are_bitwise_equal(self, X, data):
        got = vdelta_certificate(X)
        directions, margins, amplification, inseparable = \
            vdelta_certificate_oracle(X, 1e-4, MARGIN_BAND)
        if inseparable:
            assert isinstance(got, CertificateFailure)
            assert got.inseparable == inseparable
        else:
            assert isinstance(got, SeparabilityCertificate)
            assert _same_bits(got.directions, directions)
            assert _same_bits(got.margins, margins)
            assert got.amplification == amplification
        everyone = point_separations(X)
        i = data.draw(st.integers(0, X.shape[0] - 1))
        one, want = strict_separation(i, X), \
            strict_separation_oracle(i, X, MARGIN_BAND)
        for result in (one, everyone[i]):
            assert (result is None) == (want is None)
            if want is not None:
                assert _same_bits(result[0], want[0])
                assert result[1] == want[1]
        others = np.delete(X, i, axis=0)
        c, x, w = separability._hull_distances(X[i][None], others[None])
        want_distance, want_w = hull_distance_oracle(X[i], others)
        assert float(c @ x[0]) == want_distance
        assert _same_bits(w[0], want_w)


# sha256 of directions.tobytes() + margins.tobytes() of the certificate of
# 32 unit-sphere points in 3-D drawn with numkit.make_rng(seed): the certify
# benchmark's shape, which the sampled sets above may never hit.  Recorded
# while every LP's ratio test was a row scan (Python 3.11.7, numpy 2.4.6); a
# change here is a change of some LP's pivots or bits.
CERTIFY_SHAPE_SHA256 = {
    0: "c96612663ca72851e6138e223079d2faa2a82663ad9c4f7e5d5a687fb6d218b9",
    1: "53da9ba45135e82d59d73c6e32b7be85d943451df0ae6b4834da3fa55f5ad782",
    2: "36c216c16cf36d18859a64a2b92614a3413bed2bb5258e1ed27479c0a2fcf172",
    3: "6bf3b7d9313200ecc7d87be46df43614626d388ffb598714266662438f3679e4",
    4: "59775e6d4a8af98632a747ff4a7ce71000d7ed72dfa3a2c60bfce9e7da5f0943",
}


@pytest.mark.parametrize("seed", sorted(CERTIFY_SHAPE_SHA256))
def test_certify_shape_certificates_are_pinned(seed):
    X = numkit.make_rng(seed).normal(size=(32, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    cert = vdelta_certificate(X)
    assert isinstance(cert, SeparabilityCertificate)
    digest = hashlib.sha256(cert.directions.tobytes()
                            + cert.margins.tobytes()).hexdigest()
    assert digest == CERTIFY_SHAPE_SHA256[seed]


# ---------------------------------------------------------------------------
# separation and hull membership
# ---------------------------------------------------------------------------


class TestStrictSeparation:
    def test_midpoint_of_collinear_points_inseparable(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert strict_separation(1, X) is None

    def test_translated_point_separable(self):
        rng = numkit.make_rng(1)
        X = rng.normal(size=(5, 3))
        X[2] += 100.0
        got = strict_separation(2, X)
        assert got is not None
        w, margin = got
        assert margin > 0
        assert np.max(np.abs(w)) <= 1.0 + 1e-9
        # the returned direction really does score x_2 above the rest
        scores = X @ w
        others = np.delete(scores, 2)
        assert scores[2] >= others.max() + margin - 1e-9

    def test_unit_square_corners_each_separable_with_margin_one(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        for i in range(4):
            got = strict_separation(i, X)
            assert got is not None
            _, margin = got
            # diagonal direction gives margin 1; the box LP cannot beat it
            assert abs(margin - 1.0) < 1e-9

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="out of range"):
            strict_separation(5, np.ones((2, 2)))
        with pytest.raises(ValueError, match="two points"):
            strict_separation(0, np.ones((1, 2)))

    @pytest.mark.parametrize("i", [1.0, 1.5, True, np.float64(1.0), "1"])
    def test_non_integer_index_refused(self, i):
        # these once leaked numpy's IndexError, or read True as point 1
        with pytest.raises(ValueError,
                           match=re.escape(f"integer, got {i!r}")):
            strict_separation(i, np.eye(3))

    def test_numpy_integer_index_accepted(self):
        X = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 2.0]])
        want = strict_separation(1, X)
        got = strict_separation(np.int64(1), X)
        assert _same_bits(got[0], want[0]) and got[1] == want[1]

    def test_margin_on_the_band_is_inseparable(self):
        assert strict_separation(1, [[0.0], [1e-6]]) is None
        w, margin = strict_separation(1, [[0.0], [2e-6]])
        assert margin == 2e-6
        assert np.array_equal(w, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            strict_separation(0, X)
        with pytest.raises(ValueError, match="non-finite"):
            vdelta_certificate(X)


def _unit_sphere_points(seed):
    X = np.random.default_rng(seed).normal(size=(32, 3))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestKnownCertifierFailures:
    """Point sets on which the earlier primal max-margin LP went wrong."""

    # margins from scipy's HiGHS solver
    @pytest.mark.parametrize("seed, i, highs_margin", [
        ([7, 0, 1], 3, 0.0944266625),
        ([25, 0, 5], 6, 0.0812211823),
        (74, 7, 0.2630125548),
        (188, 11, 0.0798641998),
    ])
    def test_margin_matches_highs(self, seed, i, highs_margin):
        w, margin = strict_separation(i, _unit_sphere_points(seed))
        assert abs(margin - highs_margin) < 1e-9
        assert np.max(np.abs(w)) <= 1.0

    def test_direction_reaches_its_margin(self):
        X = _unit_sphere_points([502, 0, 6])
        w, margin = strict_separation(7, X)
        assert np.min(np.delete(X[7] - X, 7, axis=0) @ w) >= margin

    def test_direction_lies_in_the_box_exactly(self):
        # the raw duals leave the box here by a rounding error
        w, _ = strict_separation(0, _unit_sphere_points(0))
        assert np.max(np.abs(w)) <= 1.0


class TestHullMember:
    def test_point_equal_to_member(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert hull_member(X[1], X)

    def test_centroid_is_member(self):
        rng = numkit.make_rng(2)
        X = rng.normal(size=(6, 3))
        assert hull_member(X.mean(axis=0), X)

    def test_far_point_is_not_member(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not hull_member(np.array([5.0, 5.0]), X)

    def test_hull_vertex_not_member_of_the_rest(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert not hull_member(X[0], X[1:])

    def test_interior_of_segment(self):
        X = np.array([[0.0], [1.0]])
        assert hull_member(np.array([0.25]), X)
        assert not hull_member(np.array([1.25]), X)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="empty"):
            hull_member(np.zeros(2), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="dimension"):
            hull_member(np.zeros(3), np.zeros((2, 2)))

    def test_distance_threshold(self):
        assert not hull_member([1.0 + 1e-7], [[0.0], [1.0]])
        assert hull_member([1.0 + 1e-9], [[0.0], [1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            hull_member([bad, 0.0], X)
        X[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hull_member([0.1, 0.1], X)

    @given(st.integers(0, 2**31 - 1), st.integers(3, 10), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_equivalence_with_strict_separation(self, seed, n, d):
        """Separable <=> outside the hull, away from the margin band."""
        rng = numkit.make_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        i = int(rng.integers(n))
        got = strict_separation(i, X)
        others = np.delete(X, i, axis=0)
        member = hull_member(X[i], others)
        if got is None:
            # margin below the band: both answers are legitimate, skip
            probe = strict_separation(i, X, band=0.0)
            if probe is not None and probe[1] > 0.0:
                return
            assert member
        else:
            assert got[1] > MARGIN_BAND
            assert not member

    @given(certifier_point_sets(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_oracle_distance(self, X, data):
        """For any p, inside the hull or not: the same distance bits as the
        one-LP oracle, and membership exactly when it is <= 10 * LP_TOL."""
        n, d = X.shape
        rng = numkit.make_rng(data.draw(st.integers(0, 2**31 - 1)))
        kind = data.draw(st.sampled_from(["anywhere", "vertex", "inside",
                                          "nudged"]))
        if kind == "anywhere":
            p = rng.normal(size=d) * np.abs(X).max()
        elif kind == "vertex":
            p = X[rng.integers(n)].copy()
        elif kind == "inside":
            p = rng.dirichlet(np.ones(n)) @ X
        else:  # within a few LP_TOL of a point of the set
            p = X[rng.integers(n)] + rng.normal(size=d) * 3e-9
        c, x, _ = separability._hull_distances(p[None], X[None])
        distance, _ = hull_distance_oracle(p, X)
        assert float(c @ x[0]) == distance
        assert hull_member(p, X) == (distance <= 10.0 * separability.LP_TOL)


@st.composite
def degenerate_point_sets(draw):
    """Small sets with duplicate points, collinear points, or n <= d."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 8))
    rng = numkit.make_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "collinear", "few"]))
    if kind == "grid":  # integer grid: ties, duplicates and lines by chance
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "duplicates":
        X = rng.normal(size=(n, d))
        X[rng.integers(n, size=n // 2)] = X[rng.integers(n, size=n // 2)]
    elif kind == "collinear":
        X = rng.normal(size=d) + rng.normal(size=(n, 1)) * rng.normal(size=d)
    else:
        X = rng.normal(size=(int(rng.integers(2, d + 2)), d))
    return X


class TestLinprogOracle:
    """Both certifier answers checked against scipy's HiGHS solver."""

    @given(degenerate_point_sets())
    @settings(max_examples=150, deadline=None)
    def test_margins_directions_and_membership(self, X):
        linprog = pytest.importorskip("scipy.optimize").linprog
        n, d = X.shape
        for i in range(n):
            others = np.delete(X, i, axis=0)
            # max t  s.t.  w.(x_i - x_j) >= t,  -1 <= w <= 1
            A_ub = np.hstack([others - X[i], np.ones((n - 1, 1))])
            res = linprog(-np.eye(d + 1)[-1], A_ub=A_ub, b_ub=np.zeros(n - 1),
                          bounds=[(-1.0, 1.0)] * d + [(None, None)],
                          method="highs")
            assert res.status == 0
            best = -res.fun
            w, margin = strict_separation(i, X, band=-np.inf)
            assert abs(margin - best) <= 1e-7
            assert np.max(np.abs(w)) <= 1.0 + 1e-9
            assert np.min((X[i] - others) @ w) >= margin
            feasible = linprog(np.zeros(n - 1),
                               A_eq=np.vstack([others.T, np.ones(n - 1)]),
                               b_eq=np.append(X[i], 1.0),
                               method="highs").status == 0
            member = hull_member(X[i], others)
            if best > MARGIN_BAND:
                assert not member and not feasible
            elif best <= 1e-9:
                assert member and feasible


def _highs_hull_distance(linprog, p, points):
    """L1 distance from p to conv(points), solved by HiGHS."""
    k, d = points.shape
    res = linprog(np.concatenate([np.zeros(k), np.ones(2 * d)]),
                  A_eq=np.block([[points.T, np.eye(d), -np.eye(d)],
                                 [np.ones((1, k)), np.zeros((1, 2 * d))]]),
                  b_eq=np.append(p, 1.0), method="highs")
    assert res.status == 0
    return res.fun


def _hull_test_set(kind, seed):
    rng = numkit.make_rng(seed)
    d = int(rng.integers(1, 5))
    n = int(rng.integers(3, 9))
    if kind == "grid":
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    if kind == "duplicates":
        X = rng.normal(size=(n, d))
        X[: n // 2] = X[n - n // 2:][: n // 2]
        return X
    if kind == "collinear":
        return rng.normal(size=d) + rng.normal(size=(n, 1)) * rng.normal(size=d)
    X = rng.normal(size=(n, d))
    return np.vstack([X, X.mean(axis=0)])  # one interior point


@pytest.mark.parametrize("kind", ["duplicates", "collinear", "interior", "grid"])
def test_hull_distance_matches_highs(kind):
    """The LP objective itself, not just the margin read off its duals."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    for seed in range(20):
        X = _hull_test_set(kind, seed)
        for i in range(X.shape[0]):
            others = np.delete(X, i, axis=0)
            c, x, _ = separability._hull_distances(X[i][None], others[None])
            got = float(c @ x[0])
            want = _highs_hull_distance(linprog, X[i], others)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestCertificates:
    def test_simplex_vertices_certified(self):
        X = np.eye(3)
        cert = vdelta_certificate(X)
        assert isinstance(cert, SeparabilityCertificate)
        assert cert.delta > 0
        # separating e_i from e_j (j != i) with a box direction: margin 2
        assert np.allclose(cert.margins, 2.0, atol=1e-9)

    def test_centroid_point_fails_with_its_index(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                      [2.0 / 3.0, 2.0 / 3.0]])
        got = vdelta_certificate(X)
        assert isinstance(got, CertificateFailure)
        assert got.inseparable == (3,)

    def test_certificate_agrees_with_hull_oracle(self):
        rng = numkit.make_rng(8)
        X = rng.normal(size=(8, 3))
        got = vdelta_certificate(X)
        hull_bad = [
            i for i in range(8)
            if hull_member(X[i], np.delete(X, i, axis=0))
        ]
        if isinstance(got, CertificateFailure):
            assert list(got.inseparable) == hull_bad
        else:
            assert hull_bad == []

    def test_certificate_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SeparabilityCertificate(np.eye(2), np.array([1.0, 0.0]),
                                    amplification=1.0)
        with pytest.raises(ValueError, match="amplification"):
            SeparabilityCertificate(np.eye(2), np.array([1.0, 1.0]),
                                    amplification=0.0)
        with pytest.raises(ValueError, match="score"):
            SeparabilityCertificate(np.eye(2), np.array([1.0, 1.0]),
                                    amplification=1.0, score="l2")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_certificate_refuses_nan_margins_and_non_finite_directions(
            self, bad):
        # a NaN margin once passed (NaN <= 0 is false) and gave delta nan,
        # which the compiler's margin-band guard let through
        with pytest.raises(ValueError, match="margins must be positive"):
            SeparabilityCertificate(np.eye(2), np.array([1.0, np.nan]),
                                    amplification=1.0)
        directions = np.eye(2)
        directions[1, 0] = bad
        with pytest.raises(ValueError, match="directions must be finite"):
            SeparabilityCertificate(directions, np.ones(2), amplification=1.0)


# ---------------------------------------------------------------------------
# amplification and selection weights
# ---------------------------------------------------------------------------


class TestAmplification:
    def test_two_points_even_split_needs_no_amplification(self):
        assert amplification_for(1.0, 0.5, 2) == 0.0

    def test_frozen_example(self):
        # weight 0.75 among 4 points: e^c/(e^c+3) = 3/4  ->  c = ln 9
        assert abs(amplification_for(1.0, 0.25, 4) - math.log(9.0)) < 1e-12

    @given(st.floats(0.05, 5.0), st.floats(1e-6, 0.4), st.integers(2, 64))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_hits_target_weight(self, delta, eps, n):
        c = amplification_for(delta, eps, n)
        weight = selection_weight_bound(c, delta, n)
        assert abs(weight - (1.0 - eps)) < 1e-9

    def test_strictly_decreasing_in_delta(self):
        values = [amplification_for(d, 0.01, 8) for d in (0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_as_eps_shrinks(self):
        values = [amplification_for(1.0, e, 8) for e in (0.3, 0.1, 0.01, 1e-4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [(0.0, 0.1, 4), (1.0, 0.0, 4),
                                     (1.0, 1.0, 4), (1.0, 0.1, 1)])
    def test_domain_validated(self, bad):
        with pytest.raises(ValueError):
            amplification_for(*bad)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_margin_refused(self, delta):
        # a NaN margin once gave amplification nan, and an infinite one 0.0
        with pytest.raises(ValueError, match="margin must be finite and "
                                             "positive"):
            amplification_for(delta, 0.1, 4)


def pool_weights(pool, X, selector):
    """Selection weights of a deep program's pool, ``selector`` staged.

    The virtual node holds [feature | selector | placeholder] as it does in
    a compiled deep program; the graph nodes' x blocks hold the points.
    The pool reads the staged selector, not the layer number it is given.
    """
    X = numkit.as_matrix(X)
    d = X.shape[1]
    vn = np.concatenate([np.zeros(d), selector, [0.0]])
    _, weights = pool(vn, {"x": X}, 1)
    return weights


def softmax_weights(X, cert, target):
    pool = SoftmaxSelectPool(width=cert.directions.shape[1],
                             scale=cert.amplification)
    return pool_weights(pool, X, cert.directions[target])


class TestSelectionWeights:
    def test_tied_competitors_hit_bound_exactly(self):
        # scores: target cδ, others all 0 -> weight is the closed form
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        cert = SeparabilityCertificate(
            directions=np.tile([1.0, 0.0], (4, 1)),
            margins=np.ones(4),
            amplification=math.log(9.0),
        )
        w = softmax_weights(X, cert, target=0)
        assert abs(w[0] - 0.75) < 1e-12

    def test_huge_amplification_saturates(self):
        X = np.array([[1.0], [0.0], [-1.0]])
        cert = SeparabilityCertificate(
            directions=np.ones((3, 1)), margins=np.ones(3),
            amplification=50.0,
        )
        w = softmax_weights(X, cert, target=0)
        assert w[0] >= 1.0 - 1e-12

    def test_weights_meet_guarantee_on_random_certified_instances(self):
        rng = numkit.make_rng(5)
        hits = 0
        for _ in range(20):
            X = rng.normal(size=(6, 3)) * 2.0
            got = vdelta_certificate(X)
            if isinstance(got, CertificateFailure):
                continue
            hits += 1
            for i in range(6):
                w = softmax_weights(X, got, target=i)
                bound = selection_weight_bound(
                    got.amplification, float(got.margins[i]), 6
                )
                assert w[i] >= bound - 1e-12
        assert hits >= 3  # the check must actually have run

    def test_bound_in_log_space_does_not_overflow(self):
        assert selection_weight_bound(1e6, 1.0, 8) == 1.0


# ---------------------------------------------------------------------------
# nonlinear separation and the constructed selector
# ---------------------------------------------------------------------------


class TestDeltaNonlinSep:
    def test_two_singletons(self):
        assert delta_nonlin_sep([np.array([[0.0]]), np.array([[1.0]])]) == 1.0

    def test_overlapping_sets_give_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert delta_nonlin_sep([a, b]) == 0.0

    def test_three_clusters_match_brute_force(self):
        sets = three_cluster_line()
        got = delta_nonlin_sep(sets)
        best = np.inf
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                for p in sets[a]:
                    for q in sets[b]:
                        best = min(best, float(np.linalg.norm(p - q)))
        assert got == pytest.approx(best, abs=1e-12)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="two point sets"):
            delta_nonlin_sep([np.ones((2, 2))])
        with pytest.raises(ValueError, match="non-empty"):
            delta_nonlin_sep([np.ones((2, 2)), np.zeros((0, 2))])


class TestThreeClusterInstance:
    def test_middle_points_defeat_bilinear_selection(self):
        sets = three_cluster_line()
        X = np.vstack(sets)
        # every middle-cluster point sits inside the hull of the others
        for i in range(3, 6):
            others = np.delete(X, i, axis=0)
            assert hull_member(X[i], others)
            assert strict_separation(i, X) is None

    def test_outer_points_are_separable(self):
        sets = three_cluster_line()
        X = np.vstack(sets)
        assert strict_separation(0, X) is not None  # leftmost point
        assert strict_separation(8, X) is not None  # rightmost point

    def test_clusters_are_nonlinearly_separated(self):
        sets = three_cluster_line()
        # centers 2 apart, spread 0.15 -> min cross distance 2 - 0.3 = 1.7
        assert delta_nonlin_sep(sets) == pytest.approx(1.7, abs=1e-12)


def _nearest_l1(X):
    """Each point's L1 distance to its nearest other point, pair by pair."""
    n = X.shape[0]
    return np.array([min(float(np.sum(np.abs(X[i] - X[j])))
                         for j in range(n) if j != i) for i in range(n)])


class TestL1Certificate:
    @given(st.integers(2, 8), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_margins_at_least_euclidean_separation(self, n, d, data):
        coords = st.floats(-100.0, 100.0, allow_nan=False,
                           allow_subnormal=False)
        X = np.array(data.draw(st.lists(st.lists(coords, min_size=d,
                                                 max_size=d),
                                        min_size=n, max_size=n)))
        cert = l1_certificate(X)
        nearest = _nearest_l1(X)
        if isinstance(cert, CertificateFailure):
            assert cert.inseparable == tuple(
                int(i) for i in np.flatnonzero(nearest <= MARGIN_BAND))
            return
        assert cert.score == "l1"
        assert np.array_equal(cert.directions, X)
        assert np.array_equal(cert.margins, nearest)
        # |.|_1 >= |.|_2, so no margin is below the Euclidean gap to the
        # nearest other point, the singleton sets' delta_nonlin_sep
        for i in range(n):
            others = np.delete(X, i, axis=0)
            assert cert.margins[i] >= delta_nonlin_sep([X[i:i + 1], others])
        assert cert.delta >= delta_nonlin_sep([X[i:i + 1] for i in range(n)])
        assert cert.amplification == amplification_for(cert.delta, 1e-4, n)

    def test_duplicate_points_fail_with_their_indices(self):
        X = np.array([[0.0, 1.0], [2.0, 2.0], [0.0, 1.0], [5.0, 0.0]])
        got = l1_certificate(X)
        assert isinstance(got, CertificateFailure)
        assert got.inseparable == (0, 2)

    def test_hull_interior_points_are_certified(self):
        X = np.vstack(three_cluster_line())
        assert isinstance(vdelta_certificate(X), CertificateFailure)
        cert = l1_certificate(X)
        assert isinstance(cert, SeparabilityCertificate)
        # neighbours within a cluster sit 0.15 apart
        np.testing.assert_allclose(cert.margins, 0.15, rtol=1e-12)

    def test_built_score_meets_the_weight_bound(self):
        X = numkit.make_rng(6).normal(size=(10, 3))
        cert = l1_certificate(X, eps=1e-3)
        score = l1_score(3)
        for i in range(10):
            w = pool_weights(SoftmaxSelectPool(width=3,
                                               scale=cert.amplification,
                                               score=score),
                             X, cert.directions[i])
            bound = selection_weight_bound(cert.amplification,
                                           float(cert.margins[i]), 10)
            assert w[i] >= bound - 1e-12
            assert w[i] >= 1.0 - 1e-3 - 1e-12

    def test_validates_points(self):
        with pytest.raises(ValueError, match="two points"):
            l1_certificate(np.ones((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            l1_certificate(np.array([[0.0], [np.nan]]))

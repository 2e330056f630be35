"""Tests for LP-based selection certificates and the trained selector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlab import numkit
from vnlab.attention import gatv2_scores_against
from vnlab.separability import (
    MARGIN_BAND,
    CertificateFailure,
    SeparabilityCertificate,
    amplification_for,
    delta_nonlin_sep,
    gatv2_selection_weights,
    hull_member,
    selection_weight_bound,
    selection_weights,
    solve_lp,
    strict_separation,
    three_cluster_line,
    train_gatv2_selector,
    vdelta_certificate,
)


# ---------------------------------------------------------------------------
# the simplex core
# ---------------------------------------------------------------------------


class TestSolveLp:
    def test_simple_bounded_maximum(self):
        # max x  s.t. x + s = 1  ->  x = 1
        res = solve_lp(np.array([-1.0, 0.0]),
                       np.array([[1.0, 1.0]]), np.array([1.0]))
        assert res.status == "optimal"
        assert abs(res.x[0] - 1.0) < 1e-9
        assert abs(res.objective + 1.0) < 1e-9

    def test_two_variable_lp_known_solution(self):
        # min -(x + 2y)  s.t.  x + y + s1 = 4,  y + s2 = 3
        # optimum at x=1, y=3 with objective -7
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([4.0, 3.0])
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        assert np.allclose(res.x[:2], [1.0, 3.0], atol=1e-9)
        assert abs(res.objective + 7.0) < 1e-9

    def test_basis_gives_the_duals(self):
        # same LP: both x and y basic, so B^T y = c_B gives y = (-1, -1)
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        res = solve_lp(c, A, np.array([4.0, 3.0]))
        assert sorted(res.basis) == [0, 1]
        B = list(res.basis)
        y = np.linalg.solve(A[:, B].T, c[B])
        assert np.allclose(y, [-1.0, -1.0], atol=1e-12)
        assert abs(y @ [4.0, 3.0] - res.objective) < 1e-12

    def test_infeasible_detected(self):
        # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = solve_lp(np.zeros(2), A, np.array([1.0, 3.0]))
        assert res.status == "infeasible"

    def test_feasibility_threshold(self):
        # rows disagree by gap: the phase-1 optimum is gap, cut at 10 * tol
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        far = solve_lp(np.zeros(2), A, [1.0, 1.0 + 1e-7])
        near = solve_lp(np.zeros(2), A, [1.0, 1.0 + 1e-9])
        assert far.status == "infeasible"
        assert near.status == "optimal"

    def test_unbounded_detected(self):
        # min -x  s.t. x - s = 1: x can grow without limit
        res = solve_lp(np.array([-1.0, 0.0]),
                       np.array([[1.0, -1.0]]), np.array([1.0]))
        assert res.status == "unbounded"

    def test_negative_rhs_handled_by_row_flip(self):
        # -x - s = -2  <=>  x + s = 2; minimize x -> 0
        res = solve_lp(np.array([1.0, 0.0]),
                       np.array([[-1.0, -1.0]]), np.array([-2.0]))
        assert res.status == "optimal"
        assert abs(res.x[0]) < 1e-9

    def test_redundant_constraint_tolerated(self):
        # duplicate rows leave a basic artificial to clean up
        A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 2.0, 1.0])
        res = solve_lp(np.array([0.0, 1.0]), A, b)
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)

    def test_degenerate_vertex(self):
        # three constraints meeting at one vertex; Bland's rule must not cycle
        c = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
        A = np.array([
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([1.0, 1.0, 2.0])
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        assert abs(res.objective + 2.0) < 1e-9

    def test_zero_constraints(self):
        res = solve_lp(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))
        assert res.status == "optimal"
        assert np.array_equal(res.x, [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            solve_lp(np.zeros(2), np.ones((1, 3)), np.ones(1))

    def test_determinism_bitwise(self):
        rng = numkit.make_rng(0)
        A = rng.normal(size=(4, 7))
        b = np.abs(rng.normal(size=4))
        c = rng.normal(size=7)
        r1 = solve_lp(c, A, b)
        r2 = solve_lp(c, A, b)
        assert r1.status == r2.status
        if r1.status == "optimal":
            assert np.array_equal(r1.x, r2.x)
            assert r1.objective == r2.objective


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
        assert not got.ok

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
                                    amplification=1.0, eps=0.1)
        with pytest.raises(ValueError, match="amplification"):
            SeparabilityCertificate(np.eye(2), np.array([1.0, 1.0]),
                                    amplification=0.0, eps=0.1)


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


class TestSelectionWeights:
    def test_tied_competitors_hit_bound_exactly(self):
        # scores: target cδ, others all 0 -> weight is the closed form
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        cert = SeparabilityCertificate(
            directions=np.tile([1.0, 0.0], (4, 1)),
            margins=np.ones(4),
            amplification=math.log(9.0),
            eps=0.25,
        )
        w = selection_weights(X, cert, target=0)
        assert abs(w[0] - 0.75) < 1e-12

    def test_huge_amplification_saturates(self):
        X = np.array([[1.0], [0.0], [-1.0]])
        cert = SeparabilityCertificate(
            directions=np.ones((3, 1)), margins=np.ones(3),
            amplification=50.0, eps=1e-4,
        )
        w = selection_weights(X, cert, target=0)
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
                w = selection_weights(X, got, target=i)
                bound = selection_weight_bound(
                    got.amplification, float(got.margins[i]), 6
                )
                assert w[i] >= bound - 1e-12
        assert hits >= 3  # the check must actually have run

    def test_bound_in_log_space_does_not_overflow(self):
        assert selection_weight_bound(1e6, 1.0, 8) == 1.0

    def test_validates_target(self):
        cert = SeparabilityCertificate(np.ones((2, 1)), np.ones(2),
                                       amplification=1.0, eps=0.1)
        with pytest.raises(ValueError, match="target"):
            selection_weights(np.ones((2, 1)), cert, target=7)
        with pytest.raises(ValueError, match="point count"):
            selection_weights(np.ones((3, 1)), cert, target=0)


# ---------------------------------------------------------------------------
# nonlinear separation and the trained selector
# ---------------------------------------------------------------------------


class TestDeltaNonlinSep:
    def test_two_singletons(self):
        assert delta_nonlin_sep([np.array([[0.0]]), np.array([[1.0]])]) == 1.0

    def test_overlapping_sets_give_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert delta_nonlin_sep([a, b]) == 0.0

    def test_three_clusters_match_brute_force(self):
        sets = three_cluster_line(n_per=4, spread=0.2)
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


class TestTrainedSelector:
    def test_two_far_singletons_trivial_gap(self):
        sets = [np.array([[-3.0]]), np.array([[3.0]])]
        res = train_gatv2_selector(sets, target=1, gap=1.0, seed=0)
        assert res.ok
        assert res.achieved_gap >= 1.0

    def test_middle_cluster_selected_despite_bilinear_failure(self):
        sets = three_cluster_line()
        res = train_gatv2_selector(sets, target=1, gap=1.0, seed=0)
        assert res.achieved_gap >= 1.0
        # amplify so the guaranteed weight at the requested gap is >= 0.99
        X = np.vstack(sets)
        n_other = X.shape[0] - sets[1].shape[0]
        scale = math.log(99.0 * n_other) / res.requested_gap
        w = gatv2_selection_weights(X, res.score, scale)
        assert w[3:6].sum() >= 0.99

    def test_same_seed_reproduces_gap(self):
        sets = three_cluster_line()
        r1 = train_gatv2_selector(sets, target=1, seed=0)
        r2 = train_gatv2_selector(sets, target=1, seed=0)
        assert r1.achieved_gap == r2.achieved_gap

    def test_conversion_is_exact(self):
        # the additive-score rewrite must reproduce the trained network
        # everywhere, not just on training points
        from vnlab.mlp import MlpSpec, forward, init_params
        from vnlab.separability import _mlp_to_gatv2

        spec = MlpSpec(widths=(2, 5, 1), activation="leaky_relu")
        params = init_params(spec, numkit.make_rng(3), seed=3)
        score = _mlp_to_gatv2(params, selector_dim=2)
        rng = numkit.make_rng(4)
        pts = rng.normal(size=(50, 2))
        want = forward(params, pts)[:, 0]
        got = gatv2_scores_against(np.zeros(2), pts, score)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_selector_ignores_selector_channels(self):
        sets = [np.array([[-3.0]]), np.array([[3.0]])]
        res = train_gatv2_selector(sets, target=0, seed=1)
        X = np.vstack(sets)
        w_zero = gatv2_selection_weights(X, res.score, 2.0)
        w_other = gatv2_selection_weights(X, res.score, 2.0,
                                          selector=np.array([42.0]))
        assert np.array_equal(w_zero, w_other)

    def test_validates_target_index(self):
        with pytest.raises(ValueError, match="target set index"):
            train_gatv2_selector([np.ones((1, 1))], target=3)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vnlab import attention, numkit
from oracles import (
    exp_features_oracle,
    gatv2_score_oracle,
    kernelized_attention_pairwise,
    self_attention_oracle,
)


def _weights(d, seed):
    return attention.random_weights(d, numkit.make_rng(seed))


def _bounded_rows(n, d, seed, feature_bound=1.0, fill=0.8):
    rng = numkit.make_rng(seed)
    X = rng.standard_normal((n, d))
    norms = np.maximum(np.linalg.norm(X, axis=1), 1e-12)
    scale = fill * feature_bound * rng.uniform(0.2, 1.0, size=n)
    return X * (scale / norms)[:, None]


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_weights_refuse_a_feature_bound_not_finite_and_positive(bound):
    eye = np.eye(2)
    with pytest.raises(ValueError, match="feature_bound must be finite and "
                                         "positive"):
        attention.AttnWeights(eye, eye, eye, bound)
    assert attention.AttnWeights(eye, eye, eye, 0.4).feature_bound == 0.4


# ---------------------------------------------------------------------------
# exact attention
# ---------------------------------------------------------------------------


def test_self_attention_single_row_is_projected_value():
    w = _weights(4, 2)
    x = numkit.make_rng(3).standard_normal((1, 4))
    np.testing.assert_allclose(attention.self_attention(x, w), x @ w.w_v, atol=1e-14)


def test_self_attention_identical_rows():
    w = _weights(3, 4)
    row = numkit.make_rng(5).standard_normal(3)
    X = np.tile(row, (6, 1))
    out = attention.self_attention(X, w)
    np.testing.assert_allclose(out, np.tile(row @ w.w_v, (6, 1)), atol=1e-13)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_self_attention_matches_loop_oracle(n, d, seed):
    rng = numkit.make_rng(seed)
    w = attention.AttnWeights(rng.standard_normal((d, d)),
                              rng.standard_normal((d, d)),
                              rng.standard_normal((d, d)))
    X = rng.standard_normal((n, d))
    np.testing.assert_allclose(
        attention.self_attention(X, w),
        self_attention_oracle(X, w.w_q, w.w_k, w.w_v),
        atol=1e-10,
    )


@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**31))
@settings(deadline=None, max_examples=40)
def test_self_attention_permutation_equivariant(n, d, seed):
    rng = numkit.make_rng(seed)
    w = _weights(d, seed % 1000)
    X = rng.standard_normal((n, d))
    perm = rng.permutation(n)
    np.testing.assert_allclose(
        attention.self_attention(X[perm], w),
        attention.self_attention(X, w)[perm],
        atol=1e-12,
    )


def test_self_attention_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        attention.self_attention(np.zeros((2, 3)), _weights(4, 0))


# ---------------------------------------------------------------------------
# feature maps and kernel estimates
# ---------------------------------------------------------------------------


def test_phi_exp_features_at_zero():
    fm = attention.exp_feature_map(16, 3, seed=0)
    np.testing.assert_array_equal(attention.phi(np.zeros(3), fm),
                                  np.full(16, 1.0 / 4.0))


@given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_phi_matrix_exp_features_matches_oracle_bitwise(n, d, m, seed):
    rng = numkit.make_rng(seed)
    rows = rng.standard_normal((n, d)) * rng.uniform(0.1, 2.0)
    fm = attention.exp_feature_map(m, d, seed=seed)
    assert np.array_equal(attention.phi_matrix(rows, fm),
                          exp_features_oracle(rows, fm.directions))


def _wide_rows_and_map():
    """The kernel-wide size: 4096 rows of dimension 16, m = 256."""
    rows = _bounded_rows(4096, 16, 21)
    return rows, attention.exp_feature_map(256, 16, seed=22)


def test_phi_matrix_exp_features_matches_oracle_at_width():
    rows, fm = _wide_rows_and_map()
    assert np.array_equal(attention.phi_matrix(rows, fm),
                          exp_features_oracle(rows, fm.directions))


def test_phi_matrix_exp_features_allocates_one_buffer():
    # the features are computed in the one (n, m) array returned: the
    # half-norm column, a (n, d) square and a few scalars are all else
    rows, fm = _wide_rows_and_map()
    rows_before, dirs_before = rows.copy(), fm.directions.copy()
    tracemalloc.start()
    try:
        out = attention.phi_matrix(rows, fm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes
    assert np.array_equal(rows, rows_before)
    assert np.array_equal(fm.directions, dirs_before)
    assert not np.shares_memory(out, rows)
    assert not np.shares_memory(out, fm.directions)


def test_phi_elu_features_values():
    fm = attention.elu_feature_map()
    x = np.asarray([1.5, 0.0, -2.0])
    expected = np.asarray([2.5, 1.0, math.exp(-2.0)])
    np.testing.assert_allclose(attention.phi(x, fm), expected, atol=1e-15)


def test_phi_positive_on_bounded_domain():
    fm_exp = attention.exp_feature_map(8, 2, seed=1)
    fm_elu = attention.elu_feature_map()
    X = _bounded_rows(20, 2, 3)
    assert np.all(attention.phi_matrix(X, fm_exp) > 0)
    assert np.all(attention.phi_matrix(X, fm_elu) > 0)


def test_kernel_estimate_at_origin_is_exactly_one():
    # power-of-two feature count keeps the arithmetic exact
    fm = attention.exp_feature_map(4, 1, seed=0)
    assert attention.kernel_estimate([0.0], [0.0], fm) == 1.0
    fm1 = attention.elu_feature_map()
    assert attention.kernel_estimate([0.0], [0.0], fm1) == 1.0


def test_kernel_estimate_unbiasedness_envelope():
    # x . y = 1 with 4096 features: single fixed seed lands within 10% of e,
    # the median over 20 seeds within 3%
    x = np.asarray([1.0, 0.0])
    y = np.asarray([1.0, 0.0])
    target = math.e
    ests = []
    for seed in range(20):
        fm = attention.exp_feature_map(4096, 2, seed=seed)
        ests.append(attention.kernel_estimate(x, y, fm))
    assert abs(ests[0] - target) / target <= 0.10
    assert abs(float(np.median(ests)) - target) / target <= 0.03


def test_kernel_estimate_error_shrinks_with_more_features():
    rng = numkit.make_rng(17)
    pairs = rng.standard_normal((40, 2, 3))
    pairs /= np.maximum(np.abs(pairs).max(), 1.0)
    med = []
    for m in (64, 1024):
        errs = []
        for seed in range(5):
            fm = attention.exp_feature_map(m, 3, seed=seed)
            for x, y in pairs:
                truth = math.exp(float(x @ y))
                errs.append(abs(attention.kernel_estimate(x, y, fm) - truth) / truth)
        med.append(float(np.median(errs)))
    assert med[1] < med[0]


# ---------------------------------------------------------------------------
# kernelized attention
# ---------------------------------------------------------------------------


def test_approx_attention_single_row_returns_value():
    w = _weights(3, 8)
    x = _bounded_rows(1, 3, 9)
    for fm in (attention.exp_feature_map(8, 3, seed=0), attention.elu_feature_map()):
        np.testing.assert_allclose(attention.approx_attention(x, w, fm),
                                   x @ w.w_v, atol=1e-12)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**31))
@settings(deadline=None, max_examples=40)
def test_approx_attention_two_forms_agree(n, d, seed):
    w = _weights(d, seed % 997)
    X = _bounded_rows(n, d, seed)
    for fm in (attention.exp_feature_map(16, d, seed=seed % 101),
               attention.elu_feature_map()):
        regrouped = attention.approx_attention(X, w, fm)
        pairwise = kernelized_attention_pairwise(
            X, w.w_q, w.w_k, w.w_v, lambda r: attention.phi(r, fm)
        )
        assert numkit.max_abs_diff(regrouped, pairwise) <= 1e-12


def test_approx_attention_identical_rows():
    w = _weights(3, 12)
    row = _bounded_rows(1, 3, 13)[0]
    X = np.tile(row, (5, 1))
    fm = attention.exp_feature_map(32, 3, seed=3)
    np.testing.assert_allclose(attention.approx_attention(X, w, fm),
                               np.tile(row @ w.w_v, (5, 1)), atol=1e-12)


def test_approx_attention_permutation_equivariant():
    rng = numkit.make_rng(23)
    w = _weights(3, 23)
    X = _bounded_rows(7, 3, 24)
    fm = attention.exp_feature_map(16, 3, seed=5)
    perm = rng.permutation(7)
    np.testing.assert_allclose(attention.approx_attention(X[perm], w, fm),
                               attention.approx_attention(X, w, fm)[perm],
                               atol=1e-12)


def test_approx_attention_rejects_nan_row():
    w = _weights(3, 25)
    X = _bounded_rows(6, 3, 26)
    X[2, 1] = np.nan
    fm = attention.exp_feature_map(8, 3, seed=5)
    with pytest.raises(ValueError, match="denominator"):
        attention.approx_attention(X, w, fm)


# ---------------------------------------------------------------------------
# additive (nonlinear) scoring
# ---------------------------------------------------------------------------


def test_gatv2_score_constant_when_w_zero():
    g = attention.Gatv2Score([1.0, 1.0], np.zeros((2, 4)), [2.0, -3.0])
    got = attention.gatv2_scores_against([3.0, 4.0], [[1.0, 2.0]], g)
    # LeakyReLU(2) + LeakyReLU(-3) = 2 - 0.6
    assert got[0] == pytest.approx(1.4, abs=1e-15)


def test_gatv2_scores_against_matches_scalar_calls():
    rng = numkit.make_rng(37)
    g = attention.Gatv2Score(rng.standard_normal(5),
                             rng.standard_normal((5, 4)),
                             rng.standard_normal(5))
    rows = rng.standard_normal((6, 2))
    fixed = rng.standard_normal(2)
    batch = attention.gatv2_scores_against(fixed, rows, g)
    for i in range(6):
        assert batch[i] == pytest.approx(
            gatv2_score_oracle(rows[i], fixed, g.a, g.w, g.b), abs=1e-12
        )


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_l1_score_is_minus_l1_distance(d):
    rng = numkit.make_rng(40 + d)
    g = attention.l1_score(d)
    for scale in (1e-3, 1.0, 1e3):
        rows = scale * rng.standard_normal((50, d))
        fixed = scale * rng.standard_normal(d)
        got = attention.gatv2_scores_against(fixed, rows, g)
        want = -np.abs(rows - fixed).sum(axis=1)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    # the staged point itself scores exactly 0, the top of every score
    same = attention.gatv2_scores_against(fixed, np.vstack([fixed, rows]), g)
    assert same[0] == 0.0
    assert np.all(same[1:] < 0.0)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_random_weights_respect_spectral_bound():
    for seed in range(5):
        w = attention.random_weights(4, numkit.make_rng(seed))
        assert numkit.spectral_norm(w.w_q) < 1.0
        assert numkit.spectral_norm(w.w_k) < 1.0
        assert numkit.spectral_norm(w.w_v) < 1.0


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_feature_map_json_roundtrip(tmp_path):
    fm = attention.exp_feature_map(8, 3, seed=7)
    p = tmp_path / "fm.json"
    numkit.dump_json(attention.feature_map_to_json(fm), p)
    back = attention.feature_map_from_json(numkit.load_json(p))
    assert back.kind == "exp_features" and back.seed == 7
    np.testing.assert_array_equal(back.directions, fm.directions)

    fm2 = attention.elu_feature_map()
    back2 = attention.feature_map_from_json(attention.feature_map_to_json(fm2))
    assert back2 == fm2


def test_gatv2_json_roundtrip():
    rng = numkit.make_rng(53)
    g = attention.Gatv2Score(rng.standard_normal(4),
                             rng.standard_normal((4, 6)),
                             rng.standard_normal(4), slope=0.1)
    back = attention.gatv2_from_json(attention.gatv2_to_json(g))
    np.testing.assert_array_equal(back.a, g.a)
    np.testing.assert_array_equal(back.w, g.w)
    np.testing.assert_array_equal(back.b, g.b)
    assert back.slope == 0.1

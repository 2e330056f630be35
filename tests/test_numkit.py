import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vnlab import numkit


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_pair():
    np.testing.assert_array_equal(numkit.softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_huge_entries_do_not_overflow():
    out = numkit.softmax([1000.0, 1000.0])
    np.testing.assert_array_equal(out, [0.5, 0.5])
    assert np.all(np.isfinite(out))


def test_softmax_log_weights():
    # exp(ln 1) : exp(ln 3) = 1 : 3
    out = numkit.softmax([math.log(1.0), math.log(3.0)])
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_singleton():
    np.testing.assert_array_equal(numkit.softmax([123.4]), [1.0])


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        numkit.softmax([])


@given(
    st.lists(st.integers(min_value=-(2**20), max_value=2**20), min_size=1, max_size=12),
    st.integers(min_value=-(2**20), max_value=2**20),
)
@settings(deadline=None, max_examples=200)
def test_softmax_shift_invariance_exact(raw, shift):
    # Dyadic inputs keep v + c exactly representable, so max-subtraction makes
    # the shifted softmax bit-identical to the unshifted one.
    v = np.asarray(raw, dtype=np.float64) / 1024.0
    c = float(shift) / 1024.0
    np.testing.assert_array_equal(numkit.softmax(v + c), numkit.softmax(v))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=16))
@settings(deadline=None, max_examples=200)
def test_softmax_is_a_distribution(raw):
    out = numkit.softmax(np.asarray(raw))
    assert np.all(out > 0.0)
    assert abs(float(np.sum(out)) - 1.0) <= 1e-12


def test_softmax_rows_matches_vector_softmax():
    rng = numkit.make_rng(7)
    m = rng.standard_normal((5, 4))
    rows = numkit.softmax(m)  # a matrix is normalized along its last axis
    for i in range(5):
        np.testing.assert_array_equal(rows[i], numkit.softmax(m[i]))


# ---------------------------------------------------------------------------
# flatten, checked against an explicit double loop
# ---------------------------------------------------------------------------


def _flatten_oracle(m):
    out = []
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out.append(m[i, j])
    return np.asarray(out)


def test_flatten_raster_2x3():
    m = np.asarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(numkit.flatten_raster(m), [1, 2, 3, 4, 5, 6])


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=100)
def test_flatten_raster_matches_loop(rows, cols, seed):
    m = numkit.make_rng(seed).standard_normal((rows, cols))
    np.testing.assert_array_equal(numkit.flatten_raster(m), _flatten_oracle(m))


def test_outer_then_flatten_is_kron_order():
    # flatten(u v^T) lists u_0*v, u_1*v, ... which is exactly kron(u, v)
    u = np.asarray([1.0, 2.0])
    v = np.asarray([3.0, 5.0, 7.0])
    np.testing.assert_array_equal(
        numkit.flatten_raster(np.outer(u, v)), np.kron(u, v)
    )


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_relu_basic():
    np.testing.assert_array_equal(numkit.relu([-1.0, 0.0, 2.5]), [0.0, 0.0, 2.5])


def test_leaky_relu_slope():
    np.testing.assert_allclose(
        numkit.leaky_relu([-2.0, 3.0], slope=0.2), [-0.4, 3.0], atol=0
    )


def test_elu_saturates_to_minus_one():
    assert abs(float(numkit.elu(-20.0)) - (-1.0)) <= 1e-8
    assert float(numkit.elu(0.0)) == 0.0
    assert float(numkit.elu(1.5)) == 1.5


def test_elu_plus_one_nonnegative_and_positive_on_bounded_domain():
    # exp(-x) underflows below the ulp of 1 near x ~ -37, where elu(x)+1
    # becomes exactly 0; on any bounded feature domain it stays positive.
    xs = np.linspace(-400, 400, 801)
    assert np.all(numkit.elu(xs) + 1.0 >= 0.0)
    xs = np.linspace(-30, 30, 601)
    assert np.all(numkit.elu(xs) + 1.0 > 0.0)


def test_activation_fn_rejects_unknown():
    with pytest.raises(ValueError):
        numkit.activation_fn("tanh")


# ---------------------------------------------------------------------------
# RNG and gaussian matrices
# ---------------------------------------------------------------------------


def test_gaussian_matrix_deterministic_per_seed():
    a = numkit.gaussian_matrix(8, 3, numkit.make_rng(42))
    b = numkit.gaussian_matrix(8, 3, numkit.make_rng(42))
    c = numkit.gaussian_matrix(8, 3, numkit.make_rng(43))
    np.testing.assert_array_equal(a, b)
    assert numkit.max_abs_diff(a, c) > 0.0


def test_gaussian_matrix_moments():
    m = numkit.gaussian_matrix(500, 200, numkit.make_rng(0))
    assert abs(float(m.mean())) < 0.02
    assert abs(float(m.std()) - 1.0) < 0.02


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=100)
def test_matmul_associativity(a, b, c, d, seed):
    rng = numkit.make_rng(seed)
    A = rng.standard_normal((a, b))
    B = rng.standard_normal((b, c))
    C = rng.standard_normal((c, d))
    assert numkit.max_abs_diff((A @ B) @ C, A @ (B @ C)) <= 1e-10


def test_spectral_norm_of_scaled_identity():
    assert numkit.spectral_norm(3.5 * np.eye(4)) == pytest.approx(3.5, abs=1e-12)


def test_spectral_norm_rank_one():
    u = np.asarray([3.0, 4.0])  # norm 5
    v = np.asarray([1.0, 0.0, 0.0])
    assert numkit.spectral_norm(np.outer(u, v)) == pytest.approx(5.0, abs=1e-12)


def test_binom_values():
    assert numkit.binom(5, 2) == 10
    assert numkit.binom(2, 1) == 2
    assert numkit.binom(0, 0) == 1


# ---------------------------------------------------------------------------
# JSON matrix encoding
# ---------------------------------------------------------------------------


def test_matrix_json_roundtrip_bit_exact(tmp_path):
    m = numkit.make_rng(5).standard_normal((7, 3)) * 1e-7
    blob = numkit.matrix_to_json(m)
    # route through an actual file to exercise the text encoding
    p = tmp_path / "m.json"
    numkit.dump_json(blob, p)
    back = numkit.matrix_from_json(numkit.load_json(p))
    np.testing.assert_array_equal(back, m)


def test_vector_json_roundtrip(tmp_path):
    v = numkit.make_rng(6).standard_normal(11)
    p = tmp_path / "v.json"
    numkit.dump_json(numkit.vector_to_json(v), p)
    np.testing.assert_array_equal(numkit.vector_from_json(numkit.load_json(p)), v)


@pytest.mark.parametrize("compact", [False, True],
                         ids=["indented", "compact"])
def test_failed_dump_leaves_the_target_alone(tmp_path, compact):
    # np.int64 is not JSON-encodable; it sorts after a long encodable list
    bad = {"a": [1.0] * 1000, "b": np.int64(3)}
    existing = tmp_path / "existing.json"
    numkit.dump_json({"kept": True}, existing, compact=compact)
    before = existing.read_bytes()
    with pytest.raises(TypeError):
        numkit.dump_json(bad, existing, compact=compact)
    assert existing.read_bytes() == before
    fresh = tmp_path / "fresh.json"
    with pytest.raises(TypeError):
        numkit.dump_json(bad, fresh, compact=compact)
    assert not fresh.exists()


def test_matrix_from_json_validates_size():
    with pytest.raises(ValueError):
        numkit.matrix_from_json({"rows": 2, "cols": 2, "values": [1.0, 2.0, 3.0]})


@pytest.mark.parametrize("blob, message", [
    ([1.0, 2.0], "must be an object"),
    ({"values": [1.0]}, "has no rows, cols"),
    ({"rows": 1, "cols": 1}, "has no values"),
    ({"rows": "1", "cols": 1, "values": [1.0]}, "non-negative integers"),
    ({"rows": True, "cols": 1, "values": [1.0]}, "non-negative integers"),
    ({"rows": -1, "cols": -1, "values": [1.0]}, "non-negative integers"),
    ({"rows": 1, "cols": 1, "values": {"0": 1.0}}, "must be a list"),
])
def test_matrix_from_json_rejects_malformed_blobs(blob, message):
    with pytest.raises(ValueError, match=message):
        numkit.matrix_from_json(blob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_names_the_first_bad_entry(bad):
    m = np.zeros((3, 4))
    m[1, 2] = bad
    m[2, 0] = np.nan
    with pytest.raises(ValueError, match=(
            rf"^rows contains non-finite entries, the first {bad} at "
            r"\(1, 2\)$")):
        numkit.check_finite(m, "rows")
    with pytest.raises(ValueError, match=rf"the first {bad} at 2$"):
        numkit.check_finite(np.array([0.0, 1.0, bad]), "v")
    assert numkit.check_finite(np.eye(2), "rows").dtype == np.float64


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_payloads_refuse_what_json_reads_as_non_finite(token):
    # json.loads reads each of these tokens, 1e999 as inf
    blob = json.loads(f'{{"rows": 2, "cols": 2, "values": [0, 1, {token}, 3]}}')
    bad = blob["values"][2]
    with pytest.raises(ValueError, match=(
            rf"^matrix payload contains non-finite entries, the first {bad} "
            r"at \(1, 0\)$")):
        numkit.matrix_from_json(blob)
    blob = json.loads(f'{{"rows": 1, "cols": 3, "values": [0, 1, {token}]}}')
    with pytest.raises(ValueError, match=r"the first \S+ at \(0, 2\)$"):
        numkit.vector_from_json(blob)
    with pytest.raises(ValueError, match=(
            rf"^gatv2 slope must be finite, got {bad}$")):
        numkit.scalar_from_json(json.loads(token), float, "gatv2 slope")


def test_finite_scalars_still_read():
    assert numkit.scalar_from_json(1e308, float) == 1e308
    assert numkit.scalar_from_json(3, float) == 3.0
    with pytest.raises(ValueError, match=r"^width must be an integer, got inf$"):
        numkit.scalar_from_json(json.loads("1e999"), int, "width")

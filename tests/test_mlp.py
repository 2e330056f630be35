import hashlib

import numpy as np
import pytest

from vnlab import mlp, numkit
from oracles import MLP_SHAPE_MATRIX, mlp_forward_oracle


def random_mlp(spec: mlp.MlpSpec, rng) -> mlp.MlpParams:
    """Random weights for ``spec``: N(0, 2/fan_in) weights drawn layer by
    layer from ``rng``, and zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out))
                       * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return mlp.MlpParams(spec, weights, biases)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

# finite inputs at the edges of float64: signed zeros, subnormals and
# values whose products with the weights stay finite only just
FORWARD_SPECIALS = (0.0, -0.0, 1e-310, -1e-310, 1e300, -1e300)
# re-recorded when the shape matrix's two leaky_relu rows became relu (the
# relu and elu forward passes themselves did not change)
FORWARD_SHA256 = (
    "13c5cb946af9984217c248488112dd54a6891d8af452d64c224f4c8604fcd7f5")


def test_forward_single_affine_layer_by_hand():
    spec = mlp.MlpSpec((2, 1))
    params = mlp.MlpParams(spec, [np.asarray([[2.0], [3.0]])], [np.asarray([0.5])])
    out = mlp.forward(params, [[1.0, 1.0], [0.0, 0.0]])
    assert out[0, 0] == pytest.approx(5.5, abs=0)
    assert out[1, 0] == pytest.approx(0.5, abs=0)


def test_forward_relu_gate_by_hand():
    # one hidden unit computing relu(x), output passes it through
    spec = mlp.MlpSpec((1, 1, 1), "relu")
    params = mlp.MlpParams(
        spec, [np.asarray([[1.0]]), np.asarray([[1.0]])], [np.zeros(1), np.zeros(1)]
    )
    np.testing.assert_array_equal(mlp.forward(params, [[2.0], [-2.0]]),
                                  [[2.0], [0.0]])


@pytest.mark.parametrize("widths,act", MLP_SHAPE_MATRIX)
def test_forward_matches_loop_oracle(widths, act):
    rng = numkit.make_rng(200 + MLP_SHAPE_MATRIX.index((widths, act)))
    params = random_mlp(mlp.MlpSpec(widths, act), rng)
    for _ in range(3):
        x = rng.standard_normal(widths[0])
        np.testing.assert_allclose(
            mlp.forward(params, x[None, :])[0], mlp_forward_oracle(params, x),
            atol=1e-12
        )


def test_forward_bits_are_pinned():
    # every shape-matrix network on normal rows, then rows of the specials
    # cycled across the columns; the digest covers the outputs' bytes
    digest = hashlib.sha256()
    for idx, (widths, act) in enumerate(MLP_SHAPE_MATRIX):
        rng = numkit.make_rng(100 + idx)
        params = random_mlp(mlp.MlpSpec(widths, act), rng)
        k = len(FORWARD_SPECIALS)
        specials = np.asarray([[FORWARD_SPECIALS[(i + j) % k]
                                for j in range(widths[0])] for i in range(k)])
        x = np.vstack([rng.standard_normal((8, widths[0])), specials])
        digest.update(mlp.forward(params, x).tobytes())
    assert digest.hexdigest() == FORWARD_SHA256


def test_spec_refuses_other_activations():
    # no piece was ever built or saved with leaky_relu hidden units
    with pytest.raises(ValueError, match="unsupported hidden activation "
                                         "'leaky_relu'"):
        mlp.MlpSpec((1, 4, 1), "leaky_relu")


def test_forward_rejects_wrong_width():
    params = random_mlp(mlp.MlpSpec((3, 2)), numkit.make_rng(0))
    with pytest.raises(ValueError, match="input has 2 features, network "
                                         "expects 3"):
        mlp.forward(params, [[1.0, 2.0]])


@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], 1.0, [[[1.0, 2.0, 3.0]]]])
def test_forward_refuses_anything_but_a_batch(x):
    params = random_mlp(mlp.MlpSpec((3, 2)), numkit.make_rng(0))
    with pytest.raises(ValueError, match="forward takes a batch with one "
                                         "input per row"):
        mlp.forward(params, x)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_params_from_json_rejects_mismatched_shapes():
    params = random_mlp(mlp.MlpSpec((2, 3)), numkit.make_rng(0))
    blob = mlp.params_to_json(params)
    blob["widths"] = [2, 4]
    with pytest.raises(ValueError):
        mlp.params_from_json(blob)


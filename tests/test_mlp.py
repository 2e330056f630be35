import numpy as np
import pytest

from vnlab import mlp, numkit
from oracles import MLP_SHAPE_MATRIX, finite_diff_grads, grad_rel_err, mlp_forward_oracle


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_single_affine_layer_by_hand():
    spec = mlp.MlpSpec((2, 1))
    params = mlp.MlpParams(spec, [np.asarray([[2.0], [3.0]])], [np.asarray([0.5])])
    assert mlp.forward(params, [1.0, 1.0])[0] == pytest.approx(5.5, abs=0)
    assert mlp.forward(params, [0.0, 0.0])[0] == pytest.approx(0.5, abs=0)


def test_forward_relu_gate_by_hand():
    # one hidden unit computing relu(x), output passes it through
    spec = mlp.MlpSpec((1, 1, 1), "relu")
    params = mlp.MlpParams(
        spec, [np.asarray([[1.0]]), np.asarray([[1.0]])], [np.zeros(1), np.zeros(1)]
    )
    assert mlp.forward(params, [2.0])[0] == 2.0
    assert mlp.forward(params, [-2.0])[0] == 0.0


@pytest.mark.parametrize("widths,act", MLP_SHAPE_MATRIX)
def test_forward_matches_loop_oracle(widths, act):
    rng = numkit.make_rng(hash((widths, act)) % 2**32)
    params = mlp.init_params(mlp.MlpSpec(widths, act), rng)
    for _ in range(3):
        x = rng.standard_normal(widths[0])
        np.testing.assert_allclose(
            mlp.forward(params, x), mlp_forward_oracle(params, x), atol=1e-12
        )


def test_forward_batch_agrees_with_rows():
    # batched and single-row matmuls may take different BLAS kernels, so
    # agreement is to rounding, not bitwise
    rng = numkit.make_rng(3)
    params = mlp.init_params(mlp.MlpSpec((3, 8, 2), "elu"), rng)
    xs = rng.standard_normal((5, 3))
    batch = mlp.forward(params, xs)
    for i in range(5):
        np.testing.assert_allclose(batch[i], mlp.forward(params, xs[i]), atol=1e-12)


def test_forward_rejects_wrong_width():
    params = mlp.init_params(mlp.MlpSpec((3, 2)), numkit.make_rng(0))
    with pytest.raises(ValueError):
        mlp.forward(params, [1.0, 2.0])


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradient_of_affine_layer_analytic():
    # loss = 0.5 (w x + b - y)^2 ; dL/dw = (wx+b-y) x, dL/db = (wx+b-y)
    spec = mlp.MlpSpec((1, 1))
    params = mlp.MlpParams(spec, [np.asarray([[2.0]])], [np.asarray([1.0])])
    x, y = np.asarray([[3.0]]), np.asarray([[4.0]])
    loss, gw, gb = mlp.loss_and_grads(params, x, y)
    resid = 2.0 * 3.0 + 1.0 - 4.0
    assert loss == pytest.approx(0.5 * resid**2, abs=0)
    assert gw[0][0, 0] == pytest.approx(resid * 3.0, abs=0)
    assert gb[0][0] == pytest.approx(resid, abs=0)


def test_gradient_zero_at_exact_fit():
    spec = mlp.MlpSpec((2, 2))
    params = mlp.MlpParams(spec, [np.eye(2)], [np.zeros(2)])
    x = np.asarray([[1.0, -2.0], [0.5, 0.25]])
    loss, gw, gb = mlp.loss_and_grads(params, x, x)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in gw + gb)


@pytest.mark.parametrize("widths,act", MLP_SHAPE_MATRIX)
def test_gradient_matches_central_differences(widths, act):
    rng = numkit.make_rng(1234 + len(widths))
    spec = mlp.MlpSpec(widths, act)
    params = mlp.init_params(spec, rng)
    x = rng.standard_normal((4, widths[0]))
    y = rng.standard_normal((4, widths[-1]))

    _, gw, gb = mlp.loss_and_grads(params, x, y)
    fw, fb = finite_diff_grads(lambda p: mlp.loss_and_grads(p, x, y)[0], params)
    assert grad_rel_err(gw, fw) <= 1e-4
    assert grad_rel_err(gb, fb) <= 1e-4


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_params_from_json_rejects_mismatched_shapes():
    params = mlp.init_params(mlp.MlpSpec((2, 3)), numkit.make_rng(0))
    blob = mlp.params_to_json(params)
    blob["widths"] = [2, 4]
    with pytest.raises(ValueError):
        mlp.params_from_json(blob)


def test_lattice_shapes():
    assert mlp.lattice(-1, 1, 5, 1).shape == (5, 1)
    assert mlp.lattice(-1, 1, 5, 2).shape == (25, 2)
    grid = mlp.lattice(0, 1, 3, 2)
    np.testing.assert_array_equal(grid[0], [0.0, 0.0])
    np.testing.assert_array_equal(grid[-1], [1.0, 1.0])

import numpy as np
import pytest

from vnlab import mlp, numkit
from oracles import MLP_SHAPE_MATRIX, finite_diff_grads, grad_rel_err, mlp_forward_oracle


def _product_target(x):
    return (x[:, 0] * x[:, 1]).reshape(-1, 1)


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
# fitting
# ---------------------------------------------------------------------------


def test_fit_identity_width_16():
    rng = numkit.make_rng(0)
    tx = rng.uniform(-1, 1, size=(256, 1))
    hx = mlp.lattice(-1, 1, 201, 1)
    budget = mlp.FitBudget(max_epochs=1500, lr=5e-3, schedule="cosine",
                           eval_every=50, target_sup=0.02)
    _, report = mlp.fit(mlp.MlpSpec((1, 16, 1), "relu"), tx, tx, budget, hx, hx, seed=0)
    assert report.sup_error <= 0.02
    assert report.reached_target


def test_fit_constant_function():
    tx = mlp.lattice(-1, 1, 64, 1)
    ty = np.full((64, 1), 0.75)
    hx = mlp.lattice(-1, 1, 101, 1)
    hy = np.full((101, 1), 0.75)
    budget = mlp.FitBudget(max_epochs=2000, lr=5e-3, schedule="cosine",
                           eval_every=50, target_sup=5e-3)
    _, report = mlp.fit(mlp.MlpSpec((1, 8, 1), "relu"), tx, ty, budget, hx, hy, seed=1)
    assert report.sup_error <= 1e-2


def test_fit_product_width_64():
    tx = mlp.lattice(-1, 1, 33, 2)
    ty = _product_target(tx)
    hx = mlp.lattice(-1, 1, 41, 2)
    hy = _product_target(hx)
    budget = mlp.FitBudget(max_epochs=4000, lr=1e-2, schedule="cosine",
                           eval_every=100, target_sup=0.045)
    _, report = mlp.fit(mlp.MlpSpec((2, 64, 1), "elu"), tx, ty, budget, hx, hy, seed=0)
    assert report.sup_error <= 0.05


def test_fit_sup_error_median_nonincreasing_in_width():
    # statistical property: wider nets fit the product at least as well
    tx = mlp.lattice(-1, 1, 25, 2)
    ty = _product_target(tx)
    hx = mlp.lattice(-1, 1, 33, 2)
    hy = _product_target(hx)
    budget = mlp.FitBudget(max_epochs=1200, lr=1e-2, schedule="cosine", eval_every=100)
    medians = []
    for width in (16, 64, 256):
        sups = [
            mlp.fit(mlp.MlpSpec((2, width, 1), "elu"), tx, ty, budget, hx, hy, seed=s)[1].sup_error
            for s in range(5)
        ]
        medians.append(float(np.median(sups)))
    assert medians[0] >= medians[1] >= medians[2]


def test_fit_loss_curve_best_so_far_monotone():
    tx = mlp.lattice(-1, 1, 32, 1)
    budget = mlp.FitBudget(max_epochs=300, lr=5e-3, eval_every=50)
    _, report = mlp.fit(mlp.MlpSpec((1, 8, 1), "relu"), tx, tx, budget, tx, tx, seed=2)
    best = report.best_so_far_losses()
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    assert best[-1] < report.loss_curve[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_raises_training_error():
    # the overflow on the way to the diagnostic is the point of the test
    tx = mlp.lattice(-1, 1, 16, 1)
    budget = mlp.FitBudget(max_epochs=50, lr=1e120, eval_every=10)
    with pytest.raises(mlp.TrainingError):
        mlp.fit(mlp.MlpSpec((1, 8, 1), "relu"), tx, tx, budget, tx, tx, seed=0)


def test_fit_deterministic_given_seed():
    tx = mlp.lattice(-1, 1, 24, 1)
    budget = mlp.FitBudget(max_epochs=120, lr=5e-3, eval_every=40)
    p1, r1 = mlp.fit(mlp.MlpSpec((1, 6, 1), "relu"), tx, tx, budget, tx, tx, seed=9)
    p2, r2 = mlp.fit(mlp.MlpSpec((1, 6, 1), "relu"), tx, tx, budget, tx, tx, seed=9)
    assert r1.loss_curve == r2.loss_curve
    for a, b in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(a, b)


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

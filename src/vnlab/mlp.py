"""Plain feedforward networks with hand-written backprop and an Adam fitter.

The networks here exist to substantiate "this continuous map can be
approximated by an MLP" steps with *measured* sup-errors, and to serve as
drop-in replacements for closed-form pieces inside compiled layer programs.
Everything is deliberately explicit: forward, gradients, and the optimizer
are spelled out so an independent finite-difference oracle can check the
gradients end to end.

Shapes follow the row convention: inputs are rows, a layer maps
``h -> act(h @ W + b)`` with ``W`` of shape (fan_in, fan_out), and the final
layer is always affine (no activation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit


class TrainingError(RuntimeError):
    """Raised when optimization produces non-finite losses or parameters."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer widths (input, hidden..., output) and hidden activation."""

    widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ("relu", "leaky_relu", "elu"):
            raise ValueError(f"unsupported hidden activation {self.activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass
class MlpParams:
    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int | None = None

    def copy(self) -> "MlpParams":
        return MlpParams(
            self.spec,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.seed,
        )


def init_params(spec: MlpSpec, rng: np.random.Generator, seed: int | None = None) -> MlpParams:
    """He-style initialization: N(0, 2/fan_in) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return MlpParams(spec, weights, biases, seed)


def _act_and_deriv(name: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if name == "relu":
        mask = (z > 0.0).astype(np.float64)
        return z * mask, mask
    if name == "leaky_relu":
        slope = 0.2
        mask = np.where(z > 0.0, 1.0, slope)
        return z * mask, mask
    if name == "elu":
        ez = np.exp(np.minimum(z, 0.0))
        out = np.where(z >= 0.0, z, ez - 1.0)
        return out, np.where(z >= 0.0, 1.0, ez)
    raise ValueError(f"unsupported activation {name!r}")


def forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on a single input (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x.reshape(1, -1) if single else x
    if h.shape[1] != params.spec.in_dim:
        raise ValueError(
            f"input has {h.shape[1]} features, network expects {params.spec.in_dim}"
        )
    last = params.spec.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i != last:
            h, _ = _act_and_deriv(params.spec.activation, h)
    return h[0] if single else h


def loss_and_grads(
    params: MlpParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared-error loss over the batch and its parameter gradients.

    loss = mean_batch 0.5 * ||f(x) - y||^2, gradients by reverse accumulation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if y.ndim == 1:
        y = y.reshape(-1, params.spec.out_dim) if y.size else y.reshape(0, 0)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y batches differ in length")
    batch = x.shape[0]
    if batch == 0:
        raise ValueError("cannot compute a loss on an empty batch")

    last = params.spec.n_layers - 1
    h = x
    pre_acts: list[np.ndarray] = []
    hiddens: list[np.ndarray] = [h]
    derivs: list[np.ndarray] = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        pre_acts.append(z)
        if i != last:
            h, d = _act_and_deriv(params.spec.activation, z)
            derivs.append(d)
        else:
            h = z
        hiddens.append(h)

    resid = h - y
    loss = float(0.5 * np.sum(resid * resid) / batch)

    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    delta = resid / batch
    for i in range(last, -1, -1):
        grad_w[i] = hiddens[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * derivs[i - 1]
    return loss, grad_w, grad_b


@dataclass(frozen=True)
class FitBudget:
    """Optimization budget: epoch cap and peak learning rate.

    The learning rate decays along a cosine from ``lr`` to ``lr / 50``
    across the ``max_epochs`` epochs.
    """

    max_epochs: int = 2000
    lr: float = 1e-3
    eval_every: int = 25
    target_sup: float = 0.0  # early-stop threshold; 0 disables early stopping

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be positive")


@dataclass
class FitReport:
    sup_error: float
    loss_curve: list[float]
    epochs_run: int
    seed: int
    target_sup: float
    reached_target: bool


def _lr_at(budget: FitBudget, epoch: int) -> float:
    # cosine decay from lr to lr/50 across the epoch budget
    lo = budget.lr / 50.0
    t = epoch / max(budget.max_epochs - 1, 1)
    return lo + 0.5 * (budget.lr - lo) * (1.0 + np.cos(np.pi * t))


def fit(
    spec: MlpSpec,
    train_x,
    train_y,
    budget: FitBudget,
    holdout_x,
    holdout_y,
    seed: int = 0,
) -> tuple[MlpParams, FitReport]:
    """Full-batch Adam fit against squared error, tracking held-out sup-error.

    Returns the parameters that achieved the best held-out sup-error together
    with a report.  Raises :class:`TrainingError` if the loss goes non-finite.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    holdout_x = np.asarray(holdout_x, dtype=np.float64)
    holdout_y = np.asarray(holdout_y, dtype=np.float64)
    if train_x.ndim == 1:
        train_x = train_x.reshape(-1, 1)
    if train_y.ndim == 1:
        train_y = train_y.reshape(-1, 1)
    if holdout_x.ndim == 1:
        holdout_x = holdout_x.reshape(-1, 1)
    if holdout_y.ndim == 1:
        holdout_y = holdout_y.reshape(-1, 1)

    rng = numkit.make_rng(seed)
    params = init_params(spec, rng, seed)

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in params.weights]
    v_w = [np.zeros_like(w) for w in params.weights]
    m_b = [np.zeros_like(b) for b in params.biases]
    v_b = [np.zeros_like(b) for b in params.biases]

    def sup_err(p: MlpParams) -> float:
        pred = forward(p, holdout_x)
        return float(np.max(np.abs(pred - holdout_y)))

    losses: list[float] = []
    best_sup = sup_err(params)
    best_params = params.copy()
    reached = budget.target_sup > 0.0 and best_sup <= budget.target_sup
    epochs_run = 0
    t = 0
    for epoch in range(budget.max_epochs):
        loss, gw, gb = loss_and_grads(params, train_x, train_y)
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at epoch {epoch} (seed {seed}, "
                f"widths {spec.widths}); try a smaller learning rate"
            )
        losses.append(loss)
        t += 1
        lr = _lr_at(budget, epoch)
        corr1 = 1.0 - beta1**t
        corr2 = 1.0 - beta2**t
        for i in range(spec.n_layers):
            m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
            v_w[i] = beta2 * v_w[i] + (1 - beta2) * (gw[i] * gw[i])
            m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
            v_b[i] = beta2 * v_b[i] + (1 - beta2) * (gb[i] * gb[i])
            params.weights[i] -= lr * (m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2) + eps)
            params.biases[i] -= lr * (m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2) + eps)
        epochs_run = epoch + 1
        if (epoch + 1) % budget.eval_every == 0 or epoch == budget.max_epochs - 1:
            if not all(np.all(np.isfinite(w)) for w in params.weights):
                raise TrainingError(
                    f"parameters became non-finite at epoch {epoch} (seed {seed})"
                )
            cur = sup_err(params)
            if cur < best_sup:
                best_sup = cur
                best_params = params.copy()
            if budget.target_sup > 0.0 and best_sup <= budget.target_sup:
                reached = True
                break

    report = FitReport(
        sup_error=best_sup,
        loss_curve=losses,
        epochs_run=epochs_run,
        seed=seed,
        target_sup=budget.target_sup,
        reached_target=reached or (budget.target_sup > 0.0 and best_sup <= budget.target_sup),
    )
    return best_params, report


def lattice(lo: float, hi: float, points: int, dims: int = 1) -> np.ndarray:
    """Regular evaluation lattice over [lo, hi]^dims, one row per grid point."""
    if points < 2:
        raise ValueError("a lattice needs at least 2 points per axis")
    axis = np.linspace(lo, hi, points)
    if dims == 1:
        return axis.reshape(-1, 1)
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# persistence (same JSON weight envelope as the attention module)
# ---------------------------------------------------------------------------


def params_to_json(params: MlpParams) -> dict:
    return {
        "format": "weights/v1",
        "kind": "mlp",
        "activation": params.spec.activation,
        "widths": list(params.spec.widths),
        "seed": params.seed,
        "rng_algorithm": numkit.RNG_ALGORITHM,
        "layers": [
            {"weight": numkit.matrix_to_json(w), "bias": numkit.vector_to_json(b)}
            for w, b in zip(params.weights, params.biases)
        ],
    }


def params_from_json(blob: dict) -> MlpParams:
    numkit.require_object(blob, "mlp weight")
    if blob.get("kind") != "mlp":
        raise ValueError(f"not an mlp weight file (kind={blob.get('kind')!r})")
    widths = blob.get("widths")
    if not isinstance(widths, list):
        raise ValueError(f"mlp widths must be a list, got {widths!r}")
    spec = MlpSpec(tuple(numkit.scalar_from_json(w, int, "mlp width")
                         for w in widths), blob["activation"])
    weights, biases = [], []
    for i, layer in enumerate(blob["layers"]):
        w = numkit.matrix_from_json(layer["weight"])
        b = numkit.vector_from_json(layer["bias"])
        want = (spec.widths[i], spec.widths[i + 1])
        if w.shape != want or b.shape != (want[1],):
            raise ValueError(f"layer {i} has shape {w.shape}, expected {want}")
        weights.append(w)
        biases.append(b)
    if len(weights) != spec.n_layers:
        raise ValueError("layer count does not match widths")
    return MlpParams(spec, weights, biases,
                     numkit.seed_from_json(blob, "mlp weight"))

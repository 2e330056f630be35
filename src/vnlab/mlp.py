"""Plain feedforward networks: forward pass, hand-written backprop, JSON.

The networks here substantiate "this continuous map can be approximated by
an MLP" steps with *measured* sup-errors, and serve as drop-in replacements
for closed-form pieces inside compiled layer programs; mlp mode writes its
pieces' weights directly (``constructions._build_piece``), so nothing here
trains.  Forward and gradients are spelled out so an independent
finite-difference oracle can check the gradients end to end.

Shapes follow the row convention: inputs are rows, a layer maps
``h -> act(h @ W + b)`` with ``W`` of shape (fan_in, fan_out), and the final
layer is always affine (no activation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit


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


def init_params(spec: MlpSpec, rng: np.random.Generator) -> MlpParams:
    """He-style initialization: N(0, 2/fan_in) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return MlpParams(spec, weights, biases)


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
    widths, activation, layers = numkit.require_keys(
        blob, "mlp weight", "widths", "activation", "layers")
    if not isinstance(widths, list):
        raise ValueError(f"mlp widths must be a list, got {widths!r}")
    spec = MlpSpec(tuple(numkit.scalar_from_json(w, int, "mlp width")
                         for w in widths),
                   numkit.scalar_from_json(activation, str, "mlp activation"))
    if not (isinstance(layers, list) and len(layers) == spec.n_layers):
        raise ValueError("mlp layers must be a list of one layer per "
                         "consecutive pair of widths")
    weights, biases = [], []
    for i, layer in enumerate(layers):
        weight, bias = numkit.require_keys(layer, f"mlp layer {i}",
                                           "weight", "bias")
        w, b = numkit.matrix_from_json(weight), numkit.vector_from_json(bias)
        want = (spec.widths[i], spec.widths[i + 1])
        if w.shape != want or b.shape != (want[1],):
            raise ValueError(f"layer {i} has shape {w.shape}, expected {want}")
        weights.append(w)
        biases.append(b)
    return MlpParams(spec, weights, biases,
                     numkit.seed_from_json(blob, "mlp weight"))

"""Plain feedforward networks: the forward pass and the JSON weight codec.

mlp mode's scalar pieces are networks of this kind: ReLU interpolants whose
weights ``constructions._build_piece`` writes directly, and the ELU networks
that older documents saved.  Nothing here trains.

Shapes follow the row convention: inputs are rows, a layer maps
``h -> act(h @ W + b)`` with ``W`` of shape (fan_in, fan_out), where ``act``
is relu or elu (the only hidden activations a piece has used), and the final
layer is always affine (no activation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer widths (input, hidden..., output) and the hidden
    activation, "relu" or "elu"."""

    widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ("relu", "elu"):
            raise ValueError(f"unsupported hidden activation {self.activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass
class MlpParams:
    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int | None = None


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return z * (z > 0.0)
    # elu; MlpSpec admits no other name
    return np.where(z >= 0.0, z, np.exp(np.minimum(z, 0.0)) - 1.0)


def forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on a batch: one input per row of the 2-D ``x``."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ValueError("forward takes a batch with one input per row, "
                         f"got an array of shape {h.shape}")
    if h.shape[1] != params.spec.in_dim:
        raise ValueError(
            f"input has {h.shape[1]} features, network expects {params.spec.in_dim}"
        )
    last = params.spec.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i != last:
            h = _activate(params.spec.activation, h)
    return h


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

"""Permutation-equivariant set networks and their layer-program compiler.

A linear equivariant layer on a set of n feature rows is

    X  ->  X A + (1/n) 1 1^T X B + 1 c^T

(mix each row, mix the mean into each row, add a bias row).  Stacks of these
with a pointwise nonlinearity are universal for permutation-equivariant maps;
``width_bound`` evaluates the width that suffices for universality.

``compile_linear`` emits two virtual-node layers that *simulate the linear
layer exactly* (closed-form evaluators, no approximation): the first layer
stores the mean in the virtual node while each graph node applies A; the
second layer mixes the broadcast mean through B and adds the bias.
``compile_network`` chains the pairs, folding each pointwise nonlinearity
into the second layer of its pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .mpnnvn import (
    AffineFromVn,
    ConstVn,
    CopyPooled,
    CopyVnMsg,
    IdentityGn,
    LayerProgram,
    LinearGn,
    MeanPool,
    MpnnVnLayer,
)


@dataclass(frozen=True, eq=False)
class EquivariantLinear:
    """One linear permutation-equivariant layer (A, B, c)."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", numkit.as_matrix(self.A))
        object.__setattr__(self, "B", numkit.as_matrix(self.B))
        object.__setattr__(self, "c", numkit.as_vector(self.c))
        if self.B.shape != self.A.shape:
            raise ValueError(
                f"A and B must share a shape, got {self.A.shape} vs {self.B.shape}"
            )
        if self.c.shape != (self.A.shape[1],):
            raise ValueError(
                f"bias length {self.c.shape[0]} does not match output dim "
                f"{self.A.shape[1]}"
            )

    @property
    def in_dim(self) -> int:
        return self.A.shape[0]

    @property
    def out_dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class DeepSetsNet:
    """Equivariant linear layers interleaved with a pointwise nonlinearity.

    The nonlinearity applies between layers, not after the last one.
    """

    layers: tuple
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        numkit.activation_fn(self.activation)  # validate the name
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"width chain broken: {a.out_dim} feeds {b.in_dim}"
                )

    @property
    def widths(self) -> tuple:
        return (self.layers[0].in_dim,) + tuple(l.out_dim for l in self.layers)


def eval_linear(X, layer: EquivariantLinear) -> np.ndarray:
    """Direct evaluation: X A + (mean row) B + c."""
    X = numkit.as_matrix(X)
    if X.shape[1] != layer.in_dim:
        raise ValueError(
            f"input dim {X.shape[1]} does not match layer dim {layer.in_dim}"
        )
    mean = X.sum(axis=0) / X.shape[0]
    return X @ layer.A + mean @ layer.B + layer.c


def eval_network(X, net: DeepSetsNet) -> np.ndarray:
    act = numkit.activation_fn(net.activation)
    h = numkit.as_matrix(X)
    for layer in net.layers[:-1]:
        h = act(eval_linear(h, layer))
    return eval_linear(h, net.layers[-1])


def width_bound(n: int, d_in: int, d_out: int) -> int:
    """Width sufficient for universal equivariant approximation.

    Exact integer arithmetic: d_out + d_in + binomial(n + d_in, d_in).
    """
    if n < 1 or d_in < 1 or d_out < 1:
        raise ValueError("width_bound needs n, d_in, d_out >= 1")
    return d_out + d_in + numkit.binom(n + d_in, d_in)


# ---------------------------------------------------------------------------
# compilation to virtual-node layer programs
# ---------------------------------------------------------------------------


def _linear_pair(layer: EquivariantLinear, activation: str | None):
    """Two virtual-node layers simulating one equivariant linear layer.

    Layer 1: virtual node <- mean of inputs; every graph node applies A.
    Layer 2: graph node <- (node state) + (broadcast mean) B + c, then the
    pointwise nonlinearity if one is requested; virtual node resets to zero.
    """
    collect = MpnnVnLayer(
        vn_pool=MeanPool(),
        vn_update=CopyPooled(),
        gn_msg=CopyVnMsg(),
        gn_update=LinearGn(layer.A),
    )
    mix = MpnnVnLayer(
        vn_pool=MeanPool(),
        vn_update=ConstVn(np.zeros(layer.out_dim)),
        gn_msg=CopyVnMsg(),
        gn_update=AffineFromVn(layer.B, layer.c, activation=activation),
    )
    return [collect, mix]


def compile_linear(layer: EquivariantLinear, n: int) -> LayerProgram:
    """Exact two-layer simulation of one linear equivariant layer."""
    if n < 1:
        raise ValueError("need at least one set element")
    return LayerProgram(
        layers=_linear_pair(layer, activation=None),
        vn_init=np.zeros(layer.in_dim),
        provenance="deepsets-compiler",
        metadata={"n": n, "widths": [layer.in_dim, layer.out_dim]},
    )


def compile_network(net: DeepSetsNet, n: int) -> LayerProgram:
    """Exact simulation of a whole network: two layers per linear layer."""
    if n < 1:
        raise ValueError("need at least one set element")
    layers = []
    for idx, lin in enumerate(net.layers):
        last = idx == len(net.layers) - 1
        layers.extend(_linear_pair(lin, None if last else net.activation))
    return LayerProgram(
        layers=layers,
        vn_init=np.zeros(net.layers[0].in_dim),
        provenance="deepsets-compiler",
        metadata={
            "n": n,
            "widths": list(net.widths),
            "activation": net.activation,
        },
    )


# ---------------------------------------------------------------------------
# randomized instances
# ---------------------------------------------------------------------------


def random_linear(d_in: int, d_out: int, rng: np.random.Generator) -> EquivariantLinear:
    return EquivariantLinear(
        A=rng.normal(size=(d_in, d_out)),
        B=rng.normal(size=(d_in, d_out)),
        c=rng.normal(size=d_out),
    )


def random_network(widths, rng: np.random.Generator,
                   activation: str = "relu") -> DeepSetsNet:
    layers = [random_linear(a, b, rng) for a, b in zip(widths[:-1], widths[1:])]
    return DeepSetsNet(tuple(layers), activation=activation)

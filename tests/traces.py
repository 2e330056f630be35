"""Full program traces for tests, taken one ``run_layer`` call at a time."""

from __future__ import annotations

import numpy as np

from vnlab.mpnnvn import run_layer


def run_stepwise(s0, prog):
    """Apply ``run_layer`` to each of ``prog.layers`` in turn; ``run_program``,
    which computes runs of selection rounds in chunks, is never called.

    Returns (states, weights): states[t] is the state at time t (states[0]
    is ``s0``, states[k] the state after layer k) and weights[k - 1] is
    layer k's selection weights (None for a pool that is not a selection
    pool).
    """
    states, weights = [s0], []
    for k, layer in enumerate(prog.layers, start=1):
        state, w = run_layer(states[-1], layer, k)
        states.append(state)
        weights.append(w)
    return states, weights


def gn_matrix(blocks):
    """Graph-node blocks side by side, in their order: for a deep program's
    state the [x | acc | mass | q] matrix ``oracles.deep_trace_oracle``
    returns."""
    return np.concatenate(list(blocks.values()), axis=1)

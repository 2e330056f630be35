"""Full program traces for tests, recorded through ``run_program``'s hook,
and the same trace taken one ``run_layer`` call at a time."""

from __future__ import annotations

import numpy as np

from vnlab.mpnnvn import run_layer, run_program


def run_traced(s0, prog):
    """Run ``prog`` and keep everything the observer sees.

    Returns (states, auxes): states[t] is the state at time t (states[0] is
    ``s0``, states[k] the state after layer k) and auxes[k - 1] is layer k's
    pool aux output (None for plain pools).
    """
    states, auxes = [s0], []

    def keep(k, state, aux):
        states.append(state)
        auxes.append(aux)

    run_program(s0, prog, observe=keep)
    return states, auxes


def run_stepwise(s0, prog):
    """``run_traced``'s (states, auxes), taken by applying ``run_layer`` to
    each of ``prog.layers`` in turn; ``run_program``, which computes runs of
    selection rounds in chunks, is never called."""
    states, auxes = [s0], []
    for k, layer in enumerate(prog.layers, start=1):
        state, aux = run_layer(states[-1], layer, k)
        states.append(state)
        auxes.append(aux)
    return states, auxes


def gn_matrix(blocks):
    """Graph-node blocks side by side, in their order: for a deep program's
    state the [x | acc | mass | q] matrix ``oracles.deep_trace_oracle``
    returns."""
    return np.concatenate(list(blocks.values()), axis=1)

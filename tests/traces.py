"""Full program traces for tests, recorded through ``run_program``'s hook."""

from __future__ import annotations

from vnlab.mpnnvn import run_program


def run_traced(g, s0, prog):
    """Run ``prog`` and keep everything the observer sees.

    Returns (states, auxes): states[t] is the state at time t (states[0] is
    ``s0``, states[k] the state after layer k) and auxes[k - 1] is layer k's
    pool aux output (None for plain pools).
    """
    states, auxes = [s0], []

    def keep(k, state, aux):
        states.append(state)
        auxes.append(aux)

    run_program(g, s0, prog, observe=keep)
    return states, auxes

"""Markov-chain analysis of state-transition graphs.

Under uniform random inputs — exactly the paper's power-measurement
drive ("post place and route simulation was done ... for a large number
of random inputs") — an FSM is a Markov chain whose transition matrix
follows from the input-cube minterm masses.  This module derives the
quantities the experiments otherwise obtain by simulation:

* :func:`transition_matrix` — the uniform-input chain;
* :func:`stationary_distribution` — long-run state occupancy (power
  iteration with a small uniform-restart smoothing for periodic or
  reducible chains);
* :func:`expected_idle_fraction` — the long-run probability of an idle
  step (self-loop with repeated output), the analytic counterpart of
  the section 6 idle occupancy;
* :func:`expected_state_bit_activity` — expected state-register toggles
  per cycle under an encoding, the quantity
  :func:`repro.fsm.assign.anneal_encoding` minimizes.

The test-suite cross-checks these predictions against long simulations,
closing the loop between the analytic model and the measured traces.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.fsm.encoding import StateEncoding
from repro.fsm.machine import FSM
from repro.fsm.memo import fsm_memo, stg_fingerprint

__all__ = [
    "transition_matrix",
    "stationary_distribution",
    "stg_fingerprint",
    "stationary_for",
    "expected_idle_fraction",
    "expected_state_bit_activity",
    "expected_output_activity",
]


def transition_matrix(fsm: FSM) -> np.ndarray:
    """Row-stochastic matrix ``P[i, j] = Pr(next = s_j | current = s_i)``
    under uniform random inputs, with hold semantics for unspecified
    input space (probability mass stays on the diagonal).
    """
    n = fsm.num_states
    index = {state: i for i, state in enumerate(fsm.states)}
    total = float(1 << fsm.num_inputs)
    matrix = np.zeros((n, n))
    for state in fsm.states:
        i = index[state]
        covered = 0.0
        for t in fsm.transitions_from(state):
            mass = t.inputs.num_minterms() / total
            matrix[i, index[t.dst]] += mass
            covered += mass
        # Unspecified inputs hold the state.
        matrix[i, i] += max(0.0, 1.0 - covered)
    return matrix


def stationary_distribution(
    matrix: np.ndarray,
    start: Optional[np.ndarray] = None,
    smoothing: float = 1e-3,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Long-run occupancy by power iteration.

    ``smoothing`` mixes in a uniform restart (à la PageRank) so periodic
    or reducible chains still converge; it is small enough not to
    disturb the estimates the experiments need.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("transition matrix must be square")
    rows = matrix.sum(axis=1)
    if not np.allclose(rows, 1.0, atol=1e-9):
        raise ValueError("matrix rows must sum to 1")
    mixed = (1.0 - smoothing) * matrix + smoothing / n
    pi = start if start is not None else np.full(n, 1.0 / n)
    pi = pi / pi.sum()
    for _ in range(max_iterations):
        nxt = pi @ mixed
        if np.abs(nxt - pi).max() < tolerance:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


def stationary_for(fsm: FSM) -> np.ndarray:
    """Memoised stationary distribution of ``fsm``'s uniform-input chain.

    The auto-tuner evaluates hundreds of candidate configurations of the
    same machine and every analytic predictor here needs the occupancy,
    so it lives in the content-keyed FSM memo (:mod:`repro.fsm.memo`).
    Returns a read-only array shared by every caller.
    """

    def build() -> np.ndarray:
        pi = stationary_distribution(transition_matrix(fsm))
        pi.flags.writeable = False
        return pi

    return fsm_memo(fsm, ("stationary",), build)


def expected_idle_fraction(fsm: FSM) -> float:
    """Long-run probability that a uniformly driven cycle is idle.

    A cycle is idle when the machine self-loops *and* repeats the output
    of the previous cycle (the section 6 definition).  Because the next
    input is independent of history, this is an exact first-order
    quantity: with ``J(s, o)`` the equilibrium probability that a step
    lands in state ``s`` having produced output ``o``::

        P(idle) = sum over (s, o) of  J(s, o) * p_self(s, o)

    where ``p_self(s, o)`` is the probability a uniform input takes a
    self-loop at ``s`` emitting ``o`` (hold mass counts as a self-loop
    emitting the all-zero word).  Validated against long simulations in
    the test-suite.
    """
    pi = stationary_for(fsm)
    total = float(1 << fsm.num_inputs)
    index = {state: i for i, state in enumerate(fsm.states)}
    zero = "0" * fsm.num_outputs

    # p_step[src][(dst, out)] = probability of that (dst, output) step.
    step_prob: Dict[str, Dict[Tuple[str, str], float]] = {
        s: {} for s in fsm.states
    }
    for state in fsm.states:
        covered = 0.0
        for t in fsm.transitions_from(state):
            mass = t.inputs.num_minterms() / total
            covered += mass
            key = (t.dst, t.resolved_outputs())
            step_prob[state][key] = step_prob[state].get(key, 0.0) + mass
        hold = max(0.0, 1.0 - covered)
        if hold > 0:
            key = (state, zero)
            step_prob[state][key] = step_prob[state].get(key, 0.0) + hold

    # Equilibrium joint J(s, o): land in s having produced o.
    joint: Dict[Tuple[str, str], float] = {}
    for src in fsm.states:
        for (dst, out), prob in step_prob[src].items():
            key = (dst, out)
            joint[key] = joint.get(key, 0.0) + pi[index[src]] * prob

    idle = 0.0
    for (state, out), weight in joint.items():
        p_self = step_prob[state].get((state, out), 0.0)
        idle += weight * p_self
    return float(idle)


def expected_state_bit_activity(
    fsm: FSM, encoding: StateEncoding
) -> float:
    """Expected state-register bit toggles per cycle (uniform inputs)."""
    matrix = transition_matrix(fsm)
    pi = stationary_for(fsm)
    index = {state: i for i, state in enumerate(fsm.states)}
    expected = 0.0
    for src in fsm.states:
        i = index[src]
        for dst in fsm.states:
            j = index[dst]
            if matrix[i, j] == 0.0:
                continue
            diff = encoding.encode(src) ^ encoding.encode(dst)
            expected += pi[i] * matrix[i, j] * bin(diff).count("1")
    return float(expected)


def expected_output_activity(fsm: FSM) -> float:
    """Expected output-bit toggles per cycle (uniform inputs).

    Uses the stationary step distribution over (state, output) pairs:
    consecutive outputs are approximated as independent draws from each
    state's output distribution weighted by occupancy — exact for Moore
    chains in equilibrium, a close estimate for Mealy ones.
    """
    pi = stationary_for(fsm)
    total = float(1 << fsm.num_inputs)
    # Joint distribution over emitted output words.
    word_prob: Dict[int, float] = {}
    for i, state in enumerate(fsm.states):
        covered = 0.0
        for t in fsm.transitions_from(state):
            mass = t.inputs.num_minterms() / total
            covered += mass
            word = t.output_bits()
            word_prob[word] = word_prob.get(word, 0.0) + pi[i] * mass
        hold = max(0.0, 1.0 - covered)
        if hold > 0:
            word_prob[0] = word_prob.get(0, 0.0) + pi[i] * hold
    expected = 0.0
    for a, pa in word_prob.items():
        for b, pb in word_prob.items():
            expected += pa * pb * bin(a ^ b).count("1")
    return float(expected)

"""Low-power state assignment by simulated annealing.

The paper notes (§4.1) that the FF implementation's cost depends on the
state encoding.  A classic low-power assignment minimizes the *weighted
state-bit switching*: codes of states connected by frequently taken
transitions should differ in few bits, so the state register and its
fanout cone toggle less.  This module implements that search:

* the cost of an encoding is ``sum over edges of w(e) * hamming(src, dst)``
  where ``w(e)`` is the edge's input-cube minterm count (a static
  estimate of how often it fires under uniform inputs) — self-loops
  contribute nothing and are excluded;
* the search anneals over code permutations (swap two states' codes, or
  move a state to an unused code) at the minimal binary width;
* the reset state can be pinned to code 0 so the result remains legal
  for the ROM mapping's cleared-latch reset convention.

The resulting :class:`~repro.fsm.encoding.StateEncoding` (style
``"annealed"``) drops into the FF flow; the encoding ablation benchmark
compares it against the standard styles.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.fsm.encoding import StateEncoding, binary_encoding, gray_encoding
from repro.fsm.machine import FSM, FsmError
from repro.fsm.memo import fsm_memo

__all__ = [
    "transition_weights",
    "encoding_switching_cost",
    "anneal_encoding",
    "register_encoding_strategy",
    "encoding_strategies",
    "make_strategy_encoding",
]


def transition_weights(fsm: FSM) -> Dict[Tuple[str, str], float]:
    """Static edge-frequency estimates: summed input-cube minterm mass.

    Normalized so each state's outgoing mass sums to 1 (a uniform-input
    next-state distribution); self-loops are dropped because they cause
    no state-bit switching.
    """
    raw: Dict[Tuple[str, str], float] = {}
    outgoing: Dict[str, float] = {}
    for t in fsm.transitions:
        mass = float(t.inputs.num_minterms())
        outgoing[t.src] = outgoing.get(t.src, 0.0) + mass
        if t.src == t.dst:
            continue
        key = (t.src, t.dst)
        raw[key] = raw.get(key, 0.0) + mass
    return {
        key: mass / outgoing[key[0]]
        for key, mass in raw.items()
        if outgoing.get(key[0], 0.0) > 0
    }


def encoding_switching_cost(
    encoding: StateEncoding, weights: Dict[Tuple[str, str], float]
) -> float:
    """Expected state-bit toggles per cycle under the edge weights."""
    cost = 0.0
    for (src, dst), weight in weights.items():
        diff = encoding.encode(src) ^ encoding.encode(dst)
        cost += weight * bin(diff).count("1")
    return cost


def anneal_encoding(
    fsm: FSM,
    iterations: int = 4000,
    seed: int = 0,
    pin_reset_to_zero: bool = True,
    initial_temperature: float = 1.0,
) -> StateEncoding:
    """Search for a switching-minimal dense binary encoding.

    Parameters
    ----------
    fsm:
        The machine; at least one state.
    iterations:
        Annealing moves; each proposes a code swap or a relocation into
        an unused code and accepts by the Metropolis criterion on the
        weighted-switching cost.
    pin_reset_to_zero:
        Keep the reset state at code 0 (required by the ROM mapping;
        harmless for the FF flow).
    """
    states = list(fsm.states)
    width = max(1, math.ceil(math.log2(len(states)))) if len(states) > 1 else 1
    code_space = 1 << width
    rng = random.Random(seed)
    weights = transition_weights(fsm)

    codes: Dict[str, int] = {}
    order = [fsm.reset_state] + [s for s in states if s != fsm.reset_state]
    for index, state in enumerate(order):
        codes[state] = index

    def cost_of(assignment: Dict[str, int]) -> float:
        total = 0.0
        for (src, dst), weight in weights.items():
            diff = assignment[src] ^ assignment[dst]
            total += weight * bin(diff).count("1")
        return total

    current_cost = cost_of(codes)
    best = dict(codes)
    best_cost = current_cost
    temperature = initial_temperature

    # All states move freely; the reset pin is restored afterwards by an
    # XOR translation, which preserves every pairwise Hamming distance
    # and therefore the cost.
    movable = states
    if len(movable) < 2 or not weights:
        return StateEncoding("annealed", width, codes)

    used = set(codes.values())
    free_codes = [c for c in range(code_space) if c not in used]

    for step in range(iterations):
        temperature = initial_temperature * (1.0 - step / iterations) + 1e-6
        state = rng.choice(movable)
        move_to_free = free_codes and rng.random() < 0.3
        trial = dict(codes)
        if move_to_free:
            new_code = rng.choice(free_codes)
            old_code = trial[state]
            trial[state] = new_code
        else:
            other = rng.choice(movable)
            if other == state:
                continue
            trial[state], trial[other] = trial[other], trial[state]
        trial_cost = cost_of(trial)
        delta = trial_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            if move_to_free:
                free_codes.remove(trial[state])
                free_codes.append(old_code)
            codes = trial
            current_cost = trial_cost
            if current_cost < best_cost:
                best = dict(codes)
                best_cost = current_cost

    if pin_reset_to_zero and best[fsm.reset_state] != 0:
        # Restore the pin by XOR-translating every code (preserves all
        # pairwise Hamming distances, hence the cost).
        shift = best[fsm.reset_state]
        best = {s: c ^ shift for s, c in best.items()}
    return StateEncoding("annealed", width, best)


# ---------------------------------------------------------------------------
# Pluggable encoding strategies
# ---------------------------------------------------------------------------
#
# The auto-tuner (:mod:`repro.tune`) searches over *state assignments* as
# one axis of its candidate space, and the ROM mapping accepts any dense
# minimal-width encoding with the reset state at address 0 (the cleared
# latched outputs must address the initial state).  Strategies register
# here by name; the parameterized family ``annealed@<seed>`` resolves
# without registration so a tuner can fan out over annealing seeds while
# every name stays a canonical, fingerprintable string.

_ANNEALED_PREFIX = "annealed@"

ENCODING_STRATEGIES: Dict[str, Callable[[FSM], StateEncoding]] = {
    "binary": lambda fsm: binary_encoding(fsm, reset_code=0),
    "gray": gray_encoding,
    "annealed": lambda fsm: anneal_encoding(fsm),
}


def register_encoding_strategy(
    name: str,
    factory: Callable[[FSM], StateEncoding],
    replace: bool = False,
) -> None:
    """Register a named state-assignment strategy.

    The factory must return a *dense* encoding (minimal binary width)
    with the reset state at code 0 for the result to be legal in the
    ROM mapping; the mapper validates and rejects anything else.
    """
    if not replace and name in ENCODING_STRATEGIES:
        raise ValueError(f"encoding strategy {name!r} is already registered")
    ENCODING_STRATEGIES[name] = factory


def encoding_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted (``annealed@<seed>`` also works)."""
    return tuple(sorted(ENCODING_STRATEGIES))


def make_strategy_encoding(fsm: FSM, name: str) -> StateEncoding:
    """Build an encoding by strategy name.

    Accepts any registered name plus the parameterized family
    ``annealed@<seed>`` (e.g. ``annealed@7`` anneals with seed 7),
    which keeps tuner candidate configs self-describing strings.
    Results live in the FSM memo (:mod:`repro.fsm.memo`) keyed by the
    STG and the name, so the tuner anneals each (machine, seed) pair
    once; factories must therefore be pure functions of the machine,
    and callers share the returned encoding read-only.
    """

    def build() -> StateEncoding:
        factory = ENCODING_STRATEGIES.get(name)
        if factory is not None:
            return factory(fsm)
        if name.startswith(_ANNEALED_PREFIX) and name[len(_ANNEALED_PREFIX):].isdigit():
            return anneal_encoding(fsm, seed=int(name[len(_ANNEALED_PREFIX):]))
        raise FsmError(
            f"unknown encoding strategy {name!r}; choose from "
            f"{sorted(ENCODING_STRATEGIES)} or 'annealed@<seed>'"
        )

    return fsm_memo(fsm, ("strategy", name), build)

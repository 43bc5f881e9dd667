"""Decomposition-based low-power FSM implementation (related work).

The paper positions its ROM mapping against earlier low-power FSM work;
its reference [5] is Sutter et al., "FSM Decomposition for Low Power in
FPGA" (FPL 2002): split the machine into two sub-FSMs so that only the
*active* half's logic and state register switch each cycle, the other
half being input-isolated and clock-disabled.  This module implements
that baseline so the paper's technique can be compared against it (see
``benchmarks/test_ablation_decomposition.py``).

Structure of the implementation:

* the state set is bipartitioned by a greedy Kernighan-Lin-style pass
  minimizing cross-partition transition mass (weighted by cube size, a
  static proxy for how often each edge is taken);
* each half becomes a sub-FSM over its own states plus a parking state,
  synthesized with the ordinary FF flow; cross edges park the source
  half (carrying the original Mealy output);
* a synthesized *handoff* block (real mapped LUTs) detects cross edges
  and computes the wake-up code loaded into the target half's register;
* one ``active`` flip-flop selects which half's outputs drive the pins
  and which half receives clock enables.

Power accounting follows the scheme's intent: the inactive half's
inputs are isolated, so its combinational nets hold their values (zero
switching) and its flip-flops receive no clock enables; the active
half, the handoff logic, and the controller switch normally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.device import Utilization
from repro.fsm.machine import FSM, FsmError, Transition
from repro.fsm.transform import complete
from repro.logic.cube import Cover, Cube
from repro.logic.lutmap import LutMapping, map_network
from repro.logic.minimize import espresso
from repro.logic.network import sop_to_network
from repro.synth.ff_synth import FfImplementation, synthesize_ff

__all__ = [
    "partition_states",
    "DecomposedFfImplementation",
    "DecomposedTrace",
    "decompose_fsm",
]

PARK = "__park__"


def partition_states(
    fsm: FSM, passes: int = 4, seed_split: Optional[Sequence[str]] = None
) -> Tuple[Set[str], Set[str]]:
    """Bipartition the state set minimizing cross-edge mass.

    Edge weight is the input-cube minterm count (a static estimate of
    how often the edge fires under uniform inputs).  A greedy
    Kernighan-Lin refinement moves one state per step when that reduces
    the cut, for ``passes`` sweeps.  The reset state stays in part A.
    """
    if fsm.num_states < 2:
        raise FsmError("decomposition needs at least two states")
    states = list(fsm.states)
    if seed_split is not None:
        part_a = set(seed_split)
        if fsm.reset_state not in part_a:
            raise FsmError("seed split must contain the reset state")
    else:
        half = (len(states) + 1) // 2
        ordered = [fsm.reset_state] + [
            s for s in states if s != fsm.reset_state
        ]
        part_a = set(ordered[:half])
    part_b = set(states) - part_a

    weight: Dict[Tuple[str, str], float] = {}
    for t in fsm.transitions:
        key = (t.src, t.dst)
        weight[key] = weight.get(key, 0.0) + t.inputs.num_minterms()

    def cut_cost(a: Set[str]) -> float:
        return sum(
            w for (src, dst), w in weight.items()
            if (src in a) != (dst in a)
        )

    def balanced(a: Set[str]) -> bool:
        return 1 <= len(a) <= len(states) - 1

    current = cut_cost(part_a)
    for _ in range(passes):
        improved = False
        for state in states:
            if state == fsm.reset_state:
                continue  # pinned to part A
            trial = set(part_a)
            if state in trial:
                trial.remove(state)
            else:
                trial.add(state)
            if not balanced(trial):
                continue
            cost = cut_cost(trial)
            if cost < current:
                part_a = trial
                current = cost
                improved = True
        if not improved:
            break
    part_b = set(states) - part_a
    return part_a, part_b


def _sub_machine(fsm: FSM, own: Set[str], name: str) -> FSM:
    """Sub-FSM over ``own`` plus a parking state.

    Internal edges are kept; cross edges become transitions into PARK
    carrying the original output (the Mealy output of the departing
    cycle belongs to the source half); PARK holds itself.  The reset
    state of a half not containing the global reset is its first state
    (it parks until woken, so the choice is behaviourally irrelevant —
    the wake logic overwrites the register).
    """
    states = [s for s in fsm.states if s in own] + [PARK]
    reset = fsm.reset_state if fsm.reset_state in own else PARK
    sub = FSM(name, fsm.num_inputs, fsm.num_outputs, states, reset)
    for t in fsm.transitions:
        if t.src not in own:
            continue
        dst = t.dst if t.dst in own else PARK
        sub.add_transition(
            Transition(src=t.src, dst=dst, inputs=t.inputs, outputs=t.outputs)
        )
    sub.add_transition(
        Transition(
            src=PARK, dst=PARK, inputs=Cube.full(fsm.num_inputs),
            outputs="0" * fsm.num_outputs,
        )
    )
    return sub


@dataclass
class DecomposedTrace:
    """Simulation record of the decomposed implementation."""

    num_cycles: int
    output_stream: List[int]
    state_stream: List[str]
    # Toggle counts per net, namespaced "a:", "b:", "h:" (handoff).
    net_toggles: Dict[str, int]
    active_cycles_a: int
    active_cycles_b: int
    handoffs: int

    def activity(self, net: str) -> float:
        if self.num_cycles == 0:
            return 0.0
        return self.net_toggles.get(net, 0) / self.num_cycles


@dataclass
class DecomposedFfImplementation:
    """Two clock-isolated sub-FSMs plus handoff logic and a selector."""

    fsm: FSM
    part_a: Set[str]
    part_b: Set[str]
    impl_a: FfImplementation
    impl_b: FfImplementation
    # Handoff logic: detect cross edges and compute wake codes, mapped
    # over (active half's state bits, primary inputs).
    handoff_a: LutMapping  # fires when A hands off to B
    handoff_b: LutMapping

    @property
    def encoding(self):
        return self.impl_a.encoding

    @property
    def num_ffs(self) -> int:
        return self.impl_a.num_ffs + self.impl_b.num_ffs + 1  # + active FF

    @property
    def num_luts(self) -> int:
        return (
            self.impl_a.num_luts + self.impl_b.num_luts
            + self.handoff_a.num_luts + self.handoff_b.num_luts
            + self.fsm.num_outputs  # output select muxes (2:1 each)
        )

    @property
    def utilization(self) -> Utilization:
        return Utilization(luts=self.num_luts, ffs=self.num_ffs, brams=0)

    # ------------------------------------------------------------------

    def _evaluate_half(
        self, impl: FfImplementation, code: int, input_bits: int
    ) -> Dict[str, int]:
        return impl.mapping.evaluate_all_nets(
            impl.combinational_inputs(code, input_bits)
        )

    def _handoff(
        self, mapping: LutMapping, impl: FfImplementation, code: int,
        input_bits: int,
    ) -> Tuple[int, int, Dict[str, int]]:
        values = impl.combinational_inputs(code, input_bits)
        nets = mapping.evaluate_all_nets(values)
        fire = nets[mapping.outputs["cross"]]
        wake = 0
        width = len([k for k in mapping.outputs if k.startswith("wake")])
        for bit in range(width):
            if nets[mapping.outputs[f"wake{bit}"]]:
                wake |= 1 << bit
        return fire, wake, nets

    def run(self, stimulus: Sequence[int]) -> DecomposedTrace:
        """Cycle-accurate simulation with half-isolated activity.

        Only the active half's netlist (and its handoff block) is
        evaluated; the idle half's nets retain their values, modelling
        the input isolation that gives the scheme its power saving.
        """
        fsm = self.fsm
        active = "a" if fsm.reset_state in self.part_a else "b"
        code_a = self.impl_a.encoding.encode(
            fsm.reset_state if fsm.reset_state in self.part_a
            else PARK
        )
        code_b = self.impl_b.encoding.encode(
            fsm.reset_state if fsm.reset_state in self.part_b
            else PARK
        )

        toggles: Dict[str, int] = {}
        previous: Dict[str, Dict[str, int]] = {}

        def count(namespace: str, nets: Dict[str, int]) -> None:
            old = previous.get(namespace)
            if old is not None:
                for name, value in nets.items():
                    if old.get(name) != value:
                        key = f"{namespace}:{name}"
                        toggles[key] = toggles.get(key, 0) + 1
            previous[namespace] = nets

        outputs: List[int] = []
        states: List[str] = [fsm.reset_state]
        active_a = active_b = handoffs = 0

        for input_bits in stimulus:
            if active == "a":
                impl, code = self.impl_a, code_a
                mapping = self.handoff_a
                other_impl = self.impl_b
            else:
                impl, code = self.impl_b, code_b
                mapping = self.handoff_b
                other_impl = self.impl_a
            if active == "a":
                active_a += 1
            else:
                active_b += 1

            nets = self._evaluate_half(impl, code, input_bits)
            count(active, nets)
            fire, wake, handoff_nets = self._handoff(
                mapping, impl, code, input_bits
            )
            count(f"h{active}", handoff_nets)

            out_nets = impl.mapping.outputs
            out = 0
            for o in range(fsm.num_outputs):
                if nets[out_nets[f"out{o}"]]:
                    out |= 1 << o
            next_code = 0
            for b in range(impl.encoding.width):
                if nets[out_nets[f"ns{b}"]]:
                    next_code |= 1 << b

            if fire:
                handoffs += 1
                # Park the source half, wake the other at `wake`.
                if active == "a":
                    code_a = self.impl_a.encoding.encode(PARK)
                    code_b = wake
                    active = "b"
                else:
                    code_b = self.impl_b.encoding.encode(PARK)
                    code_a = wake
                    active = "a"
            else:
                if active == "a":
                    code_a = next_code
                else:
                    code_b = next_code

            outputs.append(out)
            current = (
                self.impl_a.encoding.decode(code_a) if active == "a"
                else self.impl_b.encoding.decode(code_b)
            )
            states.append(current)

        return DecomposedTrace(
            num_cycles=len(stimulus),
            output_stream=outputs,
            state_stream=states,
            net_toggles=toggles,
            active_cycles_a=active_a,
            active_cycles_b=active_b,
            handoffs=handoffs,
        )


def _handoff_logic(
    fsm: FSM,
    sub: FSM,
    impl: FfImplementation,
    own: Set[str],
    other_encoding,
    k: int = 4,
) -> LutMapping:
    """Synthesize cross-edge detection and wake-code logic for one half.

    Functions of (half's state bits, inputs): ``cross`` is the OR of all
    cross-edge conditions; ``wake{b}`` gives bit ``b`` of the target
    state's code in the *other* half's encoding.
    """
    encoding = impl.encoding
    s = encoding.width
    n_vars = s + fsm.num_inputs
    cross_on = Cover(n_vars)
    wake_on = [Cover(n_vars) for _ in range(other_encoding.width)]

    def condition_cube(src: str, inputs: Cube) -> Cube:
        cube = Cube.full(n_vars)
        code = encoding.encode(src)
        for b in range(s):
            bound = cube.restrict_var(b, (code >> b) & 1)
            assert bound is not None
            cube = bound
        for i in range(fsm.num_inputs):
            lit = inputs.literal(i)
            if lit in "01":
                bound = cube.restrict_var(s + i, int(lit))
                assert bound is not None
                cube = bound
        return cube

    for t in fsm.transitions:
        if t.src not in own or t.dst in own:
            continue
        cube = condition_cube(t.src, t.inputs)
        cross_on.append(cube)
        target = other_encoding.encode(t.dst)
        for b in range(other_encoding.width):
            if (target >> b) & 1:
                wake_on[b].append(cube)

    covers = {"cross": espresso(cross_on) if len(cross_on) else cross_on}
    for b, cover in enumerate(wake_on):
        covers[f"wake{b}"] = espresso(cover) if len(cover) else cover
    input_names = encoding.bit_names + [
        f"in{i}" for i in range(fsm.num_inputs)
    ]
    network = sop_to_network(covers, input_names)
    return map_network(network, k=k)


def decompose_fsm(
    fsm: FSM,
    encoding_style: str = "binary",
    passes: int = 4,
    k: int = 4,
) -> DecomposedFfImplementation:
    """Build the Sutter-style two-way decomposed FF implementation."""
    fsm.validate()
    completed = complete(fsm)
    part_a, part_b = partition_states(completed, passes=passes)
    sub_a = _sub_machine(completed, part_a, f"{fsm.name}_a")
    sub_b = _sub_machine(completed, part_b, f"{fsm.name}_b")
    impl_a = synthesize_ff(sub_a, encoding_style=encoding_style, k=k)
    impl_b = synthesize_ff(sub_b, encoding_style=encoding_style, k=k)
    handoff_a = _handoff_logic(
        completed, sub_a, impl_a, part_a, impl_b.encoding, k=k
    )
    handoff_b = _handoff_logic(
        completed, sub_b, impl_b, part_b, impl_a.encoding, k=k
    )
    return DecomposedFfImplementation(
        fsm=fsm,
        part_a=part_a,
        part_b=part_b,
        impl_a=impl_a,
        impl_b=impl_b,
        handoff_a=handoff_a,
        handoff_b=handoff_b,
    )

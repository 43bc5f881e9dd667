"""The Fig. 5 mapping algorithm: FSM -> embedded memory blocks.

Decision order follows the paper exactly:

1. Encode each state (dense binary, reset at code 0), ``s`` bits.
2. If ``I + s`` address lines are available in some BRAM configuration:
   a single block when ``O + s`` also fits the data port, otherwise
   blocks joined **in parallel** on the same address lines until the
   combined width carries the word (Fig. 5 lines 2-9).
3. Otherwise compute ``i``, the maximum number of non-don't-care inputs
   any state uses; if ``i + s`` fits, apply **column compaction** with a
   per-state input multiplexer (lines 11-14, Fig. 4).
4. As the last resort join blocks **in series** to widen the address
   space (lines 16-18); the paper notes this costs power, which is why
   the multiplexer path is preferred.

Two engineering options orthogonal to the core algorithm:

* ``moore_outputs`` — realize a Moore machine's output function in LUTs
  outside the memory (Fig. 3), shrinking the word to the state code.
* ``clock_control`` — add the §6 idle-state enable logic.

The machine checks, the ROM contents and the three pieces of glue logic
depend only on the STG, the state encoding and the LUT size, not on the
aspect ratio or the other knobs, so :func:`map_fsm_to_rom` reads them
through the content-keyed FSM memo (:mod:`repro.fsm.memo`): the tuner's
grid synthesizes each once per (STG, encoding, k).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.arch.bram import BramConfig
from repro.arch.memblock import MemoryBlockModel, resolve_backend
from repro.fsm.encoding import StateEncoding, binary_encoding
from repro.fsm.machine import FSM, FsmError
from repro.fsm.memo import fsm_memo
from repro.logic.lutmap import LutMapping, map_network, map_truth_tables
from repro.logic.truthtable import TruthTable
from repro.romfsm.clock_control import synthesize_clock_control
from repro.romfsm.compaction import ColumnCompaction, compact_columns
from repro.romfsm.contents import RomLayout, generate_contents
from repro.romfsm.impl import RomFsmImplementation

__all__ = [
    "MappingError",
    "map_fsm_to_rom",
    "resolve_rom_encoding",
    "synthesize_moore_outputs",
]


class MappingError(FsmError):
    """Raised when no legal BRAM mapping exists under the given options."""


def synthesize_moore_outputs(
    fsm: FSM, encoding: StateEncoding, k: int = 4
) -> LutMapping:
    """LUT logic computing a Moore machine's outputs from the state bits.

    Paper Fig. 3: "the state bits coming out of the EMBs can be used to
    implement the output function external to an EMB."
    """
    if not fsm.is_moore():
        raise MappingError(
            "external output LUTs need a Moore machine; transform with "
            "mealy_to_moore() first (paper cites Kohavi for this step)"
        )
    s = encoding.width
    pattern_of_code: dict = {}
    for state in fsm.states:
        pattern = fsm.moore_output_of(state)
        assert pattern is not None
        pattern_of_code[encoding.encode(state)] = pattern
    input_names = tuple(encoding.bit_names)
    functions = {}
    for o in range(fsm.num_outputs):
        bits = 0
        for code in range(1 << s):
            pattern = pattern_of_code.get(code)
            if pattern is not None and pattern[o] == "1":
                bits |= 1 << code
        functions[f"out{o}"] = (input_names, TruthTable(s, bits))
    return map_truth_tables(functions, k=k)


def resolve_rom_encoding(
    fsm: FSM, encoding: Union[None, str, StateEncoding]
) -> StateEncoding:
    """The state assignment the ROM image is generated under.

    ``None`` keeps the paper's dense binary encoding.  A string names a
    pluggable strategy (:mod:`repro.fsm.assign`); a ready
    :class:`StateEncoding` is validated.  Either way the result must be
    *dense* (minimal binary width — every extra bit doubles the address
    space) with the reset state at code 0 (the memory's latched outputs
    clear to zero on reset, paper §4.2).
    """
    if encoding is None:
        return binary_encoding(fsm, reset_code=0)
    if isinstance(encoding, str):
        from repro.fsm.assign import make_strategy_encoding

        try:
            resolved = make_strategy_encoding(fsm, encoding)
        except FsmError as exc:
            raise MappingError(str(exc)) from None
    else:
        resolved = encoding
    minimal = binary_encoding(fsm, reset_code=0).width
    if resolved.width != minimal:
        raise MappingError(
            f"{fsm.name}: ROM state assignment {resolved.style!r} is "
            f"{resolved.width} bits wide; the mapping needs the minimal "
            f"{minimal} (every extra state bit doubles the address space)"
        )
    if resolved.encode(fsm.reset_state) != 0:
        raise MappingError(
            f"{fsm.name}: ROM state assignment must place the reset "
            f"state at code 0 (cleared-latch reset convention)"
        )
    return resolved


def _encoding_key(encoding: StateEncoding) -> tuple:
    return (encoding.style, encoding.width, tuple(sorted(encoding.codes.items())))


def map_fsm_to_rom(
    fsm: FSM,
    k: int = 4,
    moore_outputs: str = "auto",
    clock_control: bool = False,
    force_compaction: bool = False,
    max_idle_cubes: int = 8,
    backend=None,
    encoding: Union[None, str, StateEncoding] = None,
    aspect: Optional[str] = None,
) -> RomFsmImplementation:
    """Map ``fsm`` into embedded memory blocks per the paper's algorithm.

    Parameters
    ----------
    fsm:
        A deterministic machine (validated); completeness is not
        required — unspecified behaviour is programmed as hold/zero.
    k:
        LUT size for any auxiliary logic (mux, Moore outputs, enable).
    moore_outputs:
        ``"auto"`` (external only when the word cannot fit any parallel
        combination), ``"external"`` (force Fig. 3; requires a complete
        Moore machine) or ``"internal"``.
    clock_control:
        Add the §6 idle-state enable logic.
    force_compaction:
        Apply column compaction even when the raw inputs fit (ablation
        hook; the paper compacts only when necessary).
    max_idle_cubes:
        Clock-control area budget (see
        :func:`repro.romfsm.clock_control.synthesize_clock_control`).
    backend:
        Memory-block technology backend: a registered name, a
        :class:`~repro.arch.memblock.MemoryBlockModel`, or ``None`` for
        the Virtex-II BlockRAM default.  The backend answers every
        aspect-ratio/series legality question below.
    encoding:
        ROM state assignment: ``None`` for the paper's dense binary, a
        strategy name (see :mod:`repro.fsm.assign`), or a ready
        :class:`StateEncoding`.  Must be dense with reset at code 0
        (validated) — the assignment changes which address/data lines
        toggle, not the mapping legality.
    aspect:
        Pin the block aspect ratio to one named backend configuration
        (e.g. ``"512x36"``) instead of the widest-fit policy; raises
        :class:`MappingError` when the machine cannot fit that shape.

    Returns
    -------
    RomFsmImplementation
    """
    if moore_outputs not in ("auto", "external", "internal"):
        raise ValueError(f"bad moore_outputs option {moore_outputs!r}")
    mem: MemoryBlockModel = resolve_backend(backend)
    fsm_memo(fsm, ("validate",), lambda: fsm.validate() or True)
    is_moore = fsm_memo(fsm, ("is_moore",), fsm.is_moore)

    def is_complete() -> bool:  # only asked when Moore outputs may move
        return fsm_memo(fsm, ("is_complete",), fsm.is_complete)

    forced: Optional[BramConfig] = None
    if aspect is not None:
        for config in mem.configs:
            if config.name == aspect:
                forced = config
                break
        else:
            names = ", ".join(c.name for c in mem.configs)
            raise MappingError(
                f"{fsm.name}: {mem.name} offers no aspect ratio named "
                f"{aspect!r} (choose from {names})"
            )
    if isinstance(encoding, StateEncoding):
        encoding = resolve_rom_encoding(fsm, encoding)
    else:
        name = encoding
        encoding = fsm_memo(
            fsm, ("rom-encoding", name),
            lambda: resolve_rom_encoding(fsm, name),
        )
    ekey = _encoding_key(encoding)
    s = encoding.width
    num_inputs = fsm.num_inputs
    num_outputs = fsm.num_outputs

    use_external = moore_outputs == "external"
    if use_external and not is_moore:
        raise MappingError("moore_outputs='external' requires a Moore machine")
    if use_external and not is_complete():
        raise MappingError(
            "external Moore outputs require a complete machine: on "
            "unspecified inputs the hold convention outputs 0, which a "
            "state-driven output LUT cannot reproduce"
        )

    def data_bits(external: bool) -> int:
        return s if external else s + num_outputs

    candidate_compaction = fsm_memo(
        fsm, ("compaction",), lambda: compact_columns(fsm)
    )

    # Moore auto-externalization (the prep4 case, Fig. 3): move the
    # output function into LUTs when that lets fewer memory blocks carry
    # the machine -- either because the full word exceeds every data
    # port, or because the narrower state-only word avoids a parallel
    # lane ("instantiating more EMB increases the power consumption").
    if (
        moore_outputs == "auto"
        and not use_external
        and is_moore
        and is_complete()
    ):
        best_addr = s + min(num_inputs, candidate_compaction.width)
        lane_width = max(
            (c.width for c in mem.configs
             if c.addr_bits >= min(best_addr, mem.max_addr_bits)),
            default=mem.max_data_bits,
        )
        internal_lanes = -(-data_bits(False) // lane_width)
        external_lanes = -(-data_bits(True) // lane_width)
        # Externalize when it saves a whole lane, or when the output
        # field would dwarf the state field (wide-output controllers
        # like prep4: a narrow state-only word exercises far fewer bit
        # lines, and the state->output decode is cheap in LUTs).
        if external_lanes < internal_lanes or num_outputs > s:
            use_external = True

    width_needed = data_bits(use_external)

    def plan(addr_bits: int):
        """(config, parallel, series) lanes for an address/width demand."""
        if forced is not None:
            # A pinned aspect ratio answers its own series question: one
            # cascaded block per address bit beyond the shape's depth.
            if addr_bits > forced.addr_bits:
                series = 1 << (addr_bits - forced.addr_bits)
            else:
                series = 1
            parallel = -(-width_needed // forced.width)
            return forced, parallel, series
        # Fig. 5 lines 16-18: series joining grows the address space.
        series, lane_addr = mem.series_for(addr_bits)
        config = mem.select_config(
            lane_addr, min(width_needed, mem.max_data_bits)
        )
        if config is None:
            # No single aspect ratio offers both; take the widest one
            # with enough address lines and join lanes in parallel.
            config = mem.widest_config(lane_addr)
            if config is None:
                return None
        parallel = -(-width_needed // config.width)  # ceil division
        return config, parallel, series

    # --- Fig. 5: plan without compaction, then with (lines 11-14); the
    # compacted plan wins when it needs fewer blocks, because "a
    # multiplexer can be used to implement an FSM with fewer EMB ...
    # advantageous for power savings, as instantiating more EMB
    # increases the power consumption".
    compaction: Optional[ColumnCompaction] = None
    input_bits = num_inputs
    raw_plan = plan(num_inputs + s)
    chosen = raw_plan
    if candidate_compaction.saves_bits or force_compaction:
        compact_plan = plan(candidate_compaction.width + s)
        take_compacted = force_compaction
        if compact_plan is not None and raw_plan is not None and not take_compacted:
            fewer_brams = (
                compact_plan[1] * compact_plan[2] < raw_plan[1] * raw_plan[2]
            )
            # Power policy: even at equal block count, compacting away
            # two or more address bits quarters the exercised word lines
            # ("Power consumed by the blockram is dependent upon the
            # number of word-lines used"), which outweighs the small
            # input multiplexer.
            many_fewer_lines = (
                num_inputs - candidate_compaction.width >= 2
            )
            take_compacted = fewer_brams or many_fewer_lines
        if raw_plan is None:
            take_compacted = compact_plan is not None
        if take_compacted and compact_plan is not None:
            compaction = candidate_compaction
            input_bits = compaction.width
            chosen = compact_plan
    if chosen is None:
        raise MappingError(
            f"{fsm.name}: no {mem.name} configuration offers "
            f"{input_bits + s} address lines even after compaction"
        )
    config, parallel, series = chosen
    if not mem.legal_series(series):
        raise MappingError(
            f"{fsm.name}: {input_bits + s} address bits need {series} "
            f"blocks in series (> {mem.max_series}); FSM too wide for "
            f"the {mem.name} ROM approach"
        )

    layout = RomLayout(
        input_bits=input_bits,
        state_bits=s,
        output_bits=0 if use_external else num_outputs,
    )
    # Memoised products are shared between implementations: BlockRam
    # copies the contents, and rewrite_contents replaces the list.
    contents = fsm_memo(
        fsm, ("contents", ekey, layout, compaction is not None),
        lambda: generate_contents(fsm, encoding, layout, compaction),
    )
    mux_mapping = None
    if compaction is not None:
        mux_mapping = fsm_memo(
            fsm, ("mux", ekey, k),
            lambda: compaction.build_mux_network(encoding, k=k),
        )
    moore_mapping = None
    if use_external:
        moore_mapping = fsm_memo(
            fsm, ("moore-outputs", ekey, k),
            lambda: synthesize_moore_outputs(fsm, encoding, k=k),
        )

    impl = RomFsmImplementation(
        fsm=fsm,
        encoding=encoding,
        layout=layout,
        config=config,
        contents=contents,
        parallel_brams=parallel,
        series_brams=series,
        compaction=compaction,
        mux_mapping=mux_mapping,
        moore_output_mapping=moore_mapping,
        backend=mem,
    )
    if clock_control:
        impl.clock_control = fsm_memo(
            fsm, ("clock-control", ekey, not use_external, k, max_idle_cubes),
            lambda: synthesize_clock_control(
                fsm, encoding, outputs_in_rom=not use_external, k=k,
                max_idle_cubes=max_idle_cubes,
            ),
        )
    return impl

"""The paper's Fig. 6 flow re-expressed as named pipeline stages.

Stage graph (``rom-cc`` and its consumers only when clock control is
requested)::

    parse ──┬─► complete-encode ─► ff-synth ──┬─► simulate ─► activity ─► power
            ├─► rom-map ──────────────────────┤
            └─► rom-cc ───────────────────────┘

Conventions:

- ``parse`` fingerprints the FSM via its canonical KISS2 text, so a
  benchmark loaded by name and the same machine parsed from a file share
  every downstream artifact.
- ``complete-encode`` pins the shared state encoding.  STG completion
  itself (hold self-loops) is deliberately left inside each consumer —
  ``ff-synth`` and the ROM content generator both apply the identical
  rule — so the stage artifacts stay bit-identical to the monolithic
  flow's data structures.
- ``simulate`` bundles every trace of the shared-stimulus campaign
  (Table 2's uniform stimulus and Table 3's idle-biased stimulus) and
  performs the cycle-exact equivalence checks.

Config keys consumed by the stages (see ``evaluation_config`` in
:mod:`repro.flows.flow` for how they are assembled): ``benchmark``,
``kiss``, ``name``, ``encoding``, ``lut_k``, ``moore_outputs``,
``num_cycles``, ``seed``, ``idle_fraction``, ``verify``,
``with_clock_control``, ``frequencies``, ``device``, ``params``,
``backend`` (the memory-block technology name; part of the ``rom-map``/
``rom-cc`` cache keys so artifacts from different fabrics never
collide), plus the tuner-plumbed mapper options ``rom_encoding``
(pluggable state assignment, see :mod:`repro.fsm.assign`),
``force_compaction`` and ``aspect`` (pin one block aspect ratio) —
``None``/``False`` defaults reproduce the paper's fixed heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.device import Device, get_device
from repro.arch.timing import TimingReport
from repro.fsm.encoding import StateEncoding, make_encoding
from repro.fsm.kiss import parse_kiss
from repro.fsm.machine import FSM
from repro.fsm.simulate import (
    FsmSimulator,
    SimulationTrace,
    idle_biased_stimulus,
    random_stimulus,
)
from repro.power.activity import (
    FfActivity,
    RomActivity,
    extract_ff_activity,
    extract_rom_activity,
)
from repro.power.estimator import PowerReport, estimate_ff_power, estimate_rom_power
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.stage import Stage, StageContext
from repro.romfsm.impl import RomFsmImplementation
from repro.romfsm.mapper import map_fsm_to_rom
from repro.synth.ff_synth import FfImplementation, synthesize_ff
from repro.synth.netsim import simulate_ff_netlist

__all__ = [
    "SimulationBundle",
    "ActivityBundle",
    "PowerBundle",
    "build_evaluation_pipeline",
    "make_stage",
    "paper_moore_output_mode",
    "verify_equivalence",
    "STAGE_VERSIONS",
]

# Central version registry: bump a stage's entry whenever its
# implementation changes behaviour — that invalidates exactly the
# affected cache entries and everything downstream of them.
STAGE_VERSIONS: Dict[str, str] = {
    "parse": "1",
    "complete-encode": "1",
    "ff-synth": "1",
    "rom-map": "1",
    "rom-cc": "1",
    # 2: RomTrace gained address_stream/enable_stream (overlay replay).
    "simulate": "2",
    "activity": "1",
    "power": "1",
    # flows.design's candidate-evaluation stage rides the same registry.
    "design-candidates": "1",
    # flows.eco's incremental ECO path (paper §4.2): patch the mapped ROM
    # image in place, re-simulate with the codegen replayer, re-estimate.
    "eco-patch": "1",
    "eco-simulate": "1",
    "eco-power": "1",
    # repro.tune's candidate-evaluation pipeline: map one fingerprinted
    # tuner candidate, then score it (power × area × timing) on the
    # shared stimulus.  Fitness memoisation *is* the tune-fitness cache
    # entry — its key commits to the tune-map artifact fingerprint, so
    # candidates that collapse onto the same implementation share one
    # evaluation.
    "tune-map": "1",
    "tune-fitness": "1",
}

# prep4 is the paper's explicit Fig. 3 case: "the outputs of prep4 were
# implemented using the LUTs".
_EXTERNAL_OUTPUT_BENCHMARKS = frozenset({"prep4"})


def paper_moore_output_mode(fsm: FSM) -> str:
    """Mapper output-placement option used for this circuit."""
    return "external" if fsm.name in _EXTERNAL_OUTPUT_BENCHMARKS else "auto"


def verify_equivalence(
    fsm: FSM, stimulus: List[int], *streams
) -> SimulationTrace:
    """Cycle-exact check of implementation outputs against the reference.

    Returns the reference trace, so callers that also need it (the idle
    fraction of the clock-control stimulus) do not simulate twice.
    """
    reference = FsmSimulator(fsm).run(stimulus)
    for label, outputs in streams:
        if outputs != reference.outputs:
            raise AssertionError(
                f"{fsm.name}: {label} implementation diverged from the "
                f"reference FSM on the shared stimulus"
            )
    return reference


# ---------------------------------------------------------------------------
# Artifact bundles
# ---------------------------------------------------------------------------


@dataclass
class SimulationBundle:
    """Every trace of one shared-stimulus simulation campaign."""

    stimulus: List[int]
    ff_trace: object
    rom_trace: object
    idle_stimulus: Optional[List[int]] = None
    cc_trace: Optional[object] = None
    achieved_idle_fraction: float = 0.0


@dataclass
class ActivityBundle:
    """Per-net switching activities for each implementation."""

    ff_activity: FfActivity
    rom_activity: RomActivity
    cc_activity: Optional[RomActivity] = None


@dataclass
class PowerBundle:
    """Power per frequency (keyed ``{freq:g}``) plus timing reports."""

    ff_power: Dict[str, PowerReport]
    rom_power: Dict[str, PowerReport]
    rom_cc_power: Dict[str, PowerReport]
    ff_timing: TimingReport
    rom_timing: TimingReport
    rom_cc_timing: Optional[TimingReport] = None


# ---------------------------------------------------------------------------
# Stage functions
# ---------------------------------------------------------------------------


def _resolve_device(value) -> Device:
    if value is None:
        return get_device()
    if isinstance(value, str):
        return get_device(value)
    return value


def _resolve_params(value) -> PowerParams:
    return VIRTEX2_PARAMS if value is None else value


def _stage_parse(ctx: StageContext) -> FSM:
    benchmark = ctx.cfg("benchmark")
    if benchmark is not None:
        from repro.bench.suite import load_benchmark

        return load_benchmark(benchmark)
    fsm = ctx.cfg("fsm")
    if fsm is not None:
        # Ad-hoc machine passed straight into the flow.  The cache key
        # commits to its canonical KISS2 text plus state list/reset (set
        # by evaluation_config), not to the unpicklable-into-JSON object.
        return fsm
    kiss = ctx.cfg("kiss")
    if kiss is None:
        raise ValueError("parse stage needs either 'benchmark' or 'kiss' config")
    return parse_kiss(kiss, name=ctx.cfg("name") or "fsm")


def _stage_complete_encode(ctx: StageContext) -> StateEncoding:
    fsm = ctx.value("parse")
    return make_encoding(fsm, ctx.cfg("encoding", "binary"))


def _stage_ff_synth(ctx: StageContext) -> FfImplementation:
    fsm = ctx.value("parse")
    encoding = ctx.value("complete-encode")
    return synthesize_ff(fsm, encoding_style=encoding, k=ctx.cfg("lut_k", 4))


def _rom_map(ctx: StageContext, clock_control: bool) -> RomFsmImplementation:
    fsm = ctx.value("parse")
    mode = ctx.cfg("moore_outputs") or paper_moore_output_mode(fsm)
    return map_fsm_to_rom(
        fsm, clock_control=clock_control, moore_outputs=mode,
        backend=ctx.cfg("backend"),
        encoding=ctx.cfg("rom_encoding"),
        force_compaction=bool(ctx.cfg("force_compaction", False)),
        aspect=ctx.cfg("aspect"),
        k=ctx.cfg("lut_k", 4),
    )


def _stage_rom_map(ctx: StageContext) -> RomFsmImplementation:
    return _rom_map(ctx, clock_control=False)


def _stage_rom_cc(ctx: StageContext) -> RomFsmImplementation:
    return _rom_map(ctx, clock_control=True)


def _stage_simulate(ctx: StageContext) -> SimulationBundle:
    fsm = ctx.value("parse")
    ff_impl = ctx.value("ff-synth")
    rom_impl = ctx.value("rom-map")
    rom_cc_impl = ctx.get("rom-cc")
    num_cycles = ctx.cfg("num_cycles", 2000)
    seed = ctx.cfg("seed", 2004)
    verify = ctx.cfg("verify", True)

    stimulus = random_stimulus(fsm.num_inputs, num_cycles, seed=seed)
    ff_trace = simulate_ff_netlist(ff_impl, stimulus)
    rom_trace = rom_impl.run(stimulus)
    if verify:
        verify_equivalence(
            fsm, stimulus,
            ("FF", ff_trace.output_stream),
            ("ROM", rom_trace.output_stream),
        )

    bundle = SimulationBundle(
        stimulus=stimulus, ff_trace=ff_trace, rom_trace=rom_trace
    )
    if rom_cc_impl is not None:
        idle_stim = idle_biased_stimulus(
            fsm, num_cycles,
            idle_fraction=ctx.cfg("idle_fraction", 0.5), seed=seed,
        )
        cc_trace = rom_cc_impl.run(idle_stim)
        if verify:
            reference = verify_equivalence(
                fsm, idle_stim, ("ROM+clock-control", cc_trace.output_stream)
            )
        else:
            reference = FsmSimulator(fsm).run(idle_stim)
        bundle.idle_stimulus = idle_stim
        bundle.cc_trace = cc_trace
        bundle.achieved_idle_fraction = reference.idle_fraction()
    return bundle


def _stage_activity(ctx: StageContext) -> ActivityBundle:
    sim: SimulationBundle = ctx.value("simulate")
    ff_impl = ctx.value("ff-synth")
    rom_impl = ctx.value("rom-map")
    rom_cc_impl = ctx.get("rom-cc")
    bundle = ActivityBundle(
        ff_activity=extract_ff_activity(ff_impl, sim.ff_trace),
        rom_activity=extract_rom_activity(rom_impl, sim.rom_trace),
    )
    if rom_cc_impl is not None:
        bundle.cc_activity = extract_rom_activity(rom_cc_impl, sim.cc_trace)
    return bundle


def _stage_power(ctx: StageContext) -> PowerBundle:
    ff_impl = ctx.value("ff-synth")
    rom_impl = ctx.value("rom-map")
    rom_cc_impl = ctx.get("rom-cc")
    activity: ActivityBundle = ctx.value("activity")
    device = _resolve_device(ctx.cfg("device"))
    params = _resolve_params(ctx.cfg("params"))
    frequencies = ctx.cfg("frequencies") or ()
    # Block timing comes from the rom-map artifact's technology backend
    # (the Virtex-II backend carries the historical TimingModel values).
    timing = rom_impl.backend_model.timing_model(params.interconnect)

    ff_power: Dict[str, PowerReport] = {}
    rom_power: Dict[str, PowerReport] = {}
    rom_cc_power: Dict[str, PowerReport] = {}
    for f in frequencies:
        key = f"{f:g}"
        ff_power[key] = estimate_ff_power(
            ff_impl, activity.ff_activity, f, device, params
        )
        rom_power[key] = estimate_rom_power(
            rom_impl, activity.rom_activity, f, device, params
        )
        if rom_cc_impl is not None:
            rom_cc_power[key] = estimate_rom_power(
                rom_cc_impl, activity.cc_activity, f, device, params
            )

    utilization = device.slice_utilization(ff_impl.utilization)
    nets = activity.ff_activity.nets
    avg_fanout = sum(n.fanout for n in nets) / len(nets) if nets else 1.0
    ff_timing = timing.ff_implementation(
        ff_impl.lut_depth, avg_fanout=avg_fanout, utilization=utilization
    )
    rom_timing = timing.rom_implementation(
        mux_levels=rom_impl.mux_levels,
        series_brams=rom_impl.series_brams,
    )
    rom_cc_timing = None
    if rom_cc_impl is not None:
        rom_cc_timing = timing.rom_with_clock_control(
            rom_timing, rom_cc_impl.clock_control.depth
        )
    return PowerBundle(
        ff_power=ff_power,
        rom_power=rom_power,
        rom_cc_power=rom_cc_power,
        ff_timing=ff_timing,
        rom_timing=rom_timing,
        rom_cc_timing=rom_cc_timing,
    )


# ---------------------------------------------------------------------------
# Pipeline construction
# ---------------------------------------------------------------------------


def make_stage(
    name: str, func, deps: Tuple[str, ...], config_keys: Tuple[str, ...]
) -> Stage:
    """Construct a registered stage with its version from STAGE_VERSIONS."""
    return Stage(
        name=name,
        version=STAGE_VERSIONS[name],
        func=func,
        deps=deps,
        config_keys=config_keys,
    )


def build_evaluation_pipeline(with_clock_control: bool = True) -> Pipeline:
    """The full Fig. 6 evaluation flow as a cacheable pipeline."""
    cc = ("rom-cc",) if with_clock_control else ()
    stages = [
        make_stage("parse", _stage_parse, (),
               ("benchmark", "kiss", "name", "states", "reset")),
        make_stage("complete-encode", _stage_complete_encode,
               ("parse",), ("encoding",)),
        make_stage("ff-synth", _stage_ff_synth,
               ("parse", "complete-encode"), ("encoding", "lut_k")),
        make_stage("rom-map", _stage_rom_map, ("parse",),
               ("moore_outputs", "backend", "rom_encoding",
                "force_compaction", "aspect", "lut_k")),
    ]
    if with_clock_control:
        stages.append(
            make_stage("rom-cc", _stage_rom_cc, ("parse",),
                   ("moore_outputs", "backend", "rom_encoding",
                    "force_compaction", "aspect", "lut_k"))
        )
    stages += [
        make_stage("simulate", _stage_simulate,
               ("parse", "ff-synth", "rom-map") + cc,
               ("num_cycles", "seed", "idle_fraction", "verify",
                "with_clock_control")),
        make_stage("activity", _stage_activity,
               ("ff-synth", "rom-map", "simulate") + cc, ()),
        make_stage("power", _stage_power,
               ("ff-synth", "rom-map", "activity") + cc,
               ("frequencies", "device", "params", "with_clock_control")),
    ]
    return Pipeline(stages)

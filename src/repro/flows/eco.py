"""Incremental ECO flow: absorb a ROM-only FSM edit without re-synthesis.

The paper's §4.2 observation is the whole point of this module: once an
FSM lives in embedded memory blocks, a functional change is a *content*
change — new words in the ROM image — not a new netlist.  The ECO flow
exploits that end to end:

``parse`` → ``rom-map`` → ``eco-patch`` → ``eco-simulate`` → ``eco-power``

``parse`` and ``rom-map`` are the *same stage objects* as the evaluation
pipeline's (same versions, same config keys), so a machine that has been
evaluated before hits the warm artifact cache and the whole front of the
flow is served from disk.  ``eco-patch`` then diffs the old machine
against the edited one (:func:`repro.fsm.diff.diff_fsm`), rejects
anything that is not ROM-only, and patches the mapped implementation in
place via
:meth:`repro.romfsm.impl.RomFsmImplementation.rewrite_contents` —
skipping parse→encode→ff-synth→rom-map entirely.  ``eco-simulate``
re-runs the patched ROM through the word-parallel replay and verifies it
cycle-exactly against the edited reference machine; ``eco-power``
re-estimates ROM power/timing from the fresh activity numbers.

Entry point: :func:`eco_evaluate` (the engine behind ``romfsm eco`` and
``POST /v1/eco``).  Callers may pass ``old_fingerprint`` — the ``rom-map``
stage fingerprint a previously returned result advertised — and the flow
fails with :class:`EcoError` if the image the edit script was built
against is not the image this run produced (e.g. the mapper or backend
changed underneath the edit).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.arch.device import Device
from repro.arch.memblock import MemoryBlockModel
from repro.arch.timing import TimingReport
from repro.fsm.diff import FsmDiff, apply_edits, diff_fsm
from repro.fsm.kiss import format_kiss
from repro.fsm.machine import FSM, FsmError
from repro.fsm.simulate import random_stimulus
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.pipeline.pipeline import Pipeline, PipelineReport
from repro.pipeline.stage import StageContext
from repro.pipeline.stages import (
    _resolve_device,
    _resolve_params,
    _stage_parse,
    _stage_rom_map,
    make_stage,
    verify_equivalence,
)
from repro.power.activity import extract_rom_activity
from repro.power.estimator import PowerReport, estimate_rom_power
from repro.power.params import PowerParams, VIRTEX2_PARAMS
from repro.romfsm.impl import RomFsmImplementation

__all__ = [
    "EcoError",
    "EcoPatch",
    "EcoResult",
    "EcoSimulation",
    "build_eco_pipeline",
    "eco_evaluate",
]


class EcoError(ValueError):
    """An edit the incremental ECO path cannot absorb (or a stale-image
    mismatch against ``old_fingerprint``)."""


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------


@dataclass
class EcoPatch:
    """The patched ROM implementation plus the shape of the edit."""

    impl: RomFsmImplementation
    diff_summary: Dict[str, object]
    changed_words: int
    total_words: int


@dataclass
class EcoSimulation:
    """Shared-stimulus re-simulation of the patched implementation."""

    stimulus: List[int]
    trace: object


@dataclass
class EcoPowerBundle:
    """ROM power per frequency (keyed ``{freq:g}``) plus block timing."""

    rom_power: Dict[str, PowerReport]
    rom_timing: TimingReport


@dataclass
class EcoResult:
    """Everything ``romfsm eco`` / ``POST /v1/eco`` reports."""

    old_fsm: FSM
    new_fsm: FSM
    impl: RomFsmImplementation
    diff: FsmDiff
    changed_words: int
    total_words: int
    rom_power: Dict[str, PowerReport]
    rom_timing: TimingReport
    old_rom_fingerprint: str
    new_rom_fingerprint: str


# ---------------------------------------------------------------------------
# Stage functions
# ---------------------------------------------------------------------------


def _eco_fsm(ctx: StageContext, old_fsm: FSM) -> FSM:
    fsm = ctx.cfg("eco_fsm")
    if fsm is not None:
        return fsm
    kiss = ctx.cfg("eco_kiss")
    if kiss is None:
        raise EcoError("eco-patch stage needs 'eco_fsm' or 'eco_kiss' config")
    from repro.fsm.kiss import parse_kiss

    return parse_kiss(kiss, name=ctx.cfg("eco_name") or old_fsm.name)


def _stage_eco_patch(ctx: StageContext) -> EcoPatch:
    old_fsm: FSM = ctx.value("parse")
    old_impl: RomFsmImplementation = ctx.value("rom-map")
    new_fsm = _eco_fsm(ctx, old_fsm)

    diff = diff_fsm(old_fsm, new_fsm)
    if not diff.rom_only:
        raise EcoError(
            "edit is not ROM-only (the interface envelope changed); "
            f"a full re-evaluation is required: {diff.summary()}"
        )

    # replace() re-runs __post_init__, giving the patch its own BlockRam
    # array — the cached rom-map artifact is never mutated.
    patched = dataclasses.replace(old_impl)
    try:
        patched.rewrite_contents(new_fsm)
    except FsmError as exc:
        raise EcoError(f"edit cannot be absorbed by a ROM rewrite: {exc}") from exc

    changed = sum(
        1 for a, b in zip(old_impl.contents, patched.contents) if a != b
    )
    return EcoPatch(
        impl=patched,
        diff_summary=diff.summary(),
        changed_words=changed,
        total_words=len(patched.contents),
    )


def _stage_eco_simulate(ctx: StageContext) -> EcoSimulation:
    patch: EcoPatch = ctx.value("eco-patch")
    new_fsm = patch.impl.fsm
    num_cycles = ctx.cfg("num_cycles", 2000)
    seed = ctx.cfg("seed", 2004)

    stimulus = random_stimulus(new_fsm.num_inputs, num_cycles, seed=seed)
    trace = patch.impl.run(stimulus)
    if ctx.cfg("verify", True):
        verify_equivalence(
            new_fsm, stimulus, ("ROM(ECO)", trace.output_stream)
        )
    return EcoSimulation(stimulus=stimulus, trace=trace)


def _stage_eco_power(ctx: StageContext) -> EcoPowerBundle:
    patch: EcoPatch = ctx.value("eco-patch")
    sim: EcoSimulation = ctx.value("eco-simulate")
    device = _resolve_device(ctx.cfg("device"))
    params = _resolve_params(ctx.cfg("params"))

    activity = extract_rom_activity(patch.impl, sim.trace)
    rom_power: Dict[str, PowerReport] = {}
    for f in ctx.cfg("frequencies") or ():
        rom_power[f"{f:g}"] = estimate_rom_power(
            patch.impl, activity, f, device, params
        )
    timing = patch.impl.backend_model.timing_model(params.interconnect)
    rom_timing = timing.rom_implementation(
        mux_levels=patch.impl.mux_levels,
        series_brams=patch.impl.series_brams,
    )
    return EcoPowerBundle(rom_power=rom_power, rom_timing=rom_timing)


# ---------------------------------------------------------------------------
# Pipeline construction and driver
# ---------------------------------------------------------------------------


def build_eco_pipeline() -> Pipeline:
    """The incremental ECO flow as a cacheable pipeline.

    ``parse`` and ``rom-map`` are declared exactly as in
    :func:`repro.pipeline.stages.build_evaluation_pipeline`, so their
    cache keys — and therefore their warm artifacts — are shared with
    ordinary evaluations of the old machine.
    """
    stages = [
        make_stage("parse", _stage_parse, (),
               ("benchmark", "kiss", "name", "states", "reset")),
        make_stage("rom-map", _stage_rom_map, ("parse",),
               ("moore_outputs", "backend", "rom_encoding",
                "force_compaction", "aspect", "lut_k")),
        make_stage("eco-patch", _stage_eco_patch, ("parse", "rom-map"),
               ("eco_kiss", "eco_name", "eco_states", "eco_reset")),
        make_stage("eco-simulate", _stage_eco_simulate, ("eco-patch",),
               ("num_cycles", "seed", "verify")),
        make_stage("eco-power", _stage_eco_power,
               ("eco-patch", "eco-simulate"),
               ("frequencies", "device", "params")),
    ]
    return Pipeline(stages)


def eco_config(
    name_or_fsm: Union[str, FSM],
    new_fsm: FSM,
    frequencies_mhz: Sequence[float],
    num_cycles: int,
    seed: int,
    device: Optional[Device],
    params: PowerParams,
    verify: bool,
    backend: Union[None, str, MemoryBlockModel],
) -> Dict[str, Any]:
    """Build the pipeline config for one ECO run.

    The old machine is keyed exactly as ``evaluation_config`` keys it;
    the edited machine is keyed by its canonical KISS2 text (the object
    itself rides along unkeyed, like ``fsm`` does for ad-hoc machines).
    """
    from repro.flows.flow import evaluation_config

    config = evaluation_config(
        name_or_fsm,
        frequencies_mhz=frequencies_mhz,
        num_cycles=num_cycles,
        seed=seed,
        device=device,
        params=params,
        with_clock_control=False,
        verify=verify,
        backend=backend,
    )
    config["eco_fsm"] = new_fsm
    config["eco_kiss"] = format_kiss(new_fsm)
    config["eco_name"] = new_fsm.name
    config["eco_states"] = tuple(new_fsm.states)
    config["eco_reset"] = new_fsm.reset_state
    return config


def eco_evaluate(
    old: Union[str, FSM],
    new: Optional[FSM] = None,
    edits: Optional[Sequence[Mapping[str, object]]] = None,
    *,
    cache: Union[None, bool, str, ArtifactCache] = None,
    old_fingerprint: Optional[str] = None,
    frequencies_mhz: Optional[Sequence[float]] = None,
    num_cycles: Optional[int] = None,
    seed: int = 2004,
    device: Optional[Device] = None,
    params: PowerParams = VIRTEX2_PARAMS,
    verify: bool = True,
    backend: Union[None, str, MemoryBlockModel] = None,
    should_cancel=None,
) -> Tuple[EcoResult, PipelineReport]:
    """Absorb a ROM-only edit to ``old`` and re-evaluate incrementally.

    ``old`` is a benchmark name or FSM; the edit arrives either as the
    complete edited machine (``new``) or as a declarative edit script
    (``edits``, see :func:`repro.fsm.diff.apply_edits`) — exactly one of
    the two.  Raises :class:`EcoError` when the edit is not ROM-only,
    when the mapped implementation cannot absorb it (Moore output LUTs,
    clock control, compaction envelope), or when ``old_fingerprint`` does
    not match the ``rom-map`` artifact this run produced.
    """
    from repro.flows.flow import DEFAULT_CYCLES, PAPER_FREQUENCIES_MHZ

    if (new is None) == (edits is None):
        raise EcoError("provide exactly one of 'new' (an FSM) or 'edits'")

    if isinstance(old, str):
        from repro.bench.suite import load_benchmark

        old_fsm = load_benchmark(old)
    else:
        old_fsm = old
    new_fsm = apply_edits(old_fsm, edits) if edits is not None else new

    config = eco_config(
        old,
        new_fsm,
        frequencies_mhz=(
            PAPER_FREQUENCIES_MHZ if frequencies_mhz is None else frequencies_mhz
        ),
        num_cycles=DEFAULT_CYCLES if num_cycles is None else num_cycles,
        seed=seed,
        device=device,
        params=params,
        verify=verify,
        backend=backend,
    )
    outcome = build_eco_pipeline().run(
        config, cache=resolve_cache(cache), should_cancel=should_cancel
    )

    rom_fp = outcome.artifacts["rom-map"].fingerprint
    if old_fingerprint is not None and old_fingerprint != rom_fp:
        raise EcoError(
            "stale edit: the ROM image the edit script targets "
            f"({old_fingerprint}) is not the image this configuration "
            f"produces ({rom_fp})"
        )

    patch: EcoPatch = outcome.value("eco-patch")
    power: EcoPowerBundle = outcome.value("eco-power")
    parsed_old: FSM = outcome.value("parse")
    result = EcoResult(
        old_fsm=parsed_old,
        new_fsm=patch.impl.fsm,
        impl=patch.impl,
        diff=diff_fsm(parsed_old, patch.impl.fsm),
        changed_words=patch.changed_words,
        total_words=patch.total_words,
        rom_power=power.rom_power,
        rom_timing=power.rom_timing,
        old_rom_fingerprint=rom_fp,
        new_rom_fingerprint=outcome.artifacts["eco-patch"].fingerprint,
    )
    return result, outcome.report

"""The six measurement-chain stages.

Each stage transforms every item of a batch in request order:

    execute -> current -> pdn-steady-state -> radiate -> propagate -> receive

The numeric code paths are the exact ones the legacy per-call helpers
(``SpectrumAnalyzer.max_amplitude`` / ``sweep``) use, in the same
floating-point operation order, so batched results are bit-identical
to the per-call path; ``Cluster.run`` is itself a one-item run of the
execute, current and pdn stages.  RNG discipline: the execute stage
draws only from per-item ``memory_rng`` generators, the current stage
only from per-item ``timing_jitter_rng`` generators, the receive stage
only from the analyzer RNG, and all consume items in request order --
so per-stream draw sequences match a sequential legacy loop even though
the stages are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.chain.session import SimulationSession
from repro.chain.types import ChainItemResult, ChainRequest


@dataclass
class ItemWork:
    """One item's in-flight state while a batch moves through the path."""

    result: ChainItemResult
    raw_current: Optional[np.ndarray] = None
    load_current: Optional[np.ndarray] = None


@dataclass
class ChainBatch:
    """A resolved request: per-item operating points plus scratch state."""

    request: ChainRequest
    session: SimulationSession
    work: List[ItemWork] = field(default_factory=list)

    @property
    def cluster(self):
        return self.request.cluster


class Stage(Protocol):
    """One step of the signal path, applied to a whole batch in place.

    ``drains`` declares which RNG stream families the stage is entitled
    to advance (``"memory"`` for per-item ``memory_rng`` generators,
    ``"jitter"`` for per-item ``timing_jitter_rng`` generators,
    ``"analyzer"`` for the analyzer RNG); the determinism audit's draw
    ledger enforces it at every stage boundary.
    """

    name: str
    drains: Tuple[str, ...]

    def run(self, batch: ChainBatch) -> None: ...


def resolve_request(
    request: ChainRequest, session: SimulationSession
) -> ChainBatch:
    """Pin every item to an explicit operating point.

    Per-item overrides are validated with the same checks (and error
    messages) as the platform setters; unset fields fall back to the
    cluster's live state, read once through the session's
    version-tracked snapshot.  After this point the chain never touches
    the cluster's mutable state.
    """
    cluster = request.cluster
    base = session.cluster_state(cluster)
    batch = ChainBatch(request=request, session=session)
    for item in request.items:
        item.validate()
        op = item.operating_point
        clock = base.clock_hz
        voltage = base.voltage
        powered = base.powered_cores
        if op.clock_hz is not None:
            cluster.validate_clock(op.clock_hz)
            clock = op.clock_hz
        if op.voltage is not None:
            cluster.validate_voltage(op.voltage)
            voltage = op.voltage
        if op.powered_cores is not None:
            cluster.validate_powered_cores(op.powered_cores)
            powered = op.powered_cores
        if item.mode == "mixed":
            if not 1 <= len(item.programs) <= powered:
                raise ValueError(
                    f"{cluster.name}: need 1..{powered} programs, "
                    f"got {len(item.programs)}"
                )
            active = len(item.programs)
        else:
            active = (
                item.active_cores
                if item.active_cores is not None
                else powered
            )
            if active > powered:
                raise ValueError(
                    f"{cluster.name}: {active} active cores exceed "
                    f"{powered} powered"
                )
        batch.work.append(
            ItemWork(
                result=ChainItemResult(
                    item=item,
                    clock_hz=clock,
                    voltage=voltage,
                    powered_cores=powered,
                    active_cores=active,
                )
            )
        )
    return batch


class ExecuteStage:
    """Instruction scheduling: program -> per-cycle current trace.

    Single-program executions come from the session cache (schedule and
    amperes-per-cycle are operating-point independent); mixed and
    cache-nondeterministic items are computed fresh, the latter drawing
    from the item's ``memory_rng`` one windowed schedule per active
    core, in core order.
    """

    name = "execute"
    drains = ("memory",)

    def run(self, batch: ChainBatch) -> None:
        cluster = batch.cluster
        for w in batch.work:
            item = w.result.item
            mode = item.mode
            if mode == "single":
                execution = batch.session.execution(
                    cluster,
                    item.program,
                    active_cores=w.result.active_cores,
                    clock_hz=w.result.clock_hz,
                    iterations=item.iterations,
                    phase_offsets=item.phase_offsets,
                )
                w.result.execution = execution
                w.raw_current = execution.load_current
            elif mode == "mixed":
                from repro.cpu.multicore import (
                    CoreModel,
                    execute_mixed_on_cluster,
                )

                core = CoreModel(
                    pipeline=cluster.pipeline,
                    current_model=cluster.spec.current_model,
                    clock_hz=w.result.clock_hz,
                )
                execution = execute_mixed_on_cluster(
                    core,
                    item.programs,
                    uncore_current_a=cluster.spec.uncore_current_a,
                    iterations=item.iterations,
                )
                w.result.execution = execution
                w.raw_current = execution.load_current
            else:  # nondeterministic
                model = cluster.spec.current_model
                traces = []
                windows = []
                for _ in range(w.result.active_cores):
                    window = cluster.pipeline.windowed_schedule(
                        item.program,
                        iterations=item.iterations,
                        cache=item.cache_model,
                        memory_rng=item.memory_rng,
                    )
                    windows.append(window)
                    traces.append(model.window_trace(window))
                length = max(t.size for t in traces)
                combined = np.full(length, cluster.spec.uncore_current_a)
                for trace in traces:
                    padded = np.full(length, model.base_current_a)
                    padded[: trace.size] = trace
                    combined += padded
                w.result.windows = windows
                w.raw_current = combined


class CurrentStage:
    """Operating-point scaling of the raw per-cycle current trace, then
    the timing jitter of real workloads: random phase-shifted tiles
    destroy the coherent build-up a periodic loop gets at resonance."""

    name = "current"
    drains = ("jitter",)

    def run(self, batch: ChainBatch) -> None:
        cluster = batch.cluster
        for w in batch.work:
            item = w.result.item
            scale = cluster.current_scale(
                clock_hz=w.result.clock_hz, voltage=w.result.voltage
            )
            trace = w.raw_current * scale
            if item.mode == "single" and trace.size < 4:
                # Degenerate loops (period of 1-3 cycles) are still
                # periodic; tile them so the spectral solver has a
                # valid grid.
                trace = np.tile(trace, int(np.ceil(4 / trace.size)))
            if item.timing_jitter_rng is not None:
                # Data-dependent issue jitter low-pass filters the
                # current spectrum of real workloads; deterministic
                # virus loops keep their sharp edges.
                width = max(1, item.jitter_smooth_cycles)
                if width > 1 and trace.size > width:
                    kernel = np.ones(width) / width
                    trace = np.convolve(
                        np.concatenate([trace[-(width - 1):], trace]),
                        kernel,
                        mode="valid",
                    )
                if item.activity_compression != 1.0:
                    # Real programs mix hot and cold paths: their
                    # windowed activity variance is a fraction of a
                    # worst-case synthetic loop's.  Compress fluctuation
                    # around the mean; the mean (IR drop) is untouched.
                    mean = trace.mean()
                    trace = mean + item.activity_compression * (
                        trace - mean
                    )
                n = trace.size
                trace = np.concatenate(
                    [
                        np.roll(
                            trace, int(item.timing_jitter_rng.integers(n))
                        )
                        for _ in range(max(1, item.jitter_tiles))
                    ]
                )
            w.load_current = trace


class PDNStage:
    """Periodic steady-state rail response through the PDN model."""

    name = "pdn"
    drains = ()

    def run(self, batch: ChainBatch) -> None:
        cluster = batch.cluster
        grids = [
            (w.result.powered_cores, w.load_current.size, w.result.clock_hz)
            for w in batch.work
        ]
        transfers = batch.session.transfer_grids(cluster, grids)
        for w, transfer in zip(batch.work, transfers):
            w.result.response = batch.session.pdn_solve(
                cluster,
                powered_cores=w.result.powered_cores,
                voltage=w.result.voltage,
                load_current=w.load_current,
                sample_rate_hz=w.result.clock_hz,
                transfer=transfer,
            )


class RadiateStage:
    """Die current harmonics -> radiated emission lines."""

    name = "radiate"
    drains = ()

    def __init__(self, radiator):
        self.radiator = radiator

    def run(self, batch: ChainBatch) -> None:
        if not batch.request.want_emission:
            return
        for w in batch.work:
            grid_key = (w.load_current.size, w.result.clock_hz)
            freqs = w.result.response.harmonic_frequencies_hz[1:]
            tilt = batch.session.radiator_tilt(
                self.radiator, freqs, grid_key
            )
            w.result.emission = self.radiator.emission(
                w.result.response, tilt=tilt
            )


class PropagateStage:
    """Emission lines -> noiseless per-bin signal power at the port.

    The deterministic half of the analyzer readout, computed once per
    item and shared by the amplitude metric and the displayed trace
    (the legacy per-call path recomputed it for each).
    """

    name = "propagate"
    drains = ()

    def __init__(self, analyzer):
        self.analyzer = analyzer

    def run(self, batch: ChainBatch) -> None:
        if not batch.request.want_emission:
            return
        for w in batch.work:
            grid_key = (w.load_current.size, w.result.clock_hz)
            lines = self.analyzer.banded_lines(w.result.emission)
            gains = batch.session.line_gains(
                self.analyzer, lines.frequencies_hz, grid_key
            )
            w.result.signal_w = self.analyzer.received_power_w(
                w.result.emission, gains=gains
            )


class ReceiveStage:
    """Noisy analyzer readout: amplitude metric and/or displayed trace.

    Draws from the analyzer RNG in request order -- per item, amplitude
    samples first, then the trace sweep -- matching the draw order of a
    sequential ``max_amplitude`` + ``sweep`` loop bit for bit.
    """

    name = "receive"
    drains = ("analyzer",)

    def __init__(self, analyzer):
        self.analyzer = analyzer

    def run(self, batch: ChainBatch) -> None:
        request = batch.request
        if not request.want_emission:
            return
        for w in batch.work:
            if request.want_amplitude:
                mask = batch.session.band_mask(self.analyzer, request.band)
                w.result.amplitude_w = (
                    self.analyzer.max_amplitude_from_power(
                        w.result.signal_w,
                        band=request.band,
                        samples=request.samples,
                        mask=mask,
                    )
                )
            if request.want_trace:
                trace = self.analyzer.trace_from_power(w.result.signal_w)
                w.result.trace = trace
                w.result.peak_frequency_hz = trace.peak(request.band)[0]
            elif w.result.emission is not None:
                w.result.peak_frequency_hz = (
                    w.result.emission.band(*request.band).peak()[0]
                )

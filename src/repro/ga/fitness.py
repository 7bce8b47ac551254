"""Fitness functions: what the GA maximizes.

The paper's key move is replacing direct voltage feedback with the
spectrum analyzer's EM amplitude (RMS of 30 sweeps of the band maximum,
Section 3.1b).  The voltage-feedback variants (maximum droop and
peak-to-peak as seen by the OC-DSO or a bench probe) are kept for
validation and the ``a72OC-DSO`` / ``amdOsc`` baselines of Table 2.

Every fitness binds its cluster, is called as ``fitness(program)`` or
``fitness.evaluate_batch(programs)`` (one chain request per batch) and
returns a :class:`FitnessEvaluation` carrying side measurements
(dominant frequency, droop, IPC, loop frequency) that the
per-generation records of Figs. 7/12/17 plot.  The GA needs only the
call: the other hooks are optional, so a plain callable is a fitness
too, and the helpers at the end are the one place that looks them up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain import (
    ChainItem,
    ChainItemResult,
    ChainRequest,
    SignalPath,
    SimulationSession,
)
from repro.cpu.program import LoopProgram
from repro.em.radiation import DieRadiator
from repro.instruments.oscilloscope import Oscilloscope
from repro.instruments.probes import DifferentialProbe
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.platforms.base import Cluster


@dataclass
class FitnessEvaluation:
    """Score plus the side measurements recorded per individual."""

    score: float
    dominant_frequency_hz: float
    max_droop_v: float
    peak_to_peak_v: float
    ipc: float
    loop_frequency_hz: float

    def __float__(self) -> float:
        return self.score


class _ChainFitness:
    """Chain, session, pickling and checkpoint plumbing of the
    fitnesses below: dataclasses with ``cluster``, ``band``,
    ``active_cores``, ``session`` and ``fault_injector`` fields that
    build their path (``_build_path``), name the RNGs a checkpoint
    carries (``_rngs``) and define ``evaluate_batch``.

    ``session`` is an optional shared
    :class:`~repro.chain.SimulationSession` (``None``: the path builds
    a private one).  Pickling for worker dispatch drops it, so each
    worker warms its own; the ``fault_injector``, armed at the chain's
    stage boundaries, survives pickling with fresh visit counters.
    """

    def _build_path(self) -> SignalPath:
        raise NotImplementedError

    def _rngs(self) -> Dict[str, np.random.Generator]:
        raise NotImplementedError

    def _chain_path(self) -> SignalPath:
        path = self.__dict__.get("_path")
        if path is None:
            path = self._path = self._build_path()
        return path

    def _item(self, program: LoopProgram) -> ChainItem:
        return ChainItem(program=program, active_cores=self.active_cores)

    def _measure(
        self, programs: Sequence[LoopProgram], **readout
    ) -> List[ChainItemResult]:
        """Push ``programs`` through the chain as one request."""
        request = ChainRequest(
            cluster=self.cluster,
            items=[self._item(p) for p in programs],
            band=self.band,
            **readout,
        )
        return self._chain_path().run(request).items

    def _evaluation(
        self, item: ChainItemResult, score: float
    ) -> FitnessEvaluation:
        # The paper reports the GA's dominant frequency from the SA peak
        # (the chain's banded emission peak); without an analyzer
        # readout it is the strongest rail harmonic in the band.
        return FitnessEvaluation(
            score=score,
            dominant_frequency_hz=(
                item.peak_frequency_hz
                or item.dominant_frequency_hz(self.band)
            ),
            max_droop_v=item.max_droop,
            peak_to_peak_v=item.peak_to_peak,
            ipc=item.ipc,
            loop_frequency_hz=item.loop_frequency_hz,
        )

    def __call__(self, program: LoopProgram) -> FitnessEvaluation:
        return self.evaluate_batch([program])[0]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_path", None)
        state["session"] = None
        return state

    def _warm_instruments(self, session: SimulationSession) -> None:
        """Prime instrument-side session caches (none by default)."""

    def warm_up(self) -> Optional[dict]:
        """Build the chain and prime its session caches, once.

        Persistent GA workers call this at pool start so no generation
        pays cold-start costs.  Everything warmed is a pure RNG-free
        derivation (bit-identity contract).  Returns the session's
        stats snapshot for the ``worker_warmup`` event.
        """
        if self.session is None:
            self.session = SimulationSession()
        self._chain_path()
        self._warm_instruments(self.session)
        return self.session.warm_up(cluster=self.cluster)

    def session_stats(self) -> Optional[dict]:
        """Current session cache counters (None before any session).

        Reads through the built chain when one exists: with
        ``session=None`` the :class:`SignalPath` owns a private
        session, and that is the one doing the caching.
        """
        path = self.__dict__.get("_path")
        if path is not None:
            return path.session.stats.snapshot()
        if self.session is None:
            return None
        return self.session.stats.snapshot()

    # Checkpoint protocol: instrument noise RNGs advance with every
    # fresh measurement, so bit-identical resume requires carrying
    # their state across the checkpoint boundary.
    def fitness_state(self) -> dict:
        return {
            name: rng.bit_generator.state
            for name, rng in self._rngs().items()
        }

    def restore_fitness_state(self, state: Optional[dict]) -> None:
        if not state:
            return
        for name, rng in self._rngs().items():
            if name in state:
                rng.bit_generator.state = state[name]


@dataclass
class EMAmplitudeFitness(_ChainFitness):
    """Maximize the spectrum analyzer's banded EM amplitude.

    The measurement chain is: run the individual on the cluster,
    radiate the die-current harmonics, receive through antenna +
    coupling, and score the RMS-of-30-sweeps band maximum.
    """

    cluster: Cluster
    analyzer: SpectrumAnalyzer
    radiator: DieRadiator = None
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    samples: int = 30
    active_cores: Optional[int] = None
    # Optional cache-miss nondeterminism (the Section 3.3 ablation):
    # with a cache model attached, every evaluation of the same
    # individual produces a different noisy score.
    cache_model: object = None
    memory_rng: object = None
    session: object = None
    fault_injector: object = None

    def __post_init__(self) -> None:
        if self.radiator is None:
            self.radiator = DieRadiator()
        if self.cache_model is not None and self.memory_rng is None:
            raise ValueError("cache_model requires a memory_rng")

    def _build_path(self) -> SignalPath:
        return SignalPath.em_chain(
            self.radiator,
            self.analyzer,
            session=self.session,
            injector=self.fault_injector,
        )

    def _rngs(self) -> Dict[str, np.random.Generator]:
        rngs = {"analyzer_rng": self.analyzer.rng}
        if self.memory_rng is not None:
            rngs["memory_rng"] = self.memory_rng
        return rngs

    def _item(self, program: LoopProgram) -> ChainItem:
        return ChainItem(
            program=program,
            active_cores=self.active_cores,
            cache_model=self.cache_model,
            memory_rng=self.memory_rng,
        )

    def _warm_instruments(self, session: SimulationSession) -> None:
        session.band_mask(self.analyzer, self.band)

    def evaluate_batch(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        """Score a batch of programs with one chain call.

        Results (and RNG stream consumption, per generator) are
        bit-identical to evaluating the programs one at a time: the
        execute stage draws only from ``memory_rng`` and the receive
        stage only from the analyzer RNG, each in batch order.
        """
        items = self._measure(
            programs,
            samples=self.samples,
            want_amplitude=True,
            want_trace=False,
        )
        return [self._evaluation(item, item.amplitude_w) for item in items]


class _ScopeFitness(_ChainFitness):
    """Voltage feedback: one response-only chain request per batch,
    then one scope capture per item, in item order."""

    def _build_path(self) -> SignalPath:
        return SignalPath.response_chain(
            session=self.session, injector=self.fault_injector
        )

    def _capture(self, item: ChainItemResult) -> float:
        raise NotImplementedError

    def evaluate_batch(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        """Score a batch of programs with one chain call.

        The chain draws no noise on a response-only request; the scope
        then draws once per capture in program order, so scores are
        bit-identical to measuring the programs one at a time.
        """
        items = self._measure(
            programs, want_amplitude=False, want_trace=False
        )
        return [self._evaluation(item, self._capture(item)) for item in items]


@dataclass
class MaxDroopFitness(_ScopeFitness):
    """Maximize the scope-measured maximum voltage droop (OC-DSO path)."""

    cluster: Cluster
    oscilloscope: Oscilloscope
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    active_cores: Optional[int] = None
    capture_s: float = 2.0e-6
    session: object = None
    fault_injector: object = None

    def _rngs(self) -> Dict[str, np.random.Generator]:
        return {"scope_rng": self.oscilloscope.rng}

    def _capture(self, item: ChainItemResult) -> float:
        return self.oscilloscope.capture(
            item.response, self.capture_s
        ).max_droop()


@dataclass
class PeakToPeakFitness(_ScopeFitness):
    """Maximize probe-measured peak-to-peak amplitude (Kelvin-pad path)."""

    cluster: Cluster
    probe: DifferentialProbe
    band: Tuple[float, float] = (50.0e6, 200.0e6)
    active_cores: Optional[int] = None
    capture_s: float = 2.0e-6
    session: object = None
    fault_injector: object = None

    def _rngs(self) -> Dict[str, np.random.Generator]:
        return {"scope_rng": self.probe.scope.rng}

    def _capture(self, item: ChainItemResult) -> float:
        return self.probe.capture(
            item.response, self.capture_s
        ).peak_to_peak()


# ---------------------------------------------------------------------------
# the optional-hook protocol, for any fitness callable
# ---------------------------------------------------------------------------
def evaluate_programs(
    fitness: Callable, programs: Sequence[LoopProgram]
) -> List[FitnessEvaluation]:
    """Evaluate in order, batched when the fitness supports it."""
    batch = getattr(fitness, "evaluate_batch", None)
    if batch is not None:
        return list(batch(programs))
    return [fitness(p) for p in programs]


def capture_fitness_state(fitness: Callable) -> Optional[dict]:
    """The fitness's measurement-RNG state, or None without the hook."""
    capture = getattr(fitness, "fitness_state", None)
    return capture() if capture is not None else None


def restore_fitness_state(
    fitness: Callable, state: Optional[dict]
) -> None:
    """Rewind the fitness to ``state`` (no-op for None or no hook)."""
    restore = getattr(fitness, "restore_fitness_state", None)
    if state is not None and restore is not None:
        restore(state)


def state_hooks(fitness: Callable) -> Tuple[Callable, Callable]:
    """(capture, restore) callables for ``call_with_retry``'s rewind."""
    return (
        lambda: capture_fitness_state(fitness),
        lambda state: restore_fitness_state(fitness, state),
    )


def warm_up_fitness(fitness: Callable) -> Optional[dict]:
    """Run the fitness's warm-up hook; its stats snapshot or None."""
    warm = getattr(fitness, "warm_up", None)
    return warm() if warm is not None else None


def fitness_session_stats(fitness: Callable) -> Optional[dict]:
    """The fitness's session cache counters, or None."""
    stats = getattr(fitness, "session_stats", None)
    return stats() if stats is not None else None

"""Unit tests for the fitness measurement chains."""

import numpy as np
import pytest

from repro.cpu.program import program_from_mnemonics
from repro.ga.fitness import (
    EMAmplitudeFitness,
    MaxDroopFitness,
    PeakToPeakFitness,
)
from repro.instruments.oscilloscope import Oscilloscope
from repro.instruments.probes import DifferentialProbe
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer


@pytest.fixture
def hilo(a72):
    return program_from_mnemonics(
        a72.spec.isa, ["add"] * 8 + ["sdiv"], name="hilo"
    )


@pytest.fixture
def quiet_loop(a72):
    """A steady loop with little dI/dt: independent adds only."""
    return program_from_mnemonics(a72.spec.isa, ["add"] * 9, name="flat")


class TestEMAmplitudeFitness:
    def test_returns_evaluation_fields(self, a72, hilo):
        fit = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(0)),
            samples=5,
        )
        ev = fit(hilo)
        assert ev.score > 0.0
        assert 50e6 <= ev.dominant_frequency_hz <= 200e6
        assert ev.max_droop_v > 0.0
        assert ev.ipc > 0.0
        assert float(ev) == ev.score

    def test_hilo_beats_flat_loop(self, a72, hilo, quiet_loop):
        """Alternating current scores higher EM amplitude than flat."""
        fit = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1)),
            samples=5,
        )
        assert fit(hilo).score > fit(quiet_loop).score


class TestMaxDroopFitness:
    def test_scope_droop_close_to_model(self, a72, hilo):
        scope = Oscilloscope(
            noise_rms_v=0.0,
            resolution_bits=14,
            rng=np.random.default_rng(2),
        )
        fit = MaxDroopFitness(cluster=a72, oscilloscope=scope)
        ev = fit(hilo)
        assert ev.score == pytest.approx(ev.max_droop_v, rel=0.1)

    def test_hilo_beats_flat(self, a72, hilo, quiet_loop):
        scope = Oscilloscope(rng=np.random.default_rng(3))
        fit = MaxDroopFitness(cluster=a72, oscilloscope=scope)
        assert fit(hilo).score > fit(quiet_loop).score


class TestPeakToPeakFitness:
    def test_probe_chain(self, athlon):
        prog = program_from_mnemonics(
            athlon.spec.isa, ["add_rr"] * 8 + ["idiv_rr"]
        )
        fit = PeakToPeakFitness(cluster=athlon, probe=DifferentialProbe())
        ev = fit(prog)
        assert ev.score > 0.0
        assert ev.peak_to_peak_v > 0.0


class TestCacheModeFitness:
    def test_cache_model_requires_rng(self, a72):
        from repro.cpu.cache import CacheModel

        with pytest.raises(ValueError, match="memory_rng"):
            EMAmplitudeFitness(
                cluster=a72,
                analyzer=SpectrumAnalyzer(rng=np.random.default_rng(0)),
                cache_model=CacheModel(),
            )

    def test_cache_model_makes_fitness_noisy(self, a72):
        from repro.cpu.cache import CacheModel
        from repro.cpu.isa import InstructionSet
        from repro.cpu.program import random_program

        wide = InstructionSet(
            name="armv8-wide",
            specs=a72.spec.isa.specs,
            registers=dict(a72.spec.isa.registers),
            memory_slots=256,
        )
        program = random_program(
            wide, 24, np.random.default_rng(1),
            pool=(wide.spec("ldr"), wide.spec("add")),
        )
        fit = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(2)),
            samples=3,
            cache_model=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(3),
        )
        a = fit(program).score
        b = fit(program).score
        assert a != pytest.approx(b, rel=1e-6)

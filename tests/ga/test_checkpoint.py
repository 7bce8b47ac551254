"""Checkpoint/resume: a killed campaign continues bit-identically.

The contract pinned here is the paper-reproduction guarantee: a GA run
interrupted after generation k and resumed from its checkpoint must
produce exactly the same per-generation score/droop series and the
same champion genome as the same-seed uninterrupted run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import FitnessEvaluation
from repro.io.serialization import load_checkpoint, save_checkpoint


class GenomeHashFitness:
    """Deterministic, instrument-free fitness for engine-level tests."""

    def __call__(self, program) -> FitnessEvaluation:
        score = (hash(program.genome()) % 10_000) / 10_000.0
        return FitnessEvaluation(
            score=score,
            dominant_frequency_hz=1e8 * score,
            max_droop_v=0.05 * score,
            peak_to_peak_v=0.1 * score,
            ipc=1.0,
            loop_frequency_hz=1e7,
        )


class NoisyFitness(GenomeHashFitness):
    """Adds instrument noise from its own RNG, like the EM chain."""

    def __init__(self, seed: int = 5):
        self.rng = np.random.default_rng(seed)

    def __call__(self, program) -> FitnessEvaluation:
        base = super().__call__(program)
        noisy = base.score * (1.0 + 0.01 * self.rng.standard_normal())
        return FitnessEvaluation(
            score=noisy,
            dominant_frequency_hz=base.dominant_frequency_hz,
            max_droop_v=base.max_droop_v,
            peak_to_peak_v=base.peak_to_peak_v,
            ipc=base.ipc,
            loop_frequency_hz=base.loop_frequency_hz,
        )

    def fitness_state(self) -> dict:
        return {"rng": self.rng.bit_generator.state}

    def restore_fitness_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state["rng"]


CONFIG = GAConfig(
    population_size=8, generations=6, loop_length=5, seed=42
)


def _isa():
    from repro.platforms.juno import make_juno_board

    return make_juno_board().a53.spec.isa


@pytest.fixture(scope="module")
def isa():
    return _isa()


def _assert_identical(resumed, uninterrupted):
    np.testing.assert_array_equal(
        resumed.score_series(), uninterrupted.score_series()
    )
    np.testing.assert_array_equal(
        resumed.droop_series(), uninterrupted.droop_series()
    )
    assert (
        resumed.best_program.genome()
        == uninterrupted.best_program.genome()
    )
    assert resumed.best.generation == uninterrupted.best.generation
    assert resumed.evaluations == uninterrupted.evaluations


class TestResumeBitIdentical:
    def test_kill_after_k_then_resume(self, isa, tmp_path):
        ckpt = tmp_path / "ga.ckpt.json"
        full = GAEngine(GenomeHashFitness(), config=CONFIG).run(isa)

        # "Kill" after generation 2 by running a truncated campaign
        # that checkpoints every generation...
        truncated = GAEngine(
            GenomeHashFitness(),
            config=replace(CONFIG, generations=3),
        )
        truncated.run(isa, checkpoint_path=ckpt, checkpoint_every=1)

        # ...then resume to the full horizon from the saved file.
        resume = load_checkpoint(ckpt)
        resumed = GAEngine(GenomeHashFitness(), config=CONFIG).run(
            isa, resume=resume
        )
        _assert_identical(resumed, full)

    def test_resume_with_noisy_measurement_chain(self, isa, tmp_path):
        """fitness_state must carry the instrument RNG across the kill."""
        ckpt = tmp_path / "ga.ckpt.json"
        full = GAEngine(NoisyFitness(), config=CONFIG).run(isa)

        truncated = GAEngine(
            NoisyFitness(),
            config=replace(CONFIG, generations=3),
        )
        truncated.run(isa, checkpoint_path=ckpt, checkpoint_every=1)

        resumed = GAEngine(NoisyFitness(), config=CONFIG).run(
            isa, resume=load_checkpoint(ckpt)
        )
        _assert_identical(resumed, full)

    def test_resume_from_every_checkpoint_cadence(self, isa, tmp_path):
        full = GAEngine(GenomeHashFitness(), config=CONFIG).run(isa)
        for every in (1, 2):
            ckpt = tmp_path / f"every{every}.json"
            GAEngine(
                GenomeHashFitness(),
                config=replace(CONFIG, generations=4),
            ).run(isa, checkpoint_path=ckpt, checkpoint_every=every)
            resumed = GAEngine(
                GenomeHashFitness(), config=CONFIG
            ).run(isa, resume=load_checkpoint(ckpt))
            _assert_identical(resumed, full)


class TestCheckpointFile:
    def test_round_trip_preserves_state(self, isa, tmp_path):
        ckpt = tmp_path / "c.json"
        engine = GAEngine(NoisyFitness(), config=CONFIG)
        engine.run(isa, checkpoint_path=ckpt, checkpoint_every=2)
        loaded = load_checkpoint(ckpt)
        assert loaded.config == CONFIG
        assert loaded.generation >= 1
        assert len(loaded.population) == CONFIG.population_size
        assert loaded.history[0].generation == 0
        assert loaded.evaluations > 0
        assert loaded.fitness_state is not None
        # saving the loaded checkpoint again is byte-stable
        second = tmp_path / "c2.json"
        save_checkpoint(loaded, second)
        assert second.read_text() == ckpt.read_text()

    def test_atomic_write_leaves_no_staging_files(self, isa, tmp_path):
        ckpt = tmp_path / "c.json"
        GAEngine(GenomeHashFitness(), config=CONFIG).run(
            isa, checkpoint_path=ckpt, checkpoint_every=1
        )
        # The primary plus up to two rotated generations -- and never a
        # leftover .tmp staging file.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["c.json", "c.json.1", "c.json.2"]
        assert not any(n.endswith(".tmp") for n in names)

    def test_rotated_copies_are_older_generations(self, isa, tmp_path):
        ckpt = tmp_path / "c.json"
        GAEngine(GenomeHashFitness(), config=CONFIG).run(
            isa, checkpoint_path=ckpt, checkpoint_every=1
        )
        generations = [
            load_checkpoint(p).generation
            for p in (ckpt, tmp_path / "c.json.1", tmp_path / "c.json.2")
        ]
        assert generations == sorted(generations, reverse=True)

    def test_resume_rejects_mismatched_config(self, isa, tmp_path):
        ckpt = tmp_path / "c.json"
        GAEngine(GenomeHashFitness(), config=CONFIG).run(
            isa, checkpoint_path=ckpt, checkpoint_every=1
        )
        other = replace(CONFIG, mutation_rate=0.5)
        with pytest.raises(ValueError, match="does not match"):
            GAEngine(GenomeHashFitness(), config=other).run(
                isa, resume=load_checkpoint(ckpt)
            )

    def test_resume_excludes_initial_population(self, isa, tmp_path):
        ckpt = tmp_path / "c.json"
        engine = GAEngine(GenomeHashFitness(), config=CONFIG)
        engine.run(isa, checkpoint_path=ckpt, checkpoint_every=1)
        resume = load_checkpoint(ckpt)
        with pytest.raises(ValueError, match="not both"):
            GAEngine(GenomeHashFitness(), config=CONFIG).run(
                isa,
                initial_population=resume.population,
                resume=resume,
            )


class TestEMChainResume:
    """End-to-end: the real EM measurement chain resumes identically."""

    def test_em_virus_resume_identical(self, a53, tmp_path):
        from repro.core.characterizer import EMCharacterizer
        from repro.core.virusgen import VirusGenerator
        from repro.instruments.spectrum_analyzer import SpectrumAnalyzer

        config = GAConfig(
            population_size=6, generations=4, loop_length=5, seed=7
        )

        def make_generator(generations, **kwargs):
            characterizer = EMCharacterizer(
                analyzer=SpectrumAnalyzer(
                    rng=np.random.default_rng(1234)
                ),
                samples=3,
            )
            cfg = replace(config, generations=generations)
            return VirusGenerator(
                a53, characterizer, config=cfg, **kwargs
            )

        full = make_generator(4).generate_em_virus()

        ckpt = tmp_path / "em.ckpt.json"
        make_generator(
            2, checkpoint_path=ckpt, checkpoint_every=1
        ).generate_em_virus()
        resumed = make_generator(4).generate_em_virus(
            resume=load_checkpoint(ckpt)
        )

        _assert_identical(resumed.ga_result, full.ga_result)
        assert resumed.virus.genome() == full.virus.genome()
        assert resumed.max_droop_v == full.max_droop_v
        assert resumed.dominant_frequency_hz == full.dominant_frequency_hz


def _droop_fitness(juno_board, amd_desktop):
    from repro.ga.fitness import MaxDroopFitness
    from repro.instruments.oscilloscope import Oscilloscope

    return MaxDroopFitness(
        cluster=juno_board.a72,
        oscilloscope=Oscilloscope(rng=np.random.default_rng(1)),
    )


def _kelvin_fitness(juno_board, amd_desktop):
    from repro.ga.fitness import PeakToPeakFitness
    from repro.instruments.probes import DifferentialProbe

    return PeakToPeakFitness(
        cluster=amd_desktop.cpu, probe=DifferentialProbe()
    )


class TestScopeFitnessResume:
    """The voltage-feedback fitnesses carry their scope RNG across a
    checkpoint, so a resumed campaign equals the uninterrupted one."""

    @pytest.mark.parametrize(
        "make_fitness",
        [_droop_fitness, _kelvin_fitness],
        ids=["max-droop", "peak-to-peak"],
    )
    def test_resume_from_mid_run_checkpoint(
        self, make_fitness, juno_board, amd_desktop, tmp_path
    ):
        juno_board.a72.reset()
        amd_desktop.cpu.reset()
        fitness = make_fitness(juno_board, amd_desktop)
        isa = fitness.cluster.spec.isa
        config = GAConfig(
            population_size=8, generations=4, loop_length=10, seed=3
        )
        ckpt = tmp_path / "scope.ckpt.json"
        full = GAEngine(fitness, config=config).run(
            isa, checkpoint_path=ckpt, checkpoint_every=2
        )
        checkpoint = load_checkpoint(ckpt)
        assert checkpoint.generation == 2
        assert checkpoint.fitness_state is not None

        resumed = GAEngine(
            make_fitness(juno_board, amd_desktop), config=config
        ).run(isa, resume=checkpoint)
        _assert_identical(resumed, full)
        assert [r.mean_score for r in resumed.history] == [
            r.mean_score for r in full.history
        ]

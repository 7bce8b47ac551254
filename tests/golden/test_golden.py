"""Golden-file regression suite: pinned end-to-end numbers.

Each test drives a fully seeded scenario through the real measurement
chain and compares against a committed JSON data file to 1e-12 relative
tolerance (strict enough to catch any modeling change, loose enough to
survive FMA-contraction differences across platforms).  The V_MIN
golden is compared exactly: its outcomes are discrete and its voltages
sit on the 10 mV grid, so any drift in the rail waveform shows up as a
changed outcome log.  The voltage-feedback GA goldens are exact too:
they pin the order of the scope's noise draws.  The co-run / cache-miss golden is exact too: it
holds sha256 digests of the rail waveforms.  The ``--workers 2`` virus
golden is the CLI's summary file itself, compared byte for byte.

To refresh after an *intentional* physics/model change::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

then review the diff of ``tests/golden/*.json`` like any other code
change -- an unexplained delta is a regression, not noise.
"""

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.chain import ChainItem, ChainRequest, SignalPath
from repro.cli import main
from repro.core.characterizer import EMCharacterizer
from repro.core.resonance import ResonanceSweep
from repro.core.virusgen import VirusGenerator
from repro.cpu.cache import CacheModel
from repro.cpu.isa import InstructionSet
from repro.cpu.program import program_from_mnemonics, random_program
from repro.em.radiation import DieRadiator
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import EMAmplitudeFitness
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.io.serialization import load_program
from repro.obs.context import RunContext
from repro.platforms.amd import make_amd_desktop
from repro.platforms.juno import make_juno_board
from repro.stability.failure import failure_model_for
from repro.stability.vmin import VminTester
from repro.workloads.base import ProgramWorkload
from repro.workloads.loops import high_low_program
from repro.workloads.spec import spec_workload
from repro.workloads.stress import idle_workload

GOLDEN_DIR = Path(__file__).parent

REL_TOL = 1e-12


def _characterizer():
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1234)),
        samples=5,
    )


def check_golden(name, produced, update, exact=False):
    """Compare ``produced`` (a jsonable dict) against the golden file,
    or rewrite the file under ``--update-golden``.  ``exact`` demands
    equality instead of the ``REL_TOL`` float comparison."""
    path = GOLDEN_DIR / f"{name}.json"
    # Round-trip through JSON so both sides have identical types.
    produced = json.loads(json.dumps(produced))
    if update:
        path.write_text(
            json.dumps(produced, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"golden file {path.name} regenerated")
    if not path.exists():
        raise AssertionError(
            f"missing golden file {path.name}; generate it with "
            "--update-golden"
        )
    expected = json.loads(path.read_text(encoding="utf-8"))
    if exact:
        assert produced == expected, f"{name}: differs from golden"
    else:
        _assert_close(expected, produced, where=name)


def _assert_close(expected, produced, where):
    assert type(expected) is type(produced), (
        f"{where}: type changed {type(expected).__name__} -> "
        f"{type(produced).__name__}"
    )
    if isinstance(expected, dict):
        assert sorted(expected) == sorted(produced), (
            f"{where}: keys changed"
        )
        for key in expected:
            _assert_close(
                expected[key], produced[key], f"{where}.{key}"
            )
    elif isinstance(expected, list):
        assert len(expected) == len(produced), (
            f"{where}: length {len(expected)} -> {len(produced)}"
        )
        for i, (e, p) in enumerate(zip(expected, produced)):
            _assert_close(e, p, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert produced == pytest.approx(expected, rel=REL_TOL), (
            f"{where}: {expected!r} -> {produced!r}"
        )
    else:
        assert expected == produced, (
            f"{where}: {expected!r} -> {produced!r}"
        )


class TestSweepGolden:
    def test_a53_sweep_curve(self, a53, update_golden):
        clocks = list(a53.spec.allowed_clocks_hz())[:6]
        sweep = ResonanceSweep(_characterizer(), samples_per_point=5)
        result = sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        check_golden(
            "a53_sweep_curve", result.to_dict(), update_golden
        )

    def test_sweep_every_platform_and_gating_state(
        self, tmp_path, capsys, update_golden
    ):
        """``repro sweep --out`` over every platform and powered-core
        count, compared exactly: each clock point is a fresh
        transfer-function grid, so this pins the AC analysis of every
        electrical state bit for bit."""
        states = {"a72": (2, 1), "a53": (4, 3, 2, 1), "amd": (4, 3, 2, 1)}
        produced = {}
        for platform, counts in states.items():
            for cores in counts:
                out = tmp_path / f"{platform}-{cores}"
                argv = [
                    "sweep", "--platform", platform,
                    "--cores", str(cores), "--out", str(out),
                ]
                assert main(argv) == 0
                (sweep_file,) = out.glob("*-sweep.json")
                produced.setdefault(platform, {})[str(cores)] = json.loads(
                    sweep_file.read_text(encoding="utf-8")
                )
        capsys.readouterr()
        check_golden(
            "sweep_all_states", produced, update_golden, exact=True
        )


class TestCharacterizerGolden:
    def test_a72_amplitudes(self, a72, update_golden):
        rng = np.random.default_rng(77)
        programs = [
            random_program(a72.spec.isa, 12, rng, name=f"g{i}")
            for i in range(3)
        ]
        measurements = _characterizer().measure_batch(a72, programs)
        produced = {
            "cluster": a72.name,
            "programs": [p.name for p in programs],
            "amplitudes_w": [m.amplitude_w for m in measurements],
            "peak_frequencies_hz": [
                m.peak_frequency_hz for m in measurements
            ],
            "loop_frequencies_hz": [
                m.loop_frequency_hz for m in measurements
            ],
        }
        check_golden("a72_amplitudes", produced, update_golden)


class TestGAGolden:
    def test_a53_three_generation_history(self, a53, update_golden):
        characterizer = _characterizer()
        fitness = EMAmplitudeFitness(
            cluster=a53,
            analyzer=characterizer.analyzer,
            radiator=characterizer.radiator,
            samples=3,
            session=characterizer.session,
        )
        config = GAConfig(
            population_size=6, generations=3, loop_length=5, seed=7
        )
        result = GAEngine(fitness, config).run(a53.spec.isa)
        produced = {
            "evaluations": result.evaluations,
            "history": [
                {
                    "generation": r.generation,
                    "best_score": r.best.score,
                    "mean_score": r.mean_score,
                    "dominant_frequency_hz": (
                        r.best.dominant_frequency_hz
                    ),
                    "best_genome_len": len(r.best_program.genome()),
                }
                for r in result.history
            ],
            "best_generation": result.best.generation,
        }
        check_golden("a53_ga_history", produced, update_golden)


def _scope_virus_record(summary):
    """Per-generation best and mean scores plus the champion genome of
    a voltage-feedback virus run."""
    return {
        "history": [
            {
                "generation": r.generation,
                "best_score": r.best.score,
                "mean_score": r.mean_score,
            }
            for r in summary.ga_result.history
        ],
        "evaluations": summary.ga_result.evaluations,
        "champion_genome": [list(g) for g in summary.virus.genome()],
    }


SCOPE_GOLDEN_CONFIG = GAConfig(
    population_size=8, generations=3, loop_length=10, seed=0
)


class TestScopeFitnessGolden:
    """The voltage-feedback baselines (a72OC-DSO, amdOsc) end to end:
    each draws its scope noise once per fresh genome, in generation
    order, so any change to how a generation is measured shows up as
    a changed score or champion.  Fresh boards keep the instrument
    RNGs independent of test order."""

    def test_a72_droop_virus_oc_dso(self, update_golden):
        board = make_juno_board()
        summary = VirusGenerator(
            board.a72, config=SCOPE_GOLDEN_CONFIG
        ).generate_droop_virus(board.oc_dso)
        check_golden(
            "a72_droop_virus_history",
            _scope_virus_record(summary),
            update_golden,
            exact=True,
        )

    def test_amd_oscilloscope_virus_kelvin_probe(self, update_golden):
        # Seed 1: with seed 0 a generation-0 amd loop of length 10 has
        # a transient 16-iteration schedule and Pipeline.steady_schedule
        # raises "degenerate schedule" (an open scheduler defect).
        desktop = make_amd_desktop()
        summary = VirusGenerator(
            desktop.cpu, config=replace(SCOPE_GOLDEN_CONFIG, seed=1)
        ).generate_oscilloscope_virus(desktop.probe)
        check_golden(
            "amd_kelvin_virus_history",
            _scope_virus_record(summary),
            update_golden,
            exact=True,
        )


class TestWorkersVirusGolden:
    def test_a53_virus_workers2_summary(
        self, tmp_path, capsys, update_golden
    ):
        """The real EM fitness through two worker processes: programs
        go out and evaluations come back across the process boundary,
        and the archived summary must match byte for byte.  (A
        ``--workers 2`` EM run reproduces itself, not the serial run:
        each worker advances its own analyzer RNG.)"""
        argv = [
            "virus", "--platform", "a53", "--population", "10",
            "--generations", "3", "--loop-length", "10",
            "--workers", "2", "--seed", "0", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        produced = tmp_path / "cortex-a53-em-amplitude.summary.json"
        golden = GOLDEN_DIR / "a53_virus_workers2.summary.json"
        if update_golden:
            shutil.copyfile(produced, golden)
            pytest.skip(f"golden file {golden.name} regenerated")
        assert produced.read_bytes() == golden.read_bytes()


class TestIslandGolden:
    def test_a53_two_island_ring_history(self, a53, update_golden):
        """2-island ring campaign over the real EM chain: per-island
        and merged histories are pinned, so any change to migration
        order, seed derivation or the exchange itself shows up as a
        numeric diff."""
        from repro.ga.islands import IslandConfig, IslandGAEngine

        characterizer = _characterizer()
        fitness = EMAmplitudeFitness(
            cluster=a53,
            analyzer=characterizer.analyzer,
            radiator=characterizer.radiator,
            samples=3,
            session=characterizer.session,
        )
        config = GAConfig(
            population_size=8, generations=3, loop_length=5, seed=7
        )
        result = IslandGAEngine(
            fitness,
            config,
            IslandConfig(
                islands=2, topology="ring", migration_interval=1
            ),
        ).run(a53.spec.isa)
        merged = result.merged()
        produced = {
            "evaluations": result.evaluations,
            "best_island": result.best_island,
            "islands": [
                {
                    "seed": island.config.seed,
                    "population_size": island.config.population_size,
                    "history": [
                        {
                            "generation": r.generation,
                            "best_score": r.best.score,
                            "mean_score": r.mean_score,
                            "dominant_frequency_hz": (
                                r.best.dominant_frequency_hz
                            ),
                        }
                        for r in island.history
                    ],
                }
                for island in result.results
            ],
            "merged_best_generation": merged.best.generation,
            "merged_scores": [
                r.best.score for r in merged.history
            ],
        }
        check_golden("a53_island_ga_history", produced, update_golden)


class TestVminGolden:
    def test_a72_vmin_outcomes(self, a72, update_golden):
        """Fig. 10 slice: idle, two SPEC members and a resonant virus
        through the full V_MIN protocol, every descent logged."""
        virus = ProgramWorkload(
            "virus",
            program_from_mnemonics(
                a72.spec.isa, ["add"] * 20 + ["sdiv"] * 2, name="virus"
            ),
            jitter_seed=None,
        )
        workloads = [
            idle_workload(),
            spec_workload(a72.spec.isa, "gcc"),
            spec_workload(a72.spec.isa, "lbm"),
            virus,
        ]
        tester = VminTester(
            a72, failure_model_for(a72.name), step_v=0.01, seed=0
        )
        results = tester.compare(
            workloads,
            virus_repeats=5,
            benchmark_repeats=2,
            virus_names=("virus",),
        )
        produced = {
            name: {
                "vmin": r.vmin,
                "crash_voltage": r.crash_voltage,
                "max_droop_at_nominal": r.max_droop_at_nominal,
                "peak_to_peak_at_nominal": r.peak_to_peak_at_nominal,
                "outcomes": [
                    [[v, outcome.name] for v, outcome in log]
                    for log in r.outcomes
                ],
            }
            for name, r in results.items()
        }
        check_golden(
            "a72_vmin_outcomes", produced, update_golden, exact=True
        )


def response_only(cluster, items):
    """Run ``items`` through the EM chain with the analyzer readout
    off, so only execute, current and pdn do work."""
    request = ChainRequest(
        cluster, items, want_amplitude=False, want_trace=False
    )
    path = SignalPath.em_chain(DieRadiator(), SpectrumAnalyzer())
    return path.run(request).items


def run_digest(item, with_rates=False):
    """Bit-level fingerprint of one chain item's rail response (the
    ``mixed_nondet_runs`` golden's per-run record)."""
    response = item.response
    produced = {
        "die_voltage_sha256": hashlib.sha256(
            response.die_voltage.tobytes()
        ).hexdigest(),
        "die_current_sha256": hashlib.sha256(
            response.die_current.tobytes()
        ).hexdigest(),
        "max_droop": item.max_droop,
        "peak_to_peak": item.peak_to_peak,
    }
    if with_rates:
        produced["ipc"] = item.ipc
        produced["loop_frequency_hz"] = item.loop_frequency_hz
    return produced


class TestMixedNondeterministicGolden:
    def test_mixed_and_cache_miss_runs(self, a72, a53, update_golden):
        """Co-run (``programs=``) and cache-miss (``cache_model=``)
        items, pinned bit for bit: the four co-run cases of
        ``benchmarks/test_ext_corun_interference.py``, an a53 program
        pair and its reverse, and three seed-7 cache-miss runs plus the
        memory RNG state they leave behind.  The co-run virus is that
        benchmark's a72em champion (GA seed 42, population 50, 60
        generations), frozen in ``a72_em_virus.program.json`` so this
        test does not re-run the GA."""
        virus = load_program(GOLDEN_DIR / "a72_em_virus.program.json")
        quiet = program_from_mnemonics(
            a72.spec.isa, ["mov"] * 10, name="quiet"
        )
        gcc = spec_workload(a72.spec.isa, "gcc").program
        corun = {
            "virus alone (1 core)": [virus],
            "virus + quiet loop": [virus, quiet],
            "virus + gcc": [virus, gcc],
            "virus + virus": [virus, virus],
        }
        corun_items = response_only(
            a72, [ChainItem(programs=p) for p in corun.values()]
        )

        pair = [
            high_low_program(a53.spec.isa),
            program_from_mnemonics(a53.spec.isa, ["add"] * 6),
        ]
        pair_items = response_only(
            a53,
            [
                ChainItem(programs=pair),
                ChainItem(programs=list(reversed(pair))),
            ],
        )

        wide = InstructionSet(
            name=f"{a72.spec.isa.name}-wide",
            specs=a72.spec.isa.specs,
            registers=dict(a72.spec.isa.registers),
            memory_slots=256,
        )
        missy = random_program(
            wide, 24, np.random.default_rng(1),
            pool=(wide.spec("ldr"), wide.spec("add")),
        )
        memory_rng = np.random.default_rng(7)
        nondet_items = response_only(
            a72,
            [
                ChainItem(
                    program=missy,
                    cache_model=CacheModel(l1_slots=64),
                    memory_rng=memory_rng,
                )
                for _ in range(3)
            ],
        )

        produced = {
            "a72_corun": {
                name: run_digest(item)
                for name, item in zip(corun, corun_items)
            },
            "a53_mixed_pair": [run_digest(i) for i in pair_items],
            "a72_nondeterministic_seed7": {
                "runs": [
                    run_digest(i, with_rates=True) for i in nondet_items
                ],
                "memory_rng_state": memory_rng.bit_generator.state,
            },
        }
        check_golden(
            "mixed_nondet_runs", produced, update_golden, exact=True
        )

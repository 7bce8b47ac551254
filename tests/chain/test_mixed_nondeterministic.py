"""Co-run (``programs=``) and cache-miss (``cache_model=``) chain items.

Both execution modes go through the same chain as single-program
items.  Their rail responses are pinned bit for bit by the
``mixed_nondet_runs`` golden (recorded from the per-mode ``Cluster``
methods the chain replaced), and ``memory_rng`` is consumed in the
same order as that sequential per-call loop: batches, one-item runs
and the golden all leave the generator in the same state.
"""

import json

import numpy as np
import pytest

from repro.chain import ChainItem
from repro.cpu.cache import CacheModel
from repro.cpu.isa import InstructionSet
from repro.cpu.program import program_from_mnemonics, random_program
from repro.ga.fitness import EMAmplitudeFitness
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.workloads.loops import high_low_program
from tests.golden.test_golden import GOLDEN_DIR, response_only, run_digest

GOLDEN = json.loads(
    (GOLDEN_DIR / "mixed_nondet_runs.json").read_text(encoding="utf-8")
)


def memory_heavy_program(cluster, seed=1):
    wide = InstructionSet(
        name=f"{cluster.spec.isa.name}-wide",
        specs=cluster.spec.isa.specs,
        registers=dict(cluster.spec.isa.registers),
        memory_slots=256,
    )
    return random_program(
        wide, 24, np.random.default_rng(seed),
        pool=(wide.spec("ldr"), wide.spec("add")),
    )


def cache_miss_item(program, memory_rng):
    return ChainItem(
        program=program,
        cache_model=CacheModel(l1_slots=64),
        memory_rng=memory_rng,
    )


class TestMixedThroughChain:
    def _programs(self, cluster):
        isa = cluster.spec.isa
        return [
            high_low_program(isa),
            program_from_mnemonics(isa, ["add"] * 6),
        ]

    def test_mixed_item_matches_golden(self, a53):
        programs = self._programs(a53)
        result = response_only(a53, [ChainItem(programs=programs)])
        item = result[0]
        expected = GOLDEN["a53_mixed_pair"][0]
        digest = run_digest(item)
        assert digest["die_voltage_sha256"] == expected["die_voltage_sha256"]
        assert digest["die_current_sha256"] == expected["die_current_sha256"]
        assert item.execution.active_cores == len(programs)

    def test_mixed_item_validates_program_count(self, a53):
        too_many = [high_low_program(a53.spec.isa)] * (
            a53.powered_cores + 1
        )
        with pytest.raises(ValueError, match="programs"):
            response_only(a53, [ChainItem(programs=too_many)])

    def test_mixed_batch_matches_sequential_legacy(self, a53):
        """A two-item batch equals two one-item runs and the golden."""
        programs = self._programs(a53)
        pairs = [programs, list(reversed(programs))]
        sequential = [
            response_only(a53, [ChainItem(programs=p)])[0] for p in pairs
        ]
        result = response_only(
            a53, [ChainItem(programs=p) for p in pairs]
        )
        for item, alone, expected in zip(
            result, sequential, GOLDEN["a53_mixed_pair"]
        ):
            assert np.array_equal(
                item.response.die_voltage, alone.response.die_voltage
            )
            assert run_digest(item) == expected


class TestNondeterministicThroughChain:
    def test_nondet_item_matches_golden(self, a72):
        """Three one-item runs sharing ``memory_rng`` reproduce the
        golden's sequential per-call records and final RNG state."""
        program = memory_heavy_program(a72)
        expected = GOLDEN["a72_nondeterministic_seed7"]
        chain_rng = np.random.default_rng(7)
        for golden_run in expected["runs"]:
            item = response_only(
                a72, [cache_miss_item(program, chain_rng)]
            )[0]
            assert run_digest(item, with_rates=True) == golden_run
            assert item.ipc == golden_run["ipc"]
            assert item.loop_frequency_hz == golden_run["loop_frequency_hz"]
            assert len(item.windows) == item.active_cores == 2
        # RNG-stream determinism: both paths drew the same number of
        # variates in the same order.
        assert chain_rng.bit_generator.state == expected["memory_rng_state"]

    def test_nondet_batch_preserves_memory_rng_stream(self, a72):
        """A batch of N items consumes memory_rng exactly like N
        sequential per-call runs (per-stream order is preserved even
        though stages are batched)."""
        program = memory_heavy_program(a72)
        expected = GOLDEN["a72_nondeterministic_seed7"]
        chain_rng = np.random.default_rng(7)
        result = response_only(
            a72, [cache_miss_item(program, chain_rng) for _ in range(3)]
        )
        for item, golden_run in zip(result, expected["runs"]):
            assert run_digest(item, with_rates=True) == golden_run
        assert chain_rng.bit_generator.state == expected["memory_rng_state"]

    def test_nondet_fitness_batch_matches_sequential_calls(self, a72):
        """EMAmplitudeFitness.evaluate_batch == one-at-a-time calls,
        including both analyzer and memory RNG end states."""
        program = memory_heavy_program(a72)
        programs = [program, memory_heavy_program(a72, seed=2)]
        cache = CacheModel(l1_slots=64)

        serial = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(10)),
            samples=3,
            cache_model=cache,
            memory_rng=np.random.default_rng(11),
        )
        expected = [serial(p) for p in programs]

        batched = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(10)),
            samples=3,
            cache_model=cache,
            memory_rng=np.random.default_rng(11),
        )
        got = batched.evaluate_batch(programs)

        assert got == expected
        assert (
            batched.analyzer.rng.bit_generator.state
            == serial.analyzer.rng.bit_generator.state
        )
        assert (
            batched.memory_rng.bit_generator.state
            == serial.memory_rng.bit_generator.state
        )

    def test_cluster_fitness_batch_delegates(self, a72):
        fitness = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(4)),
            samples=2,
        )
        program = high_low_program(a72.spec.isa)
        evaluations = fitness.evaluate_batch([program, program])
        assert len(evaluations) == 2
        assert all(e.score > 0.0 for e in evaluations)


class TestIgnoredFieldsRejected:
    @pytest.mark.parametrize(
        "mixed, fields, match",
        [
            (True, {"active_cores": 1}, "active_cores"),
            (True, {"phase_offsets": (0, 3)}, "phase_offsets"),
            (
                False,
                {
                    "phase_offsets": (0, 3),
                    "cache_model": CacheModel(l1_slots=64),
                    "memory_rng": np.random.default_rng(0),
                },
                "phase_offsets",
            ),
        ],
    )
    def test_field_the_mode_would_drop_raises(
        self, a72, mixed, fields, match
    ):
        program = high_low_program(a72.spec.isa)
        if mixed:
            item = ChainItem(programs=[program, program], **fields)
        else:
            item = ChainItem(program=program, **fields)
        with pytest.raises(ValueError, match=match):
            response_only(a72, [item])

    def test_cache_items_keep_active_cores(self, a72):
        """The fitness's cache-miss ablation passes active_cores."""
        item = cache_miss_item(
            memory_heavy_program(a72), np.random.default_rng(0)
        )
        item.active_cores = 1
        assert len(response_only(a72, [item])[0].windows) == 1

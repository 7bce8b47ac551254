"""Unit tests for program/virus serialization."""

import json

import numpy as np
import pytest

from repro.cpu.arm import ARM_ISA
from repro.cpu.isa import InstructionSet, RegisterFile
from repro.cpu.program import program_from_mnemonics, random_program
from repro.cpu.x86 import X86_ISA
from repro.io.serialization import (
    SerializationError,
    load_program,
    load_virus_archive,
    program_from_dict,
    program_to_dict,
    save_program,
    save_virus_archive,
)


class TestProgramRoundTrip:
    def test_arm_round_trip(self, tmp_path):
        program = random_program(ARM_ISA, 50, np.random.default_rng(1))
        path = tmp_path / "virus.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.genome() == program.genome()
        assert loaded.name == program.name

    def test_x86_round_trip(self):
        program = random_program(X86_ISA, 30, np.random.default_rng(2))
        loaded = program_from_dict(program_to_dict(program))
        assert loaded.genome() == program.genome()

    def test_restricted_pool_round_trip(self):
        """Programs built from a subset ISA keep their resources."""
        pool = InstructionSet(
            name="armv8-pool",
            specs=(ARM_ISA.spec("add"), ARM_ISA.spec("ldr")),
            registers={
                RegisterFile.INT: 8,
                RegisterFile.FP: 8,
                RegisterFile.VEC: 8,
            },
            memory_slots=16,
        )
        program = random_program(pool, 20, np.random.default_rng(3))
        loaded = program_from_dict(program_to_dict(program))
        assert loaded.genome() == program.genome()
        assert loaded.isa.memory_slots == 16
        assert loaded.isa.registers[RegisterFile.INT] == 8

    def test_assembly_preserved(self):
        program = program_from_mnemonics(ARM_ISA, ["add", "ldr", "fsqrt"])
        loaded = program_from_dict(program_to_dict(program))
        assert loaded.assembly() == program.assembly()


class TestErrors:
    def test_bad_version(self):
        data = program_to_dict(
            program_from_mnemonics(ARM_ISA, ["add"])
        )
        data["format_version"] = 99
        with pytest.raises(SerializationError, match="version"):
            program_from_dict(data)

    def test_unknown_base(self):
        data = program_to_dict(
            program_from_mnemonics(ARM_ISA, ["add"])
        )
        data["base_isa"] = "riscv"
        with pytest.raises(SerializationError, match="unknown base"):
            program_from_dict(data)

    def test_unknown_mnemonic(self):
        data = program_to_dict(
            program_from_mnemonics(ARM_ISA, ["add"])
        )
        data["body"][0]["mnemonic"] = "hcf"
        with pytest.raises(SerializationError):
            program_from_dict(data)

    def test_missing_fields(self):
        with pytest.raises(SerializationError, match="missing"):
            program_from_dict({"body": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="invalid JSON"):
            load_program(path)


class TestVirusArchive:
    def test_archive_round_trip(self, tmp_path, a72, characterizer):
        from repro.core.virusgen import VirusGenerator
        from repro.ga.engine import GAConfig

        gen = VirusGenerator(
            a72,
            characterizer,
            config=GAConfig(
                population_size=8, generations=3, loop_length=20, seed=4
            ),
        )
        summary = gen.generate_em_virus(samples=3)
        meta_path = save_virus_archive(summary, tmp_path)

        assert meta_path.exists()
        program, metadata = load_virus_archive(meta_path)
        assert program.genome() == summary.virus.genome()
        assert metadata["cluster"] == "cortex-a72"
        assert metadata["metric"] == "em-amplitude"
        # assembly file sits next to the archive
        asm = (tmp_path / metadata["assembly_file"]).read_text()
        assert "virus_loop:" in asm

    def test_archive_metadata_is_valid_json(self, tmp_path, a72):
        from repro.core.virusgen import VirusGenerator
        from repro.ga.engine import GAConfig

        gen = VirusGenerator(
            a72,
            config=GAConfig(
                population_size=8, generations=2, loop_length=10, seed=5
            ),
        )
        summary = gen.generate_em_virus(samples=2)
        meta_path = save_virus_archive(summary, tmp_path, stem="v1")
        metadata = json.loads(meta_path.read_text())
        assert metadata["program_file"] == "v1.json"
        assert metadata["max_droop_v"] > 0.0


class TestPopulationArchive:
    def test_population_round_trip(self, tmp_path):
        from repro.io.serialization import load_population, save_population

        rng = np.random.default_rng(9)
        population = [random_program(ARM_ISA, 20, rng) for _ in range(6)]
        path = tmp_path / "population.json"
        save_population(population, path)
        loaded = load_population(path)
        assert len(loaded) == 6
        for a, b in zip(population, loaded):
            assert a.genome() == b.genome()

    def test_population_resumes_ga(self, tmp_path, a72, characterizer):
        """A saved population seeds a new engine run (Section 3.1a)."""
        from repro.ga.engine import GAConfig, GAEngine
        from repro.ga.fitness import EMAmplitudeFitness
        from repro.io.serialization import load_population, save_population

        rng = np.random.default_rng(10)
        population = [random_program(ARM_ISA, 16, rng) for _ in range(8)]
        path = tmp_path / "pop.json"
        save_population(population, path)

        fitness = EMAmplitudeFitness(
            cluster=a72, analyzer=characterizer.analyzer, samples=2
        )
        config = GAConfig(
            population_size=8, generations=2, loop_length=16, seed=1
        )
        result = GAEngine(fitness, config).run(
            ARM_ISA, initial_population=load_population(path)
        )
        gen0_genomes = {p.genome() for p in population}
        assert result.history[0].best_program.genome() in gen0_genomes

    def test_bad_population_file(self, tmp_path):
        from repro.io.serialization import load_population

        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1}')
        with pytest.raises(SerializationError, match="individuals"):
            load_population(path)

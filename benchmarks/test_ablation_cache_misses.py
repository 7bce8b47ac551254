"""Ablation: why the GA template avoids cache misses (Section 3.3).

Paper: *"events such as cache misses ... result in significant jitter
to the GA algorithm, which in turn impedes its convergence."*

Two GA runs with identical budgets on the Cortex-A72:

- **deterministic** -- the paper's configuration: all memory accesses
  hit the L1-resident buffer; fitness is repeatable and memoizable.
- **missy** -- addresses span 4x the L1 window through a cache model
  with randomized miss penalties; fitness is noisy, memoization is
  disabled (re-measuring a clone legitimately differs).

The deterministic run must reach a substantially higher true score.
"""

import numpy as np

from repro.cpu.arm import ARM_ISA
from repro.cpu.cache import CacheModel
from repro.cpu.isa import InstructionSet
from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import EMAmplitudeFitness
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer

from benchmarks.conftest import print_header

CONFIG = GAConfig(
    population_size=24, generations=20, loop_length=50, seed=12
)

WIDE_MEM_ISA = InstructionSet(
    name="armv8-wide-mem",
    specs=ARM_ISA.specs,
    registers=dict(ARM_ISA.registers),
    memory_slots=256,
)


def _true_score(cluster, program, band=(50e6, 200e6)):
    """Noise-free figure of merit: the banded EM line amplitude of the
    deterministic (hit-only, addresses folded into L1) execution."""
    folded = []
    from repro.cpu.isa import Instruction

    for instr in program.body:
        if instr.spec.touches_memory and instr.address >= 64:
            instr = Instruction(
                spec=instr.spec,
                dest=instr.dest,
                sources=instr.sources,
                address=instr.address % 64,
            )
        folded.append(instr)
    from repro.cpu.program import LoopProgram

    clean = LoopProgram(isa=ARM_ISA, body=tuple(folded), name="folded")
    run = cluster.run(clean)
    freqs, amps = run.response.current_spectrum()
    mask = (freqs >= band[0]) & (freqs <= band[1])
    return float(amps[mask].max()) if mask.any() else 0.0


def test_ablation_cache_miss_jitter(benchmark, juno_board):
    a72 = juno_board.a72
    a72.reset()

    def run_both():
        analyzer = SpectrumAnalyzer(rng=np.random.default_rng(101))
        det_fitness = EMAmplitudeFitness(
            cluster=a72, analyzer=analyzer, samples=8
        )
        det = GAEngine(det_fitness, CONFIG).run(ARM_ISA)

        noisy_fitness = EMAmplitudeFitness(
            cluster=a72,
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(102)),
            samples=8,
            cache_model=CacheModel(l1_slots=64),
            memory_rng=np.random.default_rng(103),
        )
        missy = GAEngine(noisy_fitness, CONFIG, memoize=False).run(
            WIDE_MEM_ISA
        )
        return det, missy

    det, missy = benchmark.pedantic(run_both, rounds=1, iterations=1)

    print_header(
        "Ablation: GA convergence with vs without cache misses (A72)"
    )
    print(f"{'gen':>4} {'deterministic':>16} {'with misses':>14}")
    for d, m in list(zip(det.history, missy.history))[::4]:
        print(
            f"{d.generation:>4} {d.best.score:>13.3e} W "
            f"{m.best.score:>11.3e} W"
        )

    det_true = _true_score(a72, det.best_program)
    missy_true = _true_score(a72, missy.best_program)
    print(
        f"  true (noise-free) resonant current of final virus: "
        f"deterministic {det_true:.3f} A vs missy {missy_true:.3f} A"
    )
    # The deterministic configuration converges to a substantially
    # stronger virus.  (Measured droop is not a fair comparison: the
    # missy run's droop includes the random miss-stall dips themselves,
    # which is exactly the jitter that misleads the GA.)
    assert det_true > 1.2 * missy_true

"""Ablation: the GA recipe's empirically-determined hyperparameters.

Paper (Section 3.1c): *"We empirically determined that the following
... work well: a) 2-4 % mutation rate, b) one-point crossover, and
c) tournament selection."*  This ablation reruns the A72 search across
mutation rates and with selection disabled, confirming the recipe:

- the paper's 2-4 % band outperforms both no mutation (premature
  convergence) and heavy mutation (random walk), and
- tournament selection beats random parent selection.
"""

import numpy as np

from repro.ga.engine import GAConfig, GAEngine
from repro.ga.fitness import EMAmplitudeFitness
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer

from benchmarks.conftest import print_header

BAND = (50e6, 200e6)


def _true_score(cluster, program):
    """Noise-free resonant-current figure of merit."""
    run = cluster.run(program)
    freqs, amps = run.response.current_spectrum()
    mask = (freqs >= BAND[0]) & (freqs <= BAND[1])
    return float(amps[mask].max()) if mask.any() else 0.0


def _run(cluster, rate, seed, generations=18, tournament=3):
    fitness = EMAmplitudeFitness(
        cluster=cluster,
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=6,
    )
    config = GAConfig(
        population_size=24,
        generations=generations,
        loop_length=50,
        mutation_rate=rate,
        tournament_size=tournament,
        seed=seed,
    )
    result = GAEngine(fitness, config).run(
        cluster.spec.isa
    )
    return _true_score(cluster, result.best_program)


def test_ablation_mutation_rate(benchmark, juno_board):
    a72 = juno_board.a72
    a72.reset()
    rates = (0.0, 0.03, 0.30)

    def run_all():
        scores = {}
        for rate in rates:
            runs = [_run(a72, rate, seed) for seed in (5, 6, 7)]
            scores[rate] = float(np.mean(runs))
        return scores

    scores = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_header("Ablation: GA mutation rate (A72, mean of 3 seeds)")
    for rate, score in scores.items():
        print(
            f"  mutation {rate * 100:5.1f}%  resonant current "
            f"{score:.3f} A"
        )
    # the paper's 2-4 % band wins against both extremes
    assert scores[0.03] > scores[0.0]
    assert scores[0.03] > scores[0.30]


def test_ablation_selection_pressure(benchmark, juno_board):
    a72 = juno_board.a72
    a72.reset()

    def run_both():
        tournament = float(
            np.mean([_run(a72, 0.03, s, tournament=3) for s in (8, 9)])
        )
        random_sel = float(
            np.mean([_run(a72, 0.03, s, tournament=1) for s in (8, 9)])
        )
        return tournament, random_sel

    tournament, random_sel = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print_header("Ablation: tournament vs random parent selection (A72)")
    print(f"  tournament (k=3): resonant current {tournament:.3f} A")
    print(f"  random (k=1):     resonant current {random_sel:.3f} A")
    assert tournament > random_sel

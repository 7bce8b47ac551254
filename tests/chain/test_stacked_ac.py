"""One AC analysis per chain run per electrical state.

A resonance sweep is one chain run whose K clock points are K new
transfer-function grids on the same PDN state.  The session groups
those misses by powered-core state and the solver computes them in a
single stacked ``analyze_ac`` call; a repeat sweep is all cache hits.
The session's grid cap bounds what it keeps, never what it computes:
each item is handed its grid directly.
"""

import numpy as np
import pytest

import repro.pdn.steady_state as steady_state
from repro import EMCharacterizer, make_juno_board
from repro.chain.session import SimulationSession
from repro.core.resonance import ResonanceSweep
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.context import RunContext

K = 7


@pytest.fixture
def ac_calls(monkeypatch):
    """Counts the solver's calls into ``analyze_ac``."""
    calls = []
    original = steady_state.analyze_ac

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(steady_state, "analyze_ac", counting)
    return calls


def _sweep(session=None):
    # A fresh board each time: the solver keeps its own grid cache.
    a53 = make_juno_board().a53
    characterizer = EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1234)),
        samples=3,
        session=session,
    )
    clocks = list(a53.spec.allowed_clocks_hz())[:K]
    sweep = ResonanceSweep(characterizer, samples_per_point=2)
    return a53, characterizer, sweep, clocks


def _points(result):
    return [
        (p.clock_hz, p.loop_frequency_hz, p.amplitude_w)
        for p in result.points
    ]


class TestOneStackedAnalysis:
    def test_a_sweep_makes_one_analysis_and_a_repeat_none(self, ac_calls):
        a53, characterizer, sweep, clocks = _sweep()
        solver = a53.pdn.solver(a53.powered_cores)
        before = solver.tf_analyses
        sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        assert len(ac_calls) == 1
        stats = characterizer.session.stats
        assert stats.tf_misses == K
        assert solver.tf_analyses - before == K

        sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        assert len(ac_calls) == 1
        assert stats.tf_hits == K
        assert solver.tf_analyses - before == K

    @pytest.mark.parametrize("max_grids", [2, 0])
    def test_a_small_grid_cap_never_recomputes(self, ac_calls, max_grids):
        a53, _, sweep, clocks = _sweep()
        expected = _points(
            sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        )
        del ac_calls[:]

        session = SimulationSession(max_grids=max_grids)
        a53, _, sweep, clocks = _sweep(session)
        result = sweep.run(RunContext(cluster=a53), clocks_hz=clocks)
        assert _points(result) == expected
        assert len(ac_calls) == 1
        assert session.stats.tf_misses == K
        assert len(session._tf_grids) == min(max_grids, K)

    def test_a_repeated_grid_is_one_miss_then_hits(self):
        a53 = make_juno_board().a53
        session = SimulationSession()
        grid = (a53.powered_cores, 64, a53.clock_hz)
        first, second = session.transfer_grids(a53, [grid, grid])
        assert first is second
        assert (session.stats.tf_misses, session.stats.tf_hits) == (1, 1)

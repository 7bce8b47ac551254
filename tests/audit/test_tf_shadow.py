"""The ``tf_grids`` shadow check recomputes from scratch.

A transfer-function grid served from the session cache is the same
array object the solver keeps in its own cache, so a recompute that
went through the solver's cached lookup would see any in-place
corruption mirrored and could never mismatch.  The audit must rebuild
the grid through the solver's uncached computation instead.
"""

import numpy as np
import pytest

from repro.audit import CacheShadowMismatch, DeterminismTracker
from repro.chain.session import SimulationSession
from repro.platforms.juno import make_juno_board


def _solve(session, cluster):
    load = np.linspace(1.0, 2.0, 64)
    (transfer,) = session.transfer_grids(
        cluster, [(cluster.powered_cores, load.size, cluster.clock_hz)]
    )
    return session.pdn_solve(
        cluster,
        cluster.powered_cores,
        cluster.voltage,
        load,
        cluster.clock_hz,
        transfer=transfer,
    )


class TestTransferGridShadow:
    def test_in_place_corruption_of_a_cached_grid_is_caught(self):
        # A fresh board: the corruption below also reaches the solver's
        # own cache, which must not leak into other tests.
        a53 = make_juno_board().a53
        tracker = DeterminismTracker(sample_rate=1.0)
        session = SimulationSession(audit=tracker)
        _solve(session, a53)
        (z, _h_i), = session._tf_grids.values()
        z[5] *= 1.5
        with pytest.raises(CacheShadowMismatch):
            _solve(session, a53)

    def test_clean_hit_passes_the_shadow_check(self):
        a53 = make_juno_board().a53
        tracker = DeterminismTracker(sample_rate=1.0)
        session = SimulationSession(audit=tracker)
        first = _solve(session, a53)
        again = _solve(session, a53)
        assert tracker.stats.shadow_checks == {"tf_grids": 1}
        assert tracker.stats.violations == 0
        np.testing.assert_array_equal(first.die_voltage, again.die_voltage)

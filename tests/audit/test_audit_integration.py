"""End-to-end: audited runs are byte-identical and the CLI wires up.

The tracker's own sampling PRNG is private, shadow recomputes are
side-effect-free, and the ledger only reads ``bit_generator.state`` --
so enabling ``--audit`` must not move a single bit of any result.
"""

import numpy as np
import pytest

from repro import EMCharacterizer
from repro.audit import DeterminismTracker
from repro.chain.session import SimulationSession
from repro.core.resonance import ResonanceSweep
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.obs.context import RunContext
from repro.obs.events import EventLog, MemorySink
from repro.workloads.loops import high_low_program

from repro import cli


def characterizer_with(audit, seed=1234):
    session = (
        SimulationSession(audit=DeterminismTracker(sample_rate=1.0))
        if audit
        else None
    )
    return EMCharacterizer(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(seed)),
        samples=4,
        session=session,
    )


class TestByteIdentityUnderAudit:
    def test_measure_is_bit_identical(self, a53):
        program = high_low_program(a53.spec.isa)
        plain = characterizer_with(audit=False).measure(a53, program)
        audited = characterizer_with(audit=True).measure(a53, program)
        assert plain.amplitude_w == audited.amplitude_w
        assert plain.peak_frequency_hz == audited.peak_frequency_hz
        np.testing.assert_array_equal(
            plain.trace.power_dbm, audited.trace.power_dbm
        )

    def test_sweep_is_bit_identical(self, a53):
        clocks = a53.spec.allowed_clocks_hz()[:3]

        def run(audit):
            ctx = RunContext(cluster=a53, seed=0)
            sweep = ResonanceSweep(
                characterizer_with(audit), samples_per_point=3
            )
            a53.reset()
            return sweep.run(ctx, clocks_hz=clocks)

        plain, audited = run(False), run(True)
        for p, q in zip(plain.points, audited.points):
            assert p.amplitude_w == q.amplitude_w
            assert p.loop_frequency_hz == q.loop_frequency_hz

    def test_audited_sweep_actually_audited(self, a53):
        tracker = DeterminismTracker(sample_rate=1.0)
        characterizer = EMCharacterizer(
            analyzer=SpectrumAnalyzer(rng=np.random.default_rng(1234)),
            samples=4,
            session=SimulationSession(audit=tracker),
        )
        ctx = RunContext(cluster=a53, seed=0)
        ResonanceSweep(characterizer, samples_per_point=3).run(
            ctx, clocks_hz=a53.spec.allowed_clocks_hz()[:3]
        )
        assert tracker.stats.ledger_stages > 0
        assert tracker.stats.ledger_replays > 0
        assert sum(tracker.stats.shadow_checks.values()) > 0
        assert tracker.stats.violations == 0


class TestVminUnderAudit:
    def test_audited_vmin_identical_and_checked(self, a72):
        """V_MIN's cache hits (one execution per program, one TF grid
        per trace length) are shadow-checked, and the jitter draws are
        ledgered, without moving any result."""
        from repro.stability.failure import failure_model_for
        from repro.stability.vmin import VminTester
        from repro.workloads.spec import spec_workload
        from repro.workloads.stress import idle_workload

        def compare(session):
            workloads = [
                idle_workload(),
                spec_workload(a72.spec.isa, "gcc"),
            ]
            tester = VminTester(
                a72,
                failure_model_for(a72.name),
                step_v=0.02,
                seed=3,
                session=session,
            )
            results = tester.compare(workloads, benchmark_repeats=2)
            return {
                name: (r.vmin, r.crash_voltage, r.max_droop_at_nominal,
                       r.outcomes)
                for name, r in results.items()
            }

        tracker = DeterminismTracker(sample_rate=1.0)
        plain = compare(None)
        audited = compare(SimulationSession(audit=tracker))
        assert audited == plain
        summary = tracker.summary()
        assert summary["violations"] == 0
        assert summary["ledger_stages"] > 0
        assert summary["shadow_checks"]["executions"] > 0
        assert summary["shadow_checks"]["tf_grids"] > 0


class TestCliAudit:
    def test_sweep_output_identical_with_audit(self, capsys):
        argv = ["sweep", "--platform", "a53", "--samples", "2",
                "--seed", "5"]
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        assert cli.main(argv + ["--audit"]) == 0
        audited = capsys.readouterr().out
        assert plain == audited

    def test_audit_summary_reaches_event_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(
            ["sweep", "--platform", "a53", "--samples", "2",
             "--seed", "5", "--audit", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        events = (out / "events.jsonl").read_text(encoding="utf-8")
        assert '"event":"audit_summary"' in events.replace(" ", "")
        manifest = (out / "run_manifest.json").read_text(encoding="utf-8")
        assert "audit" in manifest

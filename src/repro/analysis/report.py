"""One-shot characterization reports.

``characterize`` runs the paper's full methodology against one cluster
-- impedance model, fast EM sweep per power-gating state, EM-driven GA
virus, V_MIN ladder against reference workloads -- and renders a
markdown report a lab would archive next to the virus binaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.characterizer import EMCharacterizer
from repro.core.resonance import ResonanceSweep
from repro.core.results import GARunSummary
from repro.core.virusgen import VirusGenerator
from repro.ga.engine import GAConfig
from repro.obs.context import RunContext
from repro.obs.events import NULL_LOG, EventLog, read_jsonl
from repro.obs.manifest import RunManifest
from repro.platforms.base import Cluster
from repro.stability.failure import FAILURE_PRESETS
from repro.stability.vmin import VminResult, VminTester
from repro.workloads.base import ProgramWorkload, Workload
from repro.workloads.spec import SPEC_PROFILES, spec_suite
from repro.workloads.stress import idle_workload


@dataclass
class CharacterizationReport:
    """Everything the characterization run produced."""

    cluster_name: str
    resonances_hz: Dict[int, float]
    virus: Optional[GARunSummary] = None
    vmin_results: Dict[str, VminResult] = field(default_factory=dict)
    nominal_voltage: float = 0.0
    nominal_clock_hz: float = 0.0

    def to_markdown(self) -> str:
        lines = [
            f"# PDN characterization: {self.cluster_name}",
            "",
            f"Nominal operating point: "
            f"{self.nominal_clock_hz / 1e9:.2f} GHz, "
            f"{self.nominal_voltage:g} V.",
            "",
            "## First-order resonance (fast EM sweep)",
            "",
            "| powered cores | resonance |",
            "|---|---|",
        ]
        for cores in sorted(self.resonances_hz, reverse=True):
            lines.append(
                f"| {cores} | {self.resonances_hz[cores] / 1e6:.1f} MHz |"
            )
        if self.virus is not None:
            v = self.virus
            lines += [
                "",
                "## EM-driven dI/dt virus",
                "",
                f"- dominant frequency: "
                f"{v.dominant_frequency_hz / 1e6:.1f} MHz",
                f"- max droop at nominal: {v.max_droop_v * 1e3:.1f} mV",
                f"- peak-to-peak noise: {v.peak_to_peak_v * 1e3:.1f} mV",
                f"- IPC {v.ipc:.2f}, loop frequency "
                f"{v.loop_frequency_hz / 1e6:.1f} MHz "
                f"({len(v.virus)} instructions)",
                f"- GA: {v.generations} generations, metric {v.metric}",
            ]
        if self.vmin_results:
            lines += [
                "",
                "## V_MIN ladder",
                "",
                "| workload | V_MIN | margin |",
                "|---|---|---|",
            ]
            for name, res in sorted(
                self.vmin_results.items(), key=lambda kv: kv[1].vmin
            ):
                margin = self.nominal_voltage - res.vmin
                lines.append(
                    f"| {name} | {res.vmin:.4f} V | "
                    f"{margin * 1e3:.1f} mV |"
                )
        lines.append("")
        return "\n".join(lines)


def characterize(
    cluster: Cluster,
    characterizer: Optional[EMCharacterizer] = None,
    ga_config: Optional[GAConfig] = None,
    vmin_workload_names: Sequence[str] = ("idle", "lbm", "gcc"),
    run_vmin: bool = True,
    seed: int = 0,
    event_log: Optional[EventLog] = None,
) -> CharacterizationReport:
    """Full characterization of one cluster, non-intrusively.

    V_MIN requires a calibrated failure model; for clusters without one
    (no :data:`FAILURE_PRESETS` entry) the ladder is skipped.
    ``event_log`` receives the sweep and GA telemetry of every stage.
    """
    characterizer = characterizer or EMCharacterizer()
    ga_config = ga_config or GAConfig(
        population_size=30, generations=25, loop_length=50, seed=seed
    )
    log = event_log if event_log is not None else NULL_LOG
    ctx = RunContext(cluster=cluster, seed=seed, event_log=log)
    report = CharacterizationReport(
        cluster_name=cluster.name,
        resonances_hz={},
        nominal_voltage=cluster.spec.nominal_voltage,
        nominal_clock_hz=cluster.spec.nominal_clock_hz,
    )

    sweep = ResonanceSweep(characterizer, samples_per_point=5)
    for result in sweep.power_gating_study(ctx):
        report.resonances_hz[result.powered_cores] = result.resonance_hz()

    generator = VirusGenerator(
        cluster, characterizer, config=ga_config, event_log=log
    )
    report.virus = generator.generate_em_virus()

    if run_vmin and cluster.name in FAILURE_PRESETS:
        tester = VminTester(
            cluster,
            FAILURE_PRESETS[cluster.name],
            seed=seed,
            session=characterizer.session,
        )
        workloads: List[Workload] = []
        spec_names = {p.name for p in SPEC_PROFILES}
        for name in vmin_workload_names:
            if name == "idle":
                workloads.append(idle_workload())
            elif name in spec_names:
                workloads.extend(spec_suite(cluster.spec.isa, [name]))
        workloads.append(
            ProgramWorkload(
                "em-virus", report.virus.virus, jitter_seed=None
            )
        )
        report.vmin_results = tester.compare(
            workloads,
            virus_repeats=10,
            benchmark_repeats=2,
            virus_names=("em-virus",),
        )
    return report


# ---------------------------------------------------------------------------
# Provenance-only reconstruction: no re-running, just the artifacts.
# ---------------------------------------------------------------------------
def report_from_provenance(path: Union[str, Path]) -> str:
    """Rebuild a run's report from its artifact directory alone.

    ``path`` is an artifact directory (or its ``run_manifest.json``)
    written by a CLI run.  The markdown is regenerated from the
    manifest, the JSONL event log and any archived result JSON --
    the experiment is **not** re-run, which is the point: provenance
    is sufficient to reconstruct every figure.
    """
    path = Path(path)
    base = path if path.is_dir() else path.parent
    manifest = RunManifest.load(base)
    lines = [
        f"# Run report: {manifest.command} on {manifest.platform}",
        "",
        "## Provenance",
        "",
        f"- seed: {manifest.seed}",
        f"- code version: {manifest.git or 'unknown'}",
        f"- elapsed: {manifest.elapsed_s:.1f} s",
        f"- config: `{json.dumps(manifest.config, sort_keys=True)}`",
        f"- event log: {manifest.event_log or 'none'}",
        f"- artifacts: {', '.join(manifest.artifacts) or 'none'}",
    ]

    events = []
    if manifest.event_log and (base / manifest.event_log).exists():
        events = read_jsonl(base / manifest.event_log)

    # A resumed run appends to the same log; keep the last record per
    # generation (re-evaluation from the memo cache emits it again).
    by_gen = {
        e["generation"]: e
        for e in events
        if e["event"] == "generation_end"
    }
    generations = [by_gen[g] for g in sorted(by_gen)]
    if generations:
        lines += [
            "",
            "## GA convergence (from event log)",
            "",
            "| generation | best | mean | droop | dominant |",
            "|---|---|---|---|---|",
        ]
        for e in generations:
            dominant = e.get("dominant_frequency_hz") or 0.0
            lines.append(
                f"| {e['generation']} | {e['best_score']:.3e} | "
                f"{e['mean_score']:.3e} | "
                f"{e.get('best_droop_v', 0.0) * 1e3:.1f} mV | "
                f"{dominant / 1e6:.1f} MHz |"
            )

    sweep_points = [e for e in events if e["event"] == "sweep_point"]
    if sweep_points:
        best = max(sweep_points, key=lambda e: e["amplitude_w"])
        lines += [
            "",
            "## Fast sweep (from event log)",
            "",
            f"- points: {len(sweep_points)}",
            f"- resonance: {best['loop_frequency_hz'] / 1e6:.1f} MHz",
        ]

    for artifact in manifest.artifacts:
        if artifact.endswith(".summary.json"):
            summary = GARunSummary.from_json(
                (base / artifact).read_text(encoding="utf-8")
            )
            lines += [
                "",
                "## Archived virus (from summary artifact)",
                "",
                f"- cluster: {summary.cluster_name}",
                f"- metric: {summary.metric}",
                f"- generations: {summary.generations}",
                f"- dominant frequency: "
                f"{summary.dominant_frequency_hz / 1e6:.1f} MHz",
                f"- max droop: {summary.max_droop_v * 1e3:.1f} mV",
                f"- IPC: {summary.ipc:.2f}",
            ]
    lines.append("")
    return "\n".join(lines)

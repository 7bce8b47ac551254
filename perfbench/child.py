"""One benchmark process: set up, run one timed unit, check, report.

``run.py`` starts this file in a fresh interpreter for every unit, so
set-up (interpreter start, imports, service build) is paid per unit the
way a user of ``python -m repro ...`` pays it.  The only argument is a
JSON spec; the result is written as JSON to ``spec["result"]``.

Modes: ``unit`` runs the timed body and its output checks, ``setup``
stops once ready (extra set-up samples), ``capacity`` measures the
service's closed-loop throughput.
"""

from __future__ import annotations

import json
import sys
import time

SPEC = json.loads(sys.argv[1])
T_SPAWN = SPEC["t_spawn"]

_t_import = time.monotonic()
import repro.cli  # noqa: E402  (timed: this is the user's start-up cost)

IMPORT_S = time.monotonic() - _t_import
STARTUP_MODULES = len(sys.modules)

import contextlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402

RESONANCE_RE = re.compile(r"first-order resonance: ([\d.]+) MHz")


def peak_rss_mb() -> float:
    """Peak RSS of this process so far (read right after the timed body,
    before the output checks allocate)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv):
    """One ``repro`` invocation: (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = repro.cli.main(argv)
    except Exception:  # a crashed command is a failed op, not a crash
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - start, out.getvalue()


# ---------------------------------------------------------------------------
# output checks (untimed)
# ---------------------------------------------------------------------------
def sweep_outputs(argvs, results, unit, checks, notes):
    """Ops are sweep points; checks: committed table + impedance peak."""
    expected = json.loads(
        (W.HERE / "expected_sweep.json").read_text(encoding="utf-8")
    )
    attempted = failed = 0
    seen = {}
    for argv, (rc, _s, out) in zip(argvs, results):
        platform, cores = argv[2], argv[4]
        want = expected[platform][cores]
        rows = [ln.split() for ln in out.splitlines() if ln and ln[0] != "#"]
        attempted += want["points"]
        good = [r for r in rows if math.isfinite(float(r[1]))]
        failed += want["points"] - len(good) if rc == 0 else want["points"]
        match = RESONANCE_RE.search(out)
        got = float(match.group(1)) if match else None
        if got != want["resonance_mhz"] or len(rows) != want["points"]:
            checks["sweep_table"] = False
            notes.append(
                f"{platform} --cores {cores}: resonance {got} MHz over "
                f"{len(rows)} points, expected {want['resonance_mhz']} MHz "
                f"over {want['points']}"
            )
        seen[(platform, cores)] = (got, sorted(float(r[0]) for r in rows))
    checks.setdefault("sweep_table", True)
    if unit == 0:
        checks["sweep_vs_impedance"] = sweep_vs_impedance(
            seen, expected, notes
        )
    return attempted, failed


def sweep_vs_impedance(seen, expected, notes) -> bool:
    """Is the AC-analysis first-order peak where the committed table
    says, and is each resonance within one loop-frequency step of it
    exactly where the table says it is?"""
    import numpy as np
    from repro.platforms import registry

    ok = True
    freqs = np.linspace(40e6, 250e6, 2101)
    for (platform, cores), (res_mhz, loops) in seen.items():
        if res_mhz is None or len(loops) < 2:
            return False
        cluster = registry.make_cluster(platform)
        peak = cluster.pdn.impedance_analysis(
            freqs, int(cores)
        ).peak_frequency_hz("die", (50e6, 200e6))
        want = expected[platform][cores]
        peak_mhz = round(peak / 1e6, 1)
        res = res_mhz * 1e6
        i = int(np.argmin(np.abs(np.asarray(loops) - res)))
        step = float(max(np.diff(loops)[max(i - 1, 0): i + 1]))
        within = abs(res - peak) <= step
        if (
            peak_mhz != want["impedance_peak_mhz"]
            or within != want["within_one_step"]
        ):
            ok = False
            notes.append(
                f"{platform} --cores {cores}: resonance {res_mhz} MHz vs "
                f"impedance peak {peak_mhz} MHz (committed "
                f"{want['impedance_peak_mhz']} MHz, step "
                f"{step / 1e6:.2f} MHz): within={within}, committed "
                f"{want['within_one_step']}"
            )
    return ok


def ga_artifacts(out_dir: Path):
    """The run's summary and its event log."""
    summary = next(out_dir.glob("*.summary.json"))
    events = [
        json.loads(line)
        for line in (out_dir / "events.jsonl").read_text().splitlines()
        if line.strip()
    ]
    return json.loads(summary.read_text(encoding="utf-8")), events


def virus_outputs(rc, out_dir, checks, notes):
    """Ops are fresh genome evaluations; quarantined ones failed."""
    if rc != 0:
        checks["virus_ran"] = False
        return 1, 1
    summary, events = ga_artifacts(out_dir)
    ends = [e for e in events if e["event"] == "generation_end"]
    attempted = sum(e["fresh_evaluations"] for e in ends)
    failed = sum(e.get("quarantined") or 0 for e in ends)
    best = [g["best"]["score"] for g in summary["ga_result"]["history"]]
    monotone = all(b >= a for a, b in zip(best, best[1:]))
    dominant = summary["dominant_frequency_hz"]
    checks["best_never_decreases"] = monotone
    checks["champion_in_band"] = 50e6 <= dominant <= 200e6
    if not monotone:
        notes.append(f"best score decreased: {best}")
    if not checks["champion_in_band"]:
        notes.append(f"champion dominant {dominant / 1e6:.1f} MHz")
    return attempted, failed


def vmin_outputs(rc, results, checks, notes):
    """Ops are per-workload V_MIN experiments; a NaN V_MIN failed."""
    if rc != 0 or results is None:
        checks["vmin_ran"] = False
        return 1, 1
    attempted = len(results)
    failed = sum(1 for r in results.values() if not math.isfinite(r.vmin))
    spec = {k: r for k, r in results.items() if k in W.FIG10_SPEC}
    droops = {k: r.max_droop_at_nominal for k, r in spec.items()}
    checks["lbm_largest_spec_droop"] = (
        droops.get("lbm") == max(droops.values())
    )
    best_spec = max(r.vmin for r in spec.values())
    margin_mv = round((results["virus"].vmin - best_spec) * 1e3, 6)
    checks["virus_vmin_20mv_over_spec"] = margin_mv >= 20.0
    if not checks["lbm_largest_spec_droop"]:
        notes.append(f"SPEC droops: {droops}")
    if not checks["virus_vmin_20mv_over_spec"]:
        notes.append(f"virus V_MIN only {margin_mv} mV over best SPEC")
    return attempted, failed


# ---------------------------------------------------------------------------
# batch unit
# ---------------------------------------------------------------------------
def batch_unit(spec, ready_s):
    workload, unit = spec["workload"], spec["unit"]
    out_dir = Path(spec["work"]) / "out"
    argvs = W.unit_argvs(workload, spec["seed"], spec["plan"], str(out_dir))
    captured = {}
    if workload == "vmin":
        # The CLI prints V_MIN only; the Fig. 10 droop check needs the
        # VminTester results, so keep what compare() returns.
        from repro.stability.vmin import VminTester

        compare = VminTester.compare

        def keep(self, *args, **kwargs):
            captured["results"] = compare(self, *args, **kwargs)
            return captured["results"]

        VminTester.compare = keep
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.SpanRecorder()
        recorder.install()
    body_start = time.perf_counter()
    results = [run_cli(argv) for argv in argvs]
    body_end = time.perf_counter()
    rss_mb = peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()
    unit_s = body_end - body_start

    checks, notes = {}, []
    rc = max(r[0] for r in results)
    if workload == "sweep":
        attempted, failed = sweep_outputs(argvs, results, unit, checks, notes)
    elif workload == "vmin":
        attempted, failed = vmin_outputs(
            rc, captured.get("results"), checks, notes
        )
    else:
        attempted, failed = virus_outputs(rc, out_dir, checks, notes)
    report = {
        "setup_s": ready_s,
        "import_s": IMPORT_S,
        "unit_s": unit_s,
        "peak_rss_mb": rss_mb,
        "command_s": [r[1] for r in results],
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "notes": notes,
        "argv": argvs,
    }
    if recorder is not None:
        report["layers"] = tracer.layer_metrics(recorder)
        report["layers"]["trace.unattributed_s"] = unit_s - (
            recorder.covered_s(body_start, body_end)
        )
    shutil.rmtree(out_dir, ignore_errors=True)
    return report


def main() -> int:
    if SPEC["workload"] == "service":
        import service_load

        report = service_load.run(SPEC, T_SPAWN, IMPORT_S, peak_rss_mb)
    else:
        ready_s = time.monotonic() - T_SPAWN
        if SPEC["mode"] == "setup":
            report = {"setup_s": ready_s, "import_s": IMPORT_S}
        else:
            report = batch_unit(SPEC, ready_s)
    report["modules"] = STARTUP_MODULES
    Path(SPEC["result"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

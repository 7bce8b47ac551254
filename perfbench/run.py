"""Scenario benchmark for the ``repro`` CLI and measurement service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Every timed unit runs in a fresh interpreter (``child.py``), so set-up
plus unit time is what a user of ``python -m repro ...`` waits for.
Units repeat until ``--seconds`` is used up; set-up is sampled at least
``MIN_SETUPS`` times.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced units,
each traced unit on the plan of the untraced one before it, and prints
the per-layer metrics.  The service runs its closed loop with
``--trace 0`` and its open loop with ``--trace 1`` (``service_load.py``).  Each metric is printed by name and
unit, and the last line is one JSON object.  A failed output check
makes the run exit 1.  A run record (seed, argv or job plan, host
facts, per-unit reports) is written under ``.perfbench/records/``.

``--capacity`` measures the service's closed-loop throughput, the
figure the offered open-loop rate in ``workloads.py`` was chosen from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BATCH = ("sweep", "virus", "vmin")
WORKLOADS = BATCH + ("service",)
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 150
#: One BLAS thread, for this process and every unit: the kernels solve
#: 18x18 systems, and idle BLAS threads spinning on a small shared host
#: made timings swing.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # `git describe` (run manifests) must not look above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


class Runner:
    """Spawns child processes and keeps their reports."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = child_env()
        self.count = 0
        self.reports = []

    def child(self, mode: str, unit: int, trace: bool, seconds=None):
        self.count += 1
        n = self.count
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "unit": unit,
            # a traced unit replays the plan of the untraced one before it
            "plan": unit // 2 if self.args.trace else unit,
            "loop": "open" if self.args.trace else "closed",
            "mode": mode,
            "trace": trace,
            "seconds": seconds or self.args.seconds,
            "work": str(self.work / f"c{n}"),
            "result": str(self.work / f"c{n}.json"),
        }
        Path(spec["work"]).mkdir(parents=True)
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # Anything the unit started goes with it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(
                f"{mode} process for unit {unit} exited {proc.returncode}"
            )
        report = json.loads(Path(spec["result"]).read_text())
        report.update(mode=mode, unit=unit, trace=trace)
        self.reports.append(report)
        shutil.rmtree(spec["work"], ignore_errors=True)
        return report

    def units(self, trace_run: bool):
        """Timed units until the time is used up (at least two)."""
        deadline = time.monotonic() + self.args.seconds
        if self.args.workload == "service" and trace_run:
            # one open loop each way, over half the time each
            half = self.args.seconds / 2
            self.child("unit", 0, False, half)
            self.child("unit", 1, True, half)
            return
        # Unit 0 also runs the once-per-run checks, so the last unit's
        # time predicts the next one's.
        unit, last = 0, 0.0
        while unit < 2 or time.monotonic() + last <= deadline:
            start = time.monotonic()
            self.child("unit", unit, trace_run and unit % 2 == 1)
            last = time.monotonic() - start
            unit += 1

    def setups(self):
        unit = 1000
        while len(self.reports) < MIN_SETUPS:
            self.child("setup", unit, False)
            unit += 1


def end_to_end(reports):
    units = [r for r in reports if r["mode"] == "unit" and not r["trace"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": statistics.median(r["unit_s"] for r in units),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in units),
    }


def per_layer(reports, names, calibration_s, attempted, failed):
    traced = [r for r in reports if r["trace"]]
    plain = [r for r in reports if r["mode"] == "unit" and not r["trace"]]
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = statistics.mean(r["layers"][key] for r in traced)
    if "latency_s" in plain[0]:
        # service: the untraced open loop's job latency
        latency = plain[0]["latency_s"]
        layers["service.latency_p50_s"] = W.quantile(latency, 0.5)
        layers["service.latency_p95_s"] = W.quantile(latency, 0.95)

    def cost(r):  # service: median job latency; batch: unit time
        if "latency_s" in r:
            return W.quantile(r["latency_s"], 0.5)
        return r["unit_s"]

    # A traced unit and the untraced one before it ran the same plan.
    pairs = {}
    for r in plain + traced:
        pairs.setdefault(r["unit"] // 2, {})[r["trace"]] = cost(r)
    overhead = statistics.median(
        p[True] / p[False] for p in pairs.values() if len(p) == 2
    ) - 1.0
    layers.update(
        {
            "startup.import_s": statistics.median(
                r["import_s"] for r in reports
            ),
            "startup.modules": statistics.median(
                r["modules"] for r in reports
            ),
            "loadgen.lag_max_s": max(
                (r.get("lag_max_s", 0.0) for r in reports), default=0.0
            ),
            "trace.overhead_frac": overhead,
            "host.calibration_s": calibration_s,
            "run.attempted": attempted,
            "run.failed": failed,
            "run.failed_frac": failed / attempted,
        }
    )
    return {name: layers.get(name, 0.0) for name in names}


def calibration_s() -> float:
    """Median time of a fixed NumPy workload, to read seconds across hosts."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    b = rng.standard_normal((200, 8))
    x = rng.standard_normal(1 << 16)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.solve(a, b)
            np.fft.rfft(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_facts(calibration: float) -> dict:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=10,
        )
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        describe = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_describe": describe,
        "env": BLAS_ENV,
        "host.calibration_s": calibration,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capacity", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.capacity and args.workload != "service":
        parser.error("--capacity measures the service workload")

    os.environ.update(BLAS_ENV)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return fail(f"no {spec_path}")
    bench = json.loads(spec_path.read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args, work)
    try:
        if args.capacity:
            report = runner.child("capacity", 0, False)
            print(f"closed-loop capacity: {report['capacity_jobs_s']:.1f} jobs/s")
            return 0
        calibration = calibration_s()
        runner.units(bool(args.trace))
        if not args.trace:
            runner.setups()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reports = runner.reports
    units = [r for r in reports if r["mode"] == "unit"]
    attempted = sum(r["attempted"] for r in units)
    failed = sum(r["failed"] for r in units)
    checks, notes = {}, []
    for r in units:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
        notes.extend(r["notes"])
    valid = all(
        r.get("lag_max_s", 0.0) <= W.SERVICE_MAX_LAG_S for r in units
    )
    if not valid:
        notes.append(
            "INVALID: the load generator lagged more than "
            f"{W.SERVICE_MAX_LAG_S} s behind its schedule"
        )
    correct = valid and all(checks.values())

    if args.trace:
        defs = bench["per_layer"]
        values = per_layer(
            reports, [d["name"] for d in defs], calibration, attempted, failed
        )
    else:
        defs = bench["end_to_end"]
        values = end_to_end(reports)
    metrics = {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
        for d in defs
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(calibration),
        "correct": correct,
        "valid": valid,
        "checks": checks,
        "notes": notes,
        "metrics": metrics,
        "units": reports,
    }
    if args.workload == "service":
        record["offered_rate_jobs_s"] = W.SERVICE_RATE_JOBS_S
        record["capacity_jobs_s"] = W.SERVICE_CAPACITY_JOBS_S
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1))

    for check, ok in sorted(checks.items()):
        print(f"# check {check}: {'ok' if ok else 'FAILED'}")
    for note in notes:
        print(f"# {note}", file=sys.stderr)
    for d in defs:
        print(f"{d['name']:<32} {values[d['name']]:>14.6g} {d['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

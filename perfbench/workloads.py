"""Workload plans: what each benchmark unit asks ``repro`` to do.

A plan is a pure function of the workload seed and a plan index, so
the same seed gives the same argv lists and job specs.  A traced run
gives each traced unit the plan of the untraced unit before it.  This
module imports only the standard library: ``run.py`` records plans
without importing ``repro``.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent

#: Every platform and power-gating state the sweep covers (346 points).
SWEEP_STATES = (
    ("a72", 2), ("a72", 1),
    ("a53", 4), ("a53", 3), ("a53", 2), ("a53", 1),
    ("amd", 4), ("amd", 3), ("amd", 2), ("amd", 1),
)
#: Sweep rounds (each over all states, with its own CLI seed) per unit.
SWEEP_ROUNDS = 2

GA_ARGS = ["--platform", "a72", "--population", "50", "--loop-length", "50",
           "--generations", "10"]

#: The SPEC members of the paper's Fig. 10.
FIG10_SPEC = (
    "perlbench", "gcc", "mcf", "milc", "namd", "povray", "hmmer",
    "libquantum", "lbm", "omnetpp", "sphinx3", "xalancbmk",
)
VIRUS_ARCHIVE = HERE / "virus_a72" / "cortex-a72-em-amplitude.meta.json"

#: Open-loop service load.  ``SERVICE_CAPACITY_JOBS_S`` is the closed-
#: loop capacity of one caller, measured with ``run.py --capacity`` in a
#: checkout without ``.git`` on a 2-CPU x86-64 host (Python 3.11, NumPy
#: 2.4) with ``state_dir`` on.  The offered rate is about a quarter of
#: it: at half of it the median and p95 latency moved by 0.7-0.8 of their
#: median from seed to seed on that host, too much for a regression gate.
SERVICE_CAPACITY_JOBS_S = 46.0
SERVICE_RATE_JOBS_S = 12.0
SERVICE_MIN_JOBS = 200
SERVICE_TENANTS = 8
SERVICE_PLATFORM_MIX = (("a53", 0.6), ("a72", 0.3), ("amd", 0.1))
SERVICE_PROGRAM_POOL = 200
SERVICE_PROGRAM_LENGTH = 50
#: A run whose load generator submits a job later than this after its
#: due time is invalid (the generator, not the service, set the pace).
SERVICE_MAX_LAG_S = 0.25
#: Jobs per closed-loop unit (the untraced run's ``wall_s``): each
#: tenant submits its own jobs in plan order, one reply at a time.
SERVICE_CLOSED_JOBS = 160


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (NumPy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cli_seed(seed: int, plan: int, sub: int = 0, per_plan: int = 1) -> int:
    """The CLI ``--seed`` of call ``sub`` of plan ``plan``."""
    return seed * 1000 + plan * per_plan + sub


def sweep_argvs(seed: int, plan: int) -> List[List[str]]:
    return [
        ["sweep", "--platform", platform, "--cores", str(cores),
         "--seed", str(cli_seed(seed, plan, r, SWEEP_ROUNDS))]
        for r in range(SWEEP_ROUNDS)
        for platform, cores in SWEEP_STATES
    ]


def virus_argv(seed: int, plan: int, out: str) -> List[str]:
    return ["virus", *GA_ARGS, "--seed", str(cli_seed(seed, plan)),
            "--out", out]


def vmin_argv(seed: int, plan: int) -> List[str]:
    return [
        "vmin", "--platform", "a72",
        "--workloads", ",".join(("idle",) + FIG10_SPEC),
        "--virus", str(VIRUS_ARCHIVE),
        "--virus-repeats", "30", "--repeats", "2",
        "--seed", str(cli_seed(seed, plan)),
    ]


def unit_argvs(workload: str, seed: int, plan: int, out: str) -> List[List[str]]:
    """The CLI calls one unit of a batch workload makes, in order."""
    if workload == "sweep":
        return sweep_argvs(seed, plan)
    if workload == "virus":
        return [virus_argv(seed, plan, out)]
    if workload == "vmin":
        return [vmin_argv(seed, plan)]
    raise ValueError(f"not a batch workload: {workload}")


def open_loop_jobs(seconds: float) -> int:
    """Jobs of an open loop at the offered rate over ``seconds``."""
    return max(SERVICE_MIN_JOBS, round(SERVICE_RATE_JOBS_S * seconds))


def service_plan(seed: int, plan: int, n: int) -> List[Dict]:
    """Seeded job plan: ``n`` jobs with exponential gaps at the offered
    rate (``due_s``, used by the open loop only).

    Every seed offers the same load: the gaps are rescaled to fill ``n``
    over the offered rate exactly, and the platform mix and the jobs per
    tenant are exact counts in a seeded order.
    """
    rng = random.Random(seed * 1000 + plan)
    span = n / SERVICE_RATE_JOBS_S
    gaps = [rng.expovariate(SERVICE_RATE_JOBS_S) for _ in range(n)]
    scale = span / sum(gaps)
    counts = [round(n * w) for _, w in SERVICE_PLATFORM_MIX]
    counts[0] += n - sum(counts)
    platforms = [
        p for (p, _), k in zip(SERVICE_PLATFORM_MIX, counts) for _ in range(k)
    ]
    tenants = [f"tenant{i % SERVICE_TENANTS}" for i in range(n)]
    rng.shuffle(platforms)
    rng.shuffle(tenants)
    jobs, due = [], 0.0
    for gap, platform, tenant in zip(gaps, platforms, tenants):
        jobs.append(
            {
                "due_s": round(due, 6),
                "tenant": tenant,
                "params": {
                    "platform": platform,
                    "program_seed": rng.randrange(SERVICE_PROGRAM_POOL),
                    "program_length": SERVICE_PROGRAM_LENGTH,
                },
            }
        )
        due += gap * scale
    return jobs

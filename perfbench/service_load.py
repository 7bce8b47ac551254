"""The ``service`` workload: seeded jobs against ``MeasurementService``.

One asyncio process drives the service through ``InprocClient``, in one
of two loops over a seeded job plan:

* closed loop (the untraced run, ``wall_s``): each of the plan's
  tenants submits its own jobs in plan order and waits for each reply,
  so up to one job per tenant is pending and the coalescer folds what
  it can.  The service's throughput sets the time until every job is
  done.
* open loop (the traced run): jobs are submitted on the plan's seeded
  schedule whatever the service's progress, and each job is timed from
  when it was due, so a stall also delays every job due during it.
  Per-job queue wait and execution time come from the service's public
  event stream (``job_submitted``, ``job_batched``, ``job_done``)
  through an in-memory sink on the traced unit.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Callable, Dict, List

import workloads as W

WARM_PLATFORMS = tuple(p for p, _ in W.SERVICE_PLATFORM_MIX)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


async def _build(seed: int, state_dir, event_log):
    """Service built, started, and each platform's session warmed."""
    from repro.service import InprocClient, MeasurementService

    service = MeasurementService(
        seed=seed, state_dir=state_dir, event_log=event_log
    )
    await service.start()
    client = InprocClient(service)
    for platform in WARM_PLATFORMS:
        await client.run("measure", {"platform": platform}, tenant="warmup")
    return service, client


async def _open_loop(client, plan):
    """Submit on schedule.  Returns (latency or None per job, result per
    job, plan indices in submission order, lag per job, seconds)."""
    from repro.service import ServiceError

    n = len(plan)
    latency: List = [None] * n
    results: List = [None] * n
    order: List[int] = []
    lags: List[float] = []
    waiters = []

    async def wait(i, job, due):
        try:
            results[i] = await job.wait()
        except ServiceError:
            return
        latency[i] = time.perf_counter() - due

    t0 = time.perf_counter() + 0.05
    for i, entry in enumerate(plan):
        due = t0 + entry["due_s"]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        try:
            job = client.submit(
                "measure", entry["params"], tenant=entry["tenant"]
            )
        except ServiceError:  # refused (429) or rejected: a failed op
            continue
        order.append(i)
        waiters.append(asyncio.create_task(wait(i, job, due)))
    await asyncio.gather(*waiters)
    return latency, results, order, lags, time.perf_counter() - t0


async def _tenant_loop(client, plan):
    """Each tenant submits its jobs in plan order, one reply at a time.
    Returns (result per job, plan indices in submission order, seconds
    until every job is done)."""
    from repro.service import ServiceError

    results: List = [None] * len(plan)
    order: List[int] = []
    by_tenant: Dict[str, List[int]] = {}
    for i, entry in enumerate(plan):
        by_tenant.setdefault(entry["tenant"], []).append(i)

    async def tenant(indices):
        for i in indices:
            entry = plan[i]
            try:
                job = client.submit(
                    "measure", entry["params"], tenant=entry["tenant"]
                )
            except ServiceError:
                continue
            order.append(i)
            try:
                results[i] = await job.wait()
            except ServiceError:
                continue

    start = time.perf_counter()
    await asyncio.gather(*(tenant(ix) for ix in by_tenant.values()))
    return results, order, time.perf_counter() - start


async def _twin_matches(seed: int, plan, order, results) -> bool:
    """Same seed, same submission order, one job at a time: same JSON?"""
    from repro.obs.events import NULL_LOG

    twin, client = await _build(seed, None, NULL_LOG)
    try:
        for i in order:
            entry = plan[i]
            want = await client.run(
                "measure", entry["params"], tenant=entry["tenant"]
            )
            if json.dumps(want, sort_keys=True) != json.dumps(
                results[i], sort_keys=True
            ):
                return False
    finally:
        await twin.close(drain=True)
    return True


def _event_times(events) -> Dict[str, float]:
    """Per-job queue wait and execution time from event ``t`` stamps."""
    submitted = {e["job_id"]: e["t"] for e in events
                 if e["event"] == "job_submitted"}
    batched = {}
    for e in events:
        if e["event"] == "job_batched":
            for job_id in e["job_ids"]:
                batched[job_id] = e["t"]
    done = {e["job_id"]: e["t"] for e in events if e["event"] == "job_done"}
    waits = [batched[j] - submitted[j] for j in submitted if j in batched]
    execs = [done[j] - batched[j] for j in batched if j in done]
    return {
        "service.queue_wait.p50_s": W.quantile(waits, 0.5),
        "service.queue_wait.p95_s": W.quantile(waits, 0.95),
        "service.exec.p50_s": W.quantile(execs, 0.5),
    }


async def _unit(spec, t_spawn: float, import_s: float, peak_rss_mb):
    from repro.obs.events import NULL_LOG, EventLog, MemorySink

    seed = W.cli_seed(spec["seed"], spec["plan"])
    work = Path(spec["work"])
    state_dir = work / "state"
    sink = MemorySink() if spec["trace"] else None
    log = EventLog([sink]) if sink is not None else NULL_LOG
    service, client = await _build(seed, state_dir, log)
    report: Dict = {
        "setup_s": time.monotonic() - t_spawn,
        "import_s": import_s,
    }
    if spec["mode"] == "setup":
        await service.close(drain=True)
        return report
    if spec["mode"] == "capacity":
        report["capacity_jobs_s"] = await _closed_loop(client)
        await service.close(drain=True)
        return report

    open_loop = spec["loop"] == "open"
    jobs = W.open_loop_jobs(spec["seconds"]) if open_loop else (
        W.SERVICE_CLOSED_JOBS
    )
    plan = W.service_plan(spec["seed"], spec["plan"], jobs)
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.SpanRecorder()
        recorder.install()
    body_start = time.perf_counter()
    if open_loop:
        latency, results, order, lags, wall = await _open_loop(client, plan)
    else:
        results, order, wall = await _tenant_loop(client, plan)
    body_end = time.perf_counter()
    report["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()
    stats = service.stats()
    await service.close(drain=True)
    del service, client

    done = sum(1 for r in results if r is not None)
    all_done = done == len(plan)
    checks = {"all_jobs_done": all_done}
    if spec["unit"] == 0:  # once per run: the twin costs a second loop
        checks["coalesced_equals_sequential"] = all_done and (
            await _twin_matches(seed, plan, order, results)
        )
    report.update(
        {
            "unit_s": wall,
            "attempted": len(plan),
            "failed": len(plan) - done,
            "checks": checks,
            "notes": [] if all_done else [
                f"{len(plan) - done} of {len(plan)} jobs not done"
            ],
            "counters": stats["counters"],
            "plan": plan,
            "order": order,
        }
    )
    if open_loop:
        report["latency_s"] = [x for x in latency if x is not None]
        report["lag_max_s"] = max(lags)
    if recorder is not None:
        counters = stats["counters"]
        layers = tracer.layer_metrics(recorder)
        layers.update(_event_times(sink.events()))
        layers.update(
            {
                "service.batches": counters["batches"],
                "service.jobs": counters["done"],
                "service.batch_size.mean": (
                    counters["done"] / counters["batches"]
                ),
                "service.coalesced_jobs": counters["coalesced_jobs"],
                "service.coalesced_frac": (
                    counters["coalesced_jobs"] / counters["done"]
                ),
                "service.state_dir_bytes": _dir_bytes(state_dir),
                "service.jobs_retained": stats["jobs_in_memory"],
                "trace.unattributed_s": (body_end - body_start)
                - recorder.covered_s(body_start, body_end),
            }
        )
        report["layers"] = layers
    return report


async def _closed_loop(client, jobs: int = 300) -> float:
    """Jobs/s of one caller that waits for each reply (no coalescing)."""
    plan = W.service_plan(0, 0, jobs)
    start = time.perf_counter()
    for entry in plan:
        await client.run("measure", entry["params"], tenant=entry["tenant"])
    return len(plan) / (time.perf_counter() - start)


def run(spec, t_spawn: float, import_s: float, peak_rss_mb: Callable) -> Dict:
    return asyncio.run(_unit(spec, t_spawn, import_s, peak_rss_mb))

"""Persistent warm-cache worker runtime for parallel GA evaluation.

The original dispatch model paid per-shard costs that dwarfed the
fitness work itself: every generation re-entered a
``ProcessPoolExecutor`` whose workers idled between generations with
no guarantee of cache reuse, and every shard re-shipped the whole
fitness.  This module replaces it with a *persistent worker pool*:

* Worker processes are spawned **once per campaign**.  Each receives
  the pickled fitness spec (fitness callable, fault injector, retry
  policy) a single time at start, runs the fitness's optional
  ``warm_up()`` hook -- which builds its
  :class:`~repro.chain.session.SimulationSession` and primes the
  cheap deterministic caches -- and then holds everything warm across
  generations: PDN transfer-function grids, clock-independent
  schedules, radiator tilts and analyzer line gains are computed once
  per worker instead of once per dispatch.
* Programs travel to workers and evaluations travel back as plain
  pickles through the per-worker task queue and the shared result
  queue; an evaluation comes back as exactly the object the fitness
  returned.
* Results are reassembled strictly by submission order (task keys map
  back to shard indices), so a pure fitness keeps the
  ``workers=N == workers=1`` bit-identity contract.
* A worker that dies (or exceeds the dispatch budget) is respawned
  with a full warm-up replay; its shard is reported as a *crash
  outcome* to the caller, which re-dispatches or degrades to serial
  exactly as before (see :class:`repro.ga.parallel.ParallelEvaluator`).

Observability: the pool emits one ``worker_warmup`` event per (re)spawn
-- worker id, pid, warm-up wall time, whether it replaced a crashed
worker, and the cache stats its warm-up primed -- and records each
worker's latest session cache counters (``worker_stats``) so the GA
engine can fold per-worker cache-hit rates into ``generation_end``.

The protocol is deliberately explicit (per-worker task queues, one
shared result queue) rather than executor-shaped: the parent always
knows which worker holds which shard, which is what makes crash
attribution and deterministic re-dispatch simple to reason about.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.faults.errors import StageTimeout
from repro.faults.plan import FaultInjector
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.ga.fitness import (
    evaluate_programs,
    fitness_session_stats,
    state_hooks,
    warm_up_fitness,
)
from repro.obs.events import NULL_LOG, EventLog

#: Receive-loop poll granularity; also bounds crash-detection latency.
_POLL_S = 0.05

#: Wall-clock budget for a worker to finish warm-up and report ready.
DEFAULT_START_TIMEOUT_S = 120.0


def _dump_exception(exc: BaseException) -> bytes:
    """Best-effort pickle of an exception for queue transport."""
    try:
        return pickle.dumps(exc)
    except (pickle.PicklingError, TypeError, AttributeError):
        return pickle.dumps(
            RuntimeError(f"{type(exc).__name__}: {exc}")
        )


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------
def _run_shard(
    fitness: Callable,
    injector: FaultInjector,
    policy: Optional[RetryPolicy],
    programs: Sequence,
) -> List:
    """One shard, inside a worker: fault site + local transient retry.

    Transient chain faults are retried here with the worker-local
    fitness state rewound; anything that survives the worker's budget
    (including :class:`~repro.faults.WorkerCrash`) is transported to
    the parent, which re-dispatches or salvages the shard.
    Worker-side retries cannot reach the parent's event log, so they
    are silent; the parent-side serial path is the one the chaos suite
    asserts events from.
    """
    injector.visit("worker.shard")
    if policy is None:
        return evaluate_programs(fitness, programs)
    capture, restore = state_hooks(fitness)
    return call_with_retry(
        lambda: evaluate_programs(fitness, programs),
        policy,
        scope="worker-shard",
        capture_state=capture,
        restore_state=restore,
    )


def _worker_main(
    worker_id: int, task_q, result_q, payload: bytes
) -> None:
    """Long-lived worker loop: warm up once, then serve shards."""
    fitness, injector, policy = pickle.loads(payload)
    t0 = time.perf_counter()
    try:
        warm_stats = warm_up_fitness(fitness)
    # Warm-up failures (whatever they are) must surface in the
    # parent with their original type, not hang the pool start.
    except BaseException as exc:  # audit: ignore[R6]
        result_q.put(("raised", worker_id, None, _dump_exception(exc)))
        return
    result_q.put(
        ("ready", worker_id, round(time.perf_counter() - t0, 6), warm_stats)
    )
    while True:
        message = task_q.get()
        if message[0] == "stop":
            return
        _, task_key, programs = message
        try:
            evaluations = _run_shard(fitness, injector, policy, programs)
        # Transport every failure (fault, crash, bug) to the
        # parent, which re-raises or handles it by type.
        except BaseException as exc:  # audit: ignore[R6]
            result_q.put(
                ("raised", worker_id, task_key, _dump_exception(exc))
            )
            continue
        stats = fitness_session_stats(fitness)
        result_q.put(("ok", worker_id, task_key, evaluations, stats))


# ---------------------------------------------------------------------------
# the parent-side pool
# ---------------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """What one dispatched shard came back as.

    ``kind`` is ``"ok"`` (``results`` holds the evaluations),
    ``"raised"`` (the worker transported ``error`` -- an injected
    fault, a :class:`WorkerCrash`, or a genuine bug) or ``"crash"``
    (the worker process died or timed out; ``error`` carries the
    :class:`BrokenProcessPool` / :class:`StageTimeout`).
    """

    kind: str
    results: Optional[List] = None
    stats: Optional[dict] = None
    error: Optional[BaseException] = None


@dataclass
class _WorkerHandle:
    worker_id: int
    process: object
    task_q: object
    state: str = "spawning"  # spawning -> idle -> busy (-> dead)
    respawned: bool = False
    task_key: Optional[int] = None
    shard_index: Optional[int] = None
    deadline: Optional[float] = None
    timeout_s: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.state != "dead" and self.process.is_alive()


class PersistentWorkerPool:
    """A fixed set of long-lived, warm-cache evaluation workers.

    Parameters
    ----------
    payload:
        ``pickle.dumps((fitness, injector, retry_policy))`` -- shipped
        to each worker exactly once per (re)spawn.
    workers:
        Pool size (>= 1).
    event_log:
        Destination for ``worker_warmup`` events.
    start_timeout_s:
        Budget for each worker's warm-up before the pool start fails.
    """

    def __init__(
        self,
        payload: bytes,
        workers: int,
        event_log: EventLog = NULL_LOG,
        start_timeout_s: float = DEFAULT_START_TIMEOUT_S,
        mp_context=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._payload = payload
        self.workers = workers
        self._log = event_log
        self._start_timeout_s = start_timeout_s
        self._ctx = (
            mp_context
            if mp_context is not None
            else multiprocessing.get_context()
        )
        self._result_q = None
        self._handles: List[_WorkerHandle] = []
        self._task_seq = 0
        self._closed = False
        #: Workers respawned after a crash/timeout (warm-up replays).
        self.respawns = 0
        #: worker_id -> latest session cache-stats snapshot.
        self.worker_stats: Dict[int, dict] = {}

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._handles)

    def start(self) -> None:
        """Spawn all workers and block until each finished warm-up."""
        if self._closed:
            raise ValueError("pool is closed")
        if self.started:
            return
        self._result_q = self._ctx.Queue()
        self._handles = [
            self._spawn(i, respawned=False) for i in range(self.workers)
        ]
        deadline = time.monotonic() + self._start_timeout_s
        while any(h.state == "spawning" for h in self._handles):
            self._drain_one(timeout=_POLL_S, assigned={})
            for handle in self._handles:
                if handle.state == "spawning" and not handle.alive:
                    self._mark_dead(handle)
                    raise BrokenProcessPool(
                        f"worker {handle.worker_id} died during warm-up"
                    )
            if time.monotonic() > deadline:
                raise BrokenProcessPool(
                    f"worker warm-up exceeded {self._start_timeout_s}s"
                )

    def _spawn(self, worker_id: int, respawned: bool) -> _WorkerHandle:
        task_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_q, self._result_q, self._payload),
            name=f"repro-ga-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        if respawned:
            self.respawns += 1
        return _WorkerHandle(
            worker_id=worker_id,
            process=process,
            task_q=task_q,
            respawned=respawned,
        )

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        handle.state = "dead"
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover
                handle.process.kill()
                handle.process.join(timeout=1.0)
        handle.task_q.close()
        handle.task_q.cancel_join_thread()

    def _respawn(self, handle: _WorkerHandle) -> _WorkerHandle:
        self._mark_dead(handle)
        replacement = self._spawn(handle.worker_id, respawned=True)
        index = self._handles.index(handle)
        self._handles[index] = replacement
        return replacement

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        self._closed = True
        for handle in self._handles:
            if handle.state in ("spawning", "idle", "busy"):
                if handle.alive:
                    try:
                        handle.task_q.put(("stop",))
                    except (OSError, ValueError):  # pragma: no cover
                        pass
        for handle in self._handles:
            if handle.state != "dead":
                handle.process.join(timeout=2.0)
                self._mark_dead(handle)
        self._handles = []
        if self._result_q is not None:
            self._result_q.close()
            self._result_q.cancel_join_thread()
            self._result_q = None

    # -- dispatch ------------------------------------------------------
    def dispatch(
        self,
        shards: Dict[int, Sequence],
        timeout_s: Optional[float] = None,
    ) -> Dict[int, ShardOutcome]:
        """Evaluate ``shards`` (index -> programs) across the pool.

        Returns one :class:`ShardOutcome` per input index.  Crashed or
        timed-out workers are respawned (with warm-up replay) before
        this call returns, but their shards are *not* silently
        retried -- the caller owns the re-dispatch/degrade policy.
        """
        if not self.started:
            self.start()
        todo = sorted(shards)
        outcomes: Dict[int, ShardOutcome] = {}
        assigned: Dict[int, _WorkerHandle] = {}  # task_key -> handle
        while len(outcomes) < len(shards):
            todo = self._assign(todo, shards, assigned, timeout_s)
            if todo and not assigned and not any(
                h.state in ("spawning", "idle") and h.alive
                for h in self._handles
            ):
                # Every worker is gone and nothing is in flight: fail
                # the rest as crashes so the caller can degrade.
                for index in todo:
                    outcomes[index] = ShardOutcome(
                        kind="crash",
                        error=BrokenProcessPool(
                            "no live workers left in the pool"
                        ),
                    )
                break
            self._drain_one(
                timeout=self._poll_timeout(assigned),
                assigned=assigned,
                outcomes=outcomes,
            )
            self._reap(assigned, outcomes)
        self._await_respawns()
        return outcomes

    def _await_respawns(self) -> None:
        """Block until in-flight respawn warm-ups finish (or die).

        The last shard can complete on a surviving worker while a
        replacement is still warming up; without this wait the
        replacement's ``worker_warmup`` event would race pool close
        and the next dispatch would start against a half-warm pool.
        A replacement that dies during warm-up is retired, not raised:
        the caller's degrade policy owns that decision.
        """
        deadline = time.monotonic() + self._start_timeout_s
        while any(
            h.state == "spawning" and h.alive for h in self._handles
        ):
            self._drain_one(timeout=_POLL_S, assigned={})
            for handle in self._handles:
                if handle.state == "spawning" and not handle.alive:
                    self._mark_dead(handle)
            if time.monotonic() > deadline:  # pragma: no cover
                break

    def _assign(
        self,
        todo: List[int],
        shards: Dict[int, Sequence],
        assigned: Dict[int, _WorkerHandle],
        timeout_s: Optional[float],
    ) -> List[int]:
        remaining = list(todo)
        for handle in self._handles:
            if not remaining:
                break
            if handle.state != "idle" or not handle.alive:
                continue
            index = remaining.pop(0)
            self._task_seq += 1
            task_key = self._task_seq
            handle.state = "busy"
            handle.task_key = task_key
            handle.shard_index = index
            handle.deadline = (
                time.monotonic() + timeout_s
                if timeout_s is not None
                else None
            )
            handle.timeout_s = timeout_s
            handle.task_q.put(("shard", task_key, list(shards[index])))
            assigned[task_key] = handle
        return remaining

    def _poll_timeout(
        self, assigned: Dict[int, _WorkerHandle]
    ) -> float:
        timeout = _POLL_S
        now = time.monotonic()
        for handle in assigned.values():
            if handle.deadline is not None:
                timeout = min(timeout, handle.deadline - now)
        return max(timeout, 0.001)

    def _drain_one(
        self,
        timeout: float,
        assigned: Dict[int, _WorkerHandle],
        outcomes: Optional[Dict[int, ShardOutcome]] = None,
    ) -> None:
        """Receive and apply at most one worker message."""
        try:
            message = self._result_q.get(timeout=timeout)
        except queue_module.Empty:
            return
        kind = message[0]
        if kind == "ready":
            _, worker_id, warmup_s, warm_stats = message
            for handle in self._handles:
                if (
                    handle.worker_id == worker_id
                    and handle.state == "spawning"
                ):
                    handle.state = "idle"
                    if warm_stats is not None:
                        self.worker_stats[worker_id] = warm_stats
                    self._log.emit(
                        "worker_warmup",
                        worker=worker_id,
                        pid=handle.process.pid,
                        warmup_s=warmup_s,
                        respawned=handle.respawned,
                        cache_stats=warm_stats,
                    )
                    break
            return
        if kind == "raised" and message[2] is None:
            # A worker failed inside warm-up: surface the original
            # exception to whoever is waiting on the pool.
            raise pickle.loads(message[3])
        _, worker_id, task_key = message[:3]
        handle = assigned.get(task_key) if outcomes is not None else None
        if handle is None:
            return  # stale message from a worker we already recycled
        del assigned[task_key]
        index = handle.shard_index
        handle.state = "idle"
        handle.task_key = None
        handle.shard_index = None
        handle.deadline = None
        if kind == "ok":
            _, _, _, results, stats = message
            if stats is not None:
                self.worker_stats[worker_id] = stats
            outcomes[index] = ShardOutcome(
                kind="ok", results=results, stats=stats
            )
        else:  # "raised"
            outcomes[index] = ShardOutcome(
                kind="raised", error=pickle.loads(message[3])
            )

    def _reap(
        self,
        assigned: Dict[int, _WorkerHandle],
        outcomes: Dict[int, ShardOutcome],
    ) -> None:
        """Convert dead / overdue workers into crash outcomes."""
        now = time.monotonic()
        for handle in self._handles:
            # A worker that died during a warm-up replay never gets an
            # assignment; retire its handle so liveness checks see it.
            if handle.state == "spawning" and not handle.process.is_alive():
                self._mark_dead(handle)
        for task_key, handle in list(assigned.items()):
            error: Optional[BaseException] = None
            if not handle.process.is_alive():
                error = BrokenProcessPool(
                    f"worker {handle.worker_id} died mid-shard "
                    f"(exitcode {handle.process.exitcode})"
                )
            elif (
                handle.deadline is not None and now > handle.deadline
            ):
                error = StageTimeout(
                    f"shard {handle.shard_index} exceeded "
                    f"{handle.timeout_s}s dispatch budget",
                    site="worker.shard",
                )
            if error is None:
                continue
            del assigned[task_key]
            outcomes[handle.shard_index] = ShardOutcome(
                kind="crash", error=error
            )
            if not self._closed:
                self._respawn(handle)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

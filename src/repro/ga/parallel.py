"""Parallel fitness evaluation for the GA engine, with resilience.

A generation's unseen genomes are independent measurements, so they can
be fanned out across worker processes.  The dispatch model (backed by
the persistent warm-cache pool in :mod:`repro.ga.workers`) is:

1. the engine dedupes the generation by genome against its memo cache,
2. unseen programs are split into one contiguous shard per worker and
   submitted as a single whole-population request to a
   :class:`~repro.ga.workers.PersistentWorkerPool` -- long-lived
   workers that received the fitness spec once at pool start, warmed
   their :class:`~repro.chain.session.SimulationSession` once, and
   keep those caches hot across generations; shards and their
   evaluations travel as plain pickles through the pool's queues, and
3. per-shard results are reassembled strictly in submission order.

Ordering is deterministic: results are keyed by shard index and each
shard preserves item order, so a *pure* fitness function produces
bit-identical ``GAResult`` histories at any worker count (the
``workers=4 == workers=1`` determinism test).  A fitness that draws
instrument noise (every fitness in :mod:`repro.ga.fitness`: the
analyzer's or the scope's RNG) advances one copy of that RNG per
worker process, so a ``workers=N`` run reproduces itself at the same
N but not the serial run.

Fitness callables must be picklable to cross the process boundary
(plain functions, dataclass instances such as
:class:`repro.ga.fitness.EMAmplitudeFitness` -- not closures).  The
constructor pickles the fitness spec once: an unpicklable fitness
degrades gracefully to serial evaluation, and otherwise those bytes
are the payload every pool worker starts from.

Resilience (see :mod:`repro.faults`): with a
:class:`~repro.faults.RetryPolicy` attached, transient faults raised
inside batch evaluation are retried with the fitness's RNG state
rewound (``fitness_state`` protocol), so a retried-to-success run is
bit-identical to a fault-free one.  Crashed workers
(:class:`~repro.faults.WorkerCrash`, dead worker processes, dispatch
timeouts) get their shards re-dispatched -- the pool respawns dead or
hung workers with a full warm-up replay, while a worker that merely
*raised* an injected ``WorkerCrash`` stays alive (its fault counters
keep advancing, exactly like the historical executor semantics).
After ``max_pool_restarts`` crash events the evaluator emits
``degraded_to_serial`` and finishes the campaign in-process.  A genome
that keeps failing after per-item retries is *quarantined*: it scores
:data:`PENALTY_SCORE` (emitting ``genome_quarantined``) so the GA
keeps advancing instead of dying with the instrument.
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cpu.program import LoopProgram
from repro.faults.errors import RETRYABLE_FAULTS, WorkerCrash
from repro.faults.plan import NULL_INJECTOR, FaultInjector
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.ga.fitness import (
    FitnessEvaluation,
    evaluate_programs,
    state_hooks,
)
from repro.ga.workers import PersistentWorkerPool
from repro.obs.events import NULL_LOG, EventLog

#: Score assigned to quarantined genomes.  Real fitness metrics
#: (EM amplitude in watts, droop in volts) are strictly positive, so
#: zero ranks a quarantined individual below every healthy one while
#: keeping generation means finite.
PENALTY_SCORE = 0.0

#: Crash events (WorkerCrash / dead worker / dispatch timeout) after
#: which the evaluator stops re-dispatching and finishes serially.
DEFAULT_MAX_POOL_RESTARTS = 3


def penalty_evaluation() -> FitnessEvaluation:
    """The placeholder evaluation a quarantined genome receives."""
    return FitnessEvaluation(
        score=PENALTY_SCORE,
        dominant_frequency_hz=0.0,
        max_droop_v=0.0,
        peak_to_peak_v=0.0,
        ipc=0.0,
        loop_frequency_hz=0.0,
    )


def shard(
    programs: Sequence[LoopProgram], workers: int
) -> List[List[LoopProgram]]:
    """Split ``programs`` into at most ``workers`` contiguous shards.

    Shard sizes differ by at most one, with the larger shards first;
    concatenating the shards reproduces the input order exactly.
    """
    count = min(workers, len(programs))
    base, extra = divmod(len(programs), count)
    shards = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        shards.append(list(programs[start:start + size]))
        start += size
    return shards


class ParallelEvaluator:
    """Evaluates batches of programs across a persistent worker pool.

    Parameters
    ----------
    fitness:
        The fitness callable.  If it cannot be pickled the evaluator
        silently evaluates serially in-process (``parallel`` is False).
    workers:
        Pool size; 1 means serial.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`.  Without one,
        transient faults propagate to the caller unchanged (the
        historical behavior); with one, batches are retried, failing
        shards re-dispatched and persistent failures quarantined.
    fault_injector:
        Optional armed :class:`~repro.faults.FaultInjector`, shipped to
        workers alongside the fitness (site ``worker.shard``).
    event_log:
        Destination for ``fault_injected`` / ``retry_attempt`` /
        ``worker_warmup`` / ``degraded_to_serial`` /
        ``genome_quarantined`` events.
    max_pool_restarts:
        Crash events tolerated before degrading to serial execution.
    """

    def __init__(
        self,
        fitness: Callable,
        workers: int,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        event_log: EventLog = NULL_LOG,
        max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        self._fitness = fitness
        self.workers = workers
        self._policy = retry_policy
        self._injector = (
            fault_injector if fault_injector is not None else NULL_INJECTOR
        )
        self._log = event_log
        self._max_pool_restarts = max_pool_restarts
        self._pool: Optional[PersistentWorkerPool] = None
        self._payload: Optional[bytes] = None
        self._picklable = False
        #: Crash events seen so far (worker deaths, injected crashes,
        #: dispatch timeouts).
        self.pool_crashes = 0
        #: Whether the evaluator has permanently fallen back to serial.
        self.degraded = False
        #: Genomes quarantined with a penalty score this run.
        self.quarantined: Set[Tuple] = set()
        if workers > 1:
            self._picklable = self._probe_picklability()

    def _probe_picklability(self) -> bool:
        """Whether the fitness spec can cross the process boundary.

        The probe's bytes become the pool payload.  Only pickling
        failures mean "fall back to serial"; anything else
        (KeyboardInterrupt, injected FaultErrors, AuditViolations)
        must propagate with its traceback.
        """
        try:
            self._payload = pickle.dumps(
                (self._fitness, self._injector, self._policy)
            )
        except (pickle.PicklingError, TypeError, AttributeError):
            return False
        return True

    @property
    def parallel(self) -> bool:
        """Whether batches actually fan out to worker processes."""
        return self._picklable and not self.degraded

    def evaluate(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        """Evaluate ``programs``, returning results in input order."""
        if not self.parallel or len(programs) <= 1:
            return self._evaluate_serial(programs)
        return self._evaluate_parallel(programs)

    def warm_up(self) -> None:
        """Start the worker pool eagerly (no-op when serial).

        Spawns the workers and blocks until every worker finished its
        fitness ``warm_up()`` hook, so the first ``evaluate`` call --
        and anything the caller times around it -- runs against warm
        caches.  Emits one ``worker_warmup`` event per worker.
        """
        if self.parallel:
            self._ensure_pool()

    def worker_stats(self) -> Dict[int, dict]:
        """Latest per-worker session cache stats (worker id keyed)."""
        if self._pool is None:
            return {}
        return dict(self._pool.worker_stats)

    # ------------------------------------------------------------------
    # serial path (workers=1, unpicklable fitness, or degraded)
    # ------------------------------------------------------------------
    def _evaluate_serial(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        if self._policy is None:
            return evaluate_programs(self._fitness, programs)
        capture, restore = state_hooks(self._fitness)
        try:
            return call_with_retry(
                lambda: evaluate_programs(self._fitness, programs),
                self._policy,
                event_log=self._log,
                scope="batch",
                capture_state=capture,
                restore_state=restore,
            )
        except RETRYABLE_FAULTS:
            # The whole batch kept failing; salvage item by item so one
            # poisoned genome cannot take the generation down with it.
            return self._salvage_items(programs)

    def _salvage_items(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        capture, restore = state_hooks(self._fitness)
        results: List[FitnessEvaluation] = []
        for program in programs:
            try:
                results.append(
                    call_with_retry(
                        lambda p=program: evaluate_programs(
                            self._fitness, [p]
                        )[0],
                        self._policy,
                        event_log=self._log,
                        scope="item",
                        capture_state=capture,
                        restore_state=restore,
                    )
                )
            except RETRYABLE_FAULTS as exc:
                genome = program.genome()
                self.quarantined.add(genome)
                self._log.emit(
                    "genome_quarantined",
                    program=program.name,
                    site=getattr(exc, "site", None),
                    kind=getattr(exc, "kind", type(exc).__name__),
                    retries=self._policy.max_retries,
                    penalty_score=PENALTY_SCORE,
                )
                results.append(penalty_evaluation())
        return results

    # ------------------------------------------------------------------
    # parallel path: persistent pool dispatch with crash recovery
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> PersistentWorkerPool:
        if self._pool is None:
            # The constructor's probe bytes: the fitness spec as it was
            # when this evaluator was built.
            self._pool = PersistentWorkerPool(
                self._payload, self.workers, event_log=self._log
            )
            self._pool.start()
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _record_crash(self, shard_index: int, exc: BaseException) -> None:
        self.pool_crashes += 1
        if isinstance(exc, WorkerCrash):
            self._log.emit(
                "fault_injected",
                site=exc.site,
                kind=exc.kind,
                scope="worker-shard",
                error=str(exc),
            )
        self._log.emit(
            "worker_crash",
            shard=shard_index,
            crashes=self.pool_crashes,
            max_pool_restarts=self._max_pool_restarts,
            error=str(exc) or type(exc).__name__,
        )

    def _evaluate_parallel(
        self, programs: Sequence[LoopProgram]
    ) -> List[FitnessEvaluation]:
        shards = shard(programs, self.workers)
        results: List[Optional[List[FitnessEvaluation]]] = (
            [None] * len(shards)
        )
        remaining = list(range(len(shards)))
        retry_counts = [0] * len(shards)
        timeout = self._policy.timeout_s if self._policy else None
        while remaining:
            if self.degraded:
                for i in remaining:
                    results[i] = self._evaluate_serial(shards[i])
                remaining = []
                break
            pool = self._ensure_pool()
            outcomes = pool.dispatch(
                {i: shards[i] for i in remaining}, timeout_s=timeout
            )
            next_remaining: List[int] = []
            for i in remaining:
                outcome = outcomes[i]
                if outcome.kind == "ok":
                    results[i] = outcome.results
                    continue
                exc = outcome.error
                if outcome.kind == "crash" or isinstance(
                    exc, WorkerCrash
                ):
                    # Dead/hung worker (already respawned warm by the
                    # pool) or an injected crash from a still-healthy
                    # worker: either way, re-dispatch the shard.
                    self._record_crash(i, exc)
                    next_remaining.append(i)
                elif isinstance(exc, RETRYABLE_FAULTS):
                    # A transient fault survived the worker's local
                    # retries (or no policy is attached).
                    if self._policy is None:
                        raise exc
                    retry_counts[i] += 1
                    if retry_counts[i] <= self._policy.max_retries:
                        self._log.emit(
                            "retry_attempt",
                            scope="shard",
                            attempt=retry_counts[i],
                            max_retries=self._policy.max_retries,
                            site=getattr(exc, "site", None),
                            kind=getattr(exc, "kind", None),
                            delay_s=0.0,
                        )
                        next_remaining.append(i)
                    else:
                        results[i] = self._salvage_items(shards[i])
                else:
                    raise exc
            if (
                next_remaining
                and self.pool_crashes > self._max_pool_restarts
            ):
                self.degraded = True
                self._teardown_pool()
                self._log.emit(
                    "degraded_to_serial",
                    crashes=self.pool_crashes,
                    max_pool_restarts=self._max_pool_restarts,
                    pending_shards=len(next_remaining),
                )
            remaining = next_remaining
        flattened: List[FitnessEvaluation] = []
        for shard_results in results:
            flattened.extend(shard_results)
        return flattened

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

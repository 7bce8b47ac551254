"""Island-model distributed GA with deterministic champion migration.

:class:`IslandGAEngine` shards one logical campaign across K
sub-populations ("islands").  Each island is an ordinary
:class:`~repro.ga.engine.GAEngine` running over its own
:class:`~repro.ga.parallel.ParallelEvaluator` (and therefore its own
persistent worker pool), advanced segment-by-segment with
:meth:`~repro.ga.engine.GAEngine.run_segment`.  Every
``migration_interval`` generations the islands pause at a common
boundary and exchange champions along a deterministic
:mod:`~repro.ga.topology` (ring / star / all-to-all); the exchange is
applied by editing the ``population`` of each island's
:class:`~repro.ga.engine.GACheckpoint` between segments, so migration
rides entirely on the existing checkpoint/resume contract.

Determinism contract
--------------------
* Island ``i`` of a campaign seeded ``s`` runs with
  ``seed = island_seed(s, i)`` and a population of
  ``island_population_sizes(total, K)[i]`` individuals.  With
  migration disabled (``migration_interval=None``) every island's
  history is **bit-identical** to an independent ``GAEngine`` run with
  that derived config -- pinned by ``tests/ga/test_islands.py``.
* ``island_seed(s, 0) == s``, so a single island reproduces the plain
  engine exactly.
* Migration links are canonically ordered and emigrants are chosen by
  population index (slot 0 of a freshly bred population is the
  island's elite champion), so a fixed seed reproduces identical
  results for every (K, topology, workers) combination.
* Segment boundaries are invisible: ``run_segment`` + resume is
  bit-identical to an uninterrupted run, so checkpointing / crash
  recovery / migration never perturb the trajectory.

Fault tolerance
---------------
Each island gets its own :class:`~repro.faults.FaultInjector` replica
(same plan, independent counters) and visits the
``island.<i>.segment`` site at every segment attempt.  When a segment
dies -- an injected :class:`~repro.faults.FaultError` or a real
``BrokenProcessPool`` -- the island is rebuilt from its newest
surviving checkpoint (rotated disk checkpoint if one is loadable,
otherwise the in-memory boundary state), its fitness replica is
restored from the prototype, and the segment is retried up to
``max_island_restarts`` times, emitting ``island_recovered``.
Because recovery resumes from a checkpoint, a recovered run is
bit-identical to one that never crashed.
"""

from __future__ import annotations

import json
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from concurrent.futures.process import BrokenProcessPool

from repro.cpu.isa import InstructionSpec
from repro.faults.errors import FaultError
from repro.faults.plan import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.ga.engine import (
    GACheckpoint,
    GAConfig,
    GAEngine,
    GAResult,
    GenerationRecord,
)
from repro.ga.parallel import ParallelEvaluator
from repro.ga.topology import TOPOLOGIES, migrate, migration_links
from repro.obs.events import NULL_LOG, EventLog


@dataclass(frozen=True)
class IslandConfig:
    """Distribution hyperparameters, orthogonal to :class:`GAConfig`.

    ``migration_interval=None`` disables migration entirely, turning
    the campaign into K independent seeded runs (the equivalence the
    determinism suite pins).  ``concurrent=False`` runs island
    segments sequentially on the calling thread -- results are
    identical either way; the switch only trades wall-clock for
    debuggability.
    """

    islands: int = 1
    topology: str = "ring"
    migration_interval: Optional[int] = 5
    max_island_restarts: int = 2
    concurrent: bool = True

    def __post_init__(self) -> None:
        if self.islands < 1:
            raise ValueError("islands must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {TOPOLOGIES}"
            )
        if (
            self.migration_interval is not None
            and self.migration_interval < 1
        ):
            raise ValueError(
                "migration_interval must be >= 1 (or None to disable)"
            )
        if self.max_island_restarts < 0:
            raise ValueError("max_island_restarts must be >= 0")


def island_seed(seed: int, island: int) -> int:
    """The derived RNG seed for ``island`` of a campaign seeded ``seed``.

    Island 0 keeps the campaign seed unchanged -- a one-island campaign
    is the plain engine.  Other islands draw a decorrelated 64-bit seed
    from ``np.random.SeedSequence([seed, island])``, so the per-island
    streams are independent yet fully determined by the campaign seed.
    """
    if island < 0:
        raise ValueError("island must be >= 0")
    if island == 0:
        return seed
    seq = np.random.SeedSequence([seed, island])
    return int(seq.generate_state(1, np.uint64)[0])


def island_population_sizes(total: int, islands: int) -> Tuple[int, ...]:
    """Split ``total`` individuals across ``islands``, larger first.

    ``divmod`` apportionment: the first ``total % islands`` islands get
    one extra individual.  Every island must end up with at least two
    individuals (the GA's own floor), otherwise the split is rejected.
    """
    if islands < 1:
        raise ValueError("islands must be >= 1")
    base, extra = divmod(total, islands)
    sizes = tuple(
        base + 1 if i < extra else base for i in range(islands)
    )
    if min(sizes) < 2:
        raise ValueError(
            f"population_size={total} cannot be split across "
            f"{islands} islands (smallest island would have "
            f"{min(sizes)} < 2 individuals)"
        )
    return sizes


def segment_ends(
    start: int, total: int, interval: Optional[int]
) -> List[int]:
    """Generation indices at which segments stop, in execution order.

    Boundaries fall on multiples of ``interval`` regardless of
    ``start``, so a run resumed from a mid-epoch checkpoint hits the
    same migration points an uninterrupted run does.
    """
    ends: List[int] = []
    g = start
    while g < total:
        if interval is None:
            nxt = total
        else:
            nxt = min(total, ((g // interval) + 1) * interval)
        ends.append(nxt)
        g = nxt
    return ends


@dataclass
class IslandGAResult:
    """Outcome of an island campaign.

    ``config`` is the *base* aggregate config (total population size,
    campaign seed); ``results`` holds one per-island
    :class:`GAResult` carrying that island's derived config and full
    history.
    """

    config: GAConfig
    island_config: IslandConfig
    results: Tuple[GAResult, ...]

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.results)

    @property
    def best_island(self) -> int:
        """Index of the island holding the campaign champion.

        Ties break toward the earliest generation, then the lowest
        island index -- the same deterministic order migration uses.
        """
        best_key = None
        best_idx = 0
        for idx, result in enumerate(self.results):
            for record in result.history:
                key = (record.best.score, -record.generation, -idx)
                if best_key is None or key > best_key:
                    best_key = key
                    best_idx = idx
        return best_idx

    @property
    def best(self) -> GenerationRecord:
        return self.results[self.best_island].best

    @property
    def best_program(self):
        return self.best.best_program

    def merged(self) -> GAResult:
        """Fold the island histories into one campaign-level result.

        For each generation the best island record wins (score ties
        break toward the lowest island index), so the merged history's
        ``best`` matches :attr:`best` and downstream consumers --
        reports, re-measurement, serialization -- see an ordinary
        :class:`GAResult`.  ``mean_score`` of a merged record is the
        winning island's own population mean.
        """
        if not self.results:
            raise ValueError("no island results to merge")
        generations = min(len(r.history) for r in self.results)
        history: List[GenerationRecord] = []
        for g in range(generations):
            chosen = max(
                range(len(self.results)),
                key=lambda i: (self.results[i].history[g].best.score, -i),
            )
            history.append(self.results[chosen].history[g])
        return GAResult(
            config=self.config,
            history=history,
            evaluations=self.evaluations,
        )


@dataclass
class IslandCheckpoint:
    """Mid-campaign state of every island plus the distribution meta."""

    config: GAConfig
    island_config: IslandConfig
    checkpoints: List[GACheckpoint]

    @property
    def generation(self) -> int:
        """The campaign generation (minimum across islands)."""
        return min(c.generation for c in self.checkpoints)


ISLAND_META_FILE = "islands.json"


def island_checkpoint_path(
    directory: Union[str, Path], island: int
) -> Path:
    """Per-island checkpoint file inside an island checkpoint dir."""
    return Path(directory) / f"island-{island:02d}.json"


def save_island_checkpoint(
    checkpoint: IslandCheckpoint,
    directory: Union[str, Path],
    injector=None,
) -> Path:
    """Write an island checkpoint directory.

    Layout: one rotated, checksummed per-island file
    (``island-NN.json``, the ordinary GA checkpoint format) plus an
    atomically-replaced ``islands.json`` meta file recording the
    distribution parameters.  The meta file is written *last*, so a
    directory with a valid meta always has matching island files.
    """
    from repro.io.serialization import (
        island_meta_to_dict,
        save_checkpoint,
    )

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, ckpt in enumerate(checkpoint.checkpoints):
        save_checkpoint(
            ckpt, island_checkpoint_path(directory, i), injector=injector
        )
    meta = island_meta_to_dict(
        checkpoint.config,
        checkpoint.island_config,
        [c.generation for c in checkpoint.checkpoints],
    )
    meta_path = directory / ISLAND_META_FILE
    tmp = meta_path.with_name(meta_path.name + ".tmp")
    tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
    tmp.replace(meta_path)
    return directory


def load_island_checkpoint(
    directory: Union[str, Path], event_log=None
) -> IslandCheckpoint:
    """Read an island checkpoint directory written by
    :func:`save_island_checkpoint`, using each island file's rotation
    fallback (corrupt islands recover from their ``.1``/``.2``
    siblings, emitting ``checkpoint_recovered``)."""
    from repro.io.serialization import (
        island_meta_from_dict,
        load_checkpoint,
    )

    directory = Path(directory)
    meta_path = directory / ISLAND_META_FILE
    if not directory.is_dir():
        raise FileNotFoundError(
            f"no island checkpoint directory at {directory}"
        )
    if not meta_path.exists():
        raise FileNotFoundError(
            f"no island checkpoint in {directory} "
            f"(missing {ISLAND_META_FILE})"
        )
    meta = island_meta_from_dict(
        json.loads(meta_path.read_text(encoding="utf-8"))
    )
    config, island_config = meta
    checkpoints = [
        load_checkpoint(
            island_checkpoint_path(directory, i), event_log=event_log
        )
        for i in range(island_config.islands)
    ]
    return IslandCheckpoint(
        config=config,
        island_config=island_config,
        checkpoints=checkpoints,
    )


class _IslandLog:
    """EventLog facade stamping every record with its island index.

    The base log is swapped in by :meth:`IslandGAEngine.run`, so
    evaluators built before the run (``warm_up``) still report into
    the run's log.  ``EventLog.emit`` is lock-protected, making this
    safe from concurrent island threads.
    """

    def __init__(self, island: int):
        self.island = island
        self.base: EventLog = NULL_LOG

    @property
    def enabled(self) -> bool:
        return self.base.enabled

    def emit(self, event: str, **payload) -> None:
        self.base.emit(event, island=self.island, **payload)


class IslandGAEngine:
    """Drives K sharded :class:`GAEngine` instances with migration.

    ``fitness`` is the prototype fitness callable; each island runs an
    independent *replica* (a pickle round-trip of the prototype --
    exactly how worker processes already receive their copies, so
    session state is rebuilt per island and instrument RNGs advance
    per island).  An unpicklable fitness runs only with
    ``islands=1``.

    ``fault_injector`` supplies the :class:`~repro.faults.FaultPlan`;
    every island arms its own injector replica with independent visit
    counters, so per-island fault schedules are deterministic
    (``island.<i>.segment`` targets one island; ``worker.shard``
    chaos fires identically on each).

    Like :class:`GAEngine`, one engine instance drives one campaign:
    evaluators (and their worker pools) persist across
    :meth:`warm_up`/:meth:`run` until :meth:`close`.
    """

    def __init__(
        self,
        fitness: Callable,
        config: GAConfig = GAConfig(),
        island_config: IslandConfig = IslandConfig(),
        pool: Optional[Sequence[InstructionSpec]] = None,
        memoize: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.config = config
        self.island_config = island_config
        self._pool = tuple(pool) if pool is not None else None
        self._memoize = memoize
        self._retry_policy = retry_policy
        k = island_config.islands
        self._sizes = island_population_sizes(config.population_size, k)
        if (
            island_config.migration_interval is not None
            and island_config.topology == "all-to-all"
            and k - 1 > min(self._sizes)
        ):
            raise ValueError(
                f"all-to-all migration needs every island to hold at "
                f"least {k - 1} individuals; smallest island has "
                f"{min(self._sizes)}"
            )
        self._configs = tuple(
            replace(
                config,
                population_size=self._sizes[i],
                seed=island_seed(config.seed, i),
            )
            for i in range(k)
        )
        self._proto: Optional[bytes] = None
        if k == 1:
            self._replicas = [fitness]
        else:
            try:
                self._proto = pickle.dumps(fitness)
            except (
                pickle.PicklingError, TypeError, AttributeError
            ) as exc:
                raise ValueError(
                    "fitness is not picklable, so it runs only with "
                    f"islands=1 ({exc})"
                ) from exc
            self._replicas = [
                pickle.loads(self._proto) for _ in range(k)
            ]
        plan = fault_injector.plan if fault_injector is not None else None
        self._injectors: List[Optional[FaultInjector]] = [
            FaultInjector(plan) if plan is not None else None
            for _ in range(k)
        ]
        self._logs = [_IslandLog(i) for i in range(k)]
        self._evaluators: Optional[List[ParallelEvaluator]] = None

    # ------------------------------------------------------------------
    # evaluator lifecycle
    # ------------------------------------------------------------------
    def _build_evaluator(self, island: int) -> ParallelEvaluator:
        return ParallelEvaluator(
            self._replicas[island],
            self._configs[island].workers,
            retry_policy=self._retry_policy,
            fault_injector=self._injectors[island],
            event_log=self._logs[island],
        )

    def _ensure_evaluators(self) -> List[ParallelEvaluator]:
        if self._evaluators is None:
            self._evaluators = [
                self._build_evaluator(i)
                for i in range(self.island_config.islands)
            ]
        return self._evaluators

    def warm_up(self) -> None:
        """Spawn every island's worker pool eagerly (no-op when
        serial), so a subsequent :meth:`run` is not charged for pool
        and session warm-up."""
        for evaluator in self._ensure_evaluators():
            evaluator.warm_up()

    def close(self) -> None:
        if self._evaluators is not None:
            for evaluator in self._evaluators:
                evaluator.close()
            self._evaluators = None

    def __enter__(self) -> "IslandGAEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the campaign loop
    # ------------------------------------------------------------------
    def run(
        self,
        isa,
        progress: Optional[
            Callable[[int, GenerationRecord], None]
        ] = None,
        event_log: Optional[EventLog] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 5,
        resume: Optional[IslandCheckpoint] = None,
    ) -> IslandGAResult:
        """Run the sharded campaign to ``config.generations``.

        ``progress`` receives ``(island, record)`` per generation.
        ``checkpoint_dir`` enables durable state: each island
        checkpoints into its own rotated file every
        ``checkpoint_every`` generations *and* at every migration
        boundary (post-migration), with the ``islands.json`` meta
        refreshed at boundaries -- :func:`load_island_checkpoint` of
        that directory feeds ``resume`` and continues bit-identically.
        """
        cfg = self.config
        icfg = self.island_config
        k = icfg.islands
        log = event_log if event_log is not None else NULL_LOG
        for view in self._logs:
            view.base = log
        state: List[Optional[GACheckpoint]] = [None] * k
        start = 0
        if resume is not None:
            self._check_resume(resume)
            state = list(resume.checkpoints)
            start = resume.generation
        log.emit(
            "island_run_start",
            islands=k,
            topology=icfg.topology,
            migration_interval=icfg.migration_interval,
            population_sizes=list(self._sizes),
            seeds=[c.seed for c in self._configs],
            resumed_from_generation=start if resume else None,
        )
        evaluators = self._ensure_evaluators()
        boundaries = segment_ends(
            start, cfg.generations, icfg.migration_interval
        )
        for seg_end in boundaries:
            self._run_epoch(
                isa,
                seg_end,
                state,
                evaluators,
                progress,
                checkpoint_dir,
                checkpoint_every,
            )
            final = seg_end >= cfg.generations
            migrated = False
            # Migrate whenever the boundary is a multiple of the
            # interval -- including at the final boundary, where the
            # exchange is unobservable for *this* horizon but keeps a
            # truncated run's checkpoint bit-identical to the same
            # boundary of a longer-horizon run (the resume contract).
            migrate_here = (
                icfg.migration_interval is not None
                and seg_end % icfg.migration_interval == 0
            )
            if migrate_here:
                links = migration_links(k, icfg.topology)
                if links:
                    log.emit(
                        "migration_start",
                        generation=seg_end,
                        topology=icfg.topology,
                        links=[list(link) for link in links],
                    )
                    populations = [state[i].population for i in range(k)]
                    exchanged = migrate(populations, links)
                    for i in range(k):
                        state[i].population = exchanged[i]
                    log.emit(
                        "migration_end",
                        generation=seg_end,
                        migrants=len(links),
                    )
                    migrated = True
            if checkpoint_dir is not None and (migrated or final):
                save_island_checkpoint(
                    IslandCheckpoint(
                        config=cfg,
                        island_config=icfg,
                        checkpoints=[state[i] for i in range(k)],
                    ),
                    checkpoint_dir,
                )
                log.emit(
                    "checkpoint_saved",
                    generation=seg_end,
                    path=str(checkpoint_dir),
                    islands=k,
                )
        results = tuple(
            GAResult(
                config=self._configs[i],
                history=list(state[i].history),
                evaluations=state[i].evaluations,
            )
            for i in range(k)
        )
        outcome = IslandGAResult(
            config=cfg, island_config=icfg, results=results
        )
        best = outcome.best
        log.emit(
            "island_run_end",
            islands=k,
            evaluations=outcome.evaluations,
            best_island=outcome.best_island,
            best_generation=best.generation,
            best_score=best.best.score,
        )
        return outcome

    def _run_epoch(
        self,
        isa,
        seg_end: int,
        state: List[Optional[GACheckpoint]],
        evaluators: List[ParallelEvaluator],
        progress,
        checkpoint_dir,
        checkpoint_every: int,
    ) -> None:
        """Advance every island to ``seg_end`` (concurrently when
        configured), updating ``state`` in place."""
        k = self.island_config.islands
        pending = [
            i
            for i in range(k)
            if state[i] is None or state[i].generation < seg_end
        ]
        if not pending:
            return
        if self.island_config.concurrent and len(pending) > 1:
            with ThreadPoolExecutor(max_workers=len(pending)) as pool:
                futures = {
                    i: pool.submit(
                        self._run_island_segment,
                        isa,
                        i,
                        seg_end,
                        state[i],
                        evaluators,
                        progress,
                        checkpoint_dir,
                        checkpoint_every,
                    )
                    for i in pending
                }
                for i, future in futures.items():
                    state[i] = future.result()
        else:
            for i in pending:
                state[i] = self._run_island_segment(
                    isa,
                    i,
                    seg_end,
                    state[i],
                    evaluators,
                    progress,
                    checkpoint_dir,
                    checkpoint_every,
                )

    def _run_island_segment(
        self,
        isa,
        island: int,
        seg_end: int,
        checkpoint: Optional[GACheckpoint],
        evaluators: List[ParallelEvaluator],
        progress,
        checkpoint_dir,
        checkpoint_every: int,
    ) -> GACheckpoint:
        """One island's segment, with crash recovery.

        Each attempt visits the ``island.<i>.segment`` fault site,
        builds a fresh :class:`GAEngine` around the island's fitness
        replica and runs :meth:`GAEngine.run_segment`.  On a fault or
        a broken pool the island is restored from its newest surviving
        checkpoint (disk beats the in-memory boundary state when it is
        further along), the replica and evaluator are rebuilt, and the
        segment retries -- up to ``max_island_restarts`` times.
        """
        log = self._logs[island]
        injector = self._injectors[island]
        island_path = (
            island_checkpoint_path(checkpoint_dir, island)
            if checkpoint_dir is not None
            else None
        )
        island_progress = (
            (lambda record: progress(island, record))
            if progress is not None
            else None
        )
        attempts = self.island_config.max_island_restarts + 1
        for attempt in range(attempts):
            try:
                if injector is not None:
                    injector.visit(f"island.{island}.segment")
                engine = GAEngine(
                    self._replicas[island],
                    self._configs[island],
                    pool=self._pool,
                    memoize=self._memoize,
                    retry_policy=self._retry_policy,
                    fault_injector=injector,
                )
                return engine.run_segment(
                    isa,
                    seg_end,
                    resume=checkpoint,
                    event_log=log,
                    progress=island_progress,
                    checkpoint_path=island_path,
                    checkpoint_every=checkpoint_every,
                    evaluator=evaluators[island],
                )
            except (FaultError, BrokenProcessPool) as exc:
                if attempt + 1 >= attempts:
                    raise
                checkpoint, source = self._recover_island(
                    island, checkpoint, island_path, seg_end, evaluators
                )
                log.emit(
                    "island_recovered",
                    attempt=attempt + 1,
                    error=type(exc).__name__,
                    source=source,
                    generation=(
                        checkpoint.generation
                        if checkpoint is not None
                        else 0
                    ),
                )
                if (
                    checkpoint is not None
                    and checkpoint.generation >= seg_end
                ):
                    # The newest checkpoint already covers the segment
                    # (the crash hit after the final periodic save).
                    return checkpoint
        raise AssertionError("unreachable")  # pragma: no cover

    def _recover_island(
        self,
        island: int,
        boundary: Optional[GACheckpoint],
        island_path: Optional[Path],
        seg_end: int,
        evaluators: List[ParallelEvaluator],
    ) -> Tuple[Optional[GACheckpoint], str]:
        """Pick the newest recovery point and rebuild the island.

        The fitness replica is re-instantiated from the prototype so a
        half-run attempt cannot leak analyzer state into the retry --
        the checkpoint's ``fitness_state`` restores the true position
        on resume.  The evaluator (and its worker pool) is rebuilt
        because the old pool may be broken or degraded.
        """
        from repro.io.serialization import (
            SerializationError,
            load_checkpoint,
        )

        candidate: Optional[GACheckpoint] = boundary
        source = "memory-checkpoint" if boundary is not None else "fresh"
        if island_path is not None:
            try:
                disk = load_checkpoint(
                    island_path, event_log=self._logs[island]
                )
            except (FileNotFoundError, SerializationError):
                disk = None
            if disk is not None and disk.generation <= seg_end:
                if (
                    candidate is None
                    or disk.generation > candidate.generation
                ):
                    candidate = disk
                    source = "disk-checkpoint"
        if self._proto is not None:
            self._replicas[island] = pickle.loads(self._proto)
        if self._evaluators is not None:
            self._evaluators[island].close()
            self._evaluators[island] = self._build_evaluator(island)
            evaluators[island] = self._evaluators[island]
        return candidate, source

    def _check_resume(self, resume: IslandCheckpoint) -> None:
        theirs = resume.island_config
        ours = self.island_config
        if (
            theirs.islands != ours.islands
            or theirs.topology != ours.topology
            or theirs.migration_interval != ours.migration_interval
        ):
            raise ValueError(
                "island checkpoint distribution does not match engine: "
                f"{theirs} vs {ours}"
            )
        if len(resume.checkpoints) != ours.islands:
            raise ValueError(
                f"island checkpoint holds {len(resume.checkpoints)} "
                f"islands, engine expects {ours.islands}"
            )
        base = replace(resume.config, generations=1, workers=1)
        mine = replace(self.config, generations=1, workers=1)
        if base != mine:
            raise ValueError(
                "island checkpoint base config does not match engine "
                f"config: {resume.config} vs {self.config}"
            )


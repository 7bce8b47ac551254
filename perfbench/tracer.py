"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of each ``repro`` layer from the
outside: nothing under ``src/`` is edited, and an untraced run installs
none of it.  Each span keeps ``(id, name, start, end, parent)`` in
memory until the run ends; self time is a span's duration minus the
time its child spans cover.  Spans nest per thread, so the service's
worker thread and event-loop thread each keep their own stack.

Functions are patched at the name their caller looks up: a module that
did ``from repro.pdn.impedance import analyze_ac`` holds its own
reference, so every such module is patched too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, owner attribute or None for a module function, function, span)
# (``SignalPath.run`` and ``EventLog.emit`` get wrappers of their own.)
SPAN_SITES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.chain.stages", "ExecuteStage", "run", "chain.execute"),
    ("repro.chain.stages", "CurrentStage", "run", "chain.current"),
    ("repro.chain.stages", "PDNStage", "run", "chain.pdn"),
    ("repro.chain.stages", "RadiateStage", "run", "chain.radiate"),
    ("repro.chain.stages", "PropagateStage", "run", "chain.propagate"),
    ("repro.chain.stages", "ReceiveStage", "run", "chain.receive"),
    ("repro.cpu.pipeline", "Pipeline", "execute", "cpu.pipeline_execute"),
    ("repro.cpu.current", "CurrentModel", "trace", "cpu.current_trace"),
    ("repro.pdn.impedance", None, "analyze_ac", "pdn.analyze_ac"),
    ("repro.pdn.steady_state", None, "analyze_ac", "pdn.analyze_ac"),
    ("repro.pdn.models", None, "analyze_ac", "pdn.analyze_ac"),
    ("repro.pdn.boards", None, "analyze_ac", "pdn.analyze_ac"),
    (
        "repro.pdn.steady_state",
        "SteadyStateSolver",
        "solve",
        "pdn.steady_state_solve",
    ),
    ("repro.em.radiation", "DieRadiator", "emission", "em.emission"),
    (
        "repro.instruments.spectrum_analyzer",
        "SpectrumAnalyzer",
        "max_amplitude_from_power",
        "analyzer.max_amplitude",
    ),
    (
        "repro.instruments.spectrum_analyzer",
        "SpectrumAnalyzer",
        "trace_from_power",
        "analyzer.trace",
    ),
    (
        "repro.ga.fitness",
        "EMAmplitudeFitness",
        "evaluate_batch",
        "ga.fitness_batch",
    ),
    ("repro.ga.engine", "GAEngine", "run", "ga.engine"),
    ("repro.platforms.base", "Cluster", "run", "platforms.cluster_run"),
    ("repro.stability.vmin", "VminTester", "run", "stability.vmin_run"),
    ("repro.io.serialization", None, "save_checkpoint", "io.checkpoint_write"),
    ("repro.io.serialization", None, "save_virus_archive", "io.archive_write"),
    ("repro.obs.manifest", "RunManifest", "write", "obs.manifest_write"),
    ("repro.obs.manifest", None, "git_describe", "obs.git_describe"),
    ("repro.service.core", "MeasurementService", "_persist", "service.persist"),
)

#: Call sites counted without a span (too many calls for a span each).
COUNT_SITES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.pdn.netlist", "Circuit", "ac_matrix", "pdn.ac_matrix"),
)

#: Events whose payload the recorder keeps (GA generations).
CAPTURED_EVENTS = frozenset({"generation_start", "generation_end"})


class SpanRecorder:
    """In-memory span and counter store behind the patched functions."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or -1, self seconds)
        self.spans: List[Tuple[int, str, float, float, int, float]] = []
        self.counts: Counter = Counter()
        self.cache: Counter = Counter()
        #: (event name, perf_counter stamp, payload)
        self.events: List[Tuple[str, float, dict]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, call: Callable, args, kwargs):
        stack = self._stack()
        frame = [next(self._ids), 0.0]  # [span id, child seconds]
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append(
                (
                    frame[0],
                    name,
                    start,
                    end,
                    parent[0] if parent is not None else -1,
                    duration - frame[1],
                )
            )

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _owner(module: str, cls: Optional[str]):
        mod = importlib.import_module(module)
        return getattr(mod, cls) if cls else mod

    def install(self) -> None:
        """Patch every site; :meth:`uninstall` puts the originals back."""
        from repro.chain.path import SignalPath
        from repro.obs.events import EventLog

        for module, cls, attr, name in SPAN_SITES:
            owner = self._owner(module, cls)
            self._patch(
                owner, attr, self._span_wrapper(owner.__dict__[attr], name)
            )
        for module, cls, attr, name in COUNT_SITES:
            owner = self._owner(module, cls)
            self._patch(
                owner, attr, self._count_wrapper(owner.__dict__[attr], name)
            )
        self._patch(SignalPath, "run", self._chain_wrapper(SignalPath.run))
        self._patch(EventLog, "emit", self._emit_wrapper(EventLog.emit))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _span_wrapper(self, original, name: str):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._span(name, original, args, kwargs)

        return wrapper

    def _count_wrapper(self, original, name: str):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _chain_wrapper(self, original):
        @functools.wraps(original)
        def wrapper(path, request, *args, **kwargs):
            result = self._span(
                "chain.run", original, (path, request) + args, kwargs
            )
            self.counts["chain.items"] += len(result.items)
            self.cache.update(result.cache_stats)
            return result

        return wrapper

    def _emit_wrapper(self, original):
        @functools.wraps(original)
        def wrapper(log, event, **payload):
            if not log.enabled:
                return original(log, event, **payload)
            if event in CAPTURED_EVENTS:
                self.events.append((event, time.perf_counter(), payload))
            return self._span(
                "obs.event_emit", original, (log, event), payload
            )

        return wrapper

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "self_s"}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for _id, name, _start, _end, _parent, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return out

    def covered_s(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` covered by at least one root span
        (any thread), so overlapping threads are not double counted."""
        roots = sorted(
            (max(s, start), min(e, end))
            for _id, _n, s, e, parent, _self in self.spans
            if parent == -1 and e > start and s < end
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in roots:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return covered

    def generation_times(self) -> List[float]:
        """GA generation durations from the captured event stamps: one
        ``generation_start`` to the next, the last one to its
        ``generation_end``."""
        starts = [t for e, t, _ in self.events if e == "generation_start"]
        ends = [t for e, t, _ in self.events if e == "generation_end"]
        times = [b - a for a, b in zip(starts, starts[1:])]
        if starts and ends:
            times.append(ends[-1] - starts[-1])
        return times


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Per-layer numbers of one traced unit (names as in BENCHMARK.json)."""
    spans = rec.summary()

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    m: Dict[str, float] = {
        "pdn.analyze_ac.calls": calls("pdn.analyze_ac"),
        "pdn.analyze_ac.s": self_s("pdn.analyze_ac"),
        "pdn.ac_matrix.calls": rec.counts["pdn.ac_matrix"],
        "pdn.steady_state_solve.s": self_s("pdn.steady_state_solve"),
        "cpu.pipeline_execute.calls": calls("cpu.pipeline_execute"),
        "cpu.pipeline_execute.s": self_s("cpu.pipeline_execute"),
        "cpu.current_trace.s": self_s("cpu.current_trace"),
        "analyzer.max_amplitude.s": self_s("analyzer.max_amplitude"),
        "analyzer.trace.s": self_s("analyzer.trace"),
        "em.emission.s": self_s("em.emission"),
        "chain.runs": calls("chain.run"),
        "chain.items": rec.counts["chain.items"],
        "ga.fitness_batch.s": self_s("ga.fitness_batch"),
        "ga.engine.self_s": self_s("ga.engine"),
        "platforms.cluster_run.calls": calls("platforms.cluster_run"),
        "platforms.cluster_run.s": self_s("platforms.cluster_run"),
        "stability.vmin_run.s": self_s("stability.vmin_run"),
        "io.checkpoint_write.calls": calls("io.checkpoint_write"),
        "io.checkpoint_write.s": self_s("io.checkpoint_write"),
        "io.archive_write.s": self_s("io.archive_write"),
        "obs.event_emit.calls": calls("obs.event_emit"),
        "obs.event_emit.s": self_s("obs.event_emit"),
        "obs.manifest_write.s": self_s("obs.manifest_write"),
        "obs.git_describe.calls": calls("obs.git_describe"),
        "obs.git_describe.s": self_s("obs.git_describe"),
        "service.persist.s": self_s("service.persist"),
    }
    for stage in ("execute", "current", "pdn", "radiate", "propagate",
                  "receive"):
        m[f"chain.{stage}.self_s"] = self_s(f"chain.{stage}")
    for cache in ("tf", "execute", "gain", "tilt"):
        hits = rec.cache[f"{cache}_hits"]
        lookups = hits + rec.cache[f"{cache}_misses"]
        m[f"session.{cache}.hits"] = hits
        m[f"session.{cache}.lookups"] = lookups
        m[f"session.{cache}.hit_ratio"] = hits / lookups if lookups else 0.0
    gen_ends = [p for e, _, p in rec.events if e == "generation_end"]
    fresh = sum(p.get("fresh_evaluations", 0) for p in gen_ends)
    hits = sum(p.get("cache_hits", 0) for p in gen_ends)
    m["ga.fresh_evals"] = fresh
    m["ga.fitness_cache.hits"] = hits
    m["ga.fitness_cache.lookups"] = fresh + hits
    m["ga.fitness_cache.hit_ratio"] = (
        hits / (fresh + hits) if fresh + hits else 0.0
    )
    gens = rec.generation_times()
    m["ga.generation.p50_s"] = statistics.median(gens) if gens else 0.0
    m["ga.generations"] = len(gens)
    return m

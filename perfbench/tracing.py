"""Spans recorded from outside the program, and the per-layer figures they give.

:func:`install` wraps the public entry points of each layer — class methods,
which every caller looks up at call time — so the program's own code is
unchanged.  A span records its name, start, end, parent span, thread and
the operation id the benchmark set on that thread.  Spans stay in memory
and are written out at the end as Chrome trace events.  While the tracer is
disabled a wrapper costs one attribute check.

A layer's self time is its span's duration minus its children's.  The lazy
neighbourhood BFS of ``SessionArtifacts`` has no public entry point of its
own, so it is billed to whichever wrapped layer first asks for it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "attrs")

    def __init__(self, sid, name, start, parent, op, thread):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(
            data["id"], data["name"], data["start"], data["parent"], data["op"], data["thread"]
        )
        span.end = data["end"]
        span.attrs = dict(data["attrs"])
        return span


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def set_op(self, op: Optional[str]) -> None:
        self._local.op = op

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            clock(),
            stack[-1].id if stack else None,
            getattr(self._local, "op", None),
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        """A span of the benchmark's own (no-op while disabled)."""
        if not self.enabled:
            yield None
            return
        span = self.open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        probe: Optional[Callable] = None,
        annotate: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a method, classmethod or module function)
        with a recording wrapper.  ``probe(args)`` runs before the call;
        ``annotate(span, args, result, probed)`` may rename the span or add
        attributes after it."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            probed = probe(args) if probe is not None else None
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                annotate(span, args, result, probed)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def write_chrome_trace(self, path) -> None:
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {"id": span.id, "parent": span.parent, "op": span.op, **span.attrs},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


# --------------------------------------------------------------------------- #
# the wrapped entry points
# --------------------------------------------------------------------------- #


def _classified(prefix: str, counters: Iterable[str]):
    """probe/annotate pair naming a span ``prefix.build|rebase|hit`` from which
    of the owner's build counters the call moved."""
    build_attr, rebase_attr = counters

    def probe(args):
        owner = args[0]
        return getattr(owner, build_attr), getattr(owner, rebase_attr)

    def annotate(span, args, result, before):
        owner = args[0]
        if getattr(owner, rebase_attr) > before[1]:
            span.name = f"{prefix}.rebase"
        elif getattr(owner, build_attr) > before[0]:
            span.name = f"{prefix}.build"
        else:
            span.name = f"{prefix}.hit"
        return span

    return probe, annotate


def _candidates_annotate(classify):
    def annotate(span, args, result, before):
        classify(span, args, result, before)
        if span.name != "candidates.hit":
            span.attrs["pairs"] = len(result.pairs)
            if result.blocking is not None:
                span.attrs["quadratic_pairs"] = result.blocking.quadratic_pairs
                span.attrs["enumerated_pairs"] = result.blocking.enumerated_pairs

    return annotate


def _dependency_probe(args):
    timings = args[0].timings
    return timings.get("dependency_map_build", 0.0), timings.get("dependency_map_rebase", 0.0)


def _dependency_annotate(span, args, result, before):
    timings = args[0].timings
    if timings.get("dependency_map_rebase", 0.0) > before[1]:
        span.name = "product_graph.dependency_map_rebase"
    elif timings.get("dependency_map_build", 0.0) > before[0]:
        span.name = "product_graph.dependency_map"
    else:
        span.name = "product_graph.dependency_map_hit"


def _run_annotate(span, args, result, before):
    span.attrs["algorithm"] = result.algorithm
    span.attrs["rounds"] = result.stats.rounds
    span.attrs["simulated_s"] = result.simulated_seconds


def _rerun_annotate(span, args, result, before):
    delta = args[0].last_delta()
    if delta is not None:
        span.attrs["rechecked"] = delta.pairs_rechecked
        span.attrs["skipped"] = delta.pairs_skipped


def _wal_probe(args):
    wal = args[0]
    return wal.fsync_calls, wal.bytes_written


def _wal_annotate(span, args, result, before):
    wal = args[0]
    span.attrs["fsync_calls"] = wal.fsync_calls - before[0]
    span.attrs["bytes"] = wal.bytes_written - before[1]


def _get_or_build_annotate(span, args, result, before):
    span.attrs["loaded"] = bool(result[1])


def _store_patch_probe(args):
    store = args[0]
    return store.patched_segments_reused, store.patched_segments_rewritten


def _store_patch_annotate(span, args, result, before):
    store = args[0]
    span.attrs["segments_reused"] = store.patched_segments_reused - before[0]
    span.attrs["segments_rewritten"] = store.patched_segments_rewritten - before[1]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are counted at."""
    from repro.api.session import MatchSession, SessionArtifacts
    from repro.matching.blocking import BlockingIndex
    from repro.service import ingest
    from repro.service.wal import WriteAheadLog
    from repro.storage.snapshot import GraphSnapshot
    from repro.storage.store import SnapshotStore

    tracer.wrap(GraphSnapshot, "build", "storage.snapshot_build")
    tracer.wrap(GraphSnapshot, "patched", "storage.snapshot_patch")
    tracer.wrap(SnapshotStore, "load", "storage.store_load")
    tracer.wrap(SnapshotStore, "get_or_build", "storage.get_or_build", annotate=_get_or_build_annotate)
    tracer.wrap(SnapshotStore, "save", "storage.store_save")
    tracer.wrap(
        SnapshotStore, "patch", "storage.store_patch",
        probe=_store_patch_probe, annotate=_store_patch_annotate,
    )
    tracer.wrap(BlockingIndex, "build", "blocking.index_build")
    tracer.wrap(BlockingIndex, "rebased", "blocking.index_rebase")
    probe, classify = _classified("candidates", ("candidate_builds", "candidate_rebases"))
    tracer.wrap(
        SessionArtifacts, "candidates", "candidates",
        probe=probe, annotate=_candidates_annotate(classify),
    )
    tracer.wrap(
        SessionArtifacts, "dependency_map", "product_graph.dependency_map",
        probe=_dependency_probe, annotate=_dependency_annotate,
    )
    probe, classify = _classified("product_graph", ("product_graph_builds", "product_graph_rebases"))
    tracer.wrap(SessionArtifacts, "product_graph", "product_graph", probe=probe, annotate=classify)
    tracer.wrap(MatchSession, "run", "session.run", annotate=_run_annotate)
    tracer.wrap(MatchSession, "rerun", "session.rerun", annotate=_rerun_annotate)
    tracer.wrap(ingest.IngestPipeline, "run", "ingest.run")
    tracer.wrap(ingest, "apply_mutation", "ingest.apply")
    tracer.wrap(WriteAheadLog, "append", "wal.append", probe=_wal_probe, annotate=_wal_annotate)
    tracer.wrap(
        WriteAheadLog, "checkpoint", "wal.checkpoint", probe=_wal_probe, annotate=_wal_annotate
    )


# --------------------------------------------------------------------------- #
# per-layer figures
# --------------------------------------------------------------------------- #

#: span name -> the per-layer self-time metric it is billed to
SELF_TIME_METRIC = {
    "storage.snapshot_build": "storage.snapshot_build_s",
    "storage.snapshot_patch": "storage.snapshot_patch_s",
    "storage.store_load": "storage.store_load_s",
    "storage.get_or_build": "storage.store_load_s",
    "storage.store_save": "storage.store_write_s",
    "storage.store_patch": "storage.store_write_s",
    "blocking.index_build": "blocking.index_build_s",
    "blocking.index_rebase": "blocking.index_rebase_s",
    "candidates.build": "candidates.build_s",
    "candidates.rebase": "candidates.rebase_s",
    "product_graph.dependency_map": "product_graph.dependency_map_s",
    "product_graph.dependency_map_rebase": "product_graph.rebase_s",
    "product_graph.build": "product_graph.build_s",
    "product_graph.rebase": "product_graph.rebase_s",
    "ingest.apply": "ingest.apply_s",
    "wal.append": "wal.append_s",
    "wal.checkpoint": "wal.checkpoint_s",
    "wal.replay": "wal.replay_s",
}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """span id -> duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def ancestors(spans: List[Span]):
    """span id -> set of ancestor span names (for 'under a rerun' tests)."""
    by_id = {span.id: span for span in spans}
    memo: Dict[int, frozenset] = {}

    def names(sid):
        if sid in memo:
            return memo[sid]
        span = by_id.get(sid)
        if span is None or span.parent not in by_id:
            memo[sid] = frozenset()
        else:
            parent = by_id[span.parent]
            memo[sid] = names(parent.id) | {parent.name}
        return memo[sid]

    return {span.id: names(span.id) for span in spans}


def layer_figures(spans: List[Span], wall: Optional[float] = None) -> Dict[str, float]:
    """Per-layer self times and counts over *spans*.

    The busy time they cover is *wall* (one thread of work) or, by default,
    the summed durations of the top-level spans of every thread; what the
    layers leave of it, less the time the load generator sat waiting, is
    reported as ``unattributed_s``."""
    figures: Dict[str, float] = defaultdict(float)
    own = self_times(spans)
    above = ancestors(spans)
    attributed = idle = 0.0
    loads = hits = 0
    kept = quadratic = 0
    rechecked = skipped = appends = 0
    for span in spans:
        seconds = own[span.id]
        metric = SELF_TIME_METRIC.get(span.name)
        if span.name == "session.run":
            if "session.rerun" in above[span.id]:
                metric = "session.incremental_s"
            else:
                metric = f"solve.{span.attrs['algorithm']}_s"
                figures["solve.rounds"] += span.attrs["rounds"]
                figures["solve.simulated_s"] += span.attrs["simulated_s"]
        elif span.name == "session.rerun":
            metric = "session.incremental_s"
            rechecked += span.attrs.get("rechecked", 0)
            skipped += span.attrs.get("skipped", 0)
        elif span.name in ("wal.append", "wal.checkpoint"):
            figures["wal.fsync_calls"] += span.attrs["fsync_calls"]
            figures["_wal_bytes"] += span.attrs["bytes"]
            appends += span.name == "wal.append"
        elif span.name == "generator.wait":
            idle += seconds
        elif span.name == "storage.get_or_build":
            loads += 1
            hits += span.attrs["loaded"]
        elif span.name == "storage.store_patch":
            figures["_segments_reused"] += span.attrs["segments_reused"]
            figures["_segments_total"] += (
                span.attrs["segments_reused"] + span.attrs["segments_rewritten"]
            )
        elif span.name in ("candidates.build", "candidates.rebase"):
            figures["candidates.pairs"] += span.attrs["pairs"]
            if "quadratic_pairs" in span.attrs:
                kept += span.attrs["enumerated_pairs"]
                quadratic += span.attrs["quadratic_pairs"]
        if metric is not None:
            figures[metric] += seconds
            attributed += seconds
    figures["storage.store_hit_ratio"] = hits / loads if loads else 0.0
    reused, total = figures.pop("_segments_reused", 0.0), figures.pop("_segments_total", 0.0)
    figures["storage.store_segments_reused_ratio"] = reused / total if total else 0.0
    figures["blocking.kept_ratio"] = kept / quadratic if quadratic else 0.0
    figures["session.recheck_ratio"] = (
        rechecked / (rechecked + skipped) if rechecked + skipped else 0.0
    )
    wal_bytes = figures.pop("_wal_bytes", 0.0)
    figures["wal.bytes_per_op"] = wal_bytes / appends if appends else 0.0
    if wall is None:
        wall = sum(span.duration for span in spans if span.parent is None)
    figures["unattributed_s"] = max(0.0, wall - attributed - idle)
    return dict(figures)


def ingest_figures(spans: List[Span]) -> Dict[str, float]:
    """Flush size and cost, and how long applied ops waited for a flush."""
    reruns = sorted((s for s in spans if s.name == "session.rerun"), key=lambda s: s.start)
    applies = sorted((s for s in spans if s.name == "ingest.apply"), key=lambda s: s.end)
    waits = []
    cursor = 0
    for apply in applies:
        while cursor < len(reruns) and reruns[cursor].start < apply.end:
            cursor += 1
        if cursor < len(reruns):
            waits.append(reruns[cursor].start - apply.end)
    return {
        "ingest.flush_s": sum(s.duration for s in reruns) / len(reruns),
        "ingest.ops_per_flush": len(applies) / len(reruns),
        "ingest.backlog_wait_ms": 1000.0 * sum(waits) / len(waits),
    }


def between(spans: List[Span], start: float, end: float) -> List[Span]:
    return [span for span in spans if span.start >= start and span.end <= end]

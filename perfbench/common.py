"""Shared pieces of the benchmark: metric tables, inputs, statistics, output.

Every workload module returns a :class:`Outcome`; :mod:`run` turns it into
the one-line JSON result.  The metric tables below are the single source of
the names and units that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metrics (printed with --trace 0), name -> unit.  Every workload
#: fills every slot; what each slot means per workload is in NOTES.md.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_ms": "ms",
    "tail_latency_ms": "ms",
    "recovery_ms": "ms",
    "write_latency_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (printed with --trace 1), name -> unit.  A layer that
#: does no work on a workload reports 0.
PER_LAYER: Dict[str, str] = {
    "storage.snapshot_build_s": "s",
    "storage.store_load_s": "s",
    "storage.store_hit_ratio": "ratio",
    "storage.snapshot_patch_s": "s",
    "storage.store_write_s": "s",
    "storage.store_segments_reused_ratio": "ratio",
    "blocking.index_build_s": "s",
    "blocking.index_rebase_s": "s",
    "blocking.kept_ratio": "ratio",
    "candidates.build_s": "s",
    "candidates.rebase_s": "s",
    "candidates.pairs": "count",
    "product_graph.dependency_map_s": "s",
    "product_graph.build_s": "s",
    "product_graph.rebase_s": "s",
    "solve.chase_s": "s",
    "solve.EMMR_s": "s",
    "solve.EMOptMR_s": "s",
    "solve.EMVC_s": "s",
    "solve.EMOptVC_s": "s",
    "solve.EMVF2MR_s": "s",
    "solve.rounds": "count",
    "solve.simulated_s": "model_s",
    "session.incremental_s": "s",
    "session.recheck_ratio": "ratio",
    "ingest.flush_s": "s",
    "ingest.ops_per_flush": "count",
    "ingest.backlog_wait_ms": "ms",
    "ingest.apply_s": "s",
    "ingest.window_ms": "ms",
    "wal.append_s": "s",
    "wal.checkpoint_s": "s",
    "wal.fsync_calls": "count",
    "wal.bytes_per_op": "bytes",
    "wal.replay_s": "s",
    "queue.wait_ms": "ms",
    "queue.depth_max": "count",
    "queue.rejected": "count",
    "http.overhead_ms": "ms",
    "unattributed_s": "s",
    "generator.lag_ms": "ms",
    "tracing.overhead_ratio": "ratio",
}

BACKENDS = ("chase", "EMMR", "EMOptMR", "EMVC", "EMOptVC", "EMVF2MR")


class BenchError(Exception):
    """A failed correctness check or a broken run: the benchmark exits non-zero."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: the workload's user-visible figures under their own names, with units
    figures: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: what else the run measured (sizes, sample lists, run metadata)
    detail: Dict[str, object] = field(default_factory=dict)
    #: names of the correctness checks that ran, and which of them failed
    checks: List[str] = field(default_factory=list)
    check_failures: List[str] = field(default_factory=list)

    def figure(self, name: str, value: float, unit: str, **extra) -> None:
        """Record one named figure for the detail line."""
        self.figures[name] = {"value": float(value), "unit": unit, **extra}

    def check(self, name: str, ok: bool) -> None:
        """Record one correctness check; a failure is counted and kept."""
        self.checks.append(name)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failures.append(name)

    @property
    def correct(self) -> bool:
        return not self.check_failures


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #


def dataset(scale: float, seed: int):
    """The synthetic knowledge graph every workload uses: 20 keys, c=2, d=2."""
    from repro.datasets.synthetic import synthetic_dataset

    return synthetic_dataset(
        num_keys=20, chain_length=2, radius=2, scale=scale, seed=seed
    )


def mutation_ops(graph, seed: int, count: int, tag: str) -> List[Dict[str, str]]:
    """*count* wire-format mutations against *graph*, fixed by *seed*.

    Every op applies cleanly to the graph as it stands after the ops before
    it.  Half attach an attribute no key reads (the ops still land inside
    key neighbourhoods, so the delta planner has pairs to re-check), a
    quarter rename a keyed entity (its planted match breaks), and a quarter
    add a new keyed entity linked into the graph (two ops each).
    """
    rng = random.Random(f"{tag}:{seed}")
    entities = sorted(graph.entity_ids())
    keyed = [eid for eid in entities if eid.startswith("e")]
    keyed_types = sorted({graph.entity_type(eid) for eid in keyed})
    ops: List[Dict[str, str]] = []
    index = 0
    while len(ops) < count:
        roll = rng.random()
        if roll < 0.5:
            ops.append(
                {
                    "op": "add_value",
                    "subject": rng.choice(entities),
                    "predicate": f"stream_tag_{index % 3}",
                    "value": f"{tag}{index}",
                }
            )
        elif roll < 0.75:
            ops.append(
                {
                    "op": "set_value",
                    "subject": rng.choice(keyed),
                    "predicate": "name_of",
                    "value": f"renamed_{tag}{index}",
                }
            )
        else:
            eid = f"{tag}_new{index}"
            ops.append({"op": "add_entity", "id": eid, "type": rng.choice(keyed_types)})
            ops.append(
                {
                    "op": "add_edge",
                    "subject": eid,
                    "predicate": "stream_ref",
                    "object": rng.choice(keyed),
                }
            )
        index += 1
    return ops[:count]


def reference_pairs(graph, keys) -> set:
    """The identified pairs of a fresh blocked chase over *graph*.

    Blocking is proven to lose no pair, and the unblocked chase is too slow
    at these sizes to run once per check.
    """
    from repro.api.session import MatchSession

    return MatchSession(graph, keys).run("chase", blocking="auto").eq.pairs()


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return float(statistics.median(values))


def tail(values: Sequence[float], cap: float = 95.0):
    """(value, percentile, count): the highest percentile up to *cap* that
    still has at least ten samples beyond it (the maximum when fewer than
    21 samples leave no such percentile above the median)."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise BenchError("no samples to take a percentile of")
    if count < 21:
        return float(ordered[-1]), 100.0, count
    index = min(math.ceil(cap / 100.0 * (count - 1)), count - 11)
    return float(ordered[index]), round(100.0 * index / (count - 1), 1), count


# --------------------------------------------------------------------------- #
# CPU speed
# --------------------------------------------------------------------------- #

#: seconds one probe takes at the reference CPU speed (about its median time
#: on a 2.1 GHz x86-64 vCPU under Python 3.11).  Compute-bound figures are
#: reported at that speed.
PROBE_REFERENCE_S = 0.01


def probe(cpus=None) -> float:
    """Seconds of one fixed pure-Python workload, on *cpus* when given.

    The work is what the matcher's inner loops do -- tuple keys, dict and
    set inserts, sorting -- so its time follows the CPU speed the program
    gets.  The garbage collector is off while it runs, so that only the
    speed, not the heap the program left behind, sets its time.
    """
    previous = os.sched_getaffinity(0) if cpus else None
    if cpus:
        os.sched_setaffinity(0, cpus)  # this thread only
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        buckets: Dict[int, set] = {}
        for index in range(12000):
            buckets.setdefault(index % 331, set()).add((index % 97, str(index)))
        total = sum(len(sorted(bucket)) for bucket in buckets.values())
        values = [(index * 7919) % 10007 for index in range(12000)]
        values.sort()
        seconds = clock() - started
    finally:
        if collecting:
            gc.enable()
        if previous:
            os.sched_setaffinity(0, previous)
    if total != 12000 or values[0] != 0:
        raise BenchError("the CPU-speed probe computed a wrong result")
    return seconds


class Pace:
    """CPU-speed probes taken around compute-bound intervals.

    The speed a virtual CPU gives this program drifts (see NOTES.md, "CPU
    speed").  :meth:`scaled` reports an interval at the reference speed:
    its seconds times ``PROBE_REFERENCE_S`` over the mean of the probes
    just before and just after it.  A change to the program moves the
    interval and not the probes, which run only benchmark code.
    """

    def __init__(self, cpus=None, repeat: int = 3) -> None:
        self.cpus = cpus
        self.repeat = repeat
        #: every reading of the run: (when it started, seconds)
        self.readings: List[Tuple[float, float]] = []

    def mark(self, repeat: Optional[int] = None) -> float:
        """Probe now: the mean of *repeat* probes.  A mean, because the speed
        flips between two levels and a median would snap to one of them."""
        started = clock()
        reading = statistics.fmean([probe(self.cpus) for _ in range(repeat or self.repeat)])
        self.readings.append((started, reading))
        return reading

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        return seconds * PROBE_REFERENCE_S * 2.0 / (before + after)

    def between(self, seconds: float, start: float, end: float) -> float:
        """*seconds* of an interval from *start* to *end* at the reference
        speed, by the last reading before it and the first one after it
        (the nearest one alone at either end of the run)."""
        times = [at for at, _ in self.readings]
        before = bisect.bisect_left(times, start) - 1
        after = bisect.bisect_left(times, end)
        near = [self.readings[i][1] for i in (before, after) if 0 <= i < len(times)]
        return self.scaled(seconds, near[0], near[-1])

    def mean(self, start: float, end: float) -> float:
        """Mean reading between *start* and *end*."""
        return statistics.fmean(s for at, s in self.readings if start <= at <= end)

    def median(self) -> float:
        return median([seconds for _, seconds in self.readings])

    def measure(self, thunk):
        """(thunk's result, raw seconds, seconds at the reference speed),
        with a probe just before and just after."""
        laps = Laps(self)
        result = thunk()
        laps.lap()
        return result, laps.raw, laps.scaled


class Laps:
    """An interval timed in stretches, each scaled by the probes at its two
    ends.  The probes between stretches are not counted, so a long interval
    follows the CPU speed as it drifts."""

    def __init__(self, pace: Pace) -> None:
        self.pace = pace
        self.raw = self.scaled = 0.0
        #: the probe reading at the start of the current stretch
        self.reading = pace.mark()
        self._started = clock()

    def lap(self) -> None:
        """End the current stretch and start the next one after a probe."""
        seconds = clock() - self._started
        reading = self.pace.mark()
        self.raw += seconds
        self.scaled += self.pace.scaled(seconds, self.reading, reading)
        self.reading = reading
        self._started = clock()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another live process (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# --------------------------------------------------------------------------- #
# run metadata and output
# --------------------------------------------------------------------------- #


def source_digest() -> str:
    """SHA-256 over the program's source files (works without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    (an enclosing repository's HEAD would describe other code)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def numpy_available() -> bool:
    try:
        importlib.import_module("numpy")
    except ImportError:
        return False
    return True


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Run metadata.  Runs with different ``numpy`` values take different
    snapshot and patch paths and must never be compared."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_available(),
    }


def emit(outcome: Outcome, names: Dict[str, str]) -> None:
    """Print the detail line, then the result line (the last line of stdout).

    The detail line holds the workload's figures under their own names
    (plus ``error_ratio``, failed over attempted operations), the detail,
    and how often each correctness check ran."""
    checks: Dict[str, int] = {}
    for name in outcome.checks:
        checks[name] = checks.get(name, 0) + 1
    outcome.figure("error_ratio", outcome.failed / max(1, outcome.attempted), "ratio")
    detail = {"figures": outcome.figures, "detail": outcome.detail, "checks": checks}
    print(json.dumps(detail, sort_keys=True))
    missing = sorted(set(names) - set(outcome.metrics))
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    result = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result), flush=True)

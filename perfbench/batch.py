"""`batch`: one-shot matching of a knowledge graph, one caller in a closed loop.

Each round runs all six backends with ``blocking="auto"``, three ways each:
cold (a fresh session over an empty snapshot store), warm (a rerun on that
session) and restart (a fresh session over the now-warm store).  Rounds
repeat until the run's time is up.  A pass is the six-backend total of one
way, summed from each backend's median over rounds, so a few seconds of a
slow machine move one sample, not the figure.  Every run is timed between
two CPU-speed probes and reported at the reference speed (``common.Pace``).
"""

from __future__ import annotations

import shutil

from common import BACKENDS, PER_LAYER, Laps, Outcome, Pace, dataset, median, self_peak_rss_mb
from tracing import clock, layer_figures

MODES = ("cold", "warm", "restart")
SCALE = 8  # 2,880 entities, 5,300 triples
SETUPS = 3  # set-up is repeated and reported as a median
SAVES = 3  # snapshot saves timed per round


def _setup(scale: float, seed: int, workdir, pace: Pace, outcome: Outcome):
    """Generate the inputs and make the first full pass, every backend cold
    over an empty store; returns (dataset, seconds at reference speed).
    Each step is a stretch of its own between probes."""
    from repro.api.session import MatchSession
    from repro.storage.store import SnapshotStore

    root = workdir / "setup-store"
    laps = Laps(pace)
    data = dataset(scale, seed)
    laps.lap()
    store = SnapshotStore(root)
    for name in BACKENDS:
        result = MatchSession(data.graph, data.keys, snapshot_store=store).run(
            name, blocking="auto"
        )
        laps.lap()
        outcome.check(f"first pass {name} == planted", result.eq.pairs() == data.planted_pairs)
    shutil.rmtree(root)
    return data, laps.scaled


def _round(data, workdir, index: int, tracer, pace: Pace, outcome: Outcome):
    """One round; returns ({(backend, mode): (raw s, s at reference speed)},
    busy seconds at reference speed, busy raw seconds).  Busy time is the
    round's wall time less its probes: runs, session construction, store
    set-up and teardown, and the checks.  Each run ends a stretch
    (``common.Laps``), so the probes around a run scale it and the rest of
    its stretch."""
    from repro.api.session import MatchSession
    from repro.storage.store import SnapshotStore

    times = {}
    laps = Laps(pace)
    for name in BACKENDS:
        root = workdir / f"store-{index}-{name}"
        store = SnapshotStore(root)
        for mode in MODES:
            tracer.set_op(f"{name}:{mode}")
            if mode != "warm":
                session = MatchSession(data.graph, data.keys, snapshot_store=store)
            before = laps.reading
            started = clock()
            result = session.run(name, blocking="auto")
            seconds = clock() - started
            tracer.set_op(None)
            laps.lap()
            times[name, mode] = seconds, pace.scaled(seconds, before, laps.reading)
            outcome.check(f"{name} {mode} == planted", result.eq.pairs() == data.planted_pairs)
        shutil.rmtree(root)
    laps.lap()
    return times, laps.scaled, laps.raw


def _saves(snapshot, graph, workdir, index: int, pace: Pace):
    """Seconds at reference speed of SAVES snapshot saves, each into a fresh
    store (`repro snapshot save`)."""
    from repro.storage.store import SnapshotStore

    seconds = []
    for save in range(SAVES):
        root = workdir / f"save-{index}-{save}"
        _, _, scaled = pace.measure(lambda: SnapshotStore(root).save(snapshot, graph=graph))
        seconds.append(scaled)
        shutil.rmtree(root)
    return seconds


def _passes(rounds, which: int):
    """{mode: pass seconds}: each backend's median over *rounds*, summed;
    *which* picks raw (0) or reference-speed (1) seconds."""
    return {
        mode: sum(
            median([times[name, mode][which] for times, _, _ in rounds]) for name in BACKENDS
        )
        for mode in MODES
    }


def run(args, tracer, workdir) -> Outcome:
    from repro.storage.snapshot import GraphSnapshot

    outcome = Outcome()
    pace = Pace()
    scale = 1 if args.tiny else SCALE
    setups = []
    for _ in range(1 if args.tiny else SETUPS):
        data, seconds = _setup(scale, args.seed, workdir, pace, outcome)
        setups.append(seconds)
    snapshot = GraphSnapshot.build(data.graph)

    rounds, saves = [], []
    started = clock()
    while True:
        round_started = clock()
        rounds.append(_round(data, workdir, len(rounds), tracer, pace, outcome))
        saves += _saves(snapshot, data.graph, workdir, len(rounds), pace)
        if 2 * clock() - round_started - started > args.seconds:
            break  # another round like this one would overrun
    if args.trace:
        tracer.enabled = True
        traced_times, traced_scaled, traced_busy = _round(
            data, workdir, len(rounds), tracer, pace, outcome
        )
        tracer.enabled = False

    passes = _passes(rounds, 1)
    runs_per_round = len(BACKENDS) * len(MODES)
    outcome.figure("setup_s", median(setups), "s", samples=setups)
    for mode in MODES:
        outcome.figure(f"{mode}_match_s", passes[mode], "s", rounds=len(rounds))
    outcome.figure("snapshot_save_ms", median(saves) * 1000.0, "ms", samples=len(saves))
    outcome.figure("peak_rss_mb", self_peak_rss_mb(), "MB")
    outcome.metrics.update(
        {
            "setup_s": outcome.figures["setup_s"]["value"],
            "latency_ms": passes["warm"] * 1000.0,
            "tail_latency_ms": passes["cold"] * 1000.0,
            "recovery_ms": passes["restart"] * 1000.0,
            "write_latency_ms": outcome.figures["snapshot_save_ms"]["value"],
            "throughput_per_s": runs_per_round / median([busy for _, busy, _ in rounds]),
            "peak_rss_mb": outcome.figures["peak_rss_mb"]["value"],
        }
    )
    outcome.detail.update(
        {
            "entities": data.graph.num_entities,
            "triples": data.graph.num_triples,
            "planted_pairs": len(data.planted_pairs),
            "raw_passes_s": _passes(rounds, 0),
            "probe_median_s": pace.median(),
        }
    )
    if args.trace:
        spans = tracer.spans
        figures = layer_figures(spans, traced_busy)
        # at the reference speed, so the speed of the one traced round does
        # not count as overhead
        figures["tracing.overhead_ratio"] = traced_scaled / median([b for _, b, _ in rounds])
        outcome.metrics.update(figures)
        # the cold pass alone: its layer self times plus the unattributed
        # remainder add up to the traced cold pass; at the reference speed
        # that pass is cold_match_s times about the overhead ratio
        cold_s = sum(traced_times[name, "cold"][0] for name in BACKENDS)
        cold = [s for s in spans if s.op is not None and s.op.endswith(":cold")]
        outcome.detail["traced_cold_pass_s"] = cold_s
        outcome.detail["traced_cold_pass_at_reference_s"] = sum(
            traced_times[name, "cold"][1] for name in BACKENDS
        )
        outcome.detail["traced_cold_pass_layers"] = {
            name: value
            for name, value in sorted(layer_figures(cold, cold_s).items())
            if PER_LAYER[name] == "s"
        }
    return outcome

"""`stream`: a mutation stream keeping the match result fresh (`repro ingest`).

The ingest path is driven in-process through ``IngestPipeline``: an EMOptVC
session with ``blocking="auto"``, incremental reruns, a snapshot store and a
write-ahead log with ``fsync=batch``.  An open-loop generator offers ops at
a fixed rate, each stamped with its due time; then a burst is offered all
at once, seven times; last, the run's journal is replayed onto a fresh
base graph.  Set-up is repeated three times and set-up and bursts report
their medians.  Timings are reported at the reference CPU speed
(``common.Pace``), except the burst publish time (see NOTES.md).
"""

from __future__ import annotations

import shutil
import time

from common import (
    Laps,
    Outcome,
    Pace,
    dataset,
    median,
    mutation_ops,
    reference_pairs,
    self_peak_rss_mb,
    tail,
)
from tracing import between, clock, ingest_figures, layer_figures

LATENCY_BUDGET = 0.25  # the `repro ingest` default
RATE = 20.0  # ops per second in the open-loop phase
WARM_OPS = 20
SCALE = 8  # the `batch` graph: 2,880 entities, 5,300 triples
BURSTS = 7
SETUPS = 3  # set-up is repeated and reported as a median


def _session(data, store):
    from repro.api.session import MatchSession

    return MatchSession(data.graph, data.keys, snapshot_store=store).using(
        "EMOptVC", blocking="auto", incremental=True
    )


def _recover(scale, seed, store, wal_root, tracer, pace=None):
    """Replay the journal onto a fresh base graph; returns (session, result,
    raw seconds, seconds at reference speed or None).  The base graph is
    generated before the clock starts.  With *pace*, each replayed flush
    ends a stretch (``common.Laps``); without, nothing but the replay runs."""
    from repro.service.wal import WriteAheadLog, replay

    data = dataset(scale, seed)
    wal = WriteAheadLog(wal_root, fsync="batch")
    laps = Laps(pace) if pace else None
    started = clock()
    session = _session(data, store)
    session.run()
    with tracer.span("wal.replay"):
        replay(wal, session, on_batch=laps and (lambda result, report: laps.lap()))
    result = session.rerun()
    seconds = clock() - started
    wal.close()
    if laps is None:
        return session, result, seconds, None
    laps.lap()
    return session, result, laps.raw, laps.scaled


def _setup(scale, seed, total_ops, workdir, pace, on_batch):
    """Generate the inputs, open a store, a journal (``workdir/wal``) and a
    session, and stream the first window; returns (data, ops, store, wal,
    session, pipeline, seconds at reference speed).  Generation,
    the first run and the first window are stretches of their own."""
    from repro.core.fingerprint import fingerprint_of
    from repro.service.ingest import IngestPipeline
    from repro.service.wal import WriteAheadLog
    from repro.storage.store import SnapshotStore

    for stale in ("store", "wal"):
        shutil.rmtree(workdir / stale, ignore_errors=True)
    laps = Laps(pace)
    data = dataset(scale, seed)
    ops = mutation_ops(data.graph, seed, total_ops, "s")
    laps.lap()
    store = SnapshotStore(workdir / "store")
    wal = WriteAheadLog(
        workdir / "wal", fsync="batch", base_fingerprint=fingerprint_of(data.graph)
    )
    session = _session(data, store)
    session.run()
    laps.lap()
    pipeline = IngestPipeline(
        session, latency_budget=LATENCY_BUDGET, wal=wal, on_batch=on_batch
    )
    pipeline.run(ops[:WARM_OPS])
    laps.lap()
    return data, ops, store, wal, session, pipeline, laps.scaled


def run(args, tracer, workdir) -> Outcome:
    from repro.core.fingerprint import fingerprint_of, graph_fingerprint
    from repro.service.ingest import apply_mutation

    outcome = Outcome()
    pace = Pace()
    scale = 1 if args.tiny else SCALE
    # ops per burst: few enough to apply well inside one latency budget, so
    # each burst publishes with one flush
    burst_size = 50 if args.tiny else 250
    open_count = max(20, int(RATE * args.seconds * 0.65))

    published = []  # (time, ops covered so far in this pipeline run)
    probing = []  # non-empty while the untraced measured phase runs

    def on_batch(result, report):
        published.append((clock(), report.ops_applied))
        if probing:
            pace.mark(repeat=1)  # just published: the pipeline is idle

    setups = []
    for index in range(1 if args.tiny else SETUPS):
        if index:
            wal.close()
        data, ops, store, wal, session, pipeline, seconds = _setup(
            scale, args.seed, WARM_OPS + open_count + BURSTS * burst_size, workdir, pace,
            on_batch,
        )
        setups.append(seconds)
    open_ops, burst_ops = ops[WARM_OPS:WARM_OPS + open_count], ops[WARM_OPS + open_count:]
    wal_root = workdir / "wal"

    dues, sent = [], []
    burst_at, accepted_at = [], []

    def source():
        start = clock() + 0.05
        for index, op in enumerate(open_ops):
            due = start + index / RATE
            with tracer.span("generator.wait"):
                time.sleep(max(0.0, due - clock()))
            dues.append(due)
            sent.append(clock())
            yield op
        for burst in range(BURSTS + 1):
            # each burst starts once the one before it is published; waiting
            # after the last one too lets the latency budget flush every
            # burst, where the stream's end would flush the last at once
            with tracer.span("generator.wait"):
                while pipeline.pending_ops:
                    time.sleep(0.002)
                pace.mark()  # the pipeline is idle
            if burst < BURSTS:
                burst_at.append(clock())
                yield from burst_ops[burst * burst_size:(burst + 1) * burst_size]
                # resumed once the pipeline applied and journalled the last op
                accepted_at.append(clock())

    published.clear()
    if not args.trace:
        probing.append(True)
    tracer.enabled = args.trace
    tracer.set_op("stream")
    first_span = len(tracer.spans)
    phase_started = clock()
    report = pipeline.run(source())
    phase_wall = clock() - phase_started
    probing.clear()
    tracer.enabled = False
    wal.close()
    live_result = pipeline.last_result

    def covered_at(count):
        """When the first published result covering *count* ops appeared."""
        return next(at for at, covered in published if covered >= count)

    # (raw seconds, seconds at reference speed) of each op
    fresh = []
    for index, due in enumerate(dues):
        covered = covered_at(index + 1)
        fresh.append((covered - due, pace.between(covered - due, due, covered)))
    # as measured: a burst holds the latency budget's fixed wait, and its
    # few samples spread wider scaled than raw
    burst_publish = [
        covered_at(open_count + (burst + 1) * burst_size) - at
        for burst, at in enumerate(burst_at)
    ]

    # recovery: replay a copy of the journal untraced, and in a traced run
    # one more copy traced, so the pair gives the tracing overhead
    shutil.copytree(wal_root, workdir / "wal-replay")
    recovered, recovered_result, raw_recovery_s, recovery_s = _recover(
        scale, args.seed, store, workdir / "wal-replay", tracer, pace
    )
    outcome.check("recovered Eq == streamed Eq", recovered_result.eq.pairs() == live_result.eq.pairs())
    if args.trace:
        traced_root = workdir / "wal-traced"
        shutil.copytree(wal_root, traced_root)
        tracer.enabled = True
        _, _, traced_recovery_s, _ = _recover(scale, args.seed, store, traced_root, tracer)
        tracer.enabled = False
    tracer.set_op(None)

    twin = dataset(scale, args.seed).graph
    for op in ops:
        apply_mutation(twin, op)
    expected = reference_pairs(twin, data.keys)
    outcome.attempted += len(ops)
    outcome.check("streamed Eq == chase on twin", live_result.eq.pairs() == expected)
    outcome.check("recovered Eq == chase on twin", recovered_result.eq.pairs() == expected)
    twin_fp = graph_fingerprint(twin)
    outcome.check("live fingerprint == graph_fingerprint(twin)", fingerprint_of(session.graph) == twin_fp)
    outcome.check(
        "recovered fingerprint == graph_fingerprint(twin)", fingerprint_of(recovered.graph) == twin_fp
    )
    outcome.check("every op applied", report.ops_applied == open_count + BURSTS * burst_size)

    accept_ms = [
        pace.between(done - at, at, done) * 1000.0 for at, done in zip(burst_at, accepted_at)
    ]
    fresh_ms = [scaled * 1000.0 for _, scaled in fresh]
    fresh_tail, fresh_pct, fresh_n = tail(fresh_ms)
    publish_s = median(burst_publish)
    lag_ms = [(s - d) * 1000.0 for s, d in zip(sent, dues)]
    outcome.figure("setup_s", median(setups), "s", samples=setups)
    outcome.figure("fresh_p50_ms", median(fresh_ms), "ms", samples=len(fresh_ms))
    outcome.figure("fresh_p95_ms", fresh_tail, "ms", percentile=fresh_pct, samples=fresh_n)
    outcome.figure("burst_publish_s", publish_s, "s", samples=len(burst_publish))
    outcome.figure("burst_accept_ms", median(accept_ms), "ms", samples=accept_ms)
    outcome.figure("recovery_s", recovery_s, "s")
    outcome.figure("peak_rss_mb", self_peak_rss_mb(), "MB")
    outcome.metrics.update(
        {
            "setup_s": outcome.figures["setup_s"]["value"],
            "latency_ms": median(fresh_ms),
            "tail_latency_ms": fresh_tail,
            "recovery_ms": recovery_s * 1000.0,
            "write_latency_ms": median(accept_ms),
            "throughput_per_s": burst_size / publish_s,
            "peak_rss_mb": outcome.figures["peak_rss_mb"]["value"],
        }
    )
    outcome.detail.update(
        {
            "entities": data.graph.num_entities,
            "triples": data.graph.num_triples,
            "rate_ops_per_s": RATE,
            "open_loop_ops": open_count,
            "burst_ops": burst_size,
            "flushes": report.batches,
            "generator_lag_p50_ms": median(lag_ms),
            "generator_lag_max_ms": max(lag_ms),
            "raw_recovery_s": raw_recovery_s,
            "raw_fresh_p50_ms": median([raw for raw, _ in fresh]) * 1000.0,
            "raw_fresh_p95_ms": tail([raw * 1000.0 for raw, _ in fresh])[0],
            "probe_median_s": pace.median(),
        }
    )
    if args.trace:
        spans = tracer.spans[first_span:]
        phase_spans = between(spans, phase_started, phase_started + phase_wall)
        figures = layer_figures(spans)
        figures.update(ingest_figures(phase_spans))
        figures.update(
            {
                "generator.lag_ms": median(lag_ms),
                "tracing.overhead_ratio": traced_recovery_s / raw_recovery_s,
            }
        )
        outcome.metrics.update(figures)
    return outcome


"""`serve`: a long-running `repro serve` process under mixed load.

The server runs in its own process with a snapshot store, a write-ahead log
and ``--max-inflight 2``, serving four graphs loaded from DSL files: three
read graphs `reads0`-`reads2` (scale 0.5, 180 entities each, each from its
own seed) and `writes` (scale 2, 720 entities).  This process is the load
generator, with one keep-alive connection per client thread:

* an open-loop phase: one connection sends ``POST /match wait=true`` on
  the read graphs, rotating through the six backends, while the other
  sends ``POST /graphs/writes/ingest`` windows, both at fixed rates, each
  request timed from its due time;
* a closed-loop phase: two connections send reads back to back, for
  throughput;
* restarts: the server is stopped and started again over the same store
  and journal, timed until it serves its first read (five times; the median).

Set-up (inputs, server start, registration, warm-up) is repeated three
times and reported as a median.  Timings other than the closed loop's
throughput are reported at the reference CPU speed (``common.Pace``), from
probes run on the server's CPUs while it is idle: in the open loop's gaps,
and between set-ups and restarts.  Reads and writes target different graphs
because a ``/match`` response does not say which graph version it covers,
so a read racing an ingest would have no exact reference.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    BACKENDS,
    SRC,
    BenchError,
    Outcome,
    Pace,
    dataset,
    median,
    mutation_ops,
    process_peak_rss_mb,
    reference_pairs,
    tail,
)
from tracing import Span, ancestors, between, clock, ingest_figures, layer_figures

HERE = Path(__file__).resolve().parent
READ_RATE = 7.0  # /match requests per second in the open-loop phase
READ_SCALE = 0.5  # 180 entities
# read graphs, each generated from its own seed, so that no single graph's
# shape sets the read figures
READ_GRAPHS = 3
WRITE_RATE = 1.0  # ingest windows per second in the open-loop phase
WINDOW_OPS = 5
WARM_WINDOWS = 2  # the first two windows pay one-off builds
WRITE_SCALE = 2  # 720 entities
START_TIMEOUT = 120.0
RESTARTS = 5
SETUPS = 3  # set-up is repeated and reported as a median


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    status: object
    payload: object


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            return None, repr(error)

    def close(self) -> None:
        self.conn.close()


def _read_target(index: int):
    """(graph, backend) of the read with this index; backends rotate fastest."""
    return f"reads{index // len(BACKENDS) % READ_GRAPHS}", BACKENDS[index % len(BACKENDS)]


def _read_body(index: int):
    graph, algorithm = _read_target(index)
    return {"graph": graph, "algorithm": algorithm, "wait": True}


def _timed(client, method, path, body, index, due, samples) -> None:
    sent = clock()
    status, payload = client.request(method, path, body)
    samples.append(Sample(index, due, sent, clock(), status, payload))


class IdleProbes:
    """CPU-speed probes of the server's CPUs, taken in the open loop's idle
    gaps: with no request outstanding and none due within ``GAP`` seconds,
    so a probe never delays a request or competes with the server.

    The speed of a CPU here flips between two levels every few hundred
    milliseconds; probes spread over the whole phase follow it, where two
    probes at the phase's ends catch it at random.
    """

    GAP = 0.03

    def __init__(self, pace: Pace, dues) -> None:
        self.pace = pace
        self.dues = sorted(dues)
        self.outstanding = 0
        self._lock = threading.Lock()

    def timed(self, *args) -> None:
        with self._lock:
            self.outstanding += 1
        try:
            _timed(*args)
        finally:
            with self._lock:
                self.outstanding -= 1

    def maybe_probe(self) -> None:
        now = clock()
        upcoming = bisect.bisect_right(self.dues, now)
        if self.outstanding or (
            upcoming < len(self.dues) and self.dues[upcoming] - now < self.GAP
        ):
            return
        self.pace.mark(repeat=1)


def _open_loop(idle, client, start, rate, count, method, path, body_of, samples, probing=False):
    for index in range(count):
        due = start + index / rate
        if probing:
            idle.maybe_probe()
        time.sleep(max(0.0, due - clock()))
        idle.timed(client, method, path, body_of(index), index, due, samples)


def _closed_loop(client, deadline, offset, samples) -> None:
    index = offset
    while clock() < deadline:
        _timed(client, "POST", "/match", _read_body(index), index, clock(), samples)
        index += 2


def _parallel(*jobs) -> None:
    threads = [threading.Thread(target=job) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Server:
    """A `repro serve` child process, on *cpus* (default: the caller's) and
    optionally through the span launcher."""

    def __init__(self, workdir: Path, serve_args, cpus=None, spans_file=None) -> None:
        if spans_file is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(spans_file), "serve"]
        command += ["--port", "0", *serve_args]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.log_path = workdir / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=workdir,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = clock() + START_TIMEOUT
        while clock() < deadline:
            for line in self.log_path.read_text(encoding="utf-8").splitlines():
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"server did not start: {self.log_path.read_text(encoding='utf-8')}")

    def signal(self, number) -> None:
        self.process.send_signal(number)
        time.sleep(0.1)  # the handler runs on the server's main thread

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _result_key(result: dict):
    """Everything a served result pins down besides measured wall clock."""
    return (result["classes"], result["stats"], round(result["simulated_seconds"], 9))


def _pairs(result: dict) -> set:
    from repro.matching.result import EMResult

    return EMResult.from_dict(result).pairs()


def _split_cpus():
    """Give the load generator one CPU and the server the rest, so the
    generator's wake-ups never preempt the server; (None, None) on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def _setup(args, workdir, window_count, cpus, spans_file):
    """Generate the inputs, write them as DSL files, start the server over an
    empty store and journal, and warm it up: one read per backend and the
    first ingest windows.  Returns (reads, writes, windows, serve_args,
    server, warm samples, seconds)."""
    from repro.core.parser import save_graph, save_keys

    for stale in ("store", "wal"):
        shutil.rmtree(workdir / stale, ignore_errors=True)
    started = clock()
    reads = [dataset(READ_SCALE, args.seed * READ_GRAPHS + k) for k in range(READ_GRAPHS)]
    writes = dataset(1 if args.tiny else WRITE_SCALE, args.seed)
    ops = mutation_ops(writes.graph, args.seed, WINDOW_OPS * (WARM_WINDOWS + window_count), "w")
    windows = [ops[i:i + WINDOW_OPS] for i in range(0, len(ops), WINDOW_OPS)]
    serve_args = [
        "--snapshot-store", str(workdir / "store"),
        "--wal", str(workdir / "wal"),
        "--max-inflight", "2",
    ]
    graphs = [(f"reads{k}", data) for k, data in enumerate(reads)] + [("writes", writes)]
    for name, data in graphs:
        save_graph(data.graph, workdir / f"{name}.graph")
        save_keys(data.keys, workdir / f"{name}.keys")
        serve_args += ["--graph", f"{name}={workdir / name}.graph:{workdir / name}.keys"]
    server = Server(workdir, serve_args, cpus, spans_file)
    try:
        client = Client(server.port)
        warm = []
        for index in range(len(BACKENDS) * READ_GRAPHS):
            _timed(client, "POST", "/match", _read_body(index), index, clock(), warm)
        for index in range(WARM_WINDOWS):
            _timed(client, "POST", "/graphs/writes/ingest", {"ops": windows[index]}, index, clock(), warm)
        client.close()
    except BaseException:
        server.stop()
        raise
    return reads, writes, windows, serve_args, server, warm, clock() - started


def run(args, tracer, workdir) -> Outcome:
    from repro.api.session import MatchSession
    from repro.service.ingest import apply_mutation

    outcome = Outcome()
    open_seconds = 0.7 * args.seconds
    closed_seconds = 0.15 * args.seconds
    read_count = max(12, int(READ_RATE * open_seconds))
    # writes are due half a read interval after a read, every seven read
    # intervals; seven backends on from the last (7 mod 6 = 1), so they
    # meet every backend rather than racing the same reads each time
    write_offset = 0.5 / READ_RATE
    window_count = max(1, int(WRITE_RATE * (open_seconds - write_offset)))

    spans_file = workdir / "server-spans.json" if args.trace else None
    generator_cpus, server_cpus = _split_cpus()
    if generator_cpus is not None:
        os.sched_setaffinity(0, generator_cpus)
    # set-up and restarts take seconds each: ten probes (100 ms) per mark
    # average over the speed's flips
    pace = Pace(server_cpus, repeat=10)
    server = restarted = None
    setups = []
    try:
        for _ in range(1 if args.tiny else SETUPS):
            if server is not None:
                server.stop()
            before = pace.mark()
            reads, writes, windows, serve_args, server, warm, seconds = _setup(
                args, workdir, window_count, server_cpus, spans_file
            )
            setups.append(pace.scaled(seconds, before, pace.mark()))

        # reference results, made before any timed phase
        references = {
            (f"reads{k}", name): _result_key(MatchSession(data.graph, data.keys).run(name).to_dict())
            for k, data in enumerate(reads)
            for name in BACKENDS
        }

        if args.trace:
            server.signal(signal.SIGUSR1)
        read_client, write_client = Client(server.port), Client(server.port)
        read_samples, write_samples = [], []
        open_start = clock() + 0.05
        idle = IdleProbes(
            pace,
            [open_start + i / READ_RATE for i in range(read_count)]
            + [open_start + write_offset + i / WRITE_RATE for i in range(window_count)],
        )
        idle.maybe_probe()
        _parallel(
            lambda: _open_loop(
                idle, read_client, open_start, READ_RATE, read_count, "POST", "/match",
                _read_body, read_samples, probing=True,
            ),
            lambda: _open_loop(
                idle, write_client, open_start + write_offset, WRITE_RATE, window_count, "POST",
                "/graphs/writes/ingest", lambda i: {"ops": windows[WARM_WINDOWS + i]}, write_samples,
            ),
        )
        open_end = clock()
        if args.trace:
            server.signal(signal.SIGUSR2)
        idle.maybe_probe()

        def closed_phase():
            samples = []
            phase_start = clock()
            deadline = phase_start + closed_seconds
            _parallel(
                lambda: _closed_loop(read_client, deadline, 0, samples),
                lambda: _closed_loop(write_client, deadline, 1, samples),
            )
            return samples, len(samples) / (max(s.done for s in samples) - phase_start)

        # as measured: the closed loop leaves no idle gap to probe in, and
        # the open loop's probes, scaled onto it, spread wider than raw rps
        closed_samples, rps = closed_phase()
        if args.trace:
            # traced between two untraced phases, so drift between phases
            # is not booked as tracing overhead
            server.signal(signal.SIGUSR1)
            traced_samples, traced_rps = closed_phase()
            server.signal(signal.SIGUSR2)
            untraced_samples, untraced_rps = closed_phase()
            closed_samples += traced_samples + untraced_samples
        read_client.close()
        write_client.close()
        status, metrics = Client(server.port).request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        peak_rss = process_peak_rss_mb(server.process.pid)
        server.stop()

        first, recovered, restarts = [], [], []
        before = pace.mark()
        for _ in range(1 if args.tiny else RESTARTS):
            restart_started = clock()
            restarted = Server(workdir, serve_args, server_cpus)
            _timed(Client(restarted.port), "POST", "/match", _read_body(4), 4, clock(), first)
            seconds = first[-1].done - restart_started
            _timed(
                Client(restarted.port), "POST", "/graphs/writes/ingest", {"ops": []}, 0,
                clock(), recovered,
            )
            restarted.stop()
            after = pace.mark()
            restarts.append(pace.scaled(seconds, before, after))
            before = after
        recovery_s = median(restarts)
    finally:
        if server is not None:
            server.stop()
        if restarted is not None:
            restarted.stop()

    # -- correctness, after timing ---------------------------------------- #
    def served(sample) -> bool:
        return sample.status == 200 and isinstance(sample.payload, dict)

    warm_reads, warm_writes = warm[:-WARM_WINDOWS], warm[-WARM_WINDOWS:]
    for sample in warm_reads + read_samples + closed_samples + first:
        ok = served(sample) and sample.payload.get("status") == "done"
        ok = ok and _result_key(sample.payload["result"]) == references[_read_target(sample.index)]
        outcome.check("read == synchronous MatchSession.run", ok)
    twin = writes.graph.copy()
    for window, sample in zip(windows, warm_writes + write_samples):
        for op in window:
            apply_mutation(twin, op)
        ok = served(sample) and _pairs(sample.payload["result"]) == reference_pairs(twin, writes.keys)
        outcome.check("ingest window == chase on twin", ok)
    expected = reference_pairs(twin, writes.keys)
    for sample in recovered:
        ok = served(sample) and _pairs(sample.payload["result"]) == expected
        outcome.check("restarted writes graph == chase on twin", ok)

    def at_reference(sample):
        return pace.between((sample.done - sample.due) * 1000.0, sample.due, sample.done)

    read_ms = [at_reference(s) for s in read_samples]
    # the six backends' latencies sit in separate clusters, so a median over
    # all reads falls in a gap between them; each backend's median is steady
    by_backend = {
        name: median(
            [ms for s, ms in zip(read_samples, read_ms) if _read_target(s.index)[1] == name]
        )
        for name in BACKENDS
    }
    write_ms = [at_reference(s) for s in write_samples]
    raw_write_ms = median([(s.done - s.due) * 1000.0 for s in write_samples])
    read_tail, read_pct, read_n = tail(read_ms)
    admission = metrics["admission"]
    outcome.figure("setup_s", median(setups), "s", samples=setups)
    outcome.figure("match_p50_ms", median(read_ms), "ms", samples=len(read_ms))
    outcome.figure("match_p95_ms", read_tail, "ms", percentile=read_pct, samples=read_n)
    outcome.figure("match_rps", rps, "1/s", samples=len(closed_samples))
    outcome.figure("ingest_req_p50_ms", median(write_ms), "ms", samples=len(write_ms))
    outcome.figure("recovery_s", recovery_s, "s", samples=restarts)
    outcome.figure("peak_rss_mb", peak_rss, "MB")
    outcome.metrics.update(
        {
            "setup_s": outcome.figures["setup_s"]["value"],
            "latency_ms": sum(by_backend.values()) / len(by_backend),
            "tail_latency_ms": read_tail,
            "recovery_ms": recovery_s * 1000.0,
            "write_latency_ms": median(write_ms),
            "throughput_per_s": rps,
            "peak_rss_mb": peak_rss,
        }
    )
    lag_ms = [(s.sent - s.due) * 1000.0 for s in read_samples + write_samples]
    outcome.detail.update(
        {
            "reads_entities": [data.graph.num_entities for data in reads],
            "writes_entities": writes.graph.num_entities,
            "server_cpus": sorted(server_cpus or os.sched_getaffinity(0)),
            "load_generator_cpus": sorted(os.sched_getaffinity(0)),
            "read_rate_per_s": READ_RATE,
            "write_windows_per_s": WRITE_RATE,
            "match_p50_ms_by_backend": by_backend,
            "generator_lag_p50_ms": median(lag_ms),
            "queue_rejected": admission["rejected"],
            "queue_depth_max": admission["max_queue_depth_seen"],
            "raw_ingest_req_p50_ms": raw_write_ms,
            "open_loop_probes": sum(open_start <= at <= open_end for at, _ in pace.readings),
            "open_loop_probe_mean_s": pace.mean(open_start, open_end),
            "probe_median_s": pace.median(),
        }
    )
    if args.trace:
        spans = [Span.from_dict(d) for d in json.loads(spans_file.read_text(encoding="utf-8"))]
        tracer.spans.extend(spans)
        window = between(spans, open_start, open_end)
        figures = layer_figures(window)
        figures.update(ingest_figures(window))
        figures.update(
            {
                "ingest.window_ms": raw_write_ms,
                "queue.wait_ms": median(
                    [s.payload["queue_wait_seconds"] * 1000.0 for s in read_samples if served(s)]
                ),
                "queue.depth_max": admission["max_queue_depth_seen"],
                "queue.rejected": admission["rejected"],
                "http.overhead_ms": _http_overhead_ms(read_samples, window),
                "generator.lag_ms": median(lag_ms),
                "tracing.overhead_ratio": (rps + untraced_rps) / 2.0 / traced_rps,
            }
        )
        outcome.metrics.update(figures)
    return outcome


def _http_overhead_ms(samples, spans) -> float:
    """Median client time of a read not spent queued or matching.

    Each read's server-side run is the top-level ``session.run`` span of a
    worker thread that lies inside the read's send-to-response interval
    (ingest reruns are nested under ``ingest.run`` and never match).
    """
    above = ancestors(spans)
    runs = [
        s for s in spans
        if s.name == "session.run" and not above[s.id]
    ]
    overheads = []
    for sample in samples:
        inside = [s for s in runs if s.start >= sample.sent and s.end <= sample.done]
        if len(inside) != 1 or not isinstance(sample.payload, dict):
            continue
        queued = sample.payload["queue_wait_seconds"]
        overheads.append((sample.done - sample.sent - queued - inside[0].duration) * 1000.0)
    return median(overheads)

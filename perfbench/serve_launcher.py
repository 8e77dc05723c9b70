"""Start `repro serve` with the benchmark's span wrappers installed.

Usage: ``python serve_launcher.py SPANS_FILE serve [serve options...]``.
Recording is off until the process receives SIGUSR1 and off again after
SIGUSR2; when the server exits, every recorded span is written to
SPANS_FILE as JSON.  The server propagates no request id, so the client
ties these spans to its requests by worker thread and time interval.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    from repro.cli import main as cli_main

    code = cli_main(argv)
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump([span.as_dict() for span in tracer.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run ``repro serve`` with spans around the daemon's layer calls.

Usage: ``python perfbench/serve_traced.py SPANS_OUT serve [serve args]``.
Wraps ``ServiceScheduler.admit`` (span ``service.admit``),
``OnlinePlacer.assign`` (``service.place``, nested in the admission)
and ``ServiceScheduler.step`` (``service.step``), runs the unmodified
CLI, and writes the spans as JSON lines to ``SPANS_OUT`` on exit.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.service.placement import OnlinePlacer
    from repro.service.scheduler import ServiceScheduler

    recorder = SpanRecorder("service_admit-daemon")
    recorder.patch(ServiceScheduler, "admit", "service.admit")
    recorder.patch(OnlinePlacer, "assign", "service.place")
    recorder.patch(ServiceScheduler, "step", "service.step")
    try:
        return cli_main(argv[1:])
    finally:
        recorder.unpatch_all()
        recorder.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

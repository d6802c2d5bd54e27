"""In-memory span recording around the public calls into each layer.

The benchmark attributes time to layers from the outside: it replaces a
module attribute (``repro.analysis.batch.sweep_makespans``, ...) with a
wrapper that records one span per call, for the duration of a traced
run only, and restores the original afterwards.  No program file is
edited, and untraced runs execute the unmodified code.

A span is ``(name, start, end, parent, run_id)``; ``parent`` is the
index of the innermost span open when the call began (the program is
single-threaded on every patched path).  A layer's self time is its
spans' durations minus the time covered by their direct children, so
self times telescope: summed over every layer, they equal the summed
duration of the root spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any


class SpanRecorder:
    """Collects spans and per-layer counters in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent]`` rows, in start order.
        self.spans: list[list[Any]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        row = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def count(self, name: str, delta: float = 1.0) -> None:
        self.counts[name] += delta

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[[tuple, dict, Any, BaseException | None], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` under a span; ``observe(args, kwargs, result, error)`` runs after."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[f"{name}.calls"] += 1
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if observe is not None:
                        observe(args, kwargs, None, exc)
                    raise
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[tuple, dict, Any, BaseException | None], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`unpatch_all`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def span_self_times(self) -> list[float]:
        """Each span's self time: its duration minus its direct children's."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Per-name self time, summed over the name's spans."""
        totals: defaultdict[str, float] = defaultdict(float)
        for row, own in zip(self.spans, self.span_self_times()):
            totals[row[0]] += own
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (relative times, seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent if parent >= 0 else None,
                            "run": self.run_id,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )

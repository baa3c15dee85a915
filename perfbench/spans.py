"""In-memory spans around the benchmark's own calls into levynoise.

A span records a name, start, end, parent span and run id.  Spans stay
in memory while the benchmark runs and are written out once, at the
end.  A layer's self time is its span's duration minus the time its
child spans cover.

Apart from spans, both tracers time the coarse *steps* of a pass (a few
to twenty per pass, each from 0.1 to 2 s), from which ``run.py``
computes the pass time.  Steps are timed in CPU time of the process
(``CLOCK``), which does not run while the process waits for a CPU, so
time-slicing with other processes and a host's steal time stay out of
them.  Spans are timed in wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

CLOCK = time.process_time  # the clock of steps


class _Steps:
    """CPU times of the steps of the current pass, in order.

    Step times are in ``CLOCK`` seconds.  With a ``sampler`` (a
    ``reference.Sampler``), each step also records the reference samples
    taken while it ran.
    """

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.steps: list[tuple[str, float, list[float]]] = []

    @contextmanager
    def step(self, name: str):
        first = len(self.sampler.samples) if self.sampler else 0
        t0 = CLOCK()
        try:
            yield
        finally:
            d = CLOCK() - t0
            self.steps.append((name, d, self.sampler.samples[first:] if self.sampler else []))

    def take_steps(self) -> list[tuple[str, float, list[float]]]:
        """The steps since the last call: (name, CPU time, reference samples)."""
        steps, self.steps = self.steps, []
        return steps


class Tracer(_Steps):
    enabled = True

    def __init__(self, run_id: str):
        super().__init__()  # no reference samples: they would sit inside the spans
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def root_of(self, index: int) -> int:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def nesting_errors(self) -> int:
        """Spans that end before they start or outlive their parent."""
        bad = 0
        for _, start, end, parent in self.spans:
            if end is None or end < start:
                bad += 1
            elif parent is not None:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    bad += 1
        return bad

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": self.run_id}) + "\n")


class NullTracer(_Steps):
    """Tracing off: spans cost one no-op context manager."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

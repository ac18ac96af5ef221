"""In-memory spans around functions reached through module attributes.

A wrapped function records one span per call: name, start, end, parent
span and the id of the benchmark item that was running.  Spans are plain
tuples kept in a list (a span's index is reserved when it starts, so a
parent always precedes its children) and are only analysed or written
out after the run.  Self time is derived from the nesting afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from pathlib import Path
from typing import Callable, Iterator

# span tuple fields
NAME, START, END, PARENT, ITEM, RAISED = range(6)

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.item = -1
        self.paused = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, label: str, hook: Hook | None = None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``hook(args, kwargs, result)`` runs after a call that returned, to
        update counters kept by the caller.
        """
        fn = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.item, raised)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """Call wrapped functions without recording spans (output checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV, times in ns from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\titem\traised\n")
            for index, span in enumerate(self.spans):
                out.write(
                    f"{index}\t{self.names[span[NAME]]}\t{round((span[START] - origin) * 1e9)}\t"
                    f"{round((span[END] - origin) * 1e9)}\t{span[PARENT]}\t{span[ITEM]}\t{int(span[RAISED])}\n"
                )


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[index] for index, span in enumerate(spans)]


def per_function(spans: list[tuple], names: list[str]) -> dict[str, dict[str, float]]:
    """calls, self_s and raised for every wrapped name, zeros for uncalled ones."""
    table = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in names}
    for span, own in zip(spans, self_times(spans)):
        row = table[names[span[NAME]]]
        row["calls"] += 1
        row["self_s"] += own
        row["raised"] += int(span[RAISED])
    return table

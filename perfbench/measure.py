"""The timed loop and the end-to-end arithmetic: per-item cost, median, tail, fail ratio.

The loop is closed and single-client: the next item starts when the
previous one has returned and been checked.  A workload's items form a
round, and rounds repeat until the time is up, so every item is timed
many times, spread over the whole run.  An item's cost is its fastest
timed run: other tenants of a shared host only ever add time, and they
add it in bursts that last from milliseconds to tens of seconds, so the
fastest of many spread-out runs is the figure that repeats from run to
run.  Only the call into the program is timed; checks, hashing and
failure reports run between timers.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

# rounds a timed loop always completes, however short its time
MIN_ROUNDS = 3


@dataclass
class Phase:
    """What one timed loop over a workload produced."""

    costs_s: list[float] = field(default_factory=list)  # per item: its fastest timed run
    attempted: int = 0  # timed runs, all rounds
    failed: int = 0
    rounds: int = 0
    problems: list[str] = field(default_factory=list)  # run-level check failures
    sha256: str = ""


def measure(workload, seconds: float, tracer=None, min_rounds: int = MIN_ROUNDS,
            between_rounds=None) -> Phase:
    """Run rounds over ``workload.items`` until ``seconds`` have passed; check every run.

    The deadline is only honoured between rounds, and at least
    ``min_rounds`` rounds run.  ``between_rounds(progress)``, if given,
    runs after each round with the share of ``seconds`` used so far; its
    own time does not count against the deadline.  An item's first run
    is checked by ``workload.check``; every later run must give the same
    ``workload.digest`` as the first.  A run fails when it raises or its
    check returns a reason; it is counted once, and a one-line reproducer
    goes to stderr.  The first round's digests enter the phase's sha256.
    """
    items = workload.items
    phase = Phase(costs_s=[math.inf] * len(items))
    expected: list[str | None] = [None] * len(items)
    digest = hashlib.sha256()
    pause = tracer.pause if tracer is not None else contextlib.nullcontext
    workload.begin()
    start = time.perf_counter()
    while phase.rounds < min_rounds or time.perf_counter() - start < seconds:
        for index, spec in enumerate(items):
            if tracer is not None:
                tracer.item = index
            t0 = time.perf_counter()
            try:
                output = workload.run(spec)
                reason = None
            except Exception as exc:  # an item that raises is a counted failure, not a crash
                output = None
                reason = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            phase.attempted += 1
            phase.costs_s[index] = min(phase.costs_s[index], elapsed)
            with pause():
                if reason is None:
                    reason = _check(workload, spec, output, expected, index)
                if reason is not None:
                    phase.failed += 1
                    print(f"FAIL {workload.name} item={index} round={phase.rounds}: {reason} | reproduce: "
                          f"{workload.reproducer(spec)}", file=sys.stderr)
                if phase.rounds == 0:
                    digest.update(f"{index}:{expected[index] or 'FAILED'}\n".encode())
        phase.rounds += 1
        if between_rounds is not None:
            paused = time.perf_counter()
            between_rounds((paused - start) / seconds if seconds > 0 else 1.0)
            start += time.perf_counter() - paused
    with pause():
        phase.problems = workload.end(digest)
    for problem in phase.problems:
        print(f"FAIL {workload.name} run: {problem}", file=sys.stderr)
    phase.sha256 = digest.hexdigest()
    return phase


def _check(workload, spec, output, expected: list[str | None], index: int) -> str | None:
    """Check an item's first good run in full, and every later one against it."""
    try:
        text = workload.digest(spec, output)
        if expected[index] is not None:
            return None if text == expected[index] else "output differs from the item's first run"
        reason = workload.check(spec, output)
    except Exception as exc:  # a check that cannot read the output fails the item
        return f"check raised {type(exc).__name__}: {exc}"
    if reason is None:
        expected[index] = text
    return reason


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest whole percentile
    that leaves at least ten samples above it, by the nearest-rank rule.

    With ten samples or fewer no percentile qualifies: the maximum is
    returned as percentile 100 with none beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    percentile = (100 * (n - 10)) // n
    rank = max(1, math.ceil(percentile * n / 100))
    return ordered[rank - 1], percentile, n - rank


def fail_ratio(phase: Phase) -> float:
    return phase.failed / phase.attempted


def items_per_s(phase: Phase) -> float:
    """Items per second when every item takes its cost: one round at its best."""
    return len(phase.costs_s) / sum(phase.costs_s)


def end_to_end(phase: Phase) -> dict[str, float]:
    value, percentile, beyond = tail(phase.costs_s)
    return {
        "items_per_s": items_per_s(phase),
        "item_p50_ms": 1000 * statistics.median(phase.costs_s),
        "item_tail_ms": 1000 * value,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "fail_ratio": fail_ratio(phase),
    }

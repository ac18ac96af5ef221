"""Tests of the benchmark's own arithmetic: self time, the tail rule, per-item cost, fail-ratio accounting."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure as measure_module  # noqa: E402
from measure import Phase, end_to_end, fail_ratio, measure, tail  # noqa: E402
from tracer import Tracer, per_function, self_times  # noqa: E402


def span(name, start, end, parent, item=0, raised=False):
    return (name, start, end, parent, item, raised)


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10] with children 1: [1, 4] and 3: [5, 9]; 2: [2, 3] is a grandchild under 1
    spans = [span(0, 0.0, 10.0, -1), span(1, 1.0, 4.0, 0), span(2, 2.0, 3.0, 1), span(1, 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = per_function(spans, ["outer", "middle", "inner", "unused"])
    assert table["middle"] == {"calls": 2, "self_s": 6.0, "raised": 0}
    assert table["unused"] == {"calls": 0, "self_s": 0.0, "raised": 0}


def test_wrapped_module_records_nesting_raises_and_pause():
    module = types.ModuleType("fake")

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return module.leaf(x) + module.leaf(x + 1)

    module.leaf, module.outer = leaf, outer
    tracer = Tracer()
    tracer.wrap(module, "leaf", "fake.leaf")
    tracer.wrap(module, "outer", "fake.outer")
    tracer.item = 7
    assert module.outer(1) == 3
    with pytest.raises(ValueError):
        module.outer(-5)
    with tracer.pause():
        assert module.outer(2) == 5
    tracer.uninstall()
    assert module.leaf is leaf and module.outer is outer

    spans = tracer.spans
    names = [tracer.names[s[0]] for s in spans]
    assert names == ["fake.outer", "fake.leaf", "fake.leaf", "fake.outer", "fake.leaf"]
    assert [s[3] for s in spans] == [-1, 0, 0, -1, 3]
    assert all(s[4] == 7 for s in spans)
    table = per_function(spans, tracer.names)
    assert table["fake.leaf"]["calls"] == 3 and table["fake.leaf"]["raised"] == 1
    assert table["fake.outer"]["raised"] == 1
    # self times of a tree add up to the roots' durations
    roots = sum(s[2] - s[1] for s in spans if s[3] == -1)
    assert sum(self_times(spans)) == pytest.approx(roots)


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(11, 9, 1), (21, 52, 11), (100, 90, 90), (580, 98, 569), (1000, 99, 990)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # 1..n, unsorted
    value, got_percentile, beyond = tail(samples)
    assert (value, got_percentile, beyond) == (float(rank), percentile, n - rank)
    assert beyond >= 10
    # one percentile higher would leave fewer than ten beyond
    assert n - -(-(percentile + 1) * n // 100) < 10


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


class FakeWorkload:
    """Item 1 raises, item 3 fails its check, every other item passes."""

    name = "fake"
    items = [0, 1, 2, 3]

    def __init__(self):
        self.checked = []

    def begin(self):
        pass

    def end(self, digest):
        return ["run-level problem"]

    def run(self, index):
        if index == 1:
            raise RuntimeError("boom")
        return index * 10

    def check(self, index, output):
        self.checked.append(index)
        return "bad output" if index == 3 else None

    def digest(self, index, output):
        return str(output)

    def reproducer(self, index):
        return f"fake --item {index}"


def test_fail_ratio_counts_each_failed_run_once(capsys):
    phase = measure(FakeWorkload(), seconds=0.0, min_rounds=3)
    # a zero deadline still runs the minimum number of whole rounds
    assert (phase.rounds, phase.attempted) == (3, 12)
    assert phase.failed == 6  # items 1 and 3 in each round
    assert fail_ratio(phase) == 0.5
    assert end_to_end(phase)["fail_ratio"] == fail_ratio(phase)
    assert phase.problems == ["run-level problem"]
    err = capsys.readouterr().err
    assert "item=1 round=0: raised RuntimeError: boom | reproduce: fake --item 1" in err
    assert "item=3 round=2: bad output | reproduce: fake --item 3" in err


def test_raising_item_is_not_checked_and_passing_item_is_checked_once():
    workload = FakeWorkload()
    measure(workload, seconds=0.0, min_rounds=3)
    assert 1 not in workload.checked
    assert workload.checked.count(0) == 1 and workload.checked.count(3) == 3


def test_fail_ratio_zero_when_all_pass():
    phase = Phase(costs_s=[0.1, 0.2, 0.3], attempted=9, rounds=3)
    assert fail_ratio(phase) == 0.0
    assert end_to_end(phase)["items_per_s"] == pytest.approx(3 / 0.6)


class ScriptedWorkload:
    """Item i's run in round r takes ``durations[r][i]`` seconds on a fake clock and outputs ``outputs[r][i]``."""

    name = "scripted"

    def __init__(self, clock, durations, outputs):
        self.clock, self.durations, self.outputs = clock, durations, outputs
        self.items = list(range(len(durations[0])))
        self.round = -1

    def begin(self):
        pass

    def end(self, digest):
        return []

    def run(self, index):
        if index == 0:
            self.round += 1
        self.clock[0] += self.durations[self.round][index]
        return self.outputs[self.round][index]

    def check(self, index, output):
        return None

    def digest(self, index, output):
        return str(output)

    def reproducer(self, index):
        return f"scripted --item {index}"


def test_item_cost_is_its_fastest_run(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(measure_module.time, "perf_counter", lambda: clock[0])
    durations = [[0.5, 2.0, 0.3], [0.1, 3.0, 0.4], [0.2, 1.0, 0.9]]
    phase = measure(ScriptedWorkload(clock, durations, [[1, 2, 3]] * 3), seconds=0.0, min_rounds=3)
    assert phase.costs_s == pytest.approx([0.1, 1.0, 0.3])
    summary = end_to_end(phase)
    assert summary["items_per_s"] == pytest.approx(3 / 1.4)
    assert summary["item_p50_ms"] == pytest.approx(300.0)
    assert (summary["item_tail_ms"], summary["tail_percentile"]) == (pytest.approx(1000.0), 100)


def test_rounds_continue_until_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(measure_module.time, "perf_counter", lambda: clock[0])
    durations = [[1.0, 1.0]] * 10
    phase = measure(ScriptedWorkload(clock, durations, [[1, 2]] * 10), seconds=5.0, min_rounds=1)
    # rounds end at 2, 4 and 6 s of fake time; the deadline is honoured only between rounds
    assert (phase.rounds, phase.attempted) == (3, 6)


def test_time_between_rounds_does_not_count_against_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(measure_module.time, "perf_counter", lambda: clock[0])
    progress = []

    def between_rounds(share):
        progress.append(share)
        clock[0] += 10.0

    phase = measure(ScriptedWorkload(clock, [[1.0, 1.0]] * 10, [[1, 2]] * 10), seconds=5.0, min_rounds=1,
                    between_rounds=between_rounds)
    assert phase.rounds == 3
    assert progress == pytest.approx([0.4, 0.8, 1.2])


def test_a_later_run_that_differs_from_the_first_fails(capsys):
    clock = [0.0]
    outputs = [[1, 2], [1, 2], [1, 5]]
    phase = measure(ScriptedWorkload(clock, [[0.0, 0.0]] * 3, outputs), seconds=0.0, min_rounds=3)
    assert (phase.attempted, phase.failed) == (6, 1)
    assert "item=1 round=2: output differs from the item's first run" in capsys.readouterr().err

"""regencost benchmark: one workload per run, in-process, single thread.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Workloads: verify-sweep, histories, simulate, curves (see README.md).
The run first times ``setup_s`` in fresh interpreters, then runs rounds
over the workload's items in a closed loop for ``--seconds`` and checks
every output; each item's cost is its fastest run (see measure.py).
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits
``--seconds`` in two: the untraced loop, then the same items again with
the package's public functions wrapped; it reports the per-layer metrics
instead.  The last
line of stdout is one JSON object; failures go to stderr, one line each
with a reproducer.  A run record (versions, seed, sha256 of the checked
outputs) goes to stdout and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
# str hashes are salted per process unless PYTHONHASHSEED is set, and the
# salt alone moved curves' items_per_s by 10% between processes; the run
# pins it so that runs and commits compare
HASH_SEED = "0"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-sweep", "histories", "simulate", "curves"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: the child process that times one set-up
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Import networkx, then the package and its CLI, then build the inputs; print the phases."""
    t0 = time.perf_counter()
    import networkx  # noqa: F401

    t1 = time.perf_counter()
    import regencost.cli  # noqa: F401

    t2 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    t3 = time.perf_counter()
    print(json.dumps({"ready": time.monotonic(), "import_networkx_s": t1 - t0,
                      "import_regencost_s": t2 - t1, "build_inputs_s": t3 - t2}))


def time_setup(workload: str, seed: int) -> dict[str, float]:
    """Set up in a fresh interpreter; ``setup_s`` runs from spawn to inputs built."""
    spawned = time.monotonic()  # CLOCK_MONOTONIC is system-wide, so the child's reading compares
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    probe["setup_s"] = probe.pop("ready") - spawned
    return probe


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "regencost" / "__init__.py").is_file():
        print(f"error: no regencost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import networkx

    import layers
    from measure import end_to_end, measure
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    # set-up probes run between rounds, spread over the untraced phase, so
    # that their median reflects the whole run and not a burst of it
    probes = []

    def probe_when_due(progress: float) -> None:
        while len(probes) < min(SETUP_PROBES, progress * SETUP_PROBES):
            probes.append(time_setup(args.workload, args.seed))

    untraced = measure(workload, phase_seconds, between_rounds=probe_when_due)
    probe_when_due(1.0)
    summary = end_to_end(untraced)
    setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    results = {
        "setup_s": (setup["setup_s"], "s"),
        "items_per_s": (summary["items_per_s"], "1/s"),
        "item_p50_ms": (summary["item_p50_ms"], "ms"),
        "item_tail_ms": (summary["item_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {workload.name} seed {args.seed}: {len(workload.items)} items, {untraced.rounds} rounds, "
          f"{untraced.attempted} runs, {untraced.failed} failed")
    for name, (value, unit) in {**results, "fail_ratio": (summary["fail_ratio"], "ratio")}.items():
        note = f" (p{summary['tail_percentile']}, {summary['tail_beyond']} beyond)" if name == "item_tail_ms" else ""
        print(f"  {name:<13} {value:12.4f} {unit}{note}")
    phases = [untraced]

    if args.trace:
        tracer = Tracer()
        counters = layers.install(tracer)
        try:
            traced = measure(workload, phase_seconds, tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        missing = layers.uncalled(tracer, workload.exercises)
        if missing:
            traced.problems.append(f"traced run recorded no call of {', '.join(missing)}")
            print(f"FAIL {workload.name} trace: no call of {', '.join(missing)}", file=sys.stderr)
        traced_rate = end_to_end(traced)["items_per_s"]
        results = layers.metrics(tracer, counters, traced.rounds)
        results.update({
            "setup.import_networkx_s": (setup["import_networkx_s"], "s"),
            "setup.import_regencost_s": (setup["import_regencost_s"], "s"),
            "setup.build_inputs_s": (setup["build_inputs_s"], "s"),
            "trace.items_per_s_untraced": (summary["items_per_s"], "1/s"),
            "trace.items_per_s_traced": (traced_rate, "1/s"),
            "trace.overhead_items_per_s": (summary["items_per_s"] - traced_rate, "1/s"),
            "trace.spans": (len(tracer.spans) / traced.rounds, "count"),
        })
        spans_file = OUT / f"spans-{workload.name}.tsv.gz"
        OUT.mkdir(exist_ok=True)
        tracer.write(spans_file)
        print(f"  traced: {traced.rounds} rounds at {traced_rate:.4f} items/s; "
              f"{len(tracer.spans)} spans in {spans_file}")
        busiest = sorted(((v, k) for k, (v, _) in results.items() if k.endswith(".self_s") and v > 0), reverse=True)
        for value, name in busiest[:10]:
            print(f"  {name:<36} {value:10.6f} s per round")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in results.items()}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and not any(p.problems for p in phases)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "networkx": networkx.__version__, "pythonhashseed": HASH_SEED,
        "nproc": os.cpu_count(), "commit": git_commit(),
        "items": len(workload.items), "rounds": untraced.rounds, "runs": untraced.attempted,
        "output_sha256": untraced.sha256,
        "tail_percentile": summary["tail_percentile"], "tail_beyond": summary["tail_beyond"],
        "fail_ratio": summary["fail_ratio"], "correct": correct,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: items built from a seed, the timed call, the output check.

Each workload builds at set-up a fixed list of items, ``items``, which
forms one round of the timed loop (see ``measure.py``).  ``run`` is the
only timed call, ``check`` returns None or the reason an item's first
output is wrong, ``digest`` is the text that every later run of the item
must reproduce and that is hashed into the run record, and ``end`` checks
the run as a whole.  Library functions are always reached through their
module (``cutflow.max_flow``), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from fractions import Fraction
from random import Random

from regencost import cli, cutflow, rlnc, tradeoff, validate_params

# the default `verify --sweep`; the check counts both, so it cannot pass vacuously
SWEEP_CONFIGS = 580
SWEEP_POINTS = 5820

# the paper's configurations A and B as (n, k, d1, d2)
PAPER_CONFIGS = {"A": (15, 5, 8, 6), "B": (15, 5, 4, 10)}


def _param_flags(params) -> list[str]:
    return ["--k", str(params.k), "--d1", str(params.d1), "--d2", str(params.d2),
            "--kprime", str(params.kprime), "--c2", str(params.cost_expensive)]


def _sample(stride: int, seed: int) -> list:
    """Every ``stride``-th config of the default sweep, in seed-permuted order.

    The sweep's innermost loop is over four kprime values, so a stride
    prime to 4 takes every kprime and every (k, d1, d2) region alike.
    """
    configs = list(cutflow.verification_sweep())[::stride]
    Random(seed).shuffle(configs)
    return configs


class Workload:
    name = ""
    items: list = []  # one round of the timed loop
    exercises: tuple[str, ...] = ()  # wrapped functions a traced run must see called

    def begin(self) -> None:
        """Reset the run-level tallies before a timed loop."""

    def end(self, digest) -> list[str]:
        """Run-level check failures after a timed loop; may add to the run's ``digest``."""
        return []


class VerifySweep(Workload):
    """A fixed sample of the default `verify --sweep`, one config per item; the full sweep is the check."""

    name = "verify-sweep"
    stride = 11  # 53 of the 580 configs
    exercises = (
        "cutflow.verify_closed_form", "cutflow.default_beta2_grid", "cutflow.build_gstar",
        "cutflow.max_flow", "networkx.maximum_flow_value", "cutflow.alpha_min_oracle",
        "cutflow.cut_capacity_sum", "cutflow.cut_terms", "tradeoff.alpha_min",
        "tradeoff.tradeoff_curve",
    )

    def __init__(self, seed: int) -> None:
        self.items = _sample(self.stride, seed)
        self.sweep = _sample(1, seed)
        self.sweep_problems: list[str] | None = None

    def run(self, params):
        return cutflow.verify_closed_form(params)

    def check(self, params, reports) -> str | None:
        for report in reports:
            if not report.ok:
                return (f"beta2={report.beta2} closed={report.alpha_closed} oracle={report.alpha_oracle} "
                        f"maxflow={report.maxflow_at_alpha} (add --beta2 {report.beta2})")
        return None if reports else "no grid points"

    def end(self, digest) -> list[str]:
        """Run the whole default sweep once, untimed: every config ok, 580 configs, 5820 points."""
        if self.sweep_problems is None:
            problems, points, sweep = [], 0, hashlib.sha256()
            for params in self.sweep:
                try:
                    reports = self.run(params)
                except Exception as exc:  # a config that raises is a check failure, not a crash
                    problems.append(f"raised {type(exc).__name__}: {exc} | reproduce: {self.reproducer(params)}")
                    continue
                points += len(reports)
                reason = self.check(params, reports)
                if reason is not None:
                    problems.append(f"{reason} | reproduce: {self.reproducer(params)}")
                sweep.update(f"{self.digest(params, reports)}\n".encode())
            if len(self.sweep) != SWEEP_CONFIGS or points != SWEEP_POINTS:
                problems.append(f"{len(self.sweep)} configs and {points} points, expected "
                                f"{SWEEP_CONFIGS} and {SWEEP_POINTS} | reproduce: regencost verify --sweep")
            self.sweep_problems, self.sweep_sha256 = problems, sweep.hexdigest()
        digest.update(f"sweep:{self.sweep_sha256}\n".encode())
        return self.sweep_problems

    def digest(self, params, reports) -> str:
        head = f"{params.k},{params.d1},{params.d2},{params.kprime}"
        return head + ":" + ";".join(
            f"{r.beta2},{r.alpha_closed},{r.alpha_oracle},{r.maxflow_at_alpha},{r.ok}" for r in reports
        )

    def reproducer(self, params) -> str:
        return "regencost verify " + " ".join(_param_flags(params))


class Histories(Workload):
    """Random valid repair histories on configs A and B, each solved by max flow.

    The items are a fixed grid of strata: config A or B, kprime 2 or 3,
    seven bands of n to 3n failures and three bands of 1 to 3 times
    ``beta2_min``.  The seed draws the failure count and ``beta2`` within
    each band and the history itself, so every seed times the same mix.
    """

    name = "histories"
    exercises = ("cutflow.random_history_graph", "cutflow.max_flow", "networkx.maximum_flow_value")
    failure_bands, beta2_bands = 7, 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = Random(seed)
        self.items = []
        for label, shape in PAPER_CONFIGS.items():
            for kprime in (2, 3):
                p = validate_params(*shape, kprime=kprime)
                floor = tradeoff.beta2_min(p)
                for band in range(self.failure_bands):
                    low = p.n + 2 * p.n * band // self.failure_bands
                    high = p.n + 2 * p.n * (band + 1) // self.failure_bands
                    for band2 in range(self.beta2_bands):
                        # percent of beta2_min, within this band of 100..300
                        percent = rng.randint(100 + 200 * band2 // self.beta2_bands,
                                              100 + 200 * (band2 + 1) // self.beta2_bands)
                        beta2 = floor * Fraction(percent, 100)
                        self.items.append(((label, kprime), p, beta2, tradeoff.alpha_min(p, beta2),
                                           rng.randint(low, high), rng.getrandbits(32)))
        rng.shuffle(self.items)

    def run(self, spec):
        _, params, beta2, alpha, failures, history_seed = spec
        graph = cutflow.random_history_graph(params, alpha, beta2, Random(history_seed), failures)
        return cutflow.max_flow(graph)

    def check(self, spec, flow) -> str | None:
        if flow < spec[1].file_size:
            return f"max flow {flow} below M={spec[1].file_size}"
        return None

    def digest(self, spec, flow) -> str:
        (label, kprime), _, beta2, alpha, failures, history_seed = spec
        return f"{label},{kprime},{beta2},{alpha},{failures},{history_seed}:{flow}"

    def reproducer(self, spec) -> str:
        (label, kprime), _, beta2, alpha, failures, history_seed = spec
        n, k, d1, d2 = PAPER_CONFIGS[label]
        return (f"n={n} k={k} d1={d1} d2={d2} kprime={kprime} beta2={beta2} alpha={alpha} "
                f"failures={failures} history_seed={history_seed}: "
                f"python3 perfbench/run.py --workload histories --seed {self.seed}")


class Simulate(Workload):
    """Seeded RLNC trials on the ROADMAP config over GF(256), uniform helpers."""

    name = "simulate"
    exercises = ("rlnc.run_trial", "rlnc.encode_initial", "rlnc.repair", "rlnc.can_reconstruct",
                 "rlnc.matrix_rank")
    alpha_sym, beta2_sym = 12, 1
    # Small trials, so that each item's fastest run over the rounds is
    # steady; repairs still take over a third of a trial and rank checks
    # most of the rest.
    failures, subsets = 3, 1
    trials = 8
    min_success = Fraction(95, 100)
    # The timed trials check only 8 subsets, where one failure, at about
    # 0.4% a subset over GF(256), already breaks 95%.  So the success rate
    # is checked on the same trial seeds with 12 subsets each, untimed.
    rate_subsets = 12

    def __init__(self, seed: int) -> None:
        self.params = validate_params(15, 5, 8, 6, kprime=2, file_size=60)
        rng = Random(seed)
        self.items = [rng.getrandbits(31) for _ in range(self.trials)]
        self.rate_problems: list[str] | None = None

    def run(self, trial_seed: int, subsets: int | None = None):
        return rlnc.run_trial(self.params, self.alpha_sym, self.beta2_sym, self.failures, trial_seed,
                              max_subsets=subsets or self.subsets)

    def check(self, trial_seed: int, trial) -> str | None:
        if trial.repairs_performed != self.failures or len(trial.checks) != self.subsets:
            return f"{trial.repairs_performed} repairs and {len(trial.checks)} subset checks"
        return None

    def end(self, digest) -> list[str]:
        """Check the success rate once, on every trial seed with ``rate_subsets`` subsets."""
        if self.rate_problems is None:
            successes = checks = 0
            short = []  # trial seeds with a subset that could not reconstruct
            try:
                for trial_seed in self.items:
                    trial = self.run(trial_seed, self.rate_subsets)
                    successes += trial.successes
                    checks += len(trial.checks)
                    if trial.successes < len(trial.checks):
                        short.append(trial_seed)
            except Exception as exc:  # a trial that raises is a check failure, not a crash
                self.rate_problems = [f"raised {type(exc).__name__}: {exc} | reproduce: "
                                      f"{self.reproducer(trial_seed, self.rate_subsets)}"]
                return self.rate_problems
            self.rate_problems = []
            if checks == 0 or Fraction(successes, checks) < self.min_success:
                self.rate_problems.append(
                    f"success rate {successes}/{checks} below {self.min_success}, short trial seeds {short}"
                    f" | reproduce: {self.reproducer((short or self.items)[0], self.rate_subsets)}")
        return self.rate_problems

    def digest(self, trial_seed: int, trial) -> str:
        return repr(trial)

    def reproducer(self, trial_seed, subsets: int | None = None) -> str:
        p = self.params
        return (f"regencost simulate --n {p.n} --k {p.k} --d1 {p.d1} --d2 {p.d2} --kprime {p.kprime} "
                f"--M {p.file_size} --alpha-sym {self.alpha_sym} --beta2-sym {self.beta2_sym} "
                f"--failures {self.failures} --max-subsets {subsets or self.subsets} --trials 1 --seed {trial_seed}")


class Curves(Workload):
    """`curve`, `ratio --kind msr|mbr` and `threshold` through cli.main for a fixed sample of sweep configs."""

    name = "curves"
    stride = 19  # 31 of the 580 configs
    exercises = ("cli.main", "tradeoff.tradeoff_curve", "tradeoff.operating_point", "tradeoff.alpha_min",
                 "tradeoff.bandwidth_ratio", "tradeoff.cost_ratio", "tradeoff.cost_threshold")

    def __init__(self, seed: int) -> None:
        self.items = []
        for params in _sample(self.stride, seed):
            flags = _param_flags(params)
            self.items.append((params, (
                ["curve", *flags, "--samples", "200"],
                ["ratio", "--kind", "msr", "--kprime-range", "1..20", *flags],
                ["ratio", "--kind", "mbr", "--kprime-range", "1..20", *flags],
                ["threshold", *flags],
            )))

    def run(self, spec):
        results = []
        for argv in spec[1]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, spec, results) -> str | None:
        params, argvs = spec
        for argv, (code, out, err) in zip(argvs, results):
            if code != 0:
                return f"exit {code} from `regencost {' '.join(argv)}`: {err.strip()}"
        rows = list(csv.DictReader(io.StringIO(results[0][1])))
        if len(rows) < 200:
            return f"{len(rows)} curve rows from `regencost {' '.join(argvs[0])}`"
        for row in rows:
            beta2 = Fraction(row["beta2"])
            if Fraction(row["alpha"]) != cutflow.alpha_min_oracle(params, beta2):
                return f"curve alpha {row['alpha']} is not the oracle's at beta2={beta2}"
        for argv, (_, out, _) in zip(argvs[1:], results[1:]):
            expected = 21 if argv[0] == "ratio" else 3
            if len(out.splitlines()) != expected:
                return f"{len(out.splitlines())} lines from `regencost {' '.join(argv)}`, expected {expected}"
        return None

    def digest(self, spec, results) -> str:
        return "".join(f"{code}\n{out}" for code, out, _ in results)

    def reproducer(self, spec) -> str:
        return "regencost " + " ".join(spec[1][0])


WORKLOADS = {w.name: w for w in (VerifySweep, Histories, Simulate, Curves)}

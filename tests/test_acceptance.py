"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; without ``-s`` pytest still shows them for any failing criterion.
Every comparison is exact rational arithmetic unless a runtime cap or a
Monte Carlo floor is explicitly stated.
"""

import time
from dataclasses import replace
from fractions import Fraction
from random import Random

from conftest import dimakis_point, make_params
from regencost import (
    NotApplicableError,
    alpha_min,
    bandwidth_ratio,
    beta2_min,
    cost_ratio,
    cost_ratio_limit,
    cost_threshold,
    gmbr_point,
    gmsr_point,
    tradeoff_curve,
)
from regencost.cutflow import (
    cut_capacity_sum,
    max_flow,
    random_history_graph,
    verification_sweep,
    verify_closed_form,
)
from regencost.errors import InsufficientRepairBandwidthError
from regencost.rlnc import run_trial

F = Fraction

CONFIG_A = make_params(5, 8, 6, kprime=2, n=15)
CONFIG_B = make_params(5, 4, 10, kprime=2, n=15)


def _report(name: str, problems: list[str]) -> None:
    print(f"[acceptance] {name}: {'FAIL' if problems else 'PASS'}")
    assert not problems, f"{len(problems)} problem(s), first few: {problems[:5]}"


def test_acceptance_oracle_equivalence_sweep():
    """Closed form == cut-sum oracle == exact max flow on every sweep point."""
    started = time.monotonic()
    problems = []
    configs = points = 0
    for params in verification_sweep():
        configs += 1
        for report in verify_closed_form(params):
            points += 1
            if not report.ok:
                problems.append(
                    f"k={params.k} d1={params.d1} d2={params.d2} "
                    f"kprime={params.kprime} beta2={report.beta2}: "
                    f"closed={report.alpha_closed} oracle={report.alpha_oracle} "
                    f"flow={report.maxflow_at_alpha}"
                )
    elapsed = time.monotonic() - started
    if configs != 580:
        problems.append(f"expected 580 sweep configs, saw {configs}")
    if elapsed >= 120:
        problems.append(f"sweep took {elapsed:.1f}s, budget is 120s")
    print(f"[acceptance] sweep covered {configs} configs / {points} grid points in {elapsed:.1f}s")
    _report("closed form vs oracle vs max flow (full sweep)", problems)


def _homogeneous_alpha_min(file_size, k, d, beta):
    # classic single-tier piecewise form, restated independently of the library
    if beta * k * (2 * d - k + 1) < 2 * file_size:
        raise InsufficientRepairBandwidthError("below the single-tier feasible range")
    if beta >= 2 * file_size / F(2 * k * (d - k) + 2 * k):
        return file_size / k
    for i in range(k - 1, 0, -1):
        f_here = 2 * file_size / F(2 * k * (d - k) + (i + 1) * (2 * k - i))
        f_next = 2 * file_size / F(2 * k * (d - k) + i * (2 * k - i + 1))
        if f_here <= beta < f_next:
            return (2 * file_size - i * (2 * d - 2 * k + i + 1) * beta) / (2 * (k - i))
    raise AssertionError("unreachable: grid point escaped the piecewise ranges")


def test_acceptance_homogeneous_reduction():
    """At kprime=1 the two-tier forms collapse to the single-tier ones exactly."""
    problems = []
    for params in verification_sweep(kprimes=(1,)):
        k, d, M = params.k, params.d, params.file_size
        for label, tier in (("msr", gmsr_point(params)), ("mbr", gmbr_point(params))):
            if tier != dimakis_point(params, label):
                problems.append(f"{label} mismatch at k={k} d1={params.d1} d2={params.d2}")
        curve = tradeoff_curve(params)
        grid = set(curve.breakpoints())
        grid.update((a + b) / 2 for a, b in zip(curve.breakpoints(), curve.breakpoints()[1:]))
        grid.add(curve.breakpoints()[-1] * 2)
        for beta in grid:
            if alpha_min(params, beta) != _homogeneous_alpha_min(M, k, d, beta):
                problems.append(f"alpha_min mismatch at k={k} d={d} beta={beta}")
    _report("homogeneous reduction at kprime=1", problems)


def test_acceptance_cost_thresholds():
    """Break-even cost ratios: frozen values, flatness at the threshold, limits."""
    problems = []
    expected = [(CONFIG_A, "msr", F(2)), (CONFIG_A, "mbr", F(4, 3)), (CONFIG_B, "mbr", F(2))]
    for params, kind, value in expected:
        got = cost_threshold(params, kind)
        if got != value:
            problems.append(f"threshold {kind} expected {value}, got {got}")
    try:
        cost_threshold(CONFIG_B, "msr")
        problems.append("scenario B msr threshold should not exist")
    except NotApplicableError:
        pass
    for params, kind, threshold in expected:
        at_threshold = replace(params, cost_cheap=F(1), cost_expensive=threshold)
        for kprime in range(1, 21):
            if cost_ratio(replace(at_threshold, kprime=F(kprime)), kind) != 1:
                problems.append(f"eta != 1 at the {kind} threshold, kprime={kprime}")
        above = replace(params, cost_cheap=F(1), cost_expensive=F(4))
        limit = cost_ratio_limit(above, kind)
        etas = [cost_ratio(replace(above, kprime=F(kp)), kind) for kp in range(1, 21)]
        if etas[0] != 1:
            problems.append(f"{kind} eta at kprime=1 is {etas[0]}, expected 1")
        if any(hi < lo for lo, hi in zip(etas[1:], etas)):
            problems.append(f"{kind} eta not non-increasing above the threshold")
        if any(eta < limit for eta in etas):
            problems.append(f"{kind} eta dips under its kprime->inf limit {limit}")
        if not limit <= etas[-1] <= etas[0]:
            problems.append(f"{kind} eta fails to move toward the limit")
        below_ratio = threshold - F(1, 4)
        below = replace(params, cost_cheap=F(1), cost_expensive=below_ratio)
        etas = [cost_ratio(replace(below, kprime=F(kp)), kind) for kp in range(1, 21)]
        if any(hi > lo for lo, hi in zip(etas[1:], etas)) or any(eta < 1 for eta in etas):
            problems.append(f"{kind} eta should grow past 1 below the threshold")
    if cost_ratio_limit(replace(CONFIG_A, cost_expensive=F(4)), "msr") != F(5, 8):
        problems.append("frozen msr limit at ratio 4 moved")
    if cost_ratio_limit(replace(CONFIG_A, cost_expensive=F(4)), "mbr") != F(1, 2):
        problems.append("frozen mbr limit at ratio 4 moved")
    if cost_ratio_limit(replace(CONFIG_B, cost_expensive=F(4)), "mbr") != F(6, 11):
        problems.append("frozen scenario-B mbr limit at ratio 4 moved")
    _report("cost thresholds and kprime->inf limits", problems)


def test_acceptance_ratio_monotonicity_and_dominance():
    """Bandwidth premium: 1 at kprime=1, monotone in kprime, never below symmetric."""
    problems = []
    for base in verification_sweep(max_k=4, max_d=6, kprimes=(1,)):
        scenario_a = base.d1 >= base.k
        for kind in ("msr", "mbr"):
            values = [bandwidth_ratio(replace(base, kprime=F(kp)), kind) for kp in range(1, 9)]
            if values[0] != 1:
                problems.append(f"rho(kprime=1) != 1 for {kind} k={base.k} d1={base.d1} d2={base.d2}")
            if any(hi < lo for lo, hi in zip(values, values[1:])):
                problems.append(f"rho decreasing for {kind} k={base.k} d1={base.d1} d2={base.d2}")
            strict = all(lo < hi for lo, hi in zip(values, values[1:]))
            expect_strict = (scenario_a and base.d2 >= 1 and base.k >= 2) or (
                not scenario_a and base.d1 >= 1
            )
            if strict != expect_strict:
                problems.append(
                    f"rho strictness off for {kind} k={base.k} d1={base.d1} d2={base.d2}"
                )
        if not scenario_a:
            for ratio in (F(3, 2), F(4)):
                priced = replace(base, cost_cheap=F(1), cost_expensive=ratio, kprime=F(3))
                if bandwidth_ratio(priced, "msr") < 1 or cost_ratio(priced, "msr") < 1:
                    problems.append(
                        f"scenario B msr shows a gain at k={base.k} d1={base.d1} d2={base.d2}"
                    )
    if bandwidth_ratio(CONFIG_A, "msr") != F(55, 49):
        problems.append("frozen rho for the msr reference config moved")
    if bandwidth_ratio(CONFIG_B, "msr") != F(9, 7):
        problems.append("frozen rho for the scenario-B msr reference config moved")
    # dominance: at equal total repair traffic the symmetric code never needs
    # more storage, so the premium bought by cheap helpers is bandwidth-only
    for params in (CONFIG_A, CONFIG_B, replace(CONFIG_A, kprime=F(4)), replace(CONFIG_B, kprime=F(4))):
        curve = tradeoff_curve(params)
        probes = set(curve.breakpoints())
        probes.update((a + b) / 2 for a, b in zip(curve.breakpoints(), curve.breakpoints()[1:]))
        probes.add(curve.breakpoints()[-1] * F(3, 2))
        probes.add(curve.breakpoints()[-1] * 3)
        symmetric = replace(params, kprime=F(1))
        for beta2 in probes:
            gamma = params.gamma_per_beta2 * beta2
            sym_alpha = alpha_min(symmetric, gamma / params.d)
            if sym_alpha > alpha_min(params, beta2):
                problems.append(f"symmetric repair beaten at kprime={params.kprime} beta2={beta2}")
    _report("bandwidth-ratio monotonicity and symmetric dominance", problems)


def test_acceptance_history_min_cut_floor():
    """No random valid history cuts below the adversarial closed-form bound."""
    problems = []
    histories = 0
    rng = Random(20260815)
    configs = [
        make_params(2, 2, 1, kprime=2),
        make_params(3, 1, 2, kprime=2),
        make_params(3, 3, 2, kprime=1, n=7),
        make_params(3, 2, 2, kprime=3, n=6),
        make_params(2, 0, 3, kprime=2, n=5),
        make_params(3, 5, 0, kprime=2, n=7),
        make_params(4, 4, 2, kprime=2, n=8),
        make_params(4, 2, 3, kprime=5, n=7),
        make_params(1, 1, 1, kprime=3, n=3),
        make_params(5, 3, 3, kprime=2, n=8),
    ]
    for params in configs:
        low = beta2_min(params)
        flat = tradeoff_curve(params).segments[-1].beta2_lo
        for beta2 in (low, (low + flat) / 2, flat * 2):
            exact = alpha_min(params, beta2)
            for alpha in (exact / 2, exact, exact * 2):
                bound = cut_capacity_sum(params, alpha, beta2)
                for failures in (0, 1, 3, 2 * params.k):
                    for _ in range(2):
                        graph = random_history_graph(params, alpha, beta2, rng, failures)
                        histories += 1
                        flow = max_flow(graph)
                        if flow < bound:
                            problems.append(
                                f"history under bound: k={params.k} d1={params.d1} "
                                f"d2={params.d2} beta2={beta2} alpha={alpha} "
                                f"failures={failures} flow={flow} bound={bound}"
                            )
    if histories < 500:
        problems.append(f"only {histories} histories sampled, need at least 500")
    print(f"[acceptance] sampled {histories} random histories")
    _report("random-history min cut never beats the bound", problems)


def test_acceptance_network_coding_success():
    """Seeded coding trials: high success at the tradeoff point, zero below rank."""
    started = time.monotonic()
    problems = []
    params = make_params(2, 2, 1, kprime=2, n=4, file_size=8)
    total = successes = 0
    for seed in range(100):
        result = run_trial(
            params, alpha_sym=5, beta2_sym=1, num_failures=1 + seed % 3, seed=seed
        )
        total += len(result.checks)
        successes += result.successes
    rate = successes / total
    print(f"[acceptance] coding success {successes}/{total} = {rate:.4f}")
    if rate < 0.95:
        problems.append(f"success rate {rate:.4f} below the 0.95 floor")
    for seed in range(10):
        starved = run_trial(
            params, alpha_sym=3, beta2_sym=1, num_failures=1 + seed % 3, seed=seed
        )
        if starved.successes != 0:
            problems.append(f"reconstruction under the rank bound at seed {seed}")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        problems.append(f"trials took {elapsed:.1f}s, budget is 60s")
    _report("network-coding success rates", problems)

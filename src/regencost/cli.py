"""Command line front end.

Subcommands: ``point`` (extremal operating points), ``curve`` (the full
piecewise-linear tradeoff), ``ratio`` (bandwidth/cost ratios against
symmetric repair), ``threshold`` (cost ratios where two-tier repair starts
paying off), ``verify`` (closed forms against oracle and max flow),
``simulate`` (random linear network coding trials), ``graph`` (dump the
worst-case flow graph), and ``paper-figures`` (the sweep CSVs behind the
reference figures).

Exact rationals print as "p/q" next to a 12-significant-digit decimal
column; :func:`_exact_cells` is the one place that pairs them.  Exit
codes: 0 success, 1 verification mismatch, 2 usage or validation error.

:func:`main` parses with one parser per process, built on its first call,
so callers that run many commands in one process (tests, notebooks, the
benchmark) pay for building it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import heapq
import json
import os
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import cutflow, rlnc, tradeoff
from .errors import NonPositiveError, NotApplicableError, RegenError, UsageError
from .params import CodePoint, SystemParams, as_fraction, exact_str

# one row per system-parameter flag: (flag, SystemParams field, argparse type, help)
_PARAM_FLAGS = (
    ("n", "n", int, "total nodes (default d1+d2+1)"),
    ("k", "k", int, "nodes needed to rebuild the file"),
    ("d1", "d1", int, "cheap helpers per repair"),
    ("d2", "d2", int, "expensive helpers per repair"),
    ("kprime", "kprime", None, "download ratio beta1/beta2, rational >= 1 (default 1)"),
    ("M", "file_size", None, "file size, rational > 0 (default 1)"),
    ("c1", "cost_cheap", None, "cheap per-symbol cost, rational (default 1)"),
    ("c2", "cost_expensive", None, "expensive per-symbol cost, rational (default 1)"),
)

# a --config key is a flag name, a field name, or the capitalised cost flags C1 and C2
_CONFIG_KEYS = {
    **{key: field for flag, field, _, _ in _PARAM_FLAGS for key in (flag, field)},
    "C1": "cost_cheap",
    "C2": "cost_expensive",
}

_FIGURE_KPRIMES = range(1, 21)

# largest curve --samples and ratio --kprime-range length; the rows are built in memory before any prints
_MAX_SAMPLES = 100_000

# smallest positive normal float; below it a float's precision falls off, to none under about 5e-324
_FLOAT_MIN = sys.float_info.min


def _decimal(value: Fraction) -> str:
    """``value`` to 12 significant digits, as ``f"{float(value):.12g}"`` prints it in the float range.

    ``numerator / denominator`` is the correctly rounded int quotient that
    ``float(value)`` computes, without going through Fraction's own methods.
    """
    try:
        approx = value.numerator / value.denominator
    except OverflowError:
        pass
    else:
        if abs(approx) >= _FLOAT_MIN or not value:
            return f"{approx:.12g}"
    # beyond the float range, or nonzero below its normal range where a float keeps fewer digits
    # or none: round the exact value to 12 digits, printed in the same style
    with localcontext() as context:
        context.prec = 12
        rounded = Decimal(value.numerator) / value.denominator
    return f"{rounded.normalize():g}"


def _exact_cells(value: Fraction) -> tuple[str, str]:
    """The two CSV cells of an exact value: "p/q", then its 12-digit decimal."""
    return exact_str(value), _decimal(value)


def _write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(stream)
    writer.writerow(header)
    writer.writerows(rows)


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("system parameters")
    group.add_argument("--config", type=Path, help="JSON file with n, k, d1, d2, kprime, M, c1, c2")
    for flag, _, kind, help_text in _PARAM_FLAGS:
        group.add_argument(f"--{flag}", type=kind, help=help_text)


def _config_pairs(path: Path) -> list[tuple[str, object]]:
    """The key/value pairs of the JSON object in ``path``, in file order, a repeated key each time.

    Objects nested in it are read as dicts.  ``json.loads`` finishes an object
    after the objects inside it, so the last pairs it hands the hook are the
    outermost object's.
    """
    read: list[list[tuple[str, object]]] = []

    def keep(pairs: list[tuple[str, object]]) -> dict[str, object]:
        read.append(pairs)
        return dict(pairs)

    try:
        outermost = json.loads(path.read_text(), object_pairs_hook=keep)
    except RecursionError:
        raise ValueError(f"config {path} nests too deeply") from None
    if not isinstance(outermost, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return read[-1]


def _params_from_args(args: argparse.Namespace) -> SystemParams:
    values: dict[str, object] = {}
    if args.config is not None:
        for key, value in _config_pairs(Path(args.config)):
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            field = _CONFIG_KEYS[key]
            if field in values:
                raise ValueError(f"config {args.config} sets {field} twice")
            values[field] = value
    for flag, field, _, _ in _PARAM_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            values[field] = value
    for required in ("k", "d1", "d2"):
        if required not in values:
            raise ValueError(f"--{required} is required (flag or --config)")
    if "n" not in values:
        d1, d2 = values["d1"], values["d2"]
        # SystemParams refuses a d1 or d2 that is not an int before it reads n, so 0 stands in then
        values["n"] = d1 + d2 + 1 if isinstance(d1, int) and isinstance(d2, int) else 0
    return SystemParams(**values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# point


def _point_for_kind(params: SystemParams, kind: str) -> CodePoint:
    if kind in ("msr", "mbr"):
        builder = tradeoff.msr_point if kind == "msr" else tradeoff.mbr_point
        point = builder(params.file_size, params.k, params.d)
        return replace(point, cost=replace(params, kprime=Fraction(1)).cost_per_beta2 * point.beta2)
    if kind in ("gmsr", "gmbr"):
        return tradeoff.gmsr_point(params) if kind == "gmsr" else tradeoff.gmbr_point(params)
    return tradeoff.grc_limit_point(params, kind.removesuffix("-limit"))


def cmd_point(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    point = _point_for_kind(params, args.kind)
    rows = [
        ["kind", args.kind, ""],
        ["scenario", params.scenario.value, ""],
        *([field, *_exact_cells(getattr(point, field))] for field in ("alpha", "beta1", "beta2", "gamma", "cost")),
        ["beta1_exceeds_alpha", str(point.beta1_exceeds_alpha).lower(), ""],
    ]
    _write_csv(sys.stdout, ["field", "exact", "decimal"], rows)
    return 0


# ---------------------------------------------------------------------------
# curve


_CURVE_FIELDS = ("beta2", "beta1", "alpha", "gamma", "cost")
_CURVE_HEADER = [name for field in _CURVE_FIELDS for name in (field, f"{field}_decimal")]


def _curve_rows(params: SystemParams, samples: int, breakpoints_only: bool) -> list[list[str]]:
    breakpoints = tradeoff.tradeoff_curve(params).breakpoints()
    if breakpoints_only:
        grid = breakpoints
    else:
        if samples < 2:
            raise ValueError(f"--samples must be at least 2, got {samples}")
        if samples > _MAX_SAMPLES:
            raise ValueError(f"--samples must be at most {_MAX_SAMPLES}, got {samples}")
        # sample i is low + (high - low) * i / (samples - 1), high being 3/2 of the flat branch's start,
        # built over one common denominator as Fraction(first + rise * i, den)
        low, flat = breakpoints[0], breakpoints[-1]
        scaled_low = 2 * low.numerator * flat.denominator
        first = scaled_low * (samples - 1)
        rise = 3 * flat.numerator * low.denominator - scaled_low
        den = 2 * low.denominator * flat.denominator * (samples - 1)
        samples_grid = [Fraction(first + rise * i, den) for i in range(samples)]
        grid = [beta2 for beta2, _ in groupby(heapq.merge(samples_grid, breakpoints))]
    return [
        [cell for field in _CURVE_FIELDS for cell in _exact_cells(getattr(point, field))]
        for point in (tradeoff.operating_point(params, beta2) for beta2 in grid)
    ]


def cmd_curve(args: argparse.Namespace) -> int:
    rows = _curve_rows(_params_from_args(args), args.samples, args.breakpoints_only)
    _write_csv(sys.stdout, _CURVE_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------
# ratio and threshold


def _parse_kprime_range(spec: str) -> range:
    low, sep, high = spec.partition("..")
    if not sep or not low.strip().isdigit() or not high.strip().isdigit():
        raise ValueError(f"--kprime-range must look like '1..20', got {spec!r}")
    start, stop = int(low), int(high)
    if start < 1 or stop < start:
        raise ValueError(f"--kprime-range must satisfy 1 <= low <= high, got {spec!r}")
    if stop - start + 1 > _MAX_SAMPLES:
        raise ValueError(f"--kprime-range must span at most {_MAX_SAMPLES} values, got {stop - start + 1}")
    return range(start, stop + 1)


def _ratio_rows(
    params: SystemParams,
    kind: str,
    kprimes: Sequence[int],
    cost_ratios: Sequence[Fraction],
) -> list[list[str]]:
    rows = []
    for ratio in cost_ratios:
        base = replace(params, cost_cheap=Fraction(1), cost_expensive=ratio)
        for kprime in kprimes:
            point = replace(base, kprime=Fraction(kprime))
            rho = tradeoff.bandwidth_ratio(point, kind)
            eta = tradeoff.cost_ratio(point, kind)
            rows.append([str(kprime), *_exact_cells(rho), *_exact_cells(eta), exact_str(ratio)])
    return rows


_RATIO_HEADER = ["kprime", "rho", "rho_decimal", "eta", "eta_decimal", "cost_ratio"]


def cmd_ratio(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    kprimes = _parse_kprime_range(args.kprime_range)
    if args.cost_ratio:
        ratios = [as_fraction(r, "cost ratio") for r in args.cost_ratio]
    else:
        if params.cost_cheap == 0:
            raise ValueError("give --cost-ratio explicitly when c1 is 0")
        ratios = [params.cost_expensive / params.cost_cheap]
    _write_csv(sys.stdout, _RATIO_HEADER, _ratio_rows(params, args.kind, kprimes, ratios))
    return 0


_THRESHOLD_HEADER = ["kind", "scenario", "threshold", "threshold_decimal"]


def _threshold_rows(params: SystemParams, kinds: Sequence[str]) -> list[list[str]]:
    rows = []
    for kind in kinds:
        try:
            value = tradeoff.cost_threshold(params, kind)
            rows.append([kind, params.scenario.value, *_exact_cells(value)])
        except NotApplicableError:
            rows.append([kind, params.scenario.value, "NA", "NA"])
    return rows


def cmd_threshold(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    kinds = [args.kind] if args.kind else ["msr", "mbr"]
    _write_csv(sys.stdout, _THRESHOLD_HEADER, _threshold_rows(params, kinds))
    return 0


# ---------------------------------------------------------------------------
# verify


def _report_payload(report: cutflow.CutReport) -> dict[str, object]:
    return {
        "beta2": exact_str(report.beta2),
        "alpha_closed": None if report.alpha_closed is None else exact_str(report.alpha_closed),
        "alpha_oracle": None if report.alpha_oracle is None else exact_str(report.alpha_oracle),
        "maxflow_at_alpha": exact_str(report.maxflow_at_alpha),
        "agree": report.agree,
        "flow_ok": report.flow_ok,
    }


def _alpha_text(alpha: Fraction | None) -> str:
    """An alpha of a verify text line; None, where beta2 is below the curve, prints as "infeasible"."""
    return "infeasible" if alpha is None else exact_str(alpha)


def _sweep_reproducer(params: SystemParams, beta2: Fraction) -> str:
    return (
        f"regencost verify --k {params.k} --d1 {params.d1} --d2 {params.d2} "
        f"--kprime {exact_str(params.kprime)} --beta2 {exact_str(beta2)}"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.sweep:
        flags = ("config", *(flag for flag, _, _, _ in _PARAM_FLAGS))
        ignored = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if args.beta2:
            ignored.append("--beta2")
        if ignored:
            raise ValueError(
                f"--sweep takes no {', '.join(ignored)}: it checks its own configs and beta2 grids"
            )
        configs = 0
        points = 0
        mismatches: list[tuple[SystemParams, cutflow.CutReport]] = []
        for params in cutflow.verification_sweep(max_k=args.max_k, max_d=args.max_d):
            configs += 1
            for report in cutflow.verify_closed_form(params):
                points += 1
                if not report.ok:
                    mismatches.append((params, report))
        if args.format == "json":
            payload = {
                "configs": configs,
                "points": points,
                "mismatches": [
                    {
                        "k": p.k,
                        "d1": p.d1,
                        "d2": p.d2,
                        "kprime": exact_str(p.kprime),
                        "report": _report_payload(r),
                        "reproduce": _sweep_reproducer(p, r.beta2),
                    }
                    for p, r in mismatches
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for p, r in mismatches:
                print(
                    f"MISMATCH k={p.k} d1={p.d1} d2={p.d2} kprime={exact_str(p.kprime)} "
                    f"beta2={exact_str(r.beta2)} closed={_alpha_text(r.alpha_closed)} oracle={_alpha_text(r.alpha_oracle)} "
                    f"maxflow={exact_str(r.maxflow_at_alpha)} | reproduce: {_sweep_reproducer(p, r.beta2)}"
                )
            print(f"configs={configs} points={points} mismatches={len(mismatches)}")
        return 0 if not mismatches else 1
    params = _params_from_args(args)
    reports = cutflow.verify_closed_form(params, args.beta2 or None)
    bad = sum(1 for r in reports if not r.ok)
    if args.format == "json":
        payload = {
            "reports": [_report_payload(r) for r in reports],
            "agreements": len(reports) - bad,
            "mismatches": bad,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(
                f"beta2={exact_str(r.beta2)} closed={_alpha_text(r.alpha_closed)} oracle={_alpha_text(r.alpha_oracle)} "
                f"maxflow={exact_str(r.maxflow_at_alpha)} {'ok' if r.ok else 'MISMATCH'}"
            )
        print(f"agreements={len(reports) - bad} mismatches={bad}")
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# simulate

# the simulate options, besides the system parameters, that fix what one seeded trial does;
# the JSON config and the reproducer both list them from here, so a rerun gets every one
_TRIAL_OPTIONS = ("alpha_sym", "beta2_sym", "failures", "field", "helper_mode", "n_cheap", "max_subsets")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    field = rlnc.make_field(args.field)
    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("REGEN_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            raise UsageError(f"REGEN_SEED must be an integer, got {env_seed!r}") from None
    if args.trials < 1:
        raise NonPositiveError(f"trials must be at least 1, got {args.trials}")
    trials = [
        rlnc.run_trial(
            params,
            args.alpha_sym,
            args.beta2_sym,
            args.failures,
            seed + i,
            field=field,
            n_cheap=args.n_cheap,
            helper_mode=args.helper_mode,
            max_subsets=args.max_subsets,
        )
        for i in range(args.trials)
    ]
    total_checks = sum(len(t.checks) for t in trials)
    total_successes = sum(t.successes for t in trials)
    rate = Fraction(total_successes, total_checks)
    if args.format == "json":
        payload = {
            "config": {
                **{
                    flag: getattr(params, field) if kind is int else exact_str(getattr(params, field))
                    for flag, field, kind, _ in _PARAM_FLAGS
                },
                **{option: getattr(args, option) for option in _TRIAL_OPTIONS},
                "trials": args.trials,
                "seed": seed,
            },
            "trials": [
                {
                    "seed": t.seed,
                    "repairs_performed": t.repairs_performed,
                    "checks": [
                        {"nodes": list(c.nodes), "success": c.success} for c in t.checks
                    ],
                    "successes": t.successes,
                    "success_rate": float(t.success_rate),
                }
                for t in trials
            ],
            "total_checks": total_checks,
            "total_successes": total_successes,
            "success_rate": float(rate),
            "success_rate_exact": exact_str(rate),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"trials={len(trials)} checks={total_checks} successes={total_successes} "
            f"success_rate={float(rate):.6f} ({exact_str(rate)})"
        )
    failed = [t for t in trials if t.successes < len(t.checks)]
    if failed:
        first = failed[0]
        subset = next(c.nodes for c in first.checks if not c.success)
        print(
            f"FAILED {len(failed)} of {len(trials)} trials had a failed subset; first: seed={first.seed} "
            f"subset={','.join(map(str, subset))} | reproduce: {_simulate_reproducer(params, args, first.seed)}",
            file=sys.stderr,
        )
    return 0


def _simulate_reproducer(params: SystemParams, args: argparse.Namespace, seed: int) -> str:
    """The ``simulate`` call that runs the one trial of this seed with the run's own settings."""
    flags = [f"--{flag} {exact_str(getattr(params, field))}" for flag, field, _, _ in _PARAM_FLAGS]
    flags += [
        f"--{option.replace('_', '-')} {getattr(args, option)}"
        for option in (*_TRIAL_OPTIONS, "format")
        if getattr(args, option) is not None
    ]
    return f"regencost simulate {' '.join(flags)} --trials 1 --seed {seed}"


# ---------------------------------------------------------------------------
# graph dump


def cmd_graph(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    alpha = tradeoff.alpha_min(params, args.beta2) if args.alpha is None else args.alpha
    print(cutflow.to_edge_list(cutflow.build_gstar(params, alpha, args.beta2)))
    return 0


# ---------------------------------------------------------------------------
# figure sweeps


def cmd_paper_figures(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config_a = SystemParams(15, 5, 8, 6)
    config_b = SystemParams(15, 5, 4, 10)
    frac = Fraction
    written = []

    def write(name: str, header: list[str], rows: list[list[str]]) -> None:
        path = outdir / name
        with path.open("w", newline="") as handle:
            _write_csv(handle, header, rows)
        written.append(path)

    ratio_sweeps = (
        ("msr_ratio_sweep_a.csv", config_a, "msr", (frac(3, 2), frac(2), frac(3), frac(4))),
        ("mbr_ratio_sweep_a.csv", config_a, "mbr", (frac(1), frac(4, 3), frac(2), frac(4))),
        ("mbr_ratio_sweep_b.csv", config_b, "mbr", (frac(3, 2), frac(2), frac(3), frac(4))),
    )
    for name, config, kind, ratios in ratio_sweeps:
        write(name, _RATIO_HEADER, _ratio_rows(config, kind, _FIGURE_KPRIMES, ratios))
    curve_rows = []
    for kprime in (1, 2, 4):
        tiered = replace(config_a, kprime=Fraction(kprime))
        for row in _curve_rows(tiered, samples=200, breakpoints_only=False):
            curve_rows.append([str(kprime), *row])
    write("tradeoff_curves_a.csv", ["kprime", *_CURVE_HEADER], curve_rows)
    eta_rows = []
    for kind in ("msr", "mbr"):
        for ratio in (frac(2), frac(4)):
            for kprime, _, _, eta, eta_decimal, _ in _ratio_rows(config_a, kind, _FIGURE_KPRIMES, (ratio,)):
                eta_rows.append([kind, exact_str(ratio), kprime, eta, eta_decimal])
            limit = tradeoff.cost_ratio_limit(replace(config_a, cost_cheap=frac(1), cost_expensive=ratio), kind)
            eta_rows.append([kind, exact_str(ratio), "inf", *_exact_cells(limit)])
    write(
        "cost_ratio_vs_kprime_a.csv",
        ["kind", "cost_ratio", "kprime", "eta", "eta_decimal"],
        eta_rows,
    )
    write(
        "thresholds.csv",
        _THRESHOLD_HEADER,
        _threshold_rows(config_a, ["msr", "mbr"]) + _threshold_rows(config_b, ["msr", "mbr"]),
    )
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regencost",
        description="Storage/bandwidth/cost tradeoffs for two-tier regenerating codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="print one extremal operating point")
    point.add_argument(
        "--kind",
        required=True,
        choices=["msr", "mbr", "gmsr", "gmbr", "gmsr-limit", "gmbr-limit"],
    )
    _add_param_args(point)

    curve = sub.add_parser("curve", help="sample the piecewise-linear tradeoff curve")
    curve.add_argument("--samples", type=int, default=200, help="grid points (default 200)")
    curve.add_argument(
        "--breakpoints-only", action="store_true", help="emit only the exact breakpoints"
    )
    _add_param_args(curve)

    ratio = sub.add_parser("ratio", help="bandwidth and cost ratios against symmetric repair")
    ratio.add_argument("--kind", required=True, choices=["msr", "mbr"])
    ratio.add_argument("--kprime-range", default="1..20", help="integer range, e.g. 1..20")
    ratio.add_argument(
        "--cost-ratio",
        action="append",
        default=[],
        help="c2/c1 value (rational, repeatable; default taken from --c1/--c2)",
    )
    _add_param_args(ratio)

    threshold = sub.add_parser("threshold", help="cost ratio where two-tier repair breaks even")
    threshold.add_argument("--kind", choices=["msr", "mbr"], help="default: both kinds")
    _add_param_args(threshold)

    verify = sub.add_parser("verify", help="check closed forms against oracle and max flow")
    verify.add_argument("--beta2", action="append", default=[], help="grid point (repeatable)")
    verify.add_argument("--sweep", action="store_true", help="run the full parameter sweep")
    verify.add_argument("--max-k", type=int, default=5, help="sweep limit on k (default 5)")
    verify.add_argument("--max-d", type=int, default=7, help="sweep limit on d1+d2 (default 7)")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    _add_param_args(verify)

    simulate = sub.add_parser("simulate", help="run seeded network-coding repair trials")
    simulate.add_argument("--alpha-sym", type=int, required=True, help="stored symbols per node")
    simulate.add_argument("--beta2-sym", type=int, required=True, help="symbols per expensive helper")
    simulate.add_argument("--failures", type=int, default=1, help="repairs per trial (default 1)")
    simulate.add_argument("--trials", type=int, default=100, help="trial count (default 100)")
    simulate.add_argument("--seed", type=int, help="base seed (default REGEN_SEED or 0)")
    simulate.add_argument("--field", choices=["gf256", "p257"], default="gf256")
    simulate.add_argument("--helper-mode", choices=["uniform", "worst-case"], default="uniform")
    simulate.add_argument("--n-cheap", type=int, help="cheap-tier size (default n - d2)")
    simulate.add_argument("--max-subsets", type=int, default=100, help="k-subsets checked per trial")
    simulate.add_argument("--format", choices=["text", "json"], default="text")
    _add_param_args(simulate)

    graph = sub.add_parser("graph", help="dump the worst-case flow graph as an edge list")
    graph.add_argument("--beta2", required=True, help="expensive-tier download (rational)")
    graph.add_argument("--alpha", help="per-node storage (default: alpha_min at beta2)")
    _add_param_args(graph)

    figures = sub.add_parser(
        "paper-figures", help="write the reference figure sweeps as CSV files"
    )
    figures.add_argument("--outdir", required=True, help="directory for the CSV files")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it found it, so one serves every main call
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # handlers are looked up per call, not bound into the shared parser, so a
    # replaced module attribute (a monkeypatch, a tracer's wrapper) is what runs
    commands = {
        "point": cmd_point,
        "curve": cmd_curve,
        "ratio": cmd_ratio,
        "threshold": cmd_threshold,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "graph": cmd_graph,
        "paper-figures": cmd_paper_figures,
    }
    try:
        return commands[args.command](args)
    except RegenError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: Usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

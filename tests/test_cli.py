import csv
import hashlib
import argparse
import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import regencost.cutflow
import regencost.tradeoff
from regencost import SystemParams, cli
from regencost.cli import _MAX_BOUND_DIGITS, _MAX_SAMPLES, build_parser, main

F = Fraction

A_SMALL_FLAGS = ["--k", "2", "--d1", "2", "--d2", "1", "--kprime", "2"]
A_WIDE_FLAGS = ["--n", "15", "--k", "5", "--d1", "8", "--d2", "6", "--kprime", "2"]
B_WIDE_FLAGS = ["--n", "15", "--k", "5", "--d1", "4", "--d2", "10", "--kprime", "2"]
SIM_FLAGS = ["--k", "2", "--d1", "2", "--d2", "1", "--kprime", "2", "--M", "8"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = list(csv.reader(out.splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# point


def test_point_gmbr_fields(capsys):
    code, out, err = run_cli(["point", "--kind", "gmbr", *A_SMALL_FLAGS], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["field", "exact", "decimal"]
    values = {row[0]: row[1] for row in rows}
    assert values["kind"] == "gmbr"
    assert values["scenario"] == "A"
    assert F(values["alpha"]) == F(5, 8)
    assert F(values["beta1"]) == F(1, 4)
    assert F(values["beta2"]) == F(1, 8)
    assert F(values["gamma"]) == F(5, 8)
    assert F(values["cost"]) == F(5, 8)
    assert values["beta1_exceeds_alpha"] == "false"
    decimals = {row[0]: row[2] for row in rows}
    assert decimals["alpha"] == "0.625"


def test_point_msr_uses_symmetric_cost(capsys):
    code, out, _ = run_cli(["point", "--kind", "msr", *A_WIDE_FLAGS], capsys)
    assert code == 0
    values = {row[0]: row[1] for row in parse_csv(out)[1]}
    assert F(values["alpha"]) == F(1, 5)
    assert F(values["gamma"]) == F(7, 25)
    assert F(values["beta2"]) == F(1, 50)
    assert F(values["cost"]) == F(7, 25)  # (c1*d1 + c2*d2) * beta2 at unit costs


@pytest.mark.parametrize("kind, cost", [("msr", "5/4"), ("mbr", "1")])
def test_point_symmetric_kinds_weigh_each_tier_at_kprime_one(capsys, kind, cost):
    # a symmetric point downloads beta from every helper whatever --kprime says: cost (c1*d1 + c2*d2) * beta
    code, out, _ = run_cli(["point", "--kind", kind, *A_SMALL_FLAGS, "--c2", "3"], capsys)
    assert code == 0
    values = {row[0]: row[1] for row in parse_csv(out)[1]}
    assert values["cost"] == cost
    assert F(values["cost"]) == (1 * 2 + 3 * 1) * F(values["beta1"]) == (1 * 2 + 3 * 1) * F(values["beta2"])


def test_point_limit_kinds(capsys):
    code, out, _ = run_cli(["point", "--kind", "gmsr-limit", *A_WIDE_FLAGS], capsys)
    assert code == 0
    values = {row[0]: row[1] for row in parse_csv(out)[1]}
    assert F(values["gamma"]) == F(2, 5)
    assert values["beta2"] == "0"
    code, _, err = run_cli(["point", "--kind", "gmbr-limit", *B_WIDE_FLAGS], capsys)
    assert code == 2
    assert err.startswith("error: NotApplicable")


# scenario A with an empty expensive tier, rational kprime and file size
D2_ZERO_FLAGS = ["--n", "6", "--k", "3", "--d1", "4", "--d2", "0", "--kprime", "5/2", "--M", "7/3"]


@pytest.mark.parametrize(
    "flags,digest",
    [
        ([*A_WIDE_FLAGS, "--M", "60"], "dc24f74b7d5d3684d65e3ff70ef455746bd2fd281a4068e2338598256e136254"),
        ([*B_WIDE_FLAGS, "--M", "60"], "e0fa753d76ab168022266b085d7bae7384283e2736ad7160df370bc811d67917"),
        (D2_ZERO_FLAGS, "dd664d0d4d2e90dc4b1b629ed17f83e0d1af53b2b604f438251365ccbf87f1a2"),
    ],
    ids=["A", "B", "d2=0"],
)
def test_point_kinds_match_frozen_digest(flags, digest, capsys):
    text = ""
    for kind in ("msr", "mbr", "gmsr", "gmbr", "gmsr-limit", "gmbr-limit"):
        code, out, err = run_cli(["point", "--kind", kind, *flags, "--c2", "3"], capsys)
        text += f"{kind} {code}\n{out}{err}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_point_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2, "d1": 2, "d2": 1, "kprime": "2", "M": 1}))
    code, out, _ = run_cli(["point", "--kind", "gmbr", "--config", str(config)], capsys)
    assert code == 0
    assert {r[0]: r[1] for r in parse_csv(out)[1]}["cost"] == "5/8"
    code, out, _ = run_cli(
        ["point", "--kind", "gmbr", "--config", str(config), "--c2", "3"], capsys
    )
    assert code == 0
    assert {r[0]: r[1] for r in parse_csv(out)[1]}["cost"] == "7/8"


def test_point_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2, "d1": 2, "d2": 1, "q": 256}))
    code, _, err = run_cli(["point", "--kind", "gmbr", "--config", str(config)], capsys)
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"k": 2, "d1": 2, "d2": 1, "c1": 1, "C1": 3, "c2": 5}', "cost_cheap"),
        ('{"k": 2, "d1": 2, "d2": 1, "M": 2, "file_size": 3}', "file_size"),
        ('{"k": 2, "d1": 2, "d2": 1, "d2": 1}', "d2"),
    ],
    ids=["c1-and-C1", "M-and-file_size", "d2-repeated"],
)
def test_a_config_that_sets_a_field_twice_is_a_usage_error(text, field, tmp_path, capsys):
    # two spellings of one field, or one key repeated: neither value may win silently
    config = tmp_path / "config.json"
    config.write_text(text)
    code, out, err = run_cli(["point", "--kind", "gmbr", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: Usage: config {config} sets {field} twice\n"


def test_a_config_with_an_object_value_reports_it_as_read(tmp_path, capsys):
    # the objects nested in a config are still dicts, in the messages that name them
    config = tmp_path / "config.json"
    config.write_text('{"k": {"a": 1}, "d1": 2, "d2": 1}')
    code, _, err = run_cli(["point", "--kind", "gmbr", "--config", str(config)], capsys)
    assert (code, err) == (2, "error: InvalidDegree: k must be an integer, got {'a': 1}\n")


@pytest.mark.parametrize("d1", [None, "x", [2], 2.5, "2"])
def test_point_config_with_a_bad_helper_count_is_a_typed_error(d1, tmp_path, capsys):
    # without n, n is derived from d1 + d2; a d1 that is not an int must still reach SystemParams
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2, "d1": d1, "d2": 1}))
    code, out, err = run_cli(["point", "--kind", "msr", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: InvalidDegree: d1 must be an integer, got {d1!r}\n"


def test_point_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    code, _, err = run_cli(["point", "--kind", "gmbr", "--config", str(config)], capsys)
    assert code == 2
    config.write_text("{not json")
    code, _, err = run_cli(["point", "--kind", "gmbr", "--config", str(config)], capsys)
    assert code == 2


def test_a_config_nested_past_the_recursion_limit_is_a_usage_error(tmp_path, capsys):
    # json.loads raises RecursionError on deep nesting: a bad config, not a traceback and exit 1
    config = tmp_path / "config.json"
    config.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(["curve", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: Usage: config {config} nests too deeply\n"


# ---------------------------------------------------------------------------
# curve


def test_curve_breakpoints_only(capsys):
    code, out, _ = run_cli(["curve", "--breakpoints-only", *A_SMALL_FLAGS], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["beta2", "beta2_decimal", "beta1", "beta1_decimal"]
    assert [row[0] for row in rows] == ["1/8", "1/6"]
    assert [row[4] for row in rows] == ["5/8", "1/2"]  # alpha column


def test_curve_sampling_properties(capsys):
    code, out, _ = run_cli(["curve", "--samples", "50", *A_SMALL_FLAGS], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    beta2s = [F(row[0]) for row in rows]
    alphas = [F(row[4]) for row in rows]
    assert len(rows) >= 50
    assert beta2s == sorted(set(beta2s))
    assert beta2s[0] == F(1, 8) and beta2s[-1] == F(1, 4)
    assert {F(1, 8), F(1, 6)} <= set(beta2s)
    assert all(hi >= lo for hi, lo in zip(alphas, alphas[1:]))
    for row in rows:
        assert F(row[2]) == 2 * F(row[0])  # beta1 = kprime * beta2
        assert F(row[6]) == 2 * F(row[2]) + F(row[0])  # gamma = d1*beta1 + d2*beta2
        assert F(row[8]) == 4 * F(row[0]) + F(row[0])  # cost at unit prices


@pytest.mark.parametrize("samples", [2, 3, 200])
def test_curve_grid_is_the_samples_and_the_breakpoints(samples):
    # the grid, stated here: samples from beta2_min to 3/2 of the flat branch's start, evenly spaced,
    # with every breakpoint that is not a sample put in
    for params in regencost.cutflow.verification_sweep(max_k=4, max_d=6):
        breakpoints = regencost.tradeoff.tradeoff_curve(params).breakpoints()
        low, high = breakpoints[0], F(3, 2) * breakpoints[-1]
        sampled = [low + (high - low) * i / (samples - 1) for i in range(samples)]
        beta2s = [F(row[0]) for row in cli._curve_rows(params, samples, breakpoints_only=False)]
        assert all(lo < hi for lo, hi in zip(beta2s, beta2s[1:])), params
        assert set(breakpoints) <= set(beta2s), params
        assert len(beta2s) == samples + len(set(breakpoints) - set(sampled)), params
        assert beta2s == sorted(set(sampled) | set(breakpoints)), params


def test_curve_rejects_tiny_sample_counts(capsys):
    for samples in ("0", "1"):
        code, out, err = run_cli(["curve", "--samples", samples, *A_SMALL_FLAGS], capsys)
        assert code == 2
        assert out == ""
        assert "--samples" in err


def test_curve_rejects_sample_counts_above_the_cap(capsys):
    # the cap is checked before the grid is built, so one past it fails at once
    flags = ["curve", "--samples", str(_MAX_SAMPLES + 1), "--k", "2", "--d1", "1", "--d2", "1"]
    code, out, err = run_cli(flags, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: Usage: --samples must be at most {_MAX_SAMPLES}, got {_MAX_SAMPLES + 1}\n"


@pytest.mark.parametrize(
    "flags,digest",
    [
        (A_WIDE_FLAGS, "56e02a7c8a4144c53ca7c9d34eca240f1e940546aa07124d65d266a687db2c13"),
        (B_WIDE_FLAGS, "02c959f8632a5d7cbba69d7bd113ff4370ea28b68e4049e6c5afff9a112da62a"),
    ],
    ids=["A", "B"],
)
def test_curve_matches_frozen_digest(flags, digest, capsys):
    code, out, _ = run_cli(["curve", *flags, "--M", "60", "--c2", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# kprime, M and the two costs each with a denominator other than 1, and all different
RATIONAL_CURVE_FLAGS = ["--kprime", "13/4", "--M", "7/3", "--c1", "2/3", "--c2", "7/4"]


@pytest.mark.parametrize(
    "flags,digest",
    [
        (A_WIDE_FLAGS[:-2], "bae0ed2f1173a9be328966be135c113f346e052f232ad35c13df9e0ce34c5bcd"),
        (B_WIDE_FLAGS[:-2], "a424c9b71db66cd1595b5908a57e0cb0d33032b6a519bdb72ac27ea26cbc38b1"),
    ],
    ids=["A", "B"],
)
def test_curve_with_rational_parameters_matches_frozen_digest(flags, digest, capsys):
    code, out, _ = run_cli(["curve", *flags, *RATIONAL_CURVE_FLAGS], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a 12-digit mantissa without trailing zeros, as .12g prints it
_BIG_DECIMAL = re.compile(r"[1-9](\.[0-9]{0,10}[1-9])?e\+[0-9]{3}")


@pytest.mark.parametrize("command", [["curve", "--samples", "7"], ["point", "--kind", "msr"]])
def test_values_beyond_the_float_range_get_twelve_digits(command, capsys):
    # float(value) overflows here; the decimal column rounds the exact value instead
    code, out, err = run_cli([*command, "--k", "2", "--d1", "2", "--d2", "1", "--M", "1e400", "--c2", "7/3"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    if command[0] == "curve":  # exact and decimal columns alternate
        pairs = [(row[i], row[i + 1]) for row in rows for i in range(0, len(row), 2)]
    else:
        pairs = [(row[1], row[2]) for row in rows if row[2]]
    assert len(pairs) >= 5
    for exact, decimal in pairs:
        assert _BIG_DECIMAL.fullmatch(decimal), decimal
        assert abs(Fraction(Decimal(decimal)) / F(exact) - 1) < F(1, 10**11)


def test_big_decimals_match_the_float_style(capsys):
    code, out, _ = run_cli(["point", "--kind", "msr", *A_SMALL_FLAGS[:-2], "--M", "1e400"], capsys)
    assert code == 0
    assert {row[0]: row[2] for row in parse_csv(out)[1]}["alpha"] == "5e+399"
    code, out, _ = run_cli(["point", "--kind", "msr", *A_SMALL_FLAGS[:-2], "--M", "123456789012345e400"], capsys)
    decimals = {row[0]: row[2] for row in parse_csv(out)[1]}
    assert decimals["alpha"] == "6.17283945062e+413"  # 6.17283945061725e+413, rounded half to even
    assert decimals["gamma"] == "9.25925917593e+413"  # 9.259259175925875e+413


@pytest.mark.parametrize(
    "value, decimal",
    [
        (F(1, 10**320), "1e-320"),
        (F(1, 3 * 10**320), "3.33333333333e-321"),
        (F(-1, 10**400), "-1e-400"),
        (F(1, 2 * 10**400), "5e-401"),
        # from float's smallest normal value up, the float path prints as before
        (F(sys.float_info.min), "2.22507385851e-308"),
        (-F(sys.float_info.min), "-2.22507385851e-308"),
        (F(0), "0"),
    ],
)
def test_tiny_decimals_keep_twelve_digits(value, decimal):
    # below float's normal range a float keeps fewer digits, or none: round the exact value instead
    assert cli._decimal(value) == decimal


def _decimal_cases():
    rng = random.Random(7)
    cases = [F(0), F(1, 3), F(2**53 + 1), F(sys.float_info.min), -F(sys.float_info.min), F(sys.float_info.max)]
    # beyond the float range on either side, and just past its largest value
    cases += [F(1, 10**320), F(1, 3 * 10**320), F(-1, 10**400), F(10**400), F(-123456789012345 * 10**400, 7)]
    cases.append(F(int(sys.float_info.max)) + 2**970)
    for _ in range(300):
        sign = rng.choice((1, -1))
        numerator = sign * rng.randrange(1, 2 ** rng.randrange(1, 300))
        cases.append(F(numerator * 10 ** rng.randrange(0, 60), rng.randrange(1, 2 ** rng.randrange(1, 300))))
    return cases


def test_decimal_prints_what_the_float_of_the_value_prints():
    for value in _decimal_cases():
        try:
            approx = float(value)
        except OverflowError:
            with pytest.raises(OverflowError):
                value.numerator / value.denominator
            continue
        assert value.numerator / value.denominator == approx
        if abs(approx) >= sys.float_info.min or not value:
            assert cli._decimal(value) == f"{approx:.12g}", value


def test_tiny_decimals_in_the_point_csv(capsys):
    code, out, err = run_cli(["point", "--kind", "msr", *A_SMALL_FLAGS[:-2], "--M", "1e-400"], capsys)
    assert code == 0 and err == ""
    decimals = {row[0]: row[2] for row in parse_csv(out)[1]}
    assert decimals["alpha"] == "5e-401"
    assert decimals["beta1"] == decimals["beta2"] == "2.5e-401"
    assert decimals["gamma"] == decimals["cost"] == "7.5e-401"


@pytest.mark.parametrize("k, M", [(2, "1e5000"), (3, "1e5000"), (2, "1e-5000")])
def test_exact_values_beyond_the_int_string_limit(k, M, capsys):
    # str() of an int over 4300 digits raises by default; the exact column must not
    argv = ["point", "--kind", "msr", "--k", str(k), "--d1", str(k), "--d2", "1", "--M", M]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        unlimited = run_cli(argv, capsys)
        expected_alpha = str(Fraction(M) / k)
    finally:
        sys.set_int_max_str_digits(limit)
    assert unlimited == (code, out, err)
    alpha = {row[0]: row[1] for row in parse_csv(out)[1]}["alpha"]
    assert len(alpha) > limit and alpha == expected_alpha


def test_graph_prints_capacities_beyond_the_int_string_limit(capsys):
    code, out, err = run_cli(["graph", "--k", "2", "--d1", "2", "--d2", "1", "--beta2", "1e5000"], capsys)
    assert code == 0 and err == ""
    assert f"x0.out x1.in 1{'0' * 5000}/1" in out.splitlines()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["point", "--kind", "gmsr", "--kprime", "1e-5000"], "InvalidRatio"),
        (["graph", "--beta2", "1e-5000"], "InsufficientRepairBandwidth"),
        (["curve", "--M=-1e-5000"], "NonPositive"),
        (["curve", "--c1=1e5000"], "InvalidCostOrder"),
        (["verify", "--beta2", "1e-5000"], None),
    ],
)
def test_messages_print_values_beyond_the_int_string_limit(argv, error, capsys):
    # a message that names a value of over 4300 digits keeps its typed error, and verify its report
    code, out, err = run_cli([*argv, "--k", "3", "--d1", "2", "--d2", "2"], capsys)
    huge = "1" + "0" * 5000
    if error is None:
        assert code == 0 and err == ""
        assert f"beta2=1/{huge} closed=infeasible oracle=infeasible" in out
        assert out.endswith("\nagreements=1 mismatches=0\n")
    else:
        assert code == 2 and out == ""
        assert err.startswith(f"error: {error}: ") and huge in err


# ---------------------------------------------------------------------------
# ratio and threshold


def test_ratio_flat_at_the_msr_threshold(capsys):
    code, out, _ = run_cli(
        ["ratio", "--kind", "msr", "--kprime-range", "1..6", "--cost-ratio", "2", *A_WIDE_FLAGS],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kprime", "rho", "rho_decimal", "eta", "eta_decimal", "cost_ratio"]
    assert [row[0] for row in rows] == [str(i) for i in range(1, 7)]
    assert all(row[3] == "1" for row in rows)
    assert rows[0][1] == "1"  # rho at kprime=1
    assert F(rows[1][1]) == F(55, 49)


@pytest.mark.parametrize(
    "flags,kind,digest",
    [
        (A_WIDE_FLAGS[:-2], "msr", "d8ac1ea046572ad94b3c56d46fc19c2a18b3df93d7a91e4bd61dbeefe3bf6445"),
        (A_WIDE_FLAGS[:-2], "mbr", "e6280c7df0e43ba0a505556392b5eb6f0741fc5df80ed2715c6aab7eef4bda63"),
        (B_WIDE_FLAGS[:-2], "msr", "25e2a6e20c61b296afbb8ea2aa79da31a0ea7f278964fcf1a6ce16a3cf357938"),
        (B_WIDE_FLAGS[:-2], "mbr", "380831c6ec1355d22b0e3cbf39a8500afc1ba09e4221166cc6fd9cac6c028bfd"),
    ],
    ids=["A-msr", "A-mbr", "B-msr", "B-mbr"],
)
def test_ratio_matches_frozen_digest(flags, kind, digest, capsys):
    argv = ["ratio", "--kind", kind, *flags, "--M", "7/3", "--cost-ratio", "3/2", "--cost-ratio", "7/4"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ratio_defaults_to_configured_costs(capsys):
    code, out, _ = run_cli(
        ["ratio", "--kind", "mbr", "--kprime-range", "2..2", "--c1", "1", "--c2", "4", *A_WIDE_FLAGS],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][5] == "4"
    # with c1 = 0 there is no configured ratio to default to
    code, out, err = run_cli(["ratio", "--kind", "mbr", "--c1", "0", *A_SMALL_FLAGS], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: Usage: give --cost-ratio explicitly when c1 is 0\n"


@pytest.mark.parametrize("spec", [f"1..{_MAX_SAMPLES + 1}", f"5..{_MAX_SAMPLES + 5}", "1..30000000"])
def test_ratio_rejects_kprime_ranges_above_the_cap(spec, capsys):
    # the cap is checked before any row is built, so these fail at once
    code, out, err = run_cli(["ratio", "--kind", "msr", "--kprime-range", spec, *A_SMALL_FLAGS[:-2]], capsys)
    assert code == 2
    assert out == ""
    low, high = map(int, spec.split(".."))
    assert err == f"error: Usage: --kprime-range must span at most {_MAX_SAMPLES} values, got {high - low + 1}\n"


def test_ratio_failure_prints_no_partial_csv(capsys):
    # a cost ratio below 1 fails while the rows are built, before anything is written
    code, out, err = run_cli(["ratio", "--kind", "msr", "--cost-ratio", "0", *A_SMALL_FLAGS[:-2]], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: InvalidCostOrder: cost_cheap must not exceed cost_expensive, got 1 > 0\n"


def test_ratio_rejects_bad_ranges(capsys):
    for spec in ("5..1", "0..3", "1-20", "a..b"):
        code, _, err = run_cli(
            ["ratio", "--kind", "msr", "--kprime-range", spec, *A_WIDE_FLAGS], capsys
        )
        assert code == 2
        assert "--kprime-range" in err
    # "²" and "١" are digits to str.isdigit, and int() reads "١" as 1: only ASCII digits are a range
    for spec in ("1..²", "²..3", "١..3"):
        code, _, err = run_cli(
            ["ratio", "--kind", "msr", "--kprime-range", spec, *A_WIDE_FLAGS], capsys
        )
        assert code == 2
        assert f"--kprime-range must look like '1..20', got {spec!r}" in err
    # int() refuses a numeral past the interpreter's digit limit with a message of its own
    for spec in ("1.." + "9" * 5000, "9" * 5000 + "..1", "1.." + "0" * 4999 + "5"):
        code, out, err = run_cli(
            ["ratio", "--kind", "msr", "--kprime-range", spec, *A_WIDE_FLAGS], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: Usage: --kprime-range bounds must have at most {_MAX_BOUND_DIGITS} digits, got 5000\n"


def test_threshold_rows(capsys):
    code, out, _ = run_cli(["threshold", *B_WIDE_FLAGS], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "scenario", "threshold", "threshold_decimal"]
    assert rows == [["msr", "B", "NA", "NA"], ["mbr", "B", "2", "2"]]
    code, out, _ = run_cli(["threshold", "--kind", "mbr", *A_WIDE_FLAGS], capsys)
    assert code == 0
    assert parse_csv(out)[1] == [["mbr", "A", "4/3", "1.33333333333"]]


def test_threshold_is_na_with_an_empty_tier(capsys):
    # with d2 = 0, or d1 = 0 in scenario B, two-tier repair is symmetric repair: no break-even
    code, out, _ = run_cli(["threshold", "--k", "2", "--d1", "2", "--d2", "0"], capsys)
    assert code == 0
    assert parse_csv(out)[1] == [["msr", "A", "NA", "NA"], ["mbr", "A", "NA", "NA"]]
    code, out, _ = run_cli(["threshold", "--k", "2", "--d1", "0", "--d2", "2"], capsys)
    assert code == 0
    assert parse_csv(out)[1] == [["msr", "B", "NA", "NA"], ["mbr", "B", "NA", "NA"]]


# ---------------------------------------------------------------------------
# verify


def test_verify_explicit_grid_text(capsys):
    code, out, _ = run_cli(
        ["verify", "--beta2", "3/20", "--beta2", "1/10", *A_SMALL_FLAGS], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta2=1/10 closed=infeasible oracle=infeasible maxflow=4/5 ok"
    assert lines[1] == "beta2=3/20 closed=11/20 oracle=11/20 maxflow=1 ok"
    assert lines[2] == "agreements=2 mismatches=0"


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--format", "json", "--beta2", "3/20", *A_SMALL_FLAGS], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0 and payload["agreements"] == 1
    (report,) = payload["reports"]
    assert report == {
        "beta2": "3/20",
        "alpha_closed": "11/20",
        "alpha_oracle": "11/20",
        "maxflow_at_alpha": "1",
        "agree": True,
        "flow_ok": True,
    }


def test_verify_default_grid(capsys):
    code, out, _ = run_cli(["verify", *A_SMALL_FLAGS], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith("mismatches=0")


def test_verify_flags_a_corrupted_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(regencost.tradeoff, "alpha_min", lambda params, beta2: F(1))
    code, out, _ = run_cli(["verify", "--beta2", "3/20", *A_SMALL_FLAGS], capsys)
    assert code == 1
    assert "MISMATCH" in out
    assert out.splitlines()[-1] == "agreements=0 mismatches=1"


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(["verify", "--sweep", "--max-k", "2", "--max-d", "3"], capsys)
    assert code == 0
    summary = out.splitlines()[-1]
    assert summary.startswith("configs=64 ") and summary.endswith("mismatches=0")


def test_verify_sweep_json_matches_frozen_digest(capsys):
    code, out, _ = run_cli(["verify", "--sweep", "--max-k", "3", "--max-d", "5", "--format", "json"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "90786a07395ac699a65d3325bf0a4ecd59e0da4d29a8f7f753cc8e9734551c46"


def test_verify_sweep_over_no_configs_is_an_error(capsys):
    code, out, err = run_cli(["verify", "--sweep", "--max-k", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: NonPositive: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["--M", "0"],
        ["--beta2", "1/2"],
        ["--config", "params.json"],
        ["--n", "4"],
        ["--k", "2"],
        ["--d1", "1"],
        ["--d2", "1"],
        ["--kprime", "2"],
        ["--c1", "1"],
        ["--c2", "3"],
    ],
)
def test_verify_sweep_rejects_system_parameter_flags(flags, capsys):
    code, out, err = run_cli(["verify", "--sweep", "--max-k", "2", "--max-d", "2", *flags], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: Usage: --sweep takes no " + flags[0])


def test_verify_sweep_mismatch_prints_maxflow_and_reproducer(capsys, monkeypatch):
    real = regencost.cutflow.verify_closed_form
    seen = []

    def first_config_fails(params, beta2_grid=None):
        seen.append(params)
        if len(seen) > 1:
            return real(params, beta2_grid)
        return [regencost.cutflow.CutReport(F(3, 20), F(1), F(11, 20), F(6, 5), False, False)]

    monkeypatch.setattr(regencost.cutflow, "verify_closed_form", first_config_fails)
    code, out, _ = run_cli(["verify", "--sweep", "--max-k", "2", "--max-d", "3"], capsys)
    assert code == 1
    first = seen[0]
    mismatch, summary = out.splitlines()
    assert mismatch == (
        f"MISMATCH k={first.k} d1={first.d1} d2={first.d2} kprime={first.kprime} "
        "beta2=3/20 closed=1 oracle=11/20 maxflow=6/5 | reproduce: "
        f"regencost verify --k {first.k} --d1 {first.d1} --d2 {first.d2} --kprime {first.kprime} --beta2 3/20"
    )
    assert summary.startswith("configs=64 ") and summary.endswith(" mismatches=1")
    # the reproducer runs the same config at the same beta2
    monkeypatch.undo()
    argv = mismatch.split(" | reproduce: regencost ")[1].split()
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("beta2=3/20 ")


def test_verify_sweep_json_mismatch_carries_the_reproducer(capsys, monkeypatch):
    real = regencost.cutflow.verify_closed_form
    seen = []

    def first_config_fails(params, beta2_grid=None):
        seen.append(params)
        if len(seen) > 1:
            return real(params, beta2_grid)
        return [regencost.cutflow.CutReport(F(3, 20), F(1), F(11, 20), F(6, 5), False, False)]

    monkeypatch.setattr(regencost.cutflow, "verify_closed_form", first_config_fails)
    code, out, _ = run_cli(["verify", "--sweep", "--max-k", "2", "--max-d", "3", "--format", "json"], capsys)
    assert code == 1
    first = seen[0]
    (mismatch,) = json.loads(out)["mismatches"]
    # the same reproducer as the text mode's MISMATCH line
    assert mismatch["reproduce"] == cli._sweep_reproducer(first, F(3, 20)) == (
        f"regencost verify --k {first.k} --d1 {first.d1} --d2 {first.d2} --kprime {first.kprime} --beta2 3/20"
    )
    assert mismatch["report"]["beta2"] == "3/20"
    monkeypatch.undo()
    code, out, _ = run_cli(mismatch["reproduce"].split()[1:], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("beta2=3/20 ")


def test_verify_sweep_mismatch_prints_infeasible_alpha(capsys, monkeypatch):
    reports = [
        regencost.cutflow.CutReport(F(1, 10), None, F(11, 20), F(4, 5), False, False),
        regencost.cutflow.CutReport(F(1, 10), F(11, 20), None, F(4, 5), False, False),
    ]
    monkeypatch.setattr(regencost.cutflow, "verify_closed_form", lambda params, beta2_grid=None: reports)
    code, out, _ = run_cli(["verify", "--sweep", "--max-k", "1", "--max-d", "1"], capsys)
    assert code == 1
    closed_none, oracle_none = out.splitlines()[:2]
    assert " beta2=1/10 closed=infeasible oracle=11/20 maxflow=4/5 | reproduce: " in closed_none
    assert " beta2=1/10 closed=11/20 oracle=infeasible maxflow=4/5 | reproduce: " in oracle_none


# ---------------------------------------------------------------------------
# simulate


def test_simulate_json_is_reproducible(capsys):
    argv = [
        "simulate",
        *SIM_FLAGS,
        "--alpha-sym", "5",
        "--beta2-sym", "1",
        "--failures", "2",
        "--trials", "5",
        "--seed", "7",
        "--format", "json",
    ]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv, capsys)
    assert first == second
    payload = json.loads(first)
    assert payload["config"]["trials"] == 5
    assert [trial["seed"] for trial in payload["trials"]] == [7, 8, 9, 10, 11]
    assert payload["total_checks"] == 30
    assert 0 <= payload["total_successes"] <= 30
    assert payload["success_rate_exact"] == str(
        F(payload["total_successes"], payload["total_checks"])
    )


@pytest.mark.parametrize(
    "flags,digest",
    [
        (
            [*A_WIDE_FLAGS, "--M", "60", "--alpha-sym", "12", "--beta2-sym", "1", "--failures", "3",
             "--trials", "5", "--max-subsets", "20", "--seed", "7"],
            "8e92085fab68259a2641cac560f2d900fd3b1d0026671916da718a90a12e372a",
        ),
        (
            [*SIM_FLAGS, "--alpha-sym", "5", "--beta2-sym", "1", "--failures", "4", "--trials", "20",
             "--seed", "3", "--field", "p257", "--helper-mode", "worst-case"],
            "e8d752c1437aeff46a0185f7e17668652045c1553ef7bce1592270b8f35e73cd",
        ),
        (
            # config A over p257: 60-column rank checks, one of the 10 failing by field size
            [*A_WIDE_FLAGS, "--M", "60", "--alpha-sym", "12", "--beta2-sym", "1", "--failures", "10",
             "--trials", "2", "--max-subsets", "5", "--seed", "1", "--field", "p257"],
            "c0b458c833a288b54c28f91d6f95c3fa5aba28b55e84e5e0e3d6ab53aed19d5b",
        ),
    ],
    ids=["gf256", "p257-worst-case", "p257-config-a"],
)
def test_simulate_json_matches_frozen_digest(flags, digest, capsys):
    # digests of the seeded JSON record, frozen so a change of output between commits shows
    code, out, _ = run_cli(["simulate", *flags, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flag", ["--trials", "--max-subsets"])
def test_simulate_rejects_zero_counts(flag, capsys):
    code, out, err = run_cli(
        ["simulate", *SIM_FLAGS, "--alpha-sym", "5", "--beta2-sym", "1", "--trials", "2", flag, "0"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: NonPositive: ")


def test_simulate_seed_env_fallback(capsys, monkeypatch):
    argv = [
        "simulate",
        *SIM_FLAGS,
        "--alpha-sym", "5",
        "--beta2-sym", "1",
        "--trials", "3",
        "--format", "json",
    ]
    monkeypatch.setenv("REGEN_SEED", "7")
    code, from_env, _ = run_cli(argv, capsys)
    assert code == 0
    monkeypatch.setenv("REGEN_SEED", "99")
    code, overridden, _ = run_cli([*argv, "--seed", "7"], capsys)
    assert from_env == overridden  # explicit --seed wins over the environment


def test_simulate_rejects_a_non_integer_seed_variable(capsys, monkeypatch):
    monkeypatch.setenv("REGEN_SEED", "x")
    code, out, err = run_cli(["simulate", *SIM_FLAGS, "--alpha-sym", "5", "--beta2-sym", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: Usage: REGEN_SEED must be an integer, got 'x'\n"


def test_simulate_below_rank_bound_reports_zero(capsys):
    code, out, _ = run_cli(
        ["simulate", *SIM_FLAGS, "--alpha-sym", "3", "--beta2-sym", "1", "--trials", "4"],
        capsys,
    )
    assert code == 0
    assert "successes=0" in out and "success_rate=0.000000 (0)" in out


def test_simulate_text_summary(capsys):
    code, out, _ = run_cli(
        ["simulate", *SIM_FLAGS, "--alpha-sym", "5", "--beta2-sym", "1", "--trials", "2"],
        capsys,
    )
    assert code == 0
    assert out.startswith("trials=2 checks=12 ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_failed_subset_prints_a_reproducer(fmt, capsys):
    # of seeds 40..59 only seed 49 has a failed subset, (0, 2), so the reproducer is not the base seed
    flags = [*SIM_FLAGS, "--alpha-sym", "5", "--beta2-sym", "1", "--failures", "3", "--format", fmt]
    code, out, err = run_cli(["simulate", *flags, "--trials", "20", "--seed", "40"], capsys)
    assert code == 0
    (line,) = err.splitlines()
    head, command = line.split(" | reproduce: regencost ")
    assert head == "FAILED 1 of 20 trials had a failed subset; first: seed=49 subset=0,2"
    argv = command.split()
    assert argv[0] == "simulate" and argv[-4:] == ["--trials", "1", "--seed", "49"]
    code, again, err = run_cli(argv, capsys)
    assert code == 0
    assert err.startswith("FAILED 1 of 1 trials had a failed subset; first: seed=49 subset=0,2 | ")
    if fmt == "json":
        (trial,) = json.loads(again)["trials"]
        assert trial == json.loads(out)["trials"][9]
    # a run whose subsets all succeed prints nothing on stderr
    code, _, err = run_cli(["simulate", *flags, "--trials", "9", "--seed", "40"], capsys)
    assert (code, err) == (0, "")


# ---------------------------------------------------------------------------
# graph


def test_graph_dump_defaults_to_alpha_min(capsys):
    code, out, _ = run_cli(["graph", "--beta2", "3/20", *A_SMALL_FLAGS], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "S o0.in inf" in lines
    assert "x0.in x0.out 11/20" in lines
    assert "x0.out DC inf" in lines
    code, explicit, _ = run_cli(
        ["graph", "--beta2", "3/20", "--alpha", "11/20", *A_SMALL_FLAGS], capsys
    )
    assert explicit == out


def test_graph_reports_a_bad_alpha_before_a_bad_beta2(capsys):
    code, out, err = run_cli(["graph", "--beta2", "x", "--alpha", "y", *A_SMALL_FLAGS], capsys)
    assert (code, out) == (2, "")
    assert err == "error: Usage: alpha is not a rational 'p/q' literal: 'y'\n"
    for argv in (["--beta2", "x", "--alpha", "1"], ["--beta2", "x"]):
        code, _, err = run_cli(["graph", *argv, *A_SMALL_FLAGS], capsys)
        assert (code, err) == (2, "error: Usage: beta2 is not a rational 'p/q' literal: 'x'\n")


# ---------------------------------------------------------------------------
# figure sweeps


def test_paper_figures_writes_all_sweeps(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, out, _ = run_cli(["paper-figures", "--outdir", str(outdir)], capsys)
    assert code == 0
    names = [line.rsplit("/", 1)[-1] for line in out.splitlines()]
    assert names == [
        "msr_ratio_sweep_a.csv",
        "mbr_ratio_sweep_a.csv",
        "mbr_ratio_sweep_b.csv",
        "tradeoff_curves_a.csv",
        "cost_ratio_vs_kprime_a.csv",
        "thresholds.csv",
    ]
    for name in names:
        assert (outdir / name).is_file()
    with (outdir / "thresholds.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["kind", "scenario", "threshold", "threshold_decimal"]
    assert ["msr", "A", "2", "2"] in rows
    assert ["msr", "B", "NA", "NA"] in rows
    with (outdir / "msr_ratio_sweep_a.csv").open() as handle:
        ratio_rows = [row for row in csv.reader(handle)][1:]
    assert all(row[1] == "1" and row[3] == "1" for row in ratio_rows if row[0] == "1")
    with (outdir / "cost_ratio_vs_kprime_a.csv").open() as handle:
        eta_rows = [row for row in csv.reader(handle)][1:]
    limits = {(row[0], row[1]): row[3] for row in eta_rows if row[2] == "inf"}
    assert limits[("msr", "4")] == "5/8"
    assert limits[("mbr", "4")] == "1/2"
    with (outdir / "tradeoff_curves_a.csv").open() as handle:
        curve_rows = [row for row in csv.reader(handle)][1:]
    assert {row[0] for row in curve_rows} == {"1", "2", "4"}
    assert len(curve_rows) >= 600


FIGURE_DIGESTS = {
    "msr_ratio_sweep_a.csv": "36ea6847505be33bc39f31de04fc652d786b4ee4722d4f2e6ab809076e50262a",
    "mbr_ratio_sweep_a.csv": "f58cbda24e4ac541479a34c40065f37cef84f5a69434e4894434da879cdc0ce5",
    "mbr_ratio_sweep_b.csv": "d7c7b617ab7cffb8f5266428b12c18f82ac4692f9d066135929fde2299d4f277",
    "tradeoff_curves_a.csv": "653488c17569305a160c04f11cc80a6131a07908e1d707ea321446d3bfa821a0",
    "cost_ratio_vs_kprime_a.csv": "970a1d762ad232caf0667b8ca2697e8a69b33c5201e1c3a37acf6a356456c27c",
    "thresholds.csv": "d672f5c38ec15f14f1f822be439b195c87ffae5188bfa5ab3cf40022add4debe",
}


def test_paper_figures_match_frozen_digests(tmp_path, capsys):
    code, _, _ = run_cli(["paper-figures", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FIGURE_DIGESTS}
    assert digests == FIGURE_DIGESTS


# ---------------------------------------------------------------------------
# usage failures


def test_missing_required_parameter(capsys):
    code, _, err = run_cli(["point", "--kind", "msr", "--d1", "2", "--d2", "1"], capsys)
    assert code == 2
    assert "--k is required" in err


def test_invalid_degrees_exit_with_error_code(capsys):
    code, _, err = run_cli(
        ["point", "--kind", "msr", "--n", "15", "--k", "5", "--d1", "8", "--d2", "7"], capsys
    )
    assert code == 2
    assert err.startswith("error: InvalidDegree")


def test_malformed_rational(capsys):
    code, out, err = run_cli(
        ["point", "--kind", "gmsr", *A_SMALL_FLAGS[:-2], "--kprime", "x/y"], capsys
    )
    assert code == 2
    assert out == ""
    # UsageError carries the code the CLI used for a bare ValueError
    assert err == "error: Usage: kprime is not a rational 'p/q' literal: 'x/y'\n"


def test_argparse_rejects_missing_subcommand_options():
    with pytest.raises(SystemExit) as excinfo:
        main(["point", "--k", "2", "--d1", "2", "--d2", "1"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# the system-parameter surface

PARAMETER_GROUP = [
    (["--config"], "JSON file with n, k, d1, d2, kprime, M, c1, c2"),
    (["--n"], "total nodes (default d1+d2+1)"),
    (["--k"], "nodes needed to rebuild the file"),
    (["--d1"], "cheap helpers per repair"),
    (["--d2"], "expensive helpers per repair"),
    (["--kprime"], "download ratio beta1/beta2, rational >= 1 (default 1)"),
    (["--M"], "file size, rational > 0 (default 1)"),
    (["--c1"], "cheap per-symbol cost, rational (default 1)"),
    (["--c2"], "expensive per-symbol cost, rational (default 1)"),
]


def _parameter_groups():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            [(action.option_strings, action.help) for action in group._group_actions]
            for group in parser._action_groups
            if group.title == "system parameters"
        ]
        for name, parser in subparsers.choices.items()
    }


def test_every_subcommand_has_the_same_parameter_group():
    groups = _parameter_groups()
    assert list(groups) == ["point", "curve", "ratio", "threshold", "verify", "simulate", "graph", "paper-figures"]
    for name, found in groups.items():
        assert found == ([] if name == "paper-figures" else [PARAMETER_GROUP]), name


# one value per --config key, and the flag that sets the same field
CONFIG_KEY_FLAGS = {
    "n": ("--n", 7),
    "k": ("--k", 3),
    "d1": ("--d1", 4),
    "d2": ("--d2", 3),
    "kprime": ("--kprime", "3/2"),
    "M": ("--M", "5/2"),
    "file_size": ("--M", "5/2"),
    "c1": ("--c1", "1/2"),
    "C1": ("--c1", "1/2"),
    "cost_cheap": ("--c1", "1/2"),
    "c2": ("--c2", "3"),
    "C2": ("--c2", "3"),
    "cost_expensive": ("--c2", "3"),
}


def _params_for(argv):
    return cli._params_from_args(build_parser().parse_args(["point", "--kind", "msr", *argv]))


@pytest.mark.parametrize("key", list(CONFIG_KEY_FLAGS))
def test_each_config_key_sets_what_its_flag_sets(key, tmp_path):
    base = {"k": 2, "d1": 3, "d2": 2}
    flag, value = CONFIG_KEY_FLAGS[key]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, key: value}))
    from_config = _params_for(["--config", str(config)])
    from_flag = _params_for([*(x for name, v in base.items() for x in (f"--{name}", str(v))), flag, str(value)])
    assert isinstance(from_config, SystemParams)
    assert from_config == from_flag
    assert from_config != SystemParams(n=6, k=2, d1=3, d2=2)  # the key took effect


def test_config_keys_are_the_flags_the_fields_and_the_capitalised_costs():
    assert set(cli._CONFIG_KEYS) == set(CONFIG_KEY_FLAGS)


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_at_most_once(monkeypatch, capsys, fresh_parser_cache):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(5):
        assert run_cli(["threshold", *A_SMALL_FLAGS], capsys)[0] == 0
    with pytest.raises(SystemExit):
        main(["point"])
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_main_runs_the_handler_the_module_holds_at_call_time(monkeypatch, capsys):
    # the shared parser must not pin the handlers it was built with: the
    # benchmark's traced run wraps cli.cmd_* after earlier calls built it
    assert run_cli(["threshold", *A_SMALL_FLAGS], capsys)[0] == 0
    monkeypatch.setattr(cli, "cmd_threshold", lambda args: 7)
    assert main(["threshold", *A_SMALL_FLAGS]) == 7


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_gives_what_a_fresh_parser_gives(tmp_path, capsys, fresh_parser_cache):
    # each call after the first reuses the parser the earlier calls parsed with;
    # repeated appends and defaults must not leak from one call into the next
    sequence = [
        ["point", "--kind", "gmbr", *A_SMALL_FLAGS],
        ["curve", "--samples", "5", *A_SMALL_FLAGS],
        ["verify", "--beta2", "3/20", "--beta2", "1/10", *A_SMALL_FLAGS],
        ["verify", *A_SMALL_FLAGS],
        ["ratio", "--kind", "msr", "--kprime-range", "1..3", "--cost-ratio", "3", *A_SMALL_FLAGS],
        ["ratio", "--kind", "msr", "--kprime-range", "1..3", *A_SMALL_FLAGS, "--c2", "2"],
        ["ratio", "--kind", "mbr", "--kprime-range", "2..3", "--cost-ratio", "3", "--cost-ratio", "5/2",
         *A_SMALL_FLAGS],
        ["ratio", "--kind", "mbr", "--kprime-range", "2..3", *A_SMALL_FLAGS],
        ["point", "--k", "2"],
        ["threshold", *A_SMALL_FLAGS],
        ["threshold", "--kind", "nope", *A_SMALL_FLAGS],
        ["threshold", "--kind", "msr", *A_SMALL_FLAGS],
        ["simulate", *SIM_FLAGS, "--alpha-sym", "5", "--beta2-sym", "1", "--trials", "2", "--seed", "3"],
        ["graph", "--beta2", "3/20", *A_SMALL_FLAGS],
        ["paper-figures", "--outdir", str(tmp_path)],
        ["point", "--kind", "msr", "--k", "2", "--d1", "2", "--d2", "1", "--M", "x/y"],
        ["threshold", "--help"],
        ["verify", "--sweep", "--max-k", "0"],
        ["point", "--kind", "gmbr", *A_SMALL_FLAGS],
    ]
    shared = [_outcome(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()  # main builds a new parser for this call
        fresh.append(_outcome(argv, capsys))
    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 2, 0, 2, 0]
    assert shared[0] == shared[-1]

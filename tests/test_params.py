import itertools
from fractions import Fraction
from random import Random

import pytest

from conftest import make_params
from regencost import (
    CodePoint,
    InvalidConstructionError,
    InvalidCostOrderError,
    InvalidDegreeError,
    InvalidRatioError,
    NonIntegerDownloadError,
    NonPositiveError,
    Scenario,
    UsageError,
    as_fraction,
    operating_point,
    validate_params,
)
from regencost.params import check_tiers, repair_history


def test_scenario_a_when_cheap_tier_alone_can_rebuild():
    params = validate_params(15, 5, 8, 6, kprime=2)
    assert params.scenario is Scenario.A
    assert params.d == 14


def test_scenario_b_when_cheap_tier_is_short():
    params = validate_params(15, 5, 4, 10, kprime=2, cost_expensive=3)
    assert params.scenario is Scenario.B


def test_scenario_boundary_is_d1_equals_k():
    assert make_params(3, 3, 0).scenario is Scenario.A
    assert make_params(3, 2, 1).scenario is Scenario.B


def test_zero_sized_tiers_are_permitted():
    assert make_params(2, 0, 3).d == 3
    assert make_params(2, 3, 0).d == 3


def test_degree_sum_above_n_minus_one_rejected():
    with pytest.raises(InvalidDegreeError):
        validate_params(15, 5, 8, 7)


def test_degree_sum_below_k_rejected():
    with pytest.raises(InvalidDegreeError):
        validate_params(10, 5, 2, 2)


def test_n_no_larger_than_k_rejected():
    with pytest.raises(InvalidDegreeError):
        validate_params(5, 5, 2, 2)


def test_negative_helper_count_rejected():
    with pytest.raises(InvalidDegreeError):
        validate_params(6, 2, -1, 4)


def test_non_integer_counts_rejected():
    with pytest.raises(InvalidDegreeError):
        validate_params(6, 2, "2", 1)  # type: ignore[arg-type]
    with pytest.raises(InvalidDegreeError):
        validate_params(6, True, 2, 1)
    for k, d2 in ((2.0, 1), (None, 1), (2, 1.0), (2, None)):
        with pytest.raises(InvalidDegreeError, match="must be an integer, got"):
            validate_params(6, k, 2, d2)  # type: ignore[arg-type]


def test_cost_order_enforced():
    with pytest.raises(InvalidCostOrderError):
        make_params(2, 2, 1, cost_cheap=3, cost_expensive=2)


def test_kprime_below_one_rejected():
    with pytest.raises(InvalidRatioError):
        make_params(2, 2, 1, kprime="1/2")


def test_nonpositive_quantities_rejected():
    with pytest.raises(NonPositiveError):
        make_params(0, 2, 1)
    with pytest.raises(NonPositiveError):
        make_params(2, 2, 1, file_size=0)
    with pytest.raises(NonPositiveError):
        make_params(2, 2, 1, cost_cheap=-1, cost_expensive=1)


def _fraction_checks(kprime, file_size, cost_cheap, cost_expensive):
    # SystemParams' rational checks, in its order, by Fraction comparison: the error class and message, or None
    if file_size <= 0:
        return NonPositiveError, f"file_size must be positive, got {file_size}"
    if cost_cheap < 0:
        return NonPositiveError, f"cost_cheap must be nonnegative, got {cost_cheap}"
    if cost_cheap > cost_expensive:
        return InvalidCostOrderError, f"cost_cheap must not exceed cost_expensive, got {cost_cheap} > {cost_expensive}"
    if kprime < 1:
        return InvalidRatioError, f"kprime must be at least 1, got {kprime}"
    return None


def test_rational_checks_match_fraction_comparisons_at_each_boundary():
    # on, just above and just below each boundary, with unequal denominators, alone and together
    F = Fraction
    kprimes = (F(1), F(999, 1000), F(1001, 1000))
    file_sizes = (F(0), F(-1, 3), F(1, 10**30))
    costs = ((F(2, 3), F(2, 3)), (F(2, 3), F(3, 5)), (F(3, 5), F(2, 3)), (F(0), F(0)))
    for kprime, file_size, (cost_cheap, cost_expensive) in itertools.product(kprimes, file_sizes, costs):
        expected = _fraction_checks(kprime, file_size, cost_cheap, cost_expensive)
        try:
            make_params(2, 2, 1, kprime, file_size=file_size, cost_cheap=cost_cheap, cost_expensive=cost_expensive)
            outcome = None
        except (NonPositiveError, InvalidCostOrderError, InvalidRatioError) as exc:
            outcome = type(exc), str(exc)
        assert outcome == expected, (kprime, file_size, cost_cheap, cost_expensive)


def test_rational_inputs_accepted_as_strings():
    params = make_params(2, 2, 1, kprime="3/2", file_size="5/4")
    assert params.kprime == Fraction(3, 2)
    assert params.file_size == Fraction(5, 4)


def test_total_cost_weights_each_tier():
    params = make_params(5, 8, 6, kprime=2, n=15, cost_cheap=1, cost_expensive=2)
    assert params.cost_per_beta2 == 28  # 1*8*2 + 2*6*1
    assert operating_point(params, 1).cost == 28


def test_total_cost_matches_symmetric_weighting_at_kprime_one():
    params = make_params(3, 2, 2, kprime=1, cost_cheap="1/2", cost_expensive=3)
    beta = Fraction(2, 7)
    expected = (params.cost_cheap * 2 + params.cost_expensive * 2) * beta
    assert operating_point(params, beta).cost == params.cost_per_beta2 * beta == expected


# beta2 = 0 is below every curve's least beta2, so every scale keeps the point on the curve
@pytest.mark.parametrize("scale", [1, 2, 3, Fraction(5, 3)])
def test_total_cost_is_linear_in_beta2(scale):
    params = make_params(4, 3, 3, kprime="7/2", cost_cheap=2, cost_expensive=5)
    base = Fraction(3, 11)
    assert operating_point(params, base * scale).cost == operating_point(params, base).cost * scale


def test_total_cost_rejects_negative_download():
    with pytest.raises(NonPositiveError):
        operating_point(make_params(2, 2, 1), -1)


def test_repair_bandwidth_counts_both_tiers():
    params = make_params(2, 2, 1, kprime=2)
    assert operating_point(params, Fraction(3, 20)).gamma == Fraction(3, 4)
    assert params.gamma_per_beta2 == 5


def test_as_fraction_parses_integers_and_ratios():
    assert as_fraction(7) == 7
    assert as_fraction(" 3/4 ") == Fraction(3, 4)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)


@pytest.mark.parametrize("bad", [0.25, "x/y", "1/0", True, None])
def test_as_fraction_rejects_inexact_or_malformed(bad):
    with pytest.raises(UsageError):
        as_fraction(bad)


def test_code_point_flags_beta1_above_alpha():
    low = CodePoint(alpha=Fraction(2), beta1=Fraction(1), beta2=Fraction(1), gamma=Fraction(3), cost=Fraction(3))
    high = CodePoint(alpha=Fraction(1), beta1=Fraction(2), beta2=Fraction(1), gamma=Fraction(5), cost=Fraction(5))
    assert not low.beta1_exceeds_alpha
    assert high.beta1_exceeds_alpha


# ---------------------------------------------------------------------------
# repair histories


def _valid_tierings(max_n):
    """Every (params, n_cheap) with n <= max_n, k = 1 and d1 <= n_cheap <= n - d2."""
    for n in range(2, max_n + 1):
        for d1 in range(n):
            for d2 in range(n - d1):
                if d1 + d2 == 0:
                    continue
                params = make_params(1, d1, d2, n=n)
                for n_cheap in range(d1, n - d2 + 1):
                    yield params, n_cheap


def test_repair_history_always_has_a_failable_node_and_full_pools():
    # n >= d + 1 and d1 <= n_cheap <= n - d2 leave one tier a spare node, so
    # the history never runs out of nodes that can fail or of helpers
    configs = 0
    for params, n_cheap in _valid_tierings(9):
        n, d1, d2 = params.n, params.d1, params.d2
        assert n_cheap - d1 >= 1 or (n - n_cheap) - d2 >= 1
        cheap, expensive = set(range(n_cheap)), set(range(n_cheap, n))
        for worst_case in (False, True):
            events = list(repair_history(params, n_cheap, 2 * n, Random(n_cheap), worst_case))
            assert len(events) == 2 * n
            for failed, cheap_helpers, expensive_helpers in events:
                tier = cheap if failed in cheap else expensive
                assert len(tier) - 1 >= (d1 if tier is cheap else d2)
                assert len(cheap_helpers) == d1 and set(cheap_helpers) <= cheap - {failed}
                assert len(expensive_helpers) == d2 and set(expensive_helpers) <= expensive - {failed}
                assert len(set(cheap_helpers)) == d1 and len(set(expensive_helpers)) == d2
                check_tiers(cheap_helpers, expensive_helpers, n_cheap)
        configs += 1
    assert configs > 500


def test_repair_history_checks_its_counts_before_any_draw():
    params = make_params(2, 2, 1, n=4)
    for n_cheap, failures, error in (
        (2.5, 1, NonIntegerDownloadError),
        (True, 1, NonIntegerDownloadError),
        (2, "1", NonIntegerDownloadError),
        (2, -1, NonPositiveError),
        (0, 1, InvalidConstructionError),  # fewer cheap nodes than d1
        (4, 1, InvalidConstructionError),  # too few expensive nodes for d2
    ):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(error):
            repair_history(params, n_cheap, failures, rng)  # raises on the call, not on iteration
        assert rng.getstate() == state
    assert list(repair_history(params, 2, 0, Random(0))) == []


def test_repair_history_worst_case_draws_only_the_failed_nodes():
    params = make_params(2, 2, 2, n=7)
    events = list(repair_history(params, 4, 12, Random(5), worst_case=True))
    replay = Random(5)
    failable = [0, 1, 2, 3, 4, 5, 6]
    assert [failed for failed, _, _ in events] == [replay.choice(failable) for _ in range(12)]
    last = {}
    for t, (failed, cheap_helpers, expensive_helpers) in enumerate(events):
        for tier, helpers in ((range(4), cheap_helpers), (range(4, 7), expensive_helpers)):
            pool = sorted((i for i in tier if i != failed), key=lambda i: (-last.get(i, -1), i))
            assert helpers == pool[:2]
        last[failed] = t

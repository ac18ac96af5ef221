"""Every public call on any input returns an exact value or raises a RegenError."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regencost import RegenError, SystemParams, UsageError, cutflow, tradeoff
from regencost.params import CodePoint, repair_bandwidth, total_cost, validate_params

_COUNTS = st.one_of(st.integers(-1, 6), st.booleans(), st.none(), st.just("3"), st.just(2.0))
_RATIONALS = st.one_of(
    st.integers(-2, 6),
    st.fractions(min_value=-1, max_value=6, max_denominator=7),
    st.sampled_from(["3/2", " 5/4 ", "0", "-1/3", "x/y", "1/0", "", "1e2"]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True),
)
_KINDS = st.sampled_from(["msr", "mbr", "gmsr", "MSR", ""])


def _is_exact(value: object) -> bool:
    if isinstance(value, Fraction):
        return True
    if isinstance(value, CodePoint):
        return all(isinstance(getattr(value, f), Fraction) for f in ("alpha", "beta1", "beta2", "gamma"))
    if isinstance(value, tradeoff.TradeoffCurve):
        return all(isinstance(x, Fraction) for x in value.breakpoints())
    if isinstance(value, cutflow.FlowGraph):
        return all(e.capacity is None or isinstance(e.capacity, Fraction) for e in value.edges)
    return False


def _check(call, *args) -> None:
    try:
        result = call(*args)
    except RegenError:
        return
    assert _is_exact(result), (call.__name__, args, result)


@settings(max_examples=300, deadline=None)
@given(
    counts=st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS),
    rationals=st.tuples(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS),
    beta2=_RATIONALS,
    alpha=_RATIONALS,
    kind=_KINDS,
)
def test_public_calls_raise_only_typed_errors(counts, rationals, beta2, alpha, kind):
    # n is drawn as an offset from d1 + d2 so that most draws are valid systems
    k, d1, d2, extra = counts
    try:
        n = d1 + d2 + 1 + extra
    except TypeError:
        n = extra
    kprime, file_size, cost_cheap, cost_expensive = rationals
    _check(validate_params, n, k, d1, d2, kprime, file_size, cost_cheap, cost_expensive)
    try:
        params = SystemParams(n, k, d1, d2, kprime, file_size, cost_cheap, cost_expensive)
    except RegenError:
        return
    _check(tradeoff.msr_point, file_size, params.k, params.d)
    _check(tradeoff.mbr_point, file_size, params.k, params.d)
    for call in (tradeoff.beta2_min, tradeoff.tradeoff_curve, tradeoff.gmsr_point, tradeoff.gmbr_point):
        _check(call, params)
    for call in (tradeoff.alpha_min, tradeoff.operating_point, cutflow.alpha_min_oracle, repair_bandwidth, total_cost):
        _check(call, params, beta2)
    for call in (tradeoff.bandwidth_ratio, tradeoff.cost_ratio, tradeoff.cost_threshold,
                 tradeoff.cost_ratio_limit, tradeoff.grc_limit_point):
        _check(call, params, kind)
    _check(cutflow.cut_capacity_sum, params, alpha, beta2)
    _check(cutflow.build_gstar, params, alpha, beta2)


def test_usage_error_is_still_a_value_error():
    with pytest.raises(UsageError) as info:
        SystemParams(3, 1, 1, 1, kprime="x/y")
    assert isinstance(info.value, ValueError)  # callers catching ValueError still catch it
    assert info.value.code == "Usage"

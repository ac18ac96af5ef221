"""Every public call on any input returns an exact value or raises a RegenError."""

import random
import re
from dataclasses import astuple
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fractions_between
from regencost import (
    IndexOutOfRangeError,
    InsufficientHelpersError,
    InvalidChoiceError,
    InvalidConstructionError,
    InvalidDegreeError,
    NonIntegerDownloadError,
    NonPositiveError,
    RegenError,
    SystemParams,
    UnknownNodeError,
    UsageError,
    cutflow,
    rlnc,
    tradeoff,
)
from regencost.params import CodePoint, as_count, repair_history, validate_params

_COUNTS = st.one_of(st.integers(-1, 6), st.booleans(), st.none(), st.just("3"), st.just(2.0))
_RATIONALS = st.one_of(
    st.integers(-2, 6),
    fractions_between(-1, 6, max_denominator=7),
    st.sampled_from(["3/2", " 5/4 ", "0", "-1/3", "x/y", "1/0", "", "1e2"]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True),
)
_KINDS = st.sampled_from(["msr", "mbr", "gmsr", "MSR", ""])


def _is_exact(value: object) -> bool:
    if isinstance(value, Fraction):
        return True
    if isinstance(value, SystemParams):
        rationals = ("kprime", "file_size", "cost_cheap", "cost_expensive")
        return all(isinstance(getattr(value, f), Fraction) for f in rationals)
    if isinstance(value, CodePoint):
        return all(isinstance(getattr(value, f), Fraction) for f in ("alpha", "beta1", "beta2", "gamma"))
    if isinstance(value, tradeoff.TradeoffCurve):
        return all(isinstance(x, Fraction) for x in value.breakpoints())
    if isinstance(value, cutflow.FlowGraph):
        return all(e.capacity is None or isinstance(e.capacity, Fraction) for e in value.edges)
    if isinstance(value, str):  # an edge list: every capacity exact
        return all(re.fullmatch(r"\S+ \S+ (\d+/\d+|inf)", line) for line in value.splitlines())
    if isinstance(value, rlnc.TrialResult):
        return isinstance(value.success_rate, Fraction)
    return False


def _check(call, *args) -> None:
    try:
        result = call(*args)
    except RegenError:
        return
    assert _is_exact(result), (call.__name__, args, result)


@st.composite
def _valid_params(draw):
    """A SystemParams that constructs; raw fields almost never do, so the calls on it would never run."""
    k = draw(st.integers(1, 4))
    d1 = draw(st.integers(0, 5))
    d2 = draw(st.integers(max(0, k - d1), 5))
    cost_cheap = draw(fractions_between(0, 3, max_denominator=4))
    return SystemParams(
        n=d1 + d2 + 1 + draw(st.integers(0, 2)),
        k=k,
        d1=d1,
        d2=d2,
        kprime=draw(st.one_of(st.integers(1, 3), fractions_between(1, 4, max_denominator=5))),
        file_size=draw(st.one_of(st.integers(1, 6), fractions_between(1, 6, max_denominator=5))),
        cost_cheap=cost_cheap,
        cost_expensive=cost_cheap + draw(fractions_between(0, 3, max_denominator=4)),
    )


@settings(max_examples=300, deadline=None)
@given(
    counts=st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS),
    rationals=st.tuples(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS),
    params=_valid_params(),
    beta2=_RATIONALS,
    alpha=_RATIONALS,
    kind=_KINDS,
    history=st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS),
    capacities=st.tuples(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS),
)
def test_public_calls_raise_only_typed_errors(counts, rationals, params, beta2, alpha, kind, history, capacities):
    # n is drawn as an offset from d1 + d2 so that more raw draws are valid systems
    k, d1, d2, extra = counts
    try:
        n = d1 + d2 + 1 + extra
    except TypeError:
        n = extra
    kprime, file_size, cost_cheap, cost_expensive = rationals
    _check(validate_params, n, k, d1, d2, kprime, file_size, cost_cheap, cost_expensive)
    _check(validate_params, *astuple(params))
    for call in (tradeoff.beta2_min, tradeoff.tradeoff_curve, tradeoff.gmsr_point, tradeoff.gmbr_point,
                 tradeoff.msr_point, tradeoff.mbr_point):
        _check(call, params)
    for call in (tradeoff.alpha_min, tradeoff.operating_point, cutflow.alpha_min_oracle):
        _check(call, params, beta2)
    for call in (tradeoff.bandwidth_ratio, tradeoff.cost_ratio, tradeoff.cost_threshold,
                 tradeoff.cost_ratio_limit, tradeoff.grc_limit_point):
        _check(call, params, kind)
    _check(cutflow.cut_capacity_sum, params, alpha, beta2)
    _check(cutflow.build_gstar, params, alpha, beta2)
    failures, n_cheap, alpha_sym, beta2_sym = history
    _check(cutflow.random_history_graph, params, alpha, beta2, Random(0), failures)

    def pinned_history_graph():
        rng = Random(0)
        events = list(repair_history(params, n_cheap, failures, rng))
        return cutflow.history_graph(params, alpha, beta2, events, rng.sample(range(params.n), params.k))

    _check(pinned_history_graph)
    _check(lambda: rlnc.run_trial(params, alpha_sym, beta2_sym, failures, 0, n_cheap=n_cheap, max_subsets=4))
    # a hand-built graph: parallel, terminal and inner edges, every capacity drawn raw
    ends = (("S", "a"), ("a", "b"), ("a", "b"), ("b", "DC"), ("a", "DC"))
    graph = cutflow.FlowGraph(tuple(cutflow.FlowEdge(*pair, c) for pair, c in zip(ends, capacities)))
    for call in (cutflow.max_flow, cutflow.to_edge_list):
        _check(call, graph)
        _check(call, alpha)  # never a FlowGraph


_FIELD_NAMES = st.one_of(
    st.text(max_size=5),
    st.text("0123456789²٣", max_size=11).map("p".__add__),  # "²" and "٣" pass str.isdigit
    st.sampled_from(["gf256", "p257", "p" + "9" * 5000]),
    st.integers(0, 300),
    st.none(),
    st.binary(max_size=3),
)
# no large prime here (tests/test_rlnc.py has them): one that slipped past the cap would stall the search
_ORDERS = st.one_of(
    st.integers(-3, 300),
    st.sampled_from([2**31, 2**32 + 2, 10**400 + 1, -(10**5000)]),
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=2),
)
_SEEDS = st.one_of(st.integers(-(2**70), 2**70), st.none(), st.booleans(), st.floats(), st.text(max_size=2))
_ENTRIES = st.one_of(st.integers(-2, 300), st.floats(), st.none(), st.text(max_size=1))
_ROWS = st.one_of(
    st.none(),
    st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(st.integers(0, 300), min_size=width, max_size=width), max_size=4)
    ),
    st.lists(
        st.one_of(st.lists(_ENTRIES, max_size=3), st.binary(max_size=3), st.integers(0, 3), st.text(max_size=2)),
        max_size=4,
    ),
)
_TRIAL_PARAMS = SystemParams(4, 2, 2, 1, kprime=2, file_size=8)
_TRIAL_N_CHEAP = 3


class _SubclassedRandom(Random):
    """A Random subclass: its draws take the per-call path."""


_FIELDS = st.one_of(
    st.sampled_from([rlnc.GF256, rlnc.PrimeField(257)]),
    st.sampled_from(["gf256", "p257", 256, None, Random(0), rlnc.ByteField, rlnc]),
)
_RNGS = st.one_of(
    st.builds(Random, st.integers(0, 9)),
    st.builds(_SubclassedRandom, st.integers(0, 9)),
    st.sampled_from([None, 0, "rng", random, Random, rlnc.GF256]),
)


def _typed(call, *args, **kwargs):
    """The call's result, or None when it raised a RegenError."""
    try:
        return call(*args, **kwargs)
    except RegenError:
        return None


@settings(max_examples=100, deadline=None)
@given(
    name=_FIELD_NAMES,
    order=_ORDERS,
    seed=_SEEDS,
    rows=_ROWS,
    field=st.sampled_from(["gf256", "p257", "p2"]),
    any_field=_FIELDS,
    rng=_RNGS,
)
def test_rlnc_inputs_raise_only_typed_errors(name, order, seed, rows, field, any_field, rng):
    made = _typed(rlnc.make_field, name)
    assert made is None or made is rlnc.GF256 or isinstance(made, rlnc.PrimeField)
    made = _typed(rlnc.PrimeField, order)
    assert made is None or made.order == order
    # a seed is an int, or the call refuses it: None would seed from the OS, unreproducibly
    seeded = type(seed) is int
    trial = _typed(rlnc.run_trial, _TRIAL_PARAMS, 5, 1, 1, seed, max_subsets=2)
    assert trial.seed == seed if seeded else trial is None
    state = _typed(rlnc.encode_initial, 4, 3, 2, rlnc.GF256, seed, 3)
    assert (state is not None) == seeded
    # a field is a ByteField or PrimeField and an rng a random.Random; repair_history checks when created
    is_field = isinstance(any_field, (rlnc.ByteField, rlnc.PrimeField))
    is_rng = isinstance(rng, Random)
    assert (_typed(rlnc.matrix_rank, [[1]], any_field) is not None) == is_field
    assert (_typed(rlnc.encode_initial, 8, 4, 2, any_field, 0, _TRIAL_N_CHEAP) is not None) == is_field
    assert (_typed(rlnc.run_trial, _TRIAL_PARAMS, 2, 1, 1, 0, field=any_field, max_subsets=2) is not None) == is_field
    state = rlnc.encode_initial(8, 4, 2, rlnc.GF256, 0, _TRIAL_N_CHEAP)
    assert (_typed(rlnc.repair, state, 0, [1, 2], [3], 2, 1, rng) is not None) == is_rng
    assert (_typed(cutflow.random_history_graph, _TRIAL_PARAMS, 4, 1, rng, 1) is not None) == is_rng
    assert (_typed(repair_history, _TRIAL_PARAMS, 3, 1, rng) is not None) == is_rng
    # a rank comes only from rectangular rows of field elements
    field = rlnc.make_field(field)
    rank = _typed(rlnc.matrix_rank, rows, field)
    if rank is not None:
        ints = [list(row) for row in rows]
        assert all(len(row) == len(ints[0]) for row in ints), rows
        assert all(isinstance(v, int) and 0 <= v < field.order for row in ints for v in row), rows
        assert 0 <= rank <= len(ints)


_STATE = rlnc.encode_initial(8, 4, 2, rlnc.GF256, 0, _TRIAL_N_CHEAP)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: repair_history(_TRIAL_PARAMS, 3, 1, None), UsageError, "rng must be a Random, got NoneType"),
        (lambda: cutflow.random_history_graph(_TRIAL_PARAMS, 4, 1, 7, 1), UsageError, "rng must be a Random, got int"),
        (lambda: rlnc.repair(_STATE, 0, [1, 2], [3], 2, 1, None), UsageError, "rng must be a Random, got NoneType"),
        (lambda: cutflow.max_flow(None), UsageError, "graph must be a FlowGraph, got NoneType"),
        (lambda: cutflow.to_edge_list([]), UsageError, "graph must be a FlowGraph, got list"),
        (lambda: rlnc.matrix_rank([[1]], None), UsageError, "field must be a ByteField or PrimeField, got NoneType"),
        (lambda: rlnc.encode_initial(8, 4, 2, "gf256", 0, 3), UsageError,
         "field must be a ByteField or PrimeField, got str"),
        (lambda: rlnc.repair(None, 0, [1, 2], [3], 2, 1, Random(0)), UsageError,
         "state must be a StorageState, got NoneType"),
        (lambda: rlnc.can_reconstruct(None, (0, 1)), UsageError, "state must be a StorageState, got NoneType"),
        (lambda: tradeoff.bandwidth_ratio(_P, "gmsr"), InvalidChoiceError,
         "kind must be one of ('msr', 'mbr'), got 'gmsr'"),
        (lambda: tradeoff.cost_ratio(_P, "MSR"), InvalidChoiceError, "kind must be one of ('msr', 'mbr'), got 'MSR'"),
        (lambda: tradeoff.cost_threshold(_P, None), InvalidChoiceError, "kind must be one of ('msr', 'mbr'), got None"),
        (lambda: tradeoff.cost_ratio_limit(_P, ""), InvalidChoiceError, "kind must be one of ('msr', 'mbr'), got ''"),
        (lambda: tradeoff.grc_limit_point(_P, "msr"), InvalidChoiceError,
         "kind must be one of ('gmsr', 'gmbr'), got 'msr'"),
        (lambda: rlnc.run_trial(_TRIAL_PARAMS, 2, 1, 1, 0, helper_mode="worst"), InvalidChoiceError,
         "helper_mode must be one of ('uniform', 'worst-case'), got 'worst'"),
        (lambda: cutflow.verify_closed_form(_P, "12"), UsageError,
         "beta2_grid must be an iterable of beta2 values, got str"),
        (lambda: cutflow.verification_sweep(kprimes=None), UsageError,
         "kprimes must be an iterable of download ratios, got NoneType"),
    ],
    ids=["repair_history-rng", "random_history_graph-rng", "repair-rng", "max_flow-graph", "to_edge_list-graph",
         "matrix_rank-field", "encode_initial-field", "repair-state", "can_reconstruct-state",
         "bandwidth_ratio-kind", "cost_ratio-kind", "cost_threshold-kind", "cost_ratio_limit-kind",
         "grc_limit_point-kind", "run_trial-helper_mode", "verify_closed_form-beta2_grid",
         "verification_sweep-kprimes"],
)
def test_each_argument_rule_has_one_wording(call, error, message):
    # an instance, a choice and a list of values are each checked by one guard in params, in one wording
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_negative_beta2_is_refused_in_one_wording():
    params = SystemParams(4, 2, 2, 1)
    for call in (tradeoff.alpha_min, tradeoff.operating_point, cutflow.cut_terms):
        with pytest.raises(NonPositiveError) as info:
            call(params, -1)
        assert str(info.value) == "beta2 must be nonnegative, got -1", call.__name__


def test_usage_error_is_still_a_value_error():
    with pytest.raises(UsageError) as info:
        SystemParams(3, 1, 1, 1, kprime="x/y")
    assert isinstance(info.value, ValueError)  # callers catching ValueError still catch it
    assert info.value.code == "Usage"


_HUGE = 10**5000  # str() of an int past 4300 digits raises ValueError
_P = SystemParams(4, 2, 2, 1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: as_count(-_HUGE, "x"), NonPositiveError),
        (lambda: SystemParams(4, _HUGE, 2, 1), InvalidDegreeError),
        (lambda: tradeoff.breakpoint_a(_P, _HUGE), IndexOutOfRangeError),
        (lambda: tradeoff.breakpoint_a(_P, "1"), UsageError),
        (lambda: tradeoff.breakpoint_a(_P, 1.0), UsageError),
        (lambda: tradeoff.breakpoint_a(_P, True), UsageError),
        (lambda: repair_history(_P, _HUGE, 1, Random(0)), InvalidConstructionError),
    ],
    ids=["huge-count", "huge-k", "huge-index", "str-index", "float-index", "bool-index", "huge-n-cheap"],
)
def test_huge_ints_and_wrong_index_types_raise_typed_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert len(str(info.value)) > 0  # the message itself formats


@pytest.mark.parametrize("index", ["0", 0.0, True, False, None])
def test_every_breakpoint_family_refuses_a_non_int_index(index):
    a_side, b_side = SystemParams(5, 2, 3, 1), SystemParams(5, 3, 1, 2)
    for call, params in ((tradeoff.breakpoint_a, a_side), (tradeoff.breakpoint_b1, b_side),
                         (tradeoff.breakpoint_b2, b_side)):
        with pytest.raises(UsageError, match="^branch index must be an int, got "):
            call(params, index)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: list(cutflow.verification_sweep(max_k=1, max_d=1, kprimes=(1.5,))), UsageError),
        (lambda: list(cutflow.verification_sweep(max_k=1, max_d=1, kprimes="ab")), UsageError),
        (lambda: list(cutflow.verification_sweep(max_k=1, max_d=1, kprimes="12")), UsageError),
        (lambda: list(cutflow.verification_sweep(max_k="3")), NonIntegerDownloadError),
        (lambda: list(cutflow.verification_sweep(max_d=2.5)), NonIntegerDownloadError),
        (lambda: list(cutflow.verification_sweep(max_k=True)), NonIntegerDownloadError),
        (lambda: list(cutflow.verification_sweep(max_d=-1)), NonPositiveError),
        (lambda: cutflow.verification_sweep(max_k=0), NonPositiveError),
        (lambda: cutflow.verification_sweep(max_d=0), NonPositiveError),
        (lambda: cutflow.verification_sweep(kprimes=()), NonPositiveError),
        (lambda: cutflow.verification_sweep(kprimes=5), UsageError),
        (lambda: cutflow.verify_closed_form(_P, 5), UsageError),
        (lambda: cutflow.verify_closed_form(_P, "12"), UsageError),
        (lambda: cutflow.verify_closed_form(_P, []), NonPositiveError),
    ],
    ids=["float-kprime", "str-kprimes", "digit-str-kprimes", "str-max-k", "float-max-d", "bool-max-k",
         "negative-max-d", "zero-max-k", "zero-max-d", "no-kprimes", "int-kprimes",
         "int-grid", "str-grid", "empty-grid"],
)
def test_sweep_helpers_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


# n=4, k=2, d1=2, d2=1: each event names a failed node, 2 cheap and 1 expensive helpers
_EVENT = (0, [1, 2], [3])


@pytest.mark.parametrize(
    "events, readers, error",
    [
        ([(True, [1, 2], [3])], (0, 1), UnknownNodeError),
        ([(0, [True, 2], [3])], (0, 1), UnknownNodeError),
        ([(0, [1.0, 2], [3])], (0, 1), UnknownNodeError),
        ([("0", [1, 2], [3])], (0, 1), UnknownNodeError),
        ([(0, [-1, 2], [3])], (0, 1), UnknownNodeError),
        ([(-4, [1, 2], [3])], (0, 1), UnknownNodeError),
        ([(0, [1, 2], [4])], (0, 1), UnknownNodeError),
        ([(0, [1, 2], [_HUGE])], (0, 1), UnknownNodeError),
        ([_EVENT], (False, 1), UnknownNodeError),
        ([_EVENT], (-1, 1), UnknownNodeError),
        ([_EVENT], (0, 4), UnknownNodeError),
        ([_EVENT], (0, None), UnknownNodeError),
        ([(0, [1, 1], [3])], (0, 1), InsufficientHelpersError),
        ([(0, [1, 2], [2])], (0, 1), InsufficientHelpersError),
        ([(0, [0, 2], [3])], (0, 1), InsufficientHelpersError),
        ([(0, [1, 2], [0])], (0, 1), InsufficientHelpersError),
        ([(0, [1], [3])], (0, 1), InsufficientHelpersError),
        ([(0, [1, 2], [])], (0, 1), InsufficientHelpersError),
        ([_EVENT], (0,), InvalidConstructionError),
        ([_EVENT], (0, 1, 2), InvalidConstructionError),
        ([_EVENT], (1, 1), InvalidConstructionError),
        ([_EVENT], 2, InvalidConstructionError),
        (5, (0, 1), InvalidConstructionError),
        (None, (0, 1), InvalidConstructionError),
        ([0], (0, 1), InvalidConstructionError),
        ([(0, [1, 2])], (0, 1), InvalidConstructionError),
        ([(*_EVENT, [])], (0, 1), InvalidConstructionError),
        ([(0, 1, 3)], (0, 1), InvalidConstructionError),
        ([(0, [1, 2], None)], (0, 1), InvalidConstructionError),
    ],
    ids=["bool-failed", "bool-helper", "float-helper", "str-failed", "negative-helper", "negative-failed",
         "helper-n", "huge-helper", "bool-reader", "negative-reader", "reader-n", "none-reader",
         "repeated-cheap", "repeated-across-tiers", "failed-helps-cheap", "failed-helps-expensive",
         "d1-minus-1-cheap", "d2-minus-1-expensive", "k-minus-1-readers", "k-plus-1-readers",
         "repeated-reader", "int-readers", "int-events", "none-events", "int-event", "pair-event",
         "four-event", "int-helpers", "none-helpers"],
)
def test_history_graph_refuses_malformed_histories_with_typed_errors(events, readers, error):
    # never a bare IndexError or TypeError, and a negative id does not wrap round to the last node
    with pytest.raises(error) as info:
        cutflow.history_graph(_P, 1, 1, events, readers)
    assert len(str(info.value)) > 0  # the message itself formats

import itertools
from dataclasses import astuple, replace
from fractions import Fraction

import pytest

from conftest import dimakis_limit_point, dimakis_point, make_params
from regencost import (
    DegenerateConfigurationError,
    IndexOutOfRangeError,
    InsufficientRepairBandwidthError,
    InvalidChoiceError,
    NonPositiveError,
    NotApplicableError,
    alpha_min,
    bandwidth_ratio,
    beta2_min,
    cost_ratio,
    cost_ratio_limit,
    cost_threshold,
    gmbr_point,
    gmsr_point,
    grc_limit_point,
    mbr_point,
    msr_point,
    operating_point,
    tradeoff_curve,
)
from regencost import cutflow, tradeoff
from regencost.cutflow import verification_sweep
from regencost.tradeoff import alpha_min_a, alpha_min_b, breakpoint_a, breakpoint_b1, breakpoint_b2

F = Fraction

A_SMALL = make_params(2, 2, 1, kprime=2)  # scenario A, two segments
B_SMALL = make_params(3, 1, 2, kprime=2)  # scenario B, both branch families
A_WIDE = make_params(5, 8, 6, kprime=2, n=15)
B_WIDE = make_params(5, 4, 10, kprime=2, n=15)

SWEEP = list(verification_sweep(max_k=4, max_d=6, kprimes=(1, 2, 3)))
# rational kprime and file size, scenarios A and B, both tiers and each tier empty
RATIONAL = [
    make_params(k, d1, d2, kprime=F(5, 2), file_size=F(7, 3))
    for k, d1, d2 in ((3, 4, 2), (3, 3, 0), (4, 1, 5), (4, 0, 6), (2, 1, 1), (1, 0, 1))
]


# ---------------------------------------------------------------------------
# symmetric extremal points


def test_msr_point_values():
    point = msr_point(replace(A_WIDE, cost_expensive=F(3)))
    assert (point.alpha, point.gamma) == (F(1, 5), F(7, 25))
    assert point.beta1 == point.beta2 == F(7, 25) / 14
    assert point.cost == (1 * 8 + 3 * 6) * point.beta2 == F(13, 25)  # symmetric repair's cost


def test_mbr_point_values():
    point = mbr_point(A_WIDE)
    assert point.alpha == point.gamma == F(7, 30)


def test_single_tier_degenerate_edges():
    assert msr_point(make_params(1, 1, 0)).alpha == 1
    assert msr_point(make_params(3, 2, 1, kprime=2)).gamma == 1  # d = k forces full-file repair traffic
    assert mbr_point(make_params(5, 2, 3, kprime=3)).gamma == F(1, 3)


# ---------------------------------------------------------------------------
# breakpoints


def test_breakpoints_scenario_a_values():
    assert breakpoint_a(A_SMALL, 0) == F(1, 6)
    assert breakpoint_a(A_SMALL, 1) == F(1, 8)


def test_breakpoints_scenario_b_values():
    assert breakpoint_b1(B_SMALL, 0) == F(1, 3)
    assert breakpoint_b1(B_SMALL, 1) == F(1, 5)
    assert breakpoint_b2(B_SMALL, 0) == F(1, 7)
    with pytest.raises(IndexOutOfRangeError):
        breakpoint_b2(B_SMALL, -1)


def test_breakpoints_reduce_to_symmetric_form_at_kprime_one():
    for params in SWEEP:
        if params.kprime != 1:
            continue
        k, d, M = params.k, params.d, params.file_size
        curve = tradeoff_curve(params)
        expected = [2 * M / (2 * k * (d - k) + (i + 1) * (2 * k - i)) for i in range(k)]
        assert sorted(curve.breakpoints()) == sorted(expected)


def test_breakpoint_index_bounds():
    with pytest.raises(IndexOutOfRangeError):
        breakpoint_a(A_SMALL, 2)
    with pytest.raises(IndexOutOfRangeError):
        breakpoint_a(A_SMALL, -1)
    with pytest.raises(IndexOutOfRangeError):
        breakpoint_b1(B_SMALL, 2)
    with pytest.raises(IndexOutOfRangeError):
        breakpoint_b2(B_SMALL, 1)


def test_breakpoints_require_matching_scenario():
    with pytest.raises(NotApplicableError):
        breakpoint_a(B_SMALL, 0)
    with pytest.raises(NotApplicableError):
        breakpoint_b1(A_SMALL, 0)


# ---------------------------------------------------------------------------
# alpha_min


def test_alpha_min_scenario_a_values():
    assert alpha_min(A_SMALL, F(3, 20)) == F(11, 20)
    assert alpha_min(A_SMALL, F(1, 5)) == F(1, 2)  # flat branch
    assert alpha_min(A_SMALL, F(1, 8)) == F(5, 8)  # exact feasibility edge
    assert alpha_min_a(A_SMALL, F(1, 6)) == F(1, 2)


def test_alpha_min_scenario_b_values():
    assert alpha_min(B_SMALL, F(1, 4)) == F(3, 8)
    assert alpha_min(B_SMALL, F(1, 6)) == F(1, 2)
    assert alpha_min(B_SMALL, F(1, 3)) == F(1, 3)
    assert alpha_min_b(B_SMALL, F(1, 7)) == F(4, 7)


def test_alpha_min_below_threshold_is_infeasible():
    with pytest.raises(InsufficientRepairBandwidthError):
        alpha_min(A_SMALL, F(1, 10))
    with pytest.raises(InsufficientRepairBandwidthError):
        alpha_min(B_SMALL, F(1, 8))
    with pytest.raises(InsufficientRepairBandwidthError):
        alpha_min(A_SMALL, 0)


def test_alpha_min_rejects_negative_download():
    with pytest.raises(NonPositiveError):
        alpha_min(A_SMALL, -1)


def test_alpha_min_dispatch_requires_matching_scenario():
    with pytest.raises(NotApplicableError):
        alpha_min_a(B_SMALL, F(1, 4))
    with pytest.raises(NotApplicableError):
        alpha_min_b(A_SMALL, F(1, 4))


def test_beta2_min_values():
    assert beta2_min(A_SMALL) == F(1, 8)
    assert beta2_min(B_SMALL) == F(1, 7)
    assert beta2_min(A_WIDE) == F(1, 90)
    assert beta2_min(B_WIDE) == F(1, 70)


def test_beta2_min_is_first_breakpoint():
    for params in SWEEP:
        assert tradeoff_curve(params).breakpoints()[0] == beta2_min(params)


# the paper's closed forms for the feasibility edge and the two extremal
# gammas, stated here apart from the library's piece formulas


def _paper_beta2_min(p):
    M, k, d, d1, d2, kp = p.file_size, p.k, p.d, p.d1, p.d2, p.kprime
    if d1 >= k:
        return 2 * M / (k * (2 * d1 * kp + 2 * d2 - k * kp + kp))
    return 2 * M / (2 * k * d - k * k + k + (d1 * d1 + d1) * (kp - 1))


def _paper_breakpoint_a(p, i):
    M, k, d1, d2, kp = p.file_size, p.k, p.d1, p.d2, p.kprime
    return 2 * M / (2 * k * (d1 * kp + d2 - k * kp) + kp * (i + 1) * (2 * k - i))


def _paper_breakpoint_b1(p, i):
    M, k, d = p.file_size, p.k, p.d
    return 2 * M / (2 * k * (d - k) + (i + 1) * (2 * k - i))


def _paper_breakpoint_b2(p, i):
    M, k, d, d1, kp = p.file_size, p.k, p.d, p.d1, p.kprime
    return 2 * M / (2 * k * d - k * k - d1 * d1 - d1 + k + 2 * d1 * kp + i * kp * (2 * d1 - i - 1))


def _paper_gmsr_gamma(p):
    M, k, d, d1, d2, kp = p.file_size, p.k, p.d, p.d1, p.d2, p.kprime
    if d1 >= k:
        return M * (d2 + kp * d1) / (k * (d1 * kp + d2 - k * kp + kp))
    return M * (d1 * kp + d2) / (k * (d - k + 1))


def _paper_gmbr_gamma(p):
    M, k, d, d1, d2, kp = p.file_size, p.k, p.d, p.d1, p.d2, p.kprime
    if d1 >= k:
        return 2 * M * (d2 + kp * d1) / (k * (2 * d1 * kp + 2 * d2 - k * kp + kp))
    return 2 * M * (d1 * kp + d2) / (2 * k * d - k * k + k + (d1 * d1 + d1) * (kp - 1))


def test_beta2_min_and_extremal_gammas_match_the_paper_formulas():
    for params in SWEEP + RATIONAL:
        assert beta2_min(params) == _paper_beta2_min(params)
        assert gmsr_point(params).gamma == _paper_gmsr_gamma(params)
        assert gmbr_point(params).gamma == _paper_gmbr_gamma(params)


def test_breakpoints_match_the_paper_formulas():
    for params in SWEEP + RATIONAL:
        k, d1 = params.k, params.d1
        if d1 >= k:
            families = [(breakpoint_a, _paper_breakpoint_a, k)]
        else:
            families = [(breakpoint_b1, _paper_breakpoint_b1, k - d1), (breakpoint_b2, _paper_breakpoint_b2, d1)]
        starts = []
        for breakpoint, paper, count in families:
            for i in range(count):
                assert breakpoint(params, i) == paper(params, i), (breakpoint.__name__, params, i)
                starts.append(paper(params, i))
        # piece 0 (the flat branch) starts last on the beta2 axis, piece k-1 at beta2_min
        assert tradeoff_curve(params).breakpoints() == starts[::-1]


def test_closed_form_does_not_use_the_cut_oracle(monkeypatch):
    # the closed form and the cut oracle are independent routes to alpha_min
    def refuse(*args, **kwargs):
        raise AssertionError("tradeoff reached cutflow.cut_terms")

    assert not any(
        value is cutflow or getattr(value, "__module__", None) == cutflow.__name__
        for value in vars(tradeoff).values()
    )
    monkeypatch.setattr(cutflow, "cut_terms", refuse)
    for params in SWEEP + RATIONAL:
        curve = tradeoff_curve(params)
        assert gmsr_point(params).beta2 == curve.segments[-1].beta2_lo
        breakpoints = curve.breakpoints()
        assert gmbr_point(params).beta2 == breakpoints[0] == beta2_min(params)
        for beta2, on_line in zip(breakpoints, _line_alphas(curve, breakpoints)):
            assert operating_point(params, beta2).alpha == alpha_min(params, beta2) == on_line


# One 3x3x3x3 grid per region of the curve's pieces, in that region's variables: A (d1 >= k) as
# (i, k, d1, d2); B (d1 < k, u = k - d1) as (i, u, d1, d2) for the pieces i < u and as
# (j, u, d1, d2), j = i - u, for the rest.  In each region both sides of the identity below are
# polynomials of degree <= 2 in each variable, and such a polynomial that vanishes on a 3x3x3x3
# grid is zero everywhere (Alon, "Combinatorial Nullstellensatz", CPC 1999, Lemma 2.1).
IDENTITY_GRIDS = {
    "A": ((0, 1, 2), (3, 4, 5), (5, 6, 7), (0, 1, 2)),
    "B upper": ((0, 1, 2), (3, 4, 5), (0, 1, 2), (5, 6, 7)),
    "B lower": ((0, 1, 2), (1, 2, 3), (3, 4, 5), (3, 4, 5)),
}


def _integer_line(values):
    """``(constant, coefficient)`` of the integer line in kprime whose values at kprime 1, 2 and 3
    are ``values``; the third value checks that it is a line."""
    at1, at2, at3 = values
    coefficient = at2 - at1
    assert at3 - at2 == coefficient
    constant = at1 - coefficient
    assert constant.denominator == coefficient.denominator == 1
    return int(constant), int(coefficient)


def _region_point(k, d1, d2, i):
    """Piece i of (k, d1, d2) as a point of its region's grid variables."""
    if d1 >= k:
        return "A", (i, k, d1, d2)
    u = k - d1
    return ("B upper", (i, u, d1, d2)) if i < u else ("B lower", (i - u, u, d1, d2))


def test_closed_form_equals_the_cut_oracle_as_integer_identities():
    # Both routes run one first-match scan over k pieces.  The oracle's piece i starts at
    # beta2 = M / (S_i + (k-i)*D_(i)), with D_(i) the (i+1)-th smallest cut term per unit beta2
    # and S_i the sum of the i smallest, and has alpha = (M - S_i*beta2) / (k - i); the closed
    # form's piece i starts at 2M / (c0 + c1*kprime) and has alpha = (2M - (t0 + t1*kprime)*beta2)
    # / (2(k - i)).  So t0 + t1*kprime = 2*S_i and c0 + c1*kprime = 2*(S_i + (k-i)*D_(i)), as
    # integer lines in kprime, read here through the public functions only.
    covered = {region: set() for region in IDENTITY_GRIDS}
    sweep = verification_sweep(max_k=8, max_d=10, kprimes=(1, 2, 3))
    for (k, d1, d2), triple in itertools.groupby(sweep, key=lambda params: (params.k, params.d1, params.d2)):
        triple = list(triple)
        assert [params.kprime for params in triple] == [1, 2, 3] and triple[0].file_size == 1
        # cut term m per unit beta2 is D_m = (constant, coefficient of kprime)
        terms = [cutflow.cut_terms(params, 1) for params in triple]
        D = [_integer_line(values) for values in zip(*terms)]
        # each step in m lowers neither coefficient, so ascending order is the reverse of m at every
        # kprime >= 0, and the last and smallest term is at least 1 for kprime >= 1: no start divides by 0
        for (b_hi, a_hi), (b_lo, a_lo) in zip(D, D[1:]):
            assert b_hi - b_lo >= 0 and a_hi - a_lo >= 0, (k, d1, d2)
        b_last, a_last = D[-1]
        assert a_last >= 0 and a_last + b_last >= 1, (k, d1, d2)
        ascending = D[::-1]
        oracle = []
        for i in range(k):
            S = tuple(sum(line[c] for line in ascending[:i]) for c in (0, 1))
            oracle.append((tuple(2 * s for s in S), tuple(2 * (S[c] + (k - i) * ascending[i][c]) for c in (0, 1))))
        # the closed form at M = 1: piece i is segment k-1-i, with intercept 1/(k-i),
        # 2*(k-i)*slope = t0 + t1*kprime and 2/beta2_lo = c0 + c1*kprime
        segments = [tradeoff_curve(params).segments[::-1] for params in triple]
        closed = []
        for i in range(k):
            pieces = [by_kprime[i] for by_kprime in segments]
            assert all(piece.intercept == F(1, k - i) for piece in pieces)
            closed.append(
                (
                    _integer_line([2 * (k - i) * piece.slope for piece in pieces]),
                    _integer_line([2 / piece.beta2_lo for piece in pieces]),
                )
            )
        assert closed == oracle, (k, d1, d2)
        for i in range(k):
            region, point = _region_point(k, d1, d2, i)
            covered[region].add(point)
    for region, grid in IDENTITY_GRIDS.items():
        missing = set(itertools.product(*grid)) - covered[region]
        assert not missing, (region, sorted(missing)[:3])


# ---------------------------------------------------------------------------
# two-tier extremal points


def test_gmsr_point_values():
    point = gmsr_point(A_WIDE)
    assert (point.alpha, point.gamma) == (F(1, 5), F(11, 35))
    assert point.beta2 == F(1, 70)
    assert point.beta1 == F(1, 35)
    point_b = gmsr_point(B_SMALL)
    assert (point_b.alpha, point_b.gamma) == (F(1, 3), F(4, 3))


def test_gmbr_point_values():
    point = gmbr_point(A_WIDE)
    assert point.alpha == point.gamma == F(11, 45)
    assert gmbr_point(B_SMALL).gamma == F(4, 7)
    scaled = gmbr_point(make_params(2, 2, 1, kprime=2, file_size=8))
    assert (scaled.alpha, scaled.beta1, scaled.beta2) == (5, 2, 1)


def test_gmsr_sits_at_the_flat_branch_edge():
    for params in SWEEP:
        point = gmsr_point(params)
        curve = tradeoff_curve(params)
        assert point.beta2 == curve.segments[-1].beta2_lo
        assert point.alpha == params.file_size / params.k


def test_gmbr_sits_at_the_feasibility_edge():
    for params in SWEEP:
        point = gmbr_point(params)
        assert point.beta2 == beta2_min(params)
        assert alpha_min(params, point.beta2) == point.alpha
        assert point.alpha == point.gamma


def test_two_tier_points_reduce_to_single_tier_at_kprime_one():
    # every field, cost included: the symmetric point at any kprime is the two-tier one at kprime = 1
    for base, (c1, c2) in itertools.product(SWEEP + RATIONAL, ((1, 1), (2, 5), (0, 3), (F(2, 3), F(7, 4)))):
        params = replace(base, cost_cheap=F(c1), cost_expensive=F(c2))
        at_one = replace(params, kprime=F(1))
        assert gmsr_point(at_one) == msr_point(params) == dimakis_point(params, "msr"), params
        assert gmbr_point(at_one) == mbr_point(params) == dimakis_point(params, "mbr"), params


def test_limit_points_values():
    gmsr_limit = grc_limit_point(A_WIDE, "gmsr")
    assert (gmsr_limit.alpha, gmsr_limit.gamma, gmsr_limit.beta2) == (F(1, 5), F(2, 5), 0)
    gmbr_limit = grc_limit_point(A_WIDE, "gmbr")
    assert gmbr_limit.alpha == gmbr_limit.gamma == F(4, 15)
    assert gmbr_limit.cost == A_WIDE.cost_cheap * F(4, 15)


def test_limit_point_with_d1_equal_k_repairs_from_k_nodes():
    params = make_params(3, 3, 2, kprime=4)
    assert grc_limit_point(params, "gmsr").gamma == params.file_size


def test_limit_points_not_defined_for_scenario_b():
    with pytest.raises(NotApplicableError):
        grc_limit_point(B_SMALL, "gmsr")
    with pytest.raises(InvalidChoiceError):
        grc_limit_point(A_SMALL, "msr")
    with pytest.raises(InvalidChoiceError):  # the kind is checked before the scenario
        grc_limit_point(B_SMALL, "gmbr-limit")


# ---------------------------------------------------------------------------
# ratios, thresholds, limits


def test_bandwidth_ratio_values():
    assert bandwidth_ratio(A_WIDE, "msr") == F(55, 49)
    assert bandwidth_ratio(B_WIDE, "msr") == F(9, 7)


def test_bandwidth_ratio_is_one_at_kprime_one():
    for params in SWEEP:
        if params.kprime != 1:
            continue
        assert bandwidth_ratio(params, "msr") == 1
        assert bandwidth_ratio(params, "mbr") == 1


def test_bandwidth_ratio_matches_gamma_quotient():
    # dual route: the printed formula against gammas computed independently
    for params in SWEEP + RATIONAL:
        sym_msr, sym_mbr = dimakis_point(params, "msr"), dimakis_point(params, "mbr")
        assert bandwidth_ratio(params, "msr") == gmsr_point(params).gamma / sym_msr.gamma
        assert bandwidth_ratio(params, "mbr") == gmbr_point(params).gamma / sym_mbr.gamma


def test_cost_ratio_values():
    at_two = make_params(5, 8, 6, kprime=2, n=15, cost_cheap=1, cost_expensive=2)
    at_four = make_params(5, 8, 6, kprime=2, n=15, cost_cheap=1, cost_expensive=4)
    assert cost_ratio(at_two, "msr") == 1
    assert cost_ratio(at_four, "msr") == F(25, 28)


def test_cost_ratio_matches_cost_quotient():
    # whole costs, then costs whose denominators differ from each other and from kprime's
    for base, (c1, c2) in itertools.product(SWEEP + RATIONAL, ((2, 5), (F(2, 3), F(7, 4)))):
        params = replace(base, cost_cheap=c1, cost_expensive=c2)
        assert cost_ratio(params, "msr") == gmsr_point(params).cost / dimakis_point(params, "msr").cost
        assert cost_ratio(params, "mbr") == gmbr_point(params).cost / dimakis_point(params, "mbr").cost


def test_cost_ratio_is_one_at_kprime_one():
    for base in SWEEP:
        if base.kprime != 1:
            continue
        params = make_params(
            base.k, base.d1, base.d2, kprime=1, n=base.n, cost_cheap=1, cost_expensive=3
        )
        assert cost_ratio(params, "msr") == 1
        assert cost_ratio(params, "mbr") == 1


def test_cost_threshold_values():
    assert cost_threshold(A_WIDE, "msr") == 2
    assert cost_threshold(A_WIDE, "mbr") == F(4, 3)
    assert cost_threshold(B_WIDE, "mbr") == 2


def test_cost_threshold_not_defined_for_scenario_b_msr():
    with pytest.raises(NotApplicableError):
        cost_threshold(B_WIDE, "msr")


def test_cost_ratio_is_flat_exactly_at_the_msr_threshold():
    for kprime in range(1, 21):
        params = make_params(5, 8, 6, kprime=kprime, n=15, cost_cheap=1, cost_expensive=2)
        assert cost_ratio(params, "msr") == 1


def test_cost_ratio_is_one_at_every_threshold_and_at_kprime_one():
    # over the whole sweep: at c2/c1 = T the cost ratio is flat at 1, and at kprime = 1 the
    # two-tier code is the symmetric one, so both ratios are 1 wherever the costs are nonzero
    for base, kind in itertools.product(SWEEP + RATIONAL, ("msr", "mbr")):
        try:
            threshold = cost_threshold(base, kind)
        except NotApplicableError:
            pass
        else:
            for kprime in (*range(1, 7), F(5, 2)):
                at_threshold = replace(base, kprime=F(kprime), cost_cheap=F(1), cost_expensive=threshold)
                assert cost_ratio(at_threshold, kind) == 1, (base, kind, kprime)
        for c1, c2 in ((1, 1), (1, 3), (0, 3), (F(2, 3), F(7, 4))):
            params = replace(base, kprime=F(1), cost_cheap=F(c1), cost_expensive=F(c2))
            assert bandwidth_ratio(params, kind) == 1, (params, kind)
            if c1 * params.d1 + c2 * params.d2:
                assert cost_ratio(params, kind) == 1, (params, kind)


def test_scenario_a_cost_ratio_limit_is_the_limit_point_cost():
    # grc_limit_point against the symmetric point at d = d1, then the kprime -> inf limit of eta
    # against its cost over the symmetric point's cost at the full d
    checked = 0
    for base, (c1, c2), kind in itertools.product(
        SWEEP + RATIONAL, ((1, 1), (1, 2), (0, 3), (F(2, 3), F(7, 4))), ("msr", "mbr")
    ):
        params = replace(base, cost_cheap=F(c1), cost_expensive=F(c2))
        if params.d1 < params.k:
            continue
        limit = grc_limit_point(params, "g" + kind)
        assert limit == dimakis_limit_point(params, kind), (params, kind)
        symmetric_cost = dimakis_point(params, kind).cost
        if symmetric_cost:
            assert cost_ratio_limit(params, kind) == limit.cost / symmetric_cost, (params, kind)
            checked += 1
    assert checked > 0


def test_cost_ratio_limit_values():
    at_four = make_params(5, 8, 6, kprime=2, n=15, cost_cheap=1, cost_expensive=4)
    assert cost_ratio_limit(at_four, "msr") == F(5, 8)
    assert cost_ratio_limit(at_four, "mbr") == F(1, 2)
    b_at_four = make_params(5, 4, 10, kprime=2, n=15, cost_cheap=1, cost_expensive=4)
    assert cost_ratio_limit(b_at_four, "mbr") == F(6, 11)
    with pytest.raises(NotApplicableError):
        cost_ratio_limit(b_at_four, "msr")


def test_degenerate_denominators_raise():
    zero_cost = make_params(2, 2, 1, kprime=2, cost_cheap=0, cost_expensive=0)
    with pytest.raises(DegenerateConfigurationError):
        cost_ratio(zero_cost, "msr")
    no_cheap = make_params(2, 0, 2, kprime=2)
    with pytest.raises(DegenerateConfigurationError):
        cost_ratio_limit(no_cheap, "mbr")


def test_kind_strings_are_validated():
    with pytest.raises(InvalidChoiceError):
        bandwidth_ratio(A_SMALL, "gmsr")
    with pytest.raises(InvalidChoiceError):
        cost_threshold(A_SMALL, "MBR")
    with pytest.raises(InvalidChoiceError):
        cost_ratio(A_SMALL, "mbr-limit")
    with pytest.raises(InvalidChoiceError) as info:
        cost_ratio_limit(A_SMALL, "")
    assert info.value.code == "InvalidChoice"
    assert isinstance(info.value, ValueError)  # callers catching ValueError still catch it


def _printed_quotient(num, den):
    if den == 0:
        raise DegenerateConfigurationError("denominator vanishes")
    return F(num) / den


def _printed_ratio(params, kind, per_beta2, symmetric):
    # the per-scenario closed forms of gamma (or cost) two-tier over symmetric, as printed
    k, d, d1, d2, kp = params.k, params.d, params.d1, params.d2, params.kprime
    if d1 >= k:
        if kind == "msr":
            return _printed_quotient(per_beta2 * (d - k + 1), symmetric * ((d1 - k + 1) * kp + d2))
        return _printed_quotient(per_beta2 * (2 * d - k + 1), symmetric * ((2 * d1 - k + 1) * kp + 2 * d2))
    if kind == "msr":
        return _printed_quotient(per_beta2, symmetric)
    base = 2 * k * d - k * k + k
    return _printed_quotient(per_beta2 * base, symmetric * (base + (d1 * d1 + d1) * (kp - 1)))


def _printed_threshold(params, kind):
    k, d, d1, d2 = params.k, params.d, params.d1, params.d2
    if d2 == 0 or (d1 == 0 and kind == "mbr"):
        raise NotApplicableError("an empty tier: two-tier repair is symmetric repair")
    if d1 >= k:
        if kind == "msr":
            return _printed_quotient(d1, d1 - k + 1)
        return _printed_quotient(2 * d1, 2 * d1 - k + 1)
    if kind == "msr":
        raise NotApplicableError("no threshold")
    return _printed_quotient(2 * k * d - k * k + k - d1 * d1 - d1, d2 * (d1 + 1))


def _printed_limit(params, kind):
    k, d, d1, d2 = params.k, params.d, params.d1, params.d2
    c1, c2 = params.cost_cheap, params.cost_expensive
    base_cost = c1 * d1 + c2 * d2
    if d1 >= k:
        if kind == "msr":
            return _printed_quotient(c1 * d1 * (d - k + 1), (d1 - k + 1) * base_cost)
        return _printed_quotient(c1 * d1 * (2 * d - k + 1), (2 * d1 - k + 1) * base_cost)
    if kind == "msr":
        raise NotApplicableError("no finite limit")
    return _printed_quotient(c1 * d1 * (2 * k * d - k * k + k), base_cost * (d1 * d1 + d1))


def _outcome(function, *args):
    try:
        return function(*args)
    except (DegenerateConfigurationError, NotApplicableError) as exc:
        return type(exc)


def test_comparisons_match_the_printed_closed_forms():
    # every ratio, threshold and limit against its own per-scenario formula, with the
    # empty-tier rows (d2 = 0, d1 = 0) and zero costs where denominators vanish
    costs = ((1, 1), (1, 2), (0, 0), (0, 3), (F(2, 3), F(7, 4)))
    for base, (c1, c2), kind in itertools.product(SWEEP + RATIONAL, costs, ("msr", "mbr")):
        params = replace(base, cost_cheap=c1, cost_expensive=c2)
        symmetric_cost = params.cost_cheap * params.d1 + params.cost_expensive * params.d2
        expected = (
            _outcome(_printed_ratio, params, kind, params.gamma_per_beta2, params.d),
            _outcome(_printed_ratio, params, kind, params.cost_per_beta2, symmetric_cost),
            _outcome(_printed_threshold, params, kind),
            _outcome(_printed_limit, params, kind),
        )
        functions = (bandwidth_ratio, cost_ratio, cost_threshold, cost_ratio_limit)
        assert tuple(_outcome(function, params, kind) for function in functions) == expected, (params, kind)


# ---------------------------------------------------------------------------
# assembled curve


def test_curve_breakpoints_scenario_b():
    assert tradeoff_curve(B_SMALL).breakpoints() == [F(1, 7), F(1, 5), F(1, 3)]


def test_curve_segments_tile_the_feasible_range():
    for params in SWEEP:
        curve = tradeoff_curve(params)
        assert len(curve.segments) == params.k
        assert curve.segments[0].beta2_lo == beta2_min(params)
        last = curve.segments[-1]
        assert last.slope == 0
        assert last.intercept == params.file_size / params.k
        for left, right in zip(curve.segments, curve.segments[1:]):
            assert left.beta2_lo < right.beta2_lo
            # continuity across the shared breakpoint
            x = right.beta2_lo
            assert left.intercept - left.slope * x == right.intercept - right.slope * x


def test_curve_matches_alpha_min_pointwise():
    eps = F(1, 10**9)
    for params in SWEEP + RATIONAL:
        curve = tradeoff_curve(params)
        probes = set(curve.breakpoints())
        for left, right in zip(curve.breakpoints(), curve.breakpoints()[1:]):
            probes.add((left + right) / 2)
        probes.add(curve.breakpoints()[-1] * 3)
        # either side of each piece start pins alpha_min's ">=" boundary test
        probes.update(b + sign * eps for b in curve.breakpoints() for sign in (-1, 1))
        probes.discard(beta2_min(params) - eps)
        for beta2, on_line in zip(sorted(probes), _line_alphas(curve, sorted(probes))):
            assert on_line == alpha_min(params, beta2), (params, beta2)
        with pytest.raises(InsufficientRepairBandwidthError):
            alpha_min(params, beta2_min(params) - eps)


def test_curve_is_nonincreasing_in_beta2():
    for params in SWEEP:
        curve = tradeoff_curve(params)
        grid = sorted(
            set(curve.breakpoints())
            | {(a + b) / 2 for a, b in zip(curve.breakpoints(), curve.breakpoints()[1:])}
            | {curve.breakpoints()[-1] + 1}
        )
        values = _line_alphas(curve, grid)
        assert all(hi >= lo for hi, lo in zip(values, values[1:]))


def test_curve_refuses_points_below_feasibility():
    low = tradeoff_curve(A_SMALL).breakpoints()[0]
    assert operating_point(A_SMALL, low).beta2 == low
    assert F(1, 10) < low
    with pytest.raises(InsufficientRepairBandwidthError, match="below the feasibility threshold 1/8"):
        operating_point(A_SMALL, F(1, 10))


def _line_alphas(curve, beta2s):
    """alpha at each beta2 read off the line of the segment that holds it, intercept - slope * beta2.

    The segment is the last one starting at or below beta2.  ``operating_point`` gives
    ``alpha_min`` itself, so the curve tests read the segments instead, or they would
    compare ``alpha_min`` with itself.
    """
    alphas = []
    for beta2 in beta2s:
        segment = [segment for segment in curve.segments if segment.beta2_lo <= beta2][-1]
        alphas.append(segment.intercept - segment.slope * beta2)
    return alphas


def _grid_with_breakpoints(curve, samples):
    low, high = curve.breakpoints()[0], curve.breakpoints()[-1] * 2
    step = (high - low) / (samples - 1)
    return sorted({low + step * i for i in range(samples)} | set(curve.breakpoints()))


POINTS_CONFIGS = SWEEP + [
    make_params(k, d1, d2, kprime=kprime, file_size=F(7, 3), cost_expensive=3)
    for kprime in (F(3, 2), F(13, 4))
    for k, d1, d2 in ((3, 4, 2), (4, 1, 5), (4, 0, 6), (2, 1, 1))
]


def test_curve_points_match_operating_point():
    # each field against a reference that does not call operating_point: alpha on the segment's
    # line, and beta1, gamma and cost as chained Fraction products with beta2
    for params in POINTS_CONFIGS:
        curve = tradeoff_curve(params)
        grid = _grid_with_breakpoints(curve, 50)
        for beta2, on_line in zip(grid, _line_alphas(curve, grid)):
            point = operating_point(params, beta2)
            assert point.alpha == on_line, (params, beta2)
            assert point.beta1 == params.kprime * beta2
            assert point.beta2 == beta2
            assert point.gamma == params.gamma_per_beta2 * beta2
            assert point.cost == params.cost_per_beta2 * beta2


def test_operating_point_is_consistent():
    point = operating_point(A_SMALL, F(3, 20))
    assert point.alpha == F(11, 20)
    assert point.beta1 == 2 * point.beta2
    assert point.gamma == 2 * point.beta1 + point.beta2
    assert point.cost == A_SMALL.cost_per_beta2 * point.beta2
    assert not point.beta1_exceeds_alpha


def test_per_beta2_values_are_computed_once_per_instance():
    for params in SWEEP + RATIONAL:
        d1, d2, kprime = params.d1, params.d2, params.kprime
        c1, c2 = params.cost_cheap, params.cost_expensive
        assert params.gamma_per_beta2 == d1 * kprime + d2
        assert params.cost_per_beta2 == c1 * d1 * kprime + c2 * d2
        # a second read returns the kept object, where a recomputation would build a new one
        assert params.gamma_per_beta2 is params.gamma_per_beta2
        assert params.cost_per_beta2 is params.cost_per_beta2
        # a copy with another kprime or other costs computes its own values
        other_kprime = replace(params, kprime=kprime + F(1, 2))
        assert other_kprime.gamma_per_beta2 == d1 * (kprime + F(1, 2)) + d2
        assert other_kprime.cost_per_beta2 == c1 * d1 * (kprime + F(1, 2)) + c2 * d2
        other_costs = replace(params, cost_cheap=c1 + 1, cost_expensive=c2 + 3)
        assert other_costs.gamma_per_beta2 == params.gamma_per_beta2
        assert other_costs.cost_per_beta2 == (c1 + 1) * d1 * kprime + (c2 + 3) * d2


_WEIGHT_COSTS = ((0, 0), (0, F(5, 7)), (F(1, 3), F(5, 7)), (F(2, 3), F(2, 3)), (1, 10**30 + 1))


def test_per_beta2_weights_equal_their_fraction_formulas():
    # the weights SystemParams builds from integer parts, and cost_ratio's symmetric weight, against
    # the chained Fraction formulas they replace, on rational kprime and costs
    for base, kprime, (c1, c2) in itertools.product(
        verification_sweep(max_k=4, max_d=6), (1, F(3, 2), F(13, 4), 7), _WEIGHT_COSTS
    ):
        c1, c2 = F(c1), F(c2)
        params = replace(base, kprime=F(kprime), cost_cheap=c1, cost_expensive=c2)
        d1, d2, kp = params.d1, params.d2, params.kprime
        cost = c1 * d1 * kp + c2 * d2
        assert params.gamma_per_beta2 == d1 * kp + d2
        assert params.cost_per_beta2 == cost
        for kind in ("msr", "mbr"):
            expected = _outcome(_printed_ratio, params, kind, cost, c1 * d1 + c2 * d2)
            assert _outcome(cost_ratio, params, kind) == expected, (params, kind)


def test_per_beta2_weights_are_not_fields():
    for params in (A_SMALL, B_WIDE, RATIONAL[0], replace(A_WIDE, cost_cheap=F(1, 3), cost_expensive=F(5, 7))):
        fields = astuple(params)
        assert len(fields) == 8
        assert params == replace(params) and hash(params) == hash(fields)
        assert params != replace(params, cost_expensive=params.cost_expensive + 1)
        assert "per_beta2" not in repr(params)
    assert repr(RATIONAL[0]) == (
        "SystemParams(n=7, k=3, d1=4, d2=2, kprime=Fraction(5, 2), file_size=Fraction(7, 3), "
        "cost_cheap=Fraction(1, 1), cost_expensive=Fraction(1, 1))"
    )


def test_operating_point_can_flag_chatty_helpers():
    # far out on the flat branch the cheap per-helper download tops the stored amount
    deep = operating_point(A_SMALL, 1)
    assert deep.alpha == F(1, 2)
    assert deep.beta1 == 2
    assert deep.beta1_exceeds_alpha
    edge = operating_point(make_params(1, 1, 0, kprime=1), 1)
    assert edge.beta1 == edge.alpha == 1  # boundary case stays unflagged
    assert not edge.beta1_exceeds_alpha


def test_empty_expensive_tier_matches_single_tier_curve():
    # with d2 = 0 the expensive download is a bookkeeping unit: the curve
    # seen through beta1 = kprime*beta2 must not depend on kprime
    for kprime in (2, 3):
        tiered = make_params(3, 4, 0, kprime=kprime)
        flat = make_params(3, 4, 0, kprime=1)
        for beta1 in (F(1, 9), F(1, 7), F(1, 5), F(1, 2)):
            assert alpha_min(tiered, beta1 / kprime) == alpha_min(flat, beta1)
        assert gmsr_point(tiered).gamma == dimakis_point(flat, "msr").gamma
        assert gmbr_point(tiered).gamma == dimakis_point(flat, "mbr").gamma

"""Closed-form storage/bandwidth tradeoff for two-tier repair.

The minimum per-node storage alpha_min(beta2) is piecewise linear in the
expensive-tier download beta2, with exact rational breakpoints.  This
module evaluates that curve, its extremal points (minimum-storage and
minimum-bandwidth, single-tier and two-tier), and the bandwidth/cost
ratios comparing two-tier repair against symmetric repair at the same
total helper count d = d1 + d2.

Scenario A (d1 >= k) and Scenario B (d1 < k) have different branch
formulas.  They live in one place: ``_pieces`` yields each piece's start
and tail, checking the scenario once, and ``alpha_min``, ``beta2_min``,
``tradeoff_curve``, ``gmsr_point`` and the public ``breakpoint_a/_b1/_b2``
all read the pieces from it.  Each extremal point is derived once: the
two-tier points are the operating points at the curve's two ends, and the
kprime -> infinity limit points are the single-tier points at d = d1.
The comparisons against symmetric repair read one (scenario, kind) table,
``_comparison``: the bandwidth ratio is the cost ratio at unit costs, the
cost-ratio limit is that ratio's leading-coefficient quotient in kprime,
and the break-even cost threshold is a column of the table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .errors import (
    DegenerateConfigurationError,
    IndexOutOfRangeError,
    InsufficientRepairBandwidthError,
    InvalidDegreeError,
    NonPositiveError,
    NotApplicableError,
    UsageError,
)
from .params import (
    CodePoint,
    RationalLike,
    Scenario,
    SystemParams,
    as_choice,
    as_count,
    as_fraction,
    as_nonnegative,
    as_values,
    exact_str,
    repair_bandwidth,
    total_cost,
)

_POINT_KINDS = ("msr", "mbr")


# ---------------------------------------------------------------------------
# single-tier extremal points (uniform download beta = gamma / d)


def msr_point(file_size: RationalLike, k: int, d: int) -> CodePoint:
    """Minimum-storage point for symmetric repair: alpha = M/k, gamma = M*d/(k*(d-k+1))."""
    M, k, d = _checked_single_tier(file_size, k, d)
    gamma = M * d / (k * (d - k + 1))
    return CodePoint(alpha=M / k, beta1=gamma / d, beta2=gamma / d, gamma=gamma)


def mbr_point(file_size: RationalLike, k: int, d: int) -> CodePoint:
    """Minimum-bandwidth point for symmetric repair: alpha = gamma = 2*M*d/(k*(2*d-k+1))."""
    M, k, d = _checked_single_tier(file_size, k, d)
    gamma = 2 * M * d / (k * (2 * d - k + 1))
    return CodePoint(alpha=gamma, beta1=gamma / d, beta2=gamma / d, gamma=gamma)


def _checked_single_tier(file_size: RationalLike, k: int, d: int) -> tuple[Fraction, int, int]:
    M = as_fraction(file_size, "file_size")
    if M <= 0:
        raise NonPositiveError(f"file_size must be positive, got {exact_str(M)}")
    k = as_count(k, "k", minimum=1)
    d = as_count(d, "d")
    if d < k:
        raise InvalidDegreeError(f"d must reach k, got d={exact_str(d)}, k={exact_str(k)}")
    return M, k, d


# ---------------------------------------------------------------------------
# the pieces of the storage curve and their starts (breakpoints)


def _pieces(params: SystemParams) -> Iterator[tuple[Fraction, Fraction]]:
    """``(start, tail2)`` of each piece of the curve, piece 0 first, each computed when asked for.

    Piece i, for i in 0..k-1, is alpha = (2M - tail2 * beta2) / (2 (k - i))
    from its start up to the start of piece i - 1; piece 0 is the flat branch
    and piece k-1 starts at beta2_min.  tail2 is twice the total capacity (per
    unit beta2) of the branches already saturated.  Scenario B's pieces are
    the k - d1 upper-range ones followed by the d1 lower-range ones.
    """
    M2, k, d, d1, d2, kp = 2 * params.file_size, params.k, params.d, params.d1, params.d2, params.kprime
    if params.scenario is Scenario.A:
        base = 2 * k * (d1 * kp + d2 - k * kp)
        for i in range(k):
            # int factors multiplied first: one Fraction multiply and one add each
            yield M2 / (base + kp * ((i + 1) * (2 * k - i))), kp * (i * (2 * (d1 - k) + i + 1)) + 2 * i * d2
        return
    upper = k - d1
    for i in range(upper):
        yield M2 / (2 * k * (d - k) + (i + 1) * (2 * k - i)), Fraction(i * (2 * d - 2 * k + i + 1))
    base = 2 * k * d - k * k - d1 * d1 - d1 + k + 2 * d1 * kp
    tail2_upper = (upper - 1) * (2 * d - 2 * k + upper)
    for i in range(d1):
        yield M2 / (base + i * kp * (2 * d1 - i - 1)), tail2_upper + (i + 1) * (2 * d2 + i * kp)


def breakpoint_a(params: SystemParams, i: int) -> Fraction:
    """Scenario A segment boundary i, for i in 0..k-1; boundary 0 starts the flat branch."""
    _require(params, Scenario.A)
    return next(islice(_pieces(params), _branch(i, params.k - 1), None))[0]


def breakpoint_b1(params: SystemParams, i: int) -> Fraction:
    """Scenario B upper-range boundary i (kprime-independent), for i in 0..k-d1-1."""
    _require(params, Scenario.B)
    return next(islice(_pieces(params), _branch(i, params.k - params.d1 - 1), None))[0]


def breakpoint_b2(params: SystemParams, i: int) -> Fraction:
    """Scenario B lower-range boundary i, for i in 0..d1-1."""
    _require(params, Scenario.B)
    d1 = params.d1
    return next(islice(_pieces(params), params.k - d1 + _branch(i, d1 - 1), None))[0]


def _branch(i: int, last: int) -> int:
    """``i`` itself when it is an int in 0..last; any other type raises UsageError."""
    if isinstance(i, bool) or not isinstance(i, int):
        raise UsageError(f"branch index must be an int, got {type(i).__name__}")
    if not 0 <= i <= last:
        raise IndexOutOfRangeError(f"branch index must be in 0..{last}, got {exact_str(i)}")
    return i


def _require(params: SystemParams, scenario: Scenario) -> None:
    if params.scenario is not scenario:
        raise NotApplicableError(
            f"defined for scenario {scenario.value} only, parameters are scenario {params.scenario.value}"
        )


# ---------------------------------------------------------------------------
# minimum storage


def alpha_min(params: SystemParams, beta2: RationalLike) -> Fraction:
    """Least per-node storage meeting the reconstruction bound at this beta2."""
    b2 = as_nonnegative(beta2, "beta2")
    M, k = params.file_size, params.k
    for i, (start, tail2) in enumerate(_pieces(params)):
        if b2 >= start:
            return (2 * M - tail2 * b2) / (2 * (k - i))
    raise InsufficientRepairBandwidthError(
        f"beta2={exact_str(b2)} is below the feasibility threshold {exact_str(start)}"
    )


def alpha_min_a(params: SystemParams, beta2: RationalLike) -> Fraction:
    _require(params, Scenario.A)
    return alpha_min(params, beta2)


def alpha_min_b(params: SystemParams, beta2: RationalLike) -> Fraction:
    _require(params, Scenario.B)
    return alpha_min(params, beta2)


def beta2_min(params: SystemParams) -> Fraction:
    """Smallest expensive-tier download for which any storage size suffices."""
    *_, (start, _) = _pieces(params)
    return start


# ---------------------------------------------------------------------------
# two-tier extremal points


def gmsr_point(params: SystemParams) -> CodePoint:
    """Minimum-storage point of the two-tier curve: the start of its flat branch (alpha = M/k, least gamma)."""
    start, _ = next(_pieces(params))
    return operating_point(params, start)


def gmbr_point(params: SystemParams) -> CodePoint:
    """Minimum-bandwidth point of the two-tier curve: its start at beta2_min, where alpha = gamma."""
    return operating_point(params, beta2_min(params))


def grc_limit_point(params: SystemParams, kind: str) -> CodePoint:
    """Extremal point in the kprime -> infinity limit, where beta2 -> 0.

    Only Scenario A has a finite limit: repair degenerates to d1 cheap
    helpers, so the point is the single-tier MSR or MBR point at d = d1,
    with beta2 = 0 and only cheap downloads paid for.  kind is "gmsr" or
    "gmbr" (InvalidChoiceError otherwise).
    """
    as_choice(kind, ("gmsr", "gmbr"), "kind")
    if params.scenario is not Scenario.A:
        raise NotApplicableError("the kprime -> infinity limit is finite only when d1 >= k")
    single_tier = msr_point if kind == "gmsr" else mbr_point
    point = single_tier(params.file_size, params.k, params.d1)
    return replace(point, beta2=Fraction(0), cost=params.cost_cheap * point.gamma)


# ---------------------------------------------------------------------------
# ratios against symmetric repair at the same d


def bandwidth_ratio(params: SystemParams, kind: str) -> Fraction:
    """gamma(two-tier extremal) / gamma(symmetric extremal), same d and kind: cost_ratio at unit costs."""
    return _extremal_ratio(params, as_choice(kind, _POINT_KINDS, "kind"), params.gamma_per_beta2, params.d)


def cost_ratio(params: SystemParams, kind: str) -> Fraction:
    """Download cost of the two-tier extremal relative to the symmetric one."""
    kind = as_choice(kind, _POINT_KINDS, "kind")
    c1, c2 = params.cost_cheap, params.cost_expensive
    return _extremal_ratio(params, kind, params.cost_per_beta2, c1 * params.d1 + c2 * params.d2)


def _extremal_ratio(params: SystemParams, kind: str, per_beta2: Fraction, symmetric: Fraction | int) -> Fraction:
    """``per_beta2 * beta2`` of the two-tier extremal over ``symmetric * beta`` of the symmetric one.

    The weights are what a repair moves or pays per unit of beta2 (two-tier) and of beta
    (symmetric).  One int numerator over one int denominator, from the integer parts of
    kprime = kn/kd, per_beta2 = pn/pd and symmetric = sn/sd, and the comparison row.
    """
    P, q1, q0, _ = _comparison(params, kind)
    kn, kd = params.kprime.numerator, params.kprime.denominator
    pn, pd = per_beta2.numerator, per_beta2.denominator
    sn, sd = symmetric.numerator, symmetric.denominator
    return _div(pn * P * kd * sd, pd * sn * (q1 * kn + q0 * kd))


def _comparison(params: SystemParams, kind: str) -> tuple[int, int, int, tuple[int, int] | None]:
    """``(P, q1, q0, threshold)``: the two-tier ``kind`` extremal against the symmetric one at the same d.

    beta2 (two-tier) over beta (symmetric) is P / (q1 * kprime + q0).  ``threshold``, the break-even
    c2/c1 as (num, den), is None on B's msr row, which has no threshold and no finite limit.
    """
    k, d, d1, d2 = params.k, params.d, params.d1, params.d2
    if params.scenario is Scenario.A:
        return {
            "msr": (d - k + 1, d1 - k + 1, d2, (d1, d1 - k + 1)),
            "mbr": (2 * d - k + 1, 2 * d1 - k + 1, 2 * d2, (2 * d1, 2 * d1 - k + 1)),
        }[kind]
    base, tail = 2 * k * d - k * k + k, d1 * d1 + d1
    return {
        "msr": (1, 0, 1, None),
        "mbr": (base, tail, base - tail, (base - tail, d2 * (d1 + 1))),
    }[kind]


def cost_threshold(params: SystemParams, kind: str) -> Fraction:
    """Least cost_expensive/cost_cheap at which two-tier repair never costs more.

    Scenario B's minimum-storage point has none: its cost ratio there,
    (c1*d1*kprime + c2*d2) / (c1*d1 + c2*d2), grows with kprime when c1*d1 > 0.
    """
    *_, threshold = _comparison(params, as_choice(kind, _POINT_KINDS, "kind"))
    if threshold is None:
        raise NotApplicableError("no cost threshold at the minimum-storage point when d1 < k")
    return _div(*threshold)


def cost_ratio_limit(params: SystemParams, kind: str) -> Fraction:
    """kprime -> infinity limit of cost_ratio (cheap tier carries everything).

    It is the quotient of cost_ratio's leading kprime coefficients, c1*d1*P over (c1*d1 + c2*d2)*q1.
    """
    P, q1, _, threshold = _comparison(params, as_choice(kind, _POINT_KINDS, "kind"))
    if threshold is None:
        raise NotApplicableError("no finite minimum-storage limit when d1 < k")
    c1d1 = params.cost_cheap * params.d1
    return _div(c1d1 * P, (c1d1 + params.cost_expensive * params.d2) * q1)


def _div(num: Fraction | int, den: Fraction | int) -> Fraction:
    """``Fraction(num, den)``; a zero ``den`` raises DegenerateConfigurationError."""
    if den == 0:
        raise DegenerateConfigurationError("denominator vanishes for these parameters")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# the assembled curve


@dataclass(frozen=True)
class TradeoffSegment:
    """One linear piece: alpha = intercept - slope * beta2 from beta2_lo to the next piece's; the last has no end."""

    beta2_lo: Fraction
    intercept: Fraction
    slope: Fraction


@dataclass(frozen=True)
class TradeoffCurve:
    """The full piecewise-linear alpha_min curve for one parameter set."""

    params: SystemParams
    segments: tuple[TradeoffSegment, ...]

    @property
    def beta2_min(self) -> Fraction:
        """Start of the first segment: the least feasible beta2."""
        return self.segments[0].beta2_lo

    def breakpoints(self) -> list[Fraction]:
        """Left endpoints of every segment, ascending; the first is beta2_min."""
        return [segment.beta2_lo for segment in self.segments]

    def points(self, beta2s: Iterable[RationalLike]) -> list[CodePoint]:
        """``operating_point`` at each beta2, in input order, which may be any order.

        Each beta2's segment is found by bisection over the breakpoints.  The
        first point of each visit to a segment comes from ``operating_point``,
        as does a beta2 below the curve, which ``alpha_min`` refuses; the rest
        are read off the segment's line.  A read-off field is built as one
        ``Fraction(numerator, denominator)`` from the integer parts of beta2
        = p/q and of the curve's constants (the segment's intercept and
        slope, kprime, gamma and cost per unit beta2), so it is normalised
        once rather than once per Fraction operation; the values are the
        same.  ``beta2s`` is a non-string iterable, read once (UsageError otherwise).
        """
        beta2s = as_values(beta2s, "beta2s", "beta2 values")
        params, segments, starts = self.params, self.segments, self.breakpoints()
        kprime, gamma_per_beta2, cost_per_beta2 = params.kprime, params.gamma_per_beta2, params.cost_per_beta2
        kprime_num, kprime_den = kprime.numerator, kprime.denominator
        gamma_num, gamma_den = gamma_per_beta2.numerator, gamma_per_beta2.denominator
        cost_num, cost_den = cost_per_beta2.numerator, cost_per_beta2.denominator
        visited = line = None
        result = []
        for beta2 in beta2s:
            b2 = as_nonnegative(beta2, "beta2")
            index = bisect_right(starts, b2) - 1
            if index == visited:
                p, q = b2.numerator, b2.denominator
                top, drop, bottom = line
                point = CodePoint(
                    alpha=Fraction(top * q - drop * p, bottom * q),
                    beta1=Fraction(kprime_num * p, kprime_den * q),
                    beta2=b2,
                    gamma=Fraction(gamma_num * p, gamma_den * q),
                    cost=Fraction(cost_num * p, cost_den * q),
                )
            else:
                point = operating_point(params, b2)
                intercept, slope = segments[index].intercept, segments[index].slope
                # alpha = intercept - slope * p/q = (top * q - drop * p) / (bottom * q)
                top = intercept.numerator * slope.denominator
                drop = slope.numerator * intercept.denominator
                visited, line = index, (top, drop, intercept.denominator * slope.denominator)
            result.append(point)
        return result


def tradeoff_curve(params: SystemParams) -> TradeoffCurve:
    """Assemble the alpha_min segments covering [beta2_min, infinity)."""
    M, k = params.file_size, params.k
    segments = tuple(
        TradeoffSegment(beta2_lo=start, intercept=M / (k - i), slope=tail2 / (2 * (k - i)))
        for i, (start, tail2) in reversed(list(enumerate(_pieces(params))))
    )
    return TradeoffCurve(params=params, segments=segments)


def operating_point(params: SystemParams, beta2: RationalLike) -> CodePoint:
    """CodePoint on the minimum-storage curve at the given beta2."""
    b2 = as_nonnegative(beta2, "beta2")
    return CodePoint(
        alpha=alpha_min(params, b2),
        beta1=params.kprime * b2,
        beta2=b2,
        gamma=repair_bandwidth(params, b2),
        cost=total_cost(params, b2),
    )

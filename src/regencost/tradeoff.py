"""Closed-form storage/bandwidth tradeoff for two-tier repair.

The minimum per-node storage alpha_min(beta2) is piecewise linear in the
expensive-tier download beta2, with exact rational breakpoints.  This
module evaluates that curve, its extremal points (minimum-storage and
minimum-bandwidth, single-tier and two-tier), and the bandwidth/cost
ratios comparing two-tier repair against symmetric repair at the same
total helper count d = d1 + d2.

Each closed form is stated once.  ``_piece(params, i)`` gives piece i of the
curve as integers (c0, c1, t0, t1): it starts at beta2 = 2M / (c0 + c1*kprime),
and on it alpha = (2M - (t0 + t1*kprime) * beta2) / (2 (k - i)).  Only it tells
Scenario A (d1 >= k) from Scenario B (d1 < k); the curve, its breakpoints and
its two ends (the two-tier extremal points, piece 0 and piece k-1) read it.
``alpha_min`` scans the pieces with integer comparisons, and ``operating_point``
is the only code that builds a point on the curve.  ``TradeoffCurve`` is the
curve's segments alone: a caller that wants points calls ``operating_point`` at
each beta2.
``_single_tier`` gives the symmetric points' beta = 2M/S, and the kprime ->
infinity limit points are those points at d = d1.  The comparisons read S and
an end's c0 and c1: beta2 over beta is S / (c0 + c1*kprime), the cost-ratio
limit is its quotient of leading coefficients in kprime, and the break-even
cost threshold is d1*c0 / (d2*c1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

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
    exact_str,
)

_POINT_KINDS = ("msr", "mbr")


# ---------------------------------------------------------------------------
# single-tier extremal points (uniform download beta = gamma / d)


def msr_point(file_size: RationalLike, k: int, d: int) -> CodePoint:
    """Minimum-storage point for symmetric repair: alpha = M/k, gamma = M*d/(k*(d-k+1))."""
    return _symmetric_point("msr", file_size, k, d)


def mbr_point(file_size: RationalLike, k: int, d: int) -> CodePoint:
    """Minimum-bandwidth point for symmetric repair: alpha = gamma = 2*M*d/(k*(2*d-k+1))."""
    return _symmetric_point("mbr", file_size, k, d)


def _symmetric_point(kind: str, file_size: RationalLike, k: int, d: int) -> CodePoint:
    """The single-tier ``kind`` point: beta = 2M/S and gamma = d*beta; alpha is M/k (msr) or gamma (mbr)."""
    M = as_fraction(file_size, "file_size")
    if M <= 0:
        raise NonPositiveError(f"file_size must be positive, got {exact_str(M)}")
    k = as_count(k, "k", minimum=1)
    d = as_count(d, "d")
    if d < k:
        raise InvalidDegreeError(f"d must reach k, got d={exact_str(d)}, k={exact_str(k)}")
    beta = Fraction(2 * M.numerator, M.denominator * _single_tier(kind, k, d))
    gamma = d * beta
    return CodePoint(alpha=M / k if kind == "msr" else gamma, beta1=beta, beta2=beta, gamma=gamma)


def _single_tier(kind: str, k: int, d: int) -> int:
    """S of the symmetric ``kind`` point with k and d, whose uniform download is beta = 2M/S."""
    return 2 * k * (d - k + 1) if kind == "msr" else k * (2 * d - k + 1)


# ---------------------------------------------------------------------------
# the pieces of the storage curve and their starts (breakpoints)


def _piece(params: SystemParams, i: int) -> tuple[int, int, int, int]:
    """``(c0, c1, t0, t1)``, all integers, of piece i of the curve, for i in 0..k-1.

    Piece i starts at beta2 = 2M / (c0 + c1*kprime) and runs up to the start
    of piece i - 1; on it alpha = (2M - (t0 + t1*kprime) * beta2) / (2 (k - i)).
    Piece 0 is the flat branch and piece k-1 starts at beta2_min.  t0 +
    t1*kprime is twice the total capacity (per unit beta2) of the branches
    already saturated.  Scenario B's pieces are the u = k - d1 upper-range ones,
    which do not depend on kprime, then the d1 lower-range ones, j = i - u.

    In each of the three regions (A; B with i < u; B with j = i - u) every value is a
    polynomial of degree <= 2 in each of four variables: (i, k, d1, d2), (i, u, d1, d2)
    and (j, u, d1, d2), with k = u + d1 and d = d1 + d2 in B.  So are the cut oracle's
    lines (see ``cutflow.cut_terms``).  A polynomial of that degree which vanishes on a
    3x3x3x3 grid is zero, so the test that the two agree on one such grid per region
    shows that they agree for every (k, d1, d2) and kprime.
    """
    # the fields, not the d and scenario properties: this runs for each piece scanned at every curve point
    k, d1, d2 = params.k, params.d1, params.d2
    d = d1 + d2
    if d1 >= k:  # Scenario A
        return 2 * k * d2, 2 * k * (d1 - k) + (i + 1) * (2 * k - i), 2 * i * d2, i * (2 * (d1 - k) + i + 1)
    u = k - d1
    if i < u:
        return 2 * k * (d - k) + (i + 1) * (2 * k - i), 0, i * (2 * d - 2 * k + i + 1), 0
    j = i - u
    c0, t0 = 2 * k * d - k * k + k - d1 * d1 - d1, (u - 1) * (2 * d - 2 * k + u) + 2 * (j + 1) * d2
    return c0, 2 * d1 + j * (2 * d1 - j - 1), t0, j * (j + 1)


def _start(params: SystemParams, i: int) -> Fraction:
    """Where piece i starts, 2M / (c0 + c1*kprime), as one Fraction from integer parts."""
    c0, c1, _, _ = _piece(params, i)
    M, kp = params.file_size, params.kprime
    return Fraction(2 * M.numerator * kp.denominator, M.denominator * (c0 * kp.denominator + c1 * kp.numerator))


def breakpoint_a(params: SystemParams, i: int) -> Fraction:
    """Scenario A segment boundary i, for i in 0..k-1; boundary 0 starts the flat branch."""
    _require(params, Scenario.A)
    return _start(params, _branch(i, params.k - 1))


def breakpoint_b1(params: SystemParams, i: int) -> Fraction:
    """Scenario B upper-range boundary i (kprime-independent), for i in 0..k-d1-1."""
    _require(params, Scenario.B)
    return _start(params, _branch(i, params.k - params.d1 - 1))


def breakpoint_b2(params: SystemParams, i: int) -> Fraction:
    """Scenario B lower-range boundary i, for i in 0..d1-1."""
    _require(params, Scenario.B)
    return _start(params, params.k - params.d1 + _branch(i, params.d1 - 1))


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
    """Least per-node storage meeting the reconstruction bound at this beta2.

    beta2 = p/q is on the first piece i that starts at or below it: with M = Mn/Md and
    kprime = kn/kd, the first with p*Md*(c0*kd + c1*kn) >= 2*Mn*kd*q.  alpha there is one
    Fraction, (2*Mn*kd*q - Md*(t0*kd + t1*kn)*p) / (2*(k - i)*Md*kd*q): integer comparisons
    and one normalisation per call.
    """
    b2 = as_nonnegative(beta2, "beta2")
    p, q = b2.numerator, b2.denominator
    M, kp, k = params.file_size, params.kprime, params.k
    Mn, Md, kn, kd = M.numerator, M.denominator, kp.numerator, kp.denominator
    bound, pMd = 2 * Mn * kd * q, p * Md
    for i in range(k):
        c0, c1, t0, t1 = _piece(params, i)
        if pMd * (c0 * kd + c1 * kn) >= bound:
            return Fraction(bound - pMd * (t0 * kd + t1 * kn), 2 * (k - i) * Md * kd * q)
    raise InsufficientRepairBandwidthError(
        f"beta2={exact_str(b2)} is below the feasibility threshold {exact_str(beta2_min(params))}"
    )


def alpha_min_a(params: SystemParams, beta2: RationalLike) -> Fraction:
    _require(params, Scenario.A)
    return alpha_min(params, beta2)


def alpha_min_b(params: SystemParams, beta2: RationalLike) -> Fraction:
    _require(params, Scenario.B)
    return alpha_min(params, beta2)


def beta2_min(params: SystemParams) -> Fraction:
    """Smallest expensive-tier download for which any storage size suffices."""
    return _start(params, params.k - 1)


# ---------------------------------------------------------------------------
# two-tier extremal points


def gmsr_point(params: SystemParams) -> CodePoint:
    """Minimum-storage point of the two-tier curve: the start of its flat branch (alpha = M/k, least gamma)."""
    return operating_point(params, _start(params, 0))


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
    point = _symmetric_point(kind[1:], params.file_size, params.k, params.d1)
    return replace(point, beta2=Fraction(0), cost=params.cost_cheap * point.gamma)


# ---------------------------------------------------------------------------
# ratios against symmetric repair at the same d


def _end(params: SystemParams, kind: str) -> tuple[int, int, int]:
    """``(c0, c1, S)``: the two-tier ``kind`` extremal starts at beta2 = 2M / (c0 + c1*kprime), the
    symmetric one at beta = 2M/S.  c0 and c1 are those of piece 0 (msr) or piece k-1 (mbr); a
    ``kind`` other than "msr" or "mbr" raises InvalidChoiceError."""
    c0, c1, _, _ = _piece(params, 0 if as_choice(kind, _POINT_KINDS, "kind") == "msr" else params.k - 1)
    return c0, c1, _single_tier(kind, params.k, params.d)


def bandwidth_ratio(params: SystemParams, kind: str) -> Fraction:
    """gamma(two-tier extremal) / gamma(symmetric extremal), same d and kind: cost_ratio at unit costs."""
    return _extremal_ratio(params, kind, params.gamma_per_beta2, params.d)


def cost_ratio(params: SystemParams, kind: str) -> Fraction:
    """Download cost of the two-tier extremal relative to the symmetric one."""
    c1, c2 = params.cost_cheap, params.cost_expensive
    return _extremal_ratio(params, kind, params.cost_per_beta2, c1 * params.d1 + c2 * params.d2)


def _extremal_ratio(params: SystemParams, kind: str, per_beta2: Fraction, symmetric: Fraction | int) -> Fraction:
    """``per_beta2 * beta2`` of the two-tier extremal over ``symmetric * beta`` of the symmetric one.

    The weights are what a repair moves or pays per unit of beta2 (two-tier) and of beta
    (symmetric), and beta2 / beta is S / (c0 + c1*kprime).  One int numerator over one int
    denominator, from the integer parts of kprime = kn/kd, per_beta2 = pn/pd and symmetric = sn/sd.
    """
    c0, c1, S = _end(params, kind)
    kn, kd = params.kprime.numerator, params.kprime.denominator
    pn, pd = per_beta2.numerator, per_beta2.denominator
    sn, sd = symmetric.numerator, symmetric.denominator
    return _div(pn * S * kd * sd, pd * sn * (c0 * kd + c1 * kn))


def cost_threshold(params: SystemParams, kind: str) -> Fraction:
    """Least cost_expensive/cost_cheap at which two-tier repair never costs more.

    It is d1*c0 / (d2*c1), with c0 and c1 of the ``kind`` end piece.  Scenario B's
    minimum-storage point has none: its cost ratio there, (c1*d1*kprime + c2*d2) /
    (c1*d1 + c2*d2) with costs c1 and c2, grows with kprime when c1*d1 > 0.  Nor
    has a configuration with an empty tier, whose end piece has c0 = 0 or c1 = 0:
    its two-tier code is the symmetric one, with cost ratio 1 at every kprime and c2/c1.
    """
    c0, c1, _ = _end(params, kind)
    if kind == "msr" and c1 == 0:
        raise NotApplicableError("no cost threshold at the minimum-storage point when d1 < k")
    if c0 == 0 or c1 == 0:
        raise NotApplicableError("no cost threshold with an empty tier: two-tier repair is symmetric repair")
    return Fraction(params.d1 * c0, params.d2 * c1)


def cost_ratio_limit(params: SystemParams, kind: str) -> Fraction:
    """kprime -> infinity limit of cost_ratio (cheap tier carries everything).

    It is the quotient of cost_ratio's leading kprime coefficients,
    cost_cheap*d1*S over (cost_cheap*d1 + cost_expensive*d2) * c1.
    """
    _, c1, S = _end(params, kind)
    if kind == "msr" and c1 == 0:
        raise NotApplicableError("no finite minimum-storage limit when d1 < k")
    cheap = params.cost_cheap * params.d1
    return _div(cheap * S, (cheap + params.cost_expensive * params.d2) * c1)


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
    """The full piecewise-linear alpha_min curve for one parameter set, as its segments."""

    segments: tuple[TradeoffSegment, ...]

    def breakpoints(self) -> list[Fraction]:
        """Left endpoints of every segment, ascending; the first is beta2_min."""
        return [segment.beta2_lo for segment in self.segments]


def tradeoff_curve(params: SystemParams) -> TradeoffCurve:
    """Assemble the alpha_min segments covering [beta2_min, infinity)."""
    M, k, kn, kd = params.file_size, params.k, params.kprime.numerator, params.kprime.denominator
    segments = []
    for i in reversed(range(k)):
        _, _, t0, t1 = _piece(params, i)
        slope = Fraction(t0 * kd + t1 * kn, 2 * (k - i) * kd)
        segments.append(TradeoffSegment(beta2_lo=_start(params, i), intercept=M / (k - i), slope=slope))
    return TradeoffCurve(segments=tuple(segments))


def operating_point(params: SystemParams, beta2: RationalLike) -> CodePoint:
    """CodePoint on the minimum-storage curve at the given beta2.

    The only code that builds a point on the curve.  Each field is one ``Fraction`` from
    integer parts: alpha from ``alpha_min``, and beta1, gamma and cost as beta2 = p/q times
    kprime, ``gamma_per_beta2`` and ``cost_per_beta2``.
    """
    b2 = as_nonnegative(beta2, "beta2")
    p, q = b2.numerator, b2.denominator
    kp, gamma, cost = params.kprime, params.gamma_per_beta2, params.cost_per_beta2
    return CodePoint(
        alpha=alpha_min(params, b2),
        beta1=Fraction(kp.numerator * p, kp.denominator * q),
        beta2=b2,
        gamma=Fraction(gamma.numerator * p, gamma.denominator * q),
        cost=Fraction(cost.numerator * p, cost.denominator * q),
    )

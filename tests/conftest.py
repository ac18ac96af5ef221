from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from regencost import SystemParams, validate_params
from regencost.params import CodePoint, RationalLike


def make_params(
    k: int,
    d1: int,
    d2: int,
    kprime: RationalLike = 1,
    n: int | None = None,
    file_size: RationalLike = 1,
    cost_cheap: RationalLike = 1,
    cost_expensive: RationalLike = 1,
) -> SystemParams:
    """Params with the smallest valid n unless one is given."""
    if n is None:
        n = d1 + d2 + 1
    return validate_params(n, k, d1, d2, kprime, file_size, cost_cheap, cost_expensive)


def _dimakis(M: Fraction, k: int, d: int, kind: str) -> tuple[Fraction, Fraction]:
    """``(alpha, beta)`` of the symmetric ``kind`` ("msr" or "mbr") point, each helper sending beta, from
    Dimakis et al., "Network Coding for Distributed Storage Systems" (IEEE T-IT 2010): MSR alpha = M/k,
    beta = M/(k(d-k+1)); MBR alpha = gamma = 2Md/(k(2d-k+1)) and beta = gamma/d."""
    if kind == "msr":
        return M / k, M / (k * (d - k + 1))
    gamma = 2 * M * d / (k * (2 * d - k + 1))
    return gamma, gamma / d


def dimakis_point(params: SystemParams, kind: str) -> CodePoint:
    """The symmetric ``kind`` point at params' M, k and d, with gamma = d*beta and the cost of symmetric
    repair, (c1*d1 + c2*d2)*beta.  Stated here apart from ``regencost.tradeoff``, which reads this point
    off its two-tier curve at kprime = 1."""
    alpha, beta = _dimakis(params.file_size, params.k, params.d, kind)
    cost = (params.cost_cheap * params.d1 + params.cost_expensive * params.d2) * beta
    return CodePoint(alpha=alpha, beta1=beta, beta2=beta, gamma=params.d * beta, cost=cost)


def dimakis_limit_point(params: SystemParams, kind: str) -> CodePoint:
    """The kprime -> infinity limit of the two-tier ``kind`` point (scenario A): the symmetric point at
    d = d1, with no expensive download (beta2 = 0) and cost c1*gamma."""
    alpha, beta = _dimakis(params.file_size, params.k, params.d1, kind)
    gamma = params.d1 * beta
    return CodePoint(alpha=alpha, beta1=beta, beta2=Fraction(0), gamma=gamma, cost=params.cost_cheap * gamma)


@st.composite
def fractions_between(draw, lo: RationalLike, hi: RationalLike, max_denominator: int) -> Fraction:
    """The values of ``st.fractions(lo, hi, max_denominator=...)``, drawn as a denominator, then a numerator.

    Every p/q in [lo, hi] with q <= max_denominator, as in Hypothesis's own
    strategy, which takes several times as long per draw.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    den = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(math.ceil(lo * den), math.floor(hi * den))), den)

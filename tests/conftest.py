from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from regencost import SystemParams, validate_params
from regencost.params import RationalLike


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


@st.composite
def fractions_between(draw, lo: RationalLike, hi: RationalLike, max_denominator: int) -> Fraction:
    """The values of ``st.fractions(lo, hi, max_denominator=...)``, drawn as a denominator, then a numerator.

    Every p/q in [lo, hi] with q <= max_denominator, as in Hypothesis's own
    strategy, which takes several times as long per draw.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    den = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(math.ceil(lo * den), math.floor(hi * den))), den)

"""Parameter model for two-tier regenerating-code storage systems.

A file of ``file_size`` symbols is spread over ``n`` storage nodes so that
any ``k`` of them suffice to rebuild it.  When a node fails, its
replacement contacts ``d1`` helpers from the cheap tier (per-symbol
download cost ``cost_cheap``) and ``d2`` helpers from the expensive tier
(``cost_expensive``), pulling ``kprime`` times as many symbols from each
cheap helper as from an expensive one: ``beta1 = kprime * beta2``.

Everything is an exact :class:`fractions.Fraction`.  The tradeoff curves
downstream are piecewise linear with rational breakpoints, and exact
arithmetic lets the verification layer assert equality instead of
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, TypeVar, Union

from .errors import (
    InsufficientHelpersError,
    InvalidChoiceError,
    InvalidConstructionError,
    InvalidCostOrderError,
    InvalidDegreeError,
    InvalidRatioError,
    NonIntegerDownloadError,
    NonPositiveError,
    UnknownNodeError,
    UsageError,
)

RationalLike = Union[int, str, Fraction]
T = TypeVar("T")


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise UsageError(f"{what} must be a rational number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{what} is not a rational 'p/q' literal: {value!r}") from exc
    # floats are rejected on purpose: Fraction(0.15) is not 3/20
    raise UsageError(f"{what} must be an int, Fraction, or 'p/q' string, got {type(value).__name__}")


def exact_str(value: Fraction | int) -> str:
    """``value`` as "p/q" (or "p"), at any size."""
    try:
        return str(value)
    except ValueError:
        # past the interpreter's limit on int-to-str digits; Decimal prints any int exactly
        numerator = f"{Decimal(value.numerator):f}"
        return numerator if value.denominator == 1 else f"{numerator}/{Decimal(value.denominator):f}"


def as_nonnegative(value: RationalLike, what: str) -> Fraction:
    """:func:`as_fraction`, refusing values below zero."""
    v = as_fraction(value, what)
    if v.numerator < 0:  # a Fraction's sign is its numerator's, and this skips Fraction's comparison
        raise NonPositiveError(f"{what} must be nonnegative, got {exact_str(v)}")
    return v


def as_count(value: int, what: str, minimum: int = 0) -> int:
    """A whole count of at least ``minimum``; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise NonIntegerDownloadError(f"{what} must be an integer count, got {value!r}")
    if value < minimum:
        raise NonPositiveError(f"{what} must be at least {minimum}, got {exact_str(value)}")
    return value


def as_instance(value: T, kind: type | tuple[type, ...], what: str) -> T:
    """``value`` itself when it is an instance of ``kind`` (a class or a tuple of them), subclasses
    included; anything else raises UsageError, naming the classes and the type given."""
    if not isinstance(value, kind):
        names = " or ".join(cls.__name__ for cls in (kind if isinstance(kind, tuple) else (kind,)))
        raise UsageError(f"{what} must be a {names}, got {type(value).__name__}")
    return value


def as_choice(value: str, choices: tuple[str, ...], what: str) -> str:
    """``value`` itself when it is one of ``choices``; anything else raises InvalidChoiceError."""
    if value not in choices:
        raise InvalidChoiceError(f"{what} must be one of {choices}, got {value!r}")
    return value


def as_values(values: Iterable[T], what: str, noun: str) -> tuple[T, ...]:
    """``values`` read once into a tuple; a str, whose characters would be read as values, or a
    non-iterable raises UsageError."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise UsageError(f"{what} must be an iterable of {noun}, got {type(values).__name__}")
    return tuple(values)


class Scenario(Enum):
    """Which repair regime the helper counts put the system in."""

    A = "A"  # d1 >= k: cheap helpers alone could rebuild the file
    B = "B"  # d1 < k: expensive helpers are essential


@dataclass(frozen=True)
class SystemParams:
    """Validated description of one storage system.

    Invariants enforced at construction: k >= 1, file_size > 0, n > k,
    d1 + d2 >= k, d1 + d2 <= n - 1, 0 <= cost_cheap <= cost_expensive,
    kprime >= 1.  d1 = 0 or d2 = 0 are permitted; quantities whose
    denominators then vanish raise DegenerateConfigurationError at the
    point of use rather than here.

    Construction also sets two derived attributes, each one Fraction built
    from integer parts: ``gamma_per_beta2 = d1*kprime + d2`` and
    ``cost_per_beta2 = cost_cheap*d1*kprime + cost_expensive*d2``, the
    repair bandwidth and cost per unit of expensive-tier download.  They
    are plain instance attributes, not fields: ``astuple``, ``repr``,
    ``==`` and ``hash`` see the eight fields only.
    """

    n: int
    k: int
    d1: int
    d2: int
    kprime: Fraction = Fraction(1)
    file_size: Fraction = Fraction(1)
    cost_cheap: Fraction = Fraction(1)
    cost_expensive: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for name in ("n", "k", "d1", "d2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                msg = f"{name} must be an integer, got {value!r}"
                raise InvalidDegreeError(msg)
        for name in ("kprime", "file_size", "cost_cheap", "cost_expensive"):
            object.__setattr__(self, name, as_fraction(getattr(self, name), name))
        if self.k < 1:
            raise NonPositiveError(f"k must be at least 1, got {exact_str(self.k)}")
        # a Fraction's denominator is positive, so its sign is its numerator's and an order is one of
        # cross-multiplied integers
        if self.file_size.numerator <= 0:
            raise NonPositiveError(f"file_size must be positive, got {exact_str(self.file_size)}")
        as_nonnegative(self.cost_cheap, "cost_cheap")
        if self.d1 < 0 or self.d2 < 0:
            raise InvalidDegreeError(
                f"helper counts must be nonnegative, got d1={exact_str(self.d1)}, d2={exact_str(self.d2)}"
            )
        if self.n <= self.k:
            raise InvalidDegreeError(f"n must exceed k, got n={exact_str(self.n)}, k={exact_str(self.k)}")
        if self.d < self.k:
            raise InvalidDegreeError(f"d1 + d2 must reach k, got d={exact_str(self.d)}, k={exact_str(self.k)}")
        if self.d > self.n - 1:
            raise InvalidDegreeError(f"d1 + d2 can be at most n - 1, got d={exact_str(self.d)}, n={exact_str(self.n)}")
        kn, kd = self.kprime.numerator, self.kprime.denominator
        c1n, c1d = self.cost_cheap.numerator, self.cost_cheap.denominator
        c2n, c2d = self.cost_expensive.numerator, self.cost_expensive.denominator
        if c1n * c2d > c2n * c1d:
            raise InvalidCostOrderError(
                "cost_cheap must not exceed cost_expensive, got "
                f"{exact_str(self.cost_cheap)} > {exact_str(self.cost_expensive)}"
            )
        if kn < kd:
            raise InvalidRatioError(f"kprime must be at least 1, got {exact_str(self.kprime)}")
        d1, d2 = self.d1, self.d2
        object.__setattr__(self, "gamma_per_beta2", Fraction(d1 * kn + d2 * kd, kd))
        object.__setattr__(
            self, "cost_per_beta2", Fraction(c1n * d1 * kn * c2d + c2n * d2 * c1d * kd, c1d * kd * c2d)
        )

    @property
    def d(self) -> int:
        """Total helpers contacted per repair."""
        return self.d1 + self.d2

    @property
    def scenario(self) -> Scenario:
        return Scenario.A if self.d1 >= self.k else Scenario.B


# the same constructor under its older name, kept for the callers that still import it
validate_params = SystemParams


def repair_history(
    params: SystemParams,
    n_cheap: int,
    failures: int,
    rng: Random,
    worst_case: bool = False,
) -> Iterator[tuple[int, list[int], list[int]]]:
    """Seeded repair events over n nodes whose first ``n_cheap`` are cheap.

    Yields ``(failed, cheap_helpers, expensive_helpers)`` once per failure.
    A node may fail only while its tier keeps d1 (cheap) or d2 (expensive)
    other nodes, and its replacement keeps its tier, so tier sizes never
    change.  Each event draws one ``rng.choice`` for the failed node, then,
    unless ``worst_case``, one ``rng.sample`` of helpers per tier, cheap
    first; ``worst_case`` takes the most recently replaced nodes of each
    tier instead, lower index first among equals.  Draws happen as each
    event is requested, so callers may use ``rng`` between events.

    ``n_cheap``, ``failures`` and ``rng`` are checked when the history is
    created, before any draw; ``d1 <= n_cheap <= n - d2`` is required, else
    InvalidConstructionError.  With n >= d + 1 that leaves one tier with a
    spare node, so some node can always fail and every pool holds enough
    helpers.
    """
    n_cheap = as_count(n_cheap, "n_cheap")
    failures = as_count(failures, "failures")
    rng = as_instance(rng, Random, "rng")
    n, d1, d2 = params.n, params.d1, params.d2
    if not d1 <= n_cheap <= n - d2:
        raise InvalidConstructionError(
            f"n_cheap={exact_str(n_cheap)} cannot supply d1={d1} cheap and d2={d2} expensive helpers"
        )
    return _repair_events(params, n_cheap, failures, rng, worst_case)


def _repair_events(
    params: SystemParams, n_cheap: int, failures: int, rng: Random, worst_case: bool
) -> Iterator[tuple[int, list[int], list[int]]]:
    n = params.n
    tiers = (range(n_cheap), range(n_cheap, n))
    needs = (params.d1, params.d2)
    failable = [i for tier, need in zip(tiers, needs) if len(tier) > need for i in tier]
    last_replaced = [-1] * n
    for t in range(failures):
        failed = rng.choice(failable)
        helpers = []
        for tier, need in zip(tiers, needs):
            pool = [i for i in tier if i != failed]
            if worst_case:
                pool.sort(key=lambda i: (-last_replaced[i], i))
                helpers.append(pool[:need])
            else:
                helpers.append(rng.sample(pool, need))
        last_replaced[failed] = t
        yield failed, helpers[0], helpers[1]


def as_node_ids(nodes: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    """``nodes`` read once into a tuple of ids in 0..n-1.  A non-iterable raises
    InvalidConstructionError; an id that is a bool, not an int or out of range, UnknownNodeError."""
    try:
        nodes = tuple(nodes)
    except TypeError as exc:
        raise InvalidConstructionError(f"{what} must be an iterable of node ids, got {type(nodes).__name__}") from exc
    for node in nodes:
        if isinstance(node, bool) or not isinstance(node, int):
            raise UnknownNodeError(f"{what} names a {type(node).__name__}, not a node id in 0..{exact_str(n - 1)}")
        if not 0 <= node < n:
            raise UnknownNodeError(f"{what} names node {exact_str(node)}, not one of 0..{exact_str(n - 1)}")
    return nodes


def as_repair_event(
    failed: int, cheap: Iterable[int], expensive: Iterable[int], n: int, what: str
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The rule for one repair event over n nodes: ids per :func:`as_node_ids`, helper sets read once into
    tuples, and no helper named twice or the failed node among them (InsufficientHelpersError)."""
    (failed,) = as_node_ids((failed,), n, what)
    cheap, expensive = as_node_ids(cheap, n, what), as_node_ids(expensive, n, what)
    if len({failed, *cheap, *expensive}) != 1 + len(cheap) + len(expensive):
        raise InsufficientHelpersError(f"{what} names a helper twice or failed node {exact_str(failed)} as a helper")
    return failed, cheap, expensive


def check_tiers(cheap: Iterable[int], expensive: Iterable[int], n_cheap: int) -> None:
    """Fixed tiers: ids below ``n_cheap`` are cheap, the rest expensive; a helper of the wrong tier raises
    InsufficientHelpersError."""
    for helpers, expected in ((cheap, "cheap"), (expensive, "expensive")):
        for helper in helpers:
            tier = "cheap" if helper < n_cheap else "expensive"
            if tier != expected:
                raise InsufficientHelpersError(f"node {exact_str(helper)} is {tier}, expected {expected}")


@dataclass(frozen=True)
class CodePoint:
    """One operating point: per-node storage alpha, per-helper downloads, and the repair's
    bandwidth gamma and download cost (for a symmetric point, its cost at kprime = 1)."""

    alpha: Fraction
    beta1: Fraction
    beta2: Fraction
    gamma: Fraction
    cost: Fraction

    @property
    def beta1_exceeds_alpha(self) -> bool:
        """Flags points where a cheap helper sends more than it stores.

        Such points are reported, not rejected: they still satisfy the
        reconstruction bound, they just cannot be met by a code that reads
        only stored symbols.
        """
        return self.beta1 > self.alpha

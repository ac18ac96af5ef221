"""Random linear network coding simulation of two-tier repair.

Nodes store random linear combinations of the file symbols; only the
coefficient vectors are tracked, since reconstruction is a rank question.
The default field is GF(256) with reduction polynomial 0x11D, whose rows
are ``bytes`` handled whole; its rank check eliminates all the rows still
below the pivots at once, as one ``bytes`` block, and a repair is two
block products: every helper's sent rows at once, then the newcomer's
rows from what it received, each one int conversion per coefficient
column.  A prime field mode (mod 257) keeps int-tuple rows and does its
``%`` arithmetic inline, element by element, to cross-check it.  Each
field supplies the draw, ``product`` and ``rank``; rows stay in the
field's own form from draw to rank, and ``tuple(row)`` gives the int form
of either.  ``ByteField.mul`` and ``ByteField.inv`` are the only scalar
operations: they keep the log/exp tables out of sight.

Coefficients are drawn in bulk: ``encode_initial`` and each ``repair``
make one ``field.draw`` for all of their coefficients.  For a
``random.Random`` instance the draw is word-for-word the stream of as many
``rng.randrange(order)`` calls, and leaves ``rng`` in the same state, so
seeded trials do not depend on how the coefficients are batched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, isqrt
from random import Random
from typing import Sequence, Union

from .errors import (
    InvalidChoiceError,
    InvalidConstructionError,
    NonIntegerDownloadError,
    UsageError,
)
from .params import (
    SystemParams,
    as_choice,
    as_count,
    as_instance,
    as_node_ids,
    as_repair_event,
    check_tiers,
    exact_str,
    repair_history,
)


# byte tables for ByteField.draw; a word whose top byte has bit 7 set is redrawn, so such bytes are deleted
_BIT7_SET = bytes(range(0x80, 0x100))
_BIT7 = bytes(b & 0x80 for b in range(256))
_SHL1 = bytes((b << 1) & 0xFF for b in range(256))
_SHR7 = bytes(b >> 7 for b in range(256))


# largest PrimeField order: a Mersenne prime, checked by at most 46340 trial divisions
MAX_PRIME_ORDER = 2**31 - 1


def _or_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise OR of two equally long byte strings."""
    return (int.from_bytes(a, "little") | int.from_bytes(b, "little")).to_bytes(len(a), "little")


class ByteField:
    """GF(2^8) via log/exp tables; addition is xor.

    Rows are ``bytes``.  Multiplying a row by ``c`` is one
    ``row.translate(mul_tables[c])`` and adding two rows is one xor of
    their big-endian integers: the table-lookup region multiply of Plank
    et al., "Screaming fast Galois field arithmetic" (FAST 2013).  Both
    ``product`` and ``rank`` apply it to a whole block of rows: the
    multiples of one column are joined and xored in as one integer, so
    the int conversions are counted per column, not per row.
    """

    order = 256
    polynomial = 0x11D

    def __init__(self) -> None:
        exp = [0] * 510
        log = [0] * 256
        value = 1
        for power in range(255):
            exp[power] = value
            log[value] = power
            value <<= 1
            if value & 0x100:
                value ^= self.polynomial
        for power in range(255, 510):
            exp[power] = exp[power - 255]
        self._exp = exp
        self._log = log
        # mul_tables[c][x] == c*x: translate each nonzero x's log through exp shifted by log(c)
        logs, exps = bytes(log)[1:], bytes(exp)
        self.mul_tables = (bytes(256),) + tuple(
            b"\0" + logs.translate(exps[log[c] : log[c] + 256]) for c in range(1, 256)
        )

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[255 - self._log[a]]

    def draw(self, rng: Random, count: int) -> bytes:
        """``count`` coefficients, the same as ``count`` calls of ``rng.randrange(256)``.

        CPython's ``randrange(256)`` takes the top 9 bits of one 32-bit
        Mersenne Twister word and redraws while they reach 256: a word is
        kept when its bit 31 is clear, as its bits 30..23.  A word gives at
        most one value, so drawing ``count - len(out)`` words at once never
        reads past the last word the single calls would read, and ``rng``
        ends in the same state.  A generator that is not a plain
        ``random.Random`` is called once per coefficient instead.
        """
        if type(rng) is not Random:
            return bytes(rng.randrange(256) for _ in range(count))
        out = b""
        while len(out) < count:
            words = count - len(out)
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")  # word i is raw[4i : 4i+4]
            tops, seconds = raw[3::4], raw[2::4]
            # a kept word's value is its top byte shifted left by one, plus the top bit of the byte
            # below; deleting the bytes with bit 7 set drops the redrawn words from both parts alike
            high = tops.translate(_SHL1, _BIT7_SET)
            low = _or_bytes(tops.translate(_BIT7), seconds.translate(_SHR7)).translate(None, _BIT7_SET)
            out += _or_bytes(high, low)
        return out

    def product(self, sources: Sequence[Sequence[bytes]], width: int, coeffs: Sequence[int]) -> list[bytes]:
        """Output row r is the combination of ``sources[r]``'s m rows with ``coeffs[r*m : (r+1)*m]``.

        Every source list has the same m rows.  The output rows are one
        row-major block, built a coefficient column at a time: column s is
        ``coeffs[s::m]``, each output row's multiple of its source row s is
        joined into one update of the whole block, and that is xored in as
        one big-endian integer.  So the block costs one int conversion per
        column and one back, whatever the number of output rows.
        """
        tables = self.mul_tables
        m = len(sources[0]) if sources else 0
        acc = 0
        for s in range(m):
            update = b"".join([rows[s].translate(tables[c]) for rows, c in zip(sources, coeffs[s::m])])
            acc ^= int.from_bytes(update, "big")
        block = acc.to_bytes(len(sources) * width, "big")
        return [block[r * width : (r + 1) * width] for r in range(len(sources))]

    def rank(self, rows: Sequence[Sequence[int]]) -> int:
        """Rank by Gaussian elimination of the whole remaining block at once.

        The rows not yet used as pivots are one row-major ``bytes`` block,
        ``width`` bytes a row, so column ``col`` is ``block[col::width]``.
        For each column the pivot is the first nonzero entry, found by
        ``lstrip``; its row is normalised with one translate and taken out
        of the block.  The rows below it are then reduced together: their
        multiples of the pivot row are joined into one update, xored into
        the block as one big-endian integer.  That is three int conversions
        per pivot column, whatever the number of rows.
        """
        tables = self.mul_tables
        try:
            # iter() keeps an int row from becoming that many zero bytes
            work = [row if type(row) is bytes else bytes(iter(row)) for row in rows]
        except (TypeError, ValueError) as exc:
            raise UsageError(f"gf256 rows must hold ints in 0..255: {exc}") from None
        width = len(work[0]) if work else 0
        if any(len(row) != width for row in work):
            raise UsageError(f"rows must all have the first row's length {width}")
        block = b"".join(work)
        rank = 0
        for col in range(width):
            column = block[col::width]
            below = column.lstrip(b"\0")  # the pivot's entry, then the entries of the rows after it
            if not below:
                continue
            start = (len(column) - len(below)) * width
            lead = block[start : start + width].translate(tables[self.inv(below[0])])
            block = block[:start] + block[start + width :]
            rank += 1
            if not block:
                break
            # the update covers the rows after the pivot: the low-order end of the block's integer
            update = b"".join([lead.translate(tables[factor]) for factor in below[1:]])
            reduced = int.from_bytes(block, "big") ^ int.from_bytes(update, "big")
            block = reduced.to_bytes(len(block), "big")
        return rank


class PrimeField:
    """Integers modulo a prime of at most MAX_PRIME_ORDER.

    Rows are int tuples; ``product`` and ``rank`` reduce with ``% order``
    inline, and ``rank`` inverts each pivot with one ``pow``.
    """

    def __init__(self, order: int = 257) -> None:
        if isinstance(order, int) and abs(order) > MAX_PRIME_ORDER:
            # the bit length, since printing a long int's digits would itself raise
            raise UsageError(f"order must be at most {MAX_PRIME_ORDER}, got a {order.bit_length()}-bit int")
        if not isinstance(order, int) or order < 2 or any(order % p == 0 for p in range(2, isqrt(order) + 1)):
            raise UsageError(f"order must be a prime int, got {order!r}")
        self.order = order
        self.name = f"p{order}"

    def draw(self, rng: Random, count: int) -> tuple[int, ...]:
        """``count`` calls of ``rng.randrange(order)``, one at a time: the reference draw."""
        return tuple(rng.randrange(self.order) for _ in range(count))

    def product(
        self, sources: Sequence[Sequence[Sequence[int]]], width: int, coeffs: Sequence[int]
    ) -> list[tuple[int, ...]]:
        """Output row r is the combination of ``sources[r]``'s m rows with ``coeffs[r*m : (r+1)*m]``.

        Element by element, each output element reduced once.
        """
        m = len(sources[0]) if sources else 0
        out = []
        for r, rows in enumerate(sources):
            row = [0] * width
            for source, coeff in zip(rows, coeffs[r * m : (r + 1) * m]):
                if coeff:
                    row = [v + coeff * x for v, x in zip(row, source)]
            out.append(tuple(v % self.order for v in row))
        return out

    def rank(self, rows: Sequence[Sequence[int]]) -> int:
        try:
            work = [list(row) for row in rows]
        except TypeError as exc:
            raise UsageError(f"{self.name} rows must be sequences of ints: {exc}") from None
        if any(not isinstance(v, int) or not 0 <= v < self.order for row in work for v in row):
            raise UsageError(f"{self.name} rows must hold ints in 0..{self.order - 1}")
        width = len(work[0]) if work else 0
        if any(len(row) != width for row in work):
            raise UsageError(f"rows must all have the first row's length {width}")
        p = self.order
        rank = 0
        for col in range(width):
            pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            lead = pow(work[rank][col], p - 2, p)  # the pivot's inverse, by Fermat's little theorem
            top = work[rank] = [lead * v % p for v in work[rank]]
            for r in range(rank + 1, len(work)):
                factor = work[r][col]
                if factor:
                    work[r] = [(v - factor * t) % p for v, t in zip(work[r], top)]
            rank += 1
            if rank == len(work):
                break
        return rank


Field = Union[ByteField, PrimeField]

GF256 = ByteField()


def make_field(name: str) -> Field:
    """Field from a CLI name: "gf256" or "p<prime>" (e.g. "p257")."""
    if not isinstance(name, str):
        raise InvalidChoiceError(f"a field name is a str, got {type(name).__name__}")
    if name == "gf256":
        return GF256
    digits = name[1:]
    # more digits than MAX_PRIME_ORDER name no field, and int() refuses the longest strings
    if name.startswith("p") and digits.isascii() and digits.isdigit() and len(digits) <= len(str(MAX_PRIME_ORDER)):
        return PrimeField(int(digits))
    raise InvalidChoiceError(f"unknown field {name!r}")


def matrix_rank(rows: Sequence[Sequence[int]], field: Field) -> int:
    """Rank by Gaussian elimination over the given field; ragged rows or entries outside it raise UsageError."""
    return as_instance(field, (ByteField, PrimeField), "field").rank(rows)


# ---------------------------------------------------------------------------
# storage state


@dataclass(frozen=True)
class StorageState:
    """``nodes[i]`` is node i's rows in the field's own form; nodes below ``n_cheap`` are cheap, the rest expensive."""

    nodes: tuple[tuple[Sequence[int], ...], ...]
    file_len: int
    alpha_sym: int
    field: Field
    n_cheap: int


def encode_initial(
    file_len: int,
    n: int,
    alpha_sym: int,
    field: Field,
    seed: int,
    n_cheap: int,
) -> StorageState:
    """Fill n nodes, the first ``n_cheap`` (at most n) cheap, with alpha_sym uniformly random coefficient rows each."""
    file_len = as_count(file_len, "file_len", minimum=1)
    n = as_count(n, "n", minimum=1)
    alpha_sym = as_count(alpha_sym, "alpha_sym")
    field = as_instance(field, (ByteField, PrimeField), "field")
    n_cheap = as_count(n_cheap, "n_cheap")
    if n_cheap > n:
        raise InvalidConstructionError(f"n_cheap={exact_str(n_cheap)} exceeds n={n}")
    coeffs = field.draw(Random(_as_seed(seed)), n * alpha_sym * file_len)
    rows = [coeffs[i : i + file_len] for i in range(0, len(coeffs), file_len)]
    nodes = tuple(tuple(rows[j * alpha_sym : (j + 1) * alpha_sym]) for j in range(n))
    return StorageState(nodes=nodes, file_len=file_len, alpha_sym=alpha_sym, field=field, n_cheap=n_cheap)


def repair(
    state: StorageState,
    failed_node: int,
    helpers_cheap: Sequence[int],
    helpers_expensive: Sequence[int],
    beta1_sym: int,
    beta2_sym: int,
    rng: Random,
) -> StorageState:
    """Replace one node: helpers each send random combinations of their rows.

    Cheap helpers send beta1_sym rows, expensive ones beta2_sym; the
    newcomer stores alpha_sym random combinations of everything received
    and takes the failed node's id, and so its tier.  Each of the two
    steps is one ``field.product`` over all of its rows.  The event is checked
    by :func:`regencost.params.as_repair_event`, then the helpers' tiers by
    :func:`regencost.params.check_tiers` with the state's ``n_cheap``.
    """
    state = as_instance(state, StorageState, "state")
    failed_node, helpers_cheap, helpers_expensive = as_repair_event(
        failed_node, helpers_cheap, helpers_expensive, len(state.nodes), "repair"
    )
    beta1_sym = as_count(beta1_sym, "beta1_sym")
    beta2_sym = as_count(beta2_sym, "beta2_sym")
    rng = as_instance(rng, Random, "rng")
    check_tiers(helpers_cheap, helpers_expensive, state.n_cheap)
    # one source list per received row: each cheap helper's rows beta1_sym times, then each expensive one's beta2_sym
    sends = [state.nodes[helper] for helper in helpers_cheap for _ in range(beta1_sym)]
    sends += [state.nodes[helper] for helper in helpers_expensive for _ in range(beta2_sym)]
    field, width, alpha_sym = state.field, state.file_len, state.alpha_sym
    # one draw for every coefficient, row by row: each sent row combines its helper's alpha_sym
    # rows, then each of the newcomer's alpha_sym rows combines the len(sends) rows received
    count = alpha_sym * len(sends)
    coeffs = field.draw(rng, 2 * count)
    received = field.product(sends, width, coeffs[:count])
    new_rows = field.product([received] * alpha_sym, width, coeffs[count:])
    nodes = list(state.nodes)
    nodes[failed_node] = tuple(new_rows)
    return replace(state, nodes=tuple(nodes))


def _as_seed(seed: int) -> int:
    """An int seed, negatives included; None, which would seed from the OS, and bools are refused."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise UsageError(f"seed must be an int, got {seed!r}")
    return seed


def can_reconstruct(state: StorageState, node_ids: Sequence[int]) -> bool:
    """True when the stacked rows of the chosen nodes span the whole file."""
    state = as_instance(state, StorageState, "state")
    rows: list[Sequence[int]] = []
    for node in as_node_ids(node_ids, len(state.nodes), "node_ids"):
        rows.extend(state.nodes[node])
    return matrix_rank(rows, state.field) == state.file_len


# ---------------------------------------------------------------------------
# trials


@dataclass(frozen=True)
class ReconstructionCheck:
    nodes: tuple[int, ...]
    success: bool


@dataclass(frozen=True)
class TrialResult:
    """One seeded history: repairs applied, then k-subsets checked for rank."""

    seed: int
    repairs_performed: int
    checks: tuple[ReconstructionCheck, ...]

    @property
    def successes(self) -> int:
        return sum(1 for check in self.checks if check.success)

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, len(self.checks))


def run_trial(
    params: SystemParams,
    alpha_sym: int,
    beta2_sym: int,
    num_failures: int,
    seed: int,
    field: Field = GF256,
    n_cheap: int | None = None,
    helper_mode: str = "uniform",
    max_subsets: int = 100,
) -> TrialResult:
    """Simulate one seeded repair history and check reconstruction from k-subsets.

    ``helper_mode`` "uniform" samples helpers uniformly from the live
    tier; "worst-case" prefers the most recently replaced nodes, imitating
    the adversarial history of the flow-graph analysis; any other value
    raises InvalidChoiceError before any draw.  When the number
    of k-subsets exceeds ``max_subsets``, a seeded sample is checked
    instead of all of them.
    """
    as_choice(helper_mode, ("uniform", "worst-case"), "helper_mode")
    if params.kprime.denominator != 1:
        raise NonIntegerDownloadError(
            f"simulation needs an integer kprime, got {exact_str(params.kprime)}"
        )
    if params.file_size.denominator != 1:
        raise NonIntegerDownloadError(
            f"simulation needs an integer file size in symbols, got {exact_str(params.file_size)}"
        )
    alpha_sym = as_count(alpha_sym, "alpha_sym")
    beta2_sym = as_count(beta2_sym, "beta2_sym")
    max_subsets = as_count(max_subsets, "max_subsets", minimum=1)
    beta1_sym = int(params.kprime) * beta2_sym
    n, k = params.n, params.k
    if n_cheap is None:
        n_cheap = n - params.d2
    rng = Random(_as_seed(seed))
    # checks n_cheap and num_failures; the events are drawn only as the loop below asks for them
    history = repair_history(params, n_cheap, num_failures, rng, worst_case=helper_mode == "worst-case")
    state = encode_initial(int(params.file_size), n, alpha_sym, field, rng.getrandbits(32), n_cheap)
    for failed, cheap, expensive in history:
        state = repair(state, failed, cheap, expensive, beta1_sym, beta2_sym, rng)
    checks = tuple(
        ReconstructionCheck(nodes=subset, success=can_reconstruct(state, subset))
        for subset in _collector_subsets(n, k, max_subsets, rng)
    )
    return TrialResult(seed=seed, repairs_performed=num_failures, checks=checks)


def _collector_subsets(n: int, k: int, max_subsets: int, rng: Random) -> list[tuple[int, ...]]:
    if comb(n, k) <= max_subsets:
        return [tuple(subset) for subset in itertools.combinations(range(n), k)]
    subsets: set[tuple[int, ...]] = set()
    while len(subsets) < max_subsets:
        subsets.add(tuple(sorted(rng.sample(range(n), k))))
    return sorted(subsets)

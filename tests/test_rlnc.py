from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from regencost import rlnc
from regencost.errors import (
    InsufficientHelpersError,
    InvalidChoiceError,
    InvalidConstructionError,
    NonIntegerDownloadError,
    NonPositiveError,
    UnknownNodeError,
    UsageError,
)
from regencost.params import repair_history
from regencost.rlnc import (
    GF256,
    MAX_PRIME_ORDER,
    ByteField,
    PrimeField,
    can_reconstruct,
    encode_initial,
    make_field,
    matrix_rank,
    repair,
    run_trial,
)

F = Fraction


# ---------------------------------------------------------------------------
# field arithmetic


def test_bytefield_known_products():
    assert GF256.mul(2, 128) == 29  # wraps through the reduction polynomial
    assert GF256.mul(0, 77) == 0
    assert 0xA5 ^ 0xA5 == 0  # characteristic two: addition is xor


def test_bytefield_inverses_exhaustive():
    for a in range(1, 256):
        assert GF256.mul(a, GF256.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_bytefield_generator_covers_all_nonzero_values():
    table = ByteField()
    value = 1
    values = set()
    for _ in range(255):
        values.add(value)
        value = table.mul(value, 2)
    assert value == 1  # multiplicative order of the generator is 255
    assert values == set(range(1, 256))


def test_bytefield_mul_tables_match_mul_exhaustive():
    tables = GF256.mul_tables
    assert len(tables) == 256 and all(len(table) == 256 for table in tables)
    for a in range(256):
        assert list(tables[a]) == [GF256.mul(a, b) for b in range(256)]


def test_bytefield_axioms_sampled():
    rng = Random(0)
    for _ in range(300):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert GF256.mul(a, b) == GF256.mul(b, a)
        assert a ^ b == b ^ a
        assert GF256.mul(a, GF256.mul(b, c)) == GF256.mul(GF256.mul(a, b), c)
        assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)
        assert (a ^ b) ^ b == a  # each element is its own negative
        if b:
            assert GF256.mul(GF256.mul(a, b), GF256.inv(b)) == a


def test_primefield_rejects_composite_order():
    for order in (0, 1, 6, 9, 255, True, 7.0, 2.5, "7"):
        with pytest.raises(UsageError):
            PrimeField(order)


def test_primefield_refuses_an_order_past_the_cap_at_once():
    assert PrimeField(MAX_PRIME_ORDER).order == MAX_PRIME_ORDER == 2**31 - 1  # the largest, and prime
    # 2**61 - 1 is prime, but its trial division would run for minutes; 10**400 + 1 overflows a float root
    for order in (MAX_PRIME_ORDER + 1, 2**61 - 1, 10**400 + 1, -(10**5000)):
        with pytest.raises(UsageError, match="at most 2147483647"):
            PrimeField(order)


_DRAW_COUNTS = (0, 1, 12, 22, 528, 10800)


def test_bytefield_draw_is_the_randrange_stream():
    # a change of CPython's randrange(256) shows here, before any seeded digest drifts
    for seed, count in product(range(60), _DRAW_COUNTS):
        bulk, single = Random(seed), Random(seed)
        drawn = GF256.draw(bulk, count)
        assert drawn == bytes(single.randrange(256) for _ in range(count)), (seed, count)
        assert bulk.getstate() == single.getstate(), (seed, count)


def test_bytefield_draw_never_reads_past_the_last_word_it_needs():
    # the shared trial rng is drawn from again after each repair
    rng, reference = Random(5), Random(5)
    for count in (3, 0, 40, 1, 528, 2):
        assert GF256.draw(rng, count) == bytes(reference.randrange(256) for _ in range(count))
        assert rng.random() == reference.random()


def test_bytefield_draw_from_a_random_subclass_calls_randrange():
    class Counting(Random):
        calls = 0

        def randrange(self, *args):
            Counting.calls += 1
            return super().randrange(*args)

    reference = Random(3)
    assert GF256.draw(Counting(3), 22) == bytes(reference.randrange(256) for _ in range(22))
    assert Counting.calls == 22


def test_primefield_draw_is_the_randrange_stream():
    field = PrimeField(257)
    for seed, count in product(range(20), _DRAW_COUNTS):
        drawn, single = Random(seed), Random(seed)
        assert list(field.draw(drawn, count)) == [single.randrange(257) for _ in range(count)]
        assert drawn.getstate() == single.getstate()


def test_make_field():
    assert make_field("gf256") is GF256
    assert make_field("p257").order == 257
    assert make_field("p2").order == 2
    assert make_field("p2147483647").order == MAX_PRIME_ORDER
    with pytest.raises(UsageError, match="at most 2147483647"):
        make_field("p2147483648")
    # "p²" and "p٣" are digits to str.isdigit, not to int; int() refuses more than 4300 digits
    for name in ("gf16", "257", "p", "p2.5", "GF256", "", "p²", "p٣", "p" + "9" * 11, "p" + "9" * 5000):
        with pytest.raises(InvalidChoiceError, match="unknown field"):
            make_field(name)
    for name in (257, None, b"p2", 10**5000):
        with pytest.raises(InvalidChoiceError, match="a field name is a str"):
            make_field(name)


# ---------------------------------------------------------------------------
# rank


def test_matrix_rank_basic():
    assert matrix_rank([], GF256) == 0
    assert matrix_rank([[0, 0], [0, 0]], GF256) == 0
    assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], GF256) == 3
    assert matrix_rank([[1, 2, 3], [2, 4, 6]], PrimeField(257)) == 1  # scalar multiple
    assert matrix_rank([[3, 1], [3, 2], [0, 1]], GF256) == 2  # more rows than columns


def test_matrix_rank_gf2_exhaustive_2x2():
    gf2 = PrimeField(2)
    full = sum(
        matrix_rank([[a, b], [c, d]], gf2) == 2
        for a, b, c, d in product(range(2), repeat=4)
    )
    assert full == 6  # (2^2-1)(2^2-2) ordered independent pairs


def test_matrix_rank_gf2_exhaustive_2x4():
    gf2 = PrimeField(2)
    rows = list(product(range(2), repeat=4))
    full = sum(matrix_rank([top, bottom], gf2) == 2 for top in rows for bottom in rows)
    assert full == 210  # (2^4-1)(2^4-2)


def test_matrix_rank_field_sensitivity():
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert matrix_rank(rows, PrimeField(2)) == 2  # rows sum to zero mod 2
    assert matrix_rank(rows, PrimeField(257)) == 3


def _rank_r_matrix(rng, p, height, width, r, zero_rows, zero_cols):
    """A·B mod p, shuffled, with zero rows and columns mixed in: its rank is exactly r.

    A (height x r) starts with the r x r identity and B (r x width) with it
    too, so A is one-to-one and B onto, in any field: no elimination is
    needed to know the rank.
    """
    a = [[int(i == j) for j in range(r)] for i in range(r)]
    a += [[rng.randrange(p) for _ in range(r)] for _ in range(height - r)]
    b = [[int(i == j) for j in range(r)] + [rng.randrange(p) for _ in range(width - r)] for i in range(r)]
    columns = list(zip(*b)) if b else [()] * width
    rows = [[sum(x * y for x, y in zip(row, column)) % p for column in columns] + [0] * zero_cols for row in a]
    rows += [[0] * (width + zero_cols) for _ in range(zero_rows)]
    order = list(range(width + zero_cols))
    rng.shuffle(order)
    rng.shuffle(rows)
    return [tuple(row[c] for c in order) for row in rows]


@pytest.mark.parametrize("order", [2, 257, MAX_PRIME_ORDER], ids=["p2", "p257", "p2^31-1"])
@pytest.mark.parametrize(
    "height,width,r,zero_rows,zero_cols",
    [(6, 6, 6, 0, 0), (8, 7, 3, 2, 1), (4, 12, 4, 0, 0), (4, 12, 2, 1, 2), (12, 4, 4, 0, 0), (12, 4, 3, 2, 1),
     (1, 9, 1, 0, 2), (9, 1, 1, 2, 0), (5, 4, 0, 1, 1), (1, 6, 0, 0, 0), (30, 30, 28, 2, 2)],
    ids=["full", "deficient", "wide-full", "wide-deficient", "tall-full", "tall-deficient", "1xw", "hx1",
         "rank-0", "1xw-rank-0", "square-deficient"],
)
def test_primefield_rank_of_matrices_of_known_rank(order, height, width, r, zero_rows, zero_cols):
    rng = Random(order * 1000 + height * 50 + width)
    for _ in range(5):
        rows = _rank_r_matrix(rng, order, height, width, r, zero_rows, zero_cols)
        assert len(rows) == height + zero_rows and all(len(row) == width + zero_cols for row in rows)
        assert matrix_rank(rows, PrimeField(order)) == r


def test_matrix_rank_refuses_entries_outside_the_field():
    for rows, field in (([[300]], GF256), ([[-1]], GF256), ([[257]], PrimeField(257)), ([[2]], PrimeField(2)),
                        ([[-1]], PrimeField(257)), ([[1.0]], GF256), ([[1.0]], PrimeField(257)),
                        (["ab"], GF256), (["ab"], PrimeField(257)), ([3], GF256), ([3], PrimeField(257))):
        with pytest.raises(UsageError, match="rows must"):
            matrix_rank(rows, field)


def test_matrix_rank_refuses_ragged_rows():
    for field in (GF256, PrimeField(257)):
        for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]], [b"ab", b"c"]):
            with pytest.raises(UsageError, match="first row's length"):
                matrix_rank(rows, field)


def _scalar_rank(rows):
    """Reference GF(256) elimination, one element at a time through GF256.mul and GF256.inv."""
    work = [list(row) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = GF256.inv(work[rank][col])
        work[rank] = [GF256.mul(lead, v) for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [v ^ GF256.mul(factor, p) for v, p in zip(work[r], work[rank])]
        rank += 1
    return rank


def _scalar_add_multiple(field, out, coeff, row):
    """``out + coeff * row`` element by element: xor and ``GF256.mul`` on GF(256), ``%`` on a prime field."""
    if field is GF256:
        return [v ^ GF256.mul(coeff, x) for v, x in zip(out, row)]
    return [(v + coeff * x) % field.order for v, x in zip(out, row)]


def _scalar_combination(rows, width, rng, field=GF256):
    """Reference random combination: one ``randrange(order)`` per row, per-element products."""
    out = [0] * width
    for row in rows:
        out = _scalar_add_multiple(field, out, rng.randrange(field.order), row)
    return tuple(out)


def _random_matrix(rng, height, width):
    return [[rng.randrange(256) for _ in range(width)] for _ in range(height)]


@pytest.mark.parametrize("height,width", [(1, 1), (5, 5), (12, 12), (20, 7), (7, 20), (30, 30)])
def test_matrix_rank_matches_scalar_elimination_on_random_matrices(height, width):
    rng = Random(height * 100 + width)
    for _ in range(10):
        rows = _random_matrix(rng, height, width)
        assert matrix_rank(rows, GF256) == _scalar_rank(rows)


@pytest.mark.parametrize("height,width,spanning", [(8, 8, 3), (15, 6, 4), (6, 15, 2), (20, 20, 19)])
def test_matrix_rank_matches_scalar_elimination_when_rank_deficient(height, width, spanning):
    rng = Random(spanning)
    for _ in range(10):
        basis = _random_matrix(rng, spanning, width)
        rows = [_scalar_combination(basis, width, rng) for _ in range(height)]
        rank = matrix_rank(rows, GF256)
        assert rank == _scalar_rank(rows)
        assert rank <= spanning < min(height, width)


def test_matrix_rank_matches_scalar_elimination_with_a_zero_column():
    rng = Random(3)
    for col in (0, 4, 9):
        rows = _random_matrix(rng, 10, 10)
        for row in rows:
            row[col] = 0
        assert matrix_rank(rows, GF256) == _scalar_rank(rows) == 9


def _repaired_state(params, alpha_sym, beta1_sym, beta2_sym, failures, seed):
    """A seeded state after ``failures`` repairs, built the way ``run_trial`` builds it."""
    rng = Random(seed)
    n_cheap = params.n - params.d2
    state = encode_initial(int(params.file_size), params.n, alpha_sym, GF256, rng.getrandbits(32), n_cheap)
    for failed, cheap, expensive in repair_history(params, n_cheap, failures, rng):
        state = repair(state, failed, cheap, expensive, beta1_sym, beta2_sym, rng)
    return state


@pytest.mark.parametrize(
    "alpha_sym,beta1_sym,beta2_sym,expected_ranks",
    [(4, 2, 1, {12}), (3, 2, 1, {9}), (5, 1, 0, {6, 8, 10, 11, 12})],
    ids=["at-the-bound", "below-the-bound", "starved-repairs"],
)
def test_matrix_rank_matches_scalar_elimination_on_collector_rows(alpha_sym, beta1_sym, beta2_sym, expected_ranks):
    # the stacked rows can_reconstruct ranks: k = 3 nodes of alpha_sym rows against a 12-symbol
    # file; a starved newcomer receives 3 rows and stores 5 combinations of them
    params = make_params(3, 3, 2, kprime=2, n=6, file_size=12)
    ranks = set()
    for seed in range(3):
        state = _repaired_state(params, alpha_sym, beta1_sym, beta2_sym, failures=4, seed=seed)
        for subset in combinations(range(params.n), params.k):
            rows = [row for node in subset for row in state.nodes[node]]
            rank = matrix_rank(rows, GF256)
            assert rank == _scalar_rank(rows)
            assert can_reconstruct(state, subset) is (rank == 12)
            ranks.add(rank)
    assert ranks == expected_ranks


def test_matrix_rank_of_tall_matrices_full_before_the_last_row():
    rng = Random(8)
    for width in (1, 3, 6):
        identity = [[int(i == j) for j in range(width)] for i in range(width)]
        for extra in (1, 5):
            rows = identity + _random_matrix(rng, extra, width)
            assert matrix_rank(rows, GF256) == _scalar_rank(rows) == width
            rows = _random_matrix(rng, width, width) + identity + [[0] * width]
            assert matrix_rank(rows, GF256) == _scalar_rank(rows) == width


def test_matrix_rank_of_one_column_and_one_row():
    columns = ([[0]], [[7]], [[0], [0], [255]], [[0], [0]], [[1], [2], [3]])
    for rows in (*columns, [[0, 0, 0]], [[0, 0, 9]], [[1, 255, 0, 4]]):
        assert matrix_rank(rows, GF256) == _scalar_rank(rows)
    assert matrix_rank([], GF256) == 0
    assert matrix_rank([[], []], GF256) == 0


def test_matrix_rank_with_zero_rows_mixed_in():
    rng = Random(12)
    for height, width in ((6, 6), (9, 4), (4, 9)):
        rows = _random_matrix(rng, height, width)
        for at in (0, 2, len(rows)):
            rows.insert(at, [0] * width)
        assert matrix_rank(rows, GF256) == _scalar_rank(rows) == min(height, width)


def test_matrix_rank_takes_bytes_list_and_tuple_rows_in_one_call():
    rng = Random(4)
    rows = _random_matrix(rng, 9, 7)
    rows[5] = [v ^ GF256.mul(3, w) for v, w in zip(rows[1], rows[2])]  # a dependent row
    kept = [list(row) for row in rows]
    mixed = [(bytes, list, tuple)[i % 3](row) for i, row in enumerate(rows)]
    assert matrix_rank(mixed, GF256) == _scalar_rank(rows) == 7
    # the list rows, and the rows they were built from, are as they were
    assert [row for row in mixed if type(row) is list] == kept[1::3]
    assert rows == kept


_ENTRIES = st.one_of(st.sampled_from([0, 1, 255]), st.integers(0, 255))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda width: st.lists(
            st.tuples(st.lists(_ENTRIES, min_size=width, max_size=width), st.sampled_from([bytes, list, tuple])),
            max_size=8,
        )
    )
)
def test_matrix_rank_matches_scalar_elimination_on_small_shapes(rows):
    values = [list(row) for row, _ in rows]
    assert matrix_rank([kind(row) for row, kind in rows], GF256) == _scalar_rank(values)


# ---------------------------------------------------------------------------
# storage state


def test_encode_initial_shape_and_determinism():
    state = encode_initial(4, 3, 2, GF256, seed=5, n_cheap=3)
    assert len(state.nodes) == 3
    assert all(len(node) == 2 for node in state.nodes)
    assert all(len(row) == 4 for node in state.nodes for row in node)
    assert all(0 <= v < 256 for node in state.nodes for row in node for v in row)
    assert state.n_cheap == 3
    assert state == encode_initial(4, 3, 2, GF256, seed=5, n_cheap=3)
    assert state != encode_initial(4, 3, 2, GF256, seed=6, n_cheap=3)


def test_encode_initial_tier_assignment():
    state = encode_initial(2, 3, 1, GF256, seed=0, n_cheap=1)
    assert state.n_cheap == 1
    # node 0 is cheap, nodes 1 and 2 expensive
    repair(state, 1, [0], [2], 1, 1, Random(0))
    with pytest.raises(InsufficientHelpersError, match="node 2 is expensive, expected cheap"):
        repair(state, 1, [2], [], 1, 1, Random(0))
    with pytest.raises(InsufficientHelpersError, match="node 0 is cheap, expected expensive"):
        repair(state, 1, [], [0], 1, 1, Random(0))


def test_encode_initial_validation():
    with pytest.raises(NonPositiveError):
        encode_initial(0, 3, 1, GF256, seed=0, n_cheap=3)
    with pytest.raises(NonIntegerDownloadError):
        encode_initial(F(1, 2), 3, 1, GF256, seed=0, n_cheap=3)
    with pytest.raises(NonIntegerDownloadError):
        encode_initial(True, 3, 1, GF256, seed=0, n_cheap=3)
    with pytest.raises(InvalidConstructionError):
        encode_initial(2, 3, 1, GF256, seed=0, n_cheap=4)
    with pytest.raises(NonPositiveError):
        encode_initial(2, 3, 1, GF256, seed=0, n_cheap=-1)
    with pytest.raises(NonIntegerDownloadError):
        encode_initial(2, 3, 1, GF256, seed=0, n_cheap=True)
    with pytest.raises(NonIntegerDownloadError):
        encode_initial(2, 3, 1, GF256, seed=0, n_cheap=None)


def _two_tier_state(seed=0):
    return encode_initial(4, 4, 2, GF256, seed=seed, n_cheap=2)


def test_repair_replaces_only_the_failed_node():
    state = _two_tier_state()
    repaired = repair(state, 2, [0, 1], [3], beta1_sym=2, beta2_sym=1, rng=Random(9))
    assert repaired.n_cheap == state.n_cheap  # tier inherited
    assert repaired.nodes[2] != state.nodes[2]
    assert len(repaired.nodes[2]) == state.alpha_sym
    for i in (0, 1, 3):
        assert repaired.nodes[i] == state.nodes[i]
    assert repair(state, 2, [0, 1], [3], beta1_sym=2, beta2_sym=1, rng=Random(9)) == repaired


def test_repair_rows_match_per_element_recomputation():
    # repair draws all its coefficients at once and forms its rows as two block products;
    # its rows, and the rng it leaves behind, must be those of one randrange(order) per
    # coefficient, in order, combined element by element
    shapes = [
        # file_len, n, alpha_sym, n_cheap, the event (failed, cheap, expensive), beta1_sym, beta2_sym
        (6, 5, 3, 3, (1, [0, 2], [4]), 2, 1),
        # the simulate workload's shape: 8 cheap helpers send 2 rows each and 6 expensive ones 1
        (60, 15, 12, 9, (8, list(range(8)), list(range(9, 15))), 2, 1),
    ]
    for field in (GF256, PrimeField(257), PrimeField(MAX_PRIME_ORDER)):
        for file_len, n, alpha_sym, n_cheap, (failed, cheap, expensive), beta1_sym, beta2_sym in shapes:
            state = encode_initial(file_len, n, alpha_sym, field, seed=4, n_cheap=n_cheap)
            sends = [(helper, beta1_sym) for helper in cheap] + [(helper, beta2_sym) for helper in expensive]
            for seed in range(5):
                rng = Random(seed)
                rng.getrandbits(seed)  # start mid-stream, as a trial's repairs do
                reference = Random()
                reference.setstate(rng.getstate())
                repaired = repair(state, failed, cheap, expensive, beta1_sym, beta2_sym, rng)
                received = [
                    _scalar_combination(state.nodes[helper], file_len, reference, field)
                    for helper, count in sends
                    for _ in range(count)
                ]
                expected = tuple(_scalar_combination(received, file_len, reference, field) for _ in range(alpha_sym))
                assert tuple(tuple(row) for row in repaired.nodes[failed]) == expected
                assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "field", [GF256, PrimeField(257), PrimeField(MAX_PRIME_ORDER)], ids=["gf256", "p257", "p2^31-1"]
)
def test_product_matches_per_element_combinations(field):
    # output row r combines sources[r]'s m rows with coeffs[r*m : (r+1)*m]
    rng = Random(8)
    width = 7
    row_type = bytes if field is GF256 else tuple

    def scalar(sources, coeffs):
        m = len(sources[0]) if sources else 0
        out = []
        for r, rows in enumerate(sources):
            row = [0] * width
            for source, coeff in zip(rows, coeffs[r * m : (r + 1) * m]):
                row = _scalar_add_multiple(field, row, coeff, source)
            out.append(tuple(row))
        return out

    def check(sources, coeffs):
        out = field.product(sources, width, coeffs)
        assert all(type(row) is row_type for row in out)
        assert [tuple(row) for row in out] == scalar(sources, coeffs)
        return out

    rows = [field.draw(rng, width) for _ in range(5)]
    separate = [rows[0:3], rows[1:4], rows[2:5], rows[0:5:2]]
    coeffs = list(field.draw(rng, 4 * 3))
    coeffs[3:6] = [0, 0, 0]  # an all-zero output row
    coeffs[2::3] = [0] * 4  # an all-zero coefficient column
    assert check(separate, coeffs)[1] == row_type(bytes(width))
    check(separate, list(field.draw(rng, 4 * 3)))
    check([rows] * 3, list(field.draw(rng, 3 * 5)))  # one shared source list, as the newcomer's rows use
    check([rows], list(field.draw(rng, 5)))  # a single output row
    check([rows[:1]], [1])
    # zero source rows, as when nothing is received: all-zero rows of the full width
    assert [tuple(row) for row in check([()] * 3, [])] == [(0,) * width] * 3
    assert field.product([], width, []) == []


@pytest.mark.parametrize("field", [GF256, PrimeField(257)], ids=["gf256", "p257"])
def test_repair_with_nothing_received_stores_zero_rows(field):
    state = encode_initial(6, 5, 3, field, seed=4, n_cheap=3)
    rng = Random(2)
    before = rng.getstate()
    repaired = repair(state, 1, [0, 2], [4], beta1_sym=0, beta2_sym=0, rng=rng)
    assert [tuple(row) for row in repaired.nodes[1]] == [(0,) * 6] * 3
    assert all(type(row) is type(state.nodes[0][0]) for row in repaired.nodes[1])
    assert rng.getstate() == before  # no coefficient to draw


def test_encode_initial_rows_are_per_coefficient_draws():
    for field in (GF256, PrimeField(257)):
        state = encode_initial(4, 3, 2, field, seed=7, n_cheap=3)
        rng = Random(7)
        assert [tuple(row) for node in state.nodes for row in node] == [
            tuple(rng.randrange(field.order) for _ in range(4)) for _ in range(3 * 2)
        ]
        assert all(type(v) is int for node in state.nodes for row in node for v in row)


@pytest.mark.parametrize("field, row_type", [(GF256, bytes), (PrimeField(257), tuple)], ids=["gf256", "p257"])
def test_stored_rows_are_the_fields_own_rows(field, row_type):
    # rows stay in the field's own form from draw to rank: bytes for GF(256), int tuples for p257
    def assert_rows(state):
        rows = [row for node in state.nodes for row in node]
        assert len(rows) == 5 * 3
        assert all(type(row) is row_type and len(row) == 6 for row in rows)
        assert all(type(v) is int and 0 <= v < field.order for row in rows for v in row)

    state = encode_initial(6, 5, 3, field, seed=4, n_cheap=3)
    assert_rows(state)
    rng = Random(1)
    state = repair(state, 1, [0, 2], [4], beta1_sym=2, beta2_sym=1, rng=rng)
    assert_rows(state)
    state = repair(state, 3, [1], [4], beta1_sym=2, beta2_sym=1, rng=rng)
    assert_rows(state)


def test_repair_validates_helpers():
    state = _two_tier_state()
    with pytest.raises(UnknownNodeError):
        repair(state, 9, [0, 1], [3], 2, 1, Random(0))
    with pytest.raises(UnknownNodeError):
        repair(state, 2, [0, -1], [3], 2, 1, Random(0))
    with pytest.raises(InsufficientHelpersError):
        repair(state, 2, [0, 0], [3], 2, 1, Random(0))  # duplicate helper
    with pytest.raises(InsufficientHelpersError):
        repair(state, 2, [0, 1], [2], 2, 1, Random(0))  # helps itself
    with pytest.raises(InsufficientHelpersError, match="node 3 is expensive, expected cheap"):
        repair(state, 2, [0, 3], [1], 2, 1, Random(0))  # tiers swapped
    with pytest.raises(NonIntegerDownloadError):
        repair(state, 2, [0, 1], [3], F(1, 2), 1, Random(0))
    with pytest.raises(NonIntegerDownloadError):
        repair(state, 2, [0, 1], [3], 2, True, Random(0))
    with pytest.raises(NonPositiveError):
        repair(state, 2, [0, 1], [3], 2, -1, Random(0))
    # an id past the interpreter's int-to-str digit limit is still refused as a node id
    with pytest.raises(UnknownNodeError):
        repair(state, 10**5000, [0, 1], [3], 2, 1, Random(0))
    with pytest.raises(UnknownNodeError):
        repair(state, 2, [0, 10**5000], [3], 2, 1, Random(0))
    with pytest.raises(InvalidConstructionError):
        repair(state, 0, 5, [], 1, 1, Random(0))  # helpers not an iterable
    for not_a_state in (None, "x"):
        with pytest.raises(UsageError, match="state must be a StorageState"):
            repair(not_a_state, 0, [], [], 1, 1, Random(0))


def test_repair_reads_iterator_helpers_once():
    # checking the helpers must not use up an iterator before their rows are sent
    state = encode_initial(8, 4, 2, GF256, 0, 4)
    from_list = repair(state, 0, [1, 2], [], 1, 1, Random(0))
    assert repair(state, 0, iter([1, 2]), [], 1, 1, Random(0)) == from_list
    assert repair(state, 0, iter([1, 2]), iter([]), 1, 1, Random(0)) == from_list


def test_reconstruction_is_rank_limited():
    # two nodes holding one row each can never span a three-symbol file
    state = encode_initial(3, 5, 1, GF256, seed=2, n_cheap=5)
    assert not can_reconstruct(state, [0, 1])
    with pytest.raises(UnknownNodeError):
        can_reconstruct(state, [0, 7])
    with pytest.raises(UnknownNodeError):
        can_reconstruct(state, [10**5000])
    with pytest.raises(InvalidConstructionError):
        can_reconstruct(state, 5)
    for not_a_state in (None, "x"):
        with pytest.raises(UsageError, match="state must be a StorageState"):
            can_reconstruct(not_a_state, [0])


def test_single_symbol_success_rate_matches_nonzero_fraction():
    # with one coefficient per node, reconstruction succeeds exactly when
    # the coefficient is nonzero, so the rate estimates 255/256
    state = encode_initial(1, 2000, 1, GF256, seed=11, n_cheap=2000)
    nonzero = sum(1 for node in state.nodes if node[0][0] != 0)
    successes = sum(1 for i in range(2000) if can_reconstruct(state, [i]))
    assert successes == nonzero
    assert successes / 2000 >= 0.95


# ---------------------------------------------------------------------------
# trials


GMBR_PARAMS = make_params(2, 2, 1, kprime=2, n=4, file_size=8)


def test_run_trial_is_deterministic():
    first = run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=3, seed=42)
    second = run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=3, seed=42)
    assert first == second
    assert first.repairs_performed == 3
    assert len(first.checks) == 6  # all 2-subsets of 4 nodes
    assert first != run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=3, seed=43)


def test_seeds_must_be_ints():
    # None would seed from the OS: a "seeded" result that no one could reproduce
    for seed in (None, True, 1.0, "1", F(1)):
        with pytest.raises(UsageError, match="seed must be an int"):
            run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=seed)
        with pytest.raises(UsageError, match="seed must be an int"):
            encode_initial(4, 3, 2, GF256, seed=seed, n_cheap=3)
    negative = run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=-3)
    assert negative.seed == -3
    assert negative == run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=-3)


def test_run_trial_at_the_tradeoff_point_mostly_succeeds():
    total = successes = 0
    for seed in range(20):
        result = run_trial(
            GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1 + seed % 3, seed=seed
        )
        total += len(result.checks)
        successes += result.successes
    assert successes / total >= 0.95


def test_run_trial_below_the_rank_bound_always_fails():
    # k*alpha = 6 < 8 file symbols, so no collector can ever reconstruct
    for seed in range(5):
        result = run_trial(GMBR_PARAMS, alpha_sym=3, beta2_sym=1, num_failures=2, seed=seed)
        assert result.successes == 0
        assert result.success_rate == 0


def test_run_trial_success_rate_is_exact():
    result = run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=2, seed=0)
    assert result.success_rate == F(result.successes, 6)


def test_run_trial_supports_prime_field_and_worst_case_helpers():
    for field_name in ("gf256", "p257"):
        result = run_trial(
            GMBR_PARAMS,
            alpha_sym=5,
            beta2_sym=1,
            num_failures=4,
            seed=3,
            field=make_field(field_name),
            helper_mode="worst-case",
        )
        assert result.repairs_performed == 4
        assert result.success_rate >= F(4, 6)


def test_run_trial_and_random_history_graph_see_the_same_events(monkeypatch):
    # with repair made rng-free, run_trial's repair calls are params.repair_history's events,
    # drawn after the encoding seed; random_history_graph builds those same events with
    # cutflow.history_graph (tests/test_cutflow.py)
    params = make_params(3, 3, 2, kprime=2, n=8)
    calls = []

    def record(state, failed, cheap, expensive, beta1_sym, beta2_sym, rng):
        calls.append((failed, list(cheap), list(expensive)))
        return state

    monkeypatch.setattr(rlnc, "repair", record)
    for seed in range(5):
        calls.clear()
        run_trial(params, alpha_sym=2, beta2_sym=1, num_failures=9, seed=seed, n_cheap=5)
        rng = Random(seed)
        rng.getrandbits(32)  # run_trial's encoding seed
        assert calls == list(repair_history(params, 5, 9, rng))
        assert len(calls) == 9


def test_run_trial_without_failures_checks_the_initial_code():
    result = run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=0, seed=1)
    assert result.repairs_performed == 0
    assert result.success_rate == 1


def test_run_trial_subset_sampling():
    params = make_params(4, 5, 3, kprime=1, n=9, file_size=4)
    sampled = run_trial(params, alpha_sym=1, beta2_sym=1, num_failures=0, seed=0, max_subsets=100)
    assert len(sampled.checks) == 100
    subsets = [check.nodes for check in sampled.checks]
    assert len(set(subsets)) == 100
    assert all(len(set(s)) == 4 and all(0 <= i < 9 for i in s) for s in subsets)
    assert subsets == sorted(subsets)
    exhaustive = run_trial(
        params, alpha_sym=1, beta2_sym=1, num_failures=0, seed=0, max_subsets=200
    )
    assert len(exhaustive.checks) == 126  # comb(9, 4)


def test_run_trial_validation():
    with pytest.raises(NonIntegerDownloadError):
        run_trial(
            make_params(2, 2, 1, kprime="3/2", n=4, file_size=8),
            alpha_sym=5,
            beta2_sym=2,
            num_failures=1,
            seed=0,
        )
    with pytest.raises(NonIntegerDownloadError):
        run_trial(
            make_params(2, 2, 1, kprime=2, n=4, file_size="17/2"),
            alpha_sym=5,
            beta2_sym=1,
            num_failures=1,
            seed=0,
        )
    with pytest.raises(NonIntegerDownloadError):
        run_trial(GMBR_PARAMS, alpha_sym=F(5, 2), beta2_sym=1, num_failures=1, seed=0)
    with pytest.raises(InvalidConstructionError):
        run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=0, n_cheap=1)
    with pytest.raises(InvalidConstructionError):
        run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=0, n_cheap=4)
    for n_cheap in (2.5, True, "3"):
        with pytest.raises(NonIntegerDownloadError, match="n_cheap must be an integer count"):
            run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=0, n_cheap=n_cheap)
    with pytest.raises(InvalidChoiceError, match="helper_mode"):
        run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=0, helper_mode="greedy")
    with pytest.raises(NonPositiveError):
        run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=-1, seed=0)
    with pytest.raises(NonPositiveError):
        run_trial(GMBR_PARAMS, alpha_sym=5, beta2_sym=1, num_failures=1, seed=0, max_subsets=0)

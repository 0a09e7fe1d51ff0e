"""GF(2) and Z4 linear algebra: exactness checked against brute force."""

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stablulc.errors import FormatError
from stablulc.gf2 import (BitMatrix, BitVector, Mod4Eliminator, Span,
                          format_matrix, invert, left_kernel, nullspace,
                          parse_matrix, rank, row_space_contains, rref,
                          solve)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    cols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    rows = tuple(BitVector(cols, draw(st.integers(0, (1 << cols) - 1)))
                 for _ in range(nrows))
    return BitMatrix(cols, rows)


# -- bit vectors -------------------------------------------------------------

def test_vector_basics():
    v = BitVector.from_string("10110")
    assert v.length == 5 and v.weight() == 3
    assert v.support() == (0, 2, 3)
    assert v.to_string() == "10110"
    assert (v ^ v).is_zero()
    w = BitVector.from_string("01110")
    assert (v & w).support() == (2, 3)
    assert v.dot(w) == 0 and v.dot(v) == 1


def test_vector_concat_restrict_delete():
    v = BitVector.from_string("101")
    w = BitVector.from_string("01")
    assert v.concat(w).to_string() == "10101"
    assert v.restrict((0, 2)).to_string() == "11"
    assert v.delete(1).to_string() == "11"
    assert BitVector.from_string("10110").delete(0).to_string() == "0110"
    assert BitVector.from_string("10110").delete(4).to_string() == "1011"


@given(st.integers(0, (1 << 10) - 1), st.integers(0, 9))
def test_delete_matches_string_surgery(bits, i):
    v = BitVector(10, bits)
    s = v.to_string()
    assert v.delete(i).to_string() == s[:i] + s[i + 1:]


def test_vector_length_mismatch():
    with pytest.raises(ValueError):
        BitVector(3, 0) ^ BitVector(4, 0)


# -- row reduction and spaces -------------------------------------------------

@given(matrices())
def test_rref_is_canonical_and_idempotent(m):
    r, rk, pivots = rref(m)
    assert r.num_rows == rk == len(pivots)
    again, rk2, pivots2 = rref(r)
    assert again.rows == r.rows and rk2 == rk and pivots2 == pivots
    for i, c in enumerate(pivots):
        assert all(row[c] == (1 if j == i else 0)
                   for j, row in enumerate(r.rows))


@given(matrices(), st.integers(0, 2 ** 6 - 1))
def test_row_space_membership_by_combination(m, mask):
    combo = BitVector.zeros(m.cols)
    for i, row in enumerate(m.rows):
        if (mask >> i) & 1:
            combo = combo ^ row
    assert row_space_contains(m, combo)


@given(matrices())
def test_nullspace_is_orthogonal_complement(m):
    ns = nullspace(m)
    assert ns.num_rows == m.cols - rank(m)
    for v in ns.rows:
        assert m.mul_vector(v).is_zero()


@given(matrices())
def test_double_nullspace_recovers_row_space(m):
    # the fact the matroid layer rests on: U-perp-perp = U over GF(2)
    r, _, _ = rref(m)
    back, _, _ = rref(nullspace(nullspace(m)))
    assert back.rows == r.rows


def _random_invertible(rng: random.Random, n: int) -> BitMatrix:
    rows = list(BitMatrix.identity(n).rows)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            rows[i] = rows[i] ^ rows[j]
    return BitMatrix(n, tuple(rows))


def test_invert_round_trip():
    rng = random.Random(7)
    for n in (1, 2, 3, 5, 8):
        m = _random_invertible(rng, n)
        inv = invert(m)
        for i in range(n):
            e_i = BitVector.from_support(n, (i,))
            assert m.mul_vector(inv.mul_vector(e_i)) == e_i


def test_invert_singular_returns_none():
    m = BitMatrix(2, (BitVector(2, 0b11), BitVector(2, 0b11)))
    assert invert(m) is None


@given(matrices(), st.integers(0, 2 ** 6 - 1))
def test_solve_finds_a_preimage(m, mask):
    x = BitVector(m.cols, mask & ((1 << m.cols) - 1))
    target = m.mul_vector(x)
    got = solve(m, target)
    assert got is not None and m.mul_vector(got) == target


def test_solve_detects_inconsistency():
    m = BitMatrix(2, (BitVector(2, 0b01), BitVector(2, 0b01)))
    assert solve(m, BitVector.from_bits((0, 1))) is None


@given(matrices())
def test_span_matches_rref_rank(m):
    assert Span(r.bits for r in m.rows).rank == rank(m)
    sp = Span(r.bits for r in m.rows)
    for row in m.rows:
        assert sp.contains(row.bits)


@given(matrices())
@example(BitMatrix(3, ()))
@example(BitMatrix.identity(4))
def test_left_kernel_matches_transposed_nullspace(m):
    kernel = left_kernel(m.row_ints(), m.cols)
    assert kernel == nullspace(m.transpose()).row_ints()
    for c in kernel:
        acc = 0
        for i, r in enumerate(m.row_ints()):
            if (c >> i) & 1:
                acc ^= r
        assert acc == 0


# -- Z4 elimination ------------------------------------------------------------

def _brute_mod4(n, rows, targets):
    for assign in itertools.product(range(4), repeat=n):
        if all(sum(assign[j] * row[j] for j in range(n)) % 4 == t
               for row, t in zip(rows, targets)):
            return assign
    return None


def _solve_mod4(n, rows, targets):
    """Feed coeffs @ a = targets to the eliminator one row at a time."""
    elim = Mod4Eliminator(n)
    for row, t in zip(rows, targets):
        if not elim.add(row.bits, t):
            return None
    return elim.solution()


@given(st.data())
def test_solve_mod4_agrees_with_brute_force(data):
    n = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(0, 6))
    rows = tuple(BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
                 for _ in range(nrows))
    targets = tuple(data.draw(st.integers(0, 3)) for _ in range(nrows))
    got = _solve_mod4(n, rows, targets)
    brute = _brute_mod4(n, rows, targets)
    assert (got is None) == (brute is None)
    if got is not None:
        for row, t in zip(rows, targets):
            assert sum(a * row[j] for j, a in enumerate(got)) % 4 == t


def test_solve_mod4_known_cases():
    # x0 + x1 = 2, x1 = 1  ->  x = (1, 1)
    a = _solve_mod4(2, (BitVector(2, 0b11), BitVector(2, 0b10)), (2, 1))
    assert (a[0] + a[1]) % 4 == 2 and a[1] % 4 == 1
    # x0 = 1 and x0 = 3 cannot both hold
    assert _solve_mod4(1, (BitVector(1, 1), BitVector(1, 1)), (1, 3)) is None


# -- text format ----------------------------------------------------------------

@given(matrices())
def test_matrix_format_round_trip(m):
    assert parse_matrix(format_matrix(m)).rows == m.rows


def test_parse_matrix_diagnostics():
    with pytest.raises(FormatError):
        parse_matrix("")
    with pytest.raises(FormatError, match="header"):
        parse_matrix("abc\n01\n")
    with pytest.raises(FormatError, match="expected 2 rows"):
        parse_matrix("2 3\n010\n")
    with pytest.raises(FormatError, match="0/1"):
        parse_matrix("1 3\n012\n")
    m = parse_matrix("# comment\n2 3\n\n010\n111\n")
    assert m.num_rows == 2 and m.cols == 3

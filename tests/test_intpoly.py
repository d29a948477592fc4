"""The integer-polynomial kernel: products on both sides of the packing
rule, the linear-form step and clearing, against plain reference loops."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from quintic_mirror import intpoly
from quintic_mirror.intpoly import PACK_FROM, clear, mul, mul_linear

_differential = settings(deadline=None, derandomize=True, database=None,
                         phases=(Phase.explicit, Phase.generate))


def _ref_mul(a, b, n=None):
    """The first n coefficients of a * b, one multiply-add per pair."""
    full = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            full[i + j] += x * y
    if n is not None:
        full = (full + [0] * n)[:n]
    return tuple(full)


@contextmanager
def _pack_from(length):
    """Run mul with the packing rule moved to ``length``."""
    saved = intpoly.PACK_FROM
    intpoly.PACK_FROM = length
    try:
        yield
    finally:
        intpoly.PACK_FROM = saved


@st.composite
def _operand(draw, lengths=st.integers(1, 40)):
    """An integer list of 1 to 2000 bits: zeros, negatives and the extreme
    digits of its width are all likely."""
    top = 2 ** draw(st.integers(1, 2000)) - 1
    digit = st.one_of(st.just(0), st.integers(-top, top),
                      st.sampled_from([top, -top]))
    length = draw(lengths)
    return draw(st.lists(digit, min_size=length, max_size=length))


@st.composite
def _product(draw):
    a = draw(_operand())
    b = draw(_operand(st.one_of(st.integers(1, 40), st.just(64))))
    if draw(st.booleans()):
        a, b = b, a
    full = len(a) + len(b) - 1
    n = draw(st.one_of(st.none(), st.integers(0, full + 2)))
    return a, b, n


_BIG = 2 ** 1999 - 1


@settings(_differential, max_examples=150)
@given(_product())
@example(([0] * 30, [5] * 30, None)).via("all-zero operand, packed")
@example(([0] * 3, [-5] * 3, None)).via("all-zero operand, schoolbook")
@example(([-1] * 24, [-_BIG] * 24, 24)).via("negative, 2000 bits, truncated")
@example(([_BIG] * 8, [-_BIG] * 64, None)).via("8 x 64 at 2000 bits")
@example(([1] * 8, [-1] * 64, 40)).via("8 x 64, truncated")
@example(([3] * PACK_FROM, [7] * 40, 10)).via("packed, then truncated")
@example(([3] * (PACK_FROM - 1), [7] * 40, None)).via("just below the rule")
@example(([2], [3], 5)).via("n past the full length")
@example(([1], [4, -5], None)).via("the constant 1, as a list")
@example(((1,), (4, -5), 3)).via("the constant 1, n past the full length")
@example(([], [1, 2], None)).via("empty operand")
def test_mul_matches_the_reference_loop(case):
    a, b, n = case
    want = _ref_mul(a, b, n)
    assert mul(a, b, n) == want
    assert mul(tuple(a), tuple(b), n) == want
    # Each route alone, on the same operands.
    for route in (1, 10 ** 9):
        with _pack_from(route):
            assert mul(a, b, n) == want


@pytest.mark.parametrize("length", [PACK_FROM, PACK_FROM + 1, 31, 32])
def test_packed_mul_at_slot_width_boundary(length):
    # +-(2^k - 1) in every slot: the largest digits of k and j bits, so
    # some (k, j, length) fill a whole number of bytes exactly.
    for k in range(1, 17):
        for j in range(1, 17):
            for sign in (1, -1):
                a = [2 ** k - 1] * length
                b = [sign * (2 ** j - 1)] * length
                assert mul(a, b) == _ref_mul(a, b)
                assert mul(a, b, length) == _ref_mul(a, b, length)


_coefficient = st.integers(-2 ** 90, 2 ** 90)


@settings(_differential, max_examples=100)
@given(_operand(), st.dictionaries(st.tuples(_coefficient, _coefficient),
                                   st.integers(0, 3), max_size=4))
@example([0, 0], {(3, 0): 1}).via("all-zero list")
@example([5], {(0, -1): 2}).via("one coefficient")
@example([7, -1], {(1, 2): 0}).via("no factor")
def test_mul_linear_matches_the_reference_loop(a, roots):
    want = tuple(a)
    for (p, q), k in roots.items():
        for _ in range(k):
            want = _ref_mul(want, [-p, q])
    assert mul_linear(a, roots) == want
    assert mul_linear(tuple(a), roots) == want


_value = st.one_of(st.integers(-2 ** 100, 2 ** 100),
                   st.fractions(max_denominator=10 ** 12))


@settings(_differential, max_examples=100)
@given(st.lists(_value, max_size=12))
@example([]).via("empty")
@example([0, 0, 0]).via("all-zero ints")
@example([Fraction(0), 0, Fraction(0, 7)]).via("all-zero Fractions")
@example([-3, Fraction(-1, 2), Fraction(5, -6)]).via("negative values")
@example([Fraction(1, 4), Fraction(1, 6)]).via("common factor in the dens")
def test_clear_matches_the_least_common_denominator(values):
    nums, den = clear(values)
    assert all(type(x) is int for x in nums) and type(den) is int
    assert [Fraction(x, den) for x in nums] == [Fraction(v) for v in values]
    # The least common denominator: the lcm of the values' own.
    assert den == lcm(*[Fraction(v).denominator for v in values])

"""Test oracle: rationals in a wrapper the integer series kernel rejects.

A ``Boxed`` value behaves like the ``int``/``Fraction`` it wraps, but it
is neither, so series over ``Boxed`` take the term-by-term loops of
``TruncSeries.__mul__`` (and so of the row products in
``MixedSeries.__mul__`` and ``MixedSeries.mul_qseries``),
``TruncSeries.__truediv__`` and ``TruncSeries.compose``, and
``series_reversion`` takes its dot products over the ring.  The
differential tests compare the integer kernel against those loops on the
same rationals.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st


class Boxed:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return Boxed(self.v + unbox(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Boxed(self.v - unbox(other))

    def __rsub__(self, other):
        return Boxed(unbox(other) - self.v)

    def __mul__(self, other):
        return Boxed(self.v * unbox(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Boxed(Fraction(self.v) / unbox(other))

    def __rtruediv__(self, other):
        return Boxed(Fraction(unbox(other)) / self.v)

    def __neg__(self):
        return Boxed(-self.v)

    def __eq__(self, other):
        return self.v == unbox(other)

    __hash__ = None

    def __repr__(self):
        return f"Boxed({self.v!r})"


def unbox(x):
    return x.v if isinstance(x, Boxed) else x


def box_all(coeffs) -> list:
    return [Boxed(c) for c in coeffs]


def unbox_all(coeffs) -> list:
    return [unbox(c) for c in coeffs]


# Integers and fractions wide enough for multi-byte slots; the fractions'
# denominators are mostly coprime, so clearing them multiplies them out.
rationals = st.one_of(
    st.integers(-2 ** 80, 2 ** 80),
    st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25),
              st.integers(1, 10 ** 4)))

"""Dense truncated power series over an exact coefficient ring.

A ``TruncSeries`` holds coefficients ``c0..cD`` of a series in one formal
variable, truncated at a fixed order ``D``.  Coefficients may be any ring
elements that support ``+``, ``-``, ``*`` among themselves and with plain
``int``/``Fraction`` scalars (``Fraction``, ``RatFunc``, ``HTruncPoly``, ...).
Binary operations require equal orders (``OrderMismatch`` otherwise).

Every substitution of one series into another goes through
``TruncSeries.compose``, fed with the inner series' ``powers``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, OrderMismatch

__all__ = [
    "TruncSeries",
    "series_exp",
    "series_log",
    "series_reversion",
]


class TruncSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise DomainError("truncation order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        return cls([value] + [0] * order, order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(1, order)

    @classmethod
    def variable(cls, order: int) -> "TruncSeries":
        """The series ``q`` itself (requires order >= 1)."""
        if order < 1:
            raise DomainError("variable requires order >= 1")
        c = [0] * (order + 1)
        c[1] = 1
        return cls(c, order)

    def __getitem__(self, d: int):
        return self.coeffs[d]

    def __iter__(self):
        return iter(self.coeffs)

    def _check(self, other: "TruncSeries") -> None:
        if not isinstance(other, TruncSeries):
            raise TypeError("operand is not a TruncSeries")
        if other.order != self.order:
            raise OrderMismatch(
                f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        self._check(other)
        return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                           self.order)

    def __sub__(self, other):
        self._check(other)
        return TruncSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                           self.order)

    def __neg__(self):
        return TruncSeries([-a for a in self.coeffs], self.order)

    def __mul__(self, other):
        """Cauchy product truncated at the common order."""
        self._check(other)
        D = self.order
        out = [0] * (D + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(D - i + 1):
                b = other.coeffs[j]
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncSeries(out, D)

    def scale(self, scalar) -> "TruncSeries":
        return TruncSeries([scalar * a for a in self.coeffs], self.order)

    def __truediv__(self, other):
        """Long division: c with other * c == self through the order."""
        self._check(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise DomainError("division by series with zero constant term")
        D = self.order
        out: list = []
        for k in range(D + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - out[j] * other.coeffs[k - j]
            out.append(_exact_div(acc, b0))
        return TruncSeries(out, D)

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            raise DomainError("negative powers not supported; divide instead")
        result = TruncSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def mul_q(self) -> "TruncSeries":
        """Multiply by the variable q (shift up; the top order falls off)."""
        return TruncSeries([0] + self.coeffs[: self.order], self.order)

    def powers(self, n: int) -> list["TruncSeries"]:
        """[1, s, s^2, ..., s^n] for this series s, each at its order.

        The list is what ``compose`` takes, so several outer series
        substituted into the same inner one share its powers.
        """
        out = [TruncSeries.one(self.order), self][: n + 1]
        while len(out) <= n:
            out.append(out[-1] * self)
        return out

    def compose(self, powers: list["TruncSeries"]) -> "TruncSeries":
        """Substitute an inner series s for the variable: self(s).

        ``powers`` is ``s.powers(n)`` with n >= the order; s must have
        zero constant term, so s^k starts at q^k and only the first
        ``order + 1`` powers matter.  Zero coefficients of ``self`` are
        skipped.  The coefficients of ``self`` and of s may come from any
        ring that multiplies with the other's (``Fraction``,
        ``RatFunc``, ...).
        """
        D = self.order
        if D:
            self._check(powers[1])
            if powers[1].coeffs[0] != 0:
                raise DomainError("composition requires inner constant term 0")
        out = [self.coeffs[0]] + [0] * D
        for k in range(1, D + 1):
            a = self.coeffs[k]
            if a == 0:
                continue
            p = powers[k].coeffs
            for e in range(k, D + 1):
                if p[e] != 0:
                    out[e] = out[e] + a * p[e]
        return TruncSeries(out, D)

    def map(self, fn: Callable) -> "TruncSeries":
        return TruncSeries([fn(a) for a in self.coeffs], self.order)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, tuple(str(c) for c in self.coeffs)))

    def __repr__(self):
        return f"TruncSeries({self.coeffs!r})"

    def __str__(self):
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c})*q^{d}" if d else f"({c})")
        return " + ".join(parts) if parts else "0"


def _exact_div(a, b):
    # Exact division in the coefficient ring; an int dividend becomes a
    # Fraction so that int / int stays exact.
    if isinstance(a, int):
        return Fraction(a) / b
    return a / b


def series_exp(a: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term.

    Solved order by order from E' = a'E, which only ever divides by an
    integer, so it works over any ring of characteristic zero.
    """
    if a.coeffs[0] != 0:
        raise DomainError("series_exp requires zero constant term")
    D = a.order
    out: list = [1]
    for k in range(1, D + 1):
        acc = 0
        for j in range(1, k + 1):
            term = a.coeffs[j]
            if term == 0:
                continue
            acc = acc + term * out[k - j] * j
        out.append(_exact_div(acc, k))
    return TruncSeries(out, D)


def series_log(u: TruncSeries) -> TruncSeries:
    """log of a series with constant term 1 (inverse expansion of exp)."""
    if u.coeffs[0] != 1:
        raise DomainError("series_log requires constant term 1")
    D = u.order
    out: list = [0]
    for k in range(1, D + 1):
        acc = 0
        for j in range(1, k):
            if out[j] == 0 or u.coeffs[k - j] == 0:
                continue
            acc = acc + out[j] * u.coeffs[k - j] * j
        out.append(u.coeffs[k] - _exact_div(acc, k))
    return TruncSeries(out, D)


def series_reversion(v: TruncSeries) -> TruncSeries:
    """Compositional inverse of the map q -> q*v(q), for v(0) = 1.

    Returns w with w(0) = 1 such that substituting q = q'*w(q') into
    q*v(q) gives back q' through the truncation order.  By Lagrange
    inversion w_j = [q^j] v^-(j+1) / (j+1): one series division and the
    powers of 1/v, O(D^3) ring operations.
    """
    if v.coeffs[0] != 1:
        raise DomainError("series_reversion requires v(0) = 1")
    D = v.order
    inv_pows = (TruncSeries.one(D) / v).powers(D + 1)
    return TruncSeries([_exact_div(inv_pows[j + 1].coeffs[j], j + 1)
                        for j in range(D + 1)], D)

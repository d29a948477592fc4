"""Dense truncated power series over an exact coefficient ring.

A ``TruncSeries`` holds coefficients ``c0..cD`` of a series in one formal
variable, truncated at a fixed order ``D``.  Coefficients may be any ring
elements that support ``+``, ``-``, ``*`` among themselves and with plain
``int``/``Fraction`` scalars (``Fraction``, ``RatFunc``, ``Laurent``, ...).
Binary operations require equal orders (``OrderMismatch`` otherwise).

Every substitution of series into another goes through ``compose_all``,
which takes the inner series itself and builds its ``powers`` once for all
the outer series; ``TruncSeries.compose`` is its one-series call.

Products over Q take one exact integer kernel (``q_mul``): when every
coefficient of both operands is an ``int`` or a ``Fraction``, their
numerators over a common denominator go through ``intpoly.mul``, the
product ``hbar`` takes too.  Over Q, these run on integer numerators:

* ``TruncSeries.__mul__`` takes ``q_mul``, and so do ``powers``,
  ``__pow__``, the row products of ``MixedSeries.__mul__`` and
  ``MixedSeries.mul_qseries``, and the H-blocks of
  ``hypergeom.hypersurface_series`` (series in H, truncated by H^m = 0);
* ``compose_all`` clears and packs each power of the inner series that
  some outer series over Q uses once, at one slot width that fits the
  widest of them, and makes each one packed linear combination of those
  shared powers (``_q_compose``);
* ``TruncSeries.__truediv__`` runs the long division's recurrence on
  integers (``_q_div``);
* ``series_reversion`` forms its dot products of powers.

Any other coefficient ring (``RatFunc``, ``Laurent``) keeps the
term-by-term loops.

The quintic pipeline gains most because the series it raises to powers
are integral.  The mirror map q exp(g(q)) has integer coefficients
(Lian-Yau, hep-th/9507151), so exp(g), its inverse 1/exp(g) (constant
term 1) and the reversion factor w have denominator 1 as well.  Their
powers then need no gcd at all, while their numerators grow to hundreds
of bits (532 in w at order 50).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .errors import DomainError, OrderMismatch
from .intpoly import bits, clear, mul as int_mul, pack, slot_bytes, unpack

__all__ = [
    "TruncSeries",
    "compose_all",
    "q_mul",
    "series_exp",
    "series_log",
    "series_reversion",
]


def _in_q(coeffs) -> bool:
    """Every coefficient is an int or a Fraction."""
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def _over_z(coeffs) -> tuple[list[int], int] | None:
    """``clear(coeffs)``, or None unless ``_in_q(coeffs)``."""
    return clear(coeffs) if _in_q(coeffs) else None


def _rationals(nums: Sequence[int], den: int) -> list:
    """nums[i] / den as a list, kept as ints when den is 1."""
    if den == 1:
        return list(nums)
    return [Fraction(c, den) for c in nums]


def q_mul(a: Sequence, b: Sequence, n: int) -> list | None:
    """The first ``n`` coefficients of the product of coefficient lists
    ``a`` and ``b`` (each of length ``n``), by ``intpoly.mul`` on their
    cleared numerators: ``int`` when both denominators are 1, else
    ``Fraction``.  None unless every coefficient is an ``int`` or a
    ``Fraction``; the caller then falls back to its term-by-term loop.
    """
    a = _over_z(a)
    b = None if a is None else _over_z(b)
    if b is None:
        return None
    (a_nums, a_den), (b_nums, b_den) = a, b
    return _rationals(int_mul(a_nums, b_nums, n), a_den * b_den)


def _q_div(a: list[int], a_den: int, b: list[int], b_den: int) -> list:
    """(a/a_den) / (b/b_den) through the order of ``a``, one ``Fraction``
    per coefficient, from integer numerators ``a`` and ``b`` (b[0] != 0).

    With b0 = b[0], x_k = b0^(k+1) [q^k](a/b) is an integer: the long
    division's recurrence times b0^(k+1) reads
    x_k = a_k b0^k - sum_(j<k) x_j b_(k-j) b0^(k-j-1).
    The quotient is x_k b_den / (a_den b0^(k+1)).
    """
    n = len(a)
    b0 = b[0]
    pw = [1]
    for _ in range(n):
        pw.append(pw[-1] * b0)
    scaled = [b[i] * pw[i - 1] for i in range(1, n)]   # b_i b0^(i-1)
    x: list[int] = []
    for k in range(n):
        x.append(a[k] * pw[k] - sum(map(mul, x, reversed(scaled[:k]))))
    return [Fraction(xk * b_den, a_den * pw[k + 1]) for k, xk in enumerate(x)]


def _q_compose(outers: Sequence[Sequence], powers: list["TruncSeries"],
               n: int) -> list[list]:
    """a[0] + sum_k a[k] * powers[k], the first ``n`` coefficients, for
    each coefficient list ``a`` of ``outers``, all of them and all the
    powers over Q.

    Each used power is cleared and packed once, at one slot width that
    fits the widest outer series, and every outer series is one packed
    linear combination of those powers with a single unpack.
    """
    cleared = [clear(a) for a in outers]
    ks = {k for a, _ in cleared for k in range(1, n) if a[k]}
    used = {k: clear(powers[k].coeffs) for k in ks}
    # Outer series a takes its powers over the lcm p_den of their
    # denominators: its constant is a[0] p_den, and power k enters as the
    # integer scalar a[k] p_den / den_k times the numerators of power k.
    # Scaling the scalars, not the powers, leaves one packing of each
    # power for every outer series.
    scalars, dens = [], []
    for a, a_den in cleared:
        p_den = lcm(*[used[k][1] for k in range(1, n) if a[k]])
        scalars.append([a[0] * p_den] + [a[k] and a[k] * (p_den // used[k][1])
                                         for k in range(1, n)])
        dens.append(a_den * p_den)
    # Slot e sums the constant and one scalar times a numerator of power k
    # per used k: at most n terms, each of at most the widest scalar's bits
    # plus the widest numerator's.
    width = slot_bytes(max(bits(b) for b in scalars),
                       max([1] + [bits(nums) for nums, _ in used.values()]),
                       n)
    accs = [b[0] for b in scalars]
    for k, (nums, _) in used.items():
        packed = pack(nums, width)
        for j, b in enumerate(scalars):
            if b[k]:
                accs[j] += b[k] * packed
    return [_rationals(unpack(acc, n, width), den)
            for acc, den in zip(accs, dens)]


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
        """Cauchy product truncated at the common order.

        Over Q this is one call of the integer kernel ``q_mul``.
        """
        self._check(other)
        D = self.order
        out = q_mul(self.coeffs, other.coeffs, D + 1)
        if out is not None:
            return TruncSeries(out, D)
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
        """Long division: c with other * c == self through the order.

        Over Q the recurrence runs on the integer numerators of both
        operands (``_q_div``); every coefficient of the quotient is a
        ``Fraction``, as the loop over any other ring gives.
        """
        self._check(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise DomainError("division by series with zero constant term")
        D = self.order
        a = _over_z(self.coeffs)
        b = None if a is None else _over_z(other.coeffs)
        if b is not None:
            return TruncSeries(_q_div(*a, *b), D)
        out: list = []
        for k in range(D + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - out[j] * other.coeffs[k - j]
            out.append(_exact_div(acc, b0))
        return TruncSeries(out, D)

    def __pow__(self, n: int) -> "TruncSeries":
        """Left-to-right binary powering, started from the base itself,
        so no product is a multiply by 1."""
        if n < 0:
            raise DomainError("negative powers not supported; divide instead")
        if n == 0:
            return TruncSeries.one(self.order)
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def mul_q(self) -> "TruncSeries":
        """Multiply by the variable q (shift up; the top order falls off)."""
        return TruncSeries([0] + self.coeffs[: self.order], self.order)

    def powers(self, n: int) -> list["TruncSeries"]:
        """[1, s, s^2, ..., s^n] for this series s, each at its order D.

        ``compose_all`` builds this list once per inner series, so every
        outer series substituted into it shares its powers.  With s of
        valuation v, s = q^v t and s^k = q^(kv) t^k, so t^k is built by
        products only through order D - kv: the ladder shrinks as k
        grows, and every power with kv > D is zero.
        """
        D = self.order
        out = [TruncSeries.one(D), self][: n + 1]
        v = next((i for i, c in enumerate(self.coeffs) if c != 0), D + 1)
        t = tk = TruncSeries(self.coeffs[v:], D - v) if v <= D else None
        for k in range(2, n + 1):
            top = D - k * v
            if top < 0:
                out.append(TruncSeries.zero(D))
                continue
            tk = TruncSeries(tk.coeffs, top) * TruncSeries(t.coeffs, top)
            out.append(TruncSeries([0] * (k * v) + tk.coeffs, D))
        return out

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` for the variable: self(inner).

        This is the one-series call of ``compose_all``, which holds the
        checks and both the packed and the term-by-term route.
        """
        return compose_all([self], inner)[0]

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
        return hash((self.order, tuple(self.coeffs)))

    def __repr__(self):
        return f"TruncSeries({self.coeffs!r})"

    def __str__(self):
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c})*q^{d}" if d else f"({c})")
        return " + ".join(parts) if parts else "0"


def compose_all(outers: Sequence[TruncSeries],
                inner: TruncSeries) -> list[TruncSeries]:
    """Substitute one inner series s into each outer series: [f(s), ...].

    s must have the outers' common order D and zero constant term, so only
    s^0..s^D matter; ``s.powers(D)`` is built once for all the outers.
    The coefficients of the outers and of s may come from any ring that
    multiplies with the other's (``Fraction``, ``RatFunc``, ...), and each
    outer takes its own ring's route: when s is over Q, the outers over Q
    are one packed linear combination each of the powers, every used
    power packed once (``_q_compose``); the others take the term loop.
    """
    D = outers[0].order
    for f in [*outers[1:], inner]:
        outers[0]._check(f)
    if inner.coeffs[0] != 0:
        raise DomainError("composition requires inner constant term 0")
    powers = inner.powers(D)
    over_q = _in_q(inner.coeffs)
    packs = [over_q and _in_q(f.coeffs) for f in outers]
    packed = iter(_q_compose([f.coeffs for f, p in zip(outers, packs) if p],
                             powers, D + 1) if any(packs) else ())
    return [TruncSeries(next(packed), D) if p
            else _loop_compose(f.coeffs, powers, D)
            for f, p in zip(outers, packs)]


def _loop_compose(a: list, powers: list[TruncSeries], D: int) -> TruncSeries:
    out = [a[0]] + [0] * D
    for k in range(1, D + 1):
        if a[k] == 0:
            continue
        p = powers[k].coeffs
        for e in range(k, D + 1):
            if p[e] != 0:
                out[e] = out[e] + a[k] * p[e]
    return TruncSeries(out, D)


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
    inversion w_j = [q^j] u^(j+1) / (j+1) with u = 1/v.  Each power is
    split by baby steps and giant steps (Brent-Kung, J. ACM 1978): with
    B = isqrt(D+1), u^(aB+b) = (u^B)^a * u^b for 0 <= b < B, so the
    B baby steps u^b and the (D+1)//B giant steps (u^B)^a cost about
    2 sqrt(D) series products, and each w_j is one dot product of length
    j+1: O(D^(5/2)) ring operations in all, where the full ladder of
    D + 2 powers took O(D^3).  Over Q the dot products run on the powers'
    integer numerators.
    """
    if v.coeffs[0] != 1:
        raise DomainError("series_reversion requires v(0) = 1")
    D = v.order
    B = isqrt(D + 1)
    baby = (TruncSeries.one(D) / v).powers(B)
    giant = baby[B].powers((D + 1) // B)
    # Each power as (numerators, denominator) over Q, else (coeffs, 1).
    baby = [_over_z(s.coeffs) or (s.coeffs, 1) for s in baby]
    giant = [_over_z(s.coeffs) or (s.coeffs, 1) for s in giant]
    out = []
    for j in range(D + 1):
        a, b = divmod(j + 1, B)
        (g, g_den), (s, s_den) = giant[a], baby[b]
        dot = sum(map(mul, g[:j + 1], reversed(s[:j + 1])))
        out.append(_exact_div(dot, g_den * s_den * (j + 1)))
    return TruncSeries(out, D)

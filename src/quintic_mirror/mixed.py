"""Nilpotent-H polynomials and the two-graded (X, q) mixed series ring.

``HTruncPoly`` models the cohomology presentation with H nilpotent:
multiplication simply discards every term of H-degree above the cap.
No pipeline code calls it: the hypersurface series, the ambient solution
among them, builds its H-blocks as ``TruncSeries`` in H.  It is kept for
the benchmark's layer binding and as the tests' reference route.

``MixedSeries`` models elements of Q[X]/(X^(top+1)) [[q]]: a finite
array of coefficients ``c[i][d]`` for X^i q^d.  Scalars may be Fraction
or RatFunc.  It serves two concepts:

* the hypersurface side, with X = H: a series W stands for e^(Ht) W
  with q = e^t, so no t axis is stored, d/dt acts on W as H + q d/dq
  (``mul_x`` and ``q_ddq``), and the mirror change of variables
  t = T - g multiplies W by e^(-Hg) (``substitute_mirror``);
* the double correlator Phi(z, q), with X = z.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial

from .errors import DomainError, OrderMismatch
from .series import TruncSeries, compose_all

__all__ = ["HTruncPoly", "MixedSeries"]


class HTruncPoly:
    """a0 + a1*H + ... + aN*H^N in the quotient by H^(N+1)."""

    __slots__ = ("c", "nilpotency")

    def __init__(self, coeffs: Sequence, nilpotency: int):
        if nilpotency < 1:
            raise DomainError("nilpotency order must be >= 1")
        c = list(coeffs)[:nilpotency]
        c += [0] * (nilpotency - len(c))
        self.c = c
        self.nilpotency = nilpotency

    @classmethod
    def const(cls, value, nilpotency: int) -> "HTruncPoly":
        return cls([value], nilpotency)

    @classmethod
    def h(cls, nilpotency: int) -> "HTruncPoly":
        return cls([0, 1], nilpotency)

    @staticmethod
    def _coerce(x, nilpotency: int):
        if isinstance(x, HTruncPoly):
            return x if x.nilpotency == nilpotency else None
        if isinstance(x, (int, Fraction)):
            return HTruncPoly([x], nilpotency)
        return None

    def __add__(self, other):
        other = HTruncPoly._coerce(other, self.nilpotency)
        if other is None:
            return NotImplemented
        return HTruncPoly([a + b for a, b in zip(self.c, other.c)],
                          self.nilpotency)

    __radd__ = __add__

    def __sub__(self, other):
        other = HTruncPoly._coerce(other, self.nilpotency)
        if other is None:
            return NotImplemented
        return HTruncPoly([a - b for a, b in zip(self.c, other.c)],
                          self.nilpotency)

    def __rsub__(self, other):
        other = HTruncPoly._coerce(other, self.nilpotency)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return HTruncPoly([-a for a in self.c], self.nilpotency)

    def __mul__(self, other):
        other = HTruncPoly._coerce(other, self.nilpotency)
        if other is None:
            return NotImplemented
        n = self.nilpotency
        out = [0] * n
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.c[j]
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return HTruncPoly(out, n)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HTruncPoly":
        if k < 0:
            raise DomainError("negative powers not supported; divide instead")
        result = HTruncPoly.const(1, self.nilpotency)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "HTruncPoly":
        """(a0 + N)^-1 via the finite geometric series in the nilpotent part."""
        a0 = self.c[0]
        if a0 == 0:
            raise DomainError("constant term not invertible")
        if isinstance(a0, int):
            inv0 = Fraction(1, a0)
        elif isinstance(a0, Fraction):
            inv0 = 1 / a0
        else:
            inv0 = a0.inverse()
        rest = HTruncPoly([0] + [-x * inv0 for x in self.c[1:]],
                          self.nilpotency)
        out = HTruncPoly.const(1, self.nilpotency)
        power = HTruncPoly.const(1, self.nilpotency)
        for _ in range(1, self.nilpotency):
            power = power * rest
            out = out + power
        return HTruncPoly([x * inv0 for x in out.c], self.nilpotency)

    def __truediv__(self, other):
        other = HTruncPoly._coerce(other, self.nilpotency)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def coeff(self, i: int):
        return self.c[i] if 0 <= i < self.nilpotency else 0

    def __eq__(self, other):
        other = HTruncPoly._coerce(other, self.nilpotency)
        if other is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.c, other.c))

    def __hash__(self):
        return hash((self.nilpotency, tuple(self.c)))

    def __repr__(self):
        terms = [f"({a})*H^{i}" for i, a in enumerate(self.c) if a != 0]
        return "HTruncPoly(" + (" + ".join(terms) or "0") + ")"


def _add_row(acc: list, row, scale=1) -> None:
    """acc += scale * row entry by entry, skipping the zeros of ``row``."""
    for e, b in enumerate(row):
        if b != 0:
            acc[e] = acc[e] + (b if scale == 1 else scale * b)


class MixedSeries:
    """Two-graded truncated element: sum c[i][d] X^i q^d with X^(top+1) = 0.

    ``top`` is the largest retained X-exponent and ``order`` the
    q-truncation (both inclusive).  Multiplication truncates in both
    gradings; the X cap is a nilpotency, while the q cap must be chosen
    by the caller to absorb the result.  Only ``substitute_mirror`` reads
    X as H with the factor e^(Ht) implicit (see
    ``hypergeom.hypersurface_series``).
    """

    __slots__ = ("c", "top", "order")

    def __init__(self, top: int, order: int, coeffs=None):
        if top < 0 or order < 0:
            raise DomainError("caps must be nonnegative")
        self.top = top
        self.order = order
        if coeffs is None:
            self.c = [[0] * (order + 1) for _ in range(top + 1)]
        else:
            self.c = coeffs

    @classmethod
    def constant(cls, value, top: int, order: int):
        out = cls(top, order)
        out.c[0][0] = value
        return out

    def clone(self) -> "MixedSeries":
        return MixedSeries(self.top, self.order, [row[:] for row in self.c])

    def coeff(self, i: int, d: int):
        if i > self.top or d > self.order:
            return 0
        return self.c[i][d]

    def row(self, i: int) -> TruncSeries:
        """The X^i coefficient, as a q-series."""
        return TruncSeries(self.c[i][:], self.order)

    def caps(self) -> tuple[int, int]:
        return (self.top, self.order)

    def _check(self, other: "MixedSeries") -> None:
        if self.caps() != other.caps():
            raise OrderMismatch(
                f"caps mismatch: {self.caps()} vs {other.caps()}")

    def _rows(self):
        """(i, row) for every X^i row with a nonzero entry."""
        return [(i, row) for i, row in enumerate(self.c)
                if any(x != 0 for x in row)]

    def __add__(self, other):
        self._check(other)
        out = self.clone()
        for i, row in other._rows():
            _add_row(out.c[i], row)
        return out

    def __sub__(self, other):
        self._check(other)
        out = self.clone()
        for i, row in other._rows():
            _add_row(out.c[i], row, -1)
        return out

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        """Each pair of nonzero rows is one ``TruncSeries`` product in q."""
        self._check(other)
        D = self.order
        out = MixedSeries(self.top, D)
        right = [(i, TruncSeries(row, D)) for i, row in other._rows()]
        for i1, row1 in self._rows():
            a = TruncSeries(row1, D)
            for i2, b in right:
                if i1 + i2 <= self.top:
                    _add_row(out.c[i1 + i2], (a * b).coeffs)
        return out

    def scale(self, scalar) -> "MixedSeries":
        return MixedSeries(self.top, self.order,
                           [[scalar * x for x in row] for row in self.c])

    def mul_qseries(self, s: TruncSeries) -> "MixedSeries":
        """Multiply by a pure q-series (Cauchy product in q only).

        Each nonzero row is one ``TruncSeries`` product with ``s``.
        """
        if s.order != self.order:
            raise OrderMismatch(
                f"q-order mismatch: {self.order} vs {s.order}")
        out = MixedSeries(self.top, self.order)
        for i, row in self._rows():
            out.c[i] = (TruncSeries(row, self.order) * s).coeffs
        return out

    def div_qseries(self, s: TruncSeries) -> "MixedSeries":
        return self.mul_qseries(TruncSeries.one(s.order) / s)

    def mul_q(self) -> "MixedSeries":
        """Multiply by q (shift q-order up; the top order falls off)."""
        return MixedSeries(self.top, self.order,
                           [[0] + row[: self.order] for row in self.c])

    def mul_x(self) -> "MixedSeries":
        """Multiply by X (shift X-degree up; the top row falls off)."""
        return MixedSeries(self.top, self.order,
                           [[0] * (self.order + 1)]
                           + [row[:] for row in self.c[: self.top]])

    def q_ddq(self) -> "MixedSeries":
        """q d/dq: X^i q^d -> d X^i q^d."""
        return MixedSeries(self.top, self.order,
                           [[d * x for d, x in enumerate(row)]
                            for row in self.c])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.c for x in row)

    def first_nonzero(self):
        """(i, d, value) of the first nonzero coefficient, or None."""
        for i, row in enumerate(self.c):
            for d, x in enumerate(row):
                if x != 0:
                    return (i, d, x)
        return None

    def __eq__(self, other):
        if not isinstance(other, MixedSeries):
            return NotImplemented
        # Every coefficient ring here has structural equality.
        return self.caps() == other.caps() and self.c == other.c

    def __repr__(self):
        return f"MixedSeries(top={self.top}, order={self.order})"

    def substitute_mirror(self, g: TruncSeries, w: TruncSeries) -> "MixedSeries":
        """Change of variables t = T - g(q(q')), q = q(q') = q'*w(q') on
        the series e^(Ht) M that this M stands for (X = H).

        ``g`` is the additive shift (g(0) = 0) and ``w`` the reversion
        factor with q'*w(q')*exp(g(q'*w(q'))) = q'.  Since
        e^(Ht) = e^(HT) e^(-Hg), the result is the series K that stands
        for e^(HT) K:

            K = (e^(-Hg) M) o q(q'),   e^(-Hg) = sum_k (-g)^k/k! H^k,

        with the same caps; composing with q(q') preserves q-adic order,
        so nothing is lost.  e^(-Hg) M is one ``MixedSeries`` product; a
        row of it that is zero or constant needs no composition (for the
        quintic J, rows H^0 and H^1 are 1 and 0), and the others go
        through one ``compose_all`` call, which packs each power of
        q(q') once for all of them.
        """
        if g.order != self.order or w.order != self.order:
            raise OrderMismatch("mirror substitution needs matching orders")
        if g.coeffs[0] != 0:
            raise DomainError("shift series must vanish at q = 0")
        if w.coeffs[0] != 1:
            raise DomainError("reversion factor must have constant term 1")
        D = self.order
        exp_g = [p.scale(Fraction((-1) ** k, factorial(k))).coeffs
                 for k, p in enumerate(g.powers(self.top))]
        out = self * MixedSeries(self.top, D, exp_g)
        pending = [(i, row) for i, row in out._rows()
                   if any(x != 0 for x in row[1:])]
        if pending:
            composed = compose_all(                 # into q(q') = q' w(q')
                [TruncSeries(row, D) for _, row in pending], w.mul_q())
            for (i, _), row in zip(pending, composed):
                out.c[i] = row.coeffs
        return out

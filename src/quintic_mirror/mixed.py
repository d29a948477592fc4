"""Nilpotent-H polynomials and the two-graded (X, q) mixed series ring.

``HTruncPoly`` is a polynomial in H modulo a power of H, reduced to its
constructor and product.  Neither the pipeline nor a test route uses it:
the hypersurface series, the ambient solution among them, builds its
H-blocks as ``TruncSeries`` in H, and so do the tests' references.  It
stays only while the benchmark binds its product as ``mixed.htrunc_mul``,
and is not exported.

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

__all__ = ["MixedSeries"]


class HTruncPoly:
    """a0 + a1*H + ... + aN*H^N in the quotient by H^(N+1).

    It holds only a constructor and a product, which exist for the
    benchmark's ``mixed.htrunc_mul`` layer binding and go with it.
    """

    __slots__ = ("c", "nilpotency")

    def __init__(self, coeffs: Sequence, nilpotency: int):
        if nilpotency < 1:
            raise DomainError("nilpotency order must be >= 1")
        c = list(coeffs)[:nilpotency]
        c += [0] * (nilpotency - len(c))
        self.c = c
        self.nilpotency = nilpotency

    def __mul__(self, other):
        n = self.nilpotency
        if isinstance(other, (int, Fraction)):
            other = HTruncPoly([other], n)
        elif not isinstance(other, HTruncPoly) or other.nilpotency != n:
            return NotImplemented
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

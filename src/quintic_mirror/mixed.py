"""Nilpotent-H polynomials and the (H, t, q) mixed series ring.

``HTruncPoly`` models the cohomology presentation with H nilpotent:
multiplication simply discards every term of H-degree above the cap.
It now serves only the ambient solution ``fundamental_solution``, whose
coefficients are ``Laurent`` polynomials in hbar; the hypersurface
series builds its H-blocks as ``TruncSeries`` in H.

``MixedSeries`` models elements of H*[t][[q]] with q = e^t: a finite
array of coefficients ``c[i][k][d]`` for H^i t^k q^d.  The derivative
in t obeys the chain rule d/dt (t^k q^d) = k t^{k-1} q^d + d t^k q^d.
Scalars may be Fraction, Laurent (for hbar-graded solutions) or RatFunc.
The double correlator Phi(z, q) is carried with h_top = 0 and z in the
t slot; z and q are independent there, so ``ddt`` (d/dt with q = e^t)
is not d/dz.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb

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
    """Triple-graded truncated element: sum c[i][k][d] H^i t^k q^d.

    ``h_top``/``t_top`` are the largest retained exponents (inclusive),
    ``order`` the q-truncation.  Multiplication truncates in all three
    gradings; H-truncation is the nilpotency H^(h_top+1) = 0, while the
    t and q caps must be chosen by the caller to absorb the result.
    The t slot may hold any variable independent of H and q (z for the
    double correlator, with h_top = 0); only ``ddt`` and
    ``substitute_mirror`` read it as t with q = e^t.
    """

    __slots__ = ("c", "h_top", "t_top", "order")

    def __init__(self, h_top: int, t_top: int, order: int, coeffs=None):
        if h_top < 0 or t_top < 0 or order < 0:
            raise DomainError("caps must be nonnegative")
        self.h_top = h_top
        self.t_top = t_top
        self.order = order
        if coeffs is None:
            self.c = [[[0] * (order + 1) for _ in range(t_top + 1)]
                      for _ in range(h_top + 1)]
        else:
            self.c = coeffs

    @classmethod
    def constant(cls, value, h_top: int, t_top: int, order: int):
        out = cls(h_top, t_top, order)
        out.c[0][0][0] = value
        return out

    def clone(self) -> "MixedSeries":
        return MixedSeries(
            self.h_top, self.t_top, self.order,
            [[row[:] for row in plane] for plane in self.c])

    def coeff(self, i: int, k: int, d: int):
        if i > self.h_top or k > self.t_top or d > self.order:
            return 0
        return self.c[i][k][d]

    def set_coeff(self, i, k, d, value) -> None:
        self.c[i][k][d] = value

    def caps(self) -> tuple[int, int, int]:
        return (self.h_top, self.t_top, self.order)

    def _check(self, other: "MixedSeries") -> None:
        if self.caps() != other.caps():
            raise OrderMismatch(
                f"caps mismatch: {self.caps()} vs {other.caps()}")

    def _rows(self):
        """(i, k, row) for every (H^i, t^k) row with a nonzero entry."""
        return [(i, k, row) for i, plane in enumerate(self.c)
                for k, row in enumerate(plane)
                if any(x != 0 for x in row)]

    def __add__(self, other):
        self._check(other)
        out = self.clone()
        for i, k, row in other._rows():
            _add_row(out.c[i][k], row)
        return out

    def __sub__(self, other):
        self._check(other)
        out = self.clone()
        for i, k, row in other._rows():
            _add_row(out.c[i][k], row, -1)
        return out

    def __neg__(self):
        out = self.clone()
        for i in range(self.h_top + 1):
            for k in range(self.t_top + 1):
                out.c[i][k] = [-x for x in out.c[i][k]]
        return out

    def __mul__(self, other):
        """Each pair of nonzero rows is one ``TruncSeries`` product in q."""
        self._check(other)
        D = self.order
        out = MixedSeries(self.h_top, self.t_top, D)
        right = [(i, k, TruncSeries(row, D)) for i, k, row in other._rows()]
        for i1, k1, row1 in self._rows():
            a = TruncSeries(row1, D)
            for i2, k2, b in right:
                if i1 + i2 <= self.h_top and k1 + k2 <= self.t_top:
                    _add_row(out.c[i1 + i2][k1 + k2], (a * b).coeffs)
        return out

    def scale(self, scalar) -> "MixedSeries":
        out = self.clone()
        for i in range(self.h_top + 1):
            for k in range(self.t_top + 1):
                out.c[i][k] = [scalar * x for x in out.c[i][k]]
        return out

    def mul_qseries(self, s: TruncSeries) -> "MixedSeries":
        """Multiply by a pure q-series (Cauchy product in q only).

        Each nonzero row is one ``TruncSeries`` product with ``s``.
        """
        if s.order != self.order:
            raise OrderMismatch(
                f"q-order mismatch: {self.order} vs {s.order}")
        out = MixedSeries(self.h_top, self.t_top, self.order)
        for i, k, row in self._rows():
            out.c[i][k] = (TruncSeries(row, self.order) * s).coeffs
        return out

    def div_qseries(self, s: TruncSeries) -> "MixedSeries":
        return self.mul_qseries(TruncSeries.one(s.order) / s)

    def mul_q(self) -> "MixedSeries":
        """Multiply by q = e^t (shift q-order up; the top order falls off)."""
        out = MixedSeries(self.h_top, self.t_top, self.order)
        for i in range(self.h_top + 1):
            for k in range(self.t_top + 1):
                row = self.c[i][k]
                out.c[i][k] = [0] + row[: self.order]
        return out

    def ddt(self) -> "MixedSeries":
        """d/dt with q = e^t: t^k q^d -> k t^(k-1) q^d + d t^k q^d."""
        out = MixedSeries(self.h_top, self.t_top, self.order)
        for i in range(self.h_top + 1):
            for k in range(self.t_top + 1):
                row = self.c[i][k]
                for d in range(self.order + 1):
                    a = row[d]
                    if a == 0:
                        continue
                    if k > 0:
                        out.c[i][k - 1][d] = out.c[i][k - 1][d] + k * a
                    if d > 0:
                        out.c[i][k][d] = out.c[i][k][d] + d * a
        return out

    def h_component(self, i: int) -> "MixedSeries":
        """The H^i coefficient as an (t, q) series (h_top = 0)."""
        out = MixedSeries(0, self.t_top, self.order)
        out.c[0] = [row[:] for row in self.c[i]]
        return out

    def t_zero_part(self, i: int) -> TruncSeries:
        """The t^0 part of the H^i component, as a q-series."""
        return TruncSeries(self.c[i][0][:], self.order)

    def is_zero(self) -> bool:
        return all(x == 0
                   for plane in self.c for row in plane for x in row)

    def first_nonzero(self):
        """(i, k, d, value) of the first nonzero coefficient, or None."""
        for i in range(self.h_top + 1):
            for k in range(self.t_top + 1):
                for d in range(self.order + 1):
                    if self.c[i][k][d] != 0:
                        return (i, k, d, self.c[i][k][d])
        return None

    def __eq__(self, other):
        if not isinstance(other, MixedSeries):
            return NotImplemented
        return self.caps() == other.caps() and (self - other).is_zero()

    def __repr__(self):
        return (f"MixedSeries(h_top={self.h_top}, t_top={self.t_top}, "
                f"order={self.order})")

    def substitute_mirror(self, g: TruncSeries, w: TruncSeries) -> "MixedSeries":
        """Change of variables t = T - g(q(q')), q = q'*w(q').

        ``g`` is the additive shift (g(0) = 0) and ``w`` the reversion
        factor with q'*w(q')*exp(g(q'*w(q'))) = q'.  The result is a
        MixedSeries in (T, q') with the same caps; the substitution
        preserves q-adic order and t-degree, so nothing is lost.

        Composing with q(q') is a ring homomorphism of series truncated
        at the order, since q(q') has zero constant term.  So the t-shift
        is done in q first, and each output row is composed afterwards:

            row(H^i, T^j)
                = [sum_(k>=j) C(k, j) (-g)^(k-j) row(H^i, t^k)] o q(q').

        A shifted row that is zero or constant needs no composition (for
        the quintic J, J_1 = g makes three rows vanish and four are
        constants), and the others go through one ``compose_all`` call,
        which packs each power of q(q') once for all of them.
        """
        if g.order != self.order or w.order != self.order:
            raise OrderMismatch("mirror substitution needs matching orders")
        if g.coeffs[0] != 0:
            raise DomainError("shift series must vanish at q = 0")
        if w.coeffs[0] != 1:
            raise DomainError("reversion factor must have constant term 1")
        D = self.order
        g_pows = g.powers(self.t_top)
        out = MixedSeries(self.h_top, self.t_top, D)
        for i, k, row in self._rows():
            row = TruncSeries(row, D)
            for j in range(k + 1):
                term = row * g_pows[k - j] if j < k else row
                _add_row(out.c[i][j], term.coeffs,
                         comb(k, j) * (-1) ** (k - j))
        pending = [(i, j, row) for i, j, row in out._rows()
                   if any(x != 0 for x in row[1:])]
        if pending:
            composed = compose_all(                 # into q(q') = q' w(q')
                [TruncSeries(row, D) for _, _, row in pending], w.mul_q())
            for (i, j, _), row in zip(pending, composed):
                out.c[i][j] = row.coeffs
        return out

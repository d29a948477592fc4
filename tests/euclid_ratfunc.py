"""Test oracle: the Euclidean rational-function field in hbar.

``EuclidRatFunc`` is the representation ``quintic_mirror.hbar.RatFunc``
used before denominators were stored factored: a numerator ``Poly`` over
a dense monic denominator ``Poly``, reduced to lowest terms with the
Euclidean ``Poly.gcd``.  It accepts any denominator, split or not, so the
differential tests compare the factored field against it on split
inputs.
"""

from __future__ import annotations

from fractions import Fraction

from quintic_mirror.errors import DomainError, PoleError, StructureError
from quintic_mirror.hbar import Poly, _frac


def _quo(a: Poly, b: Poly) -> Poly:
    return a.divmod(b)[0]


class EuclidRatFunc:
    """num/den in lowest terms, den monic and nonzero.

    Construction normalizes, trying exact division first (the common case
    in the class-P sums, where denominators provably clear) and falling
    back to a gcd reduction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized: bool = False):
        num = num if isinstance(num, Poly) else Poly._coerce(num)
        if den is None:
            den = Poly([1])
        else:
            den = den if isinstance(den, Poly) else Poly._coerce(den)
        if num is None or den is None:
            raise TypeError("EuclidRatFunc components must be Poly-coercible")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if _normalized:
            self.num, self.den = num, den
            return
        if num.is_zero():
            self.num, self.den = Poly(), Poly([1])
            return
        if den.degree == 0:
            lead = den.c[0]
            self.num = num if lead == 1 else Poly(x / lead for x in num.c)
            self.den = Poly([1])
            return
        quot, rem = num.divmod(den)
        if rem.is_zero():
            self.num, self.den = quot, Poly([1])
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = _quo(num, g)
            den = _quo(den, g)
        lead = den.leading()
        if lead != 1:
            num = Poly(x / lead for x in num.c)
            den = Poly(x / lead for x in den.c)
        self.num, self.den = num, den

    @classmethod
    def const(cls, x) -> "EuclidRatFunc":
        return cls(Poly([x]), Poly([1]), _normalized=True)

    @staticmethod
    def _coerce(x):
        if isinstance(x, EuclidRatFunc):
            return x
        if isinstance(x, Poly):
            return EuclidRatFunc(x, Poly([1]), _normalized=True)
        if isinstance(x, (int, Fraction)):
            return EuclidRatFunc.const(x)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise DomainError(f"not a polynomial: denominator {self.den!r}")
        return self.num

    def __add__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        g = self.den.gcd(other.den)
        if g.degree > 0:
            da = _quo(self.den, g)
            db = _quo(other.den, g)
            num = self.num * db + other.num * da
            den = self.den * db
        else:
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
        return EuclidRatFunc(num, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return EuclidRatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return EuclidRatFunc.const(0)
        # Cross-reduce before multiplying to keep degrees down.
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = _quo(self.num, g1) if g1.degree > 0 else self.num
        d2 = _quo(other.den, g1) if g1.degree > 0 else other.den
        n2 = _quo(other.num, g2) if g2.degree > 0 else other.num
        d1 = _quo(self.den, g2) if g2.degree > 0 else self.den
        return EuclidRatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "EuclidRatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return EuclidRatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "EuclidRatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return EuclidRatFunc(self.num ** n, self.den ** n, _normalized=True)

    def eval(self, x) -> Fraction:
        x = _frac(x)
        d = self.den.eval(x)
        if d == 0:
            raise PoleError(x)
        return self.num.eval(x) / d

    __call__ = eval

    def subs_neg(self) -> "EuclidRatFunc":
        den = self.den.subs_neg()
        lead = den.leading()
        num = self.num.subs_neg()
        if lead != 1:
            num = Poly(v / lead for v in num.c)
            den = Poly(v / lead for v in den.c)
        return EuclidRatFunc(num, den, _normalized=True)

    def laurent_at_infinity(self, depth: int) -> tuple[Fraction, ...]:
        """Coefficients of hbar^0, hbar^-1, ..., hbar^-depth at hbar=infinity.

        Requires deg(num) <= deg(den); otherwise positive powers of hbar
        would be present, which this expansion cannot represent.
        """
        if self.is_zero():
            return tuple(Fraction(0) for _ in range(depth + 1))
        n, d = self.num.degree, self.den.degree
        if n > d:
            raise StructureError(
                f"positive hbar powers present (deg num {n} > deg den {d})")
        # In u = 1/hbar: num/den = u^{d-n} * rev(num)(u)/rev(den)(u) with
        # rev(den)(0) = 1 since den is monic.
        shift = d - n
        rnum = list(reversed(self.num.c))
        rden = list(reversed(self.den.c))
        out = []
        series: list[Fraction] = []
        for k in range(depth + 1):
            if k < shift:
                out.append(Fraction(0))
                continue
            j = k - shift
            acc = rnum[j] if j < len(rnum) else Fraction(0)
            for i in range(j):
                bidx = j - i
                if bidx < len(rden):
                    acc -= series[i] * rden[bidx]
            series.append(acc)
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        other = EuclidRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"

"""Exact arithmetic in the formal parameter hbar.

Three representations, each matching one role in the pipeline:

* ``Poly``    -- dense univariate polynomial over Fraction.
* ``RatFunc`` -- numerator ``Poly`` over a factored monic denominator,
  stored as a root multiset {root: multiplicity}, in lowest terms (so
  ``==`` is structural equality).  Every denominator the pipeline builds
  is a product of linear forms in hbar: the Z* factors
  lam_i - lam_a + r hbar (``hypergeom.zstar_family`` passes their roots
  directly), the recursion edges lam_i - lam_j + d hbar, the Newton-node
  differences, the 1/hbar of the transformations, and their images under
  hbar -> -hbar.  Sums take the per-root maximum as common denominator,
  products cross-reduce numerators against the other operand's roots, and
  a cancellation is one synthetic division, so no polynomial gcd is ever
  needed.
* ``Laurent`` -- finite Laurent polynomial (integer exponents of either
  sign), used for the ambient fundamental solution where every
  coefficient is a polynomial in 1/hbar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import DomainError, PoleError, StructureError

__all__ = ["Poly", "RatFunc", "Laurent"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class Poly:
    """Polynomial in hbar with Fraction coefficients, lowest degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable = ()):
        c = [_frac(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def const(cls, x) -> "Poly":
        return cls([x])

    @classmethod
    def hbar(cls, power: int = 1) -> "Poly":
        return cls([0] * power + [1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def leading(self) -> Fraction:
        if not self.c:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def coeff(self, k: int) -> Fraction:
        return self.c[k] if 0 <= k < len(self.c) else Fraction(0)

    def monic(self) -> "Poly":
        if not self.c:
            return self
        lead = self.c[-1]
        if lead == 1:
            return self
        return Poly(x / lead for x in self.c)

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly([x])
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.c), len(other.c))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.c), len(other.c))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly([-x for x in self.c])

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if not self.c or not other.c:
            return Poly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        dq = len(self.c) - len(other.c)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        dlead = other.c[-1]
        for k in range(dq, -1, -1):
            coef = rem[k + len(other.c) - 1] / dlead
            quot[k] = coef
            if coef:
                for j, b in enumerate(other.c):
                    rem[k + j] -= coef * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm.

        Remainders are re-normalized to monic at every step to keep the
        Fraction coefficients from exploding along the remainder sequence.
        """
        a, b = self, other
        while not b.is_zero():
            r = a % b
            a, b = b, r.monic()
        return a.monic()

    def eval(self, x) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for coef in reversed(self.c):
            acc = acc * x + coef
        return acc

    __call__ = eval

    def subs_neg(self) -> "Poly":
        """Substitute hbar -> -hbar."""
        return Poly(
            (-x if k % 2 else x) for k, x in enumerate(self.c))

    def deflate_root(self, r: Fraction) -> "Poly | None":
        """Divide out (hbar - r) if r is a root, else None."""
        quot, rem = _deflate(self.c, _frac(r))
        return None if rem else Poly(quot)

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        terms = [f"{x}*h^{k}" for k, x in enumerate(self.c) if x != 0]
        return "Poly(" + " + ".join(terms) + ")"


def _deflate(c: tuple, r: Fraction) -> tuple[tuple, Fraction]:
    """Synthetic division of sum c[k] hbar^k by (hbar - r).

    One Horner pass gives the quotient's coefficients and the remainder,
    which is the value at r.
    """
    if not c:
        return (), Fraction(0)
    if r == 0:
        return c[1:], c[0]
    acc = c[-1]
    quot = [acc]
    for x in c[-2::-1]:
        acc = x + r * acc
        quot.append(acc)
    rem = quot.pop()
    return tuple(reversed(quot)), rem


def _times_roots(c: tuple, roots: dict) -> tuple:
    """Coefficients of (sum c[k] hbar^k) * prod (hbar - r)^k over roots."""
    c = list(c)
    for r, k in roots.items():
        for _ in range(k):
            if r == 0:
                c.insert(0, Fraction(0))
            else:
                c = ([-r * c[0]]
                     + [c[i - 1] - r * c[i] for i in range(1, len(c))]
                     + [c[-1]])
    return tuple(c)


def _cancel(c: tuple, roots: dict, candidates) -> tuple:
    """Divide (hbar - r) out of c as often as both c and roots allow.

    Only the roots in ``candidates`` are tried.  ``roots`` is a fresh dict
    owned by the caller and is updated in place; the reduced coefficients
    are returned.
    """
    for r in candidates:
        k = roots[r]
        while k:
            quot, rem = _deflate(c, r)
            if rem:
                break
            c, k = quot, k - 1
        if k:
            roots[r] = k
        else:
            del roots[r]
    return c


def _missing(lcm: dict, roots: dict) -> dict:
    """The factors of lcm that roots lacks, as a root multiset."""
    return {r: k - roots.get(r, 0) for r, k in lcm.items()
            if k > roots.get(r, 0)}


class RatFunc:
    """num / prod (hbar - root)^mult in lowest terms.

    The denominator is kept factored, as a root multiset ``roots``
    ({root: multiplicity}) standing for a monic product of linear forms:
    every denominator the pipeline produces is one.  Lowest terms means
    ``num`` vanishes at no stored root, so the form is canonical and
    ``==`` is structural equality.

    A denominator is given as a root mapping (``zstar_family``) or as a
    ``Poly`` of degree at most 1 (the recursion edges lam_i - lam_j + d
    hbar, the 1/hbar prefactors, the Newton-node differences).  A ``Poly``
    of higher degree raises ``StructureError``, as does inverting a
    numerator of degree above 1: neither would split into known roots.
    ``den`` rebuilds the expanded monic denominator on demand.
    """

    __slots__ = ("num", "roots", "_den")

    def __init__(self, num, den=None, _normalized: bool = False):
        num = num if isinstance(num, Poly) else Poly._coerce(num)
        if num is None:
            raise TypeError("RatFunc components must be Poly-coercible")
        if den is None:
            roots = {}
        elif isinstance(den, dict):
            roots = den
        else:
            den = den if isinstance(den, Poly) else Poly._coerce(den)
            if den is None:
                raise TypeError("RatFunc components must be Poly-coercible")
            if den.is_zero():
                raise ZeroDivisionError(
                    "rational function with zero denominator")
            if den.degree > 1:
                raise StructureError(
                    f"denominator {den!r} is not a linear form in hbar")
            lead = den.c[-1]
            if lead != 1:
                num = Poly(x / lead for x in num.c)
            roots = {-den.c[0] / lead: 1} if den.degree == 1 else {}
        if not _normalized:
            if num.is_zero():
                roots = {}
            elif roots:
                roots = dict(roots)
                num = Poly(_cancel(num.c, roots, list(roots)))
        self.num = num
        self.roots = roots
        self._den = None

    @property
    def den(self) -> Poly:
        """The monic denominator prod (hbar - root)^mult, expanded."""
        if self._den is None:
            self._den = Poly(_times_roots((Fraction(1),), self.roots))
        return self._den

    @classmethod
    def const(cls, x) -> "RatFunc":
        return cls(Poly([x]), _normalized=True)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc(x, _normalized=True)
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.roots

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise DomainError(f"not a polynomial: denominator {self.den!r}")
        return self.num

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        ra, rb = self.roots, other.roots
        roots = dict(ra)
        for r, k in rb.items():
            if k > roots.get(r, 0):
                roots[r] = k
        num = (Poly(_times_roots(self.num.c, _missing(roots, ra)))
               + Poly(_times_roots(other.num.c, _missing(roots, rb))))
        if num.is_zero():
            return RatFunc(num, _normalized=True)
        # The sum can vanish only at a root both operands hold equally often.
        tied = [r for r, k in ra.items() if rb.get(r) == k]
        return RatFunc(Poly(_cancel(num.c, roots, tied)), roots,
                       _normalized=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RatFunc(-self.num, self.roots, _normalized=True)

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc.const(0)
        ra, rb = self.roots, other.roots
        roots = dict(ra)
        for r, k in rb.items():
            roots[r] = roots.get(r, 0) + k
        # Cross-reduce: a numerator can only cancel the other's roots.
        n1 = _cancel(self.num.c, roots, [r for r in rb if r not in ra])
        n2 = _cancel(other.num.c, roots, [r for r in ra if r not in rb])
        return RatFunc(Poly(n1) * Poly(n2), roots, _normalized=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        if self.num.degree > 1:
            raise StructureError(
                f"inverse of {self!r} would need a non-linear denominator")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        roots = {r: k * n for r, k in self.roots.items()} if n else {}
        return RatFunc(self.num ** n, roots, _normalized=True)

    def eval(self, x) -> Fraction:
        x = _frac(x)
        if x in self.roots:
            raise PoleError(x)
        d = Fraction(1)
        for r, k in self.roots.items():
            d *= (x - r) ** k
        return self.num.eval(x) / d

    __call__ = eval

    def subs_neg(self) -> "RatFunc":
        """Substitute hbar -> -hbar: roots change sign.

        prod(-hbar - r)^k = (-1)^(sum k) prod(hbar + r)^k, so the numerator
        absorbs the sign of an odd total multiplicity.
        """
        num = self.num.subs_neg()
        if sum(self.roots.values()) % 2:
            num = -num
        return RatFunc(num, {-r: k for r, k in self.roots.items()},
                       _normalized=True)

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
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.roots == other.roots

    def __hash__(self):
        return hash((self.num, frozenset(self.roots.items())))

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


class Laurent:
    """Finite Laurent polynomial in hbar over Fraction."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict | None = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _frac(v)
                if v != 0:
                    c[k] = v
        self.c = c

    @classmethod
    def const(cls, x) -> "Laurent":
        return cls({0: x})

    @classmethod
    def unit(cls, power: int, x=1) -> "Laurent":
        """x * hbar^power (power may be negative)."""
        return cls({power: x})

    @staticmethod
    def _coerce(x):
        if isinstance(x, Laurent):
            return x
        if isinstance(x, (int, Fraction)):
            return Laurent({0: x})
        return None

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, k: int) -> Fraction:
        return self.c.get(k, Fraction(0))

    def min_power(self) -> int:
        return min(self.c) if self.c else 0

    def max_power(self) -> int:
        return max(self.c) if self.c else 0

    def __add__(self, other):
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k, Fraction(0)) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return Laurent(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Laurent({k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                s = out.get(k, Fraction(0)) + v1 * v2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Laurent({k: v / other for k, v in self.c.items()})
        return NotImplemented

    def inverse(self) -> "Laurent":
        """Inverse of a monomial c*hbar^k; other shapes are not units."""
        if len(self.c) != 1:
            raise DomainError("only monomial Laurent elements are invertible")
        ((k, v),) = self.c.items()
        return Laurent({-k: 1 / v})

    def shift(self, powers: int) -> "Laurent":
        """Multiply by hbar^powers."""
        return Laurent({k + powers: v for k, v in self.c.items()})

    def __eq__(self, other):
        other = Laurent._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __repr__(self):
        if not self.c:
            return "Laurent(0)"
        terms = [f"{v}*h^{k}" for k, v in sorted(self.c.items())]
        return "Laurent(" + " + ".join(terms) + ")"

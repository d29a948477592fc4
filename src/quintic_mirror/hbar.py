"""Exact arithmetic in the formal parameter hbar.

One integer form underlies ``Poly`` and ``RatFunc``: a polynomial is
content * N, with N a primitive integer coefficient tuple (gcd 1, positive
leading coefficient, lowest degree first, ``()`` for zero) and the content
a Fraction carrying sign and scale.  Both classes run on the same
module-level kernels over these tuples.  By Gauss's lemma, products and
exact quotients of primitive tuples stay primitive, so only a sum needs a
gcd pass over its coefficients.

* ``Poly``    -- content * N; ``c`` is its Fraction coefficient view.
* ``RatFunc`` -- content * N / prod (q hbar - p)^k in lowest terms, the
  denominator a root multiset {(p, q): k} keyed by integer pairs, so the
  form is canonical and ``==`` is structural equality.  Every denominator
  the pipeline builds is a product of linear forms in hbar: the Z*
  factors lam_i - lam_a + r hbar, the recursion edges lam_i - lam_j +
  d hbar, the Newton-node differences, the 1/hbar of the transformations,
  and their images under hbar -> -hbar.  A missing root p/q multiplies N
  by (q hbar - p), a cancellation is exact top-down integer division by
  it, and no polynomial gcd is ever needed.

  Every sum of ``RatFunc`` values goes through one n-ary kernel
  (``RatFunc.lincomb``; ``+`` is its two-term call).  It brings each term
  to the common root multiset, which holds every root at the largest
  multiplicity of any term, accumulates the integer numerators over the
  common denominator of the contents and makes one ``_split``.  A term
  holding only a few of the common roots gets its cofactor as the exact
  quotient of the expanded common denominator by its own factors, so a
  sum of many one-root terms over n roots costs O(n^2).  Reduction rule:
  the sum can vanish at a root only if two or more terms hold it at the
  largest multiplicity (a term alone there is nonzero at the root, and
  every other term carries the factor), so ``_reduce`` tries those roots
  and no others.
* ``Laurent`` -- finite Laurent polynomial (integer exponents of either
  sign), used for the ambient fundamental solution where every
  coefficient is a polynomial in 1/hbar.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable

from .errors import DomainError, PoleError, StructureError

__all__ = ["Poly", "RatFunc", "Laurent"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def _split(ints: list, den: int) -> tuple[Fraction, tuple]:
    """Split sum ints[k] hbar^k / den into (content, primitive tuple).

    The integer tuple has gcd 1 and a positive leading coefficient; the
    zero polynomial gives (0, ()).
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return Fraction(0), ()
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
    return Fraction(g, den), tuple(ints)


def _lin(ca: Fraction, a: tuple, cb: Fraction, b: tuple) -> tuple:
    """ca a + cb b as (content, primitive tuple), over a common denominator."""
    den = lcm(ca.denominator, cb.denominator)
    fa = ca.numerator * (den // ca.denominator)
    fb = cb.numerator * (den // cb.denominator)
    return _split([fa * x + fb * y for x, y in zip_longest(a, b, fillvalue=0)],
                  den)


def _conv(a: tuple, b: tuple) -> tuple:
    """Product of two primitive integer coefficient tuples."""
    if len(a) == 1:             # the only primitive constant is (1,)
        return b
    if len(b) == 1:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return tuple(out)


def _horner(n: tuple, a: int, b: int) -> int:
    """b^deg N(a/b) for a nonzero integer tuple N, by homogeneous Horner."""
    acc, bk = n[-1], 1
    for c in n[-2::-1]:
        bk *= b
        acc = acc * a + c * bk
    return acc


def _reflect(n: tuple) -> tuple[int, tuple]:
    """(odd, M) with N(-hbar) = (-1)^odd M and M primitive, for N nonzero."""
    odd = (len(n) - 1) % 2
    return odd, tuple(-x if i % 2 != odd else x for i, x in enumerate(n))


def _hash(content: Fraction, n: tuple) -> int:
    """Hash of content * n; a constant hashes like its Fraction value,
    since ``==`` equates them (and a root-free ``RatFunc`` with its
    ``Poly``)."""
    return hash(content) if len(n) <= 1 else hash((n, content))


class Poly:
    """content * N, a polynomial in hbar over Q: a ``RatFunc`` with no roots.

    ``c``, the Fraction coefficients lowest degree first, is built on each
    read, for printing, expansions at infinity and the Euclidean
    ``divmod``/``gcd``; arithmetic never reads it.
    """

    __slots__ = ("_n", "_content")

    def __init__(self, coeffs: Iterable = ()):
        c = [_frac(x) for x in coeffs]
        den = lcm(*(x.denominator for x in c))
        self._content, self._n = _split(
            [x.numerator * (den // x.denominator) for x in c], den)

    @classmethod
    def _of(cls, content: Fraction, n: tuple) -> "Poly":
        """The polynomial content * n from a primitive tuple, as it is."""
        out = object.__new__(cls)
        out._content, out._n = content, n
        return out

    @property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(self._content * x for x in self._n)

    @classmethod
    def const(cls, x) -> "Poly":
        return cls([x])

    @classmethod
    def hbar(cls, power: int = 1) -> "Poly":
        return cls._of(Fraction(1), (0,) * power + (1,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._n) - 1

    def is_zero(self) -> bool:
        return not self._n

    def leading(self) -> Fraction:
        if not self._n:
            raise DomainError("zero polynomial has no leading coefficient")
        return self._content * self._n[-1]

    def coeff(self, k: int) -> Fraction:
        n = self._n
        return self._content * n[k] if 0 <= k < len(n) else Fraction(0)

    def monic(self) -> "Poly":
        if not self._n:
            return self
        return Poly._of(Fraction(1, self._n[-1]), self._n)

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly._of(_frac(x), (1,) if x else ())
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        return Poly._of(*_lin(self._content, self._n,
                              other._content, other._n))

    __radd__ = __add__

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Poly._of(-self._content, self._n)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if not self._n or not other._n:
            return Poly._of(Fraction(0), ())
        return Poly._of(self._content * other._content,
                        _conv(self._n, other._n))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative powers not supported")
        if n == 0:
            return Poly._of(Fraction(1), (1,))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.c, other.c
        rem = list(a)
        dq = len(a) - len(b)
        if dq < 0:
            return Poly(), self
        quot = [Fraction(0)] * (dq + 1)
        dlead = b[-1]
        for k in range(dq, -1, -1):
            coef = rem[k + len(b) - 1] / dlead
            quot[k] = coef
            if coef:
                for j, y in enumerate(b):
                    rem[k + j] -= coef * y
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

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
        n = self._n
        if not n:
            return Fraction(0)
        b = x.denominator
        return self._content * Fraction(_horner(n, x.numerator, b),
                                        b ** (len(n) - 1))

    __call__ = eval

    def subs_neg(self) -> "Poly":
        """Substitute hbar -> -hbar."""
        if not self._n:
            return self
        odd, n = _reflect(self._n)
        return Poly._of(-self._content if odd else self._content, n)

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self._n == other._n and self._content == other._content

    def __hash__(self):
        return _hash(self._content, self._n)

    def __repr__(self):
        if not self._n:
            return "Poly(0)"
        terms = [f"{x}*h^{k}" for k, x in enumerate(self.c) if x != 0]
        return "Poly(" + " + ".join(terms) + ")"


def _mul_roots(c: tuple, roots: dict) -> tuple:
    """c * prod (q hbar - p)^k over the pairs (p, q) of roots."""
    for (p, q), k in roots.items():
        for _ in range(k):
            c = (-p * c[0], *[q * a - p * b for a, b in zip(c, c[1:])],
                 q * c[-1])
    return c


def _div_root(c: tuple, p: int, q: int) -> tuple | None:
    """Exact quotient of c by (q hbar - p), or None if it does not divide.

    Top-down division: q B[i-1] = c[i] + p B[i], stopping at the first
    inexact step.  q hbar - p is primitive, so a quotient over Q is
    integral (Gauss's lemma) and an inexact step proves it does not divide.
    """
    if p == 0:
        return c[1:] if c[0] == 0 else None
    if c[0] % p:
        return None
    out = [0] * (len(c) - 1)
    acc = c[-1]
    for i in range(len(c) - 2, -1, -1):
        b, rem = divmod(acc, q)
        if rem:
            return None
        out[i] = b
        acc = c[i] + p * b
    return tuple(out) if acc == 0 else None


def _reduce(c: tuple, roots: dict, candidates) -> tuple:
    """Divide (q hbar - p) out of c as often as both c and roots allow.

    Only the pairs in ``candidates`` are tried.  ``roots`` is a fresh dict
    owned by the caller and is updated in place; the reduced coefficients
    are returned.
    """
    for key in candidates:
        k = roots[key]
        p, q = key
        while k:
            quot = _div_root(c, p, q)
            if quot is None:
                break
            c, k = quot, k - 1
        if k:
            roots[key] = k
        else:
            del roots[key]
    return c


def _q_power(roots: dict) -> int:
    """prod q^k: the scale between prod (q hbar - p)^k and its monic form."""
    out = 1
    for (_, q), k in roots.items():
        if q != 1:
            out *= q ** k
    return out


def _sum(terms) -> "RatFunc":
    """sum content * N / prod (q hbar - p)^k over (content, N, roots) triples.

    Two or more terms, each nonzero and in lowest terms; the module
    docstring gives the method and the reduction rule.
    """
    common = dict(terms[0][2])
    tied: dict = {}             # root -> a multiplicity two terms hold
    for _, _, roots in terms[1:]:
        for r, k in roots.items():
            top = common.get(r, 0)
            if k > top:
                common[r] = k
            elif k == top:
                tied[r] = k
    den = lcm(*[c.denominator for c, _, _ in terms])
    wide = len(terms) > 2
    total = sum(common.values()) if wide else 0
    expanded = None
    lifted = []
    for c, n, roots in terms:
        # A term holding own of the total common factors lacks total - own.
        # When own + len(n) is below that, dividing its own factors out of
        # the expanded common denominator costs less than multiplying the
        # missing ones in.  Two terms share no expansion: they multiply.
        if wide and 2 * sum(roots.values()) + len(n) < total:
            if expanded is None:
                expanded = _mul_roots((1,), common)
            cofactor = expanded
            for (p, q), k in roots.items():
                for _ in range(k):
                    cofactor = _div_root(cofactor, p, q)
            n = _conv(n, cofactor)
        elif common:
            n = _mul_roots(n, {r: k - roots.get(r, 0)
                               for r, k in common.items()
                               if k > roots.get(r, 0)})
        lifted.append((c.numerator * (den // c.denominator), n))
    (fa, a), (fb, b) = lifted[0], lifted[1]
    acc = [fa * x + fb * y for x, y in zip_longest(a, b, fillvalue=0)]
    for f, n in lifted[2:]:
        acc = [x + f * y for x, y in zip_longest(acc, n, fillvalue=0)]
    content, n = _split(acc, den)
    if not n:
        return RatFunc.const(0)
    candidates = [r for r, k in common.items() if tied.get(r) == k]
    if candidates:
        n = _reduce(n, common, candidates)
    return RatFunc(n, common, _content=content)


class RatFunc:
    """content * N / prod (q hbar - p)^k in lowest terms.

    ``content * N`` is a ``Poly``'s integer form, taken over as it is, and
    ``roots`` the denominator's root multiset {(p, q): k}, each root p/q a
    pair in lowest terms with q > 0: every denominator the pipeline
    produces is a product of linear forms.  Lowest terms means N vanishes
    at no stored root, so the triple is canonical and ``==`` compares it
    structurally.

    A denominator is given as a root mapping ({root: multiplicity} with
    Fraction roots, standing for the monic product of (hbar - root)) or as
    a ``Poly`` of degree at most 1 (the recursion edges lam_i - lam_j +
    d hbar, the 1/hbar prefactors, the Newton-node differences).  A
    ``Poly`` of higher degree raises ``StructureError``, as does inverting
    a numerator of degree above 1: neither would split into known roots.
    ``from_factors`` takes both numerator and denominator as products of
    linear forms, given as pair-keyed root multisets.
    ``num`` and ``den`` are ``Poly`` views built on demand from the same
    integer tuples: the numerator over the monic denominator, and that
    denominator expanded.
    """

    __slots__ = ("_n", "_content", "roots", "_num", "_den")

    def __init__(self, num, den=None, _content: Fraction | None = None):
        if _content is not None:
            # Internal form: num is a primitive integer tuple and den a
            # pair-keyed root multiset, already in lowest terms.
            self._n, self._content, self.roots = num, _content, den
            self._num = self._den = None
            return
        num = Poly._coerce(num)
        if num is None:
            raise TypeError("RatFunc components must be Poly-coercible")
        scale = Fraction(1)
        if den is None:
            roots = {}
        elif isinstance(den, dict):
            roots = {}
            for r, k in den.items():
                if k:
                    r = _frac(r)
                    roots[(r.numerator, r.denominator)] = k
                    scale *= r.denominator ** k
        else:
            den = Poly._coerce(den)
            if den is None:
                raise TypeError("RatFunc components must be Poly-coercible")
            if den.is_zero():
                raise ZeroDivisionError(
                    "rational function with zero denominator")
            if den.degree > 1:
                raise StructureError(
                    f"denominator {den!r} is not a linear form in hbar")
            # den = c (n1 hbar + n0), primitive with n1 > 0: root (-n0, n1).
            roots = {(-den._n[0], den._n[1]): 1} if den.degree else {}
            scale = 1 / den._content
        content, n = num._content, num._n
        if not n:
            roots = {}
        elif roots:
            n = _reduce(n, roots, list(roots))
        self._n, self._content, self.roots = n, content * scale, roots
        self._num = self._den = None

    @property
    def num(self) -> Poly:
        """The numerator over the monic denominator ``den``."""
        if self._num is None:
            self._num = Poly._of(self._content / _q_power(self.roots),
                                 self._n)
        return self._num

    @property
    def den(self) -> Poly:
        """The monic denominator prod (hbar - p/q)^k, expanded."""
        if self._den is None:
            self._den = Poly._of(Fraction(1, _q_power(self.roots)),
                                 _mul_roots((1,), self.roots))
        return self._den

    @classmethod
    def const(cls, x) -> "RatFunc":
        x = _frac(x)
        return cls((1,) if x else (), {}, _content=x)

    @classmethod
    def from_factors(cls, content, zeros: dict, poles: dict) -> "RatFunc":
        """content * prod (q hbar - p)^k over ``zeros``, divided by the same
        product over ``poles``.

        Both are root multisets keyed like ``roots``: integer pairs (p, q)
        in lowest terms with q > 0.  Two such factors are equal exactly
        when their pairs are, so cancelling the pairs both hold leaves
        lowest terms without a division.
        """
        content = _frac(content)
        if not content:
            return cls.const(0)
        poles = dict(poles)
        shared = zeros.keys() & poles.keys()
        if shared:
            zeros = dict(zeros)
            for r in shared:
                k = min(zeros[r], poles[r])
                zeros[r] -= k
                poles[r] -= k
                if not poles[r]:
                    del poles[r]
        return cls(_mul_roots((1,), zeros), poles, _content=content)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return RatFunc(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        return None

    def is_zero(self) -> bool:
        return not self._n

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
        if not self._n:
            return other
        if not other._n:
            return self
        return _sum(((self._content, self._n, self.roots),
                     (other._content, other._n, other.roots)))

    __radd__ = __add__

    @staticmethod
    def lincomb(pairs) -> "RatFunc":
        """sum c * f over (c, f) pairs of a scalar and a ``RatFunc``.

        One pass of the sum kernel: a scalar only scales the content.
        """
        terms = [(c * f._content, f._n, f.roots) for c, f in pairs
                 if c and f._n]
        if not terms:
            return RatFunc.const(0)
        if len(terms) == 1:
            c, n, roots = terms[0]
            return RatFunc(n, roots, _content=c)
        return _sum(terms)

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
        return RatFunc(self._n, self.roots, _content=-self._content)

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
        n1 = _reduce(self._n, roots, [r for r in rb if r not in ra])
        n2 = _reduce(other._n, roots, [r for r in ra if r not in rb])
        return RatFunc(_conv(n1, n2), roots,
                       _content=self._content * other._content)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        n = self._n
        if not n:
            raise ZeroDivisionError("inverse of zero rational function")
        if len(n) > 2:
            raise StructureError(
                f"inverse of {self!r} would need a non-linear denominator")
        # A primitive linear numerator n1 hbar + n0 is the factor of the
        # root -n0/n1, already in lowest terms with n1 > 0.
        roots = {(-n[0], n[1]): 1} if len(n) == 2 else {}
        return RatFunc(_mul_roots((1,), self.roots), roots,
                       _content=1 / self._content)

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
        if n == 0 or self.is_zero():
            return RatFunc.const(self._content ** n)
        out = self._n
        for _ in range(n - 1):
            out = _conv(out, self._n)
        return RatFunc(out, {r: k * n for r, k in self.roots.items()},
                       _content=self._content ** n)

    def eval(self, x) -> Fraction:
        x = _frac(x)
        a, b = x.numerator, x.denominator
        if (a, b) in self.roots:
            raise PoleError(x)
        n = self._n
        if not n:
            return Fraction(0)
        acc, den, total = _horner(n, a, b), 1, 0
        for (p, q), k in self.roots.items():
            den *= (q * a - p * b) ** k
            total += k
        # N(x) / prod (q x - p)^k = acc b^(total - deg N) / den
        shift = total - (len(n) - 1)
        if shift >= 0:
            acc *= b ** shift
        else:
            den *= b ** -shift
        return self._content * Fraction(acc, den)

    __call__ = eval

    def subs_neg(self) -> "RatFunc":
        """Substitute hbar -> -hbar: roots change sign.

        q(-hbar) - p = -(q hbar + p), and N(-hbar) has leading coefficient
        of sign (-1)^deg N, so the content absorbs (-1)^(deg N + sum k).
        """
        n = self._n
        if not n:
            return self
        odd, neg = _reflect(n)
        content = self._content
        if (odd + sum(self.roots.values())) % 2:
            content = -content
        return RatFunc(neg, {(-p, q): k for (p, q), k in self.roots.items()},
                       _content=content)

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
        if isinstance(other, (int, Fraction)):
            # A constant is (1,) or () with no roots: compare without
            # building a RatFunc for the scalar.
            return (not self.roots and len(self._n) <= 1
                    and self._content == other)
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return (self._n == other._n and self._content == other._content
                and self.roots == other.roots)

    def __hash__(self):
        h = _hash(self._content, self._n)
        return hash((h, frozenset(self.roots.items()))) if self.roots else h

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
        # A constant hashes like its value, since == equates them.
        if self.c.keys() <= {0}:
            return hash(self.c.get(0, 0))
        return hash(tuple(sorted(self.c.items())))

    def __repr__(self):
        if not self.c:
            return "Laurent(0)"
        terms = [f"{v}*h^{k}" for k, v in sorted(self.c.items())]
        return "Laurent(" + " + ".join(terms) + ")"

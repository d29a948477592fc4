"""Exact arithmetic in the formal parameter hbar.

One integer form underlies ``Poly`` and ``RatFunc``: a polynomial is
content * N, with N a primitive integer coefficient tuple (gcd 1, positive
leading coefficient, lowest degree first, ``()`` for zero) and the content
a Fraction carrying sign and scale.  Both classes run on the same
module-level kernels over these tuples, and multiply them with
``intpoly.mul``, the integer product the series over Q share.  By Gauss's
lemma, products and exact quotients of primitive tuples stay primitive,
so only a sum needs a gcd pass over its coefficients.

* ``Poly``    -- content * N; ``c`` is its Fraction coefficient view.
* ``RatFunc`` -- content * N / prod (q hbar - p)^k in lowest terms, the
  denominator a root multiset {(p, q): k} keyed by integer pairs, so the
  form is canonical and ``==`` is structural equality.  Every denominator
  the pipeline builds is a product of linear forms in hbar: the Z*
  factors lam_i - lam_a + r hbar, the recursion edges lam_i - lam_j +
  d hbar, the Newton-node differences, the 1/hbar of the transformations,
  and their images under hbar -> -hbar.  A pole enters only through
  ``from_factors`` or division by a linear form (``inverse``), so only
  ``inverse`` and ``heads_at_infinity`` raise ``StructureError``.  A
  missing root p/q multiplies N by (q hbar - p), a cancellation is exact
  top-down integer division by it, and no polynomial gcd is ever needed.

  Every sum of ``RatFunc`` values goes through one kernel in two steps.
  *Lift* (``Lifted(terms)``, once): bring each term to the common root
  multiset, which holds every root at the largest multiplicity of any
  term, as an integer numerator over one common denominator of the
  contents.  A term holding only a few of the common roots gets its
  cofactor as the exact quotient of the expanded common denominator by
  its own factors, so a sum of many one-root terms over n roots costs
  O(n^2); when it differs from the term before in fewer factors than it
  holds, the cofactor steps from that term's instead.  *Combine* (``Lifted.combine(row)``, once per row): multiply
  each lifted numerator by its multiplier in the row (a scalar or a
  ``Poly``), accumulate one integer sum, make one ``_split`` and one
  ``_reduce``.  ``RatFunc.lincomb`` is a lift with one row of scalars and
  ``+`` its two-term call; the double correlator combines the same lift
  with one row of ``Poly`` multipliers per z-power.

  Reduction rule: the combination can vanish at a root only if two or
  more terms hold it at the largest multiplicity (a term alone there is
  nonzero at the root, and every other term carries the factor), so
  ``_reduce`` tries those roots and no others.  The exception is a term
  alone at a root whose multiplier vanishes there (a zero, or a ``Poly``
  with that root, such as lam_i + d hbar at the pole (lam_a - lam_i)/d
  when lam_a = 0): that root is tried too.
* ``Laurent`` -- finite Laurent polynomial, reduced to its constructor
  and product.  Neither the pipeline nor a test route uses it: the
  ambient fundamental solution is built at hbar = 1, with hbar restored
  by its grading rule (``hypergeom.fundamental_solution``).  It stays
  only while the benchmark binds its product as ``hbar.laurent_mul``, and
  is not exported.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import DomainError, PoleError, StructureError
from .intpoly import clear, mul, mul_linear

__all__ = ["Poly", "RatFunc", "Lifted"]


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
    (fa, fb), den = clear((ca, cb))
    return _split([fa * x + fb * y for x, y in zip_longest(a, b, fillvalue=0)],
                  den)


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
    read, for printing and the Euclidean ``divmod``/``gcd``; arithmetic
    never reads it.
    """

    __slots__ = ("_n", "_content")

    def __init__(self, coeffs: Iterable = ()):
        self._content, self._n = _split(*clear([_frac(x) for x in coeffs]))

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
                        mul(self._n, other._n))

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


def _cofactor(roots: dict, own: int, expanded: tuple, last: tuple) -> tuple:
    """The expanded common denominator with a term's own factors divided out.

    ``roots`` holds ``own`` factors in all.  ``last`` is the (cofactor,
    roots) pair of the term done before; when fewer factors differ between
    the two terms than this one holds (consecutive terms of the double
    correlator share most of theirs), the cofactor steps from that one.
    """
    cofactor, extra, lacking = expanded, roots, {}
    if own > 1:                 # one factor is one division from the expansion
        prev, held = last
        up = {r: k - held.get(r, 0) for r, k in roots.items()
              if k > held.get(r, 0)}
        down = {r: k - roots.get(r, 0) for r, k in held.items()
                if k > roots.get(r, 0)}
        if sum(up.values()) + sum(down.values()) < own:
            cofactor, extra, lacking = prev, up, down
    for (p, q), k in extra.items():
        for _ in range(k):
            cofactor = _div_root(cofactor, p, q)
    return mul_linear(cofactor, lacking)


class Lifted:
    """Nonzero ``RatFunc`` terms over their common denominator, for one or
    many linear combinations of them.

    The lift is done once: ``roots`` is the common root multiset (every
    root at the largest multiplicity any term holds), and each term's
    content and numerator become an integer and an integer tuple over it,
    both over the one integer ``den``.  ``combine`` then forms one linear
    combination per row of multipliers, each an integer sum, one ``_split``
    and one ``_reduce``.  The module docstring gives the reduction rule.
    """

    __slots__ = ("roots", "den", "terms", "holder")

    def __init__(self, fs):
        common: dict = {}
        # root -> the one term holding it at the common multiplicity, or
        # None when two or more do
        holder: dict = {}
        for t, f in enumerate(fs):
            for r, k in f.roots.items():
                top = common.get(r, 0)
                if k > top:
                    common[r] = k
                    holder[r] = t
                elif k == top:
                    holder[r] = None
        scales, den = clear([f._content for f in fs])
        wide = len(fs) > 2
        total = sum(common.values()) if wide else 0
        expanded = last = None
        terms = []
        for f, scale in zip(fs, scales):
            n, roots = f._n, f.roots
            # A term holding own of the total common factors lacks total - own.
            # When own + len(n) is below that, dividing its own factors out of
            # the expanded common denominator costs less than multiplying the
            # missing ones in.  Two terms share no expansion: they multiply.
            if wide and 2 * (own := sum(roots.values())) + len(n) < total:
                if expanded is None:
                    expanded = mul_linear((1,), common)
                    last = expanded, {}
                cofactor = _cofactor(roots, own, expanded, last)
                last = cofactor, roots
                n = mul(n, cofactor)
            elif common:
                n = mul_linear(n, {r: k - roots.get(r, 0)
                                    for r, k in common.items()
                                    if k > roots.get(r, 0)})
            terms.append((scale, n))
        self.roots, self.den, self.terms, self.holder = (common, den, terms,
                                                         holder)

    def combine(self, row) -> "RatFunc":
        """sum x_t f_t over the terms f_t and a row of multipliers x_t, each
        an int, a Fraction or a ``Poly`` (zeros allowed), in lowest terms."""
        parts = []
        vanish = {}             # term -> integer tuple of a multiplier with
        #                         roots; () for a zero multiplier
        for t, ((a, n), x) in enumerate(zip(self.terms, row)):
            if isinstance(x, Poly):
                if len(x._n) != 1:
                    vanish[t] = x._n
                    n = mul(x._n, n)
                x = x._content
            elif not x:
                vanish[t] = ()
            if x:
                parts.append((a * x.numerator, x.denominator, n))
        scale = lcm(*[v for _, v, _ in parts])
        scaled = [(u * (scale // v), n) for u, v, n in parts]
        if len(scaled) % 2:
            scaled.append((0, ()))
        acc: list = []
        for (fa, a), (fb, b) in zip(scaled[::2], scaled[1::2]):
            acc = [x + fa * y + fb * z          # two terms per pass
                   for x, y, z in zip_longest(acc, a, b, fillvalue=0)]
        content, n = _split(acc, self.den * scale)
        if not n:
            return RatFunc.const(0)
        candidates = [r for r, t in self.holder.items()
                      if t is None or (t in vanish and (
                          not vanish[t] or not _horner(vanish[t], *r)))]
        roots = dict(self.roots)
        if candidates:
            n = _reduce(n, roots, candidates)
        return RatFunc(n, roots, _content=content)


class RatFunc:
    """content * N / prod (q hbar - p)^k in lowest terms.

    ``content * N`` is a ``Poly``'s integer form, taken over as it is, and
    ``roots`` the denominator's root multiset {(p, q): k}, each root p/q a
    pair in lowest terms with q > 0: every denominator the pipeline
    produces is a product of linear forms.  Lowest terms means N vanishes
    at no stored root, so the triple is canonical and ``==`` compares it
    structurally.

    ``RatFunc(num, den)`` is ``RatFunc(num) / den``, so a pole enters in
    exactly two ways: through ``from_factors``, which takes numerator and
    denominator as pair-keyed root multisets (Z* and the recursion
    coefficients), or through division by a linear form, whose ``inverse``
    turns it into a root (the 1/hbar prefactors, the Newton-node
    differences).  ``StructureError`` comes only from ``inverse``, for a
    numerator of degree above 1 that would not split into known roots, and
    from ``heads_at_infinity``.
    ``num`` and ``den`` are ``Poly`` views built on demand from the same
    integer tuples: the numerator over the monic denominator, and that
    denominator expanded.
    """

    __slots__ = ("_n", "_content", "roots", "_num", "_den")

    def __init__(self, num, den=None, _content: Fraction | None = None):
        if _content is None:
            # Public form: RatFunc(num, den) is RatFunc(num) / den.
            poly = Poly._coerce(num)
            if poly is None:
                raise TypeError("RatFunc numerator must be Poly-coercible")
            if den is None:
                num, den, _content = poly._n, {}, poly._content
            else:
                f = RatFunc(poly) / den
                num, den, _content = f._n, f.roots, f._content
        # Internal form: num is a primitive integer tuple and den a
        # pair-keyed root multiset, already in lowest terms.
        self._n, self._content, self.roots = num, _content, den
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
                                 mul_linear((1,), self.roots))
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
        in lowest terms with q > 0, multiplicity 0 meaning none.  Two such
        factors are equal exactly when their pairs are, so cancelling the
        pairs both hold leaves lowest terms without a division.
        """
        content = _frac(content)
        if not content:
            return cls.const(0)
        poles = {r: k for r, k in poles.items() if k}
        shared = zeros.keys() & poles.keys()
        if shared:
            zeros = dict(zeros)
            for r in shared:
                k = min(zeros[r], poles[r])
                zeros[r] -= k
                poles[r] -= k
                if not poles[r]:
                    del poles[r]
        return cls(mul_linear((1,), zeros), poles, _content=content)

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
        return Lifted((self, other)).combine((1, 1))

    __radd__ = __add__

    @staticmethod
    def lincomb(pairs) -> "RatFunc":
        """sum c * f over (c, f) pairs of a scalar and a ``RatFunc``.

        One row of the sum kernel: the terms are lifted and combined with
        the scalars as the row.
        """
        pairs = [(c, f) for c, f in pairs if c and f._n]
        return Lifted([f for _, f in pairs]).combine([c for c, _ in pairs])

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
        return RatFunc(mul(n1, n2), roots,
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
        return RatFunc(mul_linear((1,), self.roots), roots,
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

    def heads_at_infinity(self) -> tuple[Fraction, Fraction]:
        """The coefficients of hbar^0 and hbar^-1 at hbar = infinity.

        Read from the root form content * N / prod (q hbar - p)^k: with K
        = sum k, the denominator is prod q^k hbar^K (1 - S/hbar + ...) for
        S = sum k p/q, so when deg N = K the heads are N_K and N_(K-1) +
        N_K S over prod q^k, and when deg N = K - 1 they are 0 and N_(K-1).
        A numerator of degree above K would carry positive hbar powers and
        raises ``StructureError``.
        """
        n = self._n
        if not n:
            return Fraction(0), Fraction(0)
        deg, K = len(n) - 1, sum(self.roots.values())
        if deg > K:
            raise StructureError(
                f"positive hbar powers present (deg num {deg} > deg den {K})")
        if deg < K - 1:
            return Fraction(0), Fraction(0)
        scale = self._content / _q_power(self.roots)
        if deg < K:
            return Fraction(0), scale * n[-1]
        S = sum(Fraction(k * p, q) for (p, q), k in self.roots.items())
        return scale * n[-1], scale * ((n[-2] if deg else 0) + n[-1] * S)

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
    """Finite Laurent polynomial sum c[k] hbar^k over Fraction.

    It holds only a constructor and a product, which exist for the
    benchmark's ``hbar.laurent_mul`` layer binding and go with it.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict | None = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _frac(v)
                if v != 0:
                    c[k] = v
        self.c = c

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent({0: other})
        elif not isinstance(other, Laurent):
            return NotImplemented
        out: dict = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
        return Laurent(out)

    __rmul__ = __mul__

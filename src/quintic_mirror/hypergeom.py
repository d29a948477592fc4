"""The explicit hypergeometric objects of the correspondence.

For a degree-l hypersurface in P^m this module builds:

* the hypersurface series  sum_d e^((H+d)t) prod(lH+r) / prod(H+r)^(m+1)
  with H^m = 0, whose H^b components are the classical periods I_b(t),
  stored without its factor e^(Ht) (the convention and the grading rule
  are in ``hypersurface_series``);
* the ambient fundamental solution of the small quantum differential
  equation of P^m, at hbar = 1 (see ``fundamental_solution``), whose
  H^0 q^d coefficients are the two-point descendents 1/(d!)^(m+1);
* the factorial series F and its harmonic companions G_1 and G_(m+1);
* the equivariant hypergeometric correlator family Z*_i at numeric weights;
* the residual of the one operator of all three regimes, whose shift
  d/dt -> d/dt + m! q is read from (m, l): it is there exactly when l = m.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd

from .errors import DegenerateLambda, DomainError
from .hbar import RatFunc
from .intpoly import clear, mul_linear
from .mixed import MixedSeries
from .series import TruncSeries

__all__ = [
    "HypergeomConfig",
    "CorrelatorFamily",
    "hypersurface_series",
    "fundamental_solution",
    "f_and_g",
    "zstar_family",
    "hypersurface_operator_residual",
]


class HypergeomConfig(namedtuple("HypergeomConfig", "m l order")):
    """Ambient dimension m, hypersurface degree l, q-order."""

    __slots__ = ()

    def __new__(cls, m: int, l: int, order: int):
        if m < 1:
            raise DomainError(f"need m >= 1 for a hypersurface in P^m, "
                              f"got m={m}")
        if not 1 <= l <= m + 1:
            raise DomainError(f"need 1 <= l <= m+1, got l={l}, m={m}")
        if order < 1:
            raise DomainError("q-order must be >= 1")
        return super().__new__(cls, m, l, order)

    @classmethod
    def quintic(cls, order: int) -> "HypergeomConfig":
        return cls(m=4, l=5, order=order)


class CorrelatorFamily:
    """Indexed family {Y_i} of q-series with hbar-rational coefficients.

    Entries are TruncSeries whose q^d coefficients are RatFunc values; the
    weight tuple is fixed and numeric.  Constant terms are 1 for every
    family produced here and preserved by all transformations.  The
    ambient dimension m is read from the weights (m + 1 of them) and the
    q-order from the entries, so neither can disagree with them.
    """

    def __init__(self, lam: tuple[Fraction, ...], entries: list[TruncSeries],
                 l: int):
        self.lam = lam
        self.entries = entries
        self.l = l

    @property
    def m(self) -> int:
        return len(self.lam) - 1

    @property
    def order(self) -> int:
        return self.entries[0].order

    def coeff(self, i: int, d: int) -> RatFunc:
        return self.entries[i][d]

    def map_entries(self, fn) -> "CorrelatorFamily":
        return CorrelatorFamily(self.lam, [fn(i, e) for i, e in
                                           enumerate(self.entries)], self.l)


def hypersurface_series(cfg: HypergeomConfig) -> MixedSeries:
    """The series sum_d e^((H+d)t) prod(lH+r)/prod(H+r)^(m+1), q = e^t.

    The e^(Ht) convention: the series is e^(Ht) times
    W = sum_d q^d prod(lH+r)/prod(H+r)^(m+1), and only W is stored, as a
    ``MixedSeries`` with X = H.  On e^(Ht) W, d/dt acts as e^(Ht) times
    (H + q d/dq) W, and the mirror shift t = T - g as e^(HT) times
    e^(-Hg) W; so an identity that is linear in e^(Ht) W holds iff it
    holds for W, and the H^i t^0 q^d coefficient of e^(Ht) W is W's
    H^i q^d coefficient.

    Grading rule: with hbar restored, the series is
    sum_d e^((H/hbar+d)t) prod(lH+r hbar)/prod(H+r hbar)^(m+1).  Give
    hbar and H degree 1, q degree m + 1 - l, and t degree 0.  Every term
    then has degree 0, so W's H^i q^d coefficient is its value at
    hbar = 1, stored here, times hbar^((l-m-1)d - i).

    On the hypersurface H^m = 0, so each degree's block is a power series
    in H truncated at top = m - 1: a ``TruncSeries`` in H, whose product
    and quotient over Q take the integer kernels of ``series``.  The
    degree-d block prod_{r<=ld}(lH+r) / prod_{r<=d}(H+r)^(m+1) is the
    degree-(d-1) block times the integer polynomial
    prod_{l(d-1)<r<=ld}(lH+r), divided by the integer polynomial
    (H+d)^(m+1) = sum_j C(m+1, j) d^(m+1-j) H^j, both truncated mod H^m:
    one product and one division per degree.
    """
    m, l = cfg.m, cfg.l
    top = m - 1
    out = MixedSeries(top, cfg.order)
    block = TruncSeries.constant(Fraction(1), top)
    for d in range(cfg.order + 1):
        if d:
            rs = range(l * (d - 1) + 1, l * d + 1)
            num = mul_linear((1,), {(-r, l): 1 for r in rs})[:m]
            den = [comb(m + 1, j) * d ** (m + 1 - j) for j in range(m)]
            block = block * TruncSeries(num, top) / TruncSeries(den, top)
        for i, v in enumerate(block.coeffs):
            if v != 0:
                out.c[i][d] = v
    return out


def fundamental_solution(m: int, order: int) -> MixedSeries:
    """The solution of ((hbar d/dt)^(m+1) - e^t) f = 0 for P^m, at hbar = 1.

    It is sum_d e^((H/hbar+d)t) / prod_{r<=d}(H+r*hbar)^(m+1) with
    H^(m+1) = 0.  Hyperplane identity: at hbar = 1 this is the series of a
    degree-1 hypersurface in P^(m+1), whose numerator prod_{r<=d}(H+r)
    cancels one power of the denominator and whose top = m is the
    nilpotency of H on P^m.  It is returned in the e^(Ht) convention of
    ``hypersurface_series``, whose grading rule at (m + 1, 1) puts hbar
    back: the H^i q^d coefficient is its value here times
    hbar^(-(m+1)d - i).

    The operator is homogeneous of degree m + 1 under that grading, so
    its residual vanishes iff its value at hbar = 1 does.  There the
    operator is (d/dt)^(m+1) - q, ``hypersurface_operator_residual`` at
    (m + 1, 1) for m >= 1 (at m = 0 that pair has l = m, where the
    residual takes the d/dt + m! q shift).
    """
    # _make skips the config's checks: order 0 is the degree-0 block, and
    # m < 0 fails at the series' caps.
    return hypersurface_series(HypergeomConfig._make((m + 1, 1, order)))


def f_and_g(m: int, order: int) -> tuple[TruncSeries, TruncSeries,
                                         TruncSeries]:
    """The factorial-ratio series F and its harmonic companions G_1, G_(m+1),
    the two the mirror map reads, in one pass over d.

    F(q)   = sum_d q^d ((m+1)d)! / (d!)^(m+1)
    G_l(q) = sum_{d>=1} q^d ((m+1)d)! / (d!)^(m+1) * sum_{r=1..ld} 1/r
    """
    F, G_1, G_top = [Fraction(1)], [Fraction(0)], [Fraction(0)]
    h1 = htop = Fraction(0)     # sum_{r=1..ld} 1/r, carried from d-1 to d
    for d in range(1, order + 1):
        base = factorial((m + 1) * d) // factorial(d) ** (m + 1)
        h1 += Fraction(1, d)
        htop += sum(Fraction(1, r)
                    for r in range((m + 1) * (d - 1) + 1, (m + 1) * d + 1))
        F.append(Fraction(base))
        G_1.append(base * h1)
        G_top.append(base * htop)
    return tuple(TruncSeries(c, order) for c in (F, G_1, G_top))


def weight_tuple(m: int, lam) -> tuple[Fraction, ...]:
    """lam as m + 1 pairwise distinct Fractions, the torus weights on P^m."""
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != m + 1:
        raise DomainError(f"need {m + 1} weights, got {len(lam)}")
    if len(set(lam)) != len(lam):
        raise DegenerateLambda("weights must be pairwise distinct")
    return lam


def zstar_family(cfg: HypergeomConfig,
                 lam: tuple[Fraction, ...]) -> CorrelatorFamily:
    """The hypergeometric correlators Z*_i at a numeric weight tuple.

    Z*_i(q, hbar) = sum_d q^d prod_{r<=ld}(l lam_i + r hbar)
                              / prod_a prod_{r<=d}(lam_i - lam_a + r hbar).

    Built on integers, incrementally in d.  With Lam = L lam cleared,
    l lam_i + r hbar = h (a1 hbar + a0)/L with a1 hbar + a0 primitive, and
    lam_i - lam_a + r hbar = g (q hbar - p)/L with p/q = (Lam_a - Lam_i)/(rL)
    in lowest terms.  The factors grow as root multisets, and the scales h,
    g and L collect into one content per entry.
    """
    lam = weight_tuple(cfg.m, lam)
    m, l = cfg.m, cfg.l
    Lam, L = clear(lam)
    entries = []
    for i in range(m + 1):
        coeffs: list = [RatFunc.const(1)]
        top, bottom, zeros, poles = 1, 1, {}, {}
        for d in range(1, cfg.order + 1):
            for r in range(l * (d - 1) + 1, l * d + 1):
                h = gcd(l * Lam[i], r * L)
                zero = (-l * Lam[i] // h, r * L // h)
                zeros[zero] = zeros.get(zero, 0) + 1
                top *= h
            for a in range(m + 1):
                g = gcd(Lam[a] - Lam[i], d * L)
                pole = ((Lam[a] - Lam[i]) // g, d * L // g)
                poles[pole] = poles.get(pole, 0) + 1
                bottom *= g
            coeffs.append(RatFunc.from_factors(
                Fraction(top * L ** ((m + 1 - l) * d), bottom), zeros, poles))
        entries.append(TruncSeries(coeffs, cfg.order))
    return CorrelatorFamily(lam, entries, l)


def hypersurface_operator_residual(series: MixedSeries, m: int,
                                   l: int) -> MixedSeries:
    """Residual of D^m W - l q prod_{r=1..l-1}(l D + r) W at hbar = 1.

    W stands for e^(Ht) W (see ``hypersurface_series``), on which d/dt
    is H + q d/dq, so the residual R stands for e^(Ht) R and is zero iff
    R is.  D is d/dt, except when l = m, where it is d/dt + m! q:
    conjugation by the prefactor e^(-m! q), so W is then e^(-m! q) times
    the series.  The residual is zero for the hypersurface series when
    l < m, for that product when l = m, and (as the classical
    Picard-Fuchs equation) for the series when l = m + 1.
    """
    shift = factorial(m) if l == m else 0

    def D(w: MixedSeries) -> MixedSeries:
        dw = w.mul_x() + w.q_ddq()
        return dw + w.mul_q().scale(shift) if shift else dw

    lhs = series
    for _ in range(m):
        lhs = D(lhs)
    rhs = series
    for r in range(1, l):
        rhs = D(rhs).scale(l) + rhs.scale(r)
    rhs = rhs.mul_q().scale(l)
    return lhs - rhs


def exp_prefactor(scalar: Fraction, order: int) -> TruncSeries:
    """exp(scalar * q) as an exact q-series."""
    return TruncSeries([Fraction(scalar) ** d / factorial(d)
                        for d in range(order + 1)], order)

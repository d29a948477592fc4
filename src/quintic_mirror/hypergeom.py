"""The explicit hypergeometric objects of the correspondence.

For a degree-l hypersurface in P^m this module builds:

* the hypersurface series  sum_d e^((H+d)t) prod(lH+r) / prod(H+r)^(m+1)
  with H^m = 0, whose H^b components are the classical periods I_b(t);
* the ambient fundamental solution  sum_d e^((H/hbar+d)t) / prod(H+r*hbar)^(m+1)
  of the small quantum differential equation of P^m;
* the two-point descendent values read off that solution;
* the factorial series F and its harmonic companions G_l;
* the equivariant hypergeometric correlator family Z*_i at numeric weights.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd

from .errors import DomainError
from .hbar import Laurent, RatFunc
from .intpoly import clear, mul_linear
from .mixed import HTruncPoly, MixedSeries
from .series import TruncSeries

__all__ = [
    "HypergeomConfig",
    "CorrelatorFamily",
    "hypersurface_series",
    "fundamental_solution",
    "descendent_value",
    "f_and_g",
    "zstar_family",
    "hypersurface_operator_residual",
    "shifted_operator_residual",
    "quantum_operator_residual",
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
    family produced here and preserved by all transformations.
    """

    def __init__(self, lam: tuple[Fraction, ...], entries: list[TruncSeries],
                 m: int, l: int, order: int):
        self.lam = lam
        self.entries = entries
        self.m = m
        self.l = l
        self.order = order

    def entry(self, i: int) -> TruncSeries:
        return self.entries[i]

    def coeff(self, i: int, d: int) -> RatFunc:
        return self.entries[i][d]

    def map_entries(self, fn) -> "CorrelatorFamily":
        return CorrelatorFamily(self.lam, [fn(i, e) for i, e in
                                           enumerate(self.entries)],
                                self.m, self.l, self.order)


def hypersurface_series(cfg: HypergeomConfig) -> MixedSeries:
    """The series sum_d e^((H+d)t) prod(lH+r)/prod(H+r)^(m+1), q = e^t.

    On the hypersurface H^m = 0, so each degree's block is a power series
    in H truncated at h_top = m - 1: a ``TruncSeries`` in H, whose
    product and quotient over Q take the integer kernels of ``series``.
    Returned as a MixedSeries with that h_top and t_top = h_top (the
    t-degree never exceeds the H-degree because t only enters through
    e^(Ht)).  The degree-d block prod_{r<=ld}(lH+r) / prod_{r<=d}(H+r)^(m+1)
    is the degree-(d-1) block times the integer polynomial
    prod_{l(d-1)<r<=ld}(lH+r), divided by the integer polynomial
    (H+d)^(m+1) = sum_j C(m+1, j) d^(m+1-j) H^j, both truncated mod H^m:
    one product and one division per degree.
    """
    m, l = cfg.m, cfg.l
    h_top = m - 1
    out = MixedSeries(h_top, h_top, cfg.order)
    block = TruncSeries.constant(Fraction(1), h_top)
    for d in range(cfg.order + 1):
        if d:
            rs = range(l * (d - 1) + 1, l * d + 1)
            num = mul_linear((1,), {(-r, l): 1 for r in rs})[:m]
            den = [comb(m + 1, j) * d ** (m + 1 - j) for j in range(m)]
            block = block * TruncSeries(num, h_top) / TruncSeries(den, h_top)
        # e^(Ht) * block: coefficient of H^i t^k is block[i-k]/k!.
        for i in range(h_top + 1):
            for k in range(i + 1):
                v = block[i - k]
                if v != 0:
                    out.c[i][k][d] = v / factorial(k)
    return out


def fundamental_solution(m: int, order: int) -> MixedSeries:
    """Fundamental solution of ((hbar d/dt)^(m+1) - e^t) f = 0 for P^m.

    Coefficients are Laurent polynomials in hbar; the q^d term carries
    powers down to hbar^(-(m+1)d - m), all of them kept exactly.
    """
    nil = m + 1
    out = MixedSeries(m, m, order)
    for d in range(order + 1):
        block = HTruncPoly.const(Laurent.const(1), nil)
        for r in range(1, d + 1):
            lin = HTruncPoly([Laurent.unit(1, r), Laurent.const(1)], nil)
            block = block * lin ** (m + 1)
        block = block.inverse()
        for i in range(m + 1):
            for k in range(i + 1):
                v = block.coeff(i - k)
                if v == 0:
                    continue
                scalar = Laurent.unit(-k, Fraction(1, factorial(k)))
                out.c[i][k][d] = v * scalar
    return out


def descendent_value(m: int, d: int) -> Fraction:
    """Two-point descendent read off the fundamental solution.

    Extracts the hbar^(-(m+1)d) part of the t^0 q^d coefficient in the
    H^0 component; equals 1/(d!)^(m+1).
    """
    if d < 1:
        raise DomainError("degree must be >= 1")
    sol = fundamental_solution(m, d)
    coeff = sol.coeff(0, 0, d)
    if coeff == 0:
        return Fraction(0)
    return coeff.coeff(-(m + 1) * d)


def f_and_g(m: int, l_index: int, order: int) -> tuple[TruncSeries, TruncSeries]:
    """The factorial-ratio series F and its harmonic-weighted companion G_l.

    F(q)   = sum_d q^d ((m+1)d)! / (d!)^(m+1)
    G_l(q) = sum_{d>=1} q^d ((m+1)d)! / (d!)^(m+1) * sum_{r=1..ld} 1/r
    """
    if not 1 <= l_index <= m + 1:
        raise DomainError("need 1 <= l <= m+1")
    fc = [Fraction(1)]
    gc = [Fraction(0)]
    harmonic = Fraction(0)      # sum_{r=1..ld} 1/r, carried from d-1 to d
    for d in range(1, order + 1):
        base = factorial((m + 1) * d) // factorial(d) ** (m + 1)
        harmonic += sum(Fraction(1, r)
                        for r in range(l_index * (d - 1) + 1, l_index * d + 1))
        fc.append(Fraction(base))
        gc.append(base * harmonic)
    return TruncSeries(fc, order), TruncSeries(gc, order)


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
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != cfg.m + 1:
        raise DomainError(f"need {cfg.m + 1} weights, got {len(lam)}")
    if len(set(lam)) != len(lam):
        raise DomainError("weights must be pairwise distinct")
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
    return CorrelatorFamily(lam, entries, m, l, cfg.order)


def hypersurface_operator_residual(series: MixedSeries, m: int,
                                   l: int) -> MixedSeries:
    """Residual of (d/dt)^m W - l q prod_{r=1..l-1}(l d/dt + r) W at hbar=1.

    Zero for the hypersurface series when l < m, and (as the classical
    Picard-Fuchs equation) when l = m + 1.
    """
    lhs = series
    for _ in range(m):
        lhs = lhs.ddt()
    rhs = series
    for r in range(1, l):
        rhs = rhs.ddt().scale(l) + rhs.scale(r)
    rhs = rhs.mul_q().scale(l)
    return lhs - rhs


def shifted_operator_residual(series: MixedSeries, m: int) -> MixedSeries:
    """Residual of the degree-m (l = m) identity at hbar = 1:

    (d/dt + m! q)^m W  -  m q prod_{r=1..m-1}(m d/dt + m*m! q + r) W,

    to be applied to W = e^(-m! q) * (hypersurface series).
    """
    mf = factorial(m)
    lhs = series
    for _ in range(m):
        lhs = lhs.ddt() + lhs.mul_q().scale(mf)
    rhs = series
    for r in range(1, m):
        rhs = (rhs.ddt().scale(m) + rhs.mul_q().scale(m * mf)
               + rhs.scale(r))
    rhs = rhs.mul_q().scale(m)
    return lhs - rhs


def quantum_operator_residual(sol: MixedSeries, m: int) -> MixedSeries:
    """Residual of ((hbar d/dt)^(m+1) - e^t) applied to the P^m solution."""
    lhs = sol
    for _ in range(m + 1):
        lhs = lhs.ddt().scale(Laurent.unit(1))
    return lhs - sol.mul_q()


def exp_prefactor(scalar: Fraction, order: int) -> TruncSeries:
    """exp(scalar * q) as an exact q-series."""
    return TruncSeries([Fraction(scalar) ** d / factorial(d)
                        for d in range(order + 1)], order)

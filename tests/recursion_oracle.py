"""Test oracles: the recursion coefficients, Z* and the forward solve on Fraction.

These are the literal formulas ``quintic_mirror`` used before the
recursion stage ran on cleared integer weights:

* ``sub_m_coefficient``, ``cy_coefficient_direct`` and
  ``cy_coefficient_cleared`` build C_i^j(d) factor by factor over Q, the
  Calabi-Yau one in two derivations (the edge slope inside each factor,
  and every factor multiplied by d);
* ``zstar_family_fraction`` builds each Z*_i entry as a ``Poly`` product
  divided by one linear form lam_i - lam_a + r hbar at a time;
* ``forward_solve`` solves the Calabi-Yau recursion from its initial data
  with pairwise ``RatFunc`` sums;
* ``phi_pairwise`` builds the double correlator Phi with one pairwise
  ``RatFunc`` sum per term, each lifting its operands afresh;
* ``composite_inverse_full`` undoes the composite transformation on whole
  ``RatFunc`` series, with its exponential and products in hbar, where
  ``composite_inverse_of_zstar`` reads only the heads modulo hbar^-2.

They share no integer kernel with the code under test beyond ``RatFunc``'s
constructor and arithmetic, except that ``composite_inverse_full`` takes
its q-series over Q (F, G_1, G_(m+1), the reversion and the composition)
from the same kernels: what it holds fixed is the hbar side.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from quintic_mirror.errors import DegenerateLambda, DomainError
from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.hypergeom import CorrelatorFamily, HypergeomConfig
from quintic_mirror.mixed import MixedSeries
from quintic_mirror.hypergeom import f_and_g
from quintic_mirror.recursion import RecursionCoefficients
from quintic_mirror.series import (TruncSeries, compose_all, series_exp,
                                   series_reversion)


def _vanished(i: int, j: int, d: int) -> DegenerateLambda:
    return DegenerateLambda(
        f"recursion coefficient denominator vanished at (i={i}, j={j}, d={d})")


def sub_m_coefficient(m: int, l: int, lam, i: int, j: int,
                      d: int) -> RatFunc:
    """Coefficient of the l <= m recursion (pure number times hbar factor).

    hbar/(lam_i - lam_j + d hbar)
      * prod_{r<=ld}( l d lam_i/(lam_j - lam_i) + r )
      / prod_{a, r<=d, (a,r) != (j,d)}( d(lam_i - lam_a)/(lam_j - lam_i) + r )
    """
    diff = lam[j] - lam[i]
    num = Fraction(1)
    for r in range(1, l * d + 1):
        num *= Fraction(l * d) * lam[i] / diff + r
    den = Fraction(1)
    for a in range(m + 1):
        for r in range(1, d + 1):
            if (a, r) == (j, d):
                continue
            den *= d * (lam[i] - lam[a]) / diff + r
    if den == 0:
        raise _vanished(i, j, d)
    return RatFunc(Poly([0, num / den]), Poly([lam[i] - lam[j], d]))


def cy_coefficient_direct(m: int, lam, i: int, j: int, d: int) -> RatFunc:
    """Calabi-Yau coefficient, literal form with the edge slope inside."""
    slope = (lam[j] - lam[i]) / d
    num = Fraction(1)
    for r in range(1, (m + 1) * d + 1):
        num *= (m + 1) * lam[i] + r * slope
    den = Fraction(factorial(d))
    for a in range(m + 1):
        if a == i:
            continue
        for r in range(1, d + 1):
            if (a, r) == (j, d):
                continue
            den *= lam[i] - lam[a] + r * slope
    if den == 0:
        raise _vanished(i, j, d)
    return RatFunc(Poly([num / den]), Poly([lam[i] - lam[j], d]))


def cy_coefficient_cleared(m: int, lam, i: int, j: int, d: int) -> RatFunc:
    """Same coefficient with denominators cleared of the slope fraction.

    Multiplying every linear factor by d gives integers-only products and
    an explicit d-power.
    """
    diff = lam[j] - lam[i]
    num = Fraction(1)
    for r in range(1, (m + 1) * d + 1):
        num *= (m + 1) * d * lam[i] + r * diff
    den = Fraction(factorial(d)) * Fraction(d) ** (d + 1)
    for a in range(m + 1):
        if a == i:
            continue
        for r in range(1, d + 1):
            if (a, r) == (j, d):
                continue
            den *= d * (lam[i] - lam[a]) + r * diff
    if den == 0:
        raise _vanished(i, j, d)
    return RatFunc(Poly([num / den]), Poly([lam[i] - lam[j], d]))


def oracle_coeffs(m: int, l: int, lam, order: int) -> dict:
    """(i, j, d) -> C_i^j(d) for d <= order, in ``recursion_coeffs``' order;
    Calabi-Yau when l > m."""
    lam = tuple(Fraction(x) for x in lam)
    out = {}
    for i in range(m + 1):
        for j in range(m + 1):
            if j == i:
                continue
            for d in range(1, order + 1):
                out[(i, j, d)] = (cy_coefficient_direct(m, lam, i, j, d)
                                  if l > m
                                  else sub_m_coefficient(m, l, lam, i, j, d))
    return out


def zstar_family_fraction(cfg: HypergeomConfig, lam) -> CorrelatorFamily:
    """Z*_i(q, hbar) = sum_d q^d prod_{r<=ld}(l lam_i + r hbar)
                                / prod_a prod_{r<=d}(lam_i - lam_a + r hbar)."""
    lam = tuple(Fraction(x) for x in lam)
    entries = []
    for i in range(cfg.m + 1):
        coeffs: list = [RatFunc.const(1)]
        for d in range(1, cfg.order + 1):
            num = Poly([1])
            for r in range(1, cfg.l * d + 1):
                num = num * Poly([cfg.l * lam[i], r])
            # One division per linear form, off the root-multiset route
            # of the code under test.
            z = RatFunc(num)
            for a in range(cfg.m + 1):
                for r in range(1, d + 1):
                    z = z / Poly([lam[i] - lam[a], r])
            coeffs.append(z)
        entries.append(TruncSeries(coeffs, cfg.order))
    return CorrelatorFamily(lam, entries, cfg.l)


def forward_solve(initial: dict, coeffs: RecursionCoefficients,
                  order: int) -> list[TruncSeries]:
    """Solve the Calabi-Yau recursion forward from initial data I_id.

    y_i[d] = I_id/d! + sum_{j != i} sum_{d' <= d} C_i^j(d')
             y_j[d-d'](hbar = (lam_j - lam_i)/d').

    Needs every lower-order coefficient as a genuine rational function,
    which is why the family is carried as RatFunc values throughout.
    """
    if coeffs.l <= coeffs.m:
        raise DomainError("forward solve is a Calabi-Yau-regime operation")
    m, lam = coeffs.m, coeffs.lam
    cols: list[list[RatFunc]] = [[RatFunc.const(1)] for _ in range(m + 1)]
    for d in range(1, order + 1):
        for i in range(m + 1):
            acc = RatFunc(initial.get((i, d), Poly())) * Fraction(
                1, factorial(d))
            for j in range(m + 1):
                if j == i:
                    continue
                for dprime in range(1, d + 1):
                    point = (lam[j] - lam[i]) / dprime
                    val = cols[j][d - dprime].eval(point)
                    if val != 0:
                        acc = acc + coeffs.C[(i, j, dprime)] * val
            cols[i].append(acc)
    return [TruncSeries(col, order) for col in cols]


def phi_pairwise(family: CorrelatorFamily, z_order: int) -> MixedSeries:
    """Phi(z, q) = sum_i w_i e^(lam_i z) Y_i(q e^(z hbar), hbar) Y_i(q, -hbar),

    w_i = (m+1) lam_i / prod_{j != i}(lam_i - lam_j), term by term: the
    z^k q^e coefficient is sum_i w_i sum_{d1+d2=e} (lam_i + d1 hbar)^k / k!
    Y_i[d1](hbar) Y_i[d2](-hbar), each term added to the running sum,
    through the family's order in q.
    """
    m, lam, Y, q_order = family.m, family.lam, family.entries, family.order
    weights = []
    for i in range(m + 1):
        denom = Fraction(1)
        for j in range(m + 1):
            if j != i:
                denom *= lam[i] - lam[j]
        weights.append((m + 1) * lam[i] / denom)
    out = MixedSeries(z_order, q_order)
    for e in range(q_order + 1):
        for k in range(z_order + 1):
            acc = RatFunc.const(0)
            for i, weight in enumerate(weights):
                if weight == 0:
                    continue
                inner = RatFunc.const(0)
                for d1 in range(e + 1):
                    prod = (RatFunc._coerce(Y[i][d1])
                            * RatFunc._coerce(Y[i][e - d1]).subs_neg())
                    if not prod.is_zero():
                        inner = inner + prod * Poly([lam[i], d1]) ** k
                acc = acc + inner * weight
            out.c[k][e] = acc / factorial(k)
    return out


def composite_inverse_full(family: CorrelatorFamily) -> list[TruncSeries]:
    """F(q)^-1 exp(-A_i(q)/hbar) Y_i(q, hbar), all at q = q' w(q'), as
    whole ``RatFunc`` series: g = (m+1)(G_{m+1} - G_1)/F and
    A_i = lam_i g + sum(lam) G_1/F.
    """
    m, D, lam = family.m, family.order, family.lam
    F, G_1, G_top = f_and_g(m, D)
    g = (G_top - G_1).scale(m + 1) / F
    w = series_reversion(series_exp(g))
    shared = (G_1 / F).scale(sum(lam))
    A = [g.scale(x) + shared for x in lam]
    F_sigma, *rest = compose_all([F, *A, *family.entries], w.mul_q())
    A_sigma, entries = rest[:len(A)], rest[len(A):]
    inv_F = (TruncSeries.one(D) / F_sigma).map(RatFunc.const)
    out = []
    for composed, A_i in zip(entries, A_sigma):
        pref = series_exp(A_i.map(lambda c: RatFunc(Poly([-c]), Poly([0, 1]))))
        out.append(composed * pref * inv_F)
    return out

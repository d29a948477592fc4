"""Test oracles: the recursion coefficients, Z* and the forward solve on Fraction.

These are the literal formulas ``quintic_mirror`` used before the
recursion stage ran on cleared integer weights:

* ``sub_m_coefficient``, ``cy_coefficient_direct`` and
  ``cy_coefficient_cleared`` build C_i^j(d) factor by factor over Q, the
  Calabi-Yau one in two derivations (the edge slope inside each factor,
  and every factor multiplied by d);
* ``zstar_family_fraction`` builds each Z*_i entry as a ``Poly`` product
  over a Fraction root mapping;
* ``forward_solve`` solves the Calabi-Yau recursion from its initial data
  with pairwise ``RatFunc`` sums.

They share no integer kernel with the code under test beyond ``RatFunc``'s
constructor and arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from quintic_mirror.errors import DegenerateLambda, DomainError
from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.hypergeom import CorrelatorFamily, HypergeomConfig
from quintic_mirror.recursion import RecursionCoefficients
from quintic_mirror.series import TruncSeries


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


def oracle_coeffs(regime: str, m: int, l: int, lam, order: int) -> dict:
    """(i, j, d) -> C_i^j(d) for d <= order, in ``recursion_coeffs``' order."""
    lam = tuple(Fraction(x) for x in lam)
    out = {}
    for i in range(m + 1):
        for j in range(m + 1):
            if j == i:
                continue
            for d in range(1, order + 1):
                out[(i, j, d)] = (cy_coefficient_direct(m, lam, i, j, d)
                                  if regime == "calabi_yau"
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
            # lam_i - lam_a + r hbar = r (hbar - (lam_a - lam_i)/r): the
            # scale prod r = (d!)^(m+1) moves into the numerator.
            num = Poly([Fraction(1, factorial(d) ** (cfg.m + 1))])
            for r in range(1, cfg.l * d + 1):
                num = num * Poly([cfg.l * lam[i], r])
            roots: dict = {}
            for a in range(cfg.m + 1):
                for r in range(1, d + 1):
                    root = (lam[a] - lam[i]) / r
                    roots[root] = roots.get(root, 0) + 1
            coeffs.append(RatFunc(num, roots))
        entries.append(TruncSeries(coeffs, cfg.order))
    return CorrelatorFamily(lam, entries, cfg.m, cfg.l, cfg.order)


def forward_solve(initial: dict, coeffs: RecursionCoefficients,
                  order: int) -> list[TruncSeries]:
    """Solve the Calabi-Yau recursion forward from initial data I_id.

    y_i[d] = I_id/d! + sum_{j != i} sum_{d' <= d} C_i^j(d')
             y_j[d-d'](hbar = (lam_j - lam_i)/d').

    Needs every lower-order coefficient as a genuine rational function,
    which is why the family is carried as RatFunc values throughout.
    """
    if coeffs.regime != "calabi_yau":
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

"""Linear recursions, class-P checks, and the double correlator.

The correlator families live in q with hbar-rational coefficients at a
fixed numeric weight tuple.  This module:

* builds the recursion coefficients of the three degree regimes,
* verifies that the hypergeometric correlators satisfy their recursions
  (residuals exactly zero below the Calabi-Yau case; hbar-polynomials of
  bounded degree in it),
* extracts the class-P data: numerator polynomials N_id, the interpolated
  two-variable polynomials E_d, and the double correlator Phi (a
  ``MixedSeries`` with z in its t slot),
* implements the three admissible transformations and their predicted
  effect on Phi,
* forward-solves the Calabi-Yau recursion from initial data (uniqueness
  as a computation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import ClassPViolation, DegenerateLambda, DomainError
from .hbar import Poly, RatFunc
from .hypergeom import CorrelatorFamily, exp_prefactor, f_and_g
from .mixed import MixedSeries
from .series import TruncSeries, series_exp, series_reversion

__all__ = [
    "RecursionCoefficients",
    "ClassPData",
    "recursion_coeffs",
    "z_normalize",
    "verify_recursion",
    "classP_extract",
    "closed_form_E",
    "phi_double_correlator",
    "transform_family",
    "mod_hbar2",
    "forward_solve",
    "phi_law_a",
    "phi_law_b",
    "phi_law_c",
    "composite_inverse_of_zstar",
]

REGIMES = ("sub_m", "equal_m", "calabi_yau")


@dataclass
class RecursionCoefficients:
    regime: str
    m: int
    l: int
    lam: tuple[Fraction, ...]
    order: int
    C: dict = field(default_factory=dict)         # (i, j, d) -> RatFunc
    initial: dict = field(default_factory=dict)   # i -> TruncSeries over QQ


def regime_of(m: int, l: int) -> str:
    if l < m:
        return "sub_m"
    if l == m:
        return "equal_m"
    return "calabi_yau"


def _sub_m_coefficient(m: int, l: int, lam, i: int, j: int,
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
        raise DegenerateLambda(
            f"recursion coefficient denominator vanished at (i={i}, j={j}, d={d})")
    return RatFunc(Poly([0, num / den]), Poly([lam[i] - lam[j], d]))


def _cy_coefficient_direct(m: int, lam, i: int, j: int, d: int) -> RatFunc:
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
        raise DegenerateLambda(
            f"recursion coefficient denominator vanished at (i={i}, j={j}, d={d})")
    return RatFunc(Poly([num / den]), Poly([lam[i] - lam[j], d]))


def _cy_coefficient_cleared(m: int, lam, i: int, j: int, d: int) -> RatFunc:
    """Same coefficient with denominators cleared of the slope fraction.

    Multiplying every linear factor by d gives integers-only products and
    an explicit d-power; kept as a second derivation path to cross-check
    the literal form.
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
        raise DegenerateLambda(
            f"recursion coefficient denominator vanished at (i={i}, j={j}, d={d})")
    return RatFunc(Poly([num / den]), Poly([lam[i] - lam[j], d]))


def recursion_coeffs(regime: str, m: int, l: int, lam,
                     order: int) -> RecursionCoefficients:
    """All coefficients C_i^j(d) for d <= order plus the initial terms."""
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if regime != regime_of(m, l):
        raise DomainError(f"regime {regime} inconsistent with (m, l)=({m}, {l})")
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != m + 1:
        raise DomainError(f"need {m + 1} weights, got {len(lam)}")
    if len(set(lam)) != len(lam):
        raise DegenerateLambda("weights must be pairwise distinct")
    out = RecursionCoefficients(regime, m, l, lam, order)
    for i in range(m + 1):
        for j in range(m + 1):
            if j == i:
                continue
            for d in range(1, order + 1):
                if regime == "calabi_yau":
                    c = _cy_coefficient_direct(m, lam, i, j, d)
                else:
                    c = _sub_m_coefficient(m, l, lam, i, j, d)
                out.C[(i, j, d)] = c
    for i in range(m + 1):
        if regime == "sub_m" or regime == "calabi_yau":
            out.initial[i] = TruncSeries.zero(order)
        else:
            # -1 + exp((c_i - m!) Q) with c_i = (m lam_i)^m / prod(lam_i - lam_a)
            denom = Fraction(1)
            for a in range(m + 1):
                if a != i:
                    denom *= lam[i] - lam[a]
            c_i = (Fraction(m) * lam[i]) ** m / denom - factorial(m)
            out.initial[i] = exp_prefactor(c_i, order) - TruncSeries.one(order)
    return out


def z_normalize(family: CorrelatorFamily,
                modified: bool = False) -> list[TruncSeries]:
    """Pass to the rescaled variable: q^d coefficients gain hbar^(pd).

    p = m+1-l below the Calabi-Yau case and 1 in it.  With ``modified``
    the degree-m prefactor e^(-m! Q) is multiplied in (after rescaling),
    which is the correlator that actually satisfies the l = m recursion.
    """
    p = (family.m + 1 - family.l) if family.l <= family.m else 1
    out = []
    for i in range(family.m + 1):
        coeffs = [family.coeff(i, d) * Poly.hbar(p * d) if d else
                  RatFunc._coerce(family.coeff(i, 0))
                  for d in range(family.order + 1)]
        out.append(TruncSeries(coeffs, family.order))
    if modified:
        pref = exp_prefactor(-factorial(family.m), family.order)
        out = [e * pref.map(RatFunc.const) for e in out]
    return out


def recursion_residuals(z_entries: list[TruncSeries],
                        coeffs: RecursionCoefficients) -> dict:
    """(i, d) -> z_i[d] - initial_i[d] - sum_j sum_d' C_i^j(d') z_j[d-d'](...)

    The inner evaluation happens at hbar = (lam_j - lam_i)/d', which the
    regularity property guarantees to be off every pole; a PoleError here
    means a degenerate weight tuple (resample) or a genuine violation.
    """
    m, lam, order = coeffs.m, coeffs.lam, coeffs.order
    residuals = {}
    evaluated: dict = {}
    for j in range(m + 1):
        for i in range(m + 1):
            if i == j:
                continue
            for dprime in range(1, order + 1):
                point = (lam[j] - lam[i]) / dprime
                for e in range(order):
                    key = (j, e, point)
                    if key not in evaluated:
                        cf = z_entries[j][e]
                        evaluated[key] = (cf.eval(point)
                                          if isinstance(cf, RatFunc)
                                          else Fraction(cf))
    for i in range(m + 1):
        init = coeffs.initial[i]
        for d in range(1, order + 1):
            acc = RatFunc._coerce(z_entries[i][d]) - RatFunc.const(init[d])
            for j in range(m + 1):
                if j == i:
                    continue
                for dprime in range(1, d + 1):
                    point = (lam[j] - lam[i]) / dprime
                    val = evaluated[(j, d - dprime, point)]
                    if val != 0:
                        acc = acc - coeffs.C[(i, j, dprime)] * val
            residuals[(i, d)] = acc
    return residuals


def verify_recursion(z_entries: list[TruncSeries],
                     coeffs: RecursionCoefficients):
    """Check the recursion; returns (ok, detail, extracted initial data).

    Below the Calabi-Yau case residuals must vanish identically.  In the
    Calabi-Yau case the residual at degree d is the initial term
    I_id Q^d/d!; I_id must be an hbar-polynomial of degree at most d
    (class-P condition II), and is returned.
    """
    residuals = recursion_residuals(z_entries, coeffs)
    extracted: dict = {}
    for (i, d), res in sorted(residuals.items()):
        if coeffs.regime in ("sub_m", "equal_m"):
            if not res.is_zero():
                return False, f"nonzero residual at (i={i}, Q^{d}): {res!r}", {}
        else:
            scaled = res * factorial(d)
            if not scaled.is_polynomial():
                return (False,
                        f"residual at (i={i}, Q^{d}) is not polynomial: "
                        f"{scaled!r}", {})
            poly = scaled.as_poly()
            if poly.degree > d:
                return (False,
                        f"initial term at (i={i}, Q^{d}) has hbar-degree "
                        f"{poly.degree} > {d}", {})
            extracted[(i, d)] = poly
    return True, "", extracted


@dataclass
class ClassPData:
    """Numerator polynomials and interpolated E_d at a fixed weight tuple."""

    m: int
    lam: tuple[Fraction, ...]
    N_table: dict          # (i, d) -> Poly in hbar
    E_polys: dict          # d -> list of Poly (coefficients of P^0, P^1, ...)


def classP_extract(family: CorrelatorFamily, order: int | None = None,
                   entries: list[TruncSeries] | None = None) -> ClassPData:
    """N_id extraction and E_d interpolation for a recursion-form family.

    N_id = (Q^d coefficient of y_i) d! prod_{j!=i} prod_{r<=d}
           (lam_i - lam_j + r hbar), asserted polynomial of hbar-degree
    at most (m+1)d; E_d is the unique P-interpolant of degree at most
    (m+1)d + m through the values (m+1) lam_i N_ir(hbar) N_i(d-r)(-hbar)
    at P = lam_i + r hbar, asserted to have hbar-polynomial coefficients.
    """
    m, lam = family.m, family.lam
    D = family.order if order is None else order
    y = entries if entries is not None else z_normalize(family)
    N_table: dict = {}
    for i in range(m + 1):
        for d in range(D + 1):
            clear = Poly([factorial(d)])
            for j in range(m + 1):
                if j == i:
                    continue
                for r in range(1, d + 1):
                    clear = clear * Poly([lam[i] - lam[j], r])
            nid = RatFunc._coerce(y[i][d]) * clear
            if not nid.is_polynomial():
                raise ClassPViolation(
                    f"N_(i={i}, d={d}) is not an hbar-polynomial: {nid!r}")
            poly = nid.as_poly()
            if poly.degree > (m + 1) * d:
                raise ClassPViolation(
                    f"N_(i={i}, d={d}) has hbar-degree {poly.degree} "
                    f"> {(m + 1) * d}")
            N_table[(i, d)] = poly
    E_polys: dict = {}
    for d in range(D + 1):
        nodes = []
        values = []
        for i in range(m + 1):
            for r in range(d + 1):
                nodes.append(Poly([lam[i], r]))
                v = (Poly([(m + 1) * lam[i]]) * N_table[(i, r)]
                     * N_table[(i, d - r)].subs_neg())
                values.append(RatFunc._coerce(v))
        coeffs = _newton_interpolation(nodes, values)
        polys = []
        for k, c in enumerate(coeffs):
            if not c.is_polynomial():
                raise ClassPViolation(
                    f"E_{d} coefficient of P^{k} is not polynomial: {c!r}")
            polys.append(c.as_poly())
        while polys and polys[-1].is_zero():
            polys.pop()
        if len(polys) - 1 > (m + 1) * d + m:
            raise ClassPViolation(
                f"E_{d} has P-degree {len(polys) - 1} > {(m + 1) * d + m}")
        E_polys[d] = polys
    return ClassPData(m=m, lam=lam, N_table=N_table, E_polys=E_polys)


def _newton_interpolation(nodes: list[Poly],
                          values: list[RatFunc]) -> list[RatFunc]:
    """Coefficients (in P) of the interpolant through (nodes, values).

    Divided differences over the rational-function field in hbar; nodes
    are distinct linear polynomials, so every difference is invertible.
    """
    n = len(nodes)
    dd = [list(values)]
    for level in range(1, n):
        prev = dd[-1]
        row = []
        for a in range(n - level):
            delta = RatFunc(nodes[a + level] - nodes[a])
            row.append((prev[a + 1] - prev[a]) / delta)
        dd.append(row)
    # Horner expansion of the Newton form.
    coeffs: list[RatFunc] = [dd[n - 1][0]]
    for level in range(n - 2, -1, -1):
        x = nodes[level]
        new = [RatFunc.const(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            new[k + 1] = new[k + 1] + c
            new[k] = new[k] - c * x
        new[0] = new[0] + dd[level][0]
        coeffs = new
    return coeffs


def closed_form_E(m: int, d: int) -> list[Poly]:
    """prod_{r=0..(m+1)d}((m+1)P - r hbar) as P-coefficients over Poly."""
    coeffs = [Poly([1])]
    for r in range((m + 1) * d + 1):
        new = [Poly() for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            new[k + 1] = new[k + 1] + c * (m + 1)
            new[k] = new[k] + c * Poly([0, -r])
        coeffs = new
    return coeffs


def phi_double_correlator(family: CorrelatorFamily, z_order: int,
                          q_order: int,
                          entries: list[TruncSeries] | None = None) -> MixedSeries:
    """Phi(z, q) = sum_i w_i e^(lam_i z) Y_i(q e^(z hbar), hbar) Y_i(q, -hbar)

    with w_i = (m+1) lam_i / prod_{j != i}(lam_i - lam_j).  The argument
    shift q -> q e^(z hbar) turns each q^d term into q^d e^(z hbar d), so
    the z^k q^e coefficient is

        sum_i w_i sum_{d1+d2=e} (lam_i + d1 hbar)^k / k!
              Y_i[d1](hbar) Y_i[d2](-hbar).

    Returned as a ``MixedSeries`` with h_top = 0 and z in the t slot:
    ``c[0][k][e]`` is the z^k q^e coefficient.
    """
    m, lam = family.m, family.lam
    if q_order > family.order:
        raise DomainError("q_order exceeds the family order")
    Y = entries if entries is not None else family.entries
    weights = []
    for i in range(m + 1):
        denom = Fraction(1)
        for j in range(m + 1):
            if j != i:
                denom *= lam[i] - lam[j]
        weights.append((m + 1) * lam[i] / denom)
    neg = [[RatFunc._coerce(Y[i][d]).subs_neg() for d in range(q_order + 1)]
           for i in range(m + 1)]
    pos = [[RatFunc._coerce(Y[i][d]) for d in range(q_order + 1)]
           for i in range(m + 1)]
    # Y_i[d1](hbar) Y_i[d2](-hbar) is reused for every z-power: hoist it.
    pairs = {}
    for i in range(m + 1):
        if weights[i] == 0:
            continue
        for e in range(q_order + 1):
            for d1 in range(e + 1):
                pairs[(i, e, d1)] = pos[i][d1] * neg[i][e - d1]
    out = MixedSeries(0, z_order, q_order)
    for e in range(q_order + 1):
        for k in range(z_order + 1):
            acc = RatFunc.const(0)
            for i in range(m + 1):
                if weights[i] == 0:
                    continue
                inner = RatFunc.const(0)
                for d1 in range(e + 1):
                    prod = pairs[(i, e, d1)]
                    if prod.is_zero():
                        continue
                    inner = inner + prod * Poly([lam[i], d1]) ** k
                acc = acc + inner * weights[i]
            out.c[0][k][e] = acc / factorial(k)
    return out


def _shifted_qseries(f: TruncSeries, z_top: int) -> MixedSeries:
    """f(q e^(z hbar)): the q^e term spreads into (e hbar)^k z^k/k!."""
    out = MixedSeries(0, z_top, f.order)
    for e, v in enumerate(f.coeffs):
        if v == 0:
            continue
        for k in range(z_top + 1):
            out.c[0][k][e] = RatFunc(
                Poly.hbar(k) * (Fraction(v) * e ** k / factorial(k)))
    return out


def _delta_series(g: TruncSeries, z_top: int) -> MixedSeries:
    """(g(q e^(z hbar)) - g(q))/hbar; hbar-polynomial by construction."""
    out = _shifted_qseries(g, z_top)
    out.c[0][0] = [0] * (g.order + 1)          # the z^0 row is g(q) itself
    return out.scale(RatFunc(Poly([1]), Poly([0, 1])))


def phi_law_a(phi: MixedSeries, f: TruncSeries) -> MixedSeries:
    """Predicted Phi after scaling the family by f: f(q e^(z hbar)) f(q) Phi."""
    return _shifted_qseries(f, phi.t_top).mul_qseries(f) * phi


def phi_law_b(phi: MixedSeries, g: TruncSeries) -> MixedSeries:
    """Predicted Phi after the argument twist:

    Phi(z + (g(q e^(z hbar)) - g(q))/hbar, q e^(g(q))).
    """
    z_top, order = phi.t_top, phi.order
    z_plus = _delta_series(g, z_top)
    if z_top:
        z_plus.c[0][1][0] = RatFunc.const(1)   # delta has no q^0 term
    # powers of q e^g(q) and of (z + delta)
    qpow = series_exp(g).mul_q().powers(order)
    zpow = [MixedSeries.constant(RatFunc.const(1), 0, z_top, order)]
    for _ in range(z_top):
        zpow.append(zpow[-1] * z_plus)
    out = MixedSeries(0, z_top, order)
    for k, row in enumerate(phi.c[0]):
        for e, v in enumerate(row):
            if v != 0:
                out = out + zpow[k].mul_qseries(qpow[e]).scale(v)
    return out


def phi_law_c(phi: MixedSeries, g: TruncSeries, C: Fraction) -> MixedSeries:
    """Predicted Phi after the exponential twist: exp(C delta) Phi.

    delta has no z^0 term, so every power above z^z_top truncates to zero
    and the exponential is the finite sum over n <= z_top.
    """
    z_top, order = phi.t_top, phi.order
    c_delta = _delta_series(g, z_top).scale(Fraction(C))
    term = total = MixedSeries.constant(RatFunc.const(1), 0, z_top, order)
    for n in range(1, z_top + 1):
        term = (term * c_delta).scale(Fraction(1, n))
        total = total + term
    return total * phi


def transform_family(family: CorrelatorFamily, kind: str,
                     f_or_g: TruncSeries,
                     C: Fraction | None = None) -> CorrelatorFamily:
    """The three admissible family transformations.

    (a) multiply by f(q) with f(0) = 1;
    (b) exp(lam_i g(q)/hbar) Y_i(q e^(g(q)), hbar) with g(0) = 0;
    (c) exp(C g(q)/hbar) Y_i with C a fixed number (a linear function of
        the weights, evaluated).
    """
    D = family.order
    if f_or_g.order != D:
        raise DomainError("transformation series must match the family order")
    if kind == "a":
        f = f_or_g
        if f.coeffs[0] != 1:
            raise DomainError("transformation (a) requires f(0) = 1")
        lift = f.map(RatFunc.const)
        return family.map_entries(lambda i, e: e * lift)
    if kind not in ("b", "c"):
        raise DomainError(f"unknown transformation kind {kind!r}")
    g = f_or_g
    if g.coeffs[0] != 0:
        raise DomainError(f"transformation ({kind}) requires g(0) = 0")
    if kind == "c":
        if C is None:
            raise DomainError("transformation (c) needs the constant C")
        pref = series_exp(g.map(
            lambda c: RatFunc(Poly([Fraction(C) * c]), Poly([0, 1]))))
        return family.map_entries(lambda i, e: e * pref)
    q_pows = series_exp(g).mul_q().powers(D)     # powers of q e^(g(q))

    def twist(i: int, entry: TruncSeries) -> TruncSeries:
        substituted = entry.compose(q_pows)
        pref = series_exp(g.map(
            lambda c: RatFunc(Poly([family.lam[i] * c]), Poly([0, 1]))))
        return pref * substituted

    return family.map_entries(twist)


def mod_hbar2(family_entries: list[TruncSeries],
              order: int) -> list[tuple[TruncSeries, TruncSeries]]:
    """Leading two coefficients of each entry at hbar = infinity."""
    out = []
    for entry in family_entries:
        heads = []
        tails = []
        for d in range(order + 1):
            c = RatFunc._coerce(entry[d])
            h0, h1 = c.laurent_at_infinity(1)
            heads.append(h0)
            tails.append(h1)
        out.append((TruncSeries(heads, order), TruncSeries(tails, order)))
    return out


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


def composite_inverse_of_zstar(family: CorrelatorFamily) -> list[TruncSeries]:
    """Undo the explicit composite transformation on the hypergeometric family.

    The composite sends a family Y to
        F(q) exp(A_i(q)/hbar) Y_i(q e^(g(q)), hbar),
    with g = (m+1)(G_{m+1} - G_1)/F and
    A_i = ((m+1) lam_i (G_{m+1} - G_1) + G_1 sum(lam)) / F.
    Applied inversely to Z* it must produce a family that is trivial
    modulo hbar^-2 (constant part 1, 1/hbar part 0).
    """
    m, D, lam = family.m, family.order, family.lam
    F, G_top = f_and_g(m, m + 1, D)
    _, G_1 = f_and_g(m, 1, D)
    gdiff = G_top - G_1
    g = gdiff.scale(m + 1) / F
    w = series_reversion(series_exp(g))
    sigma_pows = w.mul_q().powers(D)             # q = sigma(q') = q' w(q')
    inv_F = TruncSeries.one(D) / F.compose(sigma_pows)
    total = sum(lam)
    out = []
    for i in range(m + 1):
        A_i = (gdiff.scale((m + 1) * lam[i]) + G_1.scale(total)) / F
        pref = series_exp(A_i.compose(sigma_pows).map(
            lambda c: RatFunc(Poly([-c]), Poly([0, 1]))))
        composed = family.entry(i).compose(sigma_pows)
        out.append(composed * pref * inv_F.map(RatFunc.const))
    return out

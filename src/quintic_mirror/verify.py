"""Named verification runs: ``CHECKS`` maps each CLI check to its function.

The sampled correlator checks and descendents are defined here; the
operator identities (picard-fuchs, case-i, case-ii) and mirror-identity
live in ``mirror``.  Each check returns a list of Check records.  Its
parameter list names exactly the inputs it reads, each with the default a
bare command takes, and the CLI passes only the options typed and accepts
no other.  A check raises ``DomainError`` when (m, l) lies outside its
regime; its own defaults lie inside it.  Sampled checks take an explicit
weight tuple ``lam`` or draw one from ``seed``; only the recursion checks
draw again, where ``recursion_coeffs`` raises ``DegenerateLambda``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .errors import ClassPViolation, DomainError
from .hypergeom import (HypergeomConfig, fundamental_solution,
                        hypersurface_operator_residual, zstar_family)
from .mirror import (case_i_check, case_ii_check, mirror_identity_check,
                     picard_fuchs_check, residual_check)
from .recursion import (classP_extract, closed_form_E,
                        composite_inverse_of_zstar, phi_double_correlator,
                        phi_law_a, phi_law_b, phi_law_c, recursion_coeffs,
                        transform_family, verify_recursion, z_normalize)
from .report import Check
from .sampling import (sample_lambda, sample_series_coeffs, sample_until)
from .series import TruncSeries

__all__ = ["CHECKS"]

TUPLES = 2              # weight tuples per sampled recursion check
PHI_POLY_Z_ORDER = 4    # z-truncation of the phi-poly check
LAWS_Z_ORDER = 3        # z-truncation of the transformation-law check


def _recursion_checks(name: str, identity: str, done: str, m: int, l: int,
                      order: int, seed: int, lam) -> list[Check]:
    """One check per weight tuple: the family satisfies the recursion of
    the regime (m, l) lies in; ``done`` words the detail of a pass."""
    cfg = HypergeomConfig(m, l, order)

    def build(weights):
        return (recursion_coeffs(m, l, weights, order),
                zstar_family(cfg, weights))

    rng = random.Random(seed)
    out = []
    for trial in range(TUPLES if lam is None else 1):
        coeffs, family = (build(lam) if lam is not None else sample_until(
            rng, lambda r: build(sample_lambda(m, r))))
        ok, detail, _ = verify_recursion(z_normalize(family), coeffs)
        out.append(Check(
            name=f"{name}#{trial}", identity=identity, passed=ok,
            detail=detail or f"{done} through Q-order {order}"))
    return out


def check_recursion_i(m: int = 5, l: int = 3, order: int = 6, seed: int = 0,
                      lam=None) -> list[Check]:
    if l >= m:
        raise DomainError(f"this recursion requires l < m, got ({m}, {l})")
    return _recursion_checks(
        "recursion-i",
        "hypergeometric correlators satisfy the l<m linear recursion with "
        "zero initial terms", "residuals zero", m, l, order, seed, lam)


def check_recursion_ii(m: int = 4, l: int = 4, order: int = 6, seed: int = 0,
                       lam=None) -> list[Check]:
    if l != m:
        raise DomainError(f"this recursion requires l = m, got ({m}, {l})")
    return _recursion_checks(
        "recursion-ii",
        f"e^(-{m}! Q)-modified correlators satisfy the l=m recursion with "
        "exponential initial terms", "residuals zero", m, l, order, seed, lam)


def check_recursion_cy(m: int = 4, l: int = 5, order: int = 6, seed: int = 0,
                       lam=None) -> list[Check]:
    if l != m + 1:
        raise DomainError(f"the Calabi-Yau recursion requires l = m+1, got ({m}, {l})")
    return _recursion_checks(
        "recursion-cy",
        "Calabi-Yau recursion residuals are hbar-polynomials of degree <= d",
        "initial terms extracted", m, l, order, seed, lam)


def check_class_p(m: int = 4, l: int = 5, order: int = 6,
                  seed: int = 0, lam=None) -> list[Check]:
    if l != m + 1:
        raise DomainError("class-P extraction is a Calabi-Yau-regime check")
    cfg = HypergeomConfig(m, l, order)
    bounds = ("N_id are hbar-polynomials of degree <= (m+1)d; E_d has "
              "P-degree <= (m+1)d + m with polynomial coefficients")
    weights = lam if lam is not None else sample_lambda(m, random.Random(seed))
    try:
        data = classP_extract(zstar_family(cfg, weights))
    except ClassPViolation as exc:
        return [Check(name="class-p-bounds", identity=bounds, passed=False,
                      detail=str(exc))]
    # Below the first miss E_d is the closed form by construction, so only
    # the interpolated degrees (in increasing d) are compared.
    differs = next((d for d, polys in data.interpolated.items()
                    if polys != closed_form_E(m, d)), None)
    return [
        Check(name="class-p-bounds", identity=bounds, passed=True,
              detail=f"extracted through degree {order}"),
        Check(name="class-p-closed-form",
              identity="E_d = prod_(r=0..(m+1)d)((m+1)P - r hbar)",
              passed=differs is None,
              detail=(f"compared structurally for d <= {order}"
                      if differs is None
                      else f"E_{differs} differs from the closed form"))]


def check_phi_poly(m: int = 4, l: int = 5, order: int = 6,
                   seed: int = 0, lam=None) -> list[Check]:
    if l != m + 1:
        raise DomainError("the double correlator check is Calabi-Yau-regime")
    cfg = HypergeomConfig(m, l, order)
    weights = lam if lam is not None else sample_lambda(m, random.Random(seed))
    phi = phi_double_correlator(zstar_family(cfg, weights), PHI_POLY_Z_ORDER)
    bad = [(k, e) for k, row in enumerate(phi.c)
           for e, v in enumerate(row) if not v.is_polynomial()]
    return [Check(
        name="phi-poly",
        identity="double-correlator coefficients are hbar-polynomials",
        passed=not bad,
        detail=(f"all z^k q^e coefficients polynomial through "
                f"z^{PHI_POLY_Z_ORDER} q^{order}" if not bad
                else f"non-polynomial coefficients at {bad}"))]


def check_transformations(m: int = 4, l: int = 5, order: int = 6,
                          seed: int = 0, lam=None) -> list[Check]:
    """The three laws on Phi through z^LAWS_Z_ORDER, and the composite
    inverse of Z*, whose verdict is read modulo hbar^-2 over Q: on the
    (hbar^0, hbar^-1) heads, which must be (1, 0).  The regime is read
    from (m, l): these are Calabi-Yau checks, l = m + 1."""
    if l != m + 1:
        raise DomainError("transformation laws are a Calabi-Yau-regime check")
    cfg = HypergeomConfig(m, l, order)
    rng = random.Random(seed)
    family = zstar_family(cfg, lam if lam is not None
                          else sample_lambda(m, rng))
    phi = phi_double_correlator(family, LAWS_Z_ORDER)
    f = TruncSeries([Fraction(1)] + sample_series_coeffs(rng, order - 1,
                                                         span=4, max_den=3),
                    order)
    g = TruncSeries([Fraction(0)] + sample_series_coeffs(rng, order - 1,
                                                         span=4, max_den=3),
                    order)
    C = sum(family.lam[i] * Fraction(i + 1, 2) for i in range(m + 1))
    checks = []
    for kind, predicted in (
            ("a", phi_law_a(phi, f)),
            ("b", phi_law_b(phi, g)),
            ("c", phi_law_c(phi, g, C))):
        transformed = transform_family(family, kind,
                                       f if kind == "a" else g,
                                       C=C if kind == "c" else None)
        direct = phi_double_correlator(transformed, LAWS_Z_ORDER)
        same = direct == predicted
        detail = f"coefficientwise through z^{LAWS_Z_ORDER} q^{order}"
        if not same:
            k, e, _ = (direct - predicted).first_nonzero()
            detail = f"first mismatch at z^{k} q^{e}"
        checks.append(Check(
            name=f"phi-law-{kind}",
            identity=f"transformation ({kind}) acts on the double "
                     "correlator as predicted",
            passed=same, detail=detail))
    trivial = all(h0 == TruncSeries.one(order)
                  and h1 == TruncSeries.zero(order)
                  for h0, h1 in composite_inverse_of_zstar(family))
    checks.append(Check(
        name="composite-inverse",
        identity="inverse composite transformation of the hypergeometric "
                 "family is trivial modulo hbar^-2",
        passed=trivial,
        detail=f"checked through q-order {order}"))
    return checks


def check_descendents() -> list[Check]:
    """Descendents d = 1..3 of P^2..P^4, read off one solution each (at
    hbar = 1, see ``fundamental_solution``), and the quantum ODE of the
    P^2 and P^3 solutions, which at hbar = 1 is the case-(i) operator at
    (m + 1, 1)."""
    sols = {mm: fundamental_solution(mm, 3) for mm in (2, 3, 4)}
    checks = []
    for mm, sol in sols.items():
        for d in (1, 2, 3):
            got = sol.coeff(0, d)
            checks.append(Check(
                name=f"descendent-m{mm}-d{d}",
                identity="two-point descendent = 1/(d!)^(m+1)",
                passed=got == Fraction(1, factorial(d) ** (mm + 1)),
                detail=f"value {got}"))
    for mm in (2, 3):
        checks.append(residual_check(
            f"quantum-ode-m{mm}",
            "(hbar d/dt)^(m+1) - e^t annihilates the fundamental solution",
            hypersurface_operator_residual(sols[mm], mm + 1, 1)))
    return checks


CHECKS = {
    "picard-fuchs": picard_fuchs_check,
    "case-i": case_i_check,
    "case-ii": case_ii_check,
    "recursion-i": check_recursion_i,
    "recursion-ii": check_recursion_ii,
    "recursion-cy": check_recursion_cy,
    "class-p": check_class_p,
    "phi-poly": check_phi_poly,
    "transformations": check_transformations,
    "mirror-identity": mirror_identity_check,
    "descendents": check_descendents,
}

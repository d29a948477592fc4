"""Recursion coefficients, class-P data, double correlator, transformations."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from quintic_mirror.errors import ClassPViolation, DomainError
from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.hypergeom import (CorrelatorFamily, HypergeomConfig,
                                      f_and_g, zstar_family)
from quintic_mirror.recursion import (classP_extract, closed_form_E,
                                      composite_inverse_of_zstar,
                                      _cy_coefficient_cleared,
                                      _cy_coefficient_direct, forward_solve,
                                      mod_hbar2, phi_double_correlator,
                                      phi_law_a, phi_law_b, phi_law_c,
                                      recursion_coeffs, transform_family,
                                      verify_recursion, z_normalize)
from quintic_mirror.sampling import (sample_lambda, sample_series_coeffs,
                                     sample_until)
from quintic_mirror.series import TruncSeries


def F(p, q=1):
    return Fraction(p, q)


def cy_setup(rng, m=4, order=3, lam=None):
    def build(r):
        weights = lam if lam is not None else sample_lambda(m, r)
        coeffs = recursion_coeffs("calabi_yau", m, m + 1, weights, order)
        cfg = HypergeomConfig(m, m + 1, order, m)
        return weights, coeffs, zstar_family(cfg, weights)
    return sample_until(rng, build)


def test_cy_coefficient_dual_path():
    # Literal and denominator-cleared derivations of the same coefficient
    # must agree, including at the grid point of the reference example.
    lam = tuple(F(i) for i in range(5))
    direct = _cy_coefficient_direct(4, lam, 0, 1, 1)
    cleared = _cy_coefficient_cleared(4, lam, 0, 1, 1)
    assert direct == cleared
    assert direct.eval(7) == cleared.eval(7)
    rng = random.Random(31)
    lam = sample_lambda(4, rng)
    for d in (1, 2, 3):
        for j in (1, 3):
            assert (_cy_coefficient_direct(4, lam, 0, j, d)
                    == _cy_coefficient_cleared(4, lam, 0, j, d))


def test_initial_terms_by_regime():
    rng = random.Random(32)
    lam = sample_lambda(5, rng)
    sub = recursion_coeffs("sub_m", 5, 3, lam, 3)
    assert all(sub.initial[i].is_zero() for i in range(6))
    lam4 = sample_lambda(4, rng)
    eq = recursion_coeffs("equal_m", 4, 4, lam4, 3)
    for i in range(5):
        denom = F(1)
        for a in range(5):
            if a != i:
                denom *= lam4[i] - lam4[a]
        expected = (F(4) * lam4[i]) ** 4 / denom - 24
        assert eq.initial[i][1] == expected
        assert eq.initial[i][0] == 0


def test_regime_validation():
    with pytest.raises(DomainError):
        recursion_coeffs("sub_m", 4, 5, tuple(F(i) for i in range(5)), 2)
    with pytest.raises(DomainError):
        recursion_coeffs("bogus", 4, 5, tuple(F(i) for i in range(5)), 2)


def test_recursion_sub_m_residual_zero():
    rng = random.Random(33)

    def build(r):
        lam = sample_lambda(5, r)
        coeffs = recursion_coeffs("sub_m", 5, 3, lam, 3)
        fam = zstar_family(HypergeomConfig(5, 3, 3, 5), lam)
        ok, detail, _ = verify_recursion(z_normalize(fam), coeffs)
        return ok, detail

    ok, detail = sample_until(rng, build)
    assert ok, detail


def test_recursion_equal_m_residual_zero():
    rng = random.Random(34)

    def build(r):
        lam = sample_lambda(4, r)
        coeffs = recursion_coeffs("equal_m", 4, 4, lam, 3)
        fam = zstar_family(HypergeomConfig(4, 4, 3, 4), lam)
        ok, detail, _ = verify_recursion(
            z_normalize(fam, modified=True), coeffs)
        return ok, detail

    ok, detail = sample_until(rng, build)
    assert ok, detail


def test_recursion_equal_m_fails_without_prefactor():
    # The raw correlators do not satisfy the l = m recursion; only the
    # e^(-m! Q)-modified ones do.
    rng = random.Random(35)

    def build(r):
        lam = sample_lambda(4, r)
        coeffs = recursion_coeffs("equal_m", 4, 4, lam, 2)
        fam = zstar_family(HypergeomConfig(4, 4, 2, 4), lam)
        ok, _, _ = verify_recursion(z_normalize(fam, modified=False), coeffs)
        return ok

    assert sample_until(rng, build) is False


def test_recursion_cy_initial_terms_bounded():
    rng = random.Random(36)
    lam, coeffs, fam = cy_setup(rng)
    ok, detail, extracted = verify_recursion(z_normalize(fam), coeffs)
    assert ok, detail
    for (i, d), poly in extracted.items():
        assert poly.degree <= d


def test_classP_numerators_and_interpolant():
    rng = random.Random(37)
    lam, _, fam = cy_setup(rng, order=2)
    data = classP_extract(fam)
    for i in range(5):
        assert data.N_table[(i, 0)] == 1
        for d in (1, 2):
            assert data.N_table[(i, d)].degree <= 5 * d
    for d in (0, 1, 2):
        closed = closed_form_E(4, d)
        assert data.E_polys[d] == closed
        assert len(data.E_polys[d]) - 1 == 5 * d + 1   # degree (m+1)d + 1


def test_classP_detects_corrupted_family():
    rng = random.Random(38)
    lam, _, fam = cy_setup(rng, order=2)
    bad = fam.coeff(2, 1) * RatFunc(Poly([1]), Poly([3, 1]))
    fam.entries[2] = TruncSeries(
        [fam.coeff(2, 0), bad, fam.coeff(2, 2)], 2)
    with pytest.raises(ClassPViolation):
        classP_extract(fam)


def test_phi_constant_family_vandermonde_identity():
    # Brute-force oracle: sum lam_i^k/prod(lam_i - lam_j) vanishes for
    # k < m, so the z-expansion of the trivial double correlator starts
    # only at z^(m-1).
    rng = random.Random(39)
    lam = sample_lambda(4, rng)
    for k in range(4):
        acc = F(0)
        for i in range(5):
            denom = F(1)
            for j in range(5):
                if j != i:
                    denom *= lam[i] - lam[j]
            acc += lam[i] ** k / denom
        assert acc == 0
    const = CorrelatorFamily(
        lam, [TruncSeries([RatFunc.const(1)] + [RatFunc.const(0)] * 2, 2)
              for _ in range(5)], 4, 5, 2)
    phi = phi_double_correlator(const, 3, 2)
    assert phi.coeff(0, 0, 0).is_zero()
    assert phi.coeff(0, 1, 0).is_zero()
    assert phi.coeff(0, 2, 0).is_zero()
    # z^3 q^0 coefficient: 5 * sum lam_i^4 / prod != 0 generically.
    assert not phi.coeff(0, 3, 0).is_zero()


def test_phi_zstar_polynomial_and_fault_detection():
    rng = random.Random(40)
    lam, _, fam = cy_setup(rng, order=2)
    phi = phi_double_correlator(fam, 2, 2)
    assert all(v.is_polynomial() for row in phi.c[0] for v in row)
    # Dropping a factor from one coefficient breaks polynomiality.
    broken = fam.coeff(1, 1) * RatFunc(Poly([1]), Poly([lam[1] - lam[0], 1]))
    fam.entries[1] = TruncSeries(
        [fam.coeff(1, 0), broken, fam.coeff(1, 2)], 2)
    phi_bad = phi_double_correlator(fam, 2, 2)
    assert any(not v.is_polynomial() for row in phi_bad.c[0] for v in row)


def test_transformations_identity_cases():
    rng = random.Random(41)
    lam, _, fam = cy_setup(rng, order=2)
    ident_a = transform_family(fam, "a", TruncSeries.one(2))
    assert all(ident_a.coeff(i, d) == fam.coeff(i, d)
               for i in range(5) for d in range(3))
    ident_b = transform_family(fam, "b", TruncSeries.zero(2))
    assert all(ident_b.coeff(i, d) == fam.coeff(i, d)
               for i in range(5) for d in range(3))


def test_transformation_preconditions():
    rng = random.Random(42)
    lam, _, fam = cy_setup(rng, order=2)
    with pytest.raises(DomainError):
        transform_family(fam, "a", TruncSeries([F(2), F(0), F(0)], 2))
    with pytest.raises(DomainError):
        transform_family(fam, "b", TruncSeries([F(1), F(0), F(0)], 2))
    with pytest.raises(DomainError):
        transform_family(fam, "c", TruncSeries.zero(2))


def test_phi_transformation_laws_small():
    rng = random.Random(43)
    lam, _, fam = cy_setup(rng, order=2)
    phi = phi_double_correlator(fam, 2, 2)
    f = TruncSeries([F(1)] + sample_series_coeffs(rng, 1, span=3, max_den=2),
                    2)
    g = TruncSeries([F(0)] + sample_series_coeffs(rng, 1, span=3, max_den=2),
                    2)
    C = sum(lam)
    fam_a = transform_family(fam, "a", f)
    assert phi_double_correlator(fam_a, 2, 2) == phi_law_a(phi, f)
    fam_b = transform_family(fam, "b", g)
    assert phi_double_correlator(fam_b, 2, 2) == phi_law_b(phi, g)
    fam_c = transform_family(fam, "c", g, C=C)
    assert phi_double_correlator(fam_c, 2, 2) == phi_law_c(phi, g, C)


def test_phi_transformation_laws_use_every_z_power():
    # For m >= 2 the rows z^0..z^(m-2) of Phi vanish, so a low z-cap sees
    # only the leading terms of exp(C delta) and (z + delta)^k.  At m = 1
    # Phi starts at z^0 and every power up to the cap counts.
    rng = random.Random(45)
    lam, _, fam = cy_setup(rng, m=1, order=3)
    phi = phi_double_correlator(fam, 3, 3)
    assert not any(v.is_zero() for v in phi.c[0][0])
    f = TruncSeries([F(1)] + sample_series_coeffs(rng, 2, span=3, max_den=2),
                    3)
    g = TruncSeries([F(0)] + sample_series_coeffs(rng, 2, span=3, max_den=2),
                    3)
    C = sum(lam)
    for kind, series, predicted in (
            ("a", f, phi_law_a(phi, f)),
            ("b", g, phi_law_b(phi, g)),
            ("c", g, phi_law_c(phi, g, C))):
        transformed = transform_family(fam, kind, series,
                                       C=C if kind == "c" else None)
        assert phi_double_correlator(transformed, 3, 3) == predicted, kind


def test_mod_hbar2_closed_form_and_triviality():
    rng = random.Random(44)
    lam, _, fam = cy_setup(rng, order=3)
    Fq, G5 = f_and_g(4, 5, 3)
    _, G1 = f_and_g(4, 1, 3)
    total = sum(lam)
    for i, (h0, h1) in enumerate(mod_hbar2(fam.entries, 3)):
        assert h0 == Fq
        assert h1 == (G5 - G1).scale(5 * lam[i]) + G1.scale(total)
    const = CorrelatorFamily(
        lam, [TruncSeries([RatFunc.const(1)] + [RatFunc.const(0)] * 3, 3)
              for _ in range(5)], 4, 5, 3)
    pairs = mod_hbar2(const.entries, 3)
    assert all(h0 == TruncSeries.one(3) and h1 == TruncSeries.zero(3)
               for h0, h1 in pairs)


def test_forward_solve_uniqueness():
    rng = random.Random(45)
    lam, coeffs, fam = cy_setup(rng, order=3)
    z = z_normalize(fam)
    ok, detail, extracted = verify_recursion(z, coeffs)
    assert ok, detail
    solved = forward_solve(extracted, coeffs, 3)
    assert all(solved[i] == z[i] for i in range(5))


def test_two_coefficient_determinacy():
    # The expansion modulo hbar^-2 is exactly (I0 + I1/hbar)/d! per degree.
    rng = random.Random(46)
    lam, coeffs, fam = cy_setup(rng, order=3)
    z = z_normalize(fam)
    ok, _, extracted = verify_recursion(z, coeffs)
    assert ok
    pairs = mod_hbar2(fam.entries, 3)
    for i in range(5):
        h0, h1 = pairs[i]
        for d in range(1, 4):
            I = extracted[(i, d)]
            assert h0[d] == I.coeff(d) / factorial(d)
            assert h1[d] == I.coeff(d - 1) / factorial(d)


def test_composite_inverse_trivial_mod_hbar2():
    rng = random.Random(47)
    lam, _, fam = cy_setup(rng, order=3)
    inverse = composite_inverse_of_zstar(fam)
    for h0, h1 in mod_hbar2(inverse, 3):
        assert h0 == TruncSeries.one(3)
        assert h1 == TruncSeries.zero(3)

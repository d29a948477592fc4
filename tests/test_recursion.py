"""Recursion coefficients, class-P data, double correlator, transformations."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from quintic_mirror import recursion, verify
from quintic_mirror.errors import ClassPViolation, DegenerateLambda, DomainError
from quintic_mirror.hbar import Lifted, Poly, RatFunc
from quintic_mirror.hypergeom import (CorrelatorFamily, HypergeomConfig,
                                      exp_prefactor, f_and_g, zstar_family)
from quintic_mirror.recursion import (classP_extract, closed_form_E,
                                      composite_inverse_of_zstar,
                                      mod_hbar2, phi_double_correlator,
                                      phi_law_a, phi_law_b, phi_law_c,
                                      recursion_coeffs, transform_family,
                                      verify_recursion, z_normalize)
from quintic_mirror.sampling import (sample_lambda, sample_series_coeffs,
                                     sample_until)
from quintic_mirror.series import TruncSeries
from quintic_mirror.verify import check_class_p
import classp_reference
from classp_reference import e_polys
from recursion_oracle import (composite_inverse_full, cy_coefficient_cleared,
                              cy_coefficient_direct, forward_solve,
                              oracle_coeffs, phi_pairwise,
                              zstar_family_fraction)


def F(p, q=1):
    return Fraction(p, q)


# Fixed examples, and no shrinking: a kernel that raises on every example
# is reported at once instead of after minutes of shrinking.
_differential = settings(deadline=None, derandomize=True, database=None,
                         phases=(Phase.explicit, Phase.generate))


def truncated(fam, order):
    """The family read through q-order ``order`` only."""
    return fam.map_entries(lambda i, e: TruncSeries(e.coeffs, order))


def cy_setup(rng, m=4, order=3, lam=None):
    def build(r):
        weights = lam if lam is not None else sample_lambda(m, r)
        coeffs = recursion_coeffs(m, m + 1, weights, order)
        cfg = HypergeomConfig(m, m + 1, order)
        return weights, coeffs, zstar_family(cfg, weights)
    return sample_until(rng, build)


def test_cy_coefficient_dual_path():
    # The integer kernel and both literal derivations of the same
    # coefficient agree, including at the grid point of the reference
    # example.
    lam = tuple(F(i) for i in range(5))
    kernel = recursion_coeffs(4, 5, lam, 1).C[(0, 1, 1)]
    direct = cy_coefficient_direct(4, lam, 0, 1, 1)
    cleared = cy_coefficient_cleared(4, lam, 0, 1, 1)
    assert kernel == direct == cleared
    assert kernel.eval(7) == direct.eval(7) == cleared.eval(7)
    rng = random.Random(31)
    lam = sample_lambda(4, rng)
    C = recursion_coeffs(4, 5, lam, 3).C
    for d in (1, 2, 3):
        for j in (1, 3):
            assert (C[(0, j, d)] == cy_coefficient_direct(4, lam, 0, j, d)
                    == cy_coefficient_cleared(4, lam, 0, j, d))


def _outcome(build):
    try:
        return build()
    except DegenerateLambda as exc:
        return str(exc)


# Weights of small height, so the coefficient denominators vanish often,
# and the sampler's weights, which the checks use.
_mixed_weights = st.one_of(
    st.lists(st.integers(-5, 5).map(Fraction), min_size=2, max_size=6,
             unique=True).map(tuple),
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3),
             min_size=2, max_size=6, unique=True).map(tuple),
    st.integers(1, 5).flatmap(lambda m: st.builds(
        sample_lambda, st.just(m), st.randoms(use_true_random=False))))


def _same_coefficients(m, l, lam, order):
    got = _outcome(lambda: recursion_coeffs(m, l, lam, order).C)
    want = _outcome(lambda: oracle_coeffs(m, l, lam, order))
    # Equal dicts, or DegenerateLambda at the same first (i, j, d).
    assert got == want, (m, l, lam)
    if isinstance(got, dict):
        assert all(hash(got[k]) == hash(want[k]) for k in got)
    return got


@settings(_differential, max_examples=100)
@given(_mixed_weights, st.integers(2, 3), st.data())
def test_integer_coefficients_match_fraction_oracle(lam, order, data):
    m = len(lam) - 1
    _same_coefficients(m, data.draw(st.integers(1, m + 1), label="l"),
                       lam, order)


def test_grid_weights_are_degenerate_in_every_regime():
    lam = tuple(F(i) for i in range(5))
    for l in (3, 4, 5):
        assert isinstance(_same_coefficients(4, l, lam, 2), str)


@settings(_differential, max_examples=100)
@given(_mixed_weights, st.integers(1, 4), st.data())
def test_integer_zstar_matches_fraction_oracle(lam, order, data):
    m = len(lam) - 1
    l = data.draw(st.integers(1, m + 1), label="l")
    cfg = HypergeomConfig(m, l, order)
    got, want = zstar_family(cfg, lam), zstar_family_fraction(cfg, lam)
    assert got.lam == want.lam
    for i in range(m + 1):
        for d in range(order + 1):
            a, b = got.coeff(i, d), want.coeff(i, d)
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_initial_terms_by_regime():
    rng = random.Random(32)
    lam = sample_lambda(5, rng)
    sub = recursion_coeffs(5, 3, lam, 3)
    assert all(sub.initial[i].is_zero() for i in range(6))
    lam4 = sample_lambda(4, rng)
    eq = recursion_coeffs(4, 4, lam4, 3)
    for i in range(5):
        denom = F(1)
        for a in range(5):
            if a != i:
                denom *= lam4[i] - lam4[a]
        expected = (F(4) * lam4[i]) ** 4 / denom - 24
        assert eq.initial[i][1] == expected
        assert eq.initial[i][0] == 0


def test_recursion_sub_m_residual_zero():
    # The l < m correlators satisfy their recursion unmodified.  Planted
    # fault: the e^(-m! Q) prefactor, which z_normalize multiplies in only
    # when l = m, breaks it.
    rng = random.Random(33)
    pref = exp_prefactor(-factorial(5), 3).map(RatFunc.const)

    def build(r):
        lam = sample_lambda(5, r)
        coeffs = recursion_coeffs(5, 3, lam, 3)
        z = z_normalize(zstar_family(HypergeomConfig(5, 3, 3), lam))
        ok, detail, _ = verify_recursion(z, coeffs)
        planted, _, _ = verify_recursion([e * pref for e in z], coeffs)
        return ok, detail, planted

    ok, detail, planted = sample_until(rng, build)
    assert ok, detail
    assert not planted


def test_recursion_equal_m_residual_zero():
    rng = random.Random(34)

    def build(r):
        lam = sample_lambda(4, r)
        coeffs = recursion_coeffs(4, 4, lam, 3)
        fam = zstar_family(HypergeomConfig(4, 4, 3), lam)
        ok, detail, _ = verify_recursion(z_normalize(fam), coeffs)
        return ok, detail

    ok, detail = sample_until(rng, build)
    assert ok, detail


def test_recursion_equal_m_fails_without_prefactor():
    # The raw correlators do not satisfy the l = m recursion; only the
    # e^(-m! Q)-modified ones that z_normalize returns do.  Planted fault:
    # e^(m! Q) times those entries, the rescaled raw correlators.
    rng = random.Random(35)
    undo = exp_prefactor(factorial(4), 2).map(RatFunc.const)

    def build(r):
        lam = sample_lambda(4, r)
        coeffs = recursion_coeffs(4, 4, lam, 2)
        fam = zstar_family(HypergeomConfig(4, 4, 2), lam)
        raw = [e * undo for e in z_normalize(fam)]
        ok, _, _ = verify_recursion(raw, coeffs)
        return ok

    assert sample_until(rng, build) is False


@pytest.mark.parametrize("regime, m, l", [("sub_m", 5, 3),
                                          ("calabi_yau", 4, 5)])
def test_recursion_fails_with_one_scaled_coefficient(regime, m, l):
    # One coefficient doubled must show in a residual: nonzero below the
    # Calabi-Yau case, non-polynomial in it, as read from (m, l).  At
    # d = d' the term reads z_j[0] = 1, so the scaled coefficient always
    # enters its residual.
    shows = "not polynomial" if regime == "calabi_yau" else "nonzero residual"
    lam = (F(3, 7), F(-11, 5), F(23, 3), F(2, 9), F(-31, 4), F(5, 2))[:m + 1]
    fam = zstar_family(HypergeomConfig(m, l, 3), lam)
    z = z_normalize(fam)
    for key in ((0, 1, 1), (2, 0, 2), (m, 1, 3)):
        coeffs = recursion_coeffs(m, l, lam, 3)
        assert verify_recursion(z, coeffs)[0]
        coeffs.C[key] = coeffs.C[key] * 2
        ok, detail, _ = verify_recursion(z, coeffs)
        assert not ok
        assert f"(i={key[0]}, Q^{key[2]})" in detail, detail
        assert shows in detail, detail


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
    E = e_polys(data)
    for d in (0, 1, 2):
        assert E[d] == closed_form_E(4, d)
        assert len(E[d]) - 1 == 5 * d + 1   # degree (m+1)d + 1


def test_classP_lazy_E_polys_equal_the_closed_form():
    # Sampled families at several m: every numerator takes its closed
    # form, which leaves every E_d to the closed form, and interpolating the
    # node values gives it too (the interpolant is unique).
    rng = random.Random(48)
    for m in (1, 2, 4):
        lam, _, fam = cy_setup(rng, m=m, order=3)
        data = classP_extract(fam)
        assert data.interpolated == {}
        assert e_polys(data) == {d: closed_form_E(m, d) for d in range(4)}
        nodes, values = [], []
        for i in range(m + 1):
            for r in range(3):
                nodes.append(Poly([lam[i], r]))
                values.append(RatFunc(Poly([(m + 1) * lam[i]])
                                      * data.N_table[(i, r)]
                                      * data.N_table[(i, 2 - r)].subs_neg()))
        interpolant = [c.as_poly() for c in
                       recursion._newton_interpolation(nodes, values)]
        while interpolant and interpolant[-1].is_zero():
            interpolant.pop()
        assert interpolant == closed_form_E(m, 2)


def test_classP_without_the_uniqueness_bound_interpolates():
    # At m = 0 each degree has d + 1 nodes and the closed form P-degree
    # d + 1: E_0 = P takes the one node value lam_0, but the interpolant
    # through one node is the constant lam_0.
    fam = CorrelatorFamily(
        (F(3),), [TruncSeries([RatFunc.const(1), RatFunc.const(0)], 1)], 1)
    data = classP_extract(fam)
    assert e_polys(data)[0] == [Poly([3])] != closed_form_E(0, 0)


def test_classP_passing_path_never_interpolates(monkeypatch):
    def forbidden(nodes, values):
        raise AssertionError("interpolation on the passing path")

    monkeypatch.setattr(recursion, "_newton_interpolation", forbidden)
    rng = random.Random(49)
    _, _, fam = cy_setup(rng, order=4)
    data = classP_extract(fam)
    assert e_polys(data) == {d: closed_form_E(4, d) for d in range(5)}
    checks = check_class_p(4, 5, 4, 0)
    assert checks and all(c.passed for c in checks), checks


def test_classP_passing_verdict_builds_no_closed_form(monkeypatch):
    # Below the first miss E_d is the closed form by construction: a
    # passing verdict has nothing left to compare.
    calls = []

    def counted(m, d):
        calls.append(d)
        return closed_form_E(m, d)

    monkeypatch.setattr(verify, "closed_form_E", counted)
    monkeypatch.setattr(recursion, "closed_form_E", counted)
    checks = check_class_p(4, 5, 4, 0)
    assert checks and all(c.passed for c in checks), checks
    assert calls == []


def test_classP_interpolates_the_degrees_whose_nodes_miss():
    # q -> 2q multiplies E_d by 2^d: polynomial, within the bounds, and off
    # the closed form from d = 1 on.
    rng = random.Random(50)
    _, _, fam = cy_setup(rng, order=2)
    fam.entries = [TruncSeries([c * 2 ** d for d, c in enumerate(e.coeffs)],
                               2) for e in fam.entries]
    data = classP_extract(fam)
    assert sorted(data.interpolated) == [1, 2]
    assert e_polys(data) == {d: [c * 2 ** d for c in closed_form_E(4, d)]
                             for d in range(3)}


def _rescaled(fam, factor):
    """fam with its Q^d coefficient of entry i multiplied by factor(i, d)."""
    fam.entries = [TruncSeries([c * factor(i, d) for d, c in
                                enumerate(e.coeffs)], fam.order)
                   for i, e in enumerate(fam.entries)]
    return fam


def test_classP_interpolates_every_degree_from_the_first_miss():
    # q -> -q takes every N_id to (-1)^d times its closed form, so the
    # node values of the even degrees still match; each degree from 1 on
    # is interpolated all the same, and E_d is (-1)^d times the closed form.
    rng = random.Random(51)
    for m, D in ((1, 4), (4, 3)):
        _, _, fam = cy_setup(rng, m=m, order=D)
        data = classP_extract(_rescaled(fam, lambda i, d: (-1) ** d))
        assert sorted(data.interpolated) == list(range(1, D + 1))
        assert e_polys(data) == {d: [c * (-1) ** d
                                     for c in closed_form_E(m, d)]
                                 for d in range(D + 1)}


PERTURBATIONS = {
    "q->-q": lambda order, m: lambda i, d: (-1) ** d,
    "q->cq": lambda order, m: lambda i, d: F(-3, 2) ** d,
    "one coefficient": lambda order, m: lambda i, d: (
        2 if (i, d) == (order % (m + 1), (order + 1) // 2) else 1),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_classP_matches_the_node_value_verdict(m):
    # Against the verdict that compared every node value with the closed
    # form: the same E_d, or the same first violation, word for word.
    rng = random.Random(52 + m)
    raised = 0
    for order in range(1, 6):
        for kind, perturb in PERTURBATIONS.items():
            _, _, fam = cy_setup(rng, m=m, order=order)
            fam = _rescaled(fam, perturb(order, m))
            outcomes = []
            for extract in (classP_extract, classp_reference.classP_extract):
                try:
                    outcomes.append(e_polys(extract(fam)))
                except ClassPViolation as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (m, order, kind)
            raised += isinstance(outcomes[0], str)
    assert 0 < raised < 15


def test_classP_reads_the_family_order():
    # A lower order is the family truncated to it, down to order 0.
    fam = zstar_family(HypergeomConfig(4, 5, 2),
                       tuple(F(x) for x in (0, 1, 10, 100, 1000)))
    full = classP_extract(fam)
    assert full.order == 2
    for order in (0, 1):
        data = classP_extract(truncated(fam, order))
        assert data.order == order
        assert data.N_table == {(i, d): full.N_table[(i, d)]
                                for i in range(5) for d in range(order + 1)}
    assert e_polys(classP_extract(truncated(fam, 0))) == {
        0: closed_form_E(4, 0)}


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
              for _ in range(5)], 5)
    phi = phi_double_correlator(const, 3)
    assert phi.coeff(0, 0).is_zero()
    assert phi.coeff(1, 0).is_zero()
    assert phi.coeff(2, 0).is_zero()
    # z^3 q^0 coefficient: 5 * sum lam_i^4 / prod != 0 generically.
    assert not phi.coeff(3, 0).is_zero()


def test_phi_zstar_polynomial_and_fault_detection():
    rng = random.Random(40)
    lam, _, fam = cy_setup(rng, order=2)
    phi = phi_double_correlator(fam, 2)
    assert all(v.is_polynomial() for row in phi.c for v in row)
    # Dropping a factor from one coefficient breaks polynomiality.
    broken = fam.coeff(1, 1) * RatFunc(Poly([1]), Poly([lam[1] - lam[0], 1]))
    fam.entries[1] = TruncSeries(
        [fam.coeff(1, 0), broken, fam.coeff(1, 2)], 2)
    phi_bad = phi_double_correlator(fam, 2)
    assert any(not v.is_polynomial() for row in phi_bad.c for v in row)


def _same_phi(got, want) -> None:
    assert got.caps() == want.caps()
    for row_got, row_want in zip(got.c, want.c):
        for a, b in zip(row_got, row_want):
            assert a == b and hash(a) == hash(b)


@settings(_differential, max_examples=20)
@given(st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 4))
def test_phi_matches_pairwise_oracle(seed, z_cap, q_order):
    # Z* and its image under each transformation: one lift per q-order
    # gives the same coefficients as adding the terms one at a time.  Each
    # family is truncated to q_order, which may be 0.
    rng = random.Random(seed)
    order = max(q_order, 1)
    lam = sample_lambda(4, rng)
    fam = zstar_family(HypergeomConfig(4, 5, order), lam)
    f = TruncSeries([F(1)] + sample_series_coeffs(rng, order - 1, span=4,
                                                  max_den=3), order)
    g = TruncSeries([F(0)] + sample_series_coeffs(rng, order - 1, span=4,
                                                  max_den=3), order)
    for family in (fam, transform_family(fam, "a", f),
                   transform_family(fam, "b", g),
                   transform_family(fam, "c", g, C=sum(lam))):
        family = truncated(family, q_order)
        _same_phi(phi_double_correlator(family, z_cap),
                  phi_pairwise(family, z_cap))


def test_phi_cancels_a_pole_where_a_multiplier_vanishes():
    # Z* never has this pole: with lam_a = 0 the factor (lam_i + r hbar) of
    # its numerator cancels the pole (lam_a - lam_i)/r.  Planted here:
    # Y_1[1] = 1/(1 + hbar) has the pole hbar = -1 = (lam_0 - lam_1)/1 and
    # the family has no other pole but its image +1, so the term
    # Y_1[1](hbar) Y_1[0](-hbar) holds it alone.  That term's z^k
    # multiplier (lam_1 + hbar)^k vanishes there: the pole cancels for
    # k >= 1.
    lam = (F(0), F(1), F(2), F(5), F(-3))
    entries = [TruncSeries([RatFunc.const(1), RatFunc.const(0)], 1)
               for _ in lam]
    entries[1] = TruncSeries([RatFunc.const(1),
                              RatFunc(Poly([1]), Poly([1, 1]))], 1)
    fam = CorrelatorFamily(lam, entries, 5)
    phi = phi_double_correlator(fam, 3)
    _same_phi(phi, phi_pairwise(fam, 3))
    assert (-1, 1) in phi.coeff(0, 1).roots
    assert all((-1, 1) not in phi.coeff(k, 1).roots for k in (1, 2, 3))


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
    # At m = 4 the rows z^0..z^2 of Phi vanish, so the z-cap is 4: the
    # laws' corrections reach the z^4 row through the z^3 row.
    rng = random.Random(43)
    lam, _, fam = cy_setup(rng, order=2)
    phi = phi_double_correlator(fam, 4)
    assert not any(v.is_zero() for v in phi.c[3] + phi.c[4])
    f = TruncSeries([F(1)] + sample_series_coeffs(rng, 1, span=3, max_den=2),
                    2)
    g = TruncSeries([F(0)] + sample_series_coeffs(rng, 1, span=3, max_den=2),
                    2)
    C = sum(lam)
    for kind, series, predicted in (
            ("a", f, phi_law_a(phi, f)),
            ("b", g, phi_law_b(phi, g)),
            ("c", g, phi_law_c(phi, g, C))):
        assert predicted != phi, kind
        transformed = transform_family(fam, kind, series,
                                       C=C if kind == "c" else None)
        assert phi_double_correlator(transformed, 4) == predicted, kind


def test_phi_transformation_laws_use_every_z_power():
    # For m >= 2 the rows z^0..z^(m-2) of Phi vanish, so a low z-cap sees
    # only the leading terms of exp(C delta) and (z + delta)^k.  At m = 1
    # Phi starts at z^0 and every power up to the cap counts.
    rng = random.Random(45)
    lam, _, fam = cy_setup(rng, m=1, order=3)
    phi = phi_double_correlator(fam, 3)
    assert not any(v.is_zero() for v in phi.c[0])
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
        assert phi_double_correlator(transformed, 3) == predicted, kind


def test_mod_hbar2_closed_form_and_triviality():
    rng = random.Random(44)
    lam, _, fam = cy_setup(rng, order=3)
    Fq, G1, G5 = f_and_g(4, 3)
    total = sum(lam)
    for i, (h0, h1) in enumerate(mod_hbar2(fam.entries, 3)):
        assert h0 == Fq
        assert h1 == (G5 - G1).scale(5 * lam[i]) + G1.scale(total)
    const = CorrelatorFamily(
        lam, [TruncSeries([RatFunc.const(1)] + [RatFunc.const(0)] * 3, 3)
              for _ in range(5)], 5)
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
    for h0, h1 in composite_inverse_of_zstar(fam):
        assert h0 == TruncSeries.one(3)
        assert h1 == TruncSeries.zero(3)


def _trivial(pairs, order) -> bool:
    return all(h0 == TruncSeries.one(order) and h1 == TruncSeries.zero(order)
               for h0, h1 in pairs)


@pytest.mark.parametrize("m", [1, 4])
def test_composite_heads_match_the_full_inverse(m):
    # The pairs read on the heads over Q equal the whole RatFunc inverse
    # read modulo hbar^-2 afterwards: on Z*, where both are (1, 0), and on
    # its image under (a), where they are not unless f = 1.
    rng = random.Random(60 + m)
    for order in range(1, 5):
        for _ in range(3):
            _, _, fam = cy_setup(rng, m=m, order=order)
            f = TruncSeries([F(1)] + sample_series_coeffs(
                rng, order - 1, span=4, max_den=3), order)
            pairs = []
            for family in (fam, transform_family(fam, "a", f)):
                want = mod_hbar2(composite_inverse_full(family), order)
                pairs.append(composite_inverse_of_zstar(family))
                assert pairs[-1] == want
            assert _trivial(pairs[0], order)
            assert _trivial(pairs[1], order) == (f == TruncSeries.one(order))


def test_composite_planted_faults_fail(monkeypatch):
    # Each fault leaves some pair other than (1, 0): dropping the
    # sum(lam) G_1/F term of A_i, flipping the sign of g in A_i (both
    # planted in the series the composite substitutes into), and doubling
    # one Z* coefficient.
    rng = random.Random(63)
    lam, _, fam = cy_setup(rng, order=3)
    assert sum(lam) != 0 and any(lam)
    assert _trivial(composite_inverse_of_zstar(fam), 3)
    Fq, G1, G5 = f_and_g(4, 3)
    g = (G5 - G1).scale(5) / Fq
    real = recursion.compose_all
    for fault in (lambda s: s.scale(0) if s == G1 / Fq else s,
                  lambda s: -s if s == g else s):
        monkeypatch.setattr(recursion, "compose_all", lambda outers, inner:
                            real([fault(s) for s in outers], inner))
        assert not _trivial(composite_inverse_of_zstar(fam), 3)
        checks = verify.check_transformations(4, 5, 3, 0, lam=lam)
        assert [c.name for c in checks if not c.passed] == [
            "composite-inverse"]
    monkeypatch.undo()
    doubled = _rescaled(fam, lambda i, d: 2 if (i, d) == (2, 2) else 1)
    assert not _trivial(composite_inverse_of_zstar(doubled), 3)


def test_composite_builds_no_ratfunc_product(monkeypatch):
    rng = random.Random(64)
    _, _, fam = cy_setup(rng, order=4)

    def forbidden(*args):
        raise AssertionError("hbar arithmetic in the composite inverse")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(RatFunc, name, forbidden)
    monkeypatch.setattr(Lifted, "__init__", forbidden)
    assert _trivial(composite_inverse_of_zstar(fam), 4)
    # The guard is not vacuous.
    with pytest.raises(AssertionError, match="hbar arithmetic"):
        RatFunc.const(2) * RatFunc.const(3)

"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with -v/-s); any
failure carries the first offending coefficient in the assertion message.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import quintic_mirror
from quintic_mirror.hypergeom import (HypergeomConfig, fundamental_solution,
                                      hypersurface_operator_residual,
                                      hypersurface_series, zstar_family)
from quintic_mirror.localization import oracle_crosscheck
from quintic_mirror.mirror import (build_mirror_map, case_i_check,
                                   case_ii_check, mirror_identity_check,
                                   multiple_cover_sum, quintic_invariants,
                                   transformed_quintic_series)
from quintic_mirror.recursion import (classP_extract, closed_form_E,
                                      composite_inverse_of_zstar,
                                      phi_double_correlator, phi_law_a,
                                      phi_law_b, phi_law_c, recursion_coeffs,
                                      transform_family, verify_recursion,
                                      z_normalize)
from quintic_mirror.sampling import (sample_lambda, sample_series_coeffs,
                                     sample_until)
from quintic_mirror.series import (TruncSeries, series_exp, series_log,
                                   series_reversion)
from classp_reference import e_polys
from explicit_t import expand

F = Fraction

PUBLISHED = {1: F(2875), 2: F(609250), 3: F(317206375),
             4: F(242467530000)}


def _announce(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_quintic_virtual_counts():
    table = quintic_invariants(4)
    for d, want in PUBLISHED.items():
        assert table.n[d - 1] == want, f"n_{d} = {table.n[d - 1]} != {want}"
    deep = quintic_invariants(60)
    assert deep.nonintegral_degrees() == []
    assert multiple_cover_sum(deep.n) == deep.N
    assert deep.n[:4] == [PUBLISHED[d] for d in (1, 2, 3, 4)]
    _announce(1, "virtual counts n_1..n_4 exact; integral and "
                 "cover-consistent through degree 60")


def test_criterion_2_localization_oracle():
    for d in (1, 2):
        check = oracle_crosscheck(d, trials=3, seed=d)
        assert check.passed, check.detail
    _announce(2, "graph sums N_1 = 2875, N_2 = 4876875/8, "
                 "weight-independent, equal to the pipeline")


def test_criterion_3_picard_fuchs_order_8():
    S = hypersurface_series(HypergeomConfig.quintic(8))
    res = hypersurface_operator_residual(S, 4, 5)
    assert res.is_zero(), f"first residual {res.first_nonzero()}"
    _announce(3, "order-4 period equation annihilates all components "
                 "through q-order 8")


def test_criterion_4_operator_identities_order_5():
    for m, l in ((5, 3), (4, 2), (6, 5)):
        check, = case_i_check(m, l, 5)
        assert check.passed, f"(m, l) = ({m}, {l}): {check.detail}"
    for m in (3, 4):
        check, = case_ii_check(m, m, 5)
        assert check.passed, f"(m, l) = ({m}, {m}): {check.detail}"
    # Fault injection: a single perturbed coefficient must be caught.
    S = hypersurface_series(HypergeomConfig(5, 3, 5))
    S.c[2][3] = S.c[2][3] + F(1, 3)
    assert not hypersurface_operator_residual(S, 5, 3).is_zero()
    _announce(4, "regime operator identities hold through q-order 5 "
                 "for all five (m, l) pairs; perturbations detected")


def test_criterion_5_recursion_verification():
    for trial_seed in (101, 202):
        rng = random.Random(trial_seed)

        def build_sub(r):
            lam = sample_lambda(5, r)
            coeffs = recursion_coeffs(5, 3, lam, 4)
            fam = zstar_family(HypergeomConfig(5, 3, 4), lam)
            return verify_recursion(z_normalize(fam), coeffs)

        ok, detail, _ = sample_until(rng, build_sub)
        assert ok, detail

        def build_eq(r):
            lam = sample_lambda(4, r)
            coeffs = recursion_coeffs(4, 4, lam, 4)
            fam = zstar_family(HypergeomConfig(4, 4, 4), lam)
            return verify_recursion(z_normalize(fam), coeffs)

        ok, detail, _ = sample_until(rng, build_eq)
        assert ok, detail

        def build_cy(r):
            lam = sample_lambda(4, r)
            coeffs = recursion_coeffs(4, 5, lam, 4)
            fam = zstar_family(HypergeomConfig(4, 5, 4), lam)
            return verify_recursion(z_normalize(fam), coeffs)

        ok, detail, extracted = sample_until(rng, build_cy)
        assert ok, detail
        assert all(p.degree <= d for (i, d), p in extracted.items())
    _announce(5, "linear recursions hold exactly (l<m, l=m) and with "
                 "degree-bounded initial terms (l=m+1) at 2 weight tuples")


def _cy_family(seed: int, order: int):
    rng = random.Random(seed)

    def build(r):
        lam = sample_lambda(4, r)
        recursion_coeffs(4, 5, lam, order)  # degeneracy probe
        fam = zstar_family(HypergeomConfig(4, 5, order), lam)
        # pole probe: the family read through q-order 1
        classP_extract(fam.map_entries(lambda i, e: TruncSeries(e.coeffs, 1)))
        return lam, fam

    return sample_until(rng, build)


def test_criterion_6_class_p_suite():
    lam, fam = _cy_family(303, 3)
    data = classP_extract(fam)
    for (i, d), poly in data.N_table.items():
        assert poly.degree <= 5 * d
    assert all(data.N_table[(i, 0)] == 1 for i in range(5))
    E = e_polys(data)
    for d in range(4):
        assert E[d] == closed_form_E(4, d), f"E_{d} mismatch"
    phi = phi_double_correlator(fam, 4)
    bad = [(k, e) for k, row in enumerate(phi.c)
           for e, v in enumerate(row) if not v.is_polynomial()]
    assert not bad, f"non-polynomial coefficients at {bad}"
    _announce(6, "N_id degree bounds, closed-form E_d (d <= 3), and "
                 "polynomial double correlator through z^4 q^3")


def test_criterion_7_transformation_laws():
    lam, fam = _cy_family(404, 3)
    rng = random.Random(505)
    phi = phi_double_correlator(fam, 3)
    f = TruncSeries([F(1)] + sample_series_coeffs(rng, 2, span=4, max_den=3),
                    3)
    g = TruncSeries([F(0)] + sample_series_coeffs(rng, 2, span=4, max_den=3),
                    3)
    C = sum(lam[i] * F(i - 1, 3) for i in range(5))
    for kind, series, predicted in (
            ("a", f, phi_law_a(phi, f)),
            ("b", g, phi_law_b(phi, g)),
            ("c", g, phi_law_c(phi, g, C))):
        transformed = transform_family(fam, kind, series,
                                       C=C if kind == "c" else None)
        direct = phi_double_correlator(transformed, 3)
        assert direct == predicted, f"law ({kind}) mismatch"
    for h0, h1 in composite_inverse_of_zstar(fam):
        assert h0 == TruncSeries.one(3)
        assert h1 == TruncSeries.zero(3)
    _announce(7, "double-correlator transformation laws through z^3 q^3; "
                 "inverse composite trivial modulo hbar^-2")


def test_criterion_8_mirror_map_and_prepotential():
    mm = build_mirror_map(4, 5)
    assert mm.g.coeffs[1] == 770
    check, = mirror_identity_check(5)
    assert check.passed, check.detail
    sub = transformed_quintic_series(5)
    table = quintic_invariants(5)
    # The components of e^(HT) K, with K the stored series.
    h0, h1, _, h3 = expand(sub)
    assert h0[0][0] == 1 and (
        all(h0[k][d] == 0 for k in range(4) for d in range(6)
            if (k, d) != (0, 0)))
    assert h1[1][0] == 1 and (
        all(h1[k][d] == 0 for k in range(4) for d in range(6)
            if (k, d) != (1, 0)))
    for d in range(1, 6):
        Nd = table.N[d - 1]
        assert h3[1][d] == F(d, 5) * Nd
        assert h3[0][d] == F(-2, 5) * Nd
    assert h3[3][0] == F(1, 6)
    _announce(8, "mirror-map seed 770; prepotential identity through "
                 "q-order 5; closed-form solution components exact")


def test_criterion_9_descendent_grid():
    for m in (2, 3, 4):
        sol = fundamental_solution(m, 3)
        for d in (1, 2, 3):
            got = sol.coeff(0, d)
            want = F(1, factorial(d) ** (m + 1))
            assert got == want, f"(m, d) = ({m}, {d}): {got} != {want}"
    _announce(9, "two-point descendents equal 1/(d!)^(m+1) on the "
                 "m in {2,3,4}, d in {1,2,3} grid")


def test_criterion_10_property_suites_and_determinism():
    rng = random.Random(777)
    for _ in range(100):
        coeffs = [sample_series_coeffs(rng, 4) for _ in range(3)]
        a, b, c = (TruncSeries(cs, 4) for cs in coeffs)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        z = TruncSeries([F(0)] + list(a.coeffs[1:]), 4)
        assert series_log(series_exp(z)) == z
        u = TruncSeries([F(1)] + list(b.coeffs[1:]), 4)
        w = series_reversion(u)
        q_of = TruncSeries([0] + list(w.coeffs[:4]), 4)
        assert (q_of * u.compose(q_of)) == TruncSeries.variable(4)
    cmd = [sys.executable, "-m", "quintic_mirror.cli", "verify",
           "recursion-cy", "--order", "3", "--seed", "11", "--format",
           "json"]
    # The child imports the package this test imported.
    env = {**os.environ,
           "PYTHONPATH": str(Path(quintic_mirror.__file__).parents[1])}
    runs = [subprocess.run(cmd, capture_output=True, check=False, env=env)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    _announce(10, "ring laws, exp/log and reversion round trips on 100 "
                  "random instances; byte-identical seeded reruns")

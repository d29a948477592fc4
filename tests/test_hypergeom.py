"""Hypergeometric series, periods, descendents, correlator families."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from quintic_mirror.errors import DegenerateLambda, DomainError
from quintic_mirror.hbar import RatFunc
from quintic_mirror.hypergeom import (HypergeomConfig, f_and_g,
                                      fundamental_solution,
                                      hypersurface_operator_residual,
                                      hypersurface_series, zstar_family)
from quintic_mirror.mixed import MixedSeries
from quintic_mirror.sampling import sample_lambda
from quintic_mirror.series import TruncSeries
import ambient_reference
from explicit_t import expand


def F(p, q=1):
    return Fraction(p, q)


def test_quintic_period_frozen_values():
    S = hypersurface_series(HypergeomConfig.quintic(2))
    assert S.coeff(0, 0) == 1
    assert S.coeff(0, 1) == 120             # (5*1)!/(1!)^5
    assert S.coeff(1, 1) == 770             # the mirror-map seed


def test_f_and_g_frozen_values():
    Fq, G1, G5 = f_and_g(4, 2)
    assert Fq.coeffs == [1, 120, 113400]
    assert G1.coeffs == [0, 120, 170100]    # 113400 * (1 + 1/2)
    assert G5.coeffs[1] == 274              # 120 * (1 + 1/2 + 1/3 + 1/4 + 1/5)
    assert G5.coeffs[0] == 0 and Fq.coeffs[0] == 1
    assert (G5 - G1).coeffs[1] == 154


def test_period_zero_is_factorial_series():
    for m in (3, 4):
        cfg = HypergeomConfig(m, m + 1, 5)
        S = hypersurface_series(cfg)
        Fq, _, _ = f_and_g(m, 5)
        assert S.row(0) == Fq
        # I_0 carries no positive t-powers.
        I0 = expand(S)[0]
        assert I0[0] == Fq.coeffs
        for k in range(1, S.top + 1):
            assert all(v == 0 for v in I0[k])


def test_period_ratio_identity():
    # I_1/I_0 = t + (m+1)(G_{m+1} - G_1)/F coefficientwise.
    for m in (3, 4):
        cfg = HypergeomConfig(m, m + 1, 5)
        S = hypersurface_series(cfg)
        Fq, G_1, G_top = f_and_g(m, 5)
        i1_t0, i1_t1 = (TruncSeries(row, 5) for row in expand(S)[1][:2])
        assert i1_t1 == Fq                      # t-part of I_1 is t*I_0
        assert i1_t0 == (G_top - G_1).scale(m + 1)


def test_picard_fuchs_all_components_order_8():
    S = hypersurface_series(HypergeomConfig.quintic(8))
    res = hypersurface_operator_residual(S, 4, 5)
    assert res.is_zero()


def test_ambient_solution_degree_zero_term():
    # e^(Ht) alone: H^i t^k q^0 is 1/k! when i = k, else 0.
    m = 3
    sol = expand(fundamental_solution(m, 2))
    for k in range(m + 1):
        for i in range(m + 1):
            want = Fraction(1, factorial(k)) if i == k else 0
            assert sol[i][k][0] == want


def test_ambient_solution_annihilated_by_quantum_operator():
    # At hbar = 1 the operator is (d/dt)^(m+1) - q: case (i) at (m+1, 1).
    for m in (1, 2, 3, 4):
        sol = fundamental_solution(m, 3)
        assert hypersurface_operator_residual(sol, m + 1, 1).is_zero()


def test_ambient_m1_d1_expansion():
    # 1/(H + hbar)^2 = hbar^-2 (1 - 2H/hbar) with H^2 = 0, at hbar = 1.
    sol = fundamental_solution(1, 1)
    assert sol.coeff(0, 1) == 1
    assert sol.coeff(1, 1) == -2


def _ring_route_agrees(solve, m: int, order: int) -> bool:
    """The P^m solution ``solve(m, order)`` against the one built by long
    divisions in H with RatFunc coefficients: the solution is expanded by
    e^(Ht), and hbar goes back onto each nonzero H^i t^k q^d value v as
    v hbar^(-(m+1)d - i), the root 0 taken (m+1)d + i times."""
    graded = [[[v * RatFunc.from_factors(1, {}, {(0, 1): (m + 1) * d + i})
                if v != 0 else v
                for d, v in enumerate(row)] for row in plane]
              for i, plane in enumerate(expand(solve(m, order)))]
    return graded == ambient_reference.fundamental_solution(m, order)


@pytest.mark.parametrize("m", range(6))
def test_ambient_solution_matches_the_ring_route(m):
    # The hyperplane identity and the grading rule, neither of which the
    # ring route uses.
    for order in range(7):
        assert fundamental_solution(m, order).caps() == (m, order)
        assert _ring_route_agrees(fundamental_solution, m, order)


@pytest.mark.parametrize("m", range(6))
def test_ring_route_catches_an_off_by_one_hyperplane(m):
    # The P^m solution built as a hyperplane in P^(m+2), cut to the caps
    # of P^m so that only its values differ: its q^d coefficient is
    # 1/(d!)^(m+2).  A reference that agrees with it would be vacuous.
    def off_by_one(m, order):
        wide = hypersurface_series(HypergeomConfig._make((m + 2, 1, order)))
        return MixedSeries(m, order, wide.c[:m + 1])

    assert not _ring_route_agrees(off_by_one, m, 3)


@pytest.mark.parametrize("m", [-1, -2])
def test_ambient_solution_rejects_negative_dimension(m):
    with pytest.raises(DomainError):
        fundamental_solution(m, 2)


def test_descendent_values_paper_grid():
    for m in (1, 2, 3, 4, 5):
        sol = fundamental_solution(m, 4)
        for d in (1, 2, 3, 4):
            assert sol.coeff(0, d) == F(1, factorial(d) ** (m + 1))


def test_descendent_examples():
    p4 = fundamental_solution(4, 2)
    assert p4.coeff(0, 1) == 1
    assert p4.coeff(0, 2) == F(1, 32)
    assert fundamental_solution(2, 2).coeff(0, 2) == F(1, 8)


def test_configs_with_the_same_fields_are_equal_values():
    a = HypergeomConfig(4, 5, 2)
    b = HypergeomConfig(m=4, l=5, order=2)
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != HypergeomConfig(4, 5, 3)
    assert HypergeomConfig.quintic(2) == a
    assert repr(a) == "HypergeomConfig(m=4, l=5, order=2)"
    with pytest.raises(AttributeError):
        a.order = 3


@pytest.mark.parametrize("fields", [(0, 1, 2), (4, 6, 2), (4, 5, 0),
                                    (4, 0, 2)])
def test_config_rejects_fields_outside_the_domain(fields):
    with pytest.raises(DomainError):
        HypergeomConfig(*fields)


def test_zstar_constant_terms_and_example_value():
    cfg = HypergeomConfig(4, 5, 2)
    fam = zstar_family(cfg, tuple(F(i) for i in range(5)))
    assert all(fam.coeff(i, 0) == 1 for i in range(5))
    # Direct product oracle: num = prod(10r) = 12,000,000,
    # den = 10*9*8*7*6 = 30,240; the ratio reduces to 25000/63.
    assert fam.coeff(0, 1).eval(10) == F(25000, 63)


def test_zstar_rejects_repeated_weights():
    cfg = HypergeomConfig(4, 5, 2)
    # The condition recursion_coeffs reports, with the same exception.
    with pytest.raises(DegenerateLambda,
                       match="^weights must be pairwise distinct$"):
        zstar_family(cfg, (F(0), F(0), F(1), F(2), F(3)))


def test_zstar_pole_containment():
    # Every pole of the q^d coefficient lies in {(lam_a - lam_i)/r, r <= d}.
    rng = random.Random(12)
    lam = sample_lambda(4, rng)
    cfg = HypergeomConfig(4, 5, 3)
    fam = zstar_family(cfg, lam)
    for i in range(5):
        for d in range(1, 4):
            allowed = {(lam[a] - lam[i]) / r
                       for a in range(5)
                       for r in range(1, d + 1)}
            roots = fam.coeff(i, d).roots
            assert roots
            for p, q in roots:
                assert Fraction(p, q) in allowed, (i, d, p, q)


def test_hypersurface_series_quintic_block_closed_form():
    # prod_{r<=15}(5H+r) / prod_{r<=3}(H+r)^5 mod H^4 as coefficient lists,
    # with 1/(r+H) = sum_k (-H)^k / r^(k+1).
    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(4)]

    block = [F(1), F(0), F(0), F(0)]
    for r in range(1, 16):
        block = mul(block, [F(r), F(5), F(0), F(0)])
    for r in range(1, 4):
        inverse = [F((-1) ** k, r ** (k + 1)) for k in range(4)]
        for _ in range(5):
            block = mul(block, inverse)
    S = hypersurface_series(HypergeomConfig.quintic(3))
    assert [S.coeff(i, 3) for i in range(4)] == block
    c = expand(S)
    for i in range(4):
        for k in range(i + 1):
            assert c[i][k][3] == block[i - k] / factorial(k)


def _equivariant_route_agrees(m: int, l: int, order: int,
                              bumped: int = 0) -> bool:
    """The hypersurface series against an independent route: keep H
    un-truncated one step longer, include the r = 0 numerator factor lH,
    and compare H^(b+1) against l * I_b.  A positive ``bumped`` plants a
    fault: the denominator factor H + bumped is built as H + bumped + 1."""
    S = hypersurface_series(HypergeomConfig(m, l, order))
    for d in range(order + 1):
        num = TruncSeries([0, l], m)            # the r = 0 factor: l*H
        for r in range(1, l * d + 1):
            num = num * TruncSeries([r, l], m)
        den = TruncSeries.one(m)
        for r in range(1, d + 1):
            den = den * TruncSeries([r + (r == bumped), 1], m) ** (m + 1)
        block = num / den
        if any(block[b + 1] != l * S.coeff(b, d) for b in range(m)):
            return False
    return True


def test_hypersurface_series_matches_equivariant_route():
    for m, l in ((5, 3), (4, 2)):
        assert _equivariant_route_agrees(m, l, 3)


@pytest.mark.parametrize("bumped", [1, 2, 3])
def test_equivariant_route_catches_a_shifted_factor(bumped):
    # A reference that agrees with a mutant is vacuous.
    for m, l in ((5, 3), (4, 2)):
        assert not _equivariant_route_agrees(m, l, 3, bumped)


def _five_products_route(cfg: HypergeomConfig) -> MixedSeries:
    """The former block recurrence: one product by lH + r for each of the
    l factors of a degree, then a division by (H + d)^(m+1) raised to its
    power by products."""
    m, l = cfg.m, cfg.l
    top = m - 1
    out = MixedSeries(top, cfg.order)
    block = TruncSeries.constant(Fraction(1), top)
    for d in range(cfg.order + 1):
        if d:
            for r in range(l * (d - 1) + 1, l * d + 1):
                block = block * TruncSeries([r, l], top)
            block = block / TruncSeries([d, 1], top) ** (m + 1)
        for i, v in enumerate(block.coeffs):
            if v != 0:
                out.c[i][d] = v
    return out


@pytest.mark.parametrize("m, l", [(m, l) for m in range(1, 7)
                                  for l in range(1, m + 2)])
def test_hypersurface_series_matches_five_products_route(m, l):
    # The config rejects q-order 0, which the recurrence still defines
    # (the degree-0 block alone); _make builds it without the check.
    for order in range(9):
        cfg = HypergeomConfig._make((m, l, order))
        got, want = hypersurface_series(cfg), _five_products_route(cfg)
        assert got.caps() == want.caps() == (m - 1, order)
        # repr, not ==: every coefficient keeps its value and its type.
        assert [[repr(c) for c in row] for row in got.c] \
            == [[repr(c) for c in row] for row in want.c]


def test_operator_residual_detects_fault_injection():
    S = hypersurface_series(HypergeomConfig(5, 3, 3))
    S.c[1][2] = S.c[1][2] + 1           # perturb one coefficient
    res = hypersurface_operator_residual(S, 5, 3)
    assert not res.is_zero()
    assert res.first_nonzero() is not None

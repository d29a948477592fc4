"""Mirror map, invariant extraction, cover inversion, operator regimes."""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

import pytest

from quintic_mirror import mirror, series
from quintic_mirror.errors import ConsistencyError, DomainError
from quintic_mirror.hypergeom import HypergeomConfig, hypersurface_series
from quintic_mirror.mirror import (build_mirror_map, case_i_check,
                                   case_ii_check, mirror_identity_check,
                                   multiple_cover_invert, multiple_cover_sum,
                                   picard_fuchs_check, prepotential_in_t,
                                   quintic_invariants,
                                   transformed_quintic_series)
from quintic_mirror.mixed import MixedSeries
from quintic_mirror.series import TruncSeries, series_exp
from explicit_t import expand


def F(p, q=1):
    return Fraction(p, q)


PAPER_COUNTS = [F(2875), F(609250), F(317206375), F(242467530000)]


def roundtrip_residual(mm) -> TruncSeries:
    """q(q') exp(g(q(q'))) - q' with q(q') = q' w(q'): zero for a true
    reversion."""
    D = mm.g.order
    q_of = mm.w.mul_q()
    expg = series_exp(mm.g.compose(q_of))
    return q_of * expg - TruncSeries.variable(D)


def test_mirror_map_frozen_values():
    mm = build_mirror_map(4, 3)
    assert mm.g.coeffs[0] == 0
    assert mm.g.coeffs[1] == 770
    assert mm.w.coeffs[1] == -770
    assert roundtrip_residual(mm).is_zero()


def test_mirror_map_series_are_integral():
    # The integer series kernel pays off because exp(g) and the reversion
    # factor w, whose powers the pipeline builds, have denominator 1.
    mm = build_mirror_map(4, 40)
    for s in (series_exp(mm.g), mm.w):
        assert all(c.denominator == 1 for c in s.coeffs)


def test_multiple_cover_invert_examples():
    assert multiple_cover_invert([F(2875)]) == [F(2875)]
    assert multiple_cover_invert([F(2875), F(4876875, 8)]) == [F(2875),
                                                               F(609250)]
    assert multiple_cover_invert([F(0)] * 5) == [F(0)] * 5


def test_cover_roundtrip_random():
    import random
    rng = random.Random(17)
    for _ in range(20):
        n = [F(rng.randint(-999, 999), rng.randint(1, 7)) for _ in range(8)]
        assert multiple_cover_invert(multiple_cover_sum(n)) == n


def test_quintic_virtual_counts_match_published_values():
    table = quintic_invariants(4)
    assert table.n == PAPER_COUNTS
    assert table.N[0] == F(2875)
    assert table.N[1] == F(4876875, 8)


def test_low_components_are_one_and_t():
    # The H^0 and H^1 components of e^(HT) K, with K the stored series.
    h0, h1 = expand(transformed_quintic_series(3))[:2]
    assert h0[0][0] == 1
    assert all(h0[k][d] == 0
               for k in range(4) for d in range(4) if (k, d) != (0, 0))
    assert h1[1][0] == 1
    assert all(h1[k][d] == 0
               for k in range(4) for d in range(4) if (k, d) != (1, 0))


def test_mirror_identity_passes():
    assert all(c.passed for order in (3, 5)
               for c in mirror_identity_check(order))


def test_quintic_invariants_series_products(monkeypatch):
    # The powers of 1/exp(g) and of q(q') are each built once and shared by
    # every substitution into them; the product with e^(-Hg) runs in q
    # before composing, so no power of g(q(q')) is built.  The hypersurface series makes its
    # own products in H; it is built before counting starts.
    S = hypersurface_series(HypergeomConfig.quintic(30))
    monkeypatch.setattr(mirror, "hypersurface_series", lambda cfg: S)
    calls = []
    mul = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    composed, packed, all_packed = [], [], []
    q_compose, pack = series._q_compose, series.pack
    monkeypatch.setattr(series, "pack", lambda nums, width: all_packed.append(
        tuple(nums)) or pack(nums, width))

    def counting_compose(outers, powers, n):
        composed.append([list(a) for a in outers])
        before = len(all_packed)
        out = q_compose(outers, powers, n)
        packed.extend(all_packed[before:])
        return out

    monkeypatch.setattr(series, "_q_compose", counting_compose)
    quintic_invariants(30)
    assert len(calls) <= 90
    # One composition, of exactly the 2 non-constant rows of e^(-Hg) L
    # (H^2 and H^3: H^0 is 1 and H^1 is 0); it packs only powers of q(q'),
    # each at most once.
    assert len(composed) == 1 and len(composed[0]) == 2
    assert all(any(a[1:]) for a in composed[0])
    mm = build_mirror_map(4, 30)
    q_pows = {tuple(p.coeffs) for p in mm.w.mul_q().powers(30)}
    assert packed and all(nums in q_pows for nums in packed)
    assert len(set(packed)) == len(packed)


def test_mirror_identity_builds_each_stage_once(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((mirror, "hypersurface_series"),
                        (mirror, "build_mirror_map"),
                        (MixedSeries, "substitute_mirror")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    assert mirror_identity_check(5)[0].passed
    assert sorted(calls) == ["build_mirror_map", "hypersurface_series",
                             "substitute_mirror"]


def test_mirror_identity_fault_injection():
    # Perturbing N_2 must surface at the q^2 coefficient of the identity.
    order = 3
    table = quintic_invariants(order)
    table.N[1] += 1
    cfg = HypergeomConfig.quintic(order)
    S = hypersurface_series(cfg)
    L = S.div_qseries(S.row(0))
    lhs = prepotential_in_t(build_mirror_map(4, order), table)
    rhs = (L.row(1) * L.row(2) - L.row(3)).scale(F(5, 2))
    delta = lhs - rhs
    assert not delta.is_zero()
    first = next(d for d, v in enumerate(delta.coeffs) if v != 0)
    assert first == 2       # q-order of the first mismatch


def test_case_i_pairs():
    for m, l in ((5, 3), (4, 2)):
        assert case_i_check(m, l, 3)[0].passed


def test_case_i_rejects_wrong_degree():
    with pytest.raises(DomainError):
        case_i_check(4, 5, 3)


def test_case_ii_prefactor_and_identity(monkeypatch):
    assert case_ii_check(3, 3, 3)[0].passed
    # Planted fault: without its e^(-m! q) prefactor the series does not
    # satisfy the modified identity.
    real = mirror.exp_prefactor
    monkeypatch.setattr(mirror, "exp_prefactor",
                        lambda scalar, order: real(0, order))
    check, = case_ii_check(3, 3, 3)
    assert not check.passed
    assert check.detail == "first nonzero residual at H^0 t^0 q^1: 6"


def test_case_checks_detect_perturbation():
    cfg = HypergeomConfig(4, 2, 4)
    S = hypersurface_series(cfg)
    from quintic_mirror.hypergeom import hypersurface_operator_residual
    S.c[2][2] = S.c[2][2] + F(1, 7)
    res = hypersurface_operator_residual(S, 4, 2)
    assert not res.is_zero()


def test_picard_fuchs_check_passes():
    assert picard_fuchs_check(4)[0].passed


def test_invariants_reject_bad_order():
    with pytest.raises(DomainError):
        quintic_invariants(0)


def test_extraction_consistency_guard():
    # A corrupted K must be caught by the pipeline's own extractor: its
    # H^0 row, its H^1 row, and the q'^0 term of its H^2 row.
    for row, d, message in (
            (0, 1, "H^0 component of the mirror series is not 1"),
            (1, 2, "H^1 component of the mirror series is not T"),
            (2, 0, "H^2 component has a constant term")):
        sub = transformed_quintic_series(2)
        sub.c[row][d] = sub.c[row][d] + F(3)
        with pytest.raises(ConsistencyError,
                           match=f"^{re.escape(message)}$"):
            mirror._extract_invariants(sub)


def _tq_mul(a: list, b: list) -> list:
    """Product of two (t, q) coefficient arrays c[k][d], truncated at the
    t- and q-caps of ``a``."""
    K, D = len(a) - 1, len(a[0]) - 1
    return [[sum(a[k1][d1] * b[k - k1][d - d1]
                 for k1 in range(k + 1) for d1 in range(d + 1))
             for d in range(D + 1)] for k in range(K + 1)]


def test_explicit_prepotential_identity_and_h3():
    # J = e^(Ht) L and e^(HT) K written out in (t, q) and (T, q'): the full
    # prepotential identity F(T(t)) = (5/2)(J_1 J_2 - J_3) with
    # F(T) = 5T^3/6 + sum N_d e^(dT), T = t + g(q), e^(dT) = (q e^g)^d,
    # and the H^3 component T^3/6 + sum N_d (dT - 2)/5 q'^d.
    order = 6
    S = hypersurface_series(HypergeomConfig.quintic(order))
    L = S.div_qseries(S.row(0))
    mm = build_mirror_map(4, order)
    table = quintic_invariants(order)
    J1, J2, J3 = expand(L)[1:]
    rhs = [[F(5, 2) * (x - z) for x, z in zip(xs, zs)]
           for xs, zs in zip(_tq_mul(J1, J2), J3)]
    g_pows = mm.g.powers(3)
    lhs = [g_pows[3 - k].scale(F(5 * comb(3, k), 6)).coeffs
           for k in range(4)]
    instantons = TruncSeries([0] + table.N, order).compose(
        series_exp(mm.g).mul_q())
    lhs[0] = (TruncSeries(lhs[0], order) + instantons).coeffs
    assert lhs == rhs
    h3 = expand(transformed_quintic_series(order))[3]
    assert h3[3] == [F(1, 6)] + [0] * order
    assert h3[2] == [0] * (order + 1)
    assert h3[1] == [0] + [F(d, 5) * table.N[d - 1]
                           for d in range(1, order + 1)]
    assert h3[0] == [0] + [F(-2, 5) * table.N[d - 1]
                           for d in range(1, order + 1)]

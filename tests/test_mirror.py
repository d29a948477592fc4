"""Mirror map, invariant extraction, cover inversion, operator regimes."""

from __future__ import annotations

from fractions import Fraction

import pytest

from quintic_mirror import mirror, series
from quintic_mirror.errors import ConsistencyError, DomainError
from quintic_mirror.hypergeom import HypergeomConfig, hypersurface_series
from quintic_mirror.mirror import (InvariantTable, build_mirror_map,
                                   case_i_check, case_ii_check,
                                   mirror_identity_check,
                                   multiple_cover_invert, multiple_cover_sum,
                                   picard_fuchs_check, prepotential_in_t,
                                   quintic_invariants,
                                   transformed_quintic_series)
from quintic_mirror.mixed import MixedSeries
from quintic_mirror.series import TruncSeries, series_exp


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
    sub = transformed_quintic_series(3)
    h0 = sub.h_component(0)
    assert h0.coeff(0, 0, 0) == 1
    assert all(h0.coeff(0, k, d) == 0
               for k in range(4) for d in range(4) if (k, d) != (0, 0))
    h1 = sub.h_component(1)
    assert h1.coeff(0, 1, 0) == 1
    assert all(h1.coeff(0, k, d) == 0
               for k in range(4) for d in range(4) if (k, d) != (1, 0))


def test_mirror_identity_passes():
    assert mirror_identity_check(3).passed
    assert mirror_identity_check(5).passed


def test_quintic_invariants_series_products(monkeypatch):
    # The powers of 1/exp(g) and of q(q') are each built once and shared by
    # every substitution into them; the t-shift runs in q before composing,
    # so no power of g(q(q')) is built.  The hypersurface series makes its
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
    # One composition, of exactly the 3 non-constant shifted rows of J
    # (H^2 T^0, H^3 T^0 and H^3 T^1); it packs only powers of q(q'), each
    # at most once.
    assert len(composed) == 1 and len(composed[0]) == 3
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
    assert mirror_identity_check(5).passed
    assert sorted(calls) == ["build_mirror_map", "hypersurface_series",
                             "substitute_mirror"]


def test_mirror_identity_fault_injection():
    # Perturbing N_2 must surface at the q^2 coefficient of the identity.
    order = 3
    table = quintic_invariants(order)
    table.N[1] += 1
    cfg = HypergeomConfig.quintic(order)
    S = hypersurface_series(cfg)
    J = S.div_qseries(S.t_zero_part(0))
    lhs = prepotential_in_t(build_mirror_map(4, order), table)
    rhs = (J.h_component(1) * J.h_component(2)
           - J.h_component(3)).scale(F(5, 2))
    delta = lhs - rhs
    assert not delta.is_zero()
    first = delta.first_nonzero()
    assert first[2] == 2    # q-order of the first mismatch


def test_case_i_pairs():
    for m, l in ((5, 3), (4, 2)):
        assert case_i_check(HypergeomConfig(m, l, 3)).passed


def test_case_i_rejects_wrong_degree():
    with pytest.raises(DomainError):
        case_i_check(HypergeomConfig(4, 5, 3))


def test_case_ii_prefactor_and_identity():
    W, check = case_ii_check(HypergeomConfig(3, 3, 3))
    assert check.passed
    # e^(-6q): the q^1 coefficient of the H^0, t^0 slice moves by -6.
    assert W.coeff(0, 0, 0) == 1
    S = hypersurface_series(HypergeomConfig(3, 3, 3))
    assert W.coeff(0, 0, 1) == S.coeff(0, 0, 1) - 6


def test_case_checks_detect_perturbation():
    cfg = HypergeomConfig(4, 2, 4)
    S = hypersurface_series(cfg)
    from quintic_mirror.hypergeom import hypersurface_operator_residual
    S.c[2][1][2] = S.c[2][1][2] + F(1, 7)
    res = hypersurface_operator_residual(S, 4, 2)
    assert not res.is_zero()


def test_picard_fuchs_check_passes():
    assert picard_fuchs_check(4).passed


def test_invariants_reject_bad_order():
    with pytest.raises(DomainError):
        quintic_invariants(0)


def test_extraction_consistency_guard():
    # A corrupted H^2 component (stray t-degree-1 residue) must be caught,
    # exercising the consistency error path of the extractor.
    sub = transformed_quintic_series(2)
    h2 = sub.h_component(2)
    h2.c[0][1][1] = F(3)
    with pytest.raises(ConsistencyError):
        _extract_like_pipeline(h2)


def _extract_like_pipeline(h2: MixedSeries):
    for k in range(h2.t_top + 1):
        for d in range(h2.order + 1):
            v = h2.coeff(0, k, d)
            if k == 2 and d == 0:
                if v != F(1, 2):
                    raise ConsistencyError("bad T^2 coefficient")
            elif k == 0:
                continue
            elif v != 0:
                raise ConsistencyError("stray residue")

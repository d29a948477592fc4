"""Truncated-series ring: frozen examples, brute-force oracles, ring laws."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from boxed_ring import Boxed, box_all, rationals, unbox_all
from lagrange_reversion import lagrange_reversion
from quintic_mirror import series
from quintic_mirror.errors import DomainError, OrderMismatch
from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.hypergeom import (HypergeomConfig, hypersurface_series,
                                      zstar_family)
from quintic_mirror.mirror import build_mirror_map
from quintic_mirror.recursion import composite_inverse_of_zstar
from quintic_mirror.sampling import sample_series_coeffs
from quintic_mirror.series import (TruncSeries, compose_all, q_mul, series_exp,
                                   series_log, series_reversion)


def F(p, q=1):
    return Fraction(p, q)


def random_series(rng, order, unit_constant=False, zero_constant=False):
    coeffs = sample_series_coeffs(rng, order)
    if unit_constant:
        coeffs[0] = F(1)
    if zero_constant:
        coeffs[0] = F(0)
    return TruncSeries(coeffs, order)


def test_mul_difference_of_squares():
    a = TruncSeries([F(1), F(1), F(0)], 2)
    b = TruncSeries([F(1), F(-1), F(0)], 2)
    assert (a * b).coeffs == [1, 0, -1]


def test_mul_identity_element():
    a = TruncSeries([F(1), F(120)], 1)
    assert a * TruncSeries.one(1) == a


def test_mul_quintic_factorial_square():
    # F = 1 + 120q + O(q^2); the product doubles the linear term.
    f = TruncSeries([F(1), F(120)], 1)
    assert (f * f).coeffs == [1, 240]


def test_mul_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        TruncSeries.one(2) * TruncSeries.one(3)


def test_equal_series_hash_equal_across_coefficient_types():
    # == compares the coefficients, whose types hash consistently with ==,
    # so the series hash must read the coefficients and not their strings.
    pairs = [(TruncSeries([RatFunc.const(1), 0], 1), TruncSeries([1, 0], 1)),
             (TruncSeries([F(3), Poly([F(1, 2)])], 1),
              TruncSeries([RatFunc.const(3), F(1, 2)], 1))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_exp_frozen_values():
    assert series_exp(TruncSeries.zero(3)) == TruncSeries.one(3)
    e = series_exp(TruncSeries([0, 1, 0, 0], 3))
    assert e.coeffs == [1, 1, F(1, 2), F(1, 6)]
    e770 = series_exp(TruncSeries([0, 770, 0], 2))
    assert e770.coeffs == [1, 770, 296450]


def test_exp_requires_zero_constant():
    with pytest.raises(DomainError):
        series_exp(TruncSeries([F(1), F(1)], 1))


def test_exp_against_direct_sum_oracle():
    # Brute force: sum a^k/k! truncated, computed with plain powers.
    rng = random.Random(5)
    for _ in range(20):
        a = random_series(rng, 6, zero_constant=True)
        direct = TruncSeries.zero(6)
        power = TruncSeries.one(6)
        for k in range(7):
            direct = direct + power.scale(F(1, factorial(k)))
            power = power * a
        assert series_exp(a) == direct


def test_div_geometric_series():
    one = TruncSeries.one(2)
    got = one / TruncSeries([F(1), F(120), F(0)], 2)
    assert got.coeffs == [1, -120, 14400]


def test_div_identities():
    a = TruncSeries([F(3), F(-2), F(7)], 2)
    assert a / TruncSeries.one(2) == a
    b = TruncSeries([F(1), F(1), F(0)], 2)
    assert b / b == TruncSeries.one(2)


def test_div_requires_unit():
    with pytest.raises(DomainError):
        TruncSeries.one(2) / TruncSeries([F(0), F(1), F(0)], 2)


def test_div_mul_roundtrip():
    rng = random.Random(6)
    for _ in range(30):
        a = random_series(rng, 5)
        b = random_series(rng, 5, unit_constant=True)
        assert (a / b) * b == a


def _horner(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner) as c0 + inner*(c1 + inner*(c2 + ...)), one term at a time."""
    D = outer.order
    acc = TruncSeries.constant(outer[D], D)
    for k in range(D - 1, -1, -1):
        acc = acc * inner + TruncSeries.constant(outer[k], D)
    return acc


def _random_ratfunc(rng) -> RatFunc:
    num = Poly([F(rng.randint(-5, 5)), F(rng.randint(-3, 3), 2)])
    return RatFunc(num, Poly([rng.choice((1, -1, 2)), 1]))


@pytest.mark.parametrize("ring", ["fraction", "ratfunc"])
@pytest.mark.parametrize("order", [0, 1, 6])
def test_compose_matches_horner(ring, order):
    rng = random.Random(11 + order)
    draw = ((lambda: F(rng.randint(-9, 9), rng.randint(1, 4)))
            if ring == "fraction" else lambda: _random_ratfunc(rng))
    for _ in range(4):
        outer = TruncSeries([draw() for _ in range(order + 1)], order)
        inner = TruncSeries([0] + [draw() for _ in range(order)], order)
        assert outer.compose(inner) == _horner(outer, inner)


def test_reversion_frozen_examples():
    assert series_reversion(TruncSeries.one(0)) == TruncSeries.one(0)
    assert series_reversion(TruncSeries([F(1), F(3, 2)], 1)).coeffs == [
        1, F(-3, 2)]
    assert series_reversion(TruncSeries.one(3)) == TruncSeries.one(3)
    w = series_reversion(TruncSeries([F(1), F(1), F(0)], 2))
    assert w.coeffs == [1, -1, 2]
    w770 = series_reversion(series_exp(TruncSeries([0, 770], 1)))
    assert w770.coeffs == [1, -770]


def test_reversion_requires_unit_constant():
    with pytest.raises(DomainError):
        series_reversion(TruncSeries([F(2), F(1)], 1))


def test_reversion_roundtrip_random():
    # q' w(q') v(q' w(q')) = q' through the truncation order.
    rng = random.Random(7)
    for D in [6] * 25 + [40]:
        v = random_series(rng, D, unit_constant=True)
        w = series_reversion(v)
        q_of = TruncSeries([0] + list(w.coeffs[:D]), D)
        residual = q_of * v.compose(q_of) - TruncSeries.variable(D)
        assert residual.is_zero()


def test_exp_log_roundtrips_random():
    rng = random.Random(8)
    for _ in range(25):
        a = random_series(rng, 6, zero_constant=True)
        assert series_log(series_exp(a)) == a
        u = random_series(rng, 6, unit_constant=True)
        assert series_exp(series_log(u)) == u


def test_ring_laws_random_triples():
    rng = random.Random(9)
    for _ in range(100):
        a = random_series(rng, 4)
        b = random_series(rng, 4)
        c = random_series(rng, 4)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


# Fixed examples, and no shrinking (as in test_hbar.py).
_differential = settings(deadline=None, derandomize=True, database=None,
                         phases=(Phase.explicit, Phase.generate))


def _same(got, want):
    """Equal, and printed the same, coefficient by coefficient."""
    assert got == want
    assert [str(c) for c in got] == [str(c) for c in want]


def _loop_mul(a, b):
    D = len(a) - 1
    return unbox_all((TruncSeries(box_all(a), D)
                      * TruncSeries(box_all(b), D)).coeffs)


@st.composite
def _q_pair(draw, zero_constant=False):
    n = draw(st.integers(1, 8))
    row = st.lists(rationals, min_size=n, max_size=n)
    a, b = draw(row), draw(row)
    if zero_constant:
        b[0] = 0
    return a, b


@settings(_differential, max_examples=150)
@given(_q_pair())
@example(([0], [0])).via("order 0, zero")
@example(([-5], [F(7, 3)])).via("order 0")
@example(([0, 0, 0, 0], [1, -2, 3, -4])).via("all-zero operand")
@example(([-1, -2, -3], [-4, -5, -6])).via("negative operands")
@example(([1, F(1, 2), F(-1, 3)], [F(1, 5), 7, F(-1, 7)])).via(
    "mixed int/Fraction, coprime denominators")
@example(([2 ** 64 - 1] * 5, [-(2 ** 64 - 1)] * 5)).via("8-byte operands")
def test_kernel_mul_matches_loop(pair):
    a, b = pair
    D = len(a) - 1
    assert q_mul(a, b, D + 1) is not None
    _same((TruncSeries(a, D) * TruncSeries(b, D)).coeffs, _loop_mul(a, b))


@pytest.mark.parametrize("D", range(8))
def test_kernel_mul_at_slot_width_boundary(D):
    # +-(2^k - 1) in every slot: the largest digits of k and j bits, so
    # some (k, j, D) fill a whole number of bytes exactly.
    for k in range(1, 17):
        for j in range(1, 17):
            for sign in (1, -1):
                a = [2 ** k - 1] * (D + 1)
                b = [sign * (2 ** j - 1)] * (D + 1)
                _same(q_mul(a, b, D + 1), _loop_mul(a, b))


@settings(_differential, max_examples=100)
@given(_q_pair(zero_constant=True))
@example(([F(3, 2)], [0])).via("order 0")
@example(([0, 0, 0], [0, 1, 2])).via("zero outer series")
@example(([1, -1, 2, -3], [0, -1, 0, F(1, 6)])).via("negative digits")
@example(([7, F(1, 2), F(1, 3), 5], [0, F(1, 5), F(2, 7), F(-1, 11)])).via(
    "coprime denominators across powers")
@example(([2 ** 20 - 1, 1, 1], [0, F(1, 9973), F(1, 9973)])).via(
    "constant term over a denominator wider than the powers' numerators")
def test_kernel_compose_matches_loop(pair):
    outer, inner = pair
    D = len(outer) - 1
    got = TruncSeries(outer, D).compose(TruncSeries(inner, D))
    want = TruncSeries(box_all(outer), D).compose(
        TruncSeries(box_all(inner), D))
    _same(got.coeffs, unbox_all(want.coeffs))


@st.composite
def _outers_and_inner(draw):
    """One to four outer series of one order, each drawn wide, narrow,
    zero or constant, and an inner series with zero constant term."""
    n = draw(st.integers(1, 8))
    wide = st.lists(rationals, min_size=n, max_size=n)
    narrow = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    zero = st.just([0] * n)
    constant = rationals.map(lambda c: [c] + [0] * (n - 1))
    outers = draw(st.lists(st.one_of(wide, narrow, zero, constant),
                           min_size=1, max_size=4))
    return outers, [0] + draw(wide)[1:]


@settings(_differential, max_examples=100)
@given(_outers_and_inner())
@example(([[F(3, 2)], [0], [-7]], [0])).via("order 0")
@example(([[0, 0, 0], [5, 0, 0], [0, 1, 2]], [0, 1, -1])).via(
    "zero and constant outers")
@example(([[2 ** 200, -(2 ** 200), 2 ** 200, 1], [1, 0, 1, 0],
           [0, 0, 0, F(1, 3)]], [0, 3, F(1, 7), -5])).via(
    "200-bit outer beside 1-bit ones: the slot fits the widest")
@example(([[0, F(1, 2), 0, 0], [0, 0, 0, F(5, 9973)]],
          [0, F(1, 9973), F(2, 3), F(-1, 5)])).via(
    "outers using powers with different denominators")
def test_compose_all_matches_each_alone(case):
    outers, inner = case
    D = len(inner) - 1
    inner = TruncSeries(inner, D)
    got = compose_all([TruncSeries(a, D) for a in outers], inner)
    assert len(got) == len(outers)
    boxed_inner = TruncSeries(box_all(inner.coeffs), D)
    for a, f in zip(outers, got):
        _same(f.coeffs, TruncSeries(a, D).compose(inner).coeffs)
        loop = TruncSeries(box_all(a), D).compose(boxed_inner)
        _same(f.coeffs, unbox_all(loop.coeffs))


def test_compose_all_other_rings_take_the_loop(monkeypatch):
    rng = random.Random(17)
    D = 4
    inner = TruncSeries([F(0), F(1, 2), F(-3), F(2, 7), F(5)], D)
    q_outer = TruncSeries([F(1), F(2, 3), 0, F(-1, 5), F(7)], D)
    boxed_outer = TruncSeries(box_all([3, 0, F(1, 2), -1, 2]), D)
    ratfunc_outer = TruncSeries(
        [_random_ratfunc(rng) for _ in range(D + 1)], D)
    # Each outer goes by its own ring: the packed route receives exactly
    # the outers over Q, and the others take the loop in the same call.
    packed = []
    q_compose = series._q_compose
    monkeypatch.setattr(series, "_q_compose", lambda outers, powers, n:
                        packed.append(outers) or q_compose(outers, powers, n))
    outers = [boxed_outer, q_outer, ratfunc_outer, q_outer.scale(F(1, 3))]
    got = compose_all(outers, inner)
    assert packed == [[q_outer.coeffs, q_outer.scale(F(1, 3)).coeffs]]
    assert isinstance(got[0][4], Boxed)
    assert all(isinstance(c, RatFunc) for c in got[2])
    assert got[1] == _horner(q_outer, inner)
    assert got == [f.compose(inner) for f in outers]
    # An inner series that is not over Q sends every outer to the loop.
    packed.clear()
    ratfunc_inner = TruncSeries(
        [RatFunc.const(0)] + [_random_ratfunc(rng) for _ in range(D)], D)
    got = compose_all([q_outer, q_outer.scale(F(1, 3))], ratfunc_inner)
    assert packed == []
    assert got == [_horner(q_outer, ratfunc_inner),
                   _horner(q_outer.scale(F(1, 3)), ratfunc_inner)]


def _count_powers(monkeypatch, counted):
    """Patch ``TruncSeries.powers`` to record each series it is called on
    for which ``counted(series)`` holds."""
    calls = []
    powers = TruncSeries.powers

    def counting(s, n):
        if counted(s):
            calls.append(s)
        return powers(s, n)

    monkeypatch.setattr(TruncSeries, "powers", counting)
    return calls


def test_inner_power_ladder_built_once_per_call(monkeypatch):
    # All of a caller's outer series go into one call, which builds the
    # inner series' powers once.  series_reversion's powers (of series
    # with constant term 1) are not counted, nor the powers of g in e^(-Hg).
    S = hypersurface_series(HypergeomConfig.quintic(12))
    L = S.div_qseries(S.row(0))
    mm = build_mirror_map(4, 12)
    q_of = mm.w.mul_q()
    calls = _count_powers(monkeypatch, lambda s: s == q_of)
    L.substitute_mirror(mm.g, mm.w)
    assert len(calls) == 1
    # The inner series of composite_inverse_of_zstar is q' w(q'), the only
    # series with zero constant term whose powers it builds.
    family = zstar_family(HypergeomConfig(4, 5, 4),
                          tuple(F(i, 3) for i in range(1, 6)))
    calls = _count_powers(monkeypatch, lambda s: s[0] == 0)
    composite_inverse_of_zstar(family)
    assert len(calls) == 1 and calls[0][1] == 1


def test_compose_all_checks():
    inner = TruncSeries([0, 1, 2], 2)
    with pytest.raises(OrderMismatch):
        compose_all([TruncSeries.one(2), TruncSeries.one(3)], inner)
    with pytest.raises(OrderMismatch):
        compose_all([TruncSeries.one(3)], inner)
    with pytest.raises(DomainError):
        compose_all([TruncSeries.one(2), TruncSeries.one(2)],
                    TruncSeries([1, 1, 0], 2))


def test_ratfunc_coefficients_keep_the_loop():
    rng = random.Random(13)
    a = [RatFunc.const(1)] + [_random_ratfunc(rng) for _ in range(3)]
    b = [F(1, 2), F(-3), 0, F(5, 7)]
    assert q_mul(a, b, 4) is None and q_mul(b, a, 4) is None
    want = [sum((a[i] * b[k - i] for i in range(k + 1)), RatFunc.const(0))
            for k in range(4)]
    assert (TruncSeries(a, 3) * TruncSeries(b, 3)).coeffs == want
    assert (TruncSeries(b, 3) * TruncSeries(a, 3)).coeffs == want


@st.composite
def _q_quotient(draw):
    n = draw(st.integers(1, 8))
    row = st.lists(rationals, min_size=n, max_size=n)
    a, b = draw(row), draw(row)
    b[0] = draw(st.sampled_from([1, 3, -2, F(7, 5)])
                | rationals.filter(lambda c: c != 0))
    return a, b


@settings(_differential, max_examples=150)
@given(_q_quotient())
@example(([F(2, 3)], [-2])).via("order 0")
@example(([0, 0, 0, 0], [3, 1, -1, 2])).via("zero numerator")
@example(([1, 0, 0, 0, 0], [-2, 1, 0, 0, 0])).via("geometric, b0 = -2")
@example(([F(1, 2), F(-1, 3), 5], [F(7, 5), F(1, 7), F(-2, 9)])).via(
    "denominators on both sides")
@example(([2 ** 70, -1, 3], [3, 2 ** 70, -(2 ** 70)])).via("wide numerators")
def test_kernel_div_matches_loop(pair):
    a, b = pair
    D = len(a) - 1
    got = (TruncSeries(a, D) / TruncSeries(b, D)).coeffs
    want = TruncSeries(box_all(a), D) / TruncSeries(box_all(b), D)
    _same(got, unbox_all(want.coeffs))
    # The quotient prints as the loop's does: every coefficient a Fraction.
    assert all(type(c) is Fraction for c in got)


def test_div_ratfunc_divisor_keeps_the_loop():
    rng = random.Random(17)
    b = TruncSeries([RatFunc.const(3)] + [_random_ratfunc(rng)
                                          for _ in range(3)], 3)
    a = TruncSeries([F(1, 2), F(-3), 0, F(5, 7)], 3)
    quotient = a / b
    assert all(isinstance(c, RatFunc) for c in quotient)
    assert quotient * b == a


@pytest.mark.parametrize("ring", ["fraction", "boxed", "ratfunc"])
def test_div_zero_constant_term_raises(ring):
    b = [0, F(1, 2), 3]
    if ring == "boxed":
        b = box_all(b)
    elif ring == "ratfunc":
        b = [RatFunc.const(c) for c in b]
    with pytest.raises(DomainError):
        TruncSeries([F(1), 2, 3], 2) / TruncSeries(b, 2)


def _naive_powers(s: TruncSeries, n: int) -> list[TruncSeries]:
    out = [TruncSeries.one(s.order)]
    for _ in range(n):
        out.append(out[-1] * s)
    return out


def _series_of_valuation(rng, ring, v, D):
    """A series q^v t(q), t(0) != 0, at order D (zero when v > D)."""
    draw = {"fraction": lambda: F(rng.randint(-9, 9), rng.randint(1, 4)),
            "boxed": lambda: Boxed(F(rng.randint(-9, 9), rng.randint(1, 4))),
            "ratfunc": lambda: _random_ratfunc(rng)}[ring]
    lead = draw()
    while lead == 0:
        lead = draw()
    return TruncSeries([0] * v + [lead] + [draw() for _ in range(D)], D)


@pytest.mark.parametrize("ring", ["fraction", "boxed", "ratfunc"])
@pytest.mark.parametrize("valuation", [0, 1, 2, 3, "zero"])
@pytest.mark.parametrize("D", [0, 1, 2, 5, 9])
def test_powers_truncated_by_valuation(ring, valuation, D):
    rng = random.Random(f"{ring}-{valuation}-{D}")
    if valuation == "zero":
        s, v = TruncSeries.zero(D), D + 1
    else:
        s, v = _series_of_valuation(rng, ring, valuation, D), valuation
    for n in (0, 1, 2, D, D + 3):
        got, want = s.powers(n), _naive_powers(s, n)
        assert len(got) == n + 1
        assert all(p.order == D for p in got)
        assert got == want
        assert all(got[k].is_zero() for k in range(1, n + 1) if k * v > D)
        if ring == "fraction":
            for p, q in zip(got, want):
                _same(p.coeffs, q.coeffs)
    if valuation != 0:
        outer = _series_of_valuation(rng, ring, 0, D)
        naive = _naive_powers(s, D)
        want = sum((naive[k].scale(c) for k, c in enumerate(outer)),
                   TruncSeries.zero(D))
        assert outer.compose(s) == want


@pytest.mark.parametrize("D", range(21))
@settings(_differential, max_examples=6)
@given(data=st.data())
def test_reversion_matches_lagrange_oracle(D, data):
    # D + 1 runs over 1..21, so the block size isqrt(D + 1) takes every
    # boundary D + 1 in {1, 4, 9, 16}, on both the Q and the ring path.
    tail = data.draw(st.lists(rationals, min_size=D, max_size=D))
    v = TruncSeries([1] + tail, D)
    want = lagrange_reversion(v).coeffs
    _same(series_reversion(v).coeffs, want)
    boxed = series_reversion(TruncSeries(box_all(v.coeffs), D))
    assert all(isinstance(c, Boxed) for c in boxed)
    _same(unbox_all(boxed.coeffs), want)


def test_reversion_of_quintic_exp_g_matches_lagrange_oracle():
    mm = build_mirror_map(4, 40)
    v = series_exp(mm.g)
    _same(series_reversion(v).coeffs, lagrange_reversion(v).coeffs)
    assert all(c.denominator == 1 for c in mm.w)

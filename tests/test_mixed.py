"""Nilpotent-H arithmetic and the (H, t, q) mixed ring."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from boxed_ring import box_all, rationals, unbox, unbox_all
from quintic_mirror.errors import DomainError
from quintic_mirror.hbar import RatFunc
from quintic_mirror.mixed import HTruncPoly, MixedSeries
from quintic_mirror.sampling import sample_series_coeffs
from quintic_mirror.series import TruncSeries


def test_h_nilpotency_is_exact():
    h = HTruncPoly.h(4)
    assert (h ** 3).c == [0, 0, 0, 1]
    assert (h ** 4).c == [0, 0, 0, 0]


def test_equal_htrunc_polys_hash_equal_across_coefficient_types():
    a = HTruncPoly([RatFunc.const(1), 0], 2)
    b = HTruncPoly([1, Fraction(0)], 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_h_negative_power_raises():
    with pytest.raises(DomainError):
        HTruncPoly([1, 2], 3) ** -1


def test_htrunc_inverse():
    rng = random.Random(1)
    for _ in range(20):
        coeffs = sample_series_coeffs(rng, 4)
        if coeffs[0] == 0:
            coeffs[0] = Fraction(2)
        x = HTruncPoly(coeffs, 5)
        assert x * x.inverse() == HTruncPoly.const(1, 5)


def test_qseries_embedding_is_ring_homomorphism():
    # TruncSeries embeds at H^0 t^0; products must commute with the embedding.
    rng = random.Random(2)
    for _ in range(20):
        a = TruncSeries(sample_series_coeffs(rng, 3), 3)
        b = TruncSeries(sample_series_coeffs(rng, 3), 3)

        def embed(s):
            out = MixedSeries(2, 2, 3)
            for d, v in enumerate(s.coeffs):
                out.c[0][0][d] = v
            return out

        assert embed(a) * embed(b) == embed(a * b)


def test_mixed_mul_respects_caps():
    a = MixedSeries(1, 1, 2)
    a.set_coeff(1, 1, 1, Fraction(1))
    sq = a * a
    assert sq.is_zero()  # H^2 t^2 q^2 exceeds the (1, 1, 2) caps


def test_ddt_chain_rule():
    # d/dt (t^2 q^3) = 2 t q^3 + 3 t^2 q^3
    M = MixedSeries(0, 3, 4)
    M.set_coeff(0, 2, 3, Fraction(1))
    got = M.ddt()
    assert got.coeff(0, 1, 3) == 2 and got.coeff(0, 2, 3) == 3


def test_substitute_identity_shift():
    rng = random.Random(3)
    M = MixedSeries(1, 2, 3)
    for i in range(2):
        for k in range(3):
            M.c[i][k] = sample_series_coeffs(rng, 3)
    g = TruncSeries.zero(3)
    w = TruncSeries.one(3)
    assert M.substitute_mirror(g, w) == M


def test_substitute_pure_t_term():
    # M = t with g = 770q becomes T - 770q' + O(q'^2).
    from quintic_mirror.mirror import build_mirror_map
    mm = build_mirror_map(4, 2)
    M = MixedSeries(0, 1, 2)
    M.set_coeff(0, 1, 0, Fraction(1))
    got = M.substitute_mirror(mm.g, mm.w)
    assert got.coeff(0, 1, 0) == 1
    assert got.coeff(0, 0, 1) == -770


def test_substitute_pure_q_term():
    from quintic_mirror.mirror import build_mirror_map
    mm = build_mirror_map(4, 2)
    M = MixedSeries(0, 1, 2)
    M.set_coeff(0, 0, 1, Fraction(1))
    got = M.substitute_mirror(mm.g, mm.w)
    assert got.coeff(0, 0, 1) == 1
    assert got.coeff(0, 0, 2) == -770


def _compose_then_expand(M: MixedSeries, g: TruncSeries,
                         w: TruncSeries) -> MixedSeries:
    """The former route of the mirror substitution: compose every
    (H^i, t^k) row with q(q') = q' w(q'), then multiply it by
    t^k = (T - g(q(q')))^k expanded binomially."""
    D = M.order
    q_of = w.mul_q()
    g_pows = g.compose(q_of).powers(M.t_top)
    out = MixedSeries(M.h_top, M.t_top, D)
    for i in range(M.h_top + 1):
        for k in range(M.t_top + 1):
            row = TruncSeries(M.c[i][k], D).compose(q_of)
            for j in range(k + 1):
                term = row * g_pows[k - j] if j < k else row
                for e, b in enumerate(term.coeffs):
                    out.c[i][j][e] += comb(k, j) * (-1) ** (k - j) * b
    return out


@st.composite
def _mirror_case(draw):
    """Caps h_top, t_top in 0..3, a shift g (g(0) = 0), a reversion factor
    w (w(0) = 1) and rows over Q.  Half the cases are e^(Ht) f with
    f_1 = f_0 g, whose shifted rows cancel as the quintic J's do."""
    h_top, t_top, n = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                       draw(st.integers(1, 6)))
    row = st.lists(rationals, min_size=n, max_size=n)
    g, w = [0] + draw(row)[1:], [1] + draw(row)[1:]
    if draw(st.booleans()):
        c = draw(rationals)
        f = [[c] + [0] * (n - 1), [c * x for x in g], draw(row), draw(row)]
        rows = [[[Fraction(x) / factorial(k) for x in f[i - k]] if k <= i
                 else [0] * n for k in range(t_top + 1)]
                for i in range(h_top + 1)]
    else:
        rows = [[draw(st.one_of(st.just([0] * n), row))
                 for _ in range(t_top + 1)] for _ in range(h_top + 1)]
    return rows, g, w


def _strs(M: MixedSeries):
    return [[[str(unbox(c)) for c in row] for row in plane] for plane in M.c]


@settings(deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), max_examples=100)
@given(_mirror_case())
@example(([[[Fraction(5, 3)]]], [0], [1])).via("order 0")
@example(([[[1, 0, 0], [0, 0, 0]], [[0, 2, -3], [1, 0, 0]]],
          [0, 2, -3], [1, Fraction(1, 2), 4])).via(
    "H^1 t^0 row equal to g: the shifted row vanishes")
def test_substitute_matches_compose_then_expand(case):
    rows, g, w = case
    D = len(g) - 1
    M = MixedSeries(len(rows) - 1, len(rows[0]) - 1, D, rows)
    want = _compose_then_expand(M, TruncSeries(g, D), TruncSeries(w, D))
    got = M.substitute_mirror(TruncSeries(g, D), TruncSeries(w, D))
    assert got.caps() == want.caps() and _strs(got) == _strs(want)
    boxed = MixedSeries(M.h_top, M.t_top, D,
                        [[box_all(r) for r in plane] for plane in rows])
    looped = boxed.substitute_mirror(TruncSeries(box_all(g), D),
                                     TruncSeries(box_all(w), D))
    assert _strs(looped) == _strs(want)


def test_substitute_quintic_matches_compose_then_expand():
    from quintic_mirror.hypergeom import HypergeomConfig, hypersurface_series
    from quintic_mirror.mirror import build_mirror_map
    S = hypersurface_series(HypergeomConfig.quintic(12))
    J = S.div_qseries(S.t_zero_part(0))
    mm = build_mirror_map(4, 12)
    assert _strs(J.substitute_mirror(mm.g, mm.w)) == _strs(
        _compose_then_expand(J, mm.g, mm.w))


def test_substitute_rejects_nonzero_shift_constant():
    M = MixedSeries(0, 1, 2)
    with pytest.raises(DomainError):
        M.substitute_mirror(TruncSeries([1, 0, 0], 2), TruncSeries.one(2))


@st.composite
def _rows_and_qseries(draw):
    """Four (H^i, t^k) rows over Q, some all zero, and a q-series."""
    n = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=n, max_size=n)
    rows = [draw(st.one_of(st.just([0] * n), row)) for _ in range(4)]
    return rows, draw(row)


@settings(deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), max_examples=100)
@given(_rows_and_qseries())
@example(([[0]] * 4, [Fraction(-3, 7)])).via("order 0")
@example(([[0, 0, 0], [1, -2, 0], [Fraction(1, 3), 0, Fraction(-1, 5)],
           [-4, -5, -6]], [1, Fraction(-1, 2), Fraction(1, 7)])).via(
    "zero, negative and coprime-denominator rows")
def test_mul_qseries_kernel_matches_loop(case):
    rows, s = case
    order = len(s) - 1
    series = TruncSeries(s, order)
    got = MixedSeries(1, 1, order, [rows[:2], rows[2:]]).mul_qseries(series)
    boxed = MixedSeries(1, 1, order, [[box_all(r) for r in rows[:2]],
                                      [box_all(r) for r in rows[2:]]])
    want = boxed.mul_qseries(series)
    for i in range(2):
        for k in range(2):
            want_row = unbox_all(want.c[i][k])
            assert got.c[i][k] == want_row
            assert [str(c) for c in got.c[i][k]] == [str(c) for c in want_row]


def _boxed(rows, order):
    return MixedSeries(1, 1, order, [[box_all(r) for r in rows[:2]],
                                     [box_all(r) for r in rows[2:]]])


@st.composite
def _two_mixed(draw):
    """Two sets of four (H^i, t^k) rows over Q, some all zero."""
    n = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=n, max_size=n)
    return [[draw(st.one_of(st.just([0] * n), row)) for _ in range(4)]
            for _ in range(2)]


@settings(deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), max_examples=100)
@given(_two_mixed())
@example([[[0]] * 4, [[Fraction(-3, 7)]] * 4]).via("order 0, one zero side")
@example([[[0, 0, 0], [1, -2, 0], [Fraction(1, 3), 0, Fraction(-1, 5)],
           [-4, -5, -6]],
          [[Fraction(-2, 9), 0, 7], [0, 0, 0], [5, Fraction(1, 11), -1],
           [0, Fraction(-3, 4), 0]]]).via(
    "zero, negative and coprime-denominator rows")
def test_mixed_mul_kernel_matches_loop(case):
    a, b = case
    order = len(a[0]) - 1
    got = (MixedSeries(1, 1, order, [a[:2], a[2:]])
           * MixedSeries(1, 1, order, [b[:2], b[2:]]))
    want = _boxed(a, order) * _boxed(b, order)
    for i in range(2):
        for k in range(2):
            want_row = unbox_all(want.c[i][k])
            assert [str(c) for c in got.c[i][k]] == [str(c) for c in want_row]
            # The definition: sum over H-, t- and q-degrees that add up.
            assert got.c[i][k] == [
                sum(a[2 * i1 + k1][d1] * b[2 * (i - i1) + k - k1][d - d1]
                    for i1 in range(i + 1) for k1 in range(k + 1)
                    for d1 in range(d + 1))
                for d in range(order + 1)]

"""Nilpotent-H arithmetic and the two-graded (X, q) mixed ring."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from boxed_ring import box_all, rationals, unbox, unbox_all
from explicit_t import expand
from quintic_mirror.errors import DomainError
from quintic_mirror.hbar import RatFunc
from quintic_mirror.mixed import HTruncPoly, MixedSeries
from quintic_mirror.sampling import sample_series_coeffs
from quintic_mirror.series import TruncSeries


def test_h_nilpotency_is_exact():
    # The product, the one method the class keeps, drops every H-power
    # past the cap, whatever the coefficient types.
    h = HTruncPoly([0, 1], 4)
    assert (h * h * h).c == [0, 0, 0, 1]
    assert (h * h * h * h).c == [0, 0, 0, 0]
    x = HTruncPoly([2, Fraction(1, 3), RatFunc.const(5)], 3)
    assert (x * HTruncPoly([0, 1], 3)).c == [0, 2, Fraction(1, 3)]
    assert (3 * x).c == (x * 3).c == [6, 1, 15]


def test_qseries_embedding_is_ring_homomorphism():
    # TruncSeries embeds at X^0; products must commute with the embedding.
    rng = random.Random(2)
    for _ in range(20):
        a = TruncSeries(sample_series_coeffs(rng, 3), 3)
        b = TruncSeries(sample_series_coeffs(rng, 3), 3)

        def embed(s):
            out = MixedSeries(2, 3)
            for d, v in enumerate(s.coeffs):
                out.c[0][d] = v
            return out

        assert embed(a) * embed(b) == embed(a * b)


def test_mixed_mul_respects_caps():
    a = MixedSeries(1, 2)
    a.c[1][1] = Fraction(1)
    sq = a * a
    assert sq.is_zero()  # X^2 q^2 exceeds the (1, 2) caps


def test_ddt_chain_rule():
    # d/dt with q = e^t on e^(Ht) M, by the chain rule
    # d/dt (t^k q^d) = k t^(k-1) q^d + d t^k q^d, is e^(Ht) (H + q d/dq) M.
    rng = random.Random(4)
    for top in range(4):
        M = MixedSeries(top, 3, [sample_series_coeffs(rng, 3)
                                 for _ in range(top + 1)])
        c = expand(M)
        want = [[[0] * 4 for _ in range(top + 1)] for _ in range(top + 1)]
        for i in range(top + 1):
            for k in range(top + 1):
                for d in range(4):
                    if k:
                        want[i][k - 1][d] += k * c[i][k][d]
                    want[i][k][d] += d * c[i][k][d]
        assert expand(M.mul_x() + M.q_ddq()) == want


def test_substitute_identity_shift():
    rng = random.Random(3)
    M = MixedSeries(2, 3, [sample_series_coeffs(rng, 3) for _ in range(3)])
    g = TruncSeries.zero(3)
    w = TruncSeries.one(3)
    assert M.substitute_mirror(g, w) == M


def test_substitute_pure_t_term():
    # The H^1 component of e^(Ht) is t; with g = 770q it becomes
    # T - 770q' + O(q'^2), the H^1 component of e^(HT) K.
    from quintic_mirror.mirror import build_mirror_map
    mm = build_mirror_map(4, 2)
    M = MixedSeries.constant(Fraction(1), 1, 2)
    got = M.substitute_mirror(mm.g, mm.w)
    assert got.coeff(0, 0) == 1 and got.coeff(0, 1) == 0
    assert got.coeff(1, 0) == 0
    assert got.coeff(1, 1) == -770


def test_substitute_pure_q_term():
    from quintic_mirror.mirror import build_mirror_map
    mm = build_mirror_map(4, 2)
    M = MixedSeries(0, 2)
    M.c[0][1] = Fraction(1)
    got = M.substitute_mirror(mm.g, mm.w)
    assert got.coeff(0, 1) == 1
    assert got.coeff(0, 2) == -770


def _compose_first(M: MixedSeries, g: TruncSeries,
                   w: TruncSeries) -> MixedSeries:
    """e^(-H g o sigma) (M o sigma) with sigma = q(q') = q' w(q'): every
    row and g composed with sigma first, then the product in H written
    out term by term."""
    D = M.order
    sigma = w.mul_q()
    rows = [TruncSeries(row, D).compose(sigma) for row in M.c]
    g_pows = g.compose(sigma).powers(M.top)
    out = MixedSeries(M.top, D)
    for i in range(M.top + 1):
        for k in range(i + 1):
            term = rows[i - k] * g_pows[k]
            for e, b in enumerate(term.coeffs):
                out.c[i][e] += Fraction((-1) ** k, factorial(k)) * b
    return out


def _compose_then_expand(c: list, g: TruncSeries, w: TruncSeries) -> list:
    """The explicit route in (H, t, q): compose every (H^i, t^k) row of
    ``c`` with q(q') = q' w(q'), then multiply it by
    t^k = (T - g(q(q')))^k expanded binomially."""
    D = g.order
    q_of = w.mul_q()
    g_pows = g.compose(q_of).powers(len(c[0]) - 1)
    out = [[[0] * (D + 1) for _ in plane] for plane in c]
    for i, plane in enumerate(c):
        for k, row in enumerate(plane):
            row = TruncSeries(row, D).compose(q_of)
            for j in range(k + 1):
                term = row * g_pows[k - j] if j < k else row
                for e, b in enumerate(term.coeffs):
                    out[i][j][e] += comb(k, j) * (-1) ** (k - j) * b
    return out


@st.composite
def _mirror_case(draw):
    """A cap top in 0..3, a shift g (g(0) = 0), a reversion factor w
    (w(0) = 1) and rows over Q.  Half the cases have M_1 = M_0 g, whose
    H^1 row of e^(-Hg) M cancels as the quintic J's does."""
    top, n = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=n, max_size=n)
    g, w = [0] + draw(row)[1:], [1] + draw(row)[1:]
    if draw(st.booleans()):
        c = draw(rationals)
        rows = [[c] + [0] * (n - 1), [c * x for x in g], draw(row),
                draw(row)][: top + 1]
    else:
        rows = [draw(st.one_of(st.just([0] * n), row))
                for _ in range(top + 1)]
    return rows, g, w


def _strs(M: MixedSeries):
    return [[str(unbox(c)) for c in row] for row in M.c]


@settings(deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate), max_examples=100)
@given(_mirror_case())
@example(([[Fraction(5, 3)]], [0], [1])).via("order 0")
@example(([[1, 0, 0], [0, 2, -3]], [0, 2, -3], [1, Fraction(1, 2), 4])).via(
    "H^1 row equal to g: the H^1 row of e^(-Hg) M vanishes")
def test_substitute_matches_compose_then_expand(case):
    # Against both routes: compose first in the implicit form, and compose
    # then expand binomially in the explicit (H, t, q) form.
    rows, g, w = case
    D = len(g) - 1
    M = MixedSeries(len(rows) - 1, D, rows)
    want = _compose_first(M, TruncSeries(g, D), TruncSeries(w, D))
    got = M.substitute_mirror(TruncSeries(g, D), TruncSeries(w, D))
    assert got.caps() == want.caps() and _strs(got) == _strs(want)
    boxed = MixedSeries(M.top, D, [box_all(r) for r in rows])
    looped = boxed.substitute_mirror(TruncSeries(box_all(g), D),
                                     TruncSeries(box_all(w), D))
    assert _strs(looped) == _strs(want)
    # Read with its factor e^(HT), K is e^(Ht) M after t = T - g(q(q')).
    assert expand(got) == _compose_then_expand(
        expand(M), TruncSeries(g, D), TruncSeries(w, D))


def test_substitute_quintic_matches_compose_then_expand():
    from quintic_mirror.hypergeom import HypergeomConfig, hypersurface_series
    from quintic_mirror.mirror import build_mirror_map
    S = hypersurface_series(HypergeomConfig.quintic(12))
    L = S.div_qseries(S.row(0))
    mm = build_mirror_map(4, 12)
    got = L.substitute_mirror(mm.g, mm.w)
    assert _strs(got) == _strs(_compose_first(L, mm.g, mm.w))
    assert expand(got) == _compose_then_expand(expand(L), mm.g, mm.w)


def test_substitute_rejects_nonzero_shift_constant():
    M = MixedSeries(0, 2)
    with pytest.raises(DomainError):
        M.substitute_mirror(TruncSeries([1, 0, 0], 2), TruncSeries.one(2))


@st.composite
def _rows_and_qseries(draw):
    """Four X^i rows over Q, some all zero, and a q-series."""
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
    got = MixedSeries(3, order, rows).mul_qseries(series)
    want = _boxed(rows, order).mul_qseries(series)
    for i in range(4):
        want_row = unbox_all(want.c[i])
        assert got.c[i] == want_row
        assert [str(c) for c in got.c[i]] == [str(c) for c in want_row]


def _boxed(rows, order):
    return MixedSeries(3, order, [box_all(r) for r in rows])


@st.composite
def _two_mixed(draw):
    """Two sets of four X^i rows over Q, some all zero."""
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
    got = MixedSeries(3, order, a) * MixedSeries(3, order, b)
    want = _boxed(a, order) * _boxed(b, order)
    for i in range(4):
        want_row = unbox_all(want.c[i])
        assert [str(c) for c in got.c[i]] == [str(c) for c in want_row]
        # The definition: sum over X- and q-degrees that add up.
        assert got.c[i] == [
            sum(a[i1][d1] * b[i - i1][d - d1]
                for i1 in range(i + 1) for d1 in range(d + 1))
            for d in range(order + 1)]

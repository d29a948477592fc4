"""Rational functions in hbar: canonical form, evaluation, expansions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from euclid_ratfunc import EuclidRatFunc
from quintic_mirror import intpoly
from quintic_mirror.errors import DomainError, PoleError, StructureError
from quintic_mirror.hbar import Laurent, Lifted, Poly, RatFunc
from quintic_mirror.hypergeom import HypergeomConfig, zstar_family
from quintic_mirror.intpoly import PACK_FROM
from quintic_mirror.recursion import phi_double_correlator
from quintic_mirror.sampling import sample_rational
from quintic_mirror.verify import (check_class_p, check_phi_poly,
                                   check_recursion_cy, check_recursion_i,
                                   check_recursion_ii, check_transformations)


def _linear_product(roots, scale=1) -> RatFunc:
    """scale / prod (hbar - r), assembled as a product of linear RatFuncs."""
    out = RatFunc(Poly([scale]))
    for r in roots:
        out = out * RatFunc(Poly([1]), Poly([-r, 1]))
    return out


def _factored(scale, zeros, poles) -> RatFunc:
    """scale prod (hbar - z) / prod (hbar - p) over the Fractions in zeros
    and poles, built as the pipeline builds Z*: by ``from_factors``, each
    root p/q keyed (p, q) and standing for q hbar - p."""
    content, multisets = Fraction(scale), []
    for roots, power in ((zeros, -1), (poles, 1)):
        out: dict = {}
        for r in roots:
            key = (r.numerator, r.denominator)
            out[key] = out.get(key, 0) + 1
            content *= Fraction(r.denominator) ** power
        multisets.append(out)
    return RatFunc.from_factors(content, *multisets)


# Fixed examples, and no shrinking: a kernel that raises on every example
# is reported at once instead of after minutes of shrinking.
_differential = settings(deadline=None, derandomize=True, database=None,
                         phases=(Phase.explicit, Phase.generate))


def test_add_common_denominator():
    got = RatFunc(Poly([1]), Poly([1, 1])) + RatFunc(Poly([1]), Poly([-1, 1]))
    assert got == RatFunc.from_factors(2, {(0, 1): 1}, {(-1, 1): 1, (1, 1): 1})
    assert got.num == Poly([0, 2]) and got.den == Poly([-1, 0, 1])


def test_scalar_comparison_builds_no_ratfunc(monkeypatch):
    samples = [RatFunc(Poly([])), RatFunc(Poly([3])),
               RatFunc(Poly([Fraction(-1, 2)])), RatFunc(Poly([3, 1])),
               RatFunc(Poly([3]), Poly([1, 1])), RatFunc(Poly([0, 3]))]
    expected = [(True, False, False), (False, True, False),
                (False, False, True), (False, False, False),
                (False, False, False), (False, False, False)]

    def refuse(x):
        raise AssertionError("scalar comparison built a RatFunc")

    monkeypatch.setattr(RatFunc, "const", staticmethod(refuse))
    for rf, (zero, three, half) in zip(samples, expected):
        assert (rf != 0) is not zero
        assert (rf == 0) is zero
        assert (rf == 3) is three
        assert (rf == Fraction(-1, 2)) is half
    assert RatFunc(Poly([1])) == RatFunc(Poly([1]))


def test_equal_scalars_hash_equal():
    # Every hbar scalar type equates a constant with its value, so sets
    # and dicts must see one element.
    for x in (3, 0, Fraction(-1, 2)):
        assert len({x, Fraction(x), Poly([x]), RatFunc.const(x),
                    RatFunc(Poly([x]))}) == 1
    assert len({Poly([1, 2]), RatFunc(Poly([1, 2])),
                RatFunc(Poly([2, 4]), Poly([2]))}) == 1
    assert len({RatFunc(Poly([3]), Poly([1, 1])),
                RatFunc(Poly([6]), Poly([2, 2]))}) == 1


def test_eval_direct_substitution():
    assert RatFunc(Poly([0, 1]), Poly([2, 1])).eval(2) == Fraction(1, 2)


def test_eval_at_pole_carries_point():
    f = RatFunc(Poly([1]), Poly([-3, 1]))
    with pytest.raises(PoleError) as err:
        f.eval(3)
    assert err.value.point == 3


def test_laurent_expansion_geometric():
    # 1/(h+1) = 1/h - 1/h^2 + ...
    assert RatFunc(Poly([1]), Poly([1, 1])).heads_at_infinity() == (0, 1)
    # (h+2)/(h+1) = 1 + 1/(h+1): deg N = K reads N_(K-1) + N_K sum k p/q.
    assert RatFunc(Poly([2, 1]), Poly([1, 1])).heads_at_infinity() == (1, 1)
    # 3h/(2h-1)^2 = (3/4)/h + ...: the q^k scale divides the head.
    f = RatFunc(Poly([0, 3]), Poly([-1, 2])) / Poly([-1, 2])
    assert f.heads_at_infinity() == (0, Fraction(3, 4))
    # 6h^2/((2h-1)(h+3)) = 3 - (15/2)/h + ...
    f = RatFunc(Poly([0, 0, 6]), Poly([-1, 2])) / Poly([3, 1])
    assert f.heads_at_infinity() == (3, Fraction(-15, 2))
    assert RatFunc.from_factors(5, {}, {(1, 1): 2}).heads_at_infinity() == (
        0, 0)
    assert RatFunc.const(0).heads_at_infinity() == (0, 0)
    assert RatFunc.const(Fraction(-2, 3)).heads_at_infinity() == (
        Fraction(-2, 3), 0)


def test_laurent_expansion_rejects_positive_powers():
    f = RatFunc(Poly([0, 0, 1]), Poly([1, 1]))  # h^2/(h+1)
    with pytest.raises(StructureError):
        f.heads_at_infinity()


def test_canonical_form_monic_reduced():
    f = RatFunc(Poly([2, 2]), Poly([4, 4, 0]))  # (2h+2)/(4h+4) = 1/2
    assert f.is_polynomial() and f.num == Poly([Fraction(1, 2)])
    # 2h/(4h) * 1/h = (1/2)/h, and 2h/h^2 from its factors = 2/h
    g = RatFunc(Poly([0, 2]), Poly([0, 4])) * RatFunc(Poly([1]), Poly([0, 1]))
    assert g.num == Poly([Fraction(1, 2)]) and g.den == Poly([0, 1])
    h = RatFunc.from_factors(2, {(0, 1): 1}, {(0, 1): 2})
    assert h.num == Poly([2]) and h.den == Poly([0, 1])


def test_from_factors_ignores_zero_multiplicities():
    # A factor taken 0 times is no factor: the result is the constant, in
    # its canonical form.
    f = RatFunc.from_factors(3, {(1, 1): 0}, {(0, 1): 0, (-2, 3): 0})
    assert f.roots == {} and f == 3 and hash(f) == hash(3)


def test_structural_equality_of_equivalent_builds():
    # The same function assembled along two different routes compares
    # equal: products of factored terms, and divisions by linear forms.
    a = (RatFunc.from_factors(1, {}, {(-1, 1): 1})
         * RatFunc.from_factors(1, {(-2, 1): 1}, {(-5, 1): 1})
         + RatFunc(Poly([3])))
    b = (RatFunc(Poly([2, 1]) + Poly([3]) * Poly([1, 1]) * Poly([5, 1]))
         / Poly([1, 1]) / Poly([5, 1]))
    assert a == b


def test_polynomial_identity_by_point_evaluation():
    # Two rational functions agreeing on deg(num)+deg(den)+1 distinct
    # points agree identically (the verification backbone).
    rng = random.Random(3)
    for _ in range(30):
        num = Poly([sample_rational(rng) for _ in range(4)])
        roots = [sample_rational(rng, span=4, max_den=2) for _ in range(3)]
        if num.is_zero():
            continue
        f = RatFunc(num) * _factored(1, [], roots)
        g = RatFunc(num * Poly([2])) * _linear_product(roots, Fraction(1, 2))
        points = 0
        x = Fraction(0)
        while points < num.degree + len(roots) + 1:
            try:
                assert f.eval(x) == g.eval(x)
                points += 1
            except PoleError:
                pass
            x += 1
        assert f == g


def test_subs_neg_matches_pointwise():
    rng = random.Random(4)
    for _ in range(20):
        roots = [sample_rational(rng) for _ in range(2)]
        f = (RatFunc(Poly([sample_rational(rng) for _ in range(4)]))
             * _factored(1, [], roots))
        x = sample_rational(rng, nonzero=True)
        try:
            assert f.subs_neg().eval(x) == f.eval(-x)
        except PoleError:
            pass


def test_field_laws_random():
    rng = random.Random(5)
    for _ in range(40):
        def rf(num_terms=3):
            return RatFunc(Poly([sample_rational(rng)
                                 for _ in range(num_terms)]),
                           Poly([sample_rational(rng), 1]))
        a, b, c = rf(), rf(), rf()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        e = rf(num_terms=2)         # a linear numerator is invertible
        if not e.is_zero():
            assert (a / e) * e == a


def test_inverse_of_non_split_numerator_is_rejected():
    with pytest.raises(StructureError):
        RatFunc(Poly([1, 0, 1]), Poly([0, 1])).inverse()


_ROOTS = [Fraction(x) for x in (-2, -1, 0, 1, 3)] + [Fraction(1, 2),
                                                     Fraction(-2, 3)]
_root = st.sampled_from(_ROOTS)
_scale = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
    lambda x: x != 0)
# Roots of height up to 2^80 with denominators up to 7, and the root 0.  A
# fixed pool makes shared and cancelling factors likely; fresh draws add
# roots no other factor shares.
_WIDE_ROOTS = [Fraction(0), Fraction(2**80 - 1, 7), Fraction(-2**79 + 3, 5),
               Fraction(3**50, 4), Fraction(-1, 7), Fraction(2**80, 3),
               Fraction(-5, 6)]
_wide_root = st.one_of(
    st.sampled_from(_WIDE_ROOTS),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 7)))
# A large common content: a scale with 90-bit numerator and 60-bit
# denominator in front of the numerator's linear factors.
_big_scale = st.builds(
    Fraction, st.integers(1, 2**90), st.integers(1, 2**60)).map(
        lambda x: x * (-1) ** x.denominator)


@st.composite
def _split_pair(draw, max_num_degree=3, root=_root, scale=_scale):
    """One element as (factored RatFunc, Euclidean oracle).

    Numerator and denominator roots come from one small pool, so repeated
    and cancelling factors are common.
    """
    scale = draw(scale)
    num_roots = draw(st.lists(root, max_size=max_num_degree))
    den_roots = draw(st.lists(root, max_size=4))
    return (_factored(scale, num_roots, den_roots),
            EuclidRatFunc(Poly([scale]) * _linear_poly(num_roots),
                          _linear_poly(den_roots)))


def _same(new: RatFunc, old: EuclidRatFunc) -> None:
    assert new.num == old.num
    assert new.den == old.den
    assert new.is_polynomial() == old.is_polynomial()
    assert repr(new) == repr(old)


def _outcome(fn):
    try:
        return fn()
    except (PoleError, StructureError) as exc:
        return type(exc)


def _agree_with_oracle(x, y, lin, point) -> None:
    (a, a_old), (b, b_old), (e, e_old) = x, y, lin
    _same(a, a_old)
    _same(a + b, a_old + b_old)
    _same(a - b, a_old - b_old)
    _same(a * b, a_old * b_old)
    _same(a.subs_neg(), a_old.subs_neg())
    _same(-a, -a_old)
    if not e.is_zero():
        _same(a / e, a_old / e_old)
    assert (a == b) == (a_old == b_old)
    assert a + b - b == a
    assert _outcome(lambda: a.eval(point)) == _outcome(
        lambda: a_old.eval(point))
    assert (_outcome(a.heads_at_infinity)
            == _outcome(lambda: a_old.laurent_at_infinity(1)))


@settings(_differential, max_examples=300)
@given(_split_pair(), _split_pair(), _split_pair(max_num_degree=1), _root)
def test_matches_euclidean_oracle(x, y, lin, point):
    _agree_with_oracle(x, y, lin, point)


_wide_pair = _split_pair(root=_wide_root)


@settings(_differential, max_examples=100)
@given(_wide_pair, _wide_pair, _split_pair(max_num_degree=1, root=_wide_root),
       _wide_root)
def test_matches_euclidean_oracle_at_tall_roots(x, y, lin, point):
    _agree_with_oracle(x, y, lin, point)


_big_pair = _split_pair(scale=_big_scale)


@settings(_differential, max_examples=100)
@given(_big_pair, _big_pair, _split_pair(max_num_degree=1, scale=_big_scale),
       _root)
def test_matches_euclidean_oracle_with_large_content(x, y, lin, point):
    _agree_with_oracle(x, y, lin, point)


def test_root_at_zero_matches_euclidean_oracle():
    zero = Fraction(0)
    x = (RatFunc.from_factors(3, {(0, 1): 2}, {(0, 1): 3}),
         EuclidRatFunc(Poly([0, 0, 3]), Poly([0, 0, 0, 1])))
    y = (RatFunc.from_factors(1, {(-2, 1): 1}, {(0, 1): 1, (-2, 1): 1}),
         EuclidRatFunc(Poly([2, 1]), Poly([0, 2, 1])))
    lin = (RatFunc(Poly([0, 5])), EuclidRatFunc(Poly([0, 5])))
    for point in (zero, Fraction(-2), Fraction(1, 3)):
        _agree_with_oracle(x, y, lin, point)
        _agree_with_oracle(y, x, lin, point)


_any_root = st.one_of(_root, _wide_root)
_any_pair = _split_pair(root=_any_root)


@settings(_differential, max_examples=100)
@given(_any_pair, _any_pair, _any_pair)
def test_equal_builds_hash_equal(x, y, z):
    (a, _), (b, _), (c, _) = x, y, z
    left, right = (a + b) + c, a + (b + c)
    assert left == right and hash(left) == hash(right)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    # The same function through a detour: multiply, then divide back out.
    lin = RatFunc(Poly([3, 7]))
    assert (a * lin) / lin == a and hash((a * lin) / lin) == hash(a)


@settings(_differential, max_examples=100)
@given(_any_pair, st.lists(_any_root, min_size=1, max_size=4))
def test_eval_matches_num_over_den(x, points):
    a, _ = x
    for point in points:
        if a.den.eval(point) == 0:
            with pytest.raises(PoleError):
                a.eval(point)
        else:
            assert a.eval(point) == a.num.eval(point) / a.den.eval(point)


def _fold(pairs) -> RatFunc:
    acc = RatFunc.const(0)
    for c, f in pairs:
        acc = acc + f * c
    return acc


@st.composite
def _sum_terms(draw):
    """(scalar, RatFunc) pairs: shared and repeated roots from one small
    pool, often one term over many roots, cancelling pairs, zero terms and
    constants."""
    root = draw(st.sampled_from([_root, _wide_root]))
    pairs = [(draw(_scale), x) for x, _ in
             draw(st.lists(_split_pair(root=root), max_size=6))]
    if pairs and draw(st.booleans()):
        wide = pairs[0][1]
        for _, f in pairs[1:3]:
            wide = wide * f
        pairs.append((draw(_scale), wide))
    if pairs and draw(st.booleans()):
        c, f = draw(st.sampled_from(pairs))
        pairs.append((-c, f))
    if draw(st.booleans()):
        pairs.append((0, draw(_split_pair())[0]))
    if draw(st.booleans()):
        pairs.append((draw(_scale), RatFunc.const(0)))
    for x in draw(st.lists(_scale, max_size=2)):
        pairs.append((draw(st.sampled_from([1, Fraction(-3, 2)])),
                      RatFunc.const(x)))
    return draw(st.permutations(pairs))


@settings(_differential, max_examples=100)
@given(_sum_terms())
def test_lincomb_matches_a_fold_of_add(pairs):
    got, want = RatFunc.lincomb(pairs), _fold(pairs)
    assert got == want and hash(got) == hash(want)
    assert RatFunc.lincomb([(1, f) for _, f in pairs]) == _fold(
        [(1, f) for _, f in pairs])


def test_lincomb_of_one_root_terms_over_many_roots():
    # The shape of a recursion residual: one term over many roots, and many
    # terms that each hold one of them.  Those take their cofactor from the
    # expanded common denominator.
    roots = [Fraction(p, q) for p in (-3, -1, 2, 5) for q in (1, 2, 3)]
    wide = RatFunc(Poly([1, 2, 3])) * _factored(1, [], roots + roots[:2])
    pairs = [(1, wide), (Fraction(-7, 4), RatFunc.const(1))]
    for k, r in enumerate(roots):
        pairs.append((Fraction(k + 1, 3), RatFunc(Poly([0, 1]), Poly([-r, 1]))))
    got = RatFunc.lincomb(pairs)
    assert got == _fold(pairs)
    assert got.roots == wide.roots
    # Terms that cancel the wide term exactly leave the rest.
    assert RatFunc.lincomb(pairs + [(-1, wide)]) == _fold(pairs[1:])


@st.composite
def _multiplier_rows(draw):
    """Nonzero terms and rows of multipliers for one lift: scalars, zeros
    and Polys whose roots come from the terms' root pool, so a multiplier
    often vanishes at a root that one term alone holds."""
    root = draw(st.sampled_from([_root, _wide_root]))
    terms = [x for x, _ in draw(st.lists(_split_pair(root=root), min_size=1,
                                         max_size=5)) if not x.is_zero()]
    poly = st.builds(lambda c, rs: Poly([c]) * _linear_poly(rs), _scale,
                     st.lists(root, max_size=2))
    multiplier = st.one_of(_scale, st.just(0), poly, poly.map(lambda p: 0 * p))
    rows = draw(st.lists(st.lists(multiplier, min_size=len(terms),
                                  max_size=len(terms)), min_size=1, max_size=3))
    return terms, rows


def _linear_poly(roots) -> Poly:
    out = Poly([1])
    for r in roots:
        out = out * Poly([-r, 1])
    return out


@settings(_differential, max_examples=100)
@given(_multiplier_rows())
def test_lifted_rows_match_a_fold_of_products(case):
    terms, rows = case
    lifted = Lifted(terms)
    for row in rows:
        got = lifted.combine(row)
        want = _fold([(x, f) for x, f in zip(row, terms)])
        assert got == want and hash(got) == hash(want)


def test_lifted_row_cancels_a_root_where_its_multiplier_vanishes():
    # Only the first term holds the root -1, and the multiplier hbar + 1
    # vanishes there: the combination has no pole at -1.
    terms = [RatFunc(Poly([3]), Poly([1, 1])), RatFunc(Poly([1]), Poly([-2, 1]))]
    got = Lifted(terms).combine([Poly([1, 1]), 5])
    assert got == RatFunc(Poly([3])) + 5 * terms[1]
    assert got.roots == terms[1].roots


def test_pipeline_never_calls_euclidean_division(monkeypatch):
    def forbidden(self, other):
        raise AssertionError("Euclidean polynomial division on the pipeline")

    monkeypatch.setattr(Poly, "gcd", forbidden)
    monkeypatch.setattr(Poly, "divmod", forbidden)
    lam = (Fraction(3, 7), Fraction(-11, 5), Fraction(23, 3), Fraction(2, 9),
           Fraction(-31, 4))
    for checks in (check_transformations(4, 5, 2, 0, lam=lam),
                   check_recursion_cy(4, 5, 2, 0, lam=lam)):
        assert checks and all(c.passed for c in checks), checks


def test_phi_correlator_never_reads_fraction_views(monkeypatch):
    # num and den are Fraction views for printing and expansions; the
    # correlator's arithmetic must stay on the integer kernels.
    reads = []
    for name in ("num", "den"):
        view = vars(RatFunc)[name]
        monkeypatch.setattr(RatFunc, name, property(
            lambda self, view=view, name=name: reads.append(name)
            or view.fget(self)))
    lam = (Fraction(3, 7), Fraction(-11, 5), Fraction(23, 3), Fraction(2, 9),
           Fraction(-31, 4))
    family = zstar_family(HypergeomConfig(4, 5, 2), lam)
    phi = phi_double_correlator(family, 3)   # z^0..z^2 vanish
    nonzero = [v for row in phi.c for v in row if not v.is_zero()]
    assert nonzero and reads == []
    # The counter sees a read: the guard is not vacuous.
    assert nonzero[0].num is not None and reads == ["num"]


def test_correlator_checks_never_read_poly_coefficients(monkeypatch):
    # Poly.c is the Fraction view of the integer form; the checks' arithmetic
    # (N_id, E_d, Phi, the recursion residuals) must never build it.
    reads = []
    view = vars(Poly)["c"]
    monkeypatch.setattr(Poly, "c", property(
        lambda self: reads.append(1) or view.fget(self)))
    lam = (Fraction(3, 7), Fraction(-11, 5), Fraction(23, 3), Fraction(2, 9),
           Fraction(-31, 4))
    runs = [check_class_p(4, 5, 3, 0, lam=lam),
            check_phi_poly(4, 5, 3, 0, lam=lam),
            check_recursion_cy(4, 5, 2, 0, lam=lam),
            check_recursion_i(4, 3, 3, 0, lam=lam),
            check_recursion_ii(4, 4, 3, 0, lam=lam)]
    for checks in runs:
        assert checks and all(c.passed for c in checks), checks
    assert reads == []
    # The counter sees a read: the guard is not vacuous.
    rf = RatFunc(Poly([1, 2]), Poly([3, 5]))
    assert rf.num.c == (Fraction(1, 5), Fraction(2, 5)) and reads == [1]


def _ref_trim(c) -> tuple:
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_add(a, b, sign=1) -> tuple:
    return _ref_trim(x + sign * y for x, y in zip_longest(a, b, fillvalue=0))


def _ref_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(a):
        acc = acc * x + coef
    return acc


def _ref_repr(a) -> str:
    terms = [f"{x}*h^{k}" for k, x in enumerate(a) if x != 0]
    return "Poly(" + (" + ".join(terms) or "0") + ")"


_poly_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _poly_coeffs(draw):
    """A coefficient list, often with a large or negative common scale."""
    c = draw(st.lists(_poly_coeff, max_size=6))
    scale = draw(st.one_of(st.just(Fraction(1)), _scale, _big_scale))
    return [x * scale for x in c]


_BIG = Fraction(2**90 + 1, 3**37)


@settings(_differential, max_examples=200)
@given(_poly_coeffs(), _poly_coeffs(), st.integers(0, 4), _any_root)
@example([], [3], 0, Fraction(0))                               # zero
@example([Fraction(-7, 3)], [], 2, Fraction(1, 2))               # constants
@example([1, 2, 3, 4], [0, 1], 3, Fraction(-2, 3))              # odd degree
@example([1, 0, -2], [Fraction(1, 2), 0, 0, 0, 5], 2, Fraction(3))  # even
@example([5, 0, Fraction(-1, 2)], [-1, -1], 1, Fraction(-1, 7))  # lead < 0
@example([_BIG, -_BIG * 6, 4 * _BIG], [-1 / _BIG, 1 / _BIG], 4,
         Fraction(2**80 - 1, 7))                                # big content
def test_poly_matches_fraction_reference(a, b, k, x):
    p, q = Poly(a), Poly(b)
    ra, rb = _ref_trim(a), _ref_trim(b)
    assert p.c == ra and all(type(v) is Fraction for v in p.c)
    assert p.degree == len(ra) - 1 and p.is_zero() == (not ra)
    assert all(p.coeff(i) == (ra[i] if 0 <= i < len(ra) else 0)
               for i in range(-1, len(ra) + 2))
    assert repr(p) == _ref_repr(ra)
    assert (p + q).c == _ref_add(ra, rb)
    assert (p - q).c == _ref_add(ra, rb, -1)
    assert (-p).c == _ref_add((), ra, -1)
    assert (p * q).c == _ref_mul(ra, rb)
    assert (p + 3).c == _ref_add(ra, (Fraction(3),))
    assert (Fraction(1, 3) - p).c == _ref_add((Fraction(1, 3),), ra, -1)
    assert (p * Fraction(-2, 5)).c == _ref_mul(ra, (Fraction(-2, 5),))
    power = (Fraction(1),)
    for _ in range(k):
        power = _ref_mul(power, ra)
    assert (p ** k).c == power and (p ** 0).c == (1,)
    value = p.eval(x)
    assert value == _ref_eval(ra, x) and type(value) is Fraction
    assert p(x) == value
    assert p.subs_neg().c == tuple(-v if i % 2 else v
                                   for i, v in enumerate(ra))
    if ra:
        assert p.monic().c == tuple(v / ra[-1] for v in ra)
        assert p.leading() == ra[-1]
    else:
        assert p.monic().is_zero()
    # Equal polynomials built along different routes are equal and hash
    # equal; unequal ones are unequal.
    for built in (Poly(list(ra) + [0, 0]), (p + q) - q, Poly(ra) * 1,
                  p.subs_neg().subs_neg()):
        assert built == p and hash(built) == hash(p)
    assert p * q == q * p and hash(p * q) == hash(q * p)
    assert (p == q) == (ra == rb)
    assert (p == ra[0]) == (len(ra) == 1) if ra else p == 0


# Coefficient lists of c (hbar - r), and of nonzero constants.
_linear_form = st.builds(lambda c, r: [-c * r, c], _scale, _any_root)


@settings(_differential, max_examples=100)
@given(_poly_coeffs(), st.one_of(_scale.map(lambda c: [c]), _linear_form),
       _linear_form)
@example([3, 1], [0, 2], [1, 1])                         # the root 0
@example([], [5], [0, 1])                                # zero numerator
def test_constructor_divides_by_its_denominator(num, den, lin):
    # RatFunc(num, den) is RatFunc(num) / den: a constant or linear den
    # divides, a zero one raises ZeroDivisionError, and one of degree 2,
    # split or not, raises StructureError.
    num, den, lin = Poly(num), Poly(den), Poly(lin)
    got, want = RatFunc(num, den), RatFunc(num) / den
    assert got == want and hash(got) == hash(want)
    _same(got, EuclidRatFunc(num, den))
    for zero in (Poly(), 0):
        with pytest.raises(ZeroDivisionError):
            RatFunc(num, zero)
    for quadratic in (lin * lin, Poly([1, 0, 1])):
        with pytest.raises(StructureError):
            RatFunc(num, quadratic)


@st.composite
def _tall_pair(draw):
    """One element as (factored RatFunc, Euclidean oracle) whose numerator
    has PACK_FROM + 8 or more roots and whose denominator has at most 4.
    Cancelling leaves at least PACK_FROM + 5 numerator coefficients, and a
    product of two at least PACK_FROM + 1 in each factor after its
    cross-reduction, so the product takes the packed route."""
    scale = draw(_big_scale)
    num_roots = draw(st.lists(_any_root, min_size=PACK_FROM + 8,
                              max_size=PACK_FROM + 12))
    den_roots = draw(st.lists(_root, max_size=4))
    return (_factored(scale, num_roots, den_roots),
            EuclidRatFunc(Poly([scale]) * _linear_poly(num_roots),
                          _linear_poly(den_roots)))


@settings(_differential, max_examples=25)
@given(_tall_pair(), _tall_pair())
def test_products_above_the_packing_rule_match_the_oracles(x, y):
    (a, a_old), (b, b_old) = x, y
    assert min(len(a._n), len(b._n)) >= PACK_FROM + 5
    # The oracle's products all take the schoolbook route.
    saved, intpoly.PACK_FROM = intpoly.PACK_FROM, 10 ** 9
    try:
        want = a_old * b_old
    finally:
        intpoly.PACK_FROM = saved
    _same(a * b, want)
    _same(a * b * a, want * a_old)
    assert (a.num * b.num).c == _ref_mul(a.num.c, b.num.c)


def test_negative_power_raises():
    with pytest.raises(DomainError):
        Poly([1, 2]) ** -1


def test_laurent_product():
    # The one method the class keeps; a cancelled term leaves no zero.
    x = Laurent({-1: 1, 2: Fraction(1, 3)})
    y = Laurent({-2: 2, 1: Fraction(-2, 3)})
    assert (x * y).c == {-3: 2, 3: Fraction(-2, 9)}
    assert (3 * x).c == (x * 3).c == {-1: 3, 2: 1}
    assert (x * Laurent({1: 1}) * Laurent({-1: 1})).c == x.c
    assert (x * 0).c == {}

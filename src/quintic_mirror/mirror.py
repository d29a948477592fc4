"""Mirror transformation pipeline and invariant extraction.

Implements the three degree regimes for a hypersurface of degree l in P^m:

* l < m:   the hypersurface series already solves the quantum
           differential equation (checked by an operator identity);
* l = m:   an exponential prefactor e^(-m! q) intervenes;
* l = m+1: the mirror-map change of variables produces the A-model
           series, from which the quintic invariants N_d and the virtual
           counts n_d are extracted.

All three operator identities are one residual,
``hypersurface_operator_residual``, whose d/dt -> d/dt + m! q shift is
read from (m, l).  Every series here is stored without its factor e^(Ht)
(or e^(HT) after the mirror change of variables; see
``hypersurface_series``), so the quintic identities are read at t^0 and
T^0.  All arithmetic is exact; every identity is checked
coefficientwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ConsistencyError, DomainError
from .hypergeom import (HypergeomConfig, exp_prefactor, f_and_g,
                        hypersurface_operator_residual, hypersurface_series)
from .mixed import MixedSeries
from .report import Check
from .series import TruncSeries, compose_all, series_exp, series_reversion

__all__ = [
    "MirrorMap",
    "InvariantTable",
    "build_mirror_map",
    "multiple_cover_invert",
    "multiple_cover_sum",
    "quintic_invariants",
    "transformed_quintic_series",
    "case_i_check",
    "case_ii_check",
    "picard_fuchs_check",
    "mirror_identity_check",
    "residual_check",
]


class MirrorMap:
    """The change of variables T = t + g(q) and its reversion.

    ``g`` is the additive shift (g(0) = 0); ``w`` satisfies
    q'*w(q')*exp(g(q'*w(q'))) = q' so that q = q'*w(q') inverts
    q' = q*exp(g(q)).
    """

    def __init__(self, g: TruncSeries, w: TruncSeries):
        self.g = g
        self.w = w


class InvariantTable:
    """Genus-0 invariants N_d and virtual curve counts n_d, d = 1..degree_max."""

    def __init__(self, degree_max: int, N: list[Fraction], n: list[Fraction]):
        self.degree_max = degree_max
        self.N = N
        self.n = n

    def rows(self):
        for d in range(1, self.degree_max + 1):
            yield (d, self.N[d - 1], self.n[d - 1])

    def nonintegral_degrees(self) -> list[int]:
        return [d for d, _, nd in self.rows() if nd.denominator != 1]


def build_mirror_map(m: int, order: int) -> MirrorMap:
    """g = (m+1)(G_{m+1} - G_1)/F and the reversion of exp(g)."""
    if order < 1:
        raise DomainError("order must be >= 1")
    F, G_1, G_top = f_and_g(m, order)
    g = (G_top - G_1).scale(m + 1) / F
    w = series_reversion(series_exp(g))
    return MirrorMap(g=g, w=w)


def multiple_cover_invert(N: list[Fraction]) -> list[Fraction]:
    """Solve N_d = sum_{k|d} n_{d/k} k^-3 for n by increasing degree."""
    n: list[Fraction] = []
    for d in range(1, len(N) + 1):
        acc = Fraction(N[d - 1])
        for k in range(2, d + 1):
            if d % k == 0:
                acc -= n[d // k - 1] * Fraction(1, k ** 3)
        n.append(acc)
    return n


def multiple_cover_sum(n: list[Fraction]) -> list[Fraction]:
    """Forward direction of the cover formula (round-trip partner)."""
    N = []
    for d in range(1, len(n) + 1):
        acc = Fraction(0)
        for k in range(1, d + 1):
            if d % k == 0:
                acc += n[d // k - 1] * Fraction(1, k ** 3)
        N.append(acc)
    return N


def _quintic_stages(order: int) -> tuple[MixedSeries, MirrorMap, MixedSeries]:
    """L = S/I_0, the mirror map, and L after the mirror change of variables.

    Every quintic computation starts from these three stages; each is
    built once here.  L stands for J = e^(Ht) L, the substituted K for
    e^(HT) K (see ``hypersurface_series``).
    """
    S = hypersurface_series(HypergeomConfig.quintic(order))
    L = S.div_qseries(S.row(0))
    mm = build_mirror_map(4, order)
    return L, mm, L.substitute_mirror(mm.g, mm.w)


def transformed_quintic_series(order: int) -> MixedSeries:
    """K = (e^(-Hg) I/I_0) o q(q'), which stands for e^(HT) K in (T, q').

    The H^0..H^3 components of e^(HT) K are the A-model data: 1, T, and
    the two derivative combinations of the prepotential.  So K_0 = 1,
    K_1 = 0, K_2 = (1/5) sum_d d N_d q'^d and K_3 = -(2/5) sum_d N_d q'^d.
    """
    return _quintic_stages(order)[2]


def quintic_invariants(order: int) -> InvariantTable:
    """Extract N_d from the H^2 component and invert the cover formula."""
    if order < 1:
        raise DomainError("order must be >= 1")
    return _extract_invariants(transformed_quintic_series(order))


def _extract_invariants(sub: MixedSeries) -> InvariantTable:
    """N_d and n_d from the transformed quintic series K.

    The H^0, H^1 and H^2 components of e^(HT) K are K_0, T K_0 + K_1 and
    T^2/2 K_0 + T K_1 + K_2.  They must be 1, T and
    T^2/2 + (1/5) sum_d d N_d q'^d, so K_0 = 1, K_1 = 0 and K_2 has no
    constant term; anything else is a pipeline inconsistency and raises.
    """
    order = sub.order
    if sub.row(0) != TruncSeries.one(order):
        raise ConsistencyError("H^0 component of the mirror series is not 1")
    if not sub.row(1).is_zero():
        raise ConsistencyError("H^1 component of the mirror series is not T")
    if sub.coeff(2, 0) != 0:
        raise ConsistencyError("H^2 component has a constant term")
    N = [Fraction(5, d) * sub.coeff(2, d) for d in range(1, order + 1)]
    n = multiple_cover_invert(N)
    return InvariantTable(degree_max=order, N=N, n=n)


def prepotential_in_t(mm: MirrorMap, table: InvariantTable) -> TruncSeries:
    """The t^0 part of F(T(t)) = 5T^3/6 + sum N_d e^(dT) in the (t, q)
    variables: 5g^3/6 + sum N_d (q exp(g(q)))^d.

    Uses T = t + g(q) and e^(dT) = (q exp(g(q)))^d at t = 0.
    """
    g = mm.g
    instantons = compose_all([TruncSeries([0] + table.N, g.order)],
                             series_exp(g).mul_q())[0]
    return (g ** 3).scale(Fraction(5, 6)) + instantons


def _first_mismatch(at: str, delta: TruncSeries) -> str:
    """The first nonzero coefficient of ``delta``, in the variable ``at``."""
    d, v = next((d, v) for d, v in enumerate(delta.coeffs) if v != 0)
    return f"first mismatch at {at}^{d}: {v}"


def mirror_identity_check(order: int = 6) -> list[Check]:
    """The prepotential identity and the H^3 consistency check.

    Verifies F(T(t)) = (5/2)(J_1 J_2 - J_3) coefficientwise.  With
    J = e^(Ht) L its t^0 part is 5g^3/6 + sum N_d (q e^g)^d =
    (5/2)(L_1 L_2 - L_3); its t^1..t^3 parts reduce to g = L_1, which
    K_1 = 0 in the extraction already checks.  The H^3 component of
    e^(HT) K must equal (1/5) T dF/dT - (2/5) F =
    T^3/6 + sum N_d (dT - 2)/5 q'^d; given K_0, K_1 and K_2 that is
    K_3 = -(2/5) sum N_d q'^d.  A mismatch is reported where it sits in
    the (t, q) and (T, q') expansions: at t^0 and at T^0.
    """
    L, mm, sub = _quintic_stages(order)
    table = _extract_invariants(sub)
    L1, L2, L3 = (L.row(b) for b in (1, 2, 3))
    delta = prepotential_in_t(mm, table) - (L1 * L2 - L3).scale(
        Fraction(5, 2))
    if not delta.is_zero():
        return [Check(
            name="mirror-identity",
            identity="F(T(t)) = (5/2)(J1 J2 - J3)",
            passed=False,
            detail=_first_mismatch("t^0 q", delta))]
    want = TruncSeries([0] + [Fraction(-2, 5) * Nd for Nd in table.N], order)
    delta = sub.row(3) - want
    if not delta.is_zero():
        return [Check(
            name="mirror-identity",
            identity="H^3 component = (1/5) T dF/dT - (2/5) F",
            passed=False,
            detail=_first_mismatch("T^0 q'", delta))]
    return [Check(
        name="mirror-identity",
        identity="F(T(t)) = (5/2)(J1 J2 - J3); H^3 = (1/5)T dF/dT - (2/5)F",
        passed=True,
        detail=f"verified through q-order {order}")]


def residual_check(name: str, identity: str,
                   residual: MixedSeries) -> Check:
    """PASS when the operator residual is identically zero, else its first
    nonzero coefficient."""
    if residual.is_zero():
        return Check(name=name, identity=identity, passed=True,
                     detail="residual identically zero")
    # The residual R stands for e^(Ht) R, whose first nonzero coefficient
    # is R's first, at t^0.
    i, d, v = residual.first_nonzero()
    return Check(name=name, identity=identity, passed=False,
                 detail=f"first nonzero residual at H^{i} t^0 q^{d}: {v}")


def case_i_check(m: int = 5, l: int = 3, order: int = 6) -> list[Check]:
    """Operator identity for l < m (the series solves the quantum ODE)."""
    cfg = HypergeomConfig(m, l, order)
    if l >= m:
        raise DomainError(f"case (i) requires l < m, got l={l}, m={m}")
    return [residual_check(
        "case-i", f"(d/dt)^{m} W = {l} q prod_(r<{l})({l} d/dt + r) W",
        hypersurface_operator_residual(hypersurface_series(cfg), m, l))]


def case_ii_check(m: int = 4, l: int = 4, order: int = 6) -> list[Check]:
    """Modified operator identity for l = m, on e^(-m! q) times the series."""
    cfg = HypergeomConfig(m, l, order)
    if l != m:
        raise DomainError(f"case (ii) requires l = m, got l={l}, m={m}")
    W = hypersurface_series(cfg).mul_qseries(
        exp_prefactor(-factorial(m), order))
    return [residual_check(
        "case-ii",
        f"(d/dt + {m}! q)^{m} W = {m} q prod_(r<{m})"
        f"({m} d/dt + {m}*{m}! q + r) W",
        hypersurface_operator_residual(W, m, l))]


def picard_fuchs_check(order: int = 6) -> list[Check]:
    """Order-4 differential equation annihilating all quintic periods."""
    S = hypersurface_series(HypergeomConfig.quintic(order))
    return [residual_check(
        "picard-fuchs",
        "(d/dt)^4 I = 5 q (5 d/dt + 1)(5 d/dt + 2)(5 d/dt + 3)(5 d/dt + 4) I",
        hypersurface_operator_residual(S, 4, 5))]

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
read from (m, l).  All arithmetic is exact; every identity is checked
coefficientwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import ConsistencyError, DomainError
from .hypergeom import (HypergeomConfig, exp_prefactor, f_and_g,
                        hypersurface_operator_residual, hypersurface_series)
from .mixed import MixedSeries
from .report import Check
from .series import TruncSeries, series_exp, series_reversion

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
    """J = S/I_0, the mirror map, and J after the mirror change of variables.

    Every quintic computation starts from these three stages; each is
    built once here.
    """
    S = hypersurface_series(HypergeomConfig.quintic(order))
    J = S.div_qseries(S.t_zero_part(0))
    mm = build_mirror_map(4, order)
    return J, mm, J.substitute_mirror(mm.g, mm.w)


def transformed_quintic_series(order: int) -> MixedSeries:
    """J_b = I_b/I_0 after the mirror change of variables, in (T, q').

    The H^0..H^3 components are the A-model data: 1, T, and the two
    derivative combinations of the prepotential.
    """
    return _quintic_stages(order)[2]


def quintic_invariants(order: int) -> InvariantTable:
    """Extract N_d from the H^2 component and invert the cover formula."""
    if order < 1:
        raise DomainError("order must be >= 1")
    return _extract_invariants(transformed_quintic_series(order))


def _extract_invariants(sub: MixedSeries) -> InvariantTable:
    """N_d and n_d from the transformed quintic series.

    The H^2 component must equal T^2/2 + (1/5) sum_d d N_d q'^d; any
    residue outside that shape is a pipeline inconsistency and raises.
    """
    order = sub.order
    _check_low_components(sub)
    h2 = sub.h_component(2)
    expected_t2 = Fraction(1, 2)
    for k in range(h2.t_top + 1):
        for d in range(order + 1):
            v = h2.coeff(0, k, d)
            if k == 2 and d == 0:
                if v != expected_t2:
                    raise ConsistencyError(f"T^2 coefficient is {v}, not 1/2")
            elif k == 0:
                continue
            elif v != 0:
                raise ConsistencyError(
                    f"unexpected T^{k} q'^{d} residue {v} in H^2 component")
    if h2.coeff(0, 0, 0) != 0:
        raise ConsistencyError("H^2 component has a constant term")
    N = [Fraction(5, d) * h2.coeff(0, 0, d) for d in range(1, order + 1)]
    n = multiple_cover_invert(N)
    return InvariantTable(degree_max=order, N=N, n=n)


def _check_low_components(sub: MixedSeries) -> None:
    order = sub.order
    want_h0 = MixedSeries.constant(Fraction(1), 0, sub.t_top, order)
    if sub.h_component(0) != want_h0:
        raise ConsistencyError("H^0 component of the mirror series is not 1")
    want_h1 = MixedSeries(0, sub.t_top, order)
    want_h1.set_coeff(0, 1, 0, Fraction(1))
    if sub.h_component(1) != want_h1:
        raise ConsistencyError("H^1 component of the mirror series is not T")


def prepotential_in_t(mm: MirrorMap, table: InvariantTable) -> MixedSeries:
    """F(T(t)) = 5T^3/6 + sum N_d e^(dT) written in the (t, q) variables.

    Uses T = t + g(q) and e^(dT) = (q exp(g(q)))^d.
    """
    g = mm.g
    D = g.order
    g_pows = g.powers(3)
    # 5(t+g)^3/6 expanded in powers of t with q-series coefficients.
    rows = [g_pows[3 - j].scale(Fraction(5 * comb(3, j), 6)) for j in range(4)]
    instantons = TruncSeries([0] + table.N, D).compose(series_exp(g).mul_q())
    rows[0] = rows[0] + instantons
    return MixedSeries(0, 3, D, [[row.coeffs for row in rows]])


def mirror_identity_check(order: int = 6) -> list[Check]:
    """The prepotential identity and the H^3 consistency check.

    Verifies F(T(t)) = (5/2)(J_1 J_2 - J_3) coefficientwise, and that the
    H^3 component of the transformed series equals
    (1/5) T dF/dT - (2/5) F = T^3/6 + sum N_d (dT - 2)/5 q'^d.
    """
    J, mm, sub = _quintic_stages(order)
    table = _extract_invariants(sub)
    lhs = prepotential_in_t(mm, table)
    J1, J2, J3 = (J.h_component(b) for b in (1, 2, 3))
    rhs = (J1 * J2 - J3).scale(Fraction(5, 2))
    delta = lhs - rhs
    if not delta.is_zero():
        bad = delta.first_nonzero()
        return [Check(
            name="mirror-identity",
            identity="F(T(t)) = (5/2)(J1 J2 - J3)",
            passed=False,
            detail=f"first mismatch at t^{bad[1]} q^{bad[2]}: {bad[3]}")]
    # H^3 closed form.
    h3 = sub.h_component(3)
    want = MixedSeries(0, sub.t_top, order)
    want.set_coeff(0, 3, 0, Fraction(1, 6))
    for d in range(1, order + 1):
        Nd = table.N[d - 1]
        want.c[0][1][d] = Fraction(d, 5) * Nd
        want.c[0][0][d] = Fraction(-2, 5) * Nd
    if h3 != want:
        bad = (h3 - want).first_nonzero()
        return [Check(
            name="mirror-identity",
            identity="H^3 component = (1/5) T dF/dT - (2/5) F",
            passed=False,
            detail=f"first mismatch at T^{bad[1]} q'^{bad[2]}: {bad[3]}")]
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
    i, k, d, v = residual.first_nonzero()
    return Check(name=name, identity=identity, passed=False,
                 detail=f"first nonzero residual at H^{i} t^{k} q^{d}: {v}")


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

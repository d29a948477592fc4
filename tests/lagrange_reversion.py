"""Test oracle: series reversion by the full Lagrange power ladder.

``lagrange_reversion`` is the formula ``quintic_mirror.series`` used
before reversion took baby steps and giant steps: w_j = [q^j] u^(j+1) /
(j+1) with u = 1/v, reading one coefficient from each of u, u^2, ...,
u^(D+1).  Here u comes from a long division of its own and each power
from one more plain product, so the oracle shares no division, power
ladder or dot product with the code under test.
"""

from __future__ import annotations

from fractions import Fraction

from quintic_mirror.series import TruncSeries


def _div(x, n):
    # Exact in every coefficient ring the tests use: an int becomes a
    # Fraction first, so int / int stays exact.
    return (Fraction(x) if isinstance(x, int) else x) / n


def _inverse(v: TruncSeries) -> TruncSeries:
    """1/v for v(0) = 1, by the long division recurrence."""
    D = v.order
    u = [1]
    for k in range(1, D + 1):
        acc = 0
        for j in range(k):
            acc = acc - u[j] * v[k - j]
        u.append(acc)
    return TruncSeries(u, D)


def lagrange_reversion(v: TruncSeries) -> TruncSeries:
    """w with q' w(q') v(q' w(q')) = q', for v(0) = 1."""
    D = v.order
    u = _inverse(v)
    power = u
    out = []
    for j in range(D + 1):
        out.append(_div(power[j], j + 1))
        power = power * u
    return TruncSeries(out, D)

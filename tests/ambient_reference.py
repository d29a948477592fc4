"""Test oracle: the ambient fundamental solution built in the ring itself.

This is the literal form ``quintic_mirror.hypergeom.fundamental_solution``
had before it read the solution off the hypersurface series at hbar = 1:
every degree's block 1/prod_{r<=d}(H + r hbar)^(m+1) is formed as a
``TruncSeries`` in H, truncated by H^(m+1) = 0, with ``RatFunc``
coefficients in hbar.  Each factor 1/(H + r hbar) is one long division,
whose constant term r hbar is linear and so has a ``RatFunc`` inverse,
and e^(Ht/hbar) contributes (H/hbar)^k t^k/k!.  It returns nested lists
``c[i][k][d]`` of H^i t^k q^d with that factor written out, hbar kept in
every coefficient, while the code under test leaves e^(Ht) implicit and
works at hbar = 1: the test expands the one and puts hbar back by the
grading rule.  Neither the hyperplane identity nor the grading rule is
on this route.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.series import TruncSeries


def fundamental_solution(m: int, order: int) -> list:
    one = TruncSeries.one(m)
    out = [[[0] * (order + 1) for _ in range(m + 1)] for _ in range(m + 1)]
    for d in range(order + 1):
        block = one
        for r in range(1, d + 1):
            factor = one / TruncSeries([RatFunc(Poly([0, r])), 1], m)
            block = block * factor ** (m + 1)
        for i in range(m + 1):
            for k in range(i + 1):
                v = block[i - k]
                if v != 0:
                    # (H/hbar)^k / k!: hbar^-k is the root 0 taken k times.
                    out[i][k][d] = v * RatFunc.from_factors(
                        Fraction(1, factorial(k)), {}, {(0, 1): k})
    return out

"""Test oracle: the ambient fundamental solution built in the ring itself.

This is the literal form ``quintic_mirror.hypergeom.fundamental_solution``
had before it read the solution off the hypersurface series at hbar = 1:
every degree's block 1/prod_{r<=d}(H + r hbar)^(m+1) is formed as an
``HTruncPoly`` in H with ``Laurent`` coefficients in hbar, by products,
powers and the geometric-series inverse of the nilpotent part, and
e^(Ht/hbar) contributes (H/hbar)^k t^k/k!.  It returns nested lists
``c[i][k][d]`` of H^i t^k q^d with that factor written out, and shares
no container with the code under test, which leaves e^(Ht) implicit:
the test expands it.  Neither ``HTruncPoly`` nor ``Laurent`` is on the
path under test, nor is the hyperplane identity on this one, and the
grading rule that puts hbar back is applied by the test.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from quintic_mirror.hbar import Laurent
from quintic_mirror.mixed import HTruncPoly


def fundamental_solution(m: int, order: int) -> list:
    nil = m + 1
    out = [[[0] * (order + 1) for _ in range(nil)] for _ in range(nil)]
    for d in range(order + 1):
        block = HTruncPoly.const(Laurent.const(1), nil)
        for r in range(1, d + 1):
            lin = HTruncPoly([Laurent.unit(1, r), Laurent.const(1)], nil)
            block = block * lin ** (m + 1)
        block = block.inverse()
        for i in range(m + 1):
            for k in range(i + 1):
                v = block.coeff(i - k)
                if v == 0:
                    continue
                scalar = Laurent.unit(-k, Fraction(1, factorial(k)))
                out[i][k][d] = v * scalar
    return out

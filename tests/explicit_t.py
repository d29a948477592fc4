"""Test helper: the factor e^(Ht) of the hypersurface side, written out.

A hypersurface-side ``MixedSeries`` W stands for e^(Ht) W with q = e^t
(see ``quintic_mirror.hypergeom.hypersurface_series``).  ``expand``
writes that product out in (H, t, q), the form the series had when it
stored a t axis, so tests can state identities in t itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def expand(W) -> list:
    """c[i][k][d], the H^i t^k q^d coefficient of e^(Ht) W:
    W's H^(i-k) q^d coefficient over k!.  Zeros stay the int 0."""
    zeros = [0] * (W.order + 1)
    return [[[Fraction(x) / factorial(k) if x != 0 else 0
              for x in W.c[i - k]] if k <= i else zeros[:]
             for k in range(W.top + 1)]
            for i in range(W.top + 1)]

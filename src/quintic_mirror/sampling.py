"""Deterministic random sampling of weight tuples and test series.

Weights are small-height rationals, pairwise distinct.  Only
``recursion_coeffs`` and ``bott_sum`` have exceptional weights such a
tuple can hit; their callers resample through ``sample_until`` with the
same generator, so a fixed seed gives a reproducible run, and the other
sampled checks draw one tuple.  No package builder evaluates at a point;
a ``PoleError`` reaches ``sample_until`` from tests alone (ROADMAP 12).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DegenerateLambda, PoleError

__all__ = ["sample_lambda", "sample_rational", "sample_series_coeffs",
           "sample_until"]

LAMBDA_SPAN = 40        # height of the weights' offsets
ATTEMPTS = 60           # builder calls before sample_until gives up


def sample_rational(rng: random.Random, span: int = 40,
                    max_den: int = 6, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, max_den))
        if not nonzero or value != 0:
            return value


def sample_lambda(m: int, rng: random.Random) -> tuple[Fraction, ...]:
    """m+1 pairwise-distinct small rationals: scaled ladder plus offsets."""
    while True:
        scale = sample_rational(rng, span=12, max_den=4, nonzero=True)
        lam = tuple(scale * i
                    + sample_rational(rng, span=LAMBDA_SPAN, max_den=5)
                    for i in range(m + 1))
        if len(set(lam)) == m + 1:
            return lam


def sample_series_coeffs(rng: random.Random, order: int, span: int = 9,
                         max_den: int = 5) -> list[Fraction]:
    return [sample_rational(rng, span=span, max_den=max_den)
            for _ in range(order + 1)]


def sample_until(rng: random.Random, builder):
    """Run ``builder(rng)`` until it succeeds, resampling on degeneracy.

    Small-height weight tuples collide with the exceptional sets of the
    recursion formulas fairly often (midpoints, slope coincidences); the
    callers simply retry with fresh randomness from the same generator,
    keeping the overall run deterministic for a fixed seed.
    """
    last: Exception | None = None
    for _ in range(ATTEMPTS):
        try:
            return builder(rng)
        except (DegenerateLambda, PoleError) as exc:
            last = exc
    raise DegenerateLambda(
        f"no nondegenerate sample after {ATTEMPTS} attempts: {last}")

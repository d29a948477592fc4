"""Test oracle: the class-P verdict decided degree by degree from node values.

This is the literal form ``quintic_mirror.recursion.classP_extract`` had
before it decided class P from the numerators:

* every N_id is extracted and bounded first, in the same order;
* for every degree d, every node value (m+1) lam_i N_ir(hbar)
  N_i(d-r)(-hbar) at P = lam_i + r hbar is compared with the closed
  form's value there, kept as per-node rows that grow with d;
* a degree is interpolated, and its interpolant bounded, when some node
  misses (or always, at m = 0).

It shares ``z_normalize``, ``_newton_interpolation`` and ``ClassPData``
with the code under test, not the verdict.  ``e_polys`` reads every E_d
off a ``ClassPData``.
"""

from __future__ import annotations

from quintic_mirror.errors import ClassPViolation
from quintic_mirror.hbar import Poly, RatFunc
from quintic_mirror.recursion import (ClassPData, _newton_interpolation,
                                      closed_form_E, z_normalize)


def e_polys(data: ClassPData) -> dict:
    """d -> the P-coefficients of E_d for d = 0..data.order: interpolated
    from the first degree whose numerators miss, the closed form below."""
    return {d: data.interpolated[d] if d in data.interpolated
            else closed_form_E(data.m, d) for d in range(data.order + 1)}


def classP_extract(family) -> ClassPData:
    m, lam, D = family.m, family.lam, family.order
    y = z_normalize(family)
    N_table: dict = {}
    for i in range(m + 1):
        clear = Poly([1])
        for d in range(D + 1):
            if d:
                clear = clear * d
                for j in range(m + 1):
                    if j != i:
                        clear = clear * Poly([lam[i] - lam[j], d])
            nid = RatFunc._coerce(y[i][d]) * clear
            if not nid.is_polynomial():
                raise ClassPViolation(
                    f"N_(i={i}, d={d}) is not an hbar-polynomial: {nid!r}")
            poly = nid.as_poly()
            if poly.degree > (m + 1) * d:
                raise ClassPViolation(
                    f"N_(i={i}, d={d}) has hbar-degree {poly.degree} "
                    f"> {(m + 1) * d}")
            N_table[(i, d)] = poly
    # closed[i][r] is the closed form at P = lam_i + r hbar for the current
    # d: prod_{j=(m+1)(r-d)..(m+1)r}((m+1)lam_i + j hbar); head[i] is
    # prod_{j=0..(m+1)d}, the start of the node r = d.
    closed: list = [[] for _ in range(m + 1)]
    head = [Poly([(m + 1) * x]) for x in lam]
    interpolated: dict = {}
    for d in range(D + 1):
        nodes = []
        values = []
        matched = m >= 1
        for i in range(m + 1):
            base = (m + 1) * lam[i]
            row = closed[i]
            if d:
                for r in range(d):
                    for j in range((m + 1) * (r - d), (m + 1) * (r - d + 1)):
                        row[r] = row[r] * Poly([base, j])
                for j in range((m + 1) * (d - 1) + 1, (m + 1) * d + 1):
                    head[i] = head[i] * Poly([base, j])
            row.append(head[i])
            for r in range(d + 1):
                nodes.append(Poly([lam[i], r]))
                v = (Poly([base]) * N_table[(i, r)]
                     * N_table[(i, d - r)].subs_neg())
                values.append(v)
                matched = matched and v == row[r]
        if matched:
            continue
        coeffs = _newton_interpolation(nodes, [RatFunc._coerce(v)
                                               for v in values])
        polys = []
        for k, c in enumerate(coeffs):
            if not c.is_polynomial():
                raise ClassPViolation(
                    f"E_{d} coefficient of P^{k} is not polynomial: {c!r}")
            polys.append(c.as_poly())
        while polys and polys[-1].is_zero():
            polys.pop()
        if len(polys) - 1 > (m + 1) * d + m:
            raise ClassPViolation(
                f"E_{d} has P-degree {len(polys) - 1} > {(m + 1) * d + m}")
        interpolated[d] = polys
    return ClassPData(m=m, lam=lam, N_table=N_table, order=D,
                      interpolated=interpolated)

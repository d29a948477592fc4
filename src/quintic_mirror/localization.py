"""Bott-residue graph sums over torus-fixed loci of the map space.

Independent computation of N_d, the integral of the top Chern class of
the section bundle (fibre H^0(C, f^*O(l))) over genus-0 degree-d stable
maps to P^m, as a sum over the torus-fixed loci: trees with vertices
labelled by fixed points (adjacent labels distinct) and edges by degrees.
Kontsevich, "Enumeration of rational curves via torus actions"
(hep-th/9405035); Ellingsrud-Stromme, "Bott's formula and enumerative
geometry" (alg-geom/9411005), who confirmed n_3 = 317206375 this way.

A tree G contributes 1/(|Aut G| prod_e delta_e) prod_e S_e/N_e prod_v V_v:

* edge from label i to label j of degree delta, w = (lam_i - lam_j)/delta:
      S_e = prod_(a=1..l delta-1) ((l delta - a) lam_i + a lam_j)/delta,
      N_e = (-1)^delta (delta!)^2 w^(2 delta) prod_(k != i,j) prod_(r=0..delta)
            ((r lam_i + (delta-r) lam_j)/delta - lam_k);
* vertex of label i and valence val, w_F = (lam_i - lam_j)/delta_F per flag:
      V_v = l lam_i (prod_(k != i)(lam_i - lam_k))^(val-1)
            prod_F w_F^-1 (sum_F w_F^-1)^(val-3).

The last two factors of V_v are the integral over M_{0,val} of
prod_F 1/(w_F - psi_F): w_F at val 1 and 1/(w_1 + w_2) at val 2.  The
endpoint section weight l lam_i is kept once per vertex, never divided
out, so a zero weight needs no special case.  A vanishing N_e, or
sum_F w_F^-1 = 0 at a vertex of valence 2, raises ``DegenerateLambda``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .errors import DegenerateLambda, DomainError
from .report import Check
from .sampling import sample_lambda, sample_until

__all__ = [
    "DecoratedGraph",
    "enumerate_graphs",
    "graph_contribution",
    "bott_sum",
    "oracle_crosscheck",
]

MAX_DEGREE = 3      # d = 4 has ~200k labelled trees: too slow to canonicalize


class DecoratedGraph(namedtuple("DecoratedGraph",
                                "vertices edges automorphisms")):
    """Fixed-locus label: a tree with vertex images and edge degrees.

    ``vertices`` holds the fixed-point labels mu(v), ``edges`` the triples
    (v, v', delta) as vertex indices, and ``automorphisms`` the number of
    decoration-preserving vertex bijections.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(e[2] for e in self.edges)

    @property
    def group_order(self) -> int:
        order = self.automorphisms
        for _, _, delta in self.edges:
            order *= delta
        return order


def _prufer_tree(code: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """The labelled tree on vertices 0..n-1 with Pruefer code ``code``."""
    valence = [1] * n
    for x in code:
        valence[x] += 1
    edges = []
    for x in code:
        leaf = valence.index(1)
        edges.append((leaf, x))
        valence[leaf] -= 1
        valence[x] -= 1
    edges.append(tuple(v for v in range(n) if valence[v] == 1))
    return edges


@lru_cache(maxsize=None)
def _tree_classes(m: int, d: int) -> tuple[DecoratedGraph, ...]:
    """Isomorphism classes of decorated trees, each with its |Aut|.

    Every labelled decorated tree is visited once and keyed by its
    canonical form, the least relabelling over all vertex permutations;
    a class met s times among the n! relabellings has n!/s automorphisms.
    """
    orbits: dict = {}
    for n in range(2, d + 2):
        perms = [(p, tuple(p.index(k) for k in range(n)))
                 for p in permutations(range(n))]
        for code in product(range(n), repeat=n - 2):
            tree = _prufer_tree(code, n)
            for degrees in product(range(1, d + 1), repeat=n - 1):
                if sum(degrees) != d:         # not a composition of d
                    continue
                images = [(inv, tuple(sorted(
                    (min(p[u], p[v]), max(p[u], p[v]), delta)
                    for (u, v), delta in zip(tree, degrees))))
                    for p, inv in perms]
                for labels in product(range(m + 1), repeat=n):
                    if any(labels[u] == labels[v] for u, v in tree):
                        continue
                    key = min((tuple(labels[v] for v in inv), edges)
                              for inv, edges in images)
                    orbits[key] = orbits.get(key, 0) + 1
    return tuple(DecoratedGraph(*key, factorial(len(key[0])) // orbits[key])
                 for key in sorted(orbits, key=lambda key: (len(key[0]), key)))


def enumerate_graphs(m: int, d: int) -> list[DecoratedGraph]:
    """All decorated fixed-locus trees of total degree d, up to isomorphism."""
    if not 1 <= d <= MAX_DEGREE:
        raise DomainError(
            f"graph enumeration supports 1 <= d <= {MAX_DEGREE}, got {d}")
    return list(_tree_classes(m, d))


def _product(values) -> Fraction:
    """Product of rationals, reduced once at the end."""
    num = den = 1
    for v in values:
        num *= v.numerator
        den *= v.denominator
    return Fraction(num, den)


def graph_contribution(graph: DecoratedGraph, lam: tuple[Fraction, ...],
                       m: int, l: int) -> Fraction:
    """(1/|G|) e(E_d)|_Gamma / e(N_Gamma) for one decorated tree."""
    lam = tuple(Fraction(x) for x in lam)
    labels = graph.vertices
    out = Fraction(1, graph.group_order)
    flags = [[] for _ in labels]          # flag weights w_F at each vertex
    for v, u, delta in graph.edges:
        i, j = labels[v], labels[u]
        li, lj = lam[i], lam[j]
        w = (li - lj) / delta
        # The r-th point (r lam_i + (delta-r) lam_j)/delta is lam_j + r w.
        points = [lj + r * w for r in range(delta + 1)]
        normal = ((-1) ** delta * factorial(delta) ** 2 * w ** (2 * delta)
                  * _product(x - lam[k] for x in points
                             for k in range(m + 1) if k != i and k != j))
        if normal == 0:
            raise DegenerateLambda(f"vanishing normal weight for {graph}")
        top = l * li                      # S_e factors are top - a w
        out *= _product(top - a * w for a in range(1, l * delta)) / normal
        flags[v].append(w)
        flags[u].append(-w)
    for i, weights in zip(labels, flags):
        val = len(weights)
        inverse_sum = sum(1 / w for w in weights)
        if inverse_sum == 0 and val < 3:
            raise DegenerateLambda(f"vanishing node weight for {graph}")
        factor = l * lam[i] * inverse_sum ** (val - 3) / _product(weights)
        if val > 1:                       # the tangent factor is 1 at a leaf
            factor *= _product(lam[i] - lam[k]
                               for k in range(m + 1) if k != i) ** (val - 1)
        out *= factor
    return out


def bott_sum(m: int, l: int, d: int, lam: tuple[Fraction, ...]) -> Fraction:
    """Sum of all graph contributions: the degree-d invariant N_d."""
    return sum((graph_contribution(g, lam, m, l)
                for g in enumerate_graphs(m, d)), Fraction(0))


def oracle_crosscheck(d: int, trials: int = 3, seed: int = 0,
                      pipeline_value: Fraction | None = None) -> Check:
    """Graph sums at independent weight tuples vs the series pipeline."""
    import random

    if not 1 <= d <= MAX_DEGREE:
        raise DomainError(f"oracle supports degrees 1 to {MAX_DEGREE} only")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if pipeline_value is None:
        from .mirror import quintic_invariants
        pipeline_value = quintic_invariants(d).N[d - 1]
    rng = random.Random(seed)
    values = [sample_until(rng,
                           lambda r: bott_sum(4, 5, d, sample_lambda(4, r)))
              for _ in range(trials)]
    distinct = set(values)
    if len(distinct) != 1:
        return Check(
            name=f"oracle-d{d}",
            identity="graph sum independent of the torus weights",
            passed=False,
            detail=f"weight-dependent sums: {sorted(str(v) for v in distinct)}")
    value = values[0]
    if value != pipeline_value:
        return Check(
            name=f"oracle-d{d}",
            identity="graph sum equals the series-pipeline invariant",
            passed=False,
            detail=f"graph sum {value} != pipeline {pipeline_value}")
    return Check(
        name=f"oracle-d{d}",
        identity="fixed-point graph sum = N_d, weight-independent",
        passed=True,
        detail=f"N_{d} = {value} across {len(values)} weight tuples")

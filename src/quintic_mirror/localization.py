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

The trees are enumerated over unlabelled shapes: each shape on n <= d+1
vertices is grown from those on n - 1 by adding a leaf, kept once with
its automorphism group, then decorated, and a decoration is keyed by its
least image under that group alone.  The sum runs on integers: the
weights are cleared to Lam = D lam, every factor above is an integer over
a power of D delta, each edge factor and tangent product is computed once
per weight tuple, and each tree makes one ``Fraction``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, gcd

from .errors import DegenerateLambda, DomainError
from .hypergeom import weight_tuple
from .intpoly import clear
from .report import Check
from .sampling import sample_lambda, sample_until

__all__ = [
    "DecoratedGraph",
    "enumerate_graphs",
    "graph_contribution",
    "bott_sum",
    "oracle_crosscheck",
]

MAX_DEGREE = 4      # d = 4: 2,475 classes for P^4 over 176,100 labelled trees


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


def _moved(edges, p) -> list[tuple[int, int]]:
    """The edges' images under the vertex permutation p, ends in order."""
    return [(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges]


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    """Unlabelled trees on n vertices, each as (edges, automorphisms).

    A tree on n >= 2 vertices is one on n - 1 with a leaf n - 1 attached
    at some vertex v.  A shape's edges are the least relabelling of such
    a tree over all n! permutations, and its automorphisms the
    permutations fixing them.
    """
    if n == 1:
        return (((), ((0,),)),)
    perms = list(permutations(range(n)))
    shapes = {min(tuple(sorted(_moved(edges + ((v, n - 1),), p)))
                  for p in perms)
              for edges, _ in _shapes(n - 1) for v in range(n - 1)}
    return tuple((edges, tuple(p for p in perms
                               if sorted(_moved(edges, p)) == list(edges)))
                 for edges in sorted(shapes))


@lru_cache(maxsize=None)
def _tree_classes(m: int, d: int) -> tuple[DecoratedGraph, ...]:
    """Isomorphism classes of decorated trees, each with its |Aut|.

    Each unlabelled shape T is decorated with every composition of d over
    its edges and every labelling with adjacent labels distinct.  A
    decoration is keyed by its least image under Aut(T); a key met s times
    is an orbit of size s, so the class has |Aut(T)|/s automorphisms.
    """
    classes = []
    for n in range(2, d + 2):
        for edges, automorphisms in _shapes(n):
            moves = [(tuple(p.index(k) for k in range(n)), _moved(edges, p))
                     for p in automorphisms]
            met: dict = {}
            for degrees in product(range(1, d + 1), repeat=n - 1):
                if sum(degrees) != d:         # not a composition of d
                    continue
                images = [(inv, tuple(sorted(
                    (a, b, delta) for (a, b), delta in zip(ends, degrees))))
                    for inv, ends in moves]
                for labels in product(range(m + 1), repeat=n):
                    if any(labels[u] == labels[v] for u, v in edges):
                        continue
                    key = min((tuple(labels[v] for v in inv), image)
                              for inv, image in images)
                    met[key] = met.get(key, 0) + 1
            classes += [DecoratedGraph(*key, len(automorphisms) // s)
                        for key, s in met.items()]
    return tuple(sorted(classes, key=lambda g: (len(g.vertices), g[:2])))


def enumerate_graphs(m: int, d: int) -> list[DecoratedGraph]:
    """All decorated fixed-locus trees of total degree d, up to isomorphism."""
    if not 1 <= d <= MAX_DEGREE:
        raise DomainError(
            f"graph enumeration supports 1 <= d <= {MAX_DEGREE}, got {d}")
    return list(_tree_classes(m, d))


@lru_cache(maxsize=1024)
def _edge_factor(Lam: tuple[int, ...], D: int, m: int, l: int, i: int,
                 j: int, delta: int) -> tuple[int, int]:
    """S_e/(delta N_e) of the edge i-j of degree delta as (num, den).

    With W = Lam_i - Lam_j, every factor of S_e and N_e is an integer
    over D delta; den is 0 where N_e vanishes.
    """
    li, lj = Lam[i], Lam[j]
    W = li - lj
    s_num = 1
    for a in range(1, l * delta):
        s_num *= l * delta * li - a * W
    n_num = (-1) ** delta * factorial(delta) ** 2 * W ** (2 * delta)
    for r in range(delta + 1):
        point = r * li + (delta - r) * lj
        for k in range(m + 1):
            if k != i and k != j:
                n_num *= point - delta * Lam[k]
    if n_num == 0:
        return 0, 0
    # (D delta)^shift carries the denominators of S_e and N_e.
    shift = 2 * delta + (delta + 1) * (m - 1) - (l * delta - 1)
    num, den = s_num, delta * n_num
    if shift >= 0:
        num *= (D * delta) ** shift
    else:
        den *= (D * delta) ** -shift
    g = gcd(num, den)
    return num // g, den // g


@lru_cache(maxsize=256)
def _tangent(Lam: tuple[int, ...], m: int, i: int) -> int:
    """D^m prod_(k != i)(lam_i - lam_k)."""
    out = 1
    for k in range(m + 1):
        if k != i:
            out *= Lam[i] - Lam[k]
    return out


def graph_contribution(graph: DecoratedGraph, lam: tuple[Fraction, ...],
                       m: int, l: int) -> Fraction:
    """(1/|G|) e(E_d)|_Gamma / e(N_Gamma) for one decorated tree.

    The weights are cleared to Lam = D lam, D their least common
    denominator, so the flag weight from label i to label j over an edge
    of degree delta is W/(D delta) with W = Lam_i - Lam_j.  The edge and
    tangent factors are cached by the cleared tuple; every factor
    multiplies into one integer numerator and denominator, and one
    ``Fraction`` is made at the end.
    """
    Lam, D = clear(lam)
    Lam = tuple(Lam)                      # the factor caches' key
    labels = graph.vertices
    n = len(labels)
    # The vertex factors together carry D^-(4 + m (n - 2)).
    num, den = 1, graph.automorphisms * D ** (4 + m * (n - 2))
    flags = [[] for _ in labels]          # (W, delta) of each flag
    for v, u, delta in graph.edges:
        i, j = labels[v], labels[u]
        e_num, e_den = _edge_factor(Lam, D, m, l, i, j, delta)
        if not e_den:
            raise DegenerateLambda(f"vanishing normal weight for {graph}")
        num *= e_num
        den *= e_den
        W = Lam[i] - Lam[j]
        flags[v].append((W, delta))
        flags[u].append((-W, delta))
    for i, weights in zip(labels, flags):
        val = len(weights)
        if val == 1:                      # a leaf: l lam_i w
            (W, delta), = weights
            num *= l * Lam[i] * W
            den *= delta
            continue
        # prod_F w_F^-1 = D^val prod delta_F / P, sum_F w_F^-1 = D S / P.
        P = deltas = 1
        for W, delta in weights:
            P *= W
            deltas *= delta
        S = sum(delta * (P // W) for W, delta in weights)
        num *= l * Lam[i] * deltas * _tangent(Lam, m, i) ** (val - 1)
        if val == 2:
            if S == 0:
                raise DegenerateLambda(f"vanishing node weight for {graph}")
            den *= S
        else:
            num *= S ** (val - 3)
            den *= P ** (val - 2)
    return Fraction(num, den)


def bott_sum(m: int, l: int, d: int, lam: tuple[Fraction, ...]) -> Fraction:
    """Sum of all graph contributions: the degree-d invariant N_d.

    The top Chern class integrates to a number only when the bundle's
    rank l d + 1 equals dim M_{0,0}(P^m, d) = (m+1)(d+1) - 4; elsewhere
    the sum depends on the weights, so it raises ``DomainError``.
    """
    lam = weight_tuple(m, lam)
    if l * d + 1 != (m + 1) * (d + 1) - 4:
        raise DomainError(
            f"rank {l * d + 1} of the section bundle differs from the "
            f"dimension {(m + 1) * (d + 1) - 4} of the degree-{d} maps to "
            f"P^{m}: no invariant to sum")
    return sum((graph_contribution(g, lam, m, l)
                for g in enumerate_graphs(m, d)), Fraction(0))


def oracle_crosscheck(d: int, trials: int = 3, seed: int = 0) -> Check:
    """Graph sums at independent weight tuples vs the series pipeline."""
    import random

    if not 1 <= d <= MAX_DEGREE:
        raise DomainError(f"oracle supports degrees 1 to {MAX_DEGREE} only")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
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

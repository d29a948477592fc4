"""Bott-residue graph sums over torus-fixed loci of the map space.

Independent low-degree computation of N_d = integral of the top Chern
class of the section bundle over the space of genus-0 degree-d maps to
P^m, by explicit enumeration of the decorated fixed-point trees.  Only
d <= 2 is supported: higher degrees acquire vertex moduli and cotangent
integrals, which this oracle deliberately avoids.

Weight bookkeeping (derived from the Euler-sequence weights on each edge,
removal of the leaf reparametrizations, gluing at internal nodes, and
node-smoothing factors):

* edge (i, j, delta): section-bundle weights
      ((l*delta - a) lam_i + a lam_j)/delta,  a = 0..l*delta;
  each internal node at fixed point p divides out one weight l*lam_p.
* normal bundle, single edge of degree delta:
      (-1)^(delta-1) delta!^2 w^(2delta-2)
      * prod_(a not in {i,j}) prod_(r=0..delta)
          ((r lam_i + (delta-r) lam_j)/delta - lam_a),
  with w = (lam_i - lam_j)/delta;
* normal bundle, path i-j-k with unit degrees:
      prod_(a != i,j)(lam_i - lam_a) * prod_(a != k,j)(lam_k - lam_a)
      * prod_(a != j)(lam_j - lam_a) * (2 lam_j - lam_i - lam_k);
* group order = prod of edge degrees times the decorated-graph
  automorphism count (2 for the symmetric path i-j-i, else 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateLambda, DomainError
from .report import Check
from .sampling import sample_lambda

__all__ = [
    "DecoratedGraph",
    "enumerate_graphs",
    "graph_contribution",
    "bott_sum",
    "oracle_crosscheck",
]


@dataclass(frozen=True)
class DecoratedGraph:
    """Fixed-locus label: a tree with vertex images and edge degrees."""

    shape: str                        # single_edge_d1|single_edge_d2|two_edge_path
    vertices: tuple[int, ...]         # fixed-point labels mu(v)
    edges: tuple[tuple[int, int, int], ...]  # (v, v', delta) as vertex indices

    @property
    def degree(self) -> int:
        return sum(e[2] for e in self.edges)

    @property
    def automorphisms(self) -> int:
        if self.shape == "two_edge_path" and self.vertices[0] == self.vertices[2]:
            return 2
        return 1

    @property
    def group_order(self) -> int:
        order = self.automorphisms
        for _, _, delta in self.edges:
            order *= delta
        return order


def enumerate_graphs(m: int, d: int) -> list[DecoratedGraph]:
    """All decorated fixed-locus trees of total degree d <= 2."""
    if d not in (1, 2):
        raise DomainError(f"graph enumeration supports d in (1, 2), got {d}")
    graphs = []
    if d == 1:
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                graphs.append(DecoratedGraph(
                    "single_edge_d1", (i, j), (((0, 1, 1)),)))
        return graphs
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            graphs.append(DecoratedGraph(
                "single_edge_d2", (i, j), ((0, 1, 2),)))
    # Paths i-j-k: j is the middle; unordered {i, k} with i = k allowed.
    for j in range(m + 1):
        others = [x for x in range(m + 1) if x != j]
        for a in range(len(others)):
            for b in range(a, len(others)):
                i, k = others[a], others[b]
                graphs.append(DecoratedGraph(
                    "two_edge_path", (i, j, k), ((0, 1, 1), (1, 2, 1))))
    return graphs


def _edge_bundle_weights(li: Fraction, lj: Fraction, delta: int,
                         l: int) -> list[Fraction]:
    """Weights of the degree-l*delta sections along one edge."""
    return [((l * delta - a) * li + a * lj) / delta
            for a in range(l * delta + 1)]


def _product(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def graph_contribution(graph: DecoratedGraph, lam: tuple[Fraction, ...],
                       m: int, l: int) -> Fraction:
    """(1/|G|) e(E_d)|_Gamma / e(N_Gamma) for one decorated tree."""
    lam = tuple(Fraction(x) for x in lam)
    if graph.shape in ("single_edge_d1", "single_edge_d2"):
        i, j = (lam[graph.vertices[0]], lam[graph.vertices[1]])
        delta = graph.edges[0][2]
        top = _product(_edge_bundle_weights(i, j, delta, l))
        w = (i - j) / delta
        sign = -1 if delta % 2 == 0 else 1
        normal = sign * Fraction(_factorial(delta) ** 2) * w ** (2 * delta - 2)
        for a in range(m + 1):
            la = lam[a]
            if la == i or la == j:
                continue
            for r in range(delta + 1):
                normal *= (r * i + (delta - r) * j) / delta - la
        if normal == 0:
            raise DegenerateLambda(f"vanishing normal weight for {graph}")
        return top / (graph.group_order * normal)
    if graph.shape == "two_edge_path":
        vi, vj, vk = (lam[v] for v in graph.vertices)
        # Sections glue at the internal node: one copy of the node weight
        # l*lam_j drops from the weight multiset.  A remaining zero weight
        # kills the whole contribution (it is not a degeneracy).
        weights = (_edge_bundle_weights(vi, vj, 1, l)
                   + _edge_bundle_weights(vj, vk, 1, l))
        weights.remove(l * vj)
        top = _product(weights)
        normal = Fraction(2) * vj - vi - vk
        for a in range(m + 1):
            la = lam[a]
            if la != vi and la != vj:
                normal *= vi - la
            if la != vk and la != vj:
                normal *= vk - la
            if la != vj:
                normal *= vj - la
        if normal == 0:
            raise DegenerateLambda(f"vanishing normal weight for {graph}")
        return top / (graph.group_order * normal)
    raise DomainError(f"unknown graph shape {graph.shape}")


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def bott_sum(m: int, l: int, d: int, lam: tuple[Fraction, ...]) -> Fraction:
    """Sum of all graph contributions: the degree-d invariant N_d."""
    return sum((graph_contribution(g, lam, m, l)
                for g in enumerate_graphs(m, d)), Fraction(0))


def bott_sum_random(m: int, l: int, d: int, rng,
                    attempts: int = 50) -> tuple[Fraction, tuple]:
    """Bott sum at a freshly sampled weight tuple, resampling degeneracies."""
    for _ in range(attempts):
        lam = sample_lambda(m, rng)
        try:
            return bott_sum(m, l, d, lam), lam
        except DegenerateLambda:
            continue
    raise DegenerateLambda("could not sample a nondegenerate weight tuple")


def oracle_crosscheck(d: int, trials: int = 3, seed: int = 0,
                      pipeline_value: Fraction | None = None) -> Check:
    """Graph sums at independent weight tuples vs the series pipeline."""
    import random

    if d not in (1, 2):
        raise DomainError("oracle supports degrees 1 and 2 only")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if pipeline_value is None:
        from .mirror import quintic_invariants
        pipeline_value = quintic_invariants(d).N[d - 1]
    rng = random.Random(seed)
    values = []
    for _ in range(trials):
        value, lam = bott_sum_random(4, 5, d, rng)
        values.append((value, lam))
    distinct = {v for v, _ in values}
    if len(distinct) != 1:
        return Check(
            name=f"oracle-d{d}",
            identity="graph sum independent of the torus weights",
            passed=False,
            detail=f"weight-dependent sums: {sorted(str(v) for v in distinct)}")
    value = values[0][0]
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

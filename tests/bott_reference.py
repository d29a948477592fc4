"""Test oracle: the fixed-point graph sum by full canonicalization on Fraction.

These are the literal forms ``quintic_mirror.localization`` used before it
enumerated decorated trees over unlabelled shapes and summed on cleared
integer weights:

* ``tree_classes`` visits every labelled decorated tree (Pruefer code,
  degree composition, labelling with adjacent labels distinct) and keys it
  by its least relabelling over all n! vertex permutations; a class met s
  times has n!/s automorphisms;
* ``canonical`` is that key for one decorated tree;
* ``graph_contribution`` multiplies the Bott-residue factors of one tree
  as ``Fraction``s, one per factor.

They share nothing with the code under test beyond ``DecoratedGraph`` and
``DegenerateLambda``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial

from quintic_mirror.errors import DegenerateLambda
from quintic_mirror.localization import DecoratedGraph


def prufer_tree(code: tuple[int, ...], n: int) -> list[tuple[int, int]]:
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


def canonical(graph: DecoratedGraph) -> tuple:
    """The least (labels, edges) image of ``graph`` over all relabellings."""
    n = len(graph.vertices)
    return min(
        (tuple(graph.vertices[p.index(k)] for k in range(n)),
         tuple(sorted((min(p[u], p[v]), max(p[u], p[v]), delta)
                      for u, v, delta in graph.edges)))
        for p in permutations(range(n)))


def tree_classes(m: int, d: int) -> tuple[DecoratedGraph, ...]:
    """Isomorphism classes of decorated trees, each with its |Aut|."""
    orbits: dict = {}
    for n in range(2, d + 2):
        perms = [(p, tuple(p.index(k) for k in range(n)))
                 for p in permutations(range(n))]
        for code in product(range(n), repeat=n - 2):
            tree = prufer_tree(code, n)
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


def _product(values) -> Fraction:
    num = den = 1
    for v in values:
        num *= v.numerator
        den *= v.denominator
    return Fraction(num, den)


def graph_contribution(graph: DecoratedGraph, lam, m: int,
                       l: int) -> Fraction:
    """(1/|G|) e(E_d)|_Gamma / e(N_Gamma) for one decorated tree."""
    lam = tuple(Fraction(x) for x in lam)
    labels = graph.vertices
    out = Fraction(1, graph.group_order)
    flags = [[] for _ in labels]          # flag weights w_F at each vertex
    for v, u, delta in graph.edges:
        i, j = labels[v], labels[u]
        li, lj = lam[i], lam[j]
        w = (li - lj) / delta
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

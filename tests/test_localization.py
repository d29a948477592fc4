"""Fixed-point graph enumeration and Bott-residue sums."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import pytest

import bott_reference
from quintic_mirror import localization, mirror
from quintic_mirror.errors import DegenerateLambda, DomainError
from quintic_mirror.localization import (DecoratedGraph, bott_sum,
                                         enumerate_graphs,
                                         graph_contribution,
                                         oracle_crosscheck)
from quintic_mirror.sampling import sample_lambda, sample_until

GOOD_LAMBDA = (Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(8),
               Fraction(-1, 4))
OTHER_LAMBDA = (Fraction(0), Fraction(1), Fraction(3), Fraction(7),
                Fraction(15))


def F(p, q=1):
    return Fraction(p, q)


def valences(g):
    out = [0] * len(g.vertices)
    for u, v, _ in g.edges:
        out[u] += 1
        out[v] += 1
    return out


def leaf_labels(g):
    return sorted(x for x, k in zip(g.vertices, valences(g)) if k == 1)


def is_symmetric_path(g):
    return len(g.edges) == 2 and len(set(leaf_labels(g))) == 1


def test_graph_counts():
    assert len(enumerate_graphs(4, 1)) == 10
    assert len(enumerate_graphs(4, 2)) == 60
    assert len(enumerate_graphs(2, 1)) == 3
    assert len(enumerate_graphs(4, 3)) == 350


def test_graph_count_decomposition_degree_two():
    graphs = enumerate_graphs(4, 2)
    singles = [g for g in graphs if len(g.edges) == 1]
    paths = [g for g in graphs if len(g.edges) == 2]
    assert len(singles) == 10
    assert len(paths) == 50
    symmetric = [g for g in paths if is_symmetric_path(g)]
    assert len(symmetric) == 20


def test_group_orders():
    g2 = next(g for g in enumerate_graphs(4, 2) if len(g.edges) == 1)
    assert g2.group_order == 2
    sym = next(g for g in enumerate_graphs(4, 2) if is_symmetric_path(g))
    assert sym.group_order == 2
    asym = next(g for g in enumerate_graphs(4, 2)
                if len(g.edges) == 2 and not is_symmetric_path(g))
    assert asym.group_order == 1


@pytest.mark.parametrize("m, d, labelled", [(4, 2, 260), (4, 3, 5620),
                                            (2, 3, 462), (3, 2, 120),
                                            (4, 4, 176100)])
def test_classes_cover_every_labelled_tree(m, d, labelled):
    # Cayley: (k+1)^(k-1) trees on k edges, C(d-1, k-1) degree
    # compositions, (m+1) m^k labellings with adjacent labels distinct.
    cayley = sum((k + 1) ** (k - 1) * comb(d - 1, k - 1) * (m + 1) * m ** k
                 for k in range(1, d + 1))
    assert cayley == labelled
    graphs = enumerate_graphs(m, d)
    assert sum(factorial(len(g.vertices)) // g.automorphisms
               for g in graphs) == cayley
    assert len(set(graphs)) == len(graphs)
    assert all(g.degree == d for g in graphs)


def test_equal_graphs_built_apart_are_equal_values():
    # The set in test_classes_cover_every_labelled_tree would count
    # distinct objects, not distinct graphs, if graphs hashed by identity.
    graphs = enumerate_graphs(3, 3)
    copies = [DecoratedGraph(tuple(list(g.vertices)),
                             tuple(tuple(list(e)) for e in g.edges),
                             g.automorphisms) for g in graphs]
    for g, copy in zip(graphs, copies):
        assert copy is not g
        assert copy == g and hash(copy) == hash(g)
        assert copy != DecoratedGraph(g.vertices, g.edges,
                                      g.automorphisms + 1)
    assert set(copies) == set(graphs)


def test_unsupported_degree():
    with pytest.raises(DomainError):
        enumerate_graphs(4, 5)
    with pytest.raises(DomainError):
        enumerate_graphs(4, 0)


def test_line_count_frozen():
    assert bott_sum(4, 5, 1, GOOD_LAMBDA) == 2875
    assert bott_sum(4, 5, 1, OTHER_LAMBDA) == 2875


def test_degree_two_invariant_frozen():
    # n_2 + n_1/8 from the published virtual counts.
    assert bott_sum(4, 5, 2, GOOD_LAMBDA) == F(4876875, 8)
    assert bott_sum(4, 5, 2, OTHER_LAMBDA) == F(4876875, 8)


def test_degree_three_invariant_frozen():
    # n_3 + n_1/27; the first tuple holds a zero weight.
    for lam in ((0, 1, 10, 100, 1000), (1, 3, 9, 27, 81)):
        assert bott_sum(4, 5, 3, tuple(map(F, lam))) == F(8564575000, 27)


def test_degree_four_invariant_frozen():
    # n_4 + n_2/8 + n_1/64, the pipeline's N_4; (1, 3, 9, 27, 81) and
    # (1, 2, 4, 8, 16) are degenerate at d = 4.
    assert bott_sum(4, 5, 4, (0, 1, 10, 100, 1000)) == F(15517926796875, 64)


@pytest.mark.parametrize("m, l, d, count", [(3, 3, 1, 27), (4, 5, 1, 2875),
                                            (5, 7, 1, 698005)])
def test_line_counts_where_rank_equals_dimension(m, l, d, count):
    # l d + 1 = (m+1)(d+1) - 4: 27 lines on a cubic surface, 2875 on the
    # quintic threefold, 698005 on a degree-7 hypersurface in P^5.
    for lam in ((0, 1, 3, 7, 15, 31), (0, 2, 5, 11, 23, 47)):
        assert bott_sum(m, l, d, tuple(map(F, lam[:m + 1]))) == count


@pytest.mark.parametrize("lam", [(0, 1, 3, 7), (0, 2, 5, 11)])
def test_rank_off_the_dimension_is_rejected(lam):
    # Lines on a quartic surface: rank 5 against dimension 4, where an
    # unguarded sum depends on the weights (3520 here, 5760 there).
    with pytest.raises(DomainError, match="rank 5 .* dimension 4"):
        bott_sum(3, 4, 1, tuple(map(F, lam)))


@pytest.mark.parametrize("lam, error, message", [
    ((0, 1, 10, 100, 1000, 7), DomainError, "^need 5 weights, got 6$"),
    ((0, 1, 10, 100), DomainError, "^need 5 weights, got 4$"),
    ((0, 1, 10, 1, 1000), DegenerateLambda,
     "^weights must be pairwise distinct$"),
])
def test_weight_tuple_is_checked(lam, error, message):
    # As zstar_family and recursion_coeffs check it: a sixth weight is not
    # ignored, a missing fifth is not an IndexError.
    with pytest.raises(error, match=message):
        bott_sum(4, 5, 1, tuple(map(F, lam)))


def test_weight_independence_random_tuples():
    rng = random.Random(50)
    seen = set()
    for _ in range(3):
        seen.add(sample_until(
            rng, lambda r: bott_sum(4, 5, 1, sample_lambda(4, r))))
    assert seen == {Fraction(2875)}


def test_individual_contribution_is_weight_dependent():
    # Only the sum is invariant; per-graph terms must move with the weights.
    g = enumerate_graphs(4, 1)[0]
    a = graph_contribution(g, GOOD_LAMBDA, 4, 5)
    b = graph_contribution(g, OTHER_LAMBDA, 4, 5)
    assert a != b


def test_degenerate_tuple_raises():
    with pytest.raises(DegenerateLambda):
        # (lam_0 + lam_1)/2 equals lam_2: a d=2 edge weight vanishes.
        bott_sum(4, 5, 2, (F(0), F(1), F(1, 2), F(3), F(4)))


def test_vanishing_node_weight_raises():
    # Path 0-1-2 with 2 lam_1 = lam_0 + lam_2: the two flag weights at the
    # middle vertex cancel, while every edge weight stays nonzero.
    path = next(g for g in enumerate_graphs(4, 2)
                if len(g.edges) == 2 and leaf_labels(g) == [0, 2]
                and 1 in g.vertices)
    with pytest.raises(DegenerateLambda, match="node weight"):
        graph_contribution(path, (F(0), F(1), F(2), F(7), F(20)), 4, 5)


def test_corrupted_node_factor_breaks_invariance():
    # Doubling the node normalization on path graphs leaves a
    # weight-dependent total: exactly what the cross-check must detect.
    def corrupted_sum(lam):
        total = Fraction(0)
        for g in enumerate_graphs(4, 2):
            c = graph_contribution(g, lam, 4, 5)
            if len(g.edges) == 2:
                c /= 5 * lam[g.vertices[valences(g).index(2)]]
            total += c
        return total

    assert corrupted_sum(GOOD_LAMBDA) != corrupted_sum(
        (F(1), F(2), F(4), F(8), F(16)))


def test_corrupted_valence_three_factor_breaks_invariance():
    # The same corruption at the trivalent vertices, which only d = 3 has.
    def corrupted_sum(lam):
        lam = tuple(map(F, lam))
        total = Fraction(0)
        for g in enumerate_graphs(4, 3):
            c = graph_contribution(g, lam, 4, 5)
            if 3 in valences(g):
                c /= 5 * lam[g.vertices[valences(g).index(3)]]
            total += c
        return total

    assert corrupted_sum((1, 3, 9, 27, 81)) != corrupted_sum(
        (2, 3, 10, 100, 1000))


def test_oracle_crosscheck_passes():
    assert oracle_crosscheck(1, trials=3, seed=0).passed
    assert oracle_crosscheck(2, trials=3, seed=0).passed


def test_planted_zero_division_is_not_resampled(monkeypatch):
    # A bug in a contribution formula must surface, not be retried and
    # reported as a degenerate weight tuple.
    calls = []

    def planted(*args):
        calls.append(args)
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(localization, "graph_contribution", planted)
    with pytest.raises(ZeroDivisionError, match="planted"):
        oracle_crosscheck(1, trials=3, seed=0)
    assert len(calls) == 1


def test_oracle_crosscheck_detects_mismatch(monkeypatch):
    # A pipeline that is off by one at N_1 must fail the check.
    real = mirror.quintic_invariants

    def planted(order):
        table = real(order)
        table.N[0] -= 1
        return table

    monkeypatch.setattr(mirror, "quintic_invariants", planted)
    check = oracle_crosscheck(1, trials=2, seed=0)
    assert not check.passed
    assert check.detail == "graph sum 2875 != pipeline 2874"


# The differential tests below hold the shape enumeration and the integer
# sum to the full-canonicalization, Fraction-per-factor reference.

@pytest.mark.parametrize("m, d", [(2, 3), (3, 2), (3, 3), (4, 1), (4, 2),
                                  (4, 3)])
def test_classes_match_full_canonicalization(m, d):
    graphs = enumerate_graphs(m, d)
    got = {(bott_reference.canonical(g), g.automorphisms) for g in graphs}
    want = {((g.vertices, g.edges), g.automorphisms)
            for g in bott_reference.tree_classes(m, d)}
    assert len(got) == len(graphs) == len(want)
    assert got == want


def _image(edges, p):
    return tuple(sorted((min(p[u], p[v]), max(p[u], p[v]))
                        for u, v in edges))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grown_shapes_are_the_least_pruefer_trees(n):
    # Each shape grown leaf by leaf is the least relabelling of some
    # Pruefer tree, each such least relabelling is grown, and the
    # automorphisms are the permutations fixing it.
    perms = list(permutations(range(n)))
    least = {min(_image(bott_reference.prufer_tree(code, n), p)
                 for p in perms)
             for code in product(range(n), repeat=n - 2)}
    assert localization._shapes(n) == tuple(
        (edges, tuple(p for p in perms if _image(edges, p) == edges))
        for edges in sorted(least))


def test_shapes_count_every_labelled_tree():
    # 1, 1, 1, 2, 3 and 6 unlabelled trees on 1..6 vertices, whose
    # labellings n!/|Aut T| add up to Cayley's n^(n-2).  Six vertices lie
    # beyond MAX_DEGREE + 1, where no sum reaches.
    counts = []
    for n in range(1, 7):
        shapes = localization._shapes(n)
        counts.append(len(shapes))
        assert sum(factorial(n) // len(automorphisms)
                   for _, automorphisms in shapes) == n ** (n - 2)
    assert counts == [1, 1, 1, 2, 3, 6]


# A zero weight, negative weights, and the two degenerate tuples of
# test_degenerate_tuple_raises and test_vanishing_node_weight_raises.
REFERENCE_TUPLES = [GOOD_LAMBDA, OTHER_LAMBDA,
                    (F(-7, 2), F(0), F(3, 5), F(-11, 3), F(9)),
                    (-40, F(-13, 6), 0, F(17, 4), 33),
                    (F(0), F(1), F(1, 2), F(3), F(4)),
                    (F(0), F(1), F(2), F(7), F(20))]


def _outcome(contribution, graph, lam, m, l):
    try:
        return contribution(graph, lam, m, l)
    except DegenerateLambda as exc:
        return str(exc)


# (m, l) on both signs of the (D delta) power an edge factor carries.
@pytest.mark.parametrize("m, l, d", [(4, 5, 1), (4, 5, 2), (4, 5, 3),
                                     (3, 4, 3), (3, 2, 3), (2, 5, 3)])
@pytest.mark.parametrize("lam", REFERENCE_TUPLES)
def test_contributions_match_fraction_reference(m, l, d, lam):
    for g in enumerate_graphs(m, d):
        assert (_outcome(graph_contribution, g, lam, m, l)
                == _outcome(bott_reference.graph_contribution, g, lam, m, l))


def _raised(contribution, lam):
    """Each degree-2 graph on which ``contribution`` raises: its message."""
    outcomes = {g: _outcome(contribution, g, lam, 4, 5)
                for g in enumerate_graphs(4, 2)}
    return {g: v for g, v in outcomes.items() if isinstance(v, str)}


def test_degenerate_tuples_raise_on_the_same_graphs():
    # The comparison above is not vacuous: both degenerate tuples raise.
    for lam in REFERENCE_TUPLES[4:]:
        raised = _raised(graph_contribution, lam)
        assert raised
        assert raised == _raised(bott_reference.graph_contribution, lam)


def test_valence_four_contributions_match_fraction_reference():
    # Only d = 4 has a vertex of valence 4; at (0, 1, -1, 2, -2) the flag
    # weights of a star centred at label 0 have inverse sum 0.
    stars = [g for g in enumerate_graphs(4, 4) if 4 in valences(g)]
    assert stars
    for lam in [(0, 1, 10, 100, 1000), (0, 1, -1, 2, -2)]:
        for g in stars:
            assert (_outcome(graph_contribution, g, lam, 4, 5) == _outcome(
                bott_reference.graph_contribution, g, lam, 4, 5))
    centred = next(g for g in stars if g.vertices[valences(g).index(4)] == 0)
    assert graph_contribution(centred, (0, 1, -1, 2, -2), 4, 5) == 0

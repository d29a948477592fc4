"""Fixed-point graph enumeration and Bott-residue sums."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quintic_mirror import localization
from quintic_mirror.errors import DegenerateLambda, DomainError
from quintic_mirror.localization import (DecoratedGraph, bott_sum,
                                         bott_sum_random, enumerate_graphs,
                                         graph_contribution,
                                         oracle_crosscheck)

GOOD_LAMBDA = (Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(8),
               Fraction(-1, 4))
OTHER_LAMBDA = (Fraction(0), Fraction(1), Fraction(3), Fraction(7),
                Fraction(15))


def F(p, q=1):
    return Fraction(p, q)


def test_graph_counts():
    assert len(enumerate_graphs(4, 1)) == 10
    assert len(enumerate_graphs(4, 2)) == 60
    assert len(enumerate_graphs(2, 1)) == 3


def test_graph_count_decomposition_degree_two():
    graphs = enumerate_graphs(4, 2)
    singles = [g for g in graphs if g.shape == "single_edge_d2"]
    paths = [g for g in graphs if g.shape == "two_edge_path"]
    assert len(singles) == 10
    assert len(paths) == 50
    symmetric = [g for g in paths if g.vertices[0] == g.vertices[2]]
    assert len(symmetric) == 20


def test_group_orders():
    g2 = next(g for g in enumerate_graphs(4, 2)
              if g.shape == "single_edge_d2")
    assert g2.group_order == 2
    sym = next(g for g in enumerate_graphs(4, 2)
               if g.shape == "two_edge_path"
               and g.vertices[0] == g.vertices[2])
    assert sym.group_order == 2
    asym = next(g for g in enumerate_graphs(4, 2)
                if g.shape == "two_edge_path"
                and g.vertices[0] != g.vertices[2])
    assert asym.group_order == 1


def test_unsupported_degree():
    with pytest.raises(DomainError):
        enumerate_graphs(4, 3)


def test_line_count_frozen():
    assert bott_sum(4, 5, 1, GOOD_LAMBDA) == 2875
    assert bott_sum(4, 5, 1, OTHER_LAMBDA) == 2875


def test_degree_two_invariant_frozen():
    # n_2 + n_1/8 from the published virtual counts.
    assert bott_sum(4, 5, 2, GOOD_LAMBDA) == F(4876875, 8)
    assert bott_sum(4, 5, 2, OTHER_LAMBDA) == F(4876875, 8)


def test_weight_independence_random_tuples():
    rng = random.Random(50)
    seen = set()
    for _ in range(3):
        value, _ = bott_sum_random(4, 5, 1, rng)
        seen.add(value)
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


def test_corrupted_node_factor_breaks_invariance():
    # Doubling the node normalization on path graphs leaves a
    # weight-dependent total: exactly what the cross-check must detect.
    def corrupted_sum(lam):
        total = Fraction(0)
        for g in enumerate_graphs(4, 2):
            c = graph_contribution(g, lam, 4, 5)
            if g.shape == "two_edge_path":
                c /= 5 * lam[g.vertices[1]]
            total += c
        return total

    assert corrupted_sum(GOOD_LAMBDA) != corrupted_sum(
        (F(1), F(2), F(4), F(8), F(16)))


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


def test_oracle_crosscheck_detects_mismatch():
    check = oracle_crosscheck(1, trials=2, seed=0,
                              pipeline_value=Fraction(2874))
    assert not check.passed

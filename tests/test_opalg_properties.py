"""Randomized property suites for the operator algebra (exact equality)."""

import random

import pytest

from rgupzeeman.opalg import (
    COVARIANT_MAP,
    MINKOWSKI,
    commutator,
    deformed_ops,
    euclidean,
    normal_product,
)

from algebra_oracle import (
    brute_normal_order,
    monomial,
    poly_to_brute_form,
    random_poly,
    random_word,
)

E3 = euclidean(3)
N_INSTANCES = 120


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_product_matches_brute_force_swaps(metric):
    rng = random.Random(20240811)
    for _ in range(N_INSTANCES):
        word_a = random_word(rng, metric, 4)
        word_b = random_word(rng, metric, 4)
        a = monomial(metric,
                     sorted(i for s, i in word_a if s == "x"),
                     sorted(i for s, i in word_a if s == "p"))
        b = monomial(metric,
                     sorted(i for s, i in word_b if s == "x"),
                     sorted(i for s, i in word_b if s == "p"))
        # the oracle normal-orders each factor and their concatenation itself
        normal_a = [("x", i) for i in sorted(i for s, i in word_a if s == "x")] + \
                   [("p", i) for i in sorted(i for s, i in word_a if s == "p")]
        normal_b = [("x", i) for i in sorted(i for s, i in word_b if s == "x")] + \
                   [("p", i) for i in sorted(i for s, i in word_b if s == "p")]
        want = brute_normal_order(normal_a + normal_b, metric)
        got = poly_to_brute_form(normal_product(a, b))
        assert got == want


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_commutator_antisymmetry(metric):
    rng = random.Random(42)
    for _ in range(N_INSTANCES):
        a = random_poly(rng, metric, 3)
        b = random_poly(rng, metric, 3)
        assert (commutator(a, b) + commutator(b, a)).is_zero()


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_jacobi_identity(metric):
    rng = random.Random(43)
    for _ in range(N_INSTANCES):
        a = random_poly(rng, metric, 3)
        b = random_poly(rng, metric, 3)
        c = random_poly(rng, metric, 3)
        total = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        assert total.is_zero()


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_product_associativity(metric):
    rng = random.Random(44)
    for _ in range(N_INSTANCES):
        a = random_poly(rng, metric, 4)
        b = random_poly(rng, metric, 4)
        c = random_poly(rng, metric, 4)
        assert normal_product(normal_product(a, b), c) == \
            normal_product(a, normal_product(b, c))


def test_deformed_rel_momenta_commute_exactly():
    _, ps = deformed_ops(MINKOWSKI, **COVARIANT_MAP)
    for i, pmu in enumerate(ps):
        for pnu in ps[i:]:
            assert commutator(pmu, pnu).is_zero()


def test_commutator_bilinearity():
    rng = random.Random(45)
    for _ in range(40):
        a = random_poly(rng, E3, 3)
        b = random_poly(rng, E3, 3)
        c = random_poly(rng, E3, 3)
        assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)

import math
import random
from fractions import Fraction

import pytest

from heckelab.cyclotomic import (
    AbelianSubfield,
    CyclotomicElement,
    degree_over,
    gaussian_field,
    lemma1_mu_search,
    quadratic_subfield,
    ramanujan_trace,
    ramanujan_trace_direct,
    rationals,
    trace_to_subfield,
    _order_trace_vanishes,
)
from heckelab.errors import SubfieldMismatch

zeta = CyclotomicElement.zeta


def rand_cyc(N, rng, terms=4):
    return CyclotomicElement(
        N, {rng.randrange(N): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(terms)}
    )


def test_basic_identities():
    assert zeta(4) * zeta(4) == -1
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(12) * zeta(12, 5) == -1
    assert zeta(8) * zeta(8, 7) == 1
    assert zeta(6, 2) == zeta(3)  # equality across conductors
    assert zeta(2) == -1


def test_canonicalization_unique_and_idempotent():
    rng = random.Random(30)
    for N in [1, 2, 5, 8, 12, 30, 36, 100]:
        for _ in range(10):
            x = rand_cyc(N, rng)
            again = CyclotomicElement(N, x.coeffs)
            assert again.coeffs == x.coeffs
            assert (x - x).is_zero()
            # canonical indices stay inside the tensor basis bound
            for i in x.coeffs:
                assert 0 <= i < N


def test_ring_axioms_and_embedding_agreement():
    rng = random.Random(31)
    for _ in range(40):
        N = rng.choice([3, 4, 5, 12, 15, 36])
        x, y, z = (rand_cyc(N, rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert abs((x * y).complex() - x.complex() * y.complex()) < 1e-9
        assert abs((x + y).complex() - (x.complex() + y.complex())) < 1e-9


def test_conjugation_and_galois():
    rng = random.Random(32)
    for _ in range(30):
        N = rng.choice([5, 8, 12, 21])
        x = rand_cyc(N, rng)
        assert abs(x.conjugate().complex() - x.complex().conjugate()) < 1e-9
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        a, b = rng.choice(units), rng.choice(units)
        assert x.galois(a).galois(b) == x.galois(a * b % N)
    with pytest.raises(ValueError):
        zeta(6).galois(3)
    with pytest.raises(ValueError):
        zeta(4).embed(6)


def test_trace_examples():
    # Tr to Q of a primitive N-th root is the Moebius function
    assert trace_to_subfield(zeta(12), rationals()) == 0
    assert trace_to_subfield(zeta(5), rationals()) == -1
    assert trace_to_subfield(zeta(4, 2), rationals()) == -2
    # scalars pick up the extension degree
    F = gaussian_field()
    x = CyclotomicElement.from_rational(Fraction(3, 2), 12)
    assert trace_to_subfield(x, rationals()) == Fraction(3, 2) * 4
    x4 = CyclotomicElement.from_rational(7, 4)
    assert trace_to_subfield(x4, F) == 7 * degree_over(4, F)


def test_trace_lands_in_fixed_field():
    rng = random.Random(33)
    for _ in range(20):
        N = rng.choice([8, 12, 20])
        F = rng.choice([rationals(), gaussian_field(), quadratic_subfield(-4), quadratic_subfield(-3)])
        x = rand_cyc(N, rng)
        t = trace_to_subfield(x, F)
        for a in F.galois_group_in(t.N):
            assert t.galois(a) == t


def _subgroup(N, gens):
    H = {1 % N}
    frontier = [1 % N]
    while frontier:
        h = frontier.pop()
        for g in gens:
            x = h * g % N
            if x not in H:
                H.add(x)
                frontier.append(x)
    return tuple(sorted(H))


def test_trace_tower_transitivity():
    # Tr_{Q(zN)/Q} o (embedding) = degree * Tr_{F/Q} o Tr_{Q(zN)/F}
    rng = random.Random(34)
    count = 0
    while count < 100:
        N = rng.choice([5, 8, 12, 15, 16, 20, 21, 24])
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        F = AbelianSubfield(N, _subgroup(N, [rng.choice(units) for _ in range(2)]))
        x = rand_cyc(N, rng)
        t1 = trace_to_subfield(x, F)
        lhs = trace_to_subfield(t1, rationals())
        rhs = degree_over(N, F) * trace_to_subfield(x, rationals())
        assert lhs == rhs
        count += 1


def test_subfield_validation():
    with pytest.raises(SubfieldMismatch):
        AbelianSubfield(8, (1, 3, 5))  # not closed: 3*5 = 7 missing
    with pytest.raises(SubfieldMismatch):
        AbelianSubfield(4, (1, 2))  # 2 not a unit
    with pytest.raises(SubfieldMismatch):
        AbelianSubfield(5, (2, 3))  # missing identity
    assert quadratic_subfield(-4).degree == 2
    assert quadratic_subfield(-3).degree == 2
    assert quadratic_subfield(-23).degree == 2
    assert gaussian_field().H == quadratic_subfield(-4).H


def test_ramanujan_examples():
    assert ramanujan_trace(12, 1) == 0
    assert ramanujan_trace(4, 2) == -2
    assert ramanujan_trace(1, 17) == 1
    assert ramanujan_trace(9, 3) == -3
    assert ramanujan_trace(5, 0) == 4


def test_ramanujan_two_routes_agree():
    for n in range(1, 201):
        for k in range(n):
            assert ramanujan_trace(n, k) == ramanujan_trace_direct(n, k), (n, k)


def test_trace_route_matches_ramanujan():
    for n in range(1, 41):
        for k in range(n):
            t = trace_to_subfield(zeta(n, k), rationals())
            assert t == ramanujan_trace(n, k)


def test_lemma1_search():
    assert lemma1_mu_search(rationals(), 3, 500) == 2
    assert lemma1_mu_search(rationals(), 5, 300) == 2
    assert _order_trace_vanishes(rationals(), 25)
    # over Q(i) the order-4 root i is fixed, so mu_2 must exceed 2
    F = gaussian_field()
    assert not _order_trace_vanishes(F, 4)
    assert lemma1_mu_search(F, 2, 600) == 3


def test_quadratic_subfield_vanishing_odd_squares():
    # p odd, p^2 | N forces vanishing over quadratic fields (here to N <= 600)
    for D in (-4, -3):
        F = quadratic_subfield(D)
        for p in (3, 5, 7):
            for N in range(p * p, 601, p * p):
                assert _order_trace_vanishes(F, N), (D, p, N)

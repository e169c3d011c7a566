import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckelab.arith import (
    abelian_group_structure,
    cyclic_generator,
    cyclic_group_structure,
    euler_phi,
    exponent_pairing,
    factorize,
    is_prime,
    kronecker,
    moebius,
    sqrt_mod_prime,
    v_p,
    xgcd,
)
from heckelab.errors import GroupStructureMismatch, HeckeLabError


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_kronecker_small_table():
    # (-4 | n) is the nontrivial character mod 4, (-3 | n) the one mod 3
    assert [kronecker(-4, n) for n in range(1, 10)] == [1, 0, -1, 0, 1, 0, -1, 0, 1]
    assert [kronecker(-3, n) for n in range(1, 8)] == [1, -1, 0, 1, -1, 0, 1]
    assert kronecker(-20, 3) == 1 and kronecker(-20, 7) == 1 and kronecker(-20, 11) == -1
    assert kronecker(5, 2) == -1 and kronecker(17, 2) == 1
    assert kronecker(-4, -1) == -1 and kronecker(5, -1) == 1


def test_kronecker_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        D = rng.choice([-3, -4, -7, -8, -20, -23, -47])
        m, n = rng.randint(1, 400), rng.randint(1, 400)
        assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)


def test_kronecker_periodic_in_modulus():
    for D in (-3, -4, -7, -8, -20, -23, -47, -84):
        for n in range(1, 3 * abs(D)):
            assert kronecker(D, n) == kronecker(D, n + abs(D))


def test_sqrt_mod_prime():
    rng = random.Random(4)
    for p in [3, 5, 7, 13, 17, 101, 997, 10007]:
        for _ in range(20):
            x = rng.randint(1, p - 1)
            a = x * x % p
            r = sqrt_mod_prime(a, p)
            assert r * r % p == a


def test_factorize_and_friends():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert is_prime(2) and is_prime(10007) and not is_prime(10005)
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert euler_phi(1) == 1 and euler_phi(100) == 40
    assert v_p(48, 2) == 4 and v_p(48, 5) == 0


def _index_group(ns):
    """Z/n_1 x ... x Z/n_k on the indices 0..prod(ns)-1: index i has digits
    (i // s_j) mod n_j with strides s_j = n_1 ... n_(j-1), added digitwise."""
    strides = [math.prod(ns[:j]) for j in range(len(ns))]

    def mul(u, v):
        out = 0
        for s, n in zip(strides, ns):
            out = out + (u // s % n + v // s % n) % n * s
        return out

    return math.prod(ns), mul


def _power(g, e, mul):
    acc = 0
    for _ in range(e):
        acc = mul(acc, g)
    return acc


@pytest.mark.parametrize("ns", [(1,), (5,), (2, 2), (2, 4), (6,), (2, 3, 4), (8, 2)])
def test_abelian_group_structure(ns):
    n, mul = _index_group(ns)
    gens, orders, vecs = abelian_group_structure(range(n), mul, 0)
    assert math.prod(orders) == n or (not orders and n == 1)
    # invariant factors of the input group, for comparison via multiset of
    # p-power orders
    def p_parts(ms):
        out = []
        for m in ms:
            out.extend(p**e for p, e in factorize(m))
        return sorted(out)

    assert p_parts(orders) == p_parts(ns)
    assert vecs.shape == (n, len(orders))
    # vecs actually inverts the generator presentation
    for elt in range(n):
        acc = 0
        for g, e in zip(gens, vecs[elt].tolist()):
            acc = mul(acc, _power(g, e, mul))
        assert acc == elt
    # orders are genuine
    for g, o in zip(gens, orders):
        acc = 0
        for k in range(1, o):
            acc = mul(acc, g)
            assert acc != 0
        assert mul(acc, g) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4).filter(
    lambda ns: math.prod(ns) <= 400
))
def test_abelian_group_structure_random_products(ns):
    n, mul = _index_group(ns)
    gens, orders, vecs = abelian_group_structure(range(n), mul, 0)
    assert math.prod(orders) == n
    assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
    assert vecs.shape == (n, len(orders))
    for elt, vec in enumerate(vecs.tolist()):
        acc = 0
        for g, e, d in zip(gens, vec, orders):
            assert 0 <= e < d
            acc = mul(acc, _power(g, e, mul))
        assert acc == elt


def test_abelian_group_structure_large_cyclic():
    # Z/2048: one generator, whose order is found by repeated squaring
    n = 2048
    gens, orders, vecs = abelian_group_structure(list(range(n)), lambda u, v: (u + v) % n, 0)
    assert (gens, orders) == ([1], [n])
    assert vecs.tolist() == [[x] for x in range(n)]


def test_abelian_group_structure_rejects_unclosed_elements():
    # 0..3 under addition mod 8: the basis found spans 8 elements, not the 4 listed
    with pytest.raises(ValueError):
        abelian_group_structure([0, 1, 2, 3], lambda u, v: (u + v) % 8, 0)


def test_abelian_group_structure_certificate():
    # every failure is the library's GroupStructureMismatch, which is a ValueError
    cases = [
        # a product past the listed indices, and one below them
        ([0, 1, 2, 3], lambda u, v: (u + v) % 5),
        ([0, 1, 2, 3], lambda u, v: np.where((u + v) % 4 == 3, -1, (u + v) % 4)),
        # closed on 0..3, but the basis it yields spans only {0, 1}
        ([0, 1, 2, 3], lambda u, v: (u + v) % 2),
    ]
    for keys, mul in cases:
        with pytest.raises(GroupStructureMismatch):
            abelian_group_structure(keys, mul, 0)
    # an identity that is none of the elements
    with pytest.raises(GroupStructureMismatch):
        abelian_group_structure([0, 1, 2, 3], lambda u, v: (u + v) % 4, 4)
    assert issubclass(GroupStructureMismatch, HeckeLabError) and issubclass(GroupStructureMismatch, ValueError)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 16, 30, 97, 360])
def test_cyclic_group_structure_matches_abelian_group_structure(n):
    # Z/n under addition with shuffled keys: every generator's powers give
    # the basis and table that the general route finds
    keys = random.Random(n).sample(range(10 * n), n)
    gens, orders, vecs = abelian_group_structure(keys, lambda u, v: (u + v) % n, 0)
    for g in [g for g in range(n) if math.gcd(g, n) == 1][:6]:
        got = cyclic_group_structure(keys, [k * g % n for k in range(n)])
        assert (got[0], got[1]) == (gens, orders) and np.array_equal(got[2], vecs), (n, g)


def test_cyclic_group_structure_certificate():
    keys = [3, 1, 4, 0, 2]
    for powers in (
        [0, 2, 4, 1, 1],  # one element twice, another never
        [0, 2, 4, 1],  # too few powers
        [0, 2, 4, 1, 5],  # past the listed indices
        [0, 2, 4, 1, -2],  # below them
    ):
        with pytest.raises(GroupStructureMismatch):
            cyclic_group_structure(keys, powers)
    gens, orders, vecs = cyclic_group_structure(keys, [0, 2, 4, 1, 3])
    # the least key among the elements of order 5 is that of g^4 = 3, and
    # g^k = 3^(4^-1 k) = 3^(4k) mod 5
    assert (gens, orders, vecs[:, 0].tolist()) == ([3], [5], [0, 2, 4, 1, 3])


def test_cyclic_generator():
    add = lambda n: lambda u, v: (u + v) % n  # noqa: E731
    for n in (1, 2, 12, 360, 1024):
        g = cyclic_generator(range(n), add(n), 0, n)
        assert math.gcd(g, n) == 1, n
    # Z/12 from the candidates 4 and 6 alone: 4 has the 3-part, 6 the 2-part
    # only up to order 2, so none holds the 2-part of order 4; 9 does, and
    # the generator is 4^(12/3) 9^(12/4)
    assert cyclic_generator([4, 6], add(12), 0, 12) is None
    assert cyclic_generator([4, 6, 9], add(12), 0, 12) == (4 * 4 + 9 * 3) % 12
    # the candidates are read only until every prime has its part: here 1
    # holds both, and the generator is 1^3 1^4
    candidates = iter(range(1, 100))
    assert cyclic_generator(candidates, add(12), 0, 12) == 7
    assert next(candidates) == 2
    # Z/2 x Z/4 as pairs: no element of order 8, so not cyclic
    pairs = [(a, b) for a in range(2) for b in range(4)]
    mul = lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 4)  # noqa: E731
    assert cyclic_generator(pairs, mul, (0, 0), 8) is None


def _pairing_loop(vectors, weights, modulus):
    """exponent_pairing one vector and one character at a time."""
    return [[sum(v * w for v, w in zip(row, char)) % modulus for char in weights] for row in vectors]


# exponent vectors with entries in range(h_i) and characters of such a group:
# ranks 0 to 3, and the invariants (2, 6) and (2, 12) of the non-cyclic
# ring class groups of discriminants -1472 and -16900
_ORDERS = st.one_of(
    st.lists(st.integers(min_value=1, max_value=30), max_size=3),
    st.sampled_from([[2, 6], [2, 12]]),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exponent_pairing_matches_a_loop(data):
    orders = data.draw(_ORDERS)
    rank, modulus = len(orders), data.draw(st.integers(min_value=1, max_value=60))

    def rows(size):
        row = st.tuples(*(st.integers(min_value=-h, max_value=2 * h) for h in orders))
        return data.draw(st.lists(row, min_size=size[0], max_size=size[1]))

    vectors, weights = rows((0, 8)), rows((1, 4))
    want = _pairing_loop(vectors, weights, modulus)
    ints = np.array(vectors, dtype=np.int64).reshape(len(vectors), rank)
    chars = np.array(weights, dtype=np.int64).reshape(len(weights), rank)
    for v in (ints, ints.astype(float)):
        got = exponent_pairing(v, chars, modulus)
        assert got.dtype == v.dtype and got.shape == (len(vectors), len(weights))
        assert got.tolist() == want
        # a 1-d weights is one character: one exponent per vector
        assert exponent_pairing(v, weights[0], modulus).tolist() == [k for k, *_ in want]


def test_exponent_pairing_keeps_a_fraction_of_a_float_vector():
    # a read that is no integer vector pairs to no integer, which its caller
    # certifies; the integer path would have truncated it
    assert exponent_pairing(np.array([[0.5, 1.0]]), (1, 2), 4).tolist() == [2.5]
    assert exponent_pairing(np.array([[0.5, 1.0]]), [(1, 2), (2, 0)], 4).tolist() == [[2.5, 1.0]]
    assert exponent_pairing(np.zeros((3, 0)), (), 5).tolist() == [0.0, 0.0, 0.0]

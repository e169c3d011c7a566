"""Ramanujan sums and the Lemma 1 trace oracle.

Lemma 1 asks for mu_p such that p^mu | N forces Tr_{F(xi)/F}(xi) = 0 for
every root of unity xi of order N.  The oracle below decides each trace from
a float sum: the trace from Q(zeta_L) down to F is an algebraic integer of F,
and for F = Q or an imaginary quadratic field a nonzero element z of O_F has
|z|^2 = N(z) >= 1, so a float sum with |z| < 1/2 certifies an exact zero.
The trace from Q(zeta_L) is [Q(zeta_L) : F(xi)] times the trace from F(xi),
so the two vanish together.

An abelian field F is given as (N_F, H): its conductor and the subgroup H of
(Z/N_F)^x whose automorphisms zeta -> zeta^a fix it.
"""

import math
import random

import numpy as np

from heckelab.arith import euler_phi, kronecker, moebius, ramanujan_trace

RATIONALS = (1, (0,))


def quadratic_subfield(D):
    """Q(sqrt(D)) inside Q(zeta_|D|), as the kernel of (D | .)."""
    N = abs(D)
    return N, tuple(a for a in range(1, N + 1) if kronecker(D, a) == 1)


GAUSSIAN = quadratic_subfield(-4)


def galois_group_in(F, L):
    """Residues a mod L, as an array, with zeta_L -> zeta_L^a fixing F: Gal(Q(zeta_L)/F)."""
    NF, H = F
    a = np.arange(1, L + 1)
    return a[(np.gcd(a, L) == 1) & np.isin(a % NF, H)]


def trace_down(F, N, k):
    """Tr from Q(zeta_L) to F of zeta_N^k, L = lcm(N, N_F), summed in floating point."""
    L = math.lcm(N, F[0])
    j = (L // N) * k * galois_group_in(F, L) % L
    return complex(np.exp(2j * np.pi * j / L).sum())


def _order_trace_vanishes(F, N):
    """Tr_{F(xi)/F}(xi) = 0 for every root of unity xi of order N, certified exactly."""
    # the trace of zeta_N^a depends only on the coset of a mod the image of Gal(Q(zeta_L)/F)
    Hbar = set((galois_group_in(F, math.lcm(N, F[0])) % N).tolist())
    visited = set()
    for a in range(1, N + 1):
        if math.gcd(a, N) != 1 or a in visited:
            continue
        visited.update(a * h % N for h in Hbar)
        if abs(trace_down(F, N, a)) >= 0.5:
            return False
    return True


def lemma1_mu_search(F, p, N_max):
    """Smallest mu with no counterexample in range: p^mu | N <= N_max forces
    Tr_{F(xi)/F}(xi) = 0 for xi of order N."""
    worst = 0
    for N in range(p, N_max + 1, p):
        if not _order_trace_vanishes(F, N):
            v, M = 0, N
            while M % p == 0:
                v, M = v + 1, M // p
            worst = max(worst, v)
    return worst + 1


def test_ramanujan_examples():
    assert ramanujan_trace(12, 1) == 0
    assert ramanujan_trace(4, 2) == -2
    assert ramanujan_trace(1, 17) == 1
    assert ramanujan_trace(9, 3) == -3
    assert ramanujan_trace(5, 0) == 4


def test_ramanujan_two_routes_agree():
    # Kluyver's formula c_n(k) = sum over d | gcd(n, k) of mu(n/d) d
    for n in range(1, 201):
        for k in range(n):
            g = math.gcd(n, k)
            kluyver = sum(moebius(n // d) * d for d in range(1, g + 1) if g % d == 0)
            assert ramanujan_trace(n, k) == kluyver, (n, k)


def test_trace_examples():
    # Tr to Q of a primitive N-th root is the Moebius function
    assert abs(trace_down(RATIONALS, 12, 1)) < 1e-12
    assert abs(trace_down(RATIONALS, 5, 1) + 1) < 1e-12
    assert abs(trace_down(RATIONALS, 4, 2) + 2) < 1e-12
    # down to Q(i): zeta_8 + zeta_8^5 = 0, zeta_12 + zeta_12^5 = i, and i is fixed
    assert abs(trace_down(GAUSSIAN, 8, 1)) < 1e-12
    assert abs(trace_down(GAUSSIAN, 12, 1) - 1j) < 1e-12
    assert abs(trace_down(GAUSSIAN, 4, 1) - 1j) < 1e-12
    # down to Q(sqrt(-3)) inside Q(zeta_12): i + i^7 = 0
    assert abs(trace_down(quadratic_subfield(-3), 4, 1)) < 1e-12


def test_trace_lands_in_fixed_field():
    # the premise of the |z| < 1/2 certificate: every trace is x + y omega, x, y integers
    rng = random.Random(33)
    for _ in range(60):
        N = rng.choice([8, 12, 20, 24, 45, 92])
        k = rng.randrange(N)
        D = rng.choice([-4, -3, -23])
        z = trace_down(RATIONALS, N, k)
        assert abs(z.imag) < 1e-9 and abs(z.real - round(z.real)) < 1e-9
        z = trace_down(quadratic_subfield(D), N, k)
        y = 2 * z.imag / math.sqrt(-D)
        x = z.real - y * D / 2
        assert abs(y - round(y)) < 1e-9 and abs(x - round(x)) < 1e-9, (N, k, D)


def test_trace_tower_transitivity():
    # complex conjugation is the other coset of Gal(L/F) in Gal(L/Q) for F
    # imaginary quadratic, so Tr_{L/Q} = 2 Re Tr_{L/F} = [L : Q(zeta_N)] c_N(k)
    rng = random.Random(34)
    for _ in range(100):
        N = rng.choice([5, 8, 12, 15, 16, 20, 21, 24])
        k = rng.randrange(N)
        F = quadratic_subfield(rng.choice([-4, -3, -7, -8]))
        L = math.lcm(N, F[0])
        want = euler_phi(L) // euler_phi(N) * ramanujan_trace(N, k)
        assert abs(2 * trace_down(F, N, k).real - want) < 1e-9, (N, k, F[0])


def test_trace_route_matches_ramanujan():
    for n in range(1, 41):
        for k in range(n):
            assert abs(trace_down(RATIONALS, n, k) - ramanujan_trace(n, k)) < 1e-9


def test_lemma1_search():
    assert lemma1_mu_search(RATIONALS, 3, 500) == 2
    assert lemma1_mu_search(RATIONALS, 5, 300) == 2
    assert _order_trace_vanishes(RATIONALS, 25)
    # over Q(i) the order-4 root i is fixed, so mu_2 must exceed 2
    assert not _order_trace_vanishes(GAUSSIAN, 4)
    assert lemma1_mu_search(GAUSSIAN, 2, 600) == 3


def test_quadratic_subfield_vanishing_odd_squares():
    # p odd, p^2 | N forces vanishing over quadratic fields (here to N <= 600)
    for D in (-4, -3):
        F = quadratic_subfield(D)
        for p in (3, 5, 7):
            for N in range(p * p, 601, p * p):
                assert _order_trace_vanishes(F, N), (D, p, N)

"""Rational-integer utilities shared across the package.

All routines are exact integer arithmetic at desk scale; factorization is
trial division, which is plenty for the conductors and norms we touch.
The one exception, multiplicative_table, sieves a multiplicative function
into a numpy array of the caller's dtype.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Smallest non-negative x with a*x = b (mod m), plus the solution spacing.

    Returns (x0, m//g); raises ValueError when g = gcd(a, m) does not divide b.
    """
    g, inv, _ = xgcd(a, m)
    if b % g:
        raise ValueError(f"{a}*x = {b} (mod {m}) has no solution")
    mg = m // g
    x0 = ((b // g) * inv) % mg
    return x0, mg


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        sign = -1 if a < 0 else 1
        return sign * kronecker(a, -n)
    # strip factors of 2 from n
    t = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    a %= n
    # Jacobi loop on odd n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo prime p (Tonelli-Shanks). Raises if none."""
    a %= p
    if p == 2 or a == 0:
        return a % p
    if kronecker(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of |n| as a tuple of (p, exponent), ascending."""
    n = abs(n)
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n:
        for step in (d, d + 2):
            e = 0
            while n % step == 0:
                n //= step
                e += 1
            if e:
                out.append((step, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    fac = factorize(n)
    return len(fac) == 1 and fac[0][1] == 1


def moebius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def ramanujan_trace(n: int, k: int) -> int:
    """c_n(k) = sum of zeta_n^(k m) over units m mod n, via the closed form
    mu(m) phi(n) / phi(m) with m = n / gcd(k, n)."""
    if n == 1:
        return 1
    g = math.gcd(k % n, n)
    m = n // g
    mu = moebius(m)
    if mu == 0:
        return 0
    return mu * euler_phi(n) // euler_phi(m)


def primes_up_to(x: int) -> list[int]:
    """Primes <= x by sieve."""
    if x < 2:
        return []
    sieve = bytearray([1]) * (x + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(math.isqrt(x)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def multiplicative_table(bound: int, local, dtype) -> np.ndarray:
    """f(0), f(1), ..., f(bound) of a multiplicative f, with f(0) = 0.

    local(p, emax) lists f(1), f(p), ..., f(p^emax) for the largest emax
    with p^emax <= bound; it is called once per prime p <= bound.  Each
    prime scales its multiples in place, so the sieve costs
    O(bound log log bound) array updates.
    """
    out = np.ones(bound + 1, dtype=dtype)
    out[0] = 0
    for p in primes_up_to(bound):
        emax, q = 1, p
        while q * p <= bound:
            emax, q = emax + 1, q * p
        values = local(p, emax)
        if emax == 1:
            out[p::p] *= values[1]
            continue
        # factor for k*p is f(p^e) with e = v_p(k*p): the multiples of p^e
        # sit at indices p^(e-1) - 1, stepping by p^(e-1)
        factors = np.full(bound // p, values[1], dtype=dtype)
        step = p
        for e in range(2, emax + 1):
            factors[step - 1 :: step] = values[e]
            step *= p
        out[p::p] *= factors
    return out


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Structure of a finite abelian group given by an explicit element list.
#
# Strategy: split into Sylow subgroups, then run the greedy basis algorithm
# inside each p-group (pick an element of maximal order in the quotient,
# correct it to have trivial relation, repeat).  In a p-group the correction
# exponents are always divisible as needed, so every generator ends up with
# the clean relation g^order = identity and the group is the direct product
# of the cyclic pieces.  Every discrete-log table is enumerated from a basis.
# ---------------------------------------------------------------------------


def _adjoin(dlog, g, m, mul):
    """Exponent vectors of the subgroup spanned by dlog's keys and g.

    g must have order m modulo the subgroup H that dlog maps to exponent
    vectors; h * g^j (h in H, 0 <= j < m) gets the vector dlog[h] + (j,).
    """
    out = {elt: vec + (0,) for elt, vec in dlog.items()}
    y = g
    for j in range(1, m):
        for elt, vec in dlog.items():
            out[mul(elt, y)] = vec + (j,)
        y = mul(y, g)
    return out


def _p_group_basis(elements, mul, identity, p):
    """Basis of an abelian p-group: returns (gens, orders)."""
    gens: list = []
    orders: list[int] = []
    dlog = {identity: ()}
    size = len(elements)
    while len(dlog) < size:
        # element of maximal order in the quotient by the current subgroup;
        # that order is a power of p, found by repeated p-th powers
        best, best_m = None, 0
        for x in elements:
            m, y = 1, x
            while y not in dlog:
                m, y = m * p, _pow(y, p, mul, identity)
            if m > best_m:
                best, best_m = x, m
        x, m = best, best_m
        # x^m lands in the subgroup; divide out its dlog to get a clean generator
        g_new = x
        for g, o, e in zip(gens, orders, dlog[_pow(x, m, mul, identity)]):
            if e % m:
                raise RuntimeError("p-group basis correction failed")
            # multiply by g^(o - e/m) to cancel the relation
            g_new = mul(g_new, _pow(g, (-(e // m)) % o, mul, identity))
        gens.append(g_new)
        orders.append(m)
        dlog = _adjoin(dlog, g_new, m, mul)
    return gens, orders


def abelian_group_structure(elements, mul, identity):
    """Generators, orders and discrete logs of a finite abelian group.

    elements must be the full (hashable) element list.  Returns
    (gens, orders, dlog) in invariant-factor form (orders d_1 | ... | d_k,
    prod(orders) == len(elements)) with dlog[x] the exponent vector of x
    in the chosen generators, each entry in range(d_i).

    dlog is enumerated from the basis, as the products of g_i^e_i over
    0 <= e_i < d_i.  That enumeration is the certificate: ValueError is
    raised unless it reaches exactly the listed elements.
    """
    n = len(elements)
    if n == 1:
        return [], [], {identity: ()}
    elt_set = set(elements)
    if len(elt_set) != n:
        raise ValueError("duplicate elements")
    sylow = []
    for p, a in factorize(n):
        q = p**a
        syl = set()
        for x in elements:
            syl.add(_pow(x, n // q, mul, identity))
            if len(syl) == q:
                break
        sgens, sorders = _p_group_basis(sorted(syl, key=_sort_key), mul, identity, p)
        sylow.append(sorted(zip(sgens, sorders), key=lambda go: -go[1]))
    # merge the Sylow bases slotwise into invariant factors d_1 | ... | d_k
    depth = max(len(s) for s in sylow)
    gens, orders = [], []
    for k in range(depth):
        g, d = identity, 1
        for basis in sylow:
            if k < len(basis):
                g = mul(g, basis[k][0])
                d *= basis[k][1]
        gens.append(g)
        orders.append(d)
    gens.reverse()
    orders.reverse()
    dlog = {identity: ()}
    for g, d in zip(gens, orders):
        dlog = _adjoin(dlog, g, d, mul)
    if dlog.keys() != elt_set:
        raise ValueError("the basis does not span exactly the listed elements")
    return gens, orders, dlog


def _pow(x, k, mul, identity):
    """x^k by binary powering, with no multiplication by the identity or spare squaring."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return identity if out is None else out


def _sort_key(x):
    # deterministic ordering for heterogeneous hashables used as group elements
    return repr(x)

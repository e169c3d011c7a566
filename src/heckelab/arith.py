"""Rational-integer utilities shared across the package.

All routines are exact integer arithmetic at desk scale; factorization is
trial division, which is plenty for the conductors and norms we touch.
The exception works on numpy arrays: abelian_group_structure and
cyclic_group_structure take a group on element indices.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import GroupStructureMismatch


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
# Structure of a finite abelian group on the element indices 0..n-1.
#
# mul multiplies whole int64 index arrays at once, and a map of the group to
# itself held as an index array over all n elements, such as the squaring
# map x -> x^2 or a translation x -> g x, is applied or composed by a
# gather, so the algorithm below makes few calls of mul.  Strategy: split
# into Sylow subgroups (the elements with x^q = 1 for each prime power
# q || n), then run the greedy basis algorithm inside each p-group: of the
# candidates of maximal order in the quotient by the subgroup found so far
# (read off the chain x, x^p, x^(p^2), ... of every candidate at once) take
# the one with the least key, correct it to have trivial relation, repeat.
# In a p-group the correction exponents are always divisible as needed, so
# every generator ends up with the clean relation g^order = identity and the
# group is the direct product of the cyclic pieces.  A subgroup spanned by
# g_1, ..., g_k of orders d_1, ..., d_k is held as the index array of its
# enumeration: row e_1 + d_1 (e_2 + d_2 (e_3 + ...)) holds g_1^e_1 ... g_k^e_k,
# so an exponent vector and its row are one mixed-radix conversion apart,
# and every table is enumerated from a basis.
#
# A cyclic group needs none of this.  Given the powers g^k of one generator
# (found by cyclic_generator), the elements of largest order in its Sylow
# p-part (p^a || n) are the g^(k n/p^a) with p not dividing k.  The greedy
# step takes the least-key one of them, needs no correction and stops, and
# the merge multiplies the picks into one generator, so
# cyclic_group_structure returns the basis and table that
# abelian_group_structure would, from the keys of n powers.  The package
# takes that route for (O/P)^x = F_q^x and for class groups found cyclic,
# and this one for the rest: prime powers P^a with a >= 2 and non-cyclic
# class groups.
# ---------------------------------------------------------------------------


class _IndexGroup:
    """A finite abelian group on the indices 0..n-1, multiplied by mul."""

    def __init__(self, n: int, mul, identity: int):
        self.n, self._mul, self.identity = n, mul, identity
        self.everything = np.arange(n, dtype=np.int64)

    @cached_property
    def square(self) -> np.ndarray:
        """The squaring map x -> x^2 over all n elements, built on first use."""
        return self.mul(self.everything, self.everything)

    def mul(self, u, v) -> np.ndarray:
        """The products of two index arrays; raises once one leaves 0..n-1."""
        w = np.asarray(self._mul(u, v), dtype=np.int64)
        # a negative index reads as a huge unsigned one
        if w.size and np.maximum.reduce(w.view(np.uint64), axis=None) >= self.n:
            raise GroupStructureMismatch(f"a product leaves the elements 0..{self.n - 1}")
        return w

    def power(self, x: np.ndarray, k: int) -> np.ndarray:
        """x^k elementwise for k >= 1 by binary powering; the squarings are
        gathers from the squaring map, so only the set bits of k call mul."""
        out = None
        while True:
            if k & 1:
                out = x if out is None else self.mul(out, x)
            k >>= 1
            if not k:
                return out
            x = self.square[x]

    def span(self, sub: np.ndarray, g: int, m: int) -> np.ndarray:
        """The enumeration of H<g> from the enumeration sub of H, for g of
        order m >= 2 modulo H: row j |H| + r holds g^j sub[r].

        The translations x -> g^j x come by doubling, composing the one for
        g^j with itself, and each doubles the rows enumerated so far.
        """
        shift = self.mul(self.everything, np.array([g]))  # x -> g^j x, j = len(rows) / |H|
        rows, total = sub, m * len(sub)
        while True:
            rows = np.concatenate((rows, shift[rows]))
            if len(rows) >= total:
                return rows[:total]
            shift = shift[shift]

    def p_basis(self, chain: np.ndarray, keys: np.ndarray, p: int, a: int) -> tuple[list, list]:
        """Basis (gens, orders) of the Sylow p-subgroup of order p^a.

        chain[t] = x^(p^t) for t = 0..a, one column per element x of the
        subgroup, and keys ranks the columns as candidates.
        """
        gens: list[int] = []
        orders: list[int] = []
        sub = np.array([self.identity])
        row = np.full(self.n, -1, dtype=np.int64)  # row in sub, -1 outside the subgroup
        row[self.identity] = 0
        size = 1
        while size < p**a:
            # x's order in the quotient by the subgroup is p^t, t the number
            # of x^(p^j) outside it (once inside, the powers stay inside);
            # take the candidate of largest order whose key is least
            t = (row[chain] < 0).sum(axis=0)
            top = np.flatnonzero(t == t.max())
            i = int(top[keys[top].argmin()])
            x, mx, r = int(chain[0, i]), p ** int(t[i]), int(row[chain[t[i], i]])
            # x^mx = sub[r]; divide out its exponents to get a clean generator
            correction, stride = 0, 1
            for o in orders:
                e = r // stride % o
                if e % mx:
                    raise GroupStructureMismatch("p-group basis correction failed")
                correction += (-(e // mx)) % o * stride
                stride *= o
            g = int(self.mul(np.array([x]), sub[[correction]])[0]) if correction else x
            gens.append(g)
            orders.append(mx)
            size *= mx
            if size < p**a:
                sub = self.span(sub, g, mx)
                row[sub] = np.arange(size)
        return gens, orders


def abelian_group_structure(keys, mul, identity: int):
    """Generators, orders and exponent vectors of a finite abelian group.

    The group's elements are the indices 0..n-1 with n = len(keys), and
    the integer keys[i] ranks element i as a basis candidate: of the
    candidates of largest order the one with the least key is taken, so
    the basis found depends on the keys.  mul(u, v) multiplies two int64
    index arrays elementwise, broadcasting as numpy does; identity is the
    identity's index.  Returns (gens, orders, vecs) in invariant-factor
    form (orders d_1 | ... | d_k, prod(orders) == n): gens are indices and
    vecs is the (n, k) int64 matrix whose row x is the exponent vector of
    x in the generators, each entry in range(d_i).

    vecs is enumerated from the basis, as the products of g_i^e_i over
    0 <= e_i < d_i.  That enumeration is the certificate:
    GroupStructureMismatch is raised unless it reaches every index exactly
    once, and as soon as any product leaves 0..n-1.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if not 0 <= identity < n:
        raise GroupStructureMismatch(f"the identity {identity} is not one of the {n} elements")
    if n == 1:
        return [], [], np.zeros((1, 0), dtype=np.int64)
    group = _IndexGroup(n, mul, identity)
    # the odd primes' parts lie in the image of x -> x^(2^v), v = v_2(n), so
    # their powers are taken on that image alone
    image = np.zeros(n, dtype=bool)
    image[group.power(group.everything, 2 ** v_p(n, 2))] = True
    odd = np.flatnonzero(image)
    sylow = []
    for p, a in factorize(n):
        # the p-part holds the x with x^(p^a) = 1, and chain[t] = x^(p^t)
        pool = group.everything if p == 2 else odd
        chain = [pool[group.power(pool, p**a) == identity]]
        if len(chain[0]) != p**a:
            raise GroupStructureMismatch(f"the {p}-part has {len(chain[0])} elements, not {p**a}")
        for _ in range(a - 1):
            chain.append(group.power(chain[-1], p))
        chain.append(np.full_like(chain[0], identity))  # x^(p^a) = 1 on the p-part
        sgens, sorders = group.p_basis(np.array(chain), keys[chain[0]], p, a)
        sylow.append(sorted(zip(sgens, sorders), key=lambda go: -go[1]))
    # merge the Sylow bases slotwise into invariant factors d_1 | ... | d_k
    depth = max(len(s) for s in sylow)
    slots = np.full((len(sylow), depth), identity, dtype=np.int64)
    orders = [1] * depth
    for i, basis in enumerate(sylow):
        for k, (g, d) in enumerate(basis):
            slots[i, k] = g
            orders[k] *= d
    gens = slots[0]
    for row in slots[1:]:
        gens = group.mul(gens, row)
    gens, orders = gens.tolist()[::-1], orders[::-1]
    sub = np.array([identity])
    for g, d in zip(gens, orders):
        sub = group.span(sub, g, d)
    rows = np.full(n, -1, dtype=np.int64)
    if len(sub) == n:
        rows[sub] = group.everything
    if (rows < 0).any():
        raise GroupStructureMismatch("the basis does not enumerate each element exactly once")
    # row r holds the element with exponents e_i = (r // stride_i) mod d_i
    digits = rows[:, None] // np.cumprod([1] + orders[:-1])
    return gens, orders, digits - digits // orders * orders


def cyclic_group_structure(keys, powers):
    """abelian_group_structure's (gens, orders, vecs) for a cyclic group,
    read off the powers of one generator g.

    The elements are the indices 0..n-1 with n = len(keys), ranked by keys
    as there, and powers[k] is the index of g^k for k = 0..n-1.  The
    elements of largest order p^a in the Sylow p-part (p^a || n) are the
    g^(k n/p^a) with p not dividing k; of these the one with the least key
    (then the least index) is abelian_group_structure's pick.  The picks'
    product g^m is its one generator, of order n, and the exponent of g^k
    on it is k m^-1 mod n.  The certificate is that the powers reach every
    index exactly once: GroupStructureMismatch otherwise.
    """
    keys = np.asarray(keys, dtype=np.int64)
    powers = np.asarray(powers, dtype=np.int64)
    n = len(keys)
    log = np.full(n, -1, dtype=np.int64)  # log[g^k] = k
    # a negative index reads as a huge unsigned one
    if len(powers) == n and not (powers.view(np.uint64) >= n).any():
        log[powers] = np.arange(n)
    if (log < 0).any():
        raise GroupStructureMismatch("the powers do not reach each element exactly once")
    if n == 1:
        return [], [], np.zeros((1, 0), dtype=np.int64)
    m = 0
    for p, a in factorize(n):
        step = n // p**a
        ks = np.arange(1, p**a)
        ks = ks[ks % p != 0]
        picks = powers[ks * step]
        least = np.flatnonzero(keys[picks] == keys[picks].min())
        m += int(ks[least[picks[least].argmin()]]) * step
    m %= n
    return [int(powers[m])], [n], (log * pow(m, -1, n) % n)[:, None]


def cyclic_generator(candidates, mul, one, n: int):
    """A generator of the group of order n that the candidates lie in, or None.

    For each prime l with l^a || n, the first candidate x with
    x^(n/l) != one has an l-part of order l^a, so x^(n/l^a) has order l^a,
    and the product of these over the l has order n.  mul multiplies two
    elements and one is the identity; the candidates are read lazily and
    only until every l has its element.  When they generate the group, None
    means that the group is not cyclic: its exponent then divides some n/l.
    """

    def power(x, k: int):
        out = one
        while k:
            if k & 1:
                out = x if out == one else mul(out, x)
            k >>= 1
            if k:
                x = mul(x, x)
        return out

    pending = [(p, p**a) for p, a in factorize(n)]
    g, candidates = one, iter(candidates)
    while pending:
        x = next(candidates, None)
        if x is None:
            return None
        if x == one:
            continue
        for p, q in list(pending):
            y = power(x, n // q)
            if power(y, q // p) != one:
                g = y if g == one else mul(g, y)
                pending.remove((p, q))
    return g

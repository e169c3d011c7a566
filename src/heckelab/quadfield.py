"""Imaginary quadratic fields: exact elements, ideals in HNF, class groups.

Conventions used throughout the package:

* The field K of fundamental discriminant D < 0 has ring of integers
  Z + Z*omega with omega = (D + sqrt(D))/2, for every D (both parities).
  Then tr(omega) = D and nm(omega) = (D^2 - D)/4.
* An ideal is stored as an HNF triple (a, b, c) meaning the lattice
  a*Z + (b + c*omega)*Z with c | a, c | b and 0 <= b < a.  Its norm is a*c.
* Ideal classes are handled through reduced primitive binary quadratic
  forms (A, B, C) of the relevant discriminant (D for the maximal order,
  c^2 * D for the ring of conductor c) under Gaussian composition.
* Ideals are listed by one builder, enumerate_ideals(field, bound), and
  searched through one stream, ideals_by_norm(field): every search for
  the first ideal with some property (class representatives, auxiliary
  ideals, kernel generators) is a plain for loop over that stream.
"""

from __future__ import annotations

import cmath
import heapq
import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .arith import (
    abelian_group_structure,
    factorize,
    kronecker,
    primes_up_to,
    solve_linmod,
    sqrt_mod_prime,
    xgcd,
)
from .errors import (
    BadDiscriminant,
    FactorizationMismatch,
    IdealSearchExhausted,
    NonFundamental,
    UnitCountMismatch,
)


def is_fundamental(D: int) -> bool:
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return all(e == 1 for _, e in factorize(D))
    m = D // 4
    return m % 4 in (2, 3) and all(e == 1 for _, e in factorize(m))


@dataclass(frozen=True)
class FieldContext:
    """Immutable data of one imaginary quadratic field."""

    D: int          # fundamental discriminant, < 0
    nm: int         # nm(omega) = (D^2 - D)/4
    wK: int         # number of roots of unity
    h: int          # class number of the maximal order

    @property
    def A(self) -> float:
        """The archimedean constant |D|^(1/2) / (2 pi)."""
        return math.sqrt(-self.D) / (2 * math.pi)

    @property
    def omega_complex(self) -> complex:
        return complex(self.D / 2, math.sqrt(-self.D) / 2)

    def kronecker(self, n: int) -> int:
        """The quadratic character kappa(n) = (D | n)."""
        return kronecker(self.D, n)

    def element(self, x, y=0) -> "KElt":
        return KElt(self, x, y)

    @property
    def one(self) -> "KElt":
        return KElt(self, 1, 0)

    @property
    def sqrt_D(self) -> "KElt":
        # sqrt(D) = 2*omega - D; embeds as i*sqrt(|D|)
        return KElt(self, -self.D, 2)

    def units(self) -> tuple["KElt", ...]:
        """All roots of unity in the ring of integers, built once per field."""
        return _units(self)

    def class_group(self) -> "ClassGroup":
        return class_group(self.D)

    def __repr__(self):
        return f"FieldContext(D={self.D})"


@lru_cache(maxsize=None)
def _units(field: FieldContext) -> tuple["KElt", ...]:
    out = []
    ymax = math.isqrt(4 // -field.D) if -field.D <= 4 else 0
    for y in range(-ymax, ymax + 1):
        disc = 4 + field.D * y * y
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sgn in ((r, -r) if r else (0,)):
            num = -field.D * y + sgn
            if num % 2 == 0:
                out.append(KElt(field, num // 2, y))
    if len(out) != field.wK:
        raise UnitCountMismatch(f"{field!r} has {len(out)} roots of unity, not wK = {field.wK}")
    return tuple(sorted(out, key=lambda u: (u.y, u.x)))


@lru_cache(maxsize=None)
def make_field(D: int) -> FieldContext:
    """Build the field context for a fundamental discriminant D < 0."""
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant = 0,1 mod 4")
    if not is_fundamental(D):
        raise NonFundamental(f"{D} is not fundamental")
    nm = (D * D - D) // 4
    wK = 6 if D == -3 else 4 if D == -4 else 2
    h = len(reduced_forms(D))
    return FieldContext(D=D, nm=nm, wK=wK, h=h)


class KElt:
    """Exact field element x + y*omega with rational (usually integer) coords."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: FieldContext, x, y=0):
        self.field = field
        self.x = x
        self.y = y

    def __add__(self, other):
        other = self._coerce(other)
        return KElt(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        other = self._coerce(other)
        return KElt(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return KElt(self.field, -self.x, -self.y)

    def __mul__(self, other):
        other = self._coerce(other)
        D, nm = self.field.D, self.field.nm
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        # omega^2 = D*omega - nm
        return KElt(self.field, x1 * x2 - nm * y1 * y2, x1 * y2 + x2 * y1 + D * y1 * y2)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __truediv__(self, other):
        other = self._coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError
        conj = other.conjugate()
        num = self * conj
        return KElt(self.field, Fraction(num.x, 1) / n, Fraction(num.y, 1) / n)

    def _coerce(self, other):
        if isinstance(other, KElt):
            if other.field.D != self.field.D:
                raise ValueError("mixed fields")
            return other
        return KElt(self.field, other, 0)

    def conjugate(self) -> "KElt":
        return KElt(self.field, self.x + self.y * self.field.D, -self.y)

    def norm(self):
        x, y = self.x, self.y
        return x * x + self.field.D * x * y + self.field.nm * y * y

    def trace(self):
        return 2 * self.x + self.field.D * self.y

    def complex(self) -> complex:
        return float(self.x) + float(self.y) * self.field.omega_complex

    def __eq__(self, other):
        if not isinstance(other, KElt):
            return self.y == 0 and self.x == other
        return self.field.D == other.field.D and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.field.D, self.x, self.y))

    def __repr__(self):
        return f"({self.x}+{self.y}w)"


def _hnf_from_vectors(vectors):
    """HNF (a, b, c) of the Z-module spanned by (x, y) vectors meaning x + y*omega.

    Requires full rank.  Returns a > 0, 0 <= b < a, c > 0.
    """
    bx = by = 0
    for x, y in vectors:
        if y == 0:
            continue
        if by == 0:
            bx, by = x, y
            continue
        g, s, t = xgcd(by, y)
        bx, by = s * bx + t * x, g
    if by < 0:
        bx, by = -bx, -by
    a = 0
    for x, y in vectors:
        if by:
            x = x - (y // by) * bx if y % by == 0 else None
            if x is None:
                raise ValueError("vectors do not span a sublattice of Z + Z*omega")
        a = math.gcd(a, x)
    if a == 0 or by == 0:
        raise ValueError("module is not full rank")
    return a, bx % a, by


class Ideal:
    """Integral ideal in HNF: the lattice a*Z + (b + c*omega)*Z."""

    __slots__ = ("field", "a", "b", "c")

    def __init__(self, field: FieldContext, a: int, b: int, c: int, check: bool = True):
        self.field = field
        self.a, self.b, self.c = a, b, c
        if check:
            if a <= 0 or c <= 0 or not (0 <= b < a) or a % c or b % c:
                raise ValueError(f"bad HNF triple {(a, b, c)}")
            bp, ap = b // c, a // c
            if (bp * bp + field.D * bp + field.nm) % ap:
                raise ValueError(f"{(a, b, c)} is not closed under omega")

    @property
    def norm(self) -> int:
        return self.a * self.c

    def basis(self) -> tuple[KElt, KElt]:
        return KElt(self.field, self.a, 0), KElt(self.field, self.b, self.c)

    def contains(self, z: KElt) -> bool:
        if z.y % self.c:
            return False
        return (z.x - (z.y // self.c) * self.b) % self.a == 0

    def reduce_element(self, z: KElt) -> KElt:
        """Canonical representative of z modulo this ideal."""
        q = z.y // self.c
        x, y = z.x - q * self.b, z.y - q * self.c
        return KElt(self.field, x % self.a, y)

    def __mul__(self, other: "Ideal") -> "Ideal":
        f = self.field
        a1, b1, c1 = self.a, self.b, self.c
        a2, b2, c2 = other.a, other.b, other.c
        vecs = [
            (a1 * a2, 0),
            (a1 * b2, a1 * c2),
            (a2 * b1, a2 * c1),
            (b1 * b2 - c1 * c2 * f.nm, b1 * c2 + b2 * c1 + c1 * c2 * f.D),
        ]
        return Ideal(f, *_hnf_from_vectors(vecs))

    def __pow__(self, k: int) -> "Ideal":
        out, base = unit_ideal(self.field), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Ideal":
        return Ideal(self.field, self.a, (-self.b - self.c * self.field.D) % self.a, self.c)

    def is_self_conjugate(self) -> bool:
        return self == self.conjugate()

    def add(self, other: "Ideal") -> "Ideal":
        """Ideal sum (gcd)."""
        vecs = [(self.a, 0), (self.b, self.c), (other.a, 0), (other.b, other.c)]
        return Ideal(self.field, *_hnf_from_vectors(vecs))

    def is_coprime(self, other: "Ideal") -> bool:
        return self.add(other).norm == 1

    def valuation(self, prime: "Ideal") -> int:
        v, pk = 0, prime
        while pk.contains(KElt(self.field, self.a, 0)) and pk.contains(KElt(self.field, self.b, self.c)):
            v += 1
            pk = pk * prime
        return v

    def factor(self) -> dict["Ideal", int]:
        """Prime ideal factorization, keyed by prime ideals."""
        out = {}
        for p, _ in factorize(self.norm):
            for pr in prime_ideals_above(self.field, p):
                e = self.valuation(pr)
                if e:
                    out[pr] = e
        if math.prod(pr.norm**e for pr, e in out.items()) != self.norm:
            raise FactorizationMismatch(f"prime factors of {self!r} do not account for its norm")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.field.D == other.field.D
            and (self.a, self.b, self.c) == (other.a, other.b, other.c)
        )

    def __hash__(self):
        return hash((self.field.D, self.a, self.b, self.c))

    def __repr__(self):
        return f"Ideal({self.a},{self.b},{self.c})"

    def sort_key(self):
        return (self.norm, self.a, self.b, self.c)


def unit_ideal(field: FieldContext) -> Ideal:
    return Ideal(field, 1, 0, 1, check=False)


def principal_ideal(field: FieldContext, z: KElt) -> Ideal:
    """The ideal z*O for an integral z != 0."""
    zw = z * KElt(field, 0, 1)
    return Ideal(field, *_hnf_from_vectors([(z.x, z.y), (zw.x, zw.y)]))


def coset_reps(big: Ideal, sub: Ideal):
    """Box transversal of big/sub for nested HNF lattices (sub inside big)."""
    field = big.field
    if sub.a % big.a or sub.c % big.c:
        raise ValueError("not a nested pair of HNF lattices")
    for s in range(sub.a // big.a):
        for r in range(sub.c // big.c):
            yield KElt(field, s * big.a + r * big.b, r * big.c)


@lru_cache(maxsize=None)
def prime_ideals_above(field: FieldContext, p: int) -> tuple[Ideal, ...]:
    """Prime ideals over p: two if split, one if inert or ramified."""
    k = field.kronecker(p)
    if k == -1:
        return (Ideal(field, p, 0, p),)
    # root of x^2 - D x + nm mod p
    D, nm = field.D, field.nm
    if p == 2:
        r = next(x for x in (0, 1) if (x * x - D * x + nm) % 2 == 0)
    elif k == 0:
        r = D * pow(2, -1, p) % p
    else:
        s = sqrt_mod_prime(D % p, p)
        r = (D + s) * pow(2, -1, p) % p
    first = Ideal(field, p, (-r) % p, 1)
    if k == 1:
        second = first.conjugate()
        return (first, second) if first.sort_key() <= second.sort_key() else (second, first)
    return (first,)


def enumerate_ideals(field: FieldContext, bound: int) -> list[Ideal]:
    """All integral ideals of norm <= bound, sorted by (norm, HNF).

    Built multiplicatively from prime ideals, so each ideal appears exactly once.
    The list is kept sorted by norm, so the ideals that one prime power may
    multiply form a prefix of it, and each batch of products is merged in.
    """
    out = [unit_ideal(field)]
    norms = [1]
    for p in primes_up_to(bound):
        primes = prime_ideals_above(field, p)
        locals_: list[Ideal] = []
        if len(primes) == 1:
            # inert (norm p^2) or ramified (norm p): powers of the one prime
            acc = primes[0]
            while acc.norm <= bound:
                locals_.append(acc)
                acc = acc * primes[0]
        else:
            pr, prc = primes
            pows = [unit_ideal(field)]
            while pows[-1].norm * p <= bound:
                pows.append(pows[-1] * pr)
            cpows = [unit_ideal(field)]
            while cpows[-1].norm * p <= bound:
                cpows.append(cpows[-1] * prc)
            for i in range(len(pows)):
                for j in range(len(cpows)):
                    if i == j == 0 or pows[i].norm * cpows[j].norm > bound:
                        continue
                    locals_.append(pows[i] * cpows[j])
        if not locals_:
            continue
        batches = [
            [prev * loc for prev in out[: bisect_right(norms, bound // loc.norm)]]
            for loc in locals_
        ]
        out = list(heapq.merge(out, *batches, key=attrgetter("norm")))
        norms = [ideal.norm for ideal in out]
    return sorted(out, key=Ideal.sort_key)


def ideals_by_norm(field: FieldContext) -> Iterator[Ideal]:
    """Every integral ideal exactly once, in (norm, HNF) order: the one search stream.

    The unit ideal comes first and costs nothing.  After it the stream
    lists enumerate_ideals(field, bound) for bound = 8, 16, 32, ... and
    yields only the ideals of norm above the previous bound, so a search
    that stops at its first hit enumerates no further than it needs.
    Raises IdealSearchExhausted once the bound would pass 10**7.
    """
    yield unit_ideal(field)
    done, bound = 1, 8
    while bound <= 10**7:
        for ideal in enumerate_ideals(field, bound):
            if ideal.norm > done:
                yield ideal
        done, bound = bound, 2 * bound
    raise IdealSearchExhausted(f"no ideal of norm <= {done} of {field!r} ended the search")


def is_principal_with_generator(ideal: Ideal) -> KElt | None:
    """A generator of the ideal if principal, else None.

    Solves nm(x + y*omega) = N(ideal) over the finite ellipse and checks
    membership; equality of norms then forces equality of ideals.
    """
    f, N = ideal.field, ideal.norm
    ymax = math.isqrt(4 * N // -f.D)
    for y in range(-ymax, ymax + 1):
        disc = 4 * N + f.D * y * y
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sgn in ((r, -r) if r else (0,)):
            num = -f.D * y + sgn
            if num % 2:
                continue
            z = KElt(f, num // 2, y)
            if ideal.contains(z):
                return z
    return None


def canonical_generator(ideal: Ideal) -> KElt | None:
    """Principal generator with argument in [0, 2 pi), smallest first."""
    z = is_principal_with_generator(ideal)
    if z is None:
        return None
    best, best_arg = None, None
    for u in ideal.field.units():
        w = z * u
        arg = cmath.phase(w.complex()) % (2 * math.pi)
        if best is None or arg < best_arg - 1e-12:
            best, best_arg = w, arg
    return best


# ---------------------------------------------------------------------------
# Binary quadratic forms and class groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class BinaryForm:
    """Positive definite integral form a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def normalized(self) -> "BinaryForm":
        a, b, c = self.a, self.b, self.c
        if -a < b <= a:
            return self
        r = (a - b) // (2 * a)
        return BinaryForm(a, b + 2 * r * a, a * r * r + b * r + c)

    def reduced(self) -> "BinaryForm":
        f = self.normalized()
        while f.a > f.c or (f.a == f.c and f.b < 0):
            s = (f.c + f.b) // (2 * f.c)
            f = BinaryForm(f.c, -f.b + 2 * s * f.c, f.c * s * s - f.b * s + f.a)
            f = f.normalized()
        return f

    def inverse(self) -> "BinaryForm":
        return BinaryForm(self.a, -self.b, self.c).reduced()

    def compose(self, other: "BinaryForm") -> "BinaryForm":
        """Gaussian composition, reduced."""
        if self.disc != other.disc:
            raise BadDiscriminant(f"cannot compose discriminants {self.disc} and {other.disc}")
        a1, b1, c1 = self.a, self.b, self.c
        a2, b2, c2 = other.a, other.b, other.c
        g = (b1 + b2) // 2
        h = (b2 - b1) // 2
        w = math.gcd(math.gcd(a1, a2), g)
        j, s, t, u = w, a1 // w, a2 // w, g // w
        mu, big = solve_linmod(t * u, h * u + s * c1, s * t)
        nu, _ = solve_linmod(t * big, h - t * mu, s)
        k = mu + big * nu
        l = (k * t - h) // s
        m = (t * u * k - h * u - c1 * s) // (s * t)
        a3 = s * t
        b3 = j * u - (k * t + l * s)
        c3 = k * l - j * m
        return BinaryForm(a3, b3, c3).reduced()


def principal_form(disc: int) -> BinaryForm:
    if disc % 4 == 0:
        return BinaryForm(1, 0, -disc // 4)
    return BinaryForm(1, 1, (1 - disc) // 4)


@lru_cache(maxsize=None)
def reduced_forms(disc: int) -> tuple[BinaryForm, ...]:
    """All reduced primitive positive definite forms of the given discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise BadDiscriminant(f"{disc} is not a negative discriminant = 0,1 mod 4")
    out = []
    b = disc & 1
    while 3 * b * b <= -disc:
        ac4 = b * b - disc
        if ac4 % 4 == 0:
            ac = ac4 // 4
            a = max(b, 1)
            while a * a <= ac:
                if ac % a == 0:
                    c = ac // a
                    for bb in ((b, -b) if 0 < b < a < c else (b,)):
                        f = BinaryForm(a, bb, c)
                        if f.is_primitive():
                            out.append(f)
                a += 1
        b += 2
    return tuple(sorted(out))


@dataclass(frozen=True)
class ClassGroup:
    """Form class group of one discriminant, with generators and discrete logs."""

    disc: int
    forms: tuple[BinaryForm, ...]
    gens: tuple[BinaryForm, ...]
    orders: tuple[int, ...]
    dlog: dict

    @property
    def h(self) -> int:
        return len(self.forms)

    def dlog_of(self, form: BinaryForm) -> tuple[int, ...]:
        return self.dlog[form.reduced()]


@lru_cache(maxsize=None)
def class_group(disc: int) -> ClassGroup:
    """The form class group, through abelian_group_structure on the indices
    of reduced_forms(disc), basis candidates tried in the order of the forms' reprs."""
    forms = reduced_forms(disc)
    index = {form: i for i, form in enumerate(forms)}

    def mul(u, v):
        u, v = np.broadcast_arrays(u, v)
        products = (
            index[forms[i].compose(forms[j])] for i, j in zip(u.ravel().tolist(), v.ravel().tolist())
        )
        return np.fromiter(products, dtype=np.int64, count=u.size).reshape(u.shape)

    rank = {form: r for r, form in enumerate(sorted(forms, key=repr))}
    gens, orders, vecs = abelian_group_structure(
        [rank[form] for form in forms], mul, index[principal_form(disc)]
    )
    dlog = dict(zip(forms, map(tuple, vecs.tolist())))
    return ClassGroup(
        disc=disc, forms=forms, gens=tuple(forms[g] for g in gens), orders=tuple(orders), dlog=dlog
    )


def minkowski_bound(disc: int) -> int:
    return math.floor(2 * math.sqrt(-disc) / math.pi)


def form_of_ideal(ideal: Ideal) -> BinaryForm:
    """Reduced form of discriminant D attached to an ideal of the maximal order."""
    f = ideal.field
    ap, bp = ideal.a // ideal.c, ideal.b // ideal.c
    A = ap
    B = 2 * bp + f.D
    C = (bp * bp + f.D * bp + f.nm) // ap
    return BinaryForm(A, B, C).reduced()


def ideal_class_of(ideal: Ideal) -> tuple[int, ...]:
    """Exponent vector of the ideal's class on the class group generators."""
    return ideal.field.class_group().dlog_of(form_of_ideal(ideal))


def class_representatives(field: FieldContext, coprime_to: int = 1) -> dict[tuple[int, ...], Ideal]:
    """Class vector -> the first ideal of that class with gcd(norm, coprime_to) = 1.

    First means first in ideals_by_norm, i.e. least in (norm, HNF) order.
    The search stops as soon as every class has its representative; when
    h = 1 the unit ideal completes it and nothing is enumerated.
    """
    reps: dict[tuple[int, ...], Ideal] = {}
    for ideal in ideals_by_norm(field):
        if math.gcd(ideal.norm, coprime_to) == 1:
            reps.setdefault(ideal_class_of(ideal), ideal)
            if len(reps) == field.h:
                return reps


# ---------------------------------------------------------------------------
# Ring class groups: contraction of O-ideals to the order of conductor c
# ---------------------------------------------------------------------------


def contract_to_order(ideal: Ideal, c: int) -> tuple[int, int, int]:
    """Triangular basis (A, B, C) of ideal & (Z + Z c omega) in the basis {1, c*omega}."""
    a, b, cid = ideal.a, ideal.b, ideal.c
    g = math.gcd(cid, c)
    gy = cid // g
    v2 = ((b * (c * gy // cid)) % a, gy)
    return _hnf_from_vectors([(a, 0), v2])


def form_of_contraction(field: FieldContext, ideal: Ideal, c: int) -> BinaryForm:
    """Reduced form of discriminant c^2 D attached to the contraction of the ideal.

    Requires gcd(N(ideal), c) = 1 so the contraction is invertible over the order.
    """
    if math.gcd(ideal.norm, c) != 1:
        raise ValueError("ideal is not coprime to the conductor")
    A, B, C = contract_to_order(ideal, c)
    trc, nmc = c * field.D, c * c * field.nm
    ap, bp = A // C, B // C
    return BinaryForm(ap, 2 * bp + trc, (bp * bp + trc * bp + nmc) // ap).reduced()


def ring_class_dlog(field: FieldContext, c: int, ideal: Ideal) -> tuple[int, ...]:
    """Class of an O-ideal coprime to c in the ring class group of conductor c."""
    return class_group(c * c * field.D).dlog_of(form_of_contraction(field, ideal, c))


def ring_class_number(field: FieldContext, c: int) -> int:
    return class_group(c * c * field.D).h

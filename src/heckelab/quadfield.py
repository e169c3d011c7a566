"""Imaginary quadratic fields: exact elements, ideals in HNF, class groups.

Conventions used throughout the package:

* The field K of fundamental discriminant D < 0 has ring of integers
  Z + Z*omega with omega = (D + sqrt(D))/2, for every D (both parities).
  Then tr(omega) = D and nm(omega) = (D^2 - D)/4.
* An ideal is stored as an HNF triple (a, b, c) meaning the lattice
  a*Z + (b + c*omega)*Z with c | a, c | b and 0 <= b < a.  Its norm is a*c.
* Ideal classes are handled through reduced primitive binary quadratic
  forms (A, B, C) of the relevant discriminant (D for the maximal order,
  c^2 * D for the ring of conductor c) under Gaussian composition.  An
  ideal meets them through one map, the form of its contraction to the
  order of conductor c (Cox, Primes of the Form x^2 + ny^2, Sec. 7); the
  class of an O-ideal is its ring class at c = 1.
* The elements of an ideal J come from one walk over J's HNF basis,
  ideal_elements(J, bound), every g != 0 with N(g) <= bound as int64
  coordinate arrays.  The roots of unity are its bound = 1 list on O.
  A principal ideal's canonical generator is its shortest element under
  the norm form, from Lagrange-Gauss reduction of the HNF basis, times the
  root of unity that puts it in the sector [0, 2 pi / w_K), an exact test
  on the coordinates (x, y).
* Ideals come from one stream, ideals_by_norm(field), which builds them
  norm by norm from the lists of smaller norms.  enumerate_ideals(field,
  bound) is its norm <= bound prefix, and the two searches for the first
  ideal with some property (class representatives and the root number's
  auxiliary ideal) are plain for loops over it.
* Elements are never searched for among residues: an e in q with
  e = 1 mod p, for coprime ideals p and q, is one lattice solve,
  idempotent(p, q).  It gives the CRT idempotents of the local unit groups
  and the root number's E in c with E = 1 mod f.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile

import numpy as np

from .arith import (
    abelian_group_structure,
    cyclic_generator,
    cyclic_group_structure,
    factorize,
    kronecker,
    sqrt_mod_prime,
    xgcd,
)
from .errors import (
    BadDiscriminant,
    DomainError,
    FactorizationMismatch,
    IdealSearchExhausted,
    NoCRTLift,
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

    def __repr__(self):
        return f"FieldContext(D={self.D})"


@lru_cache(maxsize=None)
def _units(field: FieldContext) -> tuple["KElt", ...]:
    xs, ys = ideal_elements(unit_ideal(field), 1)
    if len(xs) != field.wK:
        raise UnitCountMismatch(f"{field!r} has {len(xs)} roots of unity, not wK = {field.wK}")
    return tuple(KElt(field, x, y) for x, y in zip(xs.tolist(), ys.tolist()))


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

    def __init__(self, field: FieldContext, x, y):
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

    def __init__(self, field: FieldContext, a: int, b: int, c: int):
        self.field = field
        self.a, self.b, self.c = a, b, c
        if a <= 0 or c <= 0 or not (0 <= b < a) or a % c or b % c:
            raise ValueError(f"bad HNF triple {(a, b, c)}")
        bp, ap = b // c, a // c
        if (bp * bp + field.D * bp + field.nm) % ap:
            raise ValueError(f"{(a, b, c)} is not closed under omega")

    @property
    def norm(self) -> int:
        return self.a * self.c

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
        # a == 1 only for the unit ideal, and the other factor is already in HNF
        if self.a == 1:
            return other
        if other.a == 1:
            return self
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
        """Binary powering: bitlen(k) - 1 squarings and popcount(k) - 1 products."""
        if k < 0:
            raise DomainError(f"ideal exponent must be non-negative, got {k}")
        out, base = unit_ideal(self.field), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
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
    return Ideal(field, 1, 0, 1)


def principal_ideal(field: FieldContext, z: KElt) -> Ideal:
    """The ideal z*O for an integral z != 0."""
    zw = z * KElt(field, 0, 1)
    return Ideal(field, *_hnf_from_vectors([(z.x, z.y), (zw.x, zw.y)]))


def idempotent(p: Ideal, q: Ideal) -> KElt:
    """e in q with e = 1 mod p, for coprime p and q (p + q = O).

    One solve of 1 - e = x with x in p and e in q over the HNF bases
    p = a1 Z + (b1 + c1 omega) Z and q = a2 Z + (b2 + c2 omega) Z: the omega
    coordinates force the multiples t c2/g and -t c1/g of the second basis
    vectors, g = gcd(c1, c2), and the rational ones leave
    u1 a1 + u2 a2 + t (b1 c2 - b2 c1)/g = 1, two extended gcds.  Raises
    NoCRTLift when p + q is not O.
    """
    field = p.field
    g = math.gcd(p.c, q.c)
    g1, s1, s2 = xgcd(p.a, q.a)
    one, s3, t = xgcd(g1, (p.b * q.c - q.b * p.c) // g)
    v = -t * (p.c // g)
    e = KElt(field, s3 * s2 * q.a + v * q.b, v * q.c)
    if one != 1 or not (q.contains(e) and p.contains(field.one - e)):
        raise NoCRTLift(f"{p!r} and {q!r} are not coprime")
    return e


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


# The ideal stream gives up past this norm: a search still running there
# is taken to have no answer.
_NORM_CAP = 10**7


def enumerate_ideals(field: FieldContext, bound: int) -> list[Ideal]:
    """All integral ideals of norm <= bound, sorted by (norm, HNF).

    The norm <= bound prefix of ideals_by_norm(field); bound stays below
    _NORM_CAP.
    """
    return list(takewhile(lambda ideal: ideal.norm <= bound, ideals_by_norm(field)))


def ideals_by_norm(field: FieldContext) -> Iterator[Ideal]:
    """Every integral ideal exactly once, in (norm, HNF) order.

    The ideals of norm n come from the lists of smaller norms.  Let p be the
    least prime of n and p^e its power in n.  If n != p^e they are the
    products P*J with N(P) = p^e and N(J) = n/p^e, each once by unique
    factorization; if n = p^e they are the distinct products of a prime
    above p with the ideals of norm n/N(prime).  The unit ideal comes first
    and costs nothing, so a search that stops at its first hit builds no
    further than it needs.  Raises IdealSearchExhausted past norm _NORM_CAP.
    """
    unit = unit_ideal(field)
    yield unit
    by_norm: list[list[Ideal]] = [[], [unit]]
    for n in range(2, _NORM_CAP + 1):
        p, e = factorize(n)[0]
        if p**e < n:
            products = [P * J for P in by_norm[p**e] for J in by_norm[n // p**e]]
        else:
            products = {
                P * J
                for P in prime_ideals_above(field, p)
                if n % P.norm == 0
                for J in by_norm[n // P.norm]
            }
        by_norm.append(sorted(products, key=Ideal.sort_key))
        yield from by_norm[n]
    raise IdealSearchExhausted(f"no ideal of norm <= {_NORM_CAP} of {field!r} ended the search")


def ideal_elements(J: Ideal, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (x, y) of every g = x + y omega != 0 in J with N(g) <= bound,
    as int64 arrays in ascending (y, x) order.

    J = aZ + (b + c omega)Z, so g = u a + v (b + c omega).  With t = 2x + yD,
    4 N(g) = t^2 + |D| y^2: so |y| = |v| c <= sqrt(4 bound / |D|), and for
    each v, |t| <= s = isqrt(4 bound - |D| y^2) bounds u on both sides.
    """
    D, a, b, c = J.field.D, J.a, J.b, J.c
    vmax = math.isqrt(4 * bound // -D) // c
    v = np.arange(-vmax, vmax + 1, dtype=np.int64)
    y = v * c
    r = 4 * bound + D * y * y
    s = np.sqrt(r).astype(np.int64)
    s -= s * s > r  # float sqrt to isqrt
    s += (s + 1) * (s + 1) <= r
    # -s <= 2(u a + v b) + yD <= s
    lo = -((s + y * D + 2 * v * b) // (2 * a))
    per_v = np.maximum((s - y * D - 2 * v * b) // (2 * a) - lo + 1, 0)
    starts = np.repeat(np.cumsum(per_v) - per_v - lo, per_v)
    u = np.arange(int(per_v.sum()), dtype=np.int64) - starts
    v = np.repeat(v, per_v)
    x, y = u * a + v * b, v * c
    nonzero = (x != 0) | (y != 0)
    return x[nonzero], y[nonzero]


def canonical_generator(ideal: Ideal) -> KElt | None:
    """The generator of a principal ideal with argument in [0, 2 pi / w_K), else None.

    Lagrange-Gauss reduction of the HNF basis under the norm form gives a
    shortest g != 0 in I (Cohen, GTM 138, 1.3.14).  N(I) divides every norm
    in I, so I is principal exactly when N(g) = N(I); its generators are g
    times the roots of unity, and exactly one lies in the sector, read off
    the coordinates: for w_K = 2 it is y > 0, or y = 0 < x; for w_K = 4 or
    6 (omega = -2 + i or (-3 + sqrt(-3))/2) it is y >= 0 and x > 2y.
    """
    field = ideal.field
    D, nm = field.D, field.nm
    x, y, u, v = ideal.a, 0, ideal.b, ideal.c  # g = x + y omega, h = u + v omega
    n = x * x  # N(g)
    while True:
        m = u * u + D * u * v + nm * v * v
        if m < n:
            x, y, n, u, v = u, v, m, x, y
        # q = round(B(g, h) / N(g)), with 2 B(g, h) = N(g + h) - N(g) - N(h)
        q = (2 * x * u + D * (x * v + u * y) + 2 * nm * y * v + n) // (2 * n)
        if q == 0:
            break
        u, v = u - q * x, v - q * y
    if n != ideal.norm:
        return None
    for z in (KElt(field, x, y) * w for w in field.units()):
        if (z.y > 0 or z.y == 0 < z.x) if field.wK == 2 else (z.y >= 0 and z.x > 2 * z.y):
            return z
    raise UnitCountMismatch(f"no unit multiple of {KElt(field, x, y)!r} lies in the sector")


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

    def reduced(self) -> "BinaryForm":
        return BinaryForm(*_reduce(self.a, self.b, self.c))

    def compose(self, other: "BinaryForm") -> "BinaryForm":
        """Gaussian composition, reduced (Cohen, A Course in Computational
        Algebraic Number Theory, Alg. 5.4.7), on integers until the one form
        it returns."""
        a1, b1, c1 = self.a, self.b, self.c
        a2, b2, c2 = other.a, other.b, other.c
        if b1 * b1 - 4 * a1 * c1 != b2 * b2 - 4 * a2 * c2:
            raise BadDiscriminant(f"cannot compose discriminants {self.disc} and {other.disc}")
        if a1 > a2:
            a1, b1, a2, b2, c2 = a2, b2, a1, b1, c1
        s = (b1 + b2) // 2
        if a2 % a1 == 0:
            d, y1 = a1, 0
        else:
            d, y1, _ = xgcd(a2, a1)
        if s % d == 0:
            d1, x2, y2 = d, 0, -1
        else:
            d1, x2, y2 = xgcd(s, d)
            y2 = -y2
        v1, v2 = a1 // d1, a2 // d1
        r = (y1 * y2 * (b2 - s) - x2 * c2) % v1
        return BinaryForm(*_reduce(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1))


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form properly equivalent to a x^2 + b x y + c y^2 (a > 0):
    translate b into (-a, a], then swap (a, b, c) -> (c, -b, a) while c < a,
    or c = a and b < 0."""
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, (a * r + b) * r + c
        if a < c or (a == c and b >= 0):
            return a, b, c
        a, b, c = c, -b, a


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
    """The form class group, its basis candidates tried in the order of the forms' reprs.

    A cyclic group is read off one generator's powers: cyclic_generator
    over the forms in that order, then cyclic_group_structure, which gives
    the basis and logs that abelian_group_structure would.  The search is
    skipped when more than two reduced forms are ambiguous (b = 0, b = a or
    a = c): they are the classes of order <= 2, so the 2-rank is >= 2.  It
    takes no further candidate after 3h compositions; over the 231 cyclic
    groups with h > 1 of discriminant c^2 D, D fundamental in -3..-40 and
    c <= 40, it needed at most 1.93h.  A group that is not cyclic, or whose
    search gave up, goes through abelian_group_structure on the indices of
    reduced_forms(disc).
    """
    forms = reduced_forms(disc)
    index = {form: i for i, form in enumerate(forms)}
    by_repr = sorted(forms, key=repr)
    rank = {form: r for r, form in enumerate(by_repr)}
    keys = [rank[form] for form in forms]
    one, h = principal_form(disc), len(forms)
    g = None
    if sum(f.b == 0 or f.b == f.a or f.a == f.c for f in forms) <= 2:
        spent = 0  # compositions made by the search

        def spend(u, v):
            nonlocal spent
            spent += 1
            return u.compose(v)

        g = cyclic_generator(takewhile(lambda _: spent < 3 * h, by_repr), spend, one, h)
    if g is not None:
        powers = [one]
        for _ in range(h - 1):
            powers.append(powers[-1].compose(g))
        gens, orders, vecs = cyclic_group_structure(keys, [index.get(x, -1) for x in powers])
    else:

        def mul(u, v):
            u, v = np.broadcast_arrays(u, v)
            products = (
                index[forms[i].compose(forms[j])] for i, j in zip(u.ravel().tolist(), v.ravel().tolist())
            )
            return np.fromiter(products, dtype=np.int64, count=u.size).reshape(u.shape)

        gens, orders, vecs = abelian_group_structure(keys, mul, index[one])
    dlog = dict(zip(forms, map(tuple, vecs.tolist())))
    return ClassGroup(
        disc=disc, forms=forms, gens=tuple(forms[g] for g in gens), orders=tuple(orders), dlog=dlog
    )


def ideal_class_of(ideal: Ideal) -> tuple[int, ...]:
    """Exponent vector of the ideal's class on the class group generators:
    its ring class at conductor 1, where the contraction is the ideal itself."""
    return ring_class_dlog(ideal.field, 1, ideal)


def class_representatives(field: FieldContext, coprime_to: int) -> dict[tuple[int, ...], Ideal]:
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
    """Triangular basis (A, B, C) of ideal & (Z + Z c omega) in the basis {1, c*omega}.

    k (b + c_I omega) has omega coordinate divisible by c exactly when c/g
    divides k, g = gcd(c_I, c), so a and (c/g)(b + c_I omega) span it.
    """
    g = math.gcd(ideal.c, c)
    return ideal.a, ideal.b * (c // g) % ideal.a, ideal.c // g


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

"""Hecke characters of infinite type (1,0), ring class twists, conductor data.

A character is assembled from two ingredients:

* a finite part: a homomorphism eps on (O/f)^x with values in a fixed
  root-of-unity group mu_M, subject to the unit consistency eps(u)*u = 1
  for every root of unity u in O (necessary and sufficient for a type
  (1,0) character with chi(wO) = eps(w)*w to exist);
* one exact class value v_i per class group generator g_i of order h_i,
  a chosen h_i-th root of eps(w_i)*w_i where g_i^{h_i} = (w_i).

Values are kept in the exact algebra zeta_M^k * q * prod v_i^{e_i} with
q in K, so |chi(a)|^2 = N(a) and multiplicativity are checkable exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arith import abelian_group_structure, factorize, is_prime, v_p
from .errors import (
    ConductorNotSupported,
    FactorizationMismatch,
    ImprimitiveFinitePart,
    MainLemmaViolation,
    NoConsistentLift,
    NumericalInstability,
    PhaseOverflow,
    RestrictionMismatch,
    UnitCountMismatch,
    UnitInconsistent,
    UnsupportedDiscriminant,
)
from .quadfield import (
    FieldContext,
    Ideal,
    KElt,
    canonical_generator,
    class_group,
    class_representatives,
    ideal_class_of,
    principal_ideal,
    ring_class_dlog,
    unit_ideal,
)

TWO_PI = 2 * math.pi
_INT64_MAX = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# Roots of unity in O, exactly indexed
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def unit_root_table(field: FieldContext) -> dict:
    """Map each torsion unit u to j with u = zeta_wK^j, computed exactly."""
    units = field.units()
    gen = min(
        (u for u in units),
        key=lambda u: abs(cmath.phase(u.complex()) % TWO_PI - TWO_PI / field.wK),
    )
    table, acc = {}, field.one
    for j in range(field.wK):
        table[acc] = j
        acc = acc * gen
    if acc != field.one or len(table) != field.wK:
        raise UnitCountMismatch(f"{gen!r} does not generate the {field.wK} roots of unity")
    return table


# ---------------------------------------------------------------------------
# Unit groups of residue rings (O/f)^x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitGroupMod:
    """Structure of (O/f)^x: generators (as reduced residues), orders and
    discrete logs.

    The group is held as int64 arrays with one row per unit residue
    x + y omega of the HNF box 0 <= x < a, 0 <= y < c of f (y outer, x
    inner): xs, ys and vecs, the exponent vector of each residue in the
    generators.  box_row maps a box position y a + x to that row, or -1
    off the units.  Subgroups are read as masks over the rows: one_mod(g)
    marks the kernel of (O/f)^x -> (O/g)^x, and rows(xs, ys) finds the
    rows of arbitrary residues.
    """

    field: FieldContext
    f: Ideal
    gens: tuple
    orders: tuple
    xs: np.ndarray = dc_field(compare=False, repr=False)
    ys: np.ndarray = dc_field(compare=False, repr=False)
    vecs: np.ndarray = dc_field(compare=False, repr=False)
    box_row: np.ndarray = dc_field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders) if self.orders else 1

    def reduce(self, z: KElt) -> tuple:
        r = self.f.reduce_element(z)
        return (r.x, r.y)

    def one_mod(self, g: Ideal) -> np.ndarray:
        """Mask of the rows r = 1 mod g, for an ideal g dividing f."""
        return _in_ideal(self.xs - 1, self.ys, g)

    def rows(self, xs, ys) -> np.ndarray:
        """Rows of the residues x + y omega (integer arrays), -1 where one is
        not a unit mod f."""
        x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
        return _box_rows(x, y, self.f, self.box_row)


def _in_ideal(xs: np.ndarray, ys: np.ndarray, g: Ideal) -> np.ndarray:
    """Mask of the x + y omega in g: g.c | y and g.a | x - (y / g.c) g.b."""
    return (ys % g.c == 0) & ((xs - ys // g.c * g.b) % g.a == 0)


def _box_rows(x: np.ndarray, y: np.ndarray, f: Ideal, box_row: np.ndarray) -> np.ndarray:
    """box_row at x + y omega reduced into the HNF box of f, as
    Ideal.reduce_element does; x and y are overwritten."""
    q = y // f.c
    y -= q * f.c
    x -= q * f.b
    x %= f.a
    y *= f.a
    y += x
    return box_row[y]


@lru_cache(maxsize=None)
def unit_group_mod(field: FieldContext, f: Ideal) -> UnitGroupMod:
    """Generators, orders and discrete logs of (O/f)^x by direct residue enumeration.

    The unit residues are the points x + y omega of the HNF box of f that
    lie in no prime above f, found by one mask over the box.  The group
    law multiplies whole arrays of rows: omega^2 = D omega - nm on the
    residues' (x, y), the same reduction into the box as
    Ideal.reduce_element, and box_row back to rows.  Basis candidates are
    tried in the order of the residues' reprs, which fixes the generators
    that descriptors store exponents on.
    """
    a, c = f.a, f.c
    D, nm = field.D, field.nm
    primes = list(f.factor())
    ys, xs = np.divmod(np.arange(a * c, dtype=np.int64), a)  # y outer, x inner
    unit = np.ones(a * c, dtype=bool)
    for pr in primes:
        unit &= ~_in_ideal(xs, ys, pr)
    xs, ys = xs[unit], ys[unit]
    box_row = np.full(a * c, -1, dtype=np.int64)
    box_row[unit] = np.arange(len(xs))
    expected = f.norm * math.prod(Fraction(pr.norm - 1, pr.norm) for pr in primes)
    if Fraction(len(xs)) != expected:
        raise FactorizationMismatch(f"{len(xs)} units mod {f!r}, expected {expected}")

    xd, nmy = xs + D * ys, nm * ys

    def mul(u, v):
        # (x1 + y1 w)(x2 + y2 w) = x1 x2 - nm y1 y2 + (y1 x2 + (x1 + D y1) y2) w,
        # in place: temporaries the size of the group are costly to allocate
        x2, y2 = xs[v], ys[v]
        y = ys[u] * x2
        y += xd[u] * y2
        x = xs[u] * x2
        x -= nmy[u] * y2
        return _box_rows(x, y, f, box_row)

    # candidates rank as the residues' reprs "(x, y)" sort: by x's decimal
    # string, then y's, as the "," and ")" after them sort before any digit
    y_key = _decimal_key(ys)
    keys = _decimal_key(xs) * (int(y_key.max()) + 1) + y_key
    one = f.reduce_element(field.one)
    gens, orders, vecs = abelian_group_structure(keys, mul, int(box_row[one.y * a + one.x]))
    for arr in (xs, ys, vecs, box_row):
        arr.flags.writeable = False  # shared by every caller of the cached unit group
    return UnitGroupMod(
        field=field,
        f=f,
        gens=tuple((int(xs[g]), int(ys[g])) for g in gens),
        orders=tuple(orders),
        xs=xs,
        ys=ys,
        vecs=vecs,
        box_row=box_row,
    )


def _decimal_key(v: np.ndarray) -> np.ndarray:
    """Keys that sort the non-negative integers v as their decimal strings
    sort: the digits padded on the right to a common width, then the
    length, so that a prefix sorts first."""
    width = len(str(int(v.max())))
    length = np.ones_like(v)
    for j in range(1, width):
        length += v >= 10**j
    return v * 10 ** (width - length) * (width + 1) + length


# ---------------------------------------------------------------------------
# Finite parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePart:
    """Homomorphism (O/f)^x -> mu_M, stored as exponents on the unit group
    generators.

    Every reading of eps goes through unit_exponents, the exponent k(r) of
    eps at each row r of the unit group: a value is one entry, and eps on a
    congruence subgroup is k under a mask of the unit group's one_mod.
    """

    field: FieldContext
    f: Ideal
    M: int
    unit_group: UnitGroupMod
    exps: tuple

    def __post_init__(self):
        if len(self.exps) != len(self.unit_group.orders):
            raise ValueError("need one exponent per unit group generator")
        for k, n in zip(self.exps, self.unit_group.orders):
            if (k * n) % self.M:
                raise ValueError("exponents do not define a homomorphism")

    @cached_property
    def unit_exponents(self) -> np.ndarray:
        """k with eps(r) = zeta_M^k[r] at each row r of the unit group."""
        return _unit_exponents(self.unit_group, self.exps, self.M)

    def exponent_of(self, z: KElt) -> int | None:
        """k with eps(z) = zeta_M^k, or None when z is not coprime to f."""
        x, y = self.unit_group.reduce(z)
        row = self.unit_group.box_row[y * self.f.a + x]
        return None if row < 0 else int(self.unit_exponents[row])

    def exponent_of_fraction(self, w: KElt) -> int:
        """eps extended to w = z/d with d a rational integer coprime to f."""
        d = math.lcm(Fraction(w.x).denominator, Fraction(w.y).denominator)
        num = KElt(self.field, int(w.x * d), int(w.y * d))
        kn = self.exponent_of(num)
        kd = self.exponent_of(KElt(self.field, d, 0))
        if kn is None or kd is None:
            raise ValueError("element not coprime to the conductor")
        return (kn - kd) % self.M

    def is_unit_consistent(self) -> bool:
        """eps(u) * u = 1 for all roots of unity u, checked exactly."""
        wK, M = self.field.wK, self.M
        for u, j in unit_root_table(self.field).items():
            k = self.exponent_of(u)
            if k is None or (k * wK + j * M) % (M * wK):
                return False
        return True

    def is_primitive(self) -> bool:
        """f is the conductor of eps: for each prime P | f, eps is nontrivial
        on the units r = 1 mod f/P, the kernel of (O/f)^x -> (O/(f/P))^x."""
        factors = self.f.factor()
        for pr in factors:
            g = _ideal_from_factors(self.field, {q: e - (q == pr) for q, e in factors.items()})
            if not self.unit_exponents[self.unit_group.one_mod(g)].any():
                return False
        return True

    def restriction_to_integers(self, n: int) -> int | None:
        """kappa_1(n): +1/-1 for eps(n) = 1/-1, None if not coprime or
        eps(n) is not +-1 (reported as order > 2)."""
        k = self.exponent_of(KElt(self.field, n % self.f.a, 0))
        if k is None or 2 * k % self.M:
            return None
        return 1 if k == 0 else -1


def _unit_exponents(ug: UnitGroupMod, exps, M: int) -> np.ndarray:
    """vecs . exps mod M: at every row of ug, the exponent in mu_M of the
    homomorphism that sends generator i to zeta_M^exps[i]."""
    # each entry of vecs is below its generator's order and each exponent below M
    if M * sum(ug.orders) > _INT64_MAX:
        raise PhaseOverflow(f"exponents mod {M} overflow int64 over (O/{ug.f!r})^x")
    k = ug.vecs @ np.array(exps, dtype=np.int64) % M
    k.flags.writeable = False
    return k


def finite_part(field: FieldContext, f: Ideal, exps, M: int | None = None) -> FinitePart:
    ug = unit_group_mod(field, f)
    if M is None:
        M = math.lcm(ug.exponent, field.wK)
    return FinitePart(field=field, f=f, M=M, unit_group=ug, exps=tuple(k % M for k in exps))


def canonical_epsilon(field: FieldContext) -> FinitePart:
    """The quadratic-residue finite part on f = (sqrt(D)) for |D| an odd prime > 3.

    eps(w) = (w mod sqrt(D) | |D|) on the residue field F_|D|; unit consistency
    holds because (-1 | |D|) = -1 for |D| = 3 mod 4 and the only units are +-1.
    Q(sqrt(-3)) has six roots of unity, and a quadratic eps cannot invert
    the sixth ones, so D = -3 needs a finite part supplied explicitly.
    """
    p = -field.D
    if field.D % 2 == 0 or not is_prime(p) or field.wK != 2:
        raise UnsupportedDiscriminant(
            f"no canonical quadratic finite part for D={field.D}; supply one explicitly"
        )
    f = principal_ideal(field, field.sqrt_D)
    ug = unit_group_mod(field, f)
    if ug.orders != (p - 1,):
        raise FactorizationMismatch(f"(O/sqrt(D))^x has orders {ug.orders}, not ({p - 1},)")
    M = math.lcm(p - 1, field.wK)
    # the unique quadratic character of the cyclic group: generator -> -1
    return finite_part(field, f, (M // 2,), M=M)


def gaussian_epsilon(field: FieldContext) -> FinitePart:
    """The canonical finite part for D = -4, conductor (1+i)^3 (norm 8).

    (O/(1+i)^3)^x is cyclic of order 4 generated by the image of the torsion
    units, and unit consistency eps(u) = u^{-1} pins eps down completely.
    """
    if field.D != -4:
        raise UnsupportedDiscriminant("gaussian_epsilon requires D = -4")
    one_plus_i = KElt(field, 3, 1)  # 1 + i = 3 + omega
    f = principal_ideal(field, one_plus_i) ** 3
    ug = unit_group_mod(field, f)
    if ug.orders != (4,):
        raise FactorizationMismatch(f"(O/(1+i)^3)^x has orders {ug.orders}, not (4,)")
    (gen,) = ug.gens
    j = next(j for u, j in unit_root_table(field).items() if ug.reduce(u) == gen)
    # eps(gen) = gen^{-1} in mu_4
    return finite_part(field, f, (-j,), M=4)


# ---------------------------------------------------------------------------
# Exact character values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharValue:
    """Exact value zeta_M^k * q * prod v_i^{e_i}, or zero."""

    char: "HeckeCharacter"
    zero: bool
    k: int
    q: KElt | None
    e: tuple

    @staticmethod
    def zero_value(char) -> "CharValue":
        return CharValue(char=char, zero=True, k=0, q=None, e=())

    def __mul__(self, other: "CharValue") -> "CharValue":
        ch = self.char
        if self.zero or other.zero:
            return CharValue.zero_value(ch)
        k = (self.k + other.k) % ch.M
        q = self.q * other.q
        e = []
        for ei, fi, hi, ki, wi in zip(self.e, other.e, ch.class_orders, ch.base_exps, ch.base_ws):
            s = ei + fi
            t, r = divmod(s, hi)
            if t:
                # v_i^{h_i} = zeta_M^{k_i} * w_i folds back into (k, q)
                k = (k + t * ki) % ch.M
                for _ in range(t):
                    q = q * wi
            e.append(r)
        return CharValue(char=ch, zero=False, k=k, q=q, e=tuple(e))

    def conjugate(self) -> "CharValue":
        """Exact complex conjugate, using conj(v_i) = N(rep_i) / v_i."""
        ch = self.char
        if self.zero:
            return self
        k = (-self.k) % ch.M
        q = self.q.conjugate()
        e = []
        for ei, hi, ki, wi, rep in zip(
            self.e, ch.class_orders, ch.base_exps, ch.base_ws, ch.class_reps
        ):
            if ei == 0:
                e.append(0)
                continue
            # conj(v)^e = N(rep)^e * v^{-e} = N(rep)^e * v^{h-e} / (zeta^k w)
            k = (k - ki) % ch.M
            q = (q * rep.norm**ei) / wi
            e.append(hi - ei)
        return CharValue(char=ch, zero=False, k=k, q=q, e=tuple(e))

    def abs_squared(self) -> Fraction:
        """|value|^2, exact: N(q) * prod N(rep_i)^{e_i}."""
        if self.zero:
            return Fraction(0)
        out = Fraction(self.q.norm())
        for ei, rep in zip(self.e, self.char.class_reps):
            out *= rep.norm**ei
        return out

    def complex(self) -> complex:
        if self.zero:
            return 0j
        out = cmath.exp(2j * cmath.pi * self.k / self.char.M) * self.q.complex()
        for ei, v in zip(self.e, self.char.radicals):
            out *= v**ei
        return out

    def equals_exact(self, other: "CharValue") -> bool:
        """Exact equality within the value algebra (radical exponents must
        already agree; the remaining ambiguity is a root of unity in K)."""
        ch = self.char
        if self.zero or other.zero:
            return self.zero == other.zero
        if self.e != other.e:
            return False
        ratio = self.q / other.q
        table = unit_root_table(ch.field)
        if ratio not in table:
            return False
        j = table[ratio]
        dk = (self.k - other.k) % ch.M
        return (dk * ch.field.wK + j * ch.M) % (ch.M * ch.field.wK) == 0


# ---------------------------------------------------------------------------
# Hecke characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeCharacter:
    """Type (1,0) Hecke character: finite part + exact class values.

    class value v_i = radical root of zeta_M^{base_exps[i]} * base_ws[i],
    rotated by zeta_{h_i}^{root_choices[i]}; radicals holds the numeric
    embeddings.
    """

    field: FieldContext
    eps: FinitePart
    class_reps: tuple        # ideals a_i representing the class group generators
    class_orders: tuple      # h_i
    base_ws: tuple           # w_i with a_i^{h_i} = (w_i), canonical generators
    base_exps: tuple         # k_i = eps-exponent at w_i
    root_choices: tuple      # j_i picking v_i among the h_i roots
    radicals: tuple          # numeric v_i
    twist_data: tuple | None = None   # (c, exponents) when built by twist()

    @property
    def M(self) -> int:
        return self.eps.M

    @property
    def conductor(self) -> Ideal:
        return self.eps.f

    @property
    def conductor_norm(self) -> int:
        return self.eps.f.norm

    @property
    def f_value(self) -> float:
        """f(chi) = sqrt of the conductor norm."""
        return math.sqrt(self.conductor_norm)

    def descriptor(self) -> dict:
        """JSON-serializable exact description of the character."""
        f = self.eps.f
        out = {
            "D": self.field.D,
            "conductor_hnf": [f.a, f.b, f.c],
            "eps_exponents": list(self.eps.exps),
            "eps_M": self.eps.M,
            "root_choices": list(self.root_choices),
        }
        if self.twist_data is not None:
            c, exps = self.twist_data
            out["twist"] = {"c": c, "exponents": list(exps)}
        return out


def _principal_root(z: complex, h: int) -> complex:
    """The h-th root with argument in [0, 2 pi / h)."""
    r = abs(z) ** (1.0 / h)
    arg = cmath.phase(z) % TWO_PI
    return r * cmath.exp(1j * arg / h)


def build_hecke_character(
    field: FieldContext,
    eps: FinitePart,
    root_choices: tuple | None = None,
    twist_data: tuple | None = None,
) -> HeckeCharacter:
    """Character with finite part eps; root_choices picks the Galois lift."""
    if not eps.is_unit_consistent():
        raise UnitInconsistent(
            "eps(u) * u != 1 for some root of unity: no type (1,0) character exists"
        )
    if not eps.is_primitive():
        raise ImprimitiveFinitePart(
            f"eps factors through a proper divisor of {eps.f!r}, which is not its conductor"
        )
    orders = field.class_group().orders
    # reps must avoid the twist modulus too: a dropped conductor (ring class
    # character acting through the class group) must still match rho != 0
    by_class = class_representatives(field, eps.f.norm * (twist_data[0] if twist_data else 1))
    rank = len(orders)  # generator i's representative sits at the i-th unit vector
    reps = tuple(by_class[tuple(int(j == i) for j in range(rank))] for i in range(rank))
    if root_choices is None:
        root_choices = tuple(0 for _ in orders)
    if len(root_choices) != len(orders):
        raise ValueError("one root choice per class group generator required")
    ws, ks, radicals = [], [], []
    for a_i, h_i, j_i in zip(reps, orders, root_choices):
        w = canonical_generator(a_i**h_i)
        if w is None:
            raise NoConsistentLift("generator power is not principal")
        k = eps.exponent_of(w)
        if k is None:
            raise NoConsistentLift("generator power not coprime to the conductor")
        ws.append(w)
        ks.append(k)
        base = cmath.exp(2j * cmath.pi * k / eps.M) * w.complex()
        radicals.append(_principal_root(base, h_i) * cmath.exp(2j * cmath.pi * j_i / h_i))
    return HeckeCharacter(
        field=field,
        eps=eps,
        class_reps=reps,
        class_orders=orders,
        base_ws=tuple(ws),
        base_exps=tuple(ks),
        root_choices=tuple(root_choices),
        radicals=tuple(radicals),
        twist_data=twist_data,
    )


def evaluate_char(char: HeckeCharacter, a: Ideal) -> CharValue:
    """Exact value of the character at an integral ideal (0 off the conductor)."""
    if a.norm == 1:
        return CharValue(char=char, zero=False, k=0, q=char.field.one, e=tuple(0 for _ in char.class_orders))
    if not a.is_coprime(char.eps.f):
        return CharValue.zero_value(char)
    e = ideal_class_of(a)
    c_ideal = a
    denom = 1
    for rep, ei in zip(char.class_reps, e):
        if ei:
            c_ideal = c_ideal * rep.conjugate() ** ei
            denom *= rep.norm**ei
    g = canonical_generator(c_ideal)
    if g is None:
        raise NoConsistentLift(f"class arithmetic left {c_ideal!r} without a generator")
    w = KElt(char.field, Fraction(g.x, denom), Fraction(g.y, denom))
    k = char.eps.exponent_of_fraction(w)
    return CharValue(char=char, zero=False, k=k, q=w, e=e)


# ---------------------------------------------------------------------------
# Property 1: the rational restriction
# ---------------------------------------------------------------------------


def check_property1(char: HeckeCharacter) -> None:
    """Property 1, phi|_Q = kappa_K: kappa_1 = kappa on the integers, kappa_1(-1) = -1.

    Property 1 is equivalent to the equivariance chi(conj a) = conj chi(a);
    this is its exact, finite side.  On an integer n coprime to f,
    chi((n)) = eps(n) n, so the restriction is kappa_K exactly when
    kappa_1(n) = eps(n) equals kappa(n) = (D | n).
    kappa_1 has period a, the least positive integer in f, and kappa has
    period |D|, so one period lcm(a, |D|) decides it.  Ring class twists
    are trivial on (n), so the check on a base character covers its family.
    Raises RestrictionMismatch at the first n that breaks it.
    """
    field, eps = char.field, char.eps
    for n in range(1, math.lcm(eps.f.a, abs(field.D)) + 1):
        if math.gcd(n, eps.f.norm) != 1:
            continue
        k1 = eps.restriction_to_integers(n)
        if k1 != field.kronecker(n):
            raise RestrictionMismatch(
                f"kappa_1({n}) = {k1} but kappa({n}) = {field.kronecker(n)} for D = {field.D}: "
                "phi restricted to Q is not kappa_K"
            )
    if eps.restriction_to_integers(-1 % eps.f.a) != -1:
        raise RestrictionMismatch(f"kappa_1(-1) != -1 for D = {field.D}")


# ---------------------------------------------------------------------------
# Ring class characters and twists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingClassCharacter:
    """Finite order character of Pic(O_c), anticyclotomic by construction."""

    field: FieldContext
    c: int
    exponents: tuple

    @cached_property
    def _pic_orders(self) -> tuple:
        """Orders of the generators of Pic(O_c), computed once per character."""
        return tuple(class_group(self.c * self.c * self.field.D).orders)

    @cached_property
    def order(self) -> int:
        n = 1
        for t, h in zip(self.exponents, self._pic_orders):
            if t % h:
                n = math.lcm(n, h // math.gcd(t, h))
        return n

    @cached_property
    def _value_weights(self) -> tuple[tuple[int, ...], int]:
        """(w, step): rho(a) = zeta_N^(w . dlog(a)) with N the lcm of the Pic(O_c)
        orders, and step = N / order."""
        orders = self._pic_orders
        N = math.lcm(*orders)
        return tuple(t * (N // h) for t, h in zip(self.exponents, orders)), N // self.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def value_exponent(self, a: Ideal) -> int | None:
        """s with rho(a) = zeta_order^s, or None when a is not coprime to c."""
        if math.gcd(a.norm, self.c) != 1:
            return None
        weights, step = self._value_weights
        kN = sum(w * ei for w, ei in zip(weights, ring_class_dlog(self.field, self.c, a)))
        # the value is zeta_N^kN; an order-n character only hits n-th roots
        if kN % step:
            raise NoConsistentLift(
                f"ring class value exponent {kN} is not a multiple of {step}, "
                f"so rho of order {self.order} cannot take it"
            )
        return (kN // step) % self.order

    def value_complex(self, a: Ideal) -> complex:
        s = self.value_exponent(a)
        if s is None:
            return 0j
        return cmath.exp(2j * cmath.pi * s / self.order)


def ring_class_character(
    field: FieldContext, c: int, exponents, allowed_primes=None
) -> RingClassCharacter:
    if allowed_primes is not None:
        for p, _ in factorize(c):
            if p not in allowed_primes:
                raise ConductorNotSupported(f"conductor prime {p} outside {allowed_primes}")
    orders = class_group(c * c * field.D).orders
    exponents = tuple(exponents)
    if len(exponents) != len(orders):
        raise ValueError("need one exponent per ring class group generator")
    return RingClassCharacter(
        field=field, c=c, exponents=tuple(t % h for t, h in zip(exponents, orders))
    )


def _ideal_from_factors(field: FieldContext, factors: dict) -> Ideal:
    out = unit_ideal(field)
    for pr, e in factors.items():
        out = out * pr**e
    return out


def ideal_lcm(a: Ideal, b: Ideal) -> Ideal:
    fa, fb = a.factor(), b.factor()
    out = dict(fa)
    for pr, e in fb.items():
        out[pr] = max(out.get(pr, 0), e)
    return _ideal_from_factors(a.field, out)


def _combined_exponent(phi: HeckeCharacter, rho: RingClassCharacter, Mc: int, w: KElt):
    """Exponent of eps_phi(w) * rho((w)) in mu_Mc for w coprime to both."""
    k1 = phi.eps.exponent_of(w)
    if k1 is None:
        return None
    s = rho.value_exponent(principal_ideal(phi.field, w))
    if s is None:
        return None
    return (k1 * (Mc // phi.M) + s * (Mc // rho.order)) % Mc


def twist(phi: HeckeCharacter, rho: RingClassCharacter) -> HeckeCharacter:
    """The primitive Hecke character inducing phi * rho.

    The combined finite part lives on m = lcm(f(phi), cO) and is read as its
    exponent k at every row of (O/m)^x.  Its conductor is a product of local
    conductors: for each prime P | m, P's exponent drops while k vanishes on
    one_mod of the smaller ideal.  k is then scattered through rows() onto
    (O/f(chi))^x; that every row is hit, each by one exponent, certifies
    that f(chi) is a modulus of the character, and build_hecke_character's
    primitivity check that it is the smallest.
    """
    field = phi.field
    if rho.is_trivial():
        return phi
    m = ideal_lcm(phi.eps.f, Ideal(field, rho.c, 0, rho.c))
    Mc = math.lcm(phi.M, rho.order)
    ug_m = unit_group_mod(field, m)

    # exponent of the combined character on each generator of (O/m)^x
    gen_exps = [_combined_exponent(phi, rho, Mc, KElt(field, *g)) for g in ug_m.gens]
    if None in gen_exps:
        raise NoConsistentLift(f"a generator of (O/{m!r})^x is not a unit for phi and rho")
    k = _unit_exponents(ug_m, gen_exps, Mc)

    # conductor: lower each prime's exponent while U(g) = {1 mod g} stays in the kernel
    local = m.factor()
    for pr in local:
        while local[pr]:
            g = _ideal_from_factors(field, {**local, pr: local[pr] - 1})
            if k[ug_m.one_mod(g)].any():
                break
            local[pr] -= 1
    f_chi = _ideal_from_factors(field, local)

    # restriction to f_chi: every unit mod f_chi, one exponent above each
    ug_f = unit_group_mod(field, f_chi)
    r = ug_f.rows(ug_m.xs, ug_m.ys)
    k_f = np.full(ug_f.order, -1, dtype=np.int64)
    k_f[r] = k
    if (r < 0).any() or (k_f < 0).any() or (k_f[r] != k).any():
        raise NoConsistentLift(f"the twist's finite part does not factor through {f_chi!r}")
    M_new = math.lcm(Mc, field.wK, ug_f.exponent)
    exps = tuple(int(k_f[ug_f.box_row[y * f_chi.a + x]]) * (M_new // Mc) for x, y in ug_f.gens)
    eps_chi = FinitePart(field, f_chi, M_new, ug_f, exps)

    # root choices matching phi(a_i) * rho(a_i) numerically; with no choices
    # given, each radical is the principal root
    base = build_hecke_character(field, eps_chi, twist_data=(rho.c, rho.exponents))
    choices, radicals = [], []
    for a_i, h_i, principal in zip(base.class_reps, base.class_orders, base.radicals):
        target = evaluate_char(phi, a_i).complex() * rho.value_complex(a_i)
        roots = [principal * cmath.exp(2j * cmath.pi * j / h_i) for j in range(h_i)]
        best = min(range(h_i), key=lambda j: abs(roots[j] - target))
        err = abs(roots[best] - target)
        if err >= 1e-6 * max(1.0, abs(target)):
            raise NumericalInstability(f"twisted value {target} is {err:.3g} from every root")
        choices.append(best)
        radicals.append(roots[best])
    return replace(base, root_choices=tuple(choices), radicals=tuple(radicals))


# ---------------------------------------------------------------------------
# Main Lemma conductor quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MainLemmaEntry:
    p: int
    m_p: int
    o_p: int
    n_p: int


@dataclass(frozen=True)
class MainLemmaReport:
    entries: tuple
    mu: int
    h: int
    q: int

    @property
    def bound(self) -> int:
        return 3 + self.mu + self.h

    def entry(self, p: int) -> MainLemmaEntry | None:
        for e in self.entries:
            if e.p == p:
                return e
        return None


def main_lemma_quantities(
    char: HeckeCharacter, mu: int = 2, primes=None
) -> MainLemmaReport:
    """Per-prime conductor exponents m_p, local orders o_p on 1 + p^3 O, and
    the counting exponents n_p = max(0, o_p - mu - h) with q = prod p^{n_p}.

    The bound |m_p/2 - n_p| <= 3 + mu + h is checked for every prime and
    raises MainLemmaViolation when it fails.

    o_p is the order of eps on the residues 1 mod p^3 O + f_p lifted to 1 mod
    the prime-to-p part f_cop of f: the units r = 1 mod h_p = p^3 f_cop + f,
    one mask over (O/f)^x with N(f)/N(h_p) rows.  Their exponents generate a
    cyclic subgroup of mu_M, of order M / gcd(M, their gcd).
    """
    if mu < 1:
        raise ValueError("mu must be a positive integer")
    field = char.field
    f = char.eps.f
    Nf = f.norm
    ps = sorted(primes) if primes is not None else [p for p, _ in factorize(Nf)]
    h = field.h
    f_factors = f.factor()
    ug, k = char.eps.unit_group, char.eps.unit_exponents
    entries = []
    for p in ps:
        m_p = v_p(Nf, p)
        if m_p == 0:
            entries.append(MainLemmaEntry(p=p, m_p=0, o_p=0, n_p=0))
            continue
        f_cop = _ideal_from_factors(field, {pr: e for pr, e in f_factors.items() if pr.norm % p})
        h_p = (Ideal(field, p, 0, p) ** 3 * f_cop).add(f)
        mask = ug.one_mod(h_p)
        if int(mask.sum()) * h_p.norm != Nf:
            raise NoConsistentLift(f"{int(mask.sum())} units = 1 mod {h_p!r} in (O/{f!r})^x")
        order = char.M // math.gcd(char.M, int(np.gcd.reduce(k[mask])))
        o_p = v_p(order, p)
        if order != p**o_p:
            raise MainLemmaViolation(f"restriction to 1 + {p}^3 O has order {order}, not a p-power")
        n_p = max(0, o_p - mu - h)
        if abs(Fraction(m_p, 2) - n_p) > 3 + mu + h:
            raise MainLemmaViolation(f"main lemma bound violated at p={p}: m_p={m_p}, n_p={n_p}")
        entries.append(MainLemmaEntry(p=p, m_p=m_p, o_p=o_p, n_p=n_p))
    q = math.prod(e.p**e.n_p for e in entries)
    return MainLemmaReport(entries=tuple(entries), mu=mu, h=h, q=q)

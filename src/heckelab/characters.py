"""Hecke characters of infinite type (1,0), ring class twists, conductor data.

A character is assembled from two ingredients:

* a finite part: a homomorphism eps on (O/f)^x with values in a fixed
  root-of-unity group mu_M, subject to the unit consistency eps(u)*u = 1
  for every root of unity u in O (necessary and sufficient for a type
  (1,0) character with chi(wO) = eps(w)*w to exist); the base character
  phi of every field takes the one eps that canonical_epsilon searches for;
* one exact class value v_i per class group generator g_i of order h_i,
  an h_i-th root of eps(w_i)*w_i where g_i^{h_i} = (w_i).
  build_hecke_character takes the principal root.  The other roots give
  the same character times a character of Pic(O_K), a c = 1 ring class
  twist, so twist_orbit is the one place a root is chosen: the one that
  matches phi(a_i) rho(a_i).

Values are kept in the exact algebra zeta_M^k * q * prod v_i^{e_i} with
q in K, so |chi(a)|^2 = N(a) and multiplicativity are checkable exactly.

A finite part is read through CRT, (O/f)^x = prod (O/P^a)^x over the
P^a exactly dividing f: eps(r) = zeta_M^(sum_P k_P(r mod P^a)), where
k_P pairs the discrete logs of (O/P^a)^x, which unit_group_mod builds,
with eps_P's exponents by arith.exponent_pairing.  local_unit_groups
joins the parts with the CRT idempotents e_P, so no table over all of
(O/f)^x is built for a composite f.  Twists, their conductors, values,
theta lattices, Gauss sums and the Main Lemma's local orders all read
eps through that sum, and the conductor exponents, primitivity and the
local orders also read each part's levels in the filtration by the
subgroups 1 + P^j (LocalUnitGroups.levels).  A ring class character is
read through the same pairing, of an ideal's class in Pic(O_c) with its
ring_class_weights (RingClassCharacter.value_exponents).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .arith import (
    _INT64_MAX,
    _IndexGroup,
    abelian_group_structure,
    cyclic_generator,
    cyclic_group_structure,
    exponent_pairing,
    factorize,
    v_p,
)
from .errors import (
    DomainError,
    FactorizationMismatch,
    GroupStructureMismatch,
    ImprimitiveFinitePart,
    MainLemmaViolation,
    NoConsistentLift,
    NumericalInstability,
    PhaseOverflow,
    RestrictionMismatch,
    UnitCountMismatch,
    UnitInconsistent,
)
from .quadfield import (
    FieldContext,
    Ideal,
    KElt,
    canonical_generator,
    class_group,
    class_representatives,
    ideal_class_of,
    ideals_by_norm,
    idempotent,
    principal_ideal,
    ring_class_dlog,
    unit_ideal,
)

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# Roots of unity in O, exactly indexed
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def unit_root_table(field: FieldContext) -> dict:
    """Map each torsion unit u to j with u = zeta_wK^j, computed exactly.

    zeta_wK = exp(2 pi i / w_K) is -1 for w_K = 2, and for w_K = 4 or 6 the
    unit with y > 0 and x = 2y, on the upper edge of canonical_generator's
    sector.
    """
    gen = -field.one if field.wK == 2 else next(u for u in field.units() if u.x == 2 * u.y > 0)
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
    discrete logs.  The package builds it for prime powers f = P^a only, as
    the parts of LocalUnitGroups; it works for any f.

    The group is held as int64 arrays with one row per unit residue
    x + y omega of the HNF box 0 <= x < a, 0 <= y < c of f (y outer, x
    inner): xs, ys and vecs, the exponent vector of each residue in the
    generators.  box_row maps a box position y a + x to that row, or -1
    off the units, and rows(xs, ys) finds the rows of arbitrary residues.
    The congruence subgroups 1 + P^j of a part P^a are read off
    LocalUnitGroups.levels.
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
    """Generators, orders and discrete logs of (O/f)^x, on its unit residues.

    The unit residues are the points x + y omega of the HNF box of f that
    lie in no prime above f, found by one mask over the box.  The group
    law multiplies whole arrays of rows: omega^2 = D omega - nm on the
    residues' (x, y), the same reduction into the box as
    Ideal.reduce_element, and box_row back to rows.  Basis candidates are
    tried in the order of the residues' reprs, which fixes the generators
    that descriptors store exponents on.

    For a prime f = P the group is F_q^x, cyclic: cyclic_generator finds a
    generator among the residues multiplied as integer pairs, its powers
    are one span of the group law, and cyclic_group_structure reads off
    them the basis and logs that abelian_group_structure would find.  Any
    other f (the package passes P^a with a >= 2) goes through
    abelian_group_structure.
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
    one_row = int(box_row[one.y * a + one.x])
    if primes != [f]:
        gens, orders, vecs = abelian_group_structure(keys, mul, one_row)
    else:
        # O/P is a field, so (O/P)^x is cyclic; the candidates run from the
        # last row down, so for an inert P the residues off F_p come first
        def pair_mul(u, v):
            (x1, y1), (x2, y2) = u, v
            x, y = x1 * x2 - nm * y1 * y2, y1 * x2 + (x1 + D * y1) * y2
            return ((x - y // c * f.b) % a, y % c)

        n = len(xs)
        candidates = ((int(xs[i]), int(ys[i])) for i in reversed(range(n)))
        g = cyclic_generator(candidates, pair_mul, (one.x, one.y), n)
        if g is None:
            raise GroupStructureMismatch(f"(O/{f!r})^x is not cyclic")
        g_row = int(box_row[g[1] * a + g[0]])
        powers = _IndexGroup(n, mul, one_row).span(np.array([one_row]), g_row, n)
        gens, orders, vecs = cyclic_group_structure(keys, powers)
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
# (O/f)^x as the product of its local groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalUnitGroups:
    """(O/f)^x as the product of the (O/P^a)^x over the P^a exactly dividing f.

    By CRT (Cohen, Advanced Topics in Computational Number Theory, GTM 193,
    4.2), r mod f is the tuple of its residues mod the P^a.  factors lists
    (P, a) in f.factor() order, parts holds unit_group_mod(P^a) for each,
    and idempotents the e_P with e_P = 1 mod P^a and e_P = 0 mod f/P^a.
    rows(xs, ys) gives a batch of residues as one row per part.  The
    generators are the parts' generators r lifted to r e_P + 1 - e_P mod f,
    part by part, with the parts' orders: such a lift is 1 at every other
    part, so an exponent vector on them is the parts' exponent vectors
    side by side.  No array over all of (O/f)^x is formed.
    """

    field: FieldContext
    f: Ideal
    factors: tuple
    parts: tuple
    idempotents: tuple
    gens: tuple
    orders: tuple

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders) if self.orders else 1

    def rows(self, xs, ys) -> np.ndarray:
        """(parts, len(xs)) int64: the rows of the residues x + y omega in
        each part, -1 where one is not a unit mod that part's P^a."""
        return np.array([part.rows(xs, ys) for part in self.parts], dtype=np.int64).reshape(
            len(self.parts), len(xs)
        )

    @cached_property
    def levels(self) -> tuple:
        """Per part (O/P^a)^x, int8: at each row r the largest j <= a with
        r = 1 mod P^j, its place in the filtration by the subgroups
        (1 + P^j)/(1 + P^a) (Neukirch, Algebraic Number Theory, II.5).

        Level j is tested only on the rows that reached level j - 1, one
        mask each, so the build costs about one pass over the part.
        N(P)^(a-j) rows must reach level j for every j >= 1, else
        GroupStructureMismatch.
        """
        out = []
        for (pr, a), part in zip(self.factors, self.parts):
            level = np.zeros(part.order, dtype=np.int8)
            rows = np.arange(part.order)
            for j in range(1, a + 1):
                rows = rows[_in_ideal(part.xs[rows] - 1, part.ys[rows], pr**j)]
                if len(rows) != pr.norm ** (a - j):
                    raise GroupStructureMismatch(f"{len(rows)} units = 1 mod {pr!r}^{j}, a = {a}")
                level[rows] = j
            level.flags.writeable = False
            out.append(level)
        return tuple(out)


def local_unit_groups(field: FieldContext, f: Ideal) -> LocalUnitGroups:
    """The local groups of (O/f)^x, their CRT idempotents and lifted generators.

    Only prime powers reach unit_group_mod; each e_P is one solve of
    quadfield.idempotent, so no residue ring is walked.
    """
    factors = tuple(f.factor().items())
    parts, idempotents, gens, orders = [], [], [], []
    for pr, a in factors:
        q = pr**a
        part = unit_group_mod(field, q)
        rest = _ideal_from_factors(field, {p2: e for p2, e in factors if p2 != pr})
        e = f.reduce_element(idempotent(q, rest))
        for x, y in part.gens:
            g = f.reduce_element(KElt(field, x, y) * e + field.one - e)
            gens.append((g.x, g.y))
        parts.append(part)
        idempotents.append(e)
        orders.extend(part.orders)
    return LocalUnitGroups(
        field=field,
        f=f,
        factors=factors,
        parts=tuple(parts),
        idempotents=tuple(idempotents),
        gens=tuple(gens),
        orders=tuple(orders),
    )


# ---------------------------------------------------------------------------
# Finite parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePart:
    """Homomorphism (O/f)^x -> mu_M, stored as exponents on the generators
    of unit_group, the local generators lifted by CRT.

    eps is the product of its local parts eps_P on (O/P^a)^x.  Every
    reading of eps goes through one sum: local_exponents holds, per part,
    the exponent k_P(r) of eps_P at each of its rows r, and eps at a batch
    of residues is zeta_M^k with k = sum_P k_P[rows_P] (exponents_at).  A value is one
    entry per part, and eps on a congruence subgroup 1 + P^j is one k_P
    where its part's unit_group.levels reach j.
    """

    field: FieldContext
    f: Ideal
    M: int
    unit_group: LocalUnitGroups
    exps: tuple

    def __post_init__(self):
        if len(self.exps) != len(self.unit_group.orders):
            raise GroupStructureMismatch("need one exponent per unit group generator")
        if any(k * n % self.M for k, n in zip(self.exps, self.unit_group.orders)):
            raise GroupStructureMismatch("exponents do not define a homomorphism")

    @cached_property
    def local_exponents(self) -> tuple:
        """Per part (O/P^a)^x, k_P with eps_P(r) = zeta_M^k_P[r] at each row r."""
        out, i = [], 0
        for part in self.unit_group.parts:
            j = i + len(part.orders)
            out.append(_unit_exponents(part, self.exps[i:j], self.M))
            i = j
        return tuple(out)

    def exponents_at(self, rows: np.ndarray) -> np.ndarray:
        """sum_P k_P[rows_P] at the residues of rows, as unit_group.rows gives
        them, every entry a unit row: eps = zeta_M^k there with k that sum,
        which is left unreduced, below len(rows) M."""
        k = np.zeros(rows.shape[1], dtype=np.int64)
        for k_P, r in zip(self.local_exponents, rows):
            k += k_P[r]
        return k

    def exponent_of(self, z: KElt) -> int | None:
        """k with eps(z) = zeta_M^k, or None when z is not coprime to f."""
        k = 0
        for part, k_P in zip(self.unit_group.parts, self.local_exponents):
            x, y = part.reduce(z)
            row = part.box_row[y * part.f.a + x]
            if row < 0:
                return None
            k += int(k_P[row])
        return k % self.M

    def exponent_of_fraction(self, w: KElt) -> int:
        """eps extended to w = z/d with d a rational integer coprime to f."""
        d = math.lcm(Fraction(w.x).denominator, Fraction(w.y).denominator)
        num = KElt(self.field, int(w.x * d), int(w.y * d))
        kn = self.exponent_of(num)
        kd = self.exponent_of(KElt(self.field, d, 0))
        if kn is None or kd is None:
            raise DomainError(f"{w!r} is not coprime to the conductor {self.f!r}")
        return (kn - kd) % self.M

    def is_unit_consistent(self) -> bool:
        """eps(u) * u = 1 for all roots of unity u, checked exactly."""
        wK, M = self.field.wK, self.M
        for u, j in unit_root_table(self.field).items():
            k = self.exponent_of(u)
            if k is None or (k * wK + j * M) % (M * wK):
                return False
        return True

    def conductor_exponents(self) -> tuple:
        """Per P^a || f, the exponent b of P in the conductor of eps: the
        least b with eps_P trivial on 1 + P^b, which is 1 + the largest
        level of a row where k_P != 0, or 0 where eps_P is trivial."""
        return tuple(
            1 + int(np.max(level, where=k_P != 0, initial=-1))
            for level, k_P in zip(self.unit_group.levels, self.local_exponents)
        )

    def is_primitive(self) -> bool:
        """f is the conductor of eps: P's exponent is a at every P^a || f."""
        return self.conductor_exponents() == tuple(a for _, a in self.unit_group.factors)

    def restriction_to_integers(self, n: int) -> int | None:
        """kappa_1(n): +1/-1 for eps(n) = 1/-1, None if not coprime or
        eps(n) is not +-1 (reported as order > 2)."""
        k = self.exponent_of(KElt(self.field, n % self.f.a, 0))
        if k is None or 2 * k % self.M:
            return None
        return 1 if k == 0 else -1


def _unit_exponents(ug: UnitGroupMod, exps, M: int) -> np.ndarray:
    """vecs . exps mod M by exponent_pairing: at every row of ug, the exponent
    in mu_M of the homomorphism that sends generator i to zeta_M^exps[i]."""
    # each entry of vecs is below its generator's order and each exponent below M
    if M * sum(ug.orders) > _INT64_MAX:
        raise PhaseOverflow(f"exponents mod {M} overflow int64 over (O/{ug.f!r})^x")
    k = exponent_pairing(ug.vecs, exps, M)
    k.flags.writeable = False
    return k


def canonical_epsilon(field: FieldContext) -> FinitePart:
    """The finite part of the base character phi of every field, by one rule.

    Walk ideals_by_norm(field), keeping the f whose norm is supported on the
    primes dividing D.  On each f, with M = lcm(exponent of (O/f)^x, w_K),
    try the exponents t_i M / h_i on the generators of local_unit_groups(f),
    of orders h_i, in itertools.product order of t.  Return the first eps
    that restricts to kappa on Z (_kappa_mismatch), is unit consistent and
    is primitive.  The primes of D are enough: Property 1 forces eps = kappa
    on Z, which fixes f's exponent at each ramified prime; a factor at a
    prime q not dividing D is trivial on Z_q^x, so it is a ring class twist,
    which the family already holds, and only adds norm; w_K > 2 only for
    D = -3 and -4, where 3, resp. 2, divides D.  Other root choices differ
    from phi by a character of Pic(O_K), the scan's c = 1 twists, so the
    rule loses no family member.  For D = -p, p prime = 3 mod 4, this is
    Gross's canonical character (Arithmetic on Elliptic Curves with Complex
    Multiplication, LNM 776), the quadratic residue symbol mod sqrt(D).
    """
    for f in ideals_by_norm(field):
        if any(field.D % p for p, _ in factorize(f.norm)):
            continue
        ug = local_unit_groups(field, f)
        M = math.lcm(ug.exponent, field.wK)
        for t in itertools.product(*map(range, ug.orders)):
            eps = FinitePart(field, f, M, ug, tuple(ti * (M // h) for ti, h in zip(t, ug.orders)))
            if _kappa_mismatch(eps) is None and eps.is_unit_consistent() and eps.is_primitive():
                return eps


# the benchmark's workloads name the base character's finite part by either name
gaussian_epsilon = canonical_epsilon


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

    def complex(self) -> complex:
        if self.zero:
            return 0j
        out = cmath.exp(2j * cmath.pi * self.k / self.char.M) * self.q.complex()
        for ei, v in zip(self.e, self.char.radicals):
            out *= v**ei
        return out


# ---------------------------------------------------------------------------
# Hecke characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeCharacter:
    """Type (1,0) Hecke character: finite part + exact class values.

    class value v_i = an h_i-th root of eps(w_i) w_i, where a_i^{h_i} = (w_i)
    with w_i the canonical generator: the principal root rotated by
    zeta_{h_i}^{root_choices[i]}; radicals holds the numeric embeddings.
    """

    field: FieldContext
    eps: FinitePart
    class_reps: tuple        # ideals a_i representing the class group generators
    class_orders: tuple      # h_i
    root_choices: tuple      # j_i picking v_i among the h_i roots
    radicals: tuple          # numeric v_i
    twist_data: tuple | None  # (c, exponents) when built by twist_orbit

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


def build_hecke_character(field: FieldContext, eps: FinitePart) -> HeckeCharacter:
    """Character with finite part eps, every class value the principal root.
    eps must be unit consistent and primitive.  The other root choices are
    this character's twists by the characters of Pic(O_K), the c = 1 twists
    that a family scan builds (canonical_epsilon)."""
    _require_unit_consistent(eps)
    if not eps.is_primitive():
        raise ImprimitiveFinitePart(
            f"eps factors through a proper divisor of {eps.f!r}, which is not its conductor"
        )
    return _assemble(field, eps, _class_lifts(field, eps.f.norm), None)


def _require_unit_consistent(eps: FinitePart) -> None:
    if not eps.is_unit_consistent():
        raise UnitInconsistent(
            "eps(u) * u != 1 for some root of unity: no type (1,0) character exists"
        )


def _class_lifts(field: FieldContext, coprime_to: int) -> tuple[tuple, tuple]:
    """(reps, ws): per class group generator, its first representative a_i
    of norm prime to coprime_to and the canonical generator w_i of a_i^{h_i}."""
    orders = class_group(field.D).orders
    by_class = class_representatives(field, coprime_to)
    rank = len(orders)  # generator i's representative sits at the i-th unit vector
    reps = tuple(by_class[tuple(int(j == i) for j in range(rank))] for i in range(rank))
    ws = tuple(canonical_generator(a_i**h_i) for a_i, h_i in zip(reps, orders))
    if None in ws:
        raise NoConsistentLift("generator power is not principal")
    return reps, ws


def _assemble(
    field: FieldContext, eps: FinitePart, lifts: tuple[tuple, tuple], twist_data: tuple | None
) -> HeckeCharacter:
    """The character of finite part eps and class lifts (reps, ws), every
    class value the principal root; eps is not checked."""
    orders = class_group(field.D).orders
    reps, ws = lifts
    radicals = []
    for w, h_i in zip(ws, orders):
        k = eps.exponent_of(w)
        if k is None:
            raise NoConsistentLift("generator power not coprime to the conductor")
        radicals.append(_principal_root(cmath.exp(2j * cmath.pi * k / eps.M) * w.complex(), h_i))
    return HeckeCharacter(
        field=field,
        eps=eps,
        class_reps=reps,
        class_orders=orders,
        root_choices=tuple(0 for _ in orders),
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
    """Property 1, phi|_Q = kappa_K, else RestrictionMismatch at the first n
    that breaks it.  It is equivalent to the equivariance chi(conj a) =
    conj chi(a); this is its exact, finite side.  Ring class twists are
    trivial on (n), so the check on a base character covers its family."""
    n = _kappa_mismatch(char.eps)
    if n is not None:
        raise RestrictionMismatch(
            f"kappa_1({n}) != kappa({n}) for D = {char.field.D}: phi restricted to Q is not kappa_K"
        )


def _kappa_mismatch(eps: FinitePart) -> int | None:
    """The first integer n coprime to f, -1 tried first, at which
    chi((n)) = eps(n) n has kappa_1(n) = eps(n) != kappa(n) = (D | n), or
    None.  kappa_1 has period a, the least positive integer in f, and kappa
    has period |D|, so one period lcm(a, |D|) decides it."""
    field = eps.field
    if eps.restriction_to_integers(-1) != -1:
        return -1
    for n in range(1, math.lcm(eps.f.a, field.D) + 1):
        if math.gcd(n, eps.f.norm) == 1 and eps.restriction_to_integers(n) != field.kronecker(n):
            return n
    return None


# ---------------------------------------------------------------------------
# Ring class characters and twists
# ---------------------------------------------------------------------------


def ring_class_weights(field: FieldContext, c: int, vectors) -> tuple[np.ndarray, int]:
    """(w, N): the character of Pic(O_c) with exponents t on its generators,
    of orders h_i, is zeta_N^(w . d) at the class of exponents d, with
    N = lcm(h_i) and w_i = t_i N / h_i; one row w per row t of vectors."""
    orders = class_group(c * c * field.D).orders
    N = math.lcm(*orders)
    t = np.array(vectors, dtype=np.int64).reshape(len(vectors), len(orders))
    return t * np.array([N // h for h in orders], dtype=np.int64), N


@dataclass(frozen=True)
class RingClassCharacter:
    """Finite order character of Pic(O_c), anticyclotomic by construction:
    zeta_N^(w . d) at the class of exponents d, with w and N its
    ring_class_weights, read once, and of order N / gcd(N, w)."""

    field: FieldContext
    c: int
    exponents: tuple

    @cached_property
    def _weights(self) -> tuple[np.ndarray, int]:
        (weights,), N = ring_class_weights(self.field, self.c, [self.exponents])
        return weights, N

    @cached_property
    def order(self) -> int:
        weights, N = self._weights
        return N // math.gcd(N, *weights)

    def is_trivial(self) -> bool:
        return self.order == 1

    def value_exponents(self, classes: np.ndarray, ideals: list[Ideal]) -> np.ndarray:
        """s with rho(a) = zeta_order^s at each ideal a, from its class in
        Pic(O_c), a row of classes: rho(a) = zeta_N^k, k its exponent_pairing
        with w.  An order-n character takes only n-th roots, so
        NoConsistentLift names the first a whose k is no multiple of N/n;
        float classes that are not integral give such a k."""
        weights, N = self._weights
        step = N // self.order
        k = exponent_pairing(classes, weights, N)
        bad = np.flatnonzero(k % step)
        if bad.size:
            raise NoConsistentLift(
                f"ring class value exponent {k[bad[0]]:g} of {ideals[bad[0]]!r} is not a"
                f" multiple of {step}, so rho of order {self.order} cannot take it"
            )
        return (k // step).astype(np.int64)

    def value_exponent(self, a: Ideal) -> int | None:
        """value_exponents at one ideal, or None when it is not coprime to c."""
        if math.gcd(a.norm, self.c) != 1:
            return None
        classes = np.array([ring_class_dlog(self.field, self.c, a)], dtype=float)
        return int(self.value_exponents(classes, [a])[0])


def ring_class_character(field: FieldContext, c: int, exponents) -> RingClassCharacter:
    orders = class_group(c * c * field.D).orders
    exponents = tuple(exponents)
    if len(exponents) != len(orders):
        raise ValueError("need one exponent per ring class group generator")
    return RingClassCharacter(field, c, tuple(t % h for t, h in zip(exponents, orders)))


def _ideal_from_factors(field: FieldContext, factors: dict) -> Ideal:
    out = unit_ideal(field)
    for pr, e in factors.items():
        out = out * pr**e
    return out


def ideal_lcm(a: Ideal, b: Ideal) -> Ideal:
    fa, fb = a.factor(), b.factor()
    return _ideal_from_factors(a.field, {pr: max(fa.get(pr, 0), fb.get(pr, 0)) for pr in fa | fb})


def twist(phi: HeckeCharacter, rho: RingClassCharacter) -> HeckeCharacter:
    """The primitive Hecke character inducing phi * rho, a one-member twist_orbit."""
    return twist_orbit(phi, rho, (1,))[0]


def twist_orbit(phi: HeckeCharacter, rho: RingClassCharacter, members) -> list[HeckeCharacter]:
    """The primitive Hecke characters inducing phi * rho^j, one per j in members.

    eps_phi and rho are read once at the lifted local generators of
    m = lcm(f(phi), cO), in mu_Mc with Mc = lcm(M_phi, n, w_K, exponent of
    (O/m)^x) and n = ord(rho): A = k_phi (Mc/M_phi) and, as rho^j =
    zeta_n^(j s) where rho = zeta_n^s, B = s (Mc/n).  Member j is built as
    the FinitePart eps_m on m with exponents A + j B mod Mc, and its
    conductor f_chi is eps_m.conductor_exponents(), read off the levels of
    m's local groups, which the orbit builds once.  When f_chi = m, the
    member's finite part is eps_m, a modulus by construction.  A lowered
    f_chi is restricted at its generators: each generator g of
    local_unit_groups(f_chi) is lifted to z = g e + 1 - e, with e = 1 mod
    f_chi and e = 0 at the primes that dropped out, and eps_chi(g) is
    eps_m(z) divided by Mc/M, M = lcm(M_phi, n, w_K, exponent of
    (O/f_chi)^x).  Two homomorphisms of (O/m)^x that agree on its
    generators are equal, so eps_chi times Mc/M equal to eps_m at every
    generator of m certifies eps_m = eps_chi mod f_chi, else
    NoConsistentLift.  f_chi is the least modulus by the definition of the
    conductor exponents, which is what is_primitive tests, so members skip
    that check; unit consistency is still checked.  Members of one
    conductor share its local groups, lifted generators and class lifts.
    Each j must be prime to n, else DomainError.
    """
    field = phi.field
    if rho.is_trivial():
        return [phi for _ in members]
    n = rho.order
    if any(math.gcd(j, n) != 1 for j in members):
        raise DomainError(f"orbit members {tuple(members)} are not all prime to ord(rho) = {n}")
    m = ideal_lcm(phi.eps.f, Ideal(field, rho.c, 0, rho.c))
    units_m = local_unit_groups(field, m)
    Mc = math.lcm(phi.M, n, field.wK, units_m.exponent)
    gens_m = [KElt(field, *g) for g in units_m.gens]
    A = [phi.eps.exponent_of(w) for w in gens_m]
    B = [rho.value_exponent(principal_ideal(field, w)) for w in gens_m]
    if None in A or None in B:
        raise NoConsistentLift(f"a generator of (O/{m!r})^x is not a unit for phi and rho")
    A, B = [k * (Mc // phi.M) for k in A], [s * (Mc // n) for s in B]
    orders = class_group(rho.c * rho.c * field.D).orders

    by_conductor: dict[tuple, tuple] = {}  # keyed by the exponents of m's primes in f_chi
    at_reps: dict[Ideal, tuple] = {}  # class representative -> (phi value, rho exponent)
    out = []
    for j in members:
        eps_m = FinitePart(field, m, Mc, units_m, tuple((a + j * b) % Mc for a, b in zip(A, B)))
        key = eps_m.conductor_exponents()
        if key not in by_conductor:
            if key == tuple(a for _, a in units_m.factors):
                f_chi, units_f, lifted = m, units_m, None
            else:
                f_chi = _ideal_from_factors(
                    field, {pr: b for (pr, _), b in zip(units_m.factors, key) if b}
                )
                units_f = local_unit_groups(field, f_chi)
                # the e_P of the primes kept: e = 1 mod f_chi and 0 at the dropped ones
                e = sum((e_P for e_P, b in zip(units_m.idempotents, key) if b), KElt(field, 0, 0))
                lifted = [KElt(field, *g) * e + field.one - e for g in units_f.gens]
            # reps avoid the twist modulus too, so rho has a value at each
            lifts = _class_lifts(field, f_chi.norm * rho.c)
            by_conductor[key] = (f_chi, units_f, lifted, lifts)
        f_chi, units_f, lifted, lifts = by_conductor[key]

        if lifted is None:
            eps_chi = eps_m
        else:
            M = math.lcm(phi.M, n, field.wK, units_f.exponent)
            step = Mc // M
            ks = [eps_m.exponent_of(z) for z in lifted]
            if any(k % step for k in ks):
                raise NoConsistentLift(f"eps_m at the generators of {f_chi!r} is not in mu_{M}")
            eps_chi = FinitePart(field, f_chi, M, units_f, tuple(k // step for k in ks))
            if any(eps_chi.exponent_of(g) * step != k for g, k in zip(gens_m, eps_m.exps)):
                raise NoConsistentLift(f"the twist's finite part does not factor through {f_chi!r}")
        _require_unit_consistent(eps_chi)
        exponents = tuple(j * t % h for t, h in zip(rho.exponents, orders))
        base = _assemble(field, eps_chi, lifts, (rho.c, exponents))

        # root choices matching phi(a_i) * rho^j(a_i) numerically
        choices, radicals = [], []
        for a_i, h_i, principal in zip(base.class_reps, base.class_orders, base.radicals):
            if a_i not in at_reps:
                at_reps[a_i] = (evaluate_char(phi, a_i).complex(), rho.value_exponent(a_i))
            phi_a, s = at_reps[a_i]
            target = phi_a * cmath.exp(2j * cmath.pi * (j * s % n) / n)
            roots = [principal * cmath.exp(2j * cmath.pi * i / h_i) for i in range(h_i)]
            best = min(range(h_i), key=lambda i: abs(roots[i] - target))
            err = abs(roots[best] - target)
            if err >= 1e-6 * max(1.0, abs(target)):
                raise NumericalInstability(f"twisted value {target} is {err:.3g} from every root")
            choices.append(best)
            radicals.append(roots[best])
        out.append(replace(base, root_choices=tuple(choices), radicals=tuple(radicals)))
    return out


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


def main_lemma_quantities(char: HeckeCharacter) -> MainLemmaReport:
    """Per-prime conductor exponents m_p, local orders o_p on 1 + p^3 O, and
    the counting exponents n_p = max(0, o_p - mu - h) with q = prod p^{n_p},
    for the primes p of N(f), with p^{m_p} || N(f) and mu = 2.

    The bound |m_p/2 - n_p| <= 3 + mu + h is checked for every prime and
    raises MainLemmaViolation when it fails.

    o_p is the order of eps on the residues 1 mod p^3 O + f_p lifted to 1 mod
    the prime-to-p part of f.  By CRT that subgroup is, at each P^a || f
    over p, the units 1 mod p^3 O + P^a = P^min(a, 3 v_P(p)) of P's part,
    the rows whose level reaches that exponent, and trivial at the other
    parts.  The exponents there generate a cyclic subgroup of mu_M, of
    order M / gcd(M, their gcd).
    """
    field, mu, h = char.field, 2, char.field.h
    units = char.eps.unit_group
    entries = []
    for p, m_p in factorize(char.eps.f.norm):
        g = 0
        for (pr, a), level, k in zip(units.factors, units.levels, char.eps.local_exponents):
            if pr.norm % p:
                continue
            v = 2 if field.kronecker(p) == 0 else 1  # v_P(p): pO = P^2 when p ramifies
            g = math.gcd(g, int(np.gcd.reduce(k[level >= min(a, 3 * v)])))
        order = char.M // math.gcd(char.M, g)
        o_p = v_p(order, p)
        if order != p**o_p:
            raise MainLemmaViolation(f"restriction to 1 + {p}^3 O has order {order}, not a p-power")
        n_p = max(0, o_p - mu - h)
        if abs(Fraction(m_p, 2) - n_p) > 3 + mu + h:
            raise MainLemmaViolation(f"main lemma bound violated at p={p}: m_p={m_p}, n_p={n_p}")
        entries.append(MainLemmaEntry(p=p, m_p=m_p, o_p=o_p, n_p=n_p))
    q = math.prod(e.p**e.n_p for e in entries)
    return MainLemmaReport(entries=tuple(entries), mu=mu, h=h, q=q)

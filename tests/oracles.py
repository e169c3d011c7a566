"""Reference routes the tests compare the package against.

* enumerate_ideals_by_merge, the ideals of norm <= bound built
  multiplicatively from prime ideals and heapq-merged once per prime: the
  reference for quadfield.ideals_by_norm, which builds them norm by norm.
* elements_of_norm, the elements of one norm in an ideal, one norm at a
  time over its HNF basis with an exact square-root test: the reference
  for quadfield.ideal_elements, which lists every norm up to a bound in
  one array walk, and for the roots of unity it gives.
* elements_by_ellipse, is_principal_with_generator and
  canonical_generator_by_phase, the element searches over the ellipse
  nm(x + y omega) = n, every y in range, with the generator picked by its
  float argument: the references for canonical_generator's exact sector
  test.  form_of_ideal and ideal_class_by_form, the form read off an
  O-ideal's own HNF: the reference for ideal_class_of, which reads the
  ideal's contraction at conductor 1.
* abs_squared, equals_exact, value_product, value_conjugate and
  rho_value_complex, with class_value_lifts recomputing v_i^{h_i} from
  the class representatives: |chi(a)|^2, exact equality, products and complex
  conjugates of values in the package's value algebra, and rho(a) as a
  complex number, which the tests check characters with.
* A multiplicative prime sieve for theta coefficients: a_n built from the
  local factors a_{p^e}, which need chi only at the (at most two) prime
  ideals above p.  The package sums Hecke's theta series over lattice
  points instead; this sieve is the independent route that tests feed with
  exact evaluate_char values or with phi(P) rho^m(P).
* The completed L-function Lambda(s, chi) by termwise incomplete gammas,
  the functional-equation reference for the central values.  It needs
  scipy.special, which the package itself never imports.
* The scalar kernel I_v(u), one u at a time with a convergence test per
  term: the reference for the package's array kernel.
* table_dict, which reads a theta table as {n: a_n}.
* finite_part, a finite part from its exponents on the lifted local
  generators, and quadratic_residue_epsilon (D = -p, p = 3 mod 4) and
  gaussian_unit_epsilon (D = -4), the base finite parts built by hand:
  the references that characters.canonical_epsilon's search over the
  ramified conductors must reproduce.
* character_from_descriptor, the character a descriptor names, its class
  values rotated to the descriptor's root choices.
* twist_per_member, the per-character twist: one pass over a global
  dlog table of (O/m)^x, one conductor descent over it and one fully
  checked build_hecke_character per character phi * rho, the reference
  for characters.twist_orbit, which reads the local groups (O/P^a)^x.
  Its conductor_descent, one mask over the global table per step, is
  also the reference for FinitePart.conductor_exponents, which reads the
  local groups' levels.
* global_unit_exponents, eps at every residue of the global table
  unit_group_mod(f) of a composite f, from eps at that table's own
  generators; the reference for FinitePart's sum over its local parts.
* coset_reps, the box transversal of big/sub for nested HNF lattices, and
  one_mod_f_in_c_by_search, the E in c with E = 1 mod f found by walking
  the transversal of f/fc: the reference for quadfield.idempotent(f, c),
  the lattice solve that rootnumber.gauss_data takes E from.
* global_gauss_sum, the Gauss sum as one pass over that global table with
  the N(f)-long additive phase and the searched E: the reference for
  rootnumber._gauss_sum, which multiplies local sums over the (O/P^a)^x.
* local_part_twists, every twist of conductor exactly c of the families
  LOCAL_PART_FAMILIES, on which the two references above are compared
  with the local parts.
* dropdown_kernel_by_search, generators of the kernel of
  Pic(O_c) -> Pic(O_{c/p}) from the classes of the first ideals, in
  (norm, HNF) order, that are trivial in Pic(O_{c/p}), grown until their
  subgroup closure reaches h(O_c)/h(O_{c/p}); and exact_conductor_by_search,
  which tests each character against those generators one by one: the
  reference for family._exact_conductor, which reads the kernel off the p
  elements 1 + (c/p)(x + omega) and tests every character at once.
* minkowski_bound, the bound below which every ideal class has an ideal:
  the composition-free class-number reference.
"""

from __future__ import annotations

import cmath
import heapq
import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

import numpy as np

from heckelab.arith import factorize, is_prime
from heckelab.characters import (
    CharValue,
    FinitePart,
    HeckeCharacter,
    RingClassCharacter,
    _assemble,
    _class_lifts,
    _ideal_from_factors,
    _in_ideal,
    _unit_exponents,
    build_hecke_character,
    canonical_epsilon,
    evaluate_char,
    ideal_lcm,
    local_unit_groups,
    twist_orbit,
    unit_group_mod,
    unit_root_table,
)
from heckelab.errors import (
    DomainError,
    NoConsistentLift,
    NoCRTLift,
    NonPositiveArgument,
    NumericalInstability,
)
from heckelab.family import enumerate_twists
from heckelab.lseries import ThetaTable, theta_coeffs, theta_lattice, truncation
from heckelab.quadfield import (
    BinaryForm,
    FieldContext,
    Ideal,
    KElt,
    class_group,
    ideals_by_norm,
    make_field,
    prime_ideals_above,
    principal_ideal,
    ring_class_dlog,
    unit_ideal,
)
from heckelab.rootnumber import GaussData

# chi at a prime ideal P, as a complex number
PrimeValues = Callable[[Ideal], complex]

_EULER_GAMMA = 0.5772156649015328606


def table_dict(table: ThetaTable) -> dict[int, complex]:
    """A theta table as {n: a_n}, in ascending n."""
    return dict(zip(table.n.tolist(), table.a.tolist()))


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


def enumerate_ideals_by_merge(field: FieldContext, bound: int) -> list[Ideal]:
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


def elements_by_ellipse(field: FieldContext, n: int) -> list[KElt]:
    """Every x + y omega of norm n, the integer points of the ellipse
    (2x + D y)^2 + |D| y^2 = 4n walked over every y in range, sorted by (y, x).
    At n = 1 these are the roots of unity."""
    out = []
    ymax = math.isqrt(4 * n // -field.D)
    for y in range(-ymax, ymax + 1):
        disc = 4 * n + field.D * y * y
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sgn in ((r, -r) if r else (0,)):
            num = -field.D * y + sgn
            if num % 2 == 0:
                out.append(KElt(field, num // 2, y))
    return sorted(out, key=lambda z: (z.y, z.x))


def elements_of_norm(J: Ideal, n: int) -> list[KElt]:
    """Every g in J with N(g) = n, in ascending (y, x) order, one norm at a time.

    g = u a + v (b + c omega) on J's HNF basis has y = v c, and
    4n = (2x + D y)^2 + |D| y^2 bounds |y| by sqrt(4n/|D|), so v runs over
    |v| <= isqrt(4n/|D|) / c.  Each y leaves x = (-D y -+ r)/2 with
    r^2 = 4n + D y^2, kept when it is an integer and x = v b mod a.
    """
    field, D = J.field, J.field.D
    vmax = math.isqrt(4 * n // -D) // J.c
    out = []
    for v in range(-vmax, vmax + 1):
        y = v * J.c
        disc = 4 * n + D * y * y
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for num in ((-r - D * y, r - D * y) if r else (-D * y,)):
            if num % 2 == 0 and (num // 2 - v * J.b) % J.a == 0:
                out.append(KElt(field, num // 2, y))
    return out


def is_principal_with_generator(ideal: Ideal) -> KElt | None:
    """A generator of the ideal if principal, else None: the first point of
    norm N(ideal) on the ellipse that the ideal contains, since equality of
    norms then forces equality of ideals."""
    points = elements_by_ellipse(ideal.field, ideal.norm)
    return next((z for z in points if ideal.contains(z)), None)


def canonical_generator_by_phase(ideal: Ideal) -> KElt | None:
    """The unit multiple of is_principal_with_generator's generator with the
    least float argument in [0, 2 pi), ties within 1e-12 to the first."""
    z = is_principal_with_generator(ideal)
    if z is None:
        return None
    best, best_arg = None, None
    for u in elements_by_ellipse(ideal.field, 1):
        w = z * u
        arg = cmath.phase(w.complex()) % (2 * math.pi)
        if best is None or arg < best_arg - 1e-12:
            best, best_arg = w, arg
    return best


def form_of_ideal(ideal: Ideal) -> BinaryForm:
    """Reduced form of discriminant D read off the ideal's own HNF."""
    f = ideal.field
    ap, bp = ideal.a // ideal.c, ideal.b // ideal.c
    A = ap
    B = 2 * bp + f.D
    C = (bp * bp + f.D * bp + f.nm) // ap
    return BinaryForm(A, B, C).reduced()


def ideal_class_by_form(ideal: Ideal) -> tuple[int, ...]:
    """The class vector of form_of_ideal on the class group of D."""
    return class_group(ideal.field.D).dlog_of(form_of_ideal(ideal))


def abs_squared(value: CharValue) -> Fraction:
    """|value|^2 of an exact character value: N(q) * prod N(rep_i)^{e_i}."""
    if value.zero:
        return Fraction(0)
    out = Fraction(value.q.norm())
    for ei, rep in zip(value.e, value.char.class_reps):
        out *= rep.norm**ei
    return out


def equals_exact(value: CharValue, other: CharValue) -> bool:
    """Exact equality within the value algebra (radical exponents must
    already agree; the remaining ambiguity is a root of unity in K)."""
    ch = value.char
    if value.zero or other.zero:
        return value.zero == other.zero
    if value.e != other.e:
        return False
    ratio = value.q / other.q
    table = unit_root_table(ch.field)
    if ratio not in table:
        return False
    j = table[ratio]
    dk = (value.k - other.k) % ch.M
    return (dk * ch.field.wK + j * ch.M) % (ch.M * ch.field.wK) == 0


def class_value_lifts(ch: HeckeCharacter) -> tuple[tuple, tuple]:
    """(ws, ks): per class group generator, the canonical generator w_i of
    a_i^{h_i} and k_i with eps(w_i) = zeta_M^{k_i}, so v_i^{h_i} = zeta_M^{k_i} w_i.

    The representatives a_i avoid the conductor and, for a twist, its c, as
    the package chose them.
    """
    c = ch.twist_data[0] if ch.twist_data else 1
    reps, ws = _class_lifts(ch.field, ch.conductor_norm * c)
    if reps != ch.class_reps:
        raise NoConsistentLift(f"class representatives {reps} are not the character's")
    return ws, tuple(ch.eps.exponent_of(w) for w in ws)


def value_product(value: CharValue, other: CharValue) -> CharValue:
    """The exact product of two values of one character."""
    ch = value.char
    if value.zero or other.zero:
        return CharValue.zero_value(ch)
    k = (value.k + other.k) % ch.M
    q = value.q * other.q
    e = []
    ws, ks = class_value_lifts(ch)
    for ei, fi, hi, ki, wi in zip(value.e, other.e, ch.class_orders, ks, ws):
        t, r = divmod(ei + fi, hi)
        if t:
            # v_i^{h_i} = zeta_M^{k_i} * w_i folds back into (k, q)
            k = (k + t * ki) % ch.M
            for _ in range(t):
                q = q * wi
        e.append(r)
    return CharValue(char=ch, zero=False, k=k, q=q, e=tuple(e))


def value_conjugate(value: CharValue) -> CharValue:
    """The exact complex conjugate of a value, using conj(v_i) = N(rep_i) / v_i."""
    ch = value.char
    if value.zero:
        return value
    k = (-value.k) % ch.M
    q = value.q.conjugate()
    e = []
    ws, ks = class_value_lifts(ch)
    for ei, hi, ki, wi, rep in zip(value.e, ch.class_orders, ks, ws, ch.class_reps):
        if ei == 0:
            e.append(0)
            continue
        # conj(v)^e = N(rep)^e * v^{-e} = N(rep)^e * v^{h-e} / (zeta^k w)
        k = (k - ki) % ch.M
        q = (q * rep.norm**ei) / wi
        e.append(hi - ei)
    return CharValue(char=ch, zero=False, k=k, q=q, e=tuple(e))


def rho_value_complex(rho: RingClassCharacter, ideal: Ideal) -> complex:
    """rho(ideal) as a complex number, 0 where the ideal meets c."""
    s = rho.value_exponent(ideal)
    if s is None:
        return 0j
    return cmath.exp(2j * cmath.pi * s / rho.order)


def multiplicative_table(bound: int, local, dtype, columns: int) -> np.ndarray:
    """Rows f(0), f(1), ..., f(bound) of multiplicative functions, one per column.

    Row f(n) holds `columns` values, each column a multiplicative function
    of its own, and f(0) is the zero row.  local(p, emax) lists the rows
    f(1), f(p), ..., f(p^emax) for the largest emax with p^emax <= bound;
    it is called once per prime p <= bound.  Each prime scales the rows of
    its multiples in place, so the sieve costs O(bound log log bound)
    array updates, and every column gets the products the one-column sieve
    would form, in the same order.
    """
    out = np.ones((bound + 1, columns), dtype=dtype)
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
        factors = np.full((bound // p, columns), values[1], dtype=dtype)
        step = p
        for e in range(2, emax + 1):
            factors[step - 1 :: step] = values[e]
            step *= p
        out[p::p] *= factors
    return out


def ideal_count_local(field: FieldContext, p: int, emax: int) -> list[int]:
    """Number of ideals of norm p^e for e = 0..emax."""
    k = field.kronecker(p)
    if k == 1:
        return [e + 1 for e in range(emax + 1)]
    if k == 0:
        return [1] * (emax + 1)
    return [1 - e % 2 for e in range(emax + 1)]


def _local_coeffs(
    field: FieldContext, prime_values: PrimeValues, p: int, emax: int
) -> list[complex]:
    """a_{p^e} for e = 0..emax, from chi at the prime ideals above p."""
    primes = prime_ideals_above(field, p)
    if len(primes) == 2:
        # split: sum over i + j = e of chi(P)^i chi(conj P)^j
        x, y = (prime_values(pr) for pr in primes)
        out, ye = [1 + 0j], 1 + 0j
        for _ in range(emax):
            ye *= y
            out.append(x * out[-1] + ye)
        return out
    if field.kronecker(p) == -1:
        # inert: one ideal (p)^(e/2) of norm p^e for even e, none for odd e
        if emax < 2:
            return [1 + 0j, 0j]
        z = prime_values(primes[0])
        return [z ** (e // 2) if e % 2 == 0 else 0j for e in range(emax + 1)]
    # ramified: P^e is the one ideal of norm p^e
    z = prime_values(primes[0])
    out = [1 + 0j]
    for _ in range(emax):
        out.append(out[-1] * z)
    return out


def count_and_coeff_table(field: FieldContext, X: int, prime_values: PrimeValues) -> np.ndarray:
    """Rows (number of ideals of norm n, a_n) for n = 0..X, from one sieve."""

    def local(p, emax):
        counts = ideal_count_local(field, p, emax)
        return list(zip(counts, _local_coeffs(field, prime_values, p, emax)))

    return multiplicative_table(X, local, complex, 2)


def sieve_theta_coeffs(
    field: FieldContext, X: int, prime_values: PrimeValues
) -> dict[int, complex]:
    """theta_coeffs' table by the sieve: a_n at every n <= X that is an ideal norm."""
    table = count_and_coeff_table(field, X, prime_values)
    keys = np.flatnonzero(table[:, 0])
    return dict(zip(keys.tolist(), table[keys, 1].tolist()))


def incomplete_gamma(s: float, u: float) -> float:
    """Upper incomplete Gamma(s, u) = integral_u^inf e^{-t} t^{s-1} dt, 0 < s < 2.

    scipy.special is imported here, at its only use, so that importing the
    package does not pay for it.
    """
    from scipy.special import gammaincc

    if not 0.0 < s < 2.0:
        raise DomainError(f"s must lie in (0, 2), got {s}")
    if u <= 0:
        raise DomainError(f"u must be positive, got {u}")
    return float(gammaincc(s, u)) * math.gamma(s)


def lambda_value(chi: HeckeCharacter, s: float, w: float | None = None) -> float:
    """Completed Lambda(s, chi) on 0.2 <= s <= 1.8 by termwise incomplete gammas."""
    if not 0.2 <= s <= 1.8:
        raise DomainError(f"s must lie in [0.2, 1.8], got {s}")
    if w is None:
        from heckelab.rootnumber import root_number

        w = root_number(chi)
    Af = chi.field.A * chi.f_value
    X = int(truncation(Af, 1e-13) + 10.0 * Af)
    table = theta_coeffs(chi, X, theta_lattice(chi, X))
    terms = []
    for n, a in table_dict(table).items():
        u = n / Af
        g = (Af / n) ** s * incomplete_gamma(s, u)
        gdual = (Af / n) ** (2.0 - s) * incomplete_gamma(2.0 - s, u)
        terms.append(a * (g + w * gdual))
    re, im = math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    if abs(im) > 1e-10 * (1.0 + abs(re)) * max(1.0, Af**2):
        raise NumericalInstability(f"completed L-value has imaginary residue {im}")
    return re


def kernel_I(v: int, u: float) -> float:
    """I_0(u) = e^{-u}; I_1(u) = E_1(u) = integral_u^inf e^{-t} dt/t.

    E_1 uses the alternating power series below u = 1 and a modified
    Lentz continued fraction above, both to 1e-14 relative.  The bound
    0 < I_1(u) <= e^{-u} is enforced for u >= 1.
    """
    if u <= 0:
        raise NonPositiveArgument(f"kernel argument must be positive, got {u}")
    if v == 0:
        return math.exp(-u)
    if v != 1:
        raise ValueError(f"kernel order must be 0 or 1, got {v}")
    if u < 1.0:
        # E_1(u) = -gamma - log u + sum_{k>=1} (-1)^{k+1} u^k / (k k!)
        acc = -_EULER_GAMMA - math.log(u)
        term = 1.0
        for k in range(1, 80):
            term *= -u / k
            delta = -term / k
            acc += delta
            if abs(delta) < 1e-18 * max(1.0, abs(acc)):
                break
        return acc
    # modified Lentz for E_1(u) = e^{-u} / (u + 1 - 1/(u + 3 - 4/(u + 5 - ...)))
    tiny = 1e-300
    b = u + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    out = h * math.exp(-u)
    if not 0.0 < out <= math.exp(-u):
        raise NumericalInstability(f"E_1({u}) = {out} escaped its bracket")
    return out


def finite_part(field: FieldContext, f: Ideal, exps, M: int | None = None) -> FinitePart:
    """The finite part on f with exponents exps on local_unit_groups(f).gens,
    in mu_M with M = lcm(exponent of (O/f)^x, w_K) unless given."""
    ug = local_unit_groups(field, f)
    if M is None:
        M = math.lcm(ug.exponent, field.wK)
    return FinitePart(field=field, f=f, M=M, unit_group=ug, exps=tuple(k % M for k in exps))


def quadratic_residue_epsilon(field: FieldContext) -> FinitePart:
    """Gross's canonical finite part for D = -p, p prime = 3 mod 4, by hand:
    eps(w) = (w mod sqrt(D) | p) on the residue field F_p of f = (sqrt(D)).

    Unit consistency holds because (-1 | p) = -1 and the only units are
    +-1.  The unique quadratic character of the cyclic group sends its
    generator to -1.
    """
    p = -field.D
    if field.D % 2 == 0 or not is_prime(p) or field.wK != 2:
        raise ValueError(f"D = {field.D} is not -p for a prime p = 3 mod 4 above 3")
    f = principal_ideal(field, field.sqrt_D)
    assert unit_group_mod(field, f).orders == (p - 1,)
    M = math.lcm(p - 1, field.wK)
    return finite_part(field, f, (M // 2,), M=M)


def gaussian_unit_epsilon(field: FieldContext) -> FinitePart:
    """The finite part for D = -4 by hand, on f = (1+i)^3 of norm 8.

    (O/(1+i)^3)^x is cyclic of order 4, generated by the image of the
    torsion units, and unit consistency eps(u) = u^-1 pins eps down.
    """
    if field.D != -4:
        raise ValueError("the Gaussian finite part needs D = -4")
    f = principal_ideal(field, KElt(field, 3, 1)) ** 3  # 1 + i = 3 + omega
    ug = unit_group_mod(field, f)
    assert ug.orders == (4,)
    (gen,) = ug.gens
    j = next(j for u, j in unit_root_table(field).items() if ug.reduce(u) == gen)
    return finite_part(field, f, (-j,), M=4)


def combined_exponent(phi: HeckeCharacter, rho: RingClassCharacter, Mc: int, w: KElt):
    """Exponent of eps_phi(w) * rho((w)) in mu_Mc for w coprime to both."""
    k1 = phi.eps.exponent_of(w)
    if k1 is None:
        return None
    s = rho.value_exponent(principal_ideal(phi.field, w))
    if s is None:
        return None
    return (k1 * (Mc // phi.M) + s * (Mc // rho.order)) % Mc


def conductor_descent(field: FieldContext, m: Ideal, k: np.ndarray, ug_m) -> dict:
    """Exponents of the conductor of k on (O/m)^x: each prime's exponent
    drops while k vanishes on the units 1 mod the smaller ideal, one mask
    over the global table each."""
    local = m.factor()
    for pr in local:
        while local[pr]:
            g = _ideal_from_factors(field, {**local, pr: local[pr] - 1})
            if k[_in_ideal(ug_m.xs - 1, ug_m.ys, g)].any():
                break
            local[pr] -= 1
    return local


def twist_per_member(phi: HeckeCharacter, rho: RingClassCharacter) -> HeckeCharacter:
    """The primitive Hecke character inducing phi * rho, built on its own.

    The combined exponent comes from eps_phi and rho at each generator of
    the global table (O/m)^x, m = lcm(f(phi), cO); its conductor from
    conductor_descent over that table; its finite part from a scatter onto
    the global table of (O/f(chi))^x, read at the lifted local generators
    that finite parts store exponents on; and the character from
    build_hecke_character, whose primitivity check certifies the descent.
    The roots are those nearest phi(a_i) rho(a_i).
    """
    field = phi.field
    if rho.is_trivial():
        return phi
    m = ideal_lcm(phi.eps.f, Ideal(field, rho.c, 0, rho.c))
    Mc = math.lcm(phi.M, rho.order)
    ug_m = unit_group_mod(field, m)
    gen_exps = [combined_exponent(phi, rho, Mc, KElt(field, *g)) for g in ug_m.gens]
    if None in gen_exps:
        raise NoConsistentLift(f"a generator of (O/{m!r})^x is not a unit for phi and rho")
    k = _unit_exponents(ug_m, gen_exps, Mc)
    f_chi = _ideal_from_factors(field, conductor_descent(field, m, k, ug_m))

    ug_f = unit_group_mod(field, f_chi)
    r = ug_f.rows(ug_m.xs, ug_m.ys)
    k_f = np.full(ug_f.order, -1, dtype=np.int64)
    k_f[r] = k
    if (r < 0).any() or (k_f < 0).any() or (k_f[r] != k).any():
        raise NoConsistentLift(f"the twist's finite part does not factor through {f_chi!r}")
    M_new = math.lcm(Mc, field.wK, ug_f.exponent)
    gen_rows = [int(ug_f.rows([x], [y])[0]) for x, y in local_unit_groups(field, f_chi).gens]
    exps = tuple(int(k_f[row]) * (M_new // Mc) for row in gen_rows)
    eps_chi = finite_part(field, f_chi, exps, M=M_new)

    # the full build's unit-consistency and primitivity checks certify the descent
    base = _checked_twist_build(eps_chi, (rho.c, rho.exponents))
    choices, radicals = [], []
    for a_i, h_i, principal in zip(base.class_reps, base.class_orders, base.radicals):
        target = evaluate_char(phi, a_i).complex() * rho_value_complex(rho, a_i)
        roots = [principal * cmath.exp(2j * cmath.pi * j / h_i) for j in range(h_i)]
        best = min(range(h_i), key=lambda j: abs(roots[j] - target))
        if abs(roots[best] - target) >= 1e-6 * max(1.0, abs(target)):
            raise NumericalInstability(f"twisted value {target} is far from every root")
        choices.append(best)
        radicals.append(roots[best])
    return replace(base, root_choices=tuple(choices), radicals=tuple(radicals))


def _checked_twist_build(eps: FinitePart, twist_data: tuple | None) -> HeckeCharacter:
    """build_hecke_character(eps), which checks eps, with the class
    representatives of a twist of modulus c = twist_data[0], which also avoid c."""
    chi = build_hecke_character(eps.field, eps)
    if twist_data is None:
        return chi
    lifts = _class_lifts(eps.field, eps.f.norm * twist_data[0])
    return _assemble(eps.field, eps, lifts, twist_data)


def character_from_descriptor(desc: dict) -> HeckeCharacter:
    """The character a descriptor names: the checked build on its finite part,
    with a twist's class representatives, each class value the principal root
    rotated by zeta_{h_i}^{root_choices[i]}."""
    field = make_field(desc["D"])
    eps = finite_part(
        field, Ideal(field, *desc["conductor_hnf"]), desc["eps_exponents"], M=desc["eps_M"]
    )
    tw = desc.get("twist")
    chi = _checked_twist_build(eps, (tw["c"], tuple(tw["exponents"])) if tw else None)
    choices = tuple(desc["root_choices"])
    radicals = tuple(
        v * cmath.exp(2j * cmath.pi * j / h)
        for v, j, h in zip(chi.radicals, choices, chi.class_orders)
    )
    return replace(chi, root_choices=choices, radicals=radicals)


def global_unit_exponents(eps: FinitePart):
    """(ug, k): the global table ug = unit_group_mod(eps.f) and eps at its
    every row, as vecs . (eps at ug's own generators) mod M.

    Only eps's values at ug.gens are read from the finite part, one
    exponent_of each; the rest is the global table's dlogs.
    """
    ug = unit_group_mod(eps.field, eps.f)
    at_gens = [eps.exponent_of(KElt(eps.field, *g)) for g in ug.gens]
    return ug, _unit_exponents(ug, at_gens, eps.M)


def local_matches_global(eps: FinitePart) -> bool:
    """eps read through its local parts equals the global-table route at
    every unit residue mod eps.f."""
    ug, k = global_unit_exponents(eps)
    rows = eps.unit_group.rows(ug.xs, ug.ys)
    return bool((rows >= 0).all()) and (eps.exponents_at(rows) % eps.M).tobytes() == k.tobytes()


def coset_reps(big: Ideal, sub: Ideal):
    """Box transversal of big/sub for nested HNF lattices (sub inside big)."""
    field = big.field
    if sub.a % big.a or sub.c % big.c:
        raise ValueError("not a nested pair of HNF lattices")
    for s in range(sub.a // big.a):
        for r in range(sub.c // big.c):
            yield KElt(field, s * big.a + r * big.b, r * big.c)


def one_mod_f_in_c_by_search(f: Ideal, c: Ideal) -> KElt:
    """E in c with E = 1 mod f, as E = 1 + t for the t in f/fc with 1 + t in c.

    Such t exists exactly when c + f = O and is then unique mod fc, so the
    search visits at most N(c) residues.
    """
    one = f.field.one
    for t in coset_reps(f, f * c):
        if c.contains(one + t):
            return one + t
    raise NoCRTLift(f"no E in {c!r} with E = 1 mod {f!r}")


def global_gauss_sum(chi: HeckeCharacter, gauss: GaussData) -> complex:
    """The Gauss sum of rootnumber._gauss_sum as one pass over (O/f)^x.

    u = E conj(delta b) with E = one_mod_f_in_c_by_search(f, gauss.c), so
    not the E of gauss_data; the additive phase (x Tr(u) + y Tr(omega u))
    mod N at every residue x + y omega of the global table, and eps there
    from global_unit_exponents; the terms are counted per exact phase mod
    L = lcm(M, N), as the package does.
    """
    field, f = chi.field, chi.conductor
    db = field.sqrt_D * gauss.b
    N, M = db.norm(), chi.M
    u = one_mod_f_in_c_by_search(f, gauss.c) * db.conjugate()
    ug, k = global_unit_exponents(chi.eps)
    phase = (ug.xs * (u.trace() % N) + ug.ys * ((KElt(field, 0, 1) * u).trace() % N)) % N
    L = math.lcm(M, N)
    j = (phase * (L // N) + k * (L // M)) % L
    phases, counts = np.unique(j, return_counts=True)
    return sum(
        n * cmath.exp(2j * cmath.pi * p / L) for p, n in zip(phases.tolist(), counts.tolist())
    )


def subgroup_closure(vectors: list[tuple[int, ...]], orders: tuple[int, ...]) -> set:
    """The subgroup of Z/orders[0] x Z/orders[1] x ... that vectors generate, breadth first."""
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for v in vectors:
            nxt = tuple((b + x) % h for b, x, h in zip(base, v, orders))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def dropdown_kernel_by_search(field: FieldContext, c: int, p: int) -> list[tuple[int, ...]]:
    """Generators of ker(Pic(O_c) -> Pic(O_{c/p})) as dlog vectors, by an ideal search.

    Walks ideals_by_norm and keeps the classes in Pic(O_c) of the ideals
    coprime to c that are trivial in Pic(O_{c/p}), until they generate a
    subgroup of order h(O_c)/h(O_{c/p}).
    """
    sub = c // p
    orders = class_group(c * c * field.D).orders
    want = class_group(c * c * field.D).h // class_group(sub * sub * field.D).h
    found: list[tuple[int, ...]] = []
    if want == 1:
        return found
    for ideal in ideals_by_norm(field):
        if ideal.norm == 1 or math.gcd(ideal.norm, c) != 1:
            continue
        if any(ring_class_dlog(field, sub, ideal)):
            continue
        vec = tuple(ring_class_dlog(field, c, ideal))
        if any(vec) and vec not in found:
            found.append(vec)
            if len(subgroup_closure(found, orders)) >= want:
                return found


def exact_conductor_by_search(field: FieldContext, c: int, vectors) -> list[bool]:
    """For each exponent vector of Pic(O_c): whether no prime p | c has its
    character trivial on every generator of dropdown_kernel_by_search(c, p)."""
    orders = class_group(c * c * field.D).orders
    N = math.lcm(*orders)

    def exponent(vec, kernel_vec):
        return sum(t * e * (N // h) for t, e, h in zip(vec, kernel_vec, orders)) % N

    kernels = [dropdown_kernel_by_search(field, c, p) for p, _ in factorize(c)]
    return [
        not any(all(exponent(vec, k) == 0 for k in kernel) for kernel in kernels)
        for vec in vectors
    ]


def minkowski_bound(disc: int) -> int:
    return math.floor(2 * math.sqrt(-disc) / math.pi)


# (D, P, c): inert primes (3 over Q(i)), split ones with P and conj(P) both
# in f, the ramified (1+i) at exponents up to 8, and h = 3 (D = -23)
LOCAL_PART_FAMILIES = [
    (-4, (5,), 125),
    (-4, (5, 13), 65),
    (-4, (3,), 27),
    (-4, (3,), 81),
    (-4, (2, 5), 40),
    (-4, (2,), 32),
    (-23, (2, 3), 72),
    (-7, (2, 3), 12),
]


def local_part_twists():
    """(label, chi) for every member of every twist orbit of conductor
    exactly c in LOCAL_PART_FAMILIES, over the canonical base character."""
    for D, P, c in LOCAL_PART_FAMILIES:
        field = make_field(D)
        eps = canonical_epsilon(field)
        phi = build_hecke_character(field, eps)
        for orbit in enumerate_twists(field, P, c):
            if orbit.c == c:
                for m, chi in zip(orbit.members, twist_orbit(phi, orbit.rho, orbit.members)):
                    yield f"D={D} c={c} {orbit.exponents} m={m}", chi

"""Smoothed L-values for type (1,0) characters.

The completed function Lambda(s) = Gamma(s) (Af)^s L(s, chi) with
A = sqrt(|D|)/(2 pi) and f = sqrt(N(conductor)) satisfies
Lambda(s) = W Lambda(2-s).  Unfolding the theta integral termwise gives

    L^(v)(1, chi) = 2 sum_a chi(a) Na^{-1} I_v(Na / (Af))

where I_0(u) = e^{-u} and I_1(u) = E_1(u) is the exponential integral.
Every sum here is truncated at a certified point: the coefficient bound
|a_n| <= d(n) sqrt(n) <= 2n turns the tail into a geometric series.
The coefficients a_n are Hecke's theta series, summed over the lattice
points of one ideal J per ideal class (theta_coeffs; Iwaniec-Kowalski,
Analytic Number Theory, ch. 12), the least of its class with norm prime
to N(f).  central_value and rootnumber.root_number_via_fe read their
tables from theta_coeffs, which evaluates chi once per class, at J: every
other value is one gather per local group (O/P^a)^x from the finite
part's local exponent arrays, times that class's chi(J)^{-1}.
central_value takes W from its caller, so this module imports nothing
from rootnumber.  A table is a ThetaTable of two arrays, the n in
ascending order and their a_n; a table to X holds the table to any
smaller bound as its prefix, bit for bit, so one table can serve two
truncations.  The class ideals, the lattice points, their rows in the
local groups of f and their norms depend only on the conductor:
theta_lattice builds them once, and theta_coeffs reads them for every
character of that conductor.
central_value forms every term 2 a_n n^{-1} I_v(n / Af) in one array
expression, with the array kernel kernel_I (a power series and a
fixed-depth continued fraction for E_1).  Af depends only on the
conductor, so the kernel belongs to the lattice: a table keeps the
lattice it was summed over, and ThetaLattice.kernel evaluates I_v once
per v for every character that shares the lattice.

All arithmetic is float64; math.fsum adds the terms of each sum exactly
rounded.  The stated tolerances (1e-8 functional equation, 1e-10
realness, 1e-14 kernels) sit comfortably inside that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .arith import _INT64_MAX
from .characters import HeckeCharacter, evaluate_char
from .errors import (
    DomainError,
    NoConsistentLift,
    NonPositiveArgument,
    NumericalInstability,
    PhaseOverflow,
    SignMismatch,
    UnitCountMismatch,
)
from .quadfield import FieldContext, Ideal, class_representatives, ideal_elements

_EULER_GAMMA = 0.5772156649015328606


_E1_SPLIT = 1.5
_E1_DEPTH = 60
# (-1)^{k+1} / (k k!) for k = 1..25: the power series of E_1(u) + gamma + log u,
# whose 26th term is below 4e-24 for u < 1.5
_E1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 26))


def kernel_I(v: int, u: np.ndarray) -> np.ndarray:
    """I_0(u) = e^{-u}; I_1(u) = E_1(u) = integral_u^inf e^{-t} dt/t, elementwise.

    Below u = 1.5, E_1(u) = -gamma - log u + sum_{k>=1} (-1)^{k+1} u^k / (k k!),
    summed by Horner's rule to 25 terms.  At and above it,

        E_1(u) = e^{-u} / (u + 1 - 1/(u + 3 - 4/(u + 5 - ...))),

    evaluated from depth 60 back to the top.  Both hold 1e-14 relative; the
    worst error against mpmath on [1e-9, 700] is about 3e-15.  Every
    E_1(u) must be positive, and at most e^{-u} where u >= 1, or
    NumericalInstability is raised.
    """
    u = np.asarray(u, dtype=np.float64)
    bad = u[~(u > 0)]
    if bad.size:
        raise NonPositiveArgument(f"kernel argument must be positive, got {bad[0]}")
    if v == 0:
        return np.exp(-u)
    if v != 1:
        raise ValueError(f"kernel order must be 0 or 1, got {v}")
    out = np.empty_like(u)
    small = u < _E1_SPLIT
    s = u[small]
    p = np.full_like(s, _E1_SERIES[-1])
    for c in reversed(_E1_SERIES[:-1]):
        p = p * s + c
    out[small] = (-_EULER_GAMMA - np.log(s)) + s * p
    b = u[~small]
    t = b + (2 * _E1_DEPTH + 1)
    for k in range(_E1_DEPTH, 0, -1):
        t = b + (2 * k - 1) - (k * k) / t
    out[~small] = np.exp(-b) / t
    escaped = np.flatnonzero(~(out > 0) | ((u >= 1.0) & (out > np.exp(-u))))
    if escaped.size:
        i = escaped[0]
        raise NumericalInstability(f"E_1({u.flat[i]}) = {out.flat[i]} escaped its bracket")
    return out


@dataclass(frozen=True, eq=False)
class ThetaTable:
    """a_n at every n <= X that is the norm of an integral ideal, and the
    lattice they were summed over.

    n is int64 and ascending, a is complex128; both are read-only.  A table
    to X holds, bit for bit, the table to any smaller bound as its prefix.
    """

    X: int
    n: np.ndarray
    a: np.ndarray
    lattice: "ThetaLattice"

    def __len__(self) -> int:
        return len(self.n)

    def upto(self, bound: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, a) for the n <= bound; ValueError if the table stops short of bound."""
        if bound > self.X:
            raise ValueError(f"the theta table reaches n = {self.X}, not {bound}")
        k = int(np.searchsorted(self.n, bound, side="right"))
        return self.n[:k], self.a[:k]


@dataclass(frozen=True, eq=False)
class ThetaLattice:
    """The lattice points of theta_coeffs to X, shared by every character of
    one conductor f.

    classes holds, per ideal class, (J, and for the g in J prime to f:
    n = N(g)/N(J), the rows of g in the local groups (O/P^a)^x of f, one
    row of a (parts, elements) array per P^a || f, and g as a complex
    number), each array in the order ideal_elements lists g, where J is the
    least ideal of its class with norm prime to N(f); counts[n] is the
    number of ideals of norm n.  No array is indexed by all of (O/f)^x.
    The lattice to X holds the one to any smaller bound as the elements of
    n <= bound, in the same order.
    """

    X: int
    f: Ideal
    classes: tuple
    counts: np.ndarray
    _kernels: dict = dc_field(default_factory=dict, init=False, repr=False)

    def kernel(self, v: int, n: np.ndarray) -> np.ndarray:
        """I_v(n / Af) at the n of a table summed over this lattice, with
        Af = A sqrt(N(f)).

        Every such n is a prefix of the norms this lattice has ideals of,
        so the kernel is computed once per v, at the longest n asked for
        so far, and each call reads its prefix.
        """
        values = self._kernels.get(v)
        if values is None or len(values) < len(n):
            Af = self.f.field.A * math.sqrt(self.f.norm)
            values = self._kernels[v] = kernel_I(v, n / Af)
        return values[: len(n)]


def theta_lattice(chi: HeckeCharacter, X: int) -> ThetaLattice:
    """The lattice theta_coeffs(chi, X) sums, with its three certificates.

    It depends on chi's conductor f alone: its class ideals are the least
    ideal of each class with norm prime to N(f) (class_representatives).
    N(J) divides every N(g) (else NoConsistentLift), w_K divides the
    number of generators of each norm (else UnitCountMismatch), and no
    int64 intermediate can overflow, checked before any is formed (else
    PhaseOverflow).
    """
    if X < 1:
        raise ValueError("X must be at least 1")
    field, units = chi.field, chi.eps.unit_group
    Js = list(class_representatives(field, units.f.norm).values())
    d_max = max(J.norm for J in Js)
    B = X * d_max
    # |y| <= 2 sqrt(B/|D|) and |x| <= sqrt(B) (sqrt|D| + 1), so the terms of
    # the norm form add up to at most B (4|D| + 4 sqrt|D| + 2) in absolute
    # value; the HNF step v b and rows()' box reduction stay below
    # 4 (sqrt(B) + 1) max(N(J), N(f)), and each local group's box lies inside f's
    if max(8 * (1 - field.D) * B, 4 * (math.isqrt(B) + 1) * max(d_max, units.f.norm)) > _INT64_MAX:
        raise PhaseOverflow(f"norms up to {B} overflow int64 in the lattice sum to X = {X}")
    counts = np.zeros(X + 1, dtype=np.int64)
    classes = []
    for J in Js:
        d = J.norm
        x, y = ideal_elements(J, X * d)
        norms = x * x + field.D * x * y + field.nm * y * y
        if (norms % d).any():
            raise NoConsistentLift(f"N(J) = {d} does not divide the norm of an element of {J!r}")
        n = norms // d
        per_n = np.bincount(n, minlength=X + 1)
        if (per_n % field.wK).any():
            raise UnitCountMismatch(f"the elements of {J!r} are not w_K = {field.wK} per ideal")
        counts += per_n
        rows = units.rows(x, y)
        unit = np.flatnonzero((rows >= 0).all(axis=0))
        g = x[unit] + y[unit] * field.omega_complex
        classes.append((J, n[unit], rows.take(unit, axis=1), g))
    return ThetaLattice(X=X, f=units.f, classes=tuple(classes), counts=counts)


def theta_coeffs(chi: HeckeCharacter, X: int, lattice: ThetaLattice) -> ThetaTable:
    """a_n = sum over ideals of norm n of chi(a), for all n <= X with an ideal.

    The table lists exactly the n <= X that are the norm of some integral
    ideal, in ascending order; a_n is 0 at such n when every ideal of norm
    n meets the conductor.  The table is Hecke's theta series, summed over
    lattice points: an ideal a in the class inverse to a lattice class
    ideal J has a J = (g) principal, and chi(a) = eps(g) g / chi(J).  Each
    ideal has w_K generators g, so

        a_n = (1/w_K) sum_J chi(J)^{-1} sum_{g in J, N(g) = n N(J)} eps(g) g.

    Every g in J with 0 < N(g) <= X N(J) is one row of an int64 array
    (theta_lattice), eps(g) is one gather per local group of f from
    eps.local_exponents (zero where g meets the conductor), and the sum
    over n is two bincounts.  chi(J) is one evaluate_char per class: the
    only exact evaluation of a table.  lattice is theta_lattice of a
    character of chi's conductor to at least X, built once for all of
    them; whichever bound it reaches, the table is the same, bit for bit.
    A lattice of another conductor or a bound below X raises DomainError.
    """
    if X < 1:
        raise ValueError("X must be at least 1")
    if lattice.f != chi.conductor:
        raise DomainError(f"the theta lattice of {lattice.f!r} is not one of {chi.conductor!r}")
    if X > lattice.X:
        raise DomainError(f"the theta lattice reaches n = {lattice.X}, not {X}")
    field, eps, M = chi.field, chi.eps, chi.M
    # zeta_M^k = i^q exp(i pi r / 2M) with 4k = qM + r: exact at the fourth roots
    # of unity; tiled so that it covers the unreduced sums k of exponents_at
    q, r = np.divmod(4 * np.arange(M), M)
    roots = np.array([1, 1j, -1, -1j])[q] * np.exp(0.5j * np.pi * r / M)
    roots = np.tile(roots, len(eps.local_exponents))
    re, im = np.zeros(X + 1), np.zeros(X + 1)
    for J, n, rows, g in lattice.classes:
        weight = 1 / evaluate_char(chi, J).complex()
        if X < lattice.X:
            keep = np.flatnonzero(n <= X)
            n, rows, g = n[keep], rows.take(keep, axis=1), g[keep]
        values = roots[eps.exponents_at(rows)] * g * weight
        re += np.bincount(n, weights=values.real, minlength=X + 1)
        im += np.bincount(n, weights=values.imag, minlength=X + 1)
    n = np.flatnonzero(lattice.counts[: X + 1])
    a = (re[n] + 1j * im[n]) / field.wK
    n.flags.writeable = a.flags.writeable = False
    return ThetaTable(X=X, n=n, a=a, lattice=lattice)


@dataclass(frozen=True)
class SmoothedValue:
    """A truncated smoothed central value with its certificate."""

    value: float
    T: float
    tail_bound: float
    v: int
    f: float
    Af: float


def truncation(Af: float, tol: float) -> float:
    """The point T where central_value truncates its sum for tolerance tol."""
    # e^{-T/Af} <= tol / (8 (1+Af)^2) makes the geometric tail < tol/2
    return Af * max(40.0, math.log(8.0 / tol) + 2.0 * math.log(1.0 + Af))


def _require_sign(v: int, w: float) -> None:
    if v not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {v}")
    if (1 - round(w)) // 2 != v:
        raise SignMismatch(
            f"W = {w:+.0f} forces vanishing order {(1 - round(w)) // 2}, not v = {v}"
        )


def _real_part(terms: np.ndarray) -> float:
    re = math.fsum(terms.real.tolist())
    im = math.fsum(terms.imag.tolist())
    if abs(im) > 1e-10 * (1.0 + abs(re)):
        raise NumericalInstability(f"central value has imaginary residue {im}")
    return re


def central_value(
    chi: HeckeCharacter, v: int, tol: float, w: float, table: ThetaTable | None = None
) -> SmoothedValue:
    """L(1, chi) for v = 0 or L'(1, chi) for v = 1, truncated with a tail bound.

    w is chi's root number W, from rootnumber.root_number; the requested v
    must match it, v = (1 - W)/2, since the other parity would sum to an
    uninformative 0.  table, when given, is chi's theta table to at least
    T, built by the caller for another use as well; its prefix n <= T is
    exactly theta_coeffs(chi, int(T), ...); a table of another conductor
    raises DomainError.  Else the table to T is built here, on a lattice of
    its own.  The kernel I_v(n / Af) is the one of the table's lattice,
    which every character of that lattice shares.
    """
    _require_sign(v, w)
    f = chi.f_value
    Af = chi.field.A * f
    T = truncation(Af, tol)
    if table is None:
        table = theta_coeffs(chi, int(T), theta_lattice(chi, int(T)))
    elif table.lattice.f != chi.conductor:
        raise DomainError(f"the theta table of {table.lattice.f!r} is not one of {chi.conductor!r}")
    n, a = table.upto(int(T))
    value = _real_part(2.0 * a / n * table.lattice.kernel(v, n))
    tail = 4.0 * (Af + 1.0) * math.exp(-T / Af)
    if not tail < tol:
        raise NumericalInstability(f"tail bound {tail} did not clear {tol}")
    return SmoothedValue(value=value, T=T, tail_bound=tail, v=v, f=f, Af=Af)


def smoothed_kappa_sum(field: FieldContext, x: float) -> float:
    """sum_{n >= 1} kappa(n) n^{-1} e^{-n^2/x}, vectorized; kappa = kronecker(D, .)."""
    if x <= 0:
        raise NonPositiveArgument(f"smoothing parameter must be positive, got {x}")
    N = math.isqrt(int(44.0 * x)) + 2
    period = abs(field.D)
    table = np.array([field.kronecker(r) for r in range(period)], dtype=np.float64)
    n = np.arange(1, N + 1, dtype=np.int64)
    kap = table[n % period]
    nf = n.astype(np.float64)
    return float(np.sum(kap / nf * np.exp(-(nf * nf) / x)))


def dirichlet_L1(field: FieldContext) -> float:
    """L(1, kappa) by the class number formula, cross-checked by the smoothed series.

    Route (i): 2 pi h / (w_K sqrt(|D|)).  Route (ii): the smoothed sum at
    x = 4 D^2.  kappa is odd and primitive mod |D|, so the theta
    transformation of its weight-one theta series gives
    sum kappa(n) n^{-1} e^{-n^2/x} = L(1, kappa) + O(e^{-pi^2 x / D^2}):
    at x = 4 D^2 the error is far below float64 rounding (1.7e-15 relative
    at worst over the fundamental D in (-2500, -3]), with 55 terms for
    D = -4.  The routes must agree to 1e-8; the closed form is returned.
    """
    exact = 2.0 * math.pi * field.h / (field.wK * math.sqrt(abs(field.D)))
    series = smoothed_kappa_sum(field, 4.0 * field.D**2)
    if abs(series - exact) > 1e-8 * max(1.0, exact):
        raise NumericalInstability(
            f"L(1, kappa) routes disagree: {exact} vs {series} for D = {field.D}"
        )
    return exact

"""Smoothed L-values for type (1,0) characters.

The completed function Lambda(s) = Gamma(s) (Af)^s L(s, chi) with
A = sqrt(|D|)/(2 pi) and f = sqrt(N(conductor)) satisfies
Lambda(s) = W Lambda(2-s).  Unfolding the theta integral termwise gives

    L^(v)(1, chi) = 2 sum_a chi(a) Na^{-1} I_v(Na / (Af))

where I_0(u) = e^{-u} and I_1(u) = E_1(u) is the exponential integral.
Every sum here is truncated at a certified point: the coefficient bound
|a_n| <= d(n) sqrt(n) <= 2n turns the tail into a geometric series.
The coefficients a_n are Hecke's theta series, summed over the lattice
points of one ideal per ideal class (theta_coeffs).  central_value and
rootnumber.root_number_via_fe read their tables from theta_coeffs, which
evaluates chi at no ideal: every value is one gather from the finite
part's exponent array.

All arithmetic is float64; math.fsum keeps the long sums compensated.
The stated tolerances (1e-8 functional equation, 1e-10 realness, 1e-14
kernels) sit comfortably inside that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .characters import HeckeCharacter
from .errors import (
    NoConsistentLift,
    NonPositiveArgument,
    NumericalInstability,
    PhaseOverflow,
    SignMismatch,
    UnitCountMismatch,
)
from .quadfield import FieldContext, Ideal, KElt, unit_ideal

_INT64_MAX = np.iinfo(np.int64).max
_EULER_GAMMA = 0.5772156649015328606


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


def theta_coeffs(chi: HeckeCharacter, X: int) -> dict[int, complex]:
    """a_n = sum over ideals of norm n of chi(a), for all n <= X with an ideal.

    The keys are exactly the n <= X that are the norm of some integral
    ideal, in ascending order; a_n is 0 at such n when every ideal of norm
    n meets the conductor.  The table is Hecke's theta series, summed over
    lattice points: an ideal a of class vector e times
    J_e = prod conj(a_i)^{e_i} (the class representatives a_i) is principal,
    a J_e = (g), and chi(a) = eps(g/N J_e) (g/N J_e) prod v_i^{e_i}, which
    is what evaluate_char computes for one ideal.  Each ideal has w_K
    generators g, so

        a_n = (1/w_K) sum_e sum_{g in J_e, N(g) = n N(J_e)} eps(g/N J_e) (g/N J_e) prod v_i^{e_i}.

    Every g in J_e with 0 < N(g) <= X N(J_e) is one row of an int64
    array, eps(g) is one gather from eps.unit_exponents (zero where g meets
    the conductor), and the sum over n is two bincounts.  Three
    certificates hold the table to that formula: N(J_e) divides every N(g)
    (else NoConsistentLift), w_K divides the number of generators of each
    norm (else UnitCountMismatch), and no int64 intermediate can overflow,
    checked before any is formed (else PhaseOverflow).
    """
    if X < 1:
        raise ValueError("X must be at least 1")
    field, eps = chi.field, chi.eps
    ug, M = eps.unit_group, eps.M
    # zeta_M^k = i^q exp(i pi r / 2M) with 4k = qM + r: exact at the fourth roots of unity
    q, r = np.divmod(4 * np.arange(M), M)
    roots = np.array([1, 1j, -1, -1j])[q] * np.exp(0.5j * np.pi * r / M)
    classes = []
    for e in itertools.product(*(range(h) for h in chi.class_orders)):
        J, weight = unit_ideal(field), 1 + 0j
        for rep, v, ei in zip(chi.class_reps, chi.radicals, e):
            J, weight = J * rep.conjugate() ** ei, weight * v**ei
        classes.append((J, weight))
    d_max = max(J.norm for J, _ in classes)
    B = X * d_max
    # |y| <= 2 sqrt(B/|D|) and |x| <= sqrt(B) (sqrt|D| + 1), so the terms of
    # the norm form add up to at most B (4|D| + 4 sqrt|D| + 2) in absolute
    # value; the HNF step v b and rows()' box reduction stay below
    # 4 (sqrt(B) + 1) max(N(J), N(f))
    if max(8 * (1 - field.D) * B, 4 * (math.isqrt(B) + 1) * max(d_max, ug.f.norm)) > _INT64_MAX:
        raise PhaseOverflow(f"norms up to {B} overflow int64 in the lattice sum to X = {X}")
    counts = np.zeros(X + 1, dtype=np.int64)
    re, im = np.zeros(X + 1), np.zeros(X + 1)
    for J, weight in classes:
        d = J.norm
        k_d = eps.exponent_of(KElt(field, d, 0))
        if k_d is None:
            raise NoConsistentLift(f"N{J!r} = {d} is not coprime to the conductor")
        x, y = _ideal_elements(J, X * d)
        norms = x * x + field.D * x * y + field.nm * y * y
        if (norms % d).any():
            raise NoConsistentLift(f"N(J) = {d} does not divide the norm of an element of {J!r}")
        n = norms // d
        per_n = np.bincount(n, minlength=X + 1)
        if (per_n % field.wK).any():
            raise UnitCountMismatch(f"the elements of {J!r} are not w_K = {field.wK} per ideal")
        counts += per_n
        rows = ug.rows(x, y)
        unit = rows >= 0
        k = (eps.unit_exponents[rows[unit]] - k_d) % M
        g = x[unit] + y[unit] * field.omega_complex
        values = roots[k] * g * (weight / d)
        re += np.bincount(n[unit], weights=values.real, minlength=X + 1)
        im += np.bincount(n[unit], weights=values.imag, minlength=X + 1)
    keys = np.flatnonzero(counts)
    a = (re[keys] + 1j * im[keys]) / field.wK
    return dict(zip(keys.tolist(), a.tolist()))


def _ideal_elements(J: Ideal, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (x, y) of every g = x + y omega != 0 in J with N(g) <= bound.

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


@dataclass(frozen=True)
class SmoothedValue:
    """A truncated smoothed central value with its certificate."""

    value: float
    T: float
    tail_bound: float
    v: int
    f: float
    Af: float


def _scale(chi: HeckeCharacter) -> tuple[float, float]:
    f = chi.f_value
    return f, chi.field.A * f


def _truncation(Af: float, tol: float) -> float:
    # e^{-T/Af} <= tol / (8 (1+Af)^2) makes the geometric tail < tol/2
    return Af * max(40.0, math.log(8.0 / tol) + 2.0 * math.log(1.0 + Af))


def _require_sign(chi: HeckeCharacter, v: int, w: float | None) -> float:
    if w is None:
        from .rootnumber import root_number

        w = root_number(chi)
    if v not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {v}")
    if (1 - round(w)) // 2 != v:
        raise SignMismatch(
            f"W = {w:+.0f} forces vanishing order {(1 - round(w)) // 2}, not v = {v}"
        )
    return float(round(w))


def _real_part(sums: list[complex], scale: float, what: str) -> float:
    re = math.fsum(z.real for z in sums)
    im = math.fsum(z.imag for z in sums)
    if abs(im) > 1e-10 * (1.0 + abs(re)) * max(1.0, scale):
        raise NumericalInstability(f"{what} has imaginary residue {im}")
    return re


def central_value(
    chi: HeckeCharacter,
    v: int,
    tol: float = 1e-10,
    w: float | None = None,
) -> SmoothedValue:
    """L(1, chi) for v = 0 or L'(1, chi) for v = 1, truncated with a tail bound.

    The requested v must match the root number: v = (1 - W)/2.  The other
    parity would sum to an uninformative 0.
    """
    _require_sign(chi, v, w)
    f, Af = _scale(chi)
    T = _truncation(Af, tol)
    coeffs = theta_coeffs(chi, int(T))
    terms = [
        2.0 * a / n * kernel_I(v, n / Af) for n, a in sorted(coeffs.items()) if n <= T
    ]
    value = _real_part(terms, 1.0, "central value")
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
    x = 1e8, Richardson-corrected with the value at 2e8.  They must agree
    to 1e-8; the closed form is returned.
    """
    exact = 2.0 * math.pi * field.h / (field.wK * math.sqrt(abs(field.D)))
    x = 1e8
    series = 2.0 * smoothed_kappa_sum(field, 2.0 * x) - smoothed_kappa_sum(field, x)
    if abs(series - exact) > 1e-8 * max(1.0, exact):
        raise NumericalInstability(
            f"L(1, kappa) routes disagree: {exact} vs {series} for D = {field.D}"
        )
    return exact

"""Root numbers by the explicit Gauss sum and by the theta transformation law.

With delta generating the different (normalized so delta/|delta| = i) and
an auxiliary ideal c in the inverse class of the conductor, f(chi) c = (b),

    W(chi) = (-i) f^{-1} (delta/|delta|) (b/|b|) (sqrt(Nc)/chi(c))
             * sum_{w in c/fc} eps(w) e^{2 pi i Tr(w/(delta b))}

where eps is extended by zero off the units.  An element E of c with
E = 1 mod f (it exists because c + f = O) turns the sum over c/fc into one
over (O/f)^x: r -> rE is a bijection O/f -> c/fc with eps(rE) = eps(r).
The trace is linear in the coordinates of r, so the sum is one array pass
over the unit group's discrete-log table.  Changing b by a unit or E by an
element of fc reindexes the sum without changing W.  Every term's phase
is an exact integer j modulo L = lcm(M, N(delta b)), so the sum is
accumulated as a count per phase, with no floating-point fallback however
large L grows; phases that could leave int64 raise PhaseOverflow.

The independent route, root_number_via_fe, reads W off the theta
transformation theta(1/t) = W t^2 theta(t), which is the functional
equation at the level of theta series.  (The ratio of the two one-sided
incomplete-gamma half-sums of Lambda does not isolate W; the theta
quotient does.)  Its theta series is lseries.theta_coeffs' lattice sum
over the ideal classes, which reads eps at lattice points and never forms
a Gauss sum, an additive character or an auxiliary ideal.  It sums well
past the central-value truncation, so the Gauss-sum route never runs it:
callers that want the cross-check run it themselves, as a family scan
does once per record.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .characters import HeckeCharacter, evaluate_char
from .errors import (
    DegenerateQuotient,
    NoAuxiliaryGenerator,
    NoCRTLift,
    NumericalInstability,
    PhaseOverflow,
)
from .lseries import theta_coeffs
from .quadfield import (
    FieldContext,
    Ideal,
    KElt,
    canonical_generator,
    coset_reps,
    ideal_class_of,
    ideals_by_norm,
)

_INT64_MAX = np.iinfo(np.int64).max


def different_gen(field: FieldContext) -> KElt:
    """Generator delta of the different, already satisfying delta/|delta| = i.

    sqrt(D) embeds as i sqrt(|D|), so no unit adjustment is ever needed;
    N(delta) = |D| and Tr(x/delta) is integral for all x in O.
    """
    return field.sqrt_D


def auxiliary_pair(chi: HeckeCharacter) -> tuple[Ideal, KElt]:
    """Integral c coprime to f(chi) with f(chi) c = (b); minimal norm c first."""
    return _auxiliary_for_ideal(chi.field, chi.conductor)


def _auxiliary_for_ideal(field: FieldContext, f: Ideal) -> tuple[Ideal, KElt]:
    for c in ideals_by_norm(field):
        if c.is_coprime(f) and not any(ideal_class_of(f * c)):
            b = canonical_generator(f * c)
            if b is None:
                raise NoAuxiliaryGenerator(f"{f * c!r} has trivial class but no generator")
            return c, b


@dataclass(frozen=True)
class RootNumberResult:
    W_gauss: complex
    delta: KElt
    auxiliary: tuple[Ideal, KElt]


def _one_mod_f_in_c(f: Ideal, c: Ideal) -> KElt:
    """E in c with E = 1 mod f, as E = 1 + t for the t in f/fc with 1 + t in c.

    Such t exists exactly when c + f = O and is then unique mod fc, so the
    search visits at most N(c) residues.
    """
    one = f.field.one
    for t in coset_reps(f, f * c):
        if c.contains(one + t):
            return one + t
    raise NoCRTLift(f"no E in {c!r} with E = 1 mod {f!r}")


def _gauss_sum(chi: HeckeCharacter, c: Ideal, b: KElt, shift: KElt | None = None) -> complex:
    """sum over r in (O/f)^x of eps(r) e^{2 pi i Tr(r E/(delta b))}.

    E in c with E = 1 mod f makes r -> rE a bijection O/f -> c/fc with
    eps(rE) = eps(r), so this is the sum over c/fc of the module docstring;
    shift (an element of fc) replaces E by E + shift.  With u = E conj(delta b)
    and N = N(delta b), Tr(rE/(delta b)) = Tr(ru)/N, and for r = x + y omega
    Tr(ru) = x Tr(u) + y Tr(omega u).  So every term is an exact L-th root of
    unity, L = lcm(M, N), with phase

        j = ((x alpha + y beta) mod N) (L/N) + k_r (L/M)  mod L,

    alpha = Tr(u), beta = Tr(omega u) and k_r = dlog(r) . exps mod M, read
    for all of (O/f)^x at once from eps.unit_exponents.  The terms
    are counted by phase and only the final sum of the counts, in ascending
    phase, is taken in floating point.
    """
    eps, field, f = chi.eps, chi.field, chi.conductor
    E = _one_mod_f_in_c(f, c)
    if shift is not None:
        E = E + shift
    if not (c.contains(E) and f.contains(E - field.one)):
        raise NoCRTLift(f"E = {E!r} is not in {c!r} and 1 mod {f!r}")
    db = different_gen(field) * b
    N, M = db.norm(), chi.M
    L = math.lcm(M, N)
    u = E * db.conjugate()
    alpha, beta = u.trace() % N, (KElt(field, 0, 1) * u).trace() % N
    ug = eps.unit_group
    # largest intermediates below: x alpha + y beta and j; unit_exponents guards dlog . exps
    if max((f.a + f.c) * N, 2 * L) > _INT64_MAX:
        raise PhaseOverflow(f"phases mod L = {L} overflow int64 over (O/{f!r})^x")
    k = eps.unit_exponents
    j = ((ug.xs * alpha + ug.ys * beta) % N * (L // N) + k * (L // M)) % L
    phases, counts = np.unique(j, return_counts=True)
    return sum(
        n * cmath.exp(2j * cmath.pi * p / L) for p, n in zip(phases.tolist(), counts.tolist())
    )


def gauss_sum_root_number(chi: HeckeCharacter, shift: KElt | None = None) -> RootNumberResult:
    """W by the explicit formula, with the auxiliary data it used.

    The theta-quotient route is not run here; compare with
    root_number_via_fe(chi) where a cross-check is wanted.
    """
    field = chi.field
    c, b = auxiliary_pair(chi)
    delta = different_gen(field)
    s = _gauss_sum(chi, c, b, shift=shift)
    dz = delta.complex()
    bz = b.complex()
    chi_c = evaluate_char(chi, c).complex()
    w = (
        (-1j)
        / chi.f_value
        * (dz / abs(dz))
        * (bz / abs(bz))
        * (math.sqrt(c.norm) / chi_c)
        * s
    )
    if abs(abs(w) - 1.0) > 1e-6:
        raise NumericalInstability(f"|W| = {abs(w)} strayed from 1")
    return RootNumberResult(W_gauss=w, delta=delta, auxiliary=(c, b))


def root_number_via_fe(chi: HeckeCharacter) -> complex:
    """W from theta(1/t) = W t^2 theta(t), checked at two independent t.

    The theta series is theta_coeffs' lattice sum to fe_bound(chi), which
    shares only the character's own data with the Gauss sum.
    """
    Af = chi.field.A * chi.f_value
    coeffs = sorted(theta_coeffs(chi, fe_bound(chi)).items())

    def theta(t: float) -> complex:
        return sum(a * cmath.exp(-n * t / Af) for n, a in coeffs)

    scale = sum(abs(a) * math.exp(-n / (1.7 * Af)) for n, a in coeffs)
    estimates = []
    for t0 in (1.3, 1.6, 1.45, 1.7):
        den = theta(t0)
        if abs(den) < 1e-12 * (1.0 + scale):
            continue  # degenerate quotient at this t0; retry shifted
        estimates.append(theta(1.0 / t0) / (t0 * t0 * den))
        if len(estimates) == 2:
            break
    if len(estimates) < 2:
        raise DegenerateQuotient("theta vanished at every probe point")
    if abs(estimates[0] - estimates[1]) > 1e-6 * max(1.0, abs(estimates[0])):
        raise NumericalInstability(
            f"theta quotients disagree: {estimates[0]} vs {estimates[1]}"
        )
    return (estimates[0] + estimates[1]) / 2


def fe_bound(chi: HeckeCharacter) -> int:
    """The theta-series truncation of root_number_via_fe, 90 Af + 90."""
    return int(math.ceil(90.0 * chi.field.A * chi.f_value)) + 90


def root_number(chi: HeckeCharacter) -> float:
    """W rounded to a real sign; raises if the value is not a clean +-1."""
    w = gauss_sum_root_number(chi).W_gauss
    sign = round(w.real)
    if abs(w - sign) > 1e-6 or sign not in (-1, 1):
        raise NumericalInstability(f"root number {w} is not a real sign")
    return float(sign)

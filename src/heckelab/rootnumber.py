"""Root numbers by the explicit Gauss sum and by the theta transformation law.

With delta = sqrt(D) generating the different and an auxiliary ideal c in
the inverse class of the conductor, f(chi) c = (b),

    W(chi) = (-i) f^{-1} (delta/|delta|) (b/|b|) (sqrt(Nc)/chi(c))
             * sum_{w in c/fc} eps(w) e^{2 pi i Tr(w/(delta b))}

where eps is extended by zero off the units.  sqrt(D) = 2 omega - D
embeds as i sqrt(|D|), so delta/|delta| = i with no unit adjustment and
the factor (-i)(delta/|delta|) is 1;
N(delta) = |D| and Tr(x/delta) is integral for every x in O.  An element
E of c with E = 1 mod f (it exists because c + f = O) turns the sum over
c/fc into one over (O/f)^x: r -> rE is a bijection O/f -> c/fc with
eps(rE) = eps(r).
E is one lattice solve, quadfield.idempotent(f, c), the CRT lift of
Cohen, Advanced Topics in Computational Number Theory (GTM 193), 4.2,
which checks E in c and E = 1 mod f before it returns.  That sum is a
product of local Gauss sums.  With e_P = 1 mod P^a and
e_P = 0 mod f/P^a for each P^a || f, and u = E conj(delta b),

    tau = prod_P sum_{r in (O/P^a)^x} eps_P(r) e^{2 pi i Tr(r e_P u) / N(delta b)},

because r = sum_P r_P e_P mod f, eps(r) = prod_P eps_P(r_P), and the
additive character is trivial on f (Iwaniec-Kowalski, Analytic Number
Theory, ch. 12, for character sums to composite moduli; Tate, "Number
theoretic background", Corvallis 1979, 3, for the root number as a
product of local epsilon factors).  The trace is linear in the
coordinates of r, so each local sum is one array pass over its local
group's discrete-log table, and no array over all of (O/f)^x is formed.
All of it but eps depends on the conductor alone: gauss_data builds c,
b, each local group's additive phases and N(delta b) once, and every
character of that conductor adds its own local eps exponents to them.
root_number takes that data from a caller that shares it, as a family
scan does per conductor, and otherwise builds it for the one character.
Changing b by a unit or E by an element of fc reindexes the sum without
changing W.  Every term's phase is an exact integer j modulo
L = lcm(M, N(delta b)), so each local sum is accumulated as a count per
phase, with no floating-point fallback however large L grows; phases
that could leave int64 raise PhaseOverflow.

The independent route, root_number_via_fe, reads W off the theta
transformation theta(1/t) = W t^2 theta(t), which is the functional
equation at the level of theta series.  (The ratio of the two one-sided
incomplete-gamma half-sums of Lambda does not isolate W; the theta
quotient does.)  Its theta series is lseries.theta_coeffs' lattice sum
over the ideal classes, which reads eps at lattice points and never forms
a Gauss sum, an additive character or an auxiliary ideal.  theta(t) at
each probe t is one array sum, sum a_n e^{-n t / Af}, over that table.
It sums well past the central-value truncation, so the Gauss-sum route
never runs it: callers that want the cross-check run it themselves, as a
family scan does once per record, passing the table it also reads the
first member's central value from.  That table is summed over the theta
lattice that every member of the conductor shares; the Gauss sum reads
none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import HeckeCharacter, evaluate_char
from .errors import (
    DegenerateQuotient,
    DomainError,
    NoAuxiliaryGenerator,
    NumericalInstability,
    PhaseOverflow,
)
from .lseries import ThetaTable
from .quadfield import (
    FieldContext,
    Ideal,
    KElt,
    canonical_generator,
    ideal_class_of,
    idempotent,
    ideals_by_norm,
)

_INT64_MAX = np.iinfo(np.int64).max


def auxiliary_pair(field: FieldContext, f: Ideal) -> tuple[Ideal, KElt]:
    """Integral c coprime to f with f c = (b), the least c in ideals_by_norm first."""
    for c in ideals_by_norm(field):
        if c.is_coprime(f) and not any(ideal_class_of(f * c)):
            b = canonical_generator(f * c)
            if b is None:
                raise NoAuxiliaryGenerator(f"{f * c!r} has trivial class but no generator")
            return c, b


@dataclass(frozen=True, eq=False)
class GaussData:
    """The part of the Gauss sum shared by every character of conductor f.

    The auxiliary pair (c, b), N = N(delta b) and phases: per local group
    (O/P^a)^x of f, the additive phase (x alpha_P + y beta_P) mod N of
    e_P u at each of its rows x + y omega, one array of length N(P^a)
    (1 - 1/N(P)) per P^a || f; see _gauss_sum.
    """

    f: Ideal
    c: Ideal
    b: KElt
    N: int
    phases: tuple


def gauss_data(chi: HeckeCharacter) -> GaussData:
    """The Gauss-sum data of chi's conductor, with E = idempotent(f, c)."""
    field, f = chi.field, chi.conductor
    c, b = auxiliary_pair(field, f)
    E = idempotent(f, c)
    db = field.sqrt_D * b
    N = db.norm()
    u = E * db.conjugate()
    units = chi.eps.unit_group
    # the largest intermediate is x alpha + y beta, with each part's box inside f's
    if (f.a + f.c) * N > _INT64_MAX:
        raise PhaseOverflow(f"additive phases mod N = {N} overflow int64 over (O/{f!r})^x")
    phases = []
    for part, e in zip(units.parts, units.idempotents):
        v = e * u
        alpha, beta = v.trace() % N, (KElt(field, 0, 1) * v).trace() % N
        phase = (part.xs * alpha + part.ys * beta) % N
        phase.flags.writeable = False
        phases.append(phase)
    return GaussData(f=f, c=c, b=b, N=N, phases=tuple(phases))


def _gauss_sum(chi: HeckeCharacter, gauss: GaussData) -> complex:
    """sum over r in (O/f)^x of eps(r) e^{2 pi i Tr(r E/(delta b))}, as the
    product of its local sums.

    E in c with E = 1 mod f makes r -> rE a bijection O/f -> c/fc with
    eps(rE) = eps(r), so this is the sum over c/fc of the module docstring.
    With u = E conj(delta b) and N = N(delta b), Tr(rE/(delta b)) = Tr(ru)/N.
    By CRT r = sum_P r_P e_P mod f, eps(r) = prod_P eps_P(r_P), and
    Tr(ru)/N mod 1 depends on r mod f only, so the sum is

        prod_P sum_{r_P in (O/P^a)^x} eps_P(r_P) e^{2 pi i Tr(r_P e_P u)/N}.

    For r_P = x + y omega, Tr(r_P e_P u) = x Tr(e_P u) + y Tr(omega e_P u),
    so every term of a local sum is an exact L-th root of unity,
    L = lcm(M, N), with phase

        j = ((x alpha_P + y beta_P) mod N) (L/N) + k_P(r_P) (L/M)  mod L,

    alpha_P = Tr(e_P u), beta_P = Tr(omega e_P u), and k_P read for all of
    (O/P^a)^x at once from eps.local_exponents.  Only k_P and M are chi's
    own; the rest is gauss, which must be of chi's conductor (else
    DomainError).  The terms of each local sum are counted by phase, and
    the local sum is the sum of the counts times e^{2 pi i j/L} at the
    distinct phases j, the only floating-point step (an elementwise
    product and np.sum, not a BLAS dot product, whose first call costs
    resident memory); the local sums are then multiplied.
    """
    f = chi.conductor
    if gauss.f != f:
        raise DomainError(f"the Gauss-sum data of {gauss.f!r} is not that of {f!r}")
    N, M = gauss.N, chi.M
    L = math.lcm(M, N)
    # the largest intermediate below is j < 2L; gauss_data guards the additive
    # phases and local_exponents guards dlog . exps
    if 2 * L > _INT64_MAX:
        raise PhaseOverflow(f"phases mod L = {L} overflow int64 over (O/{f!r})^x")
    out = 1 + 0j
    for phase, k in zip(gauss.phases, chi.eps.local_exponents):
        j = (phase * (L // N) + k * (L // M)) % L
        phases, counts = np.unique(j, return_counts=True)
        out *= complex(np.sum(counts * np.exp(2j * np.pi / L * phases)))
    return out


def gauss_sum_root_number(chi: HeckeCharacter, gauss: GaussData) -> complex:
    """W by the explicit formula, as a complex number.

    gauss is gauss_data of a character of chi's conductor, built once for
    all of them.  The theta-quotient route is not run here; compare with
    root_number_via_fe(chi, table) where a cross-check is wanted.
    """
    c, b = gauss.c, gauss.b
    s = _gauss_sum(chi, gauss)
    bz = b.complex()
    chi_c = evaluate_char(chi, c).complex()
    # (-i)(delta/|delta|) = 1, as delta = sqrt(D) embeds as i sqrt(|D|)
    w = 1 / chi.f_value * (bz / abs(bz)) * (math.sqrt(c.norm) / chi_c) * s
    if abs(abs(w) - 1.0) > 1e-6:
        raise NumericalInstability(f"|W| = {abs(w)} strayed from 1")
    return w


def root_number_via_fe(chi: HeckeCharacter, table: ThetaTable) -> complex:
    """W from theta(1/t) = W t^2 theta(t), checked at two independent t.

    The theta series is theta_coeffs' lattice sum to fe_bound(chi), which
    shares only the character's own data with the Gauss sum.  table is
    chi's theta table to at least fe_bound(chi), built by the caller for
    another use as well; only its prefix n <= fe_bound(chi) is read.  A
    table of another conductor raises DomainError.
    """
    if table.lattice.f != chi.conductor:
        raise DomainError(f"the theta table of {table.lattice.f!r} is not one of {chi.conductor!r}")
    Af = chi.field.A * chi.f_value
    n, a = table.upto(fe_bound(chi))

    def theta(t: float) -> complex:
        return complex(np.sum(a * np.exp(-n * t / Af)))

    scale = float(np.sum(np.abs(a) * np.exp(-n / (1.7 * Af))))
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


def root_number(chi: HeckeCharacter, gauss: GaussData | None = None) -> float:
    """W rounded to a real sign; raises if the value is not a clean +-1.

    gauss, when given, is gauss_data of a character of chi's conductor, as a
    scan shares it across a conductor's members; else it is built here."""
    w = gauss_sum_root_number(chi, gauss_data(chi) if gauss is None else gauss)
    sign = round(w.real)
    if abs(w - sign) > 1e-6 or sign not in (-1, 1):
        raise NumericalInstability(f"root number {w} is not a real sign")
    return float(sign)

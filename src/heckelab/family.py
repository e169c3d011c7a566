"""Twist families: orbit enumeration, averaged L-values, counting, reports.

A family over a base character phi is indexed by ring class characters rho
with conductor supported in a fixed prime set P.  Twists are grouped into
Galois orbits {rho^m : m in (Z/n)^*}; the orbit average of chi = phi rho at
an ideal is exactly computable through Ramanujan sums:

    mean over m of (phi rho^m)(a) = phi(a) c_n(k) / eulerphi(n),
    where rho(a) = zeta_n^k.

This twist-orbit average is a deliberate stand-in for the full embedding
average over K(chi)/K: it avoids radical-degree computations, is exact,
and averages over the subgroup of embeddings fixing phi's values.

Every coefficient table of a scan, for the central values, the
theta-quotient root number and the orbit-mean check, is lseries.theta_coeffs
of a character twist() built: a lattice sum that reads the finite part's
exponent array and evaluates no character at an ideal.  The first member
of each orbit gets one table, to the larger of its FE bound and its
central-value truncation T; the theta quotient and its central value read
their prefixes of it.  The checks keep their independence: the
theta-quotient root number sums the first member's table against the
Gauss sum of its finite part, and the orbit-mean check adds the members'
tables into one dense array over n and compares it with exact orbit
averages from evaluate_char(phi) and the integer exponents of rho.

A scan checks, in this order:

* once, before the first record: the inputs, a finite tol > 0, c_max >= 1
  and every p in P prime, else DomainError; then Property 1,
  phi|_Q = kappa_K, exactly over one period (characters.check_property1);
  a base character that breaks the theorem's hypothesis raises
  RestrictionMismatch;

and per record, which keeps the first failure as its error:

* the twists are built once each; every finite part must be unit
  consistent and primitive;
* the ideals are enumerated once, to f^max(T_EXPONENTS), and counted at
  every t = f^alpha;
* the Main Lemma bound |m_p/2 - n_p| <= 3 + mu + h, with the local orders
  on 1 + p^3 O powers of p;
* the Gauss-sum root number of every member is a clean sign, one sign
  across the orbit;
* every coefficient table passes the lattice certificates of
  theta_coeffs: N(J) divides the norm of every element summed, w_K
  divides the number of generators of each norm, and no int64
  intermediate can overflow;
* the first member's sign matches the theta-quotient route to 1e-6;
* every central value is real and its tail bound clears tol;
* at each n <= f^max(T_EXPONENTS) coprime to c N(f(phi)), the mean of a_n
  over the orbit equals the sum of the exact averages over the ideals of
  norm n.

Scan reports are deterministic: records are ordered by (c, exponents),
floats are serialized as repr decimal strings, and no timestamps appear.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arith import euler_phi, factorize, is_prime, ramanujan_trace
from .characters import (
    CharValue,
    HeckeCharacter,
    MainLemmaReport,
    RingClassCharacter,
    check_property1,
    evaluate_char,
    main_lemma_quantities,
    ring_class_character,
    twist,
)
from .errors import DomainError, HeckeLabError, NumericalInstability, SignMismatch
from .lseries import (
    SmoothedValue,
    ThetaTable,
    central_value,
    dirichlet_L1,
    theta_coeffs,
    truncation,
)
from .quadfield import (
    FieldContext,
    Ideal,
    enumerate_ideals,
    ideals_by_norm,
    ring_class_dlog,
    ring_class_number,
)
from .rootnumber import fe_bound, root_number, root_number_via_fe

# exponents alpha of the counting thresholds t = f^alpha in every scan record
T_EXPONENTS = (0.9, 1.1)


# ---------------------------------------------------------------------------
# Twist enumeration
# ---------------------------------------------------------------------------


def _supported_conductors(P: tuple[int, ...], c_max: int) -> list[int]:
    out = [1]
    for p in sorted(set(P)):
        out = [c * p**e for c in out for e in range(40) if c * p**e <= c_max]
    return sorted(set(out))


def _pic_orders(field: FieldContext, c: int) -> tuple[int, ...]:
    from .quadfield import class_group

    return tuple(class_group(c * c * field.D).orders)


def _vector_exponent(exponents, vec, orders, N: int) -> int:
    return sum(t * e * (N // h) for t, e, h in zip(exponents, vec, orders)) % N


def _subgroup_closure(vectors: list[tuple[int, ...]], orders: tuple[int, ...]) -> set:
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


def _dropdown_kernel(field: FieldContext, c: int, p: int) -> list[tuple[int, ...]]:
    """Generators of ker(Pic(O_c) -> Pic(O_{c/p})) as dlog vectors."""
    sub = c // p
    orders = _pic_orders(field, c)
    want = ring_class_number(field, c) // ring_class_number(field, sub)
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
            if len(_subgroup_closure(found, orders)) >= want:
                return found


def _char_order(exponents, orders) -> int:
    n = 1
    for t, h in zip(exponents, orders):
        n = math.lcm(n, h // math.gcd(t, h))
    return n


def _conductor_exact(exponents, orders, kernels) -> bool:
    """True when the ring class character has conductor exactly c.

    kernels lists the dropdown kernel generators of c, one list per prime p | c.
    """
    N = math.lcm(*orders)
    return not any(
        all(_vector_exponent(exponents, v, orders, N) == 0 for v in kern) for kern in kernels
    )


@dataclass(frozen=True)
class TwistOrbit:
    """A Galois orbit of twists: rho and its powers rho^m, m coprime to n."""

    c: int
    exponents: tuple[int, ...]
    order: int
    members: tuple[int, ...]  # the exponents m

    def rho(self, field: FieldContext, m: int = 1) -> RingClassCharacter:
        return ring_class_character(field, self.c, tuple(m * t for t in self.exponents))


def enumerate_twists(
    field: FieldContext, phi: HeckeCharacter, P: tuple[int, ...], c_max: int
) -> list[TwistOrbit]:
    """All ring-class twist orbits with conductor exactly c, supp(c) in P, c <= c_max."""
    orbits: list[TwistOrbit] = []
    for c in _supported_conductors(tuple(P), c_max):
        orders = _pic_orders(field, c)
        kernels = [_dropdown_kernel(field, c, p) for p, _ in factorize(c)]
        seen: set[tuple[int, ...]] = set()
        for exponents in itertools.product(*(range(h) for h in orders)):
            if exponents in seen:
                continue
            if c > 1 and not any(exponents):
                continue  # the trivial character has conductor 1, listed there
            if not _conductor_exact(exponents, orders, kernels):
                continue
            n = _char_order(exponents, orders)
            members = tuple(m for m in range(1, n + 1) if math.gcd(m, n) == 1)
            orbit_vectors = sorted(
                tuple((m * t) % h for t, h in zip(exponents, orders)) for m in members
            )
            seen.update(orbit_vectors)
            orbits.append(
                TwistOrbit(c=c, exponents=orbit_vectors[0], order=n, members=members)
            )
    orbits.sort(key=lambda o: (o.c, o.exponents))
    return orbits


# ---------------------------------------------------------------------------
# Exact orbit averages and counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AverageValue:
    """phi(a) scaled by the exact rational c_n(k)/eulerphi(n)."""

    scale: Fraction
    base: CharValue

    @property
    def is_zero(self) -> bool:
        return self.scale == 0 or self.base.zero

    def complex(self) -> complex:
        return self.base.complex() * float(self.scale)


def twist_average_value(
    phi: HeckeCharacter, rho: RingClassCharacter, a: Ideal
) -> AverageValue:
    """Exact mean of (phi rho^m)(a) over m coprime to n = ord(rho)."""
    k = rho.value_exponent(a)
    if k is None:
        raise ValueError("ideal shares a factor with the twist modulus")
    base = evaluate_char(phi, a)
    if base.zero:
        raise ValueError("ideal shares a factor with the base conductor")
    n = rho.order
    return AverageValue(scale=Fraction(ramanujan_trace(n, k), euler_phi(n)), base=base)


def count_N_total(
    phi: HeckeCharacter, rho: RingClassCharacter, ideals: list[Ideal], t: float
) -> int:
    """Ideals with nonzero orbit average, a != conj(a), 1 < Na <= t, all classes.

    ideals lists every integral ideal up to some bound >= t in norm order,
    as enumerate_ideals does.  Coprimality to both the base conductor and
    the twist modulus is required for the exact average; other ideals
    contribute zero.
    """
    n = rho.order
    count = 0
    for a in ideals:
        if a.norm > t:
            break
        if a.norm == 1 or a.is_self_conjugate():
            continue
        if not a.is_coprime(phi.conductor):
            continue
        k = rho.value_exponent(a)
        if k is None or ramanujan_trace(n, k) == 0:
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# Averaged L-values
# ---------------------------------------------------------------------------


def orbit_characters(
    phi: HeckeCharacter, orbit: TwistOrbit
) -> list[HeckeCharacter]:
    field = phi.field
    out = []
    for m in orbit.members:
        rho_m = orbit.rho(field, m)
        out.append(phi if rho_m.is_trivial() else twist(phi, rho_m))
    return out


def averaged_L(
    members: list[HeckeCharacter],
    v: int,
    tol: float,
    w: float,
    table: ThetaTable | None = None,
) -> list[SmoothedValue]:
    """The central value of each orbit member, in member order; a record averages them.

    table, when given, is the first member's theta table, read for its prefix.
    """
    return [
        central_value(chi, v, tol=tol, w=w, table=table if i == 0 else None)
        for i, chi in enumerate(members)
    ]


def _check_orbit_mean(
    phi: HeckeCharacter,
    rho: RingClassCharacter,
    members: list[HeckeCharacter],
    ideals: list[Ideal],
    bound: int,
) -> None:
    """Orbit mean of the members' a_n against the exact average, n coprime to c N(f(phi)).

    One side sums the theta series of the characters that twist() built into
    one dense array over n <= bound; the other sums phi(a) c_n(k)/eulerphi(n)
    over the ideals a of norm n <= bound, taken from ideals, which lists
    every ideal to that bound in norm order.
    """
    modulus = rho.c * phi.conductor_norm
    exact = np.zeros(bound + 1, dtype=np.complex128)
    for a in ideals:
        if a.norm > bound:
            break
        if math.gcd(a.norm, modulus) == 1:
            exact[a.norm] += twist_average_value(phi, rho, a).complex()
    total = np.zeros(bound + 1, dtype=np.complex128)
    for chi in members:
        table = theta_coeffs(chi, bound)
        total[table.n] += table.a
    mean = total / len(members)
    n = np.arange(bound + 1)
    coprime = (np.gcd(n, modulus) == 1) & (n > 0)
    bad = np.flatnonzero(coprime & (abs(mean - exact) > 1e-9 * np.maximum(1.0, abs(exact))))
    if bad.size:
        k = bad[0]
        raise NumericalInstability(
            f"orbit mean of a_{k} is {complex(mean[k])}, exact orbit average is {complex(exact[k])}"
        )


# ---------------------------------------------------------------------------
# Scan records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyRecord:
    c: int
    exponents: tuple[int, ...]
    n: int
    orbit_size: int
    f: float
    W: int
    v: int
    Lv: float
    Lv_av: float
    tail_bound: float
    ratio: float
    N_counts: dict
    main_lemma: MainLemmaReport | None
    verdict: str
    error: str | None = None


def _verdict(value: float, tail: float) -> str:
    if abs(value) > 1e3 * tail:
        return "nonzero"
    if abs(value) < tail:
        return "zero"
    return "indeterminate"


def scan_report(
    field: FieldContext,
    phi: HeckeCharacter,
    P: tuple[int, ...],
    c_max: int,
    tol: float = 1e-8,
) -> list[FamilyRecord]:
    """One FamilyRecord per twist orbit; failures are recorded, not raised.

    The preconditions are the exception: malformed inputs raise DomainError
    and a phi that breaks Property 1 raises RestrictionMismatch, before any
    record is built.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be a positive finite number, not {tol}")
    if c_max < 1:
        raise DomainError(f"c_max must be at least 1, not {c_max}")
    if not all(is_prime(p) for p in P):
        raise DomainError(f"P must list primes, not {P}")
    check_property1(phi)
    L1 = dirichlet_L1(field)
    records = []
    for orbit in enumerate_twists(field, phi, P, c_max):
        try:
            records.append(_orbit_record(field, phi, orbit, L1, tol))
        except HeckeLabError as exc:
            records.append(_failed_record(orbit, exc))
    return records


def _failed_record(orbit: TwistOrbit, exc: HeckeLabError, **known) -> FamilyRecord:
    """A record of an orbit whose values failed; `known` holds f, N_counts, main_lemma."""
    nan = float("nan")
    fields = dict(f=nan, N_counts={}, main_lemma=None)
    fields.update(known)
    return FamilyRecord(
        c=orbit.c,
        exponents=orbit.exponents,
        n=orbit.order,
        orbit_size=len(orbit.members),
        W=0,
        v=0,
        Lv=nan,
        Lv_av=nan,
        tail_bound=nan,
        ratio=nan,
        verdict="indeterminate",
        error=f"{type(exc).__name__}: {exc}",
        **fields,
    )


def _orbit_record(field, phi, orbit, L1, tol) -> FamilyRecord:
    members = orbit_characters(phi, orbit)
    chi = members[0]
    rho = orbit.rho(field, orbit.members[0])
    # exact fields first: counts and the p-adic bookkeeping need no W;
    # one ideal walk to the largest threshold serves the counts and the orbit mean
    bound = int(chi.f_value ** max(T_EXPONENTS))
    ideals = enumerate_ideals(field, bound)
    counts = {}
    for alpha in T_EXPONENTS:
        t = chi.f_value**alpha
        counts[repr(alpha)] = {"t": int(t), "N": count_N_total(phi, rho, ideals, t)}
    lemma = main_lemma_quantities(chi)
    try:
        signs = [root_number(m) for m in members]
        if len(set(signs)) != 1:
            # the twist orbit exceeds the value-field Galois orbit; the
            # averaged value is not defined for it
            raise SignMismatch(
                f"orbit {orbit.c}:{orbit.exponents} has mixed signs {signs}"
            )
        W = int(signs[0])
        # one table of the first member serves the theta quotient and its central value
        Af = field.A * chi.f_value
        table = theta_coeffs(chi, max(fe_bound(chi), int(truncation(Af, tol))))
        W_fe = root_number_via_fe(chi, table=table)
        if abs(W_fe - W) > 1e-6:
            raise NumericalInstability(
                f"root numbers disagree: Gauss sum W = {W:+d}, theta quotient W = {W_fe:.6g}"
            )
        v = (1 - W) // 2
        values = averaged_L(members, v, tol=tol, w=float(W), table=table)
        _check_orbit_mean(phi, rho, members, ideals, bound)
    except HeckeLabError as exc:
        return _failed_record(orbit, exc, f=chi.f_value, N_counts=counts, main_lemma=lemma)
    sv = values[0]
    Lv_av = math.fsum(x.value for x in values) / len(values)
    denom = 2.0 * L1 if v == 0 else 2.0 * L1 * math.log(Af)
    return FamilyRecord(
        c=orbit.c,
        exponents=orbit.exponents,
        n=orbit.order,
        orbit_size=len(orbit.members),
        f=chi.f_value,
        W=W,
        v=v,
        Lv=sv.value,
        Lv_av=Lv_av,
        tail_bound=max(x.tail_bound for x in values),
        ratio=Lv_av / denom,
        N_counts=counts,
        main_lemma=lemma,
        verdict=_verdict(sv.value, sv.tail_bound),
    )


# ---------------------------------------------------------------------------
# Persistence: deterministic JSON / CSV / log
# ---------------------------------------------------------------------------


def _fstr(x: float) -> str:
    return repr(float(x))


def record_to_dict(record: FamilyRecord) -> dict:
    ml = record.main_lemma
    return {
        "c": record.c,
        "exponents": list(record.exponents),
        "n": record.n,
        "orbit_size": record.orbit_size,
        "f": _fstr(record.f),
        "W": record.W,
        "v": record.v,
        "Lv": _fstr(record.Lv),
        "Lv_av": _fstr(record.Lv_av),
        "tail_bound": _fstr(record.tail_bound),
        "ratio": _fstr(record.ratio),
        "N_counts": record.N_counts,
        "main_lemma": None
        if ml is None
        else {
            "mu": ml.mu,
            "h": ml.h,
            "q": ml.q,
            "entries": [
                {"p": e.p, "m_p": e.m_p, "o_p": e.o_p, "n_p": e.n_p} for e in ml.entries
            ],
        },
        "verdict": record.verdict,
        "error": record.error,
    }


def scan_to_json(
    field: FieldContext,
    phi: HeckeCharacter,
    P: tuple[int, ...],
    c_max: int,
    tol: float,
    records: list[FamilyRecord],
) -> str:
    payload = {
        "D": field.D,
        "P": sorted(set(P)),
        "c_max": c_max,
        "tol": _fstr(tol),
        "base_character": phi.descriptor(),
        "records": [record_to_dict(r) for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def scan_to_csv(field: FieldContext, records: list[FamilyRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["D", "c", "n", "f", "W", "v", "Lv", "Lv_av", "ratio", "verdict"])
    for r in records:
        writer.writerow(
            [
                field.D,
                r.c,
                r.n,
                _fstr(r.f),
                r.W,
                r.v,
                _fstr(r.Lv),
                _fstr(r.Lv_av),
                _fstr(r.ratio),
                r.verdict,
            ]
        )
    return buf.getvalue()


def save_scan(
    field: FieldContext,
    phi: HeckeCharacter,
    P: tuple[int, ...],
    c_max: int,
    tol: float,
    records: list[FamilyRecord],
    outdir: str | Path,
    stem: str = "scan",
) -> dict[str, Path]:
    """Write stem.json and stem.csv (deterministic) and append to stem.log."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": outdir / f"{stem}.json",
        "csv": outdir / f"{stem}.csv",
        "log": outdir / f"{stem}.log",
    }
    paths["json"].write_text(scan_to_json(field, phi, P, c_max, tol, records))
    paths["csv"].write_text(scan_to_csv(field, records))
    with paths["log"].open("a") as fh:
        for r in records:
            line = (
                f"D={field.D} c={r.c} exps={list(r.exponents)} n={r.n} W={r.W} v={r.v} "
                f"Lv={_fstr(r.Lv)} verdict={r.verdict}"
            )
            if r.error:
                line += f" error={r.error}"
            fh.write(line + "\n")
    return paths

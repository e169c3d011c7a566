"""Exception hierarchy.

Everything domain-level derives from HeckeLabError so the command line
interface can map "the input was mathematically bad" to a single exit code,
EXIT_DOMAIN_ERROR, distinct from usage errors (2) and from genuine bugs (1).
"""

EXIT_DOMAIN_ERROR = 3


class HeckeLabError(Exception):
    """Base class for domain errors."""


class BadDiscriminant(HeckeLabError):
    """Discriminant is not a negative fundamental discriminant."""


class NonFundamental(BadDiscriminant):
    """Discriminant of a quadratic order that is not maximal where one was required."""


class UnitInconsistent(HeckeLabError):
    """eps(u) * u != 1 for some unit u, so no character of this infinite type exists."""


class ImprimitiveFinitePart(HeckeLabError):
    """eps is trivial on the units = 1 mod f/P for some prime P | f: f is not its conductor."""


class RestrictionMismatch(HeckeLabError):
    """phi restricted to Q is not kappa_K (Property 1), so the family is outside the theorem."""


class NoConsistentLift(HeckeLabError):
    """Class-group lift failed; cannot happen when unit consistency holds."""


class UnitCountMismatch(HeckeLabError):
    """The roots of unity found in O do not number w_K."""


class FactorizationMismatch(HeckeLabError):
    """The prime ideal factors found for an ideal do not multiply to its norm."""


class IdealSearchExhausted(HeckeLabError):
    """A search through the ideals in norm order passed its norm limit without a hit."""


class GroupStructureMismatch(HeckeLabError, ValueError):
    """A group's elements and multiplication failed the structure certificate: a
    product left the listed elements, or the basis found does not enumerate each
    element exactly once."""


class NoAuxiliaryGenerator(HeckeLabError):
    """An ideal of trivial class has no principal generator."""


class MainLemmaViolation(HeckeLabError):
    """|m_p/2 - n_p| > 3 + mu + h, or the order on 1 + p^3 O is not a power of p."""


class NonPositiveArgument(HeckeLabError):
    """Kernel argument u must be positive."""


class DomainError(HeckeLabError):
    """Numeric parameter outside the supported domain."""


class SignMismatch(HeckeLabError):
    """Requested vanishing order v is inconsistent with the computed root number,
    or the members of one twist orbit disagree on their root numbers or on
    the verdicts of their central values."""


class NumericalInstability(HeckeLabError):
    """A certified numeric routine could not reach the requested tolerance."""


class DegenerateQuotient(HeckeLabError):
    """Denominator of a ratio estimate is numerically too small to trust."""


class NoCRTLift(HeckeLabError):
    """No e in q with e = 1 mod p (the root number's E in c, 1 mod f): p + q is not O."""


class PhaseOverflow(HeckeLabError):
    """A Gauss-sum phase, or a finite part's exponent dlog . exps, could leave
    the int64 range of its arrays."""

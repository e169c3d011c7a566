"""heckelab: Hecke characters over imaginary quadratic fields and their L-values.

The package computes, exactly where possible and with certified numerics
otherwise: equivariant Hecke characters of infinite type (1, 0), ring class
(anticyclotomic) twists, smoothed central L-values and derivatives, Gauss sum
root numbers, twist-orbit averages and p-adic counting experiments.
"""

__version__ = "0.1.0"

from .errors import HeckeLabError
from .quadfield import make_field

__all__ = ["HeckeLabError", "make_field", "__version__"]

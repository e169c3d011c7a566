"""heckelab: Hecke characters over imaginary quadratic fields and their L-values.

The package computes, exactly where possible and with certified numerics
otherwise: equivariant Hecke characters of infinite type (1, 0), ring class
(anticyclotomic) twists, smoothed central L-values and derivatives, Gauss sum
root numbers, twist-orbit averages and p-adic counting experiments.

heckelab makes no BLAS call, so when it is the code that first imports numpy,
it sets OPENBLAS_NUM_THREADS=1 and numpy's OpenBLAS starts no helper thread.
A user who sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
before the import keeps that choice, and a program that imports numpy first is
left as it is.
"""

import os
import sys

# heckelab's array ops are elementwise or int64 and never reach BLAS, so an
# OpenBLAS helper thread would only busy-wait after numpy loads
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

# imported after the default above, so that numpy loads with it
from .errors import HeckeLabError
from .quadfield import make_field

__all__ = ["HeckeLabError", "make_field", "__version__"]

"""Positivity of Hadamard (entrywise) powers of symmetric band matrices.

The library decides positive (semi)definiteness of tridiagonal and
pentadiagonal matrices both numerically (Sturm-sequence bisection) and
algebraically (finite chain sequences), describes which entrywise powers
preserve positivity for each band family, characterizes infinite
divisibility, and computes critical exponents for chordal zero patterns.

The package exports what its five modules export: each public name is
declared once, in its module's ``__all__``.
"""

__version__ = "0.1.0"

from . import bandmat, chainseq, graphs, positivity, preservers
from .bandmat import *  # noqa: F403
from .chainseq import *  # noqa: F403
from .graphs import *  # noqa: F403
from .positivity import *  # noqa: F403
from .preservers import *  # noqa: F403

__all__ = ["__version__"] + [name for m in (bandmat, positivity, chainseq, preservers, graphs) for name in m.__all__]

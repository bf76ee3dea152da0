"""Submodular k-partition via the principal partition sequence.

Exact-arithmetic implementation of the parametric-chain approximation
algorithm for minimum submodular k-partition, with the function families,
baselines, brute-force oracles, and worst-case constructions needed to
check its guarantees at small n.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package exports the union of those lists. Helpers left out
of a module's ``__all__`` stay importable from that module by name.
"""

from . import checkers, core, families, instances, kpartition, partition_opt, pps
from .core import *
from .families import *
from .checkers import *
from .partition_opt import *
from .pps import *
from .kpartition import *
from .instances import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, families, checkers, partition_opt, pps, kpartition, instances)
    for name in module.__all__
] + ["__version__"]

"""cyclehit: t-factors of regular multigraphs meeting prescribed cycle sets.

Constructive pipelines (vertex expansion by gadget trees, even-indegree
orientations, vertex splitting), explicit counterexample family generators,
and an independent exact brute-force oracle.
"""

# The package exports each module's __all__; the cli module's main is the
# console script, not a library name.
from .cycles import *
from .expansion import *
from .factors import *
from .families import *
from .gadgets import *
from .instances import *
from .multigraph import *
from .orientation import *
from .pipelines import *
from .solver import *

__version__ = "1.0.0"

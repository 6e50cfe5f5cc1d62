"""Computational laboratory for geodesic dynamics on three model spaces.

Backends: the rank-k free-group Cayley tree (exact integer geometry),
the hyperbolic upper half-plane with the modular group, and the flat
plane/torus as a zero-entropy negative control.  Modules cover orbit
and closed-geodesic counting, Patterson-Sullivan boundary measures,
and Bowen-style entropy/expansivity probes.
"""

from . import (counting, entropy, flat, geometry, halfplane, measures,
               modular, words)
from .geometry import FLAT, PLANE, TREE, BackendMismatch

# cli is named but not imported: `python -m hyplab.cli` imports the
# package first, and would otherwise find cli already loaded
__all__ = [
    "cli", "counting", "entropy", "flat", "geometry", "halfplane",
    "measures", "modular", "words",
    "FLAT", "PLANE", "TREE", "BackendMismatch",
]

__version__ = "0.1.0"

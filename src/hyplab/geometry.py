"""Backend names and hyperbolicity constants.

Names the three model spaces (free-group tree, hyperbolic half-plane,
flat plane), the error raised when a call meets the wrong backend, and
the hyperbolicity constant of each space.  The geometry itself (points,
geodesics, Busemann functions) lives in the per-backend modules `words`,
`halfplane` and `flat`.
"""

import math
from dataclasses import dataclass

from . import flat, halfplane

TREE, PLANE, FLAT = "tree", "plane", "flat"


class BackendMismatch(ValueError):
    pass


@dataclass(frozen=True)
class HyperbolicityConstant:
    delta: float
    provenance: str  # "exact" | "estimated" | "unbounded-witness"
    witness: object = None


def estimate_delta(backend, sample_count=10000, radius=10.0, seed=0):
    """Hyperbolicity constant of the backend.

    tree: exactly 0.  plane: Monte-Carlo max slim-triangle defect over
    sample_count random triangles in B(i, radius), deterministic given
    the seed.  flat: unbounded, witnessed by an equilateral triangle
    family.
    """
    if backend == TREE:
        return HyperbolicityConstant(0.0, "exact")
    if backend == PLANE:
        d = halfplane.estimate_delta_mc(sample_count, radius, seed)
        return HyperbolicityConstant(d, "estimated")
    tri, defect = flat.witness_triangle(radius)
    return HyperbolicityConstant(math.inf, "unbounded-witness",
                                 witness={"triangle": tri, "defect": defect})

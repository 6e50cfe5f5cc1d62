"""Backend names, hyperbolicity constants and the closed-geodesic census.

Names the three model spaces (free-group tree, hyperbolic half-plane,
flat plane), the error raised when a call meets the wrong backend, the
hyperbolicity constant of each space, and the census record that the
tree and modular closed-geodesic enumerations both return.  The geometry
itself (points, geodesics, Busemann functions) lives in the per-backend
modules `words`, `halfplane` and `flat`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import flat, halfplane

TREE, PLANE, FLAT = "tree", "plane", "flat"


class BackendMismatch(ValueError):
    pass


@dataclass(frozen=True)
class HyperbolicityConstant:
    delta: float
    provenance: str  # "exact" | "estimated" | "unbounded-witness"
    witness: object = None


@dataclass(frozen=True)
class GeodesicCensus:
    """Closed-geodesic classes of length <= T as columns, in (length,
    word) order: the canonical words and their float64 lengths, and on
    the plane the int64 (n, 4) matrix rows (a, b, c, d) and the
    primitive flags.

    T is the bound the census is complete to.  P(t) is the
    right-continuous counting function of the lengths, with 1e-12 slack,
    and is refused beyond T.
    """

    backend: str
    words: tuple
    lengths: np.ndarray
    h: float
    T: float
    matrices: np.ndarray = None
    primitive: np.ndarray = None

    def __post_init__(self):
        if (np.diff(self.lengths) < 0).any():
            raise ValueError("lengths must be sorted")

    def __len__(self):
        return len(self.words)

    def count(self, t):
        """P(t) = number of classes of length <= t, for t <= T."""
        if not t <= self.T:  # nan too
            raise ValueError(f"t = {t} beyond the census bound T = {self.T}")
        return int(np.searchsorted(self.lengths, t + 1e-12, side="right"))

    @property
    def entries(self):
        """((length, word), ...) as Python floats and strings."""
        return tuple(zip(self.lengths.tolist(), self.words))


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
    if backend == FLAT:
        tri, defect = flat.witness_triangle(radius)
        return HyperbolicityConstant(math.inf, "unbounded-witness",
                                     witness={"triangle": tri,
                                              "defect": defect})
    raise BackendMismatch(f"unknown backend {backend!r}")

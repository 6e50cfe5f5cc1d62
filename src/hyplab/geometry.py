"""Backend records, hyperbolicity constants and the closed-geodesic census.

Names the three model spaces (free-group tree, hyperbolic half-plane,
flat plane), holds each one's record (`Backend.of`: its exact h, base
point and defaults), the error raised when a call meets the wrong
backend, the hyperbolicity constant of each space, and the census
record of the tree and modular closed-geodesic enumerations.  Points,
geodesics and Busemann functions live in `words`, `halfplane`, `flat`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import flat, halfplane

TREE, PLANE, FLAT = "tree", "plane", "flat"


class BackendMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Backend:
    """A backend's constants and defaults, built only by `Backend.of`.

    h is the critical exponent, the flow's topological entropy: log(2k-1)
    on the rank-k tree, 1 on the modular surface, None on the flat torus.
    Orbit radii run from grid[0] by grid[1] up to Rmax grid[2], or grid[3]
    in `entropy.estimate_htop`'s volume fit.  T is the default census
    bound, n the spanning n grid, flow the flow point's keywords and ends
    the fiber endpoints (xi, eta), whose type parses their text."""

    name: str
    cli: str  # the command-line name
    h: float
    base: object
    grid: tuple
    T: float
    n: range
    flow: dict = field(compare=False)
    ends: tuple
    rank: int = None  # the tree's alone

    def radii(self, rmax=None):
        """The orbit-radius grid up to rmax, a number or its text."""
        top = int(float(self.grid[2] if rmax is None else rmax))
        return [float(r) for r in range(self.grid[0], top + 1, self.grid[1])]

    @classmethod
    def of(cls, name, rank=2, hyperbolic=False, cli=False):
        """The record of backend `name` (TREE, PLANE or FLAT, or with cli
        its command-line name).  Raises BackendMismatch on any other
        name, and on the flat torus where `hyperbolic` is asked, and
        ValueError on a tree rank outside 2..26."""
        if name == TREE:
            if not 2 <= rank <= 26:
                raise ValueError(f"tree rank must be in 2..26, not {rank}")
            b = cls(TREE, "tree", math.log(2 * rank - 1), "", (2, 1, 12, 10),
                    12.0, range(1, 7), dict(future="ab" * 12, past="BA" * 12),
                    ("a", "b"), rank)
        elif name == ("modular" if cli else PLANE):
            b = cls(PLANE, "modular", 1.0, 2j, (2, 1, 8, 8), 10.0, range(1, 6),
                    dict(pos=0.1 + 1.3j, theta=0.7), (0.0, math.inf))
        elif name == FLAT:
            b = cls(FLAT, "flat", None, (0.0, 0.0), (4, 4, 80, 80), None,
                    range(12, 41, 4), dict(pos=(0.2, 0.5)), (0.0, None))
        else:
            raise BackendMismatch(f"unknown backend {name!r}")
        if hyperbolic and b.h is None:
            raise BackendMismatch(f"{name!r} is not hyperbolic: its lattice "
                                  "grows polynomially, critical exponent 0")
        return b


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

    @staticmethod
    def bound(T):
        """T as a float, or ValueError unless it is finite and >= 0."""
        if not (math.isfinite(T) and T >= 0):
            raise ValueError(f"closed-geodesic length bound must be finite "
                             f"and >= 0, not {T}")
        return float(T)

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
    name = Backend.of(backend).name
    if name == TREE:
        return HyperbolicityConstant(0.0, "exact")
    if name == FLAT:
        tri, defect = flat.witness_triangle(radius)
        return HyperbolicityConstant(math.inf, "unbounded-witness",
                                     witness={"triangle": tri,
                                              "defect": defect})
    d = halfplane.estimate_delta_mc(sample_count, radius, seed)
    return HyperbolicityConstant(d, "estimated")

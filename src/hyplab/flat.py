"""Flat backend: the Euclidean plane with the Z^2 translation lattice.

The quotient is the unit-square torus.  Zero hyperbolicity (with explicit
witness triangles), polynomial orbit growth, zero entropy, and flat strips
of parallel geodesics: the negative controls for every hyperbolicity and
expansivity probe.
"""

import math

import numpy as np


def torus_dist(p, q):
    """Distance on the unit-square torus between lifts p and q: pairs,
    or arrays of shape (..., 2) that broadcast.  Per coordinate of the
    lift difference d, |d - round(d)| is min(|d| mod 1, 1 - |d| mod 1)
    exactly, however far apart the lifts are."""
    d = np.subtract(p, q)
    d -= np.rint(d)
    out = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
    return float(out) if out.ndim == 0 else out


def lattice_ball(radius):
    """All lattice vectors v in Z^2 with |v| <= radius, as an (n, 2) int
    array of rows (i, j) in lexicographic order."""
    r = int(math.floor(radius))
    k = np.arange(-r, r + 1)
    i, j = np.meshgrid(k, k, indexing="ij")
    return np.stack([i, j], axis=-1)[i * i + j * j <= radius * radius]


def witness_triangle(radius):
    """Equilateral triangle whose slim-triangle defect grows linearly with
    the side length: the flat plane is not Gromov hyperbolic.

    Returns (vertices, defect): defect = distance from a side midpoint to
    the other two sides = side * sqrt(3)/4.
    """
    s = float(radius)
    a = (0.0, 0.0)
    b = (s, 0.0)
    c = (s / 2.0, s * math.sqrt(3.0) / 2.0)
    defect = s * math.sqrt(3.0) / 4.0
    return (a, b, c), defect

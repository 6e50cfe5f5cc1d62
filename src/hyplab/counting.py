"""Orbit-growth and closed-geodesic statistics.

Censuses of orbit points in balls, volume-entropy fits with the two-sided
growth constants, primitive closed-geodesic counts on the exact backends,
and the Margulis-law ratio P(t)*h*t / e^{h t}.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import flat, halfplane, modular, words
from .geometry import FLAT, PLANE, TREE, Backend, GeodesicCensus


@dataclass(frozen=True)
class OrbitCensus:
    """Counts of {gamma : d(x, gamma x) <= R} on an increasing R grid."""

    backend: str
    base: object
    entries: tuple  # ((R, count), ...)
    complete: tuple  # per-entry completeness flags

    def __post_init__(self):
        rs = [r for r, _ in self.entries]
        cs = [c for _, c in self.entries]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("R grid must be strictly increasing")
        if any(b < a for a, b in zip(cs, cs[1:])):
            raise ValueError("counts must be nondecreasing in R")
        if len(self.complete) != len(self.entries):
            raise ValueError("one completeness flag per entry")

    @property
    def radii(self):
        return [r for r, _ in self.entries]

    @property
    def counts(self):
        return [c for _, c in self.entries]


@dataclass(frozen=True)
class EntropyEstimate:
    """Fitted growth exponent with the measured two-sided constants."""

    h: float
    window: tuple
    residual: float
    C1: float
    C2: float

    def __post_init__(self):
        if self.C1 > self.C2 + 1e-12:
            raise ValueError("C1 must not exceed C2")


def orbit_count(backend, base, r_grid, rank=2):
    """Census of card{gamma : d(x, gamma x) <= R} over an R grid.

    Tree and flat counts are exact closed-form/lattice enumerations; the
    hyperbolic-plane route builds the certified integer-matrix ball of
    the modular group once, at the largest R, and counts each R in it.
    """
    name = Backend.of(backend, rank).name
    r_grid = [float(r) for r in r_grid]
    if name == TREE:
        entries = tuple((r, words.ball_count(int(math.floor(r + 1e-9)), rank))
                        for r in r_grid)
        return OrbitCensus(TREE, base, entries, (True,) * len(entries))
    if name == FLAT:
        entries = tuple((r, len(flat.lattice_ball(r))) for r in r_grid)
        return OrbitCensus(FLAT, base, entries, (True,) * len(entries))
    p = complex(base)
    ball = modular.modular_ball(p, max(r_grid, default=0.0))
    # modular_ball's own test: each count is the radius-r ball's size
    d = halfplane.dist(p, halfplane.mobius_apply(ball.elements.T, p))
    entries = tuple((r, int((d <= r + modular.BALL_SLACK).sum()))
                    for r in r_grid)
    return OrbitCensus(PLANE, base, entries, (ball.complete,) * len(entries))


def fit_entropy(census, window=None):
    """Least-squares growth exponent of log(count) against R.

    By default the fit discards the lower half of the grid: the growth law
    is asymptotic and small radii pollute the slope.  C1 and C2 are the
    extreme values of count * e^{-hR} over the window.
    """
    pts = [(r, c) for (r, c) in census.entries if c > 0]
    if len(pts) < 4:
        raise ValueError("need at least 4 census points in the fit window")
    if window is None:
        lo = pts[len(pts) // 2][0] if len(pts) >= 8 else pts[0][0]
        window = (lo, pts[-1][0])
    sel = [(r, c) for r, c in pts if window[0] <= r <= window[1]]
    if len(sel) < 4:
        raise ValueError("need at least 4 census points in the fit window")
    rs = [r for r, _ in sel]
    ys = [math.log(c) for _, c in sel]
    n = len(sel)
    rbar = sum(rs) / n
    ybar = sum(ys) / n
    sxx = sum((r - rbar) ** 2 for r in rs)
    if sxx == 0:
        raise ValueError("degenerate fit window")
    h = sum((r - rbar) * (y - ybar) for r, y in zip(rs, ys)) / sxx
    a = ybar - h * rbar
    resid = math.sqrt(sum((y - (a + h * r)) ** 2
                          for r, y in zip(rs, ys)) / n)
    ratios = [c * math.exp(-h * r) for r, c in sel]
    return EntropyEstimate(h=h, window=tuple(window), residual=resid,
                           C1=min(ratios), C2=max(ratios))


def geodesic_census(backend, T, rank=2):
    """All primitive closed-geodesic classes of length <= T, as a
    GeodesicCensus complete to T.

    Tree classes are necklaces (oriented cyclic reduced words up to
    rotation); modular classes come from the exact R/L-word enumeration.
    Both routes are complete.
    """
    b = Backend.of(backend, rank, hyperbolic=True)
    if b.name == TREE:
        ws = words.necklaces(int(T), rank)
        return GeodesicCensus(TREE, tuple(ws),
                              np.fromiter(map(len, ws), float, len(ws)),
                              h=b.h, T=float(T))
    return modular.enumerate_conj_classes(T)


def margulis_ratio(census, h, t):
    """P(t) * h * t / e^{h t}, the Margulis-law normalization; t beyond
    the census bound raises ValueError."""
    if h <= 0:
        raise ValueError("need h > 0")
    return census.count(t) * h * t / math.exp(h * t)


def margulis_table(census, h, t_grid):
    """Trend table of (t, P(t), ratio) rows; never asserts convergence."""
    return [(t, census.count(t), margulis_ratio(census, h, t))
            for t in t_grid]


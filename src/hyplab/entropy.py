"""Bowen-style entropy probes for the geodesic flow.

Dynamical metrics d_k over flow lines, greedy spanning/separated counts,
top-entropy slope estimates, and the expansivity probes that contrast
the hyperbolic backends with the flat negative control.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import counting, flat, halfplane, words
from .geometry import FLAT, PLANE, TREE, Backend

SAMPLES_PER_UNIT = 4  # d_n grid points per unit time, continuous backends


@dataclass(frozen=True)
class FlowPoint:
    """A bi-infinite geodesic with marked time-0 point.

    Tree: the origin vertex with a backward word `past` and a forward
    word `future`, read outward from the origin; all three are reduced
    words.  Beyond either word the line repeats it, and a time there
    raises ValueError when the repetition would cancel.  Plane: (position
    in the upper half-plane, direction angle).  Flat: (position mod the
    unit lattice, direction angle).

    The backend is decided once, here: the point carries `point(t)`, the
    base-space point c_v(t), at a scalar time on the tree.  The plane and
    the flat torus also take an array of times, and carry `metric`, their
    base-space distance broadcast over arrays of points.
    """

    backend: str
    origin: object = ""
    future: str = ""
    past: str = ""
    pos: object = None
    theta: float = 0.0

    def __post_init__(self):
        name = Backend.of(self.backend).name
        if name == TREE:
            if not self.future or not self.past:
                raise ValueError("tree flow point needs both directions")
            for w in (self.origin, self.future, self.past):
                if words.reduce_word(w) != w:
                    raise ValueError(f"tree word {w!r} not reduced")
            if self.future[0] == self.past[0]:
                raise ValueError("flow line backtracks at time 0")
            vars(self).update(point=self._tree_point)
        elif name == PLANE:
            p = complex(self.pos)
            if p.imag <= 0:
                raise ValueError(f"{p} is not a point of the upper "
                                 "half-plane")
            object.__setattr__(self, "geodesic", halfplane.Geodesic(
                halfplane.forward_endpoint(p, self.theta + math.pi),
                halfplane.forward_endpoint(p, self.theta), p))
            vars(self).update(metric=halfplane.dist,
                              point=self.geodesic.point)
        else:
            object.__setattr__(self, "pos",
                               np.mod(np.asarray(self.pos, dtype=float),
                                      1.0))
            vars(self).update(metric=flat.torus_dist, point=self._flat_point)

    def _tree_point(self, t):
        n = int(round(t))
        word = self.future if n >= 0 else self.past
        n = abs(n)
        if n > len(word):
            # periodic continuation: repeat the word, which must not
            # cancel against itself
            if not words.is_reduced(word + word):
                raise ValueError(f"window word {word!r} does not "
                                 "repeat as a reduced word")
            word = word * (n // len(word) + 1)
        return words.mul(self.origin, word[:n])

    def _flat_point(self, t):
        v = np.array([math.cos(self.theta), math.sin(self.theta)])
        return self.pos + np.multiply.outer(t, v)


@dataclass(frozen=True)
class SpanningReport:
    """Two-sided estimate of the minimal (n, delta)-span r_n: the size of
    a maximal (n, 2 delta)-separated subset of the sample (`lower`) and
    of a greedy (n, delta)-cover of it (`upper`)."""

    n: int
    delta: float
    lower: int
    upper: int
    method: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("separated lower bound exceeds cover upper")


def _dn_rows(sample, n_grid):
    """d_n from one plane or flat line to some lines, for every n.

    Each line is evaluated once, at SAMPLES_PER_UNIT points per unit
    time up to the largest n.  For integer n that grid starts with the
    grid of every smaller n, so d_n is a running max along t: the max of
    each segment up to the next distinct n column (np.maximum.reduceat),
    accumulated over those few segments.  row(i, live) is d_n from line
    i to the lines indexed by live, of shape (len(n_grid), len(live)).
    """
    ends, which = np.unique([SAMPLES_PER_UNIT * int(n) for n in n_grid],
                            return_inverse=True)
    starts = np.concatenate(([0], ends[:-1] + 1))
    ts = np.arange(ends[-1] + 1) / SAMPLES_PER_UNIT
    pts = np.array([w.point(ts) for w in sample])
    metric = sample[0].metric
    return lambda i, live: np.maximum.accumulate(np.maximum.reduceat(
        metric(pts[live], pts[i]), starts, axis=1), axis=1)[:, which].T


def spanning_counts(sample, n_grid, delta):
    """`spanning_count` for every n in n_grid, in one pass over the sample.

    The n must be integers, in any order and repeated or not: the d_n
    grids nest only then, so a non-integer n raises ValueError, as does
    a delta that is not a finite positive number.

    Tree lines must share one origin o (ValueError otherwise).  Then
    c_v(t) = o F_v[:t], so d(c_v(t), c_w(t)) = 2 max(0, t - lcp(F_v,
    F_w)) never decreases in t, and d_n <= r exactly when v and w share
    their vertex at time max(0, n - floor(r / 2)).  Each greedy pass
    keeps one line per such class: the counts are the classes, exact.

    Elsewhere the greedy cover (threshold delta) and separated set
    (2 delta) run together over the lines in index order, for every n at
    once; d_n from a new member reaches only the later lines still free.
    """
    if not sample:
        raise ValueError("empty flow sample")
    n_grid = list(n_grid)
    if not n_grid or any(n != int(n) or n < 0 for n in n_grid):
        raise ValueError(f"n grid {n_grid} is not non-negative integers")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta {delta} is not a finite positive number")
    if sample[0].backend == TREE:
        if len({v.origin for v in sample}) > 1:
            raise ValueError("tree flow lines do not share one origin")
        for v in sample:
            v.point(max(n_grid))  # a window that cannot repeat raises

        def classes(n, half):  # d_n <= 2 half: one vertex at n - floor(half)
            return len({v.point(max(0, int(n) - math.floor(half)))
                        for v in sample})
        method = ("exact-symbolic" if delta < 1.0
                  else "greedy-cover/separated-lower")
        return [SpanningReport(int(n), float(delta), classes(n, delta),
                               classes(n, delta / 2.0), method)
                for n in n_grid]
    row = _dn_rows(sample, n_grid)
    # free[p, k, j]: line j may still join pass p (0 the cover, 1 the
    # separated set) at the k-th n; a member clears what it is near
    free = np.ones((2, len(n_grid), len(sample)), dtype=bool)
    size = np.zeros(free.shape[:2], dtype=int)
    near = np.array([delta, 2.0 * delta])[:, None, None]
    for i in range(len(sample)):
        join = free[:, :, i].copy()
        if join.any():
            size += join
            live = i + 1 + np.flatnonzero(free[join, i + 1:].any(axis=0))
            free[:, :, live] &= (row(i, live) > near) | ~join[:, :, None]
    return [SpanningReport(int(n), float(delta), int(lo), int(up),
                           "greedy-cover/separated-lower")
            for n, up, lo in zip(n_grid, *size)]


def spanning_count(sample, n, delta):
    """Greedy d_n cover (upper bound for r_n) and greedy maximal
    (n, 2 delta)-separated subset (lower bound), both reported.

    A 2 delta-separated set meets each delta-ball at most once, so the
    lower figure never exceeds any delta-cover cardinality.  The greedy
    cover is itself a maximal delta-separated set: a line becomes a
    centre when no earlier centre is within delta.  So the two figures
    are one greedy rule at two thresholds, and `spanning_counts` runs
    both in the same pass.  n must be an integer.

    On the flat torus (diameter sqrt(2)/2) no two lines are ever more
    than 2 delta apart once 2 delta > sqrt(2)/2, as at the default
    delta = 0.5: the lower figure is then trivially 1 and the report is
    an upper bound only.
    """
    return spanning_counts(sample, [n], delta)[0]


def tree_flow_sample(depth, rank=2):
    """One flow line per reduced forward word of length `depth`.

    All lines share the origin vertex; the backward direction is any
    non-backtracking letter, which d_n over t >= 0 never sees.
    """
    lets = words.letters(rank)
    out = []
    for f in sorted(words.ball_words(depth, rank)):
        if len(f) != depth:
            continue
        back = next(c for c in lets if c != f[0])
        out.append(FlowPoint(TREE, "", f, back * max(1, depth)))
    return out


def flat_flow_sample(n_dirs=720, n_pos=4, seed=3):
    """Deterministic grid of torus flow lines: positions x directions."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_pos):
        pos = rng.random(2)
        for i in range(n_dirs):
            out.append(FlowPoint(FLAT, pos=pos,
                                 theta=2.0 * math.pi * i / n_dirs))
    return out


def plane_flow_sample(n_dirs=24, seed=3, n_pos=6):
    """Seeded flow lines based in the standard fundamental domain."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_pos):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(1.05, 2.0)
        for i in range(n_dirs):
            out.append(FlowPoint(PLANE, pos=complex(x, y),
                                 theta=2.0 * math.pi * i / n_dirs))
    return out


@dataclass(frozen=True)
class HtopEstimate:
    """Slope estimate of log r_n in n with the volume-entropy gap."""

    h: float
    slopes: dict = field(compare=False)
    reports: list = field(compare=False)
    fit_h: float
    gap: float
    stable: bool


def estimate_htop(backend, n_grid=None, delta_grid=None, rank=2,
                  sample=None):
    """Least-squares slope of log r_n versus n at the finest delta.

    The slope is fitted to the cover upper bounds (the separated lower
    bounds give the same slope when the sandwich is tight), over at
    least two distinct n (ValueError otherwise), and is compared with
    the volume entropy from the orbit-count fit; defaults are the
    backend record's."""
    b = Backend.of(backend, rank)
    delta_grid = (0.5,) if delta_grid is None else tuple(delta_grid)
    n_grid = list(b.n if n_grid is None else n_grid)
    if sample is None:
        sample = (tree_flow_sample(max(n_grid), rank) if b.name == TREE
                  else flat_flow_sample() if b.name == FLAT
                  else plane_flow_sample())
    if len(set(n_grid)) < 2:
        raise ValueError(f"n grid {n_grid} has no two distinct n to fit")
    slopes, all_reports = {}, []
    for delta in delta_grid:
        reports = spanning_counts(sample, n_grid, delta)
        all_reports.extend(reports)
        logs = np.log([r.upper for r in reports])
        slopes[delta] = float(np.polyfit(n_grid, logs, 1)[0])
    vals = [slopes[d] for d in sorted(slopes)]
    h = vals[0]  # finest delta
    spread = max(vals) - min(vals) if len(vals) > 1 else 0.0
    stable = spread <= 0.1 * max(abs(h), 1e-9) + 1e-9
    census = counting.orbit_count(backend, b.base, b.radii(b.grid[3]),
                                  rank=rank)
    fit = counting.fit_entropy(census)
    return HtopEstimate(h, slopes, all_reports, fit.h,
                        abs(h - fit.h), stable)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of an expansivity probe."""

    classification: str
    rho: float
    certificate: str = ""
    witness: object = None
    detail: str = ""


def z_set_probe(v, rho, horizon=20, sample_budget=400, seed=11):
    """Search for a flow line w, off the orbit of v, staying rho-close
    to v over |t| <= horizon.

    Tree route returns an exact scale certificate for rho < 1: vertex
    distances are integers, so two flow lines within rho < 1 at every
    integer time occupy the same vertices and coincide.  Flat route
    returns the parallel-line witness.  Plane route runs a seeded
    perturbation search over `sample_budget` points of the plane (a
    draw off the upper half-plane is redrawn, not counted) and reports
    the (non-)finding as evidence.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho {rho} is not a finite positive number")
    if v.backend == TREE:
        if rho < 1.0:
            return ProbeReport(
                "EXPANSIVE-AT-SCALE", rho,
                certificate=("integer-valued vertex metric: d < 1 at all "
                             "integer times forces equality of the two "
                             "vertex sequences, hence of the flow lines"))
        return ProbeReport("UNKNOWN", rho,
                           detail="certificate only available for rho < 1")
    if v.backend == FLAT:
        offset = min(0.75 * rho, 0.3)
        normal = v.theta + 0.5 * math.pi
        shift = offset * np.array([math.cos(normal), math.sin(normal)])
        witness = FlowPoint(FLAT, pos=v.pos + shift, theta=v.theta)
        sep = max(flat.torus_dist(v.point(t), witness.point(t))
                  for t in np.linspace(-horizon, horizon, 4 * horizon + 1))
        return ProbeReport(
            "NON-EXPANSIVE-WITNESS", rho, witness=witness,
            detail=f"parallel line at offset {offset:g}, "
                   f"max separation {sep:.6f} <= rho over the horizon")
    rng = np.random.default_rng(seed)
    ts = np.linspace(-horizon, horizon, 4 * horizon + 1)
    ref = [complex(v.point(t)) for t in ts]
    drawn = 0
    while drawn < sample_budget:
        dz = complex(rng.normal(0, 0.3 * rho), rng.normal(0, 0.3 * rho))
        dth = rng.normal(0, 0.5 * rho)
        pos = complex(v.pos) + dz
        if pos.imag <= 0:
            continue
        drawn += 1
        if abs(dz) < 1e-9 and abs(dth) < 1e-9:
            continue
        w = FlowPoint(PLANE, pos=pos, theta=v.theta + dth)
        # skip time shifts of v itself (same unoriented line)
        gv, gw = v.geodesic, w.geodesic
        if (abs(gv.u - gw.u) < 1e-9 and abs(gv.v - gw.v) < 1e-9):
            continue
        if all(halfplane.dist(a, w.point(t)) <= rho
               for a, t in zip(ref, ts)):
            return ProbeReport("NON-EXPANSIVE-WITNESS", rho, witness=w)
    return ProbeReport(
        "UNKNOWN", rho,
        detail=f"no witness among {sample_budget} seeded perturbations "
               f"over |t| <= {horizon}; consistent with expansivity "
               "(evidence, not proof)")


def endpoint_fiber_probe(backend, xi, eta):
    """Number of distinct flow lines found with the given endpoints.

    Tree and plane geodesics are determined by their endpoint pair
    (count 1, exact/closed-form certificate).  A flat line heading xi
    has eta = xi + pi (mod 2 pi) as its backward direction, and that
    pair carries a continuum of parallels, of which two are returned.
    """
    name = Backend.of(backend).name
    if name == TREE:
        xi = xi if isinstance(xi, words.BoundaryWord) else \
            words.BoundaryWord(xi)
        eta = eta if isinstance(eta, words.BoundaryWord) else \
            words.BoundaryWord(eta)
        if xi == eta:
            raise ValueError("endpoints must differ")
        return 1, "unique reduced bi-infinite word through the tree"
    if name == FLAT:
        gap = (float(eta) - float(xi) - math.pi) % (2 * math.pi)
        if not min(gap, 2 * math.pi - gap) <= 1e-9:
            raise ValueError("flat endpoints must be opposite directions")
        a = FlowPoint(FLAT, pos=(0.0, 0.0), theta=float(xi))
        b = FlowPoint(FLAT, pos=(0.37, 0.41), theta=float(xi))
        return 2, [a, b]
    if xi == eta:
        raise ValueError("endpoints must differ")
    g = halfplane.line(xi, eta)
    kind = "vertical line" if g.vert else "semicircle"
    return 1, f"unique geodesic ({kind}) determined by its endpoints"

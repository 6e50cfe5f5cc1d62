"""Bowen-style entropy probes for the geodesic flow.

Dynamical metrics d_k over flow lines, greedy spanning/separated counts,
top-entropy slope estimates, and the expansivity probes that contrast
the hyperbolic backends with the flat negative control.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import counting, flat, halfplane, words
from .geometry import FLAT, PLANE, TREE, BackendMismatch

DEFAULT_WINDOW = 32


@dataclass(frozen=True)
class FlowPoint:
    """A bi-infinite geodesic with marked time-0 point.

    Tree: reduced word window of radius `window` around the origin
    vertex, as a backward word `past` and a forward word `future` (both
    read outward from the origin); continuation beyond the window
    repeats the last letter.  Plane: (position, direction angle).
    Flat: (position mod the unit lattice, direction angle).
    """

    backend: str
    origin: object = ""
    future: str = ""
    past: str = ""
    pos: object = None
    theta: float = 0.0
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.backend == TREE:
            if not self.future or not self.past:
                raise ValueError("tree flow point needs both directions")
            for w in (self.future, self.past):
                if words.reduce_word(w) != w:
                    raise ValueError(f"window word {w!r} not reduced")
            if self.future[0] == self.past[0]:
                raise ValueError("flow line backtracks at time 0")
        elif self.backend == FLAT:
            object.__setattr__(self, "pos",
                               np.mod(np.asarray(self.pos, dtype=float),
                                      1.0))

    def point(self, t):
        """The base-space point c_v(t); on the continuous backends an
        array of times gives the array of points."""
        if self.backend == TREE:
            n = int(round(t))
            word = self.future if n >= 0 else self.past
            n = abs(n)
            if n > len(word):
                # periodic continuation: cycle the window word
                ext = word * (n // len(word) + 1)
                return words.mul(self.origin, words.reduce_word(ext[:n]))
            return words.mul(self.origin, word[:n])
        if self.backend == PLANE:
            return self._geodesic().point(self._t0 + t)
        if self.backend == FLAT:
            v = np.array([math.cos(self.theta), math.sin(self.theta)])
            return self.pos + np.multiply.outer(t, v)
        raise BackendMismatch(f"unknown backend {self.backend!r}")

    def _geodesic(self):
        if not hasattr(self, "_geo"):
            p = complex(self.pos)
            fwd = halfplane.forward_endpoint(p, self.theta)
            bwd = halfplane.forward_endpoint(p, self.theta + math.pi)
            g = halfplane.line(bwd, fwd)
            object.__setattr__(self, "_geo", g)
            object.__setattr__(self, "_t0", g.time_of(p))
        return self._geo

    def shift(self, t):
        """The time-shifted flow point phi_t(v) (integer t on the tree)."""
        if self.backend == TREE:
            n = int(round(t))
            if abs(n) > min(len(self.future), len(self.past)) - 1:
                raise ValueError("shift exceeds usable window")
            if n == 0:
                return self
            word = self.future if n > 0 else self.past
            other = self.past if n > 0 else self.future
            n = abs(n)
            new_origin = words.mul(self.origin, word[:n])
            back = words.inverse(word[:n]) + other
            return FlowPoint(TREE, new_origin, word[n:],
                             words.reduce_word(back), window=self.window)
        if self.backend == PLANE:
            g = self._geodesic()
            z = g.point(self._t0 + t)
            th = halfplane.direction_toward(z, g.v)
            return FlowPoint(PLANE, pos=z, theta=th)
        if self.backend == FLAT:
            return FlowPoint(FLAT, pos=self.point(t), theta=self.theta)
        raise BackendMismatch(f"unknown backend {self.backend!r}")


def _base_dist(backend, a, b):
    if backend == TREE:
        return float(words.distance(a, b))
    if backend == PLANE:
        return float(halfplane.dist(complex(a), complex(b)))
    if backend == FLAT:
        return flat.torus_dist(a, b)
    raise BackendMismatch(f"unknown backend {backend!r}")


def dyn_metric(v, w, k, samples_per_unit=4):
    """d_k(v, w) = max over t in [0, k] of d(c_v(t), c_w(t)).

    Tree flow lines are evaluated at the exact integer times; the
    continuous backends sample a uniform t grid including both ends.
    """
    if v.backend != w.backend:
        raise BackendMismatch("flow points live on different backends")
    if v.backend == TREE:
        if k > min(len(v.future), len(w.future)):
            raise ValueError("k exceeds usable window")
        return max(float(words.distance(words.mul(v.origin, v.future[:t]),
                                        words.mul(w.origin, w.future[:t])))
                   for t in range(int(k) + 1))
    ts = np.linspace(0.0, float(k), max(2, int(k * samples_per_unit) + 1))
    return max(_base_dist(v.backend, v.point(t), w.point(t)) for t in ts)


@dataclass(frozen=True)
class SpanningReport:
    """Two-sided estimate of the minimal (n, delta)-span r_n."""

    n: int
    delta: float
    lower: int
    upper: int
    method: str
    universe: str
    stable: bool = True

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("separated lower bound exceeds cover upper")


SAMPLES_PER_UNIT = 4  # d_n grid points per unit time, continuous backends


def _dn_rows(sample, n_grid):
    """d_n from one sample line to every sample line, for all n in n_grid.

    Each line is evaluated once, on the time grid of the largest n:
    integer times on the tree, multiples of 1/SAMPLES_PER_UNIT otherwise.
    For integer n that grid starts with the grid of every smaller n, so a
    running max along t reads off every d_n in one pass.  Returns row(i),
    an array of shape (len(n_grid), len(sample)).
    """
    backend = sample[0].backend
    steps = 1 if backend == TREE else SAMPLES_PER_UNIT
    cols = [steps * int(n) for n in n_grid]
    ts = np.arange(max(cols) + 1) / steps
    if backend == TREE:
        pts = [[v.point(t) for t in ts] for v in sample]

        def along(i):
            return np.array([[float(words.distance(a, b))
                              for a, b in zip(r, pts[i])] for r in pts])
    else:
        pts = np.array([v.point(ts) for v in sample])
        metric = flat.torus_dist if backend == FLAT else halfplane.dist

        def along(i):
            return metric(pts, pts[i])
    return lambda i: np.maximum.accumulate(along(i), axis=1)[:, cols].T


def _greedy_separated(apart, m, g):
    """Sizes of g greedy maximal separated sets of the lines 0..m-1: in
    index order, line i joins set k when apart(j)[k, i] holds for every
    member j so far.  apart(j) is the symmetric relation seen from j, so
    only members' rows are ever asked for."""
    free = np.ones((g, m), dtype=bool)
    size = np.zeros(g, dtype=int)
    for i in range(m):
        join = free[:, i].copy()
        if join.any():
            size += join
            free[join] &= apart(i)[join]
    return size


def spanning_counts(sample, n_grid, delta):
    """`spanning_count` for every n in n_grid, in one pass over the sample.

    The n must be integers: the one-pass d_n grid nests only then, so a
    non-integer n raises ValueError.  Each line's distance row is built
    at most once, the first time the greedy cover or the separated scan
    needs it, and lives only for this call.
    """
    if not sample:
        raise ValueError("empty flow sample")
    n_grid = list(n_grid)
    if not n_grid or any(n != int(n) or n < 0 for n in n_grid):
        raise ValueError(f"n grid {n_grid} is not non-negative integers")
    backend, m = sample[0].backend, len(sample)
    if backend == TREE and 0 < delta < 1.0:
        # exact symbolic route: vertex distances are integers, so a
        # delta-ball (delta < 1) holds exactly the lines sharing the
        # forward prefix, and distinct prefixes are d_n >= 2 separated
        out = []
        for n in n_grid:
            prefixes = {tuple(v.point(t) for t in range(int(n) + 1))
                        for v in sample}
            out.append(SpanningReport(int(n), float(delta), len(prefixes),
                                      len(prefixes), "exact-symbolic",
                                      f"tree sample of {m} flow lines"))
        return out
    row = _dn_rows(sample, n_grid)

    @functools.cache
    def apart(i):
        d = row(i)
        return d > delta, d > 2.0 * delta

    g = len(n_grid)
    upper = _greedy_separated(lambda i: apart(i)[0], m, g)
    lower = _greedy_separated(lambda i: apart(i)[1], m, g)
    return [SpanningReport(int(n), float(delta), int(lo), int(up),
                           "greedy-cover/separated-lower",
                           f"{backend} sample of {m} flow lines")
            for n, lo, up in zip(n_grid, lower, upper)]


def spanning_count(sample, n, delta):
    """Greedy d_n cover (upper bound for r_n) and greedy maximal
    (n, 2 delta)-separated subset (lower bound), both reported.

    A 2 delta-separated set meets each delta-ball at most once, so the
    lower figure never exceeds any delta-cover cardinality.  The greedy
    cover is itself a maximal delta-separated set, so both figures come
    from one greedy scan at two thresholds.  n must be an integer.

    On the flat torus (diameter sqrt(2)/2) no two lines are ever more
    than 2 delta apart once 2 delta > sqrt(2)/2, as at the default
    delta = 0.5: the lower figure is then trivially 1 and the report is
    an upper bound only.
    """
    return spanning_counts(sample, [n], delta)[0]


def tree_flow_sample(depth, rank=2, window=None):
    """One flow line per reduced forward word of length `depth`.

    All lines share the origin vertex; the backward direction is any
    non-backtracking letter, which d_n over t >= 0 never sees.
    """
    window = depth if window is None else window
    lets = words.letters(rank)
    out = []
    for f in sorted(words.ball_words(depth, rank)):
        if len(f) != depth:
            continue
        back = next(c for c in lets if c != f[0])
        out.append(FlowPoint(TREE, "", f, back * max(1, window),
                             window=window))
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

    The slope is computed from the cover upper bounds (the separated
    lower bounds give the same slope when the sandwich is tight) and is
    compared against the volume entropy from the orbit-count fit.
    """
    if backend == TREE:
        n_grid = list(range(1, 7)) if n_grid is None else list(n_grid)
        delta_grid = (0.5,) if delta_grid is None else tuple(delta_grid)
        sample = (tree_flow_sample(max(n_grid), rank)
                  if sample is None else sample)
        fit_grid = list(range(2, 11))
    elif backend == FLAT:
        n_grid = (list(range(12, 41, 4)) if n_grid is None
                  else list(n_grid))
        delta_grid = (0.5,) if delta_grid is None else tuple(delta_grid)
        sample = flat_flow_sample() if sample is None else sample
        fit_grid = list(range(4, 81, 4))
    elif backend == PLANE:
        n_grid = list(range(1, 6)) if n_grid is None else list(n_grid)
        delta_grid = (0.5,) if delta_grid is None else tuple(delta_grid)
        sample = plane_flow_sample() if sample is None else sample
        fit_grid = [float(r) for r in range(2, 9)]
    else:
        raise BackendMismatch(f"unknown backend {backend!r}")
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
    census = counting.orbit_count(backend, 2j if backend == PLANE else None,
                                  fit_grid, rank=rank)
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
    perturbation search and reports the (non-)finding as evidence.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
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
        sep = max(_base_dist(FLAT, v.point(t), witness.point(t))
                  for t in np.linspace(-horizon, horizon, 4 * horizon + 1))
        return ProbeReport(
            "NON-EXPANSIVE-WITNESS", rho, witness=witness,
            detail=f"parallel line at offset {offset:g}, "
                   f"max separation {sep:.6f} <= rho over the horizon")
    if v.backend == PLANE:
        rng = np.random.default_rng(seed)
        ts = np.linspace(-horizon, horizon, 4 * horizon + 1)
        ref = [complex(v.point(t)) for t in ts]
        for _ in range(sample_budget):
            dz = complex(rng.normal(0, 0.3 * rho), rng.normal(0, 0.3 * rho))
            dth = rng.normal(0, 0.5 * rho)
            if abs(dz) < 1e-9 and abs(dth) < 1e-9:
                continue
            w = FlowPoint(PLANE, pos=complex(v.pos) + dz,
                          theta=v.theta + dth)
            # skip time shifts of v itself (same unoriented line)
            gv, gw = v._geodesic(), w._geodesic()
            if (abs(gv.u - gw.u) < 1e-9 and abs(gv.v - gw.v) < 1e-9):
                continue
            if all(_base_dist(PLANE, a, w.point(t)) <= rho
                   for a, t in zip(ref, ts)):
                return ProbeReport("NON-EXPANSIVE-WITNESS", rho, witness=w)
        return ProbeReport(
            "UNKNOWN", rho,
            detail=f"no witness among {sample_budget} seeded perturbations "
                   f"over |t| <= {horizon}; consistent with expansivity "
                   "(evidence, not proof)")
    raise BackendMismatch(f"unknown backend {v.backend!r}")


def endpoint_fiber_probe(backend, xi, eta):
    """Number of distinct flow lines found with the given endpoints.

    Tree and plane geodesics are determined by their endpoint pair
    (count 1, exact/closed-form certificate); on the flat torus a
    direction pair (theta, -theta) carries a continuum of parallels, of
    which two distinct representatives are returned.
    """
    if backend == TREE:
        xi = xi if isinstance(xi, words.BoundaryWord) else \
            words.BoundaryWord(xi)
        eta = eta if isinstance(eta, words.BoundaryWord) else \
            words.BoundaryWord(eta)
        if xi == eta:
            raise ValueError("endpoints must differ")
        return 1, "unique reduced bi-infinite word through the tree"
    if backend == PLANE:
        if xi == eta:
            raise ValueError("endpoints must differ")
        g = halfplane.line(xi, eta)
        kind = "vertical line" if g.vertical else "semicircle"
        return 1, f"unique geodesic ({kind}) determined by its endpoints"
    if backend == FLAT:
        a = FlowPoint(FLAT, pos=(0.0, 0.0), theta=float(xi))
        b = FlowPoint(FLAT, pos=(0.37, 0.41), theta=float(xi))
        return 2, [a, b]
    raise BackendMismatch(f"unknown backend {backend!r}")

"""Patterson-Sullivan measures and their quantitative checks.

Truncated Poincare series with tail bounds, the atomic orbital measures,
extrapolation of boundary-cell masses toward the critical exponent,
conformal-density and shadow-lemma checks, the pair measure on the double
boundary with its invariance test, closed-geodesic equidistribution, and
the two flow-measure validators (forward-cone mass and separated sets).
"""

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import flat, halfplane, modular, words
from .geometry import FLAT, PLANE, TREE, BackendMismatch

PAIR_WEIGHT_CAP = 1e6  # e^{h beta} above this: diagonal band, excluded


# ---------------------------------------------------------------------------
# boundary partitions

@dataclass(frozen=True)
class BoundaryPartition:
    """Finite partition of the boundary at infinity into disjoint cells.

    Tree cells are cylinders below reduced prefixes of a fixed depth.
    Plane cells are arcs of the visual circle at `base`, stored as angle
    intervals; the angle coordinate is the initial direction at `base` of
    the ray toward the boundary point.
    """

    backend: str
    cells: tuple
    base: object = None
    rank: int = 2

    def __len__(self):
        return len(self.cells)

    def representative(self, i):
        """A concrete boundary point inside cell i."""
        if self.backend == TREE:
            w = self.cells[i]
            cont = _forward_letter(w, self.rank)
            return words.BoundaryWord(cont, prefix=w)
        lo, hi = self.cells[i]
        return halfplane.forward_endpoint(self.base, 0.5 * (lo + hi))

    @functools.cached_property
    def representatives(self):
        """representative(i) for every cell, built once per partition."""
        return tuple(self.representative(i) for i in range(len(self)))

    def locate_angle(self, theta):
        """Index of the arc holding each angle (a scalar or an array)."""
        n = len(self.cells)
        lo0 = self.cells[0][0]
        idx = np.floor(np.mod(np.asarray(theta, dtype=float) - lo0,
                              2.0 * math.pi)
                       / (2.0 * math.pi / n)).astype(np.int64) % n
        return int(idx) if idx.ndim == 0 else idx


def _forward_letter(w, rank):
    """First alphabet letter extending w without cancellation."""
    for c in words.letters(rank):
        if not w or c != words.inv_letter(w[-1]):
            return c
    raise AssertionError("rank >= 1 always leaves a forward letter")


def tree_partition(depth, rank=2):
    """All boundary cylinders of a fixed prefix depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cells = tuple(sorted(w for w in words.ball_words(depth, rank)
                         if len(w) == depth))
    return BoundaryPartition(TREE, cells, base="", rank=rank)


def plane_partition(n_arcs, base=1j):
    """Uniform visual arcs at `base`: n equal angle sectors."""
    if n_arcs < 2:
        raise ValueError("need at least 2 arcs")
    step = 2.0 * math.pi / n_arcs
    cells = tuple((-math.pi + i * step, -math.pi + (i + 1) * step)
                  for i in range(n_arcs))
    return BoundaryPartition(PLANE, cells, base=complex(base))


# ---------------------------------------------------------------------------
# atomic orbital measures

@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms at orbit points, with the truncation
    tail of the defining series bounded explicitly."""

    backend: str
    atoms: tuple  # ((point, weight), ...)
    total_mass: float
    tail_bound: float
    params: tuple  # ((name, value), ...)

    def __post_init__(self):
        if any(w < 0 for _, w in self.atoms):
            raise ValueError("atom weights must be nonnegative")
        p = dict(self.params)
        if "s" in p and "d_px" in p:
            lo = math.exp(-p["s"] * p["d_px"]) - self.tail_bound
            hi = math.exp(p["s"] * p["d_px"]) + self.tail_bound
            if not (lo - 1e-9 <= self.total_mass <= hi + 1e-9):
                raise ValueError("total mass outside the conformal-weight "
                                 f"bounds [{lo}, {hi}]")


def tree_series_closed_form(s, rank=2):
    """Exact value of the tree Poincare series: (1+x)/(1-(2k-1)x)."""
    x = math.exp(-s)
    q = (2 * rank - 1) * x
    if q >= 1.0:
        raise ValueError("series diverges at and below the growth exponent")
    return (1.0 + x) / (1.0 - q)


def poincare_series(backend, s, p=None, q=None, cap=30.0, rank=2):
    """Truncated Poincare series sum_gamma e^{-s d(p, gamma q)}.

    Returns (partial sum over the enumerated ball, tail bound).  Tree and
    flat tails are exact geometric/polynomial sums; the plane tail uses
    the measured upper growth constant C2 e^{R} of the orbit counts.
    """
    if backend == TREE:
        h = math.log(2 * rank - 1)
        if s <= h:
            raise ValueError(f"series diverges for s <= log({2 * rank - 1})")
        # homogeneous: d(p, gamma q) sweeps each vertex distance once
        x = math.exp(-s)
        n = int(math.floor(cap + 1e-9))
        ratio = (2 * rank - 1) * x
        partial = 1.0 + sum(2 * rank * (2 * rank - 1) ** (m - 1) * x ** m
                            for m in range(1, n + 1))
        tail = (2 * rank * (2 * rank - 1) ** n * x ** (n + 1)
                / (1.0 - ratio))
        return partial, tail
    if backend == PLANE:
        if s <= 1.0:
            raise ValueError("series diverges for s <= 1 (modular group)")
        p = 2j if p is None else complex(p)
        q = p if q is None else complex(q)
        atoms = _plane_atoms(p, q, cap)
        d = atoms.d
        partial = float(np.exp(-s * d).sum()) + atoms.base_atom
        # measured upper growth constant over the outer half of the ball
        c2 = _measured_c2(d, cap)
        tail = c2 * math.exp(-(s - 1.0) * cap) / (1.0 - math.exp(-(s - 1.0)))
        return partial, tail
    if backend == FLAT:
        if s <= 0:
            raise ValueError("series diverges for s <= 0")
        n = int(math.floor(cap + 1e-9))
        pts = flat.lattice_ball(cap)
        partial = sum(math.exp(-s * math.hypot(a, b)) for a, b in pts)
        # crude quadratic-growth tail: card sphere(m) <= 8m for m >= 1
        tail = sum(8 * (m + 1) * math.exp(-s * m) for m in range(n, n + 200))
        tail += 8 * (n + 201) * math.exp(-s * (n + 200)) / (1 - math.exp(-s))
        return partial, tail
    raise BackendMismatch(f"unknown backend {backend!r}")


def _apply_many(mats, z):
    a, b, c, d = mats[:, 0], mats[:, 1], mats[:, 2], mats[:, 3]
    return (a * z + b) / (c * z + d)


def _measured_c2(dists, cap):
    grid = np.arange(max(1.0, cap / 2.0), cap + 0.5, 1.0)
    counts = np.searchsorted(np.sort(dists), grid + 1e-12)
    return float(max(counts * np.exp(-grid)))


def ps_measure(backend, p, s, cap, x=None, rank=2):
    """The orbital measure nu_{p,x,s}: atoms e^{-s d(p, gamma x)} at the
    orbit points gamma x, normalized by the Poincare series at x."""
    if backend == TREE:
        p = p or ""
        x = p if x is None else x
        norm = tree_series_closed_form(s, rank)
        atoms = []
        for u in words.ball_words(int(cap), rank):
            v = words.mul(p, u)  # orbit point at distance |u| from p
            atoms.append((v, math.exp(-s * len(u)) / norm))
        _, tail_num = poincare_series(TREE, s, cap=cap, rank=rank)
        total = sum(w for _, w in atoms)
        return AtomicMeasure(TREE, tuple(atoms), total, tail_num / norm,
                             (("s", s), ("cap", cap), ("d_px", 0.0 if x == p
                                                       else float(words.distance(p, x)))))
    if backend == PLANE:
        p = complex(p)
        x = p if x is None else complex(x)
        npart, ntail = poincare_series(PLANE, s, p=x, q=x, cap=cap)
        z = _apply_many(modular.modular_ball(p, cap, q=x).elements, x)
        d = halfplane.dist(p, z)
        w = np.exp(-s * d) / npart
        _, num_tail = poincare_series(PLANE, s, p=p, q=x, cap=cap)
        total = float(w.sum())
        tail = num_tail / npart + total * ntail / npart
        atoms = tuple(zip(z.tolist(), w.tolist()))
        return AtomicMeasure(PLANE, atoms, total, tail,
                             (("s", s), ("cap", cap),
                              ("d_px", float(halfplane.dist(p, x)))))
    raise BackendMismatch(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# boundary-cell masses and the limit s -> h

def _tree_cell_masses(p, s, partition, cap):
    """Normalized nu_{p,x,s} masses of the cylinder cells, base p = root.

    Per-cell geometric sums in closed form (over the full orbit when
    cap=None): a cylinder of depth m holds (2k-1)^{n-m} orbit points at
    distance n, so its unnormalized mass is sum_n q^{n-m} x^n.
    """
    if p not in ("", None):
        raise BackendMismatch("tree finite-s cell masses are rooted at the "
                              "identity vertex")
    rank = partition.rank
    x = math.exp(-s)
    q = (2 * rank - 1) * x
    if q >= 1.0:
        raise ValueError("s at or below the growth exponent")
    norm = tree_series_closed_form(s, rank)
    out = []
    for w in partition.cells:
        m = len(w)
        if cap is None:
            cell = x ** m / (1.0 - q)
        else:
            n = int(cap) - m + 1
            cell = x ** m * (1.0 - q ** n) / (1.0 - q)
        out.append(cell / norm)
    return np.array(out)


class _PlaneAtoms:
    """Cached orbit atoms around a base point: positions, distances and
    boundary directions, reused across the s grid."""

    def __init__(self, p, x, cap):
        self.p, self.x, self.cap = complex(p), complex(x), float(cap)
        # the ball is dropped as soon as its orbit points are known
        z = _apply_many(modular.modular_ball(self.p, cap, q=self.x).elements,
                        self.x)
        keep = np.abs(z - self.p) > 1e-12  # drop the atom at p itself
        self.z = z[keep]
        self.d = halfplane.dist(self.p, self.z)
        self.xi = halfplane.geodesic_endpoints(self.p, self.z)[1]
        self.base_atom = int((~keep).sum())

    def cell_masses(self, s, partition, norm, floor=0.0):
        sel = self.d >= floor
        idx = partition.locate_angle(
            halfplane.direction_toward(partition.base, self.xi[sel]))
        w = np.exp(-s * self.d[sel])
        w /= w.sum() if norm is None else norm
        return np.bincount(idx, weights=w, minlength=len(partition))

    def interval_masses(self, s, intervals, partition, norm):
        """Masses of arbitrary circular angle intervals (lo, hi) ccw."""
        th = np.mod(halfplane.direction_toward(partition.base, self.xi),
                    2.0 * math.pi)
        w = np.exp(-s * self.d) / norm
        order = np.argsort(th)
        th_s, w_s = th[order], np.concatenate(([0.0], np.cumsum(w[order])))
        out = []
        for lo, hi in intervals:
            lo, hi = lo % (2.0 * math.pi), hi % (2.0 * math.pi)
            if lo <= hi:
                a, b = np.searchsorted(th_s, [lo, hi])
                out.append(w_s[b] - w_s[a])
            else:
                a = np.searchsorted(th_s, lo)
                b = np.searchsorted(th_s, hi)
                out.append((w_s[-1] - w_s[a]) + w_s[b])
        return np.array(out)


def _plane_atoms(p, x, cap):
    return _cached_atoms(complex(p), complex(x), round(float(cap), 9))


# Two entries cover the alternation of the (x, x) and (p, x) atom sets in
# cell_masses and ps_measure; more would let memory follow the process
# history instead of the requested problem.
@functools.lru_cache(maxsize=2)
def _cached_atoms(p, x, cap):
    return _PlaneAtoms(p, x, cap)


DEFAULT_PAIR_CAP = 14.0


def _annulus_limit_masses(p, partition, cap=None):
    """Extrapolated limit cell masses from the outer atom annulus only.

    Heavy atoms near p carry no limit mass (the diverging normalizer
    kills every bounded region as s -> h) but dominate small cells at
    finite cap; dropping the inner half of the ball removes that bias.
    """
    cap = DEFAULT_PAIR_CAP if cap is None else float(cap)
    atoms = _plane_atoms(complex(p), complex(p), cap)
    rows = [atoms.cell_masses(s, partition, None, 0.5 * cap)
            for s in DEFAULT_S_GRID_PLANE]
    masses, err, _ = extrapolate_to_h(rows, DEFAULT_S_GRID_PLANE, 1.0)
    return masses, err


def cell_masses(backend, p, s, partition, cap=None, x=None):
    """Cell masses of nu_{p,x,s} pushed to the boundary partition."""
    if backend == TREE:
        return _tree_cell_masses(p, s, partition, cap)
    if backend == PLANE:
        p = complex(p)
        x = p if x is None else complex(x)
        cap = 12.0 if cap is None else cap
        norm, _ = poincare_series(PLANE, s, p=x, q=x, cap=cap)
        return _plane_atoms(p, x, cap).cell_masses(s, partition, norm)
    raise BackendMismatch(f"unknown backend {backend!r}")


def extrapolate_to_h(values_by_s, s_grid, h):
    """Richardson extrapolation of cell masses along a geometric s grid.

    s_grid must decrease toward h with (s-h) in a fixed ratio; assuming
    first-order behavior m(s) = m(h) + c (s-h) + O((s-h)^2), successive
    pairs give extrapolants whose last difference is the error estimate.
    Returns (extrapolated array, error estimate, cauchy flag).
    """
    eps = np.array([s - h for s in s_grid])
    if not (np.all(eps > 0) and np.all(np.diff(eps) < 0)):
        raise ValueError("s grid must decrease strictly toward h")
    rows = [np.asarray(v, dtype=float) for v in values_by_s]
    extr = []
    for j in range(len(rows) - 1):
        r = eps[j + 1] / eps[j]
        extr.append((rows[j + 1] - r * rows[j]) / (1.0 - r))
    if len(extr) == 1:
        return extr[0], float(np.max(np.abs(extr[0] - rows[-1]))), True
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(extr, extr[1:])]
    cauchy = all(b <= a * 1.5 + 1e-15 for a, b in zip(diffs, diffs[1:]))
    return extr[-1], diffs[-1], cauchy


DEFAULT_S_GRID_TREE = tuple(math.log(3) + e for e in (0.4, 0.2, 0.1, 0.05))
DEFAULT_S_GRID_PLANE = (1.8, 1.4, 1.2, 1.1)


def limit_cell_masses(backend, p, partition, s_grid=None, cap=None, x=None):
    """Extrapolated s -> h boundary masses on all partition cells."""
    if backend == TREE:
        s_grid = DEFAULT_S_GRID_TREE if s_grid is None else s_grid
        h = math.log(2 * partition.rank - 1)
    elif backend == PLANE:
        s_grid = DEFAULT_S_GRID_PLANE if s_grid is None else s_grid
        h = 1.0
    else:
        raise BackendMismatch(f"unknown backend {backend!r}")
    rows = [cell_masses(backend, p, s, partition, cap=cap, x=x)
            for s in s_grid]
    return extrapolate_to_h(rows, s_grid, h)


def _far_log_ratios(atoms, q, partition, s_grid, h, cap):
    """Per-cell log(nu_q / nu_p) read off at s = h, and the usable cells.

    nu_p and nu_q weigh the same orbit atoms by e^{-s d(p, y)} and
    e^{-s d(q, y)}.  Only the outer annulus d(p, y) >= cap/2 carries the
    limit measure: as s -> h the diverging normalizer kills the relative
    weight of every bounded region, and on far atoms d(q,y) - d(p,y) has
    already converged to the Busemann cocycle.  Each cell's log ratio is
    fitted to first order in (s - h) over the s grid; cells with no far
    atom are excluded with a warning.
    """
    n = len(partition)
    dq = halfplane.dist(q, atoms.z)
    idx = partition.locate_angle(
        halfplane.direction_toward(partition.base, atoms.xi))
    # near atoms go to an extra cell n that is dropped, so the atom arrays
    # are read in place, not copied through a mask (at cap 12 all but
    # about 0.25% of them are far); each cell still sums the same far
    # atoms in the same order
    idx[atoms.d < 0.5 * cap] = n
    svals = np.asarray(s_grid, dtype=float)
    rows = []
    for s in svals:
        num = np.bincount(idx, weights=np.exp(-s * dq), minlength=n + 1)[:n]
        den = np.bincount(idx, weights=np.exp(-s * atoms.d),
                          minlength=n + 1)[:n]
        # an empty cell gives log 0: it is counted in one warning below
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append(np.log(num) - np.log(den))
    rows = np.array(rows)
    usable = np.all(np.isfinite(rows), axis=0)
    if not usable.all():
        warnings.warn(f"{int((~usable).sum())} zero-mass cells excluded")
        rows[:, ~usable] = 0.0
    coef = np.polyfit(svals - h, rows, 1)
    return coef[1], usable


# ---------------------------------------------------------------------------
# conformal density check

def conformal_check(backend, p, q, partition, s_grid=None, cap=None, x=None,
                    rank=2):
    """Max over cells of |log(nu_q/nu_p) + h b_p(q, xi_cell)|.

    Tree route is exact: where neither base lies below a cell w, its
    masses are (1/2k)(2k-1)^-e with integer e = d(base, w) - 1, so
    nu_q/nu_p = (2k-1)^-b reads e_q - e_p == b, with b the integer
    Busemann value at the cell's representative.  Complement cells and
    mismatches are measured in Fractions, which give the float defect.
    Plane route uses extrapolated arc masses and the closed-form Busemann
    function at each arc's representative direction.
    """
    if backend == TREE:
        worst = 0.0
        for w, xi in zip(partition.cells, partition.representatives):
            e_p, inside_p = words.visual_exponent(p, w)
            e_q, inside_q = words.visual_exponent(q, w)
            b = words.tree_busemann(q, p, xi)
            if not (inside_p or inside_q) and e_q - e_p == b:
                continue
            nu_p = words.visual_measure(p, w, rank)
            nu_q = words.visual_measure(q, w, rank)
            # exact check: nu_q/nu_p must equal (2k-1)^{-b}
            if nu_q / nu_p == Fraction(2 * rank - 1) ** (-b):
                continue
            defect = abs(math.log(float(nu_q / nu_p))
                         + math.log(2 * rank - 1) * b)
            worst = max(worst, defect)
        return worst
    if backend == PLANE:
        p, q = complex(p), complex(q)
        s_grid = DEFAULT_S_GRID_PLANE if s_grid is None else s_grid
        cap = 12.0 if cap is None else float(cap)
        x = p if x is None else complex(x)
        h = 1.0
        log_ratio, usable = _far_log_ratios(_plane_atoms(p, x, cap), q,
                                            partition, s_grid, h, cap)
        worst = 0.0
        for i in np.flatnonzero(usable):
            b = halfplane.busemann(q, p, partition.representatives[i])
            worst = max(worst, abs(log_ratio[i] + h * b))
        return worst
    raise BackendMismatch(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# shadows and the shadow lemma

def shadow(backend, x, p, rho):
    """The shadow pr_x B(p, rho): boundary points whose ray from x meets
    the ball around p.

    Tree route (rho < 1, so the ball is the single vertex p) returns an
    exact cylinder description: ("cyl", w) is the set of boundary words
    with prefix w, ("co-cyl", w) its complement.  Plane route returns
    ("arc", (lo, hi)) with the closed-form visual arc endpoints.
    """
    if backend == TREE:
        if not 0 < rho < 1:
            raise ValueError("tree route needs 0 < rho < 1 (vertex ball)")
        if x == p:
            raise ValueError("viewpoint inside the ball")
        path = words.geodesic_vertices(x, p)
        if len(p) > len(path[-2]):
            # the ray continues away from x into the subtree below p
            return ("cyl", p)
        # p is above x: rays through p are those leaving the subtree at n,
        # the neighbor of p on the path toward x
        return ("co-cyl", path[-2])
    if backend == PLANE:
        x, p = complex(x), complex(p)
        lo, hi = halfplane.shadow_arc(x, p, rho)
        return ("arc", (lo, hi))
    raise BackendMismatch(f"unknown backend {backend!r}")


def shadow_contains(desc, xi):
    """Membership of a boundary point in a shadow description."""
    kind, data = desc
    if kind == "cyl":
        return xi.word(len(data)) == data
    if kind == "co-cyl":
        return xi.word(len(data)) != data
    if kind != "arc":
        raise ValueError(f"unknown shadow description {kind!r}")
    lo, hi = data
    # arc from lo to hi counterclockwise on the boundary circle
    th = halfplane.direction_toward(1j, [lo, hi, xi])
    a, b, t = np.mod(th - th[0], 2.0 * math.pi)
    return t <= b


def shadow_mass_bounds(backend, p, x, rho, partition=None, s_grid=None,
                       cap=None, rank=2):
    """(nu_p(shadow of B(x, rho)), ratio to e^{-h d(p,x)})."""
    if backend == TREE:
        desc = shadow(TREE, p, x, rho)  # shadow of B(x,.) seen from p
        if desc[0] != "cyl":
            raise ValueError("mass bound route expects a proper shadow")
        mass = words.visual_measure(p, desc[1], rank)
        d = words.distance(p, x)
        ratio = float(mass) * float(2 * rank - 1) ** d
        return float(mass), ratio
    if backend == PLANE:
        p, x = complex(p), complex(x)
        lo, hi = halfplane.shadow_arc(p, x, rho)
        base_part = partition or plane_partition(256)
        th = halfplane.direction_toward(base_part.base, [lo, hi])
        interval = (th[0], th[1])
        s_grid = DEFAULT_S_GRID_PLANE if s_grid is None else s_grid
        cap = 12.0 if cap is None else cap
        rows = []
        for s in s_grid:
            norm, _ = poincare_series(PLANE, s, p=p, q=p, cap=cap)
            rows.append(_plane_atoms(p, p, cap)
                        .interval_masses(s, [interval], base_part, norm))
        mass, _, _ = extrapolate_to_h(rows, s_grid, 1.0)
        d = halfplane.dist(p, x)
        return float(mass[0]), float(mass[0] * math.exp(d))
    raise BackendMismatch(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# the pair measure on the double boundary

@dataclass(frozen=True)
class PairMeasure:
    """Weights e^{h beta_p(xi_i, xi_j)} nu(cell_i) nu(cell_j) on distinct
    cell pairs, with a reported excluded diagonal band."""

    backend: str
    base: object
    partition: BoundaryPartition
    weights: dict = field(compare=False)
    excluded: frozenset
    h: float

    def weight(self, i, j):
        if i == j:
            raise ValueError("diagonal pairs carry no pair-measure weight")
        return self.weights[(min(i, j), max(i, j))]


def pair_measure(backend, p, partition, masses=None, h=None, rank=2,
                 cap=None):
    """Build the pair measure from cell masses at representatives.

    Plane masses, when not given, are extrapolated from the orbit atoms
    of radius `cap` (default DEFAULT_PAIR_CAP)."""
    if backend == TREE:
        h = math.log(2 * rank - 1)
        if masses is None:
            masses = [words.visual_measure(p or "", w, rank)
                      for w in partition.cells]
        weights, excluded = {}, set()
        for i in range(len(partition)):
            for j in range(i + 1, len(partition)):
                lcp = words.common_prefix_len(partition.cells[i],
                                              partition.cells[j])
                factor = Fraction(2 * rank - 1) ** (2 * lcp)
                if float(factor) > PAIR_WEIGHT_CAP:
                    excluded.add((i, j))
                    continue
                weights[(i, j)] = factor * masses[i] * masses[j]
        return PairMeasure(TREE, p or "", partition, weights,
                           frozenset(excluded), h)
    if backend == PLANE:
        h = 1.0 if h is None else h
        p = complex(p)
        if masses is None:
            masses, _ = _annulus_limit_masses(p, partition, cap=cap)
        weights, excluded = {}, set()
        reps = partition.representatives
        for i in range(len(partition)):
            for j in range(i + 1, len(partition)):
                beta = halfplane.gromov_beta(p, reps[i], reps[j])
                factor = math.exp(h * beta)
                if factor > PAIR_WEIGHT_CAP:
                    excluded.add((i, j))
                    continue
                weights[(i, j)] = factor * masses[i] * masses[j]
        return PairMeasure(PLANE, p, partition, weights,
                           frozenset(excluded), h)
    raise BackendMismatch(f"unknown backend {backend!r}")


def cylinder_pushforward(g, w, rank=2):
    """Disjoint cylinders covering g . cyl(w), exactly.

    Cancellation at the g|w junction leaves a single cylinder unless w is
    absorbed entirely, in which case the image splits over the admissible
    continuation letters.
    """
    if not w:
        raise ValueError("cylinder prefix must be nonempty")
    n = len(w)
    if len(g) >= n and g[-n:] == words.inverse(w):
        stem = g[:-n]
        out = []
        for c in words.letters(rank):
            if c == words.inv_letter(w[-1]):
                continue
            out.extend(cylinder_pushforward(stem, c, rank) if stem
                       else [c])
        return out
    return [words.mul(g, w)]


def _exact_pair_mass(cells_a, cells_b, rank):
    """Exact pair-measure mass of (union of cylinders) x (union), as
    (n, E) with mass n / ((2k)^2 (2k-1)^E) in integers.

    The pair (a, b) weighs (2k-1)^(2 lcp(a, b)) nu(a) nu(b), which is
    (2k)^-2 (2k-1)^-t with t = |a| + |b| - 2 - 2 lcp(a, b) = d(a, b) - 2.
    """
    ts = [words.distance(a, b) - 2 for a in cells_a for b in cells_b]
    e = max(0, *ts)
    return sum((2 * rank - 1) ** (e - t) for t in ts), e


def pair_invariance_check(pm, gamma, s_grid=None, cap=None):
    """Max defect of mu-bar(gamma A x gamma B) against mu-bar(A x B).

    Tree route is exact over the cylinder pushforward: both masses are
    integers over a common power of (2k-1), compared as integers, and a
    nonzero difference is returned as a float of the exact rational (it
    must be identically zero).  Plane route re-bins the atomic masses
    over the Mobius image arcs and reports the max relative defect.
    """
    part = pm.partition
    if pm.backend == TREE:
        if not words.is_reduced(gamma):
            raise ValueError("gamma must be a reduced word")
        rank = part.rank
        base = 2 * rank - 1
        images = [cylinder_pushforward(gamma, w, rank) for w in part.cells]
        worst = Fraction(0)
        for (i, j) in pm.weights:
            n_lhs, e_lhs = _exact_pair_mass([part.cells[i]], [part.cells[j]],
                                            rank)
            n_rhs, e_rhs = _exact_pair_mass(images[i], images[j], rank)
            e = max(e_lhs, e_rhs)
            diff = n_rhs * base ** (e - e_rhs) - n_lhs * base ** (e - e_lhs)
            if diff:
                worst = max(worst, Fraction(abs(diff),
                                            (2 * rank) ** 2 * base ** e))
        return float(worst)
    # plane: gamma is an integer matrix acting by Mobius maps.  The
    # image cell mass is computed by pushing the measure instead of the
    # set: nu_p(gamma A) = nu_{gamma^-1 p}(A) exactly, and the latter is
    # measured on the same atoms as nu_p(A), so the per-cell log ratio
    # is free of binning and truncation bias common to both.
    p = complex(pm.base)
    n = len(part)
    h = pm.h
    s_grid = DEFAULT_S_GRID_PLANE if s_grid is None else s_grid
    cap = DEFAULT_PAIR_CAP if cap is None else float(cap)
    q = modular.apply(modular.mat_inv(gamma), p)
    log_ratio, usable = _far_log_ratios(_plane_atoms(p, p, cap), q, part,
                                        s_grid, h, cap)
    reps = part.representatives
    greps = [halfplane.mobius_apply_boundary(gamma, r) for r in reps]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in pm.excluded or not (usable[i] and usable[j]):
                continue
            beta = halfplane.gromov_beta(p, reps[i], reps[j])
            if math.exp(h * beta) > PAIR_WEIGHT_CAP:
                continue
            dlog = (h * (halfplane.gromov_beta(p, greps[i], greps[j])
                         - beta) + log_ratio[i] + log_ratio[j])
            worst = max(worst, abs(math.exp(dlog) - 1.0))
    return worst


# ---------------------------------------------------------------------------
# closed-geodesic equidistribution on the modular surface

# y levels cutting the fundamental domain into four regions of equal
# hyperbolic area pi/12 (area above height Y is 1/Y for Y >= 1)
_Y_CUTS = (4.0 / math.pi, 6.0 / math.pi, 12.0 / math.pi)


def _cell_index(z, theta, n_theta=4):
    ybin = np.digitize(z.imag, _Y_CUTS)
    tbin = np.minimum((theta / (2.0 * math.pi / n_theta)).astype(int),
                      n_theta - 1)
    return ybin * n_theta + tbin


def liouville_cell_masses(n_theta=4):
    """Reference masses of the 16 position x direction cells.

    Liouville measure is the product of the normalized hyperbolic area
    and the uniform angle; the y cuts are chosen so each of the 4 x 4
    cells carries exactly 1/16.  Verified here by quadrature on the area
    factor rather than asserted.
    """
    area = []
    xs = np.linspace(-0.5, 0.5, 4001)[:-1] + 1.0 / 8000
    floor = np.sqrt(1.0 - xs ** 2)
    cuts = (0.0,) + _Y_CUTS + (np.inf,)
    for lo, hi in zip(cuts, cuts[1:]):
        ylo = np.maximum(floor, lo)
        yhi = np.full_like(xs, hi)
        col = np.clip(1.0 / ylo - (0.0 if np.isinf(hi) else 1.0 / yhi),
                      0.0, None)
        area.append(col.mean())
    area = np.array(area)
    area /= area.sum()
    return np.repeat(area, n_theta) / n_theta


def equidistribution_test(census, T, n_theta=4, samples_per_unit=40):
    """Cell masses of the closed-geodesic measure mu_T against Liouville.

    mu_T averages arc length over all primitive classes of length <= T,
    normalized to a probability measure.  Each geodesic is sampled
    uniformly along one period [0, ell) of its axis, a halfplane.line
    whose origin t = 0 is the top of the semicircle (height 1 on a
    vertical axis).  The samples are folded into the fundamental domain
    with their tangent directions and binned into 16 position x
    direction cells.

    Returns (mu_masses, liouville_masses, per-cell gaps).
    """
    if census.backend != PLANE:
        raise BackendMismatch("equidistribution runs on the modular census")
    hist = np.zeros(4 * n_theta)
    total = 0.0
    for length, word in census.entries:
        if length > T + 1e-12:
            continue
        m = modular._word_matrix(word)
        geo, ell = modular.closed_geodesic_path(m)
        k = max(32, int(math.ceil(ell * samples_per_unit)))
        z = geo.point((np.arange(k) + 0.5) * (ell / k))
        # fold from [0, 2 pi): an angle on a cell edge keeps its bin
        theta = np.mod(halfplane.direction_toward(z, geo.v), 2.0 * math.pi)
        zf, tf = modular.fold_points(z, theta)
        idx = _cell_index(zf, tf, n_theta)
        hist += np.bincount(idx, minlength=4 * n_theta) * (ell / k)
        total += ell
    mu = hist / total
    ref = liouville_cell_masses(n_theta)
    return mu, ref, mu - ref



# ---------------------------------------------------------------------------
# flow-measure validators (forward-cone mass and separated sets)

def validate_D_mass(p, x, r_prime, r, rank=2):
    """Exact flow mass of D(x, R', R) on the tree, with the c' candidate.

    D is the set of unit tangent vectors based in B(p, R') whose forward
    geodesic enters B(x, R).  The mass disintegrates over cylinder pairs:
    backward ends branch off the [p, x] segment at depth j (pair-measure
    factor (2k-1)^{2j}), forward ends fill the cylinder below x, and the
    time spent in B(p, R') along such a line is exactly 2(R' - j).

    Returns (mass, c' = mass * e^{h d(p,x)}).
    """
    if p not in ("", None):
        raise BackendMismatch("exact route is rooted at the identity")
    n = words.distance("", x)
    if n <= r:
        raise ValueError("need d(p, x) > R")
    if r_prime >= n:
        raise ValueError("exact route needs R' < d(p, x)")
    if r >= 1:
        raise ValueError("exact route needs R < 1 (vertex-ball target)")
    q = 2 * rank - 1
    nu_x = words.cylinder_measure(x, rank)
    mass = Fraction(0)
    for j in range(int(math.floor(r_prime)) + 1):
        u = x[:j]
        branch = Fraction(0)
        for c in words.letters(rank):
            if c == x[j]:
                continue  # the axis direction itself
            if u and c == words.inv_letter(u[-1]):
                continue  # not a reduced continuation
            branch += words.cylinder_measure(u + c, rank)
        leb = 2 * (Fraction(r_prime) - j)
        mass += branch * nu_x * Fraction(q) ** (2 * j) * leb
    c_prime = mass * Fraction(q) ** n
    return mass, c_prime


def _extended_path(u, x, horizon, rank=2):
    """Vertices along the line through u and x, continued past x."""
    path = words.geodesic_vertices(u, x)
    while len(path) < horizon + 1:
        path.append(path[-1] + _forward_letter(path[-1], rank))
    return path


def validate_separated_bound(x, n, rho, r_prime, r, rank=2):
    """Cardinality of a maximal (d_n, 2 r0)-separated subset of D(x,R',R).

    r0 = 4 delta + 3 rho with delta = 0 on the tree.  The domain is one
    flow line per base vertex in B(identity, R'), each aimed at x;
    separation is measured in the exact d_n metric and the subset is
    grown greedily in deterministic order over the whole ball.

    Returns (cardinality, "exhaustive").
    """
    if words.distance("", x) < n + r + r_prime:
        raise ValueError("need d(x, p) >= n + R + R'")
    r0 = 3 * rho
    horizon = n + int(math.ceil(r_prime)) + 2
    bases = sorted(words.ball_words(int(math.floor(r_prime)), rank))
    lines = [_extended_path(u, x, horizon + len(x), rank) for u in bases]
    kept = []
    for path in lines:
        ok = True
        for other in kept:
            dn = max(words.distance(path[t], other[t])
                     for t in range(n + 1))
            if dn < 2 * r0:
                ok = False
                break
        if ok:
            kept.append(path)
    return len(kept), "exhaustive"

"""Patterson-Sullivan measures and their quantitative checks.

Truncated Poincare series with tail bounds, the atomic orbital measures
nu_{p,s} at one base point p, the limit s -> h of boundary-cell masses
(exact on the tree, one least-squares fit on the plane), conformal-density
and shadow-lemma checks, the pair measure on the double boundary with its
invariance test, closed-geodesic equidistribution, and the two
flow-measure validators (forward-cone mass and separated sets).  The
exact h of every route is the backend record's (`geometry.Backend`);
tree routes that take a partition read the rank from the partition.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import halfplane, modular, words
from .geometry import PLANE, TREE, Backend, BackendMismatch

PAIR_WEIGHT_CAP = 1e6  # e^{h beta} above this: diagonal band, excluded
PLANE_BASE = 1j  # every plane partition's arcs are angles at i


# ---------------------------------------------------------------------------
# boundary partitions

@dataclass(frozen=True)
class BoundaryPartition:
    """Finite partition of the boundary at infinity into disjoint cells.

    Tree cells are cylinders below reduced prefixes of a fixed depth.
    Plane cells are arcs of the visual circle at PLANE_BASE = i, stored as
    angle intervals; the angle coordinate is the initial direction at i
    of the ray toward the boundary point.
    """

    backend: str
    cells: tuple
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
        return halfplane.forward_endpoint(PLANE_BASE, 0.5 * (lo + hi))

    @functools.cached_property
    def representatives(self):
        """representative(i) for every cell, built once per partition."""
        return tuple(self.representative(i) for i in range(len(self)))

    @functools.cached_property
    def cell_codes(self):
        """Letter codes (`words._codes`) of the tree cells, built once
        per partition; they are also the representatives' first letters."""
        return words._codes(self.cells)

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
    return BoundaryPartition(TREE, cells, rank=rank)


def plane_partition(n_arcs):
    """Uniform visual arcs at PLANE_BASE: n equal angle sectors."""
    if n_arcs < 2:
        raise ValueError("need at least 2 arcs")
    step = 2.0 * math.pi / n_arcs
    cells = tuple((-math.pi + i * step, -math.pi + (i + 1) * step)
                  for i in range(n_arcs))
    return BoundaryPartition(PLANE, cells)


# ---------------------------------------------------------------------------
# atomic orbital measures

@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely many weighted atoms at orbit points, with the truncation
    tail of the defining series bounded explicitly, held as columns:
    points (complex array on the plane, words on the tree), weights."""

    backend: str
    points: object
    weights: np.ndarray
    total_mass: float
    tail_bound: float
    params: tuple  # ((name, value), ...)

    def __post_init__(self):
        if (self.weights < 0).any():
            raise ValueError("atom weights must be nonnegative")
        p = dict(self.params)
        if "s" in p and "d_px" in p:
            lo = math.exp(-p["s"] * p["d_px"]) - self.tail_bound
            hi = math.exp(p["s"] * p["d_px"]) + self.tail_bound
            if not (lo - 1e-9 <= self.total_mass <= hi + 1e-9):
                raise ValueError("total mass outside the conformal-weight "
                                 f"bounds [{lo}, {hi}]")

    @property
    def atoms(self):
        """((point, weight), ...) in Python types, built on each use."""
        return tuple(zip(np.asarray(self.points).tolist(),
                         self.weights.tolist()))


def tree_series_closed_form(s, rank=2):
    """Exact value of the tree Poincare series: (1+x)/(1-(2k-1)x)."""
    x = math.exp(-s)
    q = (2 * rank - 1) * x
    if q >= 1.0:
        raise ValueError("series diverges at and below the growth exponent")
    return (1.0 + x) / (1.0 - q)


def poincare_series(backend, s, p=None, cap=30.0, rank=2):
    """Truncated Poincare series sum_gamma e^{-s d(p, gamma p)}.

    Returns (partial sum over the enumerated ball, tail bound) on the two
    hyperbolic backends.  The tree tail is an exact geometric sum; the
    plane sum and tail are `_PlaneAtoms.series` of the orbit atoms at p.
    """
    b = Backend.of(backend, rank, hyperbolic=True)
    if b.name == TREE:
        if s <= b.h:
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
    return _plane_atoms(b.base if p is None else p, cap).series(s)


def ps_measure(backend, p, s, cap, rank=2):
    """The orbital measure nu_{p,s}: atoms e^{-s d(p, gamma p)} at the
    orbit points gamma p, normalized by the Poincare series at p.  The
    tree route is rooted at the identity vertex; its cap must be finite
    and >= 1, as the plane atoms' cap."""
    if Backend.of(backend, rank, hyperbolic=True).name == TREE:
        if p not in ("", None):
            raise BackendMismatch("tree orbital measures are rooted at the "
                                  "identity vertex")
        if not (math.isfinite(cap) and cap >= 1.0):
            raise ValueError(f"tree orbital-measure cap must be finite and "
                             f">= 1, not {cap}")
        norm = tree_series_closed_form(s, rank)
        weight = np.array([math.exp(-s * n) / norm
                           for n in range(int(cap) + 1)])
        # the orbit point u lies at distance |u| from the root
        points = tuple(words.ball_words(int(cap), rank))
        weights = weight[[len(u) for u in points]]
        _, tail_num = poincare_series(TREE, s, cap=cap, rank=rank)
        return AtomicMeasure(TREE, points, weights, sum(weights.tolist()),
                             tail_num / norm,
                             (("s", s), ("cap", cap), ("d_px", 0.0)))
    atoms = _plane_atoms(p, cap)
    npart, ntail = atoms.series(s)
    # the atoms at p, kept apart by the cache, come first
    z = np.concatenate((atoms.base_z, atoms.z))
    d = np.concatenate((halfplane.dist(atoms.p, atoms.base_z), atoms.d))
    w = np.exp(-s * d) / npart
    total = float(w.sum())
    tail = ntail / npart + total * ntail / npart
    return AtomicMeasure(PLANE, z, w, total, tail,
                         (("s", s), ("cap", cap), ("d_px", 0.0)))


# ---------------------------------------------------------------------------
# boundary-cell masses and the limit s -> h

_THETA_BLOCK = 1 << 16  # atoms per block of _PlaneAtoms.theta


class _PlaneAtoms:
    """Cached orbit atoms around a base point, reused across the s grid:
    positions and distances streamed by `modular.orbit_points` (no int64
    ball), the Poincare series with its tail, and, on first use, each
    atom's boundary angle at PLANE_BASE.  The atoms at p itself are kept
    apart: they have no boundary angle.  The s -> h routes read only the
    `far` atoms, d(p, y) >= cap/2: the limit gives any bounded region no
    mass, but at finite cap the heavy atoms near p would dominate small
    cells.  The atoms are binned into cells once per partition
    (`far_cells`), for the last partition asked."""

    def __init__(self, p, cap):
        if not (math.isfinite(cap) and cap >= 1.0):
            raise ValueError(f"plane orbit-atom cap must be finite and "
                             f">= 1, not {cap}")
        self.p, self.cap = complex(p), cap
        pts = modular.orbit_points(self.p, cap)
        base = np.abs(pts.z - self.p) <= 1e-12
        self.base_z, self.z, self.d = pts.z[base], pts.z[~base], \
            pts.dist[~base]
        # measured upper growth constant C2 of the orbit counts over the
        # outer half of the ball, for the tail C2 e^{R} of the series
        grid = np.arange(max(1.0, cap / 2.0), cap + 0.5, 1.0)
        counts = np.array([np.count_nonzero(self.d < g + 1e-12)
                           for g in grid])
        self.c2 = float(max(counts * np.exp(-grid)))
        self.far = self.d >= 0.5 * cap
        self._binned = None  # (partition, cell index, cell sums)

    def series(self, s):
        """(partial sum over the ball, tail bound C2 e^{-(s-1) R} /
        (1 - e^{-(s-1)})) of the Poincare series at p."""
        if s <= 1.0:
            raise ValueError("series diverges for s <= 1 (modular group)")
        partial = float(np.exp(-s * self.d).sum()) + len(self.base_z)
        tail = (self.c2 * math.exp(-(s - 1.0) * self.cap)
                / (1.0 - math.exp(-(s - 1.0))))
        return partial, tail

    @functools.cached_property
    def theta(self):
        """Angle in [-pi, pi) at PLANE_BASE of the ray toward the endpoint
        of the geodesic from p through each atom z: the endpoint is u =
        w/|w|, w = (z - p)/(z - conj p), on the disc chart at p, and v on
        the chart at i, where the ray leaves at arg v + pi/2 = arg iv.
        In blocks of _THETA_BLOCK atoms, so that the temporaries stay a
        fixed size however large the ball."""
        p, pc, i = self.p, self.p.conjugate(), PLANE_BASE
        out = np.empty(len(self.z))
        for k in range(0, len(self.z), _THETA_BLOCK):
            z = self.z[k:k + _THETA_BLOCK]
            u = (z - p) / (z - pc)
            u /= np.abs(u)
            v = ((p - i) - (pc - i) * u) / ((p + i) - (pc + i) * u)
            th = np.angle(1j * v)
            out[k:k + _THETA_BLOCK] = np.where(th == math.pi, -math.pi, th)
        return out

    def far_cells(self, partition):
        """(each atom's cell, the far atoms' cell sums of e^{-s d} for each
        s of DEFAULT_S_GRID_PLANE); near atoms go to an extra last cell.

        Binned once per partition: the last partition asked is kept,
        compared by equality, with its index as uint16 (uint32 past
        65535 arcs), so a run of checks on one partition locates its
        angles once and holds one index at a time."""
        if self._binned is None or self._binned[0] != partition:
            self._binned = None  # release the old index before the new
            n = len(partition)
            idx = partition.locate_angle(self.theta)
            idx[~self.far] = n
            idx = idx.astype(np.promote_types(np.uint16,
                                              np.min_scalar_type(n)))
            sums = [np.bincount(idx, weights=np.exp(-s * self.d),
                                minlength=n + 1)[:n]
                    for s in DEFAULT_S_GRID_PLANE]
            self._binned = partition, idx, sums
        return self._binned[1:]

    @functools.cached_property
    def far_totals(self):
        d = self.d[self.far]
        return [float(np.exp(-s * d).sum()) for s in DEFAULT_S_GRID_PLANE]

    @staticmethod
    def limit(rows):
        """The s -> 1 limit of values given one row per s of
        DEFAULT_S_GRID_PLANE: (the intercept at s = 1 of each column's
        least-squares line, the largest residual of those fits).  The
        residual measures the s-fit alone; it does not see the error of
        the finite cap."""
        x = np.asarray(DEFAULT_S_GRID_PLANE, dtype=float) - 1.0
        rows = np.asarray(rows, dtype=float)
        coef = np.polyfit(x, rows, 1)
        fit = coef[0] * x[:, None] + coef[1]
        return coef[1], float(np.max(np.abs(rows - fit), initial=0.0))


def _plane_atoms(p, cap=None):
    cap = DEFAULT_PLANE_CAP if cap is None else cap
    return _cached_atoms(complex(p), round(float(cap), 9))


# Two entries cover a run that alternates two caps (the checks' cap and
# DEFAULT_PAIR_CAP); more would let memory follow the process history
# instead of the requested problem.
@functools.lru_cache(maxsize=2)
def _cached_atoms(p, cap):
    return _PlaneAtoms(p, cap)


DEFAULT_PLANE_CAP = 12.0  # plane atom radius of the checks and cell masses
DEFAULT_PAIR_CAP = 14.0  # plane atom radius of the pair measure
DEFAULT_S_GRID_PLANE = (1.8, 1.4, 1.2, 1.1)  # s grid of every plane limit


def _check_tree_word(name, w, rank):
    """Refuse a word that is not a reduced word over the rank's letters."""
    if not (set(w) <= set(words.letters(rank)) and words.is_reduced(w)):
        raise ValueError(f"{name} must be a reduced word over the "
                         f"rank-{rank} letters, not {w!r}")


def _check_partition(backend, partition):
    """The backend's h, once the partition is checked to be its own."""
    if backend != partition.backend:
        raise BackendMismatch(f"{backend!r} route on a "
                              f"{partition.backend!r} partition")
    return Backend.of(backend, partition.rank).h


def limit_cell_masses(backend, p, partition, cap=None):
    """The s -> h boundary masses of all partition cells, as
    (masses, error, kind).

    Tree masses are the limit itself, the exact visual measure at p (a
    reduced word over the partition's letters) as `Fraction`s, with
    error 0 and kind "exact".  Plane masses are `_PlaneAtoms.limit` of
    the far atoms' cell masses of nu_{p,s} at radius `cap`; the error
    is the fit's largest residual, of kind "s-fit residual": it does
    not include the finite cap's error."""
    _check_partition(backend, partition)
    if backend == TREE:
        rank = partition.rank
        _check_tree_word("p", p, rank)
        masses = np.array([words.visual_measure(p, w, rank)
                           for w in partition.cells], dtype=object)
        return masses, 0.0, "exact"
    atoms = _plane_atoms(p, cap)
    _, sums = atoms.far_cells(partition)
    masses, err = atoms.limit([cell / total for cell, total
                               in zip(sums, atoms.far_totals)])
    return masses, err, "s-fit residual"


def _far_log_ratios(atoms, q, partition):
    """Per-cell log(nu_q / nu_p) read off at s = 1, and the usable cells.

    nu_p and nu_q weigh the same orbit atoms by e^{-s d(p, y)} and
    e^{-s d(q, y)}; on the far atoms d(q,y) - d(p,y) has already
    converged to the Busemann cocycle.  The nu_p cell sums come binned
    from `_PlaneAtoms.far_cells`; only the nu_q side is summed here.
    Each cell's log ratio is taken to s = 1 by `_PlaneAtoms.limit`;
    cells with no far atom are excluded with a warning.
    """
    n = len(partition)
    dq = halfplane.dist(q, atoms.z)
    idx, dens = atoms.far_cells(partition)
    rows = []
    for s, den in zip(DEFAULT_S_GRID_PLANE, dens):
        num = np.bincount(idx, weights=np.exp(-s * dq), minlength=n + 1)[:n]
        # an empty cell gives log 0: it is counted in one warning below
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append(np.log(num) - np.log(den))
    rows = np.array(rows)
    usable = np.all(np.isfinite(rows), axis=0)
    if not usable.all():
        warnings.warn(f"{int((~usable).sum())} zero-mass cells excluded")
        rows[:, ~usable] = 0.0
    return atoms.limit(rows)[0], usable


# ---------------------------------------------------------------------------
# conformal density check

def conformal_check(backend, p, q, partition, cap=None):
    """Max over cells of |log(nu_q/nu_p) + h b_p(q, xi_cell)|.

    Tree route is exact: where neither base lies below a cell w, its
    masses are (1/2k)(2k-1)^-e with integer e = d(base, w) - 1, so
    nu_q/nu_p = (2k-1)^-b reads e_q - e_p == b, with b the integer
    Busemann value at the cell's representative; both closed forms run
    over the partition's cached cell codes as int64 arrays.  Complement
    cells and mismatches are measured in Fractions (float defect).
    p and q must be reduced words over the partition's letters.
    Plane route takes each arc's far-atom log ratio log(nu_q/nu_p) to
    s = 1 (`_far_log_ratios`) and compares it with the closed-form
    Busemann function at the arc's representative direction.
    """
    h = _check_partition(backend, partition)
    if backend == TREE:
        rank = partition.rank
        _check_tree_word("p", p, rank)
        _check_tree_word("q", q, rank)
        codes = partition.cell_codes
        e_p, inside_p = words.visual_exponent(p, codes)
        e_q, inside_q = words.visual_exponent(q, codes)
        # a base longer than the cells reads its representatives farther
        deep = max(len(p), len(q)) > codes.shape[1]
        b = words.tree_busemann(q, p, partition.representatives if deep
                                else codes)
        worst = 0.0
        for i in np.flatnonzero(inside_p | inside_q | (e_q - e_p != b)):
            w, b_i = partition.cells[i], int(b[i])
            ratio = (words.visual_measure(q, w, rank)
                     / words.visual_measure(p, w, rank))
            # exact check: nu_q/nu_p must equal (2k-1)^{-b}
            if ratio != Fraction(2 * rank - 1) ** -b_i:
                worst = max(worst, abs(math.log(float(ratio)) + h * b_i))
        return worst
    p, q = complex(p), complex(q)
    log_ratio, usable = _far_log_ratios(_plane_atoms(p, cap), q, partition)
    b = halfplane.busemann(
        q, p, np.asarray(partition.representatives)[usable])
    return float(np.max(np.abs(log_ratio[usable] + h * b), initial=0.0))


# ---------------------------------------------------------------------------
# shadows and the shadow lemma

def shadow(backend, x, p, rho):
    """The tree shadow pr_x B(p, rho): boundary words whose ray from x
    meets the ball around p.

    With rho < 1 the ball is the single vertex p, and the shadow is an
    exact cylinder description: ("cyl", w) is the set of boundary words
    with prefix w, ("co-cyl", w) its complement.  The plane shadow is
    the visual arc `halfplane.shadow_arc`.
    """
    if backend != TREE:
        raise BackendMismatch("shadow cylinders live on the tree; the "
                              "plane shadow is halfplane.shadow_arc")
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


def _wrap_angle(x):
    """np.mod(x, 2 pi), bit for bit, of a difference x of two angles in
    [-pi, pi): with |x| < 2 pi that mod is x, plus 2 pi where x < 0."""
    return np.where(x < 0, x + 2.0 * math.pi, x)


def shadow_mass_bounds(backend, p, x, rho, cap=None, rank=2):
    """(nu_p(shadow of B(x, rho)), ratio to e^{-h d(p,x)}); the plane
    mass is the limit mass of the far atoms on the shadow arc."""
    if Backend.of(backend, rank, hyperbolic=True).name == TREE:
        desc = shadow(TREE, p, x, rho)  # shadow of B(x,.) seen from p
        if desc[0] != "cyl":
            raise ValueError("mass bound route expects a proper shadow")
        mass = float(words.visual_measure(p, desc[1], rank))
        return mass, mass * float(2 * rank - 1) ** words.distance(p, x)
    p, x = complex(p), complex(x)
    lo, hi = halfplane.direction_toward(
        PLANE_BASE, halfplane.shadow_arc(p, x, rho))
    atoms = _plane_atoms(p, cap)
    on_arc = atoms.d[atoms.far & (_wrap_angle(atoms.theta - lo)
                                  < np.mod(hi - lo, 2.0 * math.pi))]
    mass, _ = atoms.limit([[np.exp(-s * on_arc).sum() / total]
                           for s, total in zip(DEFAULT_S_GRID_PLANE,
                                               atoms.far_totals)])
    return float(mass[0]), float(mass[0] * math.exp(halfplane.dist(p, x)))


# ---------------------------------------------------------------------------
# the pair measure on the double boundary

@dataclass(frozen=True, eq=False)
class PairMeasure:
    """Weights e^{h beta_p(xi_i, xi_j)} nu(cell_i) nu(cell_j) on the cell
    pairs i < j, as triu index arrays: weights / denominator, Python ints
    over one int on the tree, floats over 1 on the plane.  `excluded`
    marks the diagonal band e^{h beta} > PAIR_WEIGHT_CAP; it weighs 0."""

    backend: str
    base: object
    partition: BoundaryPartition
    i: np.ndarray
    j: np.ndarray
    weights: np.ndarray
    excluded: np.ndarray
    denominator: int
    h: float


def pair_measure(backend, p, partition, masses=None, cap=None):
    """Build the pair measure from cell masses at representatives.

    The tree measure is exact and base independent: at any reduced word
    p, (2k-1)^(2 (xi|eta)_p) nu_p(A) nu_p(B) is its value at the
    identity, (2k-1)^(2 lcp) over `_pair_masses`'s denominator
    (2k)^2 (2k-1)^(2d-2) on depth-d cells.  Its band is decided once
    per lcp, and it takes no `masses`.  Plane masses, when not given,
    are `limit_cell_masses` at p of the orbit atoms of radius `cap`
    (default DEFAULT_PAIR_CAP)."""
    h = _check_partition(backend, partition)
    i, j = np.triu_indices(len(partition), 1)
    if backend == TREE:
        if masses is not None:
            raise ValueError("tree pair weights take no caller masses")
        rank, p = partition.rank, p or ""
        _check_tree_word("p", p, rank)
        base, depth = 2 * rank - 1, len(partition.cells[0])
        lcp = words.lcp_table(partition.cell_codes,
                              partition.cell_codes)[i, j]
        # e^{h beta} = (2k-1)^(2 lcp), for lcp = 0 .. depth - 1
        factor = base ** np.arange(0, 2 * depth, 2, dtype=object)
        band = factor > PAIR_WEIGHT_CAP
        return PairMeasure(backend, p, partition, i, j,
                           np.where(band, 0, factor)[lcp], band[lcp],
                           (2 * rank) ** 2 * base ** (2 * depth - 2), h)
    p = complex(p)
    if masses is None:
        masses = limit_cell_masses(backend, p, partition, DEFAULT_PAIR_CAP
                                   if cap is None else cap)[0]
    masses = np.asarray(masses, dtype=float)
    reps = np.array(partition.representatives)
    factor = np.exp(h * halfplane.gromov_beta(p, reps[i], reps[j]))
    out = factor > PAIR_WEIGHT_CAP
    weights = np.zeros(len(i))
    weights[~out] = factor[~out] * masses[i[~out]] * masses[j[~out]]
    return PairMeasure(backend, p, partition, i, j, weights, out, 1, h)


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
        return [v for c in words.letters(rank) if c != words.inv_letter(w[-1])
                for v in (cylinder_pushforward(stem, c, rank) if stem
                          else [c])]
    return [words.mul(g, w)]


def _pair_masses(rank, *groupings):
    """Exact pair-measure masses of (union of groups[i]) x (union of
    groups[j]) for every grouping of nonempty groups of cylinders, over
    one common power: returns ([N, ...], E) with mass
    N[i, j] / ((2k)^2 (2k-1)^E).

    The pair (a, b) weighs (2k-1)^(2 lcp(a, b)) nu(a) nu(b), which is
    (2k)^-2 (2k-1)^-t with t = |a| + |b| - 2 - 2 lcp(a, b) = d(a, b) - 2.
    With the cylinders of a grouping flattened, W = (2k-1)^(E - t) over
    all their pairs and M the one-hot owner matrix, N = M^T W M, summed
    group by group in Python ints (E grows with the cylinder lengths, so
    no fixed-width integer holds every input).
    """
    base = 2 * rank - 1
    flats = [[w for group in groups for w in group] for groups in groupings]
    ts = []
    for flat in flats:
        lens = np.fromiter(map(len, flat), np.int64, len(flat))
        ts.append(lens[:, None] + lens[None, :] - 2
                  - 2 * words.lcp_table(flat, flat))
    e = max(0, *(int(t.max()) for t in ts))
    powers = base ** np.arange(e + 3, dtype=object)  # t >= -2
    out = []
    for groups, t in zip(groupings, ts):
        weight = powers[e - t]
        starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
        out.append(np.add.reduceat(np.add.reduceat(weight, starts, axis=0),
                                   starts, axis=1))
    return out, e


def pair_invariance_check(pm, gamma, cap=None):
    """Max defect of mu-bar(gamma A x gamma B) against mu-bar(A x B).

    Tree route is exact over the cylinder pushforward: the image masses
    of every cell pair are integers over one power of (2k-1), computed
    at once by `_pair_masses`, and are compared with pm's integer
    weights over the product of the two denominators; a nonzero
    difference is returned as a float of the exact rational (it must be
    identically zero).  Plane route re-bins the atomic masses over the
    Mobius image arcs and reports the max relative defect.
    """
    part = pm.partition
    keep = ~pm.excluded
    if pm.backend == TREE:
        rank = part.rank
        _check_tree_word("gamma", gamma, rank)
        images = [cylinder_pushforward(gamma, w, rank) for w in part.cells]
        (rhs,), e = _pair_masses(rank, images)
        den = (2 * rank) ** 2 * (2 * rank - 1) ** e
        diff = (rhs[pm.i[keep], pm.j[keep]] * pm.denominator
                - pm.weights[keep] * den)
        worst = int(np.abs(diff).max(initial=0))
        return float(Fraction(worst, den * pm.denominator))
    # plane: gamma is an integer matrix acting by Mobius maps.  The
    # image cell mass is computed by pushing the measure instead of the
    # set: nu_p(gamma A) = nu_{gamma^-1 p}(A) exactly, and the latter is
    # measured on the same atoms as nu_p(A), so the per-cell log ratio
    # is free of binning and truncation bias common to both.
    p, h = complex(pm.base), pm.h
    q = halfplane.mobius_apply(modular.mat_inv(gamma), p)
    log_ratio, usable = _far_log_ratios(
        _plane_atoms(p, DEFAULT_PAIR_CAP if cap is None else cap), q, part)
    reps = np.array(part.representatives)
    greps = np.array([halfplane.mobius_apply_boundary(gamma, r)
                      for r in reps])
    keep &= usable[pm.i] & usable[pm.j]
    i, j = pm.i[keep], pm.j[keep]
    beta = halfplane.gromov_beta(p, reps[i], reps[j])
    dlog = (h * (halfplane.gromov_beta(p, greps[i], greps[j]) - beta)
            + log_ratio[i] + log_ratio[j])
    return float(np.max(np.abs(np.exp(dlog) - 1.0), initial=0.0))


# ---------------------------------------------------------------------------
# closed-geodesic equidistribution on the modular surface

# y levels cutting the fundamental domain into four regions of equal
# hyperbolic area pi/12 (area above height Y is 1/Y for Y >= 1)
_Y_CUTS = (4.0 / math.pi, 6.0 / math.pi, 12.0 / math.pi)
_N_THETA = 4  # direction bins per height band


def liouville_cell_masses():
    """Liouville masses of the 16 position x direction cells: area times
    uniform angle.  The domain's area above y = Y >= 1 is 1/Y out of
    pi/3, so the cuts 4/pi, 6/pi and 12/pi make four bands of pi/12."""
    area = -np.diff((math.pi / 3, *(1.0 / y for y in _Y_CUTS), 0.0))
    return np.repeat(area / (math.pi / 3), _N_THETA) / _N_THETA


def equidistribution_test(census, T):
    """Cell masses of the closed-geodesic measure mu_T against Liouville.

    mu_T averages arc length over all primitive classes of length <= T,
    normalized to a probability measure.  modular.strip_walk cuts each
    period into pieces in the strip F_inf; y and the direction are
    translation invariant, so a piece is one excursion in the domain.
    On an axis of radius r, y = r / cosh(t) at distance t from the top,
    so the time above Y is the overlap with |t| <= arccosh(r / Y), and
    the quadrant is fixed by the side of the top and the travel.

    Returns (mu_masses, liouville_masses, per-cell gaps).  Raises
    RuntimeError unless the piece times of each class add up to its
    length (to a divisor of it if imprimitive), and ValueError when no
    class has length <= T or T exceeds the census bound.
    """
    if census.backend != PLANE:
        raise BackendMismatch("equidistribution runs on the modular census")
    n = census.count(T)
    if not n:
        raise ValueError(f"no closed geodesic of length <= {T}")
    ells = census.lengths[:n]
    cls, lo, hi, radius, right = modular.strip_walk(census.matrices[:n])
    walked = np.bincount(cls, hi - lo, n)
    reps = np.rint(ells / walked)
    bad = (np.abs(reps * walked - ells) > 1e-12 * ells) | (
        census.primitive[:n] & (reps != 1))
    if bad.any():
        raise RuntimeError(f"equidistribution_test: {int(bad.sum())} "
                           f"classes walk a period other than their length")
    # distance from the top to each cut
    reach = [np.arccosh(np.maximum(radius / y, 1.0)) for y in _Y_CUTS]
    weight, hist = reps[cls], np.zeros(4 * _N_THETA)
    for a, b, quad in ((lo, np.minimum(hi, 0.0), np.where(right, 0, 2)),
                       (np.maximum(lo, 0.0), hi, np.where(right, 3, 1))):
        above = np.maximum(b - a, 0.0)  # time above y = 0
        for band, r in enumerate(reach):
            higher = np.clip(np.minimum(b, r) - np.maximum(a, -r), 0.0, None)
            hist += np.bincount(quad + band * _N_THETA,
                                (above - higher) * weight, hist.size)
            above = higher
        hist += np.bincount(quad + 3 * _N_THETA, above * weight, hist.size)
    mu = hist / ells.sum()
    ref = liouville_cell_masses()
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
        # reduced continuations of u other than the axis direction x[j]
        branch = sum((words.cylinder_measure(u + c, rank)
                      for c in words.letters(rank) if c != x[j]
                      and not (u and c == words.inv_letter(u[-1]))),
                     Fraction(0))
        leb = 2 * (Fraction(r_prime) - j)
        mass += branch * nu_x * Fraction(q) ** (2 * j) * leb
    return mass, mass * Fraction(q) ** n


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
    bases = sorted(words.ball_words(int(math.floor(r_prime)), rank))
    kept = []
    # d(u, x) >= n keeps times 0..n on the segment from u to x
    for path in (words.geodesic_vertices(u, x) for u in bases):
        if all(max(words.distance(path[t], other[t]) for t in range(n + 1))
               >= 2 * r0 for other in kept):
            kept.append(path)
    return len(kept), "exhaustive"

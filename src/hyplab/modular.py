"""Fuchsian groups on the upper half-plane.

The modular group PSL(2, Z) is built in with exact integer arithmetic:
its orbit balls are enumerated directly at the matrix level (complete,
with certificate; the sphere itself is decided in float64) as int64
arrays, and its primitive hyperbolic conjugacy classes are the
rotation-canonical cyclic words in R = [[1,1],[0,1]], L = [[1,0],[1,1]].
Arbitrary float generator sets are supported with breadth-first word
enumeration and heuristic dedup, and are flagged as such.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import halfplane, words

R_MAT = (1, 1, 0, 1)
L_MAT = (1, 0, 1, 1)
IDENT = (1, 0, 0, 1)

EPS_ID = 1e-9


def normalize(m):
    """Canonical representative modulo sign: first nonzero entry positive."""
    for x in m:
        if x != 0:
            return tuple(m) if x > 0 else tuple(-v for v in m)
    raise ValueError("zero matrix")


def det(m):
    a, b, c, d = m
    return a * d - b * c


def mat_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)  # valid for det 1


def mat_pow(m, n):
    out = IDENT
    for _ in range(n):
        out = mat_mul(out, m)
    return out


def trace(m):
    return m[0] + m[3]


def apply(m, z):
    """Mobius action on the upper half-plane (complex z or arrays)."""
    return halfplane.mobius_apply(m, z)


PARABOLIC, ELLIPTIC, HYPERBOLIC = "parabolic", "elliptic", "hyperbolic"


def classify(m, eps=EPS_ID):
    t = abs(trace(m))
    if t > 2 + eps:
        return HYPERBOLIC
    if t >= 2 - eps:
        return PARABOLIC
    return ELLIPTIC


def translation_length(m, eps=EPS_ID):
    """inf_x d(x, m x): 2 arccosh(|tr|/2) for hyperbolic m, else 0.

    Returns (length, kind).
    """
    if normalize(m) == IDENT:
        raise ValueError("identity has no translation length")
    kind = classify(m, eps)
    if kind != HYPERBOLIC:
        return 0.0, kind
    return 2.0 * math.acosh(abs(trace(m)) / 2.0), kind


@dataclass(frozen=True)
class FuchsianGroup:
    generators: tuple  # matrices, inverses added automatically
    exact: bool = False  # integer matrix arithmetic throughout
    dedup_tol: float = EPS_ID
    name: str = "custom"

    @staticmethod
    def modular():
        return FuchsianGroup(generators=(R_MAT, L_MAT), exact=True,
                             name="modular")

    def symmetric_generators(self):
        gens = []
        for g in self.generators:
            gens.append(normalize(g))
            gens.append(normalize(mat_inv(g)))
        out = []
        for g in gens:
            if not any(_mat_close(g, h, self.dedup_tol) for h in out):
                out.append(g)
        return out


def _mat_close(m1, m2, tol):
    return max(abs(x - y) for x, y in zip(m1, m2)) <= tol


@dataclass
class BallResult:
    # matrices gamma with d(p, gamma q) <= R: an int64 (n, 4) array from
    # modular_ball, a sorted list of tuples from word_ball
    elements: object
    radius: float
    base: complex
    complete: bool
    certificate: str
    word_cap: int = 0


BALL_BLOCK_ROWS = 16  # rows c of the (c, d) enumeration handled per block


def modular_ball(p, R, q=None, slack=1e-9):
    """All gamma in PSL(2, Z) with d(p, gamma q) <= R, complete.

    q defaults to p.  Enumerates matrices directly: for each coprime
    (c, d) with |c q + d| bounded, the displacement along the solution
    family (a0 + t c, b0 + t d, c, d) is quadratic in t, so the
    admissible t form an interval solved in closed form.  Every candidate
    then passes a float64 displacement check d <= R + slack, so the
    sphere itself is decided in floating point, not exactly.

    With c >= 0, and d = 1 when c = 0, each element of PSL(2, Z) is
    enumerated exactly once.  Returns the elements as an int64 (n, 4)
    array of rows (a, b, c, d), first nonzero entry positive, in
    lexicographic order (stored column by column).  The work runs in
    blocks of BALL_BLOCK_ROWS values of c.
    """
    p = complex(p)
    q = p if q is None else complex(q)
    yp, yq = p.imag, q.imag
    # |p - gamma q|^2 |c q + d|^2 = |p (c q + d) - (a q + b)|^2 <= nmax
    nmax = (math.cosh(R) - 1.0) * 2.0 * yp * yq
    # y_p / Im(gamma q) <= e^R  ->  |c q + d|^2 <= e^R yq / yp
    bmax = math.sqrt(math.exp(R) * yq / yp)
    cmax = int(math.floor(bmax / yq)) + 1
    blocks = []  # int64 columns a, b, c, d
    for c0 in range(0, cmax + 1, BALL_BLOCK_ROWS):
        rows = np.arange(c0, min(c0 + BALL_BLOCK_ROWS, cmax + 1),
                         dtype=np.int64)
        c, d = _coprime_cd(rows, q.real, bmax)
        g, xg, yg = _ext_gcd_rows(c, d)
        flip = np.where(g < 0, -1, 1)
        # xg*c + yg*d = 1  ->  a0 = yg, b0 = -xg gives a0 d - b0 c = 1
        a0, b0 = yg * flip, -xg * flip
        beta = c * q + d
        alpha = (a0 * q + b0) - p * beta
        # |alpha + t beta|^2 <= nmax
        A = np.abs(beta) ** 2
        B = 2.0 * (alpha * np.conj(beta)).real
        C = np.abs(alpha) ** 2 - nmax
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        tlo = np.ceil((-B - sq) / (2.0 * A) - slack).astype(np.int64)
        thi = np.floor((-B + sq) / (2.0 * A) + slack).astype(np.int64)
        n_t = np.where(disc < 0, 0, np.maximum(thi - tlo + 1, 0))
        pick = np.repeat(np.arange(len(c)), n_t)
        t = tlo[pick] + _ramp(n_t)
        c, d = c[pick], d[pick]
        a, b = a0[pick] + t * c, b0[pick] + t * d
        disp = halfplane.dist(p, (a * q + b) / (c * q + d))
        m = np.stack([a, b, c, d])[:, disp <= R + slack]
        lead = m[(m != 0).argmax(axis=0), np.arange(m.shape[1])]
        blocks.append(np.where(lead < 0, -m, m))
    cols = np.concatenate(blocks, axis=1)
    del blocks
    order = np.lexsort(cols[::-1])
    for col in cols:  # one column at a time bounds the peak memory
        col[:] = col[order]
    return BallResult(cols.T, R, p, complete=True,
                      certificate="integer matrix enumeration; sphere "
                                  f"decided in float64 with slack {slack:g}")


def _coprime_cd(rows, x, bmax):
    """Coprime (c, d) with |c x + d| <= bmax + 1 for c in rows, ordered
    by c then d.  c = 0 gives (0, 1) alone: those rows are translations,
    whose negatives are the same element of PSL(2, Z)."""
    dmid = -rows * x
    dr = bmax + 1.0
    lo = np.ceil(dmid - dr).astype(np.int64)
    n = np.floor(dmid + dr).astype(np.int64) - lo + 1
    lo[rows == 0], n[rows == 0] = 1, 1
    c = np.repeat(rows, n)
    d = np.repeat(lo, n) + _ramp(n)
    keep = np.gcd(c, d) == 1
    return c[keep], d[keep]


def _ramp(counts):
    """0, 1, ..., k-1 for each k in counts, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(starts, counts)


def _ext_gcd_rows(a, b):
    """Extended Euclid row by row: (g, s, t) with s a + t b = g, with
    Python's floor-division steps (g may come out negative)."""
    old_r, r = a.copy(), b.copy()
    old_s, s = np.ones_like(a), np.zeros_like(a)
    old_t, t = np.zeros_like(a), np.ones_like(a)
    live = np.flatnonzero(r)
    while live.size:
        quo = old_r[live] // r[live]
        old_r[live], r[live] = r[live], old_r[live] - quo * r[live]
        old_s[live], s[live] = s[live], old_s[live] - quo * s[live]
        old_t[live], t[live] = t[live], old_t[live] - quo * t[live]
        live = live[r[live] != 0]
    return old_r, old_s, old_t


def word_ball(group, p, R, Lmax=None, buffer=4.0, slack=1e-9):
    """Breadth-first enumeration of group elements by word length, keeping
    those with displacement <= R.

    The search is pruned at displacement R + buffer: a word is extended only
    while it stays that close to the base point.  This is a heuristic route
    (a large enough buffer recovers the full ball because word geodesics
    fellow-travel the hyperbolic ones); completeness is claimed only when
    the pruned frontier exhausts itself below the word cap.
    """
    p = complex(p)
    gens = group.symmetric_generators()
    tol = group.dedup_tol
    seen = {_key(IDENT, tol)}
    frontier = [IDENT]
    hits = [IDENT]
    exhausted = False
    length = 0
    while Lmax is None or length < Lmax:
        length += 1
        nxt = []
        for w in frontier:
            for g in gens:
                m = normalize(mat_mul(w, g))
                k = _key(m, tol)
                if k in seen:
                    continue
                seen.add(k)
                disp = halfplane.dist(p, apply(m, p))
                if disp > R + buffer:
                    continue
                nxt.append(m)
                if disp <= R + slack:
                    hits.append(m)
        frontier = nxt
        if not frontier:
            exhausted = True
            break
    cert = (f"displacement-pruned BFS, buffer={buffer}, word cap L={Lmax}, "
            f"frontier {'exhausted' if exhausted else 'truncated'}")
    return BallResult(sorted(set(hits)), R, p, complete=exhausted,
                      certificate=cert, word_cap=Lmax)


def _key(m, tol):
    return tuple(round(x / tol) for x in m)


@dataclass(frozen=True)
class ConjClass:
    word: str            # rotation-canonical word in R, L
    matrix: tuple        # integer product matrix
    trace: int
    length: float        # 2*arccosh(trace/2)
    primitive: bool = True

    def __repr__(self):
        return f"ConjClass({self.word}, tr={self.trace}, l={self.length:.4f})"


def _word_matrix(w):
    m = IDENT
    for ch in w:
        m = mat_mul(m, R_MAT if ch == "R" else L_MAT)
    return m


def enumerate_conj_classes(T, include_imprimitive=False):
    """Primitive hyperbolic conjugacy classes of PSL(2, Z) with translation
    length <= T, as canonical cyclic words in R and L (both letters
    present; least rotation with L < R).  Oriented: a class and its
    inverse are counted separately unless they coincide.

    Complete: words.necklace_words prunes each prefix whose trace exceeds
    2*cosh(T/2).  Every prefix of a necklace is a prenecklace, and the
    trace of an R/L word never decreases when a letter is appended, so no
    admissible class is lost.  A both-letter word of length n has trace
    >= n + 1, so the length cutoff (which stops the trace-2 chains L^k
    and R^k) loses none either.
    """
    trmax = 2.0 * math.cosh(T / 2.0)

    def step(m, ch):
        m2 = mat_mul(m, R_MAT if ch == "R" else L_MAT)
        return m2 if trace(m2) <= trmax else None

    out = [ConjClass(w, m, trace(m), 2.0 * math.acosh(trace(m) / 2.0), prim)
           for w, m, prim in words.necklace_words(
               "LR", math.ceil(trmax), step, IDENT,
               lambda w, m: "L" in w and "R" in w, not include_imprimitive)]
    out.sort(key=lambda c: (c.length, c.word))
    return out


def fixed_points(m):
    """(repelling, attracting) boundary fixed points of a hyperbolic m."""
    a, b, c, d = m
    t = a + d
    if abs(t) <= 2:
        raise ValueError("matrix is not hyperbolic")
    if c == 0:
        # fixed points b/(d-a) and inf
        x = b / (d - a)
        return (x, math.inf) if abs(a) > abs(d) else (math.inf, x)
    sq = math.sqrt(t * t - 4.0)
    x1 = (a - d - sq) / (2.0 * c)
    x2 = (a - d + sq) / (2.0 * c)
    # attracting fixed point: |derivative| = 1/(c x + d)^2 < 1
    if abs(c * x1 + d) > 1.0:
        return x2, x1
    return x1, x2


def axis(m):
    """Unit-speed axis of a hyperbolic matrix, oriented so that
    m . point(t) = point(t + l) with l the translation length."""
    return halfplane.line(*fixed_points(m))


def closed_geodesic_path(cls):
    """Axis and period of a conjugacy class (matrix route for any backend
    representative)."""
    m = cls.matrix if isinstance(cls, ConjClass) else cls
    length, kind = translation_length(m)
    if kind != HYPERBOLIC:
        raise ValueError(f"{kind} element has no closed geodesic")
    return axis(m), length


# ---------------------------------------------------------------------------
# modular surface: fundamental domain folding

FUND_DOMAIN_TOL = 1e-12


def fold_points(z, theta, max_iter=200):
    """Fold points of the upper half-plane (with tangent angles) into the
    standard fundamental domain |Re z| <= 1/2, |z| >= 1 of PSL(2, Z).

    Vectorized; angles are transported by the derivative of the applied
    Mobius maps.  Returns (z_folded, theta_folded in [0, 2*pi)).  Points
    still outside the domain after max_iter rounds are returned as they
    are, with a RuntimeWarning that counts them.
    """
    scalar = np.ndim(z) == 0 and np.ndim(theta) == 0
    z = np.atleast_1d(np.array(z, dtype=complex))
    theta = np.atleast_1d(np.array(theta, dtype=float))
    for _ in range(max_iter):
        shift = np.round(z.real)
        z = z - shift
        inside = np.abs(z) >= 1.0 - FUND_DOMAIN_TOL
        if inside.all() and (np.abs(shift) == 0).all():
            break
        flip = ~inside
        if flip.any():
            zf = z[flip]
            theta[flip] = theta[flip] - 2.0 * np.angle(zf)
            z[flip] = -1.0 / zf
    else:
        outside = ((np.round(z.real) != 0)
                   | (np.abs(z) < 1.0 - FUND_DOMAIN_TOL))
        if outside.any():
            warnings.warn(f"fold_points: {int(outside.sum())} points outside "
                          f"the fundamental domain after {max_iter} rounds",
                          RuntimeWarning, stacklevel=2)
    theta = np.mod(theta, 2.0 * math.pi)
    if scalar:
        return complex(z[0]), float(theta[0])
    return z, theta

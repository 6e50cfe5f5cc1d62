"""Fuchsian groups on the upper half-plane.

The modular group PSL(2, Z) is built in with exact integer arithmetic:
its orbit balls are enumerated directly at the matrix level (complete,
with certificate; the sphere itself is decided in float64) as int64
arrays, and its primitive hyperbolic conjugacy classes are the
rotation-canonical cyclic words in R = [[1,1],[0,1]], L = [[1,0],[1,1]].
The class census is one `geometry.GeodesicCensus` of columns: the
words, their lengths, their int64 matrix rows and primitive flags, from
which `class_axes` solves the axes and `strip_walk` their excursions.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import halfplane, words
from .geometry import PLANE, Backend, GeodesicCensus

IDENT = (1, 0, 0, 1)


def mat_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)  # valid for det 1


@dataclass
class BallResult:
    # matrices gamma with d(p, gamma p) <= R: an int64 (n, 4) array of
    # rows (a, b, c, d)
    elements: object
    radius: float
    base: complex
    complete: bool
    certificate: str


BALL_BLOCK_ROWS = 16  # rows c of the (c, d) enumeration handled per block
BALL_SLACK = 1e-9  # float64 tolerance of the sphere d = R


def modular_ball(p, R):
    """All gamma in PSL(2, Z) with d(p, gamma p) <= R, complete.

    Enumerates matrices directly: for each coprime (c, d) with
    |c p + d| bounded, the displacement along the solution family
    (a0 + t c, b0 + t d, c, d) is quadratic in t, so the admissible t
    form an interval solved in closed form.  Every candidate then passes
    a float64 displacement check d <= R + BALL_SLACK, so the sphere
    itself is decided in floating point, not exactly.

    With c >= 0, and d = 1 when c = 0, each element of PSL(2, Z) is
    enumerated exactly once; it is stored with its first nonzero entry
    positive, which a and b alone decide (ad - bc = 1 makes b nonzero
    where a = 0).  The work runs in blocks of BALL_BLOCK_ROWS values of
    c, each holding a, b, c, d as contiguous 1-D columns, and each block
    is packed at once into one int64 mixed-radix key whose radices come
    from the a-priori column bounds of `_ball_column_bounds`; a block
    with a column outside them raises ValueError rather than wrap, and
    so does a radius whose bounds overflow the key.  Only the keys are
    concatenated and sorted.  Returns the elements as an int64 (n, 4)
    array of rows (a, b, c, d) in lexicographic order, the transpose of
    the C-ordered (4, n) columns the sorted key decodes into.  A radius
    that is not finite and >= 0 raises ValueError.
    """
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"orbit-ball radius must be finite and >= 0, "
                         f"not {R}")
    p = complex(p)
    y = p.imag
    # |p - gamma p|^2 |c p + d|^2 = |p (c p + d) - (a p + b)|^2 <= nmax
    nmax = (math.cosh(R) - 1.0) * 2.0 * y * y
    # y / Im(gamma p) <= e^R  ->  |c p + d|^2 <= e^R
    bmax = math.exp(0.5 * R)
    cmax = int(math.floor(bmax / y)) + 1
    # key = sum of (col - lo) times the spans of the later columns, which
    # the bounds keep below 2**63 at every step; a >= 0
    bound = _ball_column_bounds(p, R)
    lo = (0, -bound[1], -bound[2], -bound[3])
    span = (bound[0] + 1, *(2 * m + 1 for m in bound[1:]))
    if math.prod(span) >= 2 ** 63:
        raise ValueError(f"ball of radius {R} overflows the int64 sort key")
    keys = []
    for c0 in range(0, cmax + 1, BALL_BLOCK_ROWS):
        rows = np.arange(c0, min(c0 + BALL_BLOCK_ROWS, cmax + 1),
                         dtype=np.int64)
        c, d = _coprime_cd(rows, p.real, bmax)
        g, xg, yg = _ext_gcd_rows(c, d)
        flip = np.where(g < 0, -1, 1)
        # xg*c + yg*d = 1  ->  a0 = yg, b0 = -xg gives a0 d - b0 c = 1
        a0, b0 = yg * flip, -xg * flip
        beta = c * p + d
        alpha = (a0 * p + b0) - p * beta
        # |alpha + t beta|^2 <= nmax
        A = np.abs(beta) ** 2
        B = 2.0 * (alpha * np.conj(beta)).real
        C = np.abs(alpha) ** 2 - nmax
        disc = B * B - 4.0 * A * C
        sq = np.sqrt(np.maximum(disc, 0.0))
        tlo = np.ceil((-B - sq) / (2.0 * A) - BALL_SLACK).astype(np.int64)
        thi = np.floor((-B + sq) / (2.0 * A) + BALL_SLACK).astype(np.int64)
        n_t = np.where(disc < 0, 0, np.maximum(thi - tlo + 1, 0))
        pick = np.repeat(np.arange(len(c)), n_t)
        t = tlo[pick] + words._ramp(n_t)
        c, d = c[pick], d[pick]
        a, b = a0[pick] + t * c, b0[pick] + t * d
        disp = halfplane.dist(p, (a * p + b) / (c * p + d))
        inside = disp <= R + BALL_SLACK
        neg = a < 0
        neg |= (a == 0) & (b < 0)
        sign = np.where(neg, -1, 1)[inside]
        key = np.zeros(len(sign), dtype=np.int64)
        for col, low, base, m in zip((a, b, c, d), lo, span, bound):
            col = col[inside] * sign
            if col.size and (col.min() < low or col.max() > m):
                raise ValueError(f"ball of radius {R} leaves its a-priori "
                                 f"column bound {m}")
            key *= base
            key += col
            key -= low
        keys.append(key)
    key = np.concatenate(keys)
    del keys
    key.sort()
    cols = np.empty((4, len(key)), dtype=np.int64)
    quo = np.empty_like(key)
    for i in range(3, -1, -1):  # decode the key back into the columns
        np.floor_divide(key, span[i], out=quo)
        np.multiply(quo, -span[i], out=cols[i])
        cols[i] += key
        cols[i] += lo[i]
        key, quo = quo, key
    return BallResult(cols.T, R, p, complete=True,
                      certificate="integer matrix enumeration; sphere "
                                  f"decided in float64 with slack "
                                  f"{BALL_SLACK:g}")


def _ball_column_bounds(p, R):
    """A-priori bounds on |a|, |b|, |c|, |d| over the ball of radius R at
    p = x + iy, with a margin of 2 each.

    Im(gamma p) >= y e^-R gives |c p + d|^2 <= e^R, so |c| <= e^(R/2)/y
    and |d| <= |c x| + e^(R/2).  The same for S gamma = (-c, -d; a, b),
    since d(Sp, S gamma p) = d(p, gamma p) and Im Sp = y / |p|^2, gives
    |a p + b|^2 <= |p|^2 e^R."""
    y, ax = p.imag, abs(p.real)
    e = math.exp(0.5 * (R + BALL_SLACK))
    c = e / y
    a = abs(p) * c
    return tuple(int(v) + 2 for v in (a, a * ax + abs(p) * e, c, c * ax + e))


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
    d = np.repeat(lo, n) + words._ramp(n)
    keep = np.gcd(c, d) == 1
    return c[keep], d[keep]


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


def enumerate_conj_classes(T, include_imprimitive=False):
    """Primitive hyperbolic conjugacy classes of PSL(2, Z) with translation
    length <= T, as a GeodesicCensus complete to T, in (length, word)
    order, of canonical cyclic words in R and L (both letters present;
    least rotation with L < R) with their matrix rows and primitive
    flags.  Oriented: a class and its inverse are counted separately
    unless they coincide.

    Complete: words.necklace_levels drops, level by level, each prefix
    whose trace exceeds 2*cosh(T/2).  Every prefix of a necklace is a
    prenecklace, and the trace of an R/L word never decreases when a
    letter is appended, so no admissible class is lost.  A both-letter
    word of length n has trace >= n + 1, so the length cutoff (which
    stops the trace-2 chains L^k and R^k) loses none either.  Raises
    ValueError on a T that is not finite and >= 0.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"closed-geodesic length bound must be finite and "
                         f">= 0, not {T}")
    trmax = 2.0 * math.cosh(T / 2.0)

    def step(m, r):  # int64 rows (a, b, c, d) times R if r = 1, L if 0
        m[:, 1::2] += m[:, ::2] * r[:, None]  # R: b += a, d += c
        m[:, ::2] += m[:, 1::2] * (1 - r[:, None])  # L: a += b, c += d
        return m, m[:, 0] + m[:, 3] <= trmax

    ws, m, prim = words.necklace_levels(
        "LR", math.ceil(trmax), step, IDENT,
        lambda codes, m: m[:, 0] + m[:, 3] > 2, not include_imprimitive)
    # the length increases with the trace, so (trace, word) order is
    # (length, word) order; arccosh once per distinct trace
    tr = m[:, 0] + m[:, 3]
    ws = np.array(ws, dtype=object)
    order = np.lexsort((ws, tr))
    traces, at = np.unique(tr[order], return_inverse=True)
    lengths = np.array([2.0 * math.acosh(t / 2.0) for t in traces.tolist()])
    return GeodesicCensus(PLANE, tuple(ws[order].tolist()), lengths[at],
                          h=Backend.of(PLANE).h, T=float(T),
                          matrices=m[order], primitive=prim[order])


def class_axes(m):
    """(u, v), the repelling and attracting fixed points of int64 (n, 4)
    rows (a, b, c, d) with c != 0 and |t| > 2 (else ValueError), so that
    each translates its axis from u to v by its length.  With the sign
    that makes t > 2 they are (a - d -+ sqrt(t^2 - 4)) / 2c, and v
    attracts: c v + d = (t + sqrt(t^2 - 4)) / 2 > 1."""
    a, b, c, d = (m * np.sign(m[:, :1] + m[:, 3:])).T
    t = a + d
    if not ((c != 0).all() and (t > 2).all()):
        raise ValueError("class_axes needs rows with c != 0 and |trace| > 2")
    sq = np.sqrt(t * t - 4.0)
    return (a - d - sq) / (2.0 * c), (a - d + sq) / (2.0 * c)


# ---------------------------------------------------------------------------
# modular surface: fundamental domain folding and the cusp strip walk

FUND_DOMAIN_TOL = 1e-12


def fold_points(z, max_iter=200):
    """(w, g): the points z of the upper half-plane folded into the
    domain |Re z| <= 1/2, |z| >= 1 of PSL(2, Z), as a complex array, and
    the int64 (n, 4) rows (a, b, c, d) of the elements applied, w = g z.

    Each round translates the live points into |Re z| <= 1/2 and inverts
    those inside |z| = 1, which alone stay live; max_iter rounds at most,
    with a RuntimeWarning counting the points still live.
    """
    w = np.atleast_1d(np.array(z, dtype=complex))
    g = np.tile(np.array(IDENT, dtype=np.int64), (len(w), 1))
    live = np.arange(len(w))
    for _ in range(max_iter):
        zl, gl = w[live], g[live]
        shift = np.round(zl.real)
        zl -= shift
        gl[:, :2] -= shift.astype(np.int64)[:, None] * gl[:, 2:]  # T^-n
        flip = np.abs(zl) < 1.0 - FUND_DOMAIN_TOL
        zl[flip] = -1.0 / zl[flip]
        gl[flip] = gl[flip][:, [2, 3, 0, 1]] * np.array([-1, -1, 1, 1])  # S
        w[live], g[live] = zl, gl
        live = live[flip]
        if not live.size:
            break
    else:
        warnings.warn(f"fold_points: {live.size} points outside the "
                      f"fundamental domain after {max_iter} rounds",
                      RuntimeWarning, stacklevel=2)
    return w, g


def strip_walk(m):
    """One period of each closed geodesic of int64 rows m, cut into its
    pieces in the strip F_inf = {|z - n| >= 1 for all integers n}.

    Each row is conjugated by the element that folds the top of its axis
    and stepped by _strip_step until it is its first piece's row up to a
    translation (c equal, a - d equal mod 2c).  Returns per piece (cls,
    lo, hi, radius, right): the class, the signed distances (growing with
    x) of its ends from the top of the axis, lo < hi, the radius and c >
    0.  Raises ValueError unless 2 < t < 2**18, where the fractions fit
    int64, and RuntimeError if a class takes more steps than its trace.
    """
    t = m[:, 0] + m[:, 3]
    if not ((t > 2) & (t < 2 ** 18)).all():
        raise ValueError("strip_walk needs traces in (2, 2**18)")
    u, v = class_axes(m)
    _, g = fold_points(0.5 * (u + v) + 0.5j * np.abs(v - u))
    g_inv = g[:, [3, 1, 2, 0]] * np.array([1, -1, -1, 1])
    m = (g.reshape(-1, 2, 2) @ m.reshape(-1, 2, 2) @ g_inv.reshape(-1, 2, 2))
    first = m = _strip_step(m.reshape(-1, 4))[0]
    live, out = np.arange(len(m)), []
    for _ in range(int(t.max(initial=1))):
        a, b, c, d = m.T
        cen, x_in = (a - d) / (2.0 * c), (c - b) / (a - d)  # x_in on U_0
        radius = np.sqrt((a + d) ** 2 - 4.0) / (2.0 * np.abs(c))
        m, k, xi = _strip_step(m)  # leaves through U_k at k + xi
        t_in = np.arcsinh((x_in - cen) / np.sqrt(1.0 - x_in * x_in))
        t_out = np.arcsinh((xi + k - cen) / np.sqrt(1.0 - xi * xi))
        out.append((live, np.minimum(t_in, t_out), np.maximum(t_in, t_out),
                    radius, c > 0))
        f = first[live]
        moving = (m[:, 2] != f[:, 2]) | (
            (m[:, 0] - m[:, 3] - f[:, 0] + f[:, 3]) % (2 * f[:, 2]) != 0)
        m, live = m[moving], live[moving]
        if not live.size:
            return tuple(np.concatenate(col) for col in zip(*out))
    raise RuntimeError(f"strip_walk: {live.size} classes did not close")


def _strip_step(m):
    """(next rows, k, xi): a row's axis, entering F_inf on U_0, leaves
    through the U_k = {|z - k| = 1}, k = floor(v) or floor(v) + 1, that
    it meets first, at x = k + xi = (b - c + c k^2) / (2 k c + d - a),
    compared as integer fractions; at a tie, a corner, the circle on the
    side of travel maps the tile entered into F_inf.  The next row is
    S T^-k gamma T^k S^-1."""
    a, b, c, d = m.T
    k = np.floor(class_axes(m)[1]).astype(np.int64)
    num = [b - c + c * j * j for j in (k, k + 1)]
    den = [2 * j * c + d - a for j in (k, k + 1)]
    # sign(x_k - x_k+1) times the direction of travel: > 0 if U_k+1 first
    ahead = np.sign(num[0] * den[1] - num[1] * den[0]) * np.sign(
        den[0] * den[1]) * np.sign(c)
    k = k + ((ahead > 0) | ((ahead == 0) & (c > 0)))
    bk = b + k * (a - d) - k * k * c  # T^-k gamma T^k = (a-kc, bk, c, d+kc)
    xi = (bk - c) / (2 * k * c + d - a)
    return np.stack([d + k * c, -c, -bk, a - k * c], axis=1), k, xi

"""Fuchsian groups on the upper half-plane.

The modular group PSL(2, Z) is built in with exact integer arithmetic:
its orbit balls are enumerated by matrix blocks, sorted into int64 rows
(`modular_ball`) or streamed as orbit points and distances
(`orbit_points`), complete with certificate, the sphere decided in
float64; its primitive hyperbolic conjugacy classes are the necklaces
of pairs L^b R^a, R = [[1,1],[0,1]], L = [[1,0],[1,1]], enumerated a
pair at a time into one `geometry.GeodesicCensus` of words, lengths,
int64 matrix rows and primitive flags, from which `class_axes` solves
the axes and `strip_walk` their excursions.
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
    # gamma with d(p, gamma p) <= R as int64 rows (a, b, c, d); from
    # orbit_points, None, with their gamma p and d(p, gamma p) in z, dist
    elements: object
    radius: float
    base: complex
    complete: bool
    certificate: str
    z: object = None
    dist: object = None


BALL_BLOCK_ROWS = 16  # rows c of the (c, d) enumeration handled per block
BALL_SLACK = 1e-9  # float64 tolerance of the sphere d = R
BALL_CERTIFICATE = ("integer matrix enumeration; sphere decided in float64 "
                    f"with slack {BALL_SLACK:g}")


def modular_ball(p, R):
    """All gamma in PSL(2, Z) with d(p, gamma p) <= R, complete, as the
    int64 rows (a, b, c, d) in lexicographic order: each `_ball_blocks`
    block packed into its key, the keys sorted and decoded into C-ordered
    (4, n) columns.  Raises ValueError as `_ball_key_radices` does."""
    p = complex(p)
    lo, span, _ = _ball_key_radices(p, R)
    keys = []
    for *cols, _, _ in _ball_blocks(p, R):
        key = np.zeros(len(cols[0]), dtype=np.int64)
        for col, low, base in zip(cols, lo, span):
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
    return BallResult(cols.T, R, p, True, BALL_CERTIFICATE)


def orbit_points(p, R):
    """gamma p and d(p, gamma p) over `modular_ball(p, R)` in block order,
    as its sphere test computed them, in the `z` and `dist` of a
    BallResult without elements; refuses what `modular_ball` does."""
    p, z, dist, n = complex(p), np.empty(0, complex), np.empty(0), 0
    for *_, zb, db in _ball_blocks(p, R):
        # grown in place by realloc: no block's arrays stay on the heap
        for col, blk in (z, zb), (dist, db):
            col.resize(n + len(blk), refcheck=False)
            col[n:] = blk
        n += len(zb)
    return BallResult(None, R, p, True, BALL_CERTIFICATE, z, dist)


def _ball_blocks(p, R):
    """Per BALL_BLOCK_ROWS values of c, the int64 columns a, b, c, d of
    the ball's elements, z = gamma p and dist = d(p, z).  For each
    coprime (c, d) with |c p + d| bounded, the displacement along the
    solution family (a0 + t c, b0 + t d, c, d) is quadratic in t, so the
    admissible t form an interval solved in closed form; the sphere is
    decided in float64, by dist <= R + BALL_SLACK.  With c >= 0, and d =
    1 when c = 0, each element is enumerated once, signed with its first
    nonzero entry positive, which a and b alone decide (ad - bc = 1 makes
    b nonzero where a = 0).  A column outside its a-priori bound raises
    ValueError rather than wrap."""
    lo, _, bound = _ball_key_radices(p, R)
    y = p.imag
    # |p - gamma p|^2 |c p + d|^2 = |p (c p + d) - (a p + b)|^2 <= nmax
    nmax = (math.cosh(R) - 1.0) * 2.0 * y * y
    # y / Im(gamma p) <= e^R  ->  |c p + d|^2 <= e^R
    bmax = math.exp(0.5 * R)
    cmax = int(math.floor(bmax / y)) + 1
    for c0 in range(0, cmax + 1, BALL_BLOCK_ROWS):
        rows = np.arange(c0, min(c0 + BALL_BLOCK_ROWS, cmax + 1),
                         dtype=np.int64)
        c, d, a0, b0 = _unimodular_rows(rows, p.real, bmax)
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
        sign = np.where((a < 0) | ((a == 0) & (b < 0)), -1, 1)
        a, b, c, d = (col * sign for col in (a, b, c, d))
        z = (a * p + b) / (c * p + d)  # as mobius_apply on the element
        dist = halfplane.dist(p, z)
        inside = dist <= R + BALL_SLACK
        if not inside.all():  # only blocks the sphere cuts are gathered
            a, b, c, d, z, dist = (v[inside] for v in (a, b, c, d, z, dist))
        for col, low, m in zip((a, b, c, d), lo, bound):
            if col.size and (col.min() < low or col.max() > m):
                raise ValueError(f"ball of radius {R} leaves its a-priori "
                                 f"column bound {m}")
        yield a, b, c, d, z, dist


def _ball_key_radices(p, R):
    """(lo, span, bound) of the int64 key sum of (col - lo) times the later
    spans; ValueError on a radius not finite and >= 0, a base point not in
    the upper half-plane, or a key overflow."""
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"orbit-ball radius must be finite and >= 0, "
                         f"not {R}")
    if not (p.imag > 0 and math.isfinite(abs(p))):
        raise ValueError(f"orbit-ball base point must be a finite point of "
                         f"the upper half-plane, not {p}")
    bound = _ball_column_bounds(p, R)
    lo = (0, -bound[1], -bound[2], -bound[3])
    span = (bound[0] + 1, *(2 * m + 1 for m in bound[1:]))
    if math.prod(span) >= 2 ** 63:
        raise ValueError(f"ball of radius {R} overflows the int64 sort key")
    return lo, span, bound


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


def _unimodular_rows(rows, x, bmax):
    """(c, d, a0, b0): the coprime (c, d) with |c x + d| <= bmax + 1 for
    c in rows, ordered by c then d, with a0 d - b0 c = 1.  c = 0 gives
    (0, 1) alone: translations, whose negatives are the same elements.
    a0 = d^-1 mod c depends on d mod c alone, so Euclid runs on the m =
    max(c, 1) residues of each c, not on every d: b0 = (a0 d - 1) / m."""
    dmid = -rows * x
    dr = bmax + 1.0
    lo = np.ceil(dmid - dr).astype(np.int64)
    n = np.floor(dmid + dr).astype(np.int64) - lo + 1
    lo[rows == 0], n[rows == 0] = 1, 1
    m = np.maximum(rows, 1)
    g, inv = _residue_inverses(np.repeat(m, m), words._ramp(m))
    c = np.repeat(rows, n)
    d = np.repeat(lo, n) + words._ramp(n)
    # each d's slot in the table: its row's offset plus d mod m
    at = np.repeat(np.cumsum(m) - m, n) + d % np.repeat(m, n)
    keep = g[at] == 1
    c, d = c[keep], d[keep]
    a0 = inv[at[keep]]
    return c, d, a0, (a0 * d - 1) // np.maximum(c, 1)


def _residue_inverses(m, r):
    """Row by row, for 0 <= r < m: (g, x), g = gcd(m, r) and, where g = 1,
    x in [1, m] with x r = 1 mod m, by extended Euclid on the live rows."""
    g, x = np.empty_like(m), np.empty_like(m)
    live = np.arange(len(m))
    old_r, old_t, t = m, np.zeros_like(m), np.ones_like(m)
    while live.size:
        end = r == 0
        g[live[end]], x[live[end]] = old_r[end], old_t[end]
        go = ~end
        live, old_r, r, old_t, t = (v[go] for v in (live, old_r, r,
                                                     old_t, t))
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_t, t = t, old_t - quo * t
    return g, (x - 1) % m + 1


def enumerate_conj_classes(T, include_imprimitive=False):
    """Primitive hyperbolic conjugacy classes of PSL(2, Z) with translation
    length <= T, as a GeodesicCensus complete to T, in (length, word)
    order, of canonical cyclic words in R and L (both letters present;
    least rotation with L < R) with their matrix rows and primitive
    flags.  Oriented: a class and its inverse are counted separately
    unless they coincide.  Raises ValueError as `GeodesicCensus.bound`.
    Such a word is a necklace of pairs L^b R^a, a, b >= 1: ordered (b
    descending, then a) as their letters are, so its least rotation
    starts at a pair and `words.necklaces` runs on pairs, complete as
    every prefix of a necklace is a prenecklace and tr(M L^b R^a) = p + s
    + q b + r a + s a b, M = (p, q, r, s) >= 0, is at least tr M and
    rises in a and b, so each level's children are two ranges.
    """
    T = GeodesicCensus.bound(T)
    X = math.floor(2.0 * math.cosh(T / 2.0))
    dt = np.min_scalar_type(-X - 1)  # every b, a and trace, and -X - 1
    # the frontier: the prenecklaces of t pairs in lexicographic order,
    # their runs b1, a1, ..., bt, at, periods and int64 rows (p, q, r, s)
    runs, period = np.zeros((1, 0), dt), np.ones(1, np.int64)
    m, ws, out = np.array([IDENT], np.int64), [], []
    b0, a0 = np.array([[X], [1]])  # pair one period back; (X, 1) <= all
    while len(m):
        t = runs.shape[1] // 2
        # b from min(b0, its bound at a = 1) down, each b's a from a0 or 1
        top = np.clip((X - m[:, [0, 2, 3]].sum(1)) // m[:, 1::2].sum(1), 0, b0)
        par = np.repeat(np.arange(len(m)), top)
        b = top[par] - words._ramp(top)
        lo = np.where(b == b0[par], a0[par], 1)
        m = m[par]
        m[:, ::2] += m[:, 1::2] * b[:, None]  # M L^b: tr M L^b R^a = p+s+ra
        na = np.maximum((X - m[:, 0] - m[:, 3]) // m[:, 2] - lo + 1, 0)
        at = np.repeat(np.arange(len(par)), na)
        m, b, par, a = m[at], b[at], par[at], lo[at] + words._ramp(na)
        m[:, 1::2] += m[:, ::2] * a[:, None]
        period = np.where((b == b0[par]) & (a == a0[par]), period[par], t + 1)
        runs = np.column_stack((runs[par], b.astype(dt), a.astype(dt)))
        b0, a0 = runs[np.arange(len(m)), 2 * (t + 1 - period) + [[0], [1]]]
        keep = (t + 1) % period == 0 if include_imprimitive else period > t
        out.append((runs[keep], m[keep], period[keep] > t))  # Lyndon
        # spell the level's classes at once, each ended by a space
        spell = np.column_stack((runs[keep], np.ones(keep.sum(), dt)))
        lr = np.frombuffer((b"LR" * (t + 1) + b" ") * len(spell), np.uint8)
        ws += str(np.repeat(lr, spell.ravel()), "ascii").split()
    # (trace, word) order: the runs padded, a pad b keyed below every b
    key = np.concatenate([np.pad(lv[0], ((0, 0), (0, 2 * (len(out) - t))))
                          for t, lv in enumerate(out, 1)])
    key[:, ::2] = np.where(key[:, ::2] > 0, -key[:, ::2], -X - 1)
    m, prim = (np.concatenate([lv[i] for lv in out]) for i in (1, 2))
    del out
    tr = m[:, 0] + m[:, 3]
    order = np.lexsort(np.vstack((key.T[::-1], tr.astype(dt))))
    ws = tuple(map(ws.__getitem__, order.tolist()))
    lengths = np.array([2.0 * math.acosh(t / 2.0) for t in range(2, X + 1)])
    return GeodesicCensus(PLANE, ws, lengths[tr[order] - 2],
                          Backend.of(PLANE).h, T, m[order], prim[order])


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

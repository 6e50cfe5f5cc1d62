"""Reference routes that more than one test file checks the library
against.  The library itself calls none of them.

Import as `import reference` from a test module: pytest puts the tests
directory on the import path.
"""

import math
import warnings

import numpy as np

from hyplab import halfplane as hp
from hyplab import measures, modular, words
from hyplab.geometry import PLANE, BackendMismatch


def ray(p, xi):
    """Unit-speed half-plane ray with point(0)=p heading to boundary point
    xi; its backward endpoint is where the opposite tangent direction
    leads."""
    p = complex(p)
    return hp.Geodesic(
        hp.forward_endpoint(p, hp.direction_toward(p, xi) + math.pi), xi, p)


def segment_dist(seg, z):
    """Distance from z (shape (m, n)) to the segments of the chart seg in
    the log domain: arccosh at every point, and the foot's arclength
    log|w| compared against the ends' seg.lp and seg.lq before the clamp
    to the nearer endpoint."""
    w = seg.to_w(z)
    aw = np.abs(w)
    out = np.arccosh(np.maximum(aw / w.imag, 1.0))
    sig, sp, sq = np.log(aw), seg.lp, seg.lq
    outside = ~((sig >= np.minimum(sp, sq)) & (sig <= np.maximum(sp, sq)))
    zo = z[outside]
    p = np.broadcast_to(seg.p, z.shape)[outside]
    q = np.broadcast_to(seg.q, z.shape)[outside]
    out[outside] = np.minimum(hp.dist(zo, p), hp.dist(zo, q))
    return out


def normalize(m):
    """Canonical representative modulo sign: first nonzero entry positive."""
    for x in m:
        if x != 0:
            return tuple(m) if x > 0 else tuple(-v for v in m)
    raise ValueError("zero matrix")


R_MAT = (1, 1, 0, 1)
L_MAT = (1, 0, 1, 1)


def trace(m):
    return m[0] + m[3]


def word_matrix(w):
    """The product of R and L over an R/L word, one letter at a time."""
    m = modular.IDENT
    for ch in w:
        m = modular.mat_mul(m, R_MAT if ch == "R" else L_MAT)
    return m


def det(m):
    a, b, c, d = m
    return a * d - b * c


def mat_pow(m, n):
    out = modular.IDENT
    for _ in range(n):
        out = modular.mat_mul(out, m)
    return out


def cyclic_reduce(w):
    """Return (cyclically reduced core, conjugator c) with w = c * core * c^-1.

    |core| is the translation length of w on the tree.  The identity has
    empty core and conjugator.
    """
    conj = []
    while len(w) >= 2 and w[0] == words.inv_letter(w[-1]):
        conj.append(w[0])
        w = w[1:-1]
    return w, "".join(conj)


def translation_length(w):
    core, _ = cyclic_reduce(w)
    return len(core)


def is_primitive(w):
    """True iff the cyclic word is not a proper power of a shorter block."""
    n = len(w)
    if n == 0:
        return False
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return False
    return True


def fellow_travel_deviation(v, rho):
    """Exact max of d(x, [1, v]) over the vertices x of every geodesic
    [u, v w] with |u|, |w| <= rho, in the rank-2 free group.

    d(x, [1, v]) = |x| - lcp(x, v): the nearest point of [1, v] is x's
    longest prefix on it.  Every vertex of [u, v'] is a prefix of u or of
    v', and along a chain of prefixes |x| grows by one per step while
    lcp(x, v) grows by at most one, so the worst vertex of each geodesic
    is an endpoint and the max runs over y in B(rho) and v B(rho) only.
    Each half alone gives exactly rho: d(y, [1, v]) <= |y| on B(rho) and
    <= |w| at y = v w, with equality at a y of length rho leaving v.
    """
    ball = list(words.ball_words(rho))
    return max(len(y) - words.common_prefix_len(y, v)
               for y in ball + [words.mul(v, w) for w in ball])


def necklace_words(alphabet, max_len, step, start, close,
                   primitive_only=False):
    """Yield (word, state, primitive) for each necklace of length
    1..max_len over `alphabet` (in increasing order) whose prefixes all
    pass `step` and which passes close(word, state).

    Fredricksen-Maiorana / Ruskey-Savage-Wang, with an explicit stack: a
    prenecklace a[1..t-1] of period p extends only by letters c >= a[t-p],
    to period p if c = a[t-p] and t otherwise; it is a necklace (its own
    least rotation) iff p divides t, and a Lyndon word iff p = t.
    step(state, letter) returns the extended prefix's state, or None to
    prune it with all its extensions.  Every prefix of a necklace is a
    prenecklace, so a prune that every prefix of an admissible necklace
    passes loses nothing.
    """
    index = {c: i for i, c in enumerate(alphabet)}
    stack = [("", start, 1)]
    while stack:
        w, state, p = stack.pop()
        n = len(w)
        if n and n % p == 0 and (p == n or not primitive_only) \
                and close(w, state):
            yield w, state, p == n
        ref = w[n - p] if n else alphabet[0]
        for c in alphabet[index[ref]:] if n < max_len else ():
            nxt = step(state, c)
            if nxt is not None:
                stack.append((w + c, nxt, p if n and c == ref else n + 1))


def necklaces(max_len, rank=2, primitive_only=True):
    """words.necklaces by the depth-first necklace_words, one word and
    one callback per prefix, then sorted."""
    inv = {c: words.inv_letter(c) for c in words.letters(rank)}
    return sorted((w for w, _, _ in necklace_words(
        sorted(inv), max_len, lambda last, c: None if c == inv.get(last) else c,
        None, lambda w, last: last != inv[w[0]], primitive_only)),
        key=lambda w: (len(w), w))


def conj_classes(T, include_imprimitive=False):
    """modular.enumerate_conj_classes by the depth-first necklace_words,
    one tuple mat_mul per prefix: (word, matrix, trace, length,
    primitive) tuples in (length, word) order."""
    trmax = 2.0 * math.cosh(T / 2.0)

    def step(m, ch):
        m2 = modular.mat_mul(m, R_MAT if ch == "R" else L_MAT)
        return m2 if trace(m2) <= trmax else None

    out = [(w, m, trace(m), 2.0 * math.acosh(trace(m) / 2.0), prim)
           for w, m, prim in necklace_words(
               "LR", math.ceil(trmax), step, modular.IDENT,
               lambda w, m: "L" in w and "R" in w, not include_imprimitive)]
    out.sort(key=lambda c: (c[3], c[0]))
    return out


def modular_ball(p, R):
    """modular.modular_ball as it was before the sort key was packed
    per block: int64 blocks (4, k) straight from the displacement mask,
    a first-nonzero sign pass, and one mixed-radix key over the column
    spans of the whole ball, packed after the concatenation.  The
    element oracle of the packed kernel."""
    p = complex(p)
    y = p.imag
    # |p - gamma p|^2 |c p + d|^2 = |p (c p + d) - (a p + b)|^2 <= nmax
    nmax = (math.cosh(R) - 1.0) * 2.0 * y * y
    # y / Im(gamma p) <= e^R  ->  |c p + d|^2 <= e^R
    bmax = math.exp(0.5 * R)
    cmax = int(math.floor(bmax / y)) + 1
    slack = modular.BALL_SLACK
    blocks = []  # int64 columns a, b, c, d
    for c0 in range(0, cmax + 1, modular.BALL_BLOCK_ROWS):
        rows = np.arange(c0, min(c0 + modular.BALL_BLOCK_ROWS, cmax + 1),
                         dtype=np.int64)
        c, d = modular._coprime_cd(rows, p.real, bmax)
        g, xg, yg = modular._ext_gcd_rows(c, d)
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
        tlo = np.ceil((-B - sq) / (2.0 * A) - slack).astype(np.int64)
        thi = np.floor((-B + sq) / (2.0 * A) + slack).astype(np.int64)
        n_t = np.where(disc < 0, 0, np.maximum(thi - tlo + 1, 0))
        pick = np.repeat(np.arange(len(c)), n_t)
        t = tlo[pick] + words._ramp(n_t)
        c, d = c[pick], d[pick]
        a, b = a0[pick] + t * c, b0[pick] + t * d
        disp = hp.dist(p, (a * p + b) / (c * p + d))
        m = np.stack([a, b, c, d])[:, disp <= R + slack]
        lead = m[(m != 0).argmax(axis=0), np.arange(m.shape[1])]
        blocks.append(np.where(lead < 0, -m, m))
    cols = np.concatenate(blocks, axis=1)
    del blocks
    # rows are distinct, so sorting one mixed-radix key over the four
    # column offsets gives their lexicographic order; lo <= 0 < span
    lo = cols.min(axis=1, initial=0)
    span = cols.max(axis=1, initial=0) - lo + 1
    if math.prod(int(s) for s in span) >= 2 ** 63:
        raise ValueError(f"ball of radius {R} overflows the int64 sort key")
    key = cols[0] - lo[0]
    for col, low, base in zip(cols[1:], lo[1:], span[1:]):
        key *= base
        key -= low  # before col, so no partial sum leaves [0, 2**63)
        key += col
    key.sort()
    for i in range(3, -1, -1):  # decode the key back into the columns
        np.divmod(key, span[i], out=(key, cols[i]))
        cols[i] += lo[i]
    return modular.BallResult(cols.T, R, p, complete=True,
                              certificate="integer matrix enumeration; "
                                          f"sphere decided in float64 with "
                                          f"slack {slack:g}")


# ---------------------------------------------------------------------------
# the sampled closed-geodesic equidistribution route: the oracle of the
# exact strip walk in measures.equidistribution_test

_SAMPLES_PER_UNIT = 40  # samples per unit length along a closed geodesic
# sample points per equidistribution pass: enough to amortise the numpy
# calls over many classes, small enough that the pass's temporaries stay
# a few hundred KB (2**16 points was slower and raised the peak RSS)
_EQUIDIST_CHUNK = 4096


def _cell_index(z, theta):
    ybin = np.digitize(z.imag, measures._Y_CUTS)
    tbin = np.minimum((theta / (2.0 * math.pi / measures._N_THETA))
                      .astype(int), measures._N_THETA - 1)
    return ybin * measures._N_THETA + tbin


def equidistribution_test(census, T):
    """Cell masses of the closed-geodesic measure mu_T against Liouville.

    mu_T averages arc length over all primitive classes of length <= T,
    normalized to a probability measure.  Each geodesic is sampled
    uniformly along one period [0, ell) of its axis, which
    modular.class_axes solves from the census's matrix rows, from t = 0
    at the top of the semicircle.  The samples are folded into the
    fundamental domain with their tangent directions and binned into 16
    position x direction cells.  Whole classes are sampled, folded and
    binned together, in passes of at most _EQUIDIST_CHUNK points.

    Returns (mu_masses, liouville_masses, per-cell gaps).  Raises
    ValueError when no class has length <= T, or when T exceeds the
    census bound.
    """
    if census.backend != PLANE:
        raise BackendMismatch("equidistribution runs on the modular census")
    n = census.count(T)
    if not n:
        raise ValueError(f"no closed geodesic of length <= {T}")
    ells = census.lengths[:n]
    us, ends = modular.class_axes(census.matrices[:n])
    los, his = np.minimum(us, ends), np.maximum(us, ends)
    signs = np.where(ends > us, 1.0, -1.0)
    # log|w| at the top of the semicircle, the axis's origin, is rounding
    # noise around 0; it is taken in Python complex arithmetic, as
    # halfplane.Geodesic takes it
    tops = map(complex, (0.5 * (los + his)).tolist(),
               (0.5 * (his - los)).tolist())
    sigma0s = np.array([math.log(abs((z - lo) / (hi - z))) for z, lo, hi
                        in zip(tops, los.tolist(), his.tolist())])
    ks = np.maximum(32, np.ceil(ells * _SAMPLES_PER_UNIT).astype(np.int64))
    steps = ells / ks
    rows = []  # per class: cell counts x (ell / k), in census order
    for a, b in _class_chunks(ks):
        at = np.repeat(np.arange(a, b), ks[a:b])  # each point's class
        t = (words._ramp(ks[a:b]) + 0.5) * steps[at]
        z = hp._AxisChart(los[at], his[at], None).from_w(
            1j * np.exp(sigma0s[at] + signs[at] * t))
        # fold from [0, 2 pi): an angle on a cell edge keeps its bin
        theta = np.mod(hp.direction_toward(z, ends[at]), 2.0 * math.pi)
        zf, tf = fold_points(z, theta)
        idx = (at - a) * (4 * measures._N_THETA) + _cell_index(zf, tf)
        counts = np.bincount(idx, minlength=(b - a) * 4 * measures._N_THETA)
        rows.append(counts.reshape(b - a, 4 * measures._N_THETA)
                    * steps[a:b, None])
    # accumulate adds row after row, as a running per-class sum would
    hist = np.add.accumulate(np.concatenate(rows))[-1]
    mu = hist / np.add.accumulate(ells)[-1]
    ref = measures.liouville_cell_masses()
    return mu, ref, mu - ref


def _class_chunks(ks):
    """(start, stop) runs of consecutive classes with at most
    _EQUIDIST_CHUNK sample points in all; a larger class runs alone."""
    start, filled = 0, 0
    for i, k in enumerate(ks.tolist()):
        if filled and filled + k > _EQUIDIST_CHUNK:
            yield start, i
            start, filled = i, 0
        filled += k
    yield start, len(ks)


def fold_points(z, theta, max_iter=200):
    """Fold points of the upper half-plane (with tangent angles) into the
    standard fundamental domain |Re z| <= 1/2, |z| >= 1 of PSL(2, Z).

    Vectorized; angles are transported by the derivative of the applied
    Mobius maps.  Returns (z_folded, theta_folded in [0, 2*pi)).  Points
    still outside the domain after max_iter rounds are returned as they
    are, with a RuntimeWarning that counts them.
    """
    tol = modular.FUND_DOMAIN_TOL
    scalar = np.ndim(z) == 0 and np.ndim(theta) == 0
    z = np.atleast_1d(np.array(z, dtype=complex))
    theta = np.atleast_1d(np.array(theta, dtype=float))
    for _ in range(max_iter):
        shift = np.round(z.real)
        z = z - shift
        inside = np.abs(z) >= 1.0 - tol
        if inside.all() and (np.abs(shift) == 0).all():
            break
        flip = ~inside
        if flip.any():
            zf = z[flip]
            theta[flip] = theta[flip] - 2.0 * np.angle(zf)
            z[flip] = -1.0 / zf
    else:
        outside = (np.round(z.real) != 0) | (np.abs(z) < 1.0 - tol)
        if outside.any():
            warnings.warn(f"fold_points: {int(outside.sum())} points outside "
                          f"the fundamental domain after {max_iter} rounds",
                          RuntimeWarning, stacklevel=2)
    theta = np.mod(theta, 2.0 * math.pi)
    if scalar:
        return complex(z[0]), float(theta[0])
    return z, theta

"""Upper half-plane geometry (curvature -1).

Points are complex numbers with positive imaginary part; boundary points
are reals or math.inf.  Geodesics are vertical lines and semicircles
orthogonal to the real axis, handled through their endpoints at infinity
and a unit-speed parameterization.  Most functions accept numpy arrays of
complex points and vectorize.
"""

import math

import numpy as np

INF = math.inf

EPS_PT = 1e-9


def cosh_dist(p, q):
    """cosh of the hyperbolic distance, 1 + |p-q|^2 / (2 Im p Im q),
    rounded up to 1 where it falls below.  Broadcasts over arrays."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    return np.maximum(1.0 + np.abs(p - q) ** 2 / (2.0 * p.imag * q.imag),
                      1.0)


def dist(p, q):
    """Hyperbolic distance, arccosh of cosh_dist."""
    out = np.arccosh(cosh_dist(p, q))
    return float(out) if out.ndim == 0 else out


def mobius_apply(m, z):
    """Apply a real Mobius matrix (a, b, c, d) to interior points z
    (complex or arrays); boundary points go through
    mobius_apply_boundary."""
    a, b, c, d = m
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
    return (a * z + b) / (c * z + d)


def mobius_apply_boundary(m, x):
    """Apply a Mobius matrix to a boundary point (real or inf)."""
    a, b, c, d = m
    if x == INF:
        return a / c if c != 0 else INF
    den = c * x + d
    if den == 0:
        return INF
    return (a * x + b) / den


def geodesic_endpoints(p, q):
    """Ideal endpoints (u, v) of the geodesic through interior points p, q,
    ordered so that travel p -> q heads toward v.

    The one home of the two-point circle-centre formula and of the test
    that the geodesic is vertical (|Re q - Re p| < EPS_PT * scale), where
    (u, v) is (x, inf) going up and (inf, x) going down.  Broadcasts over
    arrays of p and q; returns floats for scalar input.
    """
    # no broadcast copy: a scalar p against an array q stays scalar
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    ap, aq = np.abs(p), np.abs(q)
    dx = q.real - p.real
    vert = np.abs(dx) < EPS_PT * np.maximum(1.0, np.maximum(ap, aq))
    c = (aq ** 2 - ap ** 2) / (2.0 * np.where(vert, 1.0, dx))
    r = np.abs(p - c)
    lo = np.where(vert, 0.5 * (p.real + q.real), c - r)
    hi = np.where(vert, INF, c + r)
    # p -> q heads up a vertical line, else toward the endpoint on q's side
    fwd = np.where(vert, q.imag > p.imag, dx > 0)
    u, v = np.where(fwd, lo, hi), np.where(fwd, hi, lo)
    return (float(u), float(v)) if u.ndim == 0 else (u, v)


def forward_endpoint(z, theta):
    """Ideal endpoint of the geodesic from interior point z with initial
    Euclidean tangent direction theta."""
    z = complex(z)
    c_ = math.cos(theta)
    if abs(c_) < 1e-15:
        return INF if math.sin(theta) > 0 else z.real
    c = z.real + z.imag * math.tan(theta)
    r = z.imag / abs(c_)
    return c + r if c_ > 0 else c - r


def direction_toward(p, xi):
    """Initial tangent angle in [-pi, pi) at interior point p of the
    geodesic ray toward boundary point xi (real or inf).  Broadcasts over
    arrays of p and xi; returns a float for scalar input."""
    scalar = np.ndim(p) == 0 and np.ndim(xi) == 0
    p, xi = np.broadcast_arrays(np.atleast_1d(np.asarray(p, dtype=complex)),
                                np.atleast_1d(np.asarray(xi, dtype=float)))
    out = np.full(xi.shape, 0.5 * math.pi)
    fin = ~np.isinf(xi)
    p, x = p[fin], xi[fin]
    same = np.abs(x - p.real) < 1e-13
    # circle center c on the real axis with |p - c| = |xi - c|
    c = 0.5 * (x + (np.abs(p) ** 2 - x * p.real)
               / np.where(same, 1.0, p.real - x))
    phi = np.arctan2(p.imag, p.real - c)
    # moving toward xi = c + r means phi decreasing; tangent = dz/d(-phi)
    th = np.where(x > c, phi - 0.5 * math.pi, phi + 0.5 * math.pi)
    th = np.where(same, -0.5 * math.pi, th)
    out[fin] = np.mod(th + math.pi, 2.0 * math.pi) - math.pi
    return float(out[0]) if scalar else out


class _AxisChart:
    """The chart of geodesics with ideal endpoints u, v onto the imaginary
    axis: w = (z - lo)/(hi - z) with lo < hi, or w = z - x0 on a vertical
    line.  w is purely imaginary on the geodesic, log|w| is arclength
    along it, and |w| / Im w is cosh of the distance to it.

    The one home of the chart and its vertical patch.  u, v and x0 are
    arrays for a family of geodesics; for one line they stay Python
    floats, so a scalar point maps in Python complex arithmetic.
    """

    __slots__ = ("lo", "hi", "vert", "x0")

    def __init__(self, u, v, x0):
        self.x0 = x0
        if np.ndim(u) == 0 and np.ndim(v) == 0:
            self.lo, self.hi = min(u, v), max(u, v)
            self.vert = True if INF in (u, v) else None
            return
        vert = np.isinf(u) | np.isinf(v)
        # a vertical line gets the finite stand-in (-1, 1), so no inf
        # reaches the circle chart whose values the vertical patch replaces
        self.lo = np.where(vert, -1.0, np.minimum(u, v))
        self.hi = np.where(vert, 1.0, np.maximum(u, v))
        self.vert = vert if vert.any() else None

    def to_w(self, z):
        if self.vert is True:
            return z - self.x0
        w = z - self.lo
        w /= self.hi - z
        if self.vert is None:
            return w
        return np.where(self.vert, z - self.x0, w)

    def from_w(self, w):
        if self.vert is True:
            return self.x0 + w
        z = self.hi * w
        z += self.lo
        z /= w + 1.0
        if self.vert is None:
            return z
        return np.where(self.vert, self.x0 + w, z)


class Geodesic(_AxisChart):
    """Unit-speed geodesic in the half-plane, given by its ideal endpoints
    (u toward -inf-time, v toward +inf-time) and an anchor point at t=0.

    Parameterized through its axis chart: point(t) has log|w| = sigma0 +
    sign * t, where sigma0 is the anchor's and `sign` flips when v is the
    smaller endpoint.  point(t) accepts scalars or arrays.
    """

    __slots__ = ("u", "v", "sign", "sigma0")

    def __init__(self, u, v, anchor):
        if u == v:
            raise ValueError("coincident ideal endpoints")
        super().__init__(u, v, u if v == INF else v)
        self.u, self.v = u, v
        self.sign = 1.0 if v > u else -1.0
        w = self.to_w(complex(anchor))
        # |Re w| / |w| is tanh of the anchor's distance to the geodesic
        if abs(w.real) > 1e-6 * abs(w):
            raise ValueError("anchor does not lie on the geodesic")
        self.sigma0 = math.log(abs(w))

    def point(self, t):
        sigma = self.sigma0 + self.sign * np.asarray(t, dtype=float)
        out = np.asarray(self.from_w(1j * np.exp(sigma)))
        return complex(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"Geodesic(u={self.u}, v={self.v})"


def line(xi, eta):
    """Unit-speed line from xi (t=-inf) to eta (t=+inf).  Its origin
    (t=0) is the top of the semicircle, (xi+eta)/2 + i|eta-xi|/2, or the
    point at height 1 on a vertical line."""
    if xi == INF or eta == INF:
        x = eta if xi == INF else xi
        anchor = x + 1j
    else:
        c, r = 0.5 * (xi + eta), 0.5 * abs(eta - xi)
        anchor = c + 1j * r
    return Geodesic(xi, eta, anchor)


def busemann(q, p, xi):
    """b_p(q, xi) = lim_t d(q, c(t)) - t along the ray from p to xi, in
    closed form:

        b_p(q, xi) = log(Im(p) |q - xi|^2 / (Im(q) |p - xi|^2)),

    and log(Im(p) / Im(q)) at xi = inf.  Broadcasts over arrays of q, p
    and xi; returns a float for scalar input.
    """
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    xi = np.asarray(xi, dtype=float)
    inf = np.isinf(xi)
    x = np.where(inf, 0.0, xi)
    gq = np.where(inf, 1.0, np.square(np.abs(q - x)))
    gp = np.where(inf, 1.0, np.square(np.abs(p - x)))
    out = np.log(p.imag * gq / (q.imag * gp))
    return float(out) if out.ndim == 0 else out


def gromov_beta(p, xi, eta):
    """beta_p(xi, eta) = -(b_p(q, xi) + b_p(q, eta)) for q on the line
    from xi to eta, in closed form:

        beta_p(xi, eta) = log(|p - xi|^2 |p - eta|^2
                              / (Im(p)^2 |xi - eta|^2)),

    where a factor that holds an endpoint at inf is 1.  Broadcasts over
    arrays of p, xi and eta; returns a float for scalar input.
    """
    p = np.asarray(p, dtype=complex)
    xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    fx, fe = np.isinf(xi), np.isinf(eta)
    x, e = np.where(fx, 0.0, xi), np.where(fe, 0.0, eta)
    num = (np.where(fx, 1.0, np.square(np.abs(p - x)))
           * np.where(fe, 1.0, np.square(np.abs(p - e))))
    gap = np.where(fx | fe, 1.0, np.square(x - e))
    if np.any((gap == 0.0) | (fx & fe)):
        raise ValueError("coincident boundary points")
    out = np.log(num / (np.square(p.imag) * gap))
    return float(out) if out.ndim == 0 else out


def visual_half_angle(ball_radius, distance_to_center):
    """Half-angle subtended by a ball of hyperbolic radius rho seen from
    hyperbolic distance D: sin(theta) = sinh(rho) / sinh(D)."""
    s = math.sinh(ball_radius) / math.sinh(distance_to_center)
    if s >= 1.0:
        raise ValueError("viewpoint inside or on the ball")
    return math.asin(s)


def shadow_arc(x, p, rho):
    """Boundary interval (pair of ideal endpoints, counterclockwise from
    the first) of the shadow of B(p, rho) seen from x."""
    x, p = complex(x), complex(p)
    d = dist(x, p)
    if d <= rho:
        raise ValueError("viewpoint inside the ball")
    theta = visual_half_angle(rho, d)
    t0 = direction_toward(x, geodesic_endpoints(x, p)[1])
    return (forward_endpoint(x, t0 - theta), forward_endpoint(x, t0 + theta))


def random_points(rng, n, radius, center=1j):
    """n points uniform w.r.t. hyperbolic area in B(center, radius)."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = np.arccosh(1.0 + rng.uniform(0.0, 1.0, size=n) * (math.cosh(radius) - 1.0))
    # rotate the vertical ray about i, then translate i -> center
    half = 0.5 * (theta - 0.5 * math.pi)
    z = 1j * np.exp(r)
    ca, sa = np.cos(half), np.sin(half)
    z = (ca * z + sa) / (-sa * z + ca)
    c = complex(center)
    return c.real + c.imag * z


class _SegmentChart(_AxisChart):
    """The axis chart of the geodesic segments p[i] -> q[i] (arrays of
    shape (m,), held as (m, 1)), with the vertical patch w = z - Re p.
    lp and lq are log|w| at p and q, their arclengths, and amin and amax
    the smaller and larger of |w| there.

    Sampling a side and measuring the distance to it both read the
    endpoints built here once.
    """

    __slots__ = ("p", "q", "lp", "lq", "amin", "amax")

    def __init__(self, p, q):
        p = np.asarray(p, dtype=complex)[:, None]
        q = np.asarray(q, dtype=complex)[:, None]
        super().__init__(*geodesic_endpoints(p, q), p.real)
        self.p, self.q = p, q
        ap, aq = np.abs(self.to_w(p)), np.abs(self.to_w(q))
        self.lp, self.lq = np.log(ap), np.log(aq)
        self.amin, self.amax = np.minimum(ap, aq), np.maximum(ap, aq)

    def _at(self, frac):
        s = self.lp * (1 - frac) + self.lq * frac
        return self.from_w(1j * np.exp(s, out=s))

    def sample(self, n):
        """n points evenly spaced in arclength from p to q, shape (m, n)."""
        return self._at(np.linspace(0.0, 1.0, n))

    def sample_at(self, idx):
        """Point idx[i] of sample(SAMPLES_PER_SIDE) on segment i, bit for
        bit, shape (m, 1)."""
        return self._at(np.linspace(0.0, 1.0, SAMPLES_PER_SIDE)[idx][:, None])

    def length(self):
        """The segments' hyperbolic lengths |log|w(q)| - log|w(p)||."""
        return np.abs(self.lq - self.lp)[:, 0]

    def take(self, rows):
        """The chart of the segments p[rows] -> q[rows], taken from this
        one's arrays rather than rebuilt."""
        out = object.__new__(_SegmentChart)
        for name in _AxisChart.__slots__ + _SegmentChart.__slots__:
            v = getattr(self, name)
            setattr(out, name,
                    v if v is None else np.take(v, rows, axis=0))
        return out

    def cosh_dist(self, z):
        """cosh of the distance from z (shape (m, n)) to the segments: the
        closed-form foot-of-perpendicular value |w| / Im w, clamped to the
        nearer endpoint where the foot falls outside the segment."""
        w = self.to_w(z)
        aw = np.abs(w)
        out = aw / w.imag
        np.maximum(out, 1.0, out=out)
        # the foot's arclength log|w| lies between the ends' iff |w| does
        outside = ~((aw >= self.amin) & (aw <= self.amax))
        if outside.any():
            zo = z[outside]
            p = np.broadcast_to(self.p, z.shape)[outside]
            q = np.broadcast_to(self.q, z.shape)[outside]
            out[outside] = np.minimum(cosh_dist(zo, p), cosh_dist(zo, q))
        return out

    def dist(self, z):
        """Distance from z (shape (m, n)) to the segments."""
        out = self.cosh_dist(z)
        return np.arccosh(out, out=out)


def _crossing_estimate(ab, bc, ca, n):
    """For sides ab of triangles with sides of lengths ab, bc and ca: the
    first of n samples on ab at or past the point D whose distances to
    the sides ca and bc agree, as a float (nan where it is undefined).

    At acute angles A and B the feet of D on the lines ca and bc fall on
    the sides, D lies on the bisector from c, and sinh|aD| sin A =
    sinh|Db| sin B gives sinh|aD| / sinh|Db| = k = sin B / sin A =
    sinh|ca| / sinh|bc|.  At an obtuse angle the nearest point of that
    side is the vertex itself, at distance |aD| (or |Db|), so the angle's
    sine is taken as 1.  Then |aD| = (log(1 + k e^ab) - log(1 + k e^-ab))
    / 2, in the log domain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # log sinh d = d - log 2 + log(1 - e^-2d), accurate for small d
        # too; the log 2 cancels in log k
        log_k = (ca + np.log(-np.expm1(-2.0 * ca))
                 - bc - np.log(-np.expm1(-2.0 * bc)))
        # cos A and cos B by the law of cosines
        ch_ab, ch_bc, ch_ca = np.cosh(ab), np.cosh(bc), np.cosh(ca)
        sh_ab = np.sinh(ab)
        cos_a = (ch_ca * ch_ab - ch_bc) / (np.sinh(ca) * sh_ab)
        cos_b = (ch_bc * ch_ab - ch_ca) / (np.sinh(bc) * sh_ab)
        log_k += np.where(cos_a < 0.0, 0.5 * np.log1p(-cos_a ** 2), 0.0)
        log_k -= np.where(cos_b < 0.0, 0.5 * np.log1p(-cos_b ** 2), 0.0)
        ad = 0.5 * (np.logaddexp(0.0, log_k + ab)
                    - np.logaddexp(0.0, log_k - ab))
        return np.clip(np.ceil(ad / ab * (n - 1)), 0, n)


def _nearer_prev(side, nxt, prev, idx):
    """At sample idx[i] of side i (clipped to the side): whether it is
    nearer the previous side than the next, and the cosh of its distance
    to the nearer one."""
    z = side.sample_at(np.clip(idx, 0, SAMPLES_PER_SIDE - 1))
    dp, dn = prev.cosh_dist(z)[:, 0], nxt.cosh_dist(z)[:, 0]
    return dp < dn, np.minimum(dn, dp)


def _bisect_crossings(side, nxt, prev):
    """The first sample of each side that is not nearer the previous side
    than the next, by bisection over the sample index: one sample per
    side and step."""
    n = SAMPLES_PER_SIDE
    first = np.zeros(len(side.p), dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        idx = first + step - 1
        nearer = _nearer_prev(side, nxt, prev, idx)[0]
        first += np.where(nearer & (idx < n), step, 0)
        step >>= 1
    return first


def _crossing_defects(side, nxt, prev, first):
    """cosh of the larger of the distances from samples first - 1 and
    first of each side to the nearer other side, and whether first is a
    crossing: the sample before it is nearer the previous side, and the
    sample itself is not."""
    n = SAMPLES_PER_SIDE
    before, d0 = _nearer_prev(side, nxt, prev, first - 1)
    at, d1 = _nearer_prev(side, nxt, prev, first)
    crossing = ((first == 0) | before) & ((first == n) | ~at)
    return np.maximum(d0, d1, out=d0), crossing


def triangle_thinness(a, b, c):
    """Slim-triangle defect of the triangles (a[i], b[i], c[i]): the max
    over sides of the max over sampled points on the side of the distance
    to the union of the other two sides.  Side points are sampled; the
    distance to each opposite side is exact.  arccosh is monotone, so the
    min and max run over cosh values and arccosh is taken once.

    Along a side from a to b, the distance to the next side [b, c] is
    convex (the distance to a convex set along a geodesic) and 0 at b, so
    it does not increase; the distance to the previous side [c, a] does
    not decrease.  Their min is unimodal: its max over the samples lies
    at the first sample where the previous side is at least as far as the
    next, or at the sample before.

    That first sample comes in closed form from the hyperbolic
    angle-bisector theorem: the point D of side ab equidistant from the
    lines ca and bc lies on the bisector from c, so sinh|aD| / sinh|Db|
    = sinh|ca| / sinh|bc|; at an obtuse angle the distance to that side
    is the distance to its vertex (_crossing_estimate).  The two
    candidate samples are evaluated exactly, and the same evaluations
    check the estimate: the sample before it must be nearer the previous
    side, and it must not.  Sides that fail the check, or whose estimate
    is undefined (a side of length 0), bisect for the crossing instead,
    one sample per side and step.  That is 4 distances on a side whose
    estimate checks and 18 on one that bisects, where bisecting every
    side took 14 and the max over all samples takes 48.  Rounding can
    fail the check on near-degenerate triangles: on seeded batches of
    random triangles 5 of 120000 sides bisect at radius 1e-3 and none at
    radius 1 to 20.
    """
    m, n = len(a), SAMPLES_PER_SIDE
    side = _SegmentChart(np.concatenate((a, b, c)), np.concatenate((b, c, a)))
    rows = np.arange(3 * m)
    nxt, prev = side.take(np.roll(rows, -m)), side.take(np.roll(rows, m))
    first = _crossing_estimate(side.length(), nxt.length(), prev.length(), n)
    known = np.isfinite(first)
    first = np.where(known, first, 0).astype(np.intp)
    best, crossing = _crossing_defects(side, nxt, prev, first)
    redo = np.flatnonzero(~(known & crossing))
    if len(redo):
        sub = side.take(redo), nxt.take(redo), prev.take(redo)
        best[redo] = _crossing_defects(*sub, _bisect_crossings(*sub))[0]
    defect = best.reshape(3, m).max(axis=0)
    return np.arccosh(defect, out=defect)


MC_BATCH = 4096  # triangles per vectorised batch
SAMPLES_PER_SIDE = 24  # sampled points per side in triangle_thinness
# Largest radius whose triangles the half-plane float arithmetic measures:
# at 20 the dense defects of a seeded batch stay under ln(1 + sqrt 2);
# from about 30 vertices come within 1e-13 of the real axis and defects
# far above that bound appear
MC_MAX_RADIUS = 20.0


def estimate_delta_mc(sample_count, radius, seed):
    """Monte-Carlo maximum slim-triangle defect over random triangles in
    B(i, radius).  Deterministic given the seed.  Raises ValueError for
    a sample_count that is not a finite whole number, or is below 1, and
    for a radius that is not finite and positive: a fraction would be
    cut silently, and a count or radius of 0 would certify delta = 0.
    A radius above MC_MAX_RADIUS also raises: its defects would be
    rounding error, not geometry."""
    if not float(sample_count).is_integer():
        raise ValueError(f"sample count {sample_count} is not a finite "
                         f"whole number")
    if not sample_count >= 1:
        raise ValueError(f"sample count {sample_count} is below 1")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius {radius} is not a finite positive number")
    if radius > MC_MAX_RADIUS:
        raise ValueError(f"radius {radius} is above MC_MAX_RADIUS = "
                         f"{MC_MAX_RADIUS}, where the half-plane float "
                         "arithmetic no longer measures the defect")
    rng = np.random.default_rng(seed)
    best = 0.0
    left = int(sample_count)
    while left > 0:
        m = min(MC_BATCH, left)
        pts = random_points(rng, 3 * m, radius)
        defect = triangle_thinness(pts[:m], pts[m:2 * m], pts[2 * m:])
        best = max(best, float(defect.max()))
        left -= m
    return best

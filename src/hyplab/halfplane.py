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


def dist(p, q):
    """Hyperbolic distance, cosh d = 1 + |p-q|^2 / (2 Im p Im q)."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    arg = 1.0 + np.abs(p - q) ** 2 / (2.0 * p.imag * q.imag)
    out = np.arccosh(np.maximum(arg, 1.0))
    return float(out) if out.ndim == 0 else out


def mobius_apply(m, z):
    """Apply a real Mobius matrix (a, b, c, d) to complex z (or inf)."""
    a, b, c, d = m
    if np.isscalar(z) or getattr(z, "ndim", 1) == 0:
        z = complex(z) if z != INF else INF
        if z == INF:
            return a / c if c != 0 else INF
        den = c * z + d
        if den == 0:
            return INF
        return (a * z + b) / den
    z = np.asarray(z, dtype=complex)
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


def mobius_to_infinity(xi):
    """A determinant-one real Mobius matrix sending boundary point xi to inf."""
    if xi == INF:
        return (1.0, 0.0, 0.0, 1.0)
    # z -> -1 / (z - xi)
    return (0.0, -1.0, 1.0, -float(xi))


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


def direction_to(p, q):
    """Initial Euclidean tangent angle at p of the geodesic from p to q."""
    p, q = complex(p), complex(q)
    u, v = geodesic_endpoints(p, q)
    return direction_toward(p, v)


def direction_toward(p, xi):
    """Initial tangent angle in [-pi, pi) at interior point p of the
    geodesic ray toward boundary point xi (real or inf).

    Broadcasts over arrays of p and xi; returns a float for scalar input.
    """
    scalar = np.ndim(p) == 0 and np.ndim(xi) == 0
    p = np.asarray(p, dtype=complex)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty(np.broadcast_shapes(p.shape, xi.shape))
    isinf = np.broadcast_to(np.isinf(xi), out.shape)
    out[isinf] = 0.5 * math.pi
    fin = ~isinf
    # a scalar p stays scalar: no full-length copy of one base point
    p, x = (np.broadcast_to(a, out.shape)[fin] if a.ndim else a
            for a in (p, xi))
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


class Geodesic:
    """Unit-speed geodesic in the half-plane, given by its ideal endpoints
    (u toward -inf-time, v toward +inf-time) and an anchor point at t=0.

    Internally parameterized through the standard chart sending the
    geodesic to the positive imaginary axis; `sign` flips when v is the
    smaller endpoint.  point(t) accepts scalars or arrays.
    """

    __slots__ = ("u", "v", "sign", "sigma0", "vertical", "x0")

    def __init__(self, u, v, anchor):
        if u == v:
            raise ValueError("coincident ideal endpoints")
        self.u, self.v = u, v
        self.vertical = u == INF or v == INF
        anchor = complex(anchor)
        if self.vertical:
            self.x0 = u if v == INF else v
            self.sign = 1.0 if v == INF else -1.0
            self.sigma0 = math.log(anchor.imag)
        else:
            self.x0 = None
            self.sign = 1.0 if v > u else -1.0
            self.sigma0 = math.log(self._chart(anchor))
        if abs(self._anchor_defect(anchor)) > 1e-6:
            raise ValueError("anchor does not lie on the geodesic")

    def _chart(self, z):
        """|w| for w = (z - lo)/(hi - z); log of it is the axis parameter."""
        lo, hi = min(self.u, self.v), max(self.u, self.v)
        return abs((z - lo) / (hi - z))

    def _anchor_defect(self, z):
        if self.vertical:
            return z.real - self.x0
        lo, hi = min(self.u, self.v), max(self.u, self.v)
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return abs(z - c) - r

    def point(self, t):
        t = np.asarray(t, dtype=float)
        sigma = self.sigma0 + self.sign * t
        if self.vertical:
            out = self.x0 + 1j * np.exp(sigma)
        else:
            lo, hi = min(self.u, self.v), max(self.u, self.v)
            w = 1j * np.exp(sigma)
            out = (hi * w + lo) / (w + 1.0)
        out = np.asarray(out)
        return complex(out) if out.ndim == 0 else out

    def time_of(self, z):
        """Parameter t of the foot of z on the geodesic (exact if z on it)."""
        z = complex(z)
        if self.vertical:
            sigma = math.log(z.imag)
        else:
            sigma = math.log(self._chart(z))
        return self.sign * (sigma - self.sigma0)

    def __repr__(self):
        return f"Geodesic(u={self.u}, v={self.v})"


def ray(p, xi):
    """Unit-speed ray with point(0)=p heading to boundary point xi; its
    backward endpoint is where the opposite tangent direction leads."""
    p = complex(p)
    return Geodesic(forward_endpoint(p, direction_toward(p, xi) + math.pi),
                    xi, p)


def line(xi, eta):
    """Unit-speed line from xi (t=-inf) to eta (t=+inf).  Its origin
    (t=0) is the top of the semicircle, (xi+eta)/2 + i|eta-xi|/2, or the
    point at height 1 on a vertical line."""
    if xi == eta:
        raise ValueError("coincident boundary points")
    if xi == INF or eta == INF:
        x = eta if xi == INF else xi
        anchor = x + 1j
    else:
        c, r = 0.5 * (xi + eta), 0.5 * abs(eta - xi)
        anchor = c + 1j * r
    return Geodesic(xi, eta, anchor)


def busemann(q, p, xi):
    """b_p(q, xi) = lim_t d(q, c(t)) - t along the ray from p to xi.

    Closed form: conjugate xi to infinity, then b = ln Im(p') - ln Im(q').
    """
    m = mobius_to_infinity(xi)
    pp = mobius_apply(m, complex(p))
    qq = mobius_apply(m, complex(q))
    return math.log(pp.imag) - math.log(qq.imag)


def busemann_numeric(q, p, xi, horizon=30.0):
    """Oracle route: evaluate d(q, ray(t)) - t at large t, with the
    convergence gap between the last two probes reported."""
    r = ray(complex(p), xi)
    t1, t2 = horizon - 1.0, horizon
    v1 = dist(q, r.point(t1)) - t1
    v2 = dist(q, r.point(t2)) - t2
    return v2, abs(v2 - v1)


def gromov_beta(p, xi, eta):
    """beta_p(xi, eta) = -(b_p(q, xi) + b_p(q, eta)) for q on the line."""
    q = line(xi, eta).point(0.0)
    return -(busemann(q, p, xi) + busemann(q, p, eta))


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
    t0 = direction_to(x, p)
    return (forward_endpoint(x, t0 - theta), forward_endpoint(x, t0 + theta))


def point_at(p, theta, r):
    """Point at hyperbolic distance r from p in tangent direction theta."""
    g = ray(complex(p), forward_endpoint(p, theta))
    return g.point(float(r))


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


class _SegmentChart:
    """The chart of the geodesic segments p[i] -> q[i] (arrays of shape
    (m, 1)) onto the imaginary axis: w = (z - lo)/(hi - z) with lo < hi
    the ideal endpoints, or w = z - Re p on a vertical line.  w is purely
    imaginary on the geodesic and log|w| is arclength along it; sp and sq
    are that arclength at p and q.

    The one home of the segment chart: sampling a side and measuring the
    distance to it both read the endpoints built here once.
    """

    __slots__ = ("p", "q", "lo", "hi", "vert", "x0", "sp", "sq")

    def __init__(self, p, q):
        self.p, self.q = p, q
        u, v = geodesic_endpoints(p, q)
        vert = np.isinf(u) | np.isinf(v)
        # a vertical line gets the finite stand-in (-1, 1), so no inf
        # reaches the circle chart whose values the vertical patch replaces
        self.lo = np.where(vert, -1.0, np.minimum(u, v))
        self.hi = np.where(vert, 1.0, np.maximum(u, v))
        self.vert = vert if vert.any() else None
        self.x0 = p.real
        self.sp = np.log(np.abs(self.to_w(p)))
        self.sq = np.log(np.abs(self.to_w(q)))

    def to_w(self, z):
        w = z - self.lo
        w /= self.hi - z
        if self.vert is None:
            return w
        return np.where(self.vert, z - self.x0, w)

    def from_w(self, w):
        z = self.hi * w
        z += self.lo
        z /= w + 1.0
        if self.vert is None:
            return z
        return np.where(self.vert, self.x0 + w, z)

    def sample(self, n):
        """n points evenly spaced in arclength from p to q, shape (m, n)."""
        frac = np.linspace(0.0, 1.0, n)
        s = self.sp * (1 - frac) + self.sq * frac
        return self.from_w(1j * np.exp(s, out=s))

    def dist(self, z):
        """Distance from z (shape (m, n)) to the segments: the closed-form
        foot-of-perpendicular distance, clamped to the nearer endpoint
        where the foot falls outside the segment."""
        w = self.to_w(z)
        aw = np.abs(w)
        out = aw / w.imag
        np.arccosh(np.maximum(out, 1.0, out=out), out=out)
        sig = np.log(aw, out=aw)
        outside = ~((sig >= np.minimum(self.sp, self.sq))
                    & (sig <= np.maximum(self.sp, self.sq)))
        if outside.any():
            zo = z[outside]
            p = np.broadcast_to(self.p, z.shape)[outside]
            q = np.broadcast_to(self.q, z.shape)[outside]
            out[outside] = np.minimum(dist(zo, p), dist(zo, q))
        return out


def _segments(p, q):
    return _SegmentChart(np.asarray(p, dtype=complex)[:, None],
                      np.asarray(q, dtype=complex)[:, None])


def geodesic_sample(p, q, n):
    """n points evenly spaced (in arclength) along each segment p[i]->q[i].

    p, q: complex arrays of shape (m,).  Returns an (m, n) complex array.
    """
    return _segments(p, q).sample(n)


def dist_to_segment(z, p, q):
    """Distance from points z (shape (m, n)) to the geodesic segments
    p[i] -> q[i] (shape (m,)): closed-form foot-of-perpendicular distance,
    clamped to the nearer endpoint when the foot falls outside."""
    return _segments(p, q).dist(np.asarray(z, dtype=complex))


def triangle_thinness(a, b, c, samples_per_side=24):
    """Slim-triangle defect of the triangles (a[i], b[i], c[i]): the max
    over sides of the max over sampled points on the side of the distance
    to the union of the other two sides.  Side points are sampled; the
    distance to each opposite side is exact."""
    sides = [_segments(a, b), _segments(b, c), _segments(c, a)]
    defect = np.zeros(len(sides[0].p))
    for k, side in enumerate(sides):
        pts = side.sample(samples_per_side)
        dmin = np.minimum(sides[(k + 1) % 3].dist(pts),
                          sides[(k + 2) % 3].dist(pts))
        defect = np.maximum(defect, dmin.max(axis=1))
    return defect


def estimate_delta_mc(sample_count, radius, seed, samples_per_side=24,
                      batch=4096):
    """Monte-Carlo maximum slim-triangle defect over random triangles in
    B(i, radius).  Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    best = 0.0
    left = int(sample_count)
    while left > 0:
        m = min(batch, left)
        pts = random_points(rng, 3 * m, radius)
        defect = triangle_thinness(pts[:m], pts[m:2 * m], pts[2 * m:],
                                   samples_per_side)
        best = max(best, float(defect.max()))
        left -= m
    return best

"""Single-qubit synthesis in closed form: the best loop, and the shortest exact pair.

In the cone cosine c = cos(theta) in (-1, 0) of the (w/D, phi) coordinates,
c = -sqrt(1 - D/w), the loop gate is G = -exp(i pi c n.sigma) with axis
n = (s cos phi, s sin phi, c), s = sqrt(1 - c^2): the SU(2) scalars
(-cos(pi c), -sin(pi c) n) (`propagation._cone_loop`; `_compose` multiplies
them). A target U (an SU(2) quaternion, up to sign) is
G2 G1 exactly when G2 = +-U G1^dag is a loop gate. Its scalar part w fixes
c2 = -acos(-w)/pi, and its axis must lie on that cone, n2z = c2:

    h(c1, phi1) = v_z + sqrt(1 - w^2) acos(-w) / pi = 0,

with phi2 = atan2(v_y, v_x). The exact pairs form the curve h = 0, and the
shortest gate, 2 pi (2 - c1^2 - c2^2), is its point of largest
c1^2 + c2^2 inside the bounds: a maximum along the curve, or a point where
the curve meets a bound of either loop. A single loop is `best_loop`.
"""
from __future__ import annotations

import math

import numpy as np

from .model import TWO_PI
from .propagation import _compose, _cone_loop, _trace_coefficients


#: Samples per axis of the grid over the first loop's (cone cosine, azimuth)
#: on which the curve is found, and of the cone cosines of a single loop.
_GRID = 48


class _Arrays:
    """numpy under the names of `math`, so one formula serves a grid and a point."""

    cos, sin, sqrt, acos = np.cos, np.sin, np.sqrt, np.arccos
    clip = staticmethod(lambda w: np.clip(w, -1.0, 1.0))


class _Floats:
    sqrt, acos = math.sqrt, math.acos
    clip = staticmethod(lambda w: min(1.0, max(-1.0, w)))


def _partner(q, g, first: bool):
    """The other loop of a pair whose product G2 G1 is q: q g^dag when g is
    the first loop, g^dag q when it is the second."""
    inverse = (g[0], -g[1], -g[2], -g[3])
    return _compose(q, inverse) if first else _compose(inverse, q)


def _loop_mismatch(g, m=_Floats):
    """h: zero exactly when the quaternion g is a loop gate."""
    w = m.clip(g[0])
    return g[3] + m.sqrt(1.0 - w * w) * m.acos(-w) / math.pi


def _cone_of(g, m=_Floats):
    """Cone cosine of the loop gate g."""
    return -m.acos(-m.clip(g[0])) / math.pi


def _su2_quaternion(target: np.ndarray) -> tuple[float, float, float, float]:
    """(w, vx, vy, vz) of the target, up to its global phase and sign: the
    trace coefficients are that real unit vector times one complex factor."""
    coeffs = np.array(_trace_coefficients(target))
    k = int(np.argmax(np.abs(coeffs)))
    q = (coeffs * np.conj(coeffs[k])).real
    return tuple((q / np.linalg.norm(q)).tolist())


def _bracket_root(fun, a: float, b: float, fa: float, fb: float) -> float:
    """Root of fun on [a, b] with fa fb <= 0, by regula falsi with the
    Illinois step, to the last bit."""
    side = 0
    for _ in range(100):
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        x = (a * fb - b * fa) / (fb - fa)
        fx = fun(x)
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
            if side < 0:
                fa *= 0.5
            side = -1
        else:
            a, fa = x, fx
            if side > 0:
                fb *= 0.5
            side = 1
        if abs(b - a) <= 2.0 * math.ulp(x):
            break
    return a if abs(fa) <= abs(fb) else b


def _peak(fun, d: float):
    """A local maximum of fun(t)[0] near t = 0, by parabolic steps on a
    bracket of spacing d. fun returns (value, *point), or None where it has
    no point. Returns (t, value, point), or None when no bracket forms
    within two steps uphill."""
    def at(t):
        r = fun(t)
        return (t, -math.inf, None) if r is None else (t, r[0], r[1:])

    mid = at(0.0)
    if mid[2] is None:
        return None
    lo, hi = at(-d), at(d)
    for _ in range(8):  # where the curve turns away from its tangent, come closer
        if lo[2] is None:
            lo = at(0.5 * lo[0])
        if hi[2] is None:
            hi = at(0.5 * hi[0])
    for _ in range(2):
        if lo[1] > mid[1] and lo[1] >= hi[1]:
            lo, mid, hi = at(2.0 * lo[0] - mid[0]), lo, mid
        elif hi[1] > mid[1]:
            lo, mid, hi = mid, hi, at(2.0 * hi[0] - mid[0])
        else:
            break
    if not mid[1] >= max(lo[1], hi[1]):
        return None
    for _ in range(16):
        (a, fa, _), (b, fb, _), (c, fc, _) = lo, mid, hi
        if not (math.isfinite(fa) and math.isfinite(fc)):
            break
        p, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
        if p == q:
            break
        u = b - ((b - a) * p - (b - c) * q) / (2.0 * (p - q))
        gain = ((fb - fa) / (b - a) - (fc - fb) / (c - b)) / (c - a) * (u - b) ** 2
        if not a < u < c or u == b or gain <= 4e-16:
            break
        new = at(u)
        if new[1] >= fb:
            lo, mid, hi = (lo, new, mid) if u < b else (mid, new, hi)
        elif u < b:
            lo = new
        else:
            hi = new
    return mid[0], mid[1], mid[2]


def _box(ratio, azimuth) -> tuple[float, float, float, float]:
    """(c_lo, c_hi, phi_lo, phi_hi) of one loop's bounds on (w/D, phi)."""
    (rlo, rhi), (plo, phi) = ratio, azimuth
    # not -sqrt((r - 1) / r), though that has no cancellation: ties between
    # exact pairs of equal gate length fall to rounding, and that 3e-14
    # shift of the lower bound alone changes about half of all picks
    return -math.sqrt(1.0 - 1.0 / rhi), -math.sqrt(1.0 - 1.0 / rlo), plo, phi


class _TwoLoops:
    """The exact two-loop pair of shortest gate inside the bounds."""

    def __init__(self, target: np.ndarray, bounds):
        self.q = _su2_quaternion(target)
        self.bounds = bounds
        self.boxes = (_box(*bounds[0:2]), _box(*bounds[2:4]))

    def best(self) -> list[float] | None:
        """Reduced coordinates (w/D, phi) of both loops, or None when no
        exact pair lies inside the bounds."""
        top = None
        for sign in (1.0, -1.0):
            q = tuple(sign * v for v in self.q)
            for pair in (*self._scan(q), *self._edges(q, 0), *self._edges(q, 1)):
                if pair is not None and (top is None or pair[0] > top[0]):
                    top = pair
        if top is None:
            return None
        x = [v for c, phi in top[1] for v in (1.0 / (1.0 - c * c), phi)]
        return [min(max(v, lo), hi) for v, (lo, hi) in zip(x, self.bounds)]

    def _grid(self, k: int):
        clo, chi, plo, phi = self.boxes[k]
        n = _GRID
        periodic = phi - plo >= TWO_PI
        ps = plo + np.arange(n) * (TWO_PI / n) if periodic else np.linspace(plo, phi, n)
        return np.linspace(clo, chi, n), ps, periodic

    def _mismatch(self, q, k: int):
        """h at loop k's (c, phi), and nan off the cone cosines' range."""
        def h(c, phi):
            if not -1.0 < c < 1.0:
                return math.nan
            return _loop_mismatch(_partner(q, _cone_loop(c, phi), k == 0))

        return h

    def _loops(self, q, k: int, c: float, phi: float):
        """((c1, phi1), (c2, phi2)): loop k at (c, phi) and its partner."""
        g = _partner(q, _cone_loop(c, phi), k == 0)
        loops = ((c, phi), (_cone_of(g), math.atan2(g[2], g[1])))
        return loops if k == 0 else loops[::-1]

    def _slack(self, loops) -> float:
        """The least margin by which the loops keep their bounds, negative
        outside; an azimuth counts by its angle to its window."""
        out = math.inf
        for (c, phi), (clo, chi, plo, phi_hi) in zip(loops, self.boxes):
            out = min(out, c - clo, chi - c)
            if phi_hi - plo < TWO_PI:
                half = 0.5 * (phi_hi - plo)
                out = min(out, half - abs((phi - plo - half + math.pi) % TWO_PI - math.pi))
        return out

    def _pair(self, q, k: int, c: float, phi: float):
        """(c1^2 + c2^2, ((c1, phi1), (c2, phi2))) of loop k at (c, phi) and
        its partner, moved into the bounds they keep to rounding, or None
        when a loop leaves its bounds."""
        loops = self._loops(q, k, c, phi)
        if not self._slack(loops) >= -1e-13:
            return None
        out = []
        for (c, phi), (clo, chi, plo, phi_hi) in zip(loops, self.boxes):
            phi = plo + (phi - plo) % TWO_PI
            if phi > phi_hi:  # within rounding of an end of the window
                phi = phi_hi if phi - phi_hi < plo + TWO_PI - phi else plo
            out.append((min(max(c, clo), chi), phi))
        (c1, _), (c2, _) = out
        return c1 * c1 + c2 * c2, out

    def _edges(self, q, k: int):
        """The pairs where the curve meets loop k's cone bounds (found along
        the azimuth) and, unless they span the circle, its azimuth bounds."""
        cs, ps, periodic = self._grid(k)
        h = self._mismatch(q, k)
        ends = [0, -1]
        rows = _loop_mismatch(_partner(q, _cone_loop(cs[ends, None], ps, _Arrays), k == 0),
                              _Arrays)
        if periodic:  # close the circle
            ps = np.append(ps, ps[0] + TWO_PI)
            rows = np.hstack([rows, rows[:, :1]])
        ps_ = ps.tolist()
        for c, row in zip(cs[ends].tolist(), rows.tolist()):
            for j in range(len(row) - 1):
                if row[j] * row[j + 1] <= 0.0:
                    phi = _bracket_root(lambda p: h(c, p), ps_[j], ps_[j + 1], row[j], row[j + 1])
                    yield self._pair(q, k, c, phi)
        if periodic:
            return
        cols = _loop_mismatch(_partner(q, _cone_loop(cs, ps[ends, None], _Arrays), k == 0),
                              _Arrays)
        cs_ = cs.tolist()
        for phi, col in zip(ps[ends].tolist(), cols.tolist()):
            for i in range(len(col) - 1):
                if col[i] * col[i + 1] <= 0.0:
                    c = _bracket_root(lambda c: h(c, phi), cs_[i], cs_[i + 1], col[i], col[i + 1])
                    yield self._pair(q, k, c, phi)

    def _scan(self, q):
        """The pairs at the local maxima of c1^2 + c2^2 along the curve. The
        curve's crossings of the first loop's grid edges are sampled, two of
        them neighbours when they border one grid cell, and each crossing
        that no neighbour beats is followed along the curve to its maximum."""
        cs, ps, periodic = self._grid(0)
        n = len(cs)
        dp = float(ps[1] - ps[0])
        grid = _loop_mismatch(_partner(q, _cone_loop(cs, ps[:, None], _Arrays), True), _Arrays)
        closed = np.vstack([grid, grid[:1]]) if periodic else grid
        # crossings along c (row j, between columns i and i + 1) and along
        # the azimuth (column i, between rows j and j + 1)
        jc, ic = np.nonzero(grid[:, :-1] * grid[:, 1:] <= 0.0)
        jp, ip = np.nonzero(closed[:-1] * closed[1:] <= 0.0)
        if not len(jc) + len(jp):
            return
        a, b = grid[jc, ic], grid[jc, ic + 1]
        ta = a / np.where(a == b, 1.0, a - b)
        a, b = closed[jp, ip], closed[jp + 1, ip]
        tp = a / np.where(a == b, 1.0, a - b)
        c = np.concatenate([cs[ic] + ta * (cs[ic + 1] - cs[ic]), cs[ip]])
        p = np.concatenate([ps[jc], ps[jp] + tp * dp])
        g = _partner(q, _cone_loop(c, p, _Arrays), True)
        c2 = _cone_of(g, _Arrays)
        clo, chi, plo, phi_hi = self.boxes[1]
        p2 = plo + np.mod(np.arctan2(g[2], g[1]) - plo, TWO_PI)
        f = np.where((c2 >= clo) & (c2 <= chi) & (p2 <= phi_hi), c * c + c2 * c2, -1.0)
        # the grid cells each crossing borders, as row * (n - 1) + column,
        # -1 outside the grid; a crossing along c borders the cells of rows
        # j - 1 and j, one along the azimuth those of columns i - 1 and i
        rows = n if periodic else n - 1
        row = np.stack([np.concatenate([jc - 1, jp]), np.concatenate([jc, jp])])
        col = np.stack([np.concatenate([ic, ip - 1]), np.concatenate([ic, ip])])
        if periodic:
            row %= n
        cells = np.where((row >= 0) & (row < rows) & (col >= 0) & (col < n - 1),
                         row * (n - 1) + col, -1)
        # rank by c1^2 + c2^2 (ties to 1e-12 broken by order), and keep the
        # feasible crossings that rank first in every cell they border
        m = len(f)
        rank = np.empty(m, dtype=int)
        rank[np.lexsort((np.arange(m), -np.round(f, 12)))] = np.arange(m)
        ok = f >= 0.0
        first = np.full(rows * (n - 1) + 1, m)  # the last slot collects "outside"
        np.minimum.at(first, cells[:, ok].ravel(), np.tile(rank[ok], 2))
        peaks = np.flatnonzero(ok & np.all((cells < 0) | (first[cells] == rank), axis=0))
        h = self._mismatch(q, 0)
        d = math.hypot(float(cs[1] - cs[0]), dp)
        for k in peaks.tolist():
            if k < len(jc):
                j, i = int(jc[k]), int(ic[k])
                phi = float(ps[j])
                c0 = _bracket_root(lambda x: h(x, phi), float(cs[i]), float(cs[i + 1]),
                                   float(grid[j, i]), float(grid[j, i + 1]))
            else:
                j, i = int(jp[k - len(jc)]), int(ip[k - len(jc)])
                c0 = float(cs[i])
                phi = _bracket_root(lambda x: h(c0, x), float(ps[j]), float(ps[j]) + dp,
                                    float(closed[j, i]), float(closed[j + 1, i]))
            yield self._pair(q, 0, c0, phi)
            for point in self._follow(q, h, c0, phi, d):
                yield self._pair(q, 0, *point)

    def _follow(self, q, h, c0: float, p0: float, d: float):
        """The local maximum of c1^2 + c2^2 along the curve from its point
        (c0, p0). The search restarts from each maximum found, on the
        tangent there, so it follows the curve round a tight turn. A maximum
        outside the bounds gives the point where the curve leaves them on
        the way there, and the highest point inside before it."""
        point, value = (c0, p0), -math.inf
        for _ in range(8):
            curve = self._curve(q, h, *point)
            top = None if curve is None else _peak(curve, 0.5 * d)
            if top is None:
                break
            t, top_value, top_point = top
            if self._slack(self._loops(q, 0, *top_point)) < 0.0:
                yield from self._exit(q, curve, t)
                return
            if not top_value > value + 4e-16:
                break
            point, value = top_point, top_value
        if value > -math.inf:
            yield point

    def _exit(self, q, curve, t: float):
        """Where the curve leaves the bounds between its points 0 and t, and
        the highest point inside before it."""
        def inside(t):
            r = curve(t)
            return r if r is not None and self._slack(self._loops(q, 0, *r[1:])) >= 0.0 else None

        def slack(t):
            r = curve(t)
            return -1.0 if r is None else self._slack(self._loops(q, 0, *r[1:]))

        start, end = slack(0.0), slack(t)
        if not start >= 0.0 > end:
            return
        r = curve(_bracket_root(slack, 0.0, t, start, end))
        if r is not None:
            yield r[1:]
        top = _peak(inside, 0.25 * abs(t))
        if top is not None:
            yield top[2]

    @staticmethod
    def _curve(q, h, c0: float, p0: float):
        """t -> (c1^2 + c2^2, c1, phi1) at the curve's point off its tangent
        line through (c0, p0) at distance t, found by secant steps along the
        normal; None where there is none."""
        e = 1e-7
        hc = (h(c0 + e, p0) - h(c0 - e, p0)) / (2.0 * e)
        hp = (h(c0, p0 + e) - h(c0, p0 - e)) / (2.0 * e)
        norm = math.hypot(hc, hp)
        if not norm > 0.0:
            return None
        uc, up = hc / norm, hp / norm

        def on_curve(t):
            c, p = c0 - t * up, p0 + t * uc
            s, prev = 0.0, None
            for _ in range(12):
                if not -1.0 < c + s * uc < 0.0:
                    return None
                fs = h(c + s * uc, p + s * up)
                if abs(fs) <= 1e-15 or (prev is not None and fs == prev[1]):
                    break
                step = fs / norm if prev is None else fs * (s - prev[0]) / (fs - prev[1])
                prev = (s, fs)
                s -= step
            else:
                s, fs = prev
            if not abs(fs) <= 1e-13:
                return None
            c, p = c + s * uc, p + s * up
            c2 = _cone_of(_partner(q, _cone_loop(c, p), True))
            return c * c + c2 * c2, c, p

        return on_curve


def shortest_pair(target: np.ndarray, bounds) -> list[float] | None:
    """Reduced coordinates (w/D, phi) of both loops of the exact pair of
    shortest gate for the single-qubit target inside the four bounds
    ((ratio), (phi)) * 2, or None when no exact pair lies inside them."""
    return _TwoLoops(target, bounds).best()


def best_loop(target: np.ndarray, bounds) -> list[float]:
    """Reduced coordinates (w/D, phi) of the loop of highest fidelity to the
    single-qubit target inside the two bounds ((ratio), (phi)).

    The loop g at (c, phi) has fidelity |q . g| = |A + B cos(phi - phi_q)|,
    A = -q0 cos(pi |c|) + q3 c sin(pi |c|), B = sqrt(1 - c^2) sin(pi |c|)
    |(q1, q2)| >= 0, phi_q the azimuth of (q1, q2). So the best azimuth is
    phi_q or phi_q + pi where the window holds it, else a window end. Along
    each, the local maxima of `_GRID` samples in c are polished by `_peak`.
    """
    q = _su2_quaternion(target)
    clo, chi, plo, phi = _box(*bounds)
    azimuths = [plo + (math.atan2(q[2], q[1]) + turn - plo) % TWO_PI for turn in (0, math.pi)]
    if phi - plo < TWO_PI:
        azimuths = [p for p in azimuths if p <= phi] + [plo, phi]

    def fidelity(c, p, m=math):
        return abs(sum(a * g for a, g in zip(q, _cone_loop(c, p, m))))

    cs = np.linspace(clo, chi, _GRID)
    top = None
    for p in azimuths:
        f = np.concatenate([[-np.inf], fidelity(cs, p, _Arrays), [-np.inf]])
        for i in np.flatnonzero((f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:])).tolist():
            c0 = float(cs[i])
            along = lambda t: (fidelity(c0 + t, p), c0 + t) if clo <= c0 + t <= chi else None
            _, value, (c,) = _peak(along, float(cs[1] - cs[0])) or (0.0, float(f[i + 1]), (c0,))
            if top is None or value > top[0]:
                top = value, c, p
    _, c, p = top
    return [min(max(v, lo), hi) for v, (lo, hi) in zip((1.0 / (1.0 - c * c), p), bounds)]

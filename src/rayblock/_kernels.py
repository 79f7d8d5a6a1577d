"""Numeric kernels: scalar loss-model helpers and batch geometry.

The scalar kernels (the Fresnel series, the knife-edge loss, the
point-segment distance) run once per evaluation and are written so numba
can compile them; when numba is missing, or when the environment variable
``RAYBLOCK_NO_NUMBA=1`` is set, they run as plain Python and
``fresnel_cs_batch`` switches to its vectorized numpy twin.

The batch geometry kernels work row by row on the candidate table of a
chunk (see ``obstacles``): one row per (segment, obstacle pose) candidate,
(n, 3) arrays in, (n,) arrays out. They are plain numpy with no compiled
twin, and sum vector components x + y + z in the scalar order.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "fresnel_cs",
    "fresnel_cs_batch",
    "point_segment_distance",
    "dot3",
    "point_segment_distance_batch",
    "line_segment_distance_batch",
    "segment_segment_distance_batch",
    "fermat_on_segment_batch",
    "knife_edge_loss_db",
]


def _numba_requested() -> bool:
    return os.environ.get("RAYBLOCK_NO_NUMBA", "").strip().lower() not in {"1", "true", "yes"}


USING_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:
        pass

if not USING_NUMBA:

    def njit(*args, **kwargs):  # no-op decorator when running pure Python
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


# Series coefficients for the closed-form complex Fresnel integral
# (Boersma's method, the computational recipe given in ITU-R P.526-15).
# For x = pi*nu^2/2 < 4:  F = exp(jx) * sqrt(x/4) * sum (a_n - j b_n) (x/4)^n
# For x >= 4:             F = (1+j)/2 + exp(jx) * sqrt(4/x) * sum (c_n - j d_n) (4/x)^n
_FA = np.array([
    +1.595769140, -0.000001702, -6.808568854, -0.000576361,
    +6.920691902, -0.016898657, -3.050485660, -0.075752419,
    +0.850663781, -0.025639041, -0.150230960, +0.034404779,
])
_FB = np.array([
    -0.000000033, +4.255387524, -0.000092810, -7.780020400,
    -0.009520895, +5.075161298, -0.138341947, -1.363729124,
    -0.403349276, +0.702222016, -0.216195929, +0.019547031,
])
_FC = np.array([
    +0.000000000, -0.024933975, +0.000003936, +0.005770956,
    +0.000689892, -0.009497136, +0.011948809, -0.006748873,
    +0.000246420, +0.002102967, -0.001217930, +0.000233939,
])
_FD = np.array([
    +0.199471140, +0.000000023, -0.009351341, +0.000023006,
    +0.004851466, +0.001903218, -0.017122914, +0.029064067,
    -0.027928955, +0.016497308, -0.005598515, +0.000838386,
])


@njit(cache=True)
def fresnel_cs(nu):
    """Closed-form C(nu), S(nu) of the complex Fresnel integral.

    Accurate to a few 1e-9 over the real line; odd in nu by construction.
    """
    sign = 1.0
    a = nu
    if a < 0.0:
        sign = -1.0
        a = -a
    x = 0.5 * math.pi * a * a
    if x < 4.0:
        t = x / 4.0
        sa = 0.0
        sb = 0.0
        tn = 1.0
        for n in range(12):
            sa += _FA[n] * tn
            sb += _FB[n] * tn
            tn *= t
        root = math.sqrt(t)
        cx = math.cos(x)
        sx = math.sin(x)
        # exp(jx) * (sa - j sb) * sqrt(t)
        c = root * (cx * sa + sx * sb)
        s = root * (sx * sa - cx * sb)
    else:
        t = 4.0 / x
        sc = 0.0
        sd = 0.0
        tn = 1.0
        for n in range(12):
            sc += _FC[n] * tn
            sd += _FD[n] * tn
            tn *= t
        root = math.sqrt(t)
        cx = math.cos(x)
        sx = math.sin(x)
        c = 0.5 + root * (cx * sc + sx * sd)
        s = 0.5 + root * (sx * sc - cx * sd)
    return sign * c, sign * s


@njit(cache=True)
def _fresnel_cs_batch_loop(nus, out_c, out_s):
    for i in range(nus.shape[0]):
        c, s = fresnel_cs(nus[i])
        out_c[i] = c
        out_s[i] = s


def _fresnel_cs_batch_numpy(nus):
    """Vectorized numpy twin of the scalar series evaluation."""
    nus = np.asarray(nus, dtype=np.float64)
    a = np.abs(nus)
    sign = np.where(nus < 0.0, -1.0, 1.0)
    x = 0.5 * np.pi * a * a
    small = x < 4.0

    c = np.empty_like(a)
    s = np.empty_like(a)

    t = np.where(small, x / 4.0, np.divide(4.0, x, out=np.ones_like(x), where=x > 0))
    root = np.sqrt(t)
    cx = np.cos(x)
    sx = np.sin(x)

    # Horner evaluation of both regimes; masks select afterwards.
    sa = np.zeros_like(t)
    sb = np.zeros_like(t)
    sc = np.zeros_like(t)
    sd = np.zeros_like(t)
    for n in range(11, -1, -1):
        sa = sa * t + _FA[n]
        sb = sb * t + _FB[n]
        sc = sc * t + _FC[n]
        sd = sd * t + _FD[n]

    c_small = root * (cx * sa + sx * sb)
    s_small = root * (sx * sa - cx * sb)
    c_large = 0.5 + root * (cx * sc + sx * sd)
    s_large = 0.5 + root * (sx * sc - cx * sd)

    c = np.where(small, c_small, c_large)
    s = np.where(small, s_small, s_large)
    return sign * c, sign * s


def fresnel_cs_batch(nus):
    """C, S arrays for an array of diffraction parameters."""
    if USING_NUMBA:
        nus = np.ascontiguousarray(nus, dtype=np.float64)
        out_c = np.empty(nus.shape[0])
        out_s = np.empty(nus.shape[0])
        _fresnel_cs_batch_loop(nus, out_c, out_s)
        return out_c, out_s
    return _fresnel_cs_batch_numpy(nus)


@njit(cache=True)
def point_segment_distance(px, py, pz, ax, ay, az, bx, by, bz):
    """Distance from a point to a segment plus the parametric foot t in [0, 1]."""
    ex = bx - ax
    ey = by - ay
    ez = bz - az
    ee = ex * ex + ey * ey + ez * ez
    if ee <= 0.0:
        dx = px - ax
        dy = py - ay
        dz = pz - az
        return math.sqrt(dx * dx + dy * dy + dz * dz), 0.0
    t = ((px - ax) * ex + (py - ay) * ey + (pz - az) * ez) / ee
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    dz = pz - (az + t * ez)
    return math.sqrt(dx * dx + dy * dy + dz * dz), t


def dot3(a, b):
    """Row-wise dot product of (..., 3) arrays, summed x + y + z like the
    scalar kernels so both give the same bits."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def point_segment_distance_batch(points, starts, ends):
    """Distances from points (one (3,) point or one per row) to segments, shape (n,)."""
    e = ends - starts
    ee = dot3(e, e)
    t = np.clip(dot3(points - starts, e) / np.where(ee > 0.0, ee, 1.0), 0.0, 1.0)
    r = points - (starts + t[:, np.newaxis] * e)
    return np.sqrt(dot3(r, r))


def line_segment_distance_batch(p, d, a, b):
    """Distances between infinite lines (p + t d) and segments [a, b], row by row."""
    e = b - a
    w = a - p
    dd = dot3(d, d)
    de = dot3(d, e)
    ee = dot3(e, e)
    denom = dd * ee - de * de
    skew = denom > 1e-14 * dd * np.maximum(ee, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((de * dot3(d, w) - dd * dot3(e, w)) / denom, 0.0, 1.0)
    # parallel: any point of the segment is equidistant in the free direction
    s = np.where(skew, s, 0.0)
    q = a + s[:, np.newaxis] * e
    t = dot3(q - p, d) / dd
    r = q - (p + t[:, np.newaxis] * d)
    return np.sqrt(dot3(r, r))


def segment_segment_distance_batch(a, b, c, d):
    """Exact distances between segments [a, b] and [c, d], row by row.

    Standard clamped closed form (minimize the quadratic over the unit
    square, walking the active boundary). Exactness matters: the value is
    used as a provably-safe far rejection.
    """
    u = b - a
    v = d - c
    w = a - c
    big_a = dot3(u, u)
    big_b = dot3(u, v)
    big_c = dot3(v, v)
    big_d = dot3(u, w)
    big_e = dot3(v, w)
    denom = big_a * big_c - big_b * big_b

    # interior minimum, clamped to s in [0, 1]; (nearly) parallel: s = 0
    skew = denom > 1e-12 * np.maximum(big_a, 1e-30) * np.maximum(big_c, 1e-30)
    s_n = np.where(skew, big_b * big_e - big_c * big_d, 0.0)
    s_d = np.where(skew, denom, 1.0)
    t_n = np.where(skew, big_a * big_e - big_b * big_d, big_e)
    t_d = np.where(skew, denom, big_c)
    s_low = skew & (s_n < 0.0)
    s_high = skew & ~s_low & (s_n > s_d)
    s_n = np.where(s_low, 0.0, np.where(s_high, s_d, s_n))
    t_n = np.where(s_low, big_e, np.where(s_high, big_e + big_b, t_n))
    t_d = np.where(s_low | s_high, big_c, t_d)

    # t clamped to [0, 1] moves s to its best value on that boundary
    t_low = t_n < 0.0
    t_high = ~t_low & (t_n > t_d)
    t_n = np.where(t_low, 0.0, np.where(t_high, t_d, t_n))
    num = np.where(t_low, -big_d, -big_d + big_b)
    inside = ~(num < 0.0) & ~(num > big_a)
    s_edge = np.where(num < 0.0, 0.0, np.where(num > big_a, s_d, num))
    boundary = t_low | t_high
    s_n = np.where(boundary, s_edge, s_n)
    s_d = np.where(boundary & inside, big_a, s_d)

    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(np.abs(s_d) > 1e-30, s_n / s_d, 0.0)
        t = np.where(np.abs(t_d) > 1e-30, t_n / t_d, 0.0)
    g = w + s[:, np.newaxis] * u - t[:, np.newaxis] * v
    return np.sqrt(dot3(g, g))


def fermat_on_segment_batch(a, b, tx, rx):
    """Points of segments [a, b] (positive length) minimizing
    transmitter->point->receiver length, row by row.

    Exact closed form: unfolding both nodes into one plane around the edge
    line turns the shortest path into a straight line, which meets the
    edge line at the nodes' projections weighted by the other node's
    perpendicular distance. The path length is convex along the line, so
    clamping that point to the segment gives the constrained minimum.
    Returns (d_tx, d_rx) arrays at the minimizers.
    """
    e = b - a
    length = np.sqrt(dot3(e, e))
    u = e / length[:, np.newaxis]
    # along-edge coordinates of the nodes and their distances from the line,
    # the latter as norms of the rejection (no cancellation near the line)
    st = dot3(tx - a, u)
    sr = dot3(rx - a, u)
    pt = tx - a - st[:, np.newaxis] * u
    pr = rx - a - sr[:, np.newaxis] * u
    rt = np.sqrt(dot3(pt, pt))
    rr = np.sqrt(dot3(pr, pr))
    both = rt + rr
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(both == 0.0, 0.5 * (st + sr), (st * rr + sr * rt) / both)
    s = np.minimum(np.maximum(s, 0.0), length)
    return np.hypot(s - st, rt), np.hypot(s - sr, rr)


@njit(cache=True)
def knife_edge_loss_db(nu):
    """Semi-empirical single knife-edge loss in dB (0 below the lit bound)."""
    if nu <= -0.78:
        return 0.0
    return 6.9 + 20.0 * math.log10(math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)

"""Numeric kernels for the hot inner loops.

Everything here is written so numba can compile it. When numba is missing,
or when the environment variable ``RAYBLOCK_NO_NUMBA=1`` is set, the same
scalar functions run as plain Python and the batch helpers switch to
vectorized numpy implementations. ``benchmarks/bench_kernels.py`` compares
the two paths.
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
    "point_segment_distance_batch",
    "line_segment_distance",
    "segment_segment_distance",
    "fermat_on_segment",
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


@njit(cache=True)
def _point_segment_distance_batch_loop(px, py, pz, starts, ends, out):
    for i in range(starts.shape[0]):
        d, _ = point_segment_distance(
            px, py, pz,
            starts[i, 0], starts[i, 1], starts[i, 2],
            ends[i, 0], ends[i, 1], ends[i, 2],
        )
        out[i] = d


def _point_segment_distance_batch_numpy(point, starts, ends):
    e = ends - starts
    w = point[np.newaxis, :] - starts
    ee = np.einsum("ij,ij->i", e, e)
    t = np.einsum("ij,ij->i", w, e) / np.where(ee > 0.0, ee, 1.0)
    t = np.clip(t, 0.0, 1.0)
    closest = starts + t[:, np.newaxis] * e
    return np.linalg.norm(point[np.newaxis, :] - closest, axis=1)


def point_segment_distance_batch(point, starts, ends):
    """Distances from one point to many segments, shape (n,)."""
    if USING_NUMBA:
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        out = np.empty(starts.shape[0])
        _point_segment_distance_batch_loop(
            float(point[0]), float(point[1]), float(point[2]), starts, ends, out
        )
        return out
    return _point_segment_distance_batch_numpy(np.asarray(point, dtype=np.float64), starts, ends)


@njit(cache=True)
def line_segment_distance(px, py, pz, dx, dy, dz, ax, ay, az, bx, by, bz):
    """Distance between an infinite line (p + t d) and a segment [a, b]."""
    ex = bx - ax
    ey = by - ay
    ez = bz - az
    wx = ax - px
    wy = ay - py
    wz = az - pz
    dd = dx * dx + dy * dy + dz * dz
    de = dx * ex + dy * ey + dz * ez
    ee = ex * ex + ey * ey + ez * ez
    dw = dx * wx + dy * wy + dz * wz
    ew = ex * wx + ey * wy + ez * wz
    denom = dd * ee - de * de
    if denom > 1e-14 * dd * max(ee, 1.0):
        s = (de * dw - dd * ew) / denom
        if s < 0.0:
            s = 0.0
        elif s > 1.0:
            s = 1.0
    else:
        s = 0.0  # parallel: any point of the segment is equidistant in the free direction
    qx = ax + s * ex
    qy = ay + s * ey
    qz = az + s * ez
    # point-to-line distance from q
    t = ((qx - px) * dx + (qy - py) * dy + (qz - pz) * dz) / dd
    rx = qx - (px + t * dx)
    ry = qy - (py + t * dy)
    rz = qz - (pz + t * dz)
    return math.sqrt(rx * rx + ry * ry + rz * rz)


@njit(cache=True)
def segment_segment_distance(ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz):
    """Exact distance between segments [a, b] and [c, d].

    Standard clamped closed form (minimize the quadratic over the unit
    square, walking the active boundary). Exactness matters: the value is
    used as a provably-safe far rejection.
    """
    ux = bx - ax
    uy = by - ay
    uz = bz - az
    vx = dx - cx
    vy = dy - cy
    vz = dz - cz
    wx = ax - cx
    wy = ay - cy
    wz = az - cz
    big_a = ux * ux + uy * uy + uz * uz
    big_b = ux * vx + uy * vy + uz * vz
    big_c = vx * vx + vy * vy + vz * vz
    big_d = ux * wx + uy * wy + uz * wz
    big_e = vx * wx + vy * wy + vz * wz
    denom = big_a * big_c - big_b * big_b

    if denom > 1e-12 * max(big_a, 1e-30) * max(big_c, 1e-30):
        s_n = big_b * big_e - big_c * big_d
        s_d = denom
        t_n = big_a * big_e - big_b * big_d
        t_d = denom
        if s_n < 0.0:
            s_n = 0.0
            t_n = big_e
            t_d = big_c
        elif s_n > s_d:
            s_n = s_d
            t_n = big_e + big_b
            t_d = big_c
    else:  # (nearly) parallel
        s_n = 0.0
        s_d = 1.0
        t_n = big_e
        t_d = big_c

    if t_n < 0.0:
        t_n = 0.0
        if -big_d < 0.0:
            s_n = 0.0
        elif -big_d > big_a:
            s_n = s_d
        else:
            s_n = -big_d
            s_d = big_a
    elif t_n > t_d:
        t_n = t_d
        if -big_d + big_b < 0.0:
            s_n = 0.0
        elif -big_d + big_b > big_a:
            s_n = s_d
        else:
            s_n = -big_d + big_b
            s_d = big_a

    s = s_n / s_d if abs(s_d) > 1e-30 else 0.0
    t = t_n / t_d if abs(t_d) > 1e-30 else 0.0
    gx = wx + s * ux - t * vx
    gy = wy + s * uy - t * vy
    gz = wz + s * uz - t * vz
    return math.sqrt(gx * gx + gy * gy + gz * gz)


@njit(cache=True)
def fermat_on_segment(ax, ay, az, bx, by, bz, tx, ty, tz, rx, ry, rz):
    """Point of a segment minimizing transmitter->point->receiver length.

    Exact closed form: unfolding both nodes into one plane around the edge
    line turns the shortest path into a straight line, which meets the
    edge line at the nodes' projections weighted by the other node's
    perpendicular distance. The path length is convex along the line, so
    clamping that point to the segment gives the constrained minimum.
    Returns (d_tx, d_rx) at the minimizer.
    """
    ex = bx - ax
    ey = by - ay
    ez = bz - az
    length = math.sqrt(ex * ex + ey * ey + ez * ez)
    if length <= 0.0:
        d1 = math.sqrt((ax - tx) ** 2 + (ay - ty) ** 2 + (az - tz) ** 2)
        d2 = math.sqrt((ax - rx) ** 2 + (ay - ry) ** 2 + (az - rz) ** 2)
        return d1, d2
    ux = ex / length
    uy = ey / length
    uz = ez / length
    # along-edge coordinates of the nodes and their distances from the line,
    # the latter as norms of the rejection (no cancellation near the line)
    st = (tx - ax) * ux + (ty - ay) * uy + (tz - az) * uz
    sr = (rx - ax) * ux + (ry - ay) * uy + (rz - az) * uz
    rt = math.sqrt((tx - ax - st * ux) ** 2 + (ty - ay - st * uy) ** 2
                   + (tz - az - st * uz) ** 2)
    rr = math.sqrt((rx - ax - sr * ux) ** 2 + (ry - ay - sr * uy) ** 2
                   + (rz - az - sr * uz) ** 2)
    if rt + rr == 0.0:
        s = 0.5 * (st + sr)
    else:
        s = (st * rr + sr * rt) / (rt + rr)
    if s < 0.0:
        s = 0.0
    elif s > length:
        s = length
    return math.hypot(s - st, rt), math.hypot(s - sr, rr)


@njit(cache=True)
def knife_edge_loss_db(nu):
    """Semi-empirical single knife-edge loss in dB (0 below the lit bound)."""
    if nu <= -0.78:
        return 0.0
    return 6.9 + 20.0 * math.log10(math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)

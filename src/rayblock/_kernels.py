"""Numeric kernels: scalar loss-model helpers and batch geometry.

The scalar kernels (the Fresnel series, the knife-edge loss) run once per
loss-model evaluation, in plain Python: their coefficients are tuples of
Python floats and they return Python floats, so no numpy scalar enters the
per-row loss path (numpy scalar arithmetic costs several times CPython's).

The batch geometry kernels work row by row on the candidate table of a
chunk (see ``obstacles``): one row per (segment, obstacle pose) candidate,
(n, 3) arrays in, (n,) arrays out. They are plain numpy and sum vector
components x + y + z in a fixed order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "USING_NUMBA",
    "fresnel_cs",
    "dot3",
    "point_segment_distance_batch",
    "line_segment_distance_batch",
    "segment_segment_distance_batch",
    "fermat_on_segment_batch",
    "knife_edge_loss_db",
]

# No kernel is compiled. e2ebench/inproc.py reads this flag for the traced
# metric kernels.using_numba; it goes with that benchmark change (ROADMAP
# open item 1).
USING_NUMBA = False


# Series coefficients for the closed-form complex Fresnel integral
# (Boersma's method, the computational recipe given in ITU-R P.526-15).
# For x = pi*nu^2/2 < 4:  F = exp(jx) * sqrt(x/4) * sum (a_n - j b_n) (x/4)^n
# For x >= 4:             F = (1+j)/2 + exp(jx) * sqrt(4/x) * sum (c_n - j d_n) (4/x)^n
_FA = (
    +1.595769140, -0.000001702, -6.808568854, -0.000576361,
    +6.920691902, -0.016898657, -3.050485660, -0.075752419,
    +0.850663781, -0.025639041, -0.150230960, +0.034404779,
)
_FB = (
    -0.000000033, +4.255387524, -0.000092810, -7.780020400,
    -0.009520895, +5.075161298, -0.138341947, -1.363729124,
    -0.403349276, +0.702222016, -0.216195929, +0.019547031,
)
_FC = (
    +0.000000000, -0.024933975, +0.000003936, +0.005770956,
    +0.000689892, -0.009497136, +0.011948809, -0.006748873,
    +0.000246420, +0.002102967, -0.001217930, +0.000233939,
)
_FD = (
    +0.199471140, +0.000000023, -0.009351341, +0.000023006,
    +0.004851466, +0.001903218, -0.017122914, +0.029064067,
    -0.027928955, +0.016497308, -0.005598515, +0.000838386,
)


def fresnel_cs(nu):
    """Closed-form C(nu), S(nu) of the complex Fresnel integral.

    Accurate to a few 1e-9 over the real line; odd in nu by construction.
    Returns Python floats for a Python float nu.
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
        for fa, fb in zip(_FA, _FB):
            sa += fa * tn
            sb += fb * tn
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
        for fc, fd in zip(_FC, _FD):
            sc += fc * tn
            sd += fd * tn
            tn *= t
        root = math.sqrt(t)
        cx = math.cos(x)
        sx = math.sin(x)
        c = 0.5 + root * (cx * sc + sx * sd)
        s = 0.5 + root * (sx * sc - cx * sd)
    return sign * c, sign * s


def dot3(a, b):
    """Row-wise dot product of (..., 3) arrays, summed x + y + z."""
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


def knife_edge_loss_db(nu):
    """Semi-empirical single knife-edge loss in dB (0 below the lit bound)."""
    if nu <= -0.78:
        return 0.0
    return 6.9 + 20.0 * math.log10(math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)

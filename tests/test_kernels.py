"""Kernels: the batch geometry kernels match a scalar oracle bit for bit
or brute-force oracles row by row, and the knife-edge loss its landmarks."""

import math

import numpy as np
import pytest

from rayblock import _kernels


def point_segment_distance(px, py, pz, ax, ay, az, bx, by, bz):
    """Scalar oracle: distance from a point to a segment, summed in the
    batch kernel's order so both give the same bits."""
    ex = bx - ax
    ey = by - ay
    ez = bz - az
    ee = ex * ex + ey * ey + ez * ez
    if ee <= 0.0:
        dx = px - ax
        dy = py - ay
        dz = pz - az
        return math.sqrt(dx * dx + dy * dy + dz * dz)
    t = ((px - ax) * ex + (py - ay) * ey + (pz - az) * ez) / ee
    t = min(max(t, 0.0), 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    dz = pz - (az + t * ez)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def test_batch_distance_matches_scalar(rng):
    starts = rng.uniform(-5, 5, (200, 3))
    ends = starts + rng.uniform(-3, 3, (200, 3))
    point = rng.uniform(-5, 5, 3)
    points = rng.uniform(-5, 5, (200, 3))
    batch = _kernels.point_segment_distance_batch(point, starts, ends)
    per_row = _kernels.point_segment_distance_batch(points, starts, ends)
    for i in range(200):
        assert batch[i] == point_segment_distance(*point, *starts[i], *ends[i])
        assert per_row[i] == point_segment_distance(*points[i], *starts[i], *ends[i])


def test_line_segment_distance_vs_brute_force(rng):
    p = rng.uniform(-3, 3, (100, 3))
    d = rng.uniform(-1, 1, (100, 3))
    a = rng.uniform(-4, 4, (100, 3))
    b = rng.uniform(-4, 4, (100, 3))
    b[:10] = a[:10] + 2.0 * d[:10]  # parallel pairs take the other branch
    distances = _kernels.line_segment_distance_batch(p, d, a, b)
    for p, d, a, b, got in zip(p, d, a, b, distances):
        if np.linalg.norm(d) < 1e-3:
            continue
        ts = np.linspace(-60, 60, 4001)
        ss = np.linspace(0, 1, 401)
        line_pts = p[None, :] + ts[:, None] * d[None, :]
        seg_pts = a[None, :] + ss[:, None] * (b - a)[None, :]
        brute = np.min(np.linalg.norm(line_pts[:, None, :] - seg_pts[None, :, :], axis=2))
        assert got <= brute + 1e-9
        assert got == pytest.approx(brute, abs=2e-2)  # brute grid is coarse


def test_segment_segment_distance_vs_brute_force(rng):
    rows = []
    for trial in range(300):
        a, b = rng.uniform(-3, 3, (2, 3))
        if trial % 3 == 0:  # near-parallel pairs stress the branch cutoff
            c = a + rng.uniform(-1, 1, 3)
            d = c + (b - a) * rng.uniform(0.2, 2.0) + rng.normal(0, 1e-6, 3)
        else:
            c, d = rng.uniform(-3, 3, (2, 3))
        rows.append((a, b, c, d))
    a, b, c, d = (np.array(column) for column in zip(*rows))
    distances = _kernels.segment_segment_distance_batch(a, b, c, d)
    for a, b, c, d, got in zip(a, b, c, d, distances):
        ss = np.linspace(0, 1, 301)
        p1 = a[None, :] + ss[:, None] * (b - a)[None, :]
        p2 = c[None, :] + ss[:, None] * (d - c)[None, :]
        brute = np.min(np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=2))
        # the sampled minimum upper-bounds the true one; the far-rejection
        # safety slack must cover any suboptimality of the computed value
        assert got <= brute + 1e-4
        assert got == pytest.approx(brute, abs=3e-2)


def test_knife_edge_loss_reference_points():
    assert _kernels.knife_edge_loss_db(-1.0) == 0.0
    assert _kernels.knife_edge_loss_db(0.0) == pytest.approx(6.03, abs=0.01)
    # deep shadow asymptote ~ 13 + 20 log10(nu)
    assert _kernels.knife_edge_loss_db(10.0) == pytest.approx(13.0 + 20.0, abs=0.3)

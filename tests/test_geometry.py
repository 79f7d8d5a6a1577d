"""Geometric primitives, plus the blocking tests and per-segment screen
orientation as the obstacles module computes them (one table row here)."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import make_ray
from rayblock.diffraction import Obstruction
from rayblock.errors import GeometryError
from rayblock._kernels import point_segment_distance_batch
from rayblock.geometry import RectScreen, Segment
from rayblock.obstacles import (
    InteractionCounters,
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    SphereShape,
    Static,
    _screen_axes,
    _screen_cross_section,
    interact,
)

WAVELENGTH = 299792458.0 / 60e9


def test_segment_rejects_zero_length():
    with pytest.raises(GeometryError):
        Segment((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


def test_segment_rejects_non_finite():
    with pytest.raises(GeometryError):
        Segment((0.0, 0.0, np.nan), (1.0, 0.0, 0.0))


def test_screen_rejects_bad_extents():
    with pytest.raises(GeometryError):
        RectScreen(center=(0, 0, 0), width=-1.0, height=1.0)
    with pytest.raises(GeometryError):
        RectScreen(center=(0, 0, 0), width=1.0, height=0.0)


def test_screen_corners_coplanar(rng):
    for _ in range(50):
        screen = RectScreen(center=rng.normal(size=3), width=rng.uniform(0.1, 5),
                            height=rng.uniform(0.1, 5),
                            azimuth=rng.uniform(-np.pi, np.pi),
                            elevation=rng.uniform(-1.5, 1.5))
        corners = screen.corners
        n = screen.normal
        offsets = (corners - screen.center) @ n
        assert np.abs(offsets).max() < 1e-9


def _distance(p, s: Segment) -> float:
    """Point-segment distance from the batch kernel, as a one-row table."""
    return float(point_segment_distance_batch(np.asarray(p, dtype=np.float64),
                                              s.start[np.newaxis], s.end[np.newaxis])[0])


def test_distance_point_segment_endpoint_foot():
    d = _distance((0, 0, 0), Segment((1, 0, 0), (1, 1, 0)))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_distance_point_on_segment():
    d = _distance((0.5, 0, 0), Segment((0, 0, 0), (1, 0, 0)))
    assert d == pytest.approx(0.0, abs=1e-12)


def test_distance_point_segment_midpoint_vs_dense_sampling():
    seg = Segment((-1, 0, 0), (1, 0, 0))
    d = _distance((0, 2, 0), seg)
    # brute-force oracle: dense sampling of the segment
    ts = np.linspace(0, 1, 200001)
    points = seg.start + ts[:, None] * seg.direction
    brute = np.min(np.linalg.norm(points - np.array([0, 2, 0]), axis=1))
    assert d == pytest.approx(2.0, abs=1e-12)
    assert d == pytest.approx(brute, abs=1e-9)


def test_distance_invariant_under_rigid_motion(rng):
    for _ in range(100):
        p = rng.normal(size=3)
        a, b = rng.normal(size=3), rng.normal(size=3)
        if np.linalg.norm(b - a) < 1e-6:
            continue
        d0 = _distance(p, Segment(a, b))
        rot = Rotation.random(random_state=int(rng.integers(1 << 30))).as_matrix()
        shift = rng.normal(size=3)
        d1 = _distance(rot @ p + shift, Segment(rot @ a + shift, rot @ b + shift))
        assert d1 == pytest.approx(d0, abs=1e-9)


def _obstruct(shape, center, *points, counters=None):
    """Outcome of a 10 dB obstruction of the given shape, with no range gating."""
    obstacle = Obstacle(shape=shape, mobility=Static(tuple(float(c) for c in center)),
                        model=Obstruction(10.0), distance_threshold=1e3)
    return interact(obstacle, make_ray(*points), 0.0, WAVELENGTH, counters=counters)


def _axes(shape, a, b) -> tuple[np.ndarray, np.ndarray, bool]:
    """Screen axes against the one segment a -> b, and whether it is vertical."""
    u, v, vertical = _screen_axes(shape, np.array([a], float), np.array([b], float))
    return u[0], v[0], bool(vertical[0])


def _ortho_normal(a, b) -> np.ndarray:
    u, v, _ = _axes(OrthoScreenShape(1.0, 1.0), a, b)
    return np.cross(u, v)


def _cross_section(screen: RectScreen, a, b) -> tuple[np.ndarray, bool, bool]:
    """(depths, blocked, parallel) of the one segment a -> b against screen."""
    depths, blocked, parallel = _screen_cross_section(
        screen.center[np.newaxis], screen.width_axis, screen.height_axis,
        0.5 * screen.width, 0.5 * screen.height, np.array([a], float), np.array([b], float))
    return depths[0], bool(blocked[0]), bool(parallel[0])


def test_rect_intersection_symmetric_crossing():
    out = _obstruct(ScreenShape(1.0, 1.0), (1, 0, 1), (0, 0, 1), (2, 0, 1))
    assert out.blocked
    assert out.loss_db == 10.0
    screen = RectScreen(center=(1, 0, 1), width=1.0, height=1.0)
    depths, blocked, _ = _cross_section(screen, (0, 0, 1), (2, 0, 1))
    assert blocked
    np.testing.assert_allclose(depths, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    # the same line stopping short of the plane crosses it outside its span
    depths, blocked, _ = _cross_section(screen, (0, 0, 1), (0.9, 0, 1))
    assert not blocked
    np.testing.assert_allclose(depths, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_rect_intersection_disjoint():
    out = _obstruct(ScreenShape(1.0, 1.0), (1, 5, 1), (0, 0, 1), (2, 0, 1))
    assert not out.blocked
    assert out.loss_db == 0.0


def test_rect_intersection_grazing_edge_inclusive():
    # segment passes exactly through the vertical edge at u = +w/2
    assert _obstruct(ScreenShape(1.0, 1.0), (1, 0, 1), (0, 0.5, 1), (2, 0.5, 1)).blocked
    # and through a corner
    assert _obstruct(ScreenShape(1.0, 1.0), (1, 0, 1), (0, 0.5, 1.5), (2, 0.5, 1.5)).blocked
    # a nanometre beyond the tolerance it misses
    assert not _obstruct(ScreenShape(1.0, 1.0), (1, 0, 1), (0, 0.5 + 2e-9, 1),
                         (2, 0.5 + 2e-9, 1)).blocked


def test_rect_intersection_coplanar_raises():
    # segment lies inside the screen plane x=1: the cross-section flags it
    # parallel and the obstacle skips the segment as degenerate
    screen = RectScreen(center=(1, 0, 1), width=1.0, height=1.0)
    assert _cross_section(screen, (1, -2, 1), (1, 2, 1))[1:] == (False, True)
    counters = InteractionCounters()
    out = _obstruct(ScreenShape(1.0, 1.0), (1, 0, 1), (1, -2, 1), (1, 2, 1),
                    counters=counters)
    assert (out.loss_db, out.blocked) == (0.0, False)
    assert counters.degenerate_skips == 1


def test_rect_intersection_reversal_symmetry(rng):
    checked = 0
    for _ in range(200):
        shape = ScreenShape(width=rng.uniform(0.2, 3), height=rng.uniform(0.2, 3),
                            azimuth=rng.uniform(-np.pi, np.pi),
                            elevation=rng.uniform(-1.2, 1.2))
        center = rng.normal(size=3) * 2
        # segments pass near the center, so both outcomes occur often
        a = center + rng.normal(size=3) * 3
        b = 2.0 * center - a + rng.normal(size=3)
        counters = InteractionCounters()
        fwd = _obstruct(shape, center, a, b, counters=counters)
        bwd = _obstruct(shape, center, b, a, counters=counters)
        assert counters.degenerate_skips in (0, 2)
        assert fwd == bwd
        checked += fwd.blocked
    assert 20 < checked < 180


def test_sphere_intersection_through_center():
    assert _obstruct(SphereShape(0.5), (0, 0, 0), (-2, 0, 0), (2, 0, 0)).blocked


def test_sphere_tangency_counts_as_blocked():
    assert _obstruct(SphereShape(1.0), (0, 1, 0), (-1, 0, 0), (1, 0, 0)).blocked


def test_sphere_miss_at_twice_radius():
    assert not _obstruct(SphereShape(0.5), (0, 1, 0), (-1, 0, 0), (1, 0, 0)).blocked


def test_orthogonalize_fixed_point():
    # a segment along +x orients the screen like an unrotated fixed screen
    a, b = (0, 0, 1), (4, 0, 1)
    ortho = _axes(OrthoScreenShape(1.0, 2.0), a, b)
    fixed = _axes(ScreenShape(1.0, 2.0), a, b)
    np.testing.assert_allclose(ortho[:2], fixed[:2], atol=1e-12)


def test_orthogonalize_rotated_screen():
    d = np.array([1.0, 0.0, 0.0])
    assert abs(abs(float(_ortho_normal((0, 0, 1), (4, 0, 1)) @ d)) - 1.0) < 1e-12
    # the orientation ignores how the fixed shape would have been rotated
    u, v, _ = _axes(OrthoScreenShape(1.0, 2.0), (0, 0, 1), (4, 0, 1))
    np.testing.assert_allclose(v, [0, 0, 1], atol=0)
    assert float(u @ d) == pytest.approx(0.0, abs=1e-12)


def test_orthogonalize_vertical_segment_raises():
    assert _axes(OrthoScreenShape(1.0, 1.0), (1, 1, 0), (1, 1, 3))[2]
    counters = InteractionCounters()
    out = _obstruct(OrthoScreenShape(1.0, 1.0), (1, 1.1, 1), (1, 1, 0), (1, 1, 3),
                    counters=counters)
    assert (out.loss_db, out.blocked) == (0.0, False)
    assert counters.degenerate_skips == 1


def test_orthogonalize_idempotent(rng):
    # the axes depend only on the segment's direction, never on where it lies
    for _ in range(50):
        a = rng.normal(size=3)
        b = rng.normal(size=3) + np.array([3, 0, 0])
        shift = rng.normal(size=3)
        first = _axes(OrthoScreenShape(1.0, 1.0), a, b)
        again = _axes(OrthoScreenShape(1.0, 1.0), a + shift, b + shift)
        np.testing.assert_allclose(first[:2], again[:2], atol=1e-12)


def test_fixed_screen_axes_computed_once_per_shape(rng):
    shape = ScreenShape(1.0, 2.0, azimuth=0.7, elevation=-0.3)
    assert shape.axes is shape.axes
    for _ in range(5):
        screen = RectScreen(center=rng.normal(size=3), width=1.0, height=2.0,
                            azimuth=0.7, elevation=-0.3)
        np.testing.assert_array_equal(shape.axes[0], screen.width_axis)
        np.testing.assert_array_equal(shape.axes[1], screen.height_axis)
        a, b = rng.normal(size=3), rng.normal(size=3) + np.array([3, 0, 0])
        u, v, _ = _screen_axes(shape, np.array([a]), np.array([b]))
        assert np.shares_memory(u, shape.axes[0]) and np.shares_memory(v, shape.axes[1])
    np.testing.assert_array_equal(shape.height_axis, shape.axes[1])
    np.testing.assert_array_equal(OrthoScreenShape(1.0, 2.0).height_axis, [0.0, 0.0, 1.0])


def test_orthogonalized_normal_parallel_to_horizontal_projection(rng):
    for _ in range(100):
        a = rng.normal(size=3)
        b = a + rng.normal(size=3)
        if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-3:
            continue
        d = b - a
        horiz = np.array([d[0], d[1], 0.0])
        horiz /= np.linalg.norm(horiz)
        assert np.linalg.norm(np.cross(_ortho_normal(a, b), horiz)) < 1e-9

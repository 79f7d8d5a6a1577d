"""Obstacle contracts: mobility, thresholds, fallback, counters, wiring."""

import math

import numpy as np
import pytest

from conftest import edge_row, make_ray
from rayblock import _kernels
from rayblock.diffraction import Dked, DkedPc, ItuSe, Metis, Obstruction
from rayblock.environment import SimulationConfig
from rayblock.errors import ConfigError
from rayblock.linkeval import ArrayConfig, LinkBudget
from rayblock.obstacles import (
    InteractionCounters,
    LinearMobility,
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    SphereShape,
    Static,
    WaypointMobility,
    default_threshold,
    interact,
    position_at,
)

WAVELENGTH = 299792458.0 / 60e9
LOS_RAY = make_ray((0, 0, 1.6), (8, 0, 1.6))


def test_static_position():
    m = Static((1.0, 2.0, 3.0))
    np.testing.assert_array_equal(position_at(m, 0.0), [1, 2, 3])
    np.testing.assert_array_equal(position_at(m, 17.3), [1, 2, 3])


def test_linear_position_matches_reference_trajectory():
    m = LinearMobility(start=(5.0, 0.0, 0.0), velocity=(0.0, 1.2, 0.0))
    np.testing.assert_allclose(position_at(m, 2.5), [5.0, 3.0, 0.0], atol=1e-12)


def test_waypoints_interpolate_and_clamp():
    m = WaypointMobility(times=(0.0, 2.0), points=((0.0, 0.0, 0.0), (2.0, 4.0, 0.0)))
    np.testing.assert_allclose(position_at(m, 1.0), [1.0, 2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(position_at(m, 5.0), [2.0, 4.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(position_at(m, 0.0), [0.0, 0.0, 0.0], atol=1e-12)


def test_waypoints_require_increasing_times():
    with pytest.raises(ConfigError):
        WaypointMobility(times=(0.0, 0.0), points=((0, 0, 0), (1, 1, 1)))


def test_sphere_rejects_diffraction_models():
    with pytest.raises(ConfigError):
        Obstacle(shape=SphereShape(0.3), mobility=Static((0, 0, 0)), model=Dked())


def test_tilted_screen_rejects_metis():
    with pytest.raises(ConfigError):
        Obstacle(shape=ScreenShape(0.2, 1.7, elevation=0.2),
                 mobility=Static((0, 0, 0)), model=Metis())
    # untilted fixed screen with metis is allowed
    Obstacle(shape=ScreenShape(0.2, 1.7), mobility=Static((0, 0, 0)), model=Metis())


NAN, INF = math.nan, math.inf
SCREEN, AT = OrthoScreenShape(0.2, 1.7), Static((4.0, 0.0, 1.6))


@pytest.mark.parametrize("build", [
    lambda: OrthoScreenShape(NAN, 1.7),
    lambda: OrthoScreenShape(0.2, INF),
    lambda: ScreenShape(INF, 1.7),
    lambda: ScreenShape(0.2, 1.7, azimuth=NAN),
    lambda: ScreenShape(0.2, 1.7, elevation=-INF),
    lambda: SphereShape(NAN),
    lambda: Static((NAN, 0.0, 0.0)),
    lambda: LinearMobility((0.0, INF, 0.0), (0.0, 1.0, 0.0)),
    lambda: LinearMobility((0.0, 0.0, 0.0), (0.0, NAN, 0.0)),
    lambda: WaypointMobility(times=(0.0, NAN), points=((0, 0, 0), (1, 1, 1))),
    lambda: WaypointMobility(times=(0.0, 1.0), points=((0, 0, 0), (1, INF, 1))),
    lambda: Obstacle(SCREEN, AT, Dked(), distance_threshold=NAN),
    lambda: Obstacle(SCREEN, AT, Dked(), fallback_loss_db=INF),
    lambda: Obstacle(SCREEN, AT, Dked(), fallback_loss_db=NAN),
    lambda: SimulationConfig(obstacles=(), carrier_frequency_hz=NAN),
    lambda: SimulationConfig(obstacles=(), time_step=NAN),
], ids=["ortho_width", "ortho_height", "screen_width", "azimuth", "elevation", "radius",
        "position", "start", "velocity", "waypoint_time", "waypoint_point", "threshold",
        "fallback_inf", "fallback_nan", "carrier", "time_step"])
def test_a_non_finite_library_value_is_rejected(build):
    # a NaN fails every comparison, so the obstacle would never block or
    # diffract; the CLI rejects these numbers, the constructors must too
    with pytest.raises(ConfigError, match="finite|positive"):
        build()
    # an infinite threshold means no cull
    Obstacle(SCREEN, AT, Dked(), distance_threshold=INF)


@pytest.mark.parametrize("build, message", [
    (lambda: Static((4.0, 0.0)), "3 coordinates"),
    (lambda: LinearMobility((0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0)), "3 coordinates"),
    (lambda: LinearMobility((0.0, 0.0, 0.0), 1.0), "3 coordinates"),
    (lambda: WaypointMobility(times=(0.0, 1.0), points=((0, 0, 0), (1, 1))), "3 coordinates"),
    (lambda: WaypointMobility(times=(0.0, 1.0, 2.0), points=(0, 0, 0)), "3 coordinates"),
    (lambda: interact(Obstacle(SCREEN, AT, Dked()), LOS_RAY, 0.0, -0.005), "wavelength"),
    (lambda: interact(Obstacle(SCREEN, AT, Dked()), LOS_RAY, 0.0, NAN), "wavelength"),
    (lambda: interact(Obstacle(SCREEN, AT, Dked()), LOS_RAY, 0.0, 0.0), "wavelength"),
    (lambda: interact(Obstacle(SCREEN, AT, Dked()), LOS_RAY, 0.0, INF), "wavelength"),
    (lambda: LinkBudget(carrier_frequency_hz=NAN), "finite"),
    (lambda: LinkBudget(bandwidth_hz=INF), "finite"),
    (lambda: LinkBudget(tx_power_dbm=NAN), "finite"),
    (lambda: LinkBudget(noise_figure_db=-INF), "finite"),
    (lambda: ArrayConfig(rows=2.5, cols=4), "whole numbers"),
    (lambda: ArrayConfig(rows=4, cols=NAN), "whole numbers"),
    (lambda: ArrayConfig(4, 4, spacing=NAN), "finite and positive"),
    (lambda: ArrayConfig(4, 4, spacing=INF), "finite and positive"),
], ids=["static_2d", "linear_4d_start", "linear_scalar_velocity", "waypoint_2d_point",
        "waypoint_flat_points", "wavelength_negative", "wavelength_nan", "wavelength_zero",
        "wavelength_inf", "carrier", "bandwidth", "tx_power", "noise_figure", "rows", "cols",
        "spacing_nan", "spacing_inf"])
def test_a_library_value_the_numbers_cannot_use_is_rejected(build, message):
    # each used to build and then fail deep inside numpy, or quietly give a
    # wrong number (a negative wavelength culled a screen across the path)
    with pytest.raises(ConfigError, match=message):
        build()
    assert interact(Obstacle(SCREEN, AT, Dked()), LOS_RAY, 0.0, 0.005).loss_db > 10.0
    ArrayConfig(rows=2.0, cols=3)  # an integral float is a whole number


def test_sphere_obstruction_on_the_path():
    obstacle = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                        model=Obstruction(10.0))
    out = interact(obstacle, LOS_RAY, 0.0, WAVELENGTH)
    assert out.loss_db == 10.0
    assert out.blocked


def test_sphere_only_ever_obstructs(rng):
    for _ in range(100):
        center = rng.uniform([-1, -2, 0], [9, 2, 3])
        loss_db = float(rng.uniform(0, 20))
        obstacle = Obstacle(shape=SphereShape(float(rng.uniform(0.05, 1.0))),
                            mobility=Static(tuple(center)), model=Obstruction(loss_db))
        out = interact(obstacle, LOS_RAY, 0.0, WAVELENGTH)
        assert out.loss_db in (0.0, loss_db)


def test_far_screen_skipped_by_default_threshold():
    counters = InteractionCounters()
    obstacle = Obstacle(shape=OrthoScreenShape(0.2, 1.7),
                        mobility=Static((4.0, 2.0, 0.85)), model=Dked())
    out = interact(obstacle, LOS_RAY, 0.0, WAVELENGTH, counters=counters)
    # 2 m lateral clearance is beyond 10 first-Fresnel radii (~1 m)
    assert out.loss_db == 0.0
    assert not out.blocked
    assert counters.far_skips == 1
    assert counters.diffraction_evals == 0


def test_screen_up_to_half_a_width_beyond_the_threshold_is_evaluated():
    # README: a screen counts as beyond the threshold when its vertical center
    # line, less half its width, is. The top of a 1 x 1 m screen 0.6 m below
    # the path lies beyond the 0.5 m threshold, but its center line less half
    # its width is 0.1 m away: evaluated. 1.05 m below, farther than the
    # threshold plus half the width: skipped as far.
    for gap, want in ((0.6, (1, 0)), (1.05, (0, 1))):
        counters = InteractionCounters()
        obstacle = Obstacle(shape=OrthoScreenShape(1.0, 1.0),
                            mobility=Static((4.0, 0.0, 1.6 - gap - 0.5)), model=Dked(),
                            distance_threshold=0.5)
        interact(obstacle, LOS_RAY, 0.0, WAVELENGTH, counters=counters)
        assert (counters.diffraction_evals, counters.far_skips) == want


def test_default_threshold_value():
    # 10 * max first-Fresnel radius of an 8 m segment
    assert default_threshold(8.0, WAVELENGTH) == pytest.approx(
        10.0 * math.sqrt(WAVELENGTH * 8.0) / 2.0, rel=1e-12)


def test_secondary_ray_fallback_uses_constant_loss_only():
    counters = InteractionCounters()
    bounce = make_ray((0, 0, 1.6), (4, -2.5, 1.5), (5.5, 2.0, 1.5), (8, 0, 1.6))
    # screen blocks only the middle segment
    obstacle = Obstacle(shape=OrthoScreenShape(0.6, 3.0),
                        mobility=Static((4.75, -0.25, 1.5)), model=Dked(),
                        obstruction_fallback_for_secondary=True, fallback_loss_db=7.0)
    out = interact(obstacle, bounce, 0.0, WAVELENGTH, is_primary_ray=False,
                   counters=counters)
    assert counters.diffraction_evals == 0
    assert counters.obstruction_evals >= 1
    assert out.loss_db == 7.0
    assert out.blocked
    # the same obstacle on a primary ray does run the diffraction model
    counters2 = InteractionCounters()
    out2 = interact(obstacle, bounce, 0.0, WAVELENGTH, is_primary_ray=True,
                    counters=counters2)
    assert counters2.diffraction_evals >= 1
    assert out2.loss_db != 7.0


def test_interact_deterministic():
    obstacle = Obstacle(shape=OrthoScreenShape(0.2, 1.7),
                        mobility=LinearMobility((4.0, -1.0, 0.85), (0.0, 1.2, 0.0)),
                        model=DkedPc())
    a = interact(obstacle, LOS_RAY, 0.6125, WAVELENGTH)
    b = interact(obstacle, LOS_RAY, 0.6125, WAVELENGTH)
    assert a == b


def test_threshold_monotonicity_via_counters(rng):
    rays = []
    for _ in range(20):
        a = rng.uniform([-2, -3, 0.2], [0, 3, 2.5])
        b = rng.uniform([6, -3, 0.2], [10, 3, 2.5])
        rays.append(make_ray(a, b))
    centers = [tuple(rng.uniform([1, -2, 0.5], [7, 2, 2.0])) for _ in range(10)]

    def evals(threshold):
        counters = InteractionCounters()
        for center in centers:
            obstacle = Obstacle(shape=OrthoScreenShape(0.3, 1.7), mobility=Static(center),
                                model=Dked(), distance_threshold=threshold)
            for ray in rays:
                interact(obstacle, ray, 0.0, WAVELENGTH, counters=counters)
        return counters.diffraction_evals

    counts = [evals(t) for t in (0.05, 0.2, 0.8, 2.0, 8.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


@pytest.mark.parametrize("model", [Metis(), Dked(), DkedPc(), ItuSe()])
def test_interact_matches_diffraction_module_exactly(model):
    """Wiring check: midpoint crossing reproduces the module-level value."""
    from rayblock.diffraction import dked_loss, dked_pc_loss, itu_se_loss, metis_loss

    obstacle = Obstacle(shape=OrthoScreenShape(0.2, 1.7),
                        mobility=Static((4.0, 0.0, 0.85)), model=model,
                        distance_threshold=1e9)
    got = interact(obstacle, LOS_RAY, 0.0, WAVELENGTH)

    # the orthogonal screen faces the x-directed path like an unrotated screen
    blocked, edges = edge_row(ScreenShape(0.2, 1.7), (4.0, 0.0, 0.85), LOS_RAY.vertices[0],
                              LOS_RAY.vertices[1], WAVELENGTH)
    assert blocked

    def values(key):
        return tuple(edges[name][key] for name in ("w1", "w2", "h1", "h2"))

    nus, excess = values("nu"), values("excess")
    if isinstance(model, Metis):
        want = metis_loss(excess, values("los"), WAVELENGTH, blocked)
    elif isinstance(model, Dked):
        want = dked_loss(nus[0], nus[1])
    elif isinstance(model, DkedPc):
        want = dked_pc_loss(nus[0], nus[1], excess[0], excess[1], WAVELENGTH)
    else:
        want = itu_se_loss(nus, blocked)
    assert got.blocked
    assert got.loss_db == want


def test_fermat_search_matches_closed_form(rng):
    """Closed-form edge points against a dense brute-force minimum.

    The brute force samples the edge, then resamples around its best
    sample; the path length is convex along the edge, so the true minimum
    lies within one coarse step of that sample.
    """
    a = rng.uniform(-3, 3, (200, 3))
    b = a + rng.uniform(-3, 3, (200, 3))
    tx = rng.uniform(-6, 6, (200, 3))
    rx = rng.uniform(-6, 6, (200, 3))
    d_txs, d_rxs = _kernels.fermat_on_segment_batch(a, b, tx, rx)
    for a, b, tx, rx, d_tx, d_rx in zip(a, b, tx, rx, d_txs, d_rxs):
        if np.linalg.norm(b - a) < 1e-3:
            continue

        def path_lengths(ts):
            points = a + ts[:, None] * (b - a)
            return (np.linalg.norm(points - tx, axis=1)
                    + np.linalg.norm(points - rx, axis=1))

        coarse = np.linspace(0.0, 1.0, 2001)
        best = coarse[np.argmin(path_lengths(coarse))]
        fine = np.linspace(max(best - 5e-4, 0.0), min(best + 5e-4, 1.0), 2001)
        fine_lengths = path_lengths(fine)
        want = float(fine_lengths.min())
        # |d length / dt| <= 2 |b - a|, so the sampled minimum overshoots the
        # true one by at most one fine step's worth
        slack = 2.0 * float(np.linalg.norm(b - a)) * (fine[1] - fine[0])
        assert want - slack <= d_tx + d_rx <= want + 1e-9
        p = a + fine[np.argmin(fine_lengths)] * (b - a)
        assert d_tx == pytest.approx(float(np.linalg.norm(p - tx)), abs=1e-3)
        assert d_rx == pytest.approx(float(np.linalg.norm(p - rx)), abs=1e-3)


def test_vertical_segment_degenerate_is_skipped():
    counters = InteractionCounters()
    vertical = make_ray((2, 0, 0.2), (2, 0, 2.8))
    obstacle = Obstacle(shape=OrthoScreenShape(0.2, 1.7), mobility=Static((2.0, 0.1, 0.85)),
                        model=Dked(), distance_threshold=5.0)
    out = interact(obstacle, vertical, 0.0, WAVELENGTH, counters=counters)
    assert out.loss_db == 0.0
    assert not out.blocked
    assert counters.degenerate_skips == 1


def test_node_on_a_screen_edge_is_skipped_as_degenerate():
    # the receiver sits exactly on the screen's left edge: the edge's
    # diffraction point coincides with the node, leaving no edge-to-node path
    counters = InteractionCounters()
    obstacle = Obstacle(shape=OrthoScreenShape(0.2, 1.7), mobility=Static((8.0, 0.1, 0.85)),
                        model=Dked(), distance_threshold=5.0)
    out = interact(obstacle, LOS_RAY, 0.0, WAVELENGTH, counters=counters)
    assert (out.loss_db, out.blocked) == (0.0, False)
    assert counters.degenerate_skips == 1

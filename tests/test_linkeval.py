import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_los_trace, make_ray, trace_of
from rayblock.errors import ConfigError, GeometryError
from rayblock.linkeval import (
    ArrayConfig,
    LinkBudget,
    noise_power_dbm,
    snr_timeline,
    steering_vector,
)
from rayblock.trace import Ray

TABLE_BUDGET = LinkBudget()  # 60 GHz, 2.16 GHz, 20 dBm, NF 10, 8x8 / 4x4
SINGLE_BUDGET = LinkBudget(tx_array=ArrayConfig(1, 1), rx_array=ArrayConfig(1, 1))


def test_noise_power_reference_value():
    assert noise_power_dbm(TABLE_BUDGET) == pytest.approx(-70.6555, abs=1e-3)


def test_steering_vector_single_element():
    v = steering_vector(ArrayConfig(1, 1), 0.7, -0.3)
    np.testing.assert_allclose(v, [1.0 + 0j])


def test_steering_vector_broadside_equal_phase():
    v = steering_vector(ArrayConfig(8, 8), 0.0, 0.0)
    np.testing.assert_allclose(v, np.full(64, v[0]))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_steering_vector_phase_gradient_matches_direct_computation():
    az = math.radians(30)
    arr = ArrayConfig(4, 4)
    v = steering_vector(arr, az, 0.0)
    expected_increment = 2 * math.pi * 0.5 * math.sin(az)
    # columns vary fastest in the flattened layout
    for i in range(3):
        assert np.angle(v[i + 1] / v[i]) == pytest.approx(expected_increment, abs=1e-12)
    # direct elementwise reconstruction
    rows, cols = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    phases = 2 * math.pi * 0.5 * (cols * math.sin(az))
    np.testing.assert_allclose(v, np.exp(1j * phases).reshape(-1) / 4.0, atol=1e-12)


def test_single_ray_snr_arithmetic():
    trace = build_los_trace((0, 0, 1.6), (8, 0, 1.6), num_steps=1, time_step=1.0,
                            gain_db=-80.0)
    snr = snr_timeline(trace, (0, 1), SINGLE_BUDGET)
    # 20 dBm - 80 dB - (-70.6555 dBm)
    assert snr[0, 1] == pytest.approx(10.6555, abs=1e-3)


def test_array_gain_on_single_ray():
    trace = build_los_trace((0, 0, 1.6), (8, 0, 1.6), num_steps=1, time_step=1.0)
    small = snr_timeline(trace, (0, 1), SINGLE_BUDGET)
    big = snr_timeline(trace, (0, 1), TABLE_BUDGET)
    assert big[0, 1] - small[0, 1] == pytest.approx(10 * math.log10(64 * 16), abs=1e-9)


def test_beamforming_gain_any_direction(rng):
    for _ in range(25):
        a = rng.uniform([-4, -4, 0.2], [-1, 4, 3.0])
        b = rng.uniform([1, -4, 0.2], [4, 4, 3.0])
        trace = build_los_trace(tuple(a), tuple(b), num_steps=1, time_step=1.0)
        small = snr_timeline(trace, (0, 1), SINGLE_BUDGET)
        big = snr_timeline(trace, (0, 1), TABLE_BUDGET)
        assert big[0, 1] - small[0, 1] == pytest.approx(10 * math.log10(64 * 16), abs=1e-9)


def test_snr_invariant_to_global_phase_rotation():
    tx, rx, wall = (0, 0, 1.6), (8, 0, 1.6), (4, -2.5, 1.4)
    rays = [make_ray(tx, rx, gain_db=-80.0), make_ray(tx, wall, rx, gain_db=-90.0)]
    rotated = [
        type(r)(delay=r.delay, path_gain_db=r.path_gain_db,
                phase_rad=r.phase_rad + 1.234, vertices=r.vertices)
        for r in rays
    ]
    positions = {0: np.tile(tx, (1, 1)), 1: np.tile(rx, (1, 1))}
    t1 = trace_of({(0, 1): [rays]}, positions, time_step=1.0)
    t2 = trace_of({(0, 1): [rotated]}, positions, time_step=1.0)
    s1 = snr_timeline(t1, (0, 1), TABLE_BUDGET)
    s2 = snr_timeline(t2, (0, 1), TABLE_BUDGET)
    # combining uses delay-derived carrier phases, so the stored phase offset
    # cancels identically
    assert s1[0, 1] == pytest.approx(s2[0, 1], abs=1e-12)


def test_blocked_snr_drop_exceeds_mean_shadow_loss_minus_3db():
    """A reflected ray cannot compensate the diffraction loss of the direct one."""
    from rayblock.cli import run_crossing_sweep
    from rayblock.diffraction import Dked
    from rayblock.environment import SimulationConfig, run
    from rayblock.obstacles import Obstacle, OrthoScreenShape, Static

    tx, rx, wall = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6), (4.0, 2.5, 1.4)
    rays = [make_ray(tx, rx, gain_db=-80.0), make_ray(tx, wall, rx, gain_db=-95.0)]
    positions = {0: np.tile(tx, (1, 1)), 1: np.tile(rx, (1, 1))}
    trace = trace_of({(0, 1): [rays]}, positions, time_step=1.0)
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), mobility=Static((4.0, 0.0, 0.85)),
                      model=Dked())
    shadowed = run(trace, SimulationConfig(obstacles=(screen,)))

    baseline = snr_timeline(trace, (0, 1), TABLE_BUDGET)[0, 1]
    blocked = snr_timeline(shadowed, (0, 1), TABLE_BUDGET)[0, 1]

    cols = run_crossing_sweep(offsets=np.linspace(-0.095, 0.095, 39), models=("dked",))
    mean_shadow_loss = float(cols["loss_db_dked"][cols["blocked"].astype(bool)].mean())
    assert baseline - blocked >= mean_shadow_loss - 3.0


def test_beam_follows_reflection_stronger_than_blocked_direct_ray():
    tx, rx, wall = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6), (4.0, 2.5, 1.4)
    positions = {0: np.tile(tx, (1, 1)), 1: np.tile(rx, (1, 1))}

    def snr(rays):
        trace = trace_of({(0, 1): [rays]}, positions, time_step=1.0)
        return snr_timeline(trace, (0, 1), TABLE_BUDGET)[0, 1]

    reflection = make_ray(tx, wall, rx, gain_db=-70.0)
    blocked_direct = make_ray(tx, rx, gain_db=-90.0)
    both = snr([blocked_direct, reflection])
    # steered at the reflection, the link keeps its full array gain; the
    # direct ray, 20 dB weaker and off-beam, moves it by well under 1 dB
    assert abs(both - snr([reflection])) < 1.0
    # a beam on the direct ray would have landed about 20 dB lower
    assert both - snr([blocked_direct]) > 15.0


def test_empty_step_reports_minus_infinity():
    tx, rx = (0, 0, 1.6), (8, 0, 1.6)
    positions = {0: np.tile(tx, (2, 1)), 1: np.tile(rx, (2, 1))}
    trace = trace_of({(0, 1): [[make_ray(tx, rx)], []]}, positions, time_step=0.5)
    snr = snr_timeline(trace, (0, 1), TABLE_BUDGET)
    assert math.isfinite(snr[0, 1])
    assert snr[1, 1] == -math.inf


def test_unknown_pair_rejected():
    trace = build_los_trace((0, 0, 1.6), (8, 0, 1.6), num_steps=1, time_step=1.0)
    with pytest.raises(ConfigError):
        snr_timeline(trace, (3, 4), TABLE_BUDGET)


def test_array_config_validation():
    with pytest.raises(ConfigError):
        ArrayConfig(0, 4)
    with pytest.raises(ConfigError):
        ArrayConfig(4, 4, spacing=0.0)


@pytest.mark.parametrize("vertices", [[(0, 0, 1.6), (0, 0, 1.6), (8, 0, 1.6)],
                                      [(0, 0, 1.6), (8, 0, 1.6), (8, 0, 1.6)]],
                         ids=["departure", "arrival"])
def test_coincident_vertices_raise_geometry_error(vertices):
    tx, rx = (0, 0, 1.6), (8, 0, 1.6)
    degenerate = Ray(delay=8.0 / 299792458.0, path_gain_db=-120.0, phase_rad=0.0,
                     vertices=np.array(vertices, dtype=np.float64))
    positions = {0: np.tile(tx, (2, 1)), 1: np.tile(rx, (2, 1))}
    trace = trace_of({(0, 1): [[make_ray(tx, rx)], [make_ray(tx, rx), degenerate]]}, positions,
                     time_step=0.5)
    with pytest.raises(GeometryError):
        snr_timeline(trace, (0, 1), TABLE_BUDGET)


def test_steering_vector_is_the_outer_product_of_its_factors():
    arr = ArrayConfig(3, 5, spacing=0.4)
    az, el = 0.7, -0.3
    v = steering_vector(arr, az, el)
    row = np.exp(2j * math.pi * 0.4 * math.sin(el) * np.arange(3))
    col = np.exp(2j * math.pi * 0.4 * math.cos(el) * math.sin(az) * np.arange(5))
    np.testing.assert_allclose(v, np.outer(row, col).reshape(-1) / math.sqrt(15), atol=1e-14)


def test_equal_gains_steer_to_the_lower_index():
    tx, rx = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6)
    wall_a, wall_b = (4.0, 2.5, 1.4), (4.0, -3.5, 1.4)
    positions = {0: np.tile(tx, (2, 1)), 1: np.tile(rx, (2, 1))}

    def snr(*steps):
        trace = trace_of({(0, 1): list(steps)}, positions, time_step=0.5)
        return snr_timeline(trace, (0, 1), TABLE_BUDGET)[:, 1]

    a, b = make_ray(tx, wall_a, rx, gain_db=-80.0), make_ray(tx, wall_b, rx, gain_db=-80.0)
    c = make_ray(tx, rx, gain_db=-83.0)  # weaker; its array gain depends on the beam
    tied = snr([a, b, c], [b, a, c])
    # a hair weaker second ray leaves each step's beam on its first ray
    a2, b2 = (replace(ray, path_gain_db=-80.0 - 1e-9) for ray in (a, b))
    a_leads = snr([a, b2, c], [a, b2, c])
    b_leads = snr([b, a2, c], [b, a2, c])
    np.testing.assert_allclose(tied, [a_leads[0], b_leads[1]], rtol=0.0, atol=1e-6)
    assert abs(a_leads[0] - b_leads[0]) > 0.1  # the two beams do differ

"""Loss model contracts: landmarks, symmetries, asymptotics, golden values.

Golden values were frozen from an independent oracle (closed-form edge
stationary points plus scipy's Fresnel integrals) before the package
implementation existed; see the values inline.
"""

import math

import numpy as np
import pytest

from rayblock.diffraction import (
    FAR_FIELD_NU,
    LOSS_CAP_DB,
    EdgeGeometry,
    ItuSe,
    ScreenDiffractionGeometry,
    diagnostics,
    diffraction_parameter,
    dked_loss,
    dked_pc_loss,
    metis_edge_term,
    obstruction_loss,
    sked,
)
from conftest import itu_se_of, make_ray, metis_of
from rayblock.errors import GeometryError
from rayblock.geometry import RectScreen, Segment
from rayblock.obstacles import (
    InteractionCounters,
    Obstacle,
    OrthoScreenShape,
    Static,
    interact,
    screen_edge_geometries,
)

WAVELENGTH_60GHZ = 299792458.0 / 60e9

# Reference geometry: nodes 8 m apart at 1.6 m height, 0.2 x 1.7 m screen
# standing on the ground, crossing the path laterally at midspan.
TX = (0.0, 0.0, 1.6)
RX = (8.0, 0.0, 1.6)


def crossing_geometry(lateral_offset: float, wavelength: float = WAVELENGTH_60GHZ,
                      along: float = 4.0) -> ScreenDiffractionGeometry:
    screen = RectScreen(center=(along, lateral_offset, 0.85), width=0.2, height=1.7)
    return screen_edge_geometries(screen, Segment(TX, RX), wavelength)


def _edge(depth, d_tx=4.0, d_rx=4.0, distance=8.0, wavelength=0.005, los=None):
    return EdgeGeometry(d_tx=d_tx, d_rx=d_rx, distance=distance, depth=depth,
                        wavelength=wavelength, los_distance=los)


def _metis_term(edge: EdgeGeometry, sign: float) -> float:
    return metis_edge_term(edge.d_tx + edge.d_rx - edge.distance, edge.wavelength, sign)


def test_obstruction_loss_values():
    assert obstruction_loss(True, 10.0) == 10.0
    assert obstruction_loss(False, 10.0) == 0.0
    assert obstruction_loss(True, 0.0) == 0.0
    with pytest.raises(GeometryError):
        obstruction_loss(True, -1.0)


# --- single knife edge -------------------------------------------------------

def test_sked_at_grazing():
    assert sked(0.0) == pytest.approx(0.5 + 0.0j, abs=1e-12)


def test_sked_deep_shadow_asymptote():
    assert sked(1e3) == 0.0
    assert sked(FAR_FIELD_NU) == 0.0
    assert sked(-1e3) == 1.0


def test_sked_reference_value():
    # frozen from quadrature C(1), S(1)
    val = sked(1.0)
    assert val.real == pytest.approx(-0.109076274, abs=1e-6)
    assert val.imag == pytest.approx(-0.170817126, abs=1e-6)


def test_sked_magnitude_monotone_in_shadow():
    nus = np.arange(0.0, FAR_FIELD_NU + 2.0, 0.01)
    mags = np.array([abs(sked(float(nu))) for nu in nus])
    assert np.all(np.diff(mags) <= 1e-6)


# --- arctan four-edge model --------------------------------------------------

def test_metis_edge_term_on_the_path():
    assert _metis_term(_edge(0.0, d_tx=4.0, d_rx=4.0, distance=8.0), 1.0) == 0.0


def test_metis_edge_term_saturates():
    deep = _edge(3.0, d_tx=5.0, d_rx=5.0, distance=8.0)
    assert _metis_term(deep, 1.0) == pytest.approx(0.5, abs=1e-3)
    very_deep = _edge(3.0, d_tx=8.0, d_rx=8.0, distance=8.0)
    assert _metis_term(very_deep, 1.0) == 0.5


def test_metis_edge_term_odd_in_sign(rng):
    for _ in range(20):
        extra = rng.uniform(0, 0.5)
        edge = _edge(0.1, d_tx=4.0 + extra, d_rx=4.0, distance=8.0)
        assert _metis_term(edge, -1.0) == -_metis_term(edge, 1.0)


def test_metis_edge_term_rejects_short_path():
    # an edge path of 3.9 + 3.9 m around an 8 m direct path
    with pytest.raises(GeometryError):
        metis_edge_term(3.9 + 3.9 - 8.0, 0.005, 1.0)


def test_metis_symmetric_center_crossing():
    geom = crossing_geometry(0.0)
    assert geom.los_blocked
    t_w1 = _metis_term(geom.w1, 1.0)
    t_w2 = _metis_term(geom.w2, 1.0)
    assert t_w1 == pytest.approx(t_w2, abs=1e-9)


def test_metis_center_crossing_golden_value():
    # oracle: direct four-edge evaluation, frozen
    assert metis_of(crossing_geometry(0.0)) == pytest.approx(7.873226, abs=1e-3)


def test_metis_far_from_path_vanishes():
    loss = metis_of(crossing_geometry(2.0))
    assert abs(loss) < 0.05


def test_metis_clamp_counter():
    # a 4 x 4 m screen across the 8 m path puts all four edges beyond the
    # far-field cutoff: the arctan product reaches 1 and the log argument 0
    diagnostics.reset()
    screen = RectScreen(center=(4.0, 0.0, 1.6), width=4.0, height=4.0)
    loss = metis_of(screen_edge_geometries(screen, Segment(TX, RX), WAVELENGTH_60GHZ))
    assert loss == LOSS_CAP_DB
    assert diagnostics.total == 1  # one capped evaluation, counted once
    diagnostics.reset()


# --- double knife edge -------------------------------------------------------

def test_dked_grazing_half_power_landmark():
    assert dked_loss(0.0, 50.0) == pytest.approx(6.0206, abs=0.01)
    # converged: pushing the far edge further changes nothing
    assert dked_loss(0.0, 200.0) == pytest.approx(dked_loss(0.0, 50.0), abs=0.01)


def test_dked_open_path_far_edges():
    assert dked_loss(-15.0, 15.0) == pytest.approx(0.0, abs=0.05)
    assert abs(dked_loss(-10.0, 11.0)) < 0.5


def test_dked_commutative(rng):
    for _ in range(30):
        nu1, nu2 = rng.uniform(-5, 5, 2)
        assert dked_loss(float(nu1), float(nu2)) == dked_loss(float(nu2), float(nu1))


def test_dked_center_crossing_golden_value():
    geom = crossing_geometry(0.0)
    loss = dked_loss(diffraction_parameter(geom.w1), diffraction_parameter(geom.w2))
    assert loss == pytest.approx(10.305531, abs=1e-3)


def test_dked_pc_zero_and_full_turn_deltas_match_dked(rng):
    # exact equality whenever delta / wavelength is an exact float integer
    lam = 0.5
    for _ in range(20):
        nu1, nu2 = rng.uniform(-3, 4, 2)
        plain = dked_loss(float(nu1), float(nu2))
        assert dked_pc_loss(float(nu1), float(nu2), 0.0, 0.0, lam) == plain
        assert dked_pc_loss(float(nu1), float(nu2), lam, lam, lam) == plain
        assert dked_pc_loss(float(nu1), float(nu2), 3 * lam, 7 * lam, lam) == plain
    # non-representable quotients still agree to rounding noise
    lam = 0.005
    for _ in range(10):
        nu1, nu2 = rng.uniform(-3, 4, 2)
        plain = dked_loss(float(nu1), float(nu2))
        assert dked_pc_loss(float(nu1), float(nu2), 2 * lam, 5 * lam, lam) == pytest.approx(
            plain, abs=1e-9)


def test_dked_pc_rejects_negative_deltas():
    with pytest.raises(GeometryError):
        dked_pc_loss(0.0, 1.0, -0.1, 0.0, 0.005)


def test_dked_pc_cap_on_destructive_null():
    diagnostics.reset()
    # equal edges, half-turn relative phase: exact cancellation, capped
    lam = 0.005
    loss = dked_pc_loss(1.0, 1.0, 0.25 * lam, 0.75 * lam, lam)
    assert loss == LOSS_CAP_DB
    assert diagnostics.total >= 1
    diagnostics.reset()


# --- semi-empirical thin screen ----------------------------------------------

def test_itu_se_far_from_path_vanishes():
    assert abs(itu_se_of(crossing_geometry(2.0))) < 0.1


def test_itu_se_tracks_dked_in_shadow():
    geom = crossing_geometry(0.0)
    dked = dked_loss(diffraction_parameter(geom.w1), diffraction_parameter(geom.w2))
    itu = itu_se_of(geom)
    # frozen from the implemented composition; the independent oracle that
    # keeps the ground-level edge (which the far-field cutoff drops here)
    # gives 11.5658, 0.007 dB away
    assert itu == pytest.approx(11.572522, abs=1e-3)
    assert itu == pytest.approx(11.565779, abs=0.05)
    assert abs(itu - dked) < 3.0


def test_itu_se_mirror_symmetry():
    left = itu_se_of(crossing_geometry(-0.4))
    right = itu_se_of(crossing_geometry(+0.4))
    assert left == pytest.approx(right, abs=1e-9)


def test_itu_se_warns_outside_small_wavelength_regime(caplog):
    # the loss function itself does not test the regime: the obstacle does,
    # and a direct interact reports it (a run logs one line, see
    # test_environment)
    import logging

    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=ItuSe(),
                      mobility=Static((4.0, 0.0, 0.85)))
    ray = make_ray(TX, RX)
    with caplog.at_level(logging.WARNING, logger="rayblock.diffraction"):
        interact(screen, ray, 0.0, WAVELENGTH_60GHZ)
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="rayblock.diffraction"):
        interact(screen, ray, 0.0, 0.125)
    assert [r.getMessage() for r in caplog.records] == [
        "semi-empirical screen model outside its small-wavelength regime "
        "in 1 evaluations (lambda=0.125 m)"]
    caplog.clear()
    counters = InteractionCounters()
    with caplog.at_level(logging.WARNING, logger="rayblock.diffraction"):
        interact(screen, ray, 0.0, 0.125, counters=counters)
    assert counters.out_of_regime == 1  # the caller reports it
    assert not caplog.records


def test_itu_se_fluctuates_across_shadow_transition():
    # fringes on the lit side approaching the shadow edge
    offsets = np.arange(-0.6, -0.101, 0.002)
    losses = np.array([itu_se_of(crossing_geometry(float(o))) for o in offsets])
    sign_changes = np.sum(np.diff(np.sign(np.diff(losses))) != 0)
    assert sign_changes >= 10


# --- shared invariants ------------------------------------------------------

def _swap(geom: ScreenDiffractionGeometry) -> ScreenDiffractionGeometry:
    def flip(e: EdgeGeometry) -> EdgeGeometry:
        return EdgeGeometry(d_tx=e.d_rx, d_rx=e.d_tx, distance=e.distance,
                            depth=e.depth, wavelength=e.wavelength,
                            los_distance=e.los_distance)

    return ScreenDiffractionGeometry(w1=flip(geom.w1), w2=flip(geom.w2),
                                     h1=flip(geom.h1), h2=flip(geom.h2),
                                     los_blocked=geom.los_blocked)


@pytest.mark.parametrize("offset", [0.0, 0.05, -0.3, 0.7])
def test_reciprocity_under_node_swap(offset):
    geom = crossing_geometry(offset, along=2.5)  # asymmetric split
    swapped = _swap(geom)
    for fn in (metis_of, itu_se_of):
        assert fn(geom) == pytest.approx(fn(swapped), abs=1e-9)
    nu = (diffraction_parameter(geom.w1), diffraction_parameter(geom.w2))
    nu_s = (diffraction_parameter(swapped.w1), diffraction_parameter(swapped.w2))
    assert dked_loss(*nu) == pytest.approx(dked_loss(*nu_s), abs=1e-9)
    assert dked_pc_loss(nu[0], nu[1], geom.w1.excess_path, geom.w2.excess_path,
                        geom.w1.wavelength) == pytest.approx(
        dked_pc_loss(nu_s[0], nu_s[1], swapped.w1.excess_path, swapped.w2.excess_path,
                     swapped.w1.wavelength), abs=1e-9)


def test_vanishing_obstacle_limit_all_models():
    r1 = math.sqrt(WAVELENGTH_60GHZ * 16.0 / 8.0)
    for radii in (11.0, 15.0, 22.0, 30.0):
        geom = crossing_geometry(radii * r1 + 0.1)  # near edge beyond radii * r1
        assert abs(metis_of(geom)) < 0.1
        assert abs(itu_se_of(geom)) < 0.1
        nu1, nu2 = diffraction_parameter(geom.w1), diffraction_parameter(geom.w2)
        assert abs(dked_loss(nu1, nu2)) < 0.1
        assert abs(dked_pc_loss(nu1, nu2, geom.w1.excess_path, geom.w2.excess_path,
                                WAVELENGTH_60GHZ)) < 0.1


def test_transition_jump_measured_not_asserted(capsys):
    """The models are discontinuous at the shadow boundary; report the size."""
    just_out = crossing_geometry(0.10001 + 0.1)
    just_in = crossing_geometry(0.09999 + 0.1 - 0.1)  # offset 0.09999: still blocked
    jump_metis = abs(metis_of(just_in) - metis_of(just_out))
    jump_itu = abs(itu_se_of(just_in) - itu_se_of(just_out))
    print(f"shadow-transition jumps: metis {jump_metis:.3f} dB, itu_se {jump_itu:.3f} dB")
    assert math.isfinite(jump_metis) and math.isfinite(jump_itu)

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
    Dked,
    DkedPc,
    ItuSe,
    Metis,
    Obstruction,
    diagnostics,
    _itu_edge_factor,
    dked_loss,
    dked_pc_loss,
    itu_se_loss,
    metis_edge_term,
    metis_loss,
    sked,
)
from conftest import edge_row, make_ray
from rayblock import obstacles
from rayblock.errors import GeometryError
from rayblock.obstacles import (
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    Static,
    interact,
)

WAVELENGTH_60GHZ = 299792458.0 / 60e9

# Reference geometry: nodes 8 m apart at 1.6 m height, 0.2 x 1.7 m screen
# standing on the ground, crossing the path laterally at midspan.
TX = (0.0, 0.0, 1.6)
RX = (8.0, 0.0, 1.6)


def crossing_loss(model, lateral_offset: float, along: float = 4.0,
                  reverse: bool = False) -> float:
    """Loss of the reference screen at lateral_offset, with no range gating."""
    obstacle = Obstacle(shape=ScreenShape(0.2, 1.7),
                        mobility=Static((along, lateral_offset, 0.85)), model=model,
                        distance_threshold=1e9)
    ray = make_ray(RX, TX) if reverse else make_ray(TX, RX)
    return interact(obstacle, ray, 0.0, WAVELENGTH_60GHZ).loss_db


def crossing_edges(lateral_offset: float):
    """(blocked, edges) of the reference screen's candidate-table row."""
    return edge_row(ScreenShape(0.2, 1.7), (4.0, lateral_offset, 0.85), TX, RX,
                    WAVELENGTH_60GHZ)


def _metis_term(d_tx: float, d_rx: float, distance: float, sign: float) -> float:
    return metis_edge_term(d_tx + d_rx - distance, 0.005, sign)


def test_obstruction_loss_values():
    assert crossing_loss(Obstruction(10.0), 0.0) == 10.0  # blocked
    assert crossing_loss(Obstruction(10.0), 2.0) == 0.0
    assert crossing_loss(Obstruction(0.0), 0.0) == 0.0
    with pytest.raises(GeometryError):
        Obstruction(-1.0)


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
    assert _metis_term(4.0, 4.0, 8.0, 1.0) == 0.0


def test_metis_edge_term_saturates():
    assert _metis_term(5.0, 5.0, 8.0, 1.0) == pytest.approx(0.5, abs=1e-3)
    assert _metis_term(8.0, 8.0, 8.0, 1.0) == 0.5


def test_metis_edge_term_odd_in_sign(rng):
    for _ in range(20):
        extra = rng.uniform(0, 0.5)
        d_tx = 4.0 + extra
        assert _metis_term(d_tx, 4.0, 8.0, -1.0) == -_metis_term(d_tx, 4.0, 8.0, 1.0)


def test_metis_edge_term_rejects_short_path():
    # an edge path of 3.9 + 3.9 m around an 8 m direct path
    with pytest.raises(GeometryError):
        metis_edge_term(3.9 + 3.9 - 8.0, 0.005, 1.0)


def test_metis_symmetric_center_crossing():
    blocked, edges = crossing_edges(0.0)
    assert blocked
    t_w1 = metis_edge_term(edges["w1"]["excess"], WAVELENGTH_60GHZ, 1.0)
    t_w2 = metis_edge_term(edges["w2"]["excess"], WAVELENGTH_60GHZ, 1.0)
    assert t_w1 == pytest.approx(t_w2, abs=1e-9)


def test_metis_center_crossing_golden_value():
    # oracle: direct four-edge evaluation, frozen
    assert crossing_loss(Metis(), 0.0) == pytest.approx(7.873226, abs=1e-3)


def test_metis_far_from_path_vanishes():
    loss = crossing_loss(Metis(), 2.0)
    assert abs(loss) < 0.05


def test_metis_clamp_counter():
    # a 4 x 4 m screen across the 8 m path puts all four edges beyond the
    # far-field cutoff: the arctan product reaches 1 and the log argument 0
    diagnostics.reset()
    screen = Obstacle(shape=ScreenShape(4.0, 4.0), mobility=Static((4.0, 0.0, 1.6)),
                      model=Metis(), distance_threshold=1e9)
    loss = interact(screen, make_ray(TX, RX), 0.0, WAVELENGTH_60GHZ).loss_db
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
    loss = crossing_loss(Dked(), 0.0)
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
    assert abs(crossing_loss(ItuSe(), 2.0)) < 0.1


def test_itu_se_tracks_dked_in_shadow():
    dked = crossing_loss(Dked(), 0.0)
    itu = crossing_loss(ItuSe(), 0.0)
    # frozen from the implemented composition; the independent oracle that
    # keeps the ground-level edge (which the far-field cutoff drops here)
    # gives 11.5658, 0.007 dB away
    assert itu == pytest.approx(11.572522, abs=1e-3)
    assert itu == pytest.approx(11.565779, abs=0.05)
    assert abs(itu - dked) < 3.0


def test_itu_se_mirror_symmetry():
    left = crossing_loss(ItuSe(), -0.4)
    right = crossing_loss(ItuSe(), +0.4)
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


def test_itu_edge_factor_lit_side_is_the_babinet_complement():
    # the lit side's own branch gives the bits of 1 - (shadow side at -nu)
    for nu in np.linspace(-FAR_FIELD_NU, -1e-9, 2001).tolist() + [-1e-300, -5e-324]:
        assert _itu_edge_factor(nu) == 1.0 - _itu_edge_factor(-nu)
    assert _itu_edge_factor(-0.0) == _itu_edge_factor(0.0)


# --- non-finite arguments -------------------------------------------------------

def _with_nan(values: tuple, i: int) -> tuple:
    return values[:i] + (math.nan,) + values[i + 1:]


EXCESS = (0.01, 0.02, 0.03, 0.04)
NUS = (0.3, -0.5, 1.2, -2.0)
NAN_CALLS = {
    **{f"metis_excess{i}_blocked{b}": (lambda i=i, b=b: metis_loss(
        _with_nan(EXCESS, i), EXCESS, 0.005, b)) for i in range(4) for b in (0, 1)},
    **{f"metis_los{i}_blocked{b}": (lambda i=i, b=b: metis_loss(
        EXCESS, _with_nan(EXCESS, i), 0.005, b)) for i in range(4) for b in (0, 1)},
    **{f"metis_wavelength_blocked{b}": (lambda b=b: metis_loss(EXCESS, EXCESS, math.nan, b))
       for b in (0, 1)},
    "metis_edge_term_excess": lambda: metis_edge_term(math.nan, 0.005, 1.0),
    "metis_edge_term_wavelength": lambda: metis_edge_term(0.01, math.nan, 1.0),
    **{f"dked_arg{i}": (lambda i=i: dked_loss(*_with_nan((0.3, -0.5), i))) for i in range(2)},
    **{f"dked_pc_arg{i}": (lambda i=i: dked_pc_loss(*_with_nan((0.3, -0.5, 0.01, 0.02, 0.005), i)))
       for i in range(5)},
    **{f"itu_se_nu{i}_blocked{b}": (lambda i=i, b=b: itu_se_loss(_with_nan(NUS, i), b))
       for i in range(4) for b in (0, 1)},
    "obstruction": lambda: Obstruction(math.nan),
}


@pytest.mark.parametrize("call", list(NAN_CALLS.values()), ids=list(NAN_CALLS))
def test_every_loss_model_rejects_a_nan_argument(call):
    # a NaN would otherwise print as a loss, be skipped as a far edge, or
    # recurse without end (itu_se's lit side)
    with pytest.raises(GeometryError):
        call()


def test_infinite_arguments_stay_asymptotic():
    inf = math.inf
    assert metis_edge_term(inf, 0.005, 1.0) == 0.5
    assert metis_edge_term(inf, 0.005, -1.0) == -0.5
    assert metis_loss((inf,) * 4, (1.0, 2.0, 3.0, 4.0), 0.005, True) == LOSS_CAP_DB
    assert dked_loss(inf, -inf) == 0.0
    assert dked_loss(inf, inf) == LOSS_CAP_DB
    assert itu_se_loss((-inf, inf, -inf, inf), False) == 0.0
    assert itu_se_loss((inf, inf, inf, inf), True) == LOSS_CAP_DB
    assert _itu_edge_factor(inf) == 0.0 and _itu_edge_factor(-inf) == 1.0


@pytest.mark.parametrize("excess", [(math.inf, 0.0), (0.0, math.inf), (math.inf, math.inf)])
def test_dked_pc_rejects_an_infinite_excess_path(excess):
    # an infinite path has no phase; round() of its turns raised OverflowError
    with pytest.raises(GeometryError, match="finite"):
        dked_pc_loss(0.5, 0.5, *excess, 0.005)
    assert dked_pc_loss(0.5, 0.5, 1e6, 0.0, 0.005) > 0.0  # a long finite path keeps its phase


def test_itu_se_fluctuates_across_shadow_transition():
    # fringes on the lit side approaching the shadow edge
    offsets = np.arange(-0.6, -0.101, 0.002)
    losses = np.array([crossing_loss(ItuSe(), float(o)) for o in offsets])
    sign_changes = np.sum(np.diff(np.sign(np.diff(losses))) != 0)
    assert sign_changes >= 10


# --- shared invariants ------------------------------------------------------

@pytest.mark.parametrize("offset", [0.0, 0.05, -0.3, 0.7])
def test_reciprocity_under_node_swap(offset):
    # the reversed path swaps every edge's distances to the two nodes
    for model in (Metis(), ItuSe(), Dked(), DkedPc()):
        forward = crossing_loss(model, offset, along=2.5)  # asymmetric split
        assert forward == pytest.approx(crossing_loss(model, offset, along=2.5, reverse=True),
                                        abs=1e-9)


def test_vanishing_obstacle_limit_all_models():
    r1 = math.sqrt(WAVELENGTH_60GHZ * 16.0 / 8.0)
    for radii in (11.0, 15.0, 22.0, 30.0):
        offset = radii * r1 + 0.1  # near edge beyond radii * r1
        for model in (Metis(), ItuSe(), Dked(), DkedPc()):
            assert abs(crossing_loss(model, offset)) < 0.1


def test_transition_jump_measured_not_asserted(capsys):
    """The models are discontinuous at the shadow boundary; report the size."""
    just_out = 0.10001 + 0.1
    just_in = 0.09999 + 0.1 - 0.1  # offset 0.09999: still blocked
    jump_metis = abs(crossing_loss(Metis(), just_in) - crossing_loss(Metis(), just_out))
    jump_itu = abs(crossing_loss(ItuSe(), just_in) - crossing_loss(ItuSe(), just_out))
    print(f"shadow-transition jumps: metis {jump_metis:.3f} dB, itu_se {jump_itu:.3f} dB")
    assert math.isfinite(jump_metis) and math.isfinite(jump_itu)


# --- the edge table a model set reads ---------------------------------------

def _edge_table_of(models):
    """The edge table of the reference screen at midspan against the path."""
    shape = ScreenShape(0.2, 1.7)
    centers, starts, ends = (np.array([p], dtype=np.float64) for p in ((4.0, 0.0, 0.85), TX, RX))
    u, v, _ = obstacles._screen_axes(shape, starts, ends)
    depths, _, _ = obstacles._screen_cross_section(centers, u, v, 0.1, 0.85, starts, ends)
    return obstacles._edge_table(shape, models, centers, u, v, starts, ends, depths,
                                 np.array([0]), WAVELENGTH_60GHZ)


@pytest.mark.parametrize("models, edges, values", [
    ([Dked()], ("w1", "w2"), {"nu"}),
    ([DkedPc()], ("w1", "w2"), {"nu", "excess"}),
    ([Metis()], ("w1", "w2", "h1", "h2"), {"excess", "los"}),
    ([ItuSe()], ("w1", "w2", "h1", "h2"), {"nu"}),
    ([Dked(), Metis()], ("w1", "w2", "h1", "h2"), {"nu", "excess", "los"}),
], ids=["dked", "dked_pc", "metis", "itu_se", "dked+metis"])
def test_the_edge_table_holds_exactly_the_values_its_models_read(models, edges, values):
    table = _edge_table_of(models)
    assert tuple(table.on_edge) == edges
    for value in ("nu", "excess", "los"):
        assert tuple(getattr(table, value)) == (edges if value in values else ())

"""The per-row loss path runs on Python floats.

The Fresnel series with tuple coefficients equals the numpy-coefficient
series it replaced (kept here as the oracle) bit for bit, and so do sked,
dked_loss and dked_pc_loss built on it. Every per-row loss function returns
a Python float or complex, and the rows handed to _segment_outcome hold
Python floats only, so a numpy scalar leaking back into the path fails.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_los_trace
from rayblock import _kernels, cli, diffraction, obstacles
from rayblock.diffraction import (
    FAR_FIELD_NU,
    LOSS_CAP_DB,
    Dked,
    DkedPc,
    ItuSe,
    Metis,
    dked_loss,
    dked_pc_loss,
    fresnel_integral,
    itu_se_loss,
    metis_loss,
    sked,
)
from rayblock.environment import SimulationConfig, run
from rayblock.obstacles import LinearMobility, Obstacle, OrthoScreenShape

# The series as it ran on numpy coefficient arrays, each term a numpy scalar.
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


def oracle_fresnel_cs(nu):
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


def oracle_sked(nu):
    if nu >= FAR_FIELD_NU:
        return 0.0 + 0.0j
    if nu <= -FAR_FIELD_NU:
        return 1.0 + 0.0j
    c, s = oracle_fresnel_cs(nu)
    return 0.5 * (1.0 + 1.0j) * ((0.5 - c) - 1.0j * (0.5 - s))


def oracle_dked_loss(nu1, nu2):
    return diffraction._magnitude_loss(abs(oracle_sked(nu1) + oracle_sked(nu2)))


def oracle_dked_pc_loss(nu1, nu2, delta1, delta2, wavelength):
    total = (oracle_sked(nu1) * diffraction._turn_phasor(delta1, wavelength)
             + oracle_sked(nu2) * diffraction._turn_phasor(delta2, wavelength))
    return diffraction._magnitude_loss(abs(total))


def bits(value):
    """The exact value of a float or complex, signed zeros told apart."""
    z = complex(value)
    return z.real.hex(), z.imag.hex()


def with_caps(loss, *args):
    """A loss function's value and the capped events it counted."""
    before = diffraction.diagnostics.total
    value = loss(*args)
    return bits(value), diffraction.diagnostics.total - before


# x = pi nu^2 / 2 reaches 4, where the series switches branch, at NU_4
NU_4 = math.sqrt(8.0 / math.pi)
_NU_4_NEIGHBOURS = [NU_4 + k * math.ulp(NU_4) for k in range(-4, 5)]
SPECIAL_NUS = (
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
     FAR_FIELD_NU, -FAR_FIELD_NU, math.nextafter(FAR_FIELD_NU, 0.0),
     math.nextafter(-FAR_FIELD_NU, 0.0)]
    + _NU_4_NEIGHBOURS + [-nu for nu in _NU_4_NEIGHBOURS]
)

nus = st.one_of(
    st.floats(-1.25 * FAR_FIELD_NU, 1.25 * FAR_FIELD_NU),
    st.floats(NU_4 - 1e-6, NU_4 + 1e-6),
    st.floats(-NU_4 - 1e-6, -NU_4 + 1e-6),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(SPECIAL_NUS),
)
# both edges at or beyond the far-field cutoff: sked is 0 and the row capped
capped_nus = st.floats(FAR_FIELD_NU, 4.0 * FAR_FIELD_NU)
nu_pairs = st.one_of(st.tuples(nus, nus), st.tuples(capped_nus, capped_nus))

SCALAR_SETTINGS = settings(derandomize=True, max_examples=600, deadline=None)


def test_the_special_values_straddle_the_branch_switch():
    sides = {0.5 * math.pi * nu * nu < 4.0 for nu in _NU_4_NEIGHBOURS}
    assert sides == {True, False}


@SCALAR_SETTINGS
@given(st.one_of(nus, st.floats(-1e3, 1e3)))
def test_fresnel_cs_equals_the_numpy_coefficient_oracle(nu):
    got = _kernels.fresnel_cs(nu)
    want = oracle_fresnel_cs(nu)
    assert [bits(v) for v in got] == [bits(v) for v in want]


@pytest.mark.parametrize("nu", SPECIAL_NUS)
def test_fresnel_cs_equals_the_oracle_at_the_special_values(nu):
    assert ([bits(v) for v in _kernels.fresnel_cs(nu)]
            == [bits(v) for v in oracle_fresnel_cs(nu)])


@SCALAR_SETTINGS
@given(nus)
def test_sked_equals_the_oracle(nu):
    assert bits(sked(nu)) == bits(oracle_sked(nu))


@SCALAR_SETTINGS
@given(nu_pairs)
@example((FAR_FIELD_NU, FAR_FIELD_NU))
def test_dked_loss_equals_the_oracle(pair):
    assert with_caps(dked_loss, *pair) == with_caps(oracle_dked_loss, *pair)


@SCALAR_SETTINGS
@given(nu_pairs, st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(1e-3, 0.2))
@example((FAR_FIELD_NU, FAR_FIELD_NU), 0.0, 0.0, 0.005)
def test_dked_pc_loss_equals_the_oracle(pair, delta1, delta2, wavelength):
    row = (*pair, delta1, delta2, wavelength)
    assert with_caps(dked_pc_loss, *row) == with_caps(oracle_dked_pc_loss, *row)


WAVELENGTH = 0.005
FAR = 2.0 * FAR_FIELD_NU
# (lit, shadowed, capped) rows of each per-row loss function
LOSS_ROWS = {
    "dked_loss": (dked_loss, [(-2.0, -1.5), (0.8, 1.1), (FAR, FAR)]),
    "dked_pc_loss": (dked_pc_loss, [(-2.0, -1.5, 0.001, 0.002, WAVELENGTH),
                                    (0.8, 1.1, 0.01, 0.02, WAVELENGTH),
                                    (FAR, FAR, 0.5, 0.6, WAVELENGTH)]),
    "metis_loss": (metis_loss, [((0.001, 0.002, 0.003, 0.004), (0.1, 0.2, 0.3, 0.4),
                                 WAVELENGTH, False),
                                ((0.001, 0.002, 0.003, 0.004), (0.1, 0.2, 0.3, 0.4),
                                 WAVELENGTH, True),
                                ((100.0,) * 4, (3.0,) * 4, WAVELENGTH, True)]),
    "itu_se_loss": (itu_se_loss, [((-2.0, -1.0, -3.0, -0.5), False),
                                  ((0.8, 1.2, 0.5, 2.0), True),
                                  ((FAR,) * 4, True)]),
}


@pytest.mark.parametrize("name", LOSS_ROWS)
def test_loss_functions_return_python_floats(name):
    loss, rows = LOSS_ROWS[name]
    values = [loss(*row) for row in rows]
    assert [type(v) for v in values] == [float] * 3
    assert values[0] < values[1] < values[2] == LOSS_CAP_DB


@pytest.mark.parametrize("nu", [-FAR, -1.0, 0.0, 0.7, NU_4, 3.0, FAR])
def test_fresnel_and_sked_return_python_numbers(nu):
    c, s = fresnel_integral(nu)
    assert (type(c), type(s)) == (float, float)
    assert type(sked(nu)) is complex


def _record_rows(monkeypatch):
    """Wrap _segment_outcome to keep every row it is called with."""
    calls = []
    outcome = obstacles._segment_outcome

    def recording(model, wavelength, blocked, *row):
        result = outcome(model, wavelength, blocked, *row)
        calls.append((wavelength, blocked, row, result.loss_db))
        return result

    monkeypatch.setattr(obstacles, "_segment_outcome", recording)
    return calls


def _assert_plain(calls):
    assert calls
    for wavelength, blocked, row, loss in calls:
        assert type(wavelength) is float
        assert type(blocked) is bool
        assert type(loss) is float
        for values in row:
            assert values is None or all(type(v) is float for v in values)


@pytest.mark.parametrize("model", [Dked(), DkedPc(), Metis(), ItuSe()],
                         ids=["dked", "dked_pc", "metis", "itu_se"])
def test_a_run_hands_plain_floats_to_the_loss_models(monkeypatch, model):
    calls = _record_rows(monkeypatch)
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=model,
                      mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 20.0, 0.0)))
    trace = build_los_trace((0.0, 0.0, 1.6), (8.0, 0.0, 1.6), 6, 0.005)
    run(trace, SimulationConfig(obstacles=(screen,)), workers=1)
    _assert_plain(calls)


def test_the_sweeps_hand_plain_floats_to_the_loss_models(monkeypatch):
    calls = _record_rows(monkeypatch)
    offsets = np.linspace(-0.5, 0.5, 11)
    cli.run_frequency_sweep(frequencies_hz=(30e9, 60e9), offsets=offsets)
    cli.run_position_sweep(samples=5)
    _assert_plain(calls)

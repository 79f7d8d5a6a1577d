"""Fresnel kernels: the integral evaluators and the parameter map."""

import math

import numpy as np
import pytest

from conftest import fresnel_cs_grid
from rayblock.diffraction import (
    diffraction_parameter,
    fresnel_integral,
    fresnel_integral_grid,
    fresnel_quadrature,
)
from rayblock.errors import GeometryError
from rayblock.obstacles import _EdgeColumns


def test_fresnel_zero():
    assert fresnel_integral(0.0) == (0.0, 0.0)
    assert fresnel_quadrature(0.0) == (0.0, 0.0)


def test_fresnel_reference_point_both_methods():
    # the series and the quadrature oracle
    for evaluate in (fresnel_integral, fresnel_quadrature):
        c, s = evaluate(1.0)
        assert c == pytest.approx(0.7798934, abs=1e-6)
        assert s == pytest.approx(0.4382591, abs=1e-6)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_fresnel_rejects_a_non_finite_nu(nu):
    with pytest.raises(GeometryError):
        fresnel_integral(nu)


def test_fresnel_odd_symmetry(rng):
    nus = rng.uniform(-10, 10, 1000)
    for nu in nus:
        plus = fresnel_integral(float(nu))
        minus = fresnel_integral(float(-nu))
        assert minus == (-plus[0], -plus[1])
    for nu in rng.uniform(0.1, 6, 10):
        plus = fresnel_quadrature(float(nu))
        minus = fresnel_quadrature(float(-nu))
        assert minus == (-plus[0], -plus[1])


def test_fresnel_component_bounds():
    nus = np.linspace(-30, 30, 6001)
    c, s = fresnel_cs_grid(nus)
    assert np.abs(c).max() <= 0.81
    assert np.abs(s).max() <= 0.72


def test_fast_approximation_matches_quadrature():
    nus = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    c_fast, s_fast = fresnel_cs_grid(nus)
    c_ref, s_ref = fresnel_integral_grid(nus)
    assert np.abs(c_fast - c_ref).max() < 2e-3
    assert np.abs(s_fast - s_ref).max() < 2e-3


def _edge(depth, d_tx=4.0, d_rx=4.0, distance=8.0, wavelength=0.005):
    """One candidate's edge columns, as plain floats."""
    return _EdgeColumns(d_tx=d_tx, d_rx=d_rx, distance=distance, depth=depth,
                        wavelength=wavelength, los_distance=None)


def test_diffraction_parameter_zero_depth():
    assert diffraction_parameter(_edge(0.0)) == 0.0


def test_diffraction_parameter_reference_value():
    # 0.1 * sqrt((2/0.005) * 8/16) = 0.1 * sqrt(200)
    nu = diffraction_parameter(_edge(0.1))
    assert nu == pytest.approx(1.41421356, abs=1e-6)
    # cross-check against the first Fresnel radius: nu = depth * sqrt(2) / r1
    r1 = math.sqrt(0.005 * 4.0 * 4.0 / 8.0)
    assert nu == pytest.approx(0.1 * math.sqrt(2.0) / r1, rel=1e-9)


def test_diffraction_parameter_linear_in_depth():
    assert diffraction_parameter(_edge(0.2)) == pytest.approx(
        2.0 * diffraction_parameter(_edge(0.1)), rel=1e-12)

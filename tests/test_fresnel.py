"""Fresnel kernels: zone radii, the integral evaluators, the parameter map."""

import math

import numpy as np
import pytest

from conftest import fresnel_cs_grid
from rayblock.diffraction import (
    EdgeGeometry,
    diffraction_parameter,
    fresnel_integral,
    fresnel_integral_grid,
    fresnel_quadrature,
    fresnel_zone_radius,
)
from rayblock.errors import GeometryError


def test_zone_radius_reference_value():
    # 60 GHz-ish wavelength, symmetric 8 m link: r1 = sqrt(0.005 * 16 / 8) = 0.1
    assert fresnel_zone_radius(1, 0.005, 4.0, 4.0) == pytest.approx(0.1, abs=1e-12)


def test_zone_radius_sqrt_n_scaling():
    r1 = fresnel_zone_radius(1, 0.005, 4.0, 4.0)
    r4 = fresnel_zone_radius(4, 0.005, 4.0, 4.0)
    assert r4 == pytest.approx(2.0 * r1, rel=1e-12)


def test_zone_radius_vanishes_near_node():
    assert fresnel_zone_radius(1, 0.005, 1e-9, 4.0) < 1e-4


def test_zone_radius_rejects_bad_input():
    with pytest.raises(GeometryError):
        fresnel_zone_radius(0, 0.005, 4.0, 4.0)
    with pytest.raises(GeometryError):
        fresnel_zone_radius(1, -0.005, 4.0, 4.0)
    with pytest.raises(GeometryError):
        fresnel_zone_radius(1, 0.005, 0.0, 4.0)


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
    return EdgeGeometry(d_tx=d_tx, d_rx=d_rx, distance=distance, depth=depth,
                        wavelength=wavelength)


def test_diffraction_parameter_zero_depth():
    assert diffraction_parameter(_edge(0.0)) == 0.0


def test_diffraction_parameter_reference_value():
    # 0.1 * sqrt((2/0.005) * 8/16) = 0.1 * sqrt(200)
    nu = diffraction_parameter(_edge(0.1))
    assert nu == pytest.approx(1.41421356, abs=1e-6)
    # cross-check against the first Fresnel radius: nu = depth * sqrt(2) / r1
    r1 = fresnel_zone_radius(1, 0.005, 4.0, 4.0)
    assert nu == pytest.approx(0.1 * math.sqrt(2.0) / r1, rel=1e-9)


def test_diffraction_parameter_linear_in_depth():
    assert diffraction_parameter(_edge(0.2)) == pytest.approx(
        2.0 * diffraction_parameter(_edge(0.1)), rel=1e-12)


def test_edge_geometry_validates_triangle_inequality():
    with pytest.raises(GeometryError):
        EdgeGeometry(d_tx=3.0, d_rx=3.0, distance=8.0, depth=0.1, wavelength=0.005)
    with pytest.raises(GeometryError):
        EdgeGeometry(d_tx=-1.0, d_rx=4.0, distance=2.0, depth=0.1, wavelength=0.005)
    with pytest.raises(GeometryError):
        EdgeGeometry(d_tx=4.0, d_rx=4.0, distance=8.0, depth=0.1, wavelength=0.0)

"""Minimal link-level evaluation: planar arrays, conjugate beamforming
toward the strongest ray, thermal noise floor, per-timestep SNR.

Rays combine coherently with carrier phases derived from their delays
(narrowband assumption), which reproduces the small-scale fading of traces
with several comparable paths. Beams re-match the strongest ray at every
timestep; no tracking hysteresis is modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .trace import SPEED_OF_LIGHT, ChannelTrace, Ray, angles_of_arrival, angles_of_departure

NOISE_DENSITY_DBM_HZ = -174.0  # thermal noise at the 290 K reference


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array; element spacing is a fraction of the wavelength."""

    rows: int
    cols: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("array needs at least one row and one column")
        if self.spacing <= 0:
            raise ConfigError("element spacing must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class LinkBudget:
    carrier_frequency_hz: float = 60e9
    bandwidth_hz: float = 2.16e9
    tx_power_dbm: float = 20.0
    noise_figure_db: float = 10.0
    tx_array: ArrayConfig = ArrayConfig(8, 8)
    rx_array: ArrayConfig = ArrayConfig(4, 4)

    def __post_init__(self):
        if self.carrier_frequency_hz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigError("carrier frequency and bandwidth must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz


def steering_vector(array: ArrayConfig, azimuth: float, elevation: float,
                    wavelength: float) -> np.ndarray:
    """Unit-norm phasor vector of a planar array toward (azimuth, elevation).

    Elements sit in the y-z plane (columns along y, rows along z); the
    broadside +x direction yields the all-equal-phase vector. The result is
    flattened row-major (row index slowest).
    """
    if wavelength <= 0:
        raise ConfigError("wavelength must be positive")
    col_phase = 2.0 * math.pi * array.spacing * math.cos(elevation) * math.sin(azimuth)
    row_phase = 2.0 * math.pi * array.spacing * math.sin(elevation)
    rows = np.arange(array.rows)[:, np.newaxis]
    cols = np.arange(array.cols)[np.newaxis, :]
    phases = rows * row_phase + cols * col_phase
    return np.exp(1j * phases).reshape(-1) / math.sqrt(array.size)


def noise_power_dbm(budget: LinkBudget) -> float:
    """Thermal noise power over the budget bandwidth, noise figure included."""
    return NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(budget.bandwidth_hz) + budget.noise_figure_db


def _beamformed_amplitude(rays: list[Ray], budget: LinkBudget) -> complex:
    wavelength = budget.wavelength
    # conjugate-matched weights toward the strongest ray (ties: lower index)
    strongest = max(range(len(rays)), key=lambda i: (rays[i].path_gain_db, -i))
    aod0 = angles_of_departure(rays[strongest])
    aoa0 = angles_of_arrival(rays[strongest])
    w_tx = steering_vector(budget.tx_array, aod0[0], aod0[1], wavelength)
    w_rx = steering_vector(budget.rx_array, aoa0[0], aoa0[1], wavelength)
    scale = math.sqrt(budget.tx_array.size * budget.rx_array.size)

    total = 0.0 + 0.0j
    for ray in rays:
        aod = angles_of_departure(ray)
        aoa = angles_of_arrival(ray)
        g_tx = np.vdot(w_tx, steering_vector(budget.tx_array, aod[0], aod[1], wavelength))
        g_rx = np.vdot(w_rx, steering_vector(budget.rx_array, aoa[0], aoa[1], wavelength))
        amplitude = 10.0 ** (ray.path_gain_db / 20.0)
        turns = budget.carrier_frequency_hz * ray.delay
        phase = -2.0 * math.pi * (turns - round(turns))
        total += amplitude * complex(math.cos(phase), math.sin(phase)) * g_tx * g_rx * scale
    return total


def snr_timeline(trace: ChannelTrace, pair: tuple[int, int],
                 budget: LinkBudget) -> np.ndarray:
    """(num_steps, 2) array of (time s, SNR dB) for one node pair.

    Timesteps without rays report -inf.
    """
    if pair not in trace.pairs:
        raise ConfigError(f"pair {pair} not present in trace")
    noise = noise_power_dbm(budget)
    out = np.empty((trace.num_steps, 2))
    out[:, 0] = trace.times()
    for k, rays in enumerate(trace.pairs[pair]):
        if not rays:
            out[k, 1] = -math.inf
            continue
        amplitude = abs(_beamformed_amplitude(rays, budget))
        if amplitude <= 0.0:
            out[k, 1] = -math.inf
            continue
        rx_power = budget.tx_power_dbm + 20.0 * math.log10(amplitude)
        out[k, 1] = rx_power - noise
    return out

"""Minimal link-level evaluation: planar arrays, conjugate beamforming
toward the strongest ray, thermal noise floor, per-timestep SNR.

Rays combine coherently with carrier phases derived from their delays
(narrowband assumption), which reproduces the small-scale fading of traces
with several comparable paths. Beams re-match the strongest ray at every
timestep (ties: lower ray index); no tracking hysteresis is modeled.

``snr_timeline`` evaluates one pair under one or several gain columns in
one batch: the rays' angles, array factors and carrier phasors once, then
per column one sort picks each step's beam target and ``np.bincount`` sums
each step's rays in ray order. A planar array's phasors separate into a
row factor and a column factor, so no (rays, elements) steering matrix is
built. A ray at -inf dB adds nothing, so a column with -inf in place of
some rays gives the SNR of the table without them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .trace import SPEED_OF_LIGHT, ChannelTrace, RayTable, direction_angles, path_directions

NOISE_DENSITY_DBM_HZ = -174.0  # thermal noise at the 290 K reference


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array; element spacing is a fraction of the wavelength."""

    rows: int
    cols: int
    spacing: float = 0.5

    def __post_init__(self):
        if not all(float(n).is_integer() and n >= 1 for n in (self.rows, self.cols)):
            raise ConfigError(f"array needs whole numbers >= 1 of rows and columns, "
                              f"got {self.rows!r} and {self.cols!r}")
        if not 0 < self.spacing < math.inf:
            raise ConfigError(f"element spacing must be finite and positive, got {self.spacing!r}")

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
        if not all(map(math.isfinite, (self.carrier_frequency_hz, self.bandwidth_hz,
                                       self.tx_power_dbm, self.noise_figure_db))):
            raise ConfigError("link budget numbers must be finite")
        if self.carrier_frequency_hz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigError("carrier frequency and bandwidth must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz


def _array_factors(array: ArrayConfig, azimuth: np.ndarray,
                   elevation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column phasors, (n, rows) and (n, cols), toward n directions.

    Each factor has unit norm, so the outer product of a direction's two
    rows is its unit-norm steering vector.
    """
    col_phase = 2.0 * math.pi * array.spacing * np.cos(elevation) * np.sin(azimuth)
    row_phase = 2.0 * math.pi * array.spacing * np.sin(elevation)
    rows = np.exp(1j * row_phase[:, np.newaxis] * np.arange(array.rows))
    cols = np.exp(1j * col_phase[:, np.newaxis] * np.arange(array.cols))
    return rows / math.sqrt(array.rows), cols / math.sqrt(array.cols)


def steering_vector(array: ArrayConfig, azimuth: float, elevation: float) -> np.ndarray:
    """Unit-norm phasor vector of a planar array toward (azimuth, elevation).

    Elements sit in the y-z plane (columns along y, rows along z); the
    broadside +x direction yields the all-equal-phase vector. The result is
    flattened row-major (row index slowest).
    """
    rows, cols = _array_factors(array, np.array([azimuth]), np.array([elevation]))
    return np.outer(rows[0], cols[0]).reshape(-1)


def _array_gains(factors: tuple[np.ndarray, np.ndarray], target: np.ndarray) -> np.ndarray:
    """Array gain toward each direction of weights matched to direction
    target[i], from the directions' (rows, cols) factors.

    The steering vectors' inner product is the product of their row and
    column factors' inner products.
    """
    rows, cols = factors
    return (np.sum(rows[target].conj() * rows, axis=1)
            * np.sum(cols[target].conj() * cols, axis=1))


def noise_power_dbm(budget: LinkBudget) -> float:
    """Thermal noise power over the budget bandwidth, noise figure included."""
    return NOISE_DENSITY_DBM_HZ + 10.0 * math.log10(budget.bandwidth_hz) + budget.noise_figure_db


def _beamformed_amplitudes(table: RayTable, budget: LinkBudget,
                           gains: Sequence[np.ndarray]) -> np.ndarray:
    """(steps, len(gains)) |coherent sum| of each step's rays under each gain
    column, beams matched to the step's strongest ray of that column."""
    counts = table.counts
    num_steps = counts.shape[0]
    step = table.ray_steps()
    departure, arrival = path_directions(table)
    tx_factors = _array_factors(budget.tx_array, *direction_angles(departure))
    rx_factors = _array_factors(budget.rx_array, *direction_angles(arrival))
    turns = budget.carrier_frequency_hz * table.delay
    phasors = np.exp(1j * (-2.0 * math.pi * (turns - np.round(turns))))
    scale = math.sqrt(budget.tx_array.size * budget.rx_array.size)
    index = np.arange(step.shape[0])
    filled = counts[counts > 0]

    out = np.empty((num_steps, len(gains)))
    for j, gain_db in enumerate(gains):
        # the strongest ray of each step, ties to the lower index: sorting by
        # (step, -gain, index) puts it first among its step's rays
        order = np.lexsort((index, -gain_db, step))
        target = np.repeat(order[np.cumsum(filled) - filled], filled)
        field = (10.0 ** (gain_db / 20.0) * phasors * _array_gains(tx_factors, target)
                 * _array_gains(rx_factors, target) * scale)
        out[:, j] = np.hypot(np.bincount(step, weights=field.real, minlength=num_steps),
                             np.bincount(step, weights=field.imag, minlength=num_steps))
    return out


def snr_timeline(trace: ChannelTrace, pair: tuple[int, int], budget: LinkBudget,
                 gains: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """(num_steps, 1 + k) array of time (s) and one SNR (dB) column per gain
    column for one node pair.

    gains holds k arrays of the pair's path gains (dB), one value per ray
    of trace.pairs[pair] in table order; by default the table's own, k = 1.
    Timesteps without rays, or whose rays are all at -inf, report -inf.
    """
    if pair not in trace.pairs:
        raise ConfigError(f"pair {pair} not present in trace")
    table = trace.pairs[pair]
    amplitude = _beamformed_amplitudes(table, budget, [table.gain] if gains is None else gains)
    heard = amplitude > 0.0
    snr = np.full(amplitude.shape, -math.inf)
    snr[heard] = (budget.tx_power_dbm + 20.0 * np.log10(amplitude[heard])
                  - noise_power_dbm(budget))
    return np.column_stack((trace.times(), snr))

"""Loss models for thin screens crossing a radio path.

Implements the constant-obstruction model, the four-edge arctan knife-edge
approximation, double knife-edge diffraction with and without per-edge
phase correction, and a semi-empirical thin-screen method that avoids the
Fresnel integral entirely (after ITU-R P.526-15: the single-edge loss
approximation of its section 4.1 combined per its section 5.1 finite-width
screen construction).

The edge geometry lives in ``obstacles``, as one column per edge value over
a chunk's candidates (``obstacles._EdgeColumns``); ``diffraction_parameter``
maps those columns to the signed diffraction parameter. Each model function
then evaluates one candidate from its row of plain floats (parameters,
depths, excess path lengths, distances from the direct-path line) and
returns a plain float.

The loss models evaluate the Fresnel integral with a closed-form series
(``fresnel_integral``, see _kernels); an adaptive quadrature
(``fresnel_quadrature``) is the reference oracle the tests compare it with.

The models share fixed constants rather than a settings object: every
loss is capped at ``LOSS_CAP_DB``, and edges beyond ``FAR_FIELD_NU`` take
their asymptotic value. The functions keep no state apart from the
module-level ``diagnostics``, which counts capped losses per process.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .errors import GeometryError

if TYPE_CHECKING:
    from .obstacles import _EdgeColumns

log = logging.getLogger(__name__)

# Far-field cutoff expressed as a diffraction parameter: an edge 10 first
# Fresnel radii away from the path has nu = 10*sqrt(2).
FAR_FIELD_NU = 10.0 * math.sqrt(2.0)

# Every model clamps its loss to this; amplitudes at or below the matching
# floor count as capped without taking their logarithm.
LOSS_CAP_DB = 80.0
_CAP_AMPLITUDE = 10.0 ** (-LOSS_CAP_DB / 20.0)

_QUADRATURE_TOL = 1e-9


class Diagnostics:
    """Per-process count of losses capped at LOSS_CAP_DB.

    A run reports its own clamp events: obstacles takes the change of this
    count around each model's loss pass into InteractionCounters.clamp_events,
    which the CLI prints. Only the end-to-end benchmark reads the total.
    """

    def __init__(self):
        self.total = 0

    def reset(self):
        self.total = 0


diagnostics = Diagnostics()


class LossModel:
    """Marker base for the loss model selectors."""


@dataclass(frozen=True)
class Obstruction(LossModel):
    loss_db: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.loss_db) and self.loss_db >= 0):
            raise GeometryError("obstruction loss must be >= 0 dB")


@dataclass(frozen=True)
class Metis(LossModel):
    pass


@dataclass(frozen=True)
class Dked(LossModel):
    pass


@dataclass(frozen=True)
class DkedPc(LossModel):
    pass


@dataclass(frozen=True)
class ItuSe(LossModel):
    pass


MODEL_REGISTRY: dict[str, type[LossModel]] = {
    "obstruction": Obstruction,
    "metis": Metis,
    "dked": Dked,
    "dked_pc": DkedPc,
    "itu_se": ItuSe,
}


def fresnel_quadrature(nu: float, tol: float = _QUADRATURE_TOL) -> tuple[float, float]:
    """C(nu), S(nu) by adaptive quadrature of the Fresnel integrand, split
    per unit interval: the reference oracle of fresnel_integral."""
    from scipy import integrate  # the oracle alone needs scipy; keep it off the import path

    a = abs(nu)
    if a == 0.0:
        return 0.0, 0.0
    pieces = max(int(math.ceil(a)), 1)
    bounds = np.linspace(0.0, a, pieces + 1)
    tol_piece = tol / pieces
    c = 0.0
    s = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        c += integrate.quad(lambda x: math.cos(0.5 * math.pi * x * x), lo, hi,
                            epsabs=tol_piece, limit=200)[0]
        s += integrate.quad(lambda x: math.sin(0.5 * math.pi * x * x), lo, hi,
                            epsabs=tol_piece, limit=200)[0]
    if nu < 0:
        return -c, -s
    return c, s


def fresnel_integral(nu: float) -> tuple[float, float]:
    """(C(nu), S(nu)) of the complex Fresnel integral, from the closed-form series.

    Both are Python floats, so sked and the models built on it do their
    complex arithmetic in CPython, not in numpy scalar math.
    """
    if not math.isfinite(nu):
        raise GeometryError("nu must be finite")
    return _kernels.fresnel_cs(nu)


def fresnel_integral_grid(nus: np.ndarray,
                          tol: float = _QUADRATURE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature C, S over a sorted grid, integrating increment by increment.

    Used as the oracle against the closed-form path on dense grids, where
    per-point integration from zero would be needlessly slow.
    """
    from scipy import integrate

    nus = np.asarray(nus, dtype=np.float64)
    order = np.argsort(nus)
    sorted_nus = nus[order]
    c = np.empty_like(sorted_nus)
    s = np.empty_like(sorted_nus)
    tol_piece = tol / max(len(nus), 1)
    c0, s0 = fresnel_quadrature(float(sorted_nus[0]), tol)
    c[0], s[0] = c0, s0
    for i in range(1, len(sorted_nus)):
        lo, hi = float(sorted_nus[i - 1]), float(sorted_nus[i])
        c[i] = c[i - 1] + integrate.quad(
            lambda x: math.cos(0.5 * math.pi * x * x), lo, hi, epsabs=tol_piece, limit=200)[0]
        s[i] = s[i - 1] + integrate.quad(
            lambda x: math.sin(0.5 * math.pi * x * x), lo, hi, epsabs=tol_piece, limit=200)[0]
    out_c = np.empty_like(c)
    out_s = np.empty_like(s)
    out_c[order] = c
    out_s[order] = s
    return out_c, out_s


def diffraction_parameter(edge: _EdgeColumns) -> np.ndarray:
    """Signed Fresnel-Kirchhoff parameter of one edge, one value per candidate.

    Reads only the columns' depth, d_tx and d_rx (arrays over the
    candidates of the obstacles table) and their wavelength.
    """
    return edge.depth * np.sqrt(
        (2.0 / edge.wavelength) * (edge.d_tx + edge.d_rx) / (edge.d_tx * edge.d_rx)
    )


def _capped(loss_db: float) -> float:
    if loss_db > LOSS_CAP_DB:
        diagnostics.total += 1
        return LOSS_CAP_DB
    return loss_db


def _magnitude_loss(amplitude: float) -> float:
    """-20 log10(amplitude), capped at LOSS_CAP_DB (one capped event at most)."""
    if amplitude <= _CAP_AMPLITUDE:
        diagnostics.total += 1
        return LOSS_CAP_DB
    return _capped(-20.0 * math.log10(amplitude))


def metis_edge_term(excess: float, wavelength: float, sign: float) -> float:
    """Single-edge shadowing term of the arctan approximation, in (-1/2, 1/2].

    excess is the edge path's length over the direct path, in meters.
    """
    if sign not in (1.0, -1.0, 1, -1):
        raise GeometryError("sign must be +1 or -1")
    if excess < -1e-9:
        raise GeometryError("edge path shorter than the direct path")
    excess = max(excess, 0.0)
    # beyond the far-field cutoff the arctan has saturated to +-1/2
    if 2.0 * math.sqrt(excess / wavelength) >= FAR_FIELD_NU:
        return 0.5 * sign
    return math.atan(sign * 0.5 * math.pi * math.sqrt(math.pi * excess / wavelength)) / math.pi


def metis_loss(excess: tuple[float, float, float, float],
               los_distance: tuple[float, float, float, float],
               wavelength: float, blocked: bool) -> float:
    """Four-edge arctan knife-edge loss.

    excess and los_distance hold the edges' excess path lengths and their
    distances from the direct-path line, ordered (w1, w2, h1, h2).
    Shadowed paths take all four terms positive; otherwise only the edge of
    each pair farther from the direct line contributes positively.
    """
    signs = [1.0] * 4
    if not blocked:
        for a, b in ((0, 1), (2, 3)):
            far = a if los_distance[a] >= los_distance[b] else b
            signs[a + b - far] = -1.0
    w1, w2, h1, h2 = (metis_edge_term(x, wavelength, sign) for x, sign in zip(excess, signs))
    return _magnitude_loss(1.0 - (h1 + h2) * (w1 + w2))


def sked(nu: float) -> complex:
    """Complex single knife-edge factor for a signed diffraction parameter.

    Positive nu means the edge's half-plane shadows the path. Beyond the
    far-field cutoff the exact asymptotes (0 in deep shadow, 1 in open
    space) are returned.
    """
    if nu >= FAR_FIELD_NU:
        return 0.0 + 0.0j
    if nu <= -FAR_FIELD_NU:
        return 1.0 + 0.0j
    c, s = fresnel_integral(nu)
    return 0.5 * (1.0 + 1.0j) * ((0.5 - c) - 1.0j * (0.5 - s))


def dked_loss(nu1: float, nu2: float) -> float:
    """Double knife-edge loss from the two lateral-edge parameters."""
    return _magnitude_loss(abs(sked(nu1) + sked(nu2)))


def _turn_phasor(path_delta: float, wavelength: float) -> complex:
    """exp(-j 2 pi path_delta / wavelength), computed on the fractional turn.

    Reducing to the fractional number of turns first keeps integer
    multiples of the wavelength exactly phase-neutral and preserves
    precision for deltas spanning many wavelengths.
    """
    turns = path_delta / wavelength
    frac = turns - round(turns)
    return complex(math.cos(-2.0 * math.pi * frac), math.sin(-2.0 * math.pi * frac))


def dked_pc_loss(nu1: float, nu2: float, delta1: float, delta2: float,
                 wavelength: float) -> float:
    """Double knife-edge loss with per-edge phase correction.

    delta1/delta2 are the excess lengths of the two diffracted paths over
    the direct path, in meters; they must be non-negative.
    """
    if delta1 < 0 or delta2 < 0:
        raise GeometryError("excess path lengths must be >= 0")
    if wavelength <= 0:
        raise GeometryError("wavelength must be positive")
    total = (sked(nu1) * _turn_phasor(delta1, wavelength)
             + sked(nu2) * _turn_phasor(delta2, wavelength))
    return _magnitude_loss(abs(total))


def _itu_edge_factor(nu: float) -> complex:
    """Semi-empirical complex edge contribution.

    Shadow side: amplitude from the knife-edge loss approximation, phase
    from the stationary excess path (pi nu^2 / 2 plus the quarter-turn of
    the edge wave). Lit side by Babinet complement, which produces the
    fringes near the transition.
    """
    if nu >= FAR_FIELD_NU:
        return 0.0 + 0.0j
    if nu <= -FAR_FIELD_NU:
        return 1.0 + 0.0j
    if nu >= 0.0:
        amp = 10.0 ** (-_kernels.knife_edge_loss_db(nu) / 20.0)
        phase = -(0.25 * math.pi + 0.5 * math.pi * nu * nu)
        return amp * complex(math.cos(phase), math.sin(phase))
    return 1.0 - _itu_edge_factor(-nu)


def itu_se_in_regime(wavelength: float, width: float, height: float) -> bool:
    """Whether the wavelength is small against the screen, where itu_se is valid."""
    return wavelength <= 0.25 * min(abs(width), abs(height))


def log_itu_se_out_of_regime(evaluations: int, wavelength: float) -> None:
    """One warning line for a run's itu_se evaluations outside the model's regime."""
    if evaluations:
        log.warning("semi-empirical screen model outside its small-wavelength regime "
                    "in %d evaluations (lambda=%.3g m)", evaluations, wavelength)


def itu_se_loss(nus: tuple[float, float, float, float],
                depths: tuple[float, float, float, float],
                wavelength: float, blocked: bool) -> float:
    """Semi-empirical thin-screen loss without Fresnel integrals.

    nus and depths hold the edges' diffraction parameters and signed
    depths, ordered (w1, w2, h1, h2). In shadow the four single-edge
    estimates combine on a power basis (the standard's average-loss
    composition for a finite screen); outside it the coherent lit-side
    edge factors reproduce the rapid fluctuations across the transition.
    Valid when the wavelength is small against the screen
    (itu_se_in_regime); callers test the regime once per obstacle and
    report it with log_itu_se_out_of_regime.
    """
    if blocked:
        power = 0.0
        for nu in nus:
            if nu < FAR_FIELD_NU:
                power += 10.0 ** (-_kernels.knife_edge_loss_db(nu) / 10.0)
        if power <= 10.0 ** (-LOSS_CAP_DB / 10.0):
            diagnostics.total += 1
            return LOSS_CAP_DB
        return _capped(-10.0 * math.log10(power))
    strip_w = _itu_edge_factor(nus[0]) + _itu_edge_factor(nus[1])
    strip_h = _itu_edge_factor(nus[2]) + _itu_edge_factor(nus[3])
    total = 1.0 - (1.0 - strip_w) * (1.0 - strip_h)
    return _magnitude_loss(abs(total))

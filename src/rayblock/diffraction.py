"""Loss models for thin screens crossing a radio path.

Implements the constant-obstruction model, the four-edge arctan knife-edge
approximation, double knife-edge diffraction with and without per-edge
phase correction, and a semi-empirical thin-screen method that avoids the
Fresnel integral entirely (after ITU-R P.526-15: the single-edge loss
approximation of its section 4.1 combined per its section 5.1 finite-width
screen construction).

The edge geometry lives in ``obstacles``, as one table of per-edge values
over a chunk's candidates; ``diffraction_parameter`` maps an edge's depth
and distances to the signed diffraction parameter. Each diffraction model
class names the edges and the values it reads from that table (parameters,
excess path lengths, distances from the direct-path line), and its
``row_loss`` evaluates one candidate from its row of plain floats with one
call of the model function, which returns a plain float.

The loss models evaluate the Fresnel integral with a closed-form series
(``fresnel_integral``, see _kernels); the tests compare it with an
adaptive quadrature oracle.

The models share fixed constants rather than a settings object: every
loss is capped at ``LOSS_CAP_DB``, and edges beyond ``FAR_FIELD_NU`` take
their asymptotic value. The functions keep no state apart from the
module-level ``diagnostics``, which counts capped losses per process.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import GeometryError

log = logging.getLogger(__name__)

# Far-field cutoff expressed as a diffraction parameter: an edge 10 first
# Fresnel radii away from the path has nu = 10*sqrt(2).
FAR_FIELD_NU = 10.0 * math.sqrt(2.0)

# Every model clamps its loss to this; amplitudes at or below the matching
# floor count as capped without taking their logarithm.
LOSS_CAP_DB = 80.0
_CAP_AMPLITUDE = 10.0 ** (-LOSS_CAP_DB / 20.0)


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
    """Base of the loss model selectors. A diffraction model names the screen
    edges it reads (edges, in (w1, w2, h1, h2) order) and the edge values it
    reads (columns, in argument order); row_loss(wavelength, blocked,
    *columns) evaluates one candidate, each column a tuple of plain floats."""


@dataclass(frozen=True)
class Obstruction(LossModel):
    loss_db: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.loss_db) and self.loss_db >= 0):
            raise GeometryError("obstruction loss must be >= 0 dB")


@dataclass(frozen=True)
class Metis(LossModel):
    edges = ("w1", "w2", "h1", "h2")
    columns = ("excess", "los")

    def row_loss(self, wavelength: float, blocked: bool, excess, los) -> float:
        return metis_loss(excess, los, wavelength, blocked)


@dataclass(frozen=True)
class Dked(LossModel):
    edges = ("w1", "w2")
    columns = ("nu",)

    def row_loss(self, wavelength: float, blocked: bool, nus) -> float:
        return dked_loss(*nus)


@dataclass(frozen=True)
class DkedPc(LossModel):
    edges = ("w1", "w2")
    columns = ("nu", "excess")

    def row_loss(self, wavelength: float, blocked: bool, nus, excess) -> float:
        return dked_pc_loss(*nus, *excess, wavelength)


@dataclass(frozen=True)
class ItuSe(LossModel):
    edges = ("w1", "w2", "h1", "h2")
    columns = ("nu",)

    def row_loss(self, wavelength: float, blocked: bool, nus) -> float:
        return itu_se_loss(nus, blocked)


MODEL_REGISTRY: dict[str, type[LossModel]] = {
    "obstruction": Obstruction,
    "metis": Metis,
    "dked": Dked,
    "dked_pc": DkedPc,
    "itu_se": ItuSe,
}


def fresnel_integral(nu: float) -> tuple[float, float]:
    """(C(nu), S(nu)) of the complex Fresnel integral, from the closed-form series.

    Both are Python floats, so sked and the models built on it do their
    complex arithmetic in CPython, not in numpy scalar math.
    """
    if not math.isfinite(nu):
        raise GeometryError("nu must be finite")
    return _kernels.fresnel_cs(nu)


def diffraction_parameter(depth, d_tx, d_rx, wavelength: float):
    """Signed Fresnel-Kirchhoff parameter of an edge at depth (positive
    where its half-plane shadows the path), whose diffraction point lies
    d_tx from the transmitter and d_rx from the receiver.

    Takes numbers or arrays (one value per candidate).
    """
    return depth * np.sqrt((2.0 / wavelength) * (d_tx + d_rx) / (d_tx * d_rx))


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
    if not excess >= -1e-9:  # NaN too
        raise GeometryError(f"edge path shorter than the direct path, got excess {excess!r}")
    if not wavelength > 0:
        raise GeometryError(f"wavelength must be positive, got {wavelength!r}")
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
    if any(map(math.isnan, los_distance)):
        raise GeometryError(f"edge distances from the direct path must not be NaN, "
                            f"got {los_distance!r}")
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
    the direct path, in meters; they must be finite (an infinite path has
    no phase) and non-negative.
    """
    if not (0 <= delta1 < math.inf and 0 <= delta2 < math.inf):  # NaN too
        raise GeometryError(f"excess path lengths must be finite and >= 0, got {delta1!r} "
                            f"and {delta2!r}")
    if not wavelength > 0:
        raise GeometryError(f"wavelength must be positive, got {wavelength!r}")
    total = (sked(nu1) * _turn_phasor(delta1, wavelength)
             + sked(nu2) * _turn_phasor(delta2, wavelength))
    return _magnitude_loss(abs(total))


def _itu_edge_factor(nu: float) -> complex:
    """Semi-empirical complex edge contribution.

    Shadow side: amplitude from the knife-edge loss approximation, phase
    from the stationary excess path (pi nu^2 / 2 plus the quarter-turn of
    the edge wave). Lit side (nu < 0) by Babinet complement of the shadow
    side's factor at -nu, which produces the fringes near the transition.
    """
    if nu >= FAR_FIELD_NU:
        return 0.0 + 0.0j
    if nu <= -FAR_FIELD_NU:
        return 1.0 + 0.0j
    shadow_nu = nu if nu >= 0.0 else -nu
    amp = 10.0 ** (-_kernels.knife_edge_loss_db(shadow_nu) / 20.0)
    phase = -(0.25 * math.pi + 0.5 * math.pi * shadow_nu * shadow_nu)
    factor = amp * complex(math.cos(phase), math.sin(phase))
    return factor if nu >= 0.0 else 1.0 - factor


def itu_se_in_regime(wavelength: float, width: float, height: float) -> bool:
    """Whether the wavelength is small against the screen, where itu_se is valid."""
    return wavelength <= 0.25 * min(abs(width), abs(height))


def log_itu_se_out_of_regime(evaluations: int, wavelength: float) -> None:
    """One warning line for a run's itu_se evaluations outside the model's regime."""
    if evaluations:
        log.warning("semi-empirical screen model outside its small-wavelength regime "
                    "in %d evaluations (lambda=%.3g m)", evaluations, wavelength)


def itu_se_loss(nus: tuple[float, float, float, float], blocked: bool) -> float:
    """Semi-empirical thin-screen loss without Fresnel integrals.

    nus holds the edges' diffraction parameters, ordered (w1, w2, h1, h2).
    In shadow the four single-edge
    estimates combine on a power basis (the standard's average-loss
    composition for a finite screen); outside it the coherent lit-side
    edge factors reproduce the rapid fluctuations across the transition.
    Valid when the wavelength is small against the screen
    (itu_se_in_regime); callers test the regime once per obstacle and
    report it with log_itu_se_out_of_regime.
    """
    if any(map(math.isnan, nus)):
        raise GeometryError(f"diffraction parameters must not be NaN, got {nus!r}")
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

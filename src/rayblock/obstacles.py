"""Obstacles: shape + mobility + loss model, and their interaction with rays.

An obstacle couples a shape (fixed-orientation rectangular screen, per-ray
orthogonalized screen, or sphere), a deterministic mobility model giving its
center at any time, and the loss model applied to rays passing nearby.

Interaction works on a candidate table. A chunk's ray table is cut once
into segment arrays (``PathSegments``: start, end, step, ray slot, primary
flag, distance threshold), and ``obstacle_losses`` takes the obstacle's
pose at every step as a (steps, 3) array. It culls every (segment, pose)
pair at once: segments farther from the obstacle than the diffraction
distance threshold contribute nothing. The default threshold is ten
first-Fresnel radii of the segment, where every diffraction model has
decayed to a negligible level. Over the surviving candidates the plane
crossing, blocking, edge points and edge values are arrays, computed once
for the union of the edges and values the given loss models declare; each
model then reads its own, and each of its diffraction candidates' losses
comes from one call of the model's row_loss (``_segment_outcome``).
Losses add in dB across a ray's segments, in segment order (and across
obstacles in configuration order, handled by the environment); spheres
only ever obstruct. Each model's losses come back with its interaction counts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from . import _kernels, diffraction
from .diffraction import ItuSe, LossModel, Metis, Obstruction, diffraction_parameter
from ._kernels import dot3
from .errors import ConfigError
from .trace import RayTable

_BOUNDARY_TOL = 1e-9
_VERTICAL = np.array([0.0, 0.0, 1.0])
_VERTICAL.setflags(write=False)


def _check_finite(value, *fields: str, ndim: int | None = None) -> None:
    """Reject NaN and infinite fields: every comparison with NaN is false, so
    an obstacle holding one would silently never block or diffract. With
    ndim=1 each field is one (x, y, z), with ndim=2 a list of them."""
    for field in fields:
        number = getattr(value, field)
        try:
            array = np.asarray(number, dtype=np.float64)
        except ValueError:  # a ragged list of points
            array = np.empty((0, 0))
        if ndim is not None and (array.ndim != ndim or array.shape[-1] != 3):
            raise ConfigError(f"{type(value).__name__}.{field} needs 3 coordinates per "
                              f"point, got {number!r}")
        if not np.all(np.isfinite(array)):
            raise ConfigError(f"{type(value).__name__}.{field} must be finite, got {number!r}")


@dataclass(frozen=True)
class ScreenShape:
    """Rectangular screen with a fixed orientation (may be tilted)."""

    width: float
    height: float
    azimuth: float = 0.0
    elevation: float = 0.0

    def __post_init__(self):
        _check_finite(self, "width", "height", "azimuth", "elevation")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("screen extents must be positive")

    @property
    def tilted(self) -> bool:
        return self.azimuth != 0.0 or self.elevation != 0.0

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit width and height axes; they depend on the angles only.

        With both angles zero the screen lies in the y-z plane: normal +x,
        width axis +y, height axis +z. Azimuth turns the normal in the
        horizontal plane, elevation tilts it out of it.
        """
        ca, sa = math.cos(self.azimuth), math.sin(self.azimuth)
        ce, se = math.cos(self.elevation), math.sin(self.elevation)
        width_axis = np.array([-sa, ca, 0.0])
        height_axis = np.cross(np.array([ce * ca, ce * sa, se]), width_axis)
        for axis in (width_axis, height_axis):
            axis.setflags(write=False)  # shared by every evaluation of this shape
        return width_axis, height_axis

    @property
    def height_axis(self) -> np.ndarray:
        return self.axes[1]


@dataclass(frozen=True)
class OrthoScreenShape:
    """Idealized screen re-oriented broadside to every tested segment."""

    width: float
    height: float

    def __post_init__(self):
        _check_finite(self, "width", "height")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("screen extents must be positive")

    @property
    def height_axis(self) -> np.ndarray:
        return _VERTICAL


@dataclass(frozen=True)
class SphereShape:
    radius: float

    def __post_init__(self):
        _check_finite(self, "radius")
        if self.radius <= 0:
            raise ConfigError("sphere radius must be positive")


Shape = Union[ScreenShape, OrthoScreenShape, SphereShape]


@dataclass(frozen=True)
class Static:
    position: tuple[float, float, float]

    def __post_init__(self):
        _check_finite(self, "position", ndim=1)

    def positions_at(self, t: np.ndarray) -> np.ndarray:
        return np.tile(np.array(self.position, dtype=np.float64), (t.shape[0], 1))


@dataclass(frozen=True)
class LinearMobility:
    """Constant-velocity motion from a start point."""

    start: tuple[float, float, float]
    velocity: tuple[float, float, float]  # m/s

    def __post_init__(self):
        _check_finite(self, "start", "velocity", ndim=1)

    def positions_at(self, t: np.ndarray) -> np.ndarray:
        return (np.array(self.start, dtype=np.float64)
                + t[:, np.newaxis] * np.array(self.velocity, dtype=np.float64))


@dataclass(frozen=True)
class WaypointMobility:
    """Piecewise-linear interpolation through timed waypoints.

    Queries outside the waypoint span clamp to the nearest endpoint.
    """

    times: tuple[float, ...]
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.times) != len(self.points) or len(self.times) < 1:
            raise ConfigError("waypoints need matching, non-empty times and points")
        _check_finite(self, "times")
        _check_finite(self, "points", ndim=2)
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("waypoint times must be strictly increasing")

    def positions_at(self, t: np.ndarray) -> np.ndarray:
        times = np.array(self.times, dtype=np.float64)
        pts = np.array(self.points, dtype=np.float64)
        if times.shape[0] == 1:
            return np.tile(pts[0], (t.shape[0], 1))
        idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.shape[0] - 2)
        t0, t1 = times[idx], times[idx + 1]
        frac = (t - t0) / (t1 - t0)
        p0, p1 = pts[idx], pts[idx + 1]
        out = p0 + frac[:, np.newaxis] * (p1 - p0)
        out[t <= times[0]] = pts[0]
        out[t >= times[-1]] = pts[-1]
        return out


MobilityModel = Union[Static, LinearMobility, WaypointMobility]


def positions_at(mobility: MobilityModel, times) -> np.ndarray:
    """Deterministic obstacle centers at each of times, shape (n, 3)."""
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0):
        raise ConfigError("time must be >= 0")
    return mobility.positions_at(times)


def position_at(mobility: MobilityModel, t: float) -> np.ndarray:
    """Deterministic obstacle center at time t: one row of positions_at."""
    return positions_at(mobility, [t])[0]


class LossOutcome(NamedTuple):
    loss_db: float
    blocked: bool


@dataclass
class InteractionCounters:
    """What one obstacle pass did for one model (obstacle_losses returns
    one per model); a run merges each model set's over obstacles and chunks."""

    diffraction_evals: int = 0
    obstruction_evals: int = 0
    far_skips: int = 0
    degenerate_skips: int = 0
    out_of_regime: int = 0  # itu_se evaluations with a wavelength too large for the screen
    clamp_events: int = 0   # losses capped at diffraction.LOSS_CAP_DB

    def merge(self, other: "InteractionCounters") -> None:
        for counter in dataclasses.fields(self):
            setattr(self, counter.name, getattr(self, counter.name) + getattr(other, counter.name))


@dataclass(frozen=True)
class Obstacle:
    shape: Shape
    mobility: MobilityModel
    model: LossModel
    distance_threshold: float | None = None      # meters; None = 10 Fresnel radii per segment
    obstruction_fallback_for_secondary: bool = False
    fallback_loss_db: float = 10.0

    def __post_init__(self):
        # +inf is a threshold (no cull); NaN would cull every segment
        if self.distance_threshold is not None and not self.distance_threshold > 0:
            raise ConfigError(f"distance threshold must be positive, got "
                              f"{self.distance_threshold!r}")
        if isinstance(self.shape, SphereShape) and not isinstance(self.model, Obstruction):
            raise ConfigError("spheres support only the constant obstruction model")
        if (isinstance(self.shape, ScreenShape) and self.shape.tilted
                and isinstance(self.model, Metis)):
            raise ConfigError(
                "the four-edge arctan model assumes a broadside screen; "
                "tilted screens must use dked, dked_pc or itu_se")
        if not (math.isfinite(self.fallback_loss_db) and self.fallback_loss_db >= 0):
            raise ConfigError("fallback obstruction loss must be finite and >= 0 dB")

    @property
    def bounding_radius(self) -> float:
        if isinstance(self.shape, SphereShape):
            return self.shape.radius
        return 0.5 * math.hypot(self.shape.width, self.shape.height)


def default_threshold(segment_length, wavelength: float):
    """Ten times the widest first-Fresnel radius of the segment(s).

    Takes a length or an array of lengths.
    """
    return 5.0 * np.sqrt(wavelength * np.asarray(segment_length))


def screen_beyond_threshold(centers, v_axis, half_w: float, half_h: float,
                            starts, ends, thresholds) -> np.ndarray:
    """Provably-far test of screens against segments, row by row.

    Every screen point lies within half_w of the screen's vertical center
    line, so the line-segment distance minus half_w bounds the true screen
    distance from below. A screen is therefore still evaluated when it lies
    up to half its width beyond the threshold. The 0.1 mm slack absorbs the
    distance routine's worst-case suboptimality in its near-parallel
    branch, so a screen actually inside the threshold is never rejected.
    """
    dist = _kernels.segment_segment_distance_batch(
        starts, ends, centers - half_h * v_axis, centers + half_h * v_axis)
    return dist - half_w > thresholds + 1e-4


def _screen_axes(shape: Shape, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit width/height axes of the screen plane against each segment.

    Returns (u, v, vertical), u and v of shape (n, 3); vertical marks the
    segments that cannot orient an orthogonal screen.
    """
    n = starts.shape[0]
    if isinstance(shape, OrthoScreenShape):
        d = ends - starts
        horiz = np.hypot(d[:, 0], d[:, 1])
        vertical = horiz < 1e-12 * np.maximum(np.linalg.norm(d, axis=1), 1e-30)
        horiz = np.where(vertical, 1.0, horiz)
        u = np.stack([-d[:, 1] / horiz, d[:, 0] / horiz, np.zeros(n)], axis=1)
        return u, np.broadcast_to(_VERTICAL, (n, 3)), vertical
    u, v = shape.axes
    return np.broadcast_to(u, (n, 3)), np.broadcast_to(v, (n, 3)), np.zeros(n, dtype=bool)


def _screen_cross_section(centers, u, v, half_w: float, half_h: float, starts, ends):
    """Per-edge signed depths of each segment's plane crossing, and blocking.

    Returns (depths, blocked, parallel): depths of shape (n, 4) ordered (w1
    left, w2 right, h1 bottom, h2 top), positive where that edge's
    half-plane covers the crossing point. A segment is blocked when it
    crosses the plane within its span and inside every edge, both within
    _BOUNDARY_TOL. parallel marks segments parallel to the screen plane,
    which have no crossing (and are never blocked).
    """
    d = ends - starts
    normal = np.cross(u, v)
    denom = dot3(d, normal)
    seg_len = np.sqrt(dot3(d, d))
    parallel = np.abs(denom) < 1e-12 * seg_len
    t = dot3(centers - starts, normal) / np.where(parallel, 1.0, denom)
    r = starts + t[:, np.newaxis] * d - centers
    xu = dot3(r, u)
    xv = dot3(r, v)
    depths = np.stack([xu + half_w, half_w - xu, xv + half_h, half_h - xv], axis=1)
    t_tol = _BOUNDARY_TOL / seg_len
    blocked = ((-t_tol <= t) & (t <= 1.0 + t_tol)
               & np.all(depths >= -_BOUNDARY_TOL, axis=1) & ~parallel)
    return depths, blocked, parallel


_EDGES = ("w1", "w2", "h1", "h2")


def _segment_outcome(model: LossModel, wavelength: float, blocked: bool,
                     *columns: tuple) -> LossOutcome:
    """Loss of one diffraction candidate from its table row of plain floats:
    one tuple per value the model reads (model.columns), each holding that
    value of its edges (model.edges)."""
    return LossOutcome(model.row_loss(wavelength, blocked, *columns), blocked)


class PathSegments(NamedTuple):
    """Every segment of a chunk's rays: step by step, ray by ray, in vertex order."""

    starts: np.ndarray      # (n, 3)
    ends: np.ndarray        # (n, 3)
    step: np.ndarray        # (n,) index of the owning step, the row of its obstacle pose
    slot: np.ndarray        # (n,) index of the owning ray among all the chunk's rays
    primary: np.ndarray     # (n,) the owning ray is its step's primary ray
    thresholds: np.ndarray  # (n,) default distance thresholds
    num_slots: int          # rays in the chunk


def path_segments(table: RayTable, primary: np.ndarray, wavelength: float) -> PathSegments:
    """The segment table of a chunk's rays.

    primary flags each step's primary ray (at most one per step), which
    decides the secondary-ray fallback.
    """
    starts, ends, slot = table.segments()
    thresholds = default_threshold(np.linalg.norm(ends - starts, axis=1), wavelength)
    return PathSegments(starts, ends, table.ray_steps()[slot], slot, primary[slot], thresholds,
                        len(table))


def obstacle_losses(obstacle: Obstacle, models, centers: np.ndarray, segments: PathSegments,
                    wavelength: float) -> list[tuple[np.ndarray, np.ndarray, InteractionCounters]]:
    """Per-ray loss (dB) and blocked flag one obstacle imposes on a segment
    table, and the interaction counts behind them, once per loss model.

    models holds one loss model per run (or sweep column); the obstacle's
    own model is not read. centers is the obstacle's center at every step
    of the table, shape (steps, 3); its mobility is not read. Segments
    farther from the obstacle than the distance threshold are skipped
    outright: first by the bounding sphere, then for screens by
    screen_beyond_threshold. The others add their losses in dB to their
    ray, in segment order. A ray is blocked when any of its segments is
    geometrically obstructed; the flag is per model, since a segment that
    is degenerate for a diffraction model (an endpoint on one of the edges
    it reads) is not blocked for it. Segments of non-primary rays take the
    constant fallback loss when the obstacle asks for it.

    The cull and the screen geometry are computed once and read by every
    model; each model then makes only its own selection and scalar calls,
    so each (loss, blocked, counts) equals a call with that model alone.
    """
    shape = obstacle.shape
    thresholds = segments.thresholds
    if obstacle.distance_threshold is not None:
        thresholds = np.full_like(thresholds, obstacle.distance_threshold)
    at = centers[segments.step]  # the obstacle's pose for each segment
    dists = _kernels.point_segment_distance_batch(at, segments.starts, segments.ends)
    near = dists <= thresholds + obstacle.bounding_radius
    if not isinstance(shape, SphereShape):
        near[near] = ~screen_beyond_threshold(
            at[near], shape.height_axis, 0.5 * shape.width, 0.5 * shape.height,
            segments.starts[near], segments.ends[near], thresholds[near])
    rows = np.flatnonzero(near)

    if isinstance(shape, SphereShape):
        blocked = dists[rows] <= shape.radius + _BOUNDARY_TOL
        degenerate = fallback = np.zeros_like(blocked)
        table = None  # spheres only obstruct
    else:
        blocked, degenerate, fallback, table = _screen_rows(
            obstacle, models, at[rows], segments.starts[rows], segments.ends[rows],
            segments.primary[rows], wavelength)
    num_degenerate = int(np.count_nonzero(degenerate))
    slots = segments.slot[rows]
    per_ray = []
    for model in models:
        counts = InteractionCounters(far_skips=dists.shape[0] - rows.shape[0],
                                     degenerate_skips=num_degenerate)
        if isinstance(model, Obstruction):
            counts.obstruction_evals = blocked.shape[0] - num_degenerate
            loss, model_blocked = np.where(blocked, model.loss_db, 0.0), blocked
        else:
            counts.obstruction_evals = int(np.count_nonzero(fallback & ~degenerate))
            loss = np.where(blocked & fallback, obstacle.fallback_loss_db, 0.0)
            model_blocked = blocked.copy()
            counts.merge(_diffraction_pass(model, shape, table, loss, model_blocked, wavelength))
        ray_blocked = np.zeros(segments.num_slots, dtype=bool)
        ray_blocked[slots[model_blocked]] = True
        per_ray.append((np.bincount(slots, weights=loss, minlength=segments.num_slots),
                        ray_blocked, counts))
    return per_ray


class _EdgeTable(NamedTuple):
    """The edge values of the rows every diffraction model evaluates.

    Each dict maps the name of an edge the models read to one value per
    row: its diffraction parameter (nu), its path's length over the direct
    path (excess), its distance from the segment's line (los) and whether a
    segment endpoint lies on it (on_edge: no edge-to-node path). nu, excess
    and los are filled only when a model reads them (LossModel.columns).
    """

    rows: np.ndarray    # the candidate rows the values cover
    nu: dict
    excess: dict
    los: dict
    on_edge: dict


def _edge_table(shape, models, centers, u, v, starts, ends, depths, rows,
                wavelength: float) -> _EdgeTable:
    """Closed-form edge points of the union of the edges the models read,
    over rows, and the union of the values they read from them."""
    edges = {name for model in models for name in model.edges}
    columns = {column for model in models for column in model.columns}
    centers, starts, ends = centers[rows], starts[rows], ends[rows]
    hu = 0.5 * shape.width * u[rows]
    hv = 0.5 * shape.height * v[rows]
    bl, br = centers - hu - hv, centers + hu - hv
    tl, tr = centers - hu + hv, centers + hu + hv
    edge_ends = {"w1": (bl, tl), "w2": (br, tr), "h1": (bl, br), "h2": (tl, tr)}
    d = ends - starts
    distance = np.sqrt(dot3(d, d))
    table = _EdgeTable(rows, {}, {}, {}, {})
    for i, name in enumerate(_EDGES):
        if name not in edges:
            continue
        a, b = edge_ends[name]
        d_tx, d_rx = _kernels.fermat_on_segment_batch(a, b, starts, ends)
        table.on_edge[name] = (d_tx == 0.0) | (d_rx == 0.0)
        if "nu" in columns:
            with np.errstate(divide="ignore", invalid="ignore"):  # rows on an edge are dropped
                table.nu[name] = diffraction_parameter(depths[rows, i], d_tx, d_rx, wavelength)
        if "excess" in columns:
            table.excess[name] = np.maximum(d_tx + d_rx - distance, 0.0)
        if "los" in columns:
            table.los[name] = _kernels.line_segment_distance_batch(starts, d, a, b)
    return table


def _screen_rows(obstacle: Obstacle, models, centers, starts, ends, primary, wavelength: float):
    """(blocked, degenerate, fallback, table) of each candidate row of one
    screen, read by every model: degenerate rows (vertical against an
    orthogonal screen, or parallel to the plane) are never blocked, fallback
    rows take the constant loss, and table holds the diffraction models'
    edge values of the other rows (None without such a model)."""
    shape = obstacle.shape
    u, v, degenerate = _screen_axes(shape, starts, ends)
    depths, blocked, parallel = _screen_cross_section(centers, u, v, 0.5 * shape.width,
                                                      0.5 * shape.height, starts, ends)
    degenerate |= parallel
    blocked &= ~degenerate
    fallback = (~primary if obstacle.obstruction_fallback_for_secondary
                else np.zeros_like(blocked))
    diffracting = [m for m in models if not isinstance(m, Obstruction)]
    table = (_edge_table(shape, diffracting, centers, u, v, starts, ends, depths,
                         np.flatnonzero(~fallback & ~degenerate), wavelength)
             if diffracting else None)
    return blocked, degenerate, fallback, table


def _diffraction_pass(model: LossModel, shape, table: _EdgeTable, loss: np.ndarray,
                      blocked: np.ndarray, wavelength: float) -> InteractionCounters:
    """One diffraction model's losses over the edge table, written into loss;
    returns the pass's counts.

    Rows with an endpoint on one of the model's own edges are degenerate for
    it and lose their blocked flag; every other row makes one scalar call
    with the values the model reads.
    """
    on_an_edge = np.any([table.on_edge[name] for name in model.edges], axis=0)
    blocked[table.rows[on_an_edge]] = False
    ok = ~on_an_edge
    rows = table.rows[ok]
    counts = InteractionCounters(diffraction_evals=rows.shape[0],
                                 degenerate_skips=int(np.count_nonzero(on_an_edge)))
    if isinstance(model, ItuSe) and not diffraction.itu_se_in_regime(
            wavelength, shape.width, shape.height):
        counts.out_of_regime = rows.shape[0]
    columns = [zip(*(getattr(table, column)[name][ok].tolist() for name in model.edges))
               for column in model.columns]
    capped_before = diffraction.diagnostics.total
    loss[rows] = [_segment_outcome(model, wavelength, b, *row).loss_db
                  for b, *row in zip(blocked[rows].tolist(), *columns)]
    counts.clamp_events = diffraction.diagnostics.total - capped_before
    return counts


def interact(obstacle: Obstacle, ray, t: float, wavelength: float,
             is_primary_ray: bool = True) -> LossOutcome:
    """Total loss an obstacle imposes on one ray at time t (see obstacle_losses).

    An itu_se evaluation outside the model's regime logs its warning here.
    """
    if not 0 < wavelength < math.inf:
        raise ConfigError(f"wavelength must be finite and positive, got {wavelength!r}")
    [(losses, blocked, counts)] = obstacle_losses(
        obstacle, (obstacle.model,), position_at(obstacle.mobility, t)[np.newaxis],
        path_segments(RayTable.from_steps([[ray]]), np.array([is_primary_ray]), wavelength),
        wavelength)
    diffraction.log_itu_se_out_of_regime(counts.out_of_regime, wavelength)
    return LossOutcome(float(losses[0]), bool(blocked[0]))

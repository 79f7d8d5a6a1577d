"""Obstacles: shape + mobility + loss model, and their per-ray interaction.

An obstacle couples a shape (fixed-orientation rectangular screen, per-ray
orthogonalized screen, or sphere), a deterministic mobility model giving its
center at any time, and the loss model applied to rays passing nearby.

Interaction walks every segment of a ray's vertex path. Segments whose
distance from the obstacle exceeds the diffraction distance threshold
contribute nothing; the default threshold is ten first-Fresnel radii of the
segment, where every diffraction model has decayed to a negligible level.
Losses add in dB across segments (and across obstacles, handled by the
environment); spheres only ever obstruct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from . import _kernels, diffraction
from .diffraction import (
    Dked,
    DkedPc,
    EdgeGeometry,
    ItuSe,
    LossModel,
    Metis,
    Obstruction,
    ScreenDiffractionGeometry,
    diffraction_parameter,
)
from .errors import ConfigError, DegenerateGeometryError
from .geometry import RectScreen, Segment

_BOUNDARY_TOL = 1e-9
_VERTICAL = np.array([0.0, 0.0, 1.0])
_VERTICAL.setflags(write=False)


@dataclass(frozen=True)
class ScreenShape:
    """Rectangular screen with a fixed orientation (may be tilted)."""

    width: float
    height: float
    azimuth: float = 0.0
    elevation: float = 0.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("screen extents must be positive")

    @property
    def tilted(self) -> bool:
        return self.azimuth != 0.0 or self.elevation != 0.0

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit width and height axes; they depend on the angles only."""
        plane = RectScreen(center=(0.0, 0.0, 0.0), width=self.width, height=self.height,
                           azimuth=self.azimuth, elevation=self.elevation)
        axes = (plane.width_axis, plane.height_axis)
        for axis in axes:
            axis.setflags(write=False)  # shared by every evaluation of this shape
        return axes

    @property
    def height_axis(self) -> np.ndarray:
        return self.axes[1]


@dataclass(frozen=True)
class OrthoScreenShape:
    """Idealized screen re-oriented broadside to every tested segment."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("screen extents must be positive")

    @property
    def height_axis(self) -> np.ndarray:
        return _VERTICAL


@dataclass(frozen=True)
class SphereShape:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError("sphere radius must be positive")


Shape = Union[ScreenShape, OrthoScreenShape, SphereShape]


@dataclass(frozen=True)
class Static:
    position: tuple[float, float, float]

    def position_at(self, t: float) -> np.ndarray:
        return np.array(self.position, dtype=np.float64)


@dataclass(frozen=True)
class LinearMobility:
    """Constant-velocity motion from a start point."""

    start: tuple[float, float, float]
    velocity: tuple[float, float, float]  # m/s

    def position_at(self, t: float) -> np.ndarray:
        return np.array(self.start, dtype=np.float64) + t * np.array(self.velocity, dtype=np.float64)


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
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("waypoint times must be strictly increasing")

    def position_at(self, t: float) -> np.ndarray:
        times = self.times
        pts = self.points
        if t <= times[0]:
            return np.array(pts[0], dtype=np.float64)
        if t >= times[-1]:
            return np.array(pts[-1], dtype=np.float64)
        idx = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[idx], times[idx + 1]
        frac = (t - t0) / (t1 - t0)
        p0 = np.array(pts[idx], dtype=np.float64)
        p1 = np.array(pts[idx + 1], dtype=np.float64)
        return p0 + frac * (p1 - p0)


MobilityModel = Union[Static, LinearMobility, WaypointMobility]


def position_at(mobility: MobilityModel, t: float) -> np.ndarray:
    """Deterministic obstacle center at time t."""
    if t < 0:
        raise ConfigError("time must be >= 0")
    return mobility.position_at(t)


class LossOutcome(NamedTuple):
    loss_db: float
    blocked: bool


@dataclass
class InteractionCounters:
    """Bookkeeping for tests and run summaries; one instance per worker."""

    diffraction_evals: int = 0
    obstruction_evals: int = 0
    far_skips: int = 0
    degenerate_skips: int = 0

    def merge(self, other: "InteractionCounters") -> None:
        self.diffraction_evals += other.diffraction_evals
        self.obstruction_evals += other.obstruction_evals
        self.far_skips += other.far_skips
        self.degenerate_skips += other.degenerate_skips


@dataclass(frozen=True)
class Obstacle:
    shape: Shape
    mobility: MobilityModel
    model: LossModel
    distance_threshold: float | None = None      # meters; None = 10 Fresnel radii per segment
    obstruction_fallback_for_secondary: bool = False
    fallback_loss_db: float = 10.0

    def __post_init__(self):
        if self.distance_threshold is not None and self.distance_threshold <= 0:
            raise ConfigError("distance threshold must be positive")
        if isinstance(self.shape, SphereShape) and not isinstance(self.model, Obstruction):
            raise ConfigError("spheres support only the constant obstruction model")
        if (isinstance(self.shape, ScreenShape) and self.shape.tilted
                and isinstance(self.model, Metis)):
            raise ConfigError(
                "the four-edge arctan model assumes a broadside screen; "
                "tilted screens must use dked, dked_pc or itu_se")
        if self.fallback_loss_db < 0:
            raise ConfigError("fallback obstruction loss must be >= 0 dB")

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


def screen_beyond_threshold(center, v_axis, half_w: float, half_h: float,
                            seg_start, seg_end, threshold: float) -> bool:
    """Provably-far test against the screen's vertical center line.

    Every screen point lies within half_w of that line, so the line-segment
    distance minus half_w bounds the true screen distance from below. The
    0.1 mm slack absorbs the distance routine's worst-case suboptimality in
    its near-parallel branch, so a screen actually inside the threshold is
    never rejected.
    """
    a = center - half_h * v_axis
    b = center + half_h * v_axis
    dist = _kernels.segment_segment_distance(
        seg_start[0], seg_start[1], seg_start[2],
        seg_end[0], seg_end[1], seg_end[2],
        a[0], a[1], a[2], b[0], b[1], b[2],
    )
    return dist - half_w > threshold + 1e-4


def _screen_axes(shape: Shape, seg_start: np.ndarray,
                 seg_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit width/height axes of the screen plane against this segment."""
    if isinstance(shape, OrthoScreenShape):
        d = seg_end - seg_start
        horiz = math.hypot(d[0], d[1])
        if horiz < 1e-12 * max(float(np.linalg.norm(d)), 1e-30):
            raise DegenerateGeometryError("vertical segment cannot orient an orthogonal screen")
        az = math.atan2(d[1], d[0])
        return np.array([-math.sin(az), math.cos(az), 0.0]), _VERTICAL
    return shape.axes


def _screen_cross_section(center, u, v, half_w, half_h, seg_start, seg_end):
    """Per-edge signed depths of the segment's plane crossing, and blocking.

    Returns (depths, blocked) with depths ordered (w1 left, w2 right, h1
    bottom, h2 top); positive depth means that edge's half-plane covers the
    crossing point. The segment is blocked when it crosses the plane
    within its span and inside every edge, both within _BOUNDARY_TOL.
    Raises DegenerateGeometryError when the segment is parallel to the
    screen plane.
    """
    # scalar arithmetic: this sits inside the per-segment hot loop
    dx = seg_end[0] - seg_start[0]
    dy = seg_end[1] - seg_start[1]
    dz = seg_end[2] - seg_start[2]
    nx = u[1] * v[2] - u[2] * v[1]
    ny = u[2] * v[0] - u[0] * v[2]
    nz = u[0] * v[1] - u[1] * v[0]
    denom = dx * nx + dy * ny + dz * nz
    seg_len = math.sqrt(dx * dx + dy * dy + dz * dz)
    if abs(denom) < 1e-12 * seg_len:
        raise DegenerateGeometryError("segment parallel to screen plane")
    t = ((center[0] - seg_start[0]) * nx + (center[1] - seg_start[1]) * ny
         + (center[2] - seg_start[2]) * nz) / denom
    rx = seg_start[0] + t * dx - center[0]
    ry = seg_start[1] + t * dy - center[1]
    rz = seg_start[2] + t * dz - center[2]
    xu = rx * u[0] + ry * u[1] + rz * u[2]
    xv = rx * v[0] + ry * v[1] + rz * v[2]
    depths = (xu + half_w, half_w - xu, xv + half_h, half_h - xv)
    t_tol = _BOUNDARY_TOL / seg_len
    blocked = (-t_tol <= t <= 1.0 + t_tol
               and all(h >= -_BOUNDARY_TOL for h in depths))
    return depths, blocked


def _screen_geometry(center, u, v, half_w, half_h, seg_start, seg_end,
                     wavelength: float) -> ScreenDiffractionGeometry:
    depths, blocked = _screen_cross_section(center, u, v, half_w, half_h, seg_start, seg_end)
    tx0, tx1, tx2 = float(seg_start[0]), float(seg_start[1]), float(seg_start[2])
    rx0, rx1, rx2 = float(seg_end[0]), float(seg_end[1]), float(seg_end[2])
    d0, d1, d2 = rx0 - tx0, rx1 - tx1, rx2 - tx2
    seg_len = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)

    bl = (center[0] - half_w * u[0] - half_h * v[0],
          center[1] - half_w * u[1] - half_h * v[1],
          center[2] - half_w * u[2] - half_h * v[2])
    br = (center[0] + half_w * u[0] - half_h * v[0],
          center[1] + half_w * u[1] - half_h * v[1],
          center[2] + half_w * u[2] - half_h * v[2])
    tl = (center[0] - half_w * u[0] + half_h * v[0],
          center[1] - half_w * u[1] + half_h * v[1],
          center[2] - half_w * u[2] + half_h * v[2])
    tr = (center[0] + half_w * u[0] + half_h * v[0],
          center[1] + half_w * u[1] + half_h * v[1],
          center[2] + half_w * u[2] + half_h * v[2])
    edge_points = {"w1": (bl, tl), "w2": (br, tr), "h1": (bl, br), "h2": (tl, tr)}
    records = {}
    for name, depth in zip(("w1", "w2", "h1", "h2"), depths):
        a, b = edge_points[name]
        d_tx, d_rx = _kernels.fermat_on_segment(
            a[0], a[1], a[2], b[0], b[1], b[2],
            tx0, tx1, tx2, rx0, rx1, rx2,
        )
        if d_tx == 0.0 or d_rx == 0.0:
            raise DegenerateGeometryError("segment endpoint on a screen edge")
        los_dist = _kernels.line_segment_distance(
            tx0, tx1, tx2, d0, d1, d2,
            a[0], a[1], a[2], b[0], b[1], b[2],
        )
        records[name] = EdgeGeometry(
            d_tx=d_tx, d_rx=d_rx, distance=seg_len, depth=depth,
            wavelength=wavelength, los_distance=los_dist,
        )
    return ScreenDiffractionGeometry(
        w1=records["w1"], w2=records["w2"], h1=records["h1"], h2=records["h2"],
        los_blocked=blocked,
    )


def screen_edge_geometries(screen: RectScreen, segment: Segment,
                           wavelength: float) -> ScreenDiffractionGeometry:
    """Edge records of a concrete screen against one segment (public wiring)."""
    return _screen_geometry(
        screen.center, screen.width_axis, screen.height_axis,
        0.5 * screen.width, 0.5 * screen.height,
        segment.start, segment.end, wavelength,
    )


def _screen_model_loss(model: LossModel, geom: ScreenDiffractionGeometry,
                       wavelength: float) -> float:
    if isinstance(model, Metis):
        return diffraction.metis_loss(geom)
    nu1 = diffraction_parameter(geom.w1)
    nu2 = diffraction_parameter(geom.w2)
    if isinstance(model, Dked):
        return diffraction.dked_loss(nu1, nu2)
    if isinstance(model, DkedPc):
        return diffraction.dked_pc_loss(
            nu1, nu2, geom.w1.excess_path, geom.w2.excess_path, wavelength)
    if isinstance(model, ItuSe):
        return diffraction.itu_se_loss(geom)
    raise ConfigError(f"unsupported loss model {model!r}")


def _segment_outcome(obstacle: Obstacle, model: LossModel, center: np.ndarray,
                     seg_start: np.ndarray, seg_end: np.ndarray, wavelength: float,
                     counters: InteractionCounters) -> LossOutcome:
    """Loss of one segment against one resolved obstacle pose."""
    if isinstance(obstacle.shape, SphereShape):
        dist, _ = _kernels.point_segment_distance(
            center[0], center[1], center[2],
            seg_start[0], seg_start[1], seg_start[2],
            seg_end[0], seg_end[1], seg_end[2],
        )
        blocked = dist <= obstacle.shape.radius + _BOUNDARY_TOL
        counters.obstruction_evals += 1
        assert isinstance(model, Obstruction)
        return LossOutcome(diffraction.obstruction_loss(blocked, model.loss_db), blocked)

    half_w = 0.5 * obstacle.shape.width
    half_h = 0.5 * obstacle.shape.height
    try:
        u, v = _screen_axes(obstacle.shape, seg_start, seg_end)
        if isinstance(model, Obstruction):
            _, blocked = _screen_cross_section(center, u, v, half_w, half_h, seg_start, seg_end)
            counters.obstruction_evals += 1
            return LossOutcome(diffraction.obstruction_loss(blocked, model.loss_db), blocked)
        geom = _screen_geometry(center, u, v, half_w, half_h, seg_start, seg_end, wavelength)
    except DegenerateGeometryError:
        counters.degenerate_skips += 1
        return LossOutcome(0.0, False)
    counters.diffraction_evals += 1
    return LossOutcome(_screen_model_loss(model, geom, wavelength), geom.los_blocked)


def _effective_model(obstacle: Obstacle, is_primary_ray: bool) -> LossModel:
    if (obstacle.obstruction_fallback_for_secondary and not is_primary_ray
            and not isinstance(obstacle.model, Obstruction)):
        return Obstruction(obstacle.fallback_loss_db)
    return obstacle.model


class PathSegments(NamedTuple):
    """Every segment of a list of rays, ray by ray in vertex order."""

    starts: np.ndarray      # (n, 3)
    ends: np.ndarray        # (n, 3)
    ray: np.ndarray         # (n,) index of the owning ray
    thresholds: np.ndarray  # (n,) default distance thresholds


def path_segments(rays, wavelength: float) -> PathSegments:
    starts = np.ascontiguousarray(np.concatenate([r.vertices[:-1] for r in rays]))
    ends = np.ascontiguousarray(np.concatenate([r.vertices[1:] for r in rays]))
    ray = np.repeat(np.arange(len(rays)), [r.vertices.shape[0] - 1 for r in rays])
    thresholds = default_threshold(np.linalg.norm(ends - starts, axis=1), wavelength)
    return PathSegments(starts, ends, ray, thresholds)


def obstacle_losses(obstacle: Obstacle, t: float, segments: PathSegments, num_rays: int,
                    primary: int | None, wavelength: float,
                    counters: InteractionCounters) -> tuple[np.ndarray, list[bool]]:
    """Per-ray loss (dB) and blocked flag one obstacle imposes at time t.

    Segments farther from the obstacle than the distance threshold are
    skipped outright; the others add their losses in dB to their ray, in
    segment order. A ray is blocked when any of its segments is
    geometrically obstructed. primary is the index of the primary ray
    (None: no ray is primary), which decides the secondary-ray fallback.
    """
    starts, ends, seg_ray, thresholds = segments
    if obstacle.distance_threshold is not None:
        thresholds = np.full_like(thresholds, obstacle.distance_threshold)
    center = position_at(obstacle.mobility, t)
    v_axis = None if isinstance(obstacle.shape, SphereShape) else obstacle.shape.height_axis
    dists = _kernels.point_segment_distance_batch(center, starts, ends)
    candidates = np.nonzero(dists <= thresholds + obstacle.bounding_radius)[0]
    counters.far_skips += dists.shape[0] - candidates.shape[0]
    losses = np.zeros(num_rays)
    blocked = [False] * num_rays
    for si in candidates:
        if v_axis is not None and screen_beyond_threshold(
                center, v_axis, 0.5 * obstacle.shape.width, 0.5 * obstacle.shape.height,
                starts[si], ends[si], float(thresholds[si])):
            counters.far_skips += 1
            continue
        ri = int(seg_ray[si])
        model = _effective_model(obstacle, ri == primary)
        outcome = _segment_outcome(obstacle, model, center, starts[si], ends[si],
                                   wavelength, counters)
        losses[ri] += outcome.loss_db
        blocked[ri] = blocked[ri] or outcome.blocked
    return losses, blocked


def interact(obstacle: Obstacle, ray, t: float, wavelength: float,
             is_primary_ray: bool = True,
             counters: InteractionCounters | None = None) -> LossOutcome:
    """Total loss an obstacle imposes on one ray at time t (see obstacle_losses)."""
    losses, blocked = obstacle_losses(
        obstacle, t, path_segments([ray], wavelength), 1, 0 if is_primary_ray else None,
        wavelength, InteractionCounters() if counters is None else counters)
    return LossOutcome(float(losses[0]), blocked[0])

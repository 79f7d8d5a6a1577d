"""Self-contained 3D primitives for ray/obstacle interaction.

The per-segment blocking tests live in ``obstacles``, next to the loss
models that read them.

Points and directions are plain float64 numpy arrays of shape (3,), in
meters. All comparisons use an absolute tolerance of 1e-9 m, which is
meaningful at the room scales this package targets. Every value type is
immutable after construction and every operation is a pure function, so
the module is safe to use from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

TOL = 1e-9

Point3 = np.ndarray
Vector3 = np.ndarray


def as_point3(value) -> Point3:
    """Coerce to a read-only (3,) float64 array, rejecting non-finite input."""
    arr = np.array(value, dtype=np.float64)
    if arr.shape != (3,):
        raise GeometryError(f"expected 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"non-finite components: {arr!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Segment:
    """Directed straight segment; zero-length segments are rejected."""

    start: Point3
    end: Point3

    def __post_init__(self):
        object.__setattr__(self, "start", as_point3(self.start))
        object.__setattr__(self, "end", as_point3(self.end))
        if self.length <= TOL:
            raise GeometryError("zero-length segment")

    @property
    def direction(self) -> Vector3:
        return self.end - self.start

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


@dataclass(frozen=True, eq=False)
class RectScreen:
    """Rectangular screen given by center, extents and two rotation angles.

    Deriving the corners from (center, width, height, azimuth, elevation)
    guarantees planarity by construction. With both angles zero the screen
    lies in the y-z plane: normal +x, width axis +y, height axis +z.
    Azimuth rotates the normal in the horizontal plane, elevation tilts it
    out of it.
    """

    center: Point3
    width: float
    height: float
    azimuth: float = 0.0
    elevation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_point3(self.center))
        for name in ("width", "height", "azimuth", "elevation"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"non-finite {name}")
        if self.width <= 0 or self.height <= 0:
            raise GeometryError("screen extents must be positive")

    @property
    def normal(self) -> Vector3:
        ca, sa = math.cos(self.azimuth), math.sin(self.azimuth)
        ce, se = math.cos(self.elevation), math.sin(self.elevation)
        return np.array([ce * ca, ce * sa, se])

    @property
    def width_axis(self) -> Vector3:
        ca, sa = math.cos(self.azimuth), math.sin(self.azimuth)
        return np.array([-sa, ca, 0.0])

    @property
    def height_axis(self) -> Vector3:
        return np.cross(self.normal, self.width_axis)

    @property
    def corners(self) -> np.ndarray:
        """(4, 3) array ordered bottom-left, bottom-right, top-right, top-left."""
        u = 0.5 * self.width * self.width_axis
        v = 0.5 * self.height * self.height_axis
        c = self.center
        return np.stack([c - u - v, c + u - v, c + u + v, c - u + v])

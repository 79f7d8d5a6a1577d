"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit codes: config errors exit 2, trace format
errors exit 3, numeric budget violations exit 4.
"""


class RayBlockError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(RayBlockError):
    """Invalid geometric input (non-finite, zero-length, out of domain)."""


class DegenerateGeometryError(GeometryError):
    """Measure-zero configuration the caller must decide how to handle,
    e.g. a segment lying inside a screen plane or a vertical segment fed
    to the per-ray screen orthogonalization."""


class ConfigError(RayBlockError):
    """Invalid run specification or incompatible simulation settings."""


class TraceFormatError(RayBlockError):
    """Malformed or inconsistent channel trace directory."""


class NumericBudgetError(RayBlockError):
    """The clamp events of a run exceeded its configured budget."""

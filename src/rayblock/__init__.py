"""Post-processing of ray-traced channel traces with mobile obstacles.

Imports a pre-computed multipath trace, moves user-declared obstacles
through the scene, attenuates every ray with physically grounded
diffraction or obstruction losses, and re-emits the trace in the same
format alongside SNR/loss time series.
"""

from .diffraction import (
    FAR_FIELD_NU,
    LOSS_CAP_DB,
    Dked,
    DkedPc,
    EdgeGeometry,
    ItuSe,
    Metis,
    Obstruction,
    ScreenDiffractionGeometry,
    diffraction_parameter,
    dked_loss,
    dked_pc_loss,
    fresnel_integral,
    fresnel_zone_radius,
    itu_se_loss,
    metis_edge_term,
    metis_loss,
    obstruction_loss,
    sked,
)
from .environment import RunStats, SimulationConfig, run, run_model_sets
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    GeometryError,
    NumericBudgetError,
    RayBlockError,
    TraceFormatError,
)
from .geometry import Point3, RectScreen, Segment, Vector3
from .linkeval import ArrayConfig, LinkBudget, noise_power_dbm, snr_timeline, steering_vector
from .obstacles import (
    InteractionCounters,
    LinearMobility,
    LossOutcome,
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    SphereShape,
    Static,
    WaypointMobility,
    interact,
    position_at,
    screen_edge_geometries,
)
from .trace import (
    ChannelTrace,
    Ray,
    RayTable,
    angles_of_arrival,
    angles_of_departure,
    export_scenario,
    import_scenario,
)

__version__ = "0.1.0"

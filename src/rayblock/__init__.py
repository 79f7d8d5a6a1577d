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
    ItuSe,
    Metis,
    Obstruction,
    diffraction_parameter,
    dked_loss,
    dked_pc_loss,
    fresnel_integral,
    itu_se_loss,
    metis_edge_term,
    metis_loss,
    sked,
)
from .environment import SimulationConfig, run, run_model_sets
from .errors import (
    ConfigError,
    GeometryError,
    NumericBudgetError,
    RayBlockError,
    TraceFormatError,
)
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
)
from .trace import (
    ChannelTrace,
    Ray,
    RayTable,
    export_scenario,
    import_scenario,
)

__version__ = "0.1.0"

"""Simulation core: apply every obstacle to every ray at every timestep.

Work decomposes into independent chunks of consecutive timesteps of one
pair: one chunk per pair on one worker, several per pair to spread across
more. A chunk is a step range of the pair's ray table, cut once into a
segment table (see ``obstacles.path_segments``); each obstacle, in
configuration order, samples its poses at the chunk's trace timestamps as a
(steps, 3) array and returns one loss per ray of the chunk, which is
subtracted from the rays' path gains. Applying obstacles one after another this way makes running
two obstacle sets sequentially equal one combined run bit-for-bit. A run's
result is the input table with a new gain column, minus the rays
attenuated below the removal floor. Delays, phases and vertex paths are
never modified.

One pass can serve several model sets (``run_model_sets``): the same
obstacles, each set swapping in its own loss model per obstacle. The
segment table, poses, cull and screen geometry are computed once per chunk
and every set reads them; each set's output equals a run of its own.

Chunks may run in parallel worker processes; results land in pre-sized
slots, and a ray's result never depends on the other rays of its chunk, so
any chunking and the single-threaded mode produce identical output.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import diffraction
from .diffraction import LossModel
from .errors import ConfigError, TraceFormatError
from .obstacles import InteractionCounters, Obstacle, obstacle_losses, path_segments, positions_at
from .trace import SPEED_OF_LIGHT, ChannelTrace, RayTable

log = logging.getLogger(__name__)

WORKERS_ENV_VAR = "RAYBLOCK_WORKERS"


@dataclass(frozen=True)
class SimulationConfig:
    obstacles: tuple[Obstacle, ...]
    time_step: float | None = None          # defaults to the trace's step
    removal_floor_db: float = -500.0
    carrier_frequency_hz: float = 60e9

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.time_step is not None and not 0 < self.time_step < math.inf:
            raise ConfigError("time step must be finite and positive")
        if not math.isfinite(self.removal_floor_db):
            raise ConfigError("removal floor must be finite")
        if not 0 < self.carrier_frequency_hz < math.inf:
            raise ConfigError("carrier frequency must be finite and positive")


@dataclass
class RunStats:
    """Optional out-parameter of run(); aggregated across workers."""

    rays_in: int = 0
    rays_dropped: int = 0
    counters: InteractionCounters = field(default_factory=InteractionCounters)

    @property
    def clamp_events(self) -> int:
        """The losses capped at diffraction.LOSS_CAP_DB."""
        return self.counters.clamp_events


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(int(workers), 1)
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _pose_stride(trace: ChannelTrace, cfg: SimulationConfig) -> tuple[int, float]:
    """Validate the time bases; returns (stride, pose time step)."""
    if cfg.time_step is None:
        return 1, trace.time_step
    ratio = cfg.time_step / trace.time_step
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > 1e-9 * max(ratio, 1.0):
        raise ConfigError(
            f"config time step {cfg.time_step} is not the trace step "
            f"{trace.time_step} or an integer multiple of it")
    return stride, cfg.time_step


def primary_rays(table: RayTable) -> np.ndarray:
    """Flags each step's primary ray: the direct ray when present, else the
    shortest-delay ray (ties: lower index).

    The choice never reads path gains, so a run on rays another run has
    already attenuated picks the same primary rays.
    """
    step = table.ray_steps()
    order = np.lexsort((np.arange(len(table)), table.delay, table.reflection_orders() != 0,
                        step))
    filled = table.counts[table.counts > 0]
    primary = np.zeros(len(table), dtype=bool)
    primary[order[np.cumsum(filled) - filled]] = True
    return primary


def _run_chunk(args) -> tuple:
    """Final gains of the rays of a step range of one pair after all
    obstacles, once per model set; and each set's counters."""
    (pair, k_lo, table, obstacles, model_sets, stride, pose_step, wavelength) = args
    counters = [InteractionCounters() for _ in model_sets]
    gains = [table.gain.copy() for _ in model_sets]
    if len(table) and obstacles:
        segments = path_segments(table, primary_rays(table), wavelength)
        times = (np.arange(k_lo, k_lo + table.counts.shape[0]) // stride) * pose_step
        for i, obstacle in enumerate(obstacles):
            centers = positions_at(obstacle.mobility, times)
            outcomes = obstacle_losses(obstacle, [models[i] for models in model_sets], centers,
                                       segments, wavelength, counters)
            for set_gains, (losses, _) in zip(gains, outcomes):
                set_gains -= losses
    return pair, k_lo, gains, counters


def run(trace: ChannelTrace, cfg: SimulationConfig, workers: int | None = None,
        stats: RunStats | None = None) -> ChannelTrace:
    """New trace of identical shape with obstacle losses applied.

    With zero obstacles the output equals the input field for field. The
    incompatible-time-base check runs before any computation.
    """
    [out] = run_model_sets(trace, cfg, [tuple(o.model for o in cfg.obstacles)], workers,
                           None if stats is None else [stats])
    return out


def run_model_sets(trace: ChannelTrace, cfg: SimulationConfig,
                   model_sets: Sequence[Sequence[LossModel]], workers: int | None = None,
                   stats: Sequence[RunStats] | None = None) -> list[ChannelTrace]:
    """One run() per model set, in one pass: the trace under cfg with each
    obstacle's model swapped for the set's (one model per obstacle, in
    configuration order).

    Each output trace and each RunStats (stats holds one per set) equals
    that of a separate run() with the swapped obstacles. The geometry the
    sets share is computed once per chunk.
    """
    stride, pose_step = _pose_stride(trace, cfg)
    model_sets = [tuple(models) for models in model_sets]
    for models in model_sets:
        if len(models) != len(cfg.obstacles):
            raise ValueError(f"a model set needs one model per obstacle "
                             f"({len(cfg.obstacles)}), got {len(models)}")
        for obstacle, model in zip(cfg.obstacles, models):
            dataclasses.replace(obstacle, model=model)  # the obstacle's own checks
    if stats is None:
        stats = [RunStats() for _ in model_sets]
    if len(stats) != len(model_sets):
        raise ValueError("run_model_sets needs one RunStats per model set")
    rays_in = sum(len(table) for table in trace.pairs.values())
    for set_stats in stats:
        set_stats.rays_in = rays_in

    if not cfg.obstacles:
        return [ChannelTrace(node_positions=dict(trace.node_positions), pairs=dict(trace.pairs),
                             time_step=trace.time_step, num_steps=trace.num_steps)
                for _ in model_sets]

    wavelength = SPEED_OF_LIGHT / cfg.carrier_frequency_hz
    n_workers = resolve_workers(workers)

    chunk_len = (trace.num_steps if n_workers == 1
                 else max(1, math.ceil(trace.num_steps / (n_workers * 4))))
    chunks = []
    for pair in sorted(trace.pairs):
        table = trace.pairs[pair]
        for k_lo in range(0, trace.num_steps, chunk_len):
            chunks.append((pair, k_lo, table.step_range(k_lo, k_lo + chunk_len), cfg.obstacles,
                           model_sets, stride, pose_step, wavelength))

    if n_workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares one-worker runs its import

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]

    outputs = []
    for s, set_stats in enumerate(stats):
        run_counters = InteractionCounters()
        for *_, counters in results:
            run_counters.merge(counters[s])
        set_stats.counters.merge(run_counters)
        if run_counters.degenerate_skips:
            log.warning("skipped %d degenerate segment/screen configurations",
                        run_counters.degenerate_skips)
        diffraction.log_itu_se_out_of_regime(run_counters.out_of_regime, wavelength)
        pairs = {}
        for pair, table in trace.pairs.items():
            # results run pair by pair in sorted order, chunks in step order
            gains = np.concatenate([set_gains[s] for p, _, set_gains, _ in results if p == pair])
            if np.isnan(gains).any():
                raise TraceFormatError("NaN path gain")
            above = gains >= cfg.removal_floor_db
            set_stats.rays_dropped += len(table) - int(np.count_nonzero(above))
            pairs[pair] = dataclasses.replace(table, gain=gains).kept(above)
        outputs.append(ChannelTrace(node_positions=dict(trace.node_positions), pairs=pairs,
                                    time_step=trace.time_step, num_steps=trace.num_steps))
    return outputs

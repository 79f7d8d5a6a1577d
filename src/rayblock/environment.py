"""Simulation core: apply every obstacle to every ray at every timestep.

Work decomposes into independent chunks of consecutive timesteps of one
pair. A chunk flattens its rays once into a segment table (see
``obstacles.path_segments``); each obstacle, in configuration order,
samples its poses at the chunk's trace timestamps as a (steps, 3) array and
returns one loss per ray of the chunk, which is subtracted from the rays'
path gains. Applying obstacles one after another this way makes running
two obstacle sets sequentially equal one combined run bit-for-bit. Rays
attenuated below the removal floor are dropped. Delays, phases and vertex
paths are never modified.

Chunks may run in parallel worker processes; results land in pre-sized
slots, and a ray's result never depends on the other rays of its chunk, so
any chunking and the single-threaded mode produce identical output.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import diffraction
from .errors import ConfigError
from .obstacles import InteractionCounters, Obstacle, obstacle_losses, path_segments, position_at
from .trace import SPEED_OF_LIGHT, ChannelTrace, Ray

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
        if self.time_step is not None and self.time_step <= 0:
            raise ConfigError("time step must be positive")
        if not math.isfinite(self.removal_floor_db):
            raise ConfigError("removal floor must be finite")
        if self.carrier_frequency_hz <= 0:
            raise ConfigError("carrier frequency must be positive")


@dataclass
class RunStats:
    """Optional out-parameter of run(); aggregated across workers.

    clamp_events counts the losses capped at diffraction.LOSS_CAP_DB.
    """

    rays_in: int = 0
    rays_dropped: int = 0
    counters: InteractionCounters = field(default_factory=InteractionCounters)
    clamp_events: int = 0


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


def primary_ray_index(rays: list[Ray]) -> int | None:
    """The direct ray when present, else the shortest-delay ray (ties: lower index).

    The choice never reads path gains, so a run on rays another run has
    already attenuated picks the same primary ray.
    """
    if not rays:
        return None
    return min(range(len(rays)),
               key=lambda i: (rays[i].reflection_order != 0, rays[i].delay, i))


def _run_chunk(args) -> tuple:
    """Final gains of a run of steps of one pair after all obstacles, step by step."""
    (pair, k_lo, step_rays, obstacles, stride, pose_step, wavelength) = args
    counters = InteractionCounters()
    capped_before = diffraction.diagnostics.total
    gains = np.array([ray.path_gain_db for rays in step_rays for ray in rays], dtype=np.float64)
    if gains.shape[0] and obstacles:
        segments = path_segments(step_rays, [primary_ray_index(rays) for rays in step_rays],
                                 wavelength)
        times = [((k_lo + offset) // stride) * pose_step for offset in range(len(step_rays))]
        for obstacle in obstacles:
            centers = np.array([position_at(obstacle.mobility, t) for t in times])
            losses, _ = obstacle_losses(obstacle, centers, segments, wavelength, counters)
            gains -= losses
    out = np.split(gains, np.cumsum([len(rays) for rays in step_rays])[:-1])
    return pair, k_lo, out, counters, diffraction.diagnostics.total - capped_before


def run(trace: ChannelTrace, cfg: SimulationConfig, workers: int | None = None,
        stats: RunStats | None = None) -> ChannelTrace:
    """New trace of identical shape with obstacle losses applied.

    With zero obstacles the output equals the input field for field. The
    incompatible-time-base check runs before any computation.
    """
    stride, pose_step = _pose_stride(trace, cfg)
    if stats is None:
        stats = RunStats()
    stats.rays_in = sum(len(rays) for steps in trace.pairs.values() for rays in steps)

    if not cfg.obstacles:
        pairs = {pair: [list(rays) for rays in steps] for pair, steps in trace.pairs.items()}
        return ChannelTrace(node_positions=dict(trace.node_positions), pairs=pairs,
                            time_step=trace.time_step, num_steps=trace.num_steps)

    wavelength = SPEED_OF_LIGHT / cfg.carrier_frequency_hz
    n_workers = resolve_workers(workers)

    chunks = []
    for pair in sorted(trace.pairs):
        steps = trace.pairs[pair]
        chunk_len = max(1, math.ceil(trace.num_steps / max(n_workers * 4, 1)))
        for k_lo in range(0, trace.num_steps, chunk_len):
            step_rays = steps[k_lo:k_lo + chunk_len]
            chunks.append((pair, k_lo, step_rays, cfg.obstacles, stride, pose_step,
                           wavelength))

    gains_by_pair: dict[tuple[int, int], list[np.ndarray | None]] = {
        pair: [None] * trace.num_steps for pair in trace.pairs
    }
    if n_workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]

    run_counters = InteractionCounters()
    for pair, k_lo, step_gains, counters, capped in results:
        for offset, gains in enumerate(step_gains):
            gains_by_pair[pair][k_lo + offset] = gains
        run_counters.merge(counters)
        stats.clamp_events += capped
    stats.counters.merge(run_counters)
    if run_counters.degenerate_skips:
        log.warning("skipped %d degenerate segment/screen configurations",
                    run_counters.degenerate_skips)
    diffraction.log_itu_se_out_of_regime(run_counters.out_of_regime, wavelength)

    new_pairs: dict[tuple[int, int], list[list[Ray]]] = {}
    for pair, steps in trace.pairs.items():
        new_steps = []
        for k, rays in enumerate(steps):
            gains = gains_by_pair[pair][k]
            kept = []
            for ray, gain in zip(rays, gains):
                if gain < cfg.removal_floor_db:
                    stats.rays_dropped += 1
                    continue
                kept.append(ray if gain == ray.path_gain_db else ray.with_gain(float(gain)))
            new_steps.append(kept)
        new_pairs[pair] = new_steps

    return ChannelTrace(node_positions=dict(trace.node_positions), pairs=new_pairs,
                        time_step=trace.time_step, num_steps=trace.num_steps)

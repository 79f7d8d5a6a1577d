"""Simulation core: apply every obstacle to every ray at every timestep.

Work decomposes into independent chunks of consecutive timesteps of one
pair: one chunk per pair on one worker, several per pair to spread across
more. A chunk is a step range of the pair's ray table, cut once into a
segment table (see ``obstacles.path_segments``); each obstacle, in
configuration order, samples its poses at the chunk's trace timestamps as a
(steps, 3) array and returns one loss per ray of the chunk, which is
subtracted from the rays' path gains. Applying obstacles one after another this way makes running
two obstacle sets sequentially equal one combined run bit-for-bit. A run's
result is the input table with a new gain column: every row is kept, and
the delays, phases and vertex paths are the input's arrays. Dropping weak
rays is left to the caller (``export_scenario``'s ``drop_below_db``).

One pass can serve several model sets (``run_model_sets``): the same
obstacles, each set swapping in its own loss model per obstacle. The
segment table, poses, cull and screen geometry are computed once per chunk
and every set reads them; each set's gain column equals a run of its own.

Chunks may run in parallel worker processes, never more of them than the
CPUs the process may run on or the chunks. Results come back in chunk
order and each pair's chunks are joined in step order; a ray's result never
depends on the other rays of its chunk, so any chunking and the
single-threaded mode produce identical output.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import diffraction
from .diffraction import LossModel
from .errors import ConfigError
from .obstacles import InteractionCounters, Obstacle, obstacle_losses, path_segments, positions_at
from .trace import SPEED_OF_LIGHT, ChannelTrace, RayTable

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimulationConfig:
    obstacles: tuple[Obstacle, ...]
    time_step: float | None = None          # defaults to the trace's step
    carrier_frequency_hz: float = 60e9

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.time_step is not None and not 0 < self.time_step < math.inf:
            raise ConfigError("time step must be finite and positive")
        if not 0 < self.carrier_frequency_hz < math.inf:
            raise ConfigError("carrier frequency must be finite and positive")


def resolve_workers(workers: int | None) -> int:
    """The CPUs this process may run on, or workers clamped to between 1 and them."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return cpus if workers is None else min(max(int(workers), 1), cpus)


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


def _run_chunk(args) -> tuple[np.ndarray, list[InteractionCounters]]:
    """Final gains of the rays of a step range of one pair after all
    obstacles, one row per model set, shape (sets, rays); and each set's
    counters."""
    (k_lo, table, obstacles, model_sets, stride, pose_step, wavelength) = args
    counters = [InteractionCounters() for _ in model_sets]
    gains = np.tile(table.gain, (len(model_sets), 1))
    if len(table) and obstacles:
        segments = path_segments(table, primary_rays(table), wavelength)
        times = (np.arange(k_lo, k_lo + table.counts.shape[0]) // stride) * pose_step
        for i, obstacle in enumerate(obstacles):
            centers = positions_at(obstacle.mobility, times)
            outcomes = obstacle_losses(obstacle, [models[i] for models in model_sets], centers,
                                       segments, wavelength)
            for set_gains, set_counters, (losses, _, counts) in zip(gains, counters, outcomes):
                set_gains -= losses
                set_counters.merge(counts)
    return gains, counters


def run(trace: ChannelTrace, cfg: SimulationConfig, workers: int | None = None) -> ChannelTrace:
    """New trace of identical shape with obstacle losses applied. Its
    interaction counts come from run_model_sets.

    With zero obstacles the output equals the input and no worker process
    starts. The incompatible-time-base check runs before any computation.
    """
    gains, _ = run_model_sets(trace, cfg, [tuple(o.model for o in cfg.obstacles)], workers)
    return trace.with_gains({pair: set_gains[0] for pair, set_gains in gains.items()})


def run_model_sets(trace: ChannelTrace, cfg: SimulationConfig,
                   model_sets: Sequence[Sequence[LossModel]], workers: int | None = None
                   ) -> tuple[dict[tuple[int, int], np.ndarray], list[InteractionCounters]]:
    """One run() per model set, in one pass: the trace under cfg with each
    obstacle's model swapped for the set's (one model per obstacle, in
    configuration order).

    Returns (gains, counters): gains[pair] has shape (sets, rays of the
    pair), and row s with counters[s] equals the gains and counts of a
    separate run() with set s. The geometry the sets share is computed
    once per chunk.
    """
    stride, pose_step = _pose_stride(trace, cfg)
    model_sets = [tuple(models) for models in model_sets]
    for models in model_sets:
        if len(models) != len(cfg.obstacles):
            raise ValueError(f"a model set needs one model per obstacle "
                             f"({len(cfg.obstacles)}), got {len(models)}")
        for obstacle, model in zip(cfg.obstacles, models):
            dataclasses.replace(obstacle, model=model)  # the obstacle's own checks

    wavelength = SPEED_OF_LIGHT / cfg.carrier_frequency_hz
    n_workers = resolve_workers(workers) if cfg.obstacles else 1  # no work, no pool

    chunk_len = (trace.num_steps if n_workers == 1
                 else max(1, math.ceil(trace.num_steps / (n_workers * 4))))
    pairs = sorted(trace.pairs)
    starts = range(0, trace.num_steps, chunk_len)
    chunks = [(k_lo, trace.pairs[pair].step_range(k_lo, k_lo + chunk_len), cfg.obstacles,
               model_sets, stride, pose_step, wavelength) for pair in pairs for k_lo in starts]

    if n_workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares one-worker runs its import

        # a forking pool starts all max_workers processes at its first task
        with ProcessPoolExecutor(max_workers=min(n_workers, len(chunks))) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(c) for c in chunks]

    # results come in chunk order: pair by pair in sorted order, steps ascending
    chunk_gains = iter(g for g, _ in results)
    gains = {pair: np.concatenate([next(chunk_gains) for _ in starts], axis=1) for pair in pairs}
    counters = []
    for s in range(len(model_sets)):
        set_counters = InteractionCounters()
        for _, chunk_counters in results:
            set_counters.merge(chunk_counters[s])
        if set_counters.degenerate_skips:
            log.warning("skipped %d degenerate segment/screen configurations",
                        set_counters.degenerate_skips)
        diffraction.log_itu_se_out_of_regime(set_counters.out_of_regime, wavelength)
        counters.append(set_counters)
    return gains, counters

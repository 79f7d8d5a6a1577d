import concurrent.futures
import math
import os

import numpy as np
import pytest

from rayblock import _kernels, obstacles
from rayblock.diffraction import ItuSe, Metis
from rayblock.trace import (
    SPEED_OF_LIGHT,
    ChannelTrace,
    Ray,
    RayTable,
    direction_angles,
    path_directions,
)

QUADRATURE_TOL = 1e-9


def carrier_phase(delay: float, frequency_hz: float = 60e9) -> float:
    turns = frequency_hz * delay
    return -2.0 * math.pi * (turns - round(turns))


def make_ray(*points, gain_db: float = -80.0, frequency_hz: float = 60e9) -> Ray:
    vertices = np.array(points, dtype=np.float64)
    length = float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))
    delay = length / SPEED_OF_LIGHT
    return Ray(delay=delay, path_gain_db=gain_db, phase_rad=carrier_phase(delay, frequency_hz),
               vertices=vertices)


class InProcessPool:
    """Stands in for the process pool: maps in this process, in order, and
    starts no process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def patch_cpus(monkeypatch, cpus: int) -> None:
    """The process may run on cpus CPUs, as far as the worker count sees."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def in_process_pools(monkeypatch, cpus: int) -> list[InProcessPool]:
    """Patches the CPU count to cpus and the process pool to InProcessPool;
    returns the pools made, in order."""
    pools = []

    def pool(max_workers):
        pools.append(InProcessPool(max_workers))
        return pools[-1]

    patch_cpus(monkeypatch, cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pools


def interaction(obstacle, ray, t: float, wavelength: float, is_primary_ray: bool = True):
    """interact's outcome, and the interaction counts of its one-ray
    obstacle_losses pass, which the outcome must equal."""
    [(losses, blocked, counts)] = obstacles.obstacle_losses(
        obstacle, (obstacle.model,), obstacles.positions_at(obstacle.mobility, [t]),
        obstacles.path_segments(RayTable.from_steps([[ray]]), np.array([is_primary_ray]),
                                wavelength),
        wavelength)
    out = obstacles.interact(obstacle, ray, t, wavelength, is_primary_ray)
    assert out == (float(losses[0]), bool(blocked[0]))
    return out, counts


def steps_of(table: RayTable) -> list[list[Ray]]:
    """Every step's rays of a table, one Ray list per step."""
    return [table.rays(k) for k in range(table.counts.shape[0])]


def trace_of(steps_by_pair: dict, node_positions: dict, time_step: float) -> ChannelTrace:
    """A trace from each pair's per-step Ray lists."""
    pairs = {pair: RayTable.from_steps(steps) for pair, steps in steps_by_pair.items()}
    return ChannelTrace(node_positions=node_positions, pairs=pairs, time_step=time_step,
                        num_steps=len(next(iter(steps_by_pair.values()))))


def fresnel_cs_grid(nus) -> tuple[np.ndarray, np.ndarray]:
    """C, S arrays from the production series, one scalar call per value as
    sked makes them."""
    c, s = zip(*(_kernels.fresnel_cs(float(nu)) for nu in nus))
    return np.array(c), np.array(s)


def fresnel_quadrature(nu: float, tol: float = QUADRATURE_TOL) -> tuple[float, float]:
    """C(nu), S(nu) by adaptive quadrature of the Fresnel integrand, split
    per unit interval: the reference oracle of fresnel_integral."""
    from scipy import integrate

    a = abs(nu)
    if a == 0.0:
        return 0.0, 0.0
    pieces = max(int(math.ceil(a)), 1)
    bounds = np.linspace(0.0, a, pieces + 1)
    tol_piece = tol / pieces
    c = 0.0
    s = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        c += integrate.quad(lambda x: math.cos(0.5 * math.pi * x * x), lo, hi,
                            epsabs=tol_piece, limit=200)[0]
        s += integrate.quad(lambda x: math.sin(0.5 * math.pi * x * x), lo, hi,
                            epsabs=tol_piece, limit=200)[0]
    if nu < 0:
        return -c, -s
    return c, s


def fresnel_integral_grid(nus, tol: float = QUADRATURE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature C, S over a grid, integrating increment by increment in
    sorted order: the oracle on dense grids, where per-point integration
    from zero would be needlessly slow."""
    from scipy import integrate

    nus = np.asarray(nus, dtype=np.float64)
    order = np.argsort(nus)
    sorted_nus = nus[order]
    c = np.empty_like(sorted_nus)
    s = np.empty_like(sorted_nus)
    tol_piece = tol / max(len(nus), 1)
    c[0], s[0] = fresnel_quadrature(float(sorted_nus[0]), tol)
    for i in range(1, len(sorted_nus)):
        lo, hi = float(sorted_nus[i - 1]), float(sorted_nus[i])
        c[i] = c[i - 1] + integrate.quad(
            lambda x: math.cos(0.5 * math.pi * x * x), lo, hi, epsabs=tol_piece, limit=200)[0]
        s[i] = s[i - 1] + integrate.quad(
            lambda x: math.sin(0.5 * math.pi * x * x), lo, hi, epsabs=tol_piece, limit=200)[0]
    out_c = np.empty_like(c)
    out_s = np.empty_like(s)
    out_c[order] = c
    out_s[order] = s
    return out_c, out_s


def angles_of_departure(ray: Ray) -> tuple[float, float]:
    """(azimuth, elevation) of one ray's first path segment, radians."""
    azimuth, elevation = direction_angles(path_directions(RayTable.from_steps([[ray]]))[0])
    return float(azimuth[0]), float(elevation[0])


def angles_of_arrival(ray: Ray) -> tuple[float, float]:
    """(azimuth, elevation) of one ray's last path segment reversed, radians."""
    azimuth, elevation = direction_angles(path_directions(RayTable.from_steps([[ray]]))[1])
    return float(azimuth[0]), float(elevation[0])


def edge_row(shape, center, start, end, wavelength: float):
    """One row of the production candidate table, as plain floats.

    Returns (blocked, edges): edges maps each edge name (w1, w2, h1, h2) to
    its depth, nu, excess path and distance from the segment's line (los),
    computed by the screen cross-section and edge table a run uses for a
    screen of shape centered at center against the segment start -> end.
    Returns None for a row a run skips as degenerate.
    """
    centers, starts, ends = (np.array([p], dtype=np.float64) for p in (center, start, end))
    u, v, degenerate = obstacles._screen_axes(shape, starts, ends)
    depths, blocked, parallel = obstacles._screen_cross_section(
        centers, u, v, 0.5 * shape.width, 0.5 * shape.height, starts, ends)
    if degenerate[0] or parallel[0]:
        return None
    table = obstacles._edge_table(shape, [Metis(), ItuSe()], centers, u, v, starts, ends,
                                  depths, np.array([0]), wavelength)
    if any(on_edge[0] for on_edge in table.on_edge.values()):
        return None
    edges = {name: {"depth": float(depths[0, i]), "nu": float(table.nu[name][0]),
                    "excess": float(table.excess[name][0]), "los": float(table.los[name][0])}
             for i, name in enumerate(obstacles._EDGES)}
    return bool(blocked[0]), edges


def fspl_db(length: float, frequency_hz: float) -> float:
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return -20.0 * math.log10(4.0 * math.pi * length / wavelength)


def build_los_trace(tx, rx, num_steps: int, time_step: float,
                    gain_db: float = -80.0) -> ChannelTrace:
    """Static single-pair trace carrying only the direct ray."""
    ray = make_ray(tx, rx, gain_db=gain_db)
    positions = {
        0: np.tile(np.asarray(tx, dtype=np.float64), (num_steps, 1)),
        1: np.tile(np.asarray(rx, dtype=np.float64), (num_steps, 1)),
    }
    return trace_of({(0, 1): [[ray] for _ in range(num_steps)]}, positions, time_step)


# Fixed single-bounce reflection points of the synthetic dynamic room
# (19 m long in y, 10 m wide in x, 3 m high).
DYNAMIC_ROOM_BOUNCES = (
    (0.0, 2.0, 1.5), (0.0, 6.0, 1.0), (0.0, 10.0, 2.0), (0.0, 14.0, 1.2), (0.0, 17.0, 2.2),
    (10.0, 3.0, 1.1), (10.0, 7.0, 2.1), (10.0, 11.0, 1.4), (10.0, 15.0, 1.9), (10.0, 18.0, 1.3),
    (3.0, 5.0, 3.0), (7.0, 9.0, 3.0), (4.0, 13.0, 3.0), (6.0, 16.0, 3.0), (5.0, 8.0, 3.0),
)


def build_dynamic_trace(num_steps: int = 3133, time_step: float = 0.005,
                        frequency_hz: float = 60e9) -> ChannelTrace:
    """Moving-receiver trace with 16 rays per step (direct + 15 bounces)."""
    tx = np.array([5.0, 0.1, 2.9])
    speed = 1.2
    tx_pos = np.tile(tx, (num_steps, 1))
    rx_pos = np.empty((num_steps, 3))
    steps = []
    for k in range(num_steps):
        rx = np.array([5.0, 0.1 + speed * time_step * k, 1.5])
        rx_pos[k] = rx
        rays = [make_ray(tx, rx, gain_db=fspl_db(float(np.linalg.norm(rx - tx)), frequency_hz),
                         frequency_hz=frequency_hz)]
        for bounce in DYNAMIC_ROOM_BOUNCES:
            b = np.asarray(bounce)
            length = float(np.linalg.norm(b - tx) + np.linalg.norm(rx - b))
            rays.append(make_ray(tx, b, rx, gain_db=fspl_db(length, frequency_hz) - 10.0,
                                 frequency_hz=frequency_hz))
        steps.append(rays)
    return trace_of({(0, 1): steps}, {0: tx_pos, 1: rx_pos}, time_step)


def assert_traces_equal(a: ChannelTrace, b: ChannelTrace) -> None:
    assert a.num_steps == b.num_steps
    assert a.time_step == b.time_step
    assert set(a.pairs) == set(b.pairs)
    assert set(a.node_positions) == set(b.node_positions)
    for node in a.node_positions:
        np.testing.assert_array_equal(a.node_positions[node], b.node_positions[node])
    for pair in a.pairs:
        for column in ("counts", "delay", "gain", "phase", "vertices", "ends"):
            np.testing.assert_array_equal(getattr(a.pairs[pair], column),
                                          getattr(b.pairs[pair], column),
                                          err_msg=f"pair {pair} {column}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Property tests (hypothesis, derandomized): reciprocity of every loss model,
the sequential-equals-combined obstacle order, the candidate table's
invariances (a whole run equals its rays taken one at a time, any chunking
of a pair's steps gives the same gains, and one pass over several model
sets equals a run per set), the segment table and the primary rays against
per-ray references, far culling against the README's threshold
definition, batch pose sampling against the scalar formulas, the batch
SNR against a per-ray reference and each of its gain columns against the
table without the rays below that column's floor, and RayTable's row
rules against a per-row reference of Ray's."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    angles_of_arrival,
    angles_of_departure,
    assert_traces_equal,
    edge_row,
    make_ray,
    steps_of,
    trace_of,
)
from rayblock.diffraction import FAR_FIELD_NU, MODEL_REGISTRY, Metis, Obstruction
from rayblock.environment import (
    SimulationConfig,
    _run_chunk,
    primary_rays,
    run,
    run_model_sets,
)
from rayblock.linkeval import ArrayConfig, LinkBudget, noise_power_dbm, snr_timeline, \
    steering_vector
from rayblock.obstacles import (
    InteractionCounters,
    LinearMobility,
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    SphereShape,
    Static,
    WaypointMobility,
    interact,
    obstacle_losses,
    path_segments,
    position_at,
    positions_at,
)
from rayblock.errors import ConfigError, TraceFormatError
from rayblock.obstacles import _screen_axes, default_threshold
from rayblock.trace import ChannelTrace, Ray, RayTable

WAVELENGTH = 299792458.0 / 60e9
CUTOFF_MARGIN = 1e-6
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def coords(lo, hi):
    return st.tuples(*(st.floats(a, b) for a, b in zip(lo, hi)))


def make_model(name: str):
    return Obstruction(10.0) if name == "obstruction" else MODEL_REGISTRY[name]()


@st.composite
def screen_crossings(draw):
    """A screen of any model near a segment, with the segment's endpoints."""
    name = draw(st.sampled_from(sorted(MODEL_REGISTRY)))
    width = draw(st.floats(0.1, 1.0))
    height = draw(st.floats(0.3, 2.0))
    if draw(st.booleans()):
        shape = OrthoScreenShape(width, height)
    elif name == "metis":  # the arctan model needs a broadside screen
        shape = ScreenShape(width, height)
    else:
        shape = ScreenShape(width, height, azimuth=draw(st.floats(-math.pi, math.pi)),
                            elevation=draw(st.floats(-0.6, 0.6)))
    obstacle = Obstacle(shape=shape, mobility=Static(draw(coords((2, -1.5, 0.2), (6, 1.5, 2.5)))),
                        model=make_model(name), distance_threshold=1e3)
    tx = np.array(draw(coords((-1, -1, 0.5), (1, 1, 2.5))))
    rx = np.array(draw(coords((7, -1, 0.5), (9, 1, 2.5))))
    return obstacle, tx, rx


def near_a_cutoff(obstacle: Obstacle, tx: np.ndarray, rx: np.ndarray) -> bool:
    """True when a rule switches within CUTOFF_MARGIN of this configuration:
    screen edge on the path, screen plane at a node, far-field limit of an
    edge, or the arctan model's choice of the positive edge of a pair."""
    shape, center = obstacle.shape, np.array(obstacle.mobility.position)
    row = edge_row(shape, center, tx, rx, WAVELENGTH)
    if row is None:
        return False  # skipped in both directions
    _, edges = row
    u, v, _ = _screen_axes(shape, tx[np.newaxis], rx[np.newaxis])
    normal = np.cross(u[0], v[0])
    t = float((center - tx) @ normal / ((rx - tx) @ normal))
    if min(abs(t), abs(t - 1.0)) < CUTOFF_MARGIN:
        return True
    for edge in edges.values():
        if abs(edge["depth"]) < CUTOFF_MARGIN:
            return True
        if abs(abs(edge["nu"]) - FAR_FIELD_NU) < CUTOFF_MARGIN:
            return True
        if abs(2.0 * math.sqrt(edge["excess"] / WAVELENGTH) - FAR_FIELD_NU) < CUTOFF_MARGIN:
            return True
    return isinstance(obstacle.model, Metis) and (
        abs(edges["w1"]["los"] - edges["w2"]["los"]) < CUTOFF_MARGIN
        or abs(edges["h1"]["los"] - edges["h2"]["los"]) < CUTOFF_MARGIN)


@PROPERTY_SETTINGS
@given(screen_crossings())
def test_losses_reciprocal_under_reversal(crossing):
    obstacle, tx, rx = crossing
    assume(not near_a_cutoff(obstacle, tx, rx))
    forward = interact(obstacle, make_ray(tx, rx), 0.0, WAVELENGTH)
    backward = interact(obstacle, make_ray(rx, tx), 0.0, WAVELENGTH)
    assert forward.blocked == backward.blocked
    assert abs(forward.loss_db - backward.loss_db) <= 1e-6


TX, RX = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6)


@st.composite
def obstacles(draw, anchors, name=None, fallback=None):
    """An obstacle of any shape and model (a screen of the named model, if
    given) starting near one of the anchors."""
    kind = draw(st.sampled_from(("sphere", "ortho", "screen")))
    if kind == "sphere":
        shape = SphereShape(draw(st.floats(0.1, 0.6)))
        model = Obstruction(draw(st.floats(0.0, 30.0)))
    else:
        width, height = draw(st.floats(0.1, 1.0)), draw(st.floats(0.5, 2.0))
        if name is None:
            name = draw(st.sampled_from(sorted(MODEL_REGISTRY)))
        if kind == "ortho":
            shape = OrthoScreenShape(width, height)
        elif name == "metis":
            shape = ScreenShape(width, height)
        else:
            shape = ScreenShape(width, height, azimuth=draw(st.floats(-math.pi, math.pi)))
        model = make_model(name)
    anchor = draw(st.sampled_from(anchors))
    offset = draw(coords((-0.5, -0.5, -1.0), (0.5, 0.5, 0.5)))
    start = tuple(float(a + o) for a, o in zip(anchor, offset))
    if draw(st.booleans()):
        mobility = Static(start)
    else:
        mobility = LinearMobility(start, draw(coords((-1.5, -1.5, 0), (1.5, 1.5, 0))))
    return Obstacle(shape=shape, mobility=mobility, model=model,
                    distance_threshold=draw(st.one_of(st.none(), st.floats(0.05, 3.0))),
                    obstruction_fallback_for_secondary=(draw(st.booleans()) if fallback is None
                                                        else fallback),
                    fallback_loss_db=draw(st.floats(0.0, 20.0)))


@st.composite
def scenes(draw, max_steps=3, vary_rays=False):
    """A one-pair trace of direct and single-bounce rays, and anchor points
    in the middle of its segments, where obstacles interact. With
    vary_rays, each step carries its own subset of the rays (maybe none)."""
    num_steps = draw(st.integers(1, max_steps))
    bounces = draw(st.lists(coords((2, -3, 0.3), (6, 3, 2.8)), min_size=1, max_size=3))
    with_direct = draw(st.booleans())
    gains = st.floats(-90.0, -55.0)
    paths = ([(TX, RX)] if with_direct else []) + [(TX, b, RX) for b in bounces]
    steps = []
    for _ in range(num_steps):
        chosen = (draw(st.lists(st.sampled_from(paths), unique=True)) if vary_rays
                  else paths)
        steps.append([make_ray(*path, gain_db=draw(gains)) for path in chosen])
    trace = trace_of({(0, 1): steps},
                     {0: np.tile(TX, (num_steps, 1)), 1: np.tile(RX, (num_steps, 1))},
                     time_step=0.25)
    anchors = [0.5 * (np.array(a) + np.array(b)) for path in paths
               for a, b in zip(path, path[1:])]
    return trace, anchors


@PROPERTY_SETTINGS
@given(st.data())
def test_sequential_runs_equal_combined_run_for_random_obstacles(data):
    trace, anchors = data.draw(scenes())
    obstacle_list = data.draw(st.lists(obstacles(anchors), min_size=1, max_size=4))
    split = data.draw(st.integers(0, len(obstacle_list)))

    combined = run(trace, SimulationConfig(obstacles=tuple(obstacle_list)), workers=1)
    sequential = run(run(trace, SimulationConfig(obstacles=tuple(obstacle_list[:split])),
                         workers=1),
                     SimulationConfig(obstacles=tuple(obstacle_list[split:])), workers=1)
    assert_traces_equal(combined, sequential)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_run_equals_its_rays_one_at_a_time(name, fallback, data):
    trace, anchors = data.draw(scenes(vary_rays=True))
    obstacle_list = data.draw(st.lists(obstacles(anchors, name, fallback),
                                       min_size=1, max_size=4))
    out = run(trace, SimulationConfig(obstacles=tuple(obstacle_list)), workers=1)
    for k, (rays, out_rays) in enumerate(zip(steps_of(trace.pairs[(0, 1)]),
                                             steps_of(out.pairs[(0, 1)]))):
        primary = primary_ray_index(rays)
        assert len(out_rays) == len(rays)
        for i, (ray, out_ray) in enumerate(zip(rays, out_rays)):
            gain = ray.path_gain_db
            for obstacle in obstacle_list:
                gain -= interact(obstacle, ray, k * trace.time_step, WAVELENGTH,
                                 is_primary_ray=i == primary).loss_db
            assert out_ray.path_gain_db == gain


@PROPERTY_SETTINGS
@given(st.data())
def test_any_chunking_gives_the_same_gains(data):
    trace, anchors = data.draw(scenes(max_steps=8, vary_rays=True))
    obstacle_list = tuple(data.draw(st.lists(obstacles(anchors), min_size=1, max_size=4)))
    table = trace.pairs[(0, 1)]
    num_steps = trace.num_steps
    stride = data.draw(st.integers(1, 3))
    cuts = data.draw(st.sets(st.integers(1, num_steps - 1))) if num_steps > 1 else set()
    bounds = [0, *sorted(cuts), num_steps]

    def chunk(lo, hi):
        # one model set: the obstacles' own models
        return _run_chunk((lo, table.step_range(lo, hi), obstacle_list,
                           [tuple(o.model for o in obstacle_list)], stride,
                           stride * trace.time_step, WAVELENGTH))

    whole, [whole_counters] = chunk(0, num_steps)
    parts = [chunk(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert whole.shape == (1, len(table))
    np.testing.assert_array_equal(whole, np.concatenate([gains for gains, _ in parts], axis=1))
    counters = InteractionCounters()
    for _, [part_counters] in parts:
        counters.merge(part_counters)
    assert counters == whole_counters  # clamp events included


@st.composite
def model_sets(draw, obstacle_list):
    """One to four model sets for the obstacles: any model an obstacle's
    shape admits (spheres obstruct, tilted screens take no metis)."""
    def model_for(obstacle):
        if isinstance(obstacle.shape, SphereShape):
            return Obstruction(draw(st.floats(0.0, 30.0)))
        names = sorted(MODEL_REGISTRY)
        if isinstance(obstacle.shape, ScreenShape) and obstacle.shape.tilted:
            names.remove("metis")
        return make_model(draw(st.sampled_from(names)))

    return [tuple(model_for(o) for o in obstacle_list)
            for _ in range(draw(st.integers(1, 4)))]


def swapped(cfg: SimulationConfig, models) -> SimulationConfig:
    return dataclasses.replace(cfg, obstacles=tuple(
        dataclasses.replace(o, model=m) for o, m in zip(cfg.obstacles, models)))


@pytest.mark.parametrize("fallback", [False, True])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_equals_a_run_per_model_set(fallback, data):
    trace, anchors = data.draw(scenes(vary_rays=True))
    obstacle_list = tuple(data.draw(st.lists(obstacles(anchors, fallback=fallback),
                                             min_size=1, max_size=4)))
    sets = data.draw(model_sets(obstacle_list))
    cfg = SimulationConfig(obstacles=obstacle_list)
    gains, counters = run_model_sets(trace, cfg, sets, workers=1)
    assert len(counters) == len(sets)
    for s, (models, got) in enumerate(zip(sets, counters)):
        # a run is the one-set pass of its obstacles' own models
        alone, [want] = run_model_sets(trace, swapped(cfg, models), [models], workers=1)
        for pair, table in trace.pairs.items():
            assert gains[pair].shape == (len(sets), len(table))
            np.testing.assert_array_equal(gains[pair][s], alone[pair][0])
        assert got == want  # interaction counters and clamp events


@PROPERTY_SETTINGS
@given(st.data())
def test_each_model_of_an_obstacle_pass_equals_a_pass_with_it_alone(data):
    """obstacle_losses with several models returns, per model, the loss,
    blocked flags and counts of a call with that model alone: spheres,
    secondary-ray fallback, tilted screens, and itu_se both in and (at
    12.5 cm) outside its regime."""
    trace, anchors = data.draw(scenes(max_steps=6, vary_rays=True))
    obstacle = data.draw(obstacles(anchors))
    models = [m for (m,) in data.draw(model_sets((obstacle,)))
              + data.draw(model_sets((obstacle,)))]
    wavelength = data.draw(st.sampled_from([WAVELENGTH, 0.125]))
    table = trace.pairs[(0, 1)]
    segments = path_segments(table, primary_rays(table), wavelength)
    centers = positions_at(obstacle.mobility, trace.times())
    together = obstacle_losses(obstacle, models, centers, segments, wavelength)
    assert len(together) == len(models)
    for model, (loss, blocked, counts) in zip(models, together):
        [(alone_loss, alone_blocked, alone_counts)] = obstacle_losses(
            obstacle, [model], centers, segments, wavelength)
        np.testing.assert_array_equal(loss, alone_loss)
        np.testing.assert_array_equal(blocked, alone_blocked)
        assert counts == alone_counts  # clamp events and out-of-regime counts included


def scalar_position(mobility, t: float) -> np.ndarray:
    """Reference pose: the scalar formula of each mobility model."""
    if isinstance(mobility, Static):
        return np.array(mobility.position, dtype=np.float64)
    if isinstance(mobility, LinearMobility):
        return (np.array(mobility.start, dtype=np.float64)
                + t * np.array(mobility.velocity, dtype=np.float64))
    times, pts = mobility.times, mobility.points
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


@st.composite
def mobilities_and_times(draw):
    """A mobility model of any kind and query times, for waypoints including
    the exact waypoint times and times before the first and after the last."""
    point = coords((-10, -10, -10), (10, 10, 10))
    kind = draw(st.sampled_from(("static", "linear", "waypoints")))
    times = draw(st.lists(st.floats(0.0, 20.0), max_size=12))
    if kind == "static":
        mobility = Static(draw(point))
    elif kind == "linear":
        mobility = LinearMobility(draw(point), draw(point))
    else:
        waypoint_times = sorted(draw(st.sets(st.floats(0.5, 15.0), min_size=1, max_size=5)))
        mobility = WaypointMobility(tuple(waypoint_times),
                                    tuple(draw(point) for _ in waypoint_times))
        times += waypoint_times + [0.0, 0.25, 19.0]
    return mobility, draw(st.permutations(times))


@PROPERTY_SETTINGS
@given(mobilities_and_times())
def test_batch_poses_equal_the_scalar_formulas(case):
    mobility, times = case
    batch = positions_at(mobility, np.array(times, dtype=np.float64))
    assert batch.shape == (len(times), 3)
    for t, row in zip(times, batch):
        want = scalar_position(mobility, t)
        np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(position_at(mobility, t), want)


def test_negative_time_raises_config_error():
    for mobility in (Static((0, 0, 0)), LinearMobility((0, 0, 0), (1, 0, 0)),
                     WaypointMobility((0.0, 1.0), ((0, 0, 0), (1, 0, 0)))):
        with pytest.raises(ConfigError):
            position_at(mobility, -0.1)
        with pytest.raises(ConfigError):
            positions_at(mobility, np.array([0.0, -1e-9]))


def scalar_beamformed_amplitude(rays, budget: LinkBudget) -> complex:
    """Reference coherent sum of one step: one steering-vector inner product per ray."""
    # conjugate-matched weights toward the strongest ray (ties: lower index)
    strongest = max(range(len(rays)), key=lambda i: (rays[i].path_gain_db, -i))
    aod0 = angles_of_departure(rays[strongest])
    aoa0 = angles_of_arrival(rays[strongest])
    w_tx = steering_vector(budget.tx_array, aod0[0], aod0[1])
    w_rx = steering_vector(budget.rx_array, aoa0[0], aoa0[1])
    scale = math.sqrt(budget.tx_array.size * budget.rx_array.size)

    total = 0.0 + 0.0j
    for ray in rays:
        aod = angles_of_departure(ray)
        aoa = angles_of_arrival(ray)
        g_tx = np.vdot(w_tx, steering_vector(budget.tx_array, aod[0], aod[1]))
        g_rx = np.vdot(w_rx, steering_vector(budget.rx_array, aoa[0], aoa[1]))
        amplitude = 10.0 ** (ray.path_gain_db / 20.0)
        turns = budget.carrier_frequency_hz * ray.delay
        phase = -2.0 * math.pi * (turns - round(turns))
        total += amplitude * complex(math.cos(phase), math.sin(phase)) * g_tx * g_rx * scale
    return total


def scalar_snr(trace: ChannelTrace, pair, budget: LinkBudget) -> list[float]:
    """Reference SNR (dB) per step, step by step and ray by ray."""
    noise = noise_power_dbm(budget)
    out = []
    for rays in steps_of(trace.pairs[pair]):
        amplitude = abs(scalar_beamformed_amplitude(rays, budget)) if rays else 0.0
        out.append(budget.tx_power_dbm + 20.0 * math.log10(amplitude) - noise
                   if amplitude > 0.0 else -math.inf)
    return out


@st.composite
def link_budgets(draw):
    def array():
        return ArrayConfig(draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                           draw(st.floats(0.1, 1.0)))

    return LinkBudget(carrier_frequency_hz=draw(st.sampled_from((2.4e9, 28e9, 60e9))),
                      tx_array=array(), rx_array=array())


# gains from a small set make ties; -inf gains are fully attenuated rays
SNR_GAINS = st.one_of(st.floats(-130.0, -50.0), st.sampled_from((-80.0, -95.0, -math.inf)))


@st.composite
def snr_traces(draw):
    """A one-pair trace of rays with up to two bounces each, some steps maybe empty."""
    bounces = coords((2, -4, 0.1), (6, 4, 3.0))
    num_steps = draw(st.integers(1, 6))
    steps = []
    for _ in range(num_steps):
        tx = draw(coords((-1, -1, 0.5), (1, 1, 2.5)))
        rx = draw(coords((7, -1, 0.5), (9, 1, 2.5)))
        paths = draw(st.lists(st.lists(bounces, max_size=2), max_size=5))
        steps.append([make_ray(tx, *path, rx, gain_db=draw(SNR_GAINS)) for path in paths])
    return trace_of({(0, 1): steps},
                    {0: np.zeros((num_steps, 3)), 1: np.zeros((num_steps, 3))}, time_step=0.1)


@PROPERTY_SETTINGS
@given(st.data())
def test_batch_snr_matches_the_per_ray_reference(data):
    trace = data.draw(snr_traces())
    budget = data.draw(link_budgets())
    batch = snr_timeline(trace, (0, 1), budget)
    np.testing.assert_allclose(batch[:, 1], scalar_snr(trace, (0, 1), budget),
                               rtol=0.0, atol=1e-9)


@PROPERTY_SETTINGS
@given(st.data())
def test_each_gain_column_equals_the_snr_of_its_floored_table(data):
    # a column with -inf below its floor gives, bit for bit, the SNR of the
    # table without those rays: floors that drop nothing, some rays, or
    # every ray of a step (-40 dB drops them all)
    trace = data.draw(snr_traces())
    budget = data.draw(link_budgets())
    table = trace.pairs[(0, 1)]
    runs = data.draw(st.lists(st.tuples(
        st.lists(SNR_GAINS, min_size=len(table), max_size=len(table)),
        st.sampled_from((-500.0, -95.0, -80.0, -40.0)) | st.floats(-130.0, -50.0)),
        min_size=1, max_size=4))
    columns = [np.where(np.array(g) >= floor, np.array(g), -math.inf) for g, floor in runs]
    batch = snr_timeline(trace, (0, 1), budget, columns)
    assert batch.shape == (trace.num_steps, 1 + len(runs))
    np.testing.assert_array_equal(batch[:, 0], trace.times())
    for j, (gains, floor) in enumerate(runs):
        gains = np.array(gains)
        kept = dataclasses.replace(table, gain=gains).kept(gains >= floor)
        alone = snr_timeline(dataclasses.replace(trace, pairs={(0, 1): kept}), (0, 1), budget)
        np.testing.assert_array_equal(batch[:, 1 + j], alone[:, 1])


def segment_distance(p0, p1, q0, q1) -> float:
    """Exact distance between segments p0p1 and q0q1: the squared distance is a
    convex quadratic in the two segment parameters, so its minimum over the
    unit square is the interior stationary point or an edge's clamped one."""
    d1, d2, r = p1 - p0, q1 - q0, p0 - q0
    a, b, c, d, e = d1 @ d1, d1 @ d2, d2 @ d2, d1 @ r, d2 @ r
    candidates = [(s, min(max((b * s + e) / c, 0.0), 1.0) if c > 0 else 0.0) for s in (0.0, 1.0)]
    candidates += [(min(max((b * t - d) / a, 0.0), 1.0) if a > 0 else 0.0, t) for t in (0.0, 1.0)]
    det = a * c - b * b
    if det > 1e-12 * a * c:
        s, t = (b * e - c * d) / det, (a * e - b * d) / det
        if 0 <= s <= 1 and 0 <= t <= 1:
            candidates.append((s, t))
    return min(float(np.linalg.norm(r + s * d1 - t * d2)) for s, t in candidates)


def far_margins(shape, center, start, end, threshold) -> list[float]:
    """How far beyond the threshold each of the README's far tests puts an
    obstacle (> 0: farther): the surface of its bounding sphere and, for a
    screen, its vertical center line less half the screen's width."""
    if isinstance(shape, SphereShape):
        return [segment_distance(start, end, center, center) - shape.radius - threshold]
    half_diagonal = 0.5 * math.hypot(shape.width, shape.height)
    half = 0.5 * shape.height * shape.height_axis
    return [segment_distance(start, end, center, center) - half_diagonal - threshold,
            segment_distance(start, end, center - half, center + half) - 0.5 * shape.width
            - threshold]


@st.composite
def culled_tables(draw):
    """An obstacle of any shape and model, a threshold, and single-segment rays around it."""
    name = draw(st.sampled_from(sorted(MODEL_REGISTRY)))
    kind = draw(st.sampled_from(["sphere", "ortho_screen", "screen"]))
    if kind == "sphere":
        shape, name = SphereShape(draw(st.floats(0.05, 1.0))), "obstruction"
    elif kind == "ortho_screen":
        shape = OrthoScreenShape(draw(st.floats(0.1, 1.0)), draw(st.floats(0.3, 2.0)))
    elif name == "metis":
        shape = ScreenShape(draw(st.floats(0.1, 1.0)), draw(st.floats(0.3, 2.0)))
    else:
        shape = ScreenShape(draw(st.floats(0.1, 1.0)), draw(st.floats(0.3, 2.0)),
                            azimuth=draw(st.floats(-math.pi, math.pi)),
                            elevation=draw(st.floats(-0.6, 0.6)))
    threshold = draw(st.none() | st.floats(0.01, 0.5))
    obstacle = Obstacle(shape=shape, mobility=Static((0.0, 0.0, 0.0)), model=make_model(name),
                        distance_threshold=threshold,
                        obstruction_fallback_for_secondary=draw(st.booleans()))
    n = draw(st.integers(1, 12))
    point = coords((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))
    starts = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    ends = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    assume(np.all(np.linalg.norm(ends - starts, axis=1) > 0.1))
    return obstacle, starts, ends, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@PROPERTY_SETTINGS
@given(culled_tables())
def test_far_culling_changes_only_losses_beyond_the_threshold(table):
    """Culling against the thresholds keeps the unculled loss of every
    obstacle that no far test of the README puts beyond the threshold, and
    drops the loss of every one that a test does (the center-line test with
    its 0.1 mm slack)."""
    obstacle, starts, ends, primary = table
    n = starts.shape[0]
    rays = RayTable.from_steps([[make_ray(s, e)] for s, e in zip(starts, ends)])
    segments = path_segments(rays, np.array(primary), WAVELENGTH)
    centers = np.zeros((n, 3))
    [culled] = obstacle_losses(obstacle, (obstacle.model,), centers, segments, WAVELENGTH)
    [unculled] = obstacle_losses(dataclasses.replace(obstacle, distance_threshold=math.inf),
                                 (obstacle.model,), centers, segments, WAVELENGTH)
    thresholds = (segments.thresholds if obstacle.distance_threshold is None
                  else np.full(n, obstacle.distance_threshold))
    for i in range(n):
        margins = far_margins(obstacle.shape, centers[i], starts[i], ends[i], thresholds[i])
        assume(all(abs(m) > 1e-6 and abs(m - 1e-4) > 1e-6 for m in margins))
        if all(m <= 0 for m in margins):
            assert culled[0][i] == pytest.approx(unculled[0][i], rel=1e-12, abs=1e-12)
            assert culled[1][i] == unculled[1][i]
        elif margins[0] > 0 or margins[-1] > 1e-4:
            assert culled[0][i] == 0.0 and not culled[1][i]


def primary_ray_index(rays: list[Ray]) -> int | None:
    """Reference primary ray of one step: the direct ray when present, else
    the shortest-delay ray (ties: lower index); None for an empty step."""
    if not rays:
        return None
    return min(range(len(rays)),
               key=lambda i: (rays[i].reflection_order != 0, rays[i].delay, i))


TABLE_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def ray_steps(draw, max_steps=5, max_rays=5):
    """Per-step Ray lists of reflection orders 0-2, maybe empty steps. Delays
    come from a small set, so steps hold ties, and gains include -inf."""
    point = coords((-5, -5, 0), (5, 5, 3))
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        rays = []
        for _ in range(draw(st.integers(0, max_rays))):
            vertices = draw(st.lists(point, min_size=2, max_size=4))
            rays.append(Ray(delay=draw(st.sampled_from((1e-8, 2e-8, 3e-8))),
                            path_gain_db=draw(st.one_of(st.floats(-150.0, -40.0),
                                                        st.just(-math.inf))),
                            phase_rad=draw(st.floats(-math.pi, math.pi)),
                            vertices=np.array(vertices)))
        steps.append(rays)
    return steps


def assert_rays_equal(got: list[Ray], want: list[Ray]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.delay, a.path_gain_db, a.phase_rad) == (b.delay, b.path_gain_db, b.phase_rad)
        np.testing.assert_array_equal(a.vertices, b.vertices)


@TABLE_SETTINGS
@given(ray_steps())
def test_a_table_returns_the_rays_it_was_built_from(steps):
    table = RayTable.from_steps(steps)
    assert table.counts.tolist() == [len(rays) for rays in steps]
    for k, rays in enumerate(steps):
        assert_rays_equal(table.rays(k), rays)
    lo = len(steps) // 2
    part = table.step_range(lo, len(steps))
    for k, rays in enumerate(steps[lo:]):
        assert_rays_equal(part.rays(k), rays)


@TABLE_SETTINGS
@given(ray_steps(), st.data())
def test_kept_equals_the_per_ray_filter(steps, data):
    n = sum(map(len, steps))
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept = RayTable.from_steps(steps).kept(mask)
    flags = iter(mask)
    want = RayTable.from_steps([[ray for ray in rays if next(flags)] for rays in steps])
    for column in ("counts", "delay", "gain", "phase", "vertices", "ends"):
        np.testing.assert_array_equal(getattr(kept, column), getattr(want, column))


def reference_row_error(delay, gain, phase, vertices) -> str | None:
    """Ray's rules for one row, in Ray's order: the error the row raises,
    or None for a good row."""
    if not all(math.isfinite(c) for vertex in vertices for c in vertex):
        return "non-finite ray vertices"
    if not (math.isfinite(delay) and delay >= 0):
        return f"invalid delay {delay}"
    if not math.isfinite(phase):
        return f"invalid phase {phase}"
    if math.isnan(gain):
        return "NaN path gain"
    return None


# values each field may take; -inf gains and a -0.0 delay are good rows
ROW_VALUES = {"delay": (-1e-9, -0.0, 0.0, math.nan, math.inf, -math.inf),
              "gain": (math.nan, -math.inf, math.inf, 0.0),
              "phase": (math.nan, math.inf, -math.inf, 7.0),
              "vertex": (math.nan, math.inf, -math.inf)}


@st.composite
def edited_steps(draw):
    """Per-step Ray lists and edits (ray, field, vertex row, coordinate,
    value) of their columns: a few fields of random rows set to values
    that break Ray's rules or keep to them."""
    steps = draw(ray_steps())
    rays = [ray for step in steps for ray in step]
    edits = []
    for _ in range(draw(st.integers(0, 3)) if rays else 0):
        i = draw(st.integers(0, len(rays) - 1))
        field = draw(st.sampled_from(sorted(ROW_VALUES)))
        edits.append((i, field, draw(st.integers(0, rays[i].vertices.shape[0] - 1)),
                      draw(st.integers(0, 2)), draw(st.sampled_from(ROW_VALUES[field]))))
    return steps, edits


A, B, C, D = (0.0, 0.0, 1.6), (4.0, -2.5, 1.4), (6.0, 2.5, 2.0), (8.0, 0.0, 1.6)


@TABLE_SETTINGS
@given(edited_steps())
# a NaN vertex in a middle row of a second-order ray comes before the bad
# delay of a later ray; -inf gains and a -0.0 delay pass
@example(([[make_ray(A, D)], [make_ray(A, B, C, D), make_ray(A, D)]],
          [(0, "gain", 0, 0, -math.inf), (1, "vertex", 2, 1, math.nan),
           (2, "delay", 0, 0, math.nan)]))
@example(([[make_ray(A, B, D)], [], [make_ray(A, D)]],
          [(0, "delay", 0, 0, -0.0), (1, "gain", 0, 0, -math.inf)]))
# a bad first vertex row belongs to its own ray, not to the bad ray before it
@example(([[make_ray(A, B, D), make_ray(A, C, D)]],
          [(0, "delay", 0, 0, -1e-9), (1, "vertex", 0, 2, math.inf)]))
def test_a_table_rejects_the_first_row_that_breaks_a_ray_rule(edited):
    steps, edits = edited
    table = RayTable.from_steps(steps)
    columns = {name: getattr(table, name).tolist()
               for name in ("counts", "delay", "gain", "phase", "ends")}
    columns["vertices"] = table.vertices.copy()
    firsts = table.first_rows().tolist()
    for i, field, row, coord, value in edits:
        if field == "vertex":
            columns["vertices"][firsts[i] + row, coord] = value
        else:
            columns[field][i] = value
    rows = [(columns["delay"][i], columns["gain"][i], columns["phase"][i],
             columns["vertices"][firsts[i]:columns["ends"][i]]) for i in range(len(table))]
    errors = [reference_row_error(*row) for row in rows]
    want = next((error for error in errors if error is not None), None)
    if want is None:
        RayTable(**columns)
    else:
        with pytest.raises(TraceFormatError) as raised:
            RayTable(**columns)
        assert str(raised.value) == want
    for row, error in zip(rows, errors):  # Ray is a one-row table
        if error is None:
            Ray(*row)
        else:
            with pytest.raises(TraceFormatError, match=f"^{re.escape(error)}$"):
                Ray(*row)


@TABLE_SETTINGS
@given(ray_steps())
def test_primary_rays_equal_the_per_step_reference(steps):
    want = []
    offset = 0
    for rays in steps:
        index = primary_ray_index(rays)
        if index is not None:
            want.append(offset + index)
        offset += len(rays)
    assert np.flatnonzero(primary_rays(RayTable.from_steps(steps))).tolist() == want


def per_ray_segments(steps, primary, wavelength: float):
    """Reference segment table: each ray's vertices concatenated, ray by ray."""
    rays = [ray for rays in steps for ray in rays]
    starts = np.concatenate([ray.vertices[:-1] for ray in rays])
    ends = np.concatenate([ray.vertices[1:] for ray in rays])
    slot = np.repeat(np.arange(len(rays)), [ray.vertices.shape[0] - 1 for ray in rays])
    ray_step = np.repeat(np.arange(len(steps)), [len(rays) for rays in steps])
    thresholds = default_threshold(np.linalg.norm(ends - starts, axis=1), wavelength)
    return starts, ends, ray_step[slot], slot, primary[slot], thresholds, len(rays)


@TABLE_SETTINGS
@given(ray_steps(), st.data())
def test_path_segments_equal_the_per_ray_concatenation(steps, data):
    assume(any(steps))
    n = sum(map(len, steps))
    primary = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    got = path_segments(RayTable.from_steps(steps), primary, WAVELENGTH)
    for a, b in zip(got, per_ray_segments(steps, primary, WAVELENGTH)):
        np.testing.assert_array_equal(a, b)

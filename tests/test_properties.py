"""Property tests (hypothesis, derandomized): reciprocity of every loss model
and the sequential-equals-combined obstacle order."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_traces_equal, make_ray
from rayblock.diffraction import FAR_FIELD_NU, MODEL_REGISTRY, Metis, Obstruction, \
    diffraction_parameter
from rayblock.environment import SimulationConfig, run
from rayblock.errors import DegenerateGeometryError
from rayblock.obstacles import (
    LinearMobility,
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    SphereShape,
    Static,
    _screen_axes,
    _screen_geometry,
    interact,
)
from rayblock.trace import ChannelTrace

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
    center = np.array(obstacle.mobility.position)
    try:
        u, v = _screen_axes(obstacle.shape, tx, rx)
        geom = _screen_geometry(center, u, v, 0.5 * obstacle.shape.width,
                                0.5 * obstacle.shape.height, tx, rx, WAVELENGTH)
    except DegenerateGeometryError:
        return False  # skipped in both directions
    normal = np.cross(u, v)
    t = float((center - tx) @ normal / ((rx - tx) @ normal))
    if min(abs(t), abs(t - 1.0)) < CUTOFF_MARGIN:
        return True
    for edge in geom.edges:
        if abs(edge.depth) < CUTOFF_MARGIN:
            return True
        if abs(abs(diffraction_parameter(edge)) - FAR_FIELD_NU) < CUTOFF_MARGIN:
            return True
        if abs(2.0 * math.sqrt(edge.excess_path / WAVELENGTH) - FAR_FIELD_NU) < CUTOFF_MARGIN:
            return True
    return isinstance(obstacle.model, Metis) and (
        abs(geom.w1.los_distance - geom.w2.los_distance) < CUTOFF_MARGIN
        or abs(geom.h1.los_distance - geom.h2.los_distance) < CUTOFF_MARGIN)


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
def obstacles(draw, anchors):
    """An obstacle of any shape and model starting near one of the anchors."""
    kind = draw(st.sampled_from(("sphere", "ortho", "screen")))
    if kind == "sphere":
        shape = SphereShape(draw(st.floats(0.1, 0.6)))
        model = Obstruction(draw(st.floats(0.0, 30.0)))
    else:
        width, height = draw(st.floats(0.1, 1.0)), draw(st.floats(0.5, 2.0))
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
                    obstruction_fallback_for_secondary=draw(st.booleans()),
                    fallback_loss_db=draw(st.floats(0.0, 20.0)))


@PROPERTY_SETTINGS
@given(st.data())
def test_sequential_runs_equal_combined_run_for_random_obstacles(data):
    num_steps = data.draw(st.integers(1, 3))
    bounces = data.draw(st.lists(coords((2, -3, 0.3), (6, 3, 2.8)), min_size=1, max_size=3))
    with_direct = data.draw(st.booleans())
    gains = st.floats(-90.0, -55.0)
    steps = []
    for _ in range(num_steps):
        rays = [make_ray(TX, RX, gain_db=data.draw(gains))] if with_direct else []
        rays += [make_ray(TX, b, RX, gain_db=data.draw(gains)) for b in bounces]
        steps.append(rays)
    trace = ChannelTrace(
        node_positions={0: np.tile(TX, (num_steps, 1)), 1: np.tile(RX, (num_steps, 1))},
        pairs={(0, 1): steps}, time_step=0.25, num_steps=num_steps)
    # obstacles start near the middle of a ray segment, where they interact
    anchors = [0.5 * (a + b) for ray in steps[0] for a, b in zip(ray.vertices, ray.vertices[1:])]
    obstacle_list = data.draw(st.lists(obstacles(anchors), min_size=1, max_size=4))
    split = data.draw(st.integers(0, len(obstacle_list)))

    combined = run(trace, SimulationConfig(obstacles=tuple(obstacle_list)), workers=1)
    sequential = run(run(trace, SimulationConfig(obstacles=tuple(obstacle_list[:split])),
                         workers=1),
                     SimulationConfig(obstacles=tuple(obstacle_list[split:])), workers=1)
    assert_traces_equal(combined, sequential)

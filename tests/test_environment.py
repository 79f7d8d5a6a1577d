import logging
import math

import numpy as np
import pytest

from conftest import (
    assert_traces_equal,
    build_los_trace,
    in_process_pools,
    make_ray,
    patch_cpus,
    steps_of,
    trace_of,
)
from rayblock import _kernels, environment, obstacles
from rayblock.diffraction import (
    Dked,
    DkedPc,
    ItuSe,
    Metis,
    Obstruction,
)
from rayblock.environment import (
    SimulationConfig,
    primary_rays,
    run,
    run_model_sets,
)
from rayblock.errors import ConfigError, TraceFormatError
from rayblock.obstacles import (
    LinearMobility,
    Obstacle,
    OrthoScreenShape,
    ScreenShape,
    SphereShape,
    Static,
)
from rayblock.trace import ChannelTrace, Ray, RayTable


def run_counts(trace, cfg: SimulationConfig):
    """The interaction counts of run(trace, cfg) on one worker."""
    _, [counters] = run_model_sets(trace, cfg, [tuple(o.model for o in cfg.obstacles)],
                                   workers=1)
    return counters


def multi_ray_trace(num_steps=6, time_step=0.005):
    tx, rx = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6)
    wall_a, wall_b = (4.0, -2.5, 1.4), (4.0, 2.5, 1.4)
    steps = []
    for _ in range(num_steps):
        steps.append([
            make_ray(tx, rx, gain_db=-80.0),
            make_ray(tx, wall_a, rx, gain_db=-92.0),
            make_ray(tx, wall_b, rx, gain_db=-93.5),
        ])
    positions = {0: np.tile(tx, (num_steps, 1)), 1: np.tile(rx, (num_steps, 1))}
    return trace_of({(0, 1): steps}, positions, time_step)


def test_zero_obstacles_is_identity():
    trace = multi_ray_trace()
    out = run(trace, SimulationConfig(obstacles=()))
    assert_traces_equal(out, trace)


def test_static_sphere_lowers_only_the_blocked_ray():
    trace = multi_ray_trace()
    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                      model=Obstruction(10.0))
    out = run(trace, SimulationConfig(obstacles=(sphere,)))
    for rays_in, rays_out in zip(steps_of(trace.pairs[(0, 1)]), steps_of(out.pairs[(0, 1)])):
        assert rays_out[0].path_gain_db == rays_in[0].path_gain_db - 10.0
        for i in (1, 2):
            assert rays_out[i].path_gain_db == rays_in[i].path_gain_db
            assert rays_out[i].delay == rays_in[i].delay
            np.testing.assert_array_equal(rays_out[i].vertices, rays_in[i].vertices)


def test_delays_phases_vertices_never_change():
    trace = multi_ray_trace()
    screen = Obstacle(shape=OrthoScreenShape(0.4, 1.7),
                      mobility=Static((4.0, 0.0, 0.85)), model=Dked())
    out = run(trace, SimulationConfig(obstacles=(screen,)))
    table_in, table_out = trace.pairs[(0, 1)], out.pairs[(0, 1)]
    assert len(table_out) == len(table_in)
    for column in ("counts", "delay", "phase", "vertices", "ends"):
        np.testing.assert_array_equal(getattr(table_out, column), getattr(table_in, column))


def test_shape_preserved_however_weak_a_ray_gets():
    # a run keeps every row: dropping weak rays is left to export
    trace = multi_ray_trace()
    harsh = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                     model=Obstruction(30.0))
    cfg = SimulationConfig(obstacles=(harsh,))
    out = run(trace, cfg)
    assert out.num_steps == trace.num_steps
    assert set(out.pairs) == set(trace.pairs)
    assert out.pairs[(0, 1)].counts.tolist() == [3] * trace.num_steps
    assert out.pairs[(0, 1)].gain[::3].tolist() == [-110.0] * trace.num_steps
    assert run_counts(trace, cfg).obstruction_evals == trace.num_steps


def test_adding_an_obstacle_never_raises_gain(rng):
    trace = multi_ray_trace()
    base_cfg = SimulationConfig(obstacles=(
        Obstacle(shape=OrthoScreenShape(0.3, 1.7), mobility=Static((3.0, -0.4, 0.85)),
                 model=Dked()),
    ))
    more_cfg = SimulationConfig(obstacles=base_cfg.obstacles + (
        Obstacle(shape=SphereShape(0.4), mobility=Static((5.0, 0.0, 1.55)),
                 model=Obstruction(6.0)),
    ))
    base = run(trace, base_cfg)
    more = run(trace, more_cfg)
    assert np.all(more.pairs[(0, 1)].gain <= base.pairs[(0, 1)].gain)


def test_determinism():
    trace = multi_ray_trace()
    cfg = SimulationConfig(obstacles=(
        Obstacle(shape=OrthoScreenShape(0.2, 1.7),
                 mobility=LinearMobility((4.0, -1.0, 0.85), (0.0, 1.2, 0.0)),
                 model=Dked()),
    ))
    assert_traces_equal(run(trace, cfg), run(trace, cfg))


def test_sequential_runs_equal_combined_run():
    trace = multi_ray_trace()
    a = Obstacle(shape=OrthoScreenShape(0.3, 1.7), mobility=Static((3.0, 0.1, 0.85)),
                 model=Dked())
    b = Obstacle(shape=SphereShape(0.25), mobility=Static((5.5, 0.0, 1.6)),
                 model=Obstruction(10.0))
    combined = run(trace, SimulationConfig(obstacles=(a, b)))
    two_phase = run(run(trace, SimulationConfig(obstacles=(a,))),
                    SimulationConfig(obstacles=(b,)))
    assert_traces_equal(combined, two_phase)


def test_incompatible_time_base_rejected_before_compute():
    trace = multi_ray_trace(time_step=0.005)
    cfg = SimulationConfig(obstacles=(), time_step=0.0072)
    with pytest.raises(ConfigError):
        run(trace, cfg)


def test_pose_sample_and_hold_with_coarser_step():
    trace = multi_ray_trace(num_steps=6, time_step=0.5)
    mover = Obstacle(shape=SphereShape(0.3),
                     mobility=LinearMobility((4.0, -0.05, 1.6), (0.0, 0.02, 0.0)),
                     model=Obstruction(10.0))
    out = run(trace, SimulationConfig(obstacles=(mover,), time_step=1.0))
    gains = [out.pairs[(0, 1)].rays(k)[0].path_gain_db for k in range(6)]
    # poses update every second trace step, so gains come in equal pairs
    assert gains[0] == gains[1]
    assert gains[2] == gains[3]
    assert gains[4] == gains[5]


def test_parallel_matches_single_threaded():
    trace = build_los_trace((1, 3, 1.6), (9, 3, 1.6), num_steps=120, time_step=0.0034)
    cfg = SimulationConfig(obstacles=(
        Obstacle(shape=OrthoScreenShape(0.2, 1.7),
                 mobility=LinearMobility((5.0, 2.7, 0.85), (0.0, 1.2, 0.0)),
                 model=Dked()),
    ))
    single = run(trace, cfg, workers=1)
    parallel = run(trace, cfg, workers=3)
    assert_traces_equal(single, parallel)


def test_primary_ray_selection():
    tx, rx = (0, 0, 1.6), (8, 0, 1.6)
    direct = make_ray(tx, rx, gain_db=-90.0)
    bounce = make_ray(tx, (4, 2, 1.5), rx, gain_db=-70.0)
    strong_far = make_ray(tx, (4, -3, 1.5), rx, gain_db=-60.0)
    steps = [
        [bounce, direct],  # direct wins even when weaker
        [bounce],
        # shortest delay when no direct ray, however strong the others are: the
        # choice must not read gains that an earlier run may have attenuated
        [strong_far, bounce],
        [bounce, make_ray(tx, (4, -2, 1.5), rx)],  # tie: lower index
        [],
    ]
    primary = primary_rays(RayTable.from_steps(steps))
    assert np.flatnonzero(primary).tolist() == [1, 2, 4, 5]


def test_sequential_equals_combined_with_fallback_and_no_direct_ray():
    """A blocker that weakens the first-choice primary ray must not move the
    fallback's primary ray in a later run."""
    tx, rx = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6)
    near, far = (4.0, 2.0, 1.6), (4.0, -3.0, 1.6)
    steps = [[make_ray(tx, near, rx, gain_db=-60.0), make_ray(tx, far, rx, gain_db=-65.0)]
             for _ in range(3)]
    trace = trace_of({(0, 1): steps}, {0: np.tile(tx, (3, 1)), 1: np.tile(rx, (3, 1))},
                     time_step=0.005)
    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((2.0, 1.0, 1.6)),
                      model=Obstruction(20.0))
    screens = tuple(
        Obstacle(shape=OrthoScreenShape(0.3, 1.7), mobility=Static(center), model=Dked(),
                 obstruction_fallback_for_secondary=True)
        for center in ((6.0, 1.0, 0.85), (6.0, -1.5, 0.85)))
    combined = run(trace, SimulationConfig(obstacles=(sphere,) + screens))
    sequential = run(run(trace, SimulationConfig(obstacles=(sphere,))),
                     SimulationConfig(obstacles=screens))
    assert_traces_equal(combined, sequential)
    gains = [r.path_gain_db for r in combined.pairs[(0, 1)].rays(0)]
    # the near reflection keeps diffraction, the far one takes the fallback
    assert gains[0] < -80.0
    assert gains[1] == -75.0


def test_sequential_equals_combined_when_a_primary_ray_is_attenuated_far_down():
    """An obstruction 30 dB deep on the direct ray leaves it the primary
    ray in a later run, so a fallback screen over a bounce still takes the
    fallback loss and not diffraction: a run drops no row, however weak."""
    tx, rx = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6)
    steps = [[make_ray(tx, rx, gain_db=-80.0), make_ray(tx, (4.0, 3.0, 1.6), rx, gain_db=-90.0)]
             for _ in range(3)]
    trace = trace_of({(0, 1): steps}, {0: np.tile(tx, (3, 1)), 1: np.tile(rx, (3, 1))},
                     time_step=0.005)
    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                      model=Obstruction(30.0))
    screen = Obstacle(shape=OrthoScreenShape(0.3, 1.7), mobility=Static((2.0, 1.5, 0.85)),
                      model=Dked(), obstruction_fallback_for_secondary=True)
    combined = run(trace, SimulationConfig(obstacles=(sphere, screen)))
    sequential = run(run(trace, SimulationConfig(obstacles=(sphere,))),
                     SimulationConfig(obstacles=(screen,)))
    assert_traces_equal(combined, sequential)
    assert combined.pairs[(0, 1)].gain.tolist() == [-110.0, -100.0] * 3


def test_degenerate_segments_log_one_summary_line(caplog):
    # the last segment of every ray is vertical, next to an orthogonal screen
    tx, top, rx = (0.0, 0.0, 1.6), (2.0, 0.0, 1.6), (2.0, 0.0, 2.8)
    steps = [[make_ray(tx, top, rx)] for _ in range(50)]
    trace = trace_of({(0, 1): steps}, {0: np.tile(tx, (50, 1)), 1: np.tile(rx, (50, 1))},
                     time_step=0.005)
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), mobility=Static((2.0, 0.3, 0.85)),
                      model=Dked(), distance_threshold=5.0)
    with caplog.at_level(logging.WARNING):
        counters = run_counts(trace, SimulationConfig(obstacles=(screen,)))
    assert counters.degenerate_skips == 50
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) <= 1
    assert "50" in warnings[0].getMessage()


def test_a_pass_over_several_model_sets_logs_each_warning_once(caplog):
    # the vertical last segments are degenerate for every set, and at
    # 2.4 GHz (12.5 cm) the 0.2 m wide screen is outside itu_se's regime
    tx, top, rx = (0.0, 0.0, 1.6), (2.0, 0.0, 1.6), (2.0, 0.0, 2.8)
    steps = [[make_ray(tx, top, rx)] for _ in range(50)]
    trace = trace_of({(0, 1): steps}, {0: np.tile(tx, (50, 1)), 1: np.tile(rx, (50, 1))},
                     time_step=0.005)
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), mobility=Static((2.0, 0.3, 0.85)),
                      model=ItuSe(), distance_threshold=5.0)
    cfg = SimulationConfig(obstacles=(screen,), carrier_frequency_hz=2.4e9)
    with caplog.at_level(logging.WARNING):
        _, counters = run_model_sets(trace, cfg, [(ItuSe(),), (Dked(),), (ItuSe(),)], workers=1)
    assert [c.degenerate_skips for c in counters] == [50, 50, 50]
    out_of_regime = [c.out_of_regime for c in counters]
    assert out_of_regime[0] == out_of_regime[2] > 0 and out_of_regime[1] == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "skipped 150 degenerate segment/screen configurations",
        f"semi-empirical screen model outside its small-wavelength regime in "
        f"{2 * out_of_regime[0]} evaluations (lambda=0.125 m)"]


def test_a_run_result_is_the_input_table_with_new_gains(monkeypatch):
    # a run builds no Ray, and its result shares every column of the input
    # table but the gains
    trace = multi_ray_trace()
    obstacles = (
        Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                 model=Obstruction(10.0)),
        Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=Dked(),
                 mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 20.0, 0.0))),
    )

    def refuse(self):
        raise AssertionError("Ray built during a run")

    monkeypatch.setattr(Ray, "__post_init__", refuse)
    table = trace.pairs[(0, 1)]
    got = run(trace, SimulationConfig(obstacles=obstacles), workers=1).pairs[(0, 1)]
    assert np.any(got.gain != table.gain)
    for column in ("counts", "delay", "phase", "vertices", "ends"):
        assert np.shares_memory(getattr(got, column), getattr(table, column))
    assert not got.gain.flags.writeable


def test_a_nan_gain_column_raises(monkeypatch):
    # the gain column of every model set is checked once, as Ray checks a gain
    def nan_losses(obstacle, models, centers, segments, wavelength):
        return [(np.full(segments.num_slots, math.nan), np.zeros(segments.num_slots, bool),
                 obstacles.InteractionCounters()) for _ in models]

    monkeypatch.setattr(environment, "obstacle_losses", nan_losses)
    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                      model=Obstruction(10.0))
    with pytest.raises(TraceFormatError, match="NaN path gain"):
        run(multi_ray_trace(), SimulationConfig(obstacles=(sphere,)), workers=1)


def test_itu_se_out_of_regime_logs_one_line_per_run(caplog):
    # 2.4 GHz (12.5 cm) against a 0.2 m wide screen: every evaluation is
    # outside the semi-empirical model's small-wavelength regime
    trace = multi_ray_trace(num_steps=40)
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=ItuSe(),
                      mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 3.0, 0.0)))
    with caplog.at_level(logging.WARNING):
        counters = run_counts(trace, SimulationConfig(obstacles=(screen,),
                                                      carrier_frequency_hz=2.4e9))
    assert counters.diffraction_evals > 20
    assert counters.out_of_regime == counters.diffraction_evals
    lines = [r.getMessage() for r in caplog.records if "small-wavelength" in r.getMessage()]
    assert len(lines) == 1
    assert f"in {counters.diffraction_evals} evaluations" in lines[0]


def test_itu_se_in_regime_logs_nothing(caplog):
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=ItuSe(),
                      mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 3.0, 0.0)))
    with caplog.at_level(logging.WARNING):
        counters = run_counts(multi_ray_trace(num_steps=40), SimulationConfig(obstacles=(screen,)))
    assert counters.diffraction_evals > 0
    assert counters.out_of_regime == 0
    assert not [r for r in caplog.records if "small-wavelength" in r.getMessage()]


def test_endpoint_on_a_horizontal_edge_is_degenerate_for_metis_only():
    # the bounce point lies on the screen's bottom edge: metis reads that
    # edge and skips both segments, dked reads only the vertical edges
    shape = ScreenShape(0.4, 1.0)
    center = (4.0, 0.0, 2.1)
    bounce = tuple(np.array(center) - 0.5 * shape.height * shape.height_axis)
    ray = make_ray((0.0, 0.0, 1.6), bounce, (8.0, 0.5, 1.6), gain_db=-80.0)
    trace = trace_of({(0, 1): [[ray]] * 3}, {0: np.zeros((3, 3)), 1: np.zeros((3, 3))},
                     time_step=0.005)
    screen = Obstacle(shape=shape, mobility=Static(center), model=Dked(),
                      distance_threshold=5.0)
    cfg = SimulationConfig(obstacles=(screen,))
    gains, counters = run_model_sets(trace, cfg, [(Dked(),), (Metis(),)], workers=1)
    assert (counters[0].diffraction_evals, counters[0].degenerate_skips) == (6, 0)
    assert (counters[1].diffraction_evals, counters[1].degenerate_skips) == (0, 6)
    dked, metis = gains[(0, 1)]
    assert np.all(dked < -80.0)
    assert np.all(metis == -80.0)
    # the blocked flags too are per model, whichever model comes first
    wavelength = 299792458.0 / cfg.carrier_frequency_hz
    (_, metis_blocked, _), (_, dked_blocked, _) = obstacles.obstacle_losses(
        screen, (Metis(), Dked()), np.array([center]),
        obstacles.path_segments(RayTable.from_steps([[ray]]), np.array([True]), wavelength),
        wavelength)
    assert dked_blocked[0] and not metis_blocked[0]
    for models, out, got in zip([(Dked(),), (Metis(),)], (dked, metis), counters):
        alone = SimulationConfig(obstacles=(Obstacle(
            shape=shape, mobility=Static(center), model=models[0], distance_threshold=5.0),))
        np.testing.assert_array_equal(out, run(trace, alone, workers=1).pairs[(0, 1)].gain)
        assert got == run_counts(trace, alone)


def test_model_sets_are_checked_against_the_obstacles():
    cfg = SimulationConfig(obstacles=(
        Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                 model=Obstruction(10.0)),))
    trace = multi_ray_trace()
    with pytest.raises(ConfigError):  # spheres only obstruct
        run_model_sets(trace, cfg, [(Dked(),)], workers=1)
    with pytest.raises(ValueError):
        run_model_sets(trace, cfg, [(Obstruction(1.0), Obstruction(2.0))], workers=1)


def test_run_model_sets_returns_gain_rows_and_leaves_the_trace_untouched():
    # two pairs of different ray counts; a step without rays on one of them
    three = multi_ray_trace(num_steps=8)
    rx2 = (8.0, 1.0, 1.6)
    one = [[make_ray((0.0, 0.0, 1.6), rx2, gain_db=-81.0)]] * 7 + [[]]
    trace = trace_of({(0, 1): steps_of(three.pairs[(0, 1)]), (0, 2): one},
                     {**three.node_positions, 2: np.tile(rx2, (8, 1))}, 0.005)
    columns = ("counts", "delay", "gain", "phase", "vertices", "ends")
    before = {pair: {column: getattr(table, column).copy() for column in columns}
              for pair, table in trace.pairs.items()}
    cfg = SimulationConfig(obstacles=(
        Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=Dked(),
                 mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 5.0, 0.0))),))
    sets = [(Dked(),), (Metis(),), (Obstruction(10.0),)]
    gains, counters = run_model_sets(trace, cfg, sets, workers=1)
    assert sorted(gains) == sorted(trace.pairs)
    assert len(counters) == len(sets)
    for pair, table in trace.pairs.items():
        assert gains[pair].shape == (len(sets), len(table))
        assert not np.shares_memory(gains[pair], table.gain)
        for column, values in before[pair].items():
            np.testing.assert_array_equal(getattr(table, column), values)
            assert not getattr(table, column).flags.writeable
    assert np.any(gains[(0, 1)][0] != trace.pairs[(0, 1)].gain)  # the screen acts


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


COMPARED = (Obstruction(10.0), Metis(), Dked(), DkedPc(), ItuSe())


@pytest.mark.parametrize("compared", [0, 5], ids=["configured_only", "five_compared"])
def test_geometry_is_computed_once_for_every_model(monkeypatch, compared):
    # two pairs, two screens and a sphere: one chunk per pair on one worker,
    # one cross-section per screen and chunk, at most one Fermat batch per
    # edge, however many model sets share the pass
    trace = multi_ray_trace(num_steps=12)
    trace = ChannelTrace(node_positions={**trace.node_positions, 2: trace.node_positions[1]},
                         pairs={(0, 1): trace.pairs[(0, 1)], (0, 2): trace.pairs[(0, 1)]},
                         time_step=trace.time_step, num_steps=trace.num_steps)
    screens = tuple(Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=Dked(),
                             mobility=LinearMobility((4.0, y, 0.85), (0.0, 5.0, 0.0)))
                    for y in (-0.3, 1.5))
    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                      model=Obstruction(10.0))
    cfg = SimulationConfig(obstacles=(*screens, sphere))
    model_sets = [tuple(o.model for o in cfg.obstacles)]
    model_sets += [(m, m, sphere.model) for m in COMPARED[:compared]]
    chunks = _count_calls(monkeypatch, environment, "_run_chunk")
    sections = _count_calls(monkeypatch, obstacles, "_screen_cross_section")
    fermat = _count_calls(monkeypatch, _kernels, "fermat_on_segment_batch")
    _, counters = run_model_sets(trace, cfg, model_sets, workers=1)
    assert len(chunks) == 2
    assert len(sections) == 2 * len(screens)
    edges = 4 if compared else 2  # the configured dked reads two edges, metis all four
    assert 0 < len(fermat) <= 2 * len(screens) * edges
    assert all(c.diffraction_evals > 0 for c, models in zip(counters, model_sets)
               if not isinstance(models[0], Obstruction))


def test_more_workers_split_each_pair_into_chunks(monkeypatch):
    # two workers get four chunks each to share; the split changes no gain
    # and no count of any model set
    trace = multi_ray_trace(num_steps=16)
    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                      model=Obstruction(10.0))
    cfg = SimulationConfig(obstacles=(
        Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=Dked(),
                 mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 5.0, 0.0))), sphere))
    model_sets = [tuple(o.model for o in cfg.obstacles)]
    model_sets += [(m, sphere.model) for m in COMPARED]
    want_gains, want_counters = run_model_sets(trace, cfg, model_sets, workers=1)
    pools = in_process_pools(monkeypatch, cpus=2)
    chunks = _count_calls(monkeypatch, environment, "_run_chunk")
    gains, counters = run_model_sets(trace, cfg, model_sets, workers=2)
    assert len(chunks) == 8
    assert [pool.max_workers for pool in pools] == [2]
    assert gains.keys() == want_gains.keys()
    for pair, set_gains in gains.items():
        np.testing.assert_array_equal(set_gains, want_gains[pair])
    assert counters == want_counters  # clamp events included
    assert all(c.diffraction_evals > 0 for c, models in zip(counters, model_sets)
               if not isinstance(models[0], Obstruction))


def test_default_workers_are_the_cpus_the_process_may_run_on(monkeypatch):
    # the host has more cores than the process may use
    monkeypatch.setattr(environment.os, "cpu_count", lambda: 64)
    patch_cpus(monkeypatch, 3)
    assert environment.resolve_workers(None) == 3
    monkeypatch.delattr(environment.os, "sched_getaffinity")
    assert environment.resolve_workers(None) == 64


@pytest.mark.parametrize("workers,want", [(-5, 1), (0, 1), (1, 1), (2, 2), (3, 3), (1000, 3)])
def test_a_worker_count_is_clamped_to_the_cpus(monkeypatch, workers, want):
    patch_cpus(monkeypatch, 3)
    assert environment.resolve_workers(workers) == want


@pytest.mark.parametrize("cpus,chunks", [(3, 8), (64, 16)])
def test_a_pool_starts_no_more_processes_than_cpus_or_chunks(monkeypatch, cpus, chunks):
    # a fake pool records its size and starts no process; 16 steps of one
    # pair give 8 chunks on 3 CPUs, and at most one chunk per step on more
    trace = multi_ray_trace(num_steps=16)
    cfg = SimulationConfig(obstacles=(
        Obstacle(shape=OrthoScreenShape(0.2, 1.7), model=Dked(),
                 mobility=LinearMobility((4.0, -0.3, 0.85), (0.0, 5.0, 0.0))),))
    model_sets = [(Dked(),), (Metis(),)]
    want_gains, want_counters = run_model_sets(trace, cfg, model_sets, workers=1)
    pools = in_process_pools(monkeypatch, cpus)
    calls = _count_calls(monkeypatch, environment, "_run_chunk")
    gains, counters = run_model_sets(trace, cfg, model_sets, workers=1000)
    assert len(calls) == chunks
    assert [pool.max_workers for pool in pools] == [min(cpus, chunks)]
    for pair, set_gains in gains.items():
        np.testing.assert_array_equal(set_gains, want_gains[pair])
    assert counters == want_counters
    assert all(c.diffraction_evals > 0 for c in counters)

import errno
import json
import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    angles_of_arrival,
    angles_of_departure,
    assert_traces_equal,
    make_ray,
    steps_of,
    trace_of,
)
from rayblock.cli import main
from rayblock.errors import ConfigError, GeometryError, TraceFormatError
from rayblock.trace import (
    SPEED_OF_LIGHT,
    ChannelTrace,
    Ray,
    RayTable,
    _format_rows,
    direction_angles,
    export_scenario,
    import_scenario,
    path_directions,
    path_lengths,
    write_text,
)


def build_mixed_trace() -> ChannelTrace:
    """2 pairs, 3 timesteps, mixed ray counts including an empty step."""
    tx = (0.0, 0.0, 1.6)
    rx1 = (8.0, 0.0, 1.6)
    rx2 = (4.0, 3.0, 1.2)
    wall = (4.0, -2.5, 1.4)
    pairs = {
        (0, 1): [
            [make_ray(tx, rx1), make_ray(tx, wall, rx1, gain_db=-92.5)],
            [],
            [make_ray(tx, rx1, gain_db=-81.25)],
        ],
        (0, 2): [
            [make_ray(tx, rx2, gain_db=-75.0)],
            [make_ray(tx, rx2, gain_db=-75.5), make_ray(tx, wall, rx2, gain_db=-99.125)],
            [make_ray(tx, rx2, gain_db=-76.0)],
        ],
    }
    positions = {
        0: np.tile(tx, (3, 1)),
        1: np.tile(rx1, (3, 1)),
        2: np.tile(rx2, (3, 1)),
    }
    return trace_of(pairs, positions, time_step=0.0034)


def test_ray_validation():
    with pytest.raises(TraceFormatError):
        Ray(delay=-1.0, path_gain_db=-80, phase_rad=0.0,
            vertices=np.zeros((2, 3)) + [[0, 0, 0], [1, 0, 0]])
    with pytest.raises(TraceFormatError):
        Ray(delay=1e-8, path_gain_db=-80, phase_rad=0.0, vertices=np.zeros((1, 3)))
    with pytest.raises(TraceFormatError):
        Ray(delay=1e-8, path_gain_db=float("nan"), phase_rad=0.0,
            vertices=np.array([[0.0, 0, 0], [1, 0, 0]]))


def test_trace_validation():
    ray = make_ray((0, 0, 0), (1, 0, 0))
    with pytest.raises(TraceFormatError):
        ChannelTrace(node_positions={0: np.zeros((2, 3))},
                     pairs={(0, 1): RayTable.from_steps([[ray], [ray]])}, time_step=1.0,
                     num_steps=2)
    with pytest.raises(TraceFormatError):
        ChannelTrace(node_positions={0: np.zeros((2, 3)), 1: np.zeros((2, 3))},
                     pairs={(0, 1): RayTable.from_steps([[ray]])}, time_step=1.0, num_steps=2)
    with pytest.raises(TraceFormatError, match="needs a RayTable"):
        ChannelTrace(node_positions={0: np.zeros((1, 3)), 1: np.zeros((1, 3))},
                     pairs={(0, 1): [[ray]]}, time_step=1.0, num_steps=1)


def table_columns(**changes) -> dict:
    """The columns of a consistent two-step table (a direct ray, then a
    one-bounce ray), with changes."""
    columns = dict(counts=[1, 1], delay=[1e-8, 2e-8], gain=[-80.0, -90.0], phase=[0.0, 0.5],
                   vertices=[[0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0], [1, 0, 0]],
                   ends=[2, 5])
    columns.update(changes)
    return columns


@pytest.mark.parametrize("changes, message", [
    (dict(counts=[1, 2]), "do not sum"),
    (dict(counts=[2, -1]), "do not sum"),
    (dict(gain=[-80.0]), "differ in length"),
    (dict(ends=[1, 5]), "ray 0 needs >= 2 vertices"),
    (dict(ends=[2, 4]), "the last ray ends at vertex row 4, but the table has 5"),
    (dict(ends=[2, 6]), "the last ray ends at vertex row 6, but the table has 5"),
    (dict(vertices=np.zeros((5, 2))), "3 coords"),
    (dict(counts=[0], delay=[], gain=[], phase=[], ends=[]), "the last ray ends at vertex row 0"),
    # Ray's row rules, with Ray's messages
    (dict(delay=[1e-8, -1.0]), "^invalid delay -1.0$"),
    (dict(gain=[math.nan, -90.0]), "^NaN path gain$"),
    (dict(phase=[0.0, math.inf]), "^invalid phase inf$"),
    (dict(vertices=[[0, 0, 0], [1, 0, 0], [0, 0, 0], [1, math.nan, 0], [1, 0, 0]]),
     "^non-finite ray vertices$"),
])
def test_an_inconsistent_table_is_rejected(changes, message):
    RayTable(**table_columns())
    with pytest.raises(TraceFormatError, match=message):
        RayTable(**table_columns(**changes))


def test_a_table_is_read_only():
    table = RayTable(**table_columns())
    for column in ("counts", "delay", "gain", "phase", "vertices", "ends"):
        with pytest.raises(ValueError):
            getattr(table, column)[0] = 0


def test_minimal_import_fixture(tmp_path):
    qd = tmp_path / "Output" / "Ns3" / "QdFiles"
    mpc = tmp_path / "Output" / "Visualizer" / "MpcCoordinates"
    qd.mkdir(parents=True)
    mpc.mkdir(parents=True)
    delay = 8.0 / SPEED_OF_LIGHT
    (qd / "Tx0Rx1.txt").write_text(
        f"1\n{delay:.12g}\n-80.000000\n0.000000\n"
        "0.000000\n0.000000\n0.000000\n180.000000\n")
    (mpc / "MpcTx0Rx1Refl0Trc0.csv").write_text(
        "0.000000,0.000000,1.600000,8.000000,0.000000,1.600000\n")
    trace = import_scenario(tmp_path)
    assert trace.num_steps == 1
    ray = trace.pairs[(0, 1)].rays(0)[0]
    np.testing.assert_array_equal(ray.vertices, [[0, 0, 1.6], [8, 0, 1.6]])
    assert ray.path_gain_db == -80.0


def test_import_two_steps_varying_counts(tmp_path):
    trace = build_mixed_trace()
    export_scenario(trace, tmp_path)
    loaded = import_scenario(tmp_path)
    assert loaded.pairs[(0, 1)].counts.tolist() == [2, 0, 1]
    assert loaded.pairs[(0, 2)].counts.tolist() == [1, 2, 1]
    assert loaded.time_step == pytest.approx(0.0034)


def test_import_pairs_sharing_an_id_prefix(tmp_path, monkeypatch):
    tx, rx1, rx11 = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6), (3.0, 4.0, 1.2)
    wall = (4.0, -2.5, 1.4)
    pairs = {
        (0, 1): [[make_ray(tx, rx1), make_ray(tx, wall, rx1, gain_db=-91.0)]],
        (0, 11): [[make_ray(tx, rx11, gain_db=-77.0)]],
    }
    positions = {0: np.tile(tx, (1, 1)), 1: np.tile(rx1, (1, 1)), 11: np.tile(rx11, (1, 1))}
    trace = trace_of(pairs, positions, time_step=0.5)
    export_scenario(trace, tmp_path)

    listed = []
    listdir = os.listdir

    def counting_listdir(path):
        listed.append(os.path.basename(path))
        return listdir(path)

    monkeypatch.setattr(os, "listdir", counting_listdir)
    loaded = import_scenario(tmp_path)
    assert listed.count("MpcCoordinates") == 1
    assert sorted(loaded.pairs) == [(0, 1), (0, 11)]
    for pair, steps in pairs.items():
        got = loaded.pairs[pair].rays(0)
        assert [r.path_gain_db for r in got] == [r.path_gain_db for r in steps[0]]
        for r_got, r_want in zip(got, steps[0]):
            np.testing.assert_allclose(r_got.vertices, r_want.vertices, atol=1e-6)


def test_round_trip_identity(tmp_path):
    trace = build_mixed_trace()
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    export_scenario(trace, first_dir)
    imported = import_scenario(first_dir)
    export_scenario(imported, second_dir)
    again = import_scenario(second_dir)
    assert_traces_equal(imported, again)


def test_export_drops_rays_below_floor(tmp_path):
    tx, rx = (0.0, 0.0, 1.0), (5.0, 0.0, 1.0)
    weak = make_ray(tx, rx, gain_db=-600.0)
    gone = Ray(delay=weak.delay, path_gain_db=-math.inf, phase_rad=0.0,
               vertices=weak.vertices)
    keep = make_ray(tx, rx, gain_db=-80.0)
    trace = trace_of({(0, 1): [[keep, weak, gone]]},
                     {0: np.tile(tx, (1, 1)), 1: np.tile(rx, (1, 1))}, time_step=1.0)
    export_scenario(trace, tmp_path)
    loaded = import_scenario(tmp_path)
    assert loaded.pairs[(0, 1)].gain.tolist() == [-80.0]


def test_export_leaves_exactly_the_trace_it_wrote(tmp_path):
    # a second export into the same directory removes the ray, coordinate and
    # node position files of the first that it does not write itself
    tx, rx1, rx2 = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6), (4.0, 3.0, 1.2)
    direct = make_ray(tx, rx1)
    bounce = make_ray(tx, (3.0, -2.5, 1.4), (5.0, 2.5, 1.4), rx1, gain_db=-101.0)
    positions = {node: np.tile(p, (2, 1)) for node, p in enumerate((tx, rx1, rx2))}
    first = trace_of({(0, 1): [[direct, bounce], [direct, bounce]],
                      (0, 2): [[make_ray(tx, rx2)], [make_ray(tx, rx2)]]}, positions, 0.005)
    second = trace_of({(0, 1): [[direct, bounce], [direct]]},
                      {0: positions[0], 1: positions[1]}, 0.005)
    out = tmp_path / "out"
    export_scenario(first, out)
    others = [out / "notes.txt",
              out / "Output" / "Ns3" / "QdFiles" / "Tx0Rx2.txt.bak",
              out / "Output" / "Visualizer" / "MpcCoordinates" / "readme.csv"]
    for path in others:
        path.write_text("not a trace file\n")
    export_scenario(second, out)
    export_scenario(second, tmp_path / "fresh")
    assert_traces_equal(import_scenario(out), import_scenario(tmp_path / "fresh"))
    names = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    fresh = sorted(p.relative_to(tmp_path / "fresh").as_posix()
                   for p in (tmp_path / "fresh").rglob("*") if p.is_file())
    assert names == sorted(fresh + [p.relative_to(out).as_posix() for p in others])


def test_import_missing_ray_files_names_pair(tmp_path):
    qd = tmp_path / "Output" / "Ns3" / "QdFiles"
    qd.mkdir(parents=True)
    (qd / "Tx0Rx1.txt").write_text("1\n1e-8\n-80.0\n0.0\n0.0\n0.0\n0.0\n180.0\n")
    with pytest.raises(TraceFormatError, match="Tx0Rx1"):
        import_scenario(tmp_path)


def test_import_count_mismatch_reports_line(tmp_path):
    qd = tmp_path / "Output" / "Ns3" / "QdFiles"
    mpc = tmp_path / "Output" / "Visualizer" / "MpcCoordinates"
    qd.mkdir(parents=True)
    mpc.mkdir(parents=True)
    # declares 2 rays but the gain row has only one value
    (qd / "Tx0Rx1.txt").write_text(
        "2\n1e-8,1.1e-8\n-80.0\n0.0,0.0\n0.0,0.0\n0.0,0.0\n0.0,0.0\n180.0,180.0\n")
    (mpc / "MpcTx0Rx1Refl0Trc0.csv").write_text(
        "0,0,1.6,8,0,1.6\n0,0,1.6,8,0,1.6\n")
    with pytest.raises(TraceFormatError, match=r":3"):
        import_scenario(tmp_path)


def test_import_vertex_count_mismatch(tmp_path):
    trace = build_mixed_trace()
    export_scenario(trace, tmp_path)
    mpc = tmp_path / "Output" / "Visualizer" / "MpcCoordinates"
    (mpc / "MpcTx0Rx1Refl0Trc2.csv").write_text("")  # remove the declared ray
    with pytest.raises(TraceFormatError, match="timestep 2"):
        import_scenario(tmp_path)


def test_node_positions_fallback_from_rays(tmp_path):
    trace = build_mixed_trace()
    export_scenario(trace, tmp_path)
    node_dir = tmp_path / "Output" / "Visualizer" / "NodePositions"
    for f in node_dir.iterdir():
        f.unlink()
    loaded = import_scenario(tmp_path)
    np.testing.assert_allclose(loaded.node_positions[0][0], [0, 0, 1.6], atol=1e-6)
    np.testing.assert_allclose(loaded.node_positions[1][0], [8, 0, 1.6], atol=1e-6)


def test_node_positions_fallback_warns_for_a_node_without_rays(tmp_path, caplog):
    tx, rx1, rx2 = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6), (4.0, 3.0, 1.2)
    trace = trace_of({(0, 1): [[], [make_ray(tx, rx1)], []], (0, 2): [[], [], []]},
                     {0: np.tile(tx, (3, 1)), 1: np.tile(rx1, (3, 1)),
                      2: np.tile(rx2, (3, 1))}, time_step=0.1)
    export_scenario(trace, tmp_path)
    for f in (tmp_path / "Output" / "Visualizer" / "NodePositions").iterdir():
        f.unlink()
    with caplog.at_level(logging.WARNING, logger="rayblock.trace"):
        loaded = import_scenario(tmp_path)
    warnings = [r.getMessage() for r in caplog.records if "recoverable" in r.getMessage()]
    assert warnings == ["node 2 has no recoverable positions, using origin"]
    np.testing.assert_array_equal(loaded.node_positions[2], np.zeros((3, 3)))
    # the one known step is carried forward and back over the ray-less steps
    np.testing.assert_allclose(loaded.node_positions[0], np.tile(tx, (3, 1)), atol=1e-6)
    np.testing.assert_allclose(loaded.node_positions[1], np.tile(rx1, (3, 1)), atol=1e-6)


# --- angles -------------------------------------------------------------------

def test_angles_axis_aligned_los():
    ray = make_ray((0, 0, 1.6), (8, 0, 1.6))
    aod = angles_of_departure(ray)
    aoa = angles_of_arrival(ray)
    assert aod == pytest.approx((0.0, 0.0), abs=1e-12)
    assert aoa[0] == pytest.approx(math.pi, abs=1e-12)
    assert aoa[1] == pytest.approx(0.0, abs=1e-12)


def test_angles_straight_down():
    ray = make_ray((0, 0, 3.0), (0, 0, 1.0))
    aod = angles_of_departure(ray)
    assert aod[1] == pytest.approx(-math.pi / 2, abs=1e-12)


def test_angles_single_bounce_vs_vector_arithmetic():
    tx, wall, rx = np.array([0, 0, 1.6]), np.array([4, -2.5, 1.4]), np.array([8, 0, 1.6])
    ray = make_ray(tx, wall, rx)
    aod = angles_of_departure(ray)
    aoa = angles_of_arrival(ray)
    d_out = (wall - tx) / np.linalg.norm(wall - tx)
    d_back = (wall - rx) / np.linalg.norm(wall - rx)
    assert aod[0] == pytest.approx(math.atan2(d_out[1], d_out[0]), abs=1e-12)
    assert aod[1] == pytest.approx(math.asin(d_out[2]), abs=1e-12)
    assert aoa[0] == pytest.approx(math.atan2(d_back[1], d_back[0]), abs=1e-12)
    assert aoa[1] == pytest.approx(math.asin(d_back[2]), abs=1e-12)


def test_angles_ranges_and_unit_vector_reconstruction(rng):
    for _ in range(300):
        a, b = rng.normal(size=3), rng.normal(size=3)
        if np.linalg.norm(b - a) < 1e-6:
            continue
        ray = make_ray(a, b)
        az, el = angles_of_departure(ray)
        assert -math.pi < az <= math.pi
        assert -math.pi / 2 <= el <= math.pi / 2
        rebuilt = np.array([math.cos(el) * math.cos(az),
                            math.cos(el) * math.sin(az),
                            math.sin(el)])
        d = (b - a) / np.linalg.norm(b - a)
        np.testing.assert_allclose(rebuilt, d, atol=1e-9)


def test_reversed_vertices_swap_angles():
    tx, wall, rx = (0, 0, 1.6), (4, -2.5, 1.4), (8, 0, 1.6)
    ray = make_ray(tx, wall, rx)
    back = make_ray(rx, wall, tx)
    assert angles_of_departure(back) == angles_of_arrival(ray)
    assert angles_of_arrival(back) == angles_of_departure(ray)


def test_coincident_vertices_error():
    ray = Ray(delay=1e-9, path_gain_db=-80, phase_rad=0.0,
              vertices=np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    with pytest.raises(GeometryError):
        angles_of_departure(ray)


def random_rays(rng, count: int) -> list[Ray]:
    """Rays of reflection orders 0-2 between random points, one list."""
    rays = []
    for i in range(count):
        points = rng.uniform(-5.0, 5.0, size=(2 + i % 3, 3))
        rays.append(make_ray(*points, gain_db=float(rng.uniform(-120.0, -60.0))))
    return rays


def reference_angles(start, end) -> tuple[float, float]:
    """(azimuth, elevation) of end - start from the math module, one direction.

    The norm sums the squares in x, y, z order: near the poles asin
    magnifies a one-ulp change of z / norm to several ulps of elevation.
    """
    x, y, z = (float(b - a) for a, b in zip(start, end))
    azimuth = math.atan2(y, x)
    if azimuth <= -math.pi:
        azimuth += 2.0 * math.pi
    return azimuth, math.asin(min(max(z / math.sqrt(x * x + y * y + z * z), -1.0), 1.0))


def test_batch_angles_equal_the_one_ray_angles_to_the_bit(rng):
    rays = random_rays(rng, 200)
    # axis-aligned directions, including azimuth pi and elevation +-pi/2
    rays += [make_ray(a, b) for a, b in (((1, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 2)),
                                         ((0, 0, 2), (0, 0, 0)), ((0, 0, 0), (0, -1, 0)))]
    departure, arrival = path_directions(RayTable.from_steps([rays]))
    for batch, scalar, ends in ((direction_angles(departure), angles_of_departure, (0, 1)),
                                (direction_angles(arrival), angles_of_arrival, (-1, -2))):
        got = np.stack(batch, axis=1)
        want = np.array([reference_angles(ray.vertices[ends[0]], ray.vertices[ends[1]])
                         for ray in rays])
        np.testing.assert_array_max_ulp(got, want, maxulp=1)
        np.testing.assert_array_equal(got, [scalar(ray) for ray in rays])


def test_path_lengths_match_the_vertex_paths(rng):
    rays = random_rays(rng, 50)
    want = [np.sum(np.linalg.norm(np.diff(ray.vertices, axis=0), axis=1)) for ray in rays]
    table = RayTable.from_steps([rays[:20], [], rays[20:]])
    np.testing.assert_allclose(path_lengths(table), want, rtol=1e-14)
    assert [ray.path_length for ray in rays] == path_lengths(table).tolist()
    assert path_lengths(RayTable.from_steps([[]])).shape == (0,)


def test_exported_angles_equal_the_one_ray_angles(tmp_path, rng):
    tx = (0.0, 0.0, 1.6)
    steps = [random_rays(rng, 7), [], random_rays(rng, 4)]
    trace = trace_of({(0, 1): steps}, {0: np.tile(tx, (3, 1)), 1: np.zeros((3, 3))},
                     time_step=0.1)
    export_scenario(trace, tmp_path, drop_below_db=-90.0)
    lines = (tmp_path / "Output" / "Ns3" / "QdFiles" / "Tx0Rx1.txt").read_text().splitlines()
    i = 0
    for rays in steps:
        kept = [r for r in rays if r.path_gain_db >= -90.0]
        assert int(lines[i]) == len(kept)
        if kept:
            aod = [angles_of_departure(r) for r in kept]
            aoa = [angles_of_arrival(r) for r in kept]
            want = [[a[1] for a in aod], [a[0] for a in aod], [a[1] for a in aoa],
                    [a[0] for a in aoa]]
            for row, values in zip(lines[i + 4:i + 8], want):
                assert row == ",".join(f"{math.degrees(v):.6f}" for v in values)
            i += 8
        else:
            i += 1


def test_export_ignores_a_dropped_ray_with_coincident_vertices(tmp_path):
    tx, rx = (0.0, 0.0, 1.0), (5.0, 0.0, 1.0)
    keep = make_ray(tx, rx, gain_db=-80.0)
    degenerate = Ray(delay=keep.delay, path_gain_db=-math.inf, phase_rad=0.0,
                     vertices=np.array([tx, tx, rx]))
    trace = trace_of({(0, 1): [[degenerate, keep]]},
                     {0: np.tile(tx, (1, 1)), 1: np.tile(rx, (1, 1))}, time_step=1.0)
    export_scenario(trace, tmp_path)
    loaded = import_scenario(tmp_path)
    assert loaded.pairs[(0, 1)].gain.tolist() == [-80.0]


def test_import_counts_rays_with_inconsistent_delays(tmp_path, caplog):
    trace = build_mixed_trace()
    steps = steps_of(trace.pairs[(0, 2)])
    rays = steps[1]
    rays[1] = Ray(delay=rays[1].delay + 2e-6, path_gain_db=rays[1].path_gain_db,
                  phase_rad=rays[1].phase_rad, vertices=rays[1].vertices)
    trace.pairs[(0, 2)] = RayTable.from_steps(steps)
    export_scenario(trace, tmp_path)
    with caplog.at_level(logging.WARNING, logger="rayblock.trace"):
        import_scenario(tmp_path)
    assert [r.getMessage() for r in caplog.records] == [
        "1 rays have delays inconsistent with their vertex paths (> 1 us)"]



# --- export formatting ---------------------------------------------------------

def format_rows_per_value(rows, spec: str) -> str:
    """Export's formatting before the templates: one format call per value."""
    return "\n".join(",".join(format(v, spec) for v in row) for row in rows)


EXPORTED_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(EXPORTED_VALUES, min_size=width, max_size=width), min_size=1, max_size=5)),
    st.sampled_from([".6f", ".12g"]))
def test_template_rows_equal_the_per_value_format(rows, spec):
    assert _format_rows(np.array(rows, dtype=np.float64), "%" + spec) == \
        format_rows_per_value(rows, spec)

# --- import error paths -------------------------------------------------------

def _edit_line(path, lineno: int, edit) -> None:
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")


def _replace_value(index: int, value: str):
    def edit(line: str) -> str:
        values = line.split(",")
        values[index] = value
        return ",".join(values)
    return edit


def _bounce_onto(vertex: int):
    """Edit of a one-bounce ray's row: its bounce vertex moved onto its
    first (0) or last (2) vertex, which leaves the ray without a direction."""
    def edit(line: str) -> str:
        values = line.split(",")
        values[3:6] = values[3 * vertex:3 * vertex + 3]
        return ",".join(values)
    return edit


UNDIRECTED = "pair Tx0Rx1 timestep 0: a ray's first or last segment is shorter than 1e-12 m"
MPC = ("Output", "Visualizer", "MpcCoordinates", "MpcTx0Rx1Refl1Trc0.csv")
QD = ("Output", "Ns3", "QdFiles", "Tx0Rx2.txt")

# file, line, edit of that line, and the error it raises ({path}: the file);
# in Tx0Rx2.txt, step 1's block starts at line 9 with its ray count, and
# lines 10-12 hold the delays, gains and phases of its two rays
MALFORMED_LINES = {
    "non_numeric_token": (MPC, 1, _replace_value(4, "4.0x"),
                          "{path}:1: could not convert string to float: '4.0x'"),
    "too_few_values": (MPC, 1, lambda line: line.rsplit(",", 1)[0],
                       "{path}:1: expected 9 values, got 8"),
    "nan_vertex": (MPC, 1, _replace_value(3, "nan"), "non-finite ray vertices"),
    "negative_delay": (QD, 10, _replace_value(1, "-1e-08"), "invalid delay -1e-08"),
    "nan_gain": (QD, 11, _replace_value(0, "nan"), "NaN path gain"),
    "infinite_phase": (QD, 12, _replace_value(1, "-inf"), "invalid phase -inf"),
    "blank_row_in_a_block": (QD, 11, lambda line: "", "{path}:11: expected 2 values, got 0"),
    "ray_without_departure": (MPC, 1, _bounce_onto(0), UNDIRECTED),
    "ray_without_arrival": (MPC, 1, _bounce_onto(2), UNDIRECTED),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_import_reports_the_first_malformed_value(tmp_path, capsys, case):
    parts, lineno, edit, message = MALFORMED_LINES[case]
    scenario = tmp_path / "scenario"
    export_scenario(build_mixed_trace(), scenario)
    path = scenario.joinpath(*parts)
    _edit_line(path, lineno, edit)
    expected = message.format(path=path)
    with pytest.raises(TraceFormatError) as raised:
        import_scenario(scenario)
    assert str(raised.value) == expected

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario_dir": str(scenario), "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(spec)]) == 3
    assert capsys.readouterr().err == f"error: trace-format-error: {expected}\n"
    assert not (tmp_path / "out").exists()


# edits the importer accepts: empty comma parts and blank lines are dropped
TOLERATED_EDITS = {
    "trailing_comma": (MPC, lambda text: text.replace("\n", ",\n")),
    "doubled_commas": (QD, lambda text: text.replace(",", ",,")),
    "blank_lines": (MPC, lambda text: "\n" + text.replace("\n", "\n  \n")),
    "blank_lines_between_blocks": (QD, lambda text: text.replace("\n2\n", "\n\n\n2\n")),
}


@pytest.mark.parametrize("case", sorted(TOLERATED_EDITS))
def test_import_drops_empty_parts_and_blank_lines(tmp_path, capsys, case):
    parts, edit = TOLERATED_EDITS[case]
    clean, scenario = tmp_path / "clean", tmp_path / "scenario"
    export_scenario(build_mixed_trace(), clean)
    export_scenario(build_mixed_trace(), scenario)
    path = scenario.joinpath(*parts)
    path.write_text(edit(path.read_text()))
    assert path.read_text() != clean.joinpath(*parts).read_text()
    assert_traces_equal(import_scenario(scenario), import_scenario(clean))

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario_dir": str(scenario), "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(spec)]) == 0


@pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["CRLF", "CR"])
def test_other_line_ends_import_as_lf(tmp_path, line_end):
    lf, other = tmp_path / "lf", tmp_path / "other"
    export_scenario(build_mixed_trace(), lf)
    export_scenario(build_mixed_trace(), other)
    files = [path for path in other.rglob("*") if path.is_file()]
    for path in files:
        path.write_bytes(path.read_bytes().replace(b"\n", line_end))
    assert all(b"\r" in path.read_bytes() for path in files)
    assert_traces_equal(import_scenario(other), import_scenario(lf))

    # and a malformed line keeps its line number
    path = other.joinpath(*QD)
    lines = path.read_bytes().split(line_end)
    lines[10] = b""
    path.write_bytes(line_end.join(lines))
    with pytest.raises(TraceFormatError) as raised:
        import_scenario(other)
    assert str(raised.value) == f"{path}:11: expected 2 values, got 0"


@pytest.mark.parametrize("parts", [MPC, QD, ("Output", "Ns3", "TimeStep.txt")],
                         ids=["coordinates", "rays", "time step"])
def test_a_trace_file_that_is_not_utf8_exits_3(tmp_path, capsys, parts):
    scenario = tmp_path / "scenario"
    export_scenario(build_mixed_trace(), scenario)
    path = scenario.joinpath(*parts)
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    expected = f"{path}: not UTF-8 text"
    with pytest.raises(TraceFormatError) as raised:
        import_scenario(scenario)
    assert str(raised.value).startswith(expected)

    assert main(["inspect", str(scenario)]) == 3
    assert capsys.readouterr().err.startswith(f"error: trace-format-error: {expected}")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario_dir": str(scenario), "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(spec)]) == 3
    assert capsys.readouterr().err.startswith(f"error: trace-format-error: {expected}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("parts", [MPC, QD, ("Output", "Ns3", "QdFiles", "Tx9Rx9.txt"),
                                   ("Output", "Visualizer", "NodePositions",
                                    "NodePositionsTx0.csv"),
                                   ("Output", "Ns3", "TimeStep.txt")],
                         ids=["coordinates", "rays", "extra rays", "node positions",
                              "time step"])
def test_a_directory_in_place_of_a_trace_file_exits_3(tmp_path, capsys, parts):
    scenario = tmp_path / "scenario"
    export_scenario(build_mixed_trace(), scenario)
    path = scenario.joinpath(*parts)
    if path.exists():
        path.unlink()
    path.mkdir()
    expected = f"{path}: cannot be read"
    with pytest.raises(TraceFormatError) as raised:
        import_scenario(scenario)
    assert str(raised.value).startswith(expected)

    assert main(["inspect", str(scenario)]) == 3
    assert capsys.readouterr().err.startswith(f"error: trace-format-error: {expected}")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario_dir": str(scenario), "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(spec)]) == 3
    assert capsys.readouterr().err.startswith(f"error: trace-format-error: {expected}")
    assert not (tmp_path / "out").exists()


def test_write_text_finishes_short_writes(tmp_path, monkeypatch):
    text = "3\n1e-08,2e-08,3e-08\nµ,°\n"
    path = tmp_path / "file.txt"
    path.write_text("an earlier, longer text\n" * 4)
    sizes = []
    write = os.write

    def one_byte(fd, data):
        sizes.append(len(data))
        return write(fd, bytes(data[:1]))

    monkeypatch.setattr(os, "write", one_byte)
    write_text(path, text)
    monkeypatch.undo()
    data = text.encode()
    assert path.read_bytes() == data
    assert sizes == list(range(len(data), 0, -1))


def test_write_text_closes_the_file_when_a_write_fails(tmp_path, monkeypatch):
    closed = []
    close = os.close

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def recording_close(fd):
        closed.append(fd)
        close(fd)

    monkeypatch.setattr(os, "write", full_disk)
    monkeypatch.setattr(os, "close", recording_close)
    with pytest.raises(ConfigError, match="file.txt: cannot be written "
                                          r"\(No space left on device\)"):
        write_text(tmp_path / "file.txt", "1\n")
    assert len(closed) == 1


@pytest.mark.parametrize("call", ["ftruncate", "close"])
def test_write_text_names_its_file_when_a_trim_or_a_close_fails(tmp_path, monkeypatch, call):
    # the bytes are all written, and the file is closed even so
    function = getattr(os, call)

    def failing(fd, *args):
        function(fd, *args)
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, call, failing)
    path = tmp_path / "file.txt"
    with pytest.raises(ConfigError, match=r"file.txt: cannot be written \(Input/output error\)"):
        write_text(path, "1\n")
    monkeypatch.undo()
    assert path.read_bytes() == b"1\n"


def test_write_text_rewrites_a_fifo_or_a_device_without_trimming_it(tmp_path, monkeypatch):
    trimmed = []
    ftruncate = os.ftruncate

    def recording_ftruncate(fd, size):
        trimmed.append(size)
        ftruncate(fd, size)

    monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
    write_text(os.devnull, "discarded\n")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text(fifo, "through a pipe\n")
        assert os.read(reader, 100) == b"through a pipe\n"
    finally:
        os.close(reader)
    assert trimmed == []
    # a regular file is trimmed to the bytes written, over an earlier longer text
    path = tmp_path / "file.txt"
    path.write_text("an earlier, longer text\n")
    write_text(path, "1\n")
    assert trimmed == [2]
    assert path.read_bytes() == b"1\n"


def test_a_failed_write_leaves_only_the_bytes_written(tmp_path, monkeypatch):
    text = "3\n1e-08,2e-08,3e-08\n"
    path = tmp_path / "file.txt"
    path.write_text("an earlier, longer text\n" * 4)
    write = os.write
    calls = []

    def full_after_four_bytes(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, bytes(data[:4]))

    monkeypatch.setattr(os, "write", full_after_four_bytes)
    with pytest.raises(ConfigError, match="No space left"):
        write_text(path, text)
    monkeypatch.undo()
    assert path.read_bytes() == text.encode()[:4]

import builtins
import dataclasses
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path, PurePosixPath

import numpy as np
import pytest

from conftest import assert_traces_equal, build_los_trace, in_process_pools, make_ray, trace_of
from rayblock import cli, trace
from rayblock.cli import (
    SweepGeometry,
    _sha256_tree,
    main,
    parse_run_spec,
    run_crossing_sweep,
    run_frequency_sweep,
    run_position_sweep,
)
from rayblock.diffraction import Dked, Obstruction
from rayblock.errors import ConfigError
from rayblock.linkeval import ArrayConfig
from rayblock.obstacles import LinearMobility, OrthoScreenShape, SphereShape, WaypointMobility
from rayblock.trace import export_scenario, import_scenario


def minimal_spec(scenario_dir, output_dir, **extra) -> dict:
    spec = {
        "scenario_dir": str(scenario_dir),
        "output_dir": str(output_dir),
        "obstacles": [],
        "models_to_compare": [],
    }
    spec.update(extra)
    return spec


def obstacle_entry(**overrides) -> dict:
    entry = {
        "shape": {"kind": "ortho_screen", "width": 0.2, "height": 1.7},
        "mobility": {"kind": "linear", "start": [5.0, 0.0, 0.85],
                     "velocity": [0.0, 1.2, 0.0]},
        "model": {"kind": "dked"},
    }
    entry.update(overrides)
    return entry


@pytest.fixture
def small_scenario(tmp_path):
    scenario = tmp_path / "scenario"
    trace = build_los_trace((1, 3, 1.6), (9, 3, 1.6), num_steps=20, time_step=0.0034)
    export_scenario(trace, scenario)
    return scenario


def write_spec(tmp_path, data) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data, indent=1))
    return path


def test_validate_ok(tmp_path, small_scenario, capsys):
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[obstacle_entry()]))
    assert main(["validate", str(spec)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_unknown_key_exits_2(tmp_path, small_scenario, capsys):
    data = minimal_spec(small_scenario, tmp_path / "out")
    data["surprise"] = 1
    spec = write_spec(tmp_path, data)
    assert main(["validate", str(spec)]) == 2
    assert "config-error" in capsys.readouterr().err


def test_validate_unknown_nested_key_exits_2(tmp_path, small_scenario):
    data = minimal_spec(small_scenario, tmp_path / "out",
                        obstacles=[obstacle_entry(typo_field=3)])
    assert main(["validate", str(write_spec(tmp_path, data))]) == 2


def test_validate_bad_json_exits_2(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_a_spec_that_is_not_utf8_exits_2(tmp_path, small_scenario, capsys, verb):
    data = minimal_spec(small_scenario, tmp_path / "out", obstacles=[obstacle_entry()])
    spec = write_spec(tmp_path, data)
    spec.write_bytes(spec.read_bytes().replace(b'"dked"', b'"dk\xffed"'))
    assert main([verb, str(spec)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config-error: {spec}: spec is not UTF-8 text")
    assert not (tmp_path / "out").exists()


def test_spec_parses_every_field(tmp_path, small_scenario):
    data = minimal_spec(
        small_scenario, tmp_path / "out",
        obstacles=[
            obstacle_entry(),
            {
                "shape": {"kind": "sphere", "radius": 0.3},
                "mobility": {"kind": "waypoints",
                             "waypoints": [[0.0, [1, 2, 0.5]], [2.0, [3, 2, 0.5]]]},
                "model": {"kind": "obstruction", "loss_db": 12.0},
                "threshold": 2.5,
                "fallback": True,
            },
        ],
        models_to_compare=["metis", "dked"],
        link_budget={"carrier_frequency_hz": 28e9, "tx_array": {"rows": 4, "cols": 2}},
        sampling={"time_step": 0.0034, "num_steps": 20},
        removal_floor_db=-400.0,
        max_clamp_events=100,
    )
    spec = parse_run_spec(data)
    assert (spec.scenario_dir, spec.output_dir) == (str(small_scenario), str(tmp_path / "out"))
    screen, sphere = spec.obstacles
    assert screen.shape == OrthoScreenShape(width=0.2, height=1.7)
    assert screen.mobility == LinearMobility(start=(5.0, 0.0, 0.85), velocity=(0.0, 1.2, 0.0))
    assert screen.model == Dked()
    assert (screen.distance_threshold, screen.obstruction_fallback_for_secondary,
            screen.fallback_loss_db) == (None, False, 10.0)
    assert sphere.shape == SphereShape(radius=0.3)
    assert sphere.mobility == WaypointMobility(times=(0.0, 2.0),
                                               points=((1.0, 2.0, 0.5), (3.0, 2.0, 0.5)))
    assert sphere.model == Obstruction(loss_db=12.0)
    assert (sphere.distance_threshold, sphere.obstruction_fallback_for_secondary) == (2.5, True)
    assert spec.models_to_compare == ("metis", "dked")
    assert spec.link_budget.carrier_frequency_hz == 28e9
    assert spec.link_budget.tx_array == ArrayConfig(rows=4, cols=2)
    assert spec.link_budget.rx_array == ArrayConfig(4, 4)  # the default
    assert (spec.sampling.time_step, spec.sampling.num_steps) == (0.0034, 20)
    assert (spec.removal_floor_db, spec.max_clamp_events) == (-400.0, 100)


def test_run_zero_obstacles_identity(tmp_path, small_scenario, capsys):
    out_dir = tmp_path / "out"
    spec = write_spec(tmp_path, minimal_spec(small_scenario, out_dir))
    assert main(["run", str(spec)]) == 0
    stdout = capsys.readouterr().out
    assert "pairs: 1" in stdout
    assert "steps: 20" in stdout

    original = import_scenario(small_scenario)
    produced = import_scenario(out_dir / "trace")
    assert_traces_equal(original, produced)

    snr = (out_dir / "snr_timeline.csv").read_text().splitlines()
    assert snr[0] == "tx_id,rx_id,t_seconds,snr_db_baseline,snr_db"
    assert len(snr) == 21
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest) == {"tool_version", "spec_sha256", "trace_sha256", "outputs"}


def test_run_with_model_comparison_outputs(tmp_path, small_scenario):
    out_dir = tmp_path / "out"
    spec = write_spec(tmp_path, minimal_spec(
        small_scenario, out_dir,
        obstacles=[obstacle_entry()],
        models_to_compare=["obstruction", "metis"],
    ))
    assert main(["run", str(spec)]) == 0
    header = (out_dir / "snr_timeline.csv").read_text().splitlines()[0]
    assert header.endswith("snr_db_obstruction,snr_db_metis")
    for name in ("obstruction", "metis"):
        lines = (out_dir / f"loss_timeline_{name}.csv").read_text().splitlines()
        assert lines[0] == "tx_id,rx_id,t_seconds,loss_db"
        assert len(lines) == 21


def test_run_malformed_scenario_exits_3(tmp_path, capsys):
    bad = tmp_path / "broken"
    (bad / "Output" / "Ns3" / "QdFiles").mkdir(parents=True)
    (bad / "Output" / "Ns3" / "QdFiles" / "Tx0Rx1.txt").write_text("not a count\n")
    spec = write_spec(tmp_path, minimal_spec(bad, tmp_path / "out"))
    assert main(["run", str(spec)]) == 3
    assert "Tx0Rx1" in capsys.readouterr().err


@pytest.mark.parametrize("recorded", ["0.1 s", "nan"])
def test_malformed_time_step_file_exits_3(tmp_path, small_scenario, capsys, recorded):
    (small_scenario / "Output" / "Ns3" / "TimeStep.txt").write_text(recorded + "\n")
    assert main(["inspect", str(small_scenario)]) == 3
    assert "time" in capsys.readouterr().err.lower()
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out"))
    assert main(["run", str(spec)]) == 3


def test_run_missing_scenario_dir_exits_3(tmp_path):
    spec = write_spec(tmp_path, minimal_spec(tmp_path / "nowhere", tmp_path / "out"))
    assert main(["run", str(spec)]) == 3


def test_run_sampling_mismatch_exits_2(tmp_path, small_scenario):
    spec = write_spec(tmp_path, minimal_spec(
        small_scenario, tmp_path / "out",
        sampling={"time_step": 0.0034, "num_steps": 99}))
    assert main(["run", str(spec)]) == 2


def test_run_clamp_budget_exit_4(tmp_path, small_scenario, capsys):
    # a 4 m dked screen across the direct ray caps its loss on every step,
    # so a budget of 0 exercises the numeric-failure exit path
    spec = write_spec(tmp_path, minimal_spec(
        small_scenario, tmp_path / "out", max_clamp_events=0,
        obstacles=[obstacle_entry(shape={"kind": "ortho_screen", "width": 4.0, "height": 3.0},
                                  mobility={"kind": "static", "position": [5.0, 3.0, 1.5]})]))
    assert main(["run", str(spec)]) == 4
    assert "20 clamp events exceed the budget of 0" in capsys.readouterr().err
    assert (tmp_path / "out" / "manifest.json").exists()


def test_output_dir_flag_overrides_spec(tmp_path, small_scenario):
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "ignored"))
    override = tmp_path / "flagged"
    assert main(["run", str(spec), "--output-dir", str(override)]) == 0
    assert (override / "snr_timeline.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_rerun_is_byte_identical(tmp_path, small_scenario):
    spec = write_spec(tmp_path, minimal_spec(
        small_scenario, tmp_path / "unused",
        obstacles=[obstacle_entry()], models_to_compare=["dked"]))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(spec), "--output-dir", str(out_a)]) == 0
    assert main(["run", str(spec), "--output-dir", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def sha256_tree_by_pathlib(root: Path) -> str:
    """The tree hash as Path.rglob computes it, kept as the oracle."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_tree_hash_equals_the_pathlib_walk(tmp_path, small_scenario):
    tree = tmp_path / "tree"
    files = {"a/b/c.txt": b"one", "a-b": b"two", "a/b-c": b"", "a.b/x": b"three",
             "a/b.txt": b"four", "d/e/f/g.csv": b"1,2\n", "empty": b"", "Z": b"upper"}
    for rel, data in files.items():
        (tree / rel).parent.mkdir(parents=True, exist_ok=True)
        (tree / rel).write_bytes(data)
    (tree / "no_files" / "inside").mkdir(parents=True)
    (tree / "link_to_dir").symlink_to(tree / "d")     # not entered
    (tree / "link_to_file").symlink_to(tree / "a-b")  # hashed as a file
    # string order puts "a-b" before "a/b/c.txt", part order after it
    assert sorted(files) != [str(p) for p in sorted(map(PurePosixPath, files))]
    assert _sha256_tree(tree) == sha256_tree_by_pathlib(tree)
    assert _sha256_tree(small_scenario) == sha256_tree_by_pathlib(small_scenario)


def test_manifest_hashes_the_input_alone(tmp_path, small_scenario):
    # an output directory nested in the scenario is left out of the trace
    # hash, so reruns agree with each other and with an outside directory
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "unused",
                                             obstacles=[obstacle_entry()]))

    def manifest(out_dir):
        assert main(["run", str(spec), "--output-dir", str(out_dir)]) == 0
        return (out_dir / "manifest.json").read_text()

    before = _sha256_tree(small_scenario)
    outside = manifest(tmp_path / "out")
    nested = [manifest(small_scenario / "results" / "out") for _ in range(2)]
    assert nested[0] == nested[1] == outside
    assert json.loads(outside)["trace_sha256"] == before


def test_inspect_summarizes(small_scenario, capsys):
    assert main(["inspect", str(small_scenario)]) == 0
    out = capsys.readouterr().out
    assert "pairs: 1" in out
    assert "steps: 20" in out
    assert "Tx0Rx1" in out


def test_a_sweep_into_dev_null_exits_0(capsys):
    # a device is written and never trimmed
    assert main(["sweep", "position", "-o", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull}\n"


def test_sweep_crossing_writes_csv(tmp_path):
    out = tmp_path / "crossing.csv"
    assert main(["sweep", "crossing", "-o", str(out), "--span", "0.3",
                 "--step", "0.01", "--models", "obstruction,dked"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "offset_m,loss_db_obstruction,loss_db_dked,blocked"
    assert len(lines) == 62  # 61 offsets + header


def test_sweep_position_writes_csv(tmp_path):
    out = tmp_path / "position.csv"
    assert main(["sweep", "position", "-o", str(out), "--samples", "21",
                 "--models", "metis"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "position_m,loss_db_metis"
    assert len(lines) == 22


def test_sweep_frequency_writes_csv(tmp_path):
    out = tmp_path / "freq.csv"
    assert main(["sweep", "frequency", "-o", str(out), "--span", "0.2", "--step", "0.02",
                 "--frequencies-ghz", "30,60", "--models", "dked"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frequency_ghz,offset_m,loss_db_dked,blocked"
    assert len(lines) == 2 * 21 + 1


def test_sweep_csv_columns_are_the_sweep_dict_in_order(tmp_path):
    path = tmp_path / "sweep.csv"
    cli._write_sweep_csv(path, {"b": np.array([1.0, -0.0]), "blocked": np.array([0, 1]),
                                "a": np.array([2.5, 3.0])})
    assert path.read_text() == "b,blocked,a\n1.000000,0,2.500000\n0.000000,1,3.000000\n"
    geom = SweepGeometry()
    offsets = ["--span", "0.1", "--step", "0.1"]
    for kind, flags, columns in (
            ("crossing", offsets, run_crossing_sweep(geom, np.array([0.0]))),
            ("position", ["--samples", "3"], run_position_sweep(geom, samples=3)),
            ("frequency", ["--frequencies-ghz", "60", *offsets],
             run_frequency_sweep(geom, (60e9,), np.array([0.0])))):
        out = tmp_path / f"{kind}.csv"
        assert main(["sweep", kind, "-o", str(out), *flags]) == 0
        assert out.read_text().splitlines()[0] == ",".join(columns)


# sha256 of the three sweeps' CSVs at their default flags: every model's
# printed digits, the dked_pc and itu_se columns included
PINNED_SWEEP_DIGESTS = {
    "crossing": "7e83b8e457f68fc5b76a6c9714656893a21c67be725466bdbd77011003c01a6f",
    "position": "a6c34430c1d1402cc4118454ac4a900383f03c76f4578355293c786934d7ab29",
    "frequency": "2fe3ea19ca5ac37850d7ec786818f3cb9ebc1321d49c605df9067dd59808df47",
}


@pytest.mark.parametrize("kind", sorted(PINNED_SWEEP_DIGESTS))
def test_default_sweep_csvs_match_the_pinned_digest(tmp_path, kind):
    out = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SWEEP_DIGESTS[kind]


def test_sweep_rejects_unknown_model(tmp_path):
    assert main(["sweep", "crossing", "-o", str(tmp_path / "x.csv"),
                 "--models", "nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ["crossing", "--frequency-ghz", "0"],
    ["crossing", "--frequency-ghz", "inf"],
    ["crossing", "--frequency-ghz", "-5"],
    ["crossing", "--frequency-ghz", "nan"],
    ["frequency", "--frequencies-ghz", "abc"],
    ["frequency", "--frequencies-ghz", "10,inf"],
    ["frequency", "--frequencies-ghz", "10,-30"],
    ["crossing", "--distance", "0"],
    ["crossing", "--distance", "-1"],
    ["position", "--distance", "inf"],
    ["crossing", "--height", "nan"],
    ["crossing", "--height", "-1"],
    ["crossing", "--screen-width", "nan"],
    ["crossing", "--screen-height", "0"],
    ["crossing", "--obstruction-db", "-3"],
    ["crossing", "--obstruction-db", "inf"],
    ["crossing", "--span", "nan"],
    ["crossing", "--span", "inf"],
    ["crossing", "--span", "1e308"],
    ["frequency", "--step", "0"],
    ["crossing", "--step", "1e-12"],
    ["crossing", "--span", "999999.75", "--step", "2"],  # 1,000,001 offsets
    ["position", "--margin", "nan"],
    ["position", "--samples", "4"],
    ["position", "--samples", "2000001"],
    ["position", "--models", "dked,dked"],
    ["crossing", "--models", "metis,dked,metis"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_sweep_rejects_a_bad_flag_value(tmp_path, capsys, argv):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", argv[0], "-o", str(out), *argv[1:]]) == 2
    assert "error: config-error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, sweep", [("crossing", run_crossing_sweep),
                                         ("position", run_position_sweep),
                                         ("frequency", run_frequency_sweep)])
def test_sweep_with_no_model_exits_2(tmp_path, capsys, kind, sweep):
    # with no model there is no blocked flag to report, nor any loss column
    out = tmp_path / "sweep.csv"
    assert main(["sweep", kind, "-o", str(out), "--models", ","]) == 2
    assert "at least one model" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="at least one model"):
        sweep(SweepGeometry(), models=())


def test_position_sweep_requires_odd_samples():
    with pytest.raises(ConfigError):
        run_position_sweep(SweepGeometry(), samples=10)


def test_crossing_sweep_obstruction_is_two_valued():
    cols = run_crossing_sweep(SweepGeometry(), offsets=np.linspace(-0.4, 0.4, 81),
                              models=("obstruction",))
    values = set(np.round(cols["loss_db_obstruction"], 12))
    assert values == {0.0, 10.0}


# the flags each sweep kind does not read: argparse rejects them
FOREIGN_SWEEP_FLAGS = [("crossing", "--frequencies-ghz", "60"), ("crossing", "--samples", "3"),
                       ("crossing", "--margin", "0.5"), ("position", "--frequencies-ghz", "60"),
                       ("position", "--span", "0.1"), ("position", "--step", "0.1"),
                       ("frequency", "--frequency-ghz", "60"), ("frequency", "--samples", "3"),
                       ("frequency", "--margin", "0.5")]


@pytest.mark.parametrize("kind, flag, value", FOREIGN_SWEEP_FLAGS,
                         ids=[f"{kind}{flag}" for kind, flag, _ in FOREIGN_SWEEP_FLAGS])
def test_a_flag_its_sweep_kind_does_not_read_exits_2(tmp_path, capsys, kind, flag, value):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", kind, "-o", str(out), flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


MODELS = ("obstruction", "dked")


@pytest.mark.parametrize("kind, flags, sweep", [
    ("crossing", ["--frequency-ghz", "30", "--span", "0.2", "--step", "0.1"],
     lambda geom: run_crossing_sweep(dataclasses.replace(geom, frequency_hz=30e9),
                                     -0.2 + 0.1 * np.arange(5), MODELS)),
    ("position", ["--frequency-ghz", "30", "--samples", "5", "--margin", "0.5"],
     lambda geom: run_position_sweep(dataclasses.replace(geom, frequency_hz=30e9), 5, 0.5,
                                     MODELS)),
    ("frequency", ["--frequencies-ghz", "30,45", "--span", "0.2", "--step", "0.1"],
     lambda geom: run_frequency_sweep(geom, (30e9, 45e9), -0.2 + 0.1 * np.arange(5), MODELS)),
], ids=["crossing", "position", "frequency"])
def test_each_sweep_kind_reads_every_flag_it_lists(tmp_path, kind, flags, sweep):
    geom = SweepGeometry(distance_m=6.0, node_height_m=1.5, screen_width_m=0.3,
                         screen_height_m=1.8, obstruction_db=12.0)
    shared = ["--distance", "6", "--height", "1.5", "--screen-width", "0.3",
              "--screen-height", "1.8", "--obstruction-db", "12", "--models", ",".join(MODELS)]
    out, expected = tmp_path / "sweep.csv", tmp_path / "expected.csv"
    assert main(["sweep", kind, "-o", str(out), *shared, *flags]) == 0
    cli._write_sweep_csv(expected, sweep(geom))
    assert out.read_bytes() == expected.read_bytes()
    assert len(out.read_text().splitlines()) == 1 + (10 if kind == "frequency" else 5)


@pytest.mark.parametrize("flags", [
    ["--frequencies-ghz", "10,20", "--span", "300", "--step", "0.001"],  # 2 x 600,001 rows
    ["--frequencies-ghz", "10,-30"],
], ids=["rows", "negative_carrier"])
def test_a_frequency_sweep_checks_its_whole_input_before_its_first_crossing(
        tmp_path, capsys, monkeypatch, flags):
    calls = []
    losses = cli.obstacle_losses
    monkeypatch.setattr(cli, "obstacle_losses", lambda *args: calls.append(1) or losses(*args))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "frequency", "-o", str(out), *flags]) == 2
    assert "error: config-error:" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("model", ["itu_se", "metis"])
def test_a_sweep_whose_edge_geometry_is_nan_exits_2(tmp_path, capsys, model):
    # a 1e-300 m wide screen: its horizontal edges' squared length underflows
    # to 0; a 1e-17 m one: half of it is lost against the 4 m midspan
    out = tmp_path / "sweep.csv"
    for width in ("1e-300", "1e-17"):
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["sweep", "crossing", "--screen-width", width, "--models", model,
                         "--span", "0.1", "--step", "0.1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: config-error:" in err
        assert f"screen width {float(width)!r} m" in err
        assert not out.exists()


@pytest.mark.parametrize("model, code", [("itu_se", 2), ("metis", 2), ("dked", 0)])
def test_a_screen_width_lost_against_its_coordinates_warns_nothing(tmp_path, capsys, model,
                                                                   code):
    # half of 1e-17 m is lost against the 4 m midspan: a model that reads the
    # horizontal edges stops before the edge kernel divides by their zero
    # length; dked reads only the lateral edges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "crossing", "--screen-width", "1e-17", "--models", model,
                     "--span", "0.1", "--step", "0.1", "-o", str(tmp_path / "c.csv")]) == code
    assert ("screen width 1e-17 m" in capsys.readouterr().err) == (code == 2)


def test_run_summary_reports_the_configured_run(tmp_path, small_scenario, capsys):
    # the sphere's 30 dB drops every -80 dB ray below the -100 dB floor, in
    # the configured run and in each compared run alike
    spec = write_spec(tmp_path, minimal_spec(
        small_scenario, tmp_path / "out",
        obstacles=[{"shape": {"kind": "sphere", "radius": 0.3},
                    "mobility": {"kind": "static", "position": [5.0, 3.0, 1.6]},
                    "model": {"kind": "obstruction", "loss_db": 30.0}}],
        models_to_compare=["obstruction", "dked"],
        removal_floor_db=-100.0))
    assert main(["run", str(spec)]) == 0
    stdout = capsys.readouterr().out
    assert "rays: 20 in, 20 dropped" in stdout
    # interactions sum all three runs
    assert "60 obstruction" in stdout


def test_zero_obstacles_apply_the_removal_floor_as_a_far_sphere_does(tmp_path, capsys):
    # the -100 dB floor drops every step's -110 dB bounce, with or without
    # obstacles; a sphere far from every ray changes nothing else
    tx, wall, rx = (1.0, 3.0, 1.6), (5.0, 0.0, 1.4), (9.0, 3.0, 1.6)
    steps = [[make_ray(tx, rx), make_ray(tx, wall, rx, gain_db=-110.0)] for _ in range(20)]
    export_scenario(trace_of({(0, 1): steps}, {0: np.tile(tx, (20, 1)), 1: np.tile(rx, (20, 1))},
                             time_step=0.0034), tmp_path / "scenario")
    far_sphere = {"shape": {"kind": "sphere", "radius": 0.3},
                  "mobility": {"kind": "static", "position": [500.0, 500.0, 1.6]},
                  "model": {"kind": "obstruction", "loss_db": 30.0}}
    outputs = {}
    for name, obstacles in (("none", []), ("far", [far_sphere])):
        out = tmp_path / name
        spec = write_spec(tmp_path, minimal_spec(tmp_path / "scenario", out, obstacles=obstacles,
                                                 removal_floor_db=-100.0))
        assert main(["run", str(spec)]) == 0
        rays = [line for line in capsys.readouterr().out.splitlines() if line.startswith("rays:")]
        trace = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in (out / "trace").rglob("*") if p.is_file()}
        outputs[name] = rays, (out / "snr_timeline.csv").read_bytes(), trace
    assert outputs["none"][0] == ["rays: 40 in, 20 dropped"]
    assert outputs["none"] == outputs["far"]


def test_run_evaluates_each_pair_once_for_every_snr_column(tmp_path, monkeypatch):
    # two pairs, two compared models, a floor that drops rays: four SNR
    # columns per pair from one link evaluation each
    tx, rx1, rx2 = (1.0, 3.0, 1.6), (9.0, 3.0, 1.6), (9.0, 5.0, 1.6)
    steps = {(0, 1): [[make_ray(tx, rx1), make_ray(tx, (5.0, 0.0, 1.4), rx1, gain_db=-110.0)]
                      for _ in range(20)],
             (0, 2): [[make_ray(tx, rx2)] for _ in range(20)]}
    export_scenario(trace_of(steps, {0: np.tile(tx, (20, 1)), 1: np.tile(rx1, (20, 1)),
                                     2: np.tile(rx2, (20, 1))}, time_step=0.0034),
                    tmp_path / "scenario")
    spec = write_spec(tmp_path, minimal_spec(
        tmp_path / "scenario", tmp_path / "out", obstacles=[obstacle_entry()],
        models_to_compare=["obstruction", "dked"], removal_floor_db=-100.0))
    calls = []
    original = cli.snr_timeline

    def counting(trace, pair, budget, gains=None):
        calls.append((pair, len(gains)))
        return original(trace, pair, budget, gains)

    monkeypatch.setattr(cli, "snr_timeline", counting)
    assert main(["run", str(spec)]) == 0
    assert calls == [((0, 1), 4), ((0, 2), 4)]
    header = (tmp_path / "out" / "snr_timeline.csv").read_text().splitlines()[0]
    assert header == "tx_id,rx_id,t_seconds,snr_db_baseline,snr_db,snr_db_obstruction,snr_db_dked"


NAN, INF = float("nan"), float("inf")


def _full_spec(scenario_dir, output_dir) -> dict:
    """A valid spec holding every kind of number the schema has."""
    return minimal_spec(
        scenario_dir, output_dir,
        obstacles=[
            obstacle_entry(threshold=1.5, fallback=True, fallback_loss_db=10.0),
            {"shape": {"kind": "screen", "width": 0.5, "height": 1.0,
                       "azimuth": 0.2, "elevation": 0.0},
             "mobility": {"kind": "static", "position": [3.0, 0.0, 1.0]},
             "model": {"kind": "dked"}},
            {"shape": {"kind": "sphere", "radius": 0.3},
             "mobility": {"kind": "waypoints",
                          "waypoints": [[0.0, [1, 2, 0.5]], [2.0, [3, 2, 0.5]]]},
             "model": {"kind": "obstruction", "loss_db": 12.0}},
        ],
        link_budget={"carrier_frequency_hz": 60e9, "bandwidth_hz": 2.16e9,
                     "tx_power_dbm": 20.0, "noise_figure_db": 10.0,
                     "tx_array": {"rows": 4, "cols": 4, "spacing": 0.5}},
        sampling={"time_step": 0.0034, "num_steps": 20},
        removal_floor_db=-500.0,
        max_clamp_events=10,
    )


NON_FINITE_CASES = {
    "start": (("obstacles", 0, "mobility", "start", 0), NAN),
    "velocity": (("obstacles", 0, "mobility", "velocity", 1), INF),
    "width": (("obstacles", 0, "shape", "width"), NAN),
    "height": (("obstacles", 1, "shape", "height"), INF),
    "azimuth": (("obstacles", 1, "shape", "azimuth"), NAN),
    "position": (("obstacles", 1, "mobility", "position", 2), -INF),
    "radius": (("obstacles", 2, "shape", "radius"), NAN),
    "waypoint_time": (("obstacles", 2, "mobility", "waypoints", 1, 0), NAN),
    "obstruction_loss": (("obstacles", 2, "model", "loss_db"), INF),
    "threshold": (("obstacles", 0, "threshold"), NAN),
    "fallback_loss": (("obstacles", 0, "fallback_loss_db"), NAN),
    "carrier": (("link_budget", "carrier_frequency_hz"), INF),
    "bandwidth": (("link_budget", "bandwidth_hz"), NAN),
    "tx_power": (("link_budget", "tx_power_dbm"), INF),
    "noise_figure": (("link_budget", "noise_figure_db"), NAN),
    "spacing": (("link_budget", "tx_array", "spacing"), NAN),
    "rows": (("link_budget", "tx_array", "rows"), INF),
    "time_step": (("sampling", "time_step"), NAN),
    "num_steps": (("sampling", "num_steps"), INF),
    "removal_floor": (("removal_floor_db",), -INF),
    "max_clamp_events": (("max_clamp_events",), INF),
}


# (path in the spec, value, words the error names): JSON true is not a
# number, counts take integral values only, the clamp budget is not negative
NOT_A_SPEC_NUMBER_CASES = {
    "width_true": (("obstacles", 0, "shape", "width"), True, "expected a number"),
    "radius_string": (("obstacles", 2, "shape", "radius"), "0.3", "expected a number"),
    "huge_integer": (("removal_floor_db",), 10 ** 400, "finite"),
    "rows_fraction": (("link_budget", "tx_array", "rows"), 2.7, "tx_array.rows"),
    "rows_true": (("link_budget", "tx_array", "rows"), True, "expected a number"),
    "cols_fraction": (("link_budget", "tx_array", "cols"), 4.5, "tx_array.cols"),
    "num_steps_true": (("sampling", "num_steps"), True, "expected a number"),
    "num_steps_fraction": (("sampling", "num_steps"), 20.5, "num_steps"),
    "num_steps_zero": (("sampling", "num_steps"), 0, "num_steps"),
    "max_clamp_fraction": (("max_clamp_events",), 0.7, "max_clamp_events"),
    "max_clamp_negative": (("max_clamp_events",), -1, "max_clamp_events"),
    "fallback_string": (("obstacles", 0, "fallback"), "false", "obstacles[0].fallback"),
    "fallback_number": (("obstacles", 0, "fallback"), 0, "obstacles[0].fallback"),
    "fallback_null": (("obstacles", 0, "fallback"), None, "obstacles[0].fallback"),
}


def _full_spec_with(tmp_path, scenario, path, value) -> Path:
    data = _full_spec(scenario, tmp_path / "out")
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return write_spec(tmp_path, data)


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_spec_number_exits_2(tmp_path, small_scenario, capsys, verb, case):
    path, value = NON_FINITE_CASES[case]
    spec = _full_spec_with(tmp_path, small_scenario, path, value)  # json writes NaN literally
    assert main([verb, str(spec)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(NOT_A_SPEC_NUMBER_CASES))
def test_value_that_is_not_a_spec_number_exits_2(tmp_path, small_scenario, capsys, verb,
                                                   case):
    path, value, words = NOT_A_SPEC_NUMBER_CASES[case]
    spec = _full_spec_with(tmp_path, small_scenario, path, value)
    assert main([verb, str(spec)]) == 2
    assert words in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _spec_place(path) -> str:
    """The place of a path into the spec, as errors name it: spec.obstacles[0].shape.width."""
    return "spec" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES) + sorted(NOT_A_SPEC_NUMBER_CASES))
def test_a_spec_value_error_names_its_key_path(tmp_path, small_scenario, capsys, case):
    path, value = {**NON_FINITE_CASES, **NOT_A_SPEC_NUMBER_CASES}[case][:2]
    spec = _full_spec_with(tmp_path, small_scenario, path, value)
    assert main(["validate", str(spec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config-error: {_spec_place(path)}: ")


# (path in the spec, value, the place the error starts with): a value every
# check passes but its object's own rules reject, and a kind that is no name
TYPE_RULE_CASES = {
    "negative_width": (("obstacles", 0, "shape", "width"), -0.2, "obstacles[0].shape"),
    "negative_threshold": (("obstacles", 0, "threshold"), -1.0, "obstacles[0]"),
    "sphere_diffraction": (("obstacles", 2, "model"), {"kind": "dked"}, "obstacles[2]"),
    "obstruction_loss": (("obstacles", 2, "model", "loss_db"), -1.0, "obstacles[2].model"),
    "waypoint_order": (("obstacles", 2, "mobility", "waypoints"),
                       [[1.0, [0, 0, 0]], [0.0, [0, 0, 0]]], "obstacles[2].mobility"),
    "zero_bandwidth": (("link_budget", "bandwidth_hz"), 0.0, "link_budget"),
    "zero_time_step": (("sampling", "time_step"), 0.0, "sampling"),
    "model_kind_list": (("obstacles", 1, "model", "kind"), ["dked"], "obstacles[1].model"),
}


@pytest.mark.parametrize("case", sorted(TYPE_RULE_CASES))
def test_a_type_rule_error_starts_with_its_objects_place(tmp_path, small_scenario, capsys,
                                                          case):
    path, value, place = TYPE_RULE_CASES[case]
    spec = _full_spec_with(tmp_path, small_scenario, path, value)
    assert main(["validate", str(spec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config-error: spec.{place}: ")


def test_integral_floats_are_spec_integers(tmp_path, small_scenario):
    data = _full_spec(small_scenario, tmp_path / "out")
    data["link_budget"]["tx_array"]["rows"] = 4.0
    data["sampling"]["num_steps"] = 20.0
    data["max_clamp_events"] = 0
    spec = parse_run_spec(data)
    assert spec.link_budget.tx_array.rows == 4 and type(spec.link_budget.tx_array.rows) is int
    assert spec.sampling.num_steps == 20 and spec.max_clamp_events == 0


def test_full_spec_is_valid(tmp_path, small_scenario):
    spec = write_spec(tmp_path, _full_spec(small_scenario, tmp_path / "out"))
    assert main(["validate", str(spec)]) == 0
    assert main(["run", str(spec)]) == 0


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("models", [["dked", "metis", "dked"], [["dked"]]],
                         ids=["repeated", "nested_list"])
def test_malformed_compared_models_exit_2(tmp_path, small_scenario, capsys, verb, models):
    spec = write_spec(tmp_path, minimal_spec(
        small_scenario, tmp_path / "out", obstacles=[obstacle_entry()],
        models_to_compare=models))
    assert main([verb, str(spec)]) == 2
    assert "'dked'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("key,value", [("scenario_dir", 5), ("output_dir", None),
                                       ("output_dir", ["out"])],
                         ids=["scenario_number", "output_null", "output_list"])
def test_a_directory_that_is_not_a_string_exits_2(tmp_path, small_scenario, capsys,
                                                  monkeypatch, verb, key, value):
    # str() would turn null into a directory named None
    monkeypatch.chdir(tmp_path)
    data = minimal_spec(small_scenario, tmp_path / "out", obstacles=[obstacle_entry()])
    data[key] = value
    assert main([verb, str(write_spec(tmp_path, data))]) == 2
    assert f"spec.{key}: expected a string, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "None").exists() and not (tmp_path / "out").exists()


def test_a_compared_model_the_spec_cannot_hold_exits_2_in_validate_and_run(
        tmp_path, small_scenario, capsys):
    # metis needs broadside screens, so comparing it on a tilted screen fails
    # before any work, in both verbs alike
    tilted = obstacle_entry(shape={"kind": "screen", "width": 0.2, "height": 1.7,
                                   "azimuth": 0.3})
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[obstacle_entry(), tilted],
                                             models_to_compare=["dked", "metis"]))
    errors = []
    for verb in ("validate", "run"):
        assert main([verb, str(spec)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: config-error: spec: models_to_compare 'metis' "
                                "cannot model obstacles[1]: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("section,value,context", [
    ("sampling", 5, "spec.sampling"),
    ("link_budget", 5, "spec.link_budget"),
    ("link_budget", {"tx_array": 3}, "spec.link_budget.tx_array"),
    ("link_budget", {"rx_array": [4, 4]}, "spec.link_budget.rx_array"),
], ids=["sampling", "link_budget", "tx_array", "rx_array"])
def test_spec_section_that_is_not_an_object_exits_2(tmp_path, small_scenario, capsys, verb,
                                                    section, value, context):
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             **{section: value}))
    assert main([verb, str(spec)]) == 2
    assert f"{context}: must be an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_scipy_unloaded():
    # only the quadrature oracle needs scipy, and only runs with several
    # workers need the process pool; every CLI process would pay their imports
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, rayblock.cli; "
             "print('scipy' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_run_has_no_scenario_dir_flag(tmp_path, small_scenario, capsys):
    # the spec's scenario_dir is the one source of the scenario
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out"))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", str(spec), "--scenario-dir", str(small_scenario)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --scenario-dir" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_is_the_same_on_1_and_2_workers(tmp_path, small_scenario, capsys, monkeypatch):
    # the summary lines and every output file, with two compared models
    pools = in_process_pools(monkeypatch, cpus=2)
    screen = obstacle_entry(mobility={"kind": "linear", "start": [5.0, 2.9, 0.85],
                                      "velocity": [0.0, 1.2, 0.0]})
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[screen],
                                             models_to_compare=["metis", "itu_se"]))
    summaries, files = {}, {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert main(["run", str(spec), "--workers", str(workers), "--output-dir", str(out)]) == 0
        summaries[workers] = [line for line in capsys.readouterr().out.splitlines()
                              if line.startswith(("rays:", "clamp events:", "interactions:"))]
        files[workers] = {path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()}
    assert [pool.max_workers for pool in pools] == [2]  # only the 2-worker run pools
    assert len(summaries[1]) == 3
    assert not summaries[1][2].startswith("interactions: 0 diffraction")
    assert summaries[1] == summaries[2]
    assert len(files[1]) > 3
    assert files[1] == files[2]


def test_output_dir_equal_to_the_scenario_exits_2(tmp_path, small_scenario, capsys):
    # the outputs would land in the tree whose hash the manifest records
    before = _sha256_tree(small_scenario)
    listing = sorted(small_scenario.rglob("*"))
    spec = write_spec(tmp_path, minimal_spec(small_scenario, small_scenario / "sub" / "..",
                                             obstacles=[obstacle_entry()]))
    assert main(["run", str(spec)]) == 2
    assert "is the scenario directory" in capsys.readouterr().err
    assert sorted(small_scenario.rglob("*")) == listing
    assert _sha256_tree(small_scenario) == before
    assert main(["run", str(spec), "--output-dir", str(small_scenario)]) == 2


def test_a_scenario_at_the_output_trace_exits_2(tmp_path, capsys):
    # the exported trace would overwrite the scenario it reads
    scenario = tmp_path / "out" / "trace"
    export_scenario(build_los_trace((1, 3, 1.6), (9, 3, 1.6), num_steps=20, time_step=0.0034),
                    scenario)
    spec = write_spec(tmp_path, minimal_spec(scenario, tmp_path / "out" / "sub" / "..",
                                             obstacles=[obstacle_entry()]))
    before = _sha256_tree(tmp_path / "out")
    assert main(["run", str(spec)]) == 2
    assert "holds it as trace/" in capsys.readouterr().err
    assert _sha256_tree(tmp_path / "out") == before


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize("below", [False, True], ids=["a file", "below a file"])
def test_an_output_dir_that_cannot_be_a_directory_exits_2_before_any_work(
        tmp_path, small_scenario, capsys, monkeypatch, below):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    output_dir = afile / "out" if below else afile
    spec = write_spec(tmp_path, minimal_spec(small_scenario, output_dir,
                                             obstacles=[obstacle_entry()]))
    monkeypatch.setattr(cli, "import_scenario", _no_work)
    assert main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "config-error" in err and repr(str(output_dir)) in err
    assert afile.read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["trace", "snr_timeline.csv", "manifest.json",
                                  "loss_timeline_metis.csv", "trace/Output/Ns3",
                                  "trace/Output/Visualizer/NodePositions",
                                  "trace/Output/Ns3/TimeStep.txt"])
def test_an_output_in_the_output_dir_that_cannot_be_written_exits_2_before_any_work(
        tmp_path, small_scenario, capsys, monkeypatch, name):
    # the trace and the export's directories must be directories, the other
    # outputs files: each is the other kind here
    output = tmp_path / "out" / name
    is_dir = name.endswith((".csv", ".json", ".txt"))
    if is_dir:
        output.mkdir(parents=True)
    else:
        output.parent.mkdir(parents=True)
        output.write_text("not a directory\n")
    # a file at Ns3 leaves no room for the ray file directory below it
    named = output / "QdFiles" if name == "trace/Output/Ns3" else output
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[obstacle_entry()],
                                             models_to_compare=["metis"]))
    before = _sha256_tree(tmp_path / "out")
    monkeypatch.setattr(cli, "import_scenario", _no_work)
    assert main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "config-error" in err and repr(str(named)) in err
    assert _sha256_tree(tmp_path / "out") == before
    assert output.is_dir() == is_dir


@pytest.mark.parametrize("name", ["Ns3/QdFiles/Tx0Rx1.txt",
                                  "Visualizer/MpcCoordinates/MpcTx0Rx1Refl0Trc3.csv"],
                         ids=["ray file", "coordinate file"])
def test_a_directory_in_place_of_an_export_file_exits_2(tmp_path, small_scenario, capsys,
                                                        name):
    # the export meets the directory when it writes that file, after the work
    taken = tmp_path / "out" / "trace" / "Output" / name
    taken.mkdir(parents=True)
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[obstacle_entry()]))
    assert main(["run", str(spec)]) == 2
    err = capsys.readouterr().err
    assert f"config-error: {taken}: cannot be written (Is a directory)" in err
    assert taken.is_dir()
    assert not (tmp_path / "out" / "manifest.json").exists()


def _record_opens(monkeypatch, opened: list[str]) -> None:
    """Record the absolute path of every file opened by name, through open,
    io.open (pathlib's) or os.open."""
    for module in (builtins, io, os):
        function = module.open

        def record(file, *args, _function=function, **kwargs):
            if isinstance(file, (str, bytes, os.PathLike)):
                opened.append(os.path.abspath(os.fsdecode(file)))
            return _function(file, *args, **kwargs)
        monkeypatch.setattr(module, "open", record)


def _files(root: Path) -> list[Path]:
    return sorted(path for path in root.rglob("*") if path.is_file())


def test_a_run_reads_and_writes_each_file_once(tmp_path, small_scenario, monkeypatch):
    read, written, opened = [], [], []

    def recording(paths, function):
        def record(path, *args):
            paths.append(Path(path))
            return function(path, *args)
        return record

    monkeypatch.setattr(trace, "read_text", recording(read, trace.read_text))
    write = recording(written, trace.write_text)
    monkeypatch.setattr(trace, "write_text", write)
    monkeypatch.setattr(cli, "write_text", write)
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[obstacle_entry()],
                                             models_to_compare=["metis"]))
    _record_opens(monkeypatch, opened)
    assert main(["run", str(spec)]) == 0
    monkeypatch.undo()

    # the scenario holds no auxiliary file, so import parses every file of it
    assert sorted(read) == _files(small_scenario)
    assert sorted(written) == _files(tmp_path / "out")
    # 20 coordinate files, one ray file, two node position files and TimeStep.txt;
    # the run adds the SNR and loss timelines and the manifest
    assert (len(read), len(written)) == (24, 24 + 3)
    # and the manifest hashes what the import and the spec parser read:
    # nothing of the scenario or the spec is opened a second time
    assert sorted(Path(path) for path in opened
                  if Path(path).is_relative_to(small_scenario)) == _files(small_scenario)
    assert opened.count(str(spec)) == 1


def test_a_run_from_inside_its_scenario_opens_each_file_once(tmp_path, small_scenario,
                                                              monkeypatch):
    # a scenario_dir of "." names its files without the "./" its walk would add
    opened = []
    spec = write_spec(tmp_path, minimal_spec(".", tmp_path / "out",
                                             obstacles=[obstacle_entry()]))
    monkeypatch.chdir(small_scenario)
    _record_opens(monkeypatch, opened)
    assert main(["run", str(spec)]) == 0
    monkeypatch.undo()
    assert sorted(Path(path) for path in opened
                  if Path(path).is_relative_to(small_scenario)) == _files(small_scenario)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["trace_sha256"] == sha256_tree_by_pathlib(small_scenario)


def test_the_manifest_hashes_the_spec_bytes_that_were_parsed(tmp_path, small_scenario,
                                                             monkeypatch):
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[obstacle_entry()]))
    parsed = spec.read_bytes()
    parse = cli.parse_run_spec

    def parse_then_rewrite(data):
        spec.write_text(json.dumps(data))  # the same spec in other bytes
        return parse(data)

    monkeypatch.setattr(cli, "parse_run_spec", parse_then_rewrite)
    assert main(["run", str(spec)]) == 0
    assert spec.read_bytes() != parsed
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["spec_sha256"] == hashlib.sha256(parsed).hexdigest()


def test_a_piped_spec_is_hashed_from_the_bytes_it_was_parsed_from(tmp_path, small_scenario):
    data = json.dumps(minimal_spec(small_scenario, tmp_path / "out",
                                   obstacles=[obstacle_entry()])).encode()
    reader, writer = os.pipe()
    os.write(writer, data)
    os.close(writer)
    try:
        assert main(["run", f"/dev/fd/{reader}"]) == 0
    finally:
        os.close(reader)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["spec_sha256"] == hashlib.sha256(data).hexdigest()
    assert manifest["spec_sha256"] != hashlib.sha256(b"").hexdigest()


def test_the_manifest_hash_of_a_scenario_equals_the_pathlib_walk(tmp_path, small_scenario):
    # an auxiliary file the import ignores is hashed from disk; node
    # positions behind a symlinked directory are imported but not hashed,
    # and an output directory nested in the scenario is not hashed either
    (small_scenario / "Output" / "notes.txt").write_text("an auxiliary file\n")
    nodes = small_scenario / "Output" / "Visualizer" / "NodePositions"
    nodes.rename(tmp_path / "positions")
    nodes.symlink_to(tmp_path / "positions", target_is_directory=True)
    expected = sha256_tree_by_pathlib(small_scenario)
    out = small_scenario / "results"
    spec = write_spec(tmp_path, minimal_spec(small_scenario, out, obstacles=[obstacle_entry()]))
    for _ in range(2):  # the second run finds the first one's outputs in the scenario
        assert main(["run", str(spec)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trace_sha256"] == expected


@pytest.mark.parametrize("below", [False, True], ids=["a directory", "below a file"])
def test_a_sweep_output_that_cannot_be_a_file_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, below):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    output = afile / "p.csv" if below else tmp_path
    monkeypatch.setattr(cli, "_sweep_losses", _no_work)
    assert main(["sweep", "position", "-o", str(output)]) == 2
    err = capsys.readouterr().err
    assert "config-error" in err and repr(str(output)) in err
    assert afile.read_text() == "not a directory\n"


def test_a_rerun_into_the_same_directory_leaves_only_its_own_trace(tmp_path, capsys):
    # the second run's floor drops the bounce rays the first run exported
    tx, wall, rx = (1.0, 3.0, 1.6), (5.0, 0.0, 1.4), (9.0, 3.0, 1.6)
    steps = [[make_ray(tx, rx), make_ray(tx, wall, rx, gain_db=-120.0)] for _ in range(20)]
    export_scenario(trace_of({(0, 1): steps}, {0: np.tile(tx, (20, 1)), 1: np.tile(rx, (20, 1))},
                             time_step=0.0034), tmp_path / "scenario")
    for floor in (-500.0, -110.0):
        spec = write_spec(tmp_path, minimal_spec(tmp_path / "scenario", tmp_path / "unused",
                                                 removal_floor_db=floor))
        assert main(["run", str(spec), "--output-dir", str(tmp_path / "out")]) == 0
    assert main(["run", str(spec), "--output-dir", str(tmp_path / "fresh")]) == 0
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "out" / "trace")]) == 0
    assert "rays per step min 1, max 1" in capsys.readouterr().out

    def files(top):
        return {p.relative_to(top).as_posix(): p.read_bytes() for p in top.rglob("*")
                if p.is_file()}

    assert files(tmp_path / "out") == files(tmp_path / "fresh")


def test_compared_models_equal_separate_runs(tmp_path, small_scenario):
    # each compared model's column of one run equals the configured column
    # of a spec that configures that model alone
    entry = obstacle_entry(mobility={"kind": "linear", "start": [5.0, 2.6, 0.85],
                                     "velocity": [0.0, 0.5, 0.0]})
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "both",
                                             obstacles=[entry],
                                             models_to_compare=["metis", "itu_se"]))
    assert main(["run", str(spec)]) == 0
    both = np.genfromtxt(tmp_path / "both" / "snr_timeline.csv", delimiter=",", names=True)
    for name in ("metis", "itu_se"):
        alone_spec = tmp_path / f"{name}.json"
        alone_spec.write_text(json.dumps(minimal_spec(
            small_scenario, tmp_path / name, obstacles=[dict(entry, model={"kind": name})])))
        assert main(["run", str(alone_spec)]) == 0
        alone = np.genfromtxt(tmp_path / name / "snr_timeline.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(both[f"snr_db_{name}"], alone["snr_db"])
        assert np.any(both[f"snr_db_{name}"] < both["snr_db_baseline"])


# sha256 of every output of the run below and its stdout, taken before the
# trace reader and writers worked in batches: a formatting drift in any text
# writer changes one of them
PINNED_RUN_DIGESTS = {
    "loss_timeline_dked.csv": "d66f4ebb55796e6211954173408022b1afb69346212053f494309bece505cc74",
    "loss_timeline_metis.csv": "64fbf55feb8b63898b70c0e1fa9e3d4b097fa19f527dd8d4edc20c75c5ed69a8",
    "manifest.json": "3d6292faa2abf30d2949f87c567a00f08b91ce78b0b3d2dcf9ef97078c691eb8",
    "snr_timeline.csv": "a434a1a1f5857bf59325a1e7c1110c2bc0eaa34627dc3d0d749a4c3aec2ac5eb",
    "trace/Output/Ns3/QdFiles/Tx0Rx1.txt":
        "35f3e847ab691e11e3fc59bcf837b72829f00e48bf3157731634b3a12fe844a4",
    "trace/Output/Ns3/TimeStep.txt":
        "6885aa3cd13a94492d3d20e338043012d36cb2638ac11edfd0f460e7608fca68",
    **{f"trace/Output/Visualizer/MpcCoordinates/MpcTx0Rx1Refl0Trc{t}.csv":
       "df412b6fccd1ae92874517fcd2db517c6071a6d3b9015a3542422ef38049b557" for t in range(10)},
    "trace/Output/Visualizer/NodePositions/NodePositionsRx1.csv":
        "e4e29587495ad21c6431a642c73d48dd4a81f3b96c2c6d37b5941db8d2dd7074",
    "trace/Output/Visualizer/NodePositions/NodePositionsTx0.csv":
        "f18d8ba24f126ee208bbb3769bca1a323b14c550f1d02df25f82bf8d58152f31",
}
PINNED_STDOUT = ("pairs: 1\nsteps: 20\nrays: 20 in, 10 dropped\nclamp events: 0\n"
                 "interactions: 40 diffraction, 20 obstruction, 0 skipped far, 0 degenerate\n"
                 "outputs: out\n")


def test_run_outputs_match_the_pinned_digest(tmp_path, small_scenario, capsys, monkeypatch):
    # relative paths keep the spec, and so its manifest hash, independent of
    # tmp_path; a screen sweeping into the path makes its 30 dB obstruction
    # drop the -80 dB ray below the -100 dB floor on the last ten steps only
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, minimal_spec(
        "scenario", "out",
        obstacles=[obstacle_entry(
            mobility={"kind": "linear", "start": [5.0, 2.8, 0.85], "velocity": [0.0, 3.0, 0.0]},
            model={"kind": "obstruction", "loss_db": 30.0})],
        models_to_compare=["dked", "metis"],
        removal_floor_db=-100.0))
    assert main(["run", "spec.json"]) == 0
    assert capsys.readouterr().out == PINNED_STDOUT
    out = tmp_path / "out"
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    assert digests == PINNED_RUN_DIGESTS


@pytest.mark.parametrize("model, y", [("itu_se", 3.05), ("itu_se", 3.0), ("metis", 3.0)],
                         ids=["itu_se_clear", "itu_se_blocking", "metis_blocking"])
def test_a_run_whose_edge_geometry_is_nan_exits_2_before_any_output(
        tmp_path, small_scenario, capsys, model, y):
    # a 1e-300 or 1e-17 m wide screen beside or across the path at y = 3 m
    for width in (1e-300, 1e-17):
        screen = obstacle_entry(shape={"kind": "ortho_screen", "width": width, "height": 0.9},
                                mobility={"kind": "static", "position": [5.0, y, 1.6]},
                                model={"kind": model})
        spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                                 obstacles=[screen]))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["run", str(spec), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: config-error:" in err
        assert f"screen width {width!r} m" in err
        assert not (tmp_path / "out").exists()


def test_a_run_logs_each_warning_once_over_its_model_sets(tmp_path, small_scenario, caplog):
    # at 1 GHz (0.3 m) the 0.2 m wide itu_se screen is outside the model's
    # regime in the configured run and in the compared itu_se run alike
    screen = obstacle_entry(mobility={"kind": "static", "position": [5.0, 3.3, 0.85]},
                            model={"kind": "itu_se"})
    spec = write_spec(tmp_path, minimal_spec(small_scenario, tmp_path / "out",
                                             obstacles=[screen],
                                             models_to_compare=["itu_se", "dked"],
                                             link_budget={"carrier_frequency_hz": 1e9}))
    with caplog.at_level(logging.WARNING):
        assert main(["run", str(spec)]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "semi-empirical screen model outside its small-wavelength regime in 40 evaluations "
        "(lambda=0.3 m)"]


def test_a_frequency_sweep_logs_one_line_per_carrier_outside_the_regime(tmp_path, caplog):
    # the 0.2 m wide screen holds itu_se's regime at 60 GHz (5 mm), not at
    # 1 GHz (0.3 m) or 2 GHz (0.15 m); each of the three offsets counts
    with caplog.at_level(logging.WARNING):
        assert main(["sweep", "frequency", "--frequencies-ghz", "1,2,60", "--models", "itu_se",
                     "--span", "0.1", "--step", "0.1", "-o", str(tmp_path / "f.csv")]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        f"semi-empirical screen model outside its small-wavelength regime in 3 evaluations "
        f"(lambda={wavelength} m)" for wavelength in ("0.3", "0.15")]

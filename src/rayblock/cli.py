"""Configuration-driven command line entry point.

Verbs:
    run <spec.json>      load a trace, apply the declared obstacles, export
                         the modified trace plus SNR/loss time series CSVs
    sweep crossing       analytic loss curves for a screen crossing the path
    sweep position       loss vs obstacle position along the path
    sweep frequency      crossing curves at several carriers
    validate <spec>      schema-check a run spec
    inspect <dir>        summarize a scenario directory

A spec's removal floor acts on the run's outputs alone: the exported trace
and every SNR column but the baseline leave out the rays below it.

Exit codes: 0 ok, 2 config error, 3 trace format error, 4 numeric failure
(clamp event budget exceeded). Worker count comes from --workers, defaulting
to the available cores and never above them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffraction import MODEL_REGISTRY, LossModel, Obstruction, log_itu_se_out_of_regime
from .environment import SimulationConfig, run_model_sets
from .errors import ConfigError, NumericBudgetError, RayBlockError, TraceFormatError
from .linkeval import ArrayConfig, LinkBudget, snr_timeline
from .obstacles import (
    InteractionCounters,
    LinearMobility,
    Obstacle,
    OrthoScreenShape,
    PathSegments,
    ScreenShape,
    SphereShape,
    Static,
    WaypointMobility,
    obstacle_losses,
)
from .trace import (
    SPEED_OF_LIGHT,
    _format_columns,
    export_scenario,
    import_scenario,
    scenario_paths,
    write_text,
)


def _version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# Run specification (JSON schema; unknown keys rejected at every level)

@dataclass(frozen=True)
class SamplingSpec:
    time_step: float
    num_steps: int | None = None


@dataclass(frozen=True)
class RunSpec:
    scenario_dir: str
    output_dir: str
    obstacles: tuple[Obstacle, ...] = ()
    models_to_compare: tuple[str, ...] = ()
    link_budget: LinkBudget = LinkBudget()
    sampling: SamplingSpec | None = None
    removal_floor_db: float = -500.0
    max_clamp_events: int | None = None


def _object(value, context: str) -> dict:
    """A value the schema requires to be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: must be an object, got {value!r}")
    return value


def _check_keys(data: dict, allowed: tuple[str, ...], context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return data[key]


def _number(value, context: str) -> float:
    """Every number of a spec passes here: JSON admits NaN, Infinity and
    integers too large for a float, and Python counts true and false as
    integers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return number


def _string(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def _integer(value, context: str, minimum: int | None = None) -> int:
    """A spec number that must be integral (2.0 passes, 2.7 does not)."""
    number = _number(value, context)
    if not number.is_integer():
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{context}: expected an integer >= {minimum}, got {value!r}")
    return int(number)


def _vec3(value, context: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{context}: expected [x, y, z]")
    return tuple(_number(v, context) for v in value)


def _parse_shape(data: dict, context: str):
    kind = _require(_object(data, context), "kind", context)
    if kind == "ortho_screen":
        _check_keys(data, ("kind", "width", "height"), context)
        return OrthoScreenShape(width=_number(_require(data, "width", context), context),
                                height=_number(_require(data, "height", context), context))
    if kind == "screen":
        _check_keys(data, ("kind", "width", "height", "azimuth", "elevation"), context)
        return ScreenShape(width=_number(_require(data, "width", context), context),
                           height=_number(_require(data, "height", context), context),
                           azimuth=_number(data.get("azimuth", 0.0), context),
                           elevation=_number(data.get("elevation", 0.0), context))
    if kind == "sphere":
        _check_keys(data, ("kind", "radius"), context)
        return SphereShape(radius=_number(_require(data, "radius", context), context))
    raise ConfigError(f"{context}: unknown shape kind {kind!r}")


def _parse_mobility(data: dict, context: str):
    kind = _require(_object(data, context), "kind", context)
    if kind == "static":
        _check_keys(data, ("kind", "position"), context)
        return Static(position=_vec3(_require(data, "position", context), context))
    if kind == "linear":
        _check_keys(data, ("kind", "start", "velocity"), context)
        return LinearMobility(start=_vec3(_require(data, "start", context), context),
                              velocity=_vec3(_require(data, "velocity", context), context))
    if kind == "waypoints":
        _check_keys(data, ("kind", "waypoints"), context)
        points = _require(data, "waypoints", context)
        if not isinstance(points, list) or not points:
            raise ConfigError(f"{context}: waypoints must be a non-empty list")
        times = []
        coords = []
        for item in points:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigError(f"{context}: each waypoint is [time, [x, y, z]]")
            times.append(_number(item[0], context))
            coords.append(_vec3(item[1], context))
        return WaypointMobility(times=tuple(times), points=tuple(coords))
    raise ConfigError(f"{context}: unknown mobility kind {kind!r}")


def _parse_model(data: dict, context: str) -> LossModel:
    kind = _require(_object(data, context), "kind", context)
    if kind not in MODEL_REGISTRY:
        raise ConfigError(f"{context}: unknown model kind {kind!r}, "
                          f"expected one of {sorted(MODEL_REGISTRY)}")
    if kind == "obstruction":
        _check_keys(data, ("kind", "loss_db"), context)
        return Obstruction(loss_db=_number(data.get("loss_db", 10.0), context))
    _check_keys(data, ("kind",), context)
    return MODEL_REGISTRY[kind]()


def _parse_obstacle(data: dict, index: int) -> Obstacle:
    context = f"obstacles[{index}]"
    _check_keys(_object(data, context), ("shape", "mobility", "model", "threshold",
                                         "fallback", "fallback_loss_db"), context)
    threshold = data.get("threshold")
    fallback = data.get("fallback", False)
    if not isinstance(fallback, bool):
        raise ConfigError(f"{context}.fallback: expected true or false, got {fallback!r}")
    return Obstacle(
        shape=_parse_shape(_require(data, "shape", context), f"{context}.shape"),
        mobility=_parse_mobility(_require(data, "mobility", context), f"{context}.mobility"),
        model=_parse_model(_require(data, "model", context), f"{context}.model"),
        distance_threshold=None if threshold is None else _number(threshold, context),
        obstruction_fallback_for_secondary=fallback,
        fallback_loss_db=_number(data.get("fallback_loss_db", 10.0), context),
    )


def _parse_array(data: dict, context: str) -> ArrayConfig:
    _check_keys(_object(data, context), ("rows", "cols", "spacing"), context)
    return ArrayConfig(rows=_integer(_require(data, "rows", context), f"{context}.rows"),
                       cols=_integer(_require(data, "cols", context), f"{context}.cols"),
                       spacing=_number(data.get("spacing", 0.5), context))


def _parse_link_budget(data: dict, context: str) -> LinkBudget:
    _check_keys(_object(data, context), ("carrier_frequency_hz", "bandwidth_hz",
                                         "tx_power_dbm", "noise_figure_db", "tx_array",
                                         "rx_array"), context)
    defaults = LinkBudget()
    return LinkBudget(
        carrier_frequency_hz=_number(data.get("carrier_frequency_hz",
                                              defaults.carrier_frequency_hz), context),
        bandwidth_hz=_number(data.get("bandwidth_hz", defaults.bandwidth_hz), context),
        tx_power_dbm=_number(data.get("tx_power_dbm", defaults.tx_power_dbm), context),
        noise_figure_db=_number(data.get("noise_figure_db", defaults.noise_figure_db),
                                context),
        tx_array=_parse_array(data["tx_array"], f"{context}.tx_array")
        if "tx_array" in data else defaults.tx_array,
        rx_array=_parse_array(data["rx_array"], f"{context}.rx_array")
        if "rx_array" in data else defaults.rx_array,
    )


def _check_model_names(models, context: str) -> None:
    for m in models:
        if not isinstance(m, str) or m not in MODEL_REGISTRY:
            raise ConfigError(f"{context} contains unknown model {m!r}")
    repeated = sorted({m for m in models if models.count(m) > 1})
    if repeated:
        raise ConfigError(f"{context} lists {repeated} more than once")


def parse_run_spec(data: dict) -> RunSpec:
    _check_keys(_object(data, "spec"), ("scenario_dir", "output_dir", "obstacles",
                                        "models_to_compare", "link_budget", "sampling",
                                        "removal_floor_db", "max_clamp_events"), "spec")
    obstacles = data.get("obstacles", [])
    if not isinstance(obstacles, list):
        raise ConfigError("spec: obstacles must be a list")
    models = data.get("models_to_compare", [])
    if not isinstance(models, list):
        raise ConfigError("spec: models_to_compare must be a list")
    _check_model_names(models, "spec: models_to_compare")
    sampling = None
    if data.get("sampling") is not None:
        sdata = _object(data["sampling"], "spec.sampling")
        _check_keys(sdata, ("time_step", "num_steps"), "spec.sampling")
        sampling = SamplingSpec(
            time_step=_number(_require(sdata, "time_step", "spec.sampling"), "spec.sampling"),
            num_steps=None if sdata.get("num_steps") is None
            else _integer(sdata["num_steps"], "spec.sampling.num_steps", minimum=1),
        )
        if sampling.time_step <= 0:
            raise ConfigError("spec.sampling: time_step must be positive")
    max_clamp = data.get("max_clamp_events")
    try:
        spec = RunSpec(
            scenario_dir=_string(_require(data, "scenario_dir", "spec"), "spec.scenario_dir"),
            output_dir=_string(_require(data, "output_dir", "spec"), "spec.output_dir"),
            obstacles=tuple(_parse_obstacle(o, i) for i, o in enumerate(obstacles)),
            models_to_compare=tuple(models),
            link_budget=_parse_link_budget(data.get("link_budget", {}), "spec.link_budget"),
            sampling=sampling,
            removal_floor_db=_number(data.get("removal_floor_db", -500.0), "spec"),
            max_clamp_events=None if max_clamp is None
            else _integer(max_clamp, "spec.max_clamp_events", minimum=0),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec: {exc}") from None
    # swap the models here, so validate rejects what run would (Obstacle's rules)
    for name in spec.models_to_compare:
        for i, obstacle in enumerate(spec.obstacles):
            try:
                _override_model(obstacle, name)
            except ConfigError as exc:
                raise ConfigError(f"spec: models_to_compare {name!r} "
                                  f"cannot model obstacles[{i}]: {exc}") from None
    return spec


def _override_model(obstacle: Obstacle, name: str) -> Obstacle:
    """The obstacle with its model swapped for the named compared model;
    Obstacle rejects a pair it cannot model (a tilted screen with metis)."""
    if isinstance(obstacle.shape, SphereShape):
        return obstacle  # spheres only ever obstruct
    if name == "obstruction":
        model = obstacle.model if isinstance(obstacle.model, Obstruction) else Obstruction(10.0)
    else:
        model = MODEL_REGISTRY[name]()
    return dataclasses.replace(obstacle, model=model)


def load_run_spec(path) -> RunSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: spec is not UTF-8 text (byte {exc.start}: "
                          f"{exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_run_spec(data)


# ---------------------------------------------------------------------------
# Analytic sweeps (single direct ray, loss normalized out of the received power)

DEFAULT_SWEEP_MODELS = tuple(MODEL_REGISTRY)
MAX_SWEEP_POINTS = 1_000_000  # offsets or positions of one sweep


@dataclass(frozen=True)
class SweepGeometry:
    frequency_hz: float = 60e9
    distance_m: float = 8.0
    node_height_m: float = 1.6
    screen_width_m: float = 0.2
    screen_height_m: float = 1.7
    obstruction_db: float = 10.0

    def __post_init__(self):
        # lengths and the carrier must be positive; the obstruction loss may be 0 dB
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            positive = field.name != "obstruction_db"
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                raise ConfigError(f"sweep {field.name} must be finite and "
                                  f"{'positive' if positive else 'non-negative'}, got {value}")


def _sweep_losses(geom: SweepGeometry, centers: np.ndarray, names: tuple[str, ...],
                  wavelength: float) -> list[tuple[np.ndarray, np.ndarray, InteractionCounters]]:
    """Loss and blocked flag of the screen at each of centers (n, 3) against
    the direct path, with their counts, one triple per named model, from one
    table with no range gating: sweeps plot the raw model."""
    if not names:
        raise ConfigError("a sweep needs at least one model")
    models = [Obstruction(geom.obstruction_db) if name == "obstruction"
              else MODEL_REGISTRY[name]() for name in names]
    obstacle = Obstacle(
        shape=OrthoScreenShape(width=geom.screen_width_m, height=geom.screen_height_m),
        mobility=Static(position=(0.0, 0.0, 0.0)),  # the table gives the centers
        model=Obstruction(geom.obstruction_db),     # not read: obstacle_losses takes models
    )
    n = centers.shape[0]
    segments = PathSegments(
        starts=np.tile([0.0, 0.0, geom.node_height_m], (n, 1)),
        ends=np.tile([geom.distance_m, 0.0, geom.node_height_m], (n, 1)),
        step=np.arange(n), slot=np.arange(n), primary=np.ones(n, dtype=bool),
        thresholds=np.full(n, np.inf), num_slots=n)
    outcomes = obstacle_losses(obstacle, models, centers, segments, wavelength)
    for _, _, counts in outcomes:
        log_itu_se_out_of_regime(counts.out_of_regime, wavelength)
    return outcomes


def run_crossing_sweep(geom: SweepGeometry = SweepGeometry(),
                       offsets: np.ndarray | None = None,
                       models: tuple[str, ...] = DEFAULT_SWEEP_MODELS) -> dict:
    """Loss curves while the screen crosses the path laterally at midspan.

    The blocked column is the last model's (every model blocks alike but on
    its own degenerate rows)."""
    if offsets is None:
        offsets = -1.5 + 0.004 * np.arange(751)
    wavelength = SPEED_OF_LIGHT / geom.frequency_hz
    offsets = np.asarray(offsets, dtype=np.float64)
    centers = np.stack([np.full(len(offsets), 0.5 * geom.distance_m), offsets,
                        np.full(len(offsets), 0.5 * geom.screen_height_m)], axis=1)
    columns: dict = {"offset_m": offsets}
    outcomes = _sweep_losses(geom, centers, models, wavelength)
    for name, (losses, *_) in zip(models, outcomes):
        columns[f"loss_db_{name}"] = losses
    columns["blocked"] = outcomes[-1][1].astype(np.int64)
    return columns


def run_position_sweep(geom: SweepGeometry = SweepGeometry(), samples: int = 101,
                       margin_m: float = 0.25,
                       models: tuple[str, ...] = DEFAULT_SWEEP_MODELS) -> dict:
    """Loss curves while the screen slides along the path, always blocking it."""
    if samples < 3 or samples % 2 == 0:
        raise ConfigError("position sweep needs an odd sample count >= 3 "
                          "so the midpoint is sampled exactly")
    if samples > MAX_SWEEP_POINTS:
        raise ConfigError(f"position sweep takes at most {MAX_SWEEP_POINTS} samples")
    if not 0 < margin_m < 0.5 * geom.distance_m:
        raise ConfigError("margin must lie inside the path")
    positions = np.linspace(margin_m, geom.distance_m - margin_m, samples)
    wavelength = SPEED_OF_LIGHT / geom.frequency_hz
    centers = np.stack([positions, np.zeros(samples),
                        np.full(samples, 0.5 * geom.screen_height_m)], axis=1)
    columns: dict = {"position_m": positions}
    for name, (losses, *_) in zip(models, _sweep_losses(geom, centers, models, wavelength)):
        columns[f"loss_db_{name}"] = losses
    return columns


def run_frequency_sweep(geom: SweepGeometry = SweepGeometry(),
                        frequencies_hz: tuple[float, ...] = (10e9, 30e9, 60e9, 100e9),
                        offsets: np.ndarray | None = None,
                        models: tuple[str, ...] = DEFAULT_SWEEP_MODELS) -> dict:
    """Crossing curves per carrier; rows are (frequency, offset) pairs."""
    tables = []
    for f in frequencies_hz:
        table = run_crossing_sweep(dataclasses.replace(geom, frequency_hz=float(f)),
                                   offsets=offsets, models=models)
        table["frequency_ghz"] = np.full(len(table["offset_m"]), f / 1e9)
        tables.append(table)
    keys = ["frequency_ghz", "offset_m"] + [f"loss_db_{m}" for m in models] + ["blocked"]
    return {key: np.concatenate([t[key] for t in tables]) for key in keys}


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray],
               fmts: list[str]) -> None:
    """A header line, then one line per row of the equally long columns,
    column i printed with fmts[i]."""
    lines = [",".join(header)]
    if len(columns[0]):
        lines.append(_format_columns([column.tolist() for column in columns], fmts))
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, "\n".join(lines) + "\n")


def _write_sweep_csv(path: Path, columns: dict) -> None:
    """The sweep's columns in their dict order; + 0.0 prints a -0.0 loss as 0.000000."""
    _write_csv(path, list(columns), [column if key == "blocked" else column + 0.0
                                     for key, column in columns.items()],
               ["%d" if key == "blocked" else "%.6f" for key in columns])


def _check_output_path(path: Path, is_dir: bool, context: str) -> None:
    """Reject, before any work, an output path that exists as the other kind
    (a file or a directory) or whose nearest existing parent is not a directory."""
    parent = next((p for p in path.parents if p.exists()), Path("."))
    if (path.exists() and path.is_dir() != is_dir) or not parent.is_dir():
        raise ConfigError(f"{context} {str(path)!r} cannot be written as a "
                          f"{'directory' if is_dir else 'file'}")


# ---------------------------------------------------------------------------
# run command

def _tree_files(top: str, parts: tuple[str, ...] = (), skip: tuple[str, ...] | None = None):
    """Path parts, relative to top, of every file under it, as Path.rglob
    finds them: symlinked directories are not entered, nor is the
    directory whose parts are skip."""
    with os.scandir(os.path.join(top, *parts)) as entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                if (*parts, entry.name) != skip:
                    yield from _tree_files(top, (*parts, entry.name), skip)
            elif entry.is_file():
                yield (*parts, entry.name)


def _sha256_tree(root: Path, skip: Path | None = None) -> str:
    """sha256 of each file's relative path, a NUL and its bytes, in path order.

    Paths sort part by part, as Path objects do ("a/b" before "a-b"). A
    skip directory strictly under root is left out of the walk.
    """
    skip_parts = None
    if skip is not None and skip.resolve().is_relative_to(root.resolve()):
        skip_parts = skip.resolve().relative_to(root.resolve()).parts
    h = hashlib.sha256()
    for parts in sorted(_tree_files(str(root), skip=skip_parts)):
        rel = os.path.join(*parts)
        h.update(rel.encode())
        h.update(b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cmd_run(spec: RunSpec, spec_path: Path, workers: int | None) -> int:
    scenario_dir = Path(spec.scenario_dir)
    output_dir = Path(spec.output_dir)
    if scenario_dir.resolve() in (output_dir.resolve(), (output_dir / "trace").resolve()):
        # the outputs would land in the tree the manifest hashes as the
        # input, or the exported trace would overwrite it
        raise ConfigError(f"output_dir {str(output_dir)!r} is the scenario directory or holds "
                          f"it as trace/; choose another directory (one nested in the "
                          f"scenario is fine)")
    _check_output_path(output_dir, True, "output_dir")
    # and so must every output in it, the directories and files the export
    # writes included
    _check_output_path(output_dir / "trace", True, "output")
    *trace_dirs, time_step_file = scenario_paths(output_dir / "trace")
    for trace_dir in trace_dirs:
        _check_output_path(Path(trace_dir), True, "output")
    _check_output_path(Path(time_step_file), False, "output")
    loss_names = [f"loss_timeline_{name}.csv" for name in spec.models_to_compare]
    for name in ["snr_timeline.csv", "manifest.json"] + loss_names:
        _check_output_path(output_dir / name, False, "output")
    trace = import_scenario(scenario_dir)
    if spec.sampling is not None:
        if (spec.sampling.num_steps is not None
                and spec.sampling.num_steps != trace.num_steps):
            raise ConfigError(
                f"spec.sampling declares {spec.sampling.num_steps} steps but the "
                f"trace has {trace.num_steps}")
    # the manifest hashes the input alone: before any output exists, and
    # without an output directory nested in the scenario
    spec_sha256 = hashlib.sha256(spec_path.read_bytes()).hexdigest()
    trace_sha256 = _sha256_tree(scenario_dir, skip=output_dir)
    cfg = SimulationConfig(
        obstacles=spec.obstacles,
        time_step=None if spec.sampling is None else spec.sampling.time_step,
        carrier_frequency_hz=spec.link_budget.carrier_frequency_hz,
    )

    # one model set per run, in one pass: set 0 is the configured run, then
    # one set per compared model; each pair gets one gain row per set
    model_sets = [tuple(o.model for o in spec.obstacles)]
    model_sets += [tuple(_override_model(o, name).model for o in spec.obstacles)
                   for name in spec.models_to_compare]
    gains, counters = run_model_sets(trace, cfg, model_sets, workers=workers)

    # the removal floor acts here alone: every SNR column but the baseline
    # reads the rays below it as -inf, one link evaluation per pair
    floor = spec.removal_floor_db
    pairs = sorted(trace.pairs)
    snr = {}
    for pair in pairs:
        floored = np.where(gains[pair] >= floor, gains[pair], -math.inf)
        snr[pair] = snr_timeline(trace, pair, spec.link_budget,
                                 [trace.pairs[pair].gain, *floored])

    output_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = output_dir / "trace"
    export_scenario(trace.with_gains({pair: set_gains[0] for pair, set_gains in gains.items()}),
                    trace_dir, drop_below_db=floor)

    # every pair's rows, pair after pair, as columns
    def stacked(column: int) -> np.ndarray:
        return np.concatenate([snr[pair][:, column] for pair in pairs])

    ids = [np.repeat([pair[i] for pair in pairs], trace.num_steps) for i in (0, 1)]
    times, baseline = stacked(0), stacked(1)
    columns = [stacked(2 + i) for i in range(len(model_sets))]
    _write_csv(output_dir / "snr_timeline.csv",
               ["tx_id", "rx_id", "t_seconds", "snr_db_baseline", "snr_db"]
               + [f"snr_db_{name}" for name in spec.models_to_compare],
               [*ids, times, baseline, *columns],
               ["%d", "%d", "%.9g"] + ["%.6f"] * (1 + len(model_sets)))

    for name, column in zip(loss_names, columns[1:]):
        _write_csv(output_dir / name, ["tx_id", "rx_id", "t_seconds", "loss_db"],
                   [*ids, times, baseline - column], ["%d", "%d", "%.9g", "%.6f"])

    manifest = {
        "tool_version": _version(),
        "spec_sha256": spec_sha256,
        "trace_sha256": trace_sha256,
        "outputs": sorted(["snr_timeline.csv", "trace"] + loss_names),
    }
    write_text(output_dir / "manifest.json",
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    # rays describe the configured run; clamp events and interactions sum
    # every run, the compared models' included
    c = InteractionCounters()
    for run_counters in counters:
        c.merge(run_counters)
    clamp_events = c.clamp_events
    rays_in = sum(len(table) for table in trace.pairs.values())
    dropped = sum(int(np.count_nonzero(set_gains[0] < floor)) for set_gains in gains.values())
    print(f"pairs: {len(pairs)}")
    print(f"steps: {trace.num_steps}")
    print(f"rays: {rays_in} in, {dropped} dropped")
    print(f"clamp events: {clamp_events}")
    print(f"interactions: {c.diffraction_evals} diffraction, "
          f"{c.obstruction_evals} obstruction, {c.far_skips} skipped far, "
          f"{c.degenerate_skips} degenerate")
    print(f"outputs: {output_dir}")

    if spec.max_clamp_events is not None and clamp_events > spec.max_clamp_events:
        raise NumericBudgetError(
            f"{clamp_events} clamp events exceed the budget of {spec.max_clamp_events}")
    return 0


def cmd_inspect(scenario_dir: Path) -> int:
    trace = import_scenario(scenario_dir)
    print(f"scenario: {scenario_dir}")
    print(f"nodes: {len(trace.node_positions)}")
    print(f"pairs: {len(trace.pairs)}")
    print(f"steps: {trace.num_steps} at {trace.time_step:.9g} s")
    for pair in sorted(trace.pairs):
        counts = trace.pairs[pair].counts
        print(f"  Tx{pair[0]}Rx{pair[1]}: rays per step "
              f"min {counts.min()}, max {counts.max()}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayblock",
        description="Post-process ray-traced channel traces with mobile obstacles "
                    "and diffraction loss models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario described by a JSON spec")
    p_run.add_argument("spec", type=Path)
    p_run.add_argument("--output-dir", type=Path, help="override spec output_dir")
    p_run.add_argument("--workers", type=int,
                       help="worker processes (default and upper bound: the available cores)")

    p_sweep = sub.add_parser("sweep", help="analytic single-ray model comparisons")
    p_sweep.add_argument("kind", choices=("crossing", "position", "frequency"))
    p_sweep.add_argument("-o", "--output", type=Path, required=True, help="CSV destination")
    p_sweep.add_argument("--frequency-ghz", type=float, default=60.0)
    p_sweep.add_argument("--frequencies-ghz", type=str, default="10,30,60,100",
                         help="comma list, frequency sweep only")
    p_sweep.add_argument("--distance", type=float, default=8.0, help="node separation, m")
    p_sweep.add_argument("--height", type=float, default=1.6, help="node height, m")
    p_sweep.add_argument("--screen-width", type=float, default=0.2)
    p_sweep.add_argument("--screen-height", type=float, default=1.7)
    p_sweep.add_argument("--obstruction-db", type=float, default=10.0)
    p_sweep.add_argument("--span", type=float, default=1.5, help="lateral half-span, m")
    p_sweep.add_argument("--step", type=float, default=0.004, help="lateral step, m")
    p_sweep.add_argument("--samples", type=int, default=101, help="position sweep samples")
    p_sweep.add_argument("--margin", type=float, default=0.25,
                         help="position sweep distance from the nodes, m")
    p_sweep.add_argument("--models", type=str, default=",".join(DEFAULT_SWEEP_MODELS))

    p_val = sub.add_parser("validate", help="schema-check a run spec")
    p_val.add_argument("spec", type=Path)

    p_ins = sub.add_parser("inspect", help="summarize a scenario directory")
    p_ins.add_argument("scenario_dir", type=Path)

    return parser


def _sweep_offsets(span: float, step: float) -> np.ndarray:
    if not (math.isfinite(span) and math.isfinite(step) and span > 0 and step > 0):
        raise ConfigError(f"--span and --step must be finite and positive, got {span} and {step}")
    intervals = 2.0 * span / step
    if not intervals < MAX_SWEEP_POINTS:
        raise ConfigError(f"--span and --step give more than {MAX_SWEEP_POINTS} offsets")
    n = int(round(intervals)) + 1
    return -span + step * np.arange(n)


def _dispatch(args) -> int:
    if args.command == "run":
        spec = load_run_spec(args.spec)
        if args.output_dir is not None:
            spec = dataclasses.replace(spec, output_dir=str(args.output_dir))
        return cmd_run(spec, args.spec, args.workers)

    if args.command == "sweep":
        models = tuple(m.strip() for m in args.models.split(",") if m.strip())
        _check_model_names(models, "--models")
        _check_output_path(args.output, False, "--output")
        geom = SweepGeometry(
            frequency_hz=args.frequency_ghz * 1e9,
            distance_m=args.distance,
            node_height_m=args.height,
            screen_width_m=args.screen_width,
            screen_height_m=args.screen_height,
            obstruction_db=args.obstruction_db,
        )
        if args.kind == "crossing":
            columns = run_crossing_sweep(geom, _sweep_offsets(args.span, args.step), models)
        elif args.kind == "position":
            columns = run_position_sweep(geom, args.samples, args.margin, models)
        else:
            try:
                freqs = tuple(float(f) * 1e9 for f in args.frequencies_ghz.split(","))
            except ValueError:
                raise ConfigError(f"--frequencies-ghz: expected a comma list of numbers, "
                                  f"got {args.frequencies_ghz!r}") from None
            columns = run_frequency_sweep(geom, freqs,
                                          _sweep_offsets(args.span, args.step), models)
        _write_sweep_csv(args.output, columns)
        print(f"wrote {args.output}")
        return 0

    if args.command == "validate":
        load_run_spec(args.spec)
        print(f"{args.spec}: ok")
        return 0

    if args.command == "inspect":
        return cmd_inspect(args.scenario_dir)

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: config-error: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"error: trace-format-error: {exc}", file=sys.stderr)
        return 3
    except NumericBudgetError as exc:
        print(f"error: numeric-failure: {exc}", file=sys.stderr)
        return 4
    except RayBlockError as exc:
        print(f"error: config-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

    def __post_init__(self):
        if not self.time_step > 0:
            raise ConfigError("time_step must be positive")


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


def _typed(kind: type, noun: str):
    """The check of a value of one JSON type."""
    def check(value, context: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{context}: expected {noun}, got {value!r}")
        return value
    return check


_list, _string, _boolean = (_typed(list, "a list"), _typed(str, "a string"),
                            _typed(bool, "true or false"))


def _integer(minimum: int):
    """The check of a spec count: integral (2.0 passes, 2.7 does not), >= minimum."""
    def check(value, context: str) -> int:
        number = _number(value, context)
        if not (number.is_integer() and number >= minimum):
            raise ConfigError(f"{context}: expected an integer >= {minimum}, got {value!r}")
        return int(number)
    return check


def _vec3(value, context: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{context}: expected [x, y, z], got {value!r}")
    return tuple(_number(v, f"{context}[{i}]") for i, v in enumerate(value))


def _waypoints(value, context: str) -> tuple[tuple, tuple]:
    """The times and the points of a list of [time, [x, y, z]]."""
    for i, item in enumerate(_list(value, context)):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{context}[{i}]: expected [time, [x, y, z]], got {item!r}")
    return (tuple(_number(t, f"{context}[{i}][0]") for i, (t, _) in enumerate(value)),
            tuple(_vec3(p, f"{context}[{i}][1]") for i, (_, p) in enumerate(value)))


def _model_names(value, context: str) -> tuple[str, ...]:
    """Distinct registered model names: a spec's models_to_compare, a sweep's --models."""
    for name in _list(value, context):
        if not isinstance(name, str) or name not in MODEL_REGISTRY:
            raise ConfigError(f"{context}: unknown model {name!r}, "
                              f"expected one of {sorted(MODEL_REGISTRY)}")
    repeated = sorted({name for name in value if value.count(name) > 1})
    if repeated:
        raise ConfigError(f"{context}: lists {repeated} more than once")
    return tuple(value)


def _build(build, data, context: str, keys: dict):
    """The spec object data at context, built by the dataclass build.

    keys maps each allowed key to (parameter, check), or to a tuple of
    parameters whose values its check returns. A parameter without a
    default is a required key, a missing key keeps build's default, and
    null stands for a default of None. Each check gets its value's place,
    and an error of build's own rules is prefixed with the object's.
    """
    unknown = sorted(set(_object(data, context)) - set(keys))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    defaults = {field.name: field.default for field in dataclasses.fields(build)}
    values = {}
    for key, (parameter, check) in keys.items():
        names = parameter if isinstance(parameter, tuple) else (parameter,)
        default = defaults[names[0]]
        if key not in data:
            if default is dataclasses.MISSING:
                raise ConfigError(f"{context}: missing required key {key!r}")
        elif data[key] is not None or default is not None:
            value = check(data[key], f"{context}.{key}")
            values.update(zip(names, value if isinstance(parameter, tuple) else (value,)))
    try:
        return build(**values)
    except RayBlockError as exc:  # Obstruction raises GeometryError
        raise ConfigError(f"{context}: {exc}") from None


def _nested(build, keys: dict):
    """The check of an object read by _build."""
    return lambda data, context: _build(build, data, context, keys)


def _kind(noun: str, kinds: dict):
    """The check of an object whose "kind" picks its (build, keys) among kinds."""
    def check(data, context: str):
        if "kind" not in _object(data, context):
            raise ConfigError(f"{context}: missing required key 'kind'")
        kind = data["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{context}: unknown {noun} kind {kind!r}, "
                              f"expected one of {sorted(kinds)}")
        build, keys = kinds[kind]
        return _build(build, {k: v for k, v in data.items() if k != "kind"}, context, keys)
    return check


def _same(check, *keys: str) -> dict:
    """Keys that fill the parameters of their own names."""
    return {key: (key, check) for key in keys}


_OBSTACLE = {
    "shape": ("shape", _kind("shape", {
        "ortho_screen": (OrthoScreenShape, _same(_number, "width", "height")),
        "screen": (ScreenShape, _same(_number, "width", "height", "azimuth", "elevation")),
        "sphere": (SphereShape, _same(_number, "radius")),
    })),
    "mobility": ("mobility", _kind("mobility", {
        "static": (Static, _same(_vec3, "position")),
        "linear": (LinearMobility, _same(_vec3, "start", "velocity")),
        "waypoints": (WaypointMobility, {"waypoints": (("times", "points"), _waypoints)}),
    })),
    # every model field is a number (obstruction's loss_db)
    "model": ("model", _kind("model", {
        name: (model, _same(_number, *(field.name for field in dataclasses.fields(model))))
        for name, model in MODEL_REGISTRY.items()})),
    "threshold": ("distance_threshold", _number),
    "fallback": ("obstruction_fallback_for_secondary", _boolean),
    **_same(_number, "fallback_loss_db"),
}


def _obstacles(value, context: str) -> tuple[Obstacle, ...]:
    return tuple(_build(Obstacle, item, f"{context}[{i}]", _OBSTACLE)
                 for i, item in enumerate(_list(value, context)))


_RUN_SPEC = {
    **_same(_string, "scenario_dir", "output_dir"),
    "obstacles": ("obstacles", _obstacles),
    "models_to_compare": ("models_to_compare", _model_names),
    "link_budget": ("link_budget", _nested(LinkBudget, {
        **_same(_number, "carrier_frequency_hz", "bandwidth_hz", "tx_power_dbm",
                "noise_figure_db"),
        **_same(_nested(ArrayConfig, {**_same(_integer(1), "rows", "cols"),
                                      **_same(_number, "spacing")}), "tx_array", "rx_array"),
    })),
    "sampling": ("sampling", _nested(SamplingSpec, {**_same(_number, "time_step"),
                                                     **_same(_integer(1), "num_steps")})),
    "removal_floor_db": ("removal_floor_db", _number),
    "max_clamp_events": ("max_clamp_events", _integer(0)),
}


def parse_run_spec(data: dict) -> RunSpec:
    spec = _build(RunSpec, data, "spec", _RUN_SPEC)
    _model_sets(spec)  # so validate rejects what run would
    return spec


def _model(name: str, loss_db: float) -> LossModel:
    """The registered loss model of a name; only obstruction reads loss_db."""
    model = MODEL_REGISTRY[name]
    return model(loss_db) if model is Obstruction else model()


def _model_sets(spec: RunSpec) -> list[tuple[LossModel, ...]]:
    """Set 0 holds the configured models, then one set per compared model:
    spheres and, under obstruction, obstruction obstacles keep their own;
    any other obstacle takes the compared model (obstruction at 10 dB), if
    Obstacle accepts the pair (metis rejects a tilted screen)."""
    sets = [tuple(o.model for o in spec.obstacles)]
    for name in spec.models_to_compare:
        compared = _model(name, 10.0)
        models = []
        for i, o in enumerate(spec.obstacles):
            keep = isinstance(o.shape, SphereShape) or (isinstance(compared, Obstruction)
                                                        and isinstance(o.model, Obstruction))
            try:
                models.append(o.model if keep else dataclasses.replace(o, model=compared).model)
            except ConfigError as exc:
                raise ConfigError(f"spec: models_to_compare {name!r} "
                                  f"cannot model obstacles[{i}]: {exc}") from None
        sets.append(tuple(models))
    return sets


def load_run_spec(path) -> tuple[RunSpec, bytes]:
    """The spec in the file, and the bytes it was parsed from: one read, so a
    piped spec (/dev/stdin) parses and hashes the same bytes."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        data = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: spec is not UTF-8 text (byte {exc.start}: "
                          f"{exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_run_spec(data), raw


# ---------------------------------------------------------------------------
# Analytic sweeps (single direct ray, loss normalized out of the received power)

DEFAULT_SWEEP_MODELS = tuple(MODEL_REGISTRY)
MAX_SWEEP_POINTS = 1_000_000  # rows of one sweep


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


def _sweep_offsets(span: float, step: float) -> np.ndarray:
    if not (math.isfinite(span) and math.isfinite(step) and span > 0 and step > 0):
        raise ConfigError(f"--span and --step must be finite and positive, got {span} and {step}")
    intervals = 2.0 * span / step
    if not intervals < MAX_SWEEP_POINTS - 0.5:  # so the rounded count + 1 is in bounds
        raise ConfigError(f"--span and --step give more than {MAX_SWEEP_POINTS} offsets")
    return -span + step * np.arange(int(round(intervals)) + 1)


def _sweep_losses(geom: SweepGeometry, centers: np.ndarray, names: tuple[str, ...],
                  wavelength: float) -> list[tuple[np.ndarray, np.ndarray, InteractionCounters]]:
    """Loss and blocked flag of the screen at each of centers (n, 3) against
    the direct path, with their counts, one triple per named model, from one
    table with no range gating: sweeps plot the raw model."""
    if not names:
        raise ConfigError("a sweep needs at least one model")
    models = [_model(name, geom.obstruction_db) for name in names]
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
    offsets = _sweep_offsets(1.5, 0.004) if offsets is None else np.asarray(offsets, float)
    wavelength = SPEED_OF_LIGHT / geom.frequency_hz
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
    """Crossing curves per carrier; rows are (frequency, offset) pairs. Every
    carrier and the row count are checked before the first crossing."""
    geoms = [dataclasses.replace(geom, frequency_hz=float(f)) for f in frequencies_hz]
    offsets = _sweep_offsets(1.5, 0.004) if offsets is None else np.asarray(offsets, float)
    if len(geoms) * len(offsets) > MAX_SWEEP_POINTS:
        raise ConfigError(f"a frequency sweep writes at most {MAX_SWEEP_POINTS} rows, "
                          f"got {len(geoms)} frequencies x {len(offsets)} offsets")
    tables = [run_crossing_sweep(g, offsets, models) for g in geoms]
    keys = ["offset_m"] + [f"loss_db_{m}" for m in models] + ["blocked"]
    return {"frequency_ghz": np.repeat([g.frequency_hz / 1e9 for g in geoms], len(offsets)),
            **{key: np.concatenate([t[key] for t in tables]) for key in keys}}


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


def _sha256_tree(root: Path, skip: Path | None = None,
                 texts: dict[str, str] | None = None) -> str:
    """sha256 of each file's relative path, a NUL and its bytes, in path order.

    Paths sort part by part, as Path objects do ("a/b" before "a-b"). A
    skip directory strictly under root is left out of the walk. A file whose
    path (as root / its relative path prints) is in texts is hashed from
    that text, the UTF-8 text an import read from it: strict UTF-8 decoding
    loses nothing, so its bytes are the file's. Every other file is read.
    """
    skip_parts = None
    if skip is not None and skip.resolve().is_relative_to(root.resolve()):
        skip_parts = skip.resolve().relative_to(root.resolve()).parts
    prefix = str(root / "_")[:-1]  # root / rel prints as prefix + rel, without a Path per file
    h = hashlib.sha256()
    for parts in sorted(_tree_files(str(root), skip=skip_parts)):
        rel = os.path.join(*parts)
        h.update(rel.encode())
        h.update(b"\0")
        text = texts.get(prefix + rel) if texts else None
        if text is None:
            with open(prefix + rel, "rb") as f:
                h.update(f.read())
        else:
            h.update(text.encode())
    return h.hexdigest()


def cmd_run(spec: RunSpec, spec_sha256: str, workers: int | None) -> int:
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
    trace, texts = import_scenario(scenario_dir, return_texts=True)
    declared = None if spec.sampling is None else spec.sampling.num_steps
    if declared is not None and declared != trace.num_steps:
        raise ConfigError(f"spec.sampling declares {declared} steps but the trace has "
                          f"{trace.num_steps}")
    # the manifest hashes the input alone: before any output exists, and
    # without an output directory nested in the scenario; the files the
    # import parsed are hashed from their text, and the text then dropped
    trace_sha256 = _sha256_tree(scenario_dir, skip=output_dir, texts=texts)
    del texts
    cfg = SimulationConfig(
        obstacles=spec.obstacles,
        time_step=None if spec.sampling is None else spec.sampling.time_step,
        carrier_frequency_hz=spec.link_budget.carrier_frequency_hz,
    )

    # every model set in one pass; each pair gets one gain row per set
    model_sets = _model_sets(spec)
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

    shared = argparse.ArgumentParser(add_help=False)  # the flags every sweep kind reads
    shared.add_argument("-o", "--output", type=Path, required=True, help="CSV destination")
    shared.add_argument("--distance", type=float, default=8.0, help="node separation, m")
    shared.add_argument("--height", type=float, default=1.6, help="node height, m")
    shared.add_argument("--screen-width", type=float, default=0.2)
    shared.add_argument("--screen-height", type=float, default=1.7)
    shared.add_argument("--obstruction-db", type=float, default=10.0)
    shared.add_argument("--models", default=",".join(DEFAULT_SWEEP_MODELS))
    p_sweep = sub.add_parser("sweep", help="analytic single-ray model comparisons")
    kinds = p_sweep.add_subparsers(dest="kind", required=True)
    crossing, position, frequency = (kinds.add_parser(kind, parents=[shared])
                                     for kind in ("crossing", "position", "frequency"))
    for p_kind in (crossing, position):
        p_kind.add_argument("--frequency-ghz", type=float, default=60.0)
    frequency.add_argument("--frequencies-ghz", default="10,30,60,100", help="comma list")
    for p_kind in (crossing, frequency):
        p_kind.add_argument("--span", type=float, default=1.5, help="lateral half-span, m")
        p_kind.add_argument("--step", type=float, default=0.004, help="lateral step, m")
    position.add_argument("--samples", type=int, default=101, help="positions along the path")
    position.add_argument("--margin", type=float, default=0.25, help="distance from the nodes, m")

    p_val = sub.add_parser("validate", help="schema-check a run spec")
    p_val.add_argument("spec", type=Path)

    p_ins = sub.add_parser("inspect", help="summarize a scenario directory")
    p_ins.add_argument("scenario_dir", type=Path)

    return parser


def _dispatch(args) -> int:
    if args.command == "run":
        spec, raw = load_run_spec(args.spec)
        if args.output_dir is not None:
            spec = dataclasses.replace(spec, output_dir=str(args.output_dir))
        return cmd_run(spec, hashlib.sha256(raw).hexdigest(), args.workers)

    if args.command == "sweep":
        models = _model_names([m.strip() for m in args.models.split(",") if m.strip()],
                              "--models")
        _check_output_path(args.output, False, "--output")
        geom = SweepGeometry(distance_m=args.distance, node_height_m=args.height,
                             screen_width_m=args.screen_width, screen_height_m=args.screen_height,
                             obstruction_db=args.obstruction_db)
        if args.kind != "frequency":
            geom = dataclasses.replace(geom, frequency_hz=args.frequency_ghz * 1e9)
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
            offsets = _sweep_offsets(args.span, args.step)
            columns = run_frequency_sweep(geom, freqs, offsets, models)
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

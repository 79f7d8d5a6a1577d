"""Channel trace data model and directory import/export.

The on-disk layout follows the output tree of the open-source qd-realization
ray tracer, pinned here and by the fixtures in tests/:

    Output/Ns3/QdFiles/Tx<i>Rx<j>.txt
        Repeated per-timestep blocks. Line 1: integer ray count N. If N > 0,
        seven comma-separated rows of N values each follow, in order:
        delay (s), path gain (dB), phase (rad), AoD elevation (deg),
        AoD azimuth (deg), AoA elevation (deg), AoA azimuth (deg).
    Output/Visualizer/MpcCoordinates/MpcTx<i>Rx<j>Refl<k>Trc<t>.csv
        One row per ray of reflection order k at timestep t; each row is the
        flattened x,y,z vertex list (tx first, rx last).
    Output/Visualizer/NodePositions/NodePositionsTx<i>.csv (and Rx<j>)
        One x,y,z row per timestep.

Within one timestep the ray order is: reflection orders ascending, then row
order inside each coordinate file; the QdFiles columns list the same rays in
the same order. Angles are stored in degrees on disk; import reads only the
delays, gains and phases, and export recomputes the angles from the vertex
paths. In memory each pair's rays are one RayTable, in that order.
An auxiliary Output/Ns3/TimeStep.txt records the sampling period; readers of
the original format ignore it, and import falls back to 1.0 s without it.

Every trace file passes through one reader and one writer: read_text reads
a file's bytes in one call and decodes them as UTF-8, and write_text writes
a file's UTF-8 bytes. A file that is not UTF-8, or that cannot be read
(a directory in its place), raises TraceFormatError (exit 3 on the command
line), naming the file; one that cannot be written raises ConfigError (exit
2). Line ends may be LF, CRLF or CR.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, GeometryError, TraceFormatError

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299792458.0

_QD_FILE_RE = re.compile(r"^Tx(\d+)Rx(\d+)\.txt$")
_MPC_FILE_RE = re.compile(r"^MpcTx(\d+)Rx(\d+)Refl(\d+)Trc(\d+)\.csv$")
_NODE_FILE_RE = re.compile(r"^NodePositions(?:Tx|Rx)\d+\.csv$")


@dataclass(frozen=True, eq=False)
class Ray:
    """One multipath component: delay, gain, phase and its 3D vertex path.

    The one-row value of a RayTable (see RayTable.from_steps and rays).
    """

    delay: float
    path_gain_db: float
    phase_rad: float
    vertices: np.ndarray  # (n >= 2, 3), tx position first, rx position last

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] != 3:
            raise TraceFormatError(f"ray needs >= 2 vertices of 3 coords, got shape {v.shape}")
        RayTable(counts=[1], delay=[self.delay], gain=[self.path_gain_db],
                 phase=[self.phase_rad], vertices=v, ends=[v.shape[0]])  # the row rules
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def reflection_order(self) -> int:
        return self.vertices.shape[0] - 2

    @property
    def path_length(self) -> float:
        return float(path_lengths(RayTable.from_steps([[self]]))[0])


def _read_only(values, dtype) -> np.ndarray:
    view = np.asarray(values, dtype=dtype).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class RayTable:
    """The rays of one node pair at every timestep, one row per ray.

    Rows run step by step and, within a step, in trace order. Ray i's
    vertex path is rows ends[i - 1]:ends[i] of vertices (from row 0 for the
    first ray), tx position first. Every array is read-only. A table that
    does not fit together raises TraceFormatError, and so does any row Ray
    rejects (non-finite vertices, a delay not finite and >= 0, a non-finite
    phase, a NaN gain; a gain of -inf is allowed): the first such row raises
    Ray's message. Import, step ranges, run outputs and Ray all build here.
    """

    counts: np.ndarray    # (steps,) rays of each step
    delay: np.ndarray     # (n,) s
    gain: np.ndarray      # (n,) path gain, dB
    phase: np.ndarray     # (n,) rad
    vertices: np.ndarray  # (m, 3) the rays' vertex paths, one after another
    ends: np.ndarray      # (n,) one past each ray's last row of vertices

    def __post_init__(self):
        for name, dtype in (("counts", np.intp), ("delay", np.float64), ("gain", np.float64),
                            ("phase", np.float64), ("vertices", np.float64),
                            ("ends", np.intp)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        n = self.delay.size
        if any(getattr(self, name).shape != (n,) for name in ("delay", "gain", "phase", "ends")):
            raise TraceFormatError("ray columns differ in length")
        if self.counts.ndim != 1 or np.any(self.counts < 0) or self.counts.sum() != n:
            raise TraceFormatError(f"step ray counts {self.counts.tolist()} do not sum to "
                                   f"the table's {n} rays")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise TraceFormatError(f"vertices need 3 coords per row, got {self.vertices.shape}")
        short = np.flatnonzero(np.diff(self.ends, prepend=0) < 2)
        if short.shape[0]:
            raise TraceFormatError(f"ray {short[0]} needs >= 2 vertices")
        last = int(self.ends[-1]) if n else 0
        if last != self.vertices.shape[0]:
            raise TraceFormatError(f"the last ray ends at vertex row {last}, "
                                   f"but the table has {self.vertices.shape[0]}")
        fields_ok = (np.isfinite(self.delay) & (self.delay >= 0) & np.isfinite(self.phase)
                     & ~np.isnan(self.gain))
        if fields_ok.all() and np.isfinite(self.vertices).all():
            return
        # only a failing table locates its first bad ray, whose rules raise in Ray's order
        finite = np.ones(n, dtype=bool)
        bad_vertex_rows = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        finite[np.searchsorted(self.ends, bad_vertex_rows, side="right")] = False
        i = int(np.flatnonzero(~(finite & fields_ok))[0])
        delay, phase = self.delay[i].item(), self.phase[i].item()
        if not finite[i]:
            raise TraceFormatError("non-finite ray vertices")
        if not (math.isfinite(delay) and delay >= 0):
            raise TraceFormatError(f"invalid delay {delay}")
        if not math.isfinite(phase):
            raise TraceFormatError(f"invalid phase {phase}")
        raise TraceFormatError("NaN path gain")

    @classmethod
    def from_steps(cls, steps) -> "RayTable":
        """The table of a list of each step's Ray list."""
        rays = [ray for step in steps for ray in step]
        return cls(counts=[len(step) for step in steps],
                   delay=[ray.delay for ray in rays], gain=[ray.path_gain_db for ray in rays],
                   phase=[ray.phase_rad for ray in rays],
                   vertices=np.concatenate([np.empty((0, 3))] + [ray.vertices for ray in rays]),
                   ends=np.cumsum([ray.vertices.shape[0] for ray in rays]))

    def __len__(self) -> int:
        return self.delay.shape[0]

    def first_rows(self) -> np.ndarray:
        """Each ray's first row of vertices."""
        return self.ends - np.diff(self.ends, prepend=0)

    def reflection_orders(self) -> np.ndarray:
        return np.diff(self.ends, prepend=0) - 2

    def ray_steps(self) -> np.ndarray:
        """Each ray's step index."""
        return np.repeat(np.arange(self.counts.shape[0]), self.counts)

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m - n, 3) start and end points of every ray's path segments, ray
        by ray in vertex order, and each segment's ray."""
        starts_at = np.ones(self.vertices.shape[0], dtype=bool)
        starts_at[self.ends - 1] = False  # a ray's last vertex starts no segment
        rows = np.flatnonzero(starts_at)
        ray = np.repeat(np.arange(len(self)), np.diff(self.ends, prepend=0) - 1)
        return self.vertices[rows], self.vertices[rows + 1], ray

    def rays(self, k: int) -> list[Ray]:
        """Step k's rays."""
        lo = int(self.counts[:k].sum())
        hi = lo + int(self.counts[k])
        return [Ray(delay, gain, phase, self.vertices[a:b])
                for delay, gain, phase, a, b in zip(
                    self.delay[lo:hi].tolist(), self.gain[lo:hi].tolist(),
                    self.phase[lo:hi].tolist(), self.first_rows()[lo:hi].tolist(),
                    self.ends[lo:hi].tolist())]

    def step_range(self, lo: int, hi: int) -> "RayTable":
        """The table of steps lo to hi (exclusive)."""
        r0, r1 = np.concatenate(([0], np.cumsum(self.counts)))[[lo, min(hi, len(self.counts))]]
        v0, v1 = np.concatenate(([0], self.ends))[[r0, r1]]
        return RayTable(self.counts[lo:hi], self.delay[r0:r1], self.gain[r0:r1],
                        self.phase[r0:r1], self.vertices[v0:v1], self.ends[r0:r1] - v0)

    def kept(self, mask) -> "RayTable":
        """The table of the rays where mask (one flag per ray) is set."""
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        sizes = np.diff(self.ends, prepend=0)
        return RayTable(np.bincount(self.ray_steps()[mask], minlength=self.counts.shape[0]),
                        self.delay[mask], self.gain[mask], self.phase[mask],
                        self.vertices[np.repeat(mask, sizes)], np.cumsum(sizes[mask]))


def path_lengths(table: RayTable) -> np.ndarray:
    """Length (m) of each ray's vertex path, one batch for the whole table."""
    starts, ends, ray = table.segments()
    d = ends - starts
    lengths = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    return np.bincount(ray, weights=lengths, minlength=len(table))


def path_directions(table: RayTable) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) departure and arrival direction vectors of each ray.

    Departure is the first path segment, arrival the last one reversed
    (pointing from the receiver back along the path).
    """
    first, last = table.first_rows(), table.ends - 1
    vertices = table.vertices
    return vertices[first + 1] - vertices[first], vertices[last - 1] - vertices[last]


_MIN_DIRECTION_M = 1e-12  # a shorter direction vector has no angles


def _norms(directions: np.ndarray) -> np.ndarray:
    x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def direction_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) arrays, radians, of each row of (n, 3) directions.

    Azimuth lies in (-pi, pi]. Raises GeometryError when any direction is
    (numerically) zero, i.e. two consecutive ray vertices coincide.
    """
    x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
    norm = _norms(directions)
    if np.any(norm < _MIN_DIRECTION_M):
        raise GeometryError("coincident consecutive ray vertices")
    azimuth = np.arctan2(y, x)
    azimuth[azimuth <= -math.pi] += 2.0 * math.pi  # keep azimuth in (-pi, pi]
    elevation = np.arcsin(np.clip(z / norm, -1.0, 1.0))
    return azimuth, elevation


@dataclass(eq=False)
class ChannelTrace:
    """One RayTable per node pair plus node trajectories."""

    node_positions: dict[int, np.ndarray]   # node id -> (num_steps, 3)
    pairs: dict[tuple[int, int], RayTable]  # (tx, rx) -> the pair's rays at every step
    time_step: float
    num_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.time_step) and self.time_step > 0):
            raise TraceFormatError(f"time step must be finite and positive, got {self.time_step}")
        if self.num_steps < 1:
            raise TraceFormatError("need at least one timestep")
        for pair, table in self.pairs.items():
            if not isinstance(table, RayTable):
                raise TraceFormatError(f"pair {pair} needs a RayTable, got {type(table).__name__}")
            if table.counts.shape[0] != self.num_steps:
                raise TraceFormatError(
                    f"pair {pair} has {table.counts.shape[0]} steps, expected {self.num_steps}")
            for node in pair:
                if node not in self.node_positions:
                    raise TraceFormatError(f"pair {pair} references unknown node {node}")
        for node, pos in self.node_positions.items():
            if pos.shape != (self.num_steps, 3):
                raise TraceFormatError(
                    f"node {node} positions have shape {pos.shape}, "
                    f"expected ({self.num_steps}, 3)")

    def times(self) -> np.ndarray:
        return np.arange(self.num_steps) * self.time_step

    def with_gains(self, gains: dict[tuple[int, int], np.ndarray]) -> "ChannelTrace":
        """This trace with each pair's gain column replaced by gains[pair];
        every other array is shared with this trace."""
        return ChannelTrace(node_positions=dict(self.node_positions),
                            pairs={pair: replace(table, gain=gains[pair])
                                   for pair, table in self.pairs.items()},
                            time_step=self.time_step, num_steps=self.num_steps)


def read_text(path) -> str:
    """The file's text: its bytes in one read, decoded as UTF-8."""
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.read()
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot be read ({exc.strerror or exc})") from None
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text (byte {exc.start} of "
                               f"{len(data)}: {exc.reason})") from None


def write_text(path, text: str) -> None:
    """Create or replace the file with text's UTF-8 bytes, newlines as given.

    A file that cannot be opened (a directory in its place, say) raises a
    ConfigError naming it.
    """
    data = memoryview(text.encode())
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be written ({exc.strerror or exc})") from None
    try:
        while data:  # a short write leaves the rest for the next call
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _parse_floats(line: str, path: str, lineno: int, expected: int) -> list[float]:
    parts = [p for p in line.strip().split(",") if p != ""]
    if len(parts) != expected:
        raise TraceFormatError(f"{path}:{lineno}: expected {expected} values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise TraceFormatError(f"{path}:{lineno}: {exc}") from None


def _parse_rows(path: str, lines: list[str], linenos, width: int) -> np.ndarray:
    """(len(lines), width) values of comma-separated lines: one split, one float map.

    Empty parts are dropped, as _parse_floats drops them (a trailing comma
    leaves one). Any malformed line raises _parse_floats's error for the
    first such line, numbered by linenos.
    """
    if not lines:
        return np.empty((0, width))
    # "\n" never occurs inside a line, so it marks each line end among the parts
    parts = list(filter(None, ",\n,".join([line.strip() for line in lines]).split(",")))
    line_ends = slice(width, None, width + 1)
    if (len(parts) == len(lines) * (width + 1) - 1
            and parts[line_ends].count("\n") == len(lines) - 1):
        del parts[line_ends]
        try:
            return np.array(list(map(float, parts))).reshape(len(lines), width)
        except ValueError:
            pass
    for line, lineno in zip(lines, linenos):
        _parse_floats(line, path, lineno, width)
    raise AssertionError(f"{path}: lines parse one by one but not in bulk")


def _read_rows(path: str, width: int) -> np.ndarray:
    """The rows of a comma-separated file; blank lines are skipped."""
    lines = read_text(path).splitlines()
    linenos = [n for n, line in enumerate(lines, start=1) if line.strip()]
    return _parse_rows(path, [lines[n - 1] for n in linenos], linenos, width)


def _parse_qd_file(path: str) -> list[np.ndarray]:
    """Each timestep block's (7, ray count) rows: delay, gain, phase, then the
    AoD elevation, AoD azimuth, AoA elevation and AoA azimuth."""
    lines = read_text(path).splitlines()
    blocks = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            count = int(lines[i].strip())
        except ValueError:
            raise TraceFormatError(f"{path}:{i + 1}: expected a ray count") from None
        if count < 0:
            raise TraceFormatError(f"{path}:{i + 1}: negative ray count")
        if count == 0:
            blocks.append(np.empty((7, 0)))
            i += 1
            continue
        if i + 7 >= len(lines):
            raise TraceFormatError(f"{path}:{i + 1}: truncated block")
        blocks.append(_parse_rows(path, lines[i + 1:i + 8], range(i + 2, i + 9), count))
        i += 8
    if not blocks:
        raise TraceFormatError(f"{path}: no timestep blocks")
    return blocks


def _read_node_positions(dir_: str, node: int, num_steps: int) -> np.ndarray | None:
    for role in ("Tx", "Rx"):
        path = os.path.join(dir_, f"NodePositions{role}{node}.csv")
        if os.path.exists(path):
            rows = _read_rows(path, 3)
            if len(rows) != num_steps:
                raise TraceFormatError(
                    f"{path}: {len(rows)} position rows, expected {num_steps}")
            return rows
    return None


def scenario_paths(directory) -> tuple[str, str, str, str]:
    """The ray file, coordinate file and node position directories and the
    sampling period file of a scenario directory.

    File paths are these strings joined to a name: a Path per file costs a
    measurable share of reading or writing the file.
    """
    output = Path(directory) / "Output"
    ns3, visualizer = output / "Ns3", output / "Visualizer"
    return (str(ns3 / "QdFiles"), str(visualizer / "MpcCoordinates"),
            str(visualizer / "NodePositions"), str(ns3 / "TimeStep.txt"))


def import_scenario(directory) -> ChannelTrace:
    """Load a scenario directory into the in-memory trace model.

    Unknown auxiliary files are ignored. Without a recorded sampling
    period, 1.0 s is assumed and a warning logged. Besides RayTable's row
    rules, a ray needs a direction: a first or last segment shorter than
    1e-12 m raises TraceFormatError, before any run reads the trace.
    """
    qd_dir, mpc_dir, node_dir, ts_file = scenario_paths(directory)
    if not os.path.isdir(qd_dir):
        raise TraceFormatError(f"{qd_dir}: missing ray file directory")

    qd_files = {}
    for name in sorted(os.listdir(qd_dir)):
        m = _QD_FILE_RE.match(name)
        if m:
            qd_files[(int(m.group(1)), int(m.group(2)))] = os.path.join(qd_dir, name)
    if not qd_files:
        raise TraceFormatError(f"{qd_dir}: no TxiRxj.txt ray files")

    # pair -> (reflection order, timestep) -> coordinate file
    mpc_files: dict[tuple[int, int], dict[tuple[int, int], str]] = {}
    if os.path.isdir(mpc_dir):
        for name in os.listdir(mpc_dir):
            m = _MPC_FILE_RE.match(name)
            if m:
                tx, rx, order, step = map(int, m.groups())
                mpc_files.setdefault((tx, rx), {})[(order, step)] = os.path.join(mpc_dir, name)

    pairs: dict[tuple[int, int], RayTable] = {}
    num_steps = None
    delay_mismatches = 0
    for pair, path in sorted(qd_files.items()):
        blocks = _parse_qd_file(path)
        if num_steps is None:
            num_steps = len(blocks)
        elif len(blocks) != num_steps:
            raise TraceFormatError(
                f"{path}: {len(blocks)} timesteps, other pairs have {num_steps}")
        counts = [block.shape[1] for block in blocks]

        vertex_files = mpc_files.get(pair, {})
        if not vertex_files and any(counts):
            raise TraceFormatError(
                f"missing multipath coordinate files for pair Tx{pair[0]}Rx{pair[1]}")

        # (rays, order + 2, 3) vertices per coordinate file, in ray order
        orders = sorted({k for k, _ in vertex_files})
        tables: list[np.ndarray] = []
        for t, count in enumerate(counts):
            held = 0
            for k in orders:
                vpath = vertex_files.get((k, t))
                if vpath is not None:
                    tables.append(_read_rows(vpath, 3 * (k + 2)).reshape(-1, k + 2, 3))
                    held += tables[-1].shape[0]
            if held != count:
                raise TraceFormatError(
                    f"pair Tx{pair[0]}Rx{pair[1]} timestep {t}: ray file declares "
                    f"{count} rays but coordinate files hold {held}")

        columns = np.concatenate(blocks, axis=1)
        sizes = np.repeat([table.shape[1] for table in tables], [len(table) for table in tables])
        table = pairs[pair] = RayTable(
            counts=counts, delay=columns[0], gain=columns[1], phase=columns[2],
            vertices=np.concatenate([np.empty((0, 3))] + [t.reshape(-1, 3) for t in tables]),
            ends=np.cumsum(sizes))
        departure, arrival = path_directions(table)
        undirected = (_norms(departure) < _MIN_DIRECTION_M) | (_norms(arrival) < _MIN_DIRECTION_M)
        if undirected.any():
            raise TraceFormatError(
                f"pair Tx{pair[0]}Rx{pair[1]} timestep {table.ray_steps()[undirected][0]}: "
                f"a ray's first or last segment is shorter than {_MIN_DIRECTION_M} m")
        delay_mismatches += int(np.count_nonzero(
            np.abs(path_lengths(table) / SPEED_OF_LIGHT - columns[0]) > 1e-6))

    if delay_mismatches:
        log.warning("%d rays have delays inconsistent with their vertex paths (> 1 us)",
                    delay_mismatches)

    node_ids = sorted({n for pair in pairs for n in pair})
    node_positions: dict[int, np.ndarray] = {}
    for node in node_ids:
        pos = _read_node_positions(node_dir, node, num_steps) if os.path.isdir(node_dir) else None
        if pos is None:
            pos = _positions_from_rays(pairs, node, num_steps)
        pos.setflags(write=False)
        node_positions[node] = pos

    if os.path.exists(ts_file):
        text = read_text(ts_file).strip()
        try:
            time_step = float(text)
        except ValueError:
            raise TraceFormatError(
                f"{ts_file}: expected a sampling period in seconds, got {text!r}") from None
    else:
        log.warning("no sampling period recorded in %s, assuming 1.0 s", Path(directory))
        time_step = 1.0

    return ChannelTrace(node_positions=node_positions, pairs=pairs,
                        time_step=time_step, num_steps=num_steps)


def _positions_from_rays(pairs: dict[tuple[int, int], RayTable], node: int,
                        num_steps: int) -> np.ndarray:
    """Fall back to first/last ray vertices when position files are absent:
    a step's first ray of the first pair that has one, in pair order."""
    pos = np.full((num_steps, 3), np.nan)
    for (tx, rx), table in pairs.items():
        if node not in (tx, rx):
            continue
        unset = (table.counts > 0) & np.isnan(pos[:, 0])
        first_ray = (np.cumsum(table.counts) - table.counts)[unset]
        rows = table.first_rows()[first_ray] if tx == node else table.ends[first_ray] - 1
        pos[unset] = table.vertices[rows]
    known = ~np.isnan(pos[:, 0])
    if not known.any():
        log.warning("node %d has no recoverable positions, using origin", node)
        return np.zeros((num_steps, 3))
    # carry the last known position over ray-less steps, and the first known
    # one back over the steps before it
    first = int(np.argmax(known))
    return pos[np.maximum.accumulate(np.where(known, np.arange(num_steps), first))]


@functools.lru_cache(maxsize=None)
def _template(fmt: str, width: int, rows: int = 1) -> str:
    """rows lines of width comma-separated fmt fields, one %-template.

    fmt may itself be several comma-separated fields (one line's worth).
    "%.6f", "%.9g" and "%.12g" print a float as f"{v:.6f}", f"{v:.9g}" and
    f"{v:.12g}" do, and "%d" an integer as str does.
    """
    return "\n".join([",".join([fmt] * width)] * rows)


def _format_rows(values: np.ndarray, fmt: str = "%.6f") -> str:
    """The rows of a 2-D array as comma-separated lines of fmt fields."""
    rows, width = values.shape
    return _template(fmt, width, rows) % tuple(values.ravel().tolist())


def _format_columns(columns: list[list], fmts: list[str]) -> str:
    """Comma-separated lines, line i holding each column's value i printed
    with that column's format; the columns are lists of equal length."""
    return _template(",".join(fmts), 1, len(columns[0])) % tuple(
        itertools.chain.from_iterable(zip(*columns)))


def export_scenario(trace: ChannelTrace, directory, drop_below_db: float = -500.0) -> None:
    """Write the trace back out in the same layout import_scenario reads.

    Rays attenuated below drop_below_db (including -inf gains) are dropped
    so downstream consumers never see unrepresentable values. Ray,
    coordinate and node position files in the directory that this export
    did not write (an earlier export's) are removed, so the directory
    holds exactly this trace; other files are left alone.
    """
    qd_dir, mpc_dir, node_dir, ts_file = scenario_paths(directory)
    for d in (qd_dir, mpc_dir, node_dir):
        os.makedirs(d, exist_ok=True)

    written: set[str] = set()
    for (tx, rx), table in sorted(trace.pairs.items()):
        kept = table.kept(table.gain >= drop_below_db)
        # Python lists of the kept rays, built once per pair: the delays,
        # the other QdFiles rows (gain, phase, then the angles in degrees:
        # AoD elevation, AoD azimuth, AoA elevation, AoA azimuth), and each
        # ray's reflection order and span of the flat coordinate list
        departure, arrival = path_directions(kept)
        aod_az, aod_el = direction_angles(departure)
        aoa_az, aoa_el = direction_angles(arrival)
        delays = kept.delay.tolist()
        rows = [kept.gain.tolist(), kept.phase.tolist(),
                *np.degrees(np.stack([aod_el, aod_az, aoa_el, aoa_az])).tolist()]
        orders = kept.reflection_orders().tolist()
        coords = kept.vertices.ravel().tolist()
        firsts, ends = (3 * kept.first_rows()).tolist(), (3 * kept.ends).tolist()
        lines: list[str] = []
        lo = 0
        for t, count in enumerate(kept.counts.tolist()):
            hi = lo + count
            lines.append(str(count))
            if count:
                lines.append(_template("%.12g", count) % tuple(delays[lo:hi]))
                lines.append(_template("%.6f", count, 6) % tuple(
                    itertools.chain.from_iterable(row[lo:hi] for row in rows)))
            by_order: dict[int, list[float]] = {}
            for i in range(lo, hi):
                by_order.setdefault(orders[i], []).extend(coords[firsts[i]:ends[i]])
            for order, values in sorted(by_order.items()):
                width = 3 * (order + 2)
                name = f"MpcTx{tx}Rx{rx}Refl{order}Trc{t}.csv"
                write_text(os.path.join(mpc_dir, name),
                           _template("%.6f", width, len(values) // width) % tuple(values) + "\n")
                written.add(name)
            lo = hi
        name = f"Tx{tx}Rx{rx}.txt"
        write_text(os.path.join(qd_dir, name), "\n".join(lines) + "\n")
        written.add(name)

    tx_nodes = {tx for tx, _ in trace.pairs}
    rx_nodes = {rx for _, rx in trace.pairs}
    for node, positions in sorted(trace.node_positions.items()):
        rows = _format_rows(positions)
        for role, nodes in (("Tx", tx_nodes), ("Rx", rx_nodes)):
            if node in nodes:
                name = f"NodePositions{role}{node}.csv"
                write_text(os.path.join(node_dir, name), rows + "\n")
                written.add(name)

    write_text(ts_file, f"{trace.time_step:.12g}\n")
    # an earlier export's files would otherwise join this trace on import
    for d, own in ((qd_dir, _QD_FILE_RE), (mpc_dir, _MPC_FILE_RE), (node_dir, _NODE_FILE_RE)):
        for name in os.listdir(d):
            if own.match(name) and name not in written:
                os.remove(os.path.join(d, name))

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
the same order. Angles are stored in degrees on disk and radians in memory.
An auxiliary Output/Ns3/TimeStep.txt records the sampling period; readers of
the original format ignore it, and import falls back to 1.0 s without it.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, TraceFormatError

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299792458.0

_QD_FILE_RE = re.compile(r"^Tx(\d+)Rx(\d+)\.txt$")
_MPC_FILE_RE = re.compile(r"^MpcTx(\d+)Rx(\d+)Refl(\d+)Trc(\d+)\.csv$")


@dataclass(frozen=True, eq=False)
class Ray:
    """One multipath component: delay, gain, phase and its 3D vertex path."""

    delay: float
    path_gain_db: float
    phase_rad: float
    vertices: np.ndarray  # (n >= 2, 3), tx position first, rx position last

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] != 3:
            raise TraceFormatError(f"ray needs >= 2 vertices of 3 coords, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise TraceFormatError("non-finite ray vertices")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise TraceFormatError(f"invalid delay {self.delay}")
        if not math.isfinite(self.phase_rad):
            raise TraceFormatError(f"invalid phase {self.phase_rad}")
        if math.isnan(self.path_gain_db):
            raise TraceFormatError("NaN path gain")

    @property
    def reflection_order(self) -> int:
        return self.vertices.shape[0] - 2

    @property
    def path_length(self) -> float:
        return float(path_lengths([self])[0])

    def with_gain(self, path_gain_db: float) -> "Ray":
        """This ray with another path gain, sharing its validated vertex array.

        Only the new gain is checked; the other fields were checked when
        this ray was built.
        """
        if math.isnan(path_gain_db):
            raise TraceFormatError("NaN path gain")
        ray = object.__new__(Ray)
        ray.__dict__.update(self.__dict__, path_gain_db=path_gain_db)
        return ray


def _stacked_vertices(rays: list[Ray]) -> tuple[np.ndarray, np.ndarray]:
    """All rays' vertices in one (m, 3) array, and each ray's last row in it."""
    if not rays:
        return np.empty((0, 3)), np.empty(0, dtype=np.intp)
    vertices = np.concatenate([ray.vertices for ray in rays])
    return vertices, np.cumsum([ray.vertices.shape[0] for ray in rays]) - 1


def path_lengths(rays: list[Ray]) -> np.ndarray:
    """Length (m) of each ray's vertex path, one batch for the whole list."""
    vertices, last = _stacked_vertices(rays)
    d = np.diff(vertices, axis=0)
    lengths = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    lengths[last[:-1]] = 0.0  # the step from one ray's last vertex to the next ray
    ray_of_step = np.repeat(np.arange(len(rays)), np.diff(last, prepend=-1))[:-1]
    return np.bincount(ray_of_step, weights=lengths, minlength=len(rays))


def path_directions(rays: list[Ray]) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) departure and arrival direction vectors of each ray.

    Departure is the first path segment, arrival the last one reversed
    (pointing from the receiver back along the path).
    """
    vertices, last = _stacked_vertices(rays)
    first = np.concatenate(([0], last[:-1] + 1)) if rays else last
    return vertices[first + 1] - vertices[first], vertices[last - 1] - vertices[last]


def direction_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) arrays, radians, of each row of (n, 3) directions.

    Azimuth lies in (-pi, pi]. Raises GeometryError when any direction is
    (numerically) zero, i.e. two consecutive ray vertices coincide.
    """
    x, y, z = directions[:, 0], directions[:, 1], directions[:, 2]
    norm = np.sqrt(x * x + y * y + z * z)
    if np.any(norm < 1e-12):
        raise GeometryError("coincident consecutive ray vertices")
    azimuth = np.arctan2(y, x)
    azimuth[azimuth <= -math.pi] += 2.0 * math.pi  # keep azimuth in (-pi, pi]
    elevation = np.arcsin(np.clip(z / norm, -1.0, 1.0))
    return azimuth, elevation


def angles_of_departure(ray: Ray) -> tuple[float, float]:
    """(azimuth, elevation) of the first path segment, radians."""
    azimuth, elevation = direction_angles(path_directions([ray])[0])
    return float(azimuth[0]), float(elevation[0])


def angles_of_arrival(ray: Ray) -> tuple[float, float]:
    """(azimuth, elevation) of the last path segment reversed, radians."""
    azimuth, elevation = direction_angles(path_directions([ray])[1])
    return float(azimuth[0]), float(elevation[0])


@dataclass(eq=False)
class ChannelTrace:
    """Per node-pair, per timestep ray collections plus node trajectories."""

    node_positions: dict[int, np.ndarray]          # node id -> (num_steps, 3)
    pairs: dict[tuple[int, int], list[list[Ray]]]  # (tx, rx) -> per-step ray lists
    time_step: float
    num_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.time_step) and self.time_step > 0):
            raise TraceFormatError(f"time step must be finite and positive, got {self.time_step}")
        if self.num_steps < 1:
            raise TraceFormatError("need at least one timestep")
        for pair, steps in self.pairs.items():
            if len(steps) != self.num_steps:
                raise TraceFormatError(
                    f"pair {pair} has {len(steps)} steps, expected {self.num_steps}")
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


def _parse_floats(line: str, path: Path, lineno: int, expected: int) -> list[float]:
    parts = [p for p in line.strip().split(",") if p != ""]
    if len(parts) != expected:
        raise TraceFormatError(f"{path}:{lineno}: expected {expected} values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise TraceFormatError(f"{path}:{lineno}: {exc}") from None


def _parse_qd_file(path: Path) -> list[dict]:
    """Per-timestep dicts with delay/gain/phase/angle columns."""
    lines = path.read_text().splitlines()
    steps = []
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
        block = {"count": count}
        if count > 0:
            if i + 7 >= len(lines):
                raise TraceFormatError(f"{path}:{i + 1}: truncated block")
            names = ("delay", "gain", "phase", "aod_el", "aod_az", "aoa_el", "aoa_az")
            for off, name in enumerate(names, start=1):
                block[name] = _parse_floats(lines[i + off], path, i + off + 1, count)
            i += 8
        else:
            i += 1
        steps.append(block)
    if not steps:
        raise TraceFormatError(f"{path}: no timestep blocks")
    return steps


def _read_vertex_rows(path: Path, order: int) -> list[np.ndarray]:
    rows = []
    expected = 3 * (order + 2)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        values = _parse_floats(line, path, lineno, expected)
        rows.append(np.array(values, dtype=np.float64).reshape(-1, 3))
    return rows


def _read_node_positions(dir_: Path, node: int, num_steps: int) -> np.ndarray | None:
    for role in ("Tx", "Rx"):
        path = dir_ / f"NodePositions{role}{node}.csv"
        if path.exists():
            rows = [_parse_floats(line, path, i + 1, 3)
                    for i, line in enumerate(path.read_text().splitlines()) if line.strip()]
            if len(rows) != num_steps:
                raise TraceFormatError(
                    f"{path}: {len(rows)} position rows, expected {num_steps}")
            return np.array(rows, dtype=np.float64)
    return None


def import_scenario(directory, time_step: float | None = None) -> ChannelTrace:
    """Load a scenario directory into the in-memory trace model.

    Unknown auxiliary files are ignored. time_step overrides the recorded
    sampling period; without either, 1.0 s is assumed and a warning logged.
    """
    root = Path(directory)
    qd_dir = root / "Output" / "Ns3" / "QdFiles"
    mpc_dir = root / "Output" / "Visualizer" / "MpcCoordinates"
    node_dir = root / "Output" / "Visualizer" / "NodePositions"
    if not qd_dir.is_dir():
        raise TraceFormatError(f"{qd_dir}: missing ray file directory")

    qd_files = {}
    for path in sorted(qd_dir.iterdir()):
        m = _QD_FILE_RE.match(path.name)
        if m:
            qd_files[(int(m.group(1)), int(m.group(2)))] = path
    if not qd_files:
        raise TraceFormatError(f"{qd_dir}: no TxiRxj.txt ray files")

    # pair -> (reflection order, timestep) -> coordinate file
    mpc_files: dict[tuple[int, int], dict[tuple[int, int], Path]] = {}
    if mpc_dir.is_dir():
        for vpath in mpc_dir.iterdir():
            m = _MPC_FILE_RE.match(vpath.name)
            if m:
                tx, rx, order, step = map(int, m.groups())
                mpc_files.setdefault((tx, rx), {})[(order, step)] = vpath

    pairs: dict[tuple[int, int], list[list[Ray]]] = {}
    num_steps = None
    delay_mismatches = 0
    for pair, path in sorted(qd_files.items()):
        blocks = _parse_qd_file(path)
        if num_steps is None:
            num_steps = len(blocks)
        elif len(blocks) != num_steps:
            raise TraceFormatError(
                f"{path}: {len(blocks)} timesteps, other pairs have {num_steps}")

        vertex_files = mpc_files.get(pair, {})
        if not vertex_files and any(b["count"] > 0 for b in blocks):
            raise TraceFormatError(
                f"missing multipath coordinate files for pair Tx{pair[0]}Rx{pair[1]}")

        orders = sorted({k for k, _ in vertex_files})
        per_step_rays: list[list[Ray]] = []
        for t, block in enumerate(blocks):
            vertices: list[np.ndarray] = []
            for k in orders:
                vpath = vertex_files.get((k, t))
                if vpath is not None:
                    vertices.extend(_read_vertex_rows(vpath, k))
            if len(vertices) != block["count"]:
                raise TraceFormatError(
                    f"pair Tx{pair[0]}Rx{pair[1]} timestep {t}: ray file declares "
                    f"{block['count']} rays but coordinate files hold {len(vertices)}")
            per_step_rays.append([
                Ray(delay=block["delay"][i], path_gain_db=block["gain"][i],
                    phase_rad=block["phase"][i], vertices=vertices[i])
                for i in range(block["count"])])
        pairs[pair] = per_step_rays
        pair_rays = [ray for rays in per_step_rays for ray in rays]
        delays = np.array([ray.delay for ray in pair_rays], dtype=np.float64)
        delay_mismatches += int(np.count_nonzero(
            np.abs(path_lengths(pair_rays) / SPEED_OF_LIGHT - delays) > 1e-6))

    if delay_mismatches:
        log.warning("%d rays have delays inconsistent with their vertex paths (> 1 us)",
                    delay_mismatches)

    node_ids = sorted({n for pair in pairs for n in pair})
    node_positions: dict[int, np.ndarray] = {}
    for node in node_ids:
        pos = _read_node_positions(node_dir, node, num_steps) if node_dir.is_dir() else None
        if pos is None:
            pos = _positions_from_rays(pairs, node, num_steps)
        pos.setflags(write=False)
        node_positions[node] = pos

    if time_step is None:
        ts_file = root / "Output" / "Ns3" / "TimeStep.txt"
        if ts_file.exists():
            text = ts_file.read_text().strip()
            try:
                time_step = float(text)
            except ValueError:
                raise TraceFormatError(
                    f"{ts_file}: expected a sampling period in seconds, got {text!r}") from None
        else:
            log.warning("no sampling period recorded in %s, assuming 1.0 s", root)
            time_step = 1.0

    return ChannelTrace(node_positions=node_positions, pairs=pairs,
                        time_step=time_step, num_steps=num_steps)


def _positions_from_rays(pairs, node: int, num_steps: int) -> np.ndarray:
    """Fall back to first/last ray vertices when position files are absent."""
    pos = np.full((num_steps, 3), np.nan)
    for (tx, rx), steps in pairs.items():
        idx = 0 if tx == node else (-1 if rx == node else None)
        if idx is None:
            continue
        for t, rays in enumerate(steps):
            if rays and np.isnan(pos[t, 0]):
                pos[t] = rays[0].vertices[idx]
    # carry the nearest known position over ray-less steps
    last = None
    for t in range(num_steps):
        if np.isnan(pos[t, 0]):
            if last is not None:
                pos[t] = last
        else:
            last = pos[t]
    for t in range(num_steps - 1, -1, -1):
        if np.isnan(pos[t, 0]):
            pos[t] = pos[t + 1] if t + 1 < num_steps else 0.0
    if np.any(np.isnan(pos)):
        log.warning("node %d has no recoverable positions, using origin", node)
        pos = np.nan_to_num(pos)
    return pos


def _fmt_gain(value: float) -> str:
    return f"{value:.6f}"


def _fmt_delay(value: float) -> str:
    return f"{value:.12g}"


def export_scenario(trace: ChannelTrace, directory, drop_below_db: float = -500.0) -> None:
    """Write the trace back out in the same layout import_scenario reads.

    Rays attenuated below drop_below_db (including -inf gains) are dropped
    so downstream consumers never see unrepresentable values.
    """
    root = Path(directory)
    qd_dir = root / "Output" / "Ns3" / "QdFiles"
    mpc_dir = root / "Output" / "Visualizer" / "MpcCoordinates"
    node_dir = root / "Output" / "Visualizer" / "NodePositions"
    for d in (qd_dir, mpc_dir, node_dir):
        d.mkdir(parents=True, exist_ok=True)

    for (tx, rx), steps in sorted(trace.pairs.items()):
        kept_steps = [[r for r in rays if r.path_gain_db >= drop_below_db] for rays in steps]
        # angle rows of every kept ray of the pair, in degrees: AoD elevation,
        # AoD azimuth, AoA elevation, AoA azimuth
        departure, arrival = path_directions([r for kept in kept_steps for r in kept])
        aod_az, aod_el = direction_angles(departure)
        aoa_az, aoa_el = direction_angles(arrival)
        angles = np.degrees(np.stack([aod_el, aod_az, aoa_el, aoa_az], axis=1)).tolist()
        lines: list[str] = []
        lo = 0
        for t, kept in enumerate(kept_steps):
            lines.append(str(len(kept)))
            if kept:
                lines.append(",".join(_fmt_delay(r.delay) for r in kept))
                lines.append(",".join(_fmt_gain(r.path_gain_db) for r in kept))
                lines.append(",".join(_fmt_gain(r.phase_rad) for r in kept))
                for column in zip(*angles[lo:lo + len(kept)]):
                    lines.append(",".join(_fmt_gain(a) for a in column))
                lo += len(kept)
            by_order: dict[int, list[Ray]] = {}
            for r in kept:
                by_order.setdefault(r.reflection_order, []).append(r)
            for order, group in sorted(by_order.items()):
                rows = "\n".join(
                    ",".join(_fmt_gain(c) for c in r.vertices.reshape(-1)) for r in group)
                (mpc_dir / f"MpcTx{tx}Rx{rx}Refl{order}Trc{t}.csv").write_text(rows + "\n")
        (qd_dir / f"Tx{tx}Rx{rx}.txt").write_text("\n".join(lines) + "\n")

    tx_nodes = {tx for tx, _ in trace.pairs}
    rx_nodes = {rx for _, rx in trace.pairs}
    for node, positions in sorted(trace.node_positions.items()):
        rows = "\n".join(",".join(_fmt_gain(c) for c in row) for row in positions)
        if node in tx_nodes:
            (node_dir / f"NodePositionsTx{node}.csv").write_text(rows + "\n")
        if node in rx_nodes:
            (node_dir / f"NodePositionsRx{node}.csv").write_text(rows + "\n")

    (root / "Output" / "Ns3" / "TimeStep.txt").write_text(f"{trace.time_step:.12g}\n")

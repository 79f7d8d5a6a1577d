"""Seeded inputs of the three workloads, written without the program.

Each workload is a qd-realization scenario directory (the trace format the
README documents) plus a run spec. Everything here is plain numpy: the
vertices come from an image-method construction, delays from the path
lengths, gains from free-space path loss, and the files are formatted by
this module. Values are rounded to the digits written to disk before they
are kept, so the in-memory scenario equals what the program reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C = 299792458.0
FREQUENCY_HZ = 60e9
WAVELENGTH = C / FREQUENCY_HZ
MODELS = ("obstruction", "metis", "dked", "dked_pc", "itu_se")


@dataclass
class Ray:
    vertices: np.ndarray  # (n, 3), tx first
    delay: float
    gain: float
    phase: float

    @property
    def order(self) -> int:
        return self.vertices.shape[0] - 2


@dataclass
class Scenario:
    time_step: float
    num_steps: int
    nodes: dict[int, np.ndarray]                       # node -> (num_steps, 3)
    pairs: dict[tuple[int, int], list[list[Ray]]]      # per step, ordered as on disk


@dataclass
class Workload:
    name: str
    scenario: Scenario
    spec: dict                                         # run spec minus directories
    sweeps: tuple[str, ...] = ()
    check_workers: bool = False
    dked_samples: int = 0


def _r6(x):
    return np.round(np.asarray(x, dtype=np.float64), 6)


def fspl_db(length: float) -> float:
    return -20.0 * math.log10(4.0 * math.pi * length / WAVELENGTH)


def make_ray(points, extra_loss_db: float = 0.0) -> Ray:
    vertices = _r6(points)
    length = float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))
    delay = float(f"{length / C:.12g}")
    turns = FREQUENCY_HZ * delay
    phase = float(f"{-2.0 * math.pi * (turns - round(turns)):.6f}")
    gain = float(f"{fspl_db(length) - extra_loss_db:.6f}")
    return Ray(vertices=vertices, delay=delay, gain=gain, phase=phase)


# ---------------------------------------------------------------------------
# the criterion-11 room: 10 m (x) by 19 m (y) by 3 m, one walking receiver

CROWD_BOUNCES = (
    (0.0, 2.0, 1.5), (0.0, 6.0, 1.0), (0.0, 10.0, 2.0), (0.0, 14.0, 1.2), (0.0, 17.0, 2.2),
    (10.0, 3.0, 1.1), (10.0, 7.0, 2.1), (10.0, 11.0, 1.4), (10.0, 15.0, 1.9), (10.0, 18.0, 1.3),
    (3.0, 5.0, 3.0), (7.0, 9.0, 3.0), (4.0, 13.0, 3.0), (6.0, 16.0, 3.0), (5.0, 8.0, 3.0),
)
WALK_SPEED = 1.2
WALK_SECONDS = 15.7


def crowd_room(seed: int, num_steps: int, models_to_compare=()) -> tuple[Scenario, dict]:
    """Direct ray plus 15 single bounces to a receiver walking the room's length,
    crossed by 15 ortho_screen blockers (0.3 x 1.7 m, dked)."""
    rng = np.random.default_rng([seed, 11])
    dt = WALK_SECONDS / num_steps
    tx = _r6([5.0 + rng.uniform(-0.3, 0.3), 0.1, 2.9])
    rx_x = 5.0 + rng.uniform(-0.3, 0.3)
    bounces = []
    for x, y, z in CROWD_BOUNCES:
        if z == 3.0:  # ceiling
            x, y = x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5)
        else:         # side wall
            y, z = y + rng.uniform(-0.5, 0.5), float(np.clip(z + rng.uniform(-0.3, 0.3), 0.3, 2.7))
        bounces.append(np.array([x, y, z]))

    rx_pos = _r6([[rx_x, 0.1 + WALK_SPEED * dt * k, 1.5] for k in range(num_steps)])
    steps = []
    for rx in rx_pos:
        rays = [make_ray([tx, rx])]
        rays += [make_ray([tx, b, rx], extra_loss_db=10.0) for b in bounces]
        steps.append(rays)
    scenario = Scenario(time_step=float(f"{dt:.12g}"), num_steps=num_steps,
                        nodes={0: np.tile(tx, (num_steps, 1)), 1: rx_pos},
                        pairs={(0, 1): steps})

    obstacles = []
    for i in range(15):
        cross_time = 0.5 + i + rng.uniform(-0.2, 0.2)
        frac = rng.uniform(0.88, 0.96)     # share of the way from tx to rx
        rx_y = 0.1 + WALK_SPEED * cross_time
        x = tx[0] + frac * (rx_x - tx[0])
        y = tx[1] + frac * (rx_y - tx[1])
        obstacles.append({
            "shape": {"kind": "ortho_screen", "width": 0.3, "height": 1.7},
            "mobility": {"kind": "linear",
                         "start": [round(x - 1.2 * cross_time, 6), round(y, 6), 0.85],
                         "velocity": [1.2, 0.0, 0.0]},
            "model": {"kind": "dked"},
        })
    spec = {
        "obstacles": obstacles,
        "models_to_compare": list(models_to_compare),
        "sampling": {"time_step": scenario.time_step, "num_steps": num_steps},
    }
    return scenario, spec


# ---------------------------------------------------------------------------
# the survey room: 12 m (x) by 8 m (y) by 3 m, two access points, four walkers

ROOM = np.array([12.0, 8.0, 3.0])
FIRST_ORDER = ((0, 0.0), (0, ROOM[0]), (1, 0.0), (1, ROOM[1]), (2, 0.0), (2, ROOM[2]))
SECOND_ORDER = (((0, 0.0), (0, ROOM[0])), ((0, ROOM[0]), (0, 0.0)),
                ((1, 0.0), (1, ROOM[1])), ((1, ROOM[1]), (1, 0.0)))


def _mirror(p: np.ndarray, axis: int, plane: float) -> np.ndarray:
    q = p.copy()
    q[axis] = 2.0 * plane - q[axis]
    return q


def _hit(a: np.ndarray, b: np.ndarray, axis: int, plane: float) -> np.ndarray:
    s = (plane - a[axis]) / (b[axis] - a[axis])
    p = a + s * (b - a)
    p[axis] = plane
    return p


def image_paths(tx: np.ndarray, rx: np.ndarray) -> list[tuple[list, int]]:
    """Direct, six first-order and four second-order wall paths of a box room,
    ordered as on disk: reflection order, then this fixed wall order.
    Returns (vertices, [surface ids]) pairs."""
    paths = [([tx, rx], [])]
    for sid, (axis, plane) in enumerate(FIRST_ORDER):
        image = _mirror(tx, axis, plane)
        paths.append(([tx, _hit(image, rx, axis, plane), rx], [sid]))
    for (a1, p1), (a2, p2) in SECOND_ORDER:
        image1 = _mirror(tx, a1, p1)
        image2 = _mirror(image1, a2, p2)
        second = _hit(image2, rx, a2, p2)
        first = _hit(image1, second, a1, p1)
        paths.append(([tx, first, second, rx],
                      [FIRST_ORDER.index((a1, p1)), FIRST_ORDER.index((a2, p2))]))
    return paths


# A fixed layout that the seed perturbs, so that every seed does about the
# same work: start and end points (x, y) of the walkers and obstacles.
SURVEY_WALKERS = (((1.0, 1.0), (11.0, 7.0)), ((11.0, 1.0), (1.0, 7.0)),
                  ((1.0, 4.0), (11.0, 4.2)), ((6.0, 0.8), (6.2, 7.2)))
SURVEY_SPHERES = (((2.0, 6.5), (10.0, 1.5)), ((10.5, 5.5), (1.5, 2.5)), ((4.0, 0.8), (8.0, 7.2)))
SURVEY_WAYPOINTS = ((3.0, 3.0), (9.0, 3.5), (8.0, 6.0), (4.0, 5.5))
SURVEY_SCREENS = (((1.5, 2.0), (10.5, 6.0)), ((10.0, 7.0), (2.0, 1.0)), ((6.5, 7.2), (5.5, 0.8)))


def survey_room(seed: int, num_steps: int, time_step: float) -> tuple[Scenario, dict]:
    """2 access points x 4 walking receivers, 11 rays per pair and step, crossed
    by spheres and fixed-orientation screens that only obstruct."""
    rng = np.random.default_rng([seed, 8])
    duration = num_steps * time_step

    def jitter(xy, metres=0.3):
        return [round(float(v) + rng.uniform(-metres, metres), 6) for v in xy]

    surface_loss = rng.uniform(7.0, 9.0, size=len(FIRST_ORDER))
    txs = {0: _r6(jitter((3.0, 2.0)) + [2.6]), 1: _r6(jitter((9.0, 6.0)) + [2.6])}
    nodes: dict[int, np.ndarray] = {n: np.tile(p, (num_steps, 1)) for n, p in txs.items()}
    times = time_step * np.arange(num_steps)
    for rx_id, (a, b) in enumerate(SURVEY_WALKERS, start=2):
        z = rng.uniform(1.3, 1.5)
        start, end = np.array(jitter(a) + [z]), np.array(jitter(b) + [z])
        nodes[rx_id] = _r6(start + np.outer(times / duration, end - start))

    pairs = {}
    for tx_id, tx in txs.items():
        for rx_id in range(2, 2 + len(SURVEY_WALKERS)):
            steps = []
            for k in range(num_steps):
                rays = []
                for points, surfaces in image_paths(tx, nodes[rx_id][k]):
                    rays.append(make_ray(points, float(sum(surface_loss[s] for s in surfaces))))
                steps.append(rays)
            pairs[(tx_id, rx_id)] = steps
    scenario = Scenario(time_step=time_step, num_steps=num_steps, nodes=nodes, pairs=pairs)

    def linear(a, b, z):
        start, end = jitter(a) + [z], jitter(b) + [z]
        return {"kind": "linear", "start": start,
                "velocity": [round((e - s) / duration, 6) for s, e in zip(start, end)]}

    obstacles = []
    for a, b in SURVEY_SPHERES:
        obstacles.append({
            "shape": {"kind": "sphere", "radius": round(rng.uniform(0.3, 0.4), 6)},
            "mobility": linear(a, b, round(rng.uniform(1.6, 2.0), 6)),
            "model": {"kind": "obstruction", "loss_db": round(rng.uniform(12.0, 18.0), 6)},
        })
    waypoints = [[round(t, 6), jitter(xy) + [1.8]]
                 for t, xy in zip(np.linspace(0.2 * duration, 0.8 * duration, 4), SURVEY_WAYPOINTS)]
    obstacles.append({
        "shape": {"kind": "sphere", "radius": 0.4},
        "mobility": {"kind": "waypoints", "waypoints": waypoints},
        "model": {"kind": "obstruction", "loss_db": 15.0},
    })
    for i, (a, b) in enumerate(SURVEY_SCREENS):
        height = round(rng.uniform(1.7, 1.8), 6)
        obstacles.append({
            "shape": {"kind": "screen", "width": round(rng.uniform(0.5, 0.7), 6), "height": height,
                      "azimuth": round(i + rng.uniform(-0.2, 0.2), 6)},
            "mobility": linear(a, b, round(0.5 * height, 6)),
            "model": {"kind": "obstruction", "loss_db": round(rng.uniform(12.0, 18.0), 6)},
        })
    spec = {
        "obstacles": obstacles,
        "models_to_compare": [],
        "sampling": {"time_step": time_step, "num_steps": num_steps},
        "removal_floor_db": -125.0,
    }
    return scenario, spec


# ---------------------------------------------------------------------------
# the three workloads

CROWD_STEPS = 157               # one step in 20 of the criterion-11 walk
COMPARISON_STEPS = 24
SURVEY_STEPS = 120
SURVEY_TIME_STEP = 0.05


def build(name: str, seed: int) -> Workload:
    if name == "crowd_dked":
        scenario, spec = crowd_room(seed, CROWD_STEPS)
        return Workload(name, scenario, spec, check_workers=True, dked_samples=192)
    if name == "model_comparison":
        scenario, spec = crowd_room(seed, COMPARISON_STEPS, models_to_compare=MODELS)
        return Workload(name, scenario, spec, sweeps=("crossing", "position", "frequency"),
                        dked_samples=64)
    if name == "multi_pair_survey":
        scenario, spec = survey_room(seed, SURVEY_STEPS, SURVEY_TIME_STEP)
        return Workload(name, scenario, spec)
    raise KeyError(name)


NAMES = ("crowd_dked", "model_comparison", "multi_pair_survey")


# ---------------------------------------------------------------------------
# writing the scenario directory

def _angles_deg(direction: np.ndarray) -> tuple[float, float]:
    norm = float(np.linalg.norm(direction))
    return (math.degrees(math.asin(max(-1.0, min(1.0, direction[2] / norm)))),
            math.degrees(math.atan2(direction[1], direction[0])))


def write_scenario(scenario: Scenario, root: Path) -> None:
    qd_dir = root / "Output" / "Ns3" / "QdFiles"
    mpc_dir = root / "Output" / "Visualizer" / "MpcCoordinates"
    node_dir = root / "Output" / "Visualizer" / "NodePositions"
    for d in (qd_dir, mpc_dir, node_dir):
        d.mkdir(parents=True, exist_ok=True)
    f6 = "{:.6f}".format
    for (tx, rx), steps in scenario.pairs.items():
        lines = []
        for t, rays in enumerate(steps):
            lines.append(str(len(rays)))
            if rays:
                aod = [_angles_deg(r.vertices[1] - r.vertices[0]) for r in rays]
                aoa = [_angles_deg(r.vertices[-2] - r.vertices[-1]) for r in rays]
                lines.append(",".join(f"{r.delay:.12g}" for r in rays))
                lines.append(",".join(f6(r.gain) for r in rays))
                lines.append(",".join(f6(r.phase) for r in rays))
                for col in (aod, aoa):
                    lines.append(",".join(f6(a[0]) for a in col))
                    lines.append(",".join(f6(a[1]) for a in col))
            by_order: dict[int, list[Ray]] = {}
            for r in rays:
                by_order.setdefault(r.order, []).append(r)
            for order, group in by_order.items():
                rows = "\n".join(",".join(f6(c) for c in r.vertices.reshape(-1)) for r in group)
                (mpc_dir / f"MpcTx{tx}Rx{rx}Refl{order}Trc{t}.csv").write_text(rows + "\n")
        (qd_dir / f"Tx{tx}Rx{rx}.txt").write_text("\n".join(lines) + "\n")
    tx_nodes = {tx for tx, _ in scenario.pairs}
    for node, positions in scenario.nodes.items():
        role = "Tx" if node in tx_nodes else "Rx"
        rows = "\n".join(",".join(f6(c) for c in row) for row in positions)
        (node_dir / f"NodePositions{role}{node}.csv").write_text(rows + "\n")
    (root / "Output" / "Ns3" / "TimeStep.txt").write_text(f"{scenario.time_step:.12g}\n")


def write_spec(workload: Workload, scenario_dir: Path, output_dir: Path, path: Path) -> None:
    spec = {"scenario_dir": str(scenario_dir), "output_dir": str(output_dir)}
    spec.update(workload.spec)
    path.write_text(json.dumps(spec, indent=1) + "\n")

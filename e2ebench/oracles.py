"""Computations the output checks compare against, written apart from the program.

They follow the README and the module docstrings, not the code: blocking is
a sphere-to-segment distance or a segment-rectangle crossing, DKED uses
scipy's Fresnel integrals and the closed-form Fermat point of each lateral
edge, and the SNR is rebuilt from the documented link budget and array
layout. Where the documented rule leaves the outcome open (a value on a
tolerance boundary, an obstacle just beyond the distance threshold that an
implementation may or may not cull), the oracle reports the case as
ambiguous instead of guessing.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy import special

FAR_NU = 10.0 * math.sqrt(2.0)     # README: edges beyond ten Fresnel radii are asymptotic
LOSS_CAP_DB = 80.0
BOUNDARY_TOL = 1e-9                # README/geometry: inclusive boundaries at 1e-9 m
AMBIGUOUS_BAND = 1e-7              # metres around a blocking boundary


# ---------------------------------------------------------------------------
# reading a trace directory

_MPC_RE = re.compile(r"^MpcTx(\d+)Rx(\d+)Refl(\d+)Trc(\d+)\.csv$")


def read_trace(root: Path) -> dict:
    """{pair: [step -> dict(delay, gain, phase: lists, vertices: list of (n,3))]}."""
    qd_dir = root / "Output" / "Ns3" / "QdFiles"
    mpc = {}
    for path in (root / "Output" / "Visualizer" / "MpcCoordinates").iterdir():
        m = _MPC_RE.match(path.name)
        if m:
            mpc[tuple(int(g) for g in m.groups())] = path
    out = {}
    for path in sorted(qd_dir.glob("Tx*Rx*.txt")):
        tx, rx = (int(v) for v in re.findall(r"\d+", path.name))
        lines = path.read_text().splitlines()
        steps, i = [], 0
        while i < len(lines):
            count = int(lines[i])
            step = {"delay": [], "gain": [], "phase": [], "vertices": []}
            if count:
                step["delay"] = [float(v) for v in lines[i + 1].split(",")]
                step["gain"] = [float(v) for v in lines[i + 2].split(",")]
                step["phase"] = [float(v) for v in lines[i + 3].split(",")]
                i += 8
            else:
                i += 1
            steps.append(step)
        for t, step in enumerate(steps):
            for order in range(4):
                vpath = mpc.get((tx, rx, order, t))
                if vpath is not None:
                    for row in vpath.read_text().splitlines():
                        step["vertices"].append(
                            np.array([float(v) for v in row.split(",")]).reshape(-1, 3))
        out[(tx, rx)] = steps
    return out


# ---------------------------------------------------------------------------
# obstacle poses and exact distances

def position_at(mobility: dict, t: float) -> np.ndarray:
    kind = mobility["kind"]
    if kind == "static":
        return np.array(mobility["position"], dtype=float)
    if kind == "linear":
        return np.array(mobility["start"], dtype=float) + t * np.array(mobility["velocity"], dtype=float)
    times = [w[0] for w in mobility["waypoints"]]
    points = [np.array(w[1], dtype=float) for w in mobility["waypoints"]]
    if t <= times[0]:
        return points[0]
    if t >= times[-1]:
        return points[-1]
    i = max(j for j in range(len(times)) if times[j] <= t)
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return points[i] + frac * (points[i + 1] - points[i])


def point_segment_distance(p, a, b) -> float:
    e = b - a
    t = min(max(float(np.dot(p - a, e) / np.dot(e, e)), 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * e)))


def segment_segment_distance(a, b, c, d) -> float:
    """Minimum of |a + s(b-a) - c - t(d-c)| over the unit square, by candidates:
    the interior stationary point and the clamped projections on each side."""
    u, v, w = b - a, d - c, a - c
    uu, uv, vv, uw, vw = (float(np.dot(u, u)), float(np.dot(u, v)), float(np.dot(v, v)),
                          float(np.dot(u, w)), float(np.dot(v, w)))
    best = min(point_segment_distance(a, c, d), point_segment_distance(b, c, d),
               point_segment_distance(c, a, b), point_segment_distance(d, a, b))
    denom = uu * vv - uv * uv
    if denom > 1e-15 * uu * vv:
        s = (uv * vw - vv * uw) / denom
        t = (uu * vw - uv * uw) / denom
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            best = min(best, float(np.linalg.norm(w + s * u - t * v)))
    return best


def ortho_axes(start, end):
    """Width and height axes of a screen turned broadside to the segment
    (README: ortho_screen), or None for a vertical segment."""
    d = end - start
    horiz = math.hypot(d[0], d[1])
    if horiz < 1e-9 * float(np.linalg.norm(d)):
        return None
    return np.array([-d[1] / horiz, d[0] / horiz, 0.0]), np.array([0.0, 0.0, 1.0])


def fixed_axes(azimuth: float):
    """Screen with normal (cos az, sin az, 0): width axis horizontal, height axis +z."""
    return np.array([-math.sin(azimuth), math.cos(azimuth), 0.0]), np.array([0.0, 0.0, 1.0])


def plane_crossing(center, u, v, start, end):
    """(t, xu, xv) of the segment's crossing with the screen plane, or None if parallel."""
    n = np.cross(u, v)
    d = end - start
    denom = float(np.dot(d, n))
    if abs(denom) < 1e-9 * float(np.linalg.norm(d)):
        return None
    t = float(np.dot(center - start, n)) / denom
    r = start + t * d - center
    return t, float(np.dot(r, u)), float(np.dot(r, v))


def segment_rectangle_distance(center, u, v, hw, hh, start, end) -> float:
    cross = plane_crossing(center, u, v, start, end)
    if cross is not None:
        t, xu, xv = cross
        if 0.0 <= t <= 1.0 and abs(xu) <= hw and abs(xv) <= hh:
            return 0.0
    corners = [center + su * hw * u + sv * hh * v for su, sv in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    best = min(segment_segment_distance(start, end, corners[i], corners[(i + 1) % 4])
               for i in range(4))
    n = np.cross(u, v)
    for p in (start, end):
        r = p - center
        pu, pv = float(np.dot(r, u)), float(np.dot(r, v))
        du = max(abs(pu) - hw, 0.0)
        dv = max(abs(pv) - hh, 0.0)
        best = min(best, math.sqrt(du * du + dv * dv + float(np.dot(r, n)) ** 2))
    return best


# ---------------------------------------------------------------------------
# blocking (obstruction model)

def blocking(obstacle: dict, center, start, end) -> tuple[bool, bool]:
    """(blocked, ambiguous) of one segment against one obstacle pose."""
    shape = obstacle["shape"]
    if shape["kind"] == "sphere":
        gap = point_segment_distance(center, start, end) - shape["radius"]
        return gap <= BOUNDARY_TOL, abs(gap) < AMBIGUOUS_BAND
    axes = (ortho_axes(start, end) if shape["kind"] == "ortho_screen"
            else fixed_axes(shape.get("azimuth", 0.0)))
    if axes is None:
        return False, True
    cross = plane_crossing(center, axes[0], axes[1], start, end)
    if cross is None:
        return False, True
    t, xu, xv = cross
    length = float(np.linalg.norm(end - start))
    margins = (t * length, (1.0 - t) * length,
               0.5 * shape["width"] - abs(xu), 0.5 * shape["height"] - abs(xv))
    blocked = all(m >= -BOUNDARY_TOL for m in margins)
    return blocked, any(abs(m) < AMBIGUOUS_BAND for m in margins)


def segments(vertices: np.ndarray):
    return [(vertices[i], vertices[i + 1]) for i in range(vertices.shape[0] - 1)]


def obstruction_loss(obstacles, poses, vertices) -> tuple[list[float], bool]:
    """Per-obstacle summed obstruction loss of one ray, and whether any
    (segment, obstacle) sat on the blocking boundary. Screens that do not
    use the obstruction model count as obstruction at 10 dB, as
    models_to_compare does."""
    losses, ambiguous = [], False
    for obstacle, center in zip(obstacles, poses):
        model = obstacle["model"]
        loss_db = model.get("loss_db", 10.0) if model["kind"] == "obstruction" else 10.0
        total = 0.0
        for start, end in segments(vertices):
            blocked, amb = blocking(obstacle, center, start, end)
            ambiguous = ambiguous or amb
            if blocked:
                total += loss_db
        losses.append(total)
    return losses, ambiguous


# ---------------------------------------------------------------------------
# double knife-edge diffraction (README: dked)

def fresnel(nu: float) -> complex:
    s, c = special.fresnel(nu)
    return complex(c, s)


def sked(nu: float) -> complex:
    """Complex single knife-edge factor; exact asymptotes beyond the far-field cutoff."""
    if nu >= FAR_NU:
        return 0j
    if nu <= -FAR_NU:
        return 1 + 0j
    f = fresnel(nu)
    return 0.5 * (1 + 1j) * ((0.5 - f.real) - 1j * (0.5 - f.imag))


def fermat_distances(a, b, tx, rx) -> tuple[float, float]:
    """Point of edge [a, b] minimising |tx P| + |P rx|, in closed form: unfold the
    two nodes into a plane around the edge line, join them, clamp to the edge."""
    length = float(np.linalg.norm(b - a))
    e = (b - a) / length
    st, sr = float(np.dot(tx - a, e)), float(np.dot(rx - a, e))
    rt = float(np.linalg.norm(tx - a - st * e))
    rr = float(np.linalg.norm(rx - a - sr * e))
    s = 0.5 * (st + sr) if rt + rr == 0.0 else (st * rr + sr * rt) / (rt + rr)
    s = min(max(s, 0.0), length)
    return math.hypot(s - st, rt), math.hypot(s - sr, rr)


EDGE_POINT_TOL = 1e-6    # metres an implementation may misplace an edge's stationary point
FRESNEL_TOL = 1e-7       # absolute error allowed in C(nu), S(nu)
SCREEN_SLACK = 1e-4      # metres; obstacles module: slack of its far test


def dked_segment(obstacle: dict, center, start, end, wavelength: float):
    """(loss dB, amplitude, amplitude tolerance, status) of one segment
    against one ortho screen.

    status is "inside" (within the threshold: must be evaluated), "far"
    (provably beyond it: contributes nothing), "band" (beyond the threshold
    by less than half the screen width: the obstacles module bounds a
    screen's distance by its vertical centre line less half its width, so
    such a screen may be evaluated or culled), "vertical" or "edge" (nu or
    the amplitude on a rule's cut-off)."""
    w, h = obstacle["shape"]["width"], obstacle["shape"]["height"]
    hw, hh = 0.5 * w, 0.5 * h
    length = float(np.linalg.norm(end - start))
    thr = obstacle.get("threshold") or 10.0 * 0.5 * math.sqrt(wavelength * length)
    outer = thr + hw + SCREEN_SLACK + 1e-6
    if point_segment_distance(center, start, end) - 0.5 * math.hypot(w, h) > outer:
        return 0.0, 1.0, 0.0, "far"
    axes = ortho_axes(start, end)
    if axes is None:
        return 0.0, 1.0, 0.0, "vertical"
    u, v = axes
    dist = segment_rectangle_distance(center, u, v, hw, hh, start, end)
    if dist > outer:
        return 0.0, 1.0, 0.0, "far"
    status = "inside" if dist < thr - 1e-6 else "band"
    _, xu, _ = plane_crossing(center, u, v, start, end)
    total, amp_tol = 0j, 2.0 * FRESNEL_TOL
    for side, depth in ((-1.0, xu + hw), (1.0, hw - xu)):
        a = center + side * hw * u - hh * v
        b = center + side * hw * u + hh * v
        d1, d2 = fermat_distances(a, b, start, end)
        inv = 1.0 / d1 + 1.0 / d2
        nu = depth * math.sqrt(2.0 / wavelength * inv)
        if abs(abs(nu) - FAR_NU) < 1e-6:
            status = "edge"
        if abs(nu) < FAR_NU:
            # |d sked / d nu| = |F'(nu)| / sqrt(2) = 1/sqrt(2); nu moves by
            # |nu| / (2 inv) * (dd1 / d1^2 + dd2 / d2^2) when d1, d2 move by dd
            dnu = abs(nu) / (2.0 * inv) * EDGE_POINT_TOL * (1.0 / d1 ** 2 + 1.0 / d2 ** 2)
            amp_tol += dnu / math.sqrt(2.0)
        total += sked(nu)
    amplitude = abs(total)
    floor = 10.0 ** (-LOSS_CAP_DB / 20.0)
    if abs(amplitude - floor) < 2.0 * amp_tol:
        status = "edge"
    loss = LOSS_CAP_DB if amplitude <= floor else min(-20.0 * math.log10(amplitude), LOSS_CAP_DB)
    return loss, amplitude, amp_tol, status


def dked_ray_loss(obstacles, poses, vertices, wavelength: float):
    """(per-obstacle losses, tolerance dB, skip reason or None) of one ray."""
    losses, tol = [], 2e-6   # + exported gains carry 6 decimals
    for obstacle, center in zip(obstacles, poses):
        total = 0.0
        for start, end in segments(vertices):
            loss, amplitude, amp_tol, status = dked_segment(obstacle, center, start, end, wavelength)
            if status == "far":
                continue
            if status in ("vertical", "edge"):
                return None, None, status
            if status == "band" and abs(loss) > 1e-6:
                return None, None, "band"
            total += loss
            if loss < LOSS_CAP_DB:
                tol += 20.0 * math.log10(1.0 + amp_tol / max(amplitude - amp_tol, 1e-12))
        losses.append(total)
    return losses, tol, None


# ---------------------------------------------------------------------------
# link budget and SNR (README: "Beamforming in the SNR timelines")

def noise_dbm(budget: dict) -> float:
    return -174.0 + 10.0 * math.log10(budget["bandwidth_hz"]) + budget["noise_figure_db"]


def _angles(direction):
    norm = np.linalg.norm(direction, axis=-1)
    return np.arctan2(direction[..., 1], direction[..., 0]), np.arcsin(np.clip(direction[..., 2] / norm, -1, 1))


def steering(rows, cols, spacing, azimuth, elevation):
    """(n_rays, rows*cols) unit-norm planar-array responses; elements in the y-z
    plane, columns along y, rows along z, flattened row-major."""
    col = 2.0 * math.pi * spacing * np.cos(elevation) * np.sin(azimuth)
    row = 2.0 * math.pi * spacing * np.sin(elevation)
    r = np.arange(rows)[None, :, None]
    c = np.arange(cols)[None, None, :]
    phase = r * row[:, None, None] + c * col[:, None, None]
    return np.exp(1j * phase).reshape(len(azimuth), -1) / math.sqrt(rows * cols)


def snr_db(vertices: list, gains, delays, budget: dict) -> tuple[float, float, int, int]:
    """(SNR dB, tolerance dB, strongest ray, direct ray or -1) of one step."""
    if not vertices:
        return -math.inf, 0.0, -1, -1
    first = np.array([v[1] - v[0] for v in vertices])
    last = np.array([v[-2] - v[-1] for v in vertices])
    az_d, el_d = _angles(first)
    az_a, el_a = _angles(last)
    gains = np.asarray(gains, dtype=float)
    strongest = int(np.argmax(gains))
    direct = next((i for i, v in enumerate(vertices) if v.shape[0] == 2), -1)
    tx, rx = budget["tx_array"], budget["rx_array"]
    a_tx = steering(tx["rows"], tx["cols"], tx["spacing"], az_d, el_d)
    a_rx = steering(rx["rows"], rx["cols"], rx["spacing"], az_a, el_a)
    g_tx = a_tx @ a_tx[strongest].conj()
    g_rx = a_rx @ a_rx[strongest].conj()
    turns = budget["carrier_frequency_hz"] * np.asarray(delays, dtype=float)
    phase = -2.0 * math.pi * (turns - np.round(turns))
    terms = 10.0 ** (gains / 20.0) * np.exp(1j * phase) * g_tx * g_rx
    terms *= math.sqrt(tx["rows"] * tx["cols"] * rx["rows"] * rx["cols"])
    total = abs(terms.sum())
    if total <= 0.0:
        return -math.inf, 0.0, strongest, direct
    # exported gains carry 6 decimals: each term may differ by 1e-6 dB, and
    # cancellation between terms magnifies that in the sum
    tol = 1e-5 + 20.0 * math.log10(1.0 + 2e-7 * float(np.abs(terms).sum()) / total)
    return budget["tx_power_dbm"] + 20.0 * math.log10(total) - noise_dbm(budget), tol, strongest, direct


DEFAULT_BUDGET = {
    "carrier_frequency_hz": 60e9, "bandwidth_hz": 2.16e9, "tx_power_dbm": 20.0,
    "noise_figure_db": 10.0,
    "tx_array": {"rows": 8, "cols": 8, "spacing": 0.5},
    "rx_array": {"rows": 4, "cols": 4, "spacing": 0.5},
}

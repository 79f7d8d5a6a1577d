"""Output checks: every command's outputs against the oracles or against
properties the method must have. Each check returns a list of failure
messages (empty when the output is correct) and adds what it verified or
skipped to a Tally.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np

import oracles
from workloads import MODELS, WAVELENGTH, Workload

SNR_FORMAT_TOL = 3e-6     # two 6-decimal roundings
SYMMETRY_TOL_DB = 1e-3
FAILURES_SHOWN = 5


Tally = Counter   # counts of checked and skipped items, by name


# ---------------------------------------------------------------------------
# run: the exported trace

def _poses(workload: Workload, k: int) -> list[np.ndarray]:
    t = k * workload.scenario.time_step
    return [oracles.position_at(o["mobility"], t) for o in workload.spec["obstacles"]]


def expected_obstruction_gains(workload: Workload, pair, k: int):
    """Input gains minus the summed obstruction losses, obstacle by obstacle,
    and whether any (segment, obstacle) sat on a blocking boundary."""
    poses = _poses(workload, k)
    gains, ambiguous = [], False
    for ray in workload.scenario.pairs[pair][k]:
        losses, amb = oracles.obstruction_loss(workload.spec["obstacles"], poses, ray.vertices)
        ambiguous = ambiguous or amb
        gain = ray.gain
        for loss in losses:
            gain -= loss
        gains.append(gain)
    return gains, ambiguous


def dked_sample(workload: Workload, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng([seed, 5])
    steps = workload.scenario.num_steps
    rays = len(workload.scenario.pairs[(0, 1)][0])
    flat = rng.choice(steps * rays, size=min(workload.dked_samples, steps * rays), replace=False)
    return sorted((int(i) // rays, int(i) % rays) for i in flat)


def check_trace(workload: Workload, out_trace: Path, tally: Tally, seed: int) -> list[str]:
    errors = []
    exported = oracles.read_trace(out_trace)
    scenario = workload.scenario
    floor = workload.spec.get("removal_floor_db", -500.0)
    all_obstruction = all(o["model"]["kind"] == "obstruction" for o in workload.spec["obstacles"])
    if sorted(exported) != sorted(scenario.pairs):
        return [f"exported pairs {sorted(exported)} != input pairs {sorted(scenario.pairs)}"]
    for pair, steps in scenario.pairs.items():
        if len(exported[pair]) != scenario.num_steps:
            errors.append(f"{pair}: {len(exported[pair])} steps exported")
            continue
        for k, rays in enumerate(steps):
            got = exported[pair][k]
            if all_obstruction:
                gains, ambiguous = expected_obstruction_gains(workload, pair, k)
                if ambiguous or any(abs(g - floor) < 1e-6 for g in gains):
                    tally["gain_skipped_ambiguous"] += len(rays)
                    continue
                kept = [i for i, g in enumerate(gains) if g >= floor]
                tally["rays_dropped_expected"] += len(rays) - len(kept)
            else:
                gains, kept = None, list(range(len(rays)))
            if len(got["gain"]) != len(kept) or len(got["vertices"]) != len(kept):
                errors.append(f"{pair} step {k}: {len(got['gain'])} rays exported, "
                              f"{len(kept)} expected above the {floor} dB floor")
                continue
            for j, i in enumerate(kept):
                ray = rays[i]
                if (got["delay"][j] != ray.delay or got["phase"][j] != ray.phase
                        or not np.array_equal(got["vertices"][j], ray.vertices)):
                    errors.append(f"{pair} step {k} ray {i}: delay, phase or vertices changed")
                if got["gain"][j] < floor:
                    errors.append(f"{pair} step {k} ray {i}: exported below the floor")
                if gains is not None:
                    tally["gain_checked"] += 1
                    if abs(got["gain"][j] - gains[i]) > 1.5e-6:
                        errors.append(f"{pair} step {k} ray {i}: gain {got['gain'][j]:.6f}, "
                                      f"expected {gains[i]:.6f} from geometric blocking")
    if not all_obstruction:
        errors += _check_dked_sample(workload, exported, tally, seed)
    return errors


def _check_dked_sample(workload: Workload, exported, tally: Tally, seed: int) -> list[str]:
    errors = []
    for k, i in dked_sample(workload, seed):
        ray = workload.scenario.pairs[(0, 1)][k][i]
        losses, tol, reason = oracles.dked_ray_loss(workload.spec["obstacles"], _poses(workload, k),
                                                    ray.vertices, WAVELENGTH)
        if reason is not None:
            tally[f"dked_skipped_{reason}"] += 1
            continue
        tally["dked_checked"] += 1
        tally["dked_nonzero"] += any(loss != 0.0 for loss in losses)
        expected = ray.gain
        for loss in losses:
            expected -= loss
        got = exported[(0, 1)][k]["gain"][i]
        if abs(got - expected) > tol:
            errors.append(f"step {k} ray {i}: gain {got:.6f}, DKED oracle {expected:.6f} "
                          f"(tolerance {tol:.2e} dB)")
    return errors


# ---------------------------------------------------------------------------
# run: the SNR and loss timelines

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _snr_of(vertices, gains, delays, tally: Tally, label: str):
    snr, tol, strongest, direct = oracles.snr_db(vertices, gains, delays, oracles.DEFAULT_BUDGET)
    if direct >= 0 and direct != strongest:
        tally[f"snr_skipped_beam_target_{label}"] += 1
        return None
    return snr, tol


def check_timelines(workload: Workload, out_dir: Path, tally: Tally) -> list[str]:
    errors = []
    scenario = workload.scenario
    models = workload.spec["models_to_compare"]
    header, rows = _read_csv(out_dir / "snr_timeline.csv")
    want = ["tx_id", "rx_id", "t_seconds", "snr_db_baseline", "snr_db"] + [f"snr_db_{m}" for m in models]
    if header != want:
        return [f"snr_timeline.csv header {header}"]
    pairs = sorted(scenario.pairs)
    if len(rows) != len(pairs) * scenario.num_steps:
        return [f"snr_timeline.csv has {len(rows)} rows"]
    exported = oracles.read_trace(out_dir / "trace")
    col = {name: i for i, name in enumerate(header)}
    for r, row in enumerate(rows):
        pair, k = pairs[r // scenario.num_steps], r % scenario.num_steps
        t = k * scenario.time_step
        if (int(row[0]), int(row[1])) != pair or abs(float(row[2]) - t) > 1e-8 * max(t, 1.0):
            errors.append(f"snr row {r}: key {row[:3]}, expected {pair} t={t}")
            continue
        rays = scenario.pairs[pair][k]
        verts = [ray.vertices for ray in rays]
        delays = [ray.delay for ray in rays]
        cases = [("snr_db_baseline", "baseline", verts, [ray.gain for ray in rays], delays)]
        got = exported[pair][k]
        cases.append(("snr_db", "configured", got["vertices"], got["gain"], got["delay"]))
        if "obstruction" in models:
            gains, ambiguous = expected_obstruction_gains(workload, pair, k)
            if ambiguous:
                tally["snr_skipped_ambiguous"] += 1
            else:
                cases.append(("snr_db_obstruction", "obstruction", verts, gains, delays))
        for column, label, v, g, d in cases:
            ref = _snr_of(v, g, d, tally, label)
            if ref is None:
                continue
            tally["snr_checked"] += 1
            value = float(row[col[column]])
            if abs(value - ref[0]) > ref[1] + SNR_FORMAT_TOL:
                errors.append(f"snr row {r} {column}: {value:.6f}, recomputed {ref[0]:.6f}")
        if "dked" in models and row[col["snr_db_dked"]] != row[col["snr_db"]]:
            errors.append(f"snr row {r}: snr_db_dked differs from the configured dked run")
    for m in models:
        lheader, lrows = _read_csv(out_dir / f"loss_timeline_{m}.csv")
        if lheader != ["tx_id", "rx_id", "t_seconds", "loss_db"] or len(lrows) != len(rows):
            errors.append(f"loss_timeline_{m}.csv: header {lheader}, {len(lrows)} rows")
            continue
        for lrow, row in zip(lrows, rows):
            loss = float(row[col["snr_db_baseline"]]) - float(row[col[f"snr_db_{m}"]])
            if lrow[:3] != row[:3] or abs(float(lrow[3]) - loss) > SNR_FORMAT_TOL:
                errors.append(f"loss_timeline_{m}.csv row {lrow}: baseline - model = {loss:.6f}")
                break
        tally["loss_rows_checked"] += len(lrows)
    return errors


def tree_sha256(root: Path) -> str:
    """README: manifest trace hash over the scenario files, by relative path."""
    h = hashlib.sha256()
    files = sorted((p for p in root.rglob("*") if p.is_file()),
                   key=lambda p: p.relative_to(root).parts)
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_manifest(workload: Workload, out_dir: Path, spec_path: Path, scenario_sha: str) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    errors = []
    if manifest.get("spec_sha256") != hashlib.sha256(spec_path.read_bytes()).hexdigest():
        errors.append("manifest spec_sha256 does not hash the spec")
    if manifest.get("trace_sha256") != scenario_sha:
        errors.append("manifest trace_sha256 does not hash the scenario")
    outputs = sorted(["snr_timeline.csv", "trace"]
                     + [f"loss_timeline_{m}.csv" for m in workload.spec["models_to_compare"]])
    if manifest.get("outputs") != outputs:
        errors.append(f"manifest outputs {manifest.get('outputs')}")
    return errors


_COUNTS = {
    "rays_in": r"rays: (\d+) in", "rays_dropped": r"(\d+) dropped",
    "clamp_events": r"clamp events: (\d+)", "diffraction_evals": r"interactions: (\d+) diffraction",
    "obstruction_evals": r"(\d+) obstruction", "far_skips": r"(\d+) skipped far",
    "degenerate_skips": r"(\d+) degenerate",
}


def parse_run_stdout(text: str) -> dict:
    return {key: int(m.group(1)) for key, pattern in _COUNTS.items()
            if (m := re.search(pattern, text))}


def check_run_stdout(workload: Workload, counts: dict, tally: Tally) -> list[str]:
    errors = []
    rays = sum(len(r) for steps in workload.scenario.pairs.values() for r in steps)
    if counts.get("rays_in") != rays:
        errors.append(f"run printed {counts.get('rays_in')} rays in, the input has {rays}")
    expected_drops = tally.get("rays_dropped_expected")
    if expected_drops is not None and not tally.get("gain_skipped_ambiguous") \
            and counts.get("rays_dropped") != expected_drops:
        errors.append(f"run printed {counts.get('rays_dropped')} dropped rays, "
                      f"blocking predicts {expected_drops}")
    return errors


# ---------------------------------------------------------------------------
# sweeps (README defaults: 60 GHz, nodes 8 m apart at 1.6 m, 0.2 x 1.7 m screen)

SWEEP_TX = np.array([0.0, 0.0, 1.6])
SWEEP_RX = np.array([8.0, 0.0, 1.6])
SWEEP_SCREEN = {"shape": {"kind": "ortho_screen", "width": 0.2, "height": 1.7}}


def _sweep_blocked(center) -> tuple[bool, bool]:
    return oracles.blocking(SWEEP_SCREEN, np.asarray(center, dtype=float), SWEEP_TX, SWEEP_RX)


def _symmetric(values: list[float], label: str) -> list[str]:
    worst = max(abs(a - b) for a, b in zip(values, values[::-1]))
    return [] if worst <= SYMMETRY_TOL_DB else [f"{label}: asymmetric by {worst:.6f} dB"]


def _crossing_block(rows, col, label: str, tally: Tally) -> list[str]:
    errors = []
    offsets = [float(r[col["offset_m"]]) for r in rows]
    if any(abs(o + p) > 1e-9 for o, p in zip(offsets, offsets[::-1])):
        errors.append(f"{label}: offsets not symmetric about 0")
    for r, offset in zip(rows, offsets):
        blocked, ambiguous = _sweep_blocked((4.0, offset, 0.85))
        if ambiguous:
            tally["sweep_blocked_skipped_ambiguous"] += 1
            continue
        tally["sweep_blocked_checked"] += 1
        if r[col["blocked"]] != str(int(blocked)) or \
                float(r[col["loss_db_obstruction"]]) != (10.0 if blocked else 0.0):
            errors.append(f"{label} offset {offset}: blocked/obstruction "
                          f"{r[col['blocked']]}/{r[col['loss_db_obstruction']]}, geometry says {blocked}")
    for m in MODELS:
        errors += _symmetric([float(r[col[f"loss_db_{m}"]]) for r in rows], f"{label} {m}")
    return errors


def check_sweep(kind: str, path: Path, tally: Tally) -> list[str]:
    header, rows = _read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    losses = [f"loss_db_{m}" for m in MODELS]
    if kind == "crossing":
        if header != ["offset_m"] + losses + ["blocked"] or len(rows) != 751:
            return [f"crossing sweep: header {header}, {len(rows)} rows"]
        return _crossing_block(rows, col, "crossing", tally)
    if kind == "frequency":
        if header != ["frequency_ghz", "offset_m"] + losses + ["blocked"] or len(rows) != 4 * 751:
            return [f"frequency sweep: header {header}, {len(rows)} rows"]
        errors = []
        for b, ghz in enumerate((10.0, 30.0, 60.0, 100.0)):
            block = rows[b * 751:(b + 1) * 751]
            if any(float(r[0]) != ghz for r in block):
                errors.append(f"frequency sweep block {b}: not all at {ghz} GHz")
            errors += _crossing_block(block, col, f"frequency {ghz:g} GHz", tally)
        return errors
    if header != ["position_m"] + losses or len(rows) != 101:
        return [f"position sweep: header {header}, {len(rows)} rows"]
    errors = []
    positions = [float(r[0]) for r in rows]
    for x, want in zip(positions, np.linspace(0.25, 7.75, 101)):
        if abs(x - want) > 1e-6:
            errors.append(f"position sweep: position {x}, expected {want:.6f}")
            break
    for r, x in zip(rows, positions):
        blocked, ambiguous = _sweep_blocked((x, 0.0, 0.85))
        tally["sweep_blocked_checked"] += 1
        if ambiguous or not blocked or float(r[col["loss_db_obstruction"]]) != 10.0:
            errors.append(f"position sweep at {x}: obstruction {r[col['loss_db_obstruction']]}")
    for m in MODELS:
        errors += _symmetric([float(r[col[f"loss_db_{m}"]]) for r in rows], f"position {m}")
    return errors


def digest(path: Path) -> dict[str, str]:
    """Relative path -> sha256 of an output file or of every file under an
    output directory, for byte-identity checks."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    base = path if path.is_dir() else path.parent
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def describe(errors: list[str]) -> str:
    more = f" (+{len(errors) - FAILURES_SHOWN} more)" if len(errors) > FAILURES_SHOWN else ""
    return "; ".join(errors[:FAILURES_SHOWN]) + more

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line. Timed
criteria measure warm code: each exercises its kernels once before the
clock starts, so one-time costs such as imports are excluded.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import assert_traces_equal, build_dynamic_trace, build_los_trace, \
    fresnel_cs_grid, fresnel_integral_grid, make_ray
from rayblock.cli import main, run_crossing_sweep, run_frequency_sweep, \
    run_position_sweep
from rayblock.diffraction import Dked, Metis, Obstruction, dked_loss, fresnel_integral
from rayblock.environment import SimulationConfig, run as run_environment
from rayblock.linkeval import ArrayConfig, LinkBudget, noise_power_dbm, snr_timeline
from rayblock.obstacles import LinearMobility, Obstacle, OrthoScreenShape, SphereShape, \
    Static, interact
from rayblock.trace import RayTable, export_scenario, import_scenario

WAVELENGTH_60GHZ = 299792458.0 / 60e9
FIRST_FRESNEL_RADIUS = math.sqrt(WAVELENGTH_60GHZ * 16.0 / 8.0)  # midspan, 8 m link
DIFFRACTION_MODELS = ("metis", "dked", "dked_pc", "itu_se")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def crossing_table():
    return run_crossing_sweep()  # 60 GHz defaults, offsets -1.5..1.5 m step 4 mm


def test_criterion_1_fresnel_oracle():
    nus = np.round(np.arange(-10.0, 10.0 + 1e-12, 0.01), 10)
    fresnel_cs_grid(nus[:5])  # warm
    fresnel_integral_grid(nus[:5])
    start = time.perf_counter()
    c_fast, s_fast = fresnel_cs_grid(nus)
    c_ref, s_ref = fresnel_integral_grid(nus)
    elapsed = time.perf_counter() - start
    err_c = float(np.abs(c_fast - c_ref).max())
    err_s = float(np.abs(s_fast - s_ref).max())
    c1, s1 = fresnel_integral(1.0)
    f1_ok = abs(c1 - 0.7799) < 1e-3 and abs(s1 - 0.4383) < 1e-3
    ok = err_c < 2e-3 and err_s < 2e-3 and f1_ok and elapsed < 1.0
    report(1, ok, f"max|dC|={err_c:.2e}, max|dS|={err_s:.2e}, "
                  f"F(1)=({c1:.4f},{s1:.4f}), runtime={elapsed:.2f}s")


def test_criterion_2_knife_edge_landmark():
    loss = dked_loss(0.0, 50.0)
    ok = abs(loss - 6.02) <= 0.02
    report(2, ok, f"dked(0, 50) = {loss:.4f} dB (target 6.02 +/- 0.02)")


def test_criterion_3_crossing_reproduction(crossing_table):
    start = time.perf_counter()
    cols = run_crossing_sweep()  # timed rebuild, kernels already warm
    elapsed = time.perf_counter() - start

    offsets = cols["offset_m"]
    blocked = cols["blocked"].astype(bool)

    obstruction_values = {float(v) for v in np.round(cols["loss_db_obstruction"], 9)}
    a_ok = obstruction_values == {0.0, 10.0}

    clear = np.abs(offsets) - 0.1  # lateral clearance of the near edge
    far = clear > 10.0 * FIRST_FRESNEL_RADIUS
    far_max = max(float(np.abs(cols[f"loss_db_{m}"][far]).max())
                  for m in DIFFRACTION_MODELS)
    b_ok = far_max < 0.5

    peaks = {m: -float(cols[f"loss_db_{m}"][~blocked].min()) for m in ("dked", "dked_pc")}
    c_ok = all(0.5 <= p <= 2.5 for p in peaks.values())

    pc = cols["loss_db_dked_pc"][blocked]
    trough_excess = float(pc.max() - pc.mean())
    d_ok = trough_excess > 10.0

    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 5.0
    report(3, ok,
           f"obstruction={sorted(obstruction_values)}, far-field max={far_max:.3f} dB, "
           f"peaks={{dked: {peaks['dked']:.2f}, dked_pc: {peaks['dked_pc']:.2f}}} dB, "
           f"pc trough excess={trough_excess:.1f} dB, runtime={elapsed:.2f}s")


def test_criterion_4_position_symmetry():
    cols = run_position_sweep()
    mid = (len(cols["position_m"]) - 1) // 2
    details = []
    ok = True
    for m in DIFFRACTION_MODELS:
        v = cols[f"loss_db_{m}"]
        sym_err = float(np.abs(v - v[::-1]).max())
        strict_min = bool(np.all(np.delete(v, mid) > v[mid]))
        ok = ok and sym_err < 0.05 and strict_min
        details.append(f"{m}: sym {sym_err:.1e}, argmin {int(np.argmin(v))}")
    report(4, ok, "; ".join(details) + f" (midpoint index {mid})")


def test_criterion_5_frequency_ordering():
    table = run_frequency_sweep()
    freqs = (10.0, 30.0, 60.0, 100.0)
    details = []
    ok = True
    for m in DIFFRACTION_MODELS:
        means = []
        for f in freqs:
            mask = (table["frequency_ghz"] == f) & (table["blocked"].astype(bool))
            means.append(float(table[f"loss_db_{m}"][mask].mean()))
        increasing = all(b > a for a, b in zip(means, means[1:]))
        ok = ok and increasing
        details.append(f"{m}: " + "/".join(f"{v:.1f}" for v in means))
    report(5, ok, "mean in-shadow dB at 10/30/60/100 GHz -> " + "; ".join(details))


def test_criterion_6_environment_identity_and_sphere():
    tx, rx = (0.0, 0.0, 1.6), (8.0, 0.0, 1.6)
    steps = 40
    trace = build_los_trace(tx, rx, num_steps=steps, time_step=0.005)
    bounce = make_ray(tx, (4, 2.5, 1.4), rx, gain_db=-95.0)
    trace.pairs[(0, 1)] = RayTable.from_steps(
        [[trace.pairs[(0, 1)].rays(k)[0], bounce] for k in range(steps)])

    identity = run_environment(trace, SimulationConfig(obstacles=()))
    assert_traces_equal(identity, trace)

    sphere = Obstacle(shape=SphereShape(0.3), mobility=Static((4.0, 0.0, 1.6)),
                      model=Obstruction(10.0))
    out = run_environment(trace, SimulationConfig(obstacles=(sphere,)))
    gains_in = trace.pairs[(0, 1)].gain.reshape(steps, 2)
    gains_out = out.pairs[(0, 1)].gain.reshape(steps, 2)
    exact = (np.array_equal(gains_out[:, 0], gains_in[:, 0] - 10.0)
             and np.array_equal(gains_out[:, 1], gains_in[:, 1]))
    report(6, exact, "zero-obstacle identity holds; sphere lowers exactly the "
                     "blocked ray by exactly 10 dB at every step")


def test_criterion_7_trace_round_trip(tmp_path):
    from test_trace import build_mixed_trace

    first, second = tmp_path / "a", tmp_path / "b"
    export_scenario(build_mixed_trace(), first)
    loaded = import_scenario(first)
    export_scenario(loaded, second)
    again = import_scenario(second)
    assert_traces_equal(loaded, again)
    counts = [loaded.pairs[p].counts.tolist() for p in sorted(loaded.pairs)]
    report(7, True, f"2 pairs x 3 steps round-tripped, ray counts {counts}")


def test_criterion_8_link_budget():
    noise = noise_power_dbm(LinkBudget())
    trace = build_los_trace((0, 0, 1.6), (8, 0, 1.6), num_steps=1, time_step=1.0)
    small = snr_timeline(trace, (0, 1),
                         LinkBudget(tx_array=ArrayConfig(1, 1), rx_array=ArrayConfig(1, 1)))
    big = snr_timeline(trace, (0, 1), LinkBudget())
    gain = float(big[0, 1] - small[0, 1])
    ok = abs(noise - (-70.65)) <= 0.011 and abs(gain - 30.10) <= 0.01
    report(8, ok, f"noise={noise:.4f} dBm (target -70.65), "
                  f"array gain={gain:.4f} dB (target 30.10)")


def test_criterion_9_static_scenario_shape(crossing_table):
    trace = build_los_trace((1.0, 3.0, 1.6), (9.0, 3.0, 1.6),
                            num_steps=1500, time_step=0.0034)
    screen = Obstacle(shape=OrthoScreenShape(0.2, 1.7),
                      mobility=LinearMobility((5.0, 0.0, 0.85), (0.0, 1.2, 0.0)),
                      model=Dked())
    out = run_environment(trace, SimulationConfig(obstacles=(screen,)), workers=1)
    budget = LinkBudget()
    baseline = snr_timeline(trace, (0, 1), budget)[:, 1]
    snr = snr_timeline(out, (0, 1), budget)
    dip = np.nonzero(snr[:, 1] < baseline - 3.0)[0]
    center = 0.5 * (snr[dip[0], 0] + snr[dip[-1], 0])
    depth = float(baseline[dip].mean() - snr[dip, 1].mean())

    blocked = crossing_table["blocked"].astype(bool)
    reference = float(crossing_table["loss_db_dked"][blocked].mean())
    ok = abs(center - 2.5) <= 0.05 and abs(depth - reference) <= 3.0
    report(9, ok, f"dip window centered at {center:.3f} s (target 2.5 +/- 0.05), "
                  f"dip depth {depth:.2f} dB vs crossing-sweep mean {reference:.2f} dB")


def test_criterion_10_divergence_ordering():
    """Diffraction-vs-obstruction divergence grows as the obstacle nears the path.

    The absolute deltas reported for the source dynamic-room study depend on
    an unpublished ray-traced trace, so they are treated as qualitative
    expectations; only this ordering property is asserted.
    """
    ray = make_ray((0, 0, 1.6), (8, 0, 1.6))
    clearances = (0.6, 0.35, 0.18)  # approaching, never blocking
    divergences = {m: [] for m in ("metis", "dked")}
    for m, model in (("metis", Metis()), ("dked", Dked())):
        for clearance in clearances:
            # average over a short window: the lit-side fringes oscillate
            # through zero, but their envelope decays with clearance
            window = clearance + np.linspace(0.0, 0.08, 17)
            divs = []
            for near_edge in window:
                shared = dict(shape=OrthoScreenShape(0.2, 1.7),
                              mobility=Static((4.0, float(near_edge) + 0.1, 0.85)),
                              distance_threshold=1e9)
                diff = interact(Obstacle(model=model, **shared), ray, 0.0,
                                WAVELENGTH_60GHZ)
                obst = interact(Obstacle(model=Obstruction(10.0), **shared), ray, 0.0,
                                WAVELENGTH_60GHZ)
                assert not obst.blocked
                divs.append(abs(diff.loss_db - obst.loss_db))
            divergences[m].append(float(np.mean(divs)))
    ok = all(d[0] < d[1] < d[2] for d in divergences.values())
    report(10, ok, "mean divergence from constant obstruction at 0.6/0.35/0.18 m "
                   "clearance: "
                   + "; ".join(f"{m}: " + "/".join(f"{v:.3f}" for v in vals)
                               for m, vals in divergences.items())
                   + " (absolute source-study deltas documented as qualitative only)")


def test_criterion_11_determinism_and_runtime(tmp_path):
    scenario = tmp_path / "scenario"
    export_scenario(build_dynamic_trace(), scenario)

    obstacles = []
    for i in range(15):
        cross_time = 0.5 + 1.0 * i
        y = 0.1 + 0.93 * (0.6 + 1.2 * i)
        obstacles.append({
            "shape": {"kind": "ortho_screen", "width": 0.3, "height": 1.7},
            "mobility": {"kind": "linear",
                         "start": [5.0 - 1.2 * cross_time, round(y, 6), 0.85],
                         "velocity": [1.2, 0.0, 0.0]},
            "model": {"kind": "dked"},
        })
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scenario_dir": str(scenario),
        "output_dir": str(tmp_path / "unused"),
        "obstacles": obstacles,
        "models_to_compare": [],
        "sampling": {"time_step": 0.005, "num_steps": 3133},
    }))

    def run_once(label: str, workers: int) -> tuple[float, dict]:
        out_dir = tmp_path / label
        start = time.perf_counter()
        code = main(["run", str(spec_path), "--output-dir", str(out_dir),
                     "--workers", str(workers)])
        elapsed = time.perf_counter() - start
        assert code == 0
        contents = {
            str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()
        }
        return elapsed, contents

    _, single_a = run_once("single_a", 1)
    elapsed_single, single_b = run_once("single_b", 1)
    _, parallel_a = run_once("parallel_a", 2)
    elapsed_parallel, parallel_b = run_once("parallel_b", 2)

    identical = (single_a == single_b == parallel_a == parallel_b)
    ok = identical and elapsed_single < 60.0
    report(11, ok,
           f"4 runs byte-identical={identical} ({len(single_a)} files); "
           f"runtime single={elapsed_single:.1f}s, parallel={elapsed_parallel:.1f}s "
           f"(3133 steps x 16 rays x 15 obstacles, limit 60s)")

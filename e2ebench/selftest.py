"""Self-tests of the benchmark's checks and oracles.

    python3 e2ebench/selftest.py [--seed N]

Runs each check once on real program outputs (it must pass) and once on a
copy with one corruption (it must fail): one ray gain moved by 0.5 dB (in
an obstruction trace and in a DKED trace), two SNR rows swapped, one
asymmetric sweep row. Then checks that the oracles reproduce the
knife-edge grazing landmark and F(1). Exits 1 if anything is not as
expected.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
import time
from pathlib import Path

import run
import checks
import oracles
import workloads

RESULTS: list[bool] = []


def expect(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)


def cli_run(argv: list[str], out: Path) -> str:
    t = run.spawn(run.cli(*argv), out, time.monotonic() + 170.0, timed=False)
    if t.code != 0:
        raise SystemExit(f"rayblock {' '.join(argv)} exited {t.code}: {t.stdout[-500:]}")
    return t.stdout


def move_gain(trace_dir: Path, pair, step: int, ray: int, delta_db: float) -> None:
    path = trace_dir / "Output" / "Ns3" / "QdFiles" / f"Tx{pair[0]}Rx{pair[1]}.txt"
    lines = path.read_text().splitlines()
    i = 0
    for _ in range(step):
        i += 8 if int(lines[i]) else 1
    gains = lines[i + 2].split(",")
    gains[ray] = f"{float(gains[ray]) + delta_db:.6f}"
    lines[i + 2] = ",".join(gains)
    path.write_text("\n".join(lines) + "\n")


def run_workload(name: str, seed: int, work: Path) -> run.Bench:
    bench = run.Bench(name, seed, time.monotonic() + 170.0)
    bench.dir = work / name
    bench.write_inputs()
    out = bench.dir / "out"
    label, argv, _ = bench.commands(out)[0]
    bench.stdout = cli_run(argv, bench.dir / "run.stdout")
    bench.out = out / "run"
    return bench


def _checkable_gain(bench: run.Bench, seed: int):
    """(pair, step, ray) of a gain the trace check compares with its oracle."""
    wl = bench.workload
    if wl.dked_samples:
        for k, i in checks.dked_sample(wl, seed):
            ray = wl.scenario.pairs[(0, 1)][k][i]
            if oracles.dked_ray_loss(wl.spec["obstacles"], checks._poses(wl, k), ray.vertices,
                                     workloads.WAVELENGTH)[2] is None:
                return (0, 1), k, i
    pair = min(wl.scenario.pairs)
    for k in range(wl.scenario.num_steps):
        gains, ambiguous = checks.expected_obstruction_gains(wl, pair, k)
        if not ambiguous and all(g >= wl.spec["removal_floor_db"] for g in gains):
            return pair, k, 1
    raise SystemExit("no checkable gain in the workload")


def trace_checks(bench: run.Bench, seed: int) -> None:
    errors = checks.check_trace(bench.workload, bench.out / "trace", checks.Tally(), seed)
    expect(not errors, f"{bench.name}: exported trace passes ({checks.describe(errors)})")
    target = _checkable_gain(bench, seed)
    copy = bench.dir / "corrupt_gain"
    shutil.copytree(bench.out / "trace", copy)
    move_gain(copy, *target, 0.5)
    errors = checks.check_trace(bench.workload, copy, checks.Tally(), seed)
    expect(bool(errors), f"{bench.name}: gain of (pair, step, ray) {target} moved by 0.5 dB "
                         f"is rejected ({checks.describe(errors)})")


def snr_checks(bench: run.Bench) -> None:
    errors = checks.check_timelines(bench.workload, bench.out, checks.Tally())
    expect(not errors, f"{bench.name}: SNR and loss timelines pass ({checks.describe(errors)})")
    # two rows of the first pair whose baselines the check recomputes and differ
    scenario = bench.workload.scenario
    pair = min(scenario.pairs)
    rows = []
    for k in range(scenario.num_steps):
        rays = scenario.pairs[pair][k]
        snr, _, strongest, direct = oracles.snr_db([r.vertices for r in rays], [r.gain for r in rays],
                                                   [r.delay for r in rays], oracles.DEFAULT_BUDGET)
        if direct in (-1, strongest) and all(abs(snr - s) > 0.1 for _, s in rows):
            rows.append((k + 1, snr))   # +1: header line
        if len(rows) == 2:
            break
    (a, _), (b, _) = rows
    copy = bench.dir / "corrupt_snr"
    shutil.copytree(bench.out, copy)
    path = copy / "snr_timeline.csv"
    lines = path.read_text().splitlines()
    cells_a, cells_b = lines[a].split(","), lines[b].split(",")
    lines[a] = ",".join(cells_a[:3] + cells_b[3:])   # keys stay, values swap
    lines[b] = ",".join(cells_b[:3] + cells_a[3:])
    path.write_text("\n".join(lines) + "\n")
    errors = checks.check_timelines(bench.workload, copy, checks.Tally())
    expect(bool(errors), f"{bench.name}: SNR lines {a} and {b} swapped are rejected "
                         f"({checks.describe(errors)})")


def sweep_checks(work: Path) -> None:
    path = work / "crossing.csv"
    cli_run(["sweep", "crossing", "-o", str(path)], work / "sweep.stdout")
    errors = checks.check_sweep("crossing", path, checks.Tally())
    expect(not errors, f"crossing sweep passes ({checks.describe(errors)})")
    lines = path.read_text().splitlines()
    cells = lines[200].split(",")
    cells[3] = f"{float(cells[3]) + 0.5:.6f}"   # loss_db_dked at one offset
    lines[200] = ",".join(cells)
    bad = work / "crossing_asymmetric.csv"
    bad.write_text("\n".join(lines) + "\n")
    errors = checks.check_sweep("crossing", bad, checks.Tally())
    expect(bool(errors), f"one asymmetric crossing row is rejected ({checks.describe(errors)})")


def oracle_landmarks() -> None:
    grazing = -20.0 * math.log10(abs(oracles.sked(0.0) + oracles.sked(50.0)))
    expect(abs(grazing - 6.02) < 0.01, f"DKED oracle grazing landmark {grazing:.4f} dB (6.02)")
    f1 = oracles.fresnel(1.0)
    expect(abs(f1.real - 0.7799) < 1e-4 and abs(f1.imag - 0.4383) < 1e-4,
           f"F(1) = {f1.real:.4f} + {f1.imag:.4f}j (0.7799 + 0.4383j)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args()
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        oracle_landmarks()
        for name in ("multi_pair_survey", "crowd_dked"):
            bench = run_workload(name, args.seed, work)
            trace_checks(bench, args.seed)
            snr_checks(bench)
        sweep_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-tests as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

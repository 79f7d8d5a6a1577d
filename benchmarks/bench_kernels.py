"""Benchmark the hot kernels under the compiled and pure-numpy paths.

Runs itself in a subprocess as-is and, when numba is importable, again
with RAYBLOCK_NO_NUMBA=1, then prints a side-by-side table. Without numba
both runs would time the same numpy path, so it prints the one column.
Invoke from the repository root:

    python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _measure() -> dict:
    import numpy as np

    from rayblock import _kernels
    from rayblock.cli import SweepGeometry, run_crossing_sweep

    rng = np.random.default_rng(7)
    results = {"numba": _kernels.USING_NUMBA}

    nus = rng.uniform(-12, 12, 1_000_000)
    _kernels.fresnel_cs_batch(nus[:10])  # warm up / compile
    t0 = time.perf_counter()
    _kernels.fresnel_cs_batch(nus)
    results["fresnel_cs_batch_1e6"] = time.perf_counter() - t0

    starts = rng.uniform(0, 10, (200_000, 3))
    ends = starts + rng.uniform(-2, 2, (200_000, 3))
    point = np.array([5.0, 5.0, 1.0])
    _kernels.point_segment_distance_batch(point, starts[:10], ends[:10])
    t0 = time.perf_counter()
    _kernels.point_segment_distance_batch(point, starts, ends)
    results["segment_distances_2e5"] = time.perf_counter() - t0

    args = (0.0, 0.0, 0.0, 0.0, 0.0, 1.7, 4.0, -3.0, 1.6, 4.0, 3.0, 1.6)
    _kernels.fermat_on_segment(*args)
    t0 = time.perf_counter()
    for _ in range(20_000):
        _kernels.fermat_on_segment(*args)
    results["fermat_on_segment_2e4"] = time.perf_counter() - t0

    offsets = -1.5 + 0.01 * np.arange(301)
    run_crossing_sweep(SweepGeometry(), offsets[:5])
    t0 = time.perf_counter()
    run_crossing_sweep(SweepGeometry(), offsets)
    results["crossing_sweep_301"] = time.perf_counter() - t0

    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("compare", "single"), default="compare")
    args = parser.parse_args()

    if args.mode == "single":
        print(json.dumps(_measure()))
        return 0

    def measure(extra_env: dict) -> dict:
        out = subprocess.run(
            [sys.executable, __file__, "--mode", "single"],
            capture_output=True, text=True, env=dict(os.environ, **extra_env), check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    default = measure({})
    keys = [k for k in default if k != "numba"]
    width = max(len(k) for k in keys)
    if not default["numba"]:
        print("note: numba unavailable, timing the numpy path only")
        print(f"{'kernel':<{width}}  {'numpy [s]':>10}")
        for key in keys:
            print(f"{key:<{width}}  {default[key]:10.4f}")
        return 0

    numpy_only = measure({"RAYBLOCK_NO_NUMBA": "1"})
    print(f"{'kernel':<{width}}  {'numba [s]':>10}  {'numpy [s]':>10}  {'speedup':>8}")
    for key in keys:
        a, b = default[key], numpy_only[key]
        print(f"{key:<{width}}  {a:10.4f}  {b:10.4f}  {b / a:7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

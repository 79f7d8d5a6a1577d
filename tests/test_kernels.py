"""Kernels: compiled vs pure-numpy paths agree, the env flag selects them, and
the batch geometry kernels match brute-force oracles row by row."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rayblock import _kernels

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import json
import numpy as np
from rayblock import _kernels

nus = np.linspace(-8, 8, 41)
c, s = _kernels.fresnel_cs_batch(nus)
d, t = _kernels.point_segment_distance(0.3, 2.0, -1.0, 0.0, 0.0, 0.0, 4.0, 1.0, 2.0)
d_tx, d_rx = _kernels.fermat_on_segment_batch(
    np.array([[2.0, -0.5, 0.0]]), np.array([[2.0, 0.5, 3.4]]),
    np.array([[0.0, 0.0, 1.6]]), np.array([[8.0, 0.0, 1.6]]))
print(json.dumps({
    "numba": _kernels.USING_NUMBA,
    "c": c.tolist(), "s": s.tolist(),
    "dist": [d, t], "fermat": [float(d_tx[0]), float(d_rx[0])],
}))
"""


def _probe(no_numba: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    if no_numba:
        env["RAYBLOCK_NO_NUMBA"] = "1"
    else:
        env.pop("RAYBLOCK_NO_NUMBA", None)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_env_flag_selects_pure_python_path():
    fallback = _probe(no_numba=True)
    assert fallback["numba"] is False
    default = _probe(no_numba=False)
    # whatever path the default picks, the numbers must match the fallback
    np.testing.assert_allclose(fallback["c"], default["c"], atol=1e-12)
    np.testing.assert_allclose(fallback["s"], default["s"], atol=1e-12)
    np.testing.assert_allclose(fallback["dist"], default["dist"], atol=1e-12)
    np.testing.assert_allclose(fallback["fermat"], default["fermat"], atol=1e-9)


def test_batch_distance_matches_scalar(rng):
    starts = rng.uniform(-5, 5, (200, 3))
    ends = starts + rng.uniform(-3, 3, (200, 3))
    point = rng.uniform(-5, 5, 3)
    points = rng.uniform(-5, 5, (200, 3))
    batch = _kernels.point_segment_distance_batch(point, starts, ends)
    per_row = _kernels.point_segment_distance_batch(points, starts, ends)
    for i in range(200):
        d, _ = _kernels.point_segment_distance(*point, *starts[i], *ends[i])
        assert batch[i] == d
        d, _ = _kernels.point_segment_distance(*points[i], *starts[i], *ends[i])
        assert per_row[i] == d


def test_line_segment_distance_vs_brute_force(rng):
    p = rng.uniform(-3, 3, (100, 3))
    d = rng.uniform(-1, 1, (100, 3))
    a = rng.uniform(-4, 4, (100, 3))
    b = rng.uniform(-4, 4, (100, 3))
    b[:10] = a[:10] + 2.0 * d[:10]  # parallel pairs take the other branch
    distances = _kernels.line_segment_distance_batch(p, d, a, b)
    for p, d, a, b, got in zip(p, d, a, b, distances):
        if np.linalg.norm(d) < 1e-3:
            continue
        ts = np.linspace(-60, 60, 4001)
        ss = np.linspace(0, 1, 401)
        line_pts = p[None, :] + ts[:, None] * d[None, :]
        seg_pts = a[None, :] + ss[:, None] * (b - a)[None, :]
        brute = np.min(np.linalg.norm(line_pts[:, None, :] - seg_pts[None, :, :], axis=2))
        assert got <= brute + 1e-9
        assert got == pytest.approx(brute, abs=2e-2)  # brute grid is coarse


def test_segment_segment_distance_vs_brute_force(rng):
    rows = []
    for trial in range(300):
        a, b = rng.uniform(-3, 3, (2, 3))
        if trial % 3 == 0:  # near-parallel pairs stress the branch cutoff
            c = a + rng.uniform(-1, 1, 3)
            d = c + (b - a) * rng.uniform(0.2, 2.0) + rng.normal(0, 1e-6, 3)
        else:
            c, d = rng.uniform(-3, 3, (2, 3))
        rows.append((a, b, c, d))
    a, b, c, d = (np.array(column) for column in zip(*rows))
    distances = _kernels.segment_segment_distance_batch(a, b, c, d)
    for a, b, c, d, got in zip(a, b, c, d, distances):
        ss = np.linspace(0, 1, 301)
        p1 = a[None, :] + ss[:, None] * (b - a)[None, :]
        p2 = c[None, :] + ss[:, None] * (d - c)[None, :]
        brute = np.min(np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=2))
        # the sampled minimum upper-bounds the true one; the far-rejection
        # safety slack must cover any suboptimality of the computed value
        assert got <= brute + 1e-4
        assert got == pytest.approx(brute, abs=3e-2)


def test_knife_edge_loss_reference_points():
    assert _kernels.knife_edge_loss_db(-1.0) == 0.0
    assert _kernels.knife_edge_loss_db(0.0) == pytest.approx(6.03, abs=0.01)
    # deep shadow asymptote ~ 13 + 20 log10(nu)
    assert _kernels.knife_edge_loss_db(10.0) == pytest.approx(13.0 + 20.0, abs=0.3)

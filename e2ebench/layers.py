"""Per-layer metrics of one traced round, from cProfile statistics.

The layers are the rayblock modules. A module's self time is the summed
own time of its functions (builtins are not profiled separately, so a
math call counts toward the function that makes it). Everything outside
the package and this harness (numpy, scipy, pathlib, the interpreter) is
`other`.
"""

from __future__ import annotations

import pstats
from pathlib import Path

PACKAGE = "rayblock"
MODULES = ("trace", "environment", "obstacles", "_kernels", "diffraction", "linkeval", "cli")
LOSS_FUNCTIONS = ("dked_loss", "dked_pc_loss", "metis_loss", "itu_se_loss")


def _module(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == PACKAGE and path.stem in MODULES:
        return path.stem
    return None


class Profile:
    """Summed statistics of the profiled commands of one round."""

    def __init__(self, harness_dir: Path):
        self.harness = str(harness_dir)
        self.stats: dict = {}

    def add(self, path: Path) -> None:
        for key, (cc, nc, tt, ct, callers) in pstats.Stats(str(path)).stats.items():
            if key in self.stats:
                old = self.stats[key]
                merged = dict(old[4])
                for caller, counts in callers.items():
                    merged[caller] = tuple(a + b for a, b in zip(merged.get(caller, (0,) * 4), counts))
                self.stats[key] = (old[0] + cc, old[1] + nc, old[2] + tt, old[3] + ct, merged)
            else:
                self.stats[key] = (cc, nc, tt, ct, dict(callers))

    def _entries(self, module: str, function: str):
        return [v for (f, _, name), v in self.stats.items()
                if name == function and _module(f) == module]

    def calls(self, module: str, function: str) -> int:
        return sum(v[1] for v in self._entries(module, function))

    def cumulative(self, module: str, function: str) -> float:
        # a function's own recursion never nests here, so cumulative times add
        return sum(v[3] for v in self._entries(module, function))

    def self_time(self, module: str) -> float:
        return sum(v[2] for (f, _, _), v in self.stats.items() if _module(f) == module)

    def other_self_time(self) -> float:
        return sum(v[2] for (f, _, _), v in self.stats.items()
                   if _module(f) is None and not f.startswith(self.harness))

    def calls_from(self, callee_name: str, caller_module: str, caller_name: str | None = None,
                   callee_module: str | None = None) -> int:
        """Calls of any function named callee_name made from caller_module
        (optionally from one function of it)."""
        total = 0
        for (f, _, name), (_, _, _, _, callers) in self.stats.items():
            if name != callee_name or (callee_module and _module(f) != callee_module):
                continue
            for (cf, _, cname), counts in callers.items():
                if _module(cf) == caller_module and caller_name in (None, cname):
                    total += counts[1]
        return total


def metrics(run: Profile, everything: Profile, printed: dict, extra: dict) -> dict:
    """Per-layer metric name -> (value, unit). `run` covers the run command
    only; `everything` covers every command of the round."""
    p = everything
    evals = printed.get("diffraction_evals", 0) + printed.get("obstruction_evals", 0)
    far = printed.get("far_skips", 0)
    out = {
        "trace.import_s": (p.cumulative("trace", "import_scenario"), "s"),
        "trace.export_s": (p.cumulative("trace", "export_scenario"), "s"),
        "trace.files_read": (p.calls_from("read_text", "trace"), "count"),
        "trace.files_written": (p.calls_from("write_text", "trace"), "count"),
        "trace.bytes_written": (extra["trace_bytes_written"], "B"),
        "environment.run_calls": (p.calls("environment", "run"), "count"),
        "environment.run_s": (p.cumulative("environment", "run"), "s"),
        "environment.self_s": (p.self_time("environment"), "s"),
        "environment.cull_candidates": (
            run.calls_from("screen_beyond_threshold", "environment", "_step_gains")
            + run.calls_from("point_segment_distance", "obstacles", "_segment_outcome",
                             callee_module="_kernels"), "count"),
        "environment.cull_pass_ratio": (evals / (evals + far) if evals + far else 0.0, "ratio"),
        "obstacles.self_s": (p.self_time("obstacles"), "s"),
        "obstacles.evaluations": (evals, "count"),
        "obstacles.far_skips": (far, "count"),
        "obstacles.degenerate_skips": (printed.get("degenerate_skips", 0), "count"),
        "obstacles.interact_calls": (p.calls("obstacles", "interact"), "count"),
        "obstacles.nonzero_loss_ratio": (extra["nonzero_loss_ratio"], "ratio"),
        "kernels.fermat_on_segment.calls": (p.calls("_kernels", "fermat_on_segment"), "count"),
        "kernels.fermat_on_segment.self_s": (p.cumulative("_kernels", "fermat_on_segment"), "s"),
        "kernels.point_segment_distance_batch.calls": (
            p.calls("_kernels", "point_segment_distance_batch"), "count"),
        "kernels.point_segment_distance_batch.self_s": (
            p.cumulative("_kernels", "point_segment_distance_batch"), "s"),
        "kernels.segment_segment_distance.calls": (
            p.calls("_kernels", "segment_segment_distance"), "count"),
        "kernels.fresnel_cs.calls": (p.calls("_kernels", "fresnel_cs"), "count"),
        "kernels.self_s": (p.self_time("_kernels"), "s"),
        "kernels.using_numba": (extra["using_numba"], "flag"),
        "diffraction.self_s": (p.self_time("diffraction"), "s"),
        "diffraction.clamp_events": (extra["clamp_events"], "count"),
        "linkeval.snr_timeline.calls": (p.calls("linkeval", "snr_timeline"), "count"),
        "linkeval.snr_timeline_s": (p.cumulative("linkeval", "snr_timeline"), "s"),
        "linkeval.steering_vector.calls": (p.calls("linkeval", "steering_vector"), "count"),
        "linkeval.self_s": (p.self_time("linkeval"), "s"),
        "cli.self_s": (p.self_time("cli"), "s"),
        "cli.sweep_s": (extra["sweep_s"], "s"),
        "cli.hash_s": (p.cumulative("cli", "_sha256_tree") + p.cumulative("cli", "_sha256_file"), "s"),
        "other.self_s": (p.other_self_time(), "s"),
    }
    for name in LOSS_FUNCTIONS + ("sked",):
        out[f"diffraction.{name}.calls"] = (p.calls("diffraction", name), "count")
    return out


def loss_calls(run: Profile) -> int:
    return sum(run.calls("diffraction", name) for name in LOSS_FUNCTIONS)

"""One round of rayblock commands in a single process, optionally profiled.

    python3 e2ebench/inproc.py REQUEST.json

The request names an output directory, whether to profile, and the
commands as `rayblock.cli.main` argument lists. Each command's stdout goes
to <out>/<label>.stdout; with profiling, its cProfile statistics go to
<out>/<label>.pstats. <out>/result.json holds the exit codes, each
command's CPU time and the counts the profiler cannot see.

The profiler's clock is process CPU time: the benchmark shares this
process's CPU with its reference loop, so wall time would count the
loop's turns too.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import sys
import time
from pathlib import Path


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    out = Path(request["out"])
    import rayblock.cli
    from rayblock import _kernels, diffraction, environment, obstacles

    original = obstacles._segment_outcome
    counts = {"evaluations": 0, "nonzero": 0}

    def counting(*args, **kwargs):
        # span around the call from environment/obstacles into one
        # (segment, obstacle) evaluation, to count useful outcomes
        outcome = original(*args, **kwargs)
        counts["evaluations"] += 1
        counts["nonzero"] += outcome.loss_db != 0.0
        return outcome

    result = {"codes": {}, "cpu_s": {}, "using_numba": int(_kernels.USING_NUMBA)}
    clamps_before = diffraction.diagnostics.total
    for label, argv in request["commands"]:
        start = time.process_time()
        with open(out / f"{label}.stdout", "w") as fh, contextlib.redirect_stdout(fh):
            if request["profile"]:
                profiler = cProfile.Profile(time.process_time, builtins=False)
                environment._segment_outcome = obstacles._segment_outcome = counting
                try:
                    code = profiler.runcall(rayblock.cli.main, argv)
                finally:
                    environment._segment_outcome = obstacles._segment_outcome = original
                profiler.dump_stats(out / f"{label}.pstats")
            else:
                code = rayblock.cli.main(argv)
        result["cpu_s"][label] = time.process_time() - start
        result["codes"][label] = code
    result.update(counts, clamp_events=diffraction.diagnostics.total - clamps_before)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the `rayblock` command line.

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The workload's inputs are generated from the
seed (untimed, without the program), then whole rounds of the workload's
commands run as a user would run them (`python3 -m rayblock.cli ...
--workers 1`), one at a time, until --seconds have passed. Every command's
outputs are checked against computations made apart from the program.

Each timed value is host-calibrated (see spawn) and stays in seconds. The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the round also runs in one process under
cProfile (inproc.py) and the metrics are per layer (per rayblock module).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
TIME_LIMIT_S = 170.0          # whole process, including set-up and checks

# The reference loop: fixed, single-threaded, pure-Python work close in kind
# to the program's hot paths (scalar float math, calls, list access). Its
# nominal CPU time is its median on the reference host (README).
REF_ITERATIONS = 4000
REF_NOMINAL_S = 0.001
REF_IDLE_S = 0.003            # pause after each loop: the command gets ~3/4 of the CPU


def _ref_step(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) + 0.5 * x


def reference_loop() -> None:
    acc = [0.0, 1.0]
    for i in range(REF_ITERATIONS):
        acc[0] = _ref_step(acc[1], i * 1e-3) * 1e-6
        acc[1] = acc[0] + (i & 7)


@dataclass
class Timed:
    code: int
    cpu_s: float        # the child's user CPU time
    sys_s: float        # the child's system CPU time (not calibrated, see spawn)
    ref_s: float        # CPU time of one reference loop while the child ran
    rss_mb: float       # the child's peak resident set
    stdout: str

    @property
    def factor(self) -> float:
        return REF_NOMINAL_S / self.ref_s

    @property
    def calibrated_s(self) -> float:
        return self.cpu_s * self.factor


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_CPUS = os.sched_getaffinity(0)   # before main() pins this process to one


def _all_cpus() -> None:
    os.sched_setaffinity(0, _CPUS)


def spawn(argv: list[str], stdout_path: Path, deadline: float, timed: bool = True,
          all_cpus: bool = False) -> Timed:
    """Run one process to its end, killing it at the deadline.

    Calibration (timed=True): this process and the child share one CPU,
    and while the child runs this process repeats the reference loop. The
    host's slow-downs come and go within a second and differ between CPUs,
    so a loop timed before and after a command of several seconds, or on
    the other CPU, misses them; a loop interleaved with the command on its
    own CPU sees the same ones, sampled every few milliseconds. The
    child's user CPU time divided by the loop's CPU time, times the loop's
    nominal time, is the calibrated value.

    System time is left out of it: it follows the disk's state (see
    fresh_outputs) more than the program (0.1 to 1.9 s for the same
    multi_pair_survey run)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_env(), cwd=REPO,
                                preexec_fn=_all_cpus if all_cpus else None)
    loops, start = 0, time.process_time()
    while True:
        if timed:
            reference_loop()
            loops += 1
            time.sleep(REF_IDLE_S)
        else:
            time.sleep(0.01)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
    ref = (time.process_time() - start) / loops if loops else math.nan  # sleeping uses no CPU
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(proc.returncode, usage.ru_utime, usage.ru_stime, ref, usage.ru_maxrss / 1024.0,
                 stdout_path.read_text(errors="replace"))


def fresh_outputs(paths: list[Path]) -> float:
    """Outputs are overwritten in place, round after round and run after run,
    instead of being deleted: on an ext4 disk mounted with `discard`,
    deleting thousands of files makes the next writes cost up to ten times
    the system time. Returns the time before which a file is stale; call
    drop_stale with it once the writers are done."""
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    since = time.time()
    time.sleep(0.02)   # file times come from a clock that may lag by a tick
    return since


def drop_stale(path: Path, since: float) -> None:
    """Delete what an earlier round or run left at `path` and nothing rewrote."""
    files = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else [path]
    for p in files:
        if p.exists() and p.stat().st_mtime < since:
            p.unlink()


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "rayblock.cli", *args]


class Bench:
    def __init__(self, name: str, seed: int, deadline: float):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.dir = WORK / name
        self.workload = workloads.build(name, seed)
        self.tally = checks.Tally()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict] = {}   # command -> digest of its first outputs
        self.verdict: dict[str, bool] = {}     # command -> first outputs passed the checks
        self.refs: list[float] = []            # reference-loop times seen

    def write_inputs(self) -> None:
        self.scenario_dir = self.dir / "scenario"
        self.spec_path = self.dir / "spec.json"
        since = fresh_outputs([self.scenario_dir, self.spec_path])
        workloads.write_scenario(self.workload.scenario, self.scenario_dir)
        workloads.write_spec(self.workload, self.scenario_dir, self.dir / "unused", self.spec_path)
        drop_stale(self.scenario_dir, since)
        self.scenario_sha = checks.tree_sha256(self.scenario_dir)

    def commands(self, out: Path, workers: int = 1) -> list[tuple[str, list[str], Path]]:
        """(label, rayblock arguments, output path) of one round."""
        cmds = [("run", ["run", str(self.spec_path), "--output-dir", str(out / "run"),
                         "--workers", str(workers)], out / "run")]
        for kind in self.workload.sweeps:
            path = out / f"sweep_{kind}.csv"
            cmds.append((f"sweep_{kind}", ["sweep", kind, "-o", str(path)], path))
        return cmds

    # checks ---------------------------------------------------------------
    def check(self, label: str, code: int, stdout: str, path: Path) -> None:
        """One operation: a command's exit code and outputs. The first
        outputs of each command get every check; later ones must be
        byte-identical to them (and so share their verdict)."""
        self.attempted += 1
        if code != 0:
            self._fail(label, f"exit code {code}: {stdout.strip()[-300:]}")
            return
        digest = checks.digest(path)
        if label not in self.reference:
            errors = self._full_check(label, stdout, path)
            self.reference[label], self.verdict[label] = digest, not errors
            if errors:
                self._fail(label, checks.describe(errors))
            return
        self.tally["outputs_compared_bytes"] += 1
        if digest != self.reference[label]:
            self._fail(label, "outputs differ from the first round's")
        elif not self.verdict[label]:
            self._fail(label, "same outputs as the first round, which failed its checks")

    def _full_check(self, label: str, stdout: str, path: Path) -> list[str]:
        if label.startswith("sweep_"):
            return checks.check_sweep(label[len("sweep_"):], path, self.tally)
        errors = checks.check_trace(self.workload, path / "trace", self.tally, self.seed)
        errors += checks.check_timelines(self.workload, path, self.tally)
        errors += checks.check_manifest(self.workload, path, self.spec_path, self.scenario_sha)
        errors += checks.check_run_stdout(self.workload, checks.parse_run_stdout(stdout), self.tally)
        return errors

    def _fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")
        print(f"FAILED {self.name} {label}: {message}", flush=True)

    # rounds ---------------------------------------------------------------
    def cli_round(self) -> tuple[float, float, float, float]:
        """(user CPU s, calibrated s, peak RSS MB, system CPU s) of one round
        of CLI processes."""
        out = self.dir / "out"
        cmds = self.commands(out)
        since = fresh_outputs([path for _, _, path in cmds])
        runs = []
        for label, argv, path in cmds:
            runs.append((label, spawn(cli(*argv), out / f"{label}.stdout", self.deadline), path))
        for label, t, path in runs:
            drop_stale(path, since)
            self.refs.append(t.ref_s)
            self.check(label, t.code, t.stdout, path)
        return (sum(t.cpu_s for _, t, _ in runs), sum(t.calibrated_s for _, t, _ in runs),
                max(t.rss_mb for _, t, _ in runs), sum(t.sys_s for _, t, _ in runs))

    def workers_check(self) -> None:
        """--workers 2 (the process pool) must give the single-worker bytes."""
        out = self.dir / "workers2"
        label, argv, path = self.commands(out, workers=2)[0]
        since = fresh_outputs([path])
        t = spawn(cli(*argv), out / "run.stdout", self.deadline, timed=False, all_cpus=True)
        drop_stale(path, since)
        self.attempted += 1
        self.tally["workers_invariance_checked"] += 1
        if t.code != 0:
            self._fail("workers2", f"exit code {t.code}: {t.stdout.strip()[-300:]}")
        elif checks.digest(path) != self.reference["run"]:
            self._fail("workers2", "--workers 2 outputs differ from --workers 1")

    def inproc_round(self, profile: bool):
        """One round through rayblock.cli.main in one process (inproc.py);
        returns (Timed, its result dict or None, output dir)."""
        out = self.dir / "inproc"
        cmds = self.commands(out)
        since = fresh_outputs([path for _, _, path in cmds])
        request = out / "request.json"
        request.write_text(json.dumps({"out": str(out), "profile": profile,
                                       "commands": [[label, argv] for label, argv, _ in cmds]}))
        t = spawn([sys.executable, str(BENCH / "inproc.py"), str(request)], out / "inproc.stdout",
                  self.deadline)
        self.refs.append(t.ref_s)
        if t.code != 0:
            self.attempted += len(cmds)
            for label, _, _ in cmds:
                self._fail(label, f"in-process round exited {t.code}: {t.stdout.strip()[-300:]}")
            return t, None, out
        result = json.loads((out / "result.json").read_text())
        for label, _, path in cmds:
            drop_stale(path, since)
            self.check(label, result["codes"][label], (out / f"{label}.stdout").read_text(), path)
        return t, result, out


def measure_setup(deadline: float) -> Timed:
    """A fresh interpreter importing rayblock.cli, from its start to its exit."""
    t = spawn([sys.executable, "-c", "import rayblock.cli"], WORK / f"setup-{os.getpid()}.out", deadline)
    (WORK / f"setup-{os.getpid()}.out").unlink()
    if t.code != 0:
        print(f"error: cannot import rayblock.cli from {SRC}: {t.stdout.strip()[-500:]}", file=sys.stderr)
        raise SystemExit(2)
    return t


def untraced(bench: Bench, seconds: float) -> dict:
    rounds, start = [], time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(bench.cli_round())
        raw, cal, rss, sys_s = rounds[-1]
        print(f"round {len(rounds)}: user CPU {raw:.4f} s, calibrated {cal:.4f} s, "
              f"system CPU {sys_s:.4f} s, peak RSS {rss:.1f} MB, "
              f"reference loop {bench.refs[-1] * 1e3:.4f} ms", flush=True)
    if bench.workload.check_workers:
        bench.workers_check()
    return {
        "round_s": {"value": statistics.median(r[1] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r[2] for r in rounds), "unit": "MB"},
    }


def _profiled_metrics(bench: Bench, t: Timed, result: dict, out: Path) -> dict:
    run_prof, all_prof = layers.Profile(BENCH), layers.Profile(BENCH)
    for label, _, _ in bench.commands(out):
        all_prof.add(out / f"{label}.pstats")
        if label == "run":
            run_prof.add(out / f"{label}.pstats")
    printed = checks.parse_run_stdout((out / "run.stdout").read_text())
    bench.attempted += 1
    if layers.loss_calls(run_prof) != printed.get("diffraction_evals"):
        bench._fail("cross-check", f"profiled diffraction loss calls {layers.loss_calls(run_prof)} "
                                   f"!= {printed.get('diffraction_evals')} diffraction evaluations "
                                   f"printed by rayblock run")
    evaluations = result["evaluations"]
    values = layers.metrics(run_prof, all_prof, printed, {
        "nonzero_loss_ratio": result["nonzero"] / evaluations if evaluations else 0.0,
        "clamp_events": result["clamp_events"],
        "sweep_s": sum(v for k, v in result["cpu_s"].items() if k != "run"),
        "using_numba": result["using_numba"],
        "trace_bytes_written": sum(p.stat().st_size for p in (out / "run" / "trace").rglob("*")
                                   if p.is_file()),
    })
    # profiler times are CPU seconds of the traced process: calibrate them like the round
    return {k: (v * t.factor if unit == "s" else v, unit) for k, (v, unit) in values.items()}


def traced(bench: Bench, seconds: float, setup: Timed) -> dict:
    raw, _, _, sys_s = bench.cli_round()
    plain, profiled = [], []
    start = time.monotonic()
    while not profiled or time.monotonic() - start < seconds:
        plain.append(bench.inproc_round(profile=False)[0])
        t, result, out = bench.inproc_round(profile=True)
        if result is None:
            return {}
        profiled.append((t, _profiled_metrics(bench, t, result, out)))
        dump = WORK / "traces" / f"{bench.name}-seed{bench.seed}"
        shutil.rmtree(dump, ignore_errors=True)
        shutil.copytree(out, dump, ignore=shutil.ignore_patterns("run", "*.csv"))
    values = {k: (statistics.median(p[1][k][0] for p in profiled) if unit == "s" else v, unit)
              for k, (v, unit) in profiled[0][1].items()}
    values["host.calibration_s"] = (statistics.median(bench.refs), "s")
    values["setup.raw_s"] = (setup.cpu_s, "s")
    values["round.raw_s"] = (raw, "s")
    values["round.sys_s"] = (sys_s, "s")
    values["tracing.overhead_s"] = (statistics.median(t.calibrated_s for t, _ in profiled)
                                    - statistics.median(t.calibrated_s for t in plain), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "rayblock" / "cli.py").is_file():
        print(f"error: no rayblock sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # one CPU for this process and the commands it times (see spawn)
    os.sched_setaffinity(0, {max(_CPUS)})

    setup = measure_setup(deadline)
    print(f"setup: user CPU {setup.cpu_s:.4f} s, calibrated {setup.calibrated_s:.4f} s", flush=True)
    bench = Bench(args.workload, args.seed, deadline)
    bench.refs.append(setup.ref_s)
    bench.write_inputs()
    if args.trace:
        metrics = traced(bench, args.seconds, setup)
    else:
        metrics = {"setup_s": {"value": setup.calibrated_s, "unit": "s"}}
        metrics.update(untraced(bench, args.seconds))
    summary = ", ".join(f"{k}={v}" for k, v in sorted(bench.tally.items()))
    print(f"checks {args.workload} seed {args.seed}: {summary}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""hybeam benchmark: preset runs through `python -m hybeam.cli run`, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload digital_rich --seed 12345 --seconds 20 --trace 0

`--seed` becomes the preset's master seed.  With `--trace 0` the CLI runs
untraced, back to back, until `--seconds` have passed, and the end-to-end
metrics are medians over those runs.  With `--trace 1` it alternates
untraced and traced runs (see `spans.py`) and reports the per-layer self
times, counts and the tracing overhead.  Either way every CSV is checked by
`check.py`, and `validated_rf_rich` is also rerun at one worker, which must
give the same bytes.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; problems go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is timed from this many launches, stopped at the first realization,
# after each timed run: they sample the same stretch of time as the runs, on
# a processor that is already busy rather than waking from idle.
SETUP_LAUNCHES_PER_RUN = 3
# A child still running this long after the benchmark started is killed and
# the run fails, so that the benchmark itself ends within 180 s.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    preset: str
    extra: tuple[str, ...]
    workers: int
    # Realization evaluations of one run: main run, validation rerun, RMS sweep.
    evaluations: int

    @property
    def validate(self) -> bool:
        return "--validate" in self.extra


WORKLOADS = {
    "digital_rich": Workload("fig2", (), 1, 200),
    "hybrid_sparse": Workload("fig8", (), 1, 200),
    "validated_rf_rich": Workload("fig3", ("--validate",), 2, 200 + 200 + 3 * 200),
}


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    output: str


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["HYBEAM_THREADS"] = str(workers)
    # One BLAS thread per process, so workers x threads stays within the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv: list[str], env: dict, log_path: str, timeout: float) -> Launch:
    """Run one child to its end; wall time, and CPU and peak RSS of it and its workers.

    `wait4` reports the child's own usage plus that of the pool workers it
    waited for, and the largest resident set among them, so each launch is
    measured apart from every other.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        output = fh.read()
    return Launch(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        output=output,
    )


class Bench:
    def __init__(self, name: str, seed: int, tmp: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.launches = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csvs: list[tuple[str, bytes]] = []
        self.deadline = time.perf_counter() + DEADLINE_S

    def _launch(self, argv: list[str], workers: int, log: str) -> Launch:
        return launch(argv, child_env(workers), log, self.deadline - time.perf_counter())

    def _paths(self) -> tuple[str, str]:
        self.launches += 1
        outdir = os.path.join(self.tmp, f"out{self.launches}")
        os.makedirs(outdir)
        return outdir, os.path.join(self.tmp, f"log{self.launches}.txt")

    def _cli_args(self, outdir: str) -> list[str]:
        w = self.workload
        return ["run", w.preset, *w.extra, "--seed", str(self.seed), "--outdir", outdir]

    def setup(self) -> float:
        outdir, log = self._paths()
        argv = [sys.executable, os.path.join(HERE, "ready.py"), *self._cli_args(outdir)]
        result = self._launch(argv, self.workload.workers, log)
        if result.code != 0:
            self.problems.append(f"set-up launch exited {result.code}: {result.output[-2000:]}")
        return result.wall_s

    def run(self, workers: int | None = None, trace_dir: str | None = None) -> Launch:
        """One whole `hybeam run`; its CSV is kept for the checks."""
        outdir, log = self._paths()
        if trace_dir is None:
            argv = [sys.executable, "-m", "hybeam.cli", *self._cli_args(outdir)]
        else:
            argv = [sys.executable, os.path.join(HERE, "spans.py"), trace_dir, *self._cli_args(outdir)]
        result = self._launch(argv, workers or self.workload.workers, log)
        label = f"run {self.launches}" + (" (traced)" if trace_dir else "")
        if result.code != 0:
            self.problems.append(f"{label} exited {result.code}: {result.output[-2000:]}")
        match = re.search(r"(\d+)/(\d+) failed realizations", result.output)
        if match is None:
            self.problems.append(f"{label}: no failure count in output")
        csv_path = os.path.join(outdir, f"{self.workload.preset}.csv")
        if os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                self.csvs.append((label, fh.read()))
        else:
            self.problems.append(f"{label}: no CSV written")
        if workers is None:
            self.attempted += self.workload.evaluations
            self.failed += int(match.group(1)) if match else self.workload.evaluations
        return result

    def check_outputs(self):
        """Independent and property checks, identical bytes across runs, worker-count determinism."""
        if not self.csvs:
            return
        sys.path.insert(0, SRC)
        import check

        label, reference = self.csvs[0]
        for other, data in self.csvs[1:]:
            if data != reference:
                self.problems.append(f"{other} CSV differs from {label}")
        w = self.workload
        checker = check.Checker(check.scenario_for(w.preset, self.seed), w.validate)
        text = reference.decode("ascii")
        self.problems += [f"{label}: {p}" for p in checker.check(text)]
        key = sorted(checker.reference)[0]
        if not checker.check(check.perturb(text, key)):
            self.problems.append(f"checker accepted {key} perturbed by 1e-6")
        if w.workers > 1:
            serial = self.run(workers=1)
            print(json.dumps({"workers_1_wall_s": serial.wall_s}))
            if self.csvs[-1][1] != reference:
                self.problems.append(f"CSV at workers=1 differs from workers={w.workers}")


def measure(bench: Bench, seconds: float) -> dict:
    setups, runs = [], []
    begin = time.perf_counter()
    while not runs or time.perf_counter() - begin < seconds:
        runs.append(bench.run())
        setups += [bench.setup() for _ in range(SETUP_LAUNCHES_PER_RUN)]
    setup_s = statistics.median(setups)
    per_realization = [
        1000.0 * (r.wall_s - setup_s) / bench.workload.evaluations for r in runs
    ]
    for i, r in enumerate(runs):
        print(json.dumps({"run": i, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb}))
    print(json.dumps({"setup_launches_s": setups}))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "ms_per_realization": (statistics.median(per_realization), "ms"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict:
    import spans

    plain, traced, summaries = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        plain.append(bench.run().wall_s)
        trace_dir = os.path.join(bench.tmp, f"trace{len(traced)}")
        os.makedirs(trace_dir)
        traced.append(bench.run(trace_dir=trace_dir).wall_s)
        summaries.append(spans.summarize(trace_dir))
    metrics = {}
    for name, value in summaries[0].items():
        if isinstance(value, int):
            if any(s[name] != value for s in summaries[1:]):
                bench.problems.append(f"{name} differs between traced runs: {[s[name] for s in summaries]}")
            metrics[name] = (value, "count")
        else:
            metrics[name] = (statistics.median(s[name] for s in summaries), "ms")
    counted = metrics["experiments.realizations_evaluated"][0]
    if counted != bench.workload.evaluations:
        print(f"warning: traced run counted {counted} realizations, expected "
              f"{bench.workload.evaluations}; spans of pool workers may be missing", file=sys.stderr)
    metrics["tracing.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    print(json.dumps({"untraced_wall_s": plain, "traced_wall_s": traced}))
    return metrics


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminating the benchmark raises SystemExit here, which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "hybeam", "cli.py")):
        print(f"error: no hybeam sources under {SRC}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(args.workload, args.seed, tmp)
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
        bench.check_outputs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}))
    for problem in bench.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

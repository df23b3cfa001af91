"""The repository benchmark: ``stream``, ``campaign`` and ``swarm``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Each workload execution runs in a fresh, single-threaded process
(``perfbench/worker.py``), one at a time: a closed loop with no worker
pool.  ``--trace 0`` repeats the workload for about ``--seconds`` seconds
and reports the end-to-end metrics as medians over the executions;
``--trace 1`` times untraced executions for half the budget, then makes
one execution with every layer seam wrapped (``perfbench/layers.py``)
and reports the per-layer metrics.  ``--workload all`` runs the three
workloads in turn.

The simulation seeds are fixed so each execution's digest can be checked
against its pin.  ``--seed`` seeds the ``PYTHONHASHSEED`` of every
worker process: no digest may depend on it.

The last stdout line is one JSON object: ``correct``, ``attempted``
(executions), ``failed`` (executions that raised, timed out or missed
their pin) and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PYCACHE = ROOT / ".perfbench_work" / "pycache"
WORKLOADS = ("stream", "campaign", "swarm")

#: Untraced executions per ``--trace 0`` run, at least.
MIN_RUNS = 2
#: ``setup_s`` is the median of at least this many process starts.
SETUP_SAMPLES = 5
#: Workers still running this long after a run began are killed and
#: their execution fails, so one run ends within three minutes.
RUN_DEADLINE = 170.0

END_TO_END = {"wall_s": "s", "events_per_s": "ev/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class Runner:
    """Spawns workers one at a time and keeps every record."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.hash_seeds = random.Random(seed)
        self.records: List[dict] = []
        self.failures: List[str] = []
        self.setup_samples: List[float] = []
        self.deadline = time.monotonic() + RUN_DEADLINE

    def spawn(self, *flags: str) -> Optional[dict]:
        """One worker process; its record, or ``None`` if it failed."""
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(self.hash_seeds.randrange(2 ** 32))
        # Bytecode is cached inside the checkout whatever the caller's
        # settings, so setup_s is the warm-cache import cost.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
        for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            env[knob] = "1"
        command = [sys.executable, str(WORKER), "--workload", self.workload,
                   "--started", repr(time.monotonic()), *flags]
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(0.1, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.failures.append(f"killed at the {RUN_DEADLINE:.0f}s "
                                 f"run deadline")
            return None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"exit {done.returncode}: {tail[0]}")
            return None
        record = json.loads(lines[-1])
        self.setup_samples.append(record["setup_s"])
        return record

    def execute(self, trace: bool = False) -> Optional[dict]:
        """One workload execution; ``None`` if it raised or timed out."""
        record = self.spawn(*(["--trace"] if trace else []))
        self.records.append(record or {"digest_ok": False})
        if record is not None and not record["digest_ok"]:
            self.failures.append(f"digests {record['digests']} != pin")
        return record

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record["digest_ok"])

    def timed(self, budget: float, min_runs: int) -> List[dict]:
        """Untraced executions while the next should fit in ``budget``."""
        started = time.monotonic()
        durations: List[float] = []
        timed: List[dict] = []
        while True:
            begun = time.monotonic()
            record = self.execute()
            durations.append(time.monotonic() - begun)
            if record is not None:
                timed.append(record)
            elapsed = time.monotonic() - started
            if (len(durations) >= min_runs
                    and elapsed + statistics.median(durations) > budget):
                return timed

    def setup_only(self) -> None:
        if self.spawn("--setup-only") is None:
            raise RuntimeError(f"{self.workload}: worker does not start: "
                               f"{self.failures[-1]}")

    def warm_up(self) -> None:
        """Fill the bytecode cache and check that the worker starts; the
        sample is dropped, as users pay compilation once, not per run."""
        self.setup_only()
        self.setup_samples.clear()


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of ``workload``."""
    runner = Runner(workload, seed)
    runner.warm_up()
    median = statistics.median
    if trace:
        timed = runner.timed(seconds / 2, 1)
        traced = runner.execute(trace=True)
        if not timed or traced is None:
            raise RuntimeError(f"{workload}: no traced comparison: "
                               f"{'; '.join(runner.failures)}")
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = traced["wall_s"] / median(
            [record["wall_s"] for record in timed])
        units = {name: layers.unit(name) for name in metrics}
    else:
        timed = runner.timed(seconds, MIN_RUNS)
        if not timed:
            raise RuntimeError(f"{workload}: every execution failed: "
                               f"{'; '.join(runner.failures)}")
        while len(runner.setup_samples) < SETUP_SAMPLES:
            runner.setup_only()
        metrics = {
            "wall_s": median([r["wall_s"] for r in timed]),
            "events_per_s": median([r["events"] / r["wall_s"]
                                    for r in timed]),
            "setup_s": median(runner.setup_samples),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
        }
        units = END_TO_END
    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "runs": len(runner.records), "failed_runs": runner.failed,
            "git_rev": git_rev(), "failures": runner.failures,
            "setup_samples": runner.setup_samples,
            "per_run": [{key: record.get(key) for key in
                         ("wall_s", "events", "peak_rss_mb", "digest_ok")}
                        for record in runner.records]}
    for key in ("python_version", "platform", "numpy"):
        info[key] = timed[0][key]
    return {"info": info, "metrics": metrics, "units": units}


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def report(result: dict) -> None:
    info = result["info"]
    print(f"perfbench {info['workload']}: runs={info['runs']} "
          f"failed_runs={info['failed_runs']} seed={info['seed']} "
          f"trace={info['trace']} git_rev={info['git_rev']} "
          f"python={info['python_version']} numpy={info['numpy']} "
          f"platform={info['platform']}")
    for failure in info["failures"]:
        print(f"  FAILED {failure}")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {result['units'][name]}")
    print(json.dumps({"perfbench": info}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results: Dict[str, dict] = {}
    for workload in workloads:
        results[workload] = measure(workload, args.seed, args.seconds,
                                    bool(args.trace))
        report(results[workload])

    def key(workload: str, name: str) -> str:
        return name if len(workloads) == 1 else f"{workload}.{name}"

    attempted = sum(r["info"]["runs"] for r in results.values())
    failed = sum(r["info"]["failed_runs"] for r in results.values())
    metrics = {key(workload, name): {"value": value,
                                     "unit": result["units"][name]}
               for workload, result in results.items()
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

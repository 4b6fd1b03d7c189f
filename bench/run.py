"""Benchmark of the ``qsl`` solver, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload optimize --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen and how a seed
moves its inputs): ``optimize``, ``landscape``, ``areacurve``, ``oracles``.
Each runs its ``qsl`` commands in-process through ``qsl12.cli.main``, in
a fresh worker process per repetition (``worker.py``), serially and
single-process (closed loop, one client).

``--trace 0`` repeats the workload (at least MIN_REPS times) until the run
is as close to ``--seconds`` as whole repetitions allow, and reports medians
over repetitions. The run and its workers are pinned to one CPU, and both
times are corrected for the other tenants' contention on that CPU (see
``speed.py``): they read as seconds on a core of a fixed, nominal speed.

* ``wall_s`` -- time inside the workload's commands: time to a solution
  at the stated accuracy, as a user of ``qsl`` sees it;
* ``setup_s`` -- importing ``qsl12`` (numpy, scipy) and a first trivial
  command, measured in every worker and topped up with set-up-only
  workers to at least SETUP_SAMPLES samples;
* ``peak_rss_mb`` -- peak resident memory of the worker process.

``cpu_s`` is left out on purpose: a correct parallel speed-up would raise
it and read as a regression.

``--trace 1`` runs the workload once untraced and once traced, in one
worker, and reports the per-layer metrics of ``tracer.py``; the spans go
to ``bench/results/``. Tracing is kept out of the end-to-end run, so its
cost (``trace.overhead_frac``) never reaches ``wall_s``.

Every command's output is checked against fixed references; a command that
fails or misses one counts as a failed operation. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment,
and the whole result is also written to ``bench/results/``.

Steadiness on a small shared machine: BLAS thread pools are limited to one
thread, times are corrected for contention and each figure is a median.
Pinning alone made raw times slower (by 20-50% on a 2-vCPU machine) and
no steadier; it is there so that the speed sampler measures the CPU the
workers run on. The raw times are kept next to the corrected ones in the
result file under ``bench/results/``. The traced run is not pinned, so
that ``shooting.landscape.speedup_2w`` can use a second CPU; its layer
times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Correction, read_samples
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fewest repetitions behind one ``wall_s`` median. Two, not more: at 17-24 s
#: a repetition on one pinned CPU, a third ``areacurve`` repetition would not
#: fit the benchmark's time budget (see BENCHMARK.json's ``run_seconds``).
#: After the contention correction two repetitions of one run agree within
#: a few percent, so their mean is a steady figure.
MIN_REPS = 2
#: Fewest set-up measurements behind one ``setup_s`` median.
SETUP_SAMPLES = 5
#: A run must end within this many seconds; workers are killed past it.
RUN_LIMIT_S = 170.0
#: Thread-pool variables fixed for the workers, so the host's core count
#: cannot change a workload through BLAS threads (as ``--workers 1`` fixes
#: the landscape's process count).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "QSL_THREADS": os.environ.get("QSL_THREADS"),
        "thread_env": THREAD_ENV,
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def _run_worker(argv: list, deadline: float) -> dict | None:
    """Run one worker to completion; its report, or None if it failed."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv], cwd=ROOT, env=_worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker {argv} killed after the run limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker {argv} exited {proc.returncode}:\n{err}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def _start_sampler(out: Path):
    """Pin this process (and so its children) to one CPU; start the sampler there."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc = subprocess.Popen([sys.executable, str(BENCH / "speed.py"), str(out)], cwd=ROOT,
                            env=_worker_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    proc.stdout.readline()  # "ready": numpy imported, so no worker shares the CPU with that
    return proc


def _stop_sampler(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _measure(base: list, seconds: float, deadline: float, samples_path: Path) -> tuple | None:
    """Untraced repetitions and set-up probes: (reports, set-up samples, correction)."""
    started = time.monotonic()
    sampler = _start_sampler(samples_path)
    try:
        reports = []
        while True:
            report = _run_worker(base, deadline)
            if report is None:
                return None
            reports.append(report)
            elapsed = time.monotonic() - started
            if len(reports) >= MIN_REPS and elapsed + 0.5 * elapsed / len(reports) >= seconds:
                break
        setups = list(reports)
        while len(setups) < SETUP_SAMPLES:
            probe = _run_worker(["--setup-only"], deadline)
            if probe is None:
                return None
            setups.append(probe)
    finally:
        _stop_sampler(sampler)
    correction = Correction(read_samples(samples_path))
    samples_path.unlink()
    return reports, setups, correction


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the qsl solver.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qsl12" / "cli.py").is_file():
        print(f"no qsl12 sources under {ROOT / 'src'}: run from a repository checkout",
              file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    work_dir = BENCH / "_work"
    work_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    reports = []
    if args.trace:
        extra = ["--trace", "--spans", str(results_dir / f"{stem}-spans.json")]
        report = _run_worker(base + extra, deadline)
        if report is None:
            return 1
        reports.append(report)
        values = report["metrics"]
    else:
        measured = _measure(base, args.seconds, deadline, work_dir / f"{stem}-speed.txt")
        if measured is None:
            return 1
        reports, setup_reports, corr = measured
        walls = [sum(corr.seconds(rec["start"], rec["start"] + rec["seconds"]) for rec in r["records"])
                 for r in reports]
        setups = [corr.seconds(r["setup_start"], r["setup_start"] + r["setup_s"]) for r in setup_reports]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }

    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    env = _environment(reports[0]["versions"])
    records = [rec for r in reports for rec in r["records"]]
    failures = [{"argv": rec["argv"], "problems": rec["problems"]} for rec in records if rec["problems"]]
    for failure in failures:
        print(f"FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "repetitions": len(reports),
        "commands": [{"argv": rec["argv"], "rc": rec["rc"], "seconds": rec["seconds"]} for rec in records],
        "failures": failures, "result": result,
    }
    if not args.trace:
        detail["speed"] = corr.summary()
        detail["samples"] = {"wall_s": walls, "setup_s": setups,
                             "wall_s_raw": [r["wall_s"] for r in reports],
                             "setup_s_raw": [r["setup_s"] for r in setup_reports],
                             "peak_rss_mb": [r["peak_rss_mb"] for r in reports]}
    (results_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness (not part of the package's test suite).

Run from the repository root:

    python3 bench/selftest.py

It checks, in about half a minute:

* two traced runs of the same commands give identical work counts
  (on the ``oracles`` commands plus one refinement, which covers shots,
  misses, ``refine``, ``rk4`` and ``integrate``);
* every wrapped module attribute is the original function again after a
  traced run;
* a deliberately wrong reference makes the run report a failed operation;
* the contention correction (``speed.py``) halves an interval whose
  probes took twice the nominal time, and gives an interval without
  probes the run's overall factor;
* the tracer produces exactly the per-layer metrics ``BENCHMARK.json``
  declares;
* ``run.py`` exits nonzero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and ``bench/``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1


def _originals() -> dict:
    found = {}
    for mod_name, fn_name, *_ in tr.SPANS + tr.LEAVES:
        module = importlib.import_module(f"qsl12.{mod_name}")
        if hasattr(module, fn_name):
            found[(mod_name, fn_name)] = getattr(module, fn_name)
    return found


def _traced(ops, work) -> tuple:
    tracer = tr.Tracer()
    with tracer.installed():
        wall, records = wl.run_ops(ops, work, tracer=tracer)
    return tr.per_layer_metrics(tracer, wall, wall, 0.0), records


def check_counts_repeat_and_restore(work: Path) -> list:
    problems = []
    ops = wl.ops_for("oracles", SEED) + wl.ops_for("optimize", SEED)[1:]
    before = _originals()
    first, rec1 = _traced(ops, work)
    second, rec2 = _traced(ops, work)
    after = _originals()
    for rec in rec1 + rec2:
        if rec["problems"]:
            problems.append(f"{' '.join(rec['argv'])}: {rec['problems']}")
    for name in tr.COUNT_METRICS:
        if first[name] != second[name]:
            problems.append(f"{name} differs between traced runs: {first[name]} != {second[name]}")
    for key in ("shooting.shoot_info.calls", "shooting.refine.calls", "ode.rk4.steps",
                "ode.integrate.calls", "shooting.shoot_info.miss.no-crossing"):
        if not first[key]:
            problems.append(f"{key} is 0: the check does not exercise it")
    for key, original in before.items():
        if after.get(key) is not original:
            problems.append(f"qsl12.{key[0]}.{key[1]} not restored after tracing")
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    if set(first) != declared:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"extra {sorted(set(first) - declared)}, missing {sorted(declared - set(first))}")
    return problems


def check_wrong_reference_fails(work: Path) -> list:
    refs = dict(wl.REFS, t_min_0002=(7.50, 0.02))
    _, records = wl.run_ops(wl.ops_for("oracles", SEED), work, refs=refs)
    failed = [rec for rec in records if rec["problems"]]
    if len(failed) != 1 or failed[0]["argv"][:2] != ["iso", "check"]:
        return [f"wrong reference gave {len(failed)} failed operations, expected 1"]
    return []


def check_correction(work: Path) -> list:
    ref = speed.REF_PROBE_S
    corr = speed.Correction([(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)])
    problems = []
    if abs(corr.seconds(0.5, 2.5) - 1.0) > 1e-12:
        problems.append(f"slow interval: {corr.seconds(0.5, 2.5)} s, expected 1.0")
    if abs(corr.seconds(3.2, 3.4) - 0.2 * 0.75) > 1e-12:
        problems.append(f"interval without probes: {corr.seconds(3.2, 3.4)} s, expected 0.15")
    return problems


def check_bare_directory_exits_nonzero(work: Path) -> list:
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracles", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    checks = (check_counts_repeat_and_restore, check_wrong_reference_fails, check_correction,
              check_bare_directory_exits_nonzero)
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        for check in checks:
            problems = check(Path(work))
            print(f"{'FAIL' if problems else 'PASS'} {check.__name__}")
            for problem in problems:
                print(f"    {problem}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

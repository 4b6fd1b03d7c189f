"""One benchmark process: set up ``qsl12``, run one workload, print one JSON line.

``bench/run.py`` starts a fresh worker per repetition, so every repetition
pays and measures the set-up a user pays: importing ``qsl12`` (numpy,
scipy) and a first, trivial ``qsl`` command that builds the parser. The
clock starts before anything but the interpreter's own start-up modules is
imported, so the imports ``qsl12`` shares with this script are charged to it.

Modes:

* default -- run the workload's commands once, untraced; report
  ``wall_s`` (time inside the commands), ``setup_s`` and ``peak_rss_mb``,
  with the ``perf_counter`` start of the set-up and of every command, so
  that ``run.py`` can correct each interval for contention (``speed.py``);
* ``--trace`` -- run the commands once untraced, then once with every
  traced function wrapped (see ``tracer.py``); report the per-layer
  metrics and write the spans to ``--spans``. For ``landscape`` it also
  times the same grid at 2 workers, for ``speedup_2w``;
* ``--setup-only`` -- measure the set-up and exit.

Run by hand from the repository root:
``python3 bench/worker.py --workload oracles --seed 0``.
"""

import time


def main() -> int:
    t0 = time.perf_counter()
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import io
    from contextlib import redirect_stdout

    import qsl12.cli

    with redirect_stdout(io.StringIO()):
        qsl12.cli.main(["two-level", "tmin", "--eps", "0.002"])
    setup_s = time.perf_counter() - t0

    import argparse
    import json
    import resource
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()

    package = Path(qsl12.__file__).resolve()
    if Path(src).resolve() not in package.parents:
        print(f"qsl12 imported from {package}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    report = {"setup_start": t0, "setup_s": setup_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import tracer as tr
    import workloads as wl

    ops = wl.ops_for(args.workload, args.seed)
    work_root = Path(root) / "bench" / "_work"
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        work = Path(work)
        wall, records = wl.run_ops(ops, work)
        report.update(wall_s=wall, records=records,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.trace:
            tracer = tr.Tracer()
            with tracer.installed():
                traced_wall, traced_records = wl.run_ops(ops, work, tracer=tracer)
            records.extend(traced_records)
            speedup_2w = 0.0
            if args.workload == "landscape":
                two = tr.Tracer()
                with two.installed():
                    _, two_records = wl.run_ops([wl.landscape_op(args.seed, 2)], work, tracer=two)
                records.extend(two_records)
                one_s = tr.per_layer_metrics(tracer, 0.0, 0.0, 0.0)["shooting.landscape.s"]
                two_s = tr.per_layer_metrics(two, 0.0, 0.0, 0.0)["shooting.landscape.s"]
                speedup_2w = one_s / two_s if two_s else 0.0
            report["metrics"] = tr.per_layer_metrics(tracer, traced_wall, wall, speedup_2w)
            if args.spans:
                Path(args.spans).write_text(json.dumps(tracer.span_records()) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

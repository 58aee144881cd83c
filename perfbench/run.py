"""The repository benchmark: one workload per process, timed by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload update-closed --seed 0 \\
        --seconds 20 --trace 0

Workloads: ``update-closed``, ``read-open``, ``chaos-powerfail`` and
``device-sweep`` (see ``BENCHMARK.json`` for why each exists).  The run
builds fresh state each iteration from the seed, repeats identical
iterations for ``--seconds`` after an untimed warm-up, and reports the
median of each timing.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics, which come from a timing
proxy around the ``Service`` and a timing ``ObsRecorder`` subclass, run
alternately with untraced iterations so the tracing overhead is
reported too.  Simulated figures (``sim.*``) and all counts are
deterministic for a given seed.  ``attempted`` and ``failed`` count one
iteration of each substrate (one pass of the sweep grid), which every
later iteration is checked to repeat, so they too depend on the seed
alone and not on how many iterations fit into ``--seconds``.

Output: a human-readable table, a provenance line, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units are read from ``BENCHMARK.json``; a per-layer
metric of a layer the workload does not run is printed as 0 and marked
``n/a`` in the table.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest timed iterations a run takes, however slow the host.
MIN_ROUNDS = 3


def _load_program():
    """Import the program from the checkout's ``src``; exit 2 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write("perfbench: cannot import the program from %s: "
                         "%s\n" % (src, exc))
        sys.exit(2)
    if src not in Path(repro.__file__).resolve().parents:
        sys.stderr.write("perfbench: imported repro from %s, not from the "
                         "checkout's %s\n" % (repro.__file__, src))
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads)))
        return 2
    _load_program()

    import chaos
    import measure
    import serving
    import sweep
    runners = {"update-closed": serving.run, "read-open": serving.run,
               "chaos-powerfail": chaos.run, "device-sweep": sweep.run}
    try:
        measure.check_paths()
        out = runners[args.workload](args.workload, args.seed,
                                     args.seconds, bool(args.trace),
                                     MIN_ROUNDS)
    except measure.GuardError as exc:
        sys.stderr.write("perfbench: refusing to run: %s\n" % exc)
        return 3

    attempted = out["attempted"]
    failed = out["failed"]
    if args.trace:
        declared = bench["per_layer"]
        measured = out["layers"]
    else:
        declared = bench["end_to_end"]
        measured = dict(out["end_to_end"],
                        peak_rss_mb=measure.peak_rss_mb(),
                        ok_frac=1.0 - failed / attempted)
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise RuntimeError("undeclared metrics: %s" % ", ".join(unknown))

    metrics = {}
    print("%-40s %16s  %s" % ("metric", "value", "unit"))
    for m in declared:
        value = measured.get(m["name"])
        applies = value is not None
        if not applies:
            if not args.trace:
                raise RuntimeError("end-to-end metric %s not measured"
                                   % m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %16s  %s" % (m["name"],
                                  "%.6g" % value if applies else "n/a",
                                  m["unit"]))
    print("attempted %d, failed %d (ok_frac base: %d operations)"
          % (attempted, failed, attempted))
    for note in out.get("notes", ()):
        print(note)
    for problem in out["problems"]:
        print("CHECK FAILED: " + problem)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "iterations": out["rounds"],
        "python": platform.python_version(),
        "host": platform.node(), "nproc": os.cpu_count(),
        "quartiles": out["samples"].quartiles(),
        "probe_ms": [round(q * 1e3, 4)
                     for q in statistics.quantiles(out["probes"], n=4)],
        "probe_reference_ms": measure.PROBE_REFERENCE_S * 1e3,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {"correct": not out["problems"], "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

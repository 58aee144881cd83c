"""The device-sweep workload: the paper's quick ``sweep_grid``.

It runs the lattester kernels through the batched namespace entry
points and the ``sim.engine`` scheduler; serving never takes this path.
A pass walks the quick grid in order, one ``sweep_grid`` call per
point so that each point is timed on its own, after
``clear_point_memo()`` so that no pass replays the previous one.  The
pass time is the sum of the per-point medians: each point's samples
come from different moments of the run, which averages out the host's
slow phases better than the median of a few whole passes.  Each point
is one slice of the host clock (see ``measure``).
"""

import math
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

from repro.harness import expand_grid
from repro.lattester import bandwidth
from repro.lattester.bandwidth import clear_point_memo
from repro.lattester.sweep import QUICK_GRID, sweep_grid

from measure import HostClock, Samples

#: sweep_grid's per-thread region; every point touches this many bytes
#: per thread.
PER_THREAD = 64 * 1024
LINE = 64


@contextmanager
def _timed_machines():
    """Wall seconds spent building the fresh ``Machine`` of a point.

    Yields a one-element list that accumulates them.
    """
    real = bandwidth.Machine
    spent = [0.0]

    def timed(*args, **kwargs):
        t0 = perf_counter()
        machine = real(*args, **kwargs)
        spent[0] += perf_counter() - t0
        return machine

    bandwidth.Machine = timed
    try:
        yield spent
    finally:
        bandwidth.Machine = real


def _point_key(point):
    return "%(kind)s/%(op)s/%(pattern)s/%(access)d/t%(threads)d" % point


def run_pass(points, samples, clock):
    """One ordered pass; returns ``(records, failed points)``."""
    clear_point_memo()
    records = []
    failed = 0
    for point in points:
        key = _point_key(point)
        grid = {name: (value,) for name, value in point.items()}
        try:
            with _timed_machines() as machine_s:
                clock.start()
                (record,) = sweep_grid(grid, per_thread=PER_THREAD)
                ref, wall = clock.stop()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            records.append(None)
            continue
        samples.add("point_s." + key, ref)
        samples.add("machine_s." + key, machine_s[0] * ref / wall)
        samples.add("wall.point_s." + key, wall)
        records.append(record)
    return records, failed


def run(workload, seed, seconds, traced, min_rounds):
    # The quick grid is fixed by the paper's sweep and its kernels seed
    # their own address streams, so the seed changes no input here.
    points = expand_grid(QUICK_GRID)
    clock = HostClock()
    samples = Samples()
    problems = []
    # Untimed warm-up over the cheap single-thread points: imports and
    # first-use allocations, not a whole 6 s pass.
    run_pass([p for p in points if p["threads"] == 1], Samples(), clock)
    reference = None
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or perf_counter() < deadline:
        records, bad = run_pass(points, samples, clock)
        if reference is None:
            # Counted on the first pass only, so that they depend on the
            # grid alone; a later pass that differs is a problem instead.
            reference = records
            attempted, failed = len(points), bad
        elif records != reference:
            problems.append("sweep records changed between passes")
        rounds += 1
    for record in reference:
        if record is None or not (math.isfinite(record["gbps"])
                                  and record["gbps"] > 0):
            problems.append("a sweep point measured no bandwidth")
            break

    # Figures cover the points that measured; failed ones are counted
    # in ``failed`` instead.
    lines = {}
    host = {}
    setup = 0.0
    for point in points:
        key = _point_key(point)
        if samples.count("point_s." + key):
            lines[key] = point["threads"] * PER_THREAD // LINE
            host[key] = samples.median("point_s." + key)
            setup += samples.median("machine_s." + key)
    end_to_end = {
        "setup_s": setup,
        "host_kops_per_s": sum(lines.values()) / sum(host.values()) / 1e3,
    }
    layers = {}
    for threads in QUICK_GRID["threads"]:
        keys = [k for k in host if k.endswith("/t%d" % threads)]
        if keys:
            layers["lattester.host_ns_per_line.t%d" % threads] = (
                sum(host[k] for k in keys)
                / sum(lines[k] for k in keys) * 1e9)
    for op in QUICK_GRID["op"]:
        gbps = [r["gbps"] for r, p in zip(reference, points)
                if r is not None and p["op"] == op]
        if gbps:
            layers["sim.gbps." + op] = sum(gbps) / len(gbps)
    return dict(end_to_end=end_to_end, layers=layers, attempted=attempted,
                failed=failed, problems=problems, rounds=rounds,
                samples=samples, probes=clock.probes)

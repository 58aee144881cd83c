"""The chaos-powerfail workload: ``chaos_serve_cell`` with two
mid-traffic power failures plus the final audit, closed loop, at the
update-closed traffic shape on all four substrates.

The cell builds its own machine and service, so the benchmark wraps
three calls the driver module makes, for the duration of one cell:
``Machine`` (to read the device counters of the cell's machine),
``preload`` (its return ends the set-up slice) and ``check_durability``
(each audit's return ends a slice).  A cell is thus timed as about five
slices of 0.1-0.6 s, each scaled to reference speed on its own, rather
than as one slice of up to 2 s.  The ``sim.*`` counter figures cover
the whole cell (preload, serving and every recovery), because the cell
offers no boundary around its serving loop alone.
"""

import gc
import json
from contextlib import contextmanager
from time import perf_counter

from repro.chaos_serve import driver
from repro.obs import ObsRecorder

from measure import (
    SUBSTRATES, HostClock, Samples, check_machine, device_delta,
    device_snapshot, sim_metrics,
)
from serving import CLIENTS, UPDATE_CLOSED

SCENARIO = "power-fail"
WARMUP_SHAPE = {"records": 160, "ops": 400}


class _CellTimer:
    """The slices of one cell, cut at the wrapped driver calls."""

    def __init__(self, clock):
        self.clock = clock
        self.machine = None
        self.baseline = None
        self.setup = None
        self.slices = []

    def cut(self):
        self.slices.append(self.clock.stop())
        self.clock.start()

    def machine_built(self, machine):
        self.machine = machine
        self.baseline = device_snapshot(machine)

    def preloaded(self):
        self.cut()
        self.setup = self.slices[-1]


@contextmanager
def _wrapped_driver(timer):
    saved = {name: getattr(driver, name)
             for name in ("Machine", "preload", "check_durability")}

    def machine(*args, **kwargs):
        out = saved["Machine"](*args, **kwargs)
        timer.machine_built(out)
        return out

    def preload(*args, **kwargs):
        out = saved["preload"](*args, **kwargs)
        timer.preloaded()
        return out

    def check_durability(*args, **kwargs):
        out = saved["check_durability"](*args, **kwargs)
        timer.cut()
        return out

    try:
        driver.Machine = machine
        driver.preload = preload
        driver.check_durability = check_durability
        yield
    finally:
        for name, fn in saved.items():
            setattr(driver, name, fn)


def _payload(substrate, seed):
    return {"workload": UPDATE_CLOSED.workload, "substrate": substrate,
            "scenario": SCENARIO, "mode": "closed",
            "records": UPDATE_CLOSED.records,
            "ops": UPDATE_CLOSED.ops[substrate], "clients": CLIENTS,
            "seed": seed, "naive": False}


def run_cell(substrate, seed, clock):
    """One timed cell: ``(record, cell, set-up, sim)``.

    ``cell`` and ``set-up`` are (reference seconds, wall seconds).
    """
    timer = _CellTimer(clock)
    gc.collect()        # as in serving.run_iteration
    with _wrapped_driver(timer):
        clock.start()
        record = driver.chaos_serve_cell(_payload(substrate, seed))
        timer.slices.append(clock.stop())
    check_machine(timer.machine)
    delta = device_delta(timer.baseline, device_snapshot(timer.machine))
    served = record["served"]
    latency = ObsRecorder.from_dict(record["obs"]).latency_us()
    sim = sim_metrics(delta, served["ops"], served["achieved_kops"],
                      latency)
    cell = (sum(ref for ref, _ in timer.slices),
            sum(wall for _, wall in timer.slices))
    return record, cell, timer.setup, sim


def _tally(record):
    """``(attempted, failed)`` operations of one cell.

    Attempted: every request issued plus every key the oracle audited.
    Failed: every request that did not end ``ok`` plus every oracle
    violation (an acknowledged write the recovered image lost).
    """
    requests = sum(record["results"].values())
    not_ok = requests - record["results"].get("ok", 0)
    audited = sum(r["check"]["keys_checked"] for r in record["recoveries"])
    return requests + audited, not_ok + len(record["violations"])


def run(workload, seed, seconds, traced, min_rounds):
    clock = HostClock()
    samples = Samples()
    problems = []
    # Untimed warm-up at the chaos matrix's quick shape: imports and
    # first-use allocations without a whole 4 s round.
    for sub in SUBSTRATES:
        driver.chaos_serve_cell(dict(_payload(sub, seed),
                                     **WARMUP_SHAPE))
    # The first timed round is the record every later cell must repeat,
    # and the only one ``attempted`` and ``failed`` count: they depend on
    # the seed alone, not on how many rounds the host fits into the run.
    reference = {}
    attempted = failed = 0
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or perf_counter() < deadline:
        for sub in SUBSTRATES:
            record, cell, setup, sim = run_cell(sub, seed, clock)
            samples.add("cell_s." + sub, cell[0])
            samples.add("setup_s." + sub, setup[0])
            samples.add("wall.cell_s." + sub, cell[1])
            samples.add("wall.setup_s." + sub, setup[1])
            blob = json.dumps(record, sort_keys=True)
            if sub not in reference:
                reference[sub] = (blob, record, sim)
                a, f = _tally(record)
                attempted += a
                failed += f
            elif blob != reference[sub][0] or sim != reference[sub][2]:
                problems.append("%s: chaos cell changed between identical "
                                "iterations" % sub)
        rounds += 1

    requests = sum(UPDATE_CLOSED.ops.values())
    cell_total = sum(samples.median("cell_s." + s) for s in SUBSTRATES)
    end_to_end = {
        "setup_s": sum(samples.median("setup_s." + s) for s in SUBSTRATES),
        "host_kops_per_s": requests / cell_total / 1e3,
    }
    layers = {}
    for sub in SUBSTRATES:
        _, record, sim = reference[sub]
        for name, value in sim.items():
            layers["sim.%s.%s" % (name, sub)] = value
        layers["chaos_serve.cell_s." + sub] = samples.median("cell_s." + sub)
        layers["chaos_serve.recoveries." + sub] = len(record["recoveries"])
        layers["chaos_serve.keys_audited." + sub] = sum(
            r["check"]["keys_checked"] for r in record["recoveries"])
        layers["chaos_serve.violations." + sub] = len(record["violations"])
        layers["chaos_serve.deadline_misses." + sub] = (
            record["degrade"]["deadline_misses"])
    return dict(end_to_end=end_to_end, layers=layers, attempted=attempted,
                failed=failed, problems=problems, rounds=rounds,
                samples=samples, probes=clock.probes)

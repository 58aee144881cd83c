"""The update-closed and read-open workloads: YCSB traffic on all four
substrates, timed per layer from outside the serving stack.

One iteration of a substrate is what ``repro serve`` does for one
point: build a fresh ``Machine`` and ``Service``, preload the keyspace,
attach an ``ObsRecorder`` and run the serving loop.  Set-up and the
serve call are timed separately; the device counters are snapshotted
around the loop; after the loop, untimed, every key is read back and
compared with the reference the shadow-checked warm-up produced.
"""

import gc
from dataclasses import dataclass
from time import perf_counter

from repro.obs import ObsRecorder
from repro.sim.platform import Machine
from repro.workloads.generators import RequestStream, get_workload
from repro.workloads.loadloop import closed_loop, open_loop, preload
from repro.workloads.service import make_service

from measure import (
    SUBSTRATES, HostClock, Samples, check_machine, device_delta,
    device_snapshot, sim_metrics, value_digest,
)
from tracing import TimedRecorder, TimedService

#: Simulated clients (closed loop) or workers (open loop).
CLIENTS = 2
#: Requests the closed loop prefetches per generator call.
GEN_CHUNK = 256


@dataclass(frozen=True)
class Shape:
    """One traffic shape over the four substrates."""

    workload: str
    records: int
    #: Requests per substrate, sized so each serve call takes about
    #: 0.1-0.2 s of host time: the substrates' per-request costs span
    #: 10-300 us, and a slice of a few ms would time host noise.
    ops: dict
    #: Open-loop offered rate per substrate (simulated kops), or None
    #: for the closed loop.
    rate_kops: dict = None


#: YCSB-A, 2 closed-loop clients.  2300 records of 100 B values exceed
#: the LSM's 256 KiB memtable, so lsm flushes an SSTable during preload
#: and some gets read it.
UPDATE_CLOSED = Shape(
    workload="ycsb-a", records=2300,
    ops={"lsm": 3000, "pmemkv": 2200, "pmdk": 2600, "nova": 500})

#: YCSB-C at a fixed open-loop rate, about half to two-thirds of each
#: substrate's closed-loop ceiling, so p99 stays below the knee.  1000
#: records fit in the LSM memtable: every lsm get stays in memory.
READ_OPEN = Shape(
    workload="ycsb-c", records=1000,
    ops={"lsm": 12000, "pmemkv": 8000, "pmdk": 12000, "nova": 1000},
    rate_kops={"lsm": 4000.0, "pmemkv": 7000.0, "pmdk": 15000.0,
               "nova": 250.0})

SHAPES = {"update-closed": UPDATE_CLOSED, "read-open": READ_OPEN}


@dataclass
class Iteration:
    #: (reference seconds, wall seconds) of set-up and of the serve call.
    setup: tuple
    serve: tuple
    sim: dict
    readback: tuple
    service: TimedService = None
    recorder: TimedRecorder = None

    @property
    def serve_scale(self):
        """Reference seconds per wall second of the serve call."""
        return self.serve[0] / self.serve[1]


def _read_back(service, machine, records):
    """Every key's value, read through the substrate after the loop."""
    thread = machine.thread()
    get = service.get
    return tuple(value_digest(get(thread, b"user%012d" % index))
                 for index in range(records))


def run_iteration(shape, substrate, seed, traced, clock):
    spec = get_workload(shape.workload)
    ops = shape.ops[substrate]
    # Free the previous iteration's machine (it holds reference cycles)
    # now, untimed, so every iteration starts from the same heap and
    # the process's peak memory does not depend on collector timing.
    gc.collect()
    clock.start()
    machine = Machine()
    service = make_service(substrate, machine, spec,
                           records=shape.records, ops=ops, seed=seed)
    proxy = None
    if traced:
        service = proxy = TimedService(service)
    load_end = preload(service, machine, spec, shape.records, seed=seed)
    setup = clock.stop()
    check_machine(machine)
    if proxy is not None:
        proxy.reset_timers()
    recorder = (TimedRecorder if traced else ObsRecorder)(
        substrate, workload=spec.name)
    before = device_snapshot(machine)
    clock.start()
    if shape.rate_kops is None:
        report = closed_loop(machine, service, spec, shape.records, ops,
                             clients=CLIENTS, seed=seed,
                             load_end=load_end, obs=recorder)
    else:
        report = open_loop(machine, service, spec, shape.records, ops,
                           rate_kops=shape.rate_kops[substrate],
                           workers=CLIENTS, seed=seed,
                           load_end=load_end, obs=recorder)
    serve = clock.stop()
    delta = device_delta(before, device_snapshot(machine))
    recorder.to_dict()
    sim = sim_metrics(delta, ops, report["achieved_kops"],
                      recorder.latency_us())
    raw = service if proxy is None else proxy._service
    readback = _read_back(raw, machine, shape.records)
    if proxy is not None:
        expected = tuple(
            value_digest(proxy.shadow.get(b"user%012d" % index))
            for index in range(shape.records))
        proxy.mismatches += sum(1 for got, want in zip(readback, expected)
                                if got != want)
    return Iteration(setup, serve, sim, readback, proxy,
                     recorder if traced else None)


def generator_seconds(shape, substrate, seed, worker_requests, clock):
    """Reference seconds of the request generators alone, over the same
    seeds.

    The closed loop prefetches each client's stream in chunks; the
    open loop draws one request at a time for whichever worker is free
    (``worker_requests`` gives how many each worker served).
    """
    spec = get_workload(shape.workload)
    streams = [RequestStream(spec, shape.records, seed=seed, client=c)
               for c in range(CLIENTS)]
    clock.start()
    if shape.rate_kops is None:
        ops = shape.ops[substrate]
        for c, stream in enumerate(streams):
            left = ops // CLIENTS + (1 if c < ops % CLIENTS else 0)
            while left:
                n = GEN_CHUNK if left > GEN_CHUNK else left
                stream.next_requests(n)
                left -= n
    else:
        for stream, count in zip(streams, worker_requests):
            step = stream.next_request
            for _ in range(count):
                step()
    return clock.stop()[0]


def run(workload, seed, seconds, traced, min_rounds):
    """Measure one serving workload; returns ``(Result fields, samples)``."""
    shape = SHAPES[workload]
    clock = HostClock()
    samples = Samples()
    attempted = failed = 0
    problems = []
    # Untimed warm-up: fills the zeta memo and imports, and gives the
    # shadow-checked reference every timed iteration must reproduce.
    # ``attempted`` and ``failed`` count this one iteration per substrate,
    # so they depend on the seed alone, not on how many iterations the
    # host fits into the run; a later iteration that differs from it is
    # a correctness problem instead.
    reference = {}
    for sub in SUBSTRATES:
        it = run_iteration(shape, sub, seed, True, clock)
        reference[sub] = it
        if it.service.mismatches:
            problems.append("%s: %d reads disagree with the shadow map"
                            % (sub, it.service.mismatches))
            failed += it.service.mismatches
        attempted += shape.ops[sub] + shape.records

    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or perf_counter() < deadline:
        for sub in SUBSTRATES:
            ref = reference[sub]
            it = run_iteration(shape, sub, seed, False, clock)
            samples.add("setup_s." + sub, it.setup[0])
            samples.add("serve_s." + sub, it.serve[0])
            samples.add("wall.setup_s." + sub, it.setup[1])
            samples.add("wall.serve_s." + sub, it.serve[1])
            bad = sum(1 for got, want in zip(it.readback, ref.readback)
                      if got != want)
            if bad:
                problems.append("%s: %d keys read back differently from "
                                "the shadow-checked reference" % (sub, bad))
            if it.sim != ref.sim:
                problems.append("%s: simulated figures changed between "
                                "identical iterations" % sub)
            if traced:
                tr = run_iteration(shape, sub, seed, True, clock)
                _add_traced(samples, shape, sub, seed, tr, clock)
                if tr.service.mismatches:
                    problems.append("%s: %d reads disagree with the shadow "
                                    "map" % (sub, tr.service.mismatches))
        rounds += 1

    total_ops = sum(shape.ops.values())
    serve_total = sum(samples.median("serve_s." + s) for s in SUBSTRATES)
    end_to_end = {
        "setup_s": sum(samples.median("setup_s." + s) for s in SUBSTRATES),
        "host_kops_per_s": total_ops / serve_total / 1e3,
    }
    layers = {}
    notes = []
    for sub in SUBSTRATES:
        layers["serve.host_kreq_per_s." + sub] = (
            shape.ops[sub] / samples.median("serve_s." + sub) / 1e3)
        for name, value in reference[sub].sim.items():
            layers["sim.%s.%s" % (name, sub)] = value
    if traced:
        _layer_figures(layers, samples, shape, reference, problems, notes)
    return dict(end_to_end=end_to_end, layers=layers, attempted=attempted,
                failed=failed, problems=problems, rounds=rounds,
                samples=samples, probes=clock.probes, notes=notes)


def _add_traced(samples, shape, sub, seed, it, clock):
    """Charge one traced serve call to the layers.

    Times taken inside the serve call are scaled by that call's own
    reference/wall ratio.
    """
    proxy = it.service
    calls = proxy.calls
    scale = it.serve_scale
    workers = [proxy.calls_by_thread[tid]
               for tid in sorted(proxy.calls_by_thread)]
    gen_s = generator_seconds(shape, sub, seed, workers, clock)
    service_s = proxy.service_seconds() * scale
    ingest_s = it.recorder.ingest_s * scale
    samples.add("traced_serve_s." + sub, it.serve[0])
    samples.add("gen_s." + sub, gen_s)
    samples.add("get_s." + sub, calls["get"][1] * scale)
    samples.add("put_s." + sub, calls["put"][1] * scale)
    samples.add("fold_s." + sub, it.recorder.fold_s * scale)
    samples.add("ingest_s." + sub, ingest_s)
    samples.add("self_s." + sub, it.serve[0] - service_s - gen_s - ingest_s)


def _layer_figures(layers, samples, shape, reference, problems, notes):
    """Per-layer figures of the traced iterations.

    The loop's self time is what remains of the traced serve call after
    the generators, the ``Service`` calls and the recorder's ingest; a
    negative remainder means the layers do not account for the call.
    """
    gen_total = 0.0
    traced_total = untraced_total = 0.0
    for sub in SUBSTRATES:
        ops = shape.ops[sub]
        calls = reference[sub].service.calls
        med = samples.median
        gen_total += med("gen_s." + sub)
        traced_total += med("traced_serve_s." + sub)
        untraced_total += med("serve_s." + sub)
        self_s = med("self_s." + sub)
        if self_s < 0:
            problems.append("%s: generator, service and obs time exceed "
                            "the traced serve call" % sub)
        layers["loadloop.self_us_per_req." + sub] = self_s / ops * 1e6
        layers["obs.fold_ms." + sub] = med("fold_s." + sub) * 1e3
        serve = med("traced_serve_s." + sub)
        notes.append(
            "%s traced serve %.4f s = generators %.1f%% + service %.1f%% "
            "+ obs ingest %.1f%% + loop self %.1f%%" % (
                sub, serve, 100 * med("gen_s." + sub) / serve,
                100 * (med("get_s." + sub) + med("put_s." + sub)) / serve,
                100 * med("ingest_s." + sub) / serve,
                100 * self_s / serve))
        for op in ("get", "put"):
            n, _, sim_ns = calls[op]
            layers["service.%s.calls.%s" % (op, sub)] = n
            layers["service.%s.host_us.%s" % (op, sub)] = (
                med("%s_s.%s" % (op, sub)) / n * 1e6 if n else 0.0)
            layers["service.%s.sim_ns.%s" % (op, sub)] = (
                sim_ns / n if n else 0.0)
    layers["generators.us_per_req"] = (
        gen_total / sum(shape.ops.values()) * 1e6)
    layers["trace.overhead_frac"] = traced_total / untraced_total - 1.0

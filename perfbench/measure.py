"""Shared measurement helpers: host clock, sample sets, device
counters, guards.

Every timing in the benchmark is a list of samples from identical
iterations (same seed, fresh ``Machine``); the reported value is the
median, and the quartiles travel in the provenance line so the spread
of each figure is visible next to it.

Host speed on a shared machine is not constant: a fixed pure-Python
loop runs at one of two speeds about 1.6x apart, in phases from tens of
milliseconds to tens of seconds, with the same phases on the program's
own loops.  Medians within one run cannot remove phases longer than the
run.  So every timed slice is bracketed by :func:`probe`, a fixed
dictionary-heavy loop, and scaled to reference speed: ``wall *
PROBE_REFERENCE_S / mean(probe before, probe after)``.  Timings are
therefore in *reference seconds*, the seconds the slice takes on a host
where the probe takes ``PROBE_REFERENCE_S``.  The probe is code of the
benchmark, not of the program, so a change to the program moves the
slices but never the probe.  Raw wall-clock medians travel in the
provenance line beside the scaled ones.
"""

import hashlib
import os
import resource
import statistics
from time import perf_counter

from repro.sim import engine as sim_engine
from repro.sim.counters import CounterSnapshot, aggregate
from repro.telemetry.tracer import current_tracer

SUBSTRATES = ("lsm", "pmemkv", "pmdk", "nova")


class GuardError(RuntimeError):
    """The process is not on the paths the benchmark is meant to time."""


def check_paths():
    """Refuse to time the reference or instrumented paths.

    ``REPRO_FASTPATH=0`` and ``REPRO_OBS=0`` select code the default
    ``serve`` never runs; an installed tracer turns the fused namespace
    paths off.  Any of them would make the numbers describe another
    program.
    """
    for name in ("REPRO_FASTPATH", "REPRO_OBS"):
        if os.environ.get(name) == "0":
            raise GuardError("%s=0 is set; unset it to benchmark the "
                             "default paths" % name)
    if not sim_engine.FASTPATH_ENABLED:
        raise GuardError("the simulator fast path is disabled")
    if current_tracer() is not None:
        raise GuardError("a tracer is installed")


def check_machine(machine):
    """Per-machine guard: no tracer and no persistency checker."""
    if machine.tracer is not None:
        raise GuardError("machine was built under a tracer")
    if machine.pmcheck is not None:
        raise GuardError("a PmCheck is installed on the machine")


#: The probe's wall time at reference host speed (its time in the fast
#: phase of a 2.0 GHz x86 cloud core).
PROBE_REFERENCE_S = 0.003
#: A probe this recent is reused as the start of the next slice.
PROBE_REUSE_S = 0.010


def probe():
    """Wall time of a fixed dictionary-heavy loop: the host's speed now.

    Hashing, dictionary growth and integer allocation are what the
    simulator's hot paths do too.  Over four minutes of identical serve
    iterations on a 2-vCPU 2.0 GHz x86 VM, the probe's 10 s medians and
    the serve call's moved together (2.9-5.2 ms against 0.14-0.22 s),
    while a string-building loop tracked the serve call poorly.
    """
    t0 = perf_counter()
    table = {}
    get = table.get
    for i in range(15000):
        key = (i * 2654435761) & 0xFFFFF
        table[key] = get(key, 0) + 1
    return perf_counter() - t0


class HostClock:
    """Times slices in reference seconds (see the module docstring)."""

    def __init__(self):
        self._probe = None
        self._probe_end = 0.0
        self._t0 = None
        self.probes = []

    def start(self):
        if self._probe is None or \
                perf_counter() - self._probe_end > PROBE_REUSE_S:
            self._probe = probe()
            self.probes.append(self._probe)
        self._t0 = perf_counter()

    def stop(self):
        """``(reference seconds, wall seconds)`` since :meth:`start`."""
        wall = perf_counter() - self._t0
        before = self._probe
        self._probe = probe()
        self._probe_end = perf_counter()
        self.probes.append(self._probe)
        scale = PROBE_REFERENCE_S / ((before + self._probe) / 2.0)
        return wall * scale, wall


class Samples:
    """Named lists of per-iteration samples."""

    def __init__(self):
        self.series = {}

    def add(self, name, value):
        self.series.setdefault(name, []).append(value)

    def median(self, name):
        return statistics.median(self.series[name])

    def count(self, name):
        return len(self.series.get(name, ()))

    def quartiles(self):
        """``{name: [q1, median, q3, n]}`` for every series."""
        out = {}
        for name, values in sorted(self.series.items()):
            if len(values) >= 2:
                q1, q2, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q2 = q3 = values[0]
            out[name] = [q1, q2, q3, len(values)]
        return out


def peak_rss_mb():
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modelled-device counters --------------------------------------------------

def _optane_dimms(machine):
    return [dimm for row in machine.optane for _, dimm in row]


def device_snapshot(machine):
    """Public counters of the modelled hardware at one instant.

    Reading them costs nothing in the served loop: they are plain
    attributes the simulator keeps anyway.  DIMM counters come through
    ``Namespace.counter_snapshots()``; a DIMM that several namespaces
    share is counted once.
    """
    dimm_snaps = {}
    for ns in machine.namespaces():
        for dimm, snap in zip(ns.dimms, ns.counter_snapshots()):
            dimm_snaps[id(dimm)] = snap
    dimms = _optane_dimms(machine)
    return {
        "llc_hits": sum(c.hits for c in machine.caches),
        "llc_misses": sum(c.misses for c in machine.caches),
        "xpb_hits": sum(d.buffer.hits for d in dimms),
        "xpb_misses": sum(d.buffer.misses for d in dimms),
        "thermal_stalls": machine.total_thermal_stalls(),
        "dimm": aggregate(dimm_snaps.values()),
    }


def device_delta(before, after):
    """Counter increments between two :func:`device_snapshot` calls."""
    out = {name: after[name] - before[name]
           for name in after if name != "dimm"}
    a, b = after["dimm"], before["dimm"]
    out["dimm"] = CounterSnapshot(
        imc_read_bytes=a.imc_read_bytes - b.imc_read_bytes,
        imc_write_bytes=a.imc_write_bytes - b.imc_write_bytes,
        media_read_bytes=a.media_read_bytes - b.media_read_bytes,
        media_write_bytes=a.media_write_bytes - b.media_write_bytes,
        migrations=a.migrations - b.migrations)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def sim_metrics(delta, requests, kops, latency_us):
    """The ``sim.*`` figures of one served loop.

    ``latency_us`` comes from the ObsRecorder's request histogram; EWR
    is reported as 0 when no write reached the media (the model's own
    sentinel is infinite, which JSON cannot carry).
    """
    dimm = delta["dimm"]
    return {
        "kops": kops,
        "p50_us": latency_us["p50"],
        "p99_us": latency_us["p99"],
        "p999_us": latency_us["p999"],
        "llc_hit_rate": _ratio(delta["llc_hits"],
                               delta["llc_hits"] + delta["llc_misses"]),
        "xpbuffer_hit_rate": _ratio(delta["xpb_hits"],
                                    delta["xpb_hits"]
                                    + delta["xpb_misses"]),
        "media_write_bytes_per_req": _ratio(dimm.media_write_bytes,
                                            requests),
        "ewr": _ratio(dimm.imc_write_bytes, dimm.media_write_bytes),
        "ait_migrations": dimm.migrations,
        "thermal_stalls": delta["thermal_stalls"],
    }


def value_digest(value):
    """A short stable fingerprint of one read-back value (None = absent)."""
    if value is None:
        return b""
    return hashlib.blake2b(bytes(value), digest_size=8).digest()

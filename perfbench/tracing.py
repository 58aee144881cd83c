"""Timing wrappers for the traced run.

The traced run charges host time to layers from outside the program:
a proxy around the ``Service`` object times every call into the
substrate, and a recorder subclass times the observability fold.  No
``Tracer`` is installed, because a tracer switches the namespace fast
paths off and would time a different program.

The proxy also checks what the substrate returns: every ``get`` must
return the value most recently ``put`` for its key, against a shadow
map the proxy keeps itself.
"""

from time import perf_counter

from repro.obs import ObsRecorder


class TimedService:
    """Times, counts and checks the calls made into one ``Service``."""

    def __init__(self, service):
        self._service = service
        self.shadow = {}
        self.mismatches = 0
        # op -> [calls, host seconds, simulated ns]
        self.calls = {"get": [0, 0.0, 0.0], "put": [0, 0.0, 0.0]}
        self.calls_by_thread = {}

    def _note(self, op, thread, host_s, sim_ns):
        entry = self.calls[op]
        entry[0] += 1
        entry[1] += host_s
        entry[2] += sim_ns
        tid = thread.tid
        self.calls_by_thread[tid] = self.calls_by_thread.get(tid, 0) + 1

    def get(self, thread, key):
        sim0 = thread.now
        t0 = perf_counter()
        value = self._service.get(thread, key)
        t1 = perf_counter()
        self._note("get", thread, t1 - t0, thread.now - sim0)
        expected = self.shadow.get(key)
        if (None if value is None else bytes(value)) != expected:
            self.mismatches += 1
        return value

    def put(self, thread, key, value):
        sim0 = thread.now
        t0 = perf_counter()
        self._service.put(thread, key, value)
        t1 = perf_counter()
        self._note("put", thread, t1 - t0, thread.now - sim0)
        self.shadow[key] = bytes(value)

    def service_seconds(self):
        return sum(entry[1] for entry in self.calls.values())

    def reset_timers(self):
        """Forget preload calls so only the served loop is charged."""
        for entry in self.calls.values():
            entry[0] = 0
            entry[1] = 0.0
            entry[2] = 0.0
        self.calls_by_thread = {}

    def __getattr__(self, name):
        # scan/delete/recover/stats: the served workloads issue only
        # get and put, so anything else passes through untimed.
        return getattr(self._service, name)


class TimedRecorder(ObsRecorder):
    """An ``ObsRecorder`` that times its own bulk fold."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fold_s = 0.0
        self.ingest_s = 0.0

    def ingest(self, latencies_ns, end_ts_ns):
        t0 = perf_counter()
        super().ingest(latencies_ns, end_ts_ns)
        elapsed = perf_counter() - t0
        self.fold_s += elapsed
        self.ingest_s += elapsed

    def ingest_ops(self, ops_by_type):
        t0 = perf_counter()
        super().ingest_ops(ops_by_type)
        elapsed = perf_counter() - t0
        self.fold_s += elapsed
        self.ingest_s += elapsed

    def to_dict(self):
        t0 = perf_counter()
        blob = super().to_dict()
        self.fold_s += perf_counter() - t0
        return blob

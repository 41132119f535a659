"""Outside-in tracing of goldbach_ab: spans around calls into each layer.

Nothing under ``src/`` is edited.  For the traced pass the module attributes
that ``goldbach_ab.cli`` and ``goldbach_ab.claims`` bind are replaced by
timing wrappers, and ``goldbach_ab.claims.multiprocessing`` by a stand-in
whose ``Pool`` is timed; everything is restored afterwards.  Calls made
inside pool workers are not traced: the workers run the chunk evaluators,
which call none of the wrapped functions.

Spans (id, name, start, end, parent, request id) stay in memory and are
written out when the traced run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

import contextlib
import json
import os
import pickle
import resource
import time
from collections import Counter, defaultdict

# (attribute bound in cli and/or claims, span name).  Layers are modules.
WRAPPED = (
    ("build_table", "sieve.build_table"),
    ("split_primes", "classify.split_primes"),
    ("census", "partition.census"),
    ("range_verify", "claims.range_verify"),
    ("comet_rows", "claims.comet_rows"),
    ("companions", "claims.companions"),
    ("evaluate_claims", "claims.evaluate_claims"),
    ("pairing_report", "claims.pairing_report"),
    ("midpoint_report", "claims.midpoint_report"),
)


class Tracer:
    """Nested spans of one thread plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, request_id, excluded]
        self.counts = Counter()
        self.request_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent,
                           self.request_id, 0.0])
        self._stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid][3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def untimed(self):
        """Work the tracer itself does inside open spans; charged to none."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - t0
            for sid in self._stack:
                self.spans[sid][6] += spent

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self):
        """(total seconds, self seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2] - s[6]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for s in self.spans:
            d = s[3] - s[2] - s[6]
            total[s[1]] += d
            own[s[1]] += d - child[s[0]]
            calls[s[1]] += 1
        return total, own, calls

    def dump(self, path):
        keys = ("id", "name", "start", "end", "parent", "request", "excluded_s")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class TimedPoolModule:
    """Stand-in for the ``multiprocessing`` module that claims.py binds."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def Pool(self, *args, **kwargs):
        with self._tracer.span("claims.pool.start"):
            pool = self._real.Pool(*args, **kwargs)
        initargs = kwargs.get("initargs", args[2] if len(args) > 2 else ())
        with self._tracer.untimed():
            handed = sum(len(pickle.dumps(a, pickle.HIGHEST_PROTOCOL)) for a in initargs)
        self._tracer.counts["claims.pool.starts"] += 1
        self._tracer.counts["claims.pool.table_bytes"] += handed
        return pool

    def __getattr__(self, name):
        return getattr(self._real, name)


def _counters(chunk_evens, replay):
    """Per-function counting hooks: (counts, args, kwargs, result) -> None."""

    def arg(args, kwargs, i, name, default=None):
        return args[i] if len(args) > i else kwargs.get(name, default)

    def chunks(args, kwargs, pos):
        # pos: position of chunk_evens in the signature of the wrapped function
        lo, hi = args[0], args[1]
        size = arg(args, kwargs, pos, "chunk_evens", chunk_evens)
        return -(-((hi - lo) // 2 + 1) // size)

    def build_table(c, args, kwargs, table):
        c["sieve.odd_bytes"] += len(table.odd_bits)

    def split_primes(c, args, kwargs, split):
        c["classify.primes_split"] += len(split.a_primes) + len(split.b_primes)

    def census(c, args, kwargs, cen):
        # census builds a B-type mask and a primality window, N - 2 bytes each
        c["partition.window_bytes"] += 2 * (args[0].n - 2)

    def range_verify(c, args, kwargs, outcomes):
        c["claims.chunks"] += chunks(args, kwargs, 5)
        c["claims.evens_checked"] += max(o.payload["evens_checked"] for o in outcomes)
        for o in outcomes:
            c["claims.identities_inspected"] += o.payload.get("identities_inspected", 0)
            c["claims.a_primes_checked"] += o.payload.get("a_primes_checked", 0)
        lo, hi = args[0], args[1]
        table = arg(args, kwargs, 4, "table")
        replay.append((lo, hi, tuple(arg(args, kwargs, 2, "claims")),
                       arg(args, kwargs, 3, "workers", 1),
                       table.limit if table is not None else hi + 1))

    def comet_rows(c, args, kwargs, rows):
        c["claims.chunks"] += chunks(args, kwargs, 4)
        c["claims.comet_rows.rows"] += len(rows)

    def companions(c, args, kwargs, records):
        c["claims.companions.records"] += len(records)

    def nothing(c, args, kwargs, result):
        pass

    return {"build_table": build_table, "split_primes": split_primes,
            "census": census, "range_verify": range_verify,
            "comet_rows": comet_rows, "companions": companions,
            "evaluate_claims": nothing, "pairing_report": nothing,
            "midpoint_report": nothing}


@contextlib.contextmanager
def patched(tracer, replay):
    """Install the wrappers and the pool stand-in; restore them on exit."""
    from goldbach_ab import claims, cli

    hooks = _counters(claims.DEFAULT_CHUNK_EVENS, replay)
    saved = []

    def swap(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for attr, name in WRAPPED:
        for module in (cli, claims):
            if hasattr(module, attr):
                swap(module, attr, tracer.wrap(name, getattr(module, attr), hooks[attr]))
    swap(claims, "multiprocessing", TimedPoolModule(claims.multiprocessing, tracer))
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def traced_run(run_pass, requests, outdir, records, untraced_s, span_file):
    """Traced pass over ``requests`` plus the per-claim replay.

    ``run_pass`` is the client's pass loop (``workload.run_pass``).  Appends
    the traced pass's request records to ``records`` and returns the
    per-layer metrics, the self-time shares and the span file's path.
    """
    from goldbach_ab import claims, cli, sieve

    tracer = Tracer()
    replay = []

    def traced_main(rid, argv):
        tracer.request_id = rid
        with tracer.span("cli.main"):
            return cli.main(argv)

    first = len(records)
    cpu0 = _cpu_s()
    with patched(tracer, replay):
        run_pass(cli.main, requests, outdir, "traced", records, traced_main)
    cpu_s = _cpu_s() - cpu0
    mine = records[first:]
    traced_s = sum(r["wall_s"] for r in mine)
    evens = sum(r["evens"] for r in mine)
    total, own, calls = tracer.durations()
    c = tracer.counts

    per_claim = {cid.value: 0.0 for cid in claims.ClaimId}
    for lo, hi, cids, workers, limit in replay:
        table = sieve.build_table(limit)
        for cid in cids:
            t0 = time.perf_counter()
            claims.range_verify(lo, hi, claims=(cid,), workers=workers, table=table)
            per_claim[cid.value] += time.perf_counter() - t0
        del table  # free it before the next call's table is built

    metrics = {
        "sieve.build_table.s": (total["sieve.build_table"], "s"),
        "sieve.build_table.calls": (calls["sieve.build_table"], "count"),
        "sieve.odd_bytes": (c["sieve.odd_bytes"], "bytes"),
        "sieve.odd_bytes_per_even": (c["sieve.odd_bytes"] / evens, "bytes/even"),
        "classify.split_primes.s": (total["classify.split_primes"], "s"),
        "classify.split_primes.calls": (calls["classify.split_primes"], "count"),
        "classify.primes_split": (c["classify.primes_split"], "count"),
        "partition.census.s": (total["partition.census"], "s"),
        "partition.census.calls": (calls["partition.census"], "count"),
        "partition.window_bytes": (c["partition.window_bytes"], "bytes"),
        "claims.range_verify.s": (total["claims.range_verify"], "s"),
        "claims.evens_checked": (c["claims.evens_checked"], "count"),
        "claims.chunks": (c["claims.chunks"], "count"),
        "claims.identities_inspected": (c["claims.identities_inspected"], "count"),
        "claims.a_primes_checked": (c["claims.a_primes_checked"], "count"),
        "claims.comet_rows.s": (total["claims.comet_rows"], "s"),
        "claims.comet_rows.rows": (c["claims.comet_rows.rows"], "count"),
        **{f"claims.range_verify.{k}.s": (v, "s") for k, v in per_claim.items()},
        "claims.companions.s": (total["claims.companions"], "s"),
        "claims.companions.records": (c["claims.companions.records"], "count"),
        "claims.evaluate_claims.s": (total["claims.evaluate_claims"], "s"),
        "claims.pairing_report.s": (total["claims.pairing_report"], "s"),
        "claims.midpoint_report.s": (total["claims.midpoint_report"], "s"),
        "claims.pool.start_s": (total["claims.pool.start"], "s"),
        "claims.pool.starts": (c["claims.pool.starts"], "count"),
        "claims.pool.table_bytes": (c["claims.pool.table_bytes"], "bytes"),
        "cli.main.s": (total["cli.main"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.bytes_out": (sum(os.path.getsize(r["out"]) for r in mine
                              if os.path.exists(r["out"])), "bytes"),
        "process.cpu_s": (cpu_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    main_s = total["cli.main"] or 1.0
    shares = {name: own[name] / main_s for name in sorted(own, key=own.get, reverse=True)}
    tracer.dump(span_file)
    return {"metrics": metrics, "self_shares": shares, "untraced_s": untraced_s,
            "traced_s": traced_s, "spans": len(tracer.spans), "span_file": span_file}

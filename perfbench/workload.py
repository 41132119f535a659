"""Closed-loop client for one benchmark workload, run in a fresh process.

One client calls ``goldbach_ab.cli.main(argv)`` in-process, request after
request, each writing its output to its own scratch file through ``--out``.
The requests of one *pass* are generated from the seed; the client repeats
the pass until the time budget would be exceeded, always finishing whole
passes so every run answers the same request mix.

Modes:

* ``setup``  time the import and request generation, then exit;
* ``run``    the untraced closed loop that the end-to-end metrics come from;
* ``trace``  one untraced pass, the same pass traced, and a per-claim replay
             of its range calls; per-layer metrics come from here.

Usage (normally started by ``run.py``)::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --mode run|trace|setup --outdir DIR

The result is written to ``DIR/result.json``; the setup time is also printed.
Nothing but ``sys``, ``os`` and ``time`` is imported before the setup timer
starts, so standard-library modules that the package itself imports are
charged to ``setup_s``.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LINEAR_CLAIMS = "sbound,witness,pairing,midpoint-coprime,midpoint-decomposes,primepower"

# Seeds move every target within a narrow band around a fixed size, so each
# seed asks for the same amount of work while the targets' arithmetic
# (factorisations, prime positions) changes; the spread between seeds is then
# the machine's, not the inputs'.

# A pass sends an odd number of requests of distinct cost (sweep, comet), so
# the median latency falls inside one request's cluster of repeats instead of
# between two clusters, where it would swing with noise.

# sweep: SWEEP_BLOCKS consecutive blocks of SWEEP_WIDTH from a seeded low start.
SWEEP_START = 1_000_000
SWEEP_JITTER = 20_000
SWEEP_WIDTH = 240_000
SWEEP_BLOCKS = 5

# comet: the comet export of [L, L + W], then the two window claims over the
# same range, one request each.
COMET_START = 20_000
COMET_JITTER = 400
COMET_WIDTH = 30_000

# probes: one round per stratum of each range, strata visited in seeded order.
PROBE_STRATA = 8
PROBE_CENSUS = (1_000_000, 5_000_000)
PROBE_CENSUS_JITTER = 10_000
PROBE_ANALYZE = (10_000, 100_000)
PROBE_ANALYZE_JITTER = 200
# Two chunks of the seed commit's DEFAULT_CHUNK_EVENS (8192), pinned here so a
# later change to the chunk size does not change the workload.
PROBE_WINDOW_EVENS = 16_384

WORKLOADS = ("sweep", "comet", "probes")


def _request(argv, evens):
    return {"argv": argv, "evens": evens}


def _verify(lo, hi, claims, workers):
    argv = ["verify", str(lo), str(hi), "--claims", claims,
            "--workers", str(workers), "--format", "json"]
    return _request(argv, (hi - lo) // 2 + 1)


def _even_near(rng, centre, jitter):
    """Uniform even number in [centre, centre + jitter)."""
    return centre + 2 * rng.randrange(jitter // 2)


def make_pass(name, seed):
    """The seeded request list of one pass of workload ``name``."""
    import random

    rng = random.Random(f"{name}:{seed}")
    if name == "sweep":
        lo = _even_near(rng, SWEEP_START, SWEEP_JITTER)
        return [
            _verify(b, b + SWEEP_WIDTH - 2, LINEAR_CLAIMS, 2)
            for b in range(lo, lo + SWEEP_BLOCKS * SWEEP_WIDTH, SWEEP_WIDTH)
        ]
    if name == "comet":
        lo = _even_near(rng, COMET_START, COMET_JITTER)
        hi = lo + COMET_WIDTH
        return [_request(["comet", str(lo), str(hi), "--workers", "1"], (hi - lo) // 2 + 1),
                _verify(lo, hi, "same-type", 1),
                _verify(lo, hi, "companions", 1)]
    if name == "probes":
        def strata(lo, hi, jitter):
            step = (hi - lo) // PROBE_STRATA
            order = list(range(PROBE_STRATA))
            rng.shuffle(order)
            return [_even_near(rng, lo + i * step, jitter) for i in order]

        reqs = []
        for two_n, small in zip(strata(*PROBE_CENSUS, PROBE_CENSUS_JITTER),
                                strata(*PROBE_ANALYZE, PROBE_ANALYZE_JITTER)):
            reqs.append(_request(["census", str(two_n), "--format", "csv"], 1))
            reqs.append(_verify(two_n - 2 * PROBE_WINDOW_EVENS + 2, two_n,
                                LINEAR_CLAIMS, 2))
            reqs.append(_request(["analyze", str(small)], 1))
        return reqs
    raise ValueError(f"unknown workload {name!r}")


def _parse_args(argv):
    opts = {}
    it = iter(argv)
    for key in it:
        if not key.startswith("--"):
            raise SystemExit(f"unexpected argument {key!r}")
        opts[key[2:]] = next(it)
    return opts


def _import_package():
    """Import goldbach_ab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "goldbach_ab", "__init__.py")):
        raise SystemExit(f"no goldbach_ab package under {SRC}")
    sys.path.insert(0, SRC)
    import goldbach_ab
    import goldbach_ab.cli

    return goldbach_ab


def run_pass(cli_main, requests, outdir, tag, records, traced=None):
    """Send every request of one pass, one after the other (closed loop)."""
    for i, req in enumerate(requests):
        out = os.path.join(outdir, f"{tag}-{i}.out")
        argv = req["argv"] + ["--out", out]
        rid = f"{tag}-{i}"
        rc = None
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli_main(argv) if traced is None else traced(rid, argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed request is data, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        records.append({"id": rid, "argv": req["argv"], "out": out,
                        "evens": req["evens"], "rc": rc, "error": error,
                        "wall_s": wall})


def closed_loop(cli_main, requests, seconds, outdir):
    """Whole passes until another pass would overrun ``seconds``.

    Returns the request records, in order, and the number of passes.
    """
    records = []
    passes = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + elapsed / passes > seconds:
            return records, passes
        run_pass(cli_main, requests, outdir, f"p{passes}", records)
        passes += 1


def config(pkg):
    """Configuration of this run, recorded only, never changed."""
    import multiprocessing
    import platform

    from goldbach_ab import claims, sieve

    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        method = f"{multiprocessing.get_all_start_methods()[0]} (platform default)"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "mp_start_method": method,
        "DEFAULT_CHUNK_EVENS": claims.DEFAULT_CHUNK_EVENS,
        "DEFAULT_SEGMENT_SIZE": sieve.DEFAULT_SEGMENT_SIZE,
        "package_version": pkg.__version__,
        "package_path": os.path.dirname(pkg.__file__),
    }


def main(argv):
    t0 = time.perf_counter()
    opts = _parse_args(argv)
    pkg = _import_package()
    requests = make_pass(opts["workload"], int(opts["seed"]))
    setup_s = time.perf_counter() - t0
    mode = opts["mode"]
    if mode == "setup":
        print(repr(setup_s))
        return 0

    import json
    import resource

    outdir = opts["outdir"]
    cli_main = pkg.cli.main
    result = {"setup_s": setup_s, "mode": mode, "config": config(pkg)}
    if mode == "run":
        records, passes = closed_loop(cli_main, requests, float(opts["seconds"]), outdir)
        result["passes"] = passes
    elif mode == "trace":
        import spans

        records = []
        run_pass(cli_main, requests, outdir, "untraced", records)
        untraced_s = sum(r["wall_s"] for r in records)
        span_file = os.path.join(
            HERE, "_traces", f"spans-{opts['workload']}-{opts['seed']}.jsonl")
        os.makedirs(os.path.dirname(span_file), exist_ok=True)
        result["trace"] = spans.traced_run(run_pass, requests, outdir, records,
                                           untraced_s, span_file)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["records"] = records
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["maxrss_kb"] = self_ru.ru_maxrss
    result["children_maxrss_kb"] = child_ru.ru_maxrss
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
